"""Frozen scalar generators — the exact oracle, not tests.

``uniform_random``, ``twitter_like`` and ``attach_standard_props`` as the
``random.Random`` loops they were before ``repro.graphgen.generators``
replayed the same stream as array code; the bodies are moved here verbatim.
``test_generators.py`` holds the array code to these buffer for buffer (CSR,
every property, ``graph_signature``); nothing under ``src/`` imports them.
They call ``random.Random`` on the running interpreter, so a CPython change
to ``random()`` or ``randrange`` fails a test instead of drifting the graphs
silently.  (``uniform_random`` here still loops forever when ``num_edges``
exceeds ``n * (n - 1)``; the array code raises instead.)
"""

import random

from repro.pregel import Graph


def uniform_random(num_nodes: int, num_edges: int, *, seed: int = 1) -> Graph:
    """Uniform random directed multigraph-free edge set (Erdős–Rényi G(n, m))."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < num_edges:
        a = rng.randrange(num_nodes)
        b = rng.randrange(num_nodes)
        if a != b:
            edges.add((a, b))
    return Graph.from_edges(num_nodes, sorted(edges))


def twitter_like(
    num_nodes: int,
    avg_degree: int = 16,
    *,
    seed: int = 1,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Graph:
    """RMAT/Kronecker generator with the classic (a, b, c, d) = (.57, .19,
    .19, .05) parameters, yielding the power-law degree skew of follower
    networks."""
    rng = random.Random(seed)
    scale = max(1, (num_nodes - 1).bit_length())
    size = 1 << scale
    target_edges = num_nodes * avg_degree
    edges: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = target_edges * 20
    while len(edges) < target_edges and attempts < max_attempts:
        attempts += 1
        src = dst = 0
        for _ in range(scale):
            r = rng.random()
            src <<= 1
            dst <<= 1
            if r < a:
                pass
            elif r < a + b:
                dst |= 1
            elif r < a + b + c:
                src |= 1
            else:
                src |= 1
                dst |= 1
        src %= num_nodes
        dst %= num_nodes
        if src != dst:
            edges.add((src, dst))
    return Graph.from_edges(num_nodes, sorted(edges))


def attach_standard_props(graph: Graph, *, seed: int = 2) -> Graph:
    """Attach the node/edge properties the six algorithms consume: ``age``
    (for AvgTeen), ``member`` (for conductance), and the ``len`` edge weight
    (for SSSP)."""
    rng = random.Random(seed)
    n = graph.num_nodes
    graph.add_node_prop("age", [rng.randrange(8, 70) for _ in range(n)])
    graph.add_node_prop("member", [int(rng.random() < 0.3) for _ in range(n)])
    graph.add_edge_prop_csr("len", [rng.randrange(1, 16) for _ in range(graph.num_edges)])
    return graph
