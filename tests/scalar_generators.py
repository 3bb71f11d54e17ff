"""Frozen scalar generators — the exact oracle, not tests.

``uniform_random``, ``twitter_like`` and ``attach_standard_props`` as the
``random.Random`` loops they were before ``repro.graphgen.generators``
replayed the same stream as array code; ``web_like``, ``bipartite`` and
``skewed`` as they were before the tight loops that inline ``randrange``
and keep edges as integer keys; ``save_edge_list`` as it was before the
writer formatted whole blocks of rows in one pass.  The bodies are moved
here verbatim.  ``test_generators.py`` holds the live code to these buffer
for buffer (CSR, every property, ``graph_signature``) and file for file;
nothing under ``src/`` imports them.  They call ``random.Random`` on the
running interpreter, so a CPython change to ``random()`` or ``randrange``
fails a test instead of drifting the graphs silently.  (``uniform_random``
here still loops forever when ``num_edges`` exceeds ``n * (n - 1)``; the
array code raises instead.  None of these validate their arguments.)
"""

import random
from pathlib import Path

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


def web_like(num_nodes: int, avg_degree: int = 16, *, seed: int = 1, locality: float = 0.8) -> Graph:
    """Copying-model web graph: each new page links to recent (local) pages
    with probability ``locality``, otherwise copies a link target of one of
    its local predecessors — producing host-like locality plus a skewed
    in-degree tail, the structure of crawls like sk-2005."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    # Link targets seen so far; sampling from this list is preferential
    # attachment (popular pages accumulate in-links, as in real crawls).
    targets: list[int] = [0]
    window = max(4, num_nodes // 50)
    for v in range(1, num_nodes):
        out_deg = max(1, int(rng.expovariate(1.0 / avg_degree)))
        for _ in range(out_deg):
            if rng.random() < locality:
                t = rng.randrange(max(0, v - window), v)
            else:
                t = targets[rng.randrange(len(targets))]
            if t != v and (v, t) not in edges:
                edges.add((v, t))
                targets.append(t)
                # web graphs are locally reciprocal: site navigation links
                if rng.random() < 0.25 and (t, v) not in edges:
                    edges.add((t, v))
    return Graph.from_edges(num_nodes, sorted(edges))


def bipartite(
    num_left: int, num_right: int, num_edges: int, *, seed: int = 1
) -> Graph:
    """Uniform random bipartite graph; edges run left→right, with the
    ``is_left`` node property attached (as the paper's matching input)."""
    rng = random.Random(seed)
    total = num_left + num_right
    edges: set[tuple[int, int]] = set()
    max_possible = num_left * num_right
    target = min(num_edges, max_possible)
    while len(edges) < target:
        a = rng.randrange(num_left)
        b = num_left + rng.randrange(num_right)
        edges.add((a, b))
    graph = Graph.from_edges(total, sorted(edges))
    graph.add_node_prop("is_left", [v < num_left for v in range(total)])
    return graph


def skewed(
    num_nodes: int,
    avg_degree: int = 16,
    *,
    seed: int = 1,
    exponent: float = 2.1,
    hub_degree: int | None = None,
) -> Graph:
    """Power-law graph with a configurable maximum-degree hub — the
    memory-pressure adversary.

    Out-degrees are drawn from a discrete power law ``P(d) ∝ d^-exponent``
    (the 2–2.5 range measured on real social/web graphs); targets are chosen
    by preferential attachment, so in-degree skews too.  Vertex 0 is then
    forced up to ``hub_degree`` in-edges (default ``num_nodes - 1``: every
    other vertex points at it).  On a message-per-edge algorithm the hub's
    inbox alone is ``hub_degree`` messages — the single-vertex allocation
    that decides whether a memory budget is satisfiable, which makes this
    generator the worst case for spill-to-disk and superstep splitting.
    """
    if num_nodes < 2:
        raise ValueError("skewed graph needs at least 2 nodes")
    if hub_degree is None:
        hub_degree = num_nodes - 1
    if not 1 <= hub_degree <= num_nodes - 1:
        raise ValueError(
            f"hub_degree must be in [1, {num_nodes - 1}], got {hub_degree}"
        )
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1")
    rng = random.Random(seed)
    # Discrete bounded power law via inverse-transform sampling on the
    # normalized tail weights (bounded so one draw cannot eat the edge
    # budget; the hub is added explicitly below).
    max_deg = max(2, min(num_nodes - 1, avg_degree * 8))
    weights = [d ** -exponent for d in range(1, max_deg + 1)]
    total_w = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total_w
        cumulative.append(acc)
    # Scale draws so the expected degree matches avg_degree.
    mean_draw = sum((d + 1) * w for d, w in enumerate(weights)) / total_w
    boost = max(1.0, avg_degree / mean_draw)
    edges: set[tuple[int, int]] = set()
    targets: list[int] = [0]  # preferential-attachment pool
    for v in range(num_nodes):
        r = rng.random()
        deg = max_deg
        for d, edge_cum in enumerate(cumulative):
            if r <= edge_cum:
                deg = d + 1
                break
        deg = max(1, int(deg * boost))
        for _ in range(deg):
            if targets and rng.random() < 0.5:
                t = targets[rng.randrange(len(targets))]
            else:
                t = rng.randrange(num_nodes)
            if t != v and (v, t) not in edges:
                edges.add((v, t))
                targets.append(t)
    # Force the hub: the first hub_degree non-hub vertices all point at 0.
    hub_sources = [v for v in range(1, num_nodes)][:hub_degree]
    for v in hub_sources:
        edges.add((v, 0))
    return Graph.from_edges(num_nodes, sorted(edges))


def save_edge_list(graph: Graph, path: str | Path, *, edge_props: list[str] | None = None) -> None:
    path = Path(path)
    names = edge_props if edge_props is not None else sorted(graph.edge_props)
    offsets = graph.out_offsets
    sources: list[str] = []
    for v in graph.nodes():
        sources.extend([str(v)] * (offsets[v + 1] - offsets[v]))
    columns = [sources, map(str, graph.out_targets)]
    columns.extend(map(str, graph.edge_props[name]) for name in names)
    with path.open("w") as fh:
        fh.write(f"# nodes: {graph.num_nodes}\n")
        if names:
            fh.write(f"# edge-props: {' '.join(names)}\n")
        if sources:
            fh.write("\n".join(map(" ".join, zip(*columns))))
            fh.write("\n")
    for name, values in graph.node_props.items():
        side = path.with_suffix(path.suffix + f".prop.{name}")
        with side.open("w") as fh:
            fh.writelines(f"{_fmt(v)}\n" for v in values)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)
