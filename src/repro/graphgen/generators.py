"""Synthetic graph generators — scaled-down analogues of Table 1's inputs.

The paper evaluates on three billion-edge graphs we cannot host:

* **Twitter** (42M nodes / 1.5B edges) — a follower network with a heavily
  skewed in/out-degree distribution → :func:`twitter_like`, an RMAT
  (Kronecker) generator, the standard model for social-network skew;
* **Bipartite** (75M / 1.5B, uniform random) → :func:`bipartite`, uniform
  random left→right edges;
* **sk-2005** (51M / 1.9B) — a web crawl with strong locality and very dense
  host-local clusters → :func:`web_like`, a copying/preferential-attachment
  model producing locality and skew.

Shape — degree skew, bipartiteness, locality — is what drives Pregel
behaviour (frontier growth, message volume, load imbalance); absolute scale
only multiplies it.  Every generator takes ``num_nodes`` / ``avg_degree`` so
experiments can sweep scale.

:func:`twitter_like`, :func:`uniform_random` and :func:`attach_standard_props`
are array code that replays ``random.Random(seed)`` bit for bit, so they build
the graphs their scalar loops built (``tests/scalar_generators.py`` keeps
those loops as the exact oracle):

* ``random.Random(seed).getstate()`` is the Mersenne Twister's 624-word key
  and position, which ``numpy.random.MT19937`` accepts; ``random_raw`` then
  returns the same 32-bit words ``getrandbits(32)`` would;
* ``random()`` is ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53`` of two
  consecutive words — exact in float64;
* ``randrange(n)`` is ``_randbelow(n)``: each word shifted down to
  ``n.bit_length()`` bits, the first one ``< n`` wins — a filter of the words;
* the loops' stopping rule — the attempt at which the target-th distinct edge
  first appears — is kept by drawing attempts in blocks and admitting each
  block's unseen edges in first-appearance order (:func:`_first_distinct`).

That works because these three consume the stream independently of what they
drew before.  :func:`web_like`, :func:`skewed` and :func:`bipartite` do not —
preferential attachment draws ``randrange(len(targets))`` where ``targets``
grew or not by the previous accept, and ``bipartite`` alternates two
``randrange`` limits, so which limit a word meets depends on how many words
were rejected before it.  They stay sequential loops over ``random.Random``,
but what they paid per edge was never the stream: it was ``randrange``'s
argument checks and two calls, a set of tuples and sorting those tuples.
So they draw the same words with less around them (the old loops are the
oracle in ``tests/scalar_generators.py``):

* ``randrange(lo, hi)`` is ``lo + _randbelow(hi - lo)``, and
  ``_randbelow(n)`` draws ``getrandbits(n.bit_length())`` until the draw is
  ``< n`` — written out with ``getrandbits`` bound locally;
* ``random()`` and ``expovariate()`` stay calls;
* an edge is the int key ``src * n + dst`` in a set, sorted once by numpy
  and handed to :func:`_from_keys`, as the array generators do.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate

from ..pregel.graph import Graph

#: Attempts the array generators draw per block.  A block of RMAT attempts is
#: ``_BLOCK * scale`` doubles, so what a draw allocates does not grow with the
#: graph (and stays small enough for the allocator to reuse: at 2**17 the
#: 10^6-edge graph takes twice as long, all of it page faults).
_BLOCK = 1 << 14


class _Stream:
    """``random.Random(seed)``'s output, drawn as arrays (numpy is imported
    here, not by ``import repro``)."""

    def __init__(self, seed):
        import numpy as np

        *key, pos = random.Random(seed).getstate()[1]
        twister = np.random.MT19937()
        twister.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(key, dtype=np.uint32), "pos": pos},
        }
        self._np = np
        self._raw = twister.random_raw
        self._unread = np.empty(0, dtype=np.uint64)  # drawn but not yet consumed

    def _peek(self, k):
        unread = self._unread
        if len(unread) < k:
            fresh = self._raw(k - len(unread))
            unread = self._np.concatenate((unread, fresh)) if len(unread) else fresh
            self._unread = unread
        return unread[:k]

    def words(self, k):
        """The next ``k`` values of ``getrandbits(32)``."""
        out = self._peek(k)
        self._unread = self._unread[k:]
        return out

    def doubles(self, k):
        """The next ``k`` values of ``random()``."""
        w = self.words(2 * k)
        return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) / 9007199254740992.0

    def randbelow(self, n, count):
        """The next ``count`` values of ``randrange(n)`` (int64).  Rejected
        words are consumed, as ``_randbelow`` consumes them; the words after
        the last accepted one stay unread for the next draw."""
        if not 0 < n < 1 << 32:
            raise ValueError(f"randbelow({n}) does not fit one 32-bit word")
        np = self._np
        bits = n.bit_length()
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            need = count - filled
            # accepted with probability n / 2**bits > 1/2: the expected number
            # of words for ``need`` accepts, and a little more
            draws = self._peek((need << bits) // n + 16) >> (32 - bits)
            hits = np.flatnonzero(draws < n)[:need]
            out[filled : filled + len(hits)] = draws[hits]
            filled += len(hits)
            consumed = int(hits[-1]) + 1 if len(hits) == need else len(draws)
            self._unread = self._unread[consumed:]
        return out


def _first_distinct(draw, target: int, max_attempts: int | None = None):
    """The sorted distinct edge keys a scalar ``while len(edges) < target``
    loop ends with.  ``draw(k)`` returns the keys of the next ``k`` attempts
    that are not self-loops, in attempt order; attempts stop at the one where
    the ``target``-th distinct key first appears, or after ``max_attempts``."""
    import numpy as np

    def unseen(keys, among):
        """Where ``keys`` go in sorted ``among``, and which are not in it."""
        at = np.searchsorted(among, keys)
        new = np.ones(len(keys), dtype=bool)
        inside = at < len(among)
        new[inside] = among[at[inside]] != keys[inside]
        return at, new

    # Two sorted, disjoint levels: a block is inserted into ``recent``, which
    # is folded into ``seen`` once it outgrows a 16th of it — inserting every
    # block into one array is quadratic in the edge count.
    seen = recent = np.empty(0, dtype=np.int64)
    attempts = 0
    while (room := target - len(seen) - len(recent)) > 0 and (
        max_attempts is None or attempts < max_attempts
    ):
        # at least the edges still missing and at least all attempts so far: a
        # small graph does not pay for a full block, a slow yield doubles
        block = min(_BLOCK, max(room, attempts))
        if max_attempts is not None:
            block = min(block, max_attempts - attempts)
        attempts += block
        # sort-based on purpose: numpy 2.x's hash-based plain np.unique /
        # np.union1d are several times slower on 64-bit keys
        fresh, first = np.unique(draw(block), return_index=True)
        new = unseen(fresh, seen)[1]
        fresh, first = fresh[new], first[new]
        at, new = unseen(fresh, recent)
        fresh, first, at = fresh[new], first[new], at[new]
        if len(fresh) > room:  # the target is reached inside this block
            earliest = np.sort(np.argsort(first)[:room])
            fresh, at = fresh[earliest], at[earliest]
        recent = np.insert(recent, at, fresh)
        if len(recent) > len(seen) >> 4:
            seen = np.insert(seen, np.searchsorted(seen, recent), recent)
            recent = recent[:0]
    return np.insert(seen, np.searchsorted(seen, recent), recent)


def _at_least(lowest, **args) -> None:
    """Raise ``ValueError`` naming the first argument below ``lowest``."""
    for name, value in args.items():
        if value < lowest:
            raise ValueError(f"{name} must be >= {lowest}, got {value}")


def uniform_random(num_nodes: int, num_edges: int, *, seed: int = 1) -> Graph:
    """Uniform random directed multigraph-free edge set (Erdős–Rényi G(n, m))."""
    _at_least(0, num_nodes=num_nodes, num_edges=num_edges)
    max_edges = num_nodes * (num_nodes - 1) if num_nodes > 1 else 0
    if num_edges > max_edges:
        raise ValueError(
            f"a simple directed graph on {num_nodes} nodes has at most "
            f"{max_edges} edges, got num_edges={num_edges}"
        )
    stream = _Stream(seed)

    def draw(k):
        ends = stream.randbelow(num_nodes, 2 * k)
        a, b = ends[0::2], ends[1::2]
        keep = a != b
        return a[keep] * num_nodes + b[keep]

    return _from_keys(num_nodes, _first_distinct(draw, num_edges))


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
    networks.

    Aims at ``num_nodes * avg_degree`` distinct edges and gives up after 20
    attempts per edge aimed at, so a target the node count cannot hold
    (``twitter_like(5, avg_degree=16)``) returns fewer edges, silently."""
    import numpy as np

    _at_least(0, num_nodes=num_nodes, avg_degree=avg_degree)
    stream = _Stream(seed)
    scale = max(1, (num_nodes - 1).bit_length())
    place = 1 << np.arange(scale - 1, -1, -1, dtype=np.int64)
    target_edges = num_nodes * avg_degree

    def draw(k):
        # one row of quadrant draws per attempt, most significant bit first;
        # the three comparisons are the scalar if / elif chain's
        r = stream.doubles(k * scale).reshape(k, scale)
        in_a, in_ab, in_abc = r < a, r < a + b, r < a + b + c
        src = (~(in_a | in_ab)) @ place % num_nodes
        dst = (~in_a & (in_ab | ~in_abc)) @ place % num_nodes
        keep = src != dst
        return src[keep] * num_nodes + dst[keep]

    return _from_keys(num_nodes, _first_distinct(draw, target_edges, target_edges * 20))


def _from_keys(num_nodes: int, keys) -> Graph:
    """The graph of sorted edge keys ``src * num_nodes + dst``."""
    return Graph.from_columns(num_nodes, keys // num_nodes, keys % num_nodes)


def _sorted_keys(edges: set[int]):
    """``edges`` as a sorted int64 array; empties the set to free it early."""
    import numpy as np

    keys = np.fromiter(edges, dtype=np.int64, count=len(edges))
    edges.clear()
    keys.sort()
    return keys


def web_like(num_nodes: int, avg_degree: int = 16, *, seed: int = 1, locality: float = 0.8) -> Graph:
    """Copying-model web graph: each new page links to recent (local) pages
    with probability ``locality``, otherwise copies a link target of one of
    its local predecessors — producing host-like locality plus a skewed
    in-degree tail, the structure of crawls like sk-2005."""
    _at_least(0, num_nodes=num_nodes)
    if not avg_degree > 0:
        raise ValueError(f"avg_degree must be > 0, got {avg_degree}")
    if not 0 <= locality <= 1:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    rng = random.Random(seed)
    draw, bits, expovariate = rng.random, rng.getrandbits, rng.expovariate
    n, rate = num_nodes, 1.0 / avg_degree
    edges: set[int] = set()  # keys src * n + dst
    # Link targets seen so far; sampling from this list is preferential
    # attachment (popular pages accumulate in-links, as in real crawls).
    targets: list[int] = [0]
    window = max(4, n // 50)
    for v in range(1, n):
        span, row = min(v, window), v * n
        lo, span_bits = v - span, span.bit_length()
        for _ in range(max(1, int(expovariate(rate)))):
            if draw() < locality:  # randrange(lo, v)
                t = bits(span_bits)
                while t >= span:
                    t = bits(span_bits)
                t += lo
            else:  # targets[randrange(len(targets))]
                size = len(targets)
                t = bits(size.bit_length())
                while t >= size:
                    t = bits(size.bit_length())
                t = targets[t]
            if t != v and row + t not in edges:
                edges.add(row + t)
                targets.append(t)
                # web graphs are locally reciprocal: site navigation links
                if draw() < 0.25 and t * n + v not in edges:
                    edges.add(t * n + v)
    return _from_keys(n, _sorted_keys(edges))


def bipartite(
    num_left: int, num_right: int, num_edges: int, *, seed: int = 1
) -> Graph:
    """Uniform random bipartite graph; edges run left→right, with the
    ``is_left`` node property attached (as the paper's matching input)."""
    _at_least(0, num_left=num_left, num_right=num_right, num_edges=num_edges)
    bits = random.Random(seed).getrandbits
    total = num_left + num_right
    left_bits, right_bits = num_left.bit_length(), num_right.bit_length()
    edges: set[int] = set()  # keys src * total + dst
    target = min(num_edges, num_left * num_right)
    while len(edges) < target:
        a = bits(left_bits)  # randrange(num_left)
        while a >= num_left:
            a = bits(left_bits)
        b = bits(right_bits)  # randrange(num_right)
        while b >= num_right:
            b = bits(right_bits)
        edges.add(a * total + num_left + b)
    graph = _from_keys(total, _sorted_keys(edges))
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
    cumulative = list(accumulate(w / total_w for w in weights))
    # Scale draws so the expected degree matches avg_degree.
    mean_draw = sum((d + 1) * w for d, w in enumerate(weights)) / total_w
    boost = max(1.0, avg_degree / mean_draw)
    draw, bits = rng.random, rng.getrandbits
    n, n_bits = num_nodes, num_nodes.bit_length()
    edges: set[int] = set()  # keys src * n + dst
    targets: list[int] = [0]  # preferential-attachment pool
    for v in range(n):
        # the least degree whose cumulative weight reaches the draw
        deg = min(bisect_left(cumulative, draw()) + 1, max_deg)
        row = v * n
        for _ in range(max(1, int(deg * boost))):
            if draw() < 0.5:  # targets[randrange(len(targets))]
                size = len(targets)
                t = bits(size.bit_length())
                while t >= size:
                    t = bits(size.bit_length())
                t = targets[t]
            else:  # randrange(n)
                t = bits(n_bits)
                while t >= n:
                    t = bits(n_bits)
            if t != v and row + t not in edges:
                edges.add(row + t)
                targets.append(t)
    # Force the hub: the first hub_degree non-hub vertices all point at 0.
    edges.update(range(n, (hub_degree + 1) * n, n))
    return _from_keys(n, _sorted_keys(edges))


def attach_standard_props(graph: Graph, *, seed: int = 2) -> Graph:
    """Attach the node/edge properties the six algorithms consume: ``age``
    (for AvgTeen), ``member`` (for conductance), and the ``len`` edge weight
    (for SSSP)."""
    stream = _Stream(seed)
    n = graph.num_nodes
    graph.add_node_prop("age", (8 + stream.randbelow(62, n)).tolist())
    graph.add_node_prop("member", (stream.doubles(n) < 0.3).astype(int).tolist())
    graph.add_edge_prop_csr("len", 1 + stream.randbelow(15, graph.num_edges))
    return graph
