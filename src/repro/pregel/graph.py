"""Directed property graph in CSR (compressed sparse row) form.

This is the graph substrate both the Pregel engine and the shared-memory
reference interpreter run on.  Node properties are columnar arrays indexed by
vertex id; edge properties are arrays aligned with the out-edge CSR order, so
an edge's property is addressed by its CSR position — matching Pregel's model
where the edge ``(u, v)`` and its values belong to the source vertex ``u``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

#: typecode of each topology buffer.  Offsets count edges ('q'); vertex ids
#: and CSR positions are 32-bit ('i'), which is also the wire format's width.
_CSR_TYPECODES = {
    "out_offsets": "q",
    "out_targets": "i",
    "in_offsets": "q",
    "in_sources": "i",
    "in_edge_ids": "i",
}
_MAX_INDEX = 2**31 - 1


@dataclass
class Graph:
    """Topology lives in typed buffers (``array.array``): one buffer, two
    views — native-int indexing, slicing and iteration for the scalar
    engines, and a zero-copy ``np.asarray`` view for array code."""

    num_nodes: int
    # CSR over outgoing edges
    out_offsets: array
    out_targets: array
    # CSR over incoming edges; in_edge_ids maps each in-edge back to its
    # position in the out-CSR (where edge properties live).
    in_offsets: array
    in_sources: array
    in_edge_ids: array
    node_props: dict[str, list] = field(default_factory=dict)
    edge_props: dict[str, Sequence] = field(default_factory=dict)  # see _edge_column

    def __post_init__(self):
        # a hand-constructed Graph may pass lists
        for name, typecode in _CSR_TYPECODES.items():
            buf = getattr(self, name)
            if not (isinstance(buf, array) and buf.typecode == typecode):
                setattr(self, name, array(typecode, buf))

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_edges(
        num_nodes: int,
        edges: Sequence[tuple[int, int]],
        edge_props: dict[str, Sequence] | None = None,
    ) -> "Graph":
        """Build a graph from an edge list.

        ``edge_props`` values are aligned with ``edges``; they are re-ordered
        into CSR position internally.
        """
        import numpy as np

        _check_addressable(num_nodes, len(edges))
        try:
            flat = array("q", chain.from_iterable(edges))
        except OverflowError:  # no int64 holds it, so no addressable graph does
            src, dst = next(e for e in edges if not all(0 <= x < num_nodes for x in e))
            raise ValueError(_out_of_range(src, dst, num_nodes)) from None
        if len(flat) != 2 * len(edges):
            raise ValueError("every edge must be a (src, dst) pair")
        pairs = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
        return Graph.from_columns(num_nodes, pairs[:, 0], pairs[:, 1], edge_props)

    @staticmethod
    def from_columns(
        num_nodes: int, src, dst, edge_props: dict[str, Sequence] | None = None
    ) -> "Graph":
        """The CSR builder: ``src`` / ``dst`` are aligned columns of ints
        (``int64`` arrays are used as they are), one entry per edge.  Edges
        keep their input order within a source (out-CSR) and within a
        destination (in-CSR), so message order follows the edge list."""
        import numpy as np

        num_edges = len(src)
        _check_addressable(num_nodes, num_edges)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        bad = (src < 0) | (src >= num_nodes) | (dst < 0) | (dst >= num_nodes)
        if bad.any():
            first = int(bad.argmax())
            raise ValueError(_out_of_range(int(src[first]), int(dst[first]), num_nodes))

        def offsets(ids):
            out = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(ids, minlength=num_nodes), out=out[1:])
            return _buffer("q", out)

        out_order = np.argsort(src, kind="stable")
        in_order = np.argsort(dst, kind="stable")
        edge_pos = np.empty(num_edges, dtype=np.int64)  # input index -> out-CSR position
        edge_pos[out_order] = np.arange(num_edges)
        graph = Graph(
            num_nodes,
            offsets(src),
            _buffer("i", dst[out_order]),
            offsets(dst),
            _buffer("i", src[in_order]),
            _buffer("i", edge_pos[in_order]),
        )
        for name, values in (edge_props or {}).items():
            if len(values) != num_edges:
                raise ValueError(
                    f"edge property '{name}' has {len(values)} values for "
                    f"{num_edges} edges"
                )
            graph.edge_props[name] = _edge_column(values, out_order)
        return graph

    # -- topology --------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.out_targets)

    @cached_property
    def out_rows(self) -> list[tuple[int, ...]]:
        """Per vertex, its out-neighbours as a tuple, sharing one int object
        per vertex id: what ``PregelEngine.send_nbrs_rows`` iterates.  Built
        at first use and kept with the graph, so the engines run over it
        share one and no run pays for (or frees) ``num_nodes`` rows."""
        ids = list(range(self.num_nodes))
        targets = tuple(map(ids.__getitem__, self.out_targets))
        offsets = self.out_offsets
        return [targets[offsets[v] : offsets[v + 1]] for v in ids]

    def out_nbrs(self, v: int) -> list[int]:
        return self.out_targets[self.out_offsets[v] : self.out_offsets[v + 1]].tolist()

    def in_nbrs(self, v: int) -> list[int]:
        return self.in_sources[self.in_offsets[v] : self.in_offsets[v + 1]].tolist()

    def out_edge_range(self, v: int) -> range:
        """CSR edge-id positions of v's outgoing edges (index edge_props)."""
        return range(self.out_offsets[v], self.out_offsets[v + 1])

    def out_degree(self, v: int) -> int:
        return self.out_offsets[v + 1] - self.out_offsets[v]

    def in_degree(self, v: int) -> int:
        return self.in_offsets[v + 1] - self.in_offsets[v]

    def degree(self, v: int) -> int:
        return self.out_degree(v)

    def nodes(self) -> range:
        return range(self.num_nodes)

    def edges(self) -> Iterable[tuple[int, int]]:
        for v in self.nodes():
            for w in self.out_nbrs(v):
                yield (v, w)

    # -- properties ----------------------------------------------------------

    def add_node_prop(self, name: str, values: Sequence | None = None, default=0) -> list:
        if values is not None:
            if len(values) != self.num_nodes:
                raise ValueError(
                    f"node property '{name}' has {len(values)} values for "
                    f"{self.num_nodes} nodes"
                )
            column = list(values)
        else:
            column = [default] * self.num_nodes
        self.node_props[name] = column
        return column

    def add_edge_prop_csr(self, name: str, values: Sequence | None = None, default=0):
        """Add an edge property already in CSR order."""
        if values is not None:
            if len(values) != self.num_edges:
                raise ValueError(
                    f"edge property '{name}' has {len(values)} values for "
                    f"{self.num_edges} edges"
                )
        else:
            values = [default] * self.num_edges
        column = self.edge_props[name] = _edge_column(values)
        return column

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"


def _check_addressable(num_nodes: int, num_edges: int) -> None:
    if num_nodes > _MAX_INDEX or num_edges > _MAX_INDEX:
        raise ValueError(
            f"a graph of {num_nodes} nodes and {num_edges} edges exceeds the "
            f"32-bit vertex-id / edge-id range (at most {_MAX_INDEX} of each)"
        )


def _out_of_range(src, dst, num_nodes: int) -> str:
    return f"edge ({src}, {dst}) out of range for {num_nodes} nodes"


def _edge_column(values, order=None):
    """How an edge property is stored, its values taken in ``order`` (None:
    as given): ``array('q')`` when every value is an ``int`` that int64
    holds, ``array('d')`` when every one is a ``float`` — indexing either
    yields the Python value it was given, and array code views it — else a
    list, as an empty column is.  A non-empty int or float numpy column is
    the first kind or the second."""
    import numpy as np

    column = values
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "if" and len(values)):
        values = values.tolist() if isinstance(values, np.ndarray) else values
        kinds = set(map(type, values))
        dtype = {int: np.int64, float: np.float64}.get(kinds.pop()) if len(kinds) == 1 else None
        try:
            column = None if dtype is None else np.array(values, dtype=dtype)
        except OverflowError:  # an int no int64 holds
            column = None
        if column is None:
            return list(values) if order is None else [values[i] for i in order.tolist()]
    column = np.ascontiguousarray(column if order is None else column[order])
    return _buffer("q" if column.dtype.kind == "i" else "d", column)


def _buffer(typecode: str, column) -> array:
    """A numpy column as an ``array.array`` of ``typecode`` (which numpy
    reads as the same C type); the builder has range-checked the values."""
    buf = array(typecode)
    buf.frombytes(column.astype(typecode, copy=False).view("uint8"))
    return buf
