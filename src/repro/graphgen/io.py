"""Edge-list I/O: the interchange format for graphs and their properties.

Format (whitespace-separated, ``#`` comments):

    # nodes: N
    # edge-props: name...
    src dst [edge-prop values...]

Both headers are optional: the node count defaults to 1 + the largest id,
and columns after ``src dst`` that no ``# edge-props:`` line names are
ignored.  Node properties are stored in sidecar files
(``<base>.prop.<name>``), one value per line in vertex order.
"""

from __future__ import annotations

import glob
import io
from pathlib import Path

from ..pregel.graph import Graph


class GraphFormatError(ValueError):
    """A graph file (or its property sidecar) is malformed.

    Always carries *where*: ``path`` and, when the defect is on a specific
    line, the 1-based ``lineno`` — so a bad byte in a million-edge file is a
    one-line diagnosis, not a bare ``ValueError`` from deep inside parsing.
    """

    def __init__(self, path: Path, message: str, lineno: int | None = None):
        self.path = Path(path)
        self.lineno = lineno
        where = f"{self.path}:{lineno}" if lineno is not None else str(self.path)
        super().__init__(f"{where}: {message}")


#: edge lines formatted per write: enough to amortise the pass, few enough
#: that the text of a large graph is never held whole
_ROWS = 1 << 15


def save_edge_list(graph: Graph, path: str | Path, *, edge_props: list[str] | None = None) -> None:
    """Write ``graph`` in the format above: each block of edge lines is one
    ``"%s %s ...\\n" * rows`` format pass (``%s`` is ``str()``, so every
    column, typed or a list, reads as ``str`` of its values)."""
    import numpy as np

    path = Path(path)
    names = edge_props if edge_props is not None else sorted(graph.edge_props)
    columns = [graph.out_targets, *(graph.edge_props[name] for name in names)]
    width = 1 + len(columns)
    line = " ".join(["%s"] * width) + "\n"
    degrees = np.diff(np.frombuffer(graph.out_offsets, dtype=np.int64))
    sources = np.repeat(np.arange(graph.num_nodes), degrees)
    with path.open("w") as fh:
        fh.write(f"# nodes: {graph.num_nodes}\n")
        if names:
            fh.write(f"# edge-props: {' '.join(names)}\n")
        for lo in range(0, len(sources), _ROWS):
            block = sources[lo : lo + _ROWS].tolist()
            rows = len(block)
            flat = [None] * (rows * width)
            flat[0::width] = block
            for i, column in enumerate(columns, 1):
                flat[i::width] = column[lo : lo + rows]
            fh.write(line * rows % tuple(flat))
    for name, values in graph.node_props.items():
        side = path.with_suffix(path.suffix + f".prop.{name}")
        with side.open("w") as fh:
            fh.writelines(f"{_fmt(v)}\n" for v in values)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def load_edge_list(path: str | Path) -> Graph:
    """Load an edge-list graph, raising :class:`GraphFormatError` (with the
    offending line number) on any malformed input: bad headers, non-integer
    or negative vertex ids, edges dangling past the declared node count,
    edge-property rows of the wrong width, and broken sidecar files.

    Two tokenisers, one of everything else: :func:`_bulk_parse` reads a
    regular file (what :func:`save_edge_list` writes) as whole columns and
    declines anything else; :func:`_parse_lines` then accepts the
    irregular-but-valid files and locates every error.  Both go through
    :func:`_parse_header`, one CSR builder and :func:`_load_sidecars`."""
    path = Path(path)
    parsed = _bulk_parse(path)
    if parsed is None:
        parsed = _parse_lines(path)
    num_nodes, src, dst, edge_props = parsed
    try:
        graph = Graph.from_columns(num_nodes, src, dst, edge_props)
    except ValueError as exc:  # more nodes or edges than the buffers address
        raise GraphFormatError(path, str(exc)) from None
    _load_sidecars(path, graph)
    return graph


def _parse_header(path: Path, line: str, lineno: int, num_nodes, prop_names):
    """One stripped ``#`` line: ``# nodes: N`` and ``# edge-props: a b``
    replace what the file has declared so far — returned as ``(num_nodes,
    prop_names)`` — and anything else is a comment."""
    body = line[1:].strip()
    if body.startswith("nodes:"):
        text = body.split(":", 1)[1].strip()
        try:
            num_nodes = int(text)
        except ValueError:
            raise GraphFormatError(
                path, f"invalid node count '{text}' in header", lineno
            ) from None
        if num_nodes < 0:
            raise GraphFormatError(
                path, f"negative node count {num_nodes} in header", lineno
            )
    elif body.startswith("edge-props:"):
        prop_names = body.split(":", 1)[1].split()
    return num_nodes, prop_names


#: what a regular edge line is made of.  Anything else — a tab, the ``.`` or
#: ``e`` of a float, ``#``, ``+``, ``_``, a non-ASCII digit — makes the bulk
#: pass decline before a tokeniser that is not ``int()`` over ``str.split()``
#: could read it differently from the per-line parser.
_REGULAR_BYTES = b"0123456789- \n"


def _bulk_parse(path: Path):
    """``(num_nodes, src, dst, edge_props)`` for a regular file, ``None``
    for any other.  Regular: every ``#`` / blank line comes before the first
    edge, then rows of single-space-separated integers, all of the width the
    header accounts for, ids within range.  Says nothing about what is wrong
    with an edge line — :func:`_parse_lines` finds and reports that."""
    import numpy as np

    data = path.read_bytes()
    if b"\r" in data:  # text mode would break lines there
        return None
    num_nodes, prop_names = None, []
    pos = lineno = 0
    while pos < len(data) and data[pos] in b"#\n":
        end = data.find(b"\n", pos)
        if end < 0:
            end = len(data)
        lineno += 1
        if end > pos:
            try:
                line = data[pos:end].decode().strip()
            except UnicodeDecodeError:
                return None
            num_nodes, prop_names = _parse_header(path, line, lineno, num_nodes, prop_names)
        pos = end + 1
    body = data[pos:]
    if body.translate(None, _REGULAR_BYTES):
        return None
    width = 2 + len(prop_names)
    table = np.empty((0, width), dtype=np.int64)
    if body:
        try:
            table = np.loadtxt(
                io.StringIO(body.decode("ascii")),
                dtype=np.int64, delimiter=" ", comments=None, ndmin=2,
            )
        except ValueError:  # an empty or malformed token, a ragged row, > int64
            return None
    if table.shape[1] != width:
        return None
    ids = table[:, :2]
    top = int(ids.max(initial=-1))
    if num_nodes is None:
        num_nodes = top + 1
    if ids.min(initial=0) < 0 or top >= num_nodes:
        return None
    edge_props = {name: table[:, 2 + i] for i, name in enumerate(prop_names)}
    return num_nodes, table[:, 0], table[:, 1], edge_props


def _dangling(path: Path, src: int, dst: int, num_nodes: int, lineno: int) -> GraphFormatError:
    return GraphFormatError(
        path,
        f"dangling edge {src} -> {dst}: header declares "
        f"{num_nodes} nodes (valid ids 0..{num_nodes - 1})",
        lineno,
    )


def _parse_lines(path: Path):
    """The per-line tokeniser: the same tuple as :func:`_bulk_parse` (ids as
    lists) for any valid file, or the :class:`GraphFormatError` naming the
    first offending line."""
    num_nodes: int | None = None
    prop_names: list[str] = []
    srcs: list[int] = []
    dsts: list[int] = []
    linenos: list[int] = []
    prop_values: list[list[float]] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                num_nodes, prop_names = _parse_header(path, line, lineno, num_nodes, prop_names)
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    path,
                    f"edge line needs 'src dst', got {len(parts)} token(s): '{line}'",
                    lineno,
                )
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    path, f"non-integer vertex id in edge '{parts[0]} {parts[1]}'", lineno
                ) from None
            if src < 0 or dst < 0:
                raise GraphFormatError(
                    path, f"negative vertex id in edge {src} -> {dst}", lineno
                )
            if num_nodes is not None and (src >= num_nodes or dst >= num_nodes):
                raise _dangling(path, src, dst, num_nodes, lineno)
            if prop_names and len(parts) - 2 != len(prop_names):
                raise GraphFormatError(
                    path,
                    f"edge {src} -> {dst} carries {len(parts) - 2} property "
                    f"value(s) but the header declares {len(prop_names)} "
                    f"({' '.join(prop_names)})",
                    lineno,
                )
            srcs.append(src)
            dsts.append(dst)
            linenos.append(lineno)
            try:
                prop_values.append([_parse(x) for x in parts[2:]])
            except ValueError:
                raise GraphFormatError(
                    path, f"non-numeric edge-property value on edge {src} -> {dst}", lineno
                ) from None
    top = max(max(srcs, default=-1), max(dsts, default=-1))
    if num_nodes is None:
        num_nodes = top + 1
    if top >= num_nodes:
        # an edge above a ``# nodes:`` line was checked against no count, or
        # against an earlier one: every edge is held to the final count
        for src, dst, lineno in zip(srcs, dsts, linenos):
            if src >= num_nodes or dst >= num_nodes:
                raise _dangling(path, src, dst, num_nodes, lineno)
    edge_props = {
        name: [row[i] for row in prop_values] for i, name in enumerate(prop_names)
    }
    return num_nodes, srcs, dsts, edge_props


def _load_sidecars(path: Path, graph: Graph) -> None:
    """Attach every ``<file>.prop.<name>`` beside ``path`` as a node
    property, in name order."""
    pattern = glob.escape(path.name) + ".prop.*"
    for side in sorted(path.parent.glob(pattern)):
        name = side.name.rsplit(".prop.", 1)[1]
        values = []
        for lineno, raw in enumerate(side.read_text().splitlines(), start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                values.append(_parse(text))
            except ValueError:
                raise GraphFormatError(
                    side, f"non-numeric value '{text}' in node property '{name}'", lineno
                ) from None
        if len(values) != graph.num_nodes:
            raise GraphFormatError(
                side,
                f"node property '{name}' has {len(values)} value(s) for a "
                f"{graph.num_nodes}-node graph",
            )
        graph.add_node_prop(name, values)


def _parse(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)
