"""Frozen references for the graph substrate — not tests.

``Graph.from_edges``' three Python passes, the per-line edge-list loader and
the row-by-row writer exactly as they stood before the array-native builder
and the bulk tokeniser replaced them.  ``test_graph.py`` and
``test_graph_io.py`` hold the new code to these; nothing under ``src/``
imports them.  The loader raises the real ``GraphFormatError`` so messages,
paths and line numbers compare directly.
"""

from pathlib import Path

from repro.graphgen.io import GraphFormatError
from repro.pregel import Graph


def _prefix_sum(counts):
    offsets = [0] * (len(counts) + 1)
    total = 0
    for i, c in enumerate(counts):
        offsets[i] = total
        total += c
    offsets[len(counts)] = total
    return offsets


def from_edges(num_nodes, edges, edge_props=None):
    """The list-building CSR constructor; the ``Graph(...)`` call at the end
    is a hand-constructed graph from lists."""
    num_edges = len(edges)
    out_deg = [0] * num_nodes
    in_deg = [0] * num_nodes
    for src, dst in edges:
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            raise ValueError(f"edge ({src}, {dst}) out of range for {num_nodes} nodes")
        out_deg[src] += 1
        in_deg[dst] += 1

    out_offsets = _prefix_sum(out_deg)
    in_offsets = _prefix_sum(in_deg)
    out_targets = [0] * num_edges
    in_sources = [0] * num_edges
    in_edge_ids = [0] * num_edges

    cursor = list(out_offsets[:-1])
    edge_pos = [0] * num_edges
    for idx, (src, dst) in enumerate(edges):
        pos = cursor[src]
        cursor[src] += 1
        out_targets[pos] = dst
        edge_pos[idx] = pos
    in_cursor = list(in_offsets[:-1])
    for idx, (src, dst) in enumerate(edges):
        pos = in_cursor[dst]
        in_cursor[dst] += 1
        in_sources[pos] = src
        in_edge_ids[pos] = edge_pos[idx]

    graph = Graph(num_nodes, out_offsets, out_targets, in_offsets, in_sources, in_edge_ids)
    if edge_props:
        for name, values in edge_props.items():
            if len(values) != num_edges:
                raise ValueError(
                    f"edge property '{name}' has {len(values)} values for "
                    f"{num_edges} edges"
                )
            csr_values = [None] * num_edges
            for idx, value in enumerate(values):
                csr_values[edge_pos[idx]] = value
            graph.edge_props[name] = csr_values
    return graph


def save_edge_list(graph, path, *, edge_props=None):
    path = Path(path)
    names = edge_props if edge_props is not None else sorted(graph.edge_props)
    with path.open("w") as fh:
        fh.write(f"# nodes: {graph.num_nodes}\n")
        if names:
            fh.write(f"# edge-props: {' '.join(names)}\n")
        for v in graph.nodes():
            for pos in graph.out_edge_range(v):
                row = [str(v), str(graph.out_targets[pos])]
                row.extend(str(graph.edge_props[name][pos]) for name in names)
                fh.write(" ".join(row) + "\n")
    for name, values in graph.node_props.items():
        side = path.with_suffix(path.suffix + f".prop.{name}")
        with side.open("w") as fh:
            fh.writelines(f"{_fmt(v)}\n" for v in values)


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def load_edge_list(path):
    """The per-line loader.  Frozen with the two defects the live loader has
    since fixed: sidecars are globbed unescaped and unsorted, and an edge
    above a ``# nodes:`` line is never held to that count."""
    path = Path(path)
    num_nodes = None
    prop_names = []
    edges = []
    prop_values = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
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
                raise GraphFormatError(
                    path,
                    f"dangling edge {src} -> {dst}: header declares "
                    f"{num_nodes} nodes (valid ids 0..{num_nodes - 1})",
                    lineno,
                )
            if prop_names and len(parts) - 2 != len(prop_names):
                raise GraphFormatError(
                    path,
                    f"edge {src} -> {dst} carries {len(parts) - 2} property "
                    f"value(s) but the header declares {len(prop_names)} "
                    f"({' '.join(prop_names)})",
                    lineno,
                )
            edges.append((src, dst))
            try:
                prop_values.append([_parse(x) for x in parts[2:]])
            except ValueError:
                raise GraphFormatError(
                    path, f"non-numeric edge-property value on edge {src} -> {dst}", lineno
                ) from None
    if num_nodes is None:
        num_nodes = 1 + max((max(s, d) for s, d in edges), default=-1)
    edge_props = {
        name: [row[i] for row in prop_values] for i, name in enumerate(prop_names)
    }
    graph = from_edges(num_nodes, edges, edge_props=edge_props or None)
    for side in path.parent.glob(path.name + ".prop.*"):
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
        if len(values) != num_nodes:
            raise GraphFormatError(
                side,
                f"node property '{name}' has {len(values)} value(s) for a "
                f"{num_nodes}-node graph",
            )
        graph.add_node_prop(name, values)
    return graph


def _parse(text):
    try:
        return int(text)
    except ValueError:
        return float(text)
