"""Graph substrate tests: CSR construction, in/out duality, edge-property
alignment — unit cases plus hypothesis property tests."""

import os
import subprocess
import sys
from array import array
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import pytest

from repro.pregel import Graph

from . import reference_graph


class TestConstruction:
    def test_small_graph(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.out_nbrs(0) == [1, 2]
        assert g.out_nbrs(2) == []
        assert g.in_nbrs(2) == [0, 1]

    def test_degrees(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.out_degree(0) == 2 and g.in_degree(0) == 0
        assert g.out_degree(2) == 0 and g.in_degree(2) == 2

    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        g = Graph.from_edges(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_isolated_nodes(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert g.out_nbrs(3) == [] and g.in_nbrs(3) == []

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.num_nodes == 0 and g.num_edges == 0


class TestEdgeProperties:
    def test_csr_alignment_through_out_edges(self):
        edges = [(1, 0), (0, 2), (0, 1)]
        weights = [10, 20, 30]
        g = Graph.from_edges(3, edges, edge_props={"w": weights})
        by_pair = {}
        for v in g.nodes():
            for pos in g.out_edge_range(v):
                by_pair[(v, g.out_targets[pos])] = g.edge_props["w"][pos]
        assert by_pair == {(1, 0): 10, (0, 2): 20, (0, 1): 30}

    def test_in_edge_ids_point_to_same_property(self):
        edges = [(0, 2), (1, 2)]
        g = Graph.from_edges(3, edges, edge_props={"w": [7, 8]})
        incoming = {}
        for i in range(g.in_offsets[2], g.in_offsets[3]):
            src = g.in_sources[i]
            incoming[src] = g.edge_props["w"][g.in_edge_ids[i]]
        assert incoming == {0: 7, 1: 8}

    def test_wrong_length_property_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], edge_props={"w": [1, 2]})

    def test_add_props_after_construction(self):
        g = Graph.from_edges(2, [(0, 1)])
        g.add_node_prop("x", default=5)
        g.add_edge_prop_csr("w", default=2)
        assert g.node_props["x"] == [5, 5]
        assert g.edge_props["w"] == array("q", [2])

    @pytest.mark.parametrize(
        "values,storage",
        [
            ([3, 1, 2], "q"),
            ([-(2**63), 0, 2**63 - 1], "q"),
            ([0.5, 1.0, -2.25], "d"),
            ([True, False, True], list),
            ([1, 2.5, 3], list),
            ([2**63, 1, 2], list),
        ],
        ids=("int", "int64-bounds", "float", "bool", "mixed", "huge-int"),
    )
    def test_storage_follows_the_values(self, tmp_path, values, storage):
        # ints and floats are typed buffers that index to the Python values
        # they were given, anything else stays a list — built from an edge
        # list, added in CSR order or loaded from a file; what is written
        # is the frozen writer's edge list, byte for byte
        from repro.graphgen.io import load_edge_list, save_edge_list

        edges = [(2, 0), (0, 1), (1, 2)]
        want = reference_graph.from_edges(3, edges, edge_props={"w": values})
        built = Graph.from_edges(3, edges, edge_props={"w": values})
        added = Graph.from_edges(3, edges)
        added.add_edge_prop_csr("w", want.edge_props["w"])
        reference_graph.save_edge_list(want, tmp_path / "want.el")
        for got in (built, added):
            column = got.edge_props["w"]
            assert getattr(column, "typecode", type(column)) == storage
            assert _typed(column) == _typed(want.edge_props["w"])
            save_edge_list(got, tmp_path / "got.el")
            assert (tmp_path / "got.el").read_bytes() == (tmp_path / "want.el").read_bytes()
        if type(values[0]) is not bool:  # a bool is written as no number
            loaded = load_edge_list(tmp_path / "want.el")
            assert_same_graph(loaded, reference_graph.load_edge_list(tmp_path / "want.el"))
            column = loaded.edge_props["w"]
            assert getattr(column, "typecode", type(column)) == storage

    def test_add_node_prop_length_check(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.add_node_prop("x", [1])


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=60,
        )
    )
    return n, edges


class TestProperties:
    @given(edge_lists())
    @settings(max_examples=60)
    def test_out_in_duality(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        out_pairs = sorted((v, w) for v in g.nodes() for w in g.out_nbrs(v))
        in_pairs = sorted((w, v) for v in g.nodes() for w in g.in_nbrs(v))
        assert out_pairs == sorted(edges)
        assert in_pairs == sorted(edges)

    @given(edge_lists())
    @settings(max_examples=60)
    def test_degree_sums_equal_edge_count(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        assert sum(g.out_degree(v) for v in g.nodes()) == len(edges)
        assert sum(g.in_degree(v) for v in g.nodes()) == len(edges)

    @given(edge_lists())
    @settings(max_examples=60)
    def test_offsets_monotone(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        assert all(a <= b for a, b in zip(g.out_offsets, g.out_offsets[1:]))
        assert all(a <= b for a, b in zip(g.in_offsets, g.in_offsets[1:]))
        assert g.out_offsets[-1] == len(edges)

    @given(edge_lists())
    @settings(max_examples=40)
    def test_in_edge_ids_are_a_permutation(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        assert sorted(g.in_edge_ids) == list(range(len(edges)))


# -- the array builder against the frozen three-pass reference -----------------

_prop_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.none(),
    st.tuples(st.integers(), st.text(max_size=2)),
)


@st.composite
def builder_inputs(draw):
    """``(num_nodes, edges, edge_props)``: 0 nodes, 0 edges, isolated
    vertices, self-loops, parallel edges and unsorted input all occur;
    property columns are int, float, non-numeric or mixed."""
    n = draw(st.integers(min_value=0, max_value=12))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40)) if n else []
    columns = st.one_of(
        st.lists(st.integers(-50, 50), min_size=len(edges), max_size=len(edges)),
        st.lists(st.floats(allow_nan=False), min_size=len(edges), max_size=len(edges)),
        st.lists(_prop_values, min_size=len(edges), max_size=len(edges)),
    )
    props = draw(st.dictionaries(st.sampled_from(["w", "len", "tag"]), columns, max_size=2))
    return n, edges, props


def _typed(values):
    return [(type(v), v) for v in values]


def _storage(values):
    """How ``Graph`` stores an edge property of ``values``: an int64
    buffer for ints, a double buffer for floats, else a list."""
    kinds = set(map(type, values))
    if kinds == {int} and all(-(2**63) <= v < 2**63 for v in values):
        return "q"
    return "d" if kinds == {float} else list


def assert_same_graph(got: Graph, want: Graph):
    # the frozen reference keeps every edge property a list
    assert replace(got, edge_props={}) == replace(want, edge_props={})
    for name in ("out_offsets", "in_offsets"):
        assert getattr(got, name).typecode == "q"
    for name in ("out_targets", "in_sources", "in_edge_ids"):
        assert getattr(got, name).typecode == "i"
    assert list(got.edge_props) == list(want.edge_props)
    for name, values in want.edge_props.items():
        column = got.edge_props[name]
        assert getattr(column, "typecode", type(column)) == _storage(values)
        assert _typed(column) == _typed(values)


class TestBuilderMatchesReference:
    @given(builder_inputs())
    @settings(max_examples=100, deadline=None)
    def test_same_csr_and_property_order(self, data):
        n, edges, props = data
        assert_same_graph(
            Graph.from_edges(n, edges, edge_props=props),
            reference_graph.from_edges(n, edges, edge_props=props),
        )

    @given(builder_inputs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_first_offender(self, data, draw):
        n, edges, _props = data
        bad = st.one_of(st.integers(-3, -1), st.integers(n, n + 3), st.just(2**70))
        good = st.integers(0, max(n - 1, 0))
        offenders = draw.draw(
            st.lists(st.one_of(st.tuples(bad, good), st.tuples(good, bad)), min_size=1, max_size=3)
        )
        for offender in offenders:
            edges.insert(draw.draw(st.integers(0, len(edges))), offender)
        with pytest.raises(ValueError) as want:
            reference_graph.from_edges(n, edges)
        with pytest.raises(ValueError) as got:
            Graph.from_edges(n, edges)
        assert str(got.value) == str(want.value)

    def test_same_wrong_length_message(self):
        with pytest.raises(ValueError) as want:
            reference_graph.from_edges(3, [(0, 1), (1, 2)], edge_props={"w": [1]})
        with pytest.raises(ValueError) as got:
            Graph.from_edges(3, [(0, 1), (1, 2)], edge_props={"w": [1]})
        assert str(got.value) == str(want.value)

    def test_list_constructed_graph_is_coerced(self):
        g = Graph(2, [0, 1, 1], [1], [0, 0, 1], [0], [0])
        assert g == Graph.from_edges(2, [(0, 1)])
        assert g.out_offsets.typecode == "q" and g.out_targets.typecode == "i"
        assert type(g.out_nbrs(0)) is list and type(g.in_nbrs(1)) is list

    def test_non_integer_vertex_id_is_not_truncated(self):
        with pytest.raises(TypeError):
            Graph.from_edges(2, [(0.5, 1)])

    def test_more_nodes_than_the_id_width_addresses(self):
        with pytest.raises(ValueError, match="32-bit"):
            Graph.from_edges(2**31, [])

    def test_topology_buffers_are_zero_copy_views(self):
        import numpy as np

        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        for name, dtype in (("out_targets", np.int32), ("out_offsets", np.int64),
                            ("in_offsets", np.int64)):
            buf = getattr(g, name)
            assert np.shares_memory(np.asarray(buf, dtype=dtype), np.frombuffer(buf, dtype=dtype))


def _loaded_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter that ran ``statement``."""
    code = f"{statement}\nimport sys; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _under(loaded: set[str], *packages: str) -> set[str]:
    return {m for m in loaded for p in packages if m == p or m.startswith(p + ".")}


def test_importing_the_package_and_the_cli_does_not_import_numpy():
    # building a graph needs numpy; `gm-pregel compile` / `--help` do not
    assert "numpy" not in _loaded_after("import repro, repro.cli")


def test_building_a_graph_loads_no_compiler_and_no_engine():
    loaded = _loaded_after("from repro.graphgen import load_graph, save_edge_list")
    assert "repro.pregel.graph" in loaded
    assert not _under(
        loaded,
        "repro.compiler", "repro.lang", "repro.transform", "repro.translate", "repro.codegen",
        "repro.pregel.runtime", "repro.pregel.ft", "repro.pregel.mem", "repro.pregel.net",
        "repro.pregel.supervisor",
    )  # fmt: skip


def test_the_cli_loads_the_robustness_stack_on_first_use():
    loaded = _loaded_after("import repro.cli")
    assert "repro.compiler" in loaded
    assert not _under(
        loaded,
        "repro.pregel.ft", "repro.pregel.mem", "repro.pregel.net", "repro.pregel.supervisor",
        "repro.interp", "repro.bench", "repro.codegen.java", "repro.obs",
    )  # fmt: skip


def test_an_untraced_compile_loads_the_tracer_and_nothing_else_of_obs():
    loaded = _loaded_after("from repro.compiler import compile_algorithm; compile_algorithm('pagerank')")
    assert _under(loaded, "repro.obs") == {"repro.obs", "repro.obs.tracer"}


@pytest.mark.parametrize("package", ["repro", "repro.pregel", "repro.obs"])
def test_package_roots_resolve_their_exports_on_first_access(package):
    import importlib

    root = importlib.import_module(package)
    for name in root.__all__:
        assert getattr(root, name) is not None
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(root.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        root.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_a_fresh_star_import_loads_every_export():
    # in this process the names above may be cached already
    code = "from repro import *; from repro.pregel import *; FaultTolerance, compile_source, interpret"
    assert {"repro.pregel.ft", "repro.compiler", "repro.interp"} <= _loaded_after(code)
