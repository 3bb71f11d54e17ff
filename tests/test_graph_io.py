"""Edge-list loader hardening: every malformed input — corrupt headers,
bad vertex ids, dangling edges, torn property rows, broken sidecars —
raises :class:`GraphFormatError` pointing at the offending line, never a
bare ``ValueError`` from deep inside parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.telemetry import graph_signature
from repro.graphgen import GraphFormatError, load_graph
from repro.graphgen.io import _bulk_parse, load_edge_list, save_edge_list
from repro.pregel import Graph

from . import reference_graph
from .test_graph import assert_same_graph


def _write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _error(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(path)
    return path, err.value


class TestCorruptFixtures:
    def test_bad_header_count(self, tmp_path):
        path, err = _error(tmp_path, "# nodes: lots\n0 1\n")
        assert err.lineno == 1
        assert str(err).startswith(f"{path}:1:")
        assert "invalid node count 'lots'" in str(err)

    def test_negative_header_count(self, tmp_path):
        _, err = _error(tmp_path, "# nodes: -4\n")
        assert err.lineno == 1
        assert "negative node count" in str(err)

    def test_short_edge_line(self, tmp_path):
        _, err = _error(tmp_path, "# nodes: 3\n0 1\n2\n")
        assert err.lineno == 3
        assert "needs 'src dst'" in str(err)

    def test_non_integer_vertex_id(self, tmp_path):
        _, err = _error(tmp_path, "0 1\n1 two\n")
        assert err.lineno == 2
        assert "non-integer vertex id" in str(err)

    def test_float_vertex_id_rejected(self, tmp_path):
        _, err = _error(tmp_path, "0.5 1\n")
        assert err.lineno == 1

    def test_negative_vertex_id(self, tmp_path):
        _, err = _error(tmp_path, "0 1\n-1 2\n")
        assert err.lineno == 2
        assert "negative vertex id" in str(err)

    def test_dangling_edge_past_declared_count(self, tmp_path):
        _, err = _error(tmp_path, "# nodes: 3\n0 1\n1 3\n")
        assert err.lineno == 3
        assert "dangling edge 1 -> 3" in str(err)
        assert "valid ids 0..2" in str(err)

    def test_edge_prop_width_mismatch(self, tmp_path):
        _, err = _error(
            tmp_path, "# nodes: 2\n# edge-props: w cap\n0 1 3.5\n"
        )
        assert err.lineno == 3
        assert "1 property value(s)" in str(err)
        assert "declares 2" in str(err)

    def test_non_numeric_edge_prop(self, tmp_path):
        _, err = _error(
            tmp_path, "# nodes: 2\n# edge-props: w\n0 1 heavy\n"
        )
        assert err.lineno == 3
        assert "non-numeric edge-property" in str(err)

    def test_sidecar_non_numeric_value(self, tmp_path):
        path = _write(tmp_path, "# nodes: 2\n0 1\n")
        side = tmp_path / "g.txt.prop.rank"
        side.write_text("0.5\noops\n")
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(path)
        assert err.value.lineno == 2
        assert str(err.value).startswith(f"{side}:2:")
        assert "node property 'rank'" in str(err.value)

    def test_sidecar_length_mismatch(self, tmp_path):
        path = _write(tmp_path, "# nodes: 3\n0 1\n1 2\n")
        (tmp_path / "g.txt.prop.rank").write_text("0.5\n0.5\n")
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(path)
        assert err.value.lineno is None
        assert "2 value(s) for a 3-node graph" in str(err.value)

    def test_error_is_a_value_error(self, tmp_path):
        # callers that caught ValueError before the subclass existed still work
        path = _write(tmp_path, "0 x\n")
        with pytest.raises(ValueError):
            load_edge_list(path)


class TestWellFormedInput:
    def test_round_trip(self, tmp_path):
        graph = Graph.from_edges(
            3, [(0, 1), (1, 2), (2, 0)], edge_props={"w": [1.0, 2.0, 3.5]}
        )
        graph.add_node_prop("rank", [0.1, 0.2, 0.3])
        path = tmp_path / "g.txt"
        save_edge_list(graph, path)
        loaded = load_edge_list(path)
        assert loaded.num_nodes == 3
        assert loaded.edge_props["w"].tolist() == [1.0, 2.0, 3.5]
        assert loaded.node_props["rank"] == [0.1, 0.2, 0.3]

    def test_header_optional(self, tmp_path):
        path = _write(tmp_path, "0 1\n1 2\n")
        assert load_edge_list(path).num_nodes == 3

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = _write(tmp_path, "# nodes: 2\n\n# a comment\n0 1\n")
        assert load_edge_list(path).num_nodes == 2


# -- the loader and writer against the frozen per-line reference ---------------

#: (two head lines, a well-formed edge line to pad with, the defective line)
MALFORMED = {
    "bad_header_count": (["# a graph", "# nodes: 9"], "0 1", "# nodes: lots"),
    "negative_header_count": (["# a graph", "# nodes: 9"], "0 1", "# nodes: -4"),
    "short_edge_line": (["# nodes: 3", "# c"], "0 1", "2"),
    "non_integer_vertex_id": (["# nodes: 3", "# c"], "0 1", "1 two"),
    "float_vertex_id": (["# nodes: 3", "# c"], "0 1", "0.5 1"),
    "negative_vertex_id": (["# nodes: 3", "# c"], "0 1", "-1 2"),
    "dangling_edge": (["# nodes: 3", "# c"], "0 1", "1 3"),
    "edge_prop_width_mismatch": (["# nodes: 2", "# edge-props: w cap"], "0 1 3 4", "0 1 3.5"),
    "non_numeric_edge_prop": (["# nodes: 2", "# edge-props: w"], "0 1 7", "0 1 heavy"),
}


def _both_errors(path):
    with pytest.raises(GraphFormatError) as want:
        reference_graph.load_edge_list(path)
    with pytest.raises(GraphFormatError) as got:
        load_edge_list(path)
    return got.value, want.value


class TestErrorsMatchReference:
    """Whatever the bulk pass makes of a malformed file, the error is the
    per-line parser's: same text, same path, same 1-based line — three
    lines into the file or a hundred thousand.  The reference reads the
    three-line twin of a deep file (its own line counting is not under
    test; 100 000 more lines through it cost tier-1 seconds) and its
    position is rewritten."""

    @staticmethod
    def check(tmp_path, write, defect_line, where):
        """``write(dir, defect_line)`` builds the file set and returns the
        graph path; ``where(dir)`` is the file the error must name."""
        twin, deep = tmp_path / "twin", tmp_path / "deep"
        twin.mkdir()
        deep.mkdir()
        _, want = _both_errors(write(twin, 3))
        with pytest.raises(GraphFormatError) as got:
            load_edge_list(write(deep, defect_line))
        assert want.lineno == 3 and want.path == where(twin)
        assert (got.value.path, got.value.lineno) == (where(deep), defect_line)
        assert str(got.value) == str(want).replace(
            f"{where(twin)}:3:", f"{where(deep)}:{defect_line}:"
        )

    @pytest.mark.parametrize("defect_line", (3, 100_003))
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_edge_file_defect(self, tmp_path, case, defect_line):
        head, good, defect = MALFORMED[case]

        def write(directory, line):
            lines = head + [good] * (line - 3) + [defect, good]
            return _write(directory, "\n".join(lines) + "\n")

        self.check(tmp_path, write, defect_line, lambda d: d / "g.txt")

    @pytest.mark.parametrize("defect_line", (3, 100_003))
    def test_sidecar_non_numeric_value(self, tmp_path, defect_line):
        def write(directory, line):
            (directory / "g.txt.prop.rank").write_text("0.5\n" * (line - 1) + "oops\n")
            return _write(directory, "# nodes: 2\n0 1\n")

        self.check(tmp_path, write, defect_line, lambda d: d / "g.txt.prop.rank")

    def test_sidecar_length_mismatch(self, tmp_path):
        path = _write(tmp_path, "# nodes: 3\n0 1\n1 2\n")
        (tmp_path / "g.txt.prop.rank").write_text("0.5\n0.5\n")
        got, want = _both_errors(path)
        assert str(got) == str(want) and got.lineno is want.lineno is None


DECLINED = {
    "leading_spaces": "# nodes: 3\n 0 1\n1 2\n",
    "trailing_space": "# nodes: 3\n0 1 \n1 2\n",
    "crlf": "# nodes: 3\r\n0 1\r\n1 2\r\n",
    "tabs": "# nodes: 3\n0\t1\n1\t2\n",
    "double_space": "# nodes: 3\n0  1\n1 2\n",
    "float_property": "# nodes: 3\n# edge-props: w\n0 1 2.5\n1 2 3\n",
    "columns_without_edge_props_header": "# nodes: 3\n0 1 7\n1 2 8\n",
    "header_after_first_edge": "0 1\n# nodes: 3\n1 2\n",
    "comment_after_first_edge": "# nodes: 3\n0 1\n# half way\n1 2\n",
    "indented_header": " # nodes: 3\n0 1\n",
    "plus_sign": "0 +1\n",
    "underscore": "0 1_0\n",
    "wider_than_int64": "# edge-props: w\n0 1 99999999999999999999\n",
}

ACCEPTED = {
    "as_written": "# nodes: 3\n# edge-props: len w\n0 1 5 -2\n1 2 6 0\n",
    "no_header": "0 1\n1 2\n",
    "no_trailing_newline": "# nodes: 3\n0 1\n1 2",
    "blank_lines": "\n# nodes: 3\n\n0 1\n\n1 2\n\n",
    "no_edges": "# nodes: 4\n",
    "empty_file": "",
    "unsorted_with_parallel_edges_and_self_loops": "3 1\n0 0\n3 1\n2 3\n0 2\n",
    "leading_zeros": "007 01\n",
}


class TestTwoTokenisersOneGraph:
    @pytest.mark.parametrize("case", sorted(DECLINED))
    def test_bulk_pass_declines_and_the_line_parser_loads(self, tmp_path, case):
        path = _write(tmp_path, DECLINED[case])
        path.write_bytes(DECLINED[case].encode())  # keep \r\n as written
        assert _bulk_parse(path) is None
        assert_same_graph(load_edge_list(path), reference_graph.load_edge_list(path))

    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    def test_bulk_pass_reads_what_the_line_parser_reads(self, tmp_path, case):
        path = _write(tmp_path, ACCEPTED[case])
        assert _bulk_parse(path) is not None
        assert_same_graph(load_edge_list(path), reference_graph.load_edge_list(path))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_file_loads_or_fails_as_the_reference_does(self, tmp_path_factory, data):
        draw = data.draw
        n = draw(st.integers(1, 8))
        names = draw(st.lists(st.sampled_from(["w", "len", "cap"]), unique=True, max_size=2))
        value = st.one_of(
            st.integers(-9, 9).map(str),
            st.floats(-9, 9).map(repr),
            st.sampled_from(["1e3", "x", "+4", "0x1", ""]),
        )
        uniform = draw(st.booleans())  # the shape the bulk pass accepts
        vertex = st.integers(0, n - 1) if uniform else st.integers(-1, n)
        sep = " " if uniform else draw(st.sampled_from([" ", "\t", "  "]))
        lines = []
        if draw(st.booleans()):
            lines.append(f"# nodes: {n}")
        if names:
            lines.append("# edge-props: " + " ".join(names))
        for _ in range(draw(st.integers(0, 12))):
            width = len(names) if uniform else draw(st.integers(0, 3))
            tokens = [str(draw(vertex)), str(draw(vertex))]
            prop = st.integers(-9, 9).map(str) if uniform else value
            tokens += [draw(prop) for _ in range(width)]
            lines.append(sep.join(tokens))
            if not uniform and draw(st.integers(0, 5)) == 0:
                lines.append(draw(st.sampled_from(["", "# note", " ", "7"])))
        eol = "\n" if uniform else draw(st.sampled_from(["\n", "\r\n"]))
        path = tmp_path_factory.mktemp("el") / "g.el"
        path.write_bytes((eol.join(lines) + eol).encode())
        try:
            want = reference_graph.load_edge_list(path)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                load_edge_list(path)
            assert str(got.value) == str(exc) and got.value.lineno == exc.lineno
        else:
            assert_same_graph(load_edge_list(path), want)


class TestWriterMatchesReference:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("key", ("twitter", "bipartite", "sk-2005"))
    def test_table1_round_trip(self, tmp_path, key, seed):
        graph = load_graph(key, 0.1, seed)
        save_edge_list(graph, tmp_path / "g.el")
        (tmp_path / "ref").mkdir()
        reference_graph.save_edge_list(graph, tmp_path / "ref" / "g.el")
        for written in sorted((tmp_path / "ref").iterdir()):
            assert (tmp_path / written.name).read_bytes() == written.read_bytes()
        assert _bulk_parse(tmp_path / "g.el") is not None
        loaded = load_edge_list(tmp_path / "g.el")
        assert_same_graph(loaded, reference_graph.load_edge_list(tmp_path / "g.el"))
        assert loaded == graph
        assert graph_signature(loaded) == graph_signature(graph)
        rebuilt = reference_graph.from_edges(graph.num_nodes, list(graph.edges()))
        assert graph_signature(graph) == graph_signature(rebuilt)

    def test_edge_prop_selection_and_no_edges(self, tmp_path):
        graph = Graph.from_edges(3, [(2, 0), (0, 1)], edge_props={"w": [1.5, "x"], "k": [1, 2]})
        for name, g, kwargs in (
            ("all", graph, {}),
            ("one", graph, {"edge_props": ["w"]}),
            ("none", graph, {"edge_props": []}),
            ("empty", Graph.from_edges(2, []), {}),
        ):
            save_edge_list(g, tmp_path / name, **kwargs)
            reference_graph.save_edge_list(g, tmp_path / f"{name}.ref", **kwargs)
            assert (tmp_path / name).read_bytes() == (tmp_path / f"{name}.ref").read_bytes()


class TestLoaderRegressions:
    def test_sidecars_of_a_file_with_glob_characters_in_its_name(self, tmp_path):
        graph = Graph.from_edges(2, [(0, 1)])
        graph.add_node_prop("rank", [0.25, 0.75])
        path = tmp_path / "g[1].el"
        save_edge_list(graph, path)
        assert load_edge_list(path).node_props == {"rank": [0.25, 0.75]}

    def test_sidecars_attach_in_name_order(self, tmp_path):
        path = _write(tmp_path, "# nodes: 1\n")
        for name in ("zeta", "alpha", "mid"):
            (tmp_path / f"g.txt.prop.{name}").write_text("1\n")
        assert list(load_edge_list(path).node_props) == ["alpha", "mid", "zeta"]

    def test_edge_above_a_smaller_node_count_header(self, tmp_path):
        path, err = _error(tmp_path, "0 5\n# nodes: 3\n1 2\n")
        assert err.lineno == 1 and str(err).startswith(f"{path}:1:")
        assert "dangling edge 0 -> 5" in str(err) and "valid ids 0..2" in str(err)

    def test_edge_above_a_header_that_shrinks_the_count(self, tmp_path):
        _, err = _error(tmp_path, "# nodes: 9\n0 1\n4 5\n# nodes: 3\n")
        assert err.lineno == 3 and "dangling edge 4 -> 5" in str(err)

    def test_ids_beyond_the_buffers_are_a_format_error(self, tmp_path):
        for text in ("0 4294967296\n", "# nodes: 99999999999\n0 1\n", "0 99999999999999999999\n"):
            path, err = _error(tmp_path, text)
            assert err.lineno is None and "32-bit" in str(err)
