"""Diagnostics tests: error rendering, spans, and end-to-end failure modes."""

import pytest

from repro.compiler import compile_source
from repro.lang.errors import (
    GreenMarlError,
    NotPregelCanonicalError,
    ParseError,
    Span,
    TypeCheckError,
)


class TestSpan:
    def test_merge_covers_both(self):
        a = Span(1, 2, 1, 5)
        b = Span(3, 1, 3, 4)
        merged = a.merge(b)
        assert (merged.line, merged.col) == (1, 2)
        assert (merged.end_line, merged.end_col) == (3, 4)

    def test_merge_with_unknown(self):
        a = Span(2, 3, 2, 6)
        assert a.merge(Span()) == a
        assert Span().merge(a) == a

    def test_point(self):
        p = Span.point(4, 7)
        assert p.end_col == 8

    def test_str(self):
        assert str(Span(3, 9, 3, 12)) == "3:9"
        assert str(Span()) == "<unknown>"


class TestRendering:
    def test_render_with_source_excerpt_and_caret(self):
        source = "Procedure p(G: Graph) {\n  Int x = yy;\n}"
        try:
            compile_source(source)
        except GreenMarlError as err:
            rendered = err.render(source, "prog.gm")
            assert "prog.gm:2:" in rendered
            assert "Int x = yy;" in rendered
            assert "^" in rendered
        else:
            pytest.fail("expected an error")

    def test_hint_included(self):
        err = ParseError("bad thing", Span(1, 1, 1, 2), hint="try harder")
        assert "hint: try harder" in err.render()

    def test_error_kinds(self):
        assert ParseError("x").kind() == "parse error"
        assert TypeCheckError("x").kind() == "type error"
        assert NotPregelCanonicalError("x").kind() == "not pregel-canonical"


class TestEndToEndFailures:
    def test_random_read_reported_with_paragraph_reference(self):
        source = """
        Procedure p(G: Graph, d: N_P<Int>; out: N_P<Int>) {
          Foreach (n: G.Nodes) {
            Foreach (t: n.Nbrs) {
              Node u = t;
            }
          }
        }
        """
        # inner-loop node locals are fine; random reads are not:
        bad = """
        Procedure p(G: Graph, ptr: N_P<Node>, d: N_P<Int>; out: N_P<Int>) {
          Foreach (n: G.Nodes) {
            Node w = n.ptr;
            n.out = w.d;
          }
        }
        """
        compile_source(source, emit_java=False)
        with pytest.raises(GreenMarlError) as err:
            compile_source(bad, emit_java=False)
        assert "random read" in str(err.value).lower()

    def test_pull_that_cannot_flip_is_reported(self):
        # mixed push/pull has no transformation rule
        source = """
        Procedure p(G: Graph; a: N_P<Int>, b: N_P<Int>) {
          Foreach (n: G.Nodes) {
            Foreach (t: n.Nbrs) {
              t.a += 1;
              n.b += 1;
            }
          }
        }
        """
        with pytest.raises(GreenMarlError):
            compile_source(source, emit_java=False)

    def test_graphless_procedure(self):
        with pytest.raises(TypeCheckError):
            compile_source("Procedure p(K: Int) { }")

    def test_canonical_error_lists_all_violations(self):
        source = """
        Procedure p(G: Graph): Int {
          For (n: G.Nodes) { }
          Foreach (n: G.Nodes) { Return 3; }
          Return 0;
        }
        """
        with pytest.raises(NotPregelCanonicalError) as err:
            compile_source(source)
        message = str(err.value)
        assert "sequential For" in message
        assert "Return inside a parallel loop" in message


class TestRacingWrites:
    """A plain ``=`` to one property of another vertex from two sites of one
    parallel loop is refused: each site sends its own message tag, and a
    receiver folds tag after tag, so the interpreter's sequentially last
    write is not what the engines keep.  One site, and reductions, stay."""

    N = 7

    def _graph_and_args(self):
        from repro.pregel import Graph

        n = self.N
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and (u * 3 + v) % 4 == 0]
        args = {
            "a": [10 + v for v in range(n)],
            "b": [20 + v for v in range(n)],
            "tgt": [(5 * v + 2) % n for v in range(n)],
        }
        return Graph.from_edges(n, edges), args

    @staticmethod
    def _source(body: str) -> str:
        return (
            "Procedure race(G: Graph, a: N_P<Int>, b: N_P<Int>, tgt: N_P<Node>;"
            " last: N_P<Int>) {\n"
            "  G.last = -1;\n"
            "  Foreach (n: G.Nodes) {\n" + body + "\n  }\n}"
        )

    def test_two_sites_writing_one_property_are_refused(self):
        # the 7-vertex repro: the interpreter kept [14, 15, 16, 23, 26, 22,
        # 25] while sim, columnar and mp all gave [21, 24, 20, 23, 26, 22, 25]
        from repro.lang.errors import TransformError

        source = self._source(
            "    Foreach (t: n.Nbrs) { t.last = n.a; }\n"
            "    Node m = n.tgt; m.last = n.b;"
        )
        with pytest.raises(TransformError) as err:
            compile_source(source, emit_java=False)
        assert "property 'last' of another vertex is assigned at 4:27 and at 5:21" in str(
            err.value
        )
        assert (err.value.span.line, err.value.span.col) == (5, 21)

    def test_two_random_writes_in_branches_are_refused(self):
        from repro.lang.errors import TransformError

        source = self._source(
            "    Node m = n.tgt;\n"
            "    If (n.a > 12) { m.last = n.a; } Else { m.last = n.b; }"
        )
        with pytest.raises(TransformError, match="assigned at 5:21 and at 5:44"):
            compile_source(source, emit_java=False)

    @pytest.mark.parametrize(
        "body",
        [
            "    Foreach (t: n.Nbrs) { t.last = n.a; }",
            "    Node m = n.tgt; m.last = n.b;",
            "    Foreach (t: n.Nbrs) { t.last max= n.a; }\n"
            "    Node m = n.tgt; m.last max= n.b;",
            # the iterator's own write is not a second site: bipartite
            # matching's phase 3 writes b.match beside one g.match
            "    Node m = n.tgt; If (n.a > 13) { n.last = n.b; } Else { m.last = n.a; }",
        ],
        ids=["one push site", "one random site", "reductions", "iterator and one site"],
    )
    def test_one_site_and_reductions_stay_legal(self, body):
        from repro.interp import interpret

        graph, args = self._graph_and_args()
        source = self._source(body)
        program = compile_source(source, emit_java=False).program
        if "n.last" not in body:  # both others agree with the interpreter
            want = interpret(source, graph, args).outputs["last"]
            for backend in ("sim", "columnar"):
                got = program.run(graph, args, backend=backend, num_workers=3)
                assert got.outputs["last"] == want, backend
