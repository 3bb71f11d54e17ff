"""String-level tests for the executable backend: expression rendering,
statement emission, and the generated master in isolation."""

import re

import pytest

from repro.codegen.executable import (
    CompiledProgram,
    _Emitter,
    emit_stmt,
    expr_py,
    gm_div,
)
from repro.compiler import compile_source
from repro.interp import interpret
from repro.lang.ast import BinOp, UnOp
from repro.lang import types as ty
from repro.pregel import Graph, PregelEngine
from repro.pregel.backend.mp import mp_available
from repro.pregel.globalmap import GlobalOp
from repro.pregelir.ir import (
    Bin,
    Call,
    CastTo,
    Cond,
    Field,
    GlobalGet,
    Inf,
    Lit,
    Local,
    MAssign,
    MBranch,
    MFinalize,
    MHalt,
    MJump,
    MLabel,
    MsgField,
    MVPhase,
    MyId,
    Nil,
    ParamSpec,
    PregelIR,
    Un,
    VFieldReduce,
    VIf,
    VMsgLoop,
    VSendNbrs,
    VertexPhase,
)


class TestExprPy:
    def test_leaves(self):
        assert expr_py(Lit(3)) == "3"
        assert expr_py(Lit(True)) == "True"
        assert expr_py(Inf()) == "INF"
        assert expr_py(Inf(negative=True)) == "-INF"
        # 1e400 lexes to inf: ``repr`` would print a bare ``inf``
        assert expr_py(Lit(float("inf"))) == "INF"
        assert expr_py(Lit(float("-inf"))) == "-INF"
        assert expr_py(Nil()) == "NIL"
        assert expr_py(Local("v")) == "L_v"
        assert expr_py(Field("dist")) == "F_dist[vid]"
        assert expr_py(GlobalGet("K")) == "B_K"  # bound once per superstep
        assert expr_py(MsgField(0)) == "_m[1]"
        assert expr_py(MyId()) == "vid"

    def test_operators(self):
        e = Bin(BinOp.AND, Lit(True), Bin(BinOp.LT, Field("a"), Lit(3)))
        assert expr_py(e) == "(True and (F_a[vid] < 3))"
        assert expr_py(Un(UnOp.NOT, Lit(False))) == "(not False)"
        assert expr_py(Un(UnOp.ABS, Lit(-2))) == "abs(-2)"

    def test_division_goes_through_gm_div(self):
        assert expr_py(Bin(BinOp.DIV, Lit(7), Lit(2))) == "gm_div(7, 2)"

    def test_conditional(self):
        e = Cond(Lit(True), Lit(1), Lit(2))
        assert expr_py(e) == "(1 if True else 2)"

    def test_casts(self):
        assert expr_py(CastTo(ty.INT, Lit(2.5))) == "int(2.5)"
        assert expr_py(CastTo(ty.DOUBLE, Lit(2))) == "float(2)"
        assert expr_py(CastTo(ty.BOOL, Lit(1))) == "bool(1)"

    def test_builtins(self):
        assert expr_py(Call("out_degree")) == "(OUT_OFF[vid + 1] - OUT_OFF[vid])"
        assert expr_py(Call("num_nodes")) == "NUM_NODES"
        assert expr_py(Call("edge_prop", ("len",))) == "EP_len[_ei]"

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            expr_py(Call("bogus"))
        with pytest.raises(ValueError):
            expr_py(Call("pick_random"))  # the master's alone

    def test_master_context(self):
        assert expr_py(Field("x"), "master") == "M['x']"
        assert expr_py(GlobalGet("x"), "master") == "M['x']"
        assert expr_py(Call("pick_random"), "master") == "ctx.pick_random_node()"
        e = Bin(BinOp.DIV, Field("x"), Call("num_nodes"))
        assert expr_py(e, "master") == "gm_div(M['x'], NUM_NODES)"


#: ``1e400`` in a vertex loop and in the master.
_NON_FINITE = (
    "Procedure p(G: Graph; o: N_P<Double>) { Foreach (n: G.Nodes) { n.o = 1e400; } }",
    "Procedure p(G: Graph): Double { Double d = 1e400; Return d; }",
)


@pytest.mark.parametrize("source", _NON_FINITE, ids=["vertex", "master"])
def test_non_finite_literal_runs_as_interpreted(source):
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    want = interpret(source, graph)
    compiled = compile_source(source)
    assert not re.search(r"\binf\b", compiled.java_source)
    backends = ["sim", "columnar"] + (["mp"] if mp_available() else [])
    for backend in backends:
        run = compiled.program.run(graph, backend=backend, num_workers=2)
        assert run.outputs == want.outputs and run.result == want.result, backend


class TestEmitStmt:
    def render(self, stmt) -> str:
        out = _Emitter()
        emit_stmt(out, stmt)
        return out.text()

    def test_min_reduce_uses_comparison(self):
        text = self.render(VFieldReduce("d", GlobalOp.MIN, MsgField(0)))
        assert "if _v < F_d[vid]: F_d[vid] = _v" in text

    def test_sends_guarded_against_empty_neighborhood(self):
        text = self.render(VSendNbrs(0, [Field("x")], "out"))
        assert "if OUT_OFF[vid] != OUT_OFF[vid + 1]:" in text

    def test_per_edge_send_loops_edges(self):
        text = self.render(
            VSendNbrs(0, [Bin(BinOp.ADD, Field("d"), Call("edge_prop", ("len",)))], "out")
        )
        # one send_each per vertex, its payloads evaluated edge by edge,
        # none of them on a sink
        assert text.splitlines() == [
            "_lo, _hi = OUT_OFF[vid], OUT_OFF[vid + 1]",
            "if _lo != _hi:",
            "    ctx.send_each(OUT_TGT[_lo:_hi], "
            "[(0, (F_d[vid] + EP_len[_ei])) for _ei in range(_lo, _hi)])",
        ]

    def test_in_direction_uses_in_nbrs_field(self):
        text = self.render(VSendNbrs(1, [Lit(1)], "in"))
        assert "F__in_nbrs[vid]" in text

    def test_edge_prop_on_in_send_rejected(self):
        with pytest.raises(ValueError):
            self.render(VSendNbrs(1, [Call("edge_prop", ("len",))], "in"))

    def test_msg_loop_filters_tag(self):
        text = self.render(VMsgLoop(3, [VFieldReduce("a", GlobalOp.SUM, MsgField(0))]))
        assert "if _m[0] == 3:" in text

    def test_empty_if_gets_pass(self):
        text = self.render(VIf(Lit(True), [], []))
        assert "pass" in text


class TestGmDiv:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (6, 3, 2), (1, 2, 0)],
    )
    def test_int_truncation_toward_zero(self, a, b, expected):
        assert gm_div(a, b) == expected

    def test_float_division(self):
        assert gm_div(7.0, 2) == 3.5
        assert gm_div(7, 2.0) == 3.5

    def test_bool_is_not_int(self):
        # Python bools are ints but GM Bool never reaches division; document
        # that type(a) is int excludes bool:
        assert gm_div(True, 2.0) == 0.5


def _tiny_ir(master_code) -> PregelIR:
    phase = VertexPhase(0, "noop")
    return PregelIR(
        name="t",
        master_code=master_code,
        phases={0: phase},
        vertex_fields={},
        master_fields={"x": ty.INT, "y": ty.INT},
        messages={},
        params=[ParamSpec("G", ty.GRAPH, False)],
        return_type=ty.INT,
    )


def _master(code):
    """The master of a one-phase program, built as ``make_engine`` builds it."""
    _, _, master = CompiledProgram(_tiny_ir(code)).make_engine(Graph.from_edges(1, []))
    return master


def _run_master(code, supersteps=10):
    master = _master(code)
    graph = Graph.from_edges(1, [])
    engine = PregelEngine(graph, lambda c, v, m: None, master.compute)
    metrics = engine.run()
    return master, metrics


class TestGeneratedMaster:
    def test_assign_branch_halt(self):
        code = [
            MAssign("x", Lit(5)),
            MBranch(Bin(BinOp.GT, Field("x"), Lit(3)), "big", "small"),
            MLabel("big"),
            MHalt(Lit(1)),
            MLabel("small"),
            MHalt(Lit(0)),
        ]
        master, metrics = _run_master(code)
        assert metrics.result == 1
        assert metrics.supersteps == 0  # pure master work, no vertex phase

    def test_loop_with_phases_counts_supersteps(self):
        code = [
            MAssign("x", Lit(0)),
            MLabel("head"),
            MBranch(Bin(BinOp.LT, Field("x"), Lit(3)), "body", "exit"),
            MLabel("body"),
            MVPhase(0),
            MAssign("x", Bin(BinOp.ADD, Field("x"), Lit(1))),
            MJump("head"),
            MLabel("exit"),
            MHalt(Field("x")),
        ]
        master, metrics = _run_master(code)
        assert metrics.result == 3
        assert metrics.supersteps == 3  # one per MVPhase execution

    def test_finalize_skipped_without_aggregate(self):
        code = [
            MAssign("x", Lit(7)),
            MFinalize("x", GlobalOp.SUM),
            MHalt(Field("x")),
        ]
        _, metrics = _run_master(code)
        assert metrics.result == 7  # no vertex puts: finalize is a no-op

    def test_fall_off_end_halts(self):
        _, metrics = _run_master([MVPhase(0)])
        assert metrics.halt_reason == "master_halt"
        assert metrics.supersteps == 1

    def test_runaway_master_detected(self):
        code = [MLabel("spin"), MJump("spin")]
        master = _master(code)
        graph = Graph.from_edges(1, [])
        engine = PregelEngine(graph, lambda c, v, m: None, master.compute)
        with pytest.raises(RuntimeError, match="did not yield"):
            engine.run()

    def test_broadcasts_state_and_fields(self):
        code = [MAssign("x", Lit(9)), MVPhase(0), MHalt(None)]
        master = _master(code)
        graph = Graph.from_edges(1, [])
        seen = {}

        def vertex(ctx, vid, messages):
            seen.update(ctx.globals.broadcast)

        engine = PregelEngine(graph, vertex, master.compute)
        engine.run()
        assert seen["_state"] == 0
        assert seen["x"] == 9
