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
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm, compile_source
from repro.graphgen.registry import load_graph
from repro.interp import interpret
from repro.obs import Tracer
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

    def test_a_msg_loop_folds_a_double_field_in_a_local(self):
        out = _Emitter({"a": ty.DOUBLE})
        emit_stmt(out, VMsgLoop(0, [VFieldReduce("a", GlobalOp.SUM, MsgField(0))]))
        assert out.text().splitlines() == [
            "if messages:",
            "    H_a = F_a[vid]",
            "    for _m in messages:",
            "        if _m[0] == 0:",
            "            H_a = H_a + _m[1]",
            "    F_a[vid] = H_a",
        ]

    def test_an_int_sum_stores_per_message_and_an_int_min_folds_in_a_local(self):
        # an int64 column must raise at the message that overflows it; a
        # min is one of the values it folds, so it cannot overflow
        out = _Emitter({"a": ty.INT, "b": ty.INT})
        body = [VFieldReduce("a", GlobalOp.SUM, MsgField(0)), VFieldReduce("b", GlobalOp.MIN, Field("a"))]
        emit_stmt(out, VMsgLoop(0, body))
        text = out.text()
        assert "F_a[vid] = F_a[vid] + _m[1]" in text
        assert "if _v < H_b: H_b = _v" in text and "_v = F_a[vid]" in text
        assert "H_a" not in text


def _scalar_engine(source: str, graph, args, backend: str, **opts):
    """An engine of ``source`` that runs every phase as its generated loop."""
    engine, fields, _master = compile_source(source, emit_java=False).program.make_engine(
        graph, args, backend=backend, **opts
    )
    if backend != "sim":
        engine.install_array_code({}, {})
    return engine, fields


def _phase_loop(source: str, marker: str) -> str:
    """The generated loop of ``source`` whose text holds ``marker``."""
    loops = compile_source(source, emit_java=False).program.vertex_source.split("\ndef ")
    [loop] = [loop for loop in loops if marker in loop]
    return loop


class TestPhaseLoop:
    def test_one_neighbour_send_goes_after_the_loop(self):
        for name, rows in (("pagerank", ""), ("conductance", ", F__in_nbrs")):
            source = compile_algorithm(name, emit_java=False).program.vertex_source
            assert "ctx.send_nbrs(" not in source and "send_nbrs_rows((vid,)" not in source
            assert f"ctx.send_nbrs_rows(S_vids, S_msgs{rows})" in source

    def test_adjacent_ifs_on_one_condition_are_one_block(self):
        merged = (
            "Procedure p(G: Graph; a: N_P<Int>): Int {\n"
            "  Int s = 0; Int t = 0;\n"
            "  Foreach (n: G.Nodes) { If (n.a > 1) { s += n.a; } If (n.a > 1) { t += 1; } }\n"
            "  Return s * 10 + t; }"
        )
        loop = _phase_loop(merged, "P_")
        assert loop.count("if (F_a[vid] > 1):") == 1
        assert loop.count(".append(vid)") == 1  # the block's puts share one vids list
        # a block that writes what the condition reads is left alone
        kept = merged.replace("s += n.a;", "s += n.a; n.a = 0;")
        assert _phase_loop(kept, "P_").count("if (F_a[vid] > 1):") == 2
        graph = Graph.from_edges(4, [(0, 1)])
        args = {"a": [0, 2, 3, 1]}
        for source, want in ((merged, 52), (kept, 50)):
            assert interpret(source, graph, args).result == want
            for backend in ("sim", "columnar"):
                engine, _fields = _scalar_engine(source, graph, args, backend)
                assert engine.run().result == want, backend

    def test_two_send_sites_keep_per_vertex_calls(self):
        # a neighbour send beside a random write: the staged order mixes
        # the two per sender, so neither goes out after the loop
        source = (
            "Procedure two_sites(G: Graph, a: N_P<Int>, b: N_P<Int>, tgt: N_P<Node>;"
            " x: N_P<Int>, y: N_P<Int>) {\n"
            "  G.x = -1; G.y = -1;\n"
            "  Foreach (n: G.Nodes) {\n"
            "    Foreach (t: n.Nbrs) { t.x = n.a; }\n"
            "    Node m = n.tgt; m.y = n.b; } }"
        )
        loop = _phase_loop(source, "ctx.send(")
        assert "ctx.send_nbrs(vid, " in loop and "send_nbrs_rows" not in loop
        n = 7
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and (u * 3 + v) % 4 == 0]
        graph = Graph.from_edges(n, edges)
        args = {
            "a": [10 + v for v in range(n)],
            "b": [20 + v for v in range(n)],
            "tgt": [(5 * v + 2) % n for v in range(n)],
        }
        want = interpret(source, graph, args).outputs
        # the order one send per call stages, per receiver
        order: dict = {}
        for v in range(n):
            for t in graph.out_nbrs(v):
                order.setdefault(t, []).append((0, args["a"][v]))
            order.setdefault(args["tgt"][v], []).append((1, args["b"][v]))
        for backend in ("sim", "columnar"):
            engine, fields = _scalar_engine(source, graph, args, backend, num_workers=3)
            staged = []
            deliver = engine._deliver

            def capture():
                staged.append(engine.outbox_view())
                deliver()

            engine._deliver = capture
            engine.run()
            got = {name: engine.column_values(fields[name]) for name in ("x", "y")}
            assert got == want, backend
            if backend == "sim":
                assert staged[1] == order
            else:  # the slabs decode tag by tag, each in send order
                assert staged[1] == {
                    dst: sorted(msgs, key=lambda m: m[0]) for dst, msgs in order.items()
                }

    def test_an_in_neighbour_send_beside_a_second_site_is_a_one_row_call(self):
        # the in-direction send of a two-site phase stays per vertex: one
        # row of the _in_nbrs column per call, staged as one send per
        # destination would be, beside the random write
        source = (
            "Procedure in_sites(G: Graph, a: N_P<Int>, b: N_P<Int>, tgt: N_P<Node>;"
            " x: N_P<Int>, y: N_P<Int>) {\n"
            "  G.x = -1; G.y = -1;\n"
            "  Foreach (n: G.Nodes) {\n"
            "    Foreach (t: n.InNbrs) { t.x = n.a; }\n"
            "    Node m = n.tgt; m.y = n.b; } }"
        )
        loop = _phase_loop(source, "ctx.send(")
        assert "ctx.send_nbrs_rows((vid,), ((" in loop and ", F__in_nbrs)" in loop
        assert "S_vids" not in loop
        n = 7
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and (u * 3 + v) % 4 == 0]
        graph = Graph.from_edges(n, edges)
        args = {
            "a": [10 + v for v in range(n)],
            "b": [20 + v for v in range(n)],
            "tgt": [(5 * v + 2) % n for v in range(n)],
        }
        want = interpret(source, graph, args).outputs
        for backend in ("sim", "columnar"):
            engine, fields = _scalar_engine(source, graph, args, backend, num_workers=3)
            staged = []
            deliver = engine._deliver

            def capture():
                staged.append(engine.outbox_view())
                deliver()

            engine._deliver = capture
            engine.run()
            got = {name: engine.column_values(fields[name]) for name in ("x", "y")}
            assert got == want, backend
            # the order one send per destination stages, per receiver
            rows = fields["_in_nbrs"]
            order: dict = {}
            for v in range(n):
                for t in rows[v]:
                    order.setdefault(t, []).append((0, args["a"][v]))
                order.setdefault(args["tgt"][v], []).append((1, args["b"][v]))
            sent = staged[2]  # after the §4.3 prologue's row messages
            if backend == "sim":
                assert sent == order
            else:  # the slabs decode tag by tag, each in send order
                assert sent == {
                    dst: sorted(msgs, key=lambda m: m[0]) for dst, msgs in order.items()
                }

    @pytest.mark.parametrize("name", ["pagerank", "conductance"])
    def test_traced_and_untraced_runs_keep_one_ledger(self, name):
        # traced or not, the rows stage in one pass
        graph = load_graph("twitter" if name == "pagerank" else "sk-2005", 0.1)
        program = compile_algorithm(name, emit_java=False).program
        args = default_args(name, graph)
        runs = [
            program.run(graph, args, num_workers=3, tracer=tracer)
            for tracer in (None, Tracer())
        ]
        for run in runs:
            assert sum(run.metrics.worker_sent) == run.metrics.messages > 0
        free, traced = runs
        assert traced.outputs == free.outputs
        assert traced.metrics.parity_key() == free.metrics.parity_key()
        assert traced.metrics.worker_sent == free.metrics.worker_sent

    def test_combined_runs_keep_their_counts(self):
        # a combined tag's rows fold send by send, as per-vertex calls did
        pinned = {
            ("pagerank", "twitter"): (22154, 177232, 16841, 134728, [69212, 26587, 26884, 9317]),
            ("conductance", "sk-2005"): (18322, 61858, 13800, 46576, [4719, 4515, 4531, 4557]),
        }
        for (name, graph_name), want in pinned.items():
            graph = load_graph(graph_name, 0.25)
            program = compile_algorithm(name, emit_java=False).program
            m = program.run(graph, default_args(name, graph), num_workers=4, use_combiners=True).metrics
            got = (m.messages, m.message_bytes, m.net_messages, m.net_bytes, m.worker_sent)
            assert got == want, name


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
