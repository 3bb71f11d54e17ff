"""Executable backend: Pregel IR → Python code running on the simulator.

This plays the role of the paper's Java code generation, but targets our
GPS simulator so the generated programs can actually execute:

* the **vertex side** is generated as Python source (one function per vertex
  phase plus a ``_state``-dispatching ``vertex_compute``), compiled with
  ``exec`` against closures over the graph's CSR arrays and the vertex-field
  columns — so generated programs run at the same speed class as hand-written
  Pregel programs, keeping Figure 6's normalized comparison meaningful;
* the **master side** interprets the IR instruction stream: each superstep it
  executes master instructions until an :class:`MVPhase` (broadcasting the
  state number and the global scalars, like the generated GPS master does)
  or an :class:`MHalt`.

``CompiledProgram.run(graph, args)`` wires everything to a
:class:`~repro.pregel.runtime.PregelEngine` and returns outputs + metrics.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field

from ..lang.ast import BinOp, UnOp
from ..lang import types as ty
from ..lang.errors import MissingArgument
from ..pregel.backend import get_backend
from ..pregel.globalmap import GlobalOp, combine
from ..pregel.graph import Graph
from ..pregel.runtime import PregelEngine, RunMetrics
from ..pregelir.schema import derive_schema
from ..pregelir.ir import (
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
    NIL_NODE,
    INF_VALUE,
    PregelIR,
    Un,
    VAppendInNbr,
    VAssignLocal,
    VExpr,
    VFieldAssign,
    VFieldReduce,
    VGlobalPut,
    VIf,
    VLocal,
    VMsgLoop,
    VSendNbrs,
    VSendTo,
    VStmt,
)

_BIN_PY = {
    BinOp.ADD: "+",
    BinOp.SUB: "-",
    BinOp.MUL: "*",
    BinOp.MOD: "%",
    BinOp.EQ: "==",
    BinOp.NEQ: "!=",
    BinOp.LT: "<",
    BinOp.GT: ">",
    BinOp.LE: "<=",
    BinOp.GE: ">=",
    BinOp.AND: "and",
    BinOp.OR: "or",
}


def gm_div(a, b):
    """Green-Marl division: Int/Int truncates toward zero (as in Java)."""
    if type(a) is int and type(b) is int:
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


# ---------------------------------------------------------------------------
# Expression → Python source
# ---------------------------------------------------------------------------


def expr_py(e: VExpr) -> str:
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Inf):
        return "-INF" if e.negative else "INF"
    if isinstance(e, Nil):
        return "NIL"
    if isinstance(e, Local):
        return f"L_{e.name}"
    if isinstance(e, Field):
        return f"F_{e.name}[vid]"
    if isinstance(e, GlobalGet):
        return f"B[{e.name!r}]"
    if isinstance(e, MsgField):
        return f"_m[{e.index + 1}]"
    if isinstance(e, MyId):
        return "vid"
    if isinstance(e, Bin):
        if e.op is BinOp.DIV:
            return f"gm_div({expr_py(e.lhs)}, {expr_py(e.rhs)})"
        return f"({expr_py(e.lhs)} {_BIN_PY[e.op]} {expr_py(e.rhs)})"
    if isinstance(e, Un):
        if e.op is UnOp.NEG:
            return f"(-{expr_py(e.operand)})"
        if e.op is UnOp.NOT:
            return f"(not {expr_py(e.operand)})"
        return f"abs({expr_py(e.operand)})"
    if isinstance(e, Cond):
        return f"({expr_py(e.then)} if {expr_py(e.cond)} else {expr_py(e.other)})"
    if isinstance(e, CastTo):
        if isinstance(e.to_type, ty.PrimType) and e.to_type.is_integral():
            return f"int({expr_py(e.operand)})"
        if isinstance(e.to_type, ty.PrimType) and e.to_type.prim is ty.Prim.BOOL:
            return f"bool({expr_py(e.operand)})"
        return f"float({expr_py(e.operand)})"
    if isinstance(e, Call):
        if e.name == "out_degree":
            return "(OUT_OFF[vid + 1] - OUT_OFF[vid])"
        if e.name == "in_degree":
            return "(IN_OFF[vid + 1] - IN_OFF[vid])"
        if e.name == "num_nodes":
            return "NUM_NODES"
        if e.name == "num_edges":
            return "NUM_EDGES"
        if e.name == "edge_prop":
            return f"EP_{e.args[0]}[_ei]"
        raise ValueError(f"unknown builtin '{e.name}' in vertex context")
    raise ValueError(f"cannot generate code for {type(e).__name__}")


def _contains_edge_prop(e: VExpr) -> bool:
    if isinstance(e, Call) and e.name == "edge_prop":
        return True
    for attr in ("lhs", "rhs", "operand", "cond", "then", "other"):
        child = getattr(e, attr, None)
        if isinstance(child, VExpr) and _contains_edge_prop(child):
            return True
    return False


# ---------------------------------------------------------------------------
# Statement → Python source
# ---------------------------------------------------------------------------


class _Emitter:
    def __init__(self):
        self._buf = io.StringIO()
        self._depth = 0

    def line(self, text: str) -> None:
        self._buf.write("    " * self._depth + text + "\n")

    def indent(self) -> None:
        self._depth += 1

    def dedent(self) -> None:
        self._depth -= 1

    def text(self) -> str:
        return self._buf.getvalue()


_REDUCE_PY = {
    GlobalOp.SUM: "F_{f}[vid] = F_{f}[vid] + {e}",
    GlobalOp.PRODUCT: "F_{f}[vid] = F_{f}[vid] * {e}",
    GlobalOp.AND: "F_{f}[vid] = F_{f}[vid] and {e}",
    GlobalOp.OR: "F_{f}[vid] = F_{f}[vid] or {e}",
    GlobalOp.OVERWRITE: "F_{f}[vid] = {e}",
}


def emit_stmt(out: _Emitter, stmt: VStmt) -> None:
    if isinstance(stmt, VLocal) or isinstance(stmt, VAssignLocal):
        out.line(f"L_{stmt.name} = {expr_py(stmt.expr)}")
    elif isinstance(stmt, VFieldAssign):
        out.line(f"F_{stmt.name}[vid] = {expr_py(stmt.expr)}")
    elif isinstance(stmt, VFieldReduce):
        if stmt.op is GlobalOp.MIN:
            out.line(f"_v = {expr_py(stmt.expr)}")
            out.line(f"if _v < F_{stmt.name}[vid]: F_{stmt.name}[vid] = _v")
        elif stmt.op is GlobalOp.MAX:
            out.line(f"_v = {expr_py(stmt.expr)}")
            out.line(f"if _v > F_{stmt.name}[vid]: F_{stmt.name}[vid] = _v")
        else:
            out.line(_REDUCE_PY[stmt.op].format(f=stmt.name, e=expr_py(stmt.expr)))
    elif isinstance(stmt, VIf):
        out.line(f"if {expr_py(stmt.cond)}:")
        out.indent()
        if stmt.then:
            for s in stmt.then:
                emit_stmt(out, s)
        else:
            out.line("pass")
        out.dedent()
        if stmt.other:
            out.line("else:")
            out.indent()
            for s in stmt.other:
                emit_stmt(out, s)
            out.dedent()
    elif isinstance(stmt, VGlobalPut):
        out.line(f"ctx.put_global({stmt.name!r}, OP_{stmt.op.name}, {expr_py(stmt.expr)})")
    elif isinstance(stmt, VSendNbrs):
        _emit_send_nbrs(out, stmt)
    elif isinstance(stmt, VSendTo):
        payload = ", ".join(expr_py(p) for p in stmt.payload)
        msg = f"({stmt.tag}, {payload})" if payload else f"({stmt.tag},)"
        out.line(f"ctx.send({expr_py(stmt.target)}, {msg})")
    elif isinstance(stmt, VAppendInNbr):
        out.line(f"F__in_nbrs[vid].append({expr_py(stmt.source)})")
    elif isinstance(stmt, VMsgLoop):
        out.line("for _m in messages:")
        out.indent()
        out.line(f"if _m[0] == {stmt.tag}:")
        out.indent()
        if stmt.body:
            for s in stmt.body:
                emit_stmt(out, s)
        else:
            out.line("pass")
        out.dedent()
        out.dedent()
    else:
        raise ValueError(f"cannot emit {type(stmt).__name__}")


def _emit_send_nbrs(out: _Emitter, stmt: VSendNbrs) -> None:
    per_edge = any(_contains_edge_prop(p) for p in stmt.payload)
    payload = ", ".join(expr_py(p) for p in stmt.payload)
    msg = f"({stmt.tag}, {payload})" if payload else f"({stmt.tag},)"
    # The payload is evaluated only when there is at least one neighbor:
    # flipped loops may divide by the sender's own degree (e.g. PageRank),
    # which is undefined — and never needed — on sink vertices.
    if stmt.direction == "in":
        if per_edge:
            raise ValueError("edge properties are unavailable on in-direction sends")
        out.line(f"if F__in_nbrs[vid]:")
        out.indent()
        out.line(f"_msg = {msg}")
        # Bulk send: typed backends stage one packed record per block.
        out.line("ctx.send_list(F__in_nbrs[vid], _msg)")
        out.dedent()
    elif per_edge:
        out.line("for _ei in range(OUT_OFF[vid], OUT_OFF[vid + 1]):")
        out.indent()
        out.line(f"ctx.send(OUT_TGT[_ei], {msg})")
        out.dedent()
    else:
        out.line("if OUT_OFF[vid] != OUT_OFF[vid + 1]:")
        out.indent()
        out.line(f"_msg = {msg}")
        out.line("ctx.send_nbrs(vid, _msg)")
        out.dedent()


# ---------------------------------------------------------------------------
# Whole-program vertex source
# ---------------------------------------------------------------------------


def generate_vertex_source(ir: PregelIR) -> str:
    """Python source of the generated vertex program.

    The module defines ``make_vertex_compute(env)``; calling it with the
    binding environment (field columns, CSR arrays, broadcast dict, …)
    returns the ``vertex_compute(ctx, vid, messages)`` function.
    """
    out = _Emitter()
    out.line(f"# Generated Pregel vertex program for '{ir.name}'.")
    out.line("def make_vertex_compute(env):")
    out.indent()
    out.line("globals().update(env)")
    for phase in ir.phases.values():
        out.line("")
        out.line(f"def _phase_{phase.phase_id}(ctx, vid, messages):")
        out.indent()
        out.line(f"# {phase.label}")
        for stmt in phase.receive:
            emit_stmt(out, stmt)
        if phase.filter is not None:
            out.line(f"if not ({expr_py(phase.filter)}):")
            out.indent()
            out.line("return")
            out.dedent()
        for stmt in phase.compute:
            emit_stmt(out, stmt)
        if not phase.receive and not phase.compute and phase.filter is None:
            out.line("pass")
        out.dedent()
    out.line("")
    dispatch = ", ".join(
        f"{pid}: _phase_{pid}" for pid in sorted(ir.phases)
    )
    out.line(f"_DISPATCH = {{{dispatch}}}")
    out.line("")
    out.line("def vertex_compute(ctx, vid, messages):")
    out.indent()
    out.line("_fn = _DISPATCH.get(B.get('_state', -1))")
    out.line("if _fn is not None:")
    out.indent()
    out.line("_fn(ctx, vid, messages)")
    out.dedent()
    out.dedent()
    out.line("return vertex_compute")
    out.dedent()
    return out.text()


# ---------------------------------------------------------------------------
# Master interpreter
# ---------------------------------------------------------------------------

_MAX_MASTER_OPS = 10_000_000


class GeneratedMaster:
    """Interprets the IR master instruction stream, one superstep at a time."""

    def __init__(self, ir: PregelIR, init_fields: dict):
        self.ir = ir
        self.fields: dict = {}
        for name, t in ir.master_fields.items():
            self.fields[name] = ty.default_value(t)
        self.fields.update(init_fields)
        self._pc = 0
        self._labels = {
            instr.label: idx
            for idx, instr in enumerate(ir.master_code)
            if isinstance(instr, MLabel)
        }
        self.halted = False

    def compute(self, ctx: PregelEngine) -> None:
        code = self.ir.master_code
        fields = self.fields
        ops = 0
        while True:
            ops += 1
            if ops > _MAX_MASTER_OPS:
                raise RuntimeError("master did not yield a vertex phase (infinite loop?)")
            if self._pc >= len(code):
                ctx.halt()
                self.halted = True
                return
            instr = code[self._pc]
            if isinstance(instr, MAssign):
                fields[instr.name] = self._eval(instr.expr, ctx)
            elif isinstance(instr, MFinalize):
                if ctx.globals.has_aggregated(instr.name):
                    fields[instr.name] = combine(
                        instr.op, fields[instr.name], ctx.get_agg(instr.name)
                    )
            elif isinstance(instr, MLabel):
                pass
            elif isinstance(instr, MJump):
                self._pc = self._labels[instr.label]
                continue
            elif isinstance(instr, MBranch):
                target = instr.on_true if self._eval(instr.cond, ctx) else instr.on_false
                self._pc = self._labels[target]
                continue
            elif isinstance(instr, MVPhase):
                ctx.put_broadcast("_state", instr.phase)
                for name, value in fields.items():
                    ctx.put_broadcast(name, value)
                self._pc += 1
                return
            elif isinstance(instr, MHalt):
                result = self._eval(instr.result, ctx) if instr.result is not None else None
                ctx.halt()
                ctx.set_result(result)
                self.halted = True
                return
            else:
                raise ValueError(f"unknown master instruction {type(instr).__name__}")
            self._pc += 1

    # -- fault tolerance (Checkpointable) -------------------------------

    def checkpoint_state(self) -> dict:
        return {"fields": dict(self.fields), "pc": self._pc, "halted": self.halted}

    def restore_state(self, state: dict, vertices=None) -> None:
        if vertices is not None:
            # Confined recovery: the master did not fail, so its scalar
            # fields and program counter are already correct.
            return
        self.fields.clear()
        self.fields.update(state["fields"])
        self._pc = state["pc"]
        self.halted = state["halted"]

    def _eval(self, e: VExpr, ctx: PregelEngine):
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Inf):
            return -INF_VALUE if e.negative else INF_VALUE
        if isinstance(e, Nil):
            return NIL_NODE
        if isinstance(e, Field):
            return self.fields[e.name]
        if isinstance(e, GlobalGet):
            return self.fields[e.name]
        if isinstance(e, Bin):
            if e.op is BinOp.AND:
                return self._eval(e.lhs, ctx) and self._eval(e.rhs, ctx)
            if e.op is BinOp.OR:
                return self._eval(e.lhs, ctx) or self._eval(e.rhs, ctx)
            a, b = self._eval(e.lhs, ctx), self._eval(e.rhs, ctx)
            return _eval_bin(e.op, a, b)
        if isinstance(e, Un):
            v = self._eval(e.operand, ctx)
            if e.op is UnOp.NEG:
                return -v
            if e.op is UnOp.NOT:
                return not v
            return abs(v)
        if isinstance(e, Cond):
            return (
                self._eval(e.then, ctx)
                if self._eval(e.cond, ctx)
                else self._eval(e.other, ctx)
            )
        if isinstance(e, CastTo):
            v = self._eval(e.operand, ctx)
            if isinstance(e.to_type, ty.PrimType) and e.to_type.is_integral():
                return int(v)
            if isinstance(e.to_type, ty.PrimType) and e.to_type.prim is ty.Prim.BOOL:
                return bool(v)
            return float(v)
        if isinstance(e, Call):
            if e.name == "num_nodes":
                return ctx.graph.num_nodes
            if e.name == "num_edges":
                return ctx.graph.num_edges
            if e.name == "pick_random":
                return ctx.pick_random_node()
            raise ValueError(f"unknown builtin '{e.name}' in master context")
        raise ValueError(f"cannot evaluate {type(e).__name__} on the master")


def _eval_bin(op: BinOp, a, b):
    if op is BinOp.ADD:
        return a + b
    if op is BinOp.SUB:
        return a - b
    if op is BinOp.MUL:
        return a * b
    if op is BinOp.DIV:
        return gm_div(a, b)
    if op is BinOp.MOD:
        return a % b
    if op is BinOp.EQ:
        return a == b
    if op is BinOp.NEQ:
        return a != b
    if op is BinOp.LT:
        return a < b
    if op is BinOp.GT:
        return a > b
    if op is BinOp.LE:
        return a <= b
    return a >= b


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: RunMetrics
    outputs: dict[str, list]
    result: object
    fields: dict[str, list] = field(repr=False, default_factory=dict)


class CompiledProgram:
    """A compiled Green-Marl procedure, ready to run on the simulator."""

    def __init__(self, ir: PregelIR):
        self.ir = ir
        self.vertex_source = generate_vertex_source(ir)
        namespace: dict = {}
        exec(compile(self.vertex_source, f"<generated:{ir.name}>", "exec"), namespace)
        self._factory = namespace["make_vertex_compute"]
        # Derived here — after the optimizer has finished mutating phases
        # and message layouts — so the typed storage/wire schema can never
        # go stale relative to the message classes it describes (§4.3).
        self.schema = derive_schema(ir)
        ir.schema = self.schema

    # -- wiring ---------------------------------------------------------

    def _build_fields(self, graph: Graph, args: dict) -> dict[str, list]:
        fields: dict[str, list] = {}
        for name, elem in self.ir.vertex_fields.items():
            if name in args:
                values = args[name]
                if len(values) != graph.num_nodes:
                    raise ValueError(
                        f"property argument '{name}' has wrong length"
                    )
                fields[name] = list(values)
            elif name in graph.node_props:
                fields[name] = list(graph.node_props[name])
            else:
                fields[name] = [_field_default(elem)] * graph.num_nodes
        if self.ir.needs_in_nbrs:
            fields["_in_nbrs"] = [[] for _ in range(graph.num_nodes)]
        return fields

    def _scalar_args(self, args: dict, num_nodes: int) -> dict:
        init = {}
        for param in self.ir.params:
            if param.gm_type.is_graph() or param.gm_type.is_property():
                continue
            if param.name in args:
                init[param.name] = ty.check_scalar_arg(
                    param.name, param.gm_type, args[param.name], num_nodes
                )
            elif not param.is_output:
                raise MissingArgument(param.name)
        return init

    def make_engine(
        self,
        graph: Graph,
        args: dict | None = None,
        *,
        backend="sim",
        use_combiners: bool = False,
        scheduling: str = "frontier",
        frontier_threshold: float = 0.25,
        **engine_opts,
    ) -> tuple[PregelEngine, dict[str, list], GeneratedMaster]:
        """Instantiate a PregelEngine for this program.

        ``scheduling`` decides whether the vertex loop may go sparse:
        ``"frontier"`` (default) tracks the active set of a voting program and
        iterates only it while it is sparse; ``"dense"`` is that switch off —
        every superstep scans every un-voted vertex.  Message routing (batched
        per destination worker) is the same either way, on every backend, and
        both are bit-identical on outputs and on every metered quantity
        (``RunMetrics.parity_key()``); generated programs never call
        ``vote_to_halt`` (§5.2), so for them the two coincide.
        ``frontier_threshold`` is the active-set density above which frontier
        mode scans densely (GraphIt-style direction switch).  Remaining
        ``engine_opts`` pass through to :class:`PregelEngine`.

        ``backend`` selects the execution backend (``"sim"``, ``"columnar"``
        or ``"mp"``, or an :class:`ExecutionBackend` instance): how property
        columns are stored, how staged messages are represented, and which
        engine drives the supersteps.  All backends are parity-identical;
        compositions a backend refuses raise
        :class:`~repro.pregel.backend.BackendUnsupported`.
        """
        backend_impl = get_backend(backend)
        args = dict(args or {})
        engine_opts["scheduling"] = scheduling
        engine_opts["frontier_threshold"] = frontier_threshold
        if use_combiners and "combiners" not in engine_opts:
            from ..translate.combiner import combiner_functions, infer_combiners

            engine_opts["combiners"] = combiner_functions(infer_combiners(self.ir))
        for name, param in ((p.name, p) for p in self.ir.params):
            if isinstance(param.gm_type, ty.EdgePropType) and name not in graph.edge_props:
                raise ValueError(f"graph is missing edge property '{name}'")
        fields = backend_impl.build_columns(
            self.schema, graph, self._build_fields(graph, args), args
        )
        master = GeneratedMaster(self.ir, self._scalar_args(args, graph.num_nodes))

        env: dict = {
            "B": None,  # patched below (needs the engine's broadcast dict)
            "INF": INF_VALUE,
            "NIL": NIL_NODE,
            "gm_div": gm_div,
            "NUM_NODES": graph.num_nodes,
            "NUM_EDGES": graph.num_edges,
            "OUT_OFF": graph.out_offsets,
            "OUT_TGT": graph.out_targets,
            "IN_OFF": graph.in_offsets,
        }
        for op in GlobalOp:
            env[f"OP_{op.name}"] = op
        for name, column in fields.items():
            env[f"F_{name}"] = column
        for name, column in graph.edge_props.items():
            env[f"EP_{name}"] = column

        # Wire sizes come from the typed schema, on every backend — so
        # ``message_bytes`` always meters the bytes a columnar slab (or a
        # shared-memory segment) actually carries, and mem budgets stay
        # meaningful.
        sizes = {tag: self.schema.message_size(tag) for tag in self.schema.tags}

        def message_size(msg: tuple) -> int:
            return sizes[msg[0]]

        engine = backend_impl.create_engine(
            graph,
            master_compute=master.compute,
            message_size=message_size,
            schema=self.schema,
            engine_opts=engine_opts,
        )
        env["B"] = engine.globals.broadcast
        engine._vertex_compute = self._factory(env)
        if hasattr(engine, "_columns"):
            # The mp backend's parent process scatters the workers'
            # partitions back into these columns after the run.
            engine._columns = fields
        if hasattr(engine, "compile_array_code"):
            from .vectorize import build_array_code

            build = functools.partial(build_array_code, self.ir, self.schema, fields)
            tracer = getattr(engine, "tracer", None)
            tracing = tracer is not None and tracer.enabled
            decisions: list | None = [] if tracing else None
            engine.compile_array_code(build, decisions)
            if tracing and decisions is not None:
                # info-only: which phases compiled to bulk receive handlers
                # and array kernels, and why the rest stayed scalar.  Never
                # det — the sim backend skips the vectorizer entirely, so
                # these events must not enter cross-backend deterministic
                # comparisons.
                for decision in decisions:
                    tracer.event("compile.vectorize", cat="compile", info=decision)
        if getattr(engine, "ft", None) is not None:
            # Checkpoints must cover everything a worker crash can destroy:
            # the vertex property columns and the master's interpreter state.
            from ..pregel.ft import ColumnState

            engine.ft.register(ColumnState(fields))
            engine.ft.register(master)
        return engine, fields, master

    def run(
        self,
        graph: Graph,
        args: dict | None = None,
        *,
        backend="sim",
        use_combiners: bool = False,
        **engine_opts,
    ) -> RunResult:
        engine, fields, _master = self.make_engine(
            graph, args, backend=backend, use_combiners=use_combiners, **engine_opts
        )
        metrics = engine.run()
        backend_impl = get_backend(backend)
        outputs = {
            p.name: backend_impl.column_values(fields[p.name])
            for p in self.ir.params
            if p.is_output and p.name in fields
        }
        return RunResult(metrics, outputs, metrics.result, fields)


def _field_default(elem: ty.Type):
    value = ty.default_value(elem)
    return value
