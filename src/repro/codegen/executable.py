"""Executable backend: Pregel IR → Python source running on the simulator.

This plays the role of the paper's Java code generation, but targets our
GPS simulator so the generated programs can actually execute.  Both sides
are printed as one Python module, compiled once per program and executed
once per engine in a namespace holding that engine's graph CSR arrays,
vertex-field columns and broadcast map:

* the **vertex side** is, per vertex phase, one loop over the active
  vertices the engine hands it.  Where GPS's generated ``compute()``
  switches on the master-broadcast state per vertex, the engine here picks
  the current state's loop once per superstep, and the loop reads the
  broadcast values its phase uses once — so the per-vertex cost is the
  phase body alone, and generated programs run in the same speed class as
  hand-written Pregel programs, keeping Figure 6's normalized comparison
  meaningful;
* the **master side** is the §3.1 state machine, ``MASTER_STEP(ctx, M,
  pc)``, as ``java.py`` prints it for GPS: one block per resume point,
  keyed by instruction index.  Each superstep it runs from ``pc`` until an
  :class:`MVPhase` (broadcasting the state number and the global scalars)
  or an :class:`MHalt`; :class:`GeneratedMaster` only holds its state.

``CompiledProgram.run(graph, args)`` wires everything to a
:class:`~repro.pregel.runtime.PregelEngine` and returns outputs + metrics.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field

from ..lang.ast import BinOp, UnOp
from ..lang import types as ty
from ..lang.errors import MissingArgument
from ..pregel.backend import get_backend
from ..pregel.globalmap import GlobalOp
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
    walk_stmts,
)
from ..translate.merge import phase_global_puts, phase_global_reads

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


def expr_py(e: VExpr, ctx: str = "vertex") -> str:
    """Render an IR expression; ``ctx`` is 'vertex' or 'master', as for
    ``jexpr``: on the master a field is ``M[name]``."""
    if isinstance(e, Lit):
        if isinstance(e.value, float) and math.isinf(e.value):
            return "-INF" if e.value < 0 else "INF"
        return repr(e.value)
    if isinstance(e, Inf):
        return "-INF" if e.negative else "INF"
    if isinstance(e, Nil):
        return "NIL"
    if ctx == "master" and isinstance(e, (Field, GlobalGet)):
        return f"M[{e.name!r}]"
    if isinstance(e, Local):
        return f"L_{e.name}"
    if isinstance(e, Field):
        return f"F_{e.name}[vid]"
    if isinstance(e, GlobalGet):
        return f"B_{e.name}"  # read once per superstep, at the loop's start
    if isinstance(e, MsgField):
        return f"_m[{e.index + 1}]"
    if isinstance(e, MyId):
        return "vid"
    if isinstance(e, Bin):
        if e.op is BinOp.DIV:
            return f"gm_div({expr_py(e.lhs, ctx)}, {expr_py(e.rhs, ctx)})"
        return f"({expr_py(e.lhs, ctx)} {_BIN_PY[e.op]} {expr_py(e.rhs, ctx)})"
    if isinstance(e, Un):
        if e.op is UnOp.NEG:
            return f"(-{expr_py(e.operand, ctx)})"
        if e.op is UnOp.NOT:
            return f"(not {expr_py(e.operand, ctx)})"
        return f"abs({expr_py(e.operand, ctx)})"
    if isinstance(e, Cond):
        return (
            f"({expr_py(e.then, ctx)} if {expr_py(e.cond, ctx)}"
            f" else {expr_py(e.other, ctx)})"
        )
    if isinstance(e, CastTo):
        if isinstance(e.to_type, ty.PrimType) and e.to_type.is_integral():
            return f"int({expr_py(e.operand, ctx)})"
        if isinstance(e.to_type, ty.PrimType) and e.to_type.prim is ty.Prim.BOOL:
            return f"bool({expr_py(e.operand, ctx)})"
        return f"float({expr_py(e.operand, ctx)})"
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
        if e.name == "pick_random" and ctx == "master":
            return "ctx.pick_random_node()"
        raise ValueError(f"unknown builtin '{e.name}' in {ctx} context")
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


#: a field reduce, ``fold.combine``'s step printed inline
_REDUCE_PY = {
    GlobalOp.SUM: "F_{f}[vid] = F_{f}[vid] + {e}",
    GlobalOp.PRODUCT: "F_{f}[vid] = F_{f}[vid] * {e}",
    GlobalOp.MIN: "_v = {e}\nif _v < F_{f}[vid]: F_{f}[vid] = _v",
    GlobalOp.MAX: "_v = {e}\nif _v > F_{f}[vid]: F_{f}[vid] = _v",
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
        for line in _REDUCE_PY[stmt.op].format(f=stmt.name, e=expr_py(stmt.expr)).split("\n"):
            out.line(line)
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
        # collected per global, put once after the loop (see _emit_phase_loop)
        out.line(f"P_{stmt.name}_vids.append(vid)")
        out.line(f"P_{stmt.name}_vals.append({expr_py(stmt.expr)})")
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
        out.line("_lo, _hi = OUT_OFF[vid], OUT_OFF[vid + 1]")
        out.line("if _lo != _hi:")
        out.indent()
        out.line(f"ctx.send_each(OUT_TGT[_lo:_hi], [{msg} for _ei in range(_lo, _hi)])")
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

    The module is executed once per engine, in a namespace holding that
    engine's bindings (field columns, CSR arrays, broadcast dict, …), and
    leaves there ``PHASE_LOOPS``, the table ``{state: loop}``.  Each
    superstep the engine calls the current state's loop, ``loop(ctx,
    active, slots) -> int``: it reads the broadcast values its phase uses
    once, then runs the phase body over every vertex of ``active`` (its
    messages are ``slots[vid]``), and returns how many it iterated.  A
    phase's global puts are collected per global in the loop and made once
    after it, ``ctx.put_global_bulk``, when there were any.
    """
    out = _Emitter()
    out.line(f"# Generated Pregel vertex program for '{ir.name}'.")
    for phase in ir.phases.values():
        _emit_phase_loop(out, phase)
    table = ", ".join(f"{pid}: _loop_{pid}" for pid in sorted(ir.phases))
    out.line("")
    out.line(f"PHASE_LOOPS = {{{table}}}")
    return out.text()


def _emit_phase_loop(out: _Emitter, phase) -> None:
    pid = phase.phase_id
    out.line("")
    out.line(f"def _loop_{pid}(ctx, active, slots):")
    out.indent()
    out.line(f"# {phase.label}")
    for name in sorted(phase_global_reads(phase)):
        out.line(f"B_{name} = B[{name!r}]")
    puts = {
        stmt.name: stmt.op
        for stmt in walk_stmts([*phase.receive, *phase.compute])
        if isinstance(stmt, VGlobalPut)
    }
    for name in puts:
        out.line(f"P_{name}_vids, P_{name}_vals = [], []")
    out.line("_n = 0")
    out.line("for _n, vid in enumerate(active, 1):")
    out.indent()
    out.line("ctx._current_vertex = vid")
    out.line("messages = slots[vid]")
    for stmt in phase.receive:
        emit_stmt(out, stmt)
    if phase.filter is not None:
        out.line(f"if not ({expr_py(phase.filter)}):")
        out.indent()
        out.line("continue")
        out.dedent()
    for stmt in phase.compute:
        emit_stmt(out, stmt)
    out.dedent()
    for name, op in puts.items():
        out.line(f"if P_{name}_vids:")
        out.line(f"    ctx.put_global_bulk({name!r}, OP_{op.name}, P_{name}_vids, P_{name}_vals)")
    out.line("return _n")
    out.dedent()


# ---------------------------------------------------------------------------
# Master source
# ---------------------------------------------------------------------------

_MAX_MASTER_OPS = 10_000_000


def generate_master_source(ir: PregelIR) -> str:
    """Python source of the generated master, ``MASTER_STEP(ctx, M, pc)``.

    ``M`` is the master fields, ``pc`` the instruction index to resume at:
    the start, a label, or the instruction after a vertex phase — one block
    each.  A call runs blocks until one yields a vertex phase, broadcasting
    ``_state`` and every field of ``M`` and opening the slot of each global
    the phase puts to at its field (an :class:`MFinalize` takes the chain),
    and returns the index to resume at next superstep; or until it halts
    the engine, and returns ``None``.  At most ``_MAX_MASTER_OPS`` blocks
    run per call.
    """
    code = ir.master_code
    labels = {i.label: idx for idx, i in enumerate(code) if isinstance(i, MLabel)}
    starts = {0, *labels.values()}
    starts.update(idx + 1 for idx, i in enumerate(code) if isinstance(i, MVPhase))
    out = _Emitter()
    out.line(f"# Generated Pregel master for '{ir.name}'.")
    out.line("")
    out.line("def MASTER_STEP(ctx, M, pc):")
    out.indent()
    out.line(f"for _ in range({_MAX_MASTER_OPS}):")
    out.indent()
    for start in sorted(starts):
        out.line(f"{'if' if start == 0 else 'elif'} pc == {start}:")
        out.indent()
        idx = start
        while _emit_master_instr(out, ir, idx, labels):
            idx += 1
            if idx in starts:
                out.line(f"pc = {idx}")
                break
        out.dedent()
    out.dedent()
    out.line('raise RuntimeError("master did not yield a vertex phase (infinite loop?)")')
    return out.text()


def _emit_master_instr(out: _Emitter, ir: PregelIR, idx: int, labels: dict) -> bool:
    """Print instruction ``idx``; False when control leaves the block."""
    code = ir.master_code
    instr = code[idx] if idx < len(code) else MHalt()  # falling off the end
    if isinstance(instr, MHalt):
        result = instr.result
        out.line(f"ctx.halt({expr_py(result, 'master') if result is not None else ''})")
        out.line("return None")
        return False
    if isinstance(instr, MAssign):
        out.line(f"M[{instr.name!r}] = {expr_py(instr.expr, 'master')}")
    elif isinstance(instr, MFinalize):
        name = repr(instr.name)
        out.line(f"if ctx.globals.has_aggregated({name}):")
        out.line(f"    M[{name}] = ctx.get_agg({name})")
    elif isinstance(instr, MLabel):
        out.line(f"# {instr.label}:")
    elif isinstance(instr, MJump):
        out.line(f"pc = {labels[instr.label]}  # {instr.label}")
        return False
    elif isinstance(instr, MBranch):
        cond = expr_py(instr.cond, "master")
        out.line(f"pc = {labels[instr.on_true]} if {cond} else {labels[instr.on_false]}")
        return False
    elif isinstance(instr, MVPhase):
        out.line(f"ctx.put_broadcast('_state', {instr.phase})")
        out.line("for _name, _value in M.items():")
        out.line("    ctx.put_broadcast(_name, _value)")
        for name in sorted(phase_global_puts(ir.phases[instr.phase])):
            out.line(f"ctx.globals.open_at({name!r}, M[{name!r}])")
        out.line(f"return {idx + 1}")
        return False
    else:
        raise ValueError(f"unknown master instruction {type(instr).__name__}")
    return True


class GeneratedMaster:
    """The master's state: its fields, the instruction index ``pc`` to
    resume at, and whether it halted.  ``compute`` runs the generated
    ``MASTER_STEP`` once per superstep."""

    def __init__(self, step, fields: dict):
        self.step = step
        self.fields = fields
        self.pc = 0
        self.halted = False

    def compute(self, ctx: PregelEngine) -> None:
        pc = self.step(ctx, self.fields, self.pc)
        if pc is None:
            self.halted = True
        else:
            self.pc = pc

    # -- fault tolerance (Checkpointable) -------------------------------

    def checkpoint_state(self) -> dict:
        return {"fields": dict(self.fields), "pc": self.pc, "halted": self.halted}

    def restore_state(self, state: dict, vertices=None) -> None:
        if vertices is not None:
            # Confined recovery: the master did not fail, so its scalar
            # fields and program counter are already correct.
            return
        self.fields.clear()
        self.fields.update(state["fields"])
        self.pc = state["pc"]
        self.halted = state["halted"]


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
        self.master_source = generate_master_source(ir)
        self._code = compile(self.source, f"<generated:{ir.name}>", "exec")
        # Derived here — after the optimizer has finished mutating phases
        # and message layouts — so the typed storage/wire schema can never
        # go stale relative to the message classes it describes (§4.3).
        self.schema = derive_schema(ir)
        ir.schema = self.schema

    @property
    def source(self) -> str:
        """The whole generated module: the vertex loops, then the master."""
        return f"{self.vertex_source}\n\n{self.master_source}"

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
                fields[name] = [ty.default_value(elem)] * graph.num_nodes
        if self.ir.needs_in_nbrs:
            fields["_in_nbrs"] = [[] for _ in range(graph.num_nodes)]
        return fields

    def _master_fields(self, args: dict, num_nodes: int) -> dict:
        """The master's ``M``: field defaults, then the scalar arguments."""
        init = {name: ty.default_value(t) for name, t in self.ir.master_fields.items()}
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
        every superstep scans every un-voted vertex.  Message staging and
        delivery are the same either way, on every backend, and
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
            from ..translate.combiner import infer_combiners

            engine_opts["combiners"] = infer_combiners(self.ir)
        for name, param in ((p.name, p) for p in self.ir.params):
            if isinstance(param.gm_type, ty.EdgePropType) and name not in graph.edge_props:
                raise ValueError(f"graph is missing edge property '{name}'")
        fields = backend_impl.build_columns(
            self.schema, graph, self._build_fields(graph, args), args
        )
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
        # One namespace per engine: two engines of this program never share
        # a binding.
        exec(self._code, env)
        master = GeneratedMaster(
            env["MASTER_STEP"], self._master_fields(args, graph.num_nodes)
        )

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
        engine._vertex_compute = env["PHASE_LOOPS"]
        if hasattr(engine, "_columns"):
            # The mp backend's parent process scatters the workers'
            # partitions back into these columns after the run.
            engine._columns = fields
        if hasattr(engine, "compile_array_code"):
            from .vectorize import build_array_code

            build = functools.partial(build_array_code, self.ir, self.schema, fields)
            tracer = engine.tracer
            decisions: list | None = [] if tracer is not None else None
            engine.compile_array_code(build, decisions)
            if tracer is not None:
                # info-only: which phases compiled to bulk receive handlers
                # and array kernels, and why the rest stayed scalar.  Never
                # det — the sim backend skips the vectorizer entirely, so
                # these events must not enter cross-backend deterministic
                # comparisons.
                for decision in decisions:
                    tracer.event("compile.vectorize", cat="compile", info=decision)
        if getattr(engine, "ft", None) is not None:
            # Checkpoints must cover everything a worker crash can destroy:
            # the vertex property columns and the master's state.
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
