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

import io
import math
from collections import Counter
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


def expr_py(e: VExpr, ctx: str = "vertex", held: frozenset = frozenset()) -> str:
    """Render an IR expression; ``ctx`` is 'vertex' or 'master', as for
    ``jexpr``: on the master a field is ``M[name]``.  A vertex field in
    ``held`` is the local ``H_<name>`` a message loop folds it in."""
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
        return f"H_{e.name}" if e.name in held else f"F_{e.name}[vid]"
    if isinstance(e, GlobalGet):
        return f"B_{e.name}"  # read once per superstep, at the loop's start
    if isinstance(e, MsgField):
        return f"_m[{e.index + 1}]"
    if isinstance(e, MyId):
        return "vid"
    if isinstance(e, Bin):
        if e.op is BinOp.DIV:
            return f"gm_div({expr_py(e.lhs, ctx, held)}, {expr_py(e.rhs, ctx, held)})"
        return f"({expr_py(e.lhs, ctx, held)} {_BIN_PY[e.op]} {expr_py(e.rhs, ctx, held)})"
    if isinstance(e, Un):
        if e.op is UnOp.NEG:
            return f"(-{expr_py(e.operand, ctx, held)})"
        if e.op is UnOp.NOT:
            return f"(not {expr_py(e.operand, ctx, held)})"
        return f"abs({expr_py(e.operand, ctx, held)})"
    if isinstance(e, Cond):
        return (
            f"({expr_py(e.then, ctx, held)} if {expr_py(e.cond, ctx, held)}"
            f" else {expr_py(e.other, ctx, held)})"
        )
    if isinstance(e, CastTo):
        if isinstance(e.to_type, ty.PrimType) and e.to_type.is_integral():
            return f"int({expr_py(e.operand, ctx, held)})"
        if isinstance(e.to_type, ty.PrimType) and e.to_type.prim is ty.Prim.BOOL:
            return f"bool({expr_py(e.operand, ctx, held)})"
        return f"float({expr_py(e.operand, ctx, held)})"
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
    """Indented source lines, and what the statement being emitted needs to
    know of its phase (all empty outside one): the vertex fields' types,
    the fields the enclosing message loop holds in locals, the one
    neighbour send deferred past the loop, and the vids list each global's
    puts collect in."""

    def __init__(self, fields: dict | None = None):
        self._buf = io.StringIO()
        self._depth = 0
        self.fields = fields or {}
        self.held: frozenset = frozenset()
        self.deferred: VSendNbrs | None = None
        self.put_vids: dict[str, str] = {}

    def line(self, text: str) -> None:
        self._buf.write("    " * self._depth + text + "\n")

    def indent(self) -> None:
        self._depth += 1

    def dedent(self) -> None:
        self._depth -= 1

    def text(self) -> str:
        return self._buf.getvalue()

    def expr(self, e: VExpr) -> str:
        return expr_py(e, "vertex", self.held)

    def target(self, name: str) -> str:
        """Where a write to field ``name`` goes: its held local, or its column."""
        return f"H_{name}" if name in self.held else f"F_{name}[vid]"


#: a field reduce into target ``t``, ``fold.combine``'s step printed inline
_REDUCE_PY = {
    GlobalOp.SUM: "{t} = {t} + {e}",
    GlobalOp.PRODUCT: "{t} = {t} * {e}",
    GlobalOp.MIN: "_v = {e}\nif _v < {t}: {t} = _v",
    GlobalOp.MAX: "_v = {e}\nif _v > {t}: {t} = _v",
    GlobalOp.AND: "{t} = {t} and {e}",
    GlobalOp.OR: "{t} = {t} or {e}",
    GlobalOp.OVERWRITE: "{t} = {e}",
}


def emit_stmt(out: _Emitter, stmt: VStmt) -> None:
    if isinstance(stmt, VLocal) or isinstance(stmt, VAssignLocal):
        out.line(f"L_{stmt.name} = {out.expr(stmt.expr)}")
    elif isinstance(stmt, VFieldAssign):
        out.line(f"{out.target(stmt.name)} = {out.expr(stmt.expr)}")
    elif isinstance(stmt, VFieldReduce):
        step = _REDUCE_PY[stmt.op].format(t=out.target(stmt.name), e=out.expr(stmt.expr))
        for line in step.split("\n"):
            out.line(line)
    elif isinstance(stmt, VIf):
        out.line(f"if {out.expr(stmt.cond)}:")
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
        own = f"P_{stmt.name}_vids"
        if out.put_vids.get(stmt.name, own) == own:  # else the block's first put appends
            out.line(f"{own}.append(vid)")
        out.line(f"P_{stmt.name}_vals.append({out.expr(stmt.expr)})")
    elif isinstance(stmt, VSendNbrs):
        _emit_send_nbrs(out, stmt)
    elif isinstance(stmt, VSendTo):
        payload = ", ".join(out.expr(p) for p in stmt.payload)
        msg = f"({stmt.tag}, {payload})" if payload else f"({stmt.tag},)"
        out.line(f"ctx.send({out.expr(stmt.target)}, {msg})")
    elif isinstance(stmt, VAppendInNbr):
        out.line(f"F__in_nbrs[vid].append({out.expr(stmt.source)})")
    elif isinstance(stmt, VMsgLoop):
        _emit_msg_loop(out, stmt)
    else:
        raise ValueError(f"cannot emit {type(stmt).__name__}")


def _held_fields(loop: VMsgLoop, fields: dict) -> list[str]:
    """The fields ``loop``'s body writes that it can fold in locals, read
    before the loop and stored once after it with the same chain of steps:
    Float, Double and Bool fields, and any field the body only takes the
    min, max or last value of.  An integer sum or product stores per
    message, so a typed column raises at the message that overflows it."""
    ops: dict[str, set] = {}
    for s in walk_stmts(loop.body):
        if isinstance(s, VFieldAssign):
            ops.setdefault(s.name, set()).add(GlobalOp.OVERWRITE)
        elif isinstance(s, VFieldReduce):
            ops.setdefault(s.name, set()).add(s.op)
    exact = {GlobalOp.MIN, GlobalOp.MAX, GlobalOp.OVERWRITE}
    return [
        name
        for name, used in ops.items()
        if used <= exact
        or (
            isinstance(fields.get(name), ty.PrimType)
            and (fields[name].is_floating() or fields[name].is_boolean())
        )
    ]


def _emit_msg_loop(out: _Emitter, loop: VMsgLoop) -> None:
    held = _held_fields(loop, out.fields)
    if held:
        out.line("if messages:")
        out.indent()
        for name in held:
            out.line(f"H_{name} = F_{name}[vid]")
    outer, out.held = out.held, out.held | frozenset(held)
    out.line("for _m in messages:")
    out.indent()
    out.line(f"if _m[0] == {loop.tag}:")
    out.indent()
    if loop.body:
        for s in loop.body:
            emit_stmt(out, s)
    else:
        out.line("pass")
    out.dedent()
    out.dedent()
    out.held = outer
    if held:
        for name in held:
            out.line(f"F_{name}[vid] = H_{name}")
        out.dedent()


def _emit_send_nbrs(out: _Emitter, stmt: VSendNbrs) -> None:
    per_edge = any(_contains_edge_prop(p) for p in stmt.payload)
    payload = ", ".join(out.expr(p) for p in stmt.payload)
    msg = f"({stmt.tag}, {payload})" if payload else f"({stmt.tag},)"
    # The payload is evaluated only when there is at least one neighbor:
    # flipped loops may divide by the sender's own degree (e.g. PageRank),
    # which is undefined — and never needed — on sink vertices.
    if per_edge:
        if stmt.direction == "in":
            raise ValueError("edge properties are unavailable on in-direction sends")
        out.line("_lo, _hi = OUT_OFF[vid], OUT_OFF[vid + 1]")
        out.line("if _lo != _hi:")
        out.indent()
        out.line(f"ctx.send_each(OUT_TGT[_lo:_hi], [{msg} for _ei in range(_lo, _hi)])")
        out.dedent()
        return
    if stmt.direction == "in":
        out.line("if F__in_nbrs[vid]:")
    else:
        out.line("if OUT_OFF[vid] != OUT_OFF[vid + 1]:")
    out.indent()
    if stmt is out.deferred:  # one send_nbrs_rows after the loop (_emit_phase_loop)
        out.line("S_vids.append(vid)")
        out.line(f"S_msgs.append({msg})")
    elif stmt.direction == "in":
        # Bulk send: typed backends stage one packed record per block.
        out.line(f"ctx.send_list(F__in_nbrs[vid], {msg})")
    else:
        out.line(f"ctx.send_nbrs(vid, {msg})")
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
    messages are ``slots[vid]``), and returns how many it iterated.  The
    body calls the engine as little as it can:

    * a phase's global puts collect per global in the loop, one vids list
      per block of puts, and are made once after it,
      ``ctx.put_global_bulk``;
    * a phase whose one send is a neighbour send outside any message loop
      collects its rows and sends them after the loop in one
      ``ctx.send_nbrs_rows`` — in the loop's ascending order, so staged as
      the per-vertex calls would be; any other send is one call per vertex
      (per edge block for an edge-property payload);
    * a message loop folds each field it can hold in a local and stores it
      once (``_held_fields``).

    Adjacent ``if``s on one condition are one block (``_merge_ifs``).
    """
    out = _Emitter(ir.vertex_fields)
    out.line(f"# Generated Pregel vertex program for '{ir.name}'.")
    for phase in ir.phases.values():
        _emit_phase_loop(out, phase)
    table = ", ".join(f"{pid}: _loop_{pid}" for pid in sorted(ir.phases))
    out.line("")
    out.line(f"PHASE_LOOPS = {{{table}}}")
    return out.text()


def _reads(e: VExpr):
    """``(kind, name)`` of every field and local ``e`` reads."""
    if isinstance(e, (Field, Local)):
        yield type(e), e.name
    for attr in ("lhs", "rhs", "operand", "cond", "then", "other"):
        child = getattr(e, attr, None)
        if isinstance(child, VExpr):
            yield from _reads(child)


def _writes(stmts: list[VStmt]):
    """``(kind, name)`` of every field and local ``stmts`` write."""
    for s in walk_stmts(stmts):
        if isinstance(s, (VFieldAssign, VFieldReduce)):
            yield Field, s.name
        elif isinstance(s, (VLocal, VAssignLocal)):
            yield Local, s.name


def _merge_ifs(stmts: list[VStmt]) -> list[VStmt]:
    """``stmts`` with each ``if`` that follows one on the same condition
    folded into it, at every depth — when the first one's branches write
    nothing the condition reads, so it evaluates the same twice.  The IR
    is left as it is."""
    merged: list[VStmt] = []
    for stmt in stmts:
        if isinstance(stmt, VIf):
            prev = merged[-1] if merged else None
            if (
                isinstance(prev, VIf)
                and prev.cond == stmt.cond
                and not set(_writes(prev.then + prev.other)) & set(_reads(stmt.cond))
            ):
                merged.pop()
                stmt = VIf(prev.cond, prev.then + stmt.then, prev.other + stmt.other)
            stmt = VIf(stmt.cond, _merge_ifs(stmt.then), _merge_ifs(stmt.other))
        elif isinstance(stmt, VMsgLoop):
            stmt = VMsgLoop(stmt.tag, _merge_ifs(stmt.body))
        merged.append(stmt)
    return merged


def _blocks(stmts: list[VStmt]):
    """``stmts`` and every statement list nested in them."""
    yield stmts
    for s in stmts:
        if isinstance(s, VIf):
            yield from _blocks(s.then)
            yield from _blocks(s.other)
        elif isinstance(s, VMsgLoop):
            yield from _blocks(s.body)


def _put_vids(top: list[list[VStmt]]) -> dict[str, str]:
    """Per global put to in the blocks under ``top``, the list its putting
    vertices collect in: its own, but the puts of one block to globals put
    to nowhere else share the first one's, which it appends to once."""
    count = Counter(
        s.name for block in top for s in walk_stmts(block) if isinstance(s, VGlobalPut)
    )
    vids_of: dict[str, str] = {}
    for block in (b for stmts in top for b in _blocks(stmts)):
        shared = None
        for s in block:
            if isinstance(s, VGlobalPut):
                single = count[s.name] == 1
                vids_of[s.name] = (single and shared) or f"P_{s.name}_vids"
                if single:
                    shared = vids_of[s.name]
    return vids_of


def _deferred_send(stmts: list[VStmt]) -> VSendNbrs | None:
    """The send ``stmts`` make after the loop instead of per vertex: their
    only send, when it is a neighbour send of one payload outside any
    message loop."""
    sends = [s for s in walk_stmts(stmts) if isinstance(s, (VSendNbrs, VSendTo))]
    if len(sends) != 1 or not isinstance(sends[0], VSendNbrs):
        return None
    send = sends[0]
    if any(_contains_edge_prop(p) for p in send.payload):
        return None
    looped = (
        s for loop in walk_stmts(stmts) if isinstance(loop, VMsgLoop) for s in walk_stmts(loop.body)
    )
    return None if any(s is send for s in looped) else send


def _emit_phase_loop(out: _Emitter, phase) -> None:
    pid = phase.phase_id
    receive, compute = _merge_ifs(phase.receive), _merge_ifs(phase.compute)
    out.put_vids = _put_vids([receive, compute])
    out.deferred = _deferred_send(receive + compute)
    out.line("")
    out.line(f"def _loop_{pid}(ctx, active, slots):")
    out.indent()
    out.line(f"# {phase.label}")
    for name in sorted(phase_global_reads(phase)):
        out.line(f"B_{name} = B[{name!r}]")
    puts = {
        stmt.name: stmt.op
        for stmt in walk_stmts(receive + compute)
        if isinstance(stmt, VGlobalPut)
    }
    for name in puts:
        vids = out.put_vids[name]
        if vids == f"P_{name}_vids":
            out.line(f"{vids}, P_{name}_vals = [], []")
        else:
            out.line(f"P_{name}_vals = []")
    if out.deferred is not None:
        out.line("S_vids, S_msgs = [], []")
    out.line("_n = 0")
    out.line("for _n, vid in enumerate(active, 1):")
    out.indent()
    out.line("ctx._current_vertex = vid")
    out.line("messages = slots[vid]")
    for stmt in receive:
        emit_stmt(out, stmt)
    if phase.filter is not None:
        out.line(f"if not ({out.expr(phase.filter)}):")
        out.indent()
        out.line("continue")
        out.dedent()
    for stmt in compute:
        emit_stmt(out, stmt)
    out.dedent()
    for name, op in puts.items():
        vids = out.put_vids[name]
        out.line(f"if {vids}:")
        out.line(f"    ctx.put_global_bulk({name!r}, OP_{op.name}, {vids}, P_{name}_vals)")
    if out.deferred is not None:
        rows = ", F__in_nbrs" if out.deferred.direction == "in" else ""
        out.line("if S_vids:")
        out.line(f"    ctx.send_nbrs_rows(S_vids, S_msgs{rows})")
    out.line("return _n")
    out.dedent()
    out.put_vids, out.deferred = {}, None


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
        backend: str = "sim",
        use_combiners: bool = False,
        **engine_opts,
    ) -> tuple[PregelEngine, dict[str, list], GeneratedMaster]:
        """Instantiate an engine for this program.

        ``backend`` names the engine class (``"sim"``, ``"columnar"`` or
        ``"mp"``, :func:`~repro.pregel.backend.get_backend`): how property
        columns are stored, how staged messages are represented, and which
        superstep body runs.  All backends are parity-identical;
        compositions a backend refuses raise
        :class:`~repro.pregel.backend.BackendUnsupported`.  ``engine_opts``
        (``scheduling``, ``num_workers``, ``ft`` …) pass through to the
        engine's constructor, which owns their defaults.
        """
        engine_cls = get_backend(backend)
        args = dict(args or {})
        if use_combiners and "combiners" not in engine_opts:
            from ..translate.combiner import infer_combiners

            engine_opts["combiners"] = infer_combiners(self.ir)
        for name, param in ((p.name, p) for p in self.ir.params):
            if isinstance(param.gm_type, ty.EdgePropType) and name not in graph.edge_props:
                raise ValueError(f"graph is missing edge property '{name}'")
        fields = engine_cls.build_columns(self.schema, self._build_fields(graph, args))
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

        engine = engine_cls(
            graph,
            vertex_compute=env["PHASE_LOOPS"],
            master_compute=master.compute,
            message_size=message_size,
            schema=self.schema,
            **engine_opts,
        )
        env["B"] = engine.globals.broadcast
        engine.bind_program(fields, self._array_code)
        if engine.ft is not None:
            # Checkpoints must cover everything a worker crash can destroy:
            # the vertex property columns and the master's state.
            from ..pregel.ft import ColumnState

            engine.ft.register(ColumnState(fields))
            engine.ft.register(master)
        return engine, fields, master

    def _array_code(self, columns: dict, engine, decisions: list | None = None):
        """This program's bulk receive handlers and phase kernels over
        ``columns``, compiled against ``engine`` (``codegen.vectorize``,
        imported by the slab engines only)."""
        from .vectorize import build_array_code

        return build_array_code(self.ir, self.schema, columns, engine, decisions)

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
        outputs = {
            p.name: engine.column_values(fields[p.name])
            for p in self.ir.params
            if p.is_output and p.name in fields
        }
        return RunResult(metrics, outputs, metrics.result, fields)
