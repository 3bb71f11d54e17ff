"""The Pregel intermediate representation the translator targets.

The IR mirrors the structure of the code the paper's compiler generates
(§3.1, §4.3):

* a **master instruction stream** — the state machine.  The master executes
  instructions each superstep until it reaches a :class:`MVPhase` (which names
  the vertex phase that runs in the *same* superstep — GPS runs
  ``master.compute()`` first and broadcasts the state number) or an
  :class:`MHalt`.  ``While``/``If`` over scalars become branches in this
  stream, so condition checks cost no extra superstep, exactly like the
  ``_next_state`` logic in the paper's generated code;
* a set of **vertex phases** — the bodies of the generated
  ``vertex.compute()`` switch: an unguarded *receive* part (message loops)
  followed by a filtered *compute* part (local statements, message sends,
  global-object puts);
* **message layouts** (tag → typed payload fields) and the master/vertex
  field tables, from which both the executable backend and the Java emitter
  derive the message class and the boilerplate (§4.3, Message Class Gen.).

Expressions reuse the Green-Marl operator enums but have their own leaf
nodes, distinguishing vertex fields, master/global scalars, message payload
fields, and builtin calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..lang.ast import BinOp, UnOp
from ..lang import types as ty
from ..pregel.globalmap import GlobalOp

#: Runtime representation of Green-Marl's INF / NIL.
INF_VALUE = float("inf")
NIL_NODE = -1


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class VExpr:
    """Base class of IR expressions (used in both vertex and master code)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Lit(VExpr):
    value: Any


@dataclass(frozen=True, slots=True)
class Inf(VExpr):
    negative: bool = False


@dataclass(frozen=True, slots=True)
class Nil(VExpr):
    pass


@dataclass(frozen=True, slots=True)
class Local(VExpr):
    """A local variable of the current compute function."""

    name: str


@dataclass(frozen=True, slots=True)
class Field(VExpr):
    """A vertex field (vertex context) or a master field (master context)."""

    name: str


@dataclass(frozen=True, slots=True)
class GlobalGet(VExpr):
    """A vertex-side read of a broadcast global object."""

    name: str


@dataclass(frozen=True, slots=True)
class MsgField(VExpr):
    """Payload field ``index`` of the message being processed (receive code)."""

    index: int


@dataclass(frozen=True, slots=True)
class MyId(VExpr):
    """The executing vertex's id (a Node value)."""


@dataclass(frozen=True, slots=True)
class Bin(VExpr):
    op: BinOp
    lhs: VExpr
    rhs: VExpr


@dataclass(frozen=True, slots=True)
class Un(VExpr):
    op: UnOp
    operand: VExpr


@dataclass(frozen=True, slots=True)
class Cond(VExpr):
    cond: VExpr
    then: VExpr
    other: VExpr


@dataclass(frozen=True, slots=True)
class CastTo(VExpr):
    to_type: ty.Type
    operand: VExpr


@dataclass(frozen=True, slots=True)
class Call(VExpr):
    """Builtin calls.

    Vertex context: ``out_degree`` / ``in_degree`` (of this vertex),
    ``edge_prop`` (the property of the out-edge being iterated by the
    enclosing send — args: (prop_name,)).
    Master context: ``num_nodes`` / ``num_edges`` / ``pick_random``.
    """

    name: str
    args: tuple = ()


# ---------------------------------------------------------------------------
# Vertex statements
# ---------------------------------------------------------------------------


class VStmt:
    __slots__ = ()


@dataclass(slots=True)
class VLocal(VStmt):
    """Declare-and-assign a compute-function local."""

    name: str
    expr: VExpr


@dataclass(slots=True)
class VAssignLocal(VStmt):
    name: str
    expr: VExpr


@dataclass(slots=True)
class VFieldAssign(VStmt):
    name: str
    expr: VExpr


@dataclass(slots=True)
class VFieldReduce(VStmt):
    name: str
    op: GlobalOp
    expr: VExpr


@dataclass(slots=True)
class VIf(VStmt):
    cond: VExpr
    then: list[VStmt]
    other: list[VStmt] = field(default_factory=list)


@dataclass(slots=True)
class VSendNbrs(VStmt):
    """Send a message to every out- ('out') or in- ('in') neighbor.

    In-direction sends iterate the ``_in_nbrs`` vertex field built by the
    Incoming-Neighbors prologue (§4.3).  Payload expressions may contain
    ``Call('edge_prop', …)`` only for out-direction sends.
    """

    tag: int
    payload: list[VExpr]
    direction: str = "out"


@dataclass(slots=True)
class VSendTo(VStmt):
    """Random write: send to an arbitrary vertex id (§3.1, Random Writing)."""

    target: VExpr
    tag: int
    payload: list[VExpr]


@dataclass(slots=True)
class VGlobalPut(VStmt):
    name: str
    op: GlobalOp
    expr: VExpr


@dataclass(slots=True)
class VAppendInNbr(VStmt):
    """Prologue-only: append the message's sender id to ``_in_nbrs``."""

    source: VExpr


@dataclass(slots=True)
class VMsgLoop(VStmt):
    """``for (Message m : rcvdMsgs()) if (m.tag == tag) { body }``."""

    tag: int
    body: list[VStmt]


# ---------------------------------------------------------------------------
# Master instructions
# ---------------------------------------------------------------------------


class MInstr:
    __slots__ = ()


@dataclass(slots=True)
class MAssign(MInstr):
    name: str
    expr: VExpr  # master context: Field = master field


@dataclass(slots=True)
class MFinalize(MInstr):
    """Fold the aggregated vertex puts of global ``name`` into the master
    field: ``field = combine(field, agg)`` — the paper's
    ``S = S + Global.get("S").IntVal()``.  No-op when no vertex put occurred.
    """

    name: str
    op: GlobalOp


@dataclass(slots=True)
class MLabel(MInstr):
    label: str


@dataclass(slots=True)
class MJump(MInstr):
    label: str


@dataclass(slots=True)
class MBranch(MInstr):
    cond: VExpr
    on_true: str
    on_false: str


@dataclass(slots=True)
class MVPhase(MInstr):
    """Yield the superstep: broadcast ``_state = phase`` and run that vertex
    phase now; master execution resumes after this instruction next superstep."""

    phase: int


@dataclass(slots=True)
class MHalt(MInstr):
    result: VExpr | None = None


# ---------------------------------------------------------------------------
# Program containers
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class VertexPhase:
    """One case of the generated ``vertex.compute()`` switch."""

    phase_id: int
    label: str
    receive: list[VStmt] = field(default_factory=list)
    filter: VExpr | None = None
    compute: list[VStmt] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.receive and not self.compute

    def sent_tags(self) -> set[int]:
        return {
            stmt.tag
            for stmt in walk_stmts(self.compute + self.receive)
            if isinstance(stmt, (VSendNbrs, VSendTo))
        }

    def received_tags(self) -> set[int]:
        return {s.tag for s in self.receive if isinstance(s, VMsgLoop)}


def walk_stmts(stmts: list[VStmt]):
    """``stmts`` and every statement nested in them, in program order."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, VIf):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.other)
        elif isinstance(stmt, VMsgLoop):
            yield from walk_stmts(stmt.body)


_TYPE_BYTES = {
    ty.Prim.INT: 4,
    ty.Prim.LONG: 8,
    ty.Prim.FLOAT: 4,
    ty.Prim.DOUBLE: 8,
    ty.Prim.BOOL: 1,
}


def type_bytes(t: ty.Type) -> int:
    """Serialized size of one payload field (node ids travel as 4-byte ints)."""
    if isinstance(t, ty.PrimType):
        return _TYPE_BYTES[t.prim]
    if t.is_node() or t.is_edge():
        return 4
    raise ValueError(f"type {t} cannot be a message payload")


@dataclass(slots=True)
class MessageLayout:
    tag: int
    label: str
    fields: list[tuple[str, ty.Type]] = field(default_factory=list)

    def payload_bytes(self, *, tagged: bool) -> int:
        return (1 if tagged else 0) + sum(type_bytes(t) for _, t in self.fields)


@dataclass(slots=True)
class ParamSpec:
    name: str
    gm_type: ty.Type
    is_output: bool


@dataclass(slots=True)
class PregelIR:
    """A complete generated Pregel program."""

    name: str
    master_code: list[MInstr]
    phases: dict[int, VertexPhase]
    vertex_fields: dict[str, ty.Type]
    master_fields: dict[str, ty.Type]
    messages: dict[int, MessageLayout]
    params: list[ParamSpec]
    return_type: ty.Type | None
    needs_in_nbrs: bool = False
    #: Typed storage/wire schema (repro.pregelir.schema.ProgramSchema),
    #: attached at codegen time — after the optimizer has finished mutating
    #: phases and message layouts, so it can never go stale.
    schema: Any = None

    @property
    def tagged(self) -> bool:
        """Whether messages need an explicit type tag (Multiple Communication,
        §3.1): only when more than one message type exists."""
        return len(self.messages) > 1

    def message_size(self, tag: int) -> int:
        return self.messages[tag].payload_bytes(tagged=self.tagged)

    def vertex_phase_count(self) -> int:
        return len(self.phases)

    def describe(self) -> str:
        lines = [f"PregelIR {self.name}:"]
        lines.append(
            f"  {len(self.phases)} vertex phases, {len(self.messages)} message "
            f"type(s), {len(self.master_fields)} master fields, "
            f"{len(self.vertex_fields)} vertex fields"
        )
        for phase in self.phases.values():
            parts = []
            if phase.receive:
                parts.append(f"recv{sorted(phase.received_tags())}")
            if phase.compute:
                parts.append("compute")
            sent = phase.sent_tags() - set()
            if sent:
                parts.append(f"send{sorted(sent)}")
            lines.append(f"    phase {phase.phase_id} ({phase.label}): {', '.join(parts) or 'empty'}")
        return "\n".join(lines)
