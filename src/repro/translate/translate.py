"""Translation of Pregel-canonical Green-Marl into Pregel IR (§3.1).

Implements every direct translation rule of the paper:

* **State Machine Construction** — sequential code becomes a master
  instruction stream; each vertex-parallel loop becomes a vertex phase,
  yielded to by an :class:`MVPhase` instruction.  While/If over scalars are
  branches in the master stream (the ``_next_state`` logic of the generated
  GPS code), so they cost no extra timesteps.
* **Vertex and Global Object Construction** — procedure-level scalars become
  master fields; vertex reads of them go through the broadcast global-objects
  map; vertex-side reductions into them become ``Global.put`` with a
  reduction object, folded into the master field by an :class:`MFinalize` in
  the following superstep.
* **Neighborhood Communication** — an inner loop writing its iterator's
  properties becomes a send in its outer phase plus a receive phase
  immediately after.  Message payloads are inferred by dataflow: the maximal
  subexpressions evaluable at the sender travel in the message (deduplicated
  structurally); subexpressions evaluable at the receiver (its own fields,
  broadcast globals, literals) are recomputed there.
* **Multiple Communication** — every send site gets its own message tag;
  payload layouts are recorded per tag for the message class generator.
* **Random Writing** — property writes through a node variable become
  ``sendToNode`` messages applied at the receiver.
* **Edge Properties** — ``t.ToEdge().prop`` reads become per-edge payload
  fields of the enclosing out-neighbor send.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.ast import (
    Assign,
    Binary,
    BinOp,
    Block,
    BoolLit,
    Cast,
    DeferredAssign,
    Expr,
    FloatLit,
    Foreach,
    Ident,
    If,
    InfLit,
    IntLit,
    IterKind,
    MethodCall,
    NilLit,
    Procedure,
    PropAccess,
    ReduceAssign,
    ReduceOp,
    Return,
    Stmt,
    Ternary,
    Unary,
    VarDecl,
    While,
)
from ..lang import types as ty
from ..lang.errors import TranslationError
from ..pregel.globalmap import GlobalOp
from ..transform.pipeline import CanonicalProgram, RuleLog
from ..transform.rewriter import substitute_ident
from ..pregelir import ir
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
    MInstr,
    MJump,
    MLabel,
    MsgField,
    MVPhase,
    MyId,
    MessageLayout,
    Nil,
    ParamSpec,
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
    VertexPhase,
)

_REDUCE_TO_GLOBAL: dict[ReduceOp, GlobalOp] = {
    ReduceOp.SUM: GlobalOp.SUM,
    ReduceOp.PRODUCT: GlobalOp.PRODUCT,
    ReduceOp.MIN: GlobalOp.MIN,
    ReduceOp.MAX: GlobalOp.MAX,
    ReduceOp.ALL: GlobalOp.AND,
    ReduceOp.ANY: GlobalOp.OR,
}

#: Who can evaluate a leaf access during neighborhood communication.
_SENDER, _RECEIVER, _BOTH = "sender", "receiver", "both"


@dataclass
class _VertexEnv:
    """Name environment while translating one vertex-parallel loop."""

    outer_iter: str
    locals: set[str] = field(default_factory=set)
    inner_iter: str | None = None


class Translator:
    def __init__(self, canonical: CanonicalProgram):
        self.proc: Procedure = canonical.procedure
        self.check = canonical.check
        self.rules: RuleLog = canonical.rules
        self.graph_name = canonical.check.graph_name

        self.mcode: list[MInstr] = []
        self.phases: dict[int, VertexPhase] = {}
        self.messages: dict[int, MessageLayout] = {}
        self.vertex_fields: dict[str, ty.Type] = {}
        self.master_fields: dict[str, ty.Type] = {}
        self.params: list[ParamSpec] = []
        self.needs_in_nbrs = False
        self._label_count = 0
        self._phase_count = 0

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def translate(self) -> PregelIR:
        self.rules.mark("State Machine Const.")
        self.rules.mark("Message Class Gen.")
        self._collect_fields()
        self._seq_block(self.proc.body)
        self.mcode.append(MHalt(None))
        if self.needs_in_nbrs:
            self._insert_in_nbrs_prologue()
            self.rules.mark("Incoming Neighbors")
        self._check_put_consistency()
        if self.master_fields:
            self.rules.mark("Global Object")
        if len(self.messages) > 1:
            self.rules.mark("Multiple Comm.")
        return PregelIR(
            name=self.proc.name,
            master_code=self.mcode,
            phases=self.phases,
            vertex_fields=self.vertex_fields,
            master_fields=self.master_fields,
            messages=self.messages,
            params=self.params,
            return_type=self.proc.return_type,
            needs_in_nbrs=self.needs_in_nbrs,
        )

    def _check_put_consistency(self) -> None:
        """Each global object holds exactly one reduction per superstep: two
        different operators reducing into the same scalar within one vertex
        phase cannot be expressed in Pregel (and is nondeterministic in
        Green-Marl's parallel semantics)."""
        for phase in self.phases.values():
            ops: dict[str, GlobalOp] = {}
            for stmt in walk_stmts(phase.receive + phase.compute):
                if isinstance(stmt, VGlobalPut):
                    seen = ops.get(stmt.name)
                    if seen is not None and seen is not stmt.op:
                        raise TranslationError(
                            f"scalar '{stmt.name}' is reduced with both "
                            f"'{seen.value}' and '{stmt.op.value}' in the same "
                            "vertex-parallel phase; a global object supports "
                            "one reduction at a time"
                        )
                    ops[stmt.name] = stmt.op

    # ------------------------------------------------------------------
    # Field collection
    # ------------------------------------------------------------------

    def _collect_fields(self) -> None:
        for param in self.proc.params:
            ptype = param.param_type
            self.params.append(ParamSpec(param.name, ptype, param.is_output))
            if ptype.is_graph():
                continue
            if isinstance(ptype, ty.NodePropType):
                self._add_vertex_field(param.name, ptype.elem)
            elif isinstance(ptype, ty.EdgePropType):
                pass  # edge properties live on the graph's out-edge arrays
            else:
                self._add_master_field(param.name, ptype)
        self._collect_block_fields(self.proc.body, sequential=True)

    def _collect_block_fields(self, block: Block, *, sequential: bool) -> None:
        for stmt in block.stmts:
            if isinstance(stmt, VarDecl):
                if isinstance(stmt.decl_type, ty.NodePropType):
                    for name in stmt.names:
                        self._add_vertex_field(name, stmt.decl_type.elem)
                elif isinstance(stmt.decl_type, ty.EdgePropType):
                    raise TranslationError(
                        "local edge-property declarations are not supported",
                        stmt.span,
                    )
                elif sequential:
                    for name in stmt.names:
                        self._add_master_field(name, stmt.decl_type)
            elif isinstance(stmt, If):
                self._collect_block_fields(stmt.then, sequential=sequential)
                if stmt.other is not None:
                    self._collect_block_fields(stmt.other, sequential=sequential)
            elif isinstance(stmt, While):
                self._collect_block_fields(stmt.body, sequential=sequential)
            elif isinstance(stmt, Foreach):
                pass  # loop-body declarations become compute-function locals
            elif isinstance(stmt, Block):
                self._collect_block_fields(stmt, sequential=sequential)

    def _add_vertex_field(self, name: str, elem: ty.Type) -> None:
        existing = self.vertex_fields.get(name)
        if existing is not None and existing != elem:
            raise TranslationError(
                f"vertex field '{name}' declared with conflicting types "
                f"{existing} and {elem}"
            )
        self.vertex_fields[name] = elem

    def _add_master_field(self, name: str, t: ty.Type) -> None:
        existing = self.master_fields.get(name)
        if existing is not None and existing != t:
            raise TranslationError(
                f"master field '{name}' declared with conflicting types "
                f"{existing} and {t}"
            )
        self.master_fields[name] = t

    # ------------------------------------------------------------------
    # Labels / phases / tags
    # ------------------------------------------------------------------

    def _fresh_label(self, hint: str) -> str:
        self._label_count += 1
        return f"{hint}_{self._label_count}"

    def _new_phase(self, label: str) -> VertexPhase:
        phase = VertexPhase(self._phase_count, label)
        self.phases[self._phase_count] = phase
        self._phase_count += 1
        return phase

    def _new_tag(self, label: str) -> MessageLayout:
        tag = len(self.messages)
        layout = MessageLayout(tag, label)
        self.messages[tag] = layout
        return layout

    # ------------------------------------------------------------------
    # Sequential (master) translation
    # ------------------------------------------------------------------

    def _seq_block(self, block: Block) -> None:
        for stmt in block.stmts:
            self._seq_stmt(stmt)

    def _seq_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, VarDecl):
            if stmt.decl_type.is_property():
                return
            if stmt.init is not None:
                for name in stmt.names:
                    self.mcode.append(MAssign(name, self._mexpr(stmt.init)))
        elif isinstance(stmt, Assign):
            target = stmt.target
            if not isinstance(target, Ident):
                raise TranslationError(
                    "property write in sequential phase (not canonical)", stmt.span
                )
            self.mcode.append(MAssign(target.name, self._mexpr(stmt.expr)))
        elif isinstance(stmt, ReduceAssign):
            target = stmt.target
            assert isinstance(target, Ident)
            self.mcode.append(
                MAssign(
                    target.name,
                    _apply_reduce(stmt.op, Field(target.name), self._mexpr(stmt.expr)),
                )
            )
        elif isinstance(stmt, If):
            self._seq_if(stmt)
        elif isinstance(stmt, While):
            self._seq_while(stmt)
        elif isinstance(stmt, Return):
            result = self._mexpr(stmt.expr) if stmt.expr is not None else None
            self.mcode.append(MHalt(result))
        elif isinstance(stmt, Foreach):
            self._parallel_loop(stmt)
        elif isinstance(stmt, Block):
            self._seq_block(stmt)
        else:
            raise TranslationError(
                f"cannot translate {type(stmt).__name__} in a sequential phase",
                stmt.span,
            )

    def _seq_if(self, stmt: If) -> None:
        l_then = self._fresh_label("then")
        l_else = self._fresh_label("else")
        l_end = self._fresh_label("endif")
        cond = self._mexpr(stmt.cond)
        self.mcode.append(MBranch(cond, l_then, l_else if stmt.other else l_end))
        self.mcode.append(MLabel(l_then))
        self._seq_block(stmt.then)
        self.mcode.append(MJump(l_end))
        if stmt.other is not None:
            self.mcode.append(MLabel(l_else))
            self._seq_block(stmt.other)
            self.mcode.append(MJump(l_end))
        self.mcode.append(MLabel(l_end))

    def _seq_while(self, stmt: While) -> None:
        l_head = self._fresh_label("while")
        l_body = self._fresh_label("body")
        l_exit = self._fresh_label("endwhile")
        if stmt.do_while:
            self.mcode.append(MLabel(l_body))
            self._seq_block(stmt.body)
            self.mcode.append(MBranch(self._mexpr(stmt.cond), l_body, l_exit))
        else:
            self.mcode.append(MLabel(l_head))
            self.mcode.append(MBranch(self._mexpr(stmt.cond), l_body, l_exit))
            self.mcode.append(MLabel(l_body))
            self._seq_block(stmt.body)
            self.mcode.append(MJump(l_head))
        self.mcode.append(MLabel(l_exit))

    # ------------------------------------------------------------------
    # Vertex-parallel translation
    # ------------------------------------------------------------------

    def _parallel_loop(self, loop: Foreach) -> None:
        env = _VertexEnv(outer_iter=loop.iterator)
        phase = self._new_phase(f"par@{loop.span.line}")
        recv: list[VStmt] = []
        self._set_recv(recv)
        finalizes: list[MFinalize] = []
        recv_finalizes: list[MFinalize] = []
        deferred: list[VStmt] = []
        compute = self._vertex_block(
            loop, loop.body, env, recv, finalizes, recv_finalizes, deferred
        )
        compute.extend(deferred)
        phase.filter = self._vexpr(loop.filter, env) if loop.filter is not None else None
        phase.compute = compute
        self.mcode.append(MVPhase(phase.phase_id))
        self.mcode.extend(_dedupe_finalizes(finalizes))
        if recv:
            recv_phase = self._new_phase(f"recv@{loop.span.line}")
            recv_phase.receive = recv
            self.mcode.append(MVPhase(recv_phase.phase_id))
            self.mcode.extend(_dedupe_finalizes(recv_finalizes))

    def _vertex_block(
        self,
        loop: Foreach,
        block: Block,
        env: _VertexEnv,
        recv: list[VStmt],
        finalizes: list[MFinalize],
        recv_finalizes: list[MFinalize],
        deferred: list[VStmt],
    ) -> list[VStmt]:
        out: list[VStmt] = []
        for stmt in block.stmts:
            if isinstance(stmt, VarDecl):
                if stmt.init is None:
                    raise TranslationError(
                        "uninitialized local in a parallel loop", stmt.span
                    )
                for name in stmt.names:
                    env.locals.add(name)
                    out.append(VLocal(name, self._vexpr(stmt.init, env)))
            elif isinstance(stmt, Assign):
                out.extend(self._vertex_assign(loop, stmt, env, recv))
            elif isinstance(stmt, ReduceAssign):
                out.extend(
                    self._vertex_reduce_assign(loop, stmt, env, recv, finalizes)
                )
            elif isinstance(stmt, DeferredAssign):
                # BSP makes cross-vertex reads see pre-superstep values anyway;
                # to preserve *intra*-vertex read-after-deferred-write order we
                # evaluate now and store at the end of the compute part.
                target = stmt.target
                assert isinstance(target, PropAccess)
                self._require_own_prop(target, env, stmt)
                tmp = f"_def_{len(deferred)}"
                out.append(VLocal(tmp, self._vexpr(stmt.expr, env)))
                deferred.append(VFieldAssign(target.prop, Local(tmp)))
            elif isinstance(stmt, If):
                then = self._vertex_block(
                    loop, stmt.then, env, recv, finalizes, recv_finalizes, deferred
                )
                other = (
                    self._vertex_block(
                        loop, stmt.other, env, recv, finalizes, recv_finalizes, deferred
                    )
                    if stmt.other is not None
                    else []
                )
                out.append(VIf(self._vexpr(stmt.cond, env), then, other))
            elif isinstance(stmt, Foreach):
                out.extend(
                    self._neighborhood_comm(loop, stmt, env, recv, recv_finalizes)
                )
            elif isinstance(stmt, Block):
                out.extend(
                    self._vertex_block(
                        loop, stmt, env, recv, finalizes, recv_finalizes, deferred
                    )
                )
            else:
                raise TranslationError(
                    f"cannot translate {type(stmt).__name__} in a vertex phase",
                    stmt.span,
                )
        return out

    def _require_own_prop(self, target: PropAccess, env: _VertexEnv, stmt: Stmt) -> None:
        if not (
            isinstance(target.target, Ident) and target.target.name == env.outer_iter
        ):
            raise TranslationError(
                "deferred assignment target must be the iterating vertex",
                stmt.span,
            )

    def _vertex_assign(
        self, loop: Foreach, stmt: Assign, env: _VertexEnv, recv: list[VStmt]
    ) -> list[VStmt]:
        target = stmt.target
        if isinstance(target, Ident):
            if target.name in env.locals:
                return [VAssignLocal(target.name, self._vexpr(stmt.expr, env))]
            raise TranslationError(
                f"plain assignment to global scalar '{target.name}' in a "
                "parallel loop is a race",
                stmt.span,
            )
        assert isinstance(target, PropAccess) and isinstance(target.target, Ident)
        owner = target.target.name
        if owner == env.outer_iter:
            return [VFieldAssign(target.prop, self._vexpr(stmt.expr, env))]
        # Random write (§3.1): overwrite another vertex's property.
        return self._random_write(loop, stmt, target, GlobalOp.OVERWRITE, env)

    def _vertex_reduce_assign(
        self,
        loop: Foreach,
        stmt: ReduceAssign,
        env: _VertexEnv,
        recv: list[VStmt],
        finalizes: list[MFinalize],
    ) -> list[VStmt]:
        target = stmt.target
        op = _REDUCE_TO_GLOBAL[stmt.op]
        if isinstance(target, Ident):
            if target.name in env.locals:
                return [
                    VAssignLocal(
                        target.name,
                        _apply_reduce(stmt.op, Local(target.name), self._vexpr(stmt.expr, env)),
                    )
                ]
            if target.name not in self.master_fields:
                raise TranslationError(
                    f"reduction into unknown scalar '{target.name}'", stmt.span
                )
            finalizes.append(MFinalize(target.name, op))
            return [VGlobalPut(target.name, op, self._vexpr(stmt.expr, env))]
        assert isinstance(target, PropAccess) and isinstance(target.target, Ident)
        owner = target.target.name
        if owner == env.outer_iter:
            return [VFieldReduce(target.prop, op, self._vexpr(stmt.expr, env))]
        return self._random_write(loop, stmt, target, op, env)

    # -- random writing -----------------------------------------------------

    def _random_write(
        self,
        loop: Foreach,
        stmt: Stmt,
        target: PropAccess,
        op: GlobalOp,
        env: _VertexEnv,
    ) -> list[VStmt]:
        assert isinstance(stmt, (Assign, ReduceAssign))
        self.rules.mark("Random Writing")
        owner = target.target
        assert isinstance(owner, Ident)
        layout = self._new_tag(f"randw_{target.prop}@{stmt.span.line}")
        splitter = _PayloadSplitter(self, env, receiver_iter=None, layout=layout)
        recv_expr = splitter.split(stmt.expr)
        if isinstance(stmt, ReduceAssign):
            apply: VStmt = VFieldReduce(target.prop, op, recv_expr)
        else:
            apply = VFieldAssign(target.prop, recv_expr)
        self._attach_recv(loop, VMsgLoop(layout.tag, [apply]))
        return [VSendTo(self._vexpr(owner, env), layout.tag, splitter.payload_exprs)]

    def _attach_recv(self, loop: Foreach, msg_loop: VMsgLoop) -> None:
        # The receive statements accumulate on the list passed through the
        # translation of this loop; stored on the instance for simplicity.
        self._current_recv.append(msg_loop)

    # -- neighborhood communication ----------------------------------------------

    def _neighborhood_comm(
        self,
        loop: Foreach,
        inner: Foreach,
        env: _VertexEnv,
        recv: list[VStmt],
        recv_finalizes: list[MFinalize],
    ) -> list[VStmt]:
        direction = "out" if inner.source.kind is IterKind.NBRS else "in"
        if direction == "in":
            self.needs_in_nbrs = True
        layout = self._new_tag(f"nbr@{inner.span.line}")

        # Split the filter into sender-side and receiver-side conjuncts.
        sender_conjuncts: list[Expr] = []
        receiver_conjuncts: list[Expr] = []
        for conjunct in _conjuncts(inner.filter):
            if _mentions_var(conjunct, inner.iterator):
                receiver_conjuncts.append(conjunct)
            else:
                sender_conjuncts.append(conjunct)

        # Inline inner-body locals (e.g. ``Edge e = s.ToEdge();``).
        body_stmts = _inline_inner_locals(inner.body, inner.span)

        splitter = _PayloadSplitter(self, env, receiver_iter=inner.iterator, layout=layout)
        recv_env = _VertexEnv(outer_iter=inner.iterator)

        apply_stmts: list[VStmt] = []
        for stmt in body_stmts:
            apply_stmts.append(
                self._receive_apply(stmt, inner, splitter, recv_env, recv_finalizes)
            )
        guard_exprs = [splitter.split(c) for c in receiver_conjuncts]
        if guard_exprs:
            guard: VExpr = guard_exprs[0]
            for g in guard_exprs[1:]:
                guard = Bin(BinOp.AND, guard, g)
            apply_stmts = [VIf(guard, apply_stmts, [])]
        self._current_recv.append(VMsgLoop(layout.tag, apply_stmts))

        uses_edge_props = splitter.uses_edge_props
        if uses_edge_props:
            self.rules.mark("Edge Property")
            if direction == "in":
                raise TranslationError(
                    "edge properties cannot be read when sending to incoming "
                    "neighbors (§3.1, Edge Properties)",
                    inner.span,
                )
        send: VStmt = VSendNbrs(layout.tag, splitter.payload_exprs, direction)
        if sender_conjuncts:
            cond = self._vexpr(ast.land(*sender_conjuncts), env)
            send = VIf(cond, [send], [])
        return [send]

    def _receive_apply(
        self,
        stmt: Stmt,
        inner: Foreach,
        splitter: "_PayloadSplitter",
        recv_env: _VertexEnv,
        recv_finalizes: list[MFinalize],
    ) -> VStmt:
        if isinstance(stmt, (Assign, ReduceAssign)):
            target = stmt.target
            value = splitter.split(stmt.expr)
            if isinstance(target, Ident):
                # Global reduction performed at the receiver (e.g. the BFS
                # expansion's ``_fin &= False``).
                if not isinstance(stmt, ReduceAssign):
                    raise TranslationError(
                        "plain scalar assignment inside an inner loop", stmt.span
                    )
                op = _REDUCE_TO_GLOBAL[stmt.op]
                recv_finalizes.append(MFinalize(target.name, op))
                return VGlobalPut(target.name, op, value)
            assert isinstance(target, PropAccess) and isinstance(target.target, Ident)
            if target.target.name != inner.iterator:
                raise TranslationError(
                    "inner-loop write must target the inner iterator "
                    "(not canonical)",
                    stmt.span,
                )
            if isinstance(stmt, ReduceAssign):
                return VFieldReduce(
                    target.prop, _REDUCE_TO_GLOBAL[stmt.op], value
                )
            return VFieldAssign(target.prop, value)
        if isinstance(stmt, If):
            cond = splitter.split(stmt.cond)
            then = [
                self._receive_apply(s, inner, splitter, recv_env, recv_finalizes)
                for s in stmt.then.stmts
            ]
            other = (
                [
                    self._receive_apply(s, inner, splitter, recv_env, recv_finalizes)
                    for s in stmt.other.stmts
                ]
                if stmt.other is not None
                else []
            )
            return VIf(cond, then, other)
        raise TranslationError(
            f"cannot translate {type(stmt).__name__} inside an inner loop",
            stmt.span,
        )

    # ------------------------------------------------------------------
    # Incoming-neighbors prologue (§4.3)
    # ------------------------------------------------------------------

    def _insert_in_nbrs_prologue(self) -> None:
        layout = self._new_tag("in_nbrs_id")
        layout.fields.append(("sender_id", ty.NODE))
        send_phase = self._new_phase("in_nbrs_send")
        send_phase.compute = [VSendNbrs(layout.tag, [MyId()], "out")]
        build_phase = self._new_phase("in_nbrs_build")
        build_phase.receive = [
            VMsgLoop(layout.tag, [VAppendInNbr(MsgField(0))])
        ]
        self.mcode[:0] = [MVPhase(send_phase.phase_id), MVPhase(build_phase.phase_id)]

    # ------------------------------------------------------------------
    # Expression conversion
    # ------------------------------------------------------------------

    def _mexpr(self, expr: Expr) -> VExpr:
        """Convert an expression in master (sequential) context."""
        return self._convert(expr, env=None)

    def _vexpr(self, expr: Expr, env: _VertexEnv) -> VExpr:
        """Convert an expression in vertex context."""
        return self._convert(expr, env=env)

    def _convert(self, expr: Expr, env: _VertexEnv | None) -> VExpr:
        if isinstance(expr, IntLit):
            return Lit(expr.value)
        if isinstance(expr, FloatLit):
            return Lit(expr.value)
        if isinstance(expr, BoolLit):
            return Lit(expr.value)
        if isinstance(expr, NilLit):
            return Nil()
        if isinstance(expr, InfLit):
            return Inf(expr.negative)
        if isinstance(expr, Ident):
            return self._convert_ident(expr, env)
        if isinstance(expr, PropAccess):
            return self._convert_prop(expr, env)
        if isinstance(expr, MethodCall):
            return self._convert_method(expr, env)
        if isinstance(expr, Unary):
            return Un(expr.op, self._convert(expr.operand, env))
        if isinstance(expr, Binary):
            return Bin(expr.op, self._convert(expr.lhs, env), self._convert(expr.rhs, env))
        if isinstance(expr, Ternary):
            return Cond(
                self._convert(expr.cond, env),
                self._convert(expr.then, env),
                self._convert(expr.other, env),
            )
        if isinstance(expr, Cast):
            return CastTo(expr.to_type, self._convert(expr.operand, env))
        raise TranslationError(
            f"cannot translate expression {type(expr).__name__}", expr.span
        )

    def _convert_ident(self, expr: Ident, env: _VertexEnv | None) -> VExpr:
        name = expr.name
        if env is None:
            if name == self.graph_name:
                raise TranslationError("graph value used as an expression", expr.span)
            if name in self.master_fields:
                return Field(name)
            raise TranslationError(f"unknown master-side name '{name}'", expr.span)
        if name == env.outer_iter:
            return MyId()
        if name in env.locals:
            return Local(name)
        if name in self.master_fields:
            return GlobalGet(name)
        raise TranslationError(f"unknown vertex-side name '{name}'", expr.span)

    def _convert_prop(self, expr: PropAccess, env: _VertexEnv | None) -> VExpr:
        if isinstance(expr.target, MethodCall) and expr.target.name == "ToEdge":
            return Call("edge_prop", (expr.prop,))
        if env is None:
            raise TranslationError(
                "property access in sequential phase (not canonical)", expr.span
            )
        if isinstance(expr.target, Ident) and expr.target.name == env.outer_iter:
            return Field(expr.prop)
        raise TranslationError(
            f"cannot read property of '{ast.pretty(expr.target) if False else expr.prop}' here",
            expr.span,
        )

    def _convert_method(self, expr: MethodCall, env: _VertexEnv | None) -> VExpr:
        target = expr.target
        if isinstance(target, Ident) and target.name == self.graph_name:
            mapping = {
                "NumNodes": "num_nodes",
                "NumEdges": "num_edges",
                "PickRandom": "pick_random",
            }
            if expr.name in mapping:
                if expr.name == "PickRandom" and env is not None:
                    raise TranslationError(
                        "PickRandom inside a parallel loop is not supported",
                        expr.span,
                    )
                return Call(mapping[expr.name])
            raise TranslationError(f"unknown graph method '{expr.name}'", expr.span)
        if env is not None and isinstance(target, Ident) and target.name == env.outer_iter:
            mapping = {
                "Degree": "out_degree",
                "OutDegree": "out_degree",
                "NumNbrs": "out_degree",
                "InDegree": "in_degree",
                "Id": "my_id",
            }
            if expr.name in mapping:
                if expr.name == "Id":
                    return MyId()
                return Call(mapping[expr.name])
        raise TranslationError(
            f"cannot translate method call '{expr.name}' here", expr.span
        )

    # Receive list plumbing: `_parallel_loop` exposes its recv list here so
    # nested helpers can append without threading it through every call.
    @property
    def _current_recv(self) -> list[VStmt]:
        return self.__recv

    def _set_recv(self, recv: list[VStmt]) -> None:
        self.__recv = recv


# ---------------------------------------------------------------------------
# Payload inference
# ---------------------------------------------------------------------------


class _PayloadSplitter:
    """Splits an inner-loop expression into sender payload and receiver code.

    Maximal sender-evaluable subexpressions (touching the sending vertex's
    fields, compute locals, edge properties, or its id) are converted to
    sender-context IR, appended to the message layout (structurally
    deduplicated — "the compiler does not put the same variable multiple
    times in a message"), and replaced by :class:`MsgField` references in the
    receiver expression.  Receiver-evaluable parts (the receiving vertex's own
    fields, broadcast globals, literals) stay as receiver code.
    """

    def __init__(
        self,
        translator: Translator,
        sender_env: _VertexEnv,
        receiver_iter: str | None,
        layout: MessageLayout,
    ):
        self._tr = translator
        self._env = sender_env
        self._receiver = receiver_iter
        self._layout = layout
        self.payload_exprs: list[VExpr] = []
        self._dedupe: dict[VExpr, int] = {}
        self.uses_edge_props = False

    # classification ------------------------------------------------------

    def _leaf_side(self, expr: Expr) -> str:
        """Where can this leaf be evaluated?"""
        env = self._env
        if isinstance(expr, Ident):
            name = expr.name
            if name == env.outer_iter:
                return _SENDER
            if self._receiver is not None and name == self._receiver:
                return _RECEIVER
            if name in env.locals:
                return _SENDER
            if name in self._tr.master_fields:
                return _BOTH
            raise TranslationError(f"unknown name '{name}' in inner loop", expr.span)
        if isinstance(expr, PropAccess):
            if isinstance(expr.target, MethodCall) and expr.target.name == "ToEdge":
                return _SENDER
            assert isinstance(expr.target, Ident)
            owner = expr.target.name
            if owner == env.outer_iter:
                return _SENDER
            if self._receiver is not None and owner == self._receiver:
                return _RECEIVER
            raise TranslationError(
                f"random read of '{owner}.{expr.prop}' in inner loop", expr.span
            )
        if isinstance(expr, MethodCall):
            if expr.name == "ToEdge":
                return _SENDER
            assert isinstance(expr.target, Ident)
            owner = expr.target.name
            if owner == env.outer_iter:
                return _SENDER
            if self._receiver is not None and owner == self._receiver:
                return _RECEIVER
            if owner == self._tr.graph_name:
                return _BOTH
            raise TranslationError(
                f"cannot evaluate '{owner}.{expr.name}()' in inner loop", expr.span
            )
        return _BOTH  # literals

    def _side(self, expr: Expr) -> str:
        """Combined evaluability of a whole subexpression."""
        sides = [self._leaf_side(leaf) for leaf in _leaves(expr)]
        sender_ok = all(s in (_SENDER, _BOTH) for s in sides)
        receiver_ok = all(s in (_RECEIVER, _BOTH) for s in sides)
        if receiver_ok:
            return _RECEIVER if not sender_ok else _BOTH
        if sender_ok:
            return _SENDER
        return "mixed"

    # splitting ----------------------------------------------------------

    def split(self, expr: Expr) -> VExpr:
        side = self._side(expr)
        if side in (_RECEIVER, _BOTH):
            return self._to_receiver(expr)
        if side == _SENDER:
            return self._payload_ref(expr)
        # mixed: recurse into children
        if isinstance(expr, Unary):
            return Un(expr.op, self.split(expr.operand))
        if isinstance(expr, Binary):
            return Bin(expr.op, self.split(expr.lhs), self.split(expr.rhs))
        if isinstance(expr, Ternary):
            return Cond(self.split(expr.cond), self.split(expr.then), self.split(expr.other))
        if isinstance(expr, Cast):
            return CastTo(expr.to_type, self.split(expr.operand))
        raise TranslationError(
            f"cannot split {type(expr).__name__} between sender and receiver",
            expr.span,
        )

    def _payload_ref(self, expr: Expr) -> MsgField:
        sender_vexpr = self._tr._vexpr(expr, self._env)
        if _contains_edge_prop(sender_vexpr):
            self.uses_edge_props = True
        index = self._dedupe.get(sender_vexpr)
        if index is None:
            index = len(self.payload_exprs)
            self.payload_exprs.append(sender_vexpr)
            self._dedupe[sender_vexpr] = index
            field_type = expr.type if expr.type is not None else ty.DOUBLE
            self._layout.fields.append((f"f{index}", field_type))
        return MsgField(index)

    def _to_receiver(self, expr: Expr) -> VExpr:
        recv_env = _VertexEnv(outer_iter=self._receiver or "<none>")
        return self._tr._convert(expr, recv_env)


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _apply_reduce(op: ReduceOp, current: VExpr, value: VExpr) -> VExpr:
    if op is ReduceOp.SUM:
        return Bin(BinOp.ADD, current, value)
    if op is ReduceOp.PRODUCT:
        return Bin(BinOp.MUL, current, value)
    if op is ReduceOp.MIN:
        return Cond(Bin(BinOp.LT, value, current), value, current)
    if op is ReduceOp.MAX:
        return Cond(Bin(BinOp.GT, value, current), value, current)
    if op is ReduceOp.ALL:
        return Bin(BinOp.AND, current, value)
    if op is ReduceOp.ANY:
        return Bin(BinOp.OR, current, value)
    raise TranslationError(f"cannot apply reduction {op}")


def _dedupe_finalizes(finalizes: list[MFinalize]) -> list[MFinalize]:
    seen: set[str] = set()
    out: list[MFinalize] = []
    for fin in finalizes:
        if fin.name not in seen:
            seen.add(fin.name)
            out.append(fin)
    return out


def _conjuncts(expr: Expr | None) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op is BinOp.AND:
        return _conjuncts(expr.lhs) + _conjuncts(expr.rhs)
    return [expr]


def _mentions_var(expr: Expr, name: str) -> bool:
    from ..analysis.access import expr_reads

    return any(a.var == name for a in expr_reads(expr))


def _leaves(expr: Expr):
    """Leaf accesses of an expression (idents, prop reads, method calls)."""
    if isinstance(expr, (Ident, PropAccess, MethodCall, IntLit, FloatLit, BoolLit, NilLit, InfLit)):
        yield expr
        return
    if isinstance(expr, Unary):
        yield from _leaves(expr.operand)
    elif isinstance(expr, Binary):
        yield from _leaves(expr.lhs)
        yield from _leaves(expr.rhs)
    elif isinstance(expr, Ternary):
        yield from _leaves(expr.cond)
        yield from _leaves(expr.then)
        yield from _leaves(expr.other)
    elif isinstance(expr, Cast):
        yield from _leaves(expr.operand)
    else:
        yield expr


def _contains_edge_prop(vexpr: VExpr) -> bool:
    if isinstance(vexpr, Call) and vexpr.name == "edge_prop":
        return True
    if isinstance(vexpr, Bin):
        return _contains_edge_prop(vexpr.lhs) or _contains_edge_prop(vexpr.rhs)
    if isinstance(vexpr, Un):
        return _contains_edge_prop(vexpr.operand)
    if isinstance(vexpr, Cond):
        return (
            _contains_edge_prop(vexpr.cond)
            or _contains_edge_prop(vexpr.then)
            or _contains_edge_prop(vexpr.other)
        )
    if isinstance(vexpr, CastTo):
        return _contains_edge_prop(vexpr.operand)
    return False


def _inline_inner_locals(block: Block, span) -> list[Stmt]:
    """Inline inner-body scalar/edge locals into subsequent statements."""
    out: list[Stmt] = []
    bindings: dict[str, Expr] = {}

    def rewrite(expr: Expr) -> Expr:
        result = expr
        for name, value in bindings.items():
            result = substitute_ident(result, name, value)
        return result

    for stmt in block.stmts:
        if isinstance(stmt, VarDecl):
            if stmt.init is None:
                raise TranslationError(
                    "uninitialized local inside an inner loop", stmt.span
                )
            if len(stmt.names) != 1:
                raise TranslationError(
                    "multi-name declarations inside inner loops are not "
                    "supported",
                    stmt.span,
                )
            bindings[stmt.names[0]] = rewrite(stmt.init)
        elif isinstance(stmt, (Assign, ReduceAssign)):
            stmt.expr = rewrite(stmt.expr)
            out.append(stmt)
        elif isinstance(stmt, If):
            stmt.cond = rewrite(stmt.cond)
            stmt.then = Block(_inline_inner_locals(stmt.then, span), span=stmt.span)
            if stmt.other is not None:
                stmt.other = Block(
                    _inline_inner_locals(stmt.other, span), span=stmt.span
                )
            out.append(stmt)
        else:
            raise TranslationError(
                f"{type(stmt).__name__} not supported inside an inner loop",
                stmt.span,
            )
    return out


def translate(canonical: CanonicalProgram) -> PregelIR:
    """Translate a Pregel-canonical program into Pregel IR (unoptimized)."""
    return Translator(canonical).translate()
