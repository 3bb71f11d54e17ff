"""Desugaring pass: rewrite syntactic conveniences into the loop forms the
§3.1/§4.1 rules operate on.

Three rewrites happen here:

1. **Group assignments** ``G.prop = e;`` become parallel loops
   ``Foreach (it: G.Nodes) { it.prop = e[G.q → it.q]; }``.
2. **Inline reduction expressions** (``Sum``, ``Count``, ``Exist`` …) are
   hoisted into explicit accumulation loops over fresh temporaries.  This is
   the step that turns e.g. Figure 2's ``Count(t: n.InNbrs)(…)`` into the
   nested-loop form the Dissection/Edge-Flipping rules recognise (§4.1).
3. **Property declarations are hoisted** to the top of the procedure (their
   storage is per-graph; scoping only restricts visibility).

The pass must be followed by a re-typecheck; it generates untyped nodes.
"""

from __future__ import annotations

import math

from ..lang import ast
from ..lang.ast import (
    Assign,
    Bfs,
    Binary,
    BinOp,
    Block,
    BoolLit,
    Cast,
    Expr,
    FloatLit,
    Foreach,
    Ident,
    If,
    InfLit,
    IntLit,
    IterSource,
    MethodCall,
    Procedure,
    PropAccess,
    ReduceAssign,
    ReduceExpr,
    ReduceOp,
    Return,
    Stmt,
    Ternary,
    Unary,
    VarDecl,
    While,
    map_expr,
)
from ..lang import types as ty
from ..lang.errors import TransformError
from ..pregel.fold import IDENTITY, OF_REDUCE
from .rewriter import NameGenerator, clone_expr


def _contains_reduce(expr: Expr) -> bool:
    found = False

    def visit(e: Expr) -> Expr:
        nonlocal found
        if isinstance(e, ReduceExpr):
            found = True
        return e

    map_expr(expr, visit)
    return found


def _outermost_reduces(expr: Expr) -> list[ReduceExpr]:
    """Reduction expressions not nested inside another reduction (top-down)."""
    out: list[ReduceExpr] = []

    def visit(e: Expr) -> None:
        if isinstance(e, ReduceExpr):
            out.append(e)
            return  # nested ones are handled when their loop body is revisited
        for child in e.children():
            if isinstance(child, Expr):
                visit(child)
            elif isinstance(child, IterSource):
                visit(child.driver)

    visit(expr)
    return out


def _reduce_init(op: ReduceOp, elem: ty.Type) -> Expr:
    value = IDENTITY[OF_REDUCE[op.name]]  # an Avg hoists as a Sum and a Count
    if isinstance(value, bool):
        return BoolLit(value)
    if math.isinf(value):
        return InfLit(negative=value < 0)
    is_float = isinstance(elem, ty.PrimType) and elem.is_floating()
    return FloatLit(float(value)) if is_float else IntLit(value)


class Normalizer:
    def __init__(self, proc: Procedure):
        self._proc = proc
        self._names = NameGenerator.for_procedure(proc)
        self._hoisted_props: list[VarDecl] = []
        self.applied: set[str] = set()

    # -- entry -----------------------------------------------------------------

    def run(self) -> None:
        body = self._rewrite_block(self._proc.body)
        seen: set[str] = set()
        for decl in self._hoisted_props:
            for name in decl.names:
                if name in seen:
                    raise TransformError(
                        f"duplicate property declaration '{name}'", decl.span
                    )
                seen.add(name)
        body.stmts[:0] = self._hoisted_props
        self._proc.body = body

    # -- statements --------------------------------------------------------------

    def _rewrite_block(self, block: Block) -> Block:
        out: list[Stmt] = []
        for stmt in block.stmts:
            out.extend(self._rewrite_stmt(stmt))
        return Block(out, span=block.span)

    def _rewrite_stmt(self, stmt: Stmt) -> list[Stmt]:
        prelude: list[Stmt] = []
        if isinstance(stmt, VarDecl):
            if stmt.decl_type.is_property():
                self._hoisted_props.append(stmt)
                return []
            if stmt.init is not None:
                stmt.init = self._extract_reduces(stmt.init, prelude)
            return prelude + [stmt]
        if isinstance(stmt, Assign):
            stmt.expr = self._extract_reduces(stmt.expr, prelude)
            if self._is_group_target(stmt.target):
                return prelude + [self._desugar_group_assign(stmt)]
            return prelude + [stmt]
        if isinstance(stmt, (ast.ReduceAssign, ast.DeferredAssign)):
            stmt.expr = self._extract_reduces(stmt.expr, prelude)
            return prelude + [stmt]
        if isinstance(stmt, Return):
            if stmt.expr is not None:
                stmt.expr = self._extract_reduces(stmt.expr, prelude)
            return prelude + [stmt]
        if isinstance(stmt, If):
            stmt.cond = self._extract_reduces(stmt.cond, prelude)
            stmt.then = self._rewrite_block(stmt.then)
            if stmt.other is not None:
                stmt.other = self._rewrite_block(stmt.other)
            return prelude + [stmt]
        if isinstance(stmt, While):
            if _contains_reduce(stmt.cond):
                raise TransformError(
                    "reduction expressions in While conditions are not supported; "
                    "assign the reduction to a Bool variable inside the loop",
                    stmt.cond.span,
                )
            stmt.body = self._rewrite_block(stmt.body)
            return [stmt]
        if isinstance(stmt, Foreach):
            if stmt.filter is not None and _contains_reduce(stmt.filter):
                raise TransformError(
                    "reduction expressions in iteration filters are not supported",
                    stmt.filter.span,
                )
            stmt.body = self._rewrite_block(stmt.body)
            return [stmt]
        if isinstance(stmt, Bfs):
            stmt.body = self._rewrite_block(stmt.body)
            if stmt.reverse_body is not None:
                stmt.reverse_body = self._rewrite_block(stmt.reverse_body)
            return [stmt]
        if isinstance(stmt, Block):
            return [self._rewrite_block(stmt)]
        return [stmt]

    # -- group assignment ---------------------------------------------------------

    @staticmethod
    def _is_group_target(target: Expr) -> bool:
        return (
            isinstance(target, PropAccess)
            and isinstance(target.target, Ident)
            and target.target.type is not None
            and target.target.type.is_graph()
        )

    def _desugar_group_assign(self, stmt: Assign) -> Foreach:
        self.applied.add("group-assignment")
        assert isinstance(stmt.target, PropAccess)
        graph = stmt.target.target
        assert isinstance(graph, Ident)
        it = self._names.fresh("n")

        def replace_group_reads(e: Expr) -> Expr:
            if (
                isinstance(e, PropAccess)
                and isinstance(e.target, Ident)
                and e.target.name == graph.name
            ):
                return PropAccess(Ident(it, span=e.span), e.prop, span=e.span)
            return e

        value = map_expr(clone_expr(stmt.expr), replace_group_reads)
        body = Block(
            [Assign(PropAccess(Ident(it), stmt.target.prop, span=stmt.span), value, span=stmt.span)],
            span=stmt.span,
        )
        source = IterSource(Ident(graph.name, span=stmt.span), ast.IterKind.NODES, span=stmt.span)
        return Foreach(it, source, None, body, True, span=stmt.span)

    # -- reduction extraction --------------------------------------------------------

    def _extract_reduces(self, expr: Expr, prelude: list[Stmt]) -> Expr:
        reduces = _outermost_reduces(expr)
        if not reduces:
            return expr
        self.applied.add("reduction-extraction")
        replacements: dict[ReduceExpr, Expr] = {}
        for reduce in reduces:
            replacements[reduce] = self._hoist_one_reduce(reduce, prelude)

        def substitute(e: Expr) -> Expr:
            return replacements.get(e, e) if isinstance(e, ReduceExpr) else e

        return map_expr(expr, substitute)

    def _hoist_one_reduce(self, reduce: ReduceExpr, prelude: list[Stmt]) -> Expr:
        if reduce.op is ReduceOp.AVG:
            return self._hoist_avg(reduce, prelude)
        elem = self._result_type(reduce)
        temp = self._names.fresh("r")
        prelude.append(VarDecl(elem, [temp], _reduce_init(reduce.op, elem), span=reduce.span))
        if reduce.op in (ReduceOp.ANY, ReduceOp.ALL):
            assert reduce.filter is not None
            op = reduce.op
            loop_filter = None
            value: Expr = clone_expr(reduce.filter)
        elif reduce.op is ReduceOp.COUNT:
            op = ReduceOp.SUM
            loop_filter = reduce.filter
            value = IntLit(1, span=reduce.span)
        else:
            op = reduce.op
            loop_filter = reduce.filter
            assert reduce.body is not None
            value = reduce.body
        accum = ReduceAssign(
            Ident(temp, span=reduce.span), op, value, reduce.iterator, span=reduce.span
        )
        loop = Foreach(
            reduce.iterator,
            reduce.source,
            loop_filter,
            Block([accum], span=reduce.span),
            True,
            span=reduce.span,
        )
        # The fresh loop body may itself contain nested reductions.
        for rewritten in self._rewrite_stmt(loop):
            prelude.append(rewritten)
        return Ident(temp, span=reduce.span)

    def _hoist_avg(self, reduce: ReduceExpr, prelude: list[Stmt]) -> Expr:
        """``Avg(...)`` = ``Sum(...) / (Double) Count(...)`` (0 when empty)."""
        assert reduce.body is not None
        total = ReduceExpr(
            ReduceOp.SUM, reduce.iterator, reduce.source, reduce.filter,
            reduce.body, span=reduce.span,
        )
        count = ReduceExpr(
            ReduceOp.COUNT,
            reduce.iterator,
            IterSource(clone_expr(reduce.source.driver), reduce.source.kind, span=reduce.span),
            clone_expr(reduce.filter) if reduce.filter is not None else None,
            None,
            span=reduce.span,
        )
        total_ref = self._hoist_one_reduce(total, prelude)
        count_ref = self._hoist_one_reduce(count, prelude)
        zero = Binary(BinOp.EQ, count_ref, IntLit(0), span=reduce.span)
        ratio = Binary(
            BinOp.DIV,
            Cast(ty.DOUBLE, clone_expr(total_ref), span=reduce.span),
            Cast(ty.DOUBLE, clone_expr(count_ref), span=reduce.span),
            span=reduce.span,
        )
        return Ternary(zero, FloatLit(0.0), ratio, span=reduce.span)

    @staticmethod
    def _result_type(reduce: ReduceExpr) -> ty.Type:
        if reduce.op in (ReduceOp.ANY, ReduceOp.ALL):
            return ty.BOOL
        if reduce.op is ReduceOp.COUNT:
            return ty.INT
        result = reduce.type if reduce.type is not None else reduce.body.type  # type: ignore[union-attr]
        if result is None:
            raise TransformError("normalize requires a type-checked AST", reduce.span)
        return result


def normalize(proc: Procedure) -> set[str]:
    """Run the desugaring pass in place; returns the set of applied rules."""
    normalizer = Normalizer(proc)
    normalizer.run()
    return normalizer.applied
