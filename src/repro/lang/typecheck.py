"""Type checker and name resolution for Green-Marl procedures.

Besides verifying the program, the checker produces a :class:`CheckResult`
used by every later phase:

* ``Expr.type`` is filled in on each expression node;
* ``resolved`` maps each :class:`Ident` occurrence to its :class:`Symbol`;
* ``properties`` / ``scalars`` list the declared node/edge properties and the
  sequential-phase scalar variables (the paper's vertex-class fields and
  master-class fields, respectively);
* ``iterator_of`` maps iterator symbols to the loop that binds them.

Because the transformation passes rewrite the AST freely, the checker is cheap
and is simply re-run after every pass (programs are a few dozen statements).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import types as ty
from .ast import (
    Assign,
    Bfs,
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
    IterSource,
    MethodCall,
    NilLit,
    Procedure,
    PropAccess,
    ReduceAssign,
    ReduceExpr,
    ReduceOp,
    Return,
    Stmt,
    Ternary,
    Unary,
    UnOp,
    VarDecl,
    While,
    walk,
)
from .errors import Span, TypeCheckError
from .symbols import Scope, Symbol, SymbolKind

#: Built-in method signatures: (receiver kind, name) -> (arg types, result).
_GRAPH_METHODS: dict[str, tuple[list[ty.Type], ty.Type]] = {
    "NumNodes": ([], ty.LONG),
    "NumEdges": ([], ty.LONG),
    "PickRandom": ([], ty.NODE),
}
_NODE_METHODS: dict[str, tuple[list[ty.Type], ty.Type]] = {
    "Degree": ([], ty.INT),
    "OutDegree": ([], ty.INT),
    "InDegree": ([], ty.INT),
    "NumNbrs": ([], ty.INT),
    "Id": ([], ty.LONG),
    "ToEdge": ([], ty.EDGE),
}


@dataclass
class CheckResult:
    procedure: Procedure
    graph_name: str
    properties: dict[str, Symbol] = field(default_factory=dict)
    scalars: dict[str, Symbol] = field(default_factory=dict)
    resolved: dict[Ident, Symbol] = field(default_factory=dict)
    iterator_of: dict[Symbol, Stmt] = field(default_factory=dict)

    def symbol(self, ident: Ident) -> Symbol:
        return self.resolved[ident]


class TypeChecker:
    def __init__(self, proc: Procedure):
        self._proc = proc
        self._result: CheckResult | None = None
        self._return_type = proc.return_type

    # -- entry ---------------------------------------------------------------

    def check(self) -> CheckResult:
        proc = self._proc
        graph_param = proc.graph_param
        if graph_param is None:
            raise TypeCheckError(
                f"procedure '{proc.name}' has no Graph parameter", proc.span,
                hint="Pregel compilation requires exactly one directed graph argument",
            )
        if sum(1 for p in proc.params if p.param_type.is_graph()) > 1:
            raise TypeCheckError(
                "multiple Graph parameters are not supported (§3.2: at most one graph)",
                proc.span,
            )
        self._result = CheckResult(proc, graph_param.name)
        top = Scope()
        for param in proc.params:
            if top.defined_here(param.name):
                raise TypeCheckError(f"duplicate parameter '{param.name}'", param.span)
            kind = SymbolKind.PARAM_OUT if param.is_output else SymbolKind.PARAM_IN
            symbol = Symbol(param.name, param.param_type, kind, param)
            top.define(symbol)
            self._register(symbol)
        self.check_block(proc.body, top.child())
        return self._result

    def _register(self, symbol: Symbol) -> None:
        assert self._result is not None
        if symbol.type.is_property():
            self._result.properties[symbol.name] = symbol
        elif symbol.is_scalar() and not symbol.type.is_graph():
            self._result.scalars[symbol.name] = symbol

    # -- statements ------------------------------------------------------------

    def check_block(self, block: Block, scope: Scope) -> None:
        for stmt in block.stmts:
            self.check_stmt(stmt, scope)

    def check_stmt(self, stmt: Stmt, scope: Scope) -> None:
        if isinstance(stmt, Block):
            self.check_block(stmt, scope.child())
        elif isinstance(stmt, VarDecl):
            self._check_var_decl(stmt, scope)
        elif isinstance(stmt, Assign):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, ReduceAssign):
            self._check_reduce_assign(stmt, scope)
        elif isinstance(stmt, DeferredAssign):
            self._check_deferred_assign(stmt, scope)
        elif isinstance(stmt, If):
            cond = self.check_expr(stmt.cond, scope)
            self._require_bool(cond, stmt.cond.span, "If condition")
            self.check_block(stmt.then, scope.child())
            if stmt.other is not None:
                self.check_block(stmt.other, scope.child())
        elif isinstance(stmt, While):
            cond = self.check_expr(stmt.cond, scope)
            self._require_bool(cond, stmt.cond.span, "While condition")
            self.check_block(stmt.body, scope.child())
        elif isinstance(stmt, Foreach):
            self._check_foreach(stmt, scope)
        elif isinstance(stmt, Bfs):
            self._check_bfs(stmt, scope)
        elif isinstance(stmt, Return):
            self._check_return(stmt, scope)
        else:
            raise TypeCheckError(f"unknown statement {type(stmt).__name__}", stmt.span)

    def _check_var_decl(self, stmt: VarDecl, scope: Scope) -> None:
        for name in stmt.names:
            if scope.defined_here(name):
                raise TypeCheckError(f"redeclaration of '{name}'", stmt.span)
            symbol = Symbol(name, stmt.decl_type, self._decl_kind(stmt.decl_type), stmt)
            scope.define(symbol)
            self._register(symbol)
        if stmt.init is not None:
            if stmt.decl_type.is_property():
                raise TypeCheckError(
                    "property declarations cannot have initializers "
                    "(use a group assignment, e.g. G.prop = 0)",
                    stmt.span,
                )
            init_type = self.check_expr(stmt.init, scope)
            self._require_assignable(stmt.decl_type, init_type, stmt.span)

    @staticmethod
    def _decl_kind(decl_type: ty.Type) -> SymbolKind:
        return SymbolKind.PROPERTY if decl_type.is_property() else SymbolKind.LOCAL

    def _check_assign(self, stmt: Assign, scope: Scope) -> None:
        target_type = self._check_lvalue(stmt.target, scope)
        expr_type = self.check_expr(stmt.expr, scope)
        self._require_assignable(target_type, expr_type, stmt.span)

    def _check_reduce_assign(self, stmt: ReduceAssign, scope: Scope) -> None:
        target_type = self._check_lvalue(stmt.target, scope)
        expr_type = self.check_expr(stmt.expr, scope)
        if stmt.op in (ReduceOp.ALL, ReduceOp.ANY):
            self._require_bool(target_type, stmt.span, f"'{stmt.op.value}=' target")
            self._require_bool(expr_type, stmt.expr.span, f"'{stmt.op.value}=' operand")
        else:
            if not target_type.is_numeric():
                raise TypeCheckError(
                    f"reduction target must be numeric, got {target_type}", stmt.span
                )
            if not expr_type.is_numeric():
                raise TypeCheckError(
                    f"reduction operand must be numeric, got {expr_type}", stmt.expr.span
                )
        if stmt.bind is not None:
            self._lookup(stmt.bind, stmt.span, scope)

    def _check_deferred_assign(self, stmt: DeferredAssign, scope: Scope) -> None:
        if not isinstance(stmt.target, PropAccess):
            raise TypeCheckError(
                "deferred assignment (<=) target must be a property access", stmt.span
            )
        target_type = self._check_lvalue(stmt.target, scope)
        expr_type = self.check_expr(stmt.expr, scope)
        self._require_assignable(target_type, expr_type, stmt.span)
        if stmt.bind is not None:
            self._lookup(stmt.bind, stmt.span, scope)

    def _check_foreach(self, stmt: Foreach, scope: Scope) -> None:
        self._check_iter_source(stmt.source, scope)
        inner = scope.child()
        kind = SymbolKind.ITERATOR
        symbol = Symbol(stmt.iterator, ty.NODE, kind, stmt)
        inner.define(symbol)
        assert self._result is not None
        self._result.iterator_of[symbol] = stmt
        if stmt.filter is not None:
            filter_type = self.check_expr(stmt.filter, inner)
            self._require_bool(filter_type, stmt.filter.span, "iteration filter")
        self.check_block(stmt.body, inner.child())
        if stmt.parallel:
            self._check_reduction_reads(stmt)

    def _check_reduction_reads(self, loop: Foreach) -> None:
        """A scalar being reduced by a parallel loop may not be read inside
        that loop: its intermediate value is undefined under parallel
        semantics (the reduction completes only at the loop boundary)."""
        targets: set[str] = set()
        reads: list[tuple[str, Span]] = []
        self._collect_scalar_reduces_and_reads(loop.body, targets, reads)
        local_names = {
            name
            for s in walk(loop.body)
            if isinstance(s, VarDecl)
            for name in s.names
        }
        targets -= local_names
        for name, span in reads:
            if name in targets:
                raise TypeCheckError(
                    f"scalar '{name}' is read inside the parallel loop that "
                    "reduces it; the reduction's value is only defined after "
                    "the loop",
                    span,
                )

    def _collect_scalar_reduces_and_reads(
        self, block: Block, targets: set[str], reads: list[tuple[str, Span]]
    ) -> None:
        for stmt in block.stmts:
            if isinstance(stmt, ReduceAssign):
                if isinstance(stmt.target, Ident):
                    targets.add(stmt.target.name)
                self._collect_ident_reads(stmt.expr, reads)
            elif isinstance(stmt, (Assign, DeferredAssign)):
                self._collect_ident_reads(stmt.expr, reads)
            elif isinstance(stmt, VarDecl):
                if stmt.init is not None:
                    self._collect_ident_reads(stmt.init, reads)
            elif isinstance(stmt, If):
                self._collect_ident_reads(stmt.cond, reads)
                self._collect_scalar_reduces_and_reads(stmt.then, targets, reads)
                if stmt.other is not None:
                    self._collect_scalar_reduces_and_reads(stmt.other, targets, reads)
            elif isinstance(stmt, Foreach):
                if stmt.filter is not None:
                    self._collect_ident_reads(stmt.filter, reads)
                self._collect_scalar_reduces_and_reads(stmt.body, targets, reads)
            elif isinstance(stmt, Block):
                self._collect_scalar_reduces_and_reads(stmt, targets, reads)

    @staticmethod
    def _collect_ident_reads(expr: Expr, reads: list[tuple[str, Span]]) -> None:
        for node in walk(expr):
            if isinstance(node, Ident):
                reads.append((node.name, node.span))

    def _check_bfs(self, stmt: Bfs, scope: Scope) -> None:
        self._check_iter_source(stmt.source, scope)
        root_type = self.check_expr(stmt.root, scope)
        if not root_type.is_node():
            raise TypeCheckError(
                f"BFS root must be a Node, got {root_type}", stmt.root.span
            )
        inner = scope.child()
        symbol = Symbol(stmt.iterator, ty.NODE, SymbolKind.BFS_ITERATOR, stmt)
        inner.define(symbol)
        assert self._result is not None
        self._result.iterator_of[symbol] = stmt
        if stmt.filter is not None:
            self._require_bool(
                self.check_expr(stmt.filter, inner), stmt.filter.span, "InBFS filter"
            )
        self.check_block(stmt.body, inner.child())
        if stmt.reverse_filter is not None:
            self._require_bool(
                self.check_expr(stmt.reverse_filter, inner),
                stmt.reverse_filter.span,
                "InReverse filter",
            )
        if stmt.reverse_body is not None:
            self.check_block(stmt.reverse_body, inner.child())

    def _check_iter_source(self, source: IterSource, scope: Scope) -> None:
        driver_type = self.check_expr(source.driver, scope)
        if source.kind is IterKind.NODES:
            if not driver_type.is_graph():
                raise TypeCheckError(
                    f"'.Nodes' requires a Graph, got {driver_type}", source.span
                )
        else:
            if not driver_type.is_node():
                raise TypeCheckError(
                    f"'.{source.kind.value}' requires a Node, got {driver_type}",
                    source.span,
                )

    def _check_return(self, stmt: Return, scope: Scope) -> None:
        if self._return_type is None:
            if stmt.expr is not None:
                raise TypeCheckError(
                    "procedure has no return type but Return has a value", stmt.span
                )
            return
        if stmt.expr is None:
            raise TypeCheckError(
                f"Return needs a value of type {self._return_type}", stmt.span
            )
        expr_type = self.check_expr(stmt.expr, scope)
        self._require_assignable(self._return_type, expr_type, stmt.span)

    # -- lvalues -----------------------------------------------------------

    def _check_lvalue(self, target: Expr, scope: Scope) -> ty.Type:
        if isinstance(target, Ident):
            symbol = self._lookup(target.name, target.span, scope)
            self._result.resolved[target] = symbol  # type: ignore[union-attr]
            if symbol.is_iterator():
                raise TypeCheckError(f"cannot assign to iterator '{target.name}'", target.span)
            if symbol.type.is_property() or symbol.type.is_graph():
                raise TypeCheckError(
                    f"cannot assign directly to {symbol.kind.value} '{target.name}'",
                    target.span,
                )
            target.type = symbol.type
            return symbol.type
        if isinstance(target, PropAccess):
            return self.check_expr(target, scope)
        raise TypeCheckError("invalid assignment target", target.span)

    # -- expressions -----------------------------------------------------------

    def check_expr(self, expr: Expr, scope: Scope) -> ty.Type:
        expr.type = self._infer(expr, scope)
        return expr.type

    def _infer(self, expr: Expr, scope: Scope) -> ty.Type:
        if isinstance(expr, IntLit):
            return ty.INT
        if isinstance(expr, FloatLit):
            return ty.DOUBLE
        if isinstance(expr, BoolLit):
            return ty.BOOL
        if isinstance(expr, NilLit):
            return ty.NODE
        if isinstance(expr, InfLit):
            return ty.DOUBLE
        if isinstance(expr, Ident):
            symbol = self._lookup(expr.name, expr.span, scope)
            self._result.resolved[expr] = symbol  # type: ignore[union-attr]
            return symbol.type
        if isinstance(expr, PropAccess):
            return self._infer_prop_access(expr, scope)
        if isinstance(expr, MethodCall):
            return self._infer_method_call(expr, scope)
        if isinstance(expr, Unary):
            return self._infer_unary(expr, scope)
        if isinstance(expr, Binary):
            return self._infer_binary(expr, scope)
        if isinstance(expr, Ternary):
            return self._infer_ternary(expr, scope)
        if isinstance(expr, Cast):
            operand_type = self.check_expr(expr.operand, scope)
            if not (operand_type.is_numeric() and expr.to_type.is_numeric()):
                raise TypeCheckError(
                    f"cannot cast {operand_type} to {expr.to_type}", expr.span
                )
            return expr.to_type
        if isinstance(expr, ReduceExpr):
            return self._infer_reduce(expr, scope)
        raise TypeCheckError(f"unknown expression {type(expr).__name__}", expr.span)

    def _infer_prop_access(self, expr: PropAccess, scope: Scope) -> ty.Type:
        target_type = self.check_expr(expr.target, scope)
        assert self._result is not None
        prop_symbol = self._result.properties.get(expr.prop)
        if prop_symbol is None:
            raise TypeCheckError(f"unknown property '{expr.prop}'", expr.span)
        prop_type = prop_symbol.type
        if target_type.is_graph():
            # Group access (G.prop): legal only in group assignments, which the
            # normalizer removes; reads elsewhere are rejected there.
            assert isinstance(prop_type, (ty.NodePropType, ty.EdgePropType))
            return prop_type.elem
        if isinstance(prop_type, ty.NodePropType):
            if not target_type.is_node():
                raise TypeCheckError(
                    f"node property '{expr.prop}' accessed through {target_type}",
                    expr.span,
                )
            return prop_type.elem
        assert isinstance(prop_type, ty.EdgePropType)
        if not target_type.is_edge():
            raise TypeCheckError(
                f"edge property '{expr.prop}' accessed through {target_type}", expr.span
            )
        return prop_type.elem

    def _infer_method_call(self, expr: MethodCall, scope: Scope) -> ty.Type:
        target_type = self.check_expr(expr.target, scope)
        if target_type.is_graph():
            table = _GRAPH_METHODS
        elif target_type.is_node():
            table = _NODE_METHODS
        else:
            raise TypeCheckError(
                f"no methods available on values of type {target_type}", expr.span
            )
        signature = table.get(expr.name)
        if signature is None:
            raise TypeCheckError(
                f"unknown method '{expr.name}' on {target_type}", expr.span
            )
        arg_types, result = signature
        if len(expr.args) != len(arg_types):
            raise TypeCheckError(
                f"'{expr.name}' expects {len(arg_types)} argument(s), got {len(expr.args)}",
                expr.span,
            )
        for arg, expected in zip(expr.args, arg_types):
            actual = self.check_expr(arg, scope)
            self._require_assignable(expected, actual, arg.span)
        return result

    def _infer_unary(self, expr: Unary, scope: Scope) -> ty.Type:
        operand_type = self.check_expr(expr.operand, scope)
        if expr.op is UnOp.NOT:
            self._require_bool(operand_type, expr.span, "'!' operand")
            return ty.BOOL
        if not operand_type.is_numeric():
            raise TypeCheckError(
                f"'{expr.op.value}' requires a numeric operand, got {operand_type}",
                expr.span,
            )
        return operand_type

    def _infer_binary(self, expr: Binary, scope: Scope) -> ty.Type:
        lhs = self.check_expr(expr.lhs, scope)
        rhs = self.check_expr(expr.rhs, scope)
        op = expr.op
        if op in (BinOp.AND, BinOp.OR):
            self._require_bool(lhs, expr.lhs.span, f"'{op.value}' operand")
            self._require_bool(rhs, expr.rhs.span, f"'{op.value}' operand")
            return ty.BOOL
        if op in (BinOp.EQ, BinOp.NEQ):
            if not ty.comparable(lhs, rhs):
                raise TypeCheckError(f"cannot compare {lhs} with {rhs}", expr.span)
            return ty.BOOL
        if op in (BinOp.LT, BinOp.GT, BinOp.LE, BinOp.GE):
            if ty.join_numeric(lhs, rhs) is None:
                raise TypeCheckError(
                    f"ordering comparison requires numeric operands, got {lhs} and {rhs}",
                    expr.span,
                )
            return ty.BOOL
        joined = ty.join_numeric(lhs, rhs)
        if joined is None:
            raise TypeCheckError(
                f"'{op.value}' requires numeric operands, got {lhs} and {rhs}", expr.span
            )
        if op is BinOp.MOD:
            if not (
                isinstance(lhs, ty.PrimType)
                and isinstance(rhs, ty.PrimType)
                and lhs.is_integral()
                and rhs.is_integral()
            ):
                raise TypeCheckError("'%' requires integral operands", expr.span)
        return joined

    def _infer_ternary(self, expr: Ternary, scope: Scope) -> ty.Type:
        cond = self.check_expr(expr.cond, scope)
        self._require_bool(cond, expr.cond.span, "'?:' condition")
        then = self.check_expr(expr.then, scope)
        other = self.check_expr(expr.other, scope)
        if then == other:
            return then
        joined = ty.join_numeric(then, other)
        if joined is None:
            raise TypeCheckError(
                f"'?:' branches have incompatible types {then} and {other}", expr.span
            )
        return joined

    def _infer_reduce(self, expr: ReduceExpr, scope: Scope) -> ty.Type:
        self._check_iter_source(expr.source, scope)
        inner = scope.child()
        symbol = Symbol(expr.iterator, ty.NODE, SymbolKind.ITERATOR, expr)
        inner.define(symbol)
        if expr.filter is not None:
            self._require_bool(
                self.check_expr(expr.filter, inner), expr.filter.span, "reduction filter"
            )
        if expr.op in (ReduceOp.ANY, ReduceOp.ALL):
            if expr.body is not None:
                raise TypeCheckError(
                    f"'{expr.op.name}' takes a predicate, not a body", expr.span
                )
            if expr.filter is None:
                raise TypeCheckError(f"'{expr.op.name}' requires a predicate", expr.span)
            return ty.BOOL
        if expr.op is ReduceOp.COUNT:
            if expr.body is not None:
                raise TypeCheckError("'Count' does not take a body", expr.span)
            return ty.INT
        assert expr.body is not None
        body_type = self.check_expr(expr.body, inner)
        if not body_type.is_numeric():
            raise TypeCheckError(
                f"reduction body must be numeric, got {body_type}", expr.body.span
            )
        if expr.op is ReduceOp.AVG:
            return ty.DOUBLE
        return body_type

    # -- small helpers -----------------------------------------------------

    def _lookup(self, name: str, span: Span, scope: Scope) -> Symbol:
        symbol = scope.lookup(name)
        if symbol is None:
            raise TypeCheckError(f"undefined name '{name}'", span)
        return symbol

    @staticmethod
    def _require_bool(t: ty.Type, span: Span, what: str) -> None:
        if not t.is_boolean():
            raise TypeCheckError(f"{what} must be Bool, got {t}", span)

    @staticmethod
    def _require_assignable(dst: ty.Type, src: ty.Type, span: Span) -> None:
        if not ty.assignable(dst, src):
            raise TypeCheckError(f"cannot assign {src} to {dst}", span)


def typecheck(proc: Procedure) -> CheckResult:
    """Type-check ``proc`` in place (filling ``Expr.type``) and return the
    symbol information needed by analyses and transformations."""
    return TypeChecker(proc).check()
