"""Abstract syntax tree for the Green-Marl subset used by the paper.

Design notes
------------

* Nodes are plain dataclasses with identity equality (``eq=False``) so that
  analyses can key dictionaries and sets by AST node.
* Every node carries a :class:`~repro.lang.errors.Span`.
* Expression nodes have a mutable ``type`` slot filled in by the type checker.
* :func:`walk` yields a preorder traversal; rewriting passes construct new
  statement lists and use :func:`map_expr` for expression rewriting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator

from .errors import UNKNOWN_SPAN, Span
from .types import Type


# ---------------------------------------------------------------------------
# Operators and iteration kinds
# ---------------------------------------------------------------------------


class BinOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND = "&&"
    OR = "||"


class UnOp(enum.Enum):
    NEG = "-"
    NOT = "!"
    ABS = "| |"


class ReduceOp(enum.Enum):
    """Reduction operators, used both by reduce-assignments (``+=``, ``min=`` …)
    and by reduction expressions (``Sum``, ``Count``, ``Exist`` …)."""

    SUM = "+"
    PRODUCT = "*"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    ALL = "&&"  # All(...)  /  &=
    ANY = "||"  # Exist(...)  /  |=


#: Reduction-expression spellings accepted by the parser.
REDUCE_EXPR_NAMES: dict[str, ReduceOp] = {
    "Sum": ReduceOp.SUM,
    "Product": ReduceOp.PRODUCT,
    "Count": ReduceOp.COUNT,
    "Min": ReduceOp.MIN,
    "Max": ReduceOp.MAX,
    "Avg": ReduceOp.AVG,
    "All": ReduceOp.ALL,
    "Exist": ReduceOp.ANY,
}


class IterKind(enum.Enum):
    NODES = "Nodes"
    NBRS = "Nbrs"
    IN_NBRS = "InNbrs"
    UP_NBRS = "UpNbrs"      # BFS parents (only valid inside InBFS/InReverse)
    DOWN_NBRS = "DownNbrs"  # BFS children (only valid inside InBFS/InReverse)

    def is_neighborhood(self) -> bool:
        return self is not IterKind.NODES


#: Spellings accepted after the ``.`` of an iteration source.
ITER_SOURCE_NAMES: dict[str, IterKind] = {
    "Nodes": IterKind.NODES,
    "Nbrs": IterKind.NBRS,
    "OutNbrs": IterKind.NBRS,
    "InNbrs": IterKind.IN_NBRS,
    "UpNbrs": IterKind.UP_NBRS,
    "DownNbrs": IterKind.DOWN_NBRS,
}


def flip_iter_kind(kind: IterKind) -> IterKind:
    """Reverse the edge direction of a neighborhood iteration (§4.1, Flipping
    Edges).  BFS-relative directions flip between parents and children."""
    flips = {
        IterKind.NBRS: IterKind.IN_NBRS,
        IterKind.IN_NBRS: IterKind.NBRS,
        IterKind.UP_NBRS: IterKind.DOWN_NBRS,
        IterKind.DOWN_NBRS: IterKind.UP_NBRS,
    }
    return flips[kind]


# ---------------------------------------------------------------------------
# Base node
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AstNode:
    """Common base: all AST nodes carry a source span."""

    span: Span = field(default=UNKNOWN_SPAN, kw_only=True)

    def children(self) -> Iterator["AstNode"]:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, AstNode):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, AstNode):
                        yield item


def walk(node: AstNode) -> Iterator[AstNode]:
    """Preorder traversal of the subtree rooted at ``node``."""
    yield node
    for child in node.children():
        yield from walk(child)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Expr(AstNode):
    """Base class for expressions; ``type`` is filled by the type checker."""

    type: Type | None = field(default=None, kw_only=True, repr=False)


@dataclass(eq=False)
class IntLit(Expr):
    value: int = 0


@dataclass(eq=False)
class FloatLit(Expr):
    value: float = 0.0


@dataclass(eq=False)
class BoolLit(Expr):
    value: bool = False


@dataclass(eq=False)
class NilLit(Expr):
    """The NIL node/edge literal."""


@dataclass(eq=False)
class InfLit(Expr):
    """+INF / -INF."""

    negative: bool = False


@dataclass(eq=False)
class Ident(Expr):
    name: str = ""


@dataclass(eq=False)
class PropAccess(Expr):
    """``target.prop`` — a node/edge property read, or (when ``target`` is the
    graph) the group-assignment form that only appears on an LHS."""

    target: Expr = None  # type: ignore[assignment]
    prop: str = ""


@dataclass(eq=False)
class MethodCall(Expr):
    """Built-in method calls: ``G.NumNodes()``, ``n.Degree()``,
    ``G.PickRandom()``, ``s.ToEdge()`` …"""

    target: Expr = None  # type: ignore[assignment]
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(eq=False)
class Unary(Expr):
    op: UnOp = UnOp.NEG
    operand: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Binary(Expr):
    op: BinOp = BinOp.ADD
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Cast(Expr):
    to_type: Type = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class IterSource(AstNode):
    """The range of an iteration: ``G.Nodes``, ``n.Nbrs``, ``n.InNbrs`` …"""

    driver: Expr = None  # type: ignore[assignment]
    kind: IterKind = IterKind.NODES


@dataclass(eq=False)
class ReduceExpr(Expr):
    """``Sum(w: t.InNbrs)(filter){body}`` and friends.

    ``body`` is ``None`` for ``Count``; for ``Exist``/``All`` the predicate may
    be written either as the filter or as the body.
    """

    op: ReduceOp = ReduceOp.SUM
    iterator: str = ""
    source: IterSource = None  # type: ignore[assignment]
    filter: Expr | None = None
    body: Expr | None = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Stmt(AstNode):
    pass


@dataclass(eq=False)
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class VarDecl(Stmt):
    """``Int S = 0;`` or ``N_P<Bool> updated;`` (property declaration)."""

    decl_type: Type = None  # type: ignore[assignment]
    names: list[str] = field(default_factory=list)
    init: Expr | None = None


@dataclass(eq=False)
class Assign(Stmt):
    """Plain assignment.  When ``target`` is a :class:`PropAccess` whose target
    is the graph (``G.dist = …``), this is a *group assignment* over all nodes,
    desugared by the normalizer into a parallel Foreach."""

    target: Expr = None  # type: ignore[assignment]
    expr: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class ReduceAssign(Stmt):
    """``S += e;``, ``x min= e;``, ``b &= e;`` …  with an optional ``@ iter``
    binding (ignored by the sequential semantics, significant to Green-Marl's
    parallel semantics checker; we accept and record it)."""

    target: Expr = None  # type: ignore[assignment]
    op: ReduceOp = ReduceOp.SUM
    expr: Expr = None  # type: ignore[assignment]
    bind: str | None = None


@dataclass(eq=False)
class DeferredAssign(Stmt):
    """``t.prop <= e @ t;`` — bulk-synchronous write, visible after the
    enclosing parallel loop finishes."""

    target: Expr = None  # type: ignore[assignment]
    expr: Expr = None  # type: ignore[assignment]
    bind: str | None = None


@dataclass(eq=False)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Block = None  # type: ignore[assignment]
    other: Block | None = None


@dataclass(eq=False)
class While(Stmt):
    """``While (c) {…}`` or ``Do {…} While (c);`` when ``do_while`` is set."""

    cond: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]
    do_while: bool = False


@dataclass(eq=False)
class Foreach(Stmt):
    """``Foreach (it: source)(filter) {…}``.

    ``parallel`` is False for the sequential ``For`` spelling.
    """

    iterator: str = ""
    source: IterSource = None  # type: ignore[assignment]
    filter: Expr | None = None
    body: Block = None  # type: ignore[assignment]
    parallel: bool = True


@dataclass(eq=False)
class Bfs(Stmt):
    """``InBFS (v: G.Nodes From root)(filter) {…} InReverse(rfilter) {…}``."""

    iterator: str = ""
    source: IterSource = None  # type: ignore[assignment]
    root: Expr = None  # type: ignore[assignment]
    filter: Expr | None = None
    body: Block = None  # type: ignore[assignment]
    reverse_filter: Expr | None = None
    reverse_body: Block | None = None


@dataclass(eq=False)
class Return(Stmt):
    expr: Expr | None = None


# ---------------------------------------------------------------------------
# Procedure
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Param(AstNode):
    name: str = ""
    param_type: Type = None  # type: ignore[assignment]
    is_output: bool = False


@dataclass(eq=False)
class Procedure(AstNode):
    name: str = ""
    params: list[Param] = field(default_factory=list)
    return_type: Type | None = None
    body: Block = None  # type: ignore[assignment]

    @property
    def graph_param(self) -> Param | None:
        for p in self.params:
            if p.param_type.is_graph():
                return p
        return None


# ---------------------------------------------------------------------------
# Rewriting helpers
# ---------------------------------------------------------------------------

ExprFn = Callable[[Expr], Expr]


def map_expr(expr: Expr, fn: ExprFn) -> Expr:
    """Bottom-up expression rewrite: children first, then ``fn`` on the node.

    ``fn`` may return its argument unchanged; nodes are rebuilt only via field
    mutation, keeping identity (and attached types) where possible.
    """
    if isinstance(expr, PropAccess):
        expr.target = map_expr(expr.target, fn)
    elif isinstance(expr, MethodCall):
        expr.target = map_expr(expr.target, fn)
        expr.args = [map_expr(a, fn) for a in expr.args]
    elif isinstance(expr, Unary):
        expr.operand = map_expr(expr.operand, fn)
    elif isinstance(expr, Binary):
        expr.lhs = map_expr(expr.lhs, fn)
        expr.rhs = map_expr(expr.rhs, fn)
    elif isinstance(expr, Ternary):
        expr.cond = map_expr(expr.cond, fn)
        expr.then = map_expr(expr.then, fn)
        expr.other = map_expr(expr.other, fn)
    elif isinstance(expr, Cast):
        expr.operand = map_expr(expr.operand, fn)
    elif isinstance(expr, ReduceExpr):
        expr.source.driver = map_expr(expr.source.driver, fn)
        if expr.filter is not None:
            expr.filter = map_expr(expr.filter, fn)
        if expr.body is not None:
            expr.body = map_expr(expr.body, fn)
    return fn(expr)


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """The direct expression operands of a statement (not recursing into
    nested statements)."""
    if isinstance(stmt, VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.expr]
    if isinstance(stmt, (ReduceAssign, DeferredAssign)):
        return [stmt.target, stmt.expr]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, Foreach):
        out: list[Expr] = [stmt.source.driver]
        if stmt.filter is not None:
            out.append(stmt.filter)
        return out
    if isinstance(stmt, Bfs):
        out = [stmt.source.driver, stmt.root]
        if stmt.filter is not None:
            out.append(stmt.filter)
        if stmt.reverse_filter is not None:
            out.append(stmt.reverse_filter)
        return out
    if isinstance(stmt, Return):
        return [stmt.expr] if stmt.expr is not None else []
    return []


def sub_blocks(stmt: Stmt) -> list[Block]:
    """The nested statement blocks of a statement."""
    if isinstance(stmt, If):
        return [stmt.then] + ([stmt.other] if stmt.other is not None else [])
    if isinstance(stmt, While):
        return [stmt.body]
    if isinstance(stmt, Foreach):
        return [stmt.body]
    if isinstance(stmt, Bfs):
        return [stmt.body] + ([stmt.reverse_body] if stmt.reverse_body is not None else [])
    if isinstance(stmt, Block):
        return [stmt]
    return []


# -- convenience constructors (used heavily by the transformation passes) ----


def ident(name: str, *, type: Type | None = None, span: Span = UNKNOWN_SPAN) -> Ident:
    return Ident(name, type=type, span=span)


def prop(target_name: str, prop_name: str, *, span: Span = UNKNOWN_SPAN) -> PropAccess:
    return PropAccess(Ident(target_name, span=span), prop_name, span=span)


def binop(op: BinOp, lhs: Expr, rhs: Expr) -> Binary:
    return Binary(op, lhs, rhs, span=lhs.span.merge(rhs.span))


def land(*terms: Expr) -> Expr:
    """Conjunction of one or more boolean expressions."""
    result = terms[0]
    for t in terms[1:]:
        result = binop(BinOp.AND, result, t)
    return result
