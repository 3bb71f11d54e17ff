"""Loop-nest classification.

Given an outer vertex-parallel loop and a nested neighborhood loop, this
module decides whether the inner loop is a *push* (writes its own iterator's
properties — directly translatable as Neighborhood Communication, §3.1) or a
*pull* (updates outer-loop-scoped state — requiring Dissection and
Edge-Flipping, §4.1), and inventories the global reductions it performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..lang.ast import (
    Assign,
    Block,
    DeferredAssign,
    Foreach,
    Ident,
    If,
    IterKind,
    Procedure,
    PropAccess,
    ReduceAssign,
    Stmt,
    VarDecl,
)
from ..lang.errors import TransformError
from .access import AccessKind, declared_names, lvalue_access


@dataclass
class InnerLoopReport:
    """Write-set classification of one inner neighborhood loop."""

    loop: Foreach
    #: writes to ``t.prop`` where t is the inner iterator (push form)
    inner_prop_writes: list[str] = field(default_factory=list)
    #: writes to ``n.prop`` where n is the outer iterator (pull form)
    outer_prop_writes: list[str] = field(default_factory=list)
    #: reduce-writes to scalars declared in the outer loop body (pull form)
    outer_scalar_writes: list[str] = field(default_factory=list)
    #: reduce-writes to procedure-level scalars (global-object reductions)
    global_scalar_writes: list[str] = field(default_factory=list)
    #: writes through node variables that are neither iterator (random writes)
    random_writes: list[str] = field(default_factory=list)
    #: scalar names declared inside the inner loop body itself
    local_names: set[str] = field(default_factory=set)

    @property
    def is_pull(self) -> bool:
        return bool(self.outer_prop_writes or self.outer_scalar_writes)

    @property
    def is_push(self) -> bool:
        return bool(self.inner_prop_writes)

    @property
    def is_mixed(self) -> bool:
        return self.is_pull and self.is_push


def find_inner_loops(outer: Foreach) -> list[Foreach]:
    """Neighborhood loops nested directly in ``outer`` (descending through If
    arms but not through further loops)."""
    found: list[Foreach] = []
    _find_inner_loops(outer.body, found)
    return found


def _find_inner_loops(block: Block, found: list[Foreach]) -> None:
    for stmt in block.stmts:
        if isinstance(stmt, Foreach):
            found.append(stmt)
        elif isinstance(stmt, If):
            _find_inner_loops(stmt.then, found)
            if stmt.other is not None:
                _find_inner_loops(stmt.other, found)
        elif isinstance(stmt, Block):
            _find_inner_loops(stmt, found)


def classify_inner_loop(outer: Foreach, inner: Foreach) -> InnerLoopReport:
    """Classify every write of ``inner``'s body relative to the nest scopes."""
    if inner.source.kind is IterKind.NODES:
        raise TransformError(
            "nested parallel iteration over all nodes is not Pregel-compatible",
            inner.span,
        )
    report = InnerLoopReport(inner)
    report.local_names = declared_names(inner.body)
    outer_locals = declared_names(outer.body)
    _classify_block(inner.body, outer, inner, outer_locals, report)
    return report


def _classify_block(
    block: Block,
    outer: Foreach,
    inner: Foreach,
    outer_locals: set[str],
    report: InnerLoopReport,
) -> None:
    for stmt in block.stmts:
        if isinstance(stmt, (Assign, ReduceAssign, DeferredAssign)):
            _classify_write(stmt, outer, inner, outer_locals, report)
        elif isinstance(stmt, If):
            _classify_block(stmt.then, outer, inner, outer_locals, report)
            if stmt.other is not None:
                _classify_block(stmt.other, outer, inner, outer_locals, report)
        elif isinstance(stmt, VarDecl):
            pass
        elif isinstance(stmt, Block):
            _classify_block(stmt, outer, inner, outer_locals, report)
        elif isinstance(stmt, Foreach):
            raise TransformError(
                "parallel loops may be nested at most two levels deep (§3.2)",
                stmt.span,
            )
        else:
            raise TransformError(
                f"{type(stmt).__name__} is not allowed inside a neighborhood loop",
                stmt.span,
            )


def _classify_write(
    stmt: Stmt,
    outer: Foreach,
    inner: Foreach,
    outer_locals: set[str],
    report: InnerLoopReport,
) -> None:
    assert isinstance(stmt, (Assign, ReduceAssign, DeferredAssign))
    access = lvalue_access(stmt.target)
    if access.kind in (AccessKind.PROP,):
        if access.var == inner.iterator:
            report.inner_prop_writes.append(access.member or "")
        elif access.var == outer.iterator:
            report.outer_prop_writes.append(access.member or "")
        else:
            report.random_writes.append(access.var)
    elif access.kind is AccessKind.EDGE_PROP:
        raise TransformError(
            "writing edge properties inside neighborhood loops is not supported",
            stmt.span,
        )
    else:  # scalar
        name = access.var
        if name in report.local_names:
            return
        if isinstance(stmt, Assign):
            raise TransformError(
                f"plain assignment to non-local scalar '{name}' inside a parallel "
                "loop is a race; use a reduction assignment",
                stmt.span,
            )
        if name in outer_locals:
            report.outer_scalar_writes.append(name)
        else:
            report.global_scalar_writes.append(name)


def refuse_racing_writes(proc: Procedure) -> None:
    """Refuse a vertex-parallel loop in which a plain ``=`` writes one
    property of a vertex other than the loop's own iterator — through a
    neighbour iterator (a push) or a node variable (a random write) — from
    two or more sites.  At one site the sequentially last writer wins, and
    the compiled program keeps that order in its one message tag; two sites
    send two tags, which a receiver folds one after the other, so no single
    order of the writes is kept.  Reductions and a single site stay legal."""
    for outer in _statements(proc.body):
        if not (
            isinstance(outer, Foreach)
            and outer.parallel
            and outer.source.kind is IterKind.NODES
        ):
            continue
        first: dict[str, Assign] = {}
        for stmt in _statements(outer.body):
            if not (isinstance(stmt, Assign) and isinstance(stmt.target, PropAccess)):
                continue
            vertex = stmt.target.target
            if not (
                isinstance(vertex, Ident)
                and vertex.name != outer.iterator
                and vertex.type is not None
                and vertex.type.is_node()
            ):
                continue
            prop = stmt.target.prop
            site = first.setdefault(prop, stmt)
            if site is not stmt:
                raise TransformError(
                    f"property '{prop}' of another vertex is assigned at {site.span} "
                    f"and at {stmt.span} in one parallel loop: which write wins is "
                    "not defined; assign it from one site, or use a reduction",
                    stmt.span,
                )


def _statements(stmt: Stmt) -> Iterator[Stmt]:
    """``stmt`` and the statements nested in it, in source order (the
    expressions are not visited)."""
    yield stmt
    for child in stmt.children():
        if isinstance(child, Stmt):
            yield from _statements(child)
