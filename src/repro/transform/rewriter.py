"""Shared utilities for Green-Marl→Green-Marl rewrites.

Provides fresh-name generation, deep cloning, and targeted substitution of
identifiers / property accesses — the moves every transformation pass in the
paper (§4.1) is built from.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..lang.ast import (
    AstNode,
    Expr,
    Ident,
    Procedure,
    PropAccess,
    map_expr,
    walk,
)


@dataclass
class NameGenerator:
    """Generates compiler-temporary names that cannot collide with user names
    (user identifiers never contain ``$``-free double underscores prefixed by
    ``_gm``)."""

    counter: int = 0
    used: set[str] = field(default_factory=set)

    @staticmethod
    def for_procedure(proc: Procedure) -> "NameGenerator":
        gen = NameGenerator()
        for node in walk(proc):
            if isinstance(node, Ident):
                gen.used.add(node.name)
            if isinstance(node, PropAccess):
                gen.used.add(node.prop)
        for param in proc.params:
            gen.used.add(param.name)
        return gen

    def fresh(self, hint: str = "t") -> str:
        while True:
            name = f"_gm_{hint}{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return name


def clone(node: AstNode) -> AstNode:
    """Deep-copy an AST subtree (spans and types are preserved)."""
    return copy.deepcopy(node)


def clone_expr(expr: Expr) -> Expr:
    out = copy.deepcopy(expr)
    assert isinstance(out, Expr)
    return out


def substitute_ident(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every free occurrence of identifier ``name`` in ``expr`` with a
    clone of ``replacement``.  (The Green-Marl subset has no shadowing inside a
    single expression, so plain textual substitution is sound here.)"""

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, Ident) and e.name == name:
            return clone_expr(replacement)
        return e

    return map_expr(expr, rewrite)


def rewrite_exprs_in_block(block: "ast_mod.Block", fn) -> None:
    """Apply ``fn`` (a :func:`map_expr` callback) to every expression in every
    statement of ``block``, recursively — including assignment targets,
    conditions, filters and iteration drivers."""
    from ..lang import ast as ast_mod

    for stmt in block.stmts:
        if isinstance(stmt, ast_mod.VarDecl):
            if stmt.init is not None:
                stmt.init = map_expr(stmt.init, fn)
        elif isinstance(stmt, (ast_mod.Assign, ast_mod.ReduceAssign, ast_mod.DeferredAssign)):
            stmt.target = map_expr(stmt.target, fn)
            stmt.expr = map_expr(stmt.expr, fn)
        elif isinstance(stmt, ast_mod.If):
            stmt.cond = map_expr(stmt.cond, fn)
            rewrite_exprs_in_block(stmt.then, fn)
            if stmt.other is not None:
                rewrite_exprs_in_block(stmt.other, fn)
        elif isinstance(stmt, ast_mod.While):
            stmt.cond = map_expr(stmt.cond, fn)
            rewrite_exprs_in_block(stmt.body, fn)
        elif isinstance(stmt, ast_mod.Foreach):
            stmt.source.driver = map_expr(stmt.source.driver, fn)
            if stmt.filter is not None:
                stmt.filter = map_expr(stmt.filter, fn)
            rewrite_exprs_in_block(stmt.body, fn)
        elif isinstance(stmt, ast_mod.Bfs):
            stmt.source.driver = map_expr(stmt.source.driver, fn)
            stmt.root = map_expr(stmt.root, fn)
            if stmt.filter is not None:
                stmt.filter = map_expr(stmt.filter, fn)
            rewrite_exprs_in_block(stmt.body, fn)
            if stmt.reverse_filter is not None:
                stmt.reverse_filter = map_expr(stmt.reverse_filter, fn)
            if stmt.reverse_body is not None:
                rewrite_exprs_in_block(stmt.reverse_body, fn)
        elif isinstance(stmt, ast_mod.Return):
            if stmt.expr is not None:
                stmt.expr = map_expr(stmt.expr, fn)
        elif isinstance(stmt, ast_mod.Block):
            rewrite_exprs_in_block(stmt, fn)
