"""Shared-memory reference interpreter for Green-Marl.

Executes the *original* AST directly — group assignments, inline reductions,
``InBFS``/``InReverse``, deferred writes — without any of the compiler's
transformations.  It is the semantic oracle for the whole pipeline: for every
algorithm, ``interpret(source) == run(compile(source))`` is asserted by the
test suite (the paper's implicit correctness claim).

Value representation matches the Pregel backend exactly: nodes are integer
ids, ``NIL`` is -1, ``INF`` is ``float('inf')``, and edges are CSR positions
into the graph's out-edge arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..lang.ast import (
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
)
from ..lang import types as ty
from ..lang.errors import MissingArgument
from ..lang.parser import parse_procedure
from ..pregel.fold import IDENTITY, OF_REDUCE, GlobalOp, combine
from ..pregel.graph import Graph

INF = float("inf")
NIL = -1


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class InterpResult:
    outputs: dict[str, list]
    result: object
    props: dict[str, list] = field(repr=False, default_factory=dict)


@dataclass
class _BfsContext:
    """Active InBFS scope: the level array and the traversal iterator."""

    iterator: str
    levels: list
    current_level: int


class Interpreter:
    def __init__(self, proc: Procedure, graph: Graph, args: dict, *, seed: int = 17):
        self.proc = proc
        self.graph = graph
        self.rng = random.Random(seed)
        self.scalars: dict[str, object] = {}
        self.node_props: dict[str, list] = {}
        self.edge_props: dict[str, list] = dict(graph.edge_props)
        self.graph_name = ""
        #: iterator name -> (node id, edge position or None)
        self.iters: dict[str, tuple[int, int | None]] = {}
        self.bfs: _BfsContext | None = None
        self._deferred: list[tuple[list, int, object]] | None = None
        self._bind_params(args)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _bind_params(self, args: dict) -> None:
        for param in self.proc.params:
            ptype = param.param_type
            if ptype.is_graph():
                self.graph_name = param.name
            elif isinstance(ptype, ty.NodePropType):
                if param.name in args:
                    self.node_props[param.name] = list(args[param.name])
                elif param.name in self.graph.node_props:
                    self.node_props[param.name] = list(self.graph.node_props[param.name])
                else:
                    self.node_props[param.name] = [
                        ty.default_value(ptype.elem)
                    ] * self.graph.num_nodes
            elif isinstance(ptype, ty.EdgePropType):
                if param.name not in self.edge_props:
                    raise ValueError(f"graph is missing edge property '{param.name}'")
            else:
                if param.name in args:
                    self.scalars[param.name] = ty.check_scalar_arg(
                        param.name, ptype, args[param.name], self.graph.num_nodes
                    )
                elif not param.is_output:
                    raise MissingArgument(param.name)
                else:
                    self.scalars[param.name] = ty.default_value(ptype)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> InterpResult:
        result = None
        try:
            self.exec_block(self.proc.body)
        except _ReturnSignal as signal:
            result = signal.value
        outputs = {
            p.name: self.node_props[p.name]
            for p in self.proc.params
            if p.is_output and p.name in self.node_props
        }
        return InterpResult(outputs, result, dict(self.node_props))

    def exec_block(self, block: Block) -> None:
        for stmt in block.stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, VarDecl):
            self._exec_var_decl(stmt)
        elif isinstance(stmt, Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, ReduceAssign):
            self._exec_reduce_assign(stmt)
        elif isinstance(stmt, DeferredAssign):
            self._exec_deferred_assign(stmt)
        elif isinstance(stmt, If):
            if self.eval(stmt.cond):
                self.exec_block(stmt.then)
            elif stmt.other is not None:
                self.exec_block(stmt.other)
        elif isinstance(stmt, While):
            if stmt.do_while:
                while True:
                    self.exec_block(stmt.body)
                    if not self.eval(stmt.cond):
                        break
            else:
                while self.eval(stmt.cond):
                    self.exec_block(stmt.body)
        elif isinstance(stmt, Foreach):
            self._exec_foreach(stmt)
        elif isinstance(stmt, Bfs):
            self._exec_bfs(stmt)
        elif isinstance(stmt, Return):
            raise _ReturnSignal(self.eval(stmt.expr) if stmt.expr is not None else None)
        elif isinstance(stmt, Block):
            self.exec_block(stmt)
        else:
            raise TypeError(f"cannot interpret {type(stmt).__name__}")

    def _exec_var_decl(self, stmt: VarDecl) -> None:
        if isinstance(stmt.decl_type, ty.NodePropType):
            for name in stmt.names:
                self.node_props[name] = [
                    ty.default_value(stmt.decl_type.elem)
                ] * self.graph.num_nodes
        elif isinstance(stmt.decl_type, ty.EdgePropType):
            for name in stmt.names:
                self.edge_props[name] = [
                    ty.default_value(stmt.decl_type.elem)
                ] * self.graph.num_edges
        else:
            value = (
                self.eval(stmt.init)
                if stmt.init is not None
                else ty.default_value(stmt.decl_type)
            )
            for name in stmt.names:
                self.scalars[name] = value

    def _exec_assign(self, stmt: Assign) -> None:
        target = stmt.target
        if isinstance(target, Ident):
            self.scalars[target.name] = self.eval(stmt.expr)
            return
        assert isinstance(target, PropAccess) and isinstance(target.target, Ident)
        owner_name = target.target.name
        if owner_name == self.graph_name:
            # Group assignment: evaluate per node, with graph-prop reads
            # resolving to that node's values.
            column = self.node_props[target.prop]
            for v in range(self.graph.num_nodes):
                column[v] = self._eval_group(stmt.expr, v)
            return
        column, idx = self._prop_slot(target)
        column[idx] = self.eval(stmt.expr)

    def _exec_reduce_assign(self, stmt: ReduceAssign) -> None:
        target, op = stmt.target, OF_REDUCE[stmt.op.name]
        value = self.eval(stmt.expr)
        if isinstance(target, Ident):
            self.scalars[target.name] = combine(op, self.scalars[target.name], value)
            return
        column, idx = self._prop_slot(target)
        column[idx] = combine(op, column[idx], value)

    def _exec_deferred_assign(self, stmt: DeferredAssign) -> None:
        target = stmt.target
        assert isinstance(target, PropAccess)
        column, idx = self._prop_slot(target)
        value = self.eval(stmt.expr)
        if self._deferred is None:
            column[idx] = value
        else:
            self._deferred.append((column, idx, value))

    def _prop_slot(self, target: PropAccess) -> tuple[list, int]:
        assert isinstance(target.target, Ident)
        owner = self.lookup(target.target.name)
        if target.prop in self.node_props and not self._is_edge_value(target.target):
            return self.node_props[target.prop], owner
        return self.edge_props[target.prop], owner

    def _is_edge_value(self, ident: Ident) -> bool:
        return ident.type is not None and ident.type.is_edge()

    # -- loops --------------------------------------------------------------

    def _exec_foreach(self, stmt: Foreach) -> None:
        own_deferred = self._deferred is None
        if own_deferred and stmt.parallel:
            self._deferred = []
        try:
            for node, edge in self._iterate(stmt.source):
                self.iters[stmt.iterator] = (node, edge)
                if stmt.filter is not None and not self.eval(stmt.filter):
                    continue
                self.exec_block(stmt.body)
        finally:
            self.iters.pop(stmt.iterator, None)
            if own_deferred and stmt.parallel:
                for column, idx, value in self._deferred or []:
                    column[idx] = value
                self._deferred = None

    def _iterate(self, source):
        graph = self.graph
        if source.kind is IterKind.NODES:
            for v in range(graph.num_nodes):
                yield v, None
            return
        driver = source.driver
        assert isinstance(driver, Ident)
        v = self.lookup(driver.name)
        if source.kind is IterKind.NBRS:
            for pos in graph.out_edge_range(v):
                yield graph.out_targets[pos], pos
        elif source.kind is IterKind.IN_NBRS:
            start, end = graph.in_offsets[v], graph.in_offsets[v + 1]
            for i in range(start, end):
                yield graph.in_sources[i], graph.in_edge_ids[i]
        elif source.kind is IterKind.UP_NBRS:
            bfs = self._require_bfs(driver.name)
            for i in range(graph.in_offsets[v], graph.in_offsets[v + 1]):
                w = graph.in_sources[i]
                if bfs.levels[w] == bfs.levels[v] - 1:
                    yield w, graph.in_edge_ids[i]
        elif source.kind is IterKind.DOWN_NBRS:
            bfs = self._require_bfs(driver.name)
            for pos in graph.out_edge_range(v):
                w = graph.out_targets[pos]
                if bfs.levels[w] == bfs.levels[v] + 1:
                    yield w, pos
        else:
            raise ValueError(f"cannot iterate {source.kind}")

    def _require_bfs(self, name: str) -> _BfsContext:
        if self.bfs is None:
            raise ValueError("UpNbrs/DownNbrs outside an InBFS context")
        return self.bfs

    def _exec_bfs(self, stmt: Bfs) -> None:
        graph = self.graph
        root = self.eval(stmt.root)
        levels: list = [INF] * graph.num_nodes
        levels[root] = 0
        frontier = [root]
        order: list[list[int]] = [[root]]
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for w in graph.out_nbrs(v):
                    if levels[w] == INF:
                        levels[w] = levels[v] + 1
                        nxt.append(w)
            if nxt:
                order.append(nxt)
            frontier = nxt

        previous = self.bfs
        self.bfs = _BfsContext(stmt.iterator, levels, 0)
        try:
            for level, nodes in enumerate(order):
                self.bfs.current_level = level
                self._run_bfs_body(stmt.iterator, nodes, stmt.filter, stmt.body)
            if stmt.reverse_body is not None:
                for level in range(len(order) - 1, -1, -1):
                    self.bfs.current_level = level
                    self._run_bfs_body(
                        stmt.iterator, order[level], stmt.reverse_filter, stmt.reverse_body
                    )
        finally:
            self.bfs = previous

    def _run_bfs_body(self, iterator: str, nodes: list[int], filt, body: Block) -> None:
        own_deferred = self._deferred is None
        if own_deferred:
            self._deferred = []
        try:
            for v in nodes:
                self.iters[iterator] = (v, None)
                if filt is not None and not self.eval(filt):
                    continue
                self.exec_block(body)
        finally:
            self.iters.pop(iterator, None)
            if own_deferred:
                for column, idx, value in self._deferred or []:
                    column[idx] = value
                self._deferred = None

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def lookup(self, name: str):
        if name in self.iters:
            return self.iters[name][0]
        if name in self.scalars:
            return self.scalars[name]
        raise KeyError(f"undefined name '{name}'")

    def eval(self, expr: Expr):
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, FloatLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, NilLit):
            return NIL
        if isinstance(expr, InfLit):
            return -INF if expr.negative else INF
        if isinstance(expr, Ident):
            return self.lookup(expr.name)
        if isinstance(expr, PropAccess):
            return self._eval_prop(expr)
        if isinstance(expr, MethodCall):
            return self._eval_method(expr)
        if isinstance(expr, Unary):
            value = self.eval(expr.operand)
            if expr.op is UnOp.NEG:
                return -value
            if expr.op is UnOp.NOT:
                return not value
            return abs(value)
        if isinstance(expr, Binary):
            return self._eval_binary(expr)
        if isinstance(expr, Ternary):
            return self.eval(expr.then) if self.eval(expr.cond) else self.eval(expr.other)
        if isinstance(expr, Cast):
            value = self.eval(expr.operand)
            if isinstance(expr.to_type, ty.PrimType) and expr.to_type.is_integral():
                return int(value)
            if isinstance(expr.to_type, ty.PrimType) and expr.to_type.prim is ty.Prim.BOOL:
                return bool(value)
            return float(value)
        if isinstance(expr, ReduceExpr):
            return self._eval_reduce(expr)
        raise TypeError(f"cannot evaluate {type(expr).__name__}")

    def _eval_prop(self, expr: PropAccess):
        target = expr.target
        if isinstance(target, MethodCall) and target.name == "ToEdge":
            edge = self._eval_method(target)
            return self.edge_props[expr.prop][edge]
        assert isinstance(target, Ident)
        if target.type is not None and target.type.is_edge():
            return self.edge_props[expr.prop][self.lookup(target.name)]
        return self.node_props[expr.prop][self.lookup(target.name)]

    def _eval_method(self, expr: MethodCall):
        target = expr.target
        assert isinstance(target, Ident)
        if target.name == self.graph_name:
            if expr.name == "NumNodes":
                return self.graph.num_nodes
            if expr.name == "NumEdges":
                return self.graph.num_edges
            if expr.name == "PickRandom":
                return self.rng.randrange(self.graph.num_nodes)
            raise ValueError(f"unknown graph method '{expr.name}'")
        v = self.lookup(target.name)
        if expr.name in ("Degree", "OutDegree", "NumNbrs"):
            return self.graph.out_degree(v)
        if expr.name == "InDegree":
            return self.graph.in_degree(v)
        if expr.name == "Id":
            return v
        if expr.name == "ToEdge":
            entry = self.iters.get(target.name)
            if entry is None or entry[1] is None:
                raise ValueError("ToEdge() requires a neighborhood iterator")
            return entry[1]
        raise ValueError(f"unknown node method '{expr.name}'")

    def _eval_binary(self, expr: Binary):
        op = expr.op
        if op is BinOp.AND:
            return self.eval(expr.lhs) and self.eval(expr.rhs)
        if op is BinOp.OR:
            return self.eval(expr.lhs) or self.eval(expr.rhs)
        a = self.eval(expr.lhs)
        b = self.eval(expr.rhs)
        if op is BinOp.ADD:
            return a + b
        if op is BinOp.SUB:
            return a - b
        if op is BinOp.MUL:
            return a * b
        if op is BinOp.DIV:
            from ..codegen.executable import gm_div

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

    def _eval_reduce(self, expr: ReduceExpr):
        op = expr.op
        step = OF_REDUCE.get(op.name, GlobalOp.SUM)  # an Avg sums, then divides
        total, count = 0.0 if op is ReduceOp.AVG else IDENTITY[step], 0
        for node, edge in self._iterate(expr.source):
            self.iters[expr.iterator] = (node, edge)
            try:
                if op in (ReduceOp.ANY, ReduceOp.ALL):
                    total = combine(step, total, self.eval(expr.filter))  # predicate form
                    if bool(total) is (op is ReduceOp.ANY):
                        break  # decided
                    continue
                if expr.filter is not None and not self.eval(expr.filter):
                    continue
                value = 1 if op is ReduceOp.COUNT else self.eval(expr.body)
                total = combine(step, total, value)
                count += 1
            finally:
                self.iters.pop(expr.iterator, None)
        if op is ReduceOp.AVG:
            return 0.0 if count == 0 else total / count
        return total

    def _eval_group(self, expr: Expr, node: int):
        """Evaluate a group-assignment RHS for one node: graph-prop reads
        (``G.q``) resolve to that node's value."""
        if (
            isinstance(expr, PropAccess)
            and isinstance(expr.target, Ident)
            and expr.target.name == self.graph_name
        ):
            return self.node_props[expr.prop][node]
        if isinstance(expr, Binary):
            if expr.op is BinOp.AND:
                return self._eval_group(expr.lhs, node) and self._eval_group(
                    expr.rhs, node
                )
            if expr.op is BinOp.OR:
                return self._eval_group(expr.lhs, node) or self._eval_group(
                    expr.rhs, node
                )
            return self._apply_bin(
                expr.op, self._eval_group(expr.lhs, node), self._eval_group(expr.rhs, node)
            )
        if isinstance(expr, Unary):
            value = self._eval_group(expr.operand, node)
            if expr.op is UnOp.NEG:
                return -value
            if expr.op is UnOp.NOT:
                return not value
            return abs(value)
        if isinstance(expr, Ternary):
            return (
                self._eval_group(expr.then, node)
                if self._eval_group(expr.cond, node)
                else self._eval_group(expr.other, node)
            )
        if isinstance(expr, Cast):
            value = self._eval_group(expr.operand, node)
            if isinstance(expr.to_type, ty.PrimType) and expr.to_type.is_integral():
                return int(value)
            return float(value)
        return self.eval(expr)

    @staticmethod
    def _apply_bin(op: BinOp, a, b):
        from ..codegen.executable import gm_div

        table = {
            BinOp.ADD: lambda: a + b,
            BinOp.SUB: lambda: a - b,
            BinOp.MUL: lambda: a * b,
            BinOp.DIV: lambda: gm_div(a, b),
            BinOp.MOD: lambda: a % b,
            BinOp.EQ: lambda: a == b,
            BinOp.NEQ: lambda: a != b,
            BinOp.LT: lambda: a < b,
            BinOp.GT: lambda: a > b,
            BinOp.LE: lambda: a <= b,
            BinOp.GE: lambda: a >= b,
        }
        return table[op]()


def interpret(
    source_or_proc: str | Procedure,
    graph: Graph,
    args: dict | None = None,
    *,
    seed: int = 17,
) -> InterpResult:
    """Run a Green-Marl procedure under shared-memory semantics."""
    if isinstance(source_or_proc, str):
        proc = parse_procedure(source_or_proc)
    else:
        proc = source_or_proc
    from ..lang.typecheck import typecheck

    typecheck(proc)
    return Interpreter(proc, graph, dict(args or {}), seed=seed).run()
