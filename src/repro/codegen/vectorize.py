"""Array code for the columnar data plane: bulk receivers and phase kernels.

The generated vertex program runs one Python call per vertex per
superstep.  On the columnar slab engine, and in every ``mp`` worker,
this module replaces that with numpy code over zero-copy
``np.frombuffer`` views of the existing ``array.array`` property columns
(storage does not change — scalar phases keep indexing native Python
scalars out of the same buffers):

* a **bulk receive handler** per ``(phase state, tag)`` consumes a whole
  per-tag slab at the delivery barrier.  Recognition lowers the receive
  loop, statement by statement, to a short list of named ops
  (``_lower_loop``); one emitter compiles the list into the handler —
  decode the payload columns the ops read, once, then run the ops
  (``_emit_handler``); the decision record carries the op names;
* a **phase kernel** per phase state runs the phase's filter + compute
  body as one array program over all vertices: column arithmetic for the
  vertex-local statements, one ordered fold per ``put_global``, and one
  bulk staging call per send — a neighbour send in either direction (CSR
  gather, the payload evaluated once per sender, or once per edge when it
  reads an edge property) or a random write (one record per sender, to
  the vertex a column expression names).

Bit-parity with the simulator is the hard constraint.  A slab holds the
records in delivery order — ascending sender, each sender's in send
order — and the ops apply one after the other over the whole slab, each
evaluating guards and values against pre-delivery column state.  That is
the simulator's message-at-a-time interleaving when the fields the loops
of a phase *write* are pairwise distinct and disjoint from the fields
its receive statements *read* (two reads, below, are exempt), and when
each op is its statement's closed form:

* ``ScatterReduce`` — ``[if guard:] f op= value`` (``SUM``/``PRODUCT``/
  ``MIN``/``MAX``, ``OR``/``AND`` into a Bool column): ``fold_at``
  (``repro.pregel.fold``) folds in index order, the fold order of the
  per-message loop for any single receiver.  A float ``SUM``/``PRODUCT``
  observes that order; nothing else does;
* ``ImproveFlag`` — ``g |= e < f; f min= e`` (``_improve_flag``; the first
  exempt read): the scalar loop compares each message against a running
  minimum, but ∃i: eᵢ < min(f₀, e₁..eᵢ₋₁)  ⇔  minᵢ eᵢ < f₀, so the flag
  is "the reduce moved ``f``" and needs only ``f`` before and after;
* ``Select(first|last)`` — ``[if guard:] field = value; ...; put(global,
  op, value)``, where the guard reads no message, nothing can raise, no
  value reads a field the block assigns and every put is idempotent and
  message-free (``and``/``or``/``min``/``max``/overwrite; ``sum`` and
  ``product`` count the firings and are refused): one record per receiver
  whose guard holds before delivery, one masked store, one bulk put over
  the ascending hits and none at all when nobody hits.  If no store reads
  the message it is the **first** record — every further firing stores
  the same values and puts the same contribution, whether or not the
  block switched its own guard off, so the guard may read what its block
  assigns (the second exempt read; BFS discovery: ``if lev == INF: lev =
  curr + 1; fin &= False``) and any record will do.  If one does and the
  guard reads nothing the block assigns, every record of a receiver fires
  or none and the **last** writer wins (bipartite matching: ``if match ==
  NIL: suitor = m.b``) — the last of the stable sort by receiver, which
  observes delivery order; an integer column takes a bare message slot
  only, so no earlier record can fail where the last one fits.  A
  message-valued store under a guard that reads its own block's fields is
  first-writer-wins only given a proof that the store switches the guard
  off, and stays scalar;
* ``RowAppend`` — the §4.3 build, ``_in_nbrs[v].append(sender id)``: the
  same sort, one ``extend`` per receiver's run; observes delivery order.
  An in-direction send (``send_list(_in_nbrs[v], msg)``) is then the
  out-direction gather over different rows: the engine's ``NbrGather``
  re-derived over the ``_in_nbrs`` lists the first time such a send runs —
  by then the prologue has delivered — and dropped whenever a
  ``RowAppend`` runs.  The rows themselves stay the list-of-lists every
  scalar path indexes, and the prologue's messages stay sent and counted:
  a Pregel vertex learns its in-neighbours from them, never from the
  graph's in-CSR.

On either side of the wire and in the kernels:

* an INF-sentinel ``'i'`` wire slot is decoded to doubles (every int32 is
  exact in one, and such a program's Int columns are ``'d'`` already)
  and encoded with the scalar packer's checks and errors; where Python
  ints and doubles part ways — ``*``, ``/``, ``%`` on a decoded value,
  64-bit sentinel slots — the scalar path stays;
* a phase becomes a kernel only when its receive part is empty or bulk
  and its compute body is straight-line vertex-local code: statement-at-
  a-time over all vertices then equals vertex-at-a-time, *except* where
  order shows — so at most one ``put_global`` per global name and one
  send per tag per phase are accepted (ascending-vid order of the one
  statement is the simulator's order) and every put is one ``fold`` of
  its array, the chain a vertex loop's puts make;
* guarded code is evaluated only over its mask (``VIf``, ``Cond``, the
  right operand of a hazardous ``and``/``or``, and a send's payload over
  the vertices that send), so a guard still protects a division; an
  *unguarded* division by zero raises as the scalar path does instead of
  yielding ``inf``; int64 arithmetic that would wrap continues on Python
  integers, and fails — like the scalar path — only when such a value is
  stored into an ``array('q')`` column or a wire slot.

Anything outside those rules leaves the receive loop, or the whole
phase, on the scalar path, and the decision record names the construct
(``guarded assign of a message value``, ``sum put inside a receive
loop``, ``more than one send on tag 1``, ...).  Both kinds of array code
engage on the columnar slab engine and in the ``mp`` workers, each of
which compiles them against its fork of that engine and runs a kernel
over its partition (the kernel's initial selection) and a handler over
the records its peers sent it.
"""

from __future__ import annotations

import operator
from array import array
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import numpy as _np

from ..lang.ast import BinOp, UnOp
from ..lang import types as ty
from ..pregel.backend.codec import slot_range, wire_integral_error, wire_range_error
from ..pregel.fold import GlobalOp, combine_each, fold_at
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
    MsgField,
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
    walk_stmts,
)


__all__ = ["build_array_code"]

# struct slot code -> numpy field dtype (packed, little-endian)
_SLOT_DTYPES = {"?": "u1", "i": "<i4", "q": "<i8", "d": "<f8"}
# array.array column typecode -> numpy view dtype
_COLUMN_DTYPES = {"b": "i1", "q": "<i8", "d": "<f8"}

_COMPARE = {
    BinOp.EQ: operator.eq,
    BinOp.NEQ: operator.ne,
    BinOp.LT: operator.lt,
    BinOp.GT: operator.gt,
    BinOp.LE: operator.le,
    BinOp.GE: operator.ge,
}

_INT64_LIMIT = 2**63


class _Unvectorizable(Exception):
    """Raised while analysing code that must stay on the scalar path."""


# ---------------------------------------------------------------------------
# Arithmetic with the scalar path's semantics
# ---------------------------------------------------------------------------


def _integral(x: Any) -> bool:
    if isinstance(x, bool):
        return False
    if isinstance(x, (int, _np.integer)):
        return True
    return isinstance(x, _np.ndarray) and x.dtype.kind in "iu"


def _num(x: Any) -> Any:
    """Booleans as the integers Python arithmetic takes them for."""
    if isinstance(x, _np.ndarray):
        return x.astype(_np.int64) if x.dtype.kind == "b" else x
    return int(x) if isinstance(x, (bool, _np.bool_)) else x


def _absmax(x: Any) -> int:
    if isinstance(x, _np.ndarray):
        return max(abs(int(x.max())), abs(int(x.min()))) if x.size else 0
    return abs(int(x))


def _exact(fn: Callable, bound: Callable[[int, int], int]) -> Callable:
    """An integer operation that never wraps.  When the operands are large
    enough for int64 to overflow (``bound`` of their magnitudes reaches
    2**63), redo it on Python integers — an object array, which numpy then
    keeps evaluating with Python semantics element by element.  Like the
    scalar path, nothing fails until such a value is *stored*: an
    ``array('q')`` column raises ``OverflowError``, a wire slot
    ``ValueError``, a global put or a float column just takes it."""

    def op(a, b):
        a, b = _num(a), _num(b)
        if (
            (isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray))
            and _integral(a)
            and _integral(b)
            and bound(_absmax(a), _absmax(b)) >= _INT64_LIMIT
        ):
            exact = fn(_np.asarray(a, dtype=object), _np.asarray(b, dtype=object))
            try:
                return exact.astype(_np.int64)
            except OverflowError:
                return exact
        return fn(a, b)

    return op


_ARITH = {
    BinOp.ADD: _exact(operator.add, operator.add),
    BinOp.SUB: _exact(operator.sub, operator.add),
    BinOp.MUL: _exact(operator.mul, operator.mul),
}
_exact_mod = _exact(operator.mod, max)


def _signed(x: Any) -> Any:
    """``x`` ready for ``-x`` / ``abs(x)``: int64 cannot negate its minimum."""
    x = _num(x)
    if isinstance(x, _np.ndarray) and x.dtype.kind == "i" and _absmax(x) >= _INT64_LIMIT:
        return x.astype(object)
    return x


def _vec_mod(a: Any, b: Any) -> Any:
    if not _np.all(b):
        raise ZeroDivisionError("modulo by zero")
    return _exact_mod(a, b)


def _scalar_gm_div(a: Any, b: Any) -> Any:
    if _integral(a) and _integral(b):
        a, b = int(a), int(b)
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _vec_gm_div(a: Any, b: Any) -> Any:
    """Vectorized Green-Marl division (Int/Int truncates toward zero)."""
    if not _np.all(b):
        raise ZeroDivisionError("division by zero")
    arrays = [x for x in (a, b) if isinstance(x, _np.ndarray)]
    if not arrays:
        return _scalar_gm_div(a, b)
    if any(x.dtype.kind == "O" for x in arrays):
        # Python values (see _exact): each element divides by its own type
        return _np.frompyfunc(_scalar_gm_div, 2, 1)(a, b)
    if _integral(a) and _integral(b):
        if max(_absmax(a), _absmax(b)) >= _INT64_LIMIT:
            return _vec_gm_div(_np.asarray(a, dtype=object), b)
        q = _np.abs(a) // _np.abs(b)
        return _np.where(_np.equal(_np.greater_equal(a, 0), _np.greater_equal(b, 0)), q, -q)
    return _np.true_divide(a, b)


def _truth(x: Any) -> Any:
    """Python truthiness of a condition value, element-wise."""
    if isinstance(x, _np.ndarray):
        return x if x.dtype.kind == "b" else x != 0
    return bool(x)


# ---------------------------------------------------------------------------
# Expression compilation (tree -> closure over a per-call context)
# ---------------------------------------------------------------------------
#
# A context is a dict:
#   "sel" - the vertex ids this evaluation ranges over: an index array (a
#           receive handler's destination array, duplicates included, or a
#           kernel's ascending selection), or None for "every vertex"
#   "msg" - {slot index: decoded payload column}, aligned with sel
#           (receive handlers only)
#   "loc" - {name: value} compute-function locals, arrays dense over all
#           vertices (kernels only)
#   "edges" - inside a per-edge send payload only: the CSR position of the
#           out-edge each evaluation point stands for; sel then holds that
#           edge's sender, so vertex-side reads need no other code
#   "improved" - {field: per-message bool} outcomes of watched MIN/MAX
#           reduces (receive handlers only; see _improve_flag)


_REVERSE_GATHER = ("gather", "in")  # never a column name: those are str


class _Scope:
    """What one phase's compiled closures close over, and what analysing
    them collects.  ``graph`` marks a compute scope (a kernel's filter +
    compute body); without it the scope is a receive loop's, where locals
    and the other compute-only expression forms are refused.  ``shared``
    caches column views and degree arrays across a program's phases."""

    def __init__(self, columns: dict, broadcast: dict, shared: dict, graph=None):
        self.columns = columns
        self.broadcast = broadcast
        self.graph = graph
        self._shared = shared
        self.reads: set = set()
        self.msg_used: set = set()
        #: slot index -> SlotSchema of the message loop being analysed
        self.msg_slots: dict = {}
        #: named idioms the analysis leaned on, for the decision record
        self.idioms: list = []
        #: local name -> static kind (compute scopes only)
        self.local_kinds: Optional[Dict[str, Optional[str]]] = (
            {} if graph is not None else None
        )

    def view(self, name: str):
        view = self._shared.get(name)
        if view is None:
            col = self.columns.get(name)
            if not isinstance(col, array):
                raise _Unvectorizable(f"column {name} is not a typed array")
            dtype = _COLUMN_DTYPES.get(col.typecode)
            if dtype is None:
                raise _Unvectorizable(f"column {name} typecode {col.typecode}")
            view = self._shared[name] = _np.frombuffer(col, dtype=dtype)
        return view

    def degrees(self, direction: str):
        key = ("degrees", direction)  # never a column name: those are str
        deg = self._shared.get(key)
        if deg is None:
            offsets = self.graph.out_offsets if direction == "out" else self.graph.in_offsets
            deg = self._shared[key] = _np.diff(_np.asarray(offsets, dtype=_np.int64))
        return deg

    def reverse_gather(self, forward):
        """The gather over the ``_in_nbrs`` rows, under the placement of
        ``forward`` (the engine's out-direction gather): derived when an
        in-direction send first asks, i.e. after the prologue delivered."""
        gather = self._shared.get(_REVERSE_GATHER)
        if gather is None:
            gather = forward.over_rows(self.columns["_in_nbrs"])
            self._shared[_REVERSE_GATHER] = gather
        return gather

    def drop_reverse_gather(self) -> None:
        """The rows are about to change: the next send derives anew."""
        self._shared.pop(_REVERSE_GATHER, None)

    def named(self, outcome: str) -> str:
        """``outcome`` with the idioms it took, for the decision record."""
        idioms = sorted(set(self.idioms))
        return outcome + (f" ({', '.join(idioms)})" if idioms else "")

    def edge_prop(self, name: str):
        """An edge property as an array in CSR order — a view of the graph's
        typed buffer — once per engine, if some kernel's send payload reads it."""
        key = ("edge_prop", name)
        values = self._shared.get(key)
        if values is None:
            values = _np.asarray(self.graph.edge_props[name])
            if values.dtype.kind not in "bif":
                raise _Unvectorizable(f"edge property {name} is not a numeric array")
            self._shared[key] = values
        return values


def _read(view, sel):
    """``column[sel]`` as a fresh array (a local must not alias a column a
    later statement overwrites).  Bool columns read as the Python ints
    array('b') yields, wide enough that arithmetic cannot wrap at 8 bits."""
    values = view.copy() if sel is None else view[sel]
    return values.astype(_np.int64) if view.dtype.itemsize == 1 else values


def _narrow(ctx: dict, mask) -> dict:
    """The context restricted to the positions where ``mask`` holds."""
    sel = ctx["sel"]
    sub = dict(ctx)
    sub["sel"] = _np.flatnonzero(mask) if sel is None else sel[mask]
    if ctx["msg"]:
        sub["msg"] = {i: v[mask] for i, v in ctx["msg"].items()}
    if "edges" in ctx:
        sub["edges"] = ctx["edges"][mask]
    return sub


def _subexprs(e: VExpr):
    """``e`` and every expression nested in it."""
    yield e
    for attr in ("lhs", "rhs", "operand", "cond", "then", "other"):
        child = getattr(e, attr, None)
        if isinstance(child, VExpr):
            yield from _subexprs(child)


def _hazardous(e: VExpr) -> bool:
    """Whether evaluating ``e`` can raise (so a guard must keep guarding)."""
    if isinstance(e, Bin):
        return e.op in (BinOp.DIV, BinOp.MOD) or _hazardous(e.lhs) or _hazardous(e.rhs)
    if isinstance(e, (Un, CastTo)):
        return _hazardous(e.operand)
    if isinstance(e, Cond):
        return _hazardous(e.cond) or _hazardous(e.then) or _hazardous(e.other)
    return False


def _compile_short_circuit(e: Bin, scope: _Scope) -> Callable[[dict], Any]:
    lhs = _compile_expr(e.lhs, scope)
    rhs = _compile_expr(e.rhs, scope)
    is_and = e.op is BinOp.AND
    if not _hazardous(e.rhs):
        fn = _np.logical_and if is_and else _np.logical_or
        return lambda ctx: fn(lhs(ctx), rhs(ctx))

    def lazy(ctx):
        left = _truth(lhs(ctx))
        if not isinstance(left, _np.ndarray):
            return _truth(rhs(ctx)) if left == is_and else left
        # the right operand is needed only where the left one leaves the
        # outcome open: true positions for `and`, false ones for `or`
        undecided = left if is_and else ~left
        out = left.copy()
        if undecided.any():
            out[undecided] = _truth(rhs(_narrow(ctx, undecided)))
        return out

    return lazy


def _compile_cond(e: Cond, scope: _Scope) -> Callable[[dict], Any]:
    cond = _compile_expr(e.cond, scope)
    then = _compile_expr(e.then, scope)
    other = _compile_expr(e.other, scope)

    def select(ctx):
        mask = _truth(cond(ctx))
        if not isinstance(mask, _np.ndarray):
            return then(ctx) if mask else other(ctx)
        # each branch is evaluated only over the vertices that take it
        parts = []
        for branch, m in ((then, mask), (other, ~mask)):
            parts.append(_np.asarray(branch(_narrow(ctx, m))) if m.any() else None)
        dtype = _np.result_type(*[p.dtype for p in parts if p is not None])
        out = _np.empty(len(mask), dtype=dtype)
        for part, m in zip(parts, (mask, ~mask)):
            if part is not None:
                out[m] = part
        return out

    return select


def _compile_expr(e: VExpr, scope: _Scope) -> Callable[[dict], Any]:
    if isinstance(e, Lit):
        value = e.value
        return lambda ctx: value
    if isinstance(e, Inf):
        value = -INF_VALUE if e.negative else INF_VALUE
        return lambda ctx: value
    if isinstance(e, Nil):
        return lambda ctx: NIL_NODE
    if isinstance(e, GlobalGet):
        name, broadcast = e.name, scope.broadcast
        return lambda ctx: broadcast[name]
    if isinstance(e, Field):
        scope.reads.add(e.name)
        view = scope.view(e.name)
        return lambda ctx: _read(view, ctx["sel"])
    if isinstance(e, MsgField):
        if scope.local_kinds is not None:
            raise _Unvectorizable("message field outside a receive loop")
        index = e.index
        scope.msg_used.add(index)
        return lambda ctx: ctx["msg"][index]
    if isinstance(e, MyId):
        n = scope.graph.num_nodes if scope.graph is not None else 0
        return lambda ctx: _np.arange(n, dtype=_np.int64) if ctx["sel"] is None else ctx["sel"]
    if isinstance(e, Bin):
        if e.op in (BinOp.AND, BinOp.OR):
            return _compile_short_circuit(e, scope)
        if e.op in (BinOp.MUL, BinOp.DIV, BinOp.MOD) and any(
            isinstance(sub, MsgField)
            and getattr(scope.msg_slots.get(sub.index), "inf_sentinel", False)
            for sub in _subexprs(e)
        ):
            # the slot decodes to doubles; only where int and float agree
            # (compare, add, subtract, fold into a double column) may it go
            raise _Unvectorizable("integer arithmetic on an INF-sentinel payload")
        lhs = _compile_expr(e.lhs, scope)
        rhs = _compile_expr(e.rhs, scope)
        if e.op is BinOp.DIV:
            return lambda ctx: _vec_gm_div(lhs(ctx), rhs(ctx))
        if e.op is BinOp.MOD:
            return lambda ctx: _vec_mod(lhs(ctx), rhs(ctx))
        fn = _ARITH.get(e.op) or _COMPARE.get(e.op)
        if fn is None:
            raise _Unvectorizable(f"binary op {e.op}")
        return lambda ctx: fn(lhs(ctx), rhs(ctx))
    if isinstance(e, Un):
        operand = _compile_expr(e.operand, scope)
        if e.op is UnOp.NEG:
            return lambda ctx: -_signed(operand(ctx))
        if e.op is UnOp.NOT:
            return lambda ctx: _np.logical_not(operand(ctx))
        return lambda ctx: abs(_signed(operand(ctx)))
    if scope.local_kinds is None:  # the rest, only a phase's compute body may use
        raise _Unvectorizable(f"expression {type(e).__name__}")
    if isinstance(e, Local):
        name = e.name
        if name not in scope.local_kinds:
            raise _Unvectorizable(f"local {name} read before assignment")

        def read_local(ctx):
            value, sel = ctx["loc"][name], ctx["sel"]
            return value[sel] if sel is not None and isinstance(value, _np.ndarray) else value

        return read_local
    if isinstance(e, Cond):
        return _compile_cond(e, scope)
    if isinstance(e, CastTo):
        operand = _compile_expr(e.operand, scope)
        if isinstance(e.to_type, ty.PrimType) and e.to_type.is_integral():
            # int() raises on inf/nan and yields unbounded ints
            raise _Unvectorizable("integer cast")
        if isinstance(e.to_type, ty.PrimType) and e.to_type.prim is ty.Prim.BOOL:
            return lambda ctx: _truth(operand(ctx))

        def to_float(ctx):
            value = operand(ctx)
            return value.astype(_np.float64) if isinstance(value, _np.ndarray) else float(value)

        return to_float
    if isinstance(e, Call):
        if e.name in ("out_degree", "in_degree"):
            deg = scope.degrees("out" if e.name == "out_degree" else "in")
            return lambda ctx: deg.copy() if ctx["sel"] is None else deg[ctx["sel"]]
        if e.name in ("num_nodes", "num_edges"):
            value = scope.graph.num_nodes if e.name == "num_nodes" else scope.graph.num_edges
            return lambda ctx: value
        if e.name == "edge_prop":
            # only a send payload holds one; it is evaluated on the edge axis
            values = scope.edge_prop(e.args[0])
            return lambda ctx: values[ctx["edges"]]
        raise _Unvectorizable(f"builtin {e.name}")
    raise _Unvectorizable(f"expression {type(e).__name__}")


def _expr_kind(e: VExpr, scope: _Scope) -> Optional[str]:
    """Statically classify an expression as integral ('i'), float ('f'),
    or unknown (None) — used to refuse float values where the scalar
    path's typed store would raise, and int/float-mixed conditionals.
    Booleans count as integral: the type checker keeps them out of
    arithmetic, so nothing here depends on telling them from ints."""
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "i"
        return "i" if isinstance(e.value, int) else "f"
    if isinstance(e, Inf):
        return "f"
    if isinstance(e, Field):
        col = scope.columns.get(e.name)
        code = col.typecode if isinstance(col, array) else None
        return {"b": "i", "q": "i", "d": "f"}.get(code)
    if isinstance(e, MsgField):
        slot = scope.msg_slots.get(e.index)
        if slot is None or slot.inf_sentinel:
            return None  # a sentinel slot's value is an int or ±INF
        return "f" if slot.code == "d" else "i"
    if isinstance(e, (MyId, Nil)):
        return "i"
    if isinstance(e, Local):
        return (scope.local_kinds or {}).get(e.name)
    if isinstance(e, Call):
        if e.name == "edge_prop":
            return "f" if scope.edge_prop(e.args[0]).dtype.kind == "f" else "i"
        return "i"
    if isinstance(e, CastTo):
        if isinstance(e.to_type, ty.PrimType) and e.to_type.prim in (ty.Prim.FLOAT, ty.Prim.DOUBLE):
            return "f"
        return "i"
    if isinstance(e, Cond):
        then = _expr_kind(e.then, scope)
        return then if then == _expr_kind(e.other, scope) else None
    if isinstance(e, Bin):
        if e.op in _COMPARE or e.op in (BinOp.AND, BinOp.OR):
            return "i"
        lhs = _expr_kind(e.lhs, scope)
        rhs = _expr_kind(e.rhs, scope)
        if lhs == "i" and rhs == "i":
            return "i"  # gm_div included: Int / Int truncates to an Int
        if lhs in ("i", "f") and rhs in ("i", "f"):
            return "f"
        return None
    if isinstance(e, Un):
        if e.op is UnOp.NOT:
            return "i"
        return _expr_kind(e.operand, scope)
    return None


def _record_dtype(tag_schema):
    """(numpy record dtype of one packed wire record or None for an empty
    layout, {slot index: SlotSchema})."""
    fields = []
    if tag_schema.fmt.startswith("<B"):
        fields.append(("t", "u1"))
    for i, slot in enumerate(tag_schema.slots):
        if slot.inf_sentinel and slot.code != "i":
            # int64 -> double rounds above 2**53, where the scalar path
            # still compares Python ints exactly
            raise _Unvectorizable(f"slot {slot.name} carries an INF sentinel in 64 bits")
        dtype = _SLOT_DTYPES.get(slot.code)
        if dtype is None:
            raise _Unvectorizable(f"slot code {slot.code}")
        fields.append((f"s{i}", dtype))
    rec = _np.dtype(fields) if fields else None
    if rec is not None and rec.itemsize != tag_schema.size:
        raise _Unvectorizable("record layout mismatch")
    return rec, dict(enumerate(tag_schema.slots))


def _item(values, i: int):
    """``values[i]`` as the Python value ``tolist()`` would hold."""
    x = values[i]
    return x.item() if isinstance(x, _np.generic) else x


def _from_wire(column, slot):
    """A decoded payload column as the scalar unpacker delivers it.  An
    INF-sentinel ``'i'`` slot becomes doubles with the two reserved bounds
    read as ±INF — every int32 is exact in a double, and a program with
    such a slot has all its Int columns escalated to ``'d'`` already."""
    if not slot.inf_sentinel:
        return column
    lo, hi = slot_range(slot)
    values = column.astype(_np.float64)
    values[column == hi] = INF_VALUE
    values[column == lo] = -INF_VALUE
    return values


def _wire(value, slot, tag: int):
    """A payload column as slot ``slot`` carries it on the wire; what the
    slot cannot carry raises the scalar packer's error, for the first
    offending value in staged order."""
    if slot.code == "?":
        return _truth(value)
    if slot.code == "d":
        return value
    value = _np.asarray(_num(value))
    lo, hi = slot_range(slot)
    if slot.inf_sentinel:
        pos, neg = value == INF_VALUE, value == -INF_VALUE
        ok = (value > lo) & (value < hi)  # the bounds are reserved; NaN fails
        if value.dtype.kind == "f":
            ok &= value == _np.floor(value)
        ok |= pos | neg
    else:
        ok = (value >= lo) & (value <= hi)
    if not ok.all():
        bad = _item(value.reshape(-1), int(_np.argmin(ok)))
        if isinstance(bad, float) and not bad.is_integer():
            int(bad)  # NaN: the ValueError the scalar encoder's int() raises
            raise wire_integral_error(tag, slot, bad)
        raise wire_range_error(tag, slot, bad)
    if slot.inf_sentinel and (pos.any() or neg.any()):
        value = _np.where(pos, hi, _np.where(neg, lo, value))
    return value


# ---------------------------------------------------------------------------
# Bulk receive handlers: a loop lowers to a list of ops, one emitter runs it
# ---------------------------------------------------------------------------


class _Op(NamedTuple):
    """One array op of a lowered receive loop (module docstring).
    ``run(full)`` applies it to a decoded slab — ``full`` is the context of
    all its records: ``sel`` the destination of each, ``msg`` the payload
    columns; ``names`` is how the decision record shows it, ``writes`` the
    fields it stores into, and ``ordered`` why it must meet the records in
    delivery order — a worker merging its peers' parts then restores sender
    order first — or None."""

    names: list
    writes: list
    run: Callable[[dict], None]
    ordered: Optional[str] = None


def _where(ctx: dict, cond) -> Optional[dict]:
    """``ctx`` restricted to where ``cond`` holds (everywhere when there is
    no ``cond``), or None when that is nowhere."""
    if cond is None:
        return ctx
    mask = _truth(cond(ctx))
    if isinstance(mask, _np.ndarray):
        ctx = _narrow(ctx, mask)
        return ctx if ctx["sel"].size else None
    return ctx if mask else None


def _by_receiver(full: dict, n: int):
    """``(order, bounds, receivers)`` of a slab: its records stable-sorted
    by receiver — each run one receiver's records in delivery order — the
    runs' boundaries in that order (first 0, last the record count) and
    the distinct receivers, ascending.  Sorted once per slab, as (receiver,
    position) keys: positions are distinct, so a plain sort is the stable
    one.  A NIL (-1) destination is vertex n-1, as every scalar inbox
    indexes it."""
    runs = full.get("runs")
    if runs is None:
        keys = full["sel"].astype(_np.int64)
        keys[keys < 0] += n
        keys <<= 32
        keys |= _np.arange(len(keys))
        keys.sort()
        order = keys & 0xFFFFFFFF
        receivers = keys >> 32
        cuts = _np.flatnonzero(receivers[1:] != receivers[:-1]) + 1
        bounds = _np.concatenate(([0], cuts, [len(keys)]))
        runs = full["runs"] = (order, bounds, receivers[bounds[:-1]])
    return runs


#: MIN/MAX reduce -> the strict comparison under which a value improves it
_STRICT = {GlobalOp.MIN: BinOp.LT, GlobalOp.MAX: BinOp.GT}
_MIRRORED = {BinOp.LT: BinOp.GT, BinOp.GT: BinOp.LT}


def _improve_flag(body: list, i: int) -> Optional[int]:
    """The one cross-statement dependence a receive loop may have (module
    docstring).  If statement ``i`` is the unguarded flag ``g |= e < f`` and
    a later statement of the same loop is the unguarded reduce ``f min= e``
    (``e > f`` for ``max=``; either operand order; syntactically the same
    ``e``), return that statement's index."""
    flag = body[i]
    if not (
        isinstance(flag, VFieldReduce)
        and flag.op is GlobalOp.OR
        and isinstance(flag.expr, Bin)
    ):
        return None
    cmp = flag.expr
    for j in range(i + 1, len(body)):
        red = body[j]
        strict = _STRICT.get(red.op) if isinstance(red, VFieldReduce) else None
        if strict is None:
            continue
        f = Field(red.name)
        if (cmp.op is strict and (cmp.lhs, cmp.rhs) == (red.expr, f)) or (
            cmp.op is _MIRRORED[strict] and (cmp.lhs, cmp.rhs) == (f, red.expr)
        ):
            return j
    return None


def _scatter_reduce(red: VFieldReduce, cond, scope: _Scope, flag_of=None, watched=False) -> _Op:
    """``ScatterReduce``, or — ``flag_of`` the MIN/MAX reduce the flag
    watches — ``ImproveFlag``: its value is whether that reduce, lowered
    ``watched``, moved its receiver, left per message in ``full["improved"]``."""
    target, view, op = red.name, scope.view(red.name), red.op
    if op is GlobalOp.OVERWRITE:
        raise _Unvectorizable(f"reduction op {op}")
    if op in (GlobalOp.OR, GlobalOp.AND) and view.dtype.itemsize != 1:
        raise _Unvectorizable(f"{op.value}-reduction into a non-Bool column")
    ordered = None
    if flag_of is not None:
        # the comparison is never compiled: its read of f stays out of scope.reads
        name, moved = f"ImproveFlag({flag_of.op.value}) {target}", flag_of.name
        scope.idioms.append(f"improve-flag {flag_of.op.value}")

        def value(ctx):
            return ctx["improved"][moved]

    else:
        name = f"ScatterReduce({red.op.value}) {target}"
        value = _compile_expr(red.expr, scope)
        if view.dtype.kind == "f":
            if red.op in (GlobalOp.SUM, GlobalOp.PRODUCT):
                ordered = f"float {red.op.value} into {target}"
        elif _expr_kind(red.expr, scope) != "i":
            raise _Unvectorizable("non-integral fold into integer column")
    improved = _COMPARE[_STRICT[red.op]] if watched else None

    def run(full):
        ctx = _where(full, cond)
        if ctx is None:
            return
        sel = ctx["sel"]
        if improved is None:
            fold_at(op, view, sel, value(ctx))
        else:  # a watched reduce is unguarded: sel is every destination
            old = view[sel]
            fold_at(op, view, sel, value(ctx))
            full["improved"][target] = improved(view[sel], old)

    return _Op([name], [target], run, ordered)


def _row_append(stmt: VAppendInNbr, scope: _Scope) -> _Op:
    """``RowAppend``: the §4.3 build, one ``extend`` per receiver's run."""
    rows = scope.columns.get("_in_nbrs")
    slot = scope.msg_slots.get(0)
    if (
        stmt.source != MsgField(0)
        or slot is None
        or slot.code != "i"
        or slot.inf_sentinel
        or not isinstance(rows, list)
    ):
        raise _Unvectorizable("in-neighbour append of something other than a sender id slot")
    scope.idioms.append("in-neighbour build")
    scope.msg_used.add(0)

    def run(full):
        scope.drop_reverse_gather()
        order, bounds, receivers = _by_receiver(full, len(rows))
        sources, bounds = full["msg"][0][order].tolist(), bounds.tolist()
        for k, vid in enumerate(receivers.tolist()):
            rows[vid].extend(sources[bounds[k] : bounds[k + 1]])

    return _Op(["RowAppend _in_nbrs"], ["_in_nbrs"], run, "append to _in_nbrs")


#: reductions a repeated put of one value leaves where the first put it
_IDEMPOTENT = (GlobalOp.AND, GlobalOp.OR, GlobalOp.MIN, GlobalOp.MAX, GlobalOp.OVERWRITE)


def _select(cond, block: list, scope: _Scope, engine, taken_puts: set) -> _Op:
    """``Select``: ``[if cond:] field = value; ...; put(global, op, value)``
    as one masked store plus one bulk put over the receivers whose guard
    holds, ascending (the vertex loop's order) — the first record of each
    if no store reads the message, else the last."""
    for s in block:
        if isinstance(s, VGlobalPut) and s.op not in _IDEMPOTENT:
            raise _Unvectorizable(f"{s.op.value} put inside a receive loop")
        if isinstance(s, VGlobalPut) and _reads_message(s.expr):
            raise _Unvectorizable("guarded put of a message value")
    exprs = [s.expr for s in block] + ([cond] if cond is not None else [])
    if cond is not None and _reads_message(cond):
        raise _Unvectorizable("first-match guard reads the message")
    if any(map(_hazardous, exprs)):
        raise _Unvectorizable("first-match guard or value can raise")
    assigned = {s.name for s in block if isinstance(s, VFieldAssign)}
    if any(
        isinstance(sub, Field) and sub.name in assigned
        for s in block
        for sub in _subexprs(s.expr)
    ):
        raise _Unvectorizable("first-match value reads a field the block assigns")
    # the guard's reads of what its own block assigns stay out of the
    # phase-wide check (as _improve_flag's comparison does)
    reads, scope.reads = scope.reads, set()
    guard = _compile_expr(cond, scope) if cond is not None else None
    own, scope.reads = scope.reads & assigned, reads | (scope.reads - assigned)
    last = any(isinstance(s, VFieldAssign) and _reads_message(s.expr) for s in block)
    if last and own:
        # first writer wins, if the store switches the guard off: no proof here
        raise _Unvectorizable("guarded assign of a message value")
    stores, puts, names = [], [], []
    for s in block:
        value = _compile_expr(s.expr, scope)
        if isinstance(s, VGlobalPut):
            if s.name in taken_puts:
                raise _Unvectorizable(f"more than one put to global {s.name}")
            taken_puts.add(s.name)
            puts.append((s.name, s.op, value))
            names.append(f"put {s.name} {s.op.value}")
            continue
        view = scope.view(s.name)
        if view.dtype.kind != "f":
            if _expr_kind(s.expr, scope) != "i":
                raise _Unvectorizable("non-integral store into integer column")
            # an earlier record's value must not fail where the last one
            # fits: a bare slot, every value of which the column takes
            if _reads_message(s.expr) and not (
                isinstance(s.expr, MsgField)
                and (view.dtype.itemsize > 1 or scope.msg_slots[s.expr.index].code == "?")
            ):
                raise _Unvectorizable("store of a message value that can raise")
        stores.append((view, value))
    fields = ",".join(sorted(assigned))
    scope.idioms.append("last-writer assign" if last else "first-match assign")
    names.insert(0, f"Select({'last' if last else 'first'}) {fields}".rstrip())
    put_bulk, n = engine.put_global_bulk, engine.graph.num_nodes

    def run(full):
        if last:
            order, bounds, sel = _by_receiver(full, n)
            at = order[bounds[1:] - 1]
            ctx = {"sel": sel, "msg": {i: col[at] for i, col in full["msg"].items()}}
        else:  # each receiver once, ascending (a scatter: cheaper than sorting)
            received = _np.zeros(n, dtype=bool)
            received[full["sel"]] = True
            ctx = {"sel": _np.flatnonzero(received), "msg": None}
        ctx = _where(ctx, guard)
        if ctx is None:
            return
        hit = ctx["sel"]
        for view, value in stores:
            _store(view, hit, value(ctx))
        for name, op, value in puts:
            put_bulk(name, op, hit, _per_vertex(value(ctx), len(hit)))

    return _Op(names, sorted(assigned), run, f"last writer of {fields}" if last else None)


def _reads_message(e: VExpr) -> bool:
    return any(isinstance(sub, MsgField) for sub in _subexprs(e))


def _construct(stmt) -> str:
    """The construct that keeps a statement scalar, by name."""
    if isinstance(stmt, VIf) and stmt.other:
        return "guarded receive statements with an else arm"
    return f"statement {type(stmt).__name__}"


def _per_vertex(value, count: int):
    """A put's value as one entry per putting vertex."""
    if isinstance(value, _np.ndarray) and value.ndim:
        return value
    return _np.full(count, value)


def _lower_loop(loop: VMsgLoop, scope: _Scope, engine, taken_puts: set) -> list:
    """The ops of one receive loop, statement by statement."""
    ops: list = []
    watchers: Dict[int, list] = {}  # reduce statement -> flags waiting on it
    for i, stmt in enumerate(loop.body):
        if isinstance(stmt, VAppendInNbr):
            ops.append(_row_append(stmt, scope))
            continue
        guarded = isinstance(stmt, VIf) and not stmt.other
        cond, block = (stmt.cond, stmt.then) if guarded else (None, [stmt])
        if block and all(isinstance(s, (VFieldAssign, VGlobalPut)) for s in block):
            ops.append(_select(cond, block, scope, engine, taken_puts))
            continue
        if not (block and all(isinstance(s, VFieldReduce) for s in block)):
            raise _Unvectorizable(_construct(stmt))
        watched = _improve_flag(loop.body, i)
        if watched is not None:
            # applied right after the reduce it watches
            flag = _scatter_reduce(stmt, None, scope, flag_of=loop.body[watched])
            watchers.setdefault(watched, []).append(flag)
            continue
        guard = _compile_expr(cond, scope) if cond is not None else None
        for red in block:
            ops.append(_scatter_reduce(red, guard, scope, watched=i in watchers))
        ops += watchers.get(i, [])
    if any(i not in scope.msg_slots for i in scope.msg_used):
        raise _Unvectorizable("message field out of range")
    return ops


def _emit_handler(ops: list, rec_dtype, scope: _Scope):
    """Compile a lowered loop into its slab handler: decode the payload
    columns the ops read, once, then run the ops."""
    steps = [op.run for op in ops]
    slots = scope.msg_slots
    msg_fields = sorted(scope.msg_used) if rec_dtype is not None else ()

    def handler(dsts, payload, count):
        """Apply ``count`` messages, record k of ``payload`` to vertex
        ``dsts[k]``, in delivery order — which a caller merging several
        senders' slabs need not restore when ``ordered_merge`` is None."""
        if count == 0:
            return
        if len(dsts) != count:
            dsts = dsts[:count]
        msg: Dict[int, Any] = {}
        if msg_fields:
            rec = _np.frombuffer(payload, dtype=rec_dtype, count=count)
            for i in msg_fields:
                msg[i] = _from_wire(rec[f"s{i}"], slots[i])
        full = {"sel": dsts, "msg": msg, "improved": {}}
        for step in steps:
            step(full)

    handler.ops = [name for op in ops for name in op.names]
    handler.ordered_merge = ", ".join(op.ordered for op in ops if op.ordered) or None
    return handler


def _build_receivers(phase, tag_schemas, columns, engine, shared):
    """``({(state, tag): handler}, reason)`` for one phase's receive part;
    the dict is ``None`` when the receive loops stay scalar, and ``reason``
    then names the first disqualifier.  All-or-nothing per phase: bulk
    handlers run at the delivery barrier, before any scalar receive loop, so
    mixing the two could reorder effects the simulator interleaves."""
    stmts = phase.receive
    if not stmts:
        return None, "no receive statements"
    if not all(isinstance(s, VMsgLoop) for s in stmts):
        return None, "receive body is not all message loops"
    tags = [s.tag for s in stmts]
    if len(set(tags)) != len(tags):
        return None, "duplicate tag across receive statements"

    handlers = {}
    scope = _Scope(columns, engine.globals.broadcast, shared)
    writes = []
    # a handler's puts fold at delivery, ahead of every put of the compute
    # body: a global takes either the one or the others (the kernels' "one
    # put per global", phase-wide)
    taken_puts = {
        s.name for s in walk_stmts(phase.compute) if isinstance(s, VGlobalPut)
    }
    try:
        for loop in stmts:
            tag_schema = tag_schemas.get(loop.tag)
            if tag_schema is None:
                raise _Unvectorizable("unknown tag")
            rec_dtype, scope.msg_slots = _record_dtype(tag_schema)
            scope.msg_used = set()
            ops = _lower_loop(loop, scope, engine, taken_puts)
            handlers[(phase.phase_id, loop.tag)] = _emit_handler(ops, rec_dtype, scope)
            writes += [name for op in ops for name in op.writes]
        # written fields must be pairwise distinct and never read by the
        # phase's receive statements (guards included; an ImproveFlag's
        # comparison and a Select guard's read of its own block's fields are
        # the exceptions): then op-at-a-time application over the slab
        # equals the simulator's per-message order.
        if len(set(writes)) != len(writes) or set(writes) & scope.reads:
            raise _Unvectorizable("field dependence between receive statements")
    except _Unvectorizable as exc:
        return None, str(exc)
    return handlers, scope.named("vectorized")


# ---------------------------------------------------------------------------
# Whole-phase kernels
# ---------------------------------------------------------------------------


def _store(view, sel, value) -> None:
    """``column[sel] = value`` with array('b'/'q')'s range checks."""
    if view.dtype.kind == "i" and view.dtype.itemsize == 1:
        value = _np.asarray(value)
        if value.dtype.kind != "b" and value.size and (
            int(value.min()) < -128 or int(value.max()) > 127
        ):
            raise OverflowError("signed char is out of range for a Bool column")
    if sel is None:
        view[:] = value
    else:
        view[sel] = value


class _KernelBuilder:
    """Compiles one phase's filter + compute body into a list of closures
    over a context, refusing (``_Unvectorizable``) whatever could make
    statement-at-a-time evaluation differ from vertex-at-a-time."""

    def __init__(self, scope: _Scope, tag_schemas, engine):
        self.scope = scope
        self.tag_schemas = tag_schemas
        self.engine = engine
        self.n = scope.graph.num_nodes
        self.put_names: set = set()
        self.sent_tags: set = set()

    def block(self, stmts) -> list:
        return [self.stmt(s) for s in stmts]

    def stmt(self, stmt) -> Callable[[dict], None]:
        if isinstance(stmt, (VLocal, VAssignLocal)):
            return self.local(stmt)
        if isinstance(stmt, (VFieldAssign, VFieldReduce)):
            return self.field_write(stmt)
        if isinstance(stmt, VIf):
            return self.branch(stmt)
        if isinstance(stmt, VGlobalPut):
            return self.global_put(stmt)
        if isinstance(stmt, VSendNbrs):
            return self.send_nbrs(stmt)
        if isinstance(stmt, VSendTo):
            return self.send_to(stmt)
        raise _Unvectorizable(_construct(stmt))

    def expr(self, e: VExpr, *, float_sink: bool = False) -> Callable[[dict], Any]:
        """Compile ``e``.  A conditional whose arms differ in kind has
        Python ints at some vertices and floats at others; one array
        cannot, so it is accepted only where the consumer coerces every
        value to float anyway (``float_sink``: the top of a store into a
        double column)."""
        self._check_conds(e, float_sink)
        return _compile_expr(e, self.scope)

    def _check_conds(self, e: VExpr, top_ok: bool) -> None:
        for sub in _subexprs(e):
            if (
                isinstance(sub, Cond)
                and not (top_ok and sub is e)
                and _expr_kind(sub, self.scope) is None
            ):
                raise _Unvectorizable("conditional mixes integer and float arms")

    def local(self, stmt) -> Callable[[dict], None]:
        kinds = self.scope.local_kinds
        if stmt.name in kinds:
            raise _Unvectorizable(f"local {stmt.name} assigned more than once")
        value = self.expr(stmt.expr)
        kinds[stmt.name] = _expr_kind(stmt.expr, self.scope)
        name, n = stmt.name, self.n

        def assign(ctx):
            v, sel = value(ctx), ctx["sel"]
            if sel is not None and isinstance(v, _np.ndarray):
                dense = _np.zeros(n, dtype=v.dtype)
                dense[sel] = v
                v = dense
            ctx["loc"][name] = v

        return assign

    def field_write(self, stmt) -> Callable[[dict], None]:
        view = self.scope.view(stmt.name)
        to_float = view.dtype.kind == "f"
        value = self.expr(stmt.expr, float_sink=to_float)
        if not to_float and _expr_kind(stmt.expr, self.scope) != "i":
            raise _Unvectorizable("non-integral store into integer column")
        if isinstance(stmt, VFieldAssign):
            return lambda ctx: _store(view, ctx["sel"], value(ctx))
        op, add, mul = stmt.op, _ARITH[BinOp.ADD], _ARITH[BinOp.MUL]

        def reduce_field(ctx):
            sel = ctx["sel"]
            _store(view, sel, combine_each(op, _read(view, sel), value(ctx), add, mul))

        return reduce_field

    def branch(self, stmt: VIf) -> Callable[[dict], None]:
        cond = self.expr(stmt.cond)
        then, other = self.block(stmt.then), self.block(stmt.other)

        def run_branch(ctx):
            mask = _truth(cond(ctx))
            if not isinstance(mask, _np.ndarray):
                _run(then if mask else other, ctx)
                return
            for body, m in ((then, mask), (other, ~mask)):
                if body and m.any():
                    _run(body, _narrow(ctx, m))

        return run_branch

    def global_put(self, stmt: VGlobalPut) -> Callable[[dict], None]:
        if stmt.name in self.put_names:
            # two puts to one global interleave per vertex on the scalar path
            raise _Unvectorizable(f"more than one put to global {stmt.name}")
        self.put_names.add(stmt.name)
        value = self.expr(stmt.expr)
        name, op, n, put = stmt.name, stmt.op, self.n, self.engine.put_global_bulk

        def put_all(ctx):
            sel = ctx["sel"]
            put(name, op, sel, _per_vertex(value(ctx), n if sel is None else len(sel)))

        return put_all

    def records_of(self, stmt) -> Callable[[dict], Any]:
        """Claim ``stmt``'s tag for this phase and compile its payload:
        ``records(ctx)`` packs one wire record per evaluation point of
        ``ctx`` (None for an empty layout)."""
        if stmt.tag in self.sent_tags:
            # two sends on one tag interleave per sender on the scalar path
            raise _Unvectorizable(f"more than one send on tag {stmt.tag}")
        self.sent_tags.add(stmt.tag)
        tag_schema = self.tag_schemas.get(stmt.tag)
        if tag_schema is None:
            raise _Unvectorizable("unknown tag")
        rec_dtype, _slots = _record_dtype(tag_schema)
        if len(stmt.payload) != len(tag_schema.slots):
            raise _Unvectorizable("payload does not match the tag layout")
        payload = []
        for i, (e, slot) in enumerate(zip(stmt.payload, tag_schema.slots)):
            # a sentinel slot takes floats too (±INF, escalated columns):
            # _wire checks each value as the scalar encoder would
            floats = slot.code == "d" or slot.inf_sentinel
            if not floats and slot.code in ("i", "q") and _expr_kind(e, self.scope) != "i":
                raise _Unvectorizable("non-integral payload for an integer slot")
            payload.append((f"s{i}", slot, self.expr(e, float_sink=floats)))
        tag, tagged = stmt.tag, rec_dtype is not None and "t" in rec_dtype.names

        def records(ctx):
            if rec_dtype is None:
                return None
            out = _np.empty(len(ctx["sel"]), dtype=rec_dtype)
            if tagged:
                out["t"] = tag
            for field, slot, value in payload:
                out[field] = _wire(value(ctx), slot, tag)
            return out

        return records

    def send_nbrs(self, stmt: VSendNbrs) -> Callable[[dict], None]:
        # a payload that reads an edge property is evaluated per out-edge,
        # any other once per sender and repeated along the sender's row
        per_edge = any(
            isinstance(sub, Call) and sub.name == "edge_prop"
            for e in stmt.payload
            for sub in _subexprs(e)
        )
        # the rows the send goes along, taken when it runs: the out-CSR, or
        # — the §4.3 prologue has delivered by then — the _in_nbrs rows
        take_gather = out_gather = self.engine.out_gather
        if stmt.direction == "in":
            if per_edge:
                raise _Unvectorizable("edge property on an in-neighbour send")
            scope = self.scope
            if not isinstance(scope.columns.get("_in_nbrs"), list):
                raise _Unvectorizable("in-neighbour send without in-neighbour rows")

            def take_gather():
                return scope.reverse_gather(out_gather())

        records_of = self.records_of(stmt)
        if per_edge:
            self.scope.idioms.append("per-edge send")
        tag, stage = stmt.tag, self.engine.send_nbrs_bulk

        def send(ctx):
            gather, sel = take_gather(), ctx["sel"]
            # the payload is evaluated only for vertices that have someone
            # to send to (pagerank divides by the out-degree)
            senders = gather.with_nbrs if sel is None else sel[gather.degrees[sel] != 0]
            if not senders.size:
                return
            edges, counts = gather.out_edges(senders)
            sub = dict(ctx, sel=senders)
            if per_edge:
                sub["sel"] = _np.repeat(senders, counts)
                at = _np.arange(len(gather.targets)) if edges is None else edges
                sub["edges"] = at if gather.edge_ids is None else gather.edge_ids[at]
            records = records_of(sub)
            if records is not None and not per_edge:
                records = _np.repeat(records, counts)
            stage(tag, gather, senders, edges, counts, records)

        return send

    def send_to(self, stmt: VSendTo) -> Callable[[dict], None]:
        """A random write, ``send(destination expression, msg)``: one record
        per selected vertex, to the vertex its destination names."""
        if _hazardous(stmt.target):
            raise _Unvectorizable("random write to a destination that can raise")
        if _expr_kind(stmt.target, self.scope) != "i":
            raise _Unvectorizable("random write to a non-integral destination")
        target, records_of = self.expr(stmt.target), self.records_of(stmt)
        self.scope.idioms.append("column-addressed send")
        tag, n, stage = stmt.tag, self.n, self.engine.send_to_bulk

        def send(ctx):
            sel = ctx["sel"]
            sub = dict(ctx, sel=_np.arange(n) if sel is None else sel)
            dsts = _np.broadcast_to(_np.asarray(target(sub)), sub["sel"].shape)
            stage(tag, sub["sel"], dsts, records_of(sub))

        return send


def _run(body: list, ctx: dict) -> None:
    for step in body:
        step(ctx)


def _build_kernel(phase, receivers, receive_reason, tag_schemas, columns, engine, shared):
    """Return (kernel, reason) for one phase; ``kernel`` is ``None`` when
    the phase keeps its generated scalar loop."""
    if phase.receive and receivers is None:
        return None, f"scalar receive loop ({receive_reason})"
    scope = _Scope(columns, engine.globals.broadcast, shared, engine.graph)
    builder = _KernelBuilder(scope, tag_schemas, engine)
    # ``if not filter: return`` ahead of the body is ``if filter: body``
    stmts = phase.compute if phase.filter is None else [VIf(phase.filter, phase.compute)]
    try:
        body = builder.block(stmts)
    except _Unvectorizable as exc:
        return None, str(exc)

    def kernel(sel=None):
        # ``sel``: the ascending vertex ids to compute — a worker's partition
        # — or None for every vertex; nothing runs over an empty selection
        if builder.n if sel is None else len(sel):
            _run(body, {"sel": sel, "msg": None, "loc": {}})

    return kernel, scope.named("kernel")


def build_array_code(
    ir: PregelIR, schema, columns: dict, engine, decisions: list | None = None
) -> Tuple[Dict[Tuple[int, int], Callable], Dict[int, Callable]]:
    """Compile bulk receive handlers and phase kernels for every eligible
    phase: ``({(state, tag): handler}, {state: kernel})``.

    ``columns`` maps field name -> its storage column (the same objects
    the generated vertex source closes over); ``engine`` is what the
    kernels stage sends and global puts through (``out_gather`` /
    ``send_nbrs_bulk`` / ``send_to_bulk`` / ``put_global_bulk``) and whose
    live broadcast dict is read at call time: a columnar engine — on mp, a
    worker's fork of one, which calls its kernels with its partition as
    the selection.

    When ``decisions`` is a list, one record per phase is appended:
    ``{"phase", "eligible", "reason", "ops", "tags", "ordered_merge",
    "kernel", "kernel_reason"}`` — the observability feed behind the
    ``compile.vectorize`` trace events.
    """
    receivers: Dict[Tuple[int, int], Callable] = {}
    kernels: Dict[int, Callable] = {}
    shared: dict = {}
    for phase in ir.phases.values():
        built, reason = _build_receivers(phase, schema.tags, columns, engine, shared)
        kernel, kernel_reason = _build_kernel(
            phase, built, reason, schema.tags, columns, engine, shared
        )
        if built:
            receivers.update(built)
        if kernel is not None:
            kernels[phase.phase_id] = kernel
        if decisions is not None:
            bulk = sorted((tag, h) for (_state, tag), h in (built or {}).items())
            decisions.append(
                {
                    "phase": phase.phase_id,
                    "eligible": built is not None,
                    "reason": reason,
                    # per bulk-received tag: the ops its loop lowered to, and
                    # — from them — must a receiver that merges several
                    # workers' slabs restore sender order, and why
                    "ops": [{"tag": tag, "ops": h.ops} for tag, h in bulk],
                    "tags": [tag for tag, _h in bulk],
                    "ordered_merge": [
                        {
                            "tag": tag,
                            "ordered": h.ordered_merge is not None,
                            "reason": h.ordered_merge or "order-insensitive reduces",
                        }
                        for tag, h in bulk
                    ],
                    "kernel": kernel is not None,
                    "kernel_reason": kernel_reason,
                }
            )
    return receivers, kernels
