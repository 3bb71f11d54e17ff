"""The reductions, and the one rule every fold of them follows.

A reduction (``s += e``, ``t.o min= e``, a ``Sum(...)``, a vertex's
``Global.put``) is the interpreter's sequential chain, and every
implementation steps by ``combine`` from the value it reduces into.
``fold`` chains from a seed, or from ``OPEN``: as if from the op's
identity, so a NaN MIN/MAX value never seeds a slot and any other first
value seeds it unchanged (ints stay ints, ``-0.0`` stays ``-0.0``).
``fold_at`` scatters the chain into a column, ``combine_each`` steps
element-wise.  Numpy paths are taken only where they equal the chain: a
float overflows as silently as Python's, and a step past an Int column's
int64 raises OverflowError as the scalar loops' store does.  Scalar loops
print the step inline.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum
from itertools import chain
from typing import Any


class GlobalOp(Enum):
    SUM = "sum"
    PRODUCT = "product"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    OVERWRITE = "overwrite"


#: each op's identity, the value a slot opens at; OVERWRITE has none (and
#: is the one op a combiner cannot pre-fold)
IDENTITY = {
    GlobalOp.SUM: 0, GlobalOp.PRODUCT: 1, GlobalOp.MIN: math.inf, GlobalOp.MAX: -math.inf,
    GlobalOp.AND: True, GlobalOp.OR: False,
}  # fmt: skip
#: a Green-Marl reduction's op, by ``lang.ast.ReduceOp`` name (Count sums)
OF_REDUCE = {
    "SUM": GlobalOp.SUM, "COUNT": GlobalOp.SUM, "PRODUCT": GlobalOp.PRODUCT,
    "MIN": GlobalOp.MIN, "MAX": GlobalOp.MAX, "ALL": GlobalOp.AND, "ANY": GlobalOp.OR,
}  # fmt: skip
#: ``fold``'s seed for a slot that opens with its first value
OPEN = object()

_STEP = {
    GlobalOp.SUM: operator.add,
    GlobalOp.PRODUCT: operator.mul,
    GlobalOp.MIN: lambda a, b: b if b < a else a,
    GlobalOp.MAX: lambda a, b: b if b > a else a,
    GlobalOp.AND: lambda a, b: a and b,
    GlobalOp.OR: lambda a, b: a or b,
    GlobalOp.OVERWRITE: lambda a, b: b,
}
_UFUNC = {
    GlobalOp.SUM: "add", GlobalOp.PRODUCT: "multiply", GlobalOp.MIN: "minimum", GlobalOp.MAX: "maximum"
}  # fmt: skip


def combine(op: GlobalOp, a: Any, b: Any) -> Any:
    """One step of ``op``: ``a``, what the slot holds, reduced by ``b``."""
    return _STEP[op](a, b)


def fold(op: GlobalOp, seed: Any, values) -> Any:
    """``combine`` chained from ``seed`` (or ``OPEN``) over a non-empty
    list or numpy array of values, in index order."""
    if not isinstance(values, list):
        return _fold_array(op, seed, values)
    if seed is OPEN:
        if op is GlobalOp.MIN or op is GlobalOp.MAX:
            seed = IDENTITY[op]
        else:
            seed, values = values[0], values[1:]
    if op is GlobalOp.MIN:  # min() and max() keep the first of equals
        return min(chain((seed,), values))
    if op is GlobalOp.MAX:
        return max(chain((seed,), values))
    if values and (op is GlobalOp.AND or op is GlobalOp.OR):
        # `and` / `or` hand back the first operand that decides, else the last
        decides = operator.truth if op is GlobalOp.OR else operator.not_
        return next(filter(decides, chain((seed,), values)), values[-1])
    return functools.reduce(_STEP[op], values, seed)


def _fold_array(op: GlobalOp, seed: Any, values) -> Any:
    import numpy as np

    if values.dtype.kind == "f" and op in (GlobalOp.SUM, GlobalOp.PRODUCT):
        # accumulate is a strict left fold (np.sum pairs)
        first = values[0] if seed is OPEN else np.float64(combine(op, seed, values[0].item()))
        if first.tobytes() != values[:1].tobytes():  # the seed moved the first step
            values = np.concatenate(([first], values[1:]))
        ufunc = np.add if op is GlobalOp.SUM else np.multiply
        with np.errstate(over="ignore", invalid="ignore"):
            return ufunc.accumulate(values)[-1].item()
    if values.dtype.kind != "O" and op in (GlobalOp.AND, GlobalOp.OR):
        if seed is not OPEN and bool(seed) is (op is GlobalOp.OR):
            return seed
        decides = (values != 0) if op is GlobalOp.OR else (values == 0)
        first = int(decides.argmax())
        return values[first if decides[first] else -1].item()
    return fold(op, seed, values.tolist())  # Python values: exact ints


def fold_at(op: GlobalOp, column, dsts, values) -> None:
    """``column[d] = combine(op, column[d], v)`` for each destination ``d``
    of ``dsts`` and its value ``v`` (``values`` lines up with ``dsts``, or
    is one for all), one after the other.  AND/OR take a 0/1 column;
    OVERWRITE has no scatter form (which of two writes wins is unordered)."""
    import numpy as np

    if op is GlobalOp.OR or op is GlobalOp.AND:
        truth = np.broadcast_to(np.asarray(values) != 0, dsts.shape)
        if op is GlobalOp.OR:  # a 0 becomes 1 if any of its values is true
            hit = dsts[truth]
            column[hit[column[hit] == 0]] = 1
        else:  # a truthy receiver becomes whether all of its values are
            column[dsts[column[dsts] != 0]] = 1
            column[dsts[~truth]] = 0
        return
    ufunc = getattr(np, _UFUNC[op])
    if column.dtype.kind == "i" and op in (GlobalOp.SUM, GlobalOp.PRODUCT) and dsts.size:
        values = np.broadcast_to(values, dsts.shape)
        if not _within_int64(op, column, dsts, values):
            # int64 ufunc.at wraps: step the chain, whose store past int64
            # raises OverflowError as the scalar loops' array('q') does
            for d, v in zip(dsts.tolist(), values.tolist()):
                column[d] = combine(op, int(column[d]), v)
            return
    if column.dtype.kind == "f" and op in (GlobalOp.MIN, GlobalOp.MAX) and dsts.size:
        values = np.broadcast_to(values, dsts.shape)
        lo, hi = values.min(), values.max()
        if np.isnan(lo) or lo <= 0 <= hi or np.isnan(column).any():
            # ufunc.at lets a NaN win and breaks ties either way: each
            # destination's extreme apart from NaNs (of -0.0 and 0.0 the
            # first sent), then one step into the column
            identity = IDENTITY[op]
            values = np.where(np.isnan(values), identity, values)
            best = np.full(len(column), identity)
            ufunc.at(best, dsts, values)
            zero = values == 0
            hit, first = np.unique(dsts[zero], return_index=True)
            best[hit] = np.where(best[hit] == 0, values[zero][first], best[hit])
            column[dsts] = combine_each(op, column[dsts], best[dsts])
            return
    with np.errstate(over="ignore", invalid="ignore"):
        ufunc.at(column, dsts, values)


def _within_int64(op: GlobalOp, column, dsts, values) -> bool:
    """A cheap bound, with a bit to spare: no step of an Int SUM/PRODUCT
    chain from ``column`` over ``values`` leaves int64."""
    import numpy as np

    col = max(int(column.max()), -int(column.min()))
    val = np.abs(values.astype(np.float64))  # int64 or Python ints
    if op is GlobalOp.SUM:
        return col + float(val.sum()) < 2.0**62
    top = float(val.max())  # factors in {-1, 0, 1} never grow a product
    most = int(np.bincount(dsts).max())  # the longest chain into one slot
    return top <= 1 or math.log2(max(col, 1)) + most * math.log2(top) < 62


def combine_each(op: GlobalOp, a, b, add=operator.add, mul=operator.mul):
    """``combine`` element-wise over numpy arrays (either may be one
    value); SUM and PRODUCT step by ``add`` and ``mul``."""
    import numpy as np

    if op in (GlobalOp.SUM, GlobalOp.PRODUCT):
        return (add if op is GlobalOp.SUM else mul)(a, b)
    if op in (GlobalOp.MIN, GlobalOp.MAX):
        return np.where(b < a if op is GlobalOp.MIN else b > a, b, a)
    if op is GlobalOp.OVERWRITE:
        return b
    truth = np.asarray(a) != 0
    return np.where(truth, b, a) if op is GlobalOp.AND else np.where(truth, a, b)
