"""The GPS global-objects map.

Vertices write to named global objects with an attached reduction (the
paper's ``Global.put("S", new IntSum(...))``); the runtime folds the puts
during the superstep and exposes the aggregated value to the master at the
*next* superstep.  The master's own puts are broadcast values visible to
every vertex within the same superstep (GPS runs ``master.compute()`` first).
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass, field
from typing import Any


class GlobalOp(enum.Enum):
    SUM = "sum"
    PRODUCT = "product"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    OVERWRITE = "overwrite"


def combine(op: GlobalOp, a: Any, b: Any) -> Any:
    if op is GlobalOp.SUM:
        return a + b
    if op is GlobalOp.PRODUCT:
        return a * b
    if op is GlobalOp.MIN:
        return b if b < a else a
    if op is GlobalOp.MAX:
        return b if b > a else a
    if op is GlobalOp.AND:
        return a and b
    if op is GlobalOp.OR:
        return a or b
    if op is GlobalOp.OVERWRITE:
        return b
    raise ValueError(f"unknown reduction {op}")


def fold_ordered(op: GlobalOp, values) -> Any:
    """Fold a non-empty list or numpy array of puts to one global, in index
    order, to exactly what a ``put_reduce`` chain over the same values
    leaves in the slot: the first put seeds it, each later one combines
    from the left.  Every bulk put folds through it — a generated loop's
    lists, an array kernel's arrays, the mp parent's vid-merged puts of all
    workers — so each is the sequential fold by construction."""
    if not isinstance(values, list):
        import numpy as np

        if values.dtype.kind == "f" and op in (GlobalOp.SUM, GlobalOp.PRODUCT):
            # accumulate is a strict left fold; np.sum / reduce are pairwise
            ufunc = np.add if op is GlobalOp.SUM else np.multiply
            return ufunc.accumulate(values)[-1].item()
        if op in (GlobalOp.OR, GlobalOp.AND):
            # the first operand that decides (below), found without a loop
            truth = values if values.dtype.kind == "b" else (values != 0).astype(bool)
            decides = truth if op is GlobalOp.OR else ~truth
            first = int(decides.argmax())
            x = values[first if decides[first] else -1]
            return x.item() if isinstance(x, np.generic) else x
        values = values.tolist()  # Python values: exact ints, native floats
    if op is GlobalOp.SUM:
        return functools.reduce(operator.add, values)
    if op is GlobalOp.PRODUCT:
        return functools.reduce(operator.mul, values)
    if op is GlobalOp.MIN:
        return min(values)  # keeps the first minimum, like combine()
    if op is GlobalOp.MAX:
        return max(values)
    if op in (GlobalOp.OR, GlobalOp.AND):
        # `a or b` / `a and b` hand back an operand: the first that decides
        # the outcome (truthy for OR, falsy for AND), else the last
        decides = operator.truth if op is GlobalOp.OR else operator.not_
        return next(filter(decides, values), values[-1])
    return values[-1]  # OVERWRITE


@dataclass
class GlobalObjectMap:
    """Three views of global state, advanced once per superstep:

    * ``broadcast`` — master → vertices, current superstep;
    * ``_pending`` — vertex puts being folded during the current superstep;
    * ``aggregated`` — last superstep's folded puts, readable by the master.
    """

    broadcast: dict[str, Any] = field(default_factory=dict)
    aggregated: dict[str, Any] = field(default_factory=dict)
    _pending: dict[str, Any] = field(default_factory=dict)
    _pending_ops: dict[str, GlobalOp] = field(default_factory=dict)

    # -- vertex side -----------------------------------------------------

    def get(self, name: str) -> Any:
        return self.broadcast[name]

    def put_reduce(self, name: str, op: GlobalOp, value: Any) -> None:
        if name in self._pending:
            if self._pending_ops[name] is not op:
                raise ValueError(
                    f"conflicting reductions on global '{name}': "
                    f"{self._pending_ops[name].value} vs {op.value}"
                )
            self._pending[name] = combine(op, self._pending[name], value)
        else:
            self._pending[name] = value
            self._pending_ops[name] = op

    def put_fold(self, name: str, op: GlobalOp, values) -> None:
        """``put_reduce`` of each of ``values`` (a non-empty list or numpy
        array) in order, as one ``fold_ordered`` — chained from the pending
        value, if the slot holds one."""
        if name in self._pending:
            values = values if isinstance(values, list) else values.tolist()
            self.put_reduce(name, op, values[0])  # checks the reduction
            values = [self._pending[name], *values[1:]]
        else:
            self._pending_ops[name] = op
        self._pending[name] = fold_ordered(op, values)

    # -- master side -----------------------------------------------------

    def get_aggregated(self, name: str, default: Any = None) -> Any:
        return self.aggregated.get(name, default)

    def has_aggregated(self, name: str) -> bool:
        return name in self.aggregated

    def put_broadcast(self, name: str, value: Any) -> None:
        self.broadcast[name] = value

    # -- engine side ----------------------------------------------------

    def end_superstep(self) -> None:
        self.aggregated = self._pending
        self._pending = {}
        self._pending_ops = {}
