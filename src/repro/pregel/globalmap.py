"""The GPS global-objects map.

Vertices write to named global objects with an attached reduction (the
paper's ``Global.put("S", new IntSum(...))``); the runtime folds the puts
during the superstep and exposes the aggregated value to the master at the
*next* superstep.  The master's own puts are broadcast values visible to
every vertex within the same superstep (GPS runs ``master.compute()`` first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .fold import OPEN, GlobalOp, combine, fold


@dataclass
class GlobalObjectMap:
    """Three views of global state, advanced once per superstep:

    * ``broadcast`` — master → vertices, current superstep;
    * ``_pending`` — vertex puts being folded during the current superstep,
      each chained from the value its slot was opened at (``_opened``);
    * ``aggregated`` — last superstep's folded puts, readable by the master.
    """

    broadcast: dict[str, Any] = field(default_factory=dict)
    aggregated: dict[str, Any] = field(default_factory=dict)
    _pending: dict[str, Any] = field(default_factory=dict)
    _pending_ops: dict[str, GlobalOp] = field(default_factory=dict)
    _opened: dict[str, Any] = field(default_factory=dict)

    # -- vertex side -----------------------------------------------------

    def get(self, name: str) -> Any:
        return self.broadcast[name]

    def put_reduce(self, name: str, op: GlobalOp, value: Any) -> None:
        pending = self._pending
        if name in pending and self._pending_ops[name] is op:
            pending[name] = combine(op, pending[name], value)
        else:
            self.put_fold(name, op, [value])

    def put_fold(self, name: str, op: GlobalOp, values) -> None:
        """``put_reduce`` of each of ``values`` (a non-empty list or numpy
        array) in order, as one ``fold``: chained from the pending value,
        else from the value the slot was opened at, else from ``OPEN``."""
        if name in self._pending:
            if self._pending_ops[name] is not op:
                raise ValueError(
                    f"conflicting reductions on global '{name}': "
                    f"{self._pending_ops[name].value} vs {op.value}"
                )
            seed = self._pending[name]
        else:
            self._pending_ops[name] = op
            seed = self._opened.get(name, OPEN)
        self._pending[name] = fold(op, seed, values)

    # -- master side -----------------------------------------------------

    def get_aggregated(self, name: str, default: Any = None) -> Any:
        return self.aggregated.get(name, default)

    def has_aggregated(self, name: str) -> bool:
        return name in self.aggregated

    def put_broadcast(self, name: str, value: Any) -> None:
        self.broadcast[name] = value

    def open_at(self, name: str, value: Any) -> None:
        """This superstep's puts to ``name`` chain from ``value`` (the
        generated master's field), as the interpreter's reduction does."""
        self._opened[name] = value

    # -- engine side ----------------------------------------------------

    def end_superstep(self) -> None:
        self.aggregated = self._pending
        self._pending = {}
        self._pending_ops = {}
        self._opened = {}
