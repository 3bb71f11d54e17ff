"""The pluggable execution-backend interface.

A backend decides the *physical* execution of a compiled program — how
vertex properties are stored, how messages are represented in flight, and
which engine drives the superstep loop — while the logical model (the IR,
the generated vertex/master code, the metrics ledger) stays fixed.  Every
backend must be observationally identical on ``RunMetrics.parity_key()``
and on program outputs; they may only differ in wall time and memory.

``CompiledProgram.make_engine(backend=...)`` drives the three hooks in
order: ``build_columns`` converts the list-typed property columns into the
backend's storage, ``create_engine`` instantiates the engine, and
``column_values`` converts a column back into a plain list for outputs.
"""

from __future__ import annotations

from typing import Any, Callable

from ..graph import Graph


class BackendUnsupported(ValueError):
    """A feature composition the selected backend deliberately refuses.

    Backends that cannot honor a requested feature (fault tolerance on the
    multiprocessing backend, say) must raise this instead of silently
    computing something different — a clean usage error, never a silent
    wrong answer.
    """


class ExecutionBackend:
    """One physical execution strategy for compiled programs."""

    #: registry key and the value reported in ``RunMetrics.backend``.
    name: str = ""

    #: robustness features this backend honors (documentation + tests):
    #: feature name -> True (runs on this backend's engine) / False
    #: (BackendUnsupported).
    supports: dict[str, bool] = {}

    def build_columns(
        self, schema, graph: Graph, fields: dict[str, list], args: dict
    ) -> dict[str, Any]:
        """Convert freshly-built list columns into backend storage."""
        return fields

    def create_engine(
        self,
        graph: Graph,
        *,
        master_compute: Callable,
        message_size: Callable[[tuple], int],
        schema,
        engine_opts: dict,
    ):
        """Instantiate this backend's engine (PregelEngine-compatible:
        ``.globals``, ``._vertex_compute``, ``.ft``, ``.metrics``,
        ``.run()``).  Raises :class:`BackendUnsupported` for feature
        compositions the backend refuses."""
        raise NotImplementedError

    def column_values(self, column) -> list:
        """A plain list view of one property column (for RunResult outputs)."""
        return column
