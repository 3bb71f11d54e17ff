"""The dict-based simulator backend — the default and the parity oracle.

Exactly the pre-backend execution path: list property columns, tuple
messages in one ``{dst: msgs}`` outbox, one
:class:`~repro.pregel.runtime.PregelEngine` in-process.  Every robustness
subsystem (ft / net / mem / supervisor / tracing / combiners / voting)
composes here; the other backends are measured against this one.
"""

from __future__ import annotations

from typing import Callable

from ..graph import Graph
from ..runtime import PregelEngine
from .base import ExecutionBackend


class SimBackend(ExecutionBackend):
    name = "sim"
    supports = {
        "ft": True,
        "net": True,
        "mem": True,
        "supervisor": True,
        "tracer": True,
        "combiners": True,
        "voting": True,
        "track_makespan": True,
        "range_partitioning": True,
    }

    def create_engine(
        self,
        graph: Graph,
        *,
        master_compute: Callable,
        message_size: Callable[[tuple], int],
        schema,
        engine_opts: dict,
    ) -> PregelEngine:
        engine = PregelEngine(
            graph,
            vertex_compute=None,
            master_compute=master_compute,
            message_size=message_size,
            **engine_opts,
        )
        engine.metrics.backend = self.name
        return engine
