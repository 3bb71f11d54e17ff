"""Pregel/GPS runtime simulator: graph, BSP engine, global-objects map,
fault tolerance (checkpointing, crash injection, recovery), simulated
unreliable transport with reliable exactly-once delivery, supervision
(heartbeat failure detection, automatic recovery, straggler quarantine),
and memory-pressure robustness (per-worker budgets, credit-based
backpressure, spill-to-disk, graceful out-of-memory degradation)."""

import importlib

#: where each re-export lives.  Resolved on first access (PEP 562): building
#: a graph loads ``.graph`` alone, not the engine and the robustness stack.
_EXPORTS = {
    "Checkpointable": ".ft",
    "ColumnState": ".ft",
    "CrashEvent": ".ft",
    "FaultPlan": ".ft",
    "FaultTolerance": ".ft",
    "parse_fault": ".ft",
    "GlobalObjectMap": ".globalmap",
    "GlobalOp": ".globalmap",
    "combine": ".fold",
    "Graph": ".graph",
    "MemPlan": ".mem",
    "MemoryBudget": ".mem",
    "MemoryExhausted": ".mem",
    "MemoryManager": ".mem",
    "MemoryReport": ".mem",
    "parse_mem_budget": ".mem",
    "NetFaultPlan": ".net",
    "SimulatedTransport": ".net",
    "TransportError": ".net",
    "parse_net_faults": ".net",
    "PregelEngine": ".runtime",
    "RunMetrics": ".runtime",
    "default_message_size": ".runtime",
    "PhiAccrualDetector": ".supervisor",
    "Supervisor": ".supervisor",
    "SupervisorPlan": ".supervisor",
    "parse_heartbeat": ".supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module, __name__), name)
    return value
