"""``repro.obs`` — the observability subsystem.

A cross-cutting tracing/profiling layer threaded through the Pregel engine
(per-superstep phase timings, per-worker load, frontier/scheduler state),
the fault-tolerance manager (checkpoint/crash/recovery lifecycle), and the
compiler pipeline (which §4.1/§4.2 transformations fired, with per-pass
timings — Table 3 as a trace).

Attach a :class:`Tracer` anywhere an engine option travels::

    from repro.obs import Tracer
    tracer = Tracer()
    compiled = compile_algorithm("pagerank", emit_java=False, tracer=tracer)
    compiled.program.run(graph, args, tracer=tracer)
    write_chrome_trace(tracer.events, "pagerank.json")   # open in Perfetto

The default is :data:`NULL_TRACER` semantics — ``tracer=None`` leaves the
engine's hot loops completely untouched (measured <5% on the Figure 6
PageRank run; see ``benchmarks/bench_obs.py``).
"""

import importlib

#: where each re-export lives.  Resolved on first access (PEP 562): an
#: untraced compile imports ``.tracer`` for ``NULL_TRACER`` and loads
#: neither the registry nor the exporters.
_EXPORTS = {
    "NULL_TRACER": ".tracer",
    "NullTracer": ".tracer",
    "Span": ".tracer",
    "TraceEvent": ".tracer",
    "Tracer": ".tracer",
    "deterministic_events": ".tracer",
    "NULL_REGISTRY": ".metrics",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "NullRegistry": ".metrics",
    "deterministic_snapshot": ".metrics",
    "prometheus_text": ".metrics",
    "chrome_trace": ".export",
    "deterministic_jsonl": ".export",
    "load_jsonl": ".export",
    "strip_timing": ".export",
    "timeline_report": ".export",
    "to_jsonl": ".export",
    "write_chrome_trace": ".export",
    "write_jsonl": ".export",
    "StragglerRow": ".profile",
    "WorkerStats": ".profile",
    "makespan": ".profile",
    "profile_report": ".profile",
    "straggler_supersteps": ".profile",
    "worker_profile": ".profile",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module, __name__), name)
    return value
