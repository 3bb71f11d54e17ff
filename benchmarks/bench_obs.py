"""Observability benchmarks — traced run artifacts plus the overhead budgets.

Three jobs, all wired into CI:

* ``test_traced_pagerank_report`` runs one fully-traced PageRank workload
  (compiler passes + per-superstep records), writes the Chrome trace-event
  JSON and raw JSONL under ``benchmarks/reports/`` as build artifacts, and
  validates the exported files parse.
* ``test_disabled_tracer_overhead`` is the ISSUE's <5% budget: a *disabled*
  tracer (the ``NullTracer`` default) must not slow down the Figure 6
  PageRank run, on any backend — they share one superstep driver, the one
  place the instrumentation lives.  The untraced and null-traced code paths
  are identical — the engine installs metering wrappers only for a
  recording tracer — so this is a noise-bounded smoke: the median of the
  per-pair ratios of alternating back-to-back pairs.
* ``test_disabled_metrics_overhead`` is the same <5% contract for the
  metrics registry (``NullRegistry`` vs no registry), and emits
  ``BENCH_obs_overhead.json`` so the overhead trajectory is machine-readable.
"""

from __future__ import annotations

import json

from repro.bench import metrics_overhead, run_record, traced_run, tracer_overhead, write_bench
from repro.obs import deterministic_jsonl, timeline_report, to_jsonl, write_chrome_trace
from repro.pregel.backend import BACKENDS
from repro.pregel.backend.mp import mp_available

from conftest import emit_report

#: back-to-back pairs per overhead measurement.  On a shared 2-core host one
#: pair's ratio spreads about ±14% on mp; 101 pairs keep the median's
#: standard error under 2%, well inside the 5% budget.
PAIRS = 101


def test_traced_pagerank_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _traced_pagerank_report(scale, report_dir), rounds=1, iterations=1)


def _traced_pagerank_report(scale, report_dir):
    run, tracer = traced_run("pagerank", "twitter", scale)
    assert run.metrics.supersteps > 0
    assert tracer.events, "a traced run must record events"

    chrome_path = report_dir / "trace_pagerank.json"
    write_chrome_trace(tracer.events, chrome_path)
    doc = json.loads(chrome_path.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    jsonl_path = report_dir / "trace_pagerank.jsonl"
    jsonl_path.write_text(to_jsonl(tracer.events))
    lines = jsonl_path.read_text().splitlines()
    assert len(lines) == len(tracer.events)
    for line in lines:
        json.loads(line)
    # the deterministic projection is non-empty too (it's what parity tests diff)
    assert deterministic_jsonl(tracer.events).strip()

    names = {e.name for e in tracer.events}
    assert {"run.begin", "superstep", "run.end", "compile.pass", "compile.rules"} <= names

    emit_report(
        report_dir,
        "trace_pagerank_timeline",
        "Traced PageRank (twitter) — superstep timeline\n"
        + timeline_report(tracer.events)
        + f"\n\nartifacts: {chrome_path.name} (Chrome/Perfetto), {jsonl_path.name} (JSONL)",
    )


def test_disabled_tracer_overhead(benchmark, scale, report_dir):
    benchmark.pedantic(
        lambda: _disabled_tracer_overhead(scale, report_dir), rounds=1, iterations=1
    )


def _backends():
    return [b for b in BACKENDS if b != "mp" or mp_available()]


def _disabled_tracer_overhead(scale, report_dir):
    results = {
        backend: tracer_overhead("pagerank", "twitter", scale, pairs=PAIRS, backend=backend)
        for backend in _backends()
    }
    emit_report(
        report_dir,
        "tracer_overhead",
        f"Disabled-tracer overhead on Figure 6 PageRank (median of {PAIRS} pairs)\n"
        + "\n".join(
            f"{backend}\n"
            f"  tracer=None        : {stats['plain_seconds'] * 1e3:8.2f} ms\n"
            f"  tracer=NullTracer  : {stats['null_tracer_seconds'] * 1e3:8.2f} ms\n"
            f"  ratio              : {stats['overhead_ratio']:.4f}  (budget < 1.05)"
            for backend, stats in results.items()
        ),
    )
    for stats in results.values():
        assert stats["overhead_ratio"] < 1.05, results


def test_disabled_metrics_overhead(benchmark, scale, report_dir):
    benchmark.pedantic(
        lambda: _disabled_metrics_overhead(scale, report_dir), rounds=1, iterations=1
    )


def _disabled_metrics_overhead(scale, report_dir):
    results = {
        backend: metrics_overhead("pagerank", "twitter", scale, pairs=PAIRS, backend=backend)
        for backend in _backends()
    }
    emit_report(
        report_dir,
        "metrics_overhead",
        f"Disabled-registry overhead on Figure 6 PageRank (median of {PAIRS} pairs)\n"
        + "\n".join(
            f"{backend}\n"
            f"  registry=None         : {stats['plain_seconds'] * 1e3:8.2f} ms\n"
            f"  registry=NullRegistry : {stats['null_registry_seconds'] * 1e3:8.2f} ms\n"
            f"  ratio                 : {stats['overhead_ratio']:.4f}  (budget < 1.05)"
            for backend, stats in results.items()
        ),
    )
    write_bench(
        "obs_overhead",
        [
            run_record(
                f"pagerank_plain@{backend}",
                backend=backend,
                workers=4,
                wall_seconds=[stats["plain_seconds"]],
                counts={},
                extra={
                    "null_registry_seconds": stats["null_registry_seconds"],
                    "overhead_ratio": stats["overhead_ratio"],
                },
            )
            for backend, stats in results.items()
        ],
        out_dir=report_dir,
    )
    for stats in results.values():
        assert stats["overhead_ratio"] < 1.05, results
