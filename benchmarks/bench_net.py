"""Transport and supervision benchmarks — overhead ceiling + recovery latency.

Three jobs, wired into the CI ``chaos`` job:

* ``test_reliable_transport_overhead`` is the ISSUE's ≤5% ceiling: routing
  every barrier through the reliable transport's *fast path* (an all-zero
  fault plan — sequence accounting only, no channel simulation) must stay
  within 5% of direct in-memory routing: the median of 11 per-pair ratios,
  each pair run back to back with the side that goes first alternating.
* ``test_recovery_latency_sweep`` measures the supervision cycle as the
  channel degrades: detection silence (simulated units until the
  phi/deadline detector declares the silently-crashed worker dead),
  retransmission cost, and wall time, per drop rate and recovery strategy —
  every point bit-identical to the failure-free baseline.  The table lands
  in ``benchmarks/reports/net_recovery.txt`` (quoted by EXPERIMENTS.md).
* ``test_chaos_matrix_smoke`` runs a reduced seeded-fuzz matrix (the full
  sweep lives in ``tests/test_chaos_fuzz.py`` behind ``@pytest.mark.slow``)
  and writes its report artifact.
"""

from __future__ import annotations

from repro.bench import (
    chaos_matrix,
    chaos_report,
    recovery_latency_sweep,
    transport_overhead,
)

from conftest import emit_report

CHAOS_SMOKE_SEEDS = range(12)


def test_reliable_transport_overhead(benchmark, scale, report_dir):
    benchmark.pedantic(
        lambda: _transport_overhead(scale, report_dir), rounds=1, iterations=1
    )


def _transport_overhead(scale, report_dir):
    stats = transport_overhead(scale, pairs=11)
    emit_report(
        report_dir,
        "net_overhead",
        "Reliable-transport fast path vs direct routing "
        "(PageRank/twitter, 11 pairs, first side alternating)\n"
        f"  direct routing     : {stats['direct_s'] * 1e3:8.2f} ms  (median)\n"
        f"  reliable transport : {stats['transport_s'] * 1e3:8.2f} ms  (median)\n"
        f"  ratio              : {stats['overhead_ratio']:.4f}  (median of pair ratios; budget < 1.05)",
    )
    assert stats["overhead_ratio"] < 1.05, stats


def test_recovery_latency_sweep(benchmark, scale, report_dir):
    benchmark.pedantic(
        lambda: _recovery_latency(scale, report_dir), rounds=1, iterations=1
    )


def _recovery_latency(scale, report_dir):
    rows = recovery_latency_sweep(scale=scale, repeats=3)
    assert all(row.identical for row in rows), [
        (row.recovery, row.drop_rate) for row in rows if not row.identical
    ]
    lines = [
        "Heartbeat-detected crash: recovery latency vs channel drop rate",
        "(PageRank/twitter, silent crash of worker 1, checkpoint_every=2;",
        " every row bit-identical to the failure-free run)",
        "",
        f"{'recovery':>9} {'drop':>5} {'detect(units)':>13} "
        f"{'clock(units)':>12} {'wall(ms)':>9} {'retrans':>8} {'backoff':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.recovery:>9} {row.drop_rate:>5.2f} "
            f"{row.detection_silence_units:>13.2f} "
            f"{row.recovery_clock_units:>12.1f} "
            f"{row.wall_seconds * 1e3:>9.2f} "
            f"{row.retransmitted:>8} {row.backoff_units:>8}"
        )
    emit_report(report_dir, "net_recovery", "\n".join(lines))


def test_chaos_matrix_smoke(benchmark, scale, report_dir):
    benchmark.pedantic(
        lambda: _chaos_smoke(scale, report_dir), rounds=1, iterations=1
    )


def _chaos_smoke(scale, report_dir):
    results = chaos_matrix(CHAOS_SMOKE_SEEDS, scale=min(scale, 0.25))
    emit_report(report_dir, "chaos_matrix", chaos_report(results))
    assert all(r.ok for r in results), [
        (r.case.describe(), r.violations) for r in results if not r.ok
    ]
