"""Per-worker profiling: aggregate a trace into worker load and straggler
reports.

The paper's per-graph runtimes are dominated by the slowest worker of each
superstep (skewed graphs concentrate hub traffic on one partition).  The
profile view makes that visible from a recorded trace:

* :func:`worker_profile` — per-worker totals over the whole run: vertices
  computed, messages sent (combiner folds included, as in
  ``RunMetrics.worker_sent``), payload bytes staged, and vertex-compute
  seconds;
* :func:`straggler_supersteps` — the supersteps with the worst
  compute-time imbalance (max/mean over workers), i.e. where a real cluster
  would stall at the barrier;
* :func:`makespan` — the same stall in deterministic work units: the
  simulated cluster time of the run beside its perfectly balanced time;
* :func:`profile_report` — all three, rendered as the ``gm-pregel
  profile`` terminal view.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WorkerStats:
    """One worker's totals over a traced run.

    ``pid`` and ``route_seconds`` are populated only from mp-backend
    traces, where workers are real OS processes and the exchange barrier
    times each worker's slab decode + inbox merge.
    """

    worker: int
    computed: int = 0
    sent: int = 0
    bytes: int = 0
    seconds: float = 0.0
    pid: int | None = None
    route_seconds: float = 0.0


def _superstep_events(events):
    return [e for e in events if e.name == "superstep"]


def worker_profile(events) -> list[WorkerStats]:
    """Aggregate per-superstep worker counters into per-worker run totals."""
    stats: list[WorkerStats] = []

    def _grow(n: int) -> None:
        while len(stats) < n:
            stats.append(WorkerStats(worker=len(stats)))

    for e in _superstep_events(events):
        det, info = e.det or {}, e.info or {}
        computed = det.get("worker_computed") or []
        sent = det.get("worker_sent") or []
        nbytes = det.get("worker_bytes") or []
        seconds = info.get("worker_seconds") or []
        pids = info.get("worker_pids") or []
        route = info.get("worker_route_seconds") or []
        _grow(max(len(computed), len(sent), len(nbytes), len(seconds), len(pids)))
        for w, v in enumerate(computed):
            stats[w].computed += v
        for w, v in enumerate(sent):
            stats[w].sent += v
        for w, v in enumerate(nbytes):
            stats[w].bytes += v
        for w, v in enumerate(seconds):
            stats[w].seconds += v
        for w, v in enumerate(pids):
            stats[w].pid = v  # stable across supersteps until a restart
        for w, v in enumerate(route):
            stats[w].route_seconds += v
    return stats


def makespan(events) -> tuple[int, float]:
    """Simulated cluster time of a traced run, ``(units, ideal)``: per
    superstep, the busiest worker's work — vertices computed + messages
    sent (combiner folds included) + messages received (after folds) —
    summed over supersteps, and the same work spread evenly over the
    workers.  ``units / ideal`` is the makespan inflation (1.0 = balanced):
    a skewed graph's run is dominated by the hub-owning worker, the effect
    behind the paper's per-graph run times."""
    units, ideal = 0, 0.0
    for e in _superstep_events(events):
        det = e.det
        work = [
            computed + sent + received
            for computed, sent, received in zip(
                det["worker_computed"], det["worker_sent"], det["worker_received"]
            )
        ]
        units += max(work)
        ideal += sum(work) / len(work)
    return units, ideal


@dataclass
class StragglerRow:
    """One superstep's load-imbalance summary."""

    step: int
    slowest_worker: int
    slowest_seconds: float
    imbalance: float  # max/mean of per-worker compute seconds (1.0 = balanced)
    slowest_pid: int | None = None  # OS process identity (mp backend only)
    slowest_route_seconds: float = 0.0  # exchange-phase time of that worker


def straggler_supersteps(events, top: int = 5) -> list[StragglerRow]:
    """The ``top`` supersteps with the worst compute-time imbalance."""
    rows: list[StragglerRow] = []
    for e in _superstep_events(events):
        det, info = e.det or {}, e.info or {}
        secs = info.get("worker_seconds") or []
        if not secs:
            continue
        mean = sum(secs) / len(secs)
        if mean <= 0:
            continue
        worst = max(range(len(secs)), key=lambda w: secs[w])
        pids = info.get("worker_pids") or []
        route = info.get("worker_route_seconds") or []
        rows.append(
            StragglerRow(
                det.get("step", -1),
                worst,
                secs[worst],
                max(secs) / mean,
                pids[worst] if worst < len(pids) else None,
                route[worst] if worst < len(route) else 0.0,
            )
        )
    rows.sort(key=lambda r: r.imbalance, reverse=True)
    return rows[:top]


def profile_report(events, top: int = 5) -> str:
    """The ``gm-pregel profile`` terminal view: per-worker totals, the send
    imbalance and makespan inflation, and the worst straggler supersteps."""
    stats = worker_profile(events)
    if not stats:
        return "(no superstep records in trace)"
    lines = ["== per-worker totals =="]
    header = ["worker", "computed", "sent", "bytes", "compute ms", "share"]
    # mp traces carry real process identities and exchange (route) timings;
    # single-process backends leave them unset and the columns stay hidden.
    with_pids = any(s.pid is not None for s in stats)
    with_route = any(s.route_seconds > 0 for s in stats)
    if with_pids:
        header.insert(1, "pid")
    if with_route:
        header.append("route ms")
    total_seconds = sum(s.seconds for s in stats) or 1.0
    rows = []
    for s in stats:
        row = [
            str(s.worker),
            str(s.computed),
            str(s.sent),
            str(s.bytes),
            f"{s.seconds * 1e3:.2f}",
            f"{100.0 * s.seconds / total_seconds:.1f}%",
        ]
        if with_pids:
            row.insert(1, "-" if s.pid is None else str(s.pid))
        if with_route:
            row.append(f"{s.route_seconds * 1e3:.2f}")
        rows.append(row)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]

    sent = [s.sent for s in stats]
    if sent and sum(sent) > 0:
        mean = sum(sent) / len(sent)
        lines.append("")
        lines.append(f"send load imbalance (max/mean): {max(sent) / mean:.2f}")
        units, ideal = makespan(events)
        lines.append(f"makespan inflation (busiest/balanced): {units / ideal:.2f}")

    stragglers = straggler_supersteps(events, top)
    if stragglers:
        lines.append("")
        lines.append(f"== top {len(stragglers)} straggler supersteps ==")
        for row in stragglers:
            who = f"worker {row.slowest_worker}"
            if row.slowest_pid is not None:
                who += f" (pid {row.slowest_pid})"
            line = (
                f"  step {row.step}: {who} took "
                f"{row.slowest_seconds * 1e3:.2f} ms "
                f"({row.imbalance:.2f}x the mean)"
            )
            if row.slowest_route_seconds > 0:
                line += f", route {row.slowest_route_seconds * 1e3:.2f} ms"
            lines.append(line)
    return "\n".join(lines)
