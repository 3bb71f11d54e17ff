"""Experiment harness: runs the paper's evaluation (§5) on the simulator.

The central entry points map one-to-one onto the paper's artifacts:

* :func:`figure6_experiments` — for each (algorithm, graph) pair, run the
  compiler-generated program and the hand-written Pregel baseline on the same
  input and collect run time, timesteps, messages and network I/O.  The
  normalized run-time column reproduces Figure 6; the timestep/byte columns
  reproduce §5.2's parity claim.
* :func:`default_args` — the per-algorithm parameters used throughout the
  evaluation (PageRank: 10 iterations, as in the paper's fixed-iteration
  runs; BC: K=4 random roots).
* :func:`fault_ablation` — the fault-tolerance study (beyond the paper):
  checkpoint-interval sweep under an injected worker crash, verifying that
  every recovered run is bit-identical to the failure-free baseline and
  measuring the checkpoint-overhead / lost-work tradeoff.
* :func:`traced_run` / :func:`tracer_overhead` — observability hooks: run
  any benchmark workload with a ``repro.obs`` tracer attached (every
  harness entry point also forwards ``tracer=`` through its engine options),
  and measure what a *disabled* tracer costs on the Figure 6 PageRank run
  (the overhead budget CI enforces).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from ..algorithms.manual import MANUAL_PROGRAMS
from ..algorithms.sources import ALGORITHMS
from ..compiler import CompilationResult, compile_algorithm
from ..graphgen.registry import applicable_graphs, load_graph
from ..pregel.ft import CrashEvent, FaultPlan, FaultTolerance
from ..pregel.graph import Graph
from ..pregel.runtime import RunMetrics


def default_args(algorithm: str, graph: Graph) -> dict:
    """The evaluation parameters for each algorithm (paper §5)."""
    if algorithm == "pagerank":
        return {"e": 1e-9, "d": 0.85, "max_iter": 10}
    if algorithm == "avg_teen_cnt":
        return {"K": 30}
    if algorithm == "conductance":
        return {"num": 1}
    if algorithm == "sssp":
        return {"root": 0}
    if algorithm == "bfs":
        return {"root": 0}
    if algorithm == "bc_approx":
        return {"K": 4}
    return {}


@dataclass
class Measurement:
    wall_seconds: float
    supersteps: int
    messages: int
    message_bytes: int
    net_bytes: int

    @staticmethod
    def from_metrics(metrics: RunMetrics) -> "Measurement":
        return Measurement(
            metrics.wall_seconds,
            metrics.supersteps,
            metrics.messages,
            metrics.message_bytes,
            metrics.net_bytes,
        )


@dataclass
class PairResult:
    """One Figure 6 bar: generated vs manual on one (algorithm, graph)."""

    algorithm: str
    graph: str
    generated: Measurement
    manual: Measurement | None

    @property
    def normalized_runtime(self) -> float | None:
        if self.manual is None or self.manual.wall_seconds == 0:
            return None
        return self.generated.wall_seconds / self.manual.wall_seconds

    @property
    def timestep_delta(self) -> int | None:
        if self.manual is None:
            return None
        return self.generated.supersteps - self.manual.supersteps

    @property
    def message_parity(self) -> bool | None:
        if self.manual is None:
            return None
        return self.generated.messages == self.manual.messages


def _best_of(fn, repeats: int) -> Measurement:
    measurements = []
    for _ in range(max(1, repeats)):
        result = fn()
        measurements.append(Measurement.from_metrics(result.metrics))
    best = min(m.wall_seconds for m in measurements)
    sample = measurements[0]
    return Measurement(
        best, sample.supersteps, sample.messages, sample.message_bytes, sample.net_bytes
    )


def run_pair(
    algorithm: str,
    graph: Graph,
    graph_key: str = "",
    args: dict | None = None,
    *,
    repeats: int = 1,
    compiled: CompilationResult | None = None,
    **engine_opts,
) -> PairResult:
    """Run the generated program and (when one exists) the manual baseline."""
    if args is None:
        args = default_args(algorithm, graph)
    if compiled is None:
        compiled = compile_algorithm(algorithm, emit_java=False)
    generated = _best_of(lambda: compiled.program.run(graph, args, **engine_opts), repeats)
    manual = None
    baseline = MANUAL_PROGRAMS.get(algorithm)
    if baseline is not None:
        manual = _best_of(lambda: baseline.run(graph, args, **engine_opts), repeats)
    return PairResult(algorithm, graph_key, generated, manual)


#: Figure 6 covers the five algorithms with manual baselines; BC is reported
#: separately (the paper had no manual BC to compare against).
FIGURE6_ALGORITHMS = tuple(a for a in ALGORITHMS if a in MANUAL_PROGRAMS)


def figure6_experiments(
    scale: float = 1.0, *, repeats: int = 3, seed: int = 1, **engine_opts
) -> list[PairResult]:
    """All (algorithm, graph) pairs of Figure 6 at the given workload scale."""
    graphs = {}
    results: list[PairResult] = []
    for algorithm in FIGURE6_ALGORITHMS:
        compiled = compile_algorithm(algorithm, emit_java=False)
        for key in applicable_graphs(algorithm):
            if key not in graphs:
                graphs[key] = load_graph(key, scale, seed)
            graph = graphs[key]
            results.append(
                run_pair(
                    algorithm,
                    graph,
                    key,
                    repeats=repeats,
                    compiled=compiled,
                    **engine_opts,
                )
            )
    return results


@dataclass
class FaultAblationRow:
    """One cell of the checkpoint-interval sweep: a run with an injected
    worker crash, recovered with the given strategy."""

    checkpoint_every: int
    recovery: str
    metrics: RunMetrics
    #: outputs + deterministic metrics bit-identical to the fault-free run
    identical: bool


def fault_ablation(
    algorithm: str = "pagerank",
    graph_key: str = "twitter",
    *,
    scale: float = 0.5,
    seed: int = 1,
    intervals: tuple[int, ...] = (1, 2, 3, 5),
    crash: CrashEvent = CrashEvent(worker=1, superstep=5),
    recoveries: tuple[str, ...] = ("rollback", "confined"),
    num_workers: int = 4,
    args: dict | None = None,
) -> tuple[RunMetrics, list[FaultAblationRow]]:
    """Sweep the checkpoint interval under a fixed injected crash.

    Short intervals pay more checkpoint overhead (checkpoints taken × bytes)
    but lose less work on failure (lost supersteps, replay work); long
    intervals invert the tradeoff — the classic checkpointing dial.  Every
    faulted run is compared bit-for-bit against the failure-free baseline.
    """
    graph = load_graph(graph_key, scale, seed)
    if args is None:
        args = default_args(algorithm, graph)
    compiled = compile_algorithm(algorithm, emit_java=False)
    baseline = compiled.program.run(graph, args, num_workers=num_workers)
    rows: list[FaultAblationRow] = []
    for every in intervals:
        for recovery in recoveries:
            plan = FaultPlan(checkpoint_every=every, crashes=(crash,), recovery=recovery)
            run = compiled.program.run(
                graph, args, num_workers=num_workers, ft=FaultTolerance(plan)
            )
            identical = (
                run.outputs == baseline.outputs
                and run.metrics.parity_key() == baseline.metrics.parity_key()
            )
            rows.append(FaultAblationRow(every, recovery, run.metrics, identical))
    return baseline.metrics, rows


@dataclass
class SchedulerParityRow:
    """One cell of the scheduler parity matrix: a frontier-scheduled run
    compared bit-for-bit against its dense-scheduled twin."""

    algorithm: str
    variant: str  # "generated" | "manual"
    graph: str
    recovery: str | None  # fault-injected recovery strategy, None = fault-free
    identical: bool


def scheduler_parity(
    *,
    scale: float = 0.25,
    seed: int = 1,
    num_workers: int = 4,
    crash: CrashEvent = CrashEvent(worker=1, superstep=3),
    checkpoint_every: int = 2,
) -> list[SchedulerParityRow]:
    """The tentpole correctness claim, as a matrix: frontier scheduling is
    bit-identical (``parity_key()`` and outputs) to the dense scan for every
    algorithm, generated and manual, plus one fault-injected recovery run per
    strategy on a voting workload (manual SSSP — the program whose frontier
    state a checkpoint must actually carry)."""
    rows: list[SchedulerParityRow] = []
    graphs: dict[str, Graph] = {}

    def _graph(key: str) -> Graph:
        if key not in graphs:
            graphs[key] = load_graph(key, scale, seed)
        return graphs[key]

    def _compare(run_fn, key: str) -> bool:
        dense = run_fn(_graph(key), scheduling="dense")
        frontier = run_fn(_graph(key), scheduling="frontier")
        return (
            frontier.outputs == dense.outputs
            and frontier.metrics.parity_key() == dense.metrics.parity_key()
        )

    for algorithm in ALGORITHMS:
        key = applicable_graphs(algorithm)[0]
        compiled = compile_algorithm(algorithm, emit_java=False)
        args = default_args(algorithm, _graph(key))

        def _generated(graph, **opts):
            return compiled.program.run(graph, args, num_workers=num_workers, **opts)

        rows.append(
            SchedulerParityRow(
                algorithm, "generated", key, None, _compare(_generated, key)
            )
        )
        baseline = MANUAL_PROGRAMS.get(algorithm)
        if baseline is not None:

            def _manual(graph, **opts):
                return baseline.run(graph, args, num_workers=num_workers, **opts)

            rows.append(
                SchedulerParityRow(
                    algorithm, "manual", key, None, _compare(_manual, key)
                )
            )

    # Fault-injected runs: a frontier-scheduled run that crashes and recovers
    # must still match the dense fault-free baseline bit-for-bit.
    key = applicable_graphs("sssp")[0]
    sssp = MANUAL_PROGRAMS["sssp"]
    args = default_args("sssp", _graph(key))
    dense = sssp.run(_graph(key), args, num_workers=num_workers, scheduling="dense")
    for recovery in ("rollback", "confined"):
        plan = FaultPlan(
            checkpoint_every=checkpoint_every, crashes=(crash,), recovery=recovery
        )
        faulted = sssp.run(
            _graph(key),
            args,
            num_workers=num_workers,
            scheduling="frontier",
            ft=FaultTolerance(plan),
        )
        identical = (
            faulted.outputs == dense.outputs
            and faulted.metrics.parity_key() == dense.metrics.parity_key()
        )
        rows.append(SchedulerParityRow("sssp", "manual", key, recovery, identical))
    return rows


@dataclass
class SchedulerSweepRow:
    """One graph of the dense-vs-frontier BFS wall-clock sweep."""

    graph: str
    num_nodes: int
    num_edges: int
    supersteps: int
    messages: int
    reached: int
    dense_seconds: float
    frontier_seconds: float
    identical: bool

    @property
    def speedup(self) -> float:
        return self.dense_seconds / self.frontier_seconds if self.frontier_seconds else 0.0


def max_out_degree_root(graph: Graph) -> int:
    """A deterministic BFS root that is never a sink: the vertex with the
    most out-edges (ties to the lowest id)."""
    off = graph.out_offsets
    return max(range(graph.num_nodes), key=lambda v: (off[v + 1] - off[v], -v))


def deep_bfs_root(graph: Graph, candidates: int = 16) -> int:
    """A deterministic BFS root inside the graph's largest reachable region.

    On sparse directed random graphs a high out-degree vertex can still sit
    in a tiny component, which would make a scheduler benchmark traverse
    nothing.  Probe the ``candidates`` highest-out-degree vertices with a
    plain sequential BFS and pick the one reaching the most vertices
    (deepest traversal breaks ties, then lowest id)."""
    off, tgt = graph.out_offsets, graph.out_targets
    n = graph.num_nodes
    by_degree = sorted(range(n), key=lambda v: (off[v + 1] - off[v], -v), reverse=True)
    best = (-1, -1, 0)  # (reached, depth, -root)
    for root in by_degree[: max(1, candidates)]:
        seen = bytearray(n)
        seen[root] = 1
        frontier = [root]
        depth = reached = 0
        while frontier:
            nxt = []
            for v in frontier:
                for w in tgt[off[v] : off[v + 1]]:
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            reached += len(frontier)
            frontier = nxt
            depth += 1
        key = (reached, depth, -root)
        if key > best:
            best = key
    return -best[2]


def bfs_scheduler_sweep(
    graphs: list[tuple[str, Graph, int]],
    *,
    repeats: int = 3,
    num_workers: int = 4,
) -> list[SchedulerSweepRow]:
    """Dense vs frontier wall clock for manual BFS on each (name, graph,
    root), best of ``repeats``, verifying output + parity_key equality."""
    from ..algorithms.manual import ManualBFS

    bfs = ManualBFS()
    rows: list[SchedulerSweepRow] = []
    for name, graph, root in graphs:
        runs = {}
        for scheduling in ("dense", "frontier"):
            best = None
            for _ in range(max(1, repeats)):
                run = bfs.run(
                    graph, {"root": root}, num_workers=num_workers, scheduling=scheduling
                )
                if best is None or run.metrics.wall_seconds < best.metrics.wall_seconds:
                    best = run
            runs[scheduling] = best
        dense, frontier = runs["dense"], runs["frontier"]
        identical = (
            frontier.outputs == dense.outputs
            and frontier.metrics.parity_key() == dense.metrics.parity_key()
        )
        rows.append(
            SchedulerSweepRow(
                graph=name,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                supersteps=frontier.metrics.supersteps,
                messages=frontier.metrics.messages,
                reached=sum(1 for lvl in frontier.outputs["level"] if lvl >= 0),
                dense_seconds=dense.metrics.wall_seconds,
                frontier_seconds=frontier.metrics.wall_seconds,
                identical=identical,
            )
        )
    return rows


def bc_experiments(scale: float = 1.0, *, repeats: int = 1, seed: int = 1) -> list[PairResult]:
    """Generated-only BC runs (the paper's 'compiler handles what manual
    implementation could not' result)."""
    compiled = compile_algorithm("bc_approx", emit_java=False)
    results = []
    for key in applicable_graphs("bc_approx"):
        graph = load_graph(key, scale, seed)
        generated = _best_of(
            lambda: compiled.program.run(graph, default_args("bc_approx", graph)),
            repeats,
        )
        results.append(PairResult("bc_approx", key, generated, None))
    return results


def traced_run(
    algorithm: str,
    graph_key: str = "twitter",
    scale: float = 0.25,
    *,
    seed: int = 1,
    args: dict | None = None,
    **engine_opts,
):
    """Run one bundled algorithm with a recording tracer attached to both the
    compiler and the engine.  Returns ``(run, tracer)`` — the ``RunResult``
    and the :class:`repro.obs.Tracer` holding the full event stream (compiler
    passes, per-superstep records, FT lifecycle if a plan was passed)."""
    from ..obs import Tracer

    tracer = Tracer()
    compiled = compile_algorithm(algorithm, emit_java=False, tracer=tracer)
    graph = load_graph(graph_key, scale, seed)
    if args is None:
        args = default_args(algorithm, graph)
    run = compiled.program.run(graph, args, tracer=tracer, **engine_opts)
    return run, tracer


def paired_overhead(baseline, candidate, pairs: int) -> tuple[float, float, float]:
    """Time ``candidate`` against ``baseline`` — zero-argument callables
    that each run once and return its wall seconds — in ``pairs``
    back-to-back pairs, the side that goes first alternating, after one
    untimed warmup of each.  Returns the median wall of each side and the
    median of the per-pair ratios ``candidate / baseline``: host drift
    shared by a pair cancels, and one noisy run moves the median by at
    most one rank."""
    baseline()
    candidate()
    sides = (baseline, candidate)
    walls: tuple[list[float], list[float]] = ([], [])
    for pair in range(max(1, pairs)):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            walls[side].append(sides[side]())
    return (
        statistics.median(walls[0]),
        statistics.median(walls[1]),
        statistics.median(c / b if b else 1.0 for b, c in zip(*walls)),
    )


def _disabled_sink_overhead(
    algorithm: str, graph_key: str, scale: float, seed: int, pairs: int,
    sink: dict, run_opts: dict,
) -> tuple[float, float, float]:
    """Runs with ``sink`` (a disabled tracer or registry) against runs
    without, paired (:func:`paired_overhead`) on the engine's own wall."""
    compiled = compile_algorithm(algorithm, emit_java=False)
    graph = load_graph(graph_key, scale, seed)
    args = default_args(algorithm, graph)
    run = compiled.program.run
    return paired_overhead(
        lambda: run(graph, args, **run_opts).metrics.wall_seconds,
        lambda: run(graph, args, **sink, **run_opts).metrics.wall_seconds,
        pairs,
    )


def tracer_overhead(
    algorithm: str = "pagerank",
    graph_key: str = "twitter",
    scale: float = 0.25,
    *,
    pairs: int = 11,
    seed: int = 1,
    **run_opts,
) -> dict:
    """Measure what a *disabled* tracer costs on a Figure 6 workload.

    Pairs ``tracer=None`` runs with :class:`repro.obs.NullTracer` runs
    (``run_opts``, e.g. ``backend=``, go to both arms).  The two paths are
    meant to be identical (the engine installs its metering wrappers only
    for a *recording* tracer), so the ratio is a noise-bounded regression
    check — CI asserts it stays under a 5% budget.
    """
    from ..obs import NULL_TRACER

    plain, nulled, ratio = _disabled_sink_overhead(
        algorithm, graph_key, scale, seed, pairs, {"tracer": NULL_TRACER}, run_opts
    )
    return {
        "algorithm": algorithm,
        "graph": graph_key,
        "plain_seconds": plain,
        "null_tracer_seconds": nulled,
        "overhead_ratio": ratio,
    }


def metrics_overhead(
    algorithm: str = "pagerank",
    graph_key: str = "twitter",
    scale: float = 0.25,
    *,
    pairs: int = 11,
    seed: int = 1,
    **run_opts,
) -> dict:
    """Measure what a *disabled* metrics registry costs on a Figure 6
    workload — the registry twin of :func:`tracer_overhead`: pairs
    ``metrics_registry=None`` runs with ``NULL_REGISTRY`` runs, which the
    engine treats identically (no metering handles are created), so the
    ratio checks the zero-cost-when-disabled contract (<5% in CI).
    """
    from ..obs import NULL_REGISTRY

    plain, nulled, ratio = _disabled_sink_overhead(
        algorithm, graph_key, scale, seed, pairs,
        {"metrics_registry": NULL_REGISTRY}, run_opts,
    )
    return {
        "algorithm": algorithm,
        "graph": graph_key,
        "plain_seconds": plain,
        "null_registry_seconds": nulled,
        "overhead_ratio": ratio,
    }
