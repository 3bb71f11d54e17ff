"""Chaos harness: randomized fault-plan matrices over the transport and
supervision layers.

The seeded-fuzz workhorse behind ``tests/test_chaos_fuzz.py`` and the CI
``chaos`` job: each case draws a fault mix (drop × dup × reorder × corrupt ×
silent crash) from its own seeded RNG, runs an algorithm under it, and
checks the exactly-once/parity invariants against a clean baseline of the
same workload — outputs and ``parity_key()`` bit-identical, fault counters
consistent with the mix that was drawn.  The matrix sweep aggregates cases
into a report; :func:`transport_overhead` and :func:`recovery_latency_sweep`
are the measurement halves ``benchmarks/bench_net.py`` builds on.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

from ..compiler import compile_algorithm
from ..graphgen.registry import applicable_graphs, load_graph
from ..pregel.ft import CrashEvent, FaultPlan, FaultTolerance
from ..pregel.net import NetFaultPlan, SimulatedTransport
from ..pregel.supervisor import Supervisor, SupervisorPlan
from .harness import default_args, paired_overhead

#: message-driven algorithms exercise the transport hardest; conductance
#: and avg_teen_cnt are near-stateless two-step jobs, so the fuzz matrix
#: rotates through the interesting four.
CHAOS_ALGORITHMS = ("pagerank", "sssp", "bipartite_matching", "bc_approx")


@dataclass(frozen=True)
class ChaosCase:
    """One drawn fault mix: a transport plan plus (optionally) a silent
    crash the supervisor must detect and (optionally) a per-worker memory
    budget forcing spill/backpressure under the same faults."""

    seed: int
    algorithm: str
    recovery: str
    net_plan: NetFaultPlan
    crash: CrashEvent | None
    mem_budget: int | None = None

    def describe(self) -> str:
        p = self.net_plan
        crash = (
            f"crash={self.crash.worker}@{self.crash.superstep}"
            if self.crash
            else "crash=none"
        )
        mem = f"mem={self.mem_budget}" if self.mem_budget else "mem=unlimited"
        return (
            f"seed={self.seed} {self.algorithm}/{self.recovery} "
            f"drop={p.drop_rate:.2f} dup={p.dup_rate:.2f} "
            f"reorder={p.reorder_rate:.2f} corrupt={p.corrupt_rate:.2f} "
            f"{crash} {mem}"
        )


@dataclass
class ChaosResult:
    case: ChaosCase
    identical: bool
    detected: bool
    messages_dropped: int
    messages_duplicated: int
    messages_reordered: int
    messages_corrupted: int
    heartbeats_missed: int
    restarts: int
    spilled_bytes: int = 0
    superstep_splits: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.identical and not self.violations


def draw_case(
    seed: int,
    *,
    algorithms: tuple[str, ...] = CHAOS_ALGORITHMS,
    max_rate: float = 0.3,
) -> ChaosCase:
    """Deterministically expand one fuzz seed into a fault mix.

    Every axis of the loss × dup × reorder × crash matrix is sampled
    independently (each fault type is present with probability 1/2, with a
    rate up to ``max_rate``), so the sweep covers single-fault corners and
    hostile combinations alike.
    """
    rng = random.Random(seed)
    algorithm = algorithms[seed % len(algorithms)]
    recovery = ("rollback", "confined")[(seed // len(algorithms)) % 2]
    rate = lambda: round(rng.uniform(0.02, max_rate), 3) if rng.random() < 0.5 else 0.0
    net_plan = NetFaultPlan(
        drop_rate=rate(),
        dup_rate=rate(),
        reorder_rate=rate(),
        corrupt_rate=rate(),
        seed=rng.randrange(1 << 30),
    )
    crash = None
    if rng.random() < 0.5:
        # Silent death at an early-to-mid superstep on a random worker; the
        # exact superstep is clamped to the run's length by run_case.
        crash = CrashEvent(worker=rng.randrange(4), superstep=2 + rng.randrange(6))
    mem_budget = None
    if rng.random() < 0.4:
        # Tight-but-satisfiable budget (64K–512K): forces spilling and
        # superstep splits on these workloads without tripping OOM, so the
        # parity invariant keeps holding under the memory axis too.
        mem_budget = 1 << rng.randrange(16, 20)
    return ChaosCase(seed, algorithm, recovery, net_plan, crash, mem_budget)


def run_case(
    case: ChaosCase,
    *,
    scale: float = 0.25,
    workers: int = 4,
    checkpoint_every: int = 2,
) -> ChaosResult:
    """Run one case against its clean baseline and check every invariant."""
    graph = load_graph(applicable_graphs(case.algorithm)[0], scale)
    program = compile_algorithm(case.algorithm, emit_java=False).program
    args = default_args(case.algorithm, graph)
    baseline = program.run(graph, args, num_workers=workers)

    crash = case.crash
    if crash is not None:
        # Clamp the scripted death inside the run so it always fires, as a
        # silent kill the supervisor must detect.
        step = max(1, min(crash.superstep, baseline.metrics.supersteps - 1))
        crash = CrashEvent(worker=crash.worker % workers, superstep=step, kind="kill")
    transport = SimulatedTransport(case.net_plan)
    supervisor = Supervisor(SupervisorPlan())
    mem = None
    if case.mem_budget:
        from ..pregel.mem import MemoryManager, MemPlan

        mem = MemoryManager(MemPlan(budget_bytes=case.mem_budget))
    run = program.run(
        graph,
        args,
        num_workers=workers,
        ft=FaultTolerance(
            FaultPlan(
                checkpoint_every=checkpoint_every,
                crashes=(crash,) if crash else (),
                recovery=case.recovery,
            )
        ),
        transport=transport,
        supervisor=supervisor,
        mem=mem,
    )

    m = run.metrics
    violations: list[str] = []
    plan = case.net_plan
    # Exactly-once invariants.  A drawn fault type must actually have been
    # exercised, and a counter may only fire when some drawn fault explains
    # it — dedup hits also come from retransmissions whose *ack* dropped,
    # and the reorder buffer also absorbs the gaps drops/corruption tear
    # into the stream, so those counters key on the union of their causes.
    # Data never leaking into results is the `identical` check.
    if plan.drop_rate == 0.0 and m.messages_dropped:
        violations.append(f"drop_rate=0 but metered {m.messages_dropped}")
    if plan.corrupt_rate == 0.0 and m.messages_corrupted:
        violations.append(f"corrupt_rate=0 but metered {m.messages_corrupted}")
    if plan.dup_rate == plan.drop_rate == 0.0 and m.messages_duplicated:
        violations.append(f"no dup/drop drawn but metered {m.messages_duplicated}")
    if (
        plan.reorder_rate == plan.drop_rate == plan.corrupt_rate == 0.0
        and m.messages_reordered
    ):
        violations.append(f"no reorder/drop/corrupt drawn but metered {m.messages_reordered}")
    for rate_name, counter in (
        ("drop_rate", m.messages_dropped),
        ("dup_rate", m.messages_duplicated),
        ("reorder_rate", m.messages_reordered),
        ("corrupt_rate", m.messages_corrupted),
    ):
        if getattr(plan, rate_name) >= 0.05 and m.messages > 1000 and counter == 0:
            violations.append(f"{rate_name}={getattr(plan, rate_name)} never fired")
    if plan.drop_rate > 0 and m.packets_retransmitted == 0 and m.messages_dropped > 0:
        violations.append("drops without retransmissions")
    if crash is not None and m.restarts == 0 and m.halt_reason != "unrecoverable":
        violations.append("scripted silent crash never detected")
    if crash is None and m.restarts != 0:
        violations.append("restart without a scripted crash")
    # Memory-budget invariants: without a budget the mem counters must stay
    # zero; with one the run must still complete (the drawn budgets are
    # satisfiable for these workloads) and never exceed out-of-memory.
    if case.mem_budget is None and (
        m.spilled_bytes or m.outbox_parks or m.superstep_splits or m.mem_peak_bytes
    ):
        violations.append("mem counters fired without a budget")
    if case.mem_budget is not None and m.halt_reason == "out_of_memory":
        violations.append(f"satisfiable budget {case.mem_budget} hit OOM")

    identical = (
        run.outputs == baseline.outputs
        and m.parity_key() == baseline.metrics.parity_key()
    )
    return ChaosResult(
        case=case,
        identical=identical,
        detected=m.restarts > 0,
        messages_dropped=m.messages_dropped,
        messages_duplicated=m.messages_duplicated,
        messages_reordered=m.messages_reordered,
        messages_corrupted=m.messages_corrupted,
        heartbeats_missed=m.heartbeats_missed,
        restarts=m.restarts,
        spilled_bytes=m.spilled_bytes,
        superstep_splits=m.superstep_splits,
        violations=violations,
    )


def chaos_matrix(
    seeds: range | list[int],
    *,
    scale: float = 0.25,
    workers: int = 4,
) -> list[ChaosResult]:
    """The full sweep: one :func:`run_case` per seed."""
    return [run_case(draw_case(seed), scale=scale, workers=workers) for seed in seeds]


def chaos_report(results: list[ChaosResult]) -> str:
    lines = [
        "chaos fuzz matrix: randomized loss x dup x reorder x crash",
        f"cases: {len(results)}  "
        f"parity-identical: {sum(r.identical for r in results)}  "
        f"crash-detected: {sum(r.detected for r in results)}  "
        f"violations: {sum(len(r.violations) for r in results)}",
        "",
    ]
    for r in results:
        status = "ok " if r.ok else "FAIL"
        lines.append(
            f"  [{status}] {r.case.describe()} -> "
            f"dropped={r.messages_dropped} dup={r.messages_duplicated} "
            f"reordered={r.messages_reordered} corrupted={r.messages_corrupted} "
            f"hb_missed={r.heartbeats_missed} restarts={r.restarts} "
            f"spilled={r.spilled_bytes} splits={r.superstep_splits}"
            + (f"  !! {'; '.join(r.violations)}" if r.violations else "")
        )
    return "\n".join(lines)


# -- measurement helpers (benchmarks/bench_net.py) -----------------------


def transport_overhead(
    scale: float = 0.5, *, workers: int = 4, pairs: int = 11
) -> dict:
    """Wall-time of the reliable-transport *fast path* (an all-zero fault
    plan) relative to direct in-memory routing — the ≤5% ceiling CI
    enforces — as :func:`~repro.bench.harness.paired_overhead` pairs
    them.  Every routed run must equal the direct runs bit for bit."""
    graph = load_graph("twitter", scale)
    program = compile_algorithm("pagerank", emit_java=False).program
    args = default_args("pagerank", graph)
    runs: dict[str, list] = {"direct": [], "transport": []}

    def timed(side: str):
        def arm() -> float:
            transport = SimulatedTransport(NetFaultPlan()) if side == "transport" else None
            t0 = time.perf_counter()
            runs[side].append(program.run(graph, args, num_workers=workers, transport=transport))
            return time.perf_counter() - t0

        return arm

    direct_s, transport_s, ratio = paired_overhead(
        timed("direct"), timed("transport"), pairs
    )
    for direct, routed in zip(runs["direct"], runs["transport"]):
        assert routed.outputs == direct.outputs
        assert routed.metrics.parity_key() == direct.metrics.parity_key()
    return {"direct_s": direct_s, "transport_s": transport_s, "overhead_ratio": ratio}


@dataclass
class RecoveryLatencyRow:
    """One point of the recovery-latency-vs-fault-rate curve."""

    drop_rate: float
    recovery: str
    identical: bool
    detection_silence_units: float
    recovery_clock_units: float
    wall_seconds: float
    retransmitted: int
    backoff_units: int


def recovery_latency_sweep(
    drop_rates: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3),
    *,
    scale: float = 0.25,
    workers: int = 4,
    repeats: int = 3,
) -> list[RecoveryLatencyRow]:
    """Detection + recovery latency for a heartbeat-detected crash as the
    channel degrades: the simulated clock cost of the supervision cycle
    (silence until the detector fires) and the wall cost of running the
    protocol at each drop rate, for both recovery strategies."""
    graph = load_graph("twitter", scale)
    program = compile_algorithm("pagerank", emit_java=False).program
    args = default_args("pagerank", graph)
    baseline = program.run(graph, args, num_workers=workers)
    crash_step = max(1, baseline.metrics.supersteps - 2)
    rows: list[RecoveryLatencyRow] = []
    for recovery in ("rollback", "confined"):
        for rate in drop_rates:
            walls = []
            for _ in range(repeats):
                transport = (
                    SimulatedTransport(NetFaultPlan(drop_rate=rate, seed=11))
                    if rate
                    else None
                )
                supervisor = Supervisor(SupervisorPlan())
                plan = FaultPlan(
                    checkpoint_every=2,
                    crashes=(CrashEvent(1, crash_step, "kill"),),
                    recovery=recovery,
                )
                t0 = time.perf_counter()
                run = program.run(
                    graph,
                    args,
                    num_workers=workers,
                    ft=FaultTolerance(plan),
                    transport=transport,
                    supervisor=supervisor,
                )
                walls.append(time.perf_counter() - t0)
            report = supervisor.report()
            detection = report["detections"][0] if report["detections"] else {}
            rows.append(
                RecoveryLatencyRow(
                    drop_rate=rate,
                    recovery=recovery,
                    identical=(
                        run.outputs == baseline.outputs
                        and run.metrics.parity_key() == baseline.metrics.parity_key()
                    ),
                    detection_silence_units=detection.get("silence", 0.0),
                    recovery_clock_units=report["clock_units"],
                    wall_seconds=statistics.median(walls),
                    retransmitted=run.metrics.packets_retransmitted,
                    backoff_units=run.metrics.net_backoff_units,
                )
            )
    return rows


@dataclass
class MPKillRow:
    """One point of the real-process fault sweep on the mp backend."""

    kind: str  # "kill" | "hang" | "netsplit" | "slowlink"
    recovery: str
    deadline_s: float
    identical: bool
    restarts: int
    wall_seconds: float
    overhead_s: float
    transport: str = "shm"


def mp_kill_sweep(
    kinds: tuple[str, ...] = ("kill", "hang"),
    *,
    scale: float = 0.12,
    workers: int = 2,
    deadline_s: float = 1.5,
    transport: str = "shm",
) -> list[MPKillRow]:
    """Real faults against live mp worker processes: the parent's
    deadline-based barrier detects the failure, re-forks the worker from
    the latest checkpoint, and the run must finish bit-identical to the
    failure-free mp baseline on the same transport.  ``kill`` / ``hang``
    are process faults on either transport; under ``transport="tcp"``
    the sweep also accepts the network kinds — ``netsplit`` (the
    victim's listening socket closes mid-exchange, peers see a real
    ECONNREFUSED) and ``slowlink`` (the victim stalls past its peers'
    deadline).  The wall overhead is the real price of detection +
    re-fork + replay (for ``hang``/``slowlink`` the floor is the
    exchange deadline itself).  Returns ``[]`` when the platform cannot
    run the mp backend."""
    from ..pregel.backend.mp import mp_available

    if not mp_available():
        return []
    graph = load_graph("twitter", scale)
    program = compile_algorithm("pagerank", emit_java=False).program
    args = default_args("pagerank", graph)
    t0 = time.perf_counter()
    baseline = program.run(
        graph, args, backend="mp", num_workers=workers,
        transport_mode=transport,
    )
    base_wall = time.perf_counter() - t0
    crash_step = max(1, baseline.metrics.supersteps - 2)
    rows: list[MPKillRow] = []
    for recovery in ("rollback", "confined"):
        for kind in kinds:
            ft = FaultTolerance(
                FaultPlan(
                    checkpoint_every=2,
                    crashes=(CrashEvent(1, crash_step, kind),),
                    recovery=recovery,
                )
            )
            t0 = time.perf_counter()
            run = program.run(
                graph,
                args,
                backend="mp",
                num_workers=workers,
                ft=ft,
                exchange_deadline=deadline_s,
                transport_mode=transport,
            )
            wall = time.perf_counter() - t0
            rows.append(
                MPKillRow(
                    kind=kind,
                    recovery=recovery,
                    deadline_s=deadline_s,
                    identical=(
                        run.outputs == baseline.outputs
                        and run.metrics.parity_key() == baseline.metrics.parity_key()
                    ),
                    restarts=run.metrics.restarts,
                    wall_seconds=wall,
                    overhead_s=wall - base_wall,
                    transport=transport,
                )
            )
    return rows


@dataclass
class MPTransportRow:
    """One (algorithm, transport) point of the slab-exchange comparison."""

    algorithm: str
    transport: str  # "shm" | "tcp"
    wall_seconds: list  # raw per-repeat samples (min-of-N at read time)
    identical: bool  # parity vs the shm run of the same algorithm
    supersteps: int
    messages: int
    message_bytes: int
    net_messages: int
    net_bytes: int

    @property
    def best_wall(self) -> float:
        return min(self.wall_seconds)

    @property
    def throughput_mbs(self) -> float:
        """Cross-worker slab throughput, MB of net payload per second."""
        return self.net_bytes / self.best_wall / 1e6


def mp_transport_sweep(
    algorithms: tuple[str, ...] = ("pagerank", "sssp"),
    *,
    scale: float = 0.12,
    workers: int = 2,
    repeats: int = 3,
) -> list[MPTransportRow]:
    """shm vs tcp slab exchange on the same workload: both transports
    must be bit-identical on ``parity_key()`` + outputs (the tcp rows
    are checked against their shm twins), and the wall columns price
    what real loopback sockets cost over shared-memory segments.
    Returns ``[]`` when the platform cannot run the mp backend."""
    from ..pregel.backend.mp import mp_available

    if not mp_available():
        return []
    graph = load_graph("twitter", scale)
    rows: list[MPTransportRow] = []
    for alg in algorithms:
        program = compile_algorithm(alg, emit_java=False).program
        args = default_args(alg, graph)
        runs = {}
        for transport in ("shm", "tcp"):
            walls = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                run = program.run(
                    graph, args, backend="mp", num_workers=workers,
                    transport_mode=transport,
                )
                walls.append(time.perf_counter() - t0)
            runs[transport] = run
            m = run.metrics
            oracle = runs["shm"]
            rows.append(
                MPTransportRow(
                    algorithm=alg,
                    transport=transport,
                    wall_seconds=walls,
                    identical=(
                        run.outputs == oracle.outputs
                        and m.parity_key() == oracle.metrics.parity_key()
                    ),
                    supersteps=m.supersteps,
                    messages=m.messages,
                    message_bytes=m.message_bytes,
                    net_messages=m.net_messages,
                    net_bytes=m.net_bytes,
                )
            )
    return rows
