"""Self-healing supervision: heartbeats, failure detection, automatic recovery.

PR 1's fault tolerance recovers from crashes it is *told about* — a
pre-declared :class:`~repro.pregel.ft.CrashEvent` schedule drives recovery
directly.  Real Pregel/GPS masters are told nothing: they learn a worker is
gone because its heartbeats stop, and they must decide, recover, and keep a
restart budget on their own.  This module adds that layer to the simulator:

* **Simulated cluster clock** — each superstep every live worker "runs" for
  a simulated duration (1 unit per hosted partition, inflated for
  stragglers) and emits heartbeats every ``heartbeat_interval`` units; the
  barrier completes at the slowest live worker.
* **Failure model** — workers die *silently* (scripted
  ``silent_crashes=(CrashEvent(w, s), ...)`` and/or a seeded per-superstep
  ``crash_rate``): the supervisor is never told, it only sees the
  heartbeats stop.  Stragglers (scripted ``stragglers`` and/or a seeded
  ``straggle_rate``) run ``straggle_factor`` slower.
* **Phi-style/deadline failure detector** — per worker, suspicion grows
  with silence: ``phi = elapsed / (mean_interval · ln 10)`` (the phi-accrual
  formulation under exponential inter-arrivals) accrues until it crosses
  ``phi_threshold``, with ``deadline_timeout`` as the hard upper bound.
  The BSP barrier stalls on the dead worker, so detection resolves at the
  barrier where the crash happened — detection latency (simulated units) is
  the silence the detector needed, and every missed heartbeat is metered.
* **Escalation → automatic recovery** — a detected death triggers the
  *existing* recovery machinery (:meth:`FaultTolerance.recover_worker`,
  rollback or confined per the plan) for the partitions the dead worker
  hosted, and the worker is restarted.  Each restart spends one unit of
  the run's one budget, :attr:`FaultPlan.max_restarts`, which the FT
  manager keeps whoever detected the death.
* **Straggler quarantine** — a worker that blows ``barrier_timeout`` for
  ``straggle_strikes`` consecutive barriers is quarantined: its partitions
  are re-hosted onto the least-loaded live workers.  Hosting is *physical*
  placement only — the logical vertex→partition map (and with it every
  deterministic metered quantity) never changes, exactly as GPS re-assigns
  partition files without renumbering the partitions.
* **Graceful degradation** — when a detected failure finds the restart
  budget exhausted, the run is aborted with
  ``halt_reason="unrecoverable"`` and a structured partial-result
  :meth:`report` instead of an exception.

Because detection only ever *triggers* PR 1's bit-exact recovery (or aborts),
a supervised run that stays within its restart budget produces outputs and
``RunMetrics.parity_key()`` identical to the failure-free run — the
acceptance property ``tests/test_supervisor.py`` asserts for all six
algorithms under both recovery strategies.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .ft import CrashEvent, bad_fault_spec, parse_fault, parse_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import PregelEngine

_LN10 = math.log(10.0)


class PhiAccrualDetector:
    """Phi-accrual suspicion over heartbeat inter-arrival times.

    Under exponentially distributed inter-arrivals with the observed mean,
    ``phi(elapsed) = -log10 P(silence > elapsed) = elapsed / (mean · ln 10)``.
    A sliding window keeps the mean adaptive; it is seeded with the nominal
    interval so the detector is armed from the first superstep.
    """

    def __init__(self, expected_interval: float, window: int = 32):
        self._intervals: deque[float] = deque([expected_interval], maxlen=window)

    def observe(self, interval: float) -> None:
        self._intervals.append(interval)

    @property
    def mean_interval(self) -> float:
        return sum(self._intervals) / len(self._intervals)

    def phi(self, elapsed: float) -> float:
        return elapsed / (self.mean_interval * _LN10)

    def silence_for_phi(self, phi_threshold: float) -> float:
        """The silence (simulated units) at which suspicion crosses the
        threshold — how long the barrier must stall before detection."""
        return phi_threshold * self.mean_interval * _LN10


@dataclass(frozen=True)
class SupervisorPlan:
    """Everything about a run's supervision, fixed up front (deterministic).

    * ``heartbeat_interval`` — simulated units between worker heartbeats.
    * ``phi_threshold`` / ``deadline_timeout`` — the failure detector: a
      worker is declared dead when its silence drives phi past the
      threshold *or* exceeds the hard deadline (0 disables the deadline).
    * ``barrier_timeout`` / ``straggle_strikes`` — a worker slower than the
      barrier timeout for N consecutive barriers is quarantined.
    * ``silent_crashes`` — scripted silent deaths (the supervisor is not
      told; it must detect them).  ``crash_rate`` adds seeded random deaths
      per live worker per superstep.
    * ``stragglers`` — workers that are always slow; ``straggle_rate`` adds
      seeded random slowness, both inflated by ``straggle_factor``.
    * ``seed`` — seeds the supervisor's own RNG, independent of the
      engine's and the transport's.
    """

    heartbeat_interval: float = 1.0
    phi_threshold: float = 4.0
    deadline_timeout: float = 5.0
    barrier_timeout: float = 6.0
    straggle_strikes: int = 3
    silent_crashes: tuple[CrashEvent, ...] = ()
    crash_rate: float = 0.0
    stragglers: tuple[int, ...] = ()
    straggle_rate: float = 0.0
    straggle_factor: float = 8.0
    seed: int = 43

    def __post_init__(self):
        # NaN fails every comparison: each check needs a true one to pass
        if not self.heartbeat_interval > 0:
            raise ValueError("heartbeat_interval must be > 0")
        if not self.phi_threshold > 0:
            raise ValueError("phi_threshold must be > 0")
        if not (self.deadline_timeout >= 0 and self.barrier_timeout >= 0):
            raise ValueError("timeouts must be >= 0")
        if self.straggle_strikes < 1:
            raise ValueError("straggle_strikes must be >= 1")
        for name in ("crash_rate", "straggle_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if not self.straggle_factor >= 1.0:
            raise ValueError("straggle_factor must be >= 1.0")


_HB_KEYS = {
    "interval": ("heartbeat_interval", float),
    "phi": ("phi_threshold", float),
    "deadline": ("deadline_timeout", float),
    "barrier": ("barrier_timeout", float),
    "strikes": ("straggle_strikes", int),
    "crash-rate": ("crash_rate", float),
    "straggle-rate": ("straggle_rate", float),
    "straggle-factor": ("straggle_factor", float),
    "seed": ("seed", int),
}


def parse_heartbeat(spec: str) -> SupervisorPlan:
    """Parse the CLI syntax, e.g.
    ``interval=1,deadline=4,crash=1@3+0@6,straggler=2,seed=5``.

    ``crash=W@S`` schedules silent worker deaths ("+"-separated for several;
    bare ``W@S`` — the supervisor detects them, so they have no kind),
    ``straggler=W`` marks always-slow workers; the remaining keys map onto
    :class:`SupervisorPlan` fields.  The restart budget is the fault
    plan's (``--max-restarts``).
    """
    kwargs = parse_spec("--heartbeat", spec, _HB_KEYS, lists=("crash", "straggler"))
    crashes: list[CrashEvent] = []
    for part in (p for text in kwargs.pop("crash", ()) for p in text.split("+")):
        if ":" in part:
            raise bad_fault_spec(part)
        crashes.append(parse_fault(part))
    stragglers: list[int] = []
    for text in kwargs.pop("straggler", ()):
        parts = [part.strip() for part in text.split("+")]
        if not all(part.isdigit() for part in parts):
            raise ValueError(
                f"invalid --heartbeat straggler list '{text}': expected "
                "WORKER[+WORKER...], each >= 0"
            )
        stragglers.extend(map(int, parts))
    return SupervisorPlan(
        silent_crashes=tuple(crashes), stragglers=tuple(stragglers), **kwargs
    )


class Supervisor:
    """Per-run supervision: clock, heartbeat monitor, detector, escalation.

    Create one per execution and hand it to the engine together with a
    :class:`~repro.pregel.ft.FaultTolerance` manager (the recovery machinery
    detection escalates into):
    ``program.run(graph, args, ft=FaultTolerance(plan), supervisor=Supervisor(splan))``.
    """

    def __init__(self, plan: SupervisorPlan):
        self.plan = plan
        self._engine: "PregelEngine | None" = None
        self._mreg = None  # engine's metrics registry, picked up at attach()
        self._rng = random.Random(plan.seed)
        self._started = False
        self._clock = 0.0
        self._real_epoch = 0.0  # wall-clock origin of real-liveness mode
        self._pending_crashes = sorted(plan.silent_crashes, key=lambda c: c.superstep)
        self._host_of: list[int] = []      # partition -> hosting worker
        self._last_heartbeat: list[float] = []
        self._detectors: list[PhiAccrualDetector] = []
        self._strikes: list[int] = []
        self._quarantined: set[int] = set()
        self.degraded = False
        self.oom: dict | None = None
        self._detections: list[dict] = []
        self._quarantines: list[dict] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, engine: "PregelEngine") -> None:
        if self._engine is not None:
            raise RuntimeError("a Supervisor drives exactly one run")
        if engine.ft is None:
            raise ValueError(
                "supervision requires a FaultTolerance manager: detection "
                "escalates into its checkpoint recovery (pass ft=...)"
            )
        workers = engine.num_workers
        for crash in self._pending_crashes:
            if not 0 <= crash.worker < workers:
                raise ValueError(
                    f"--heartbeat schedules a crash of worker {crash.worker} "
                    f"but the engine has {workers} workers"
                )
        for worker in self.plan.stragglers:
            if not 0 <= worker < workers:
                raise ValueError(
                    f"--heartbeat marks straggler {worker} but the engine "
                    f"has {workers} workers"
                )
        self._engine = engine
        self._mreg = getattr(engine, "_mreg", None)
        # A recovery point must exist before anything can be detected dead.
        engine.ft.force_initial_checkpoint = True

    def _tracer(self):
        tracer = self._engine.tracer
        return tracer if tracer is not None and tracer.enabled else None

    def _hosted(self, worker: int) -> list[int]:
        return [p for p, host in enumerate(self._host_of) if host == worker]

    # -- engine hook ------------------------------------------------------

    def on_superstep_start(self) -> None:
        """Runs at every superstep boundary, before the FT manager's own
        hook: simulate the barrier that just completed (durations,
        heartbeats, silent deaths), detect, and escalate."""
        engine = self._engine
        if not self._started:
            self._started = True
            workers = engine.num_workers
            self._host_of = list(range(workers))
            self._last_heartbeat = [0.0] * workers
            self._detectors = [
                PhiAccrualDetector(self.plan.heartbeat_interval)
                for _ in range(workers)
            ]
            self._strikes = [0] * workers
            return
        plan = self.plan
        rng = self._rng
        workers = engine.num_workers

        # The barrier that just completed: per-worker simulated durations.
        slow = set(plan.stragglers)
        if plan.straggle_rate:
            slow.update(
                w for w in range(workers)
                if w not in self._quarantined and rng.random() < plan.straggle_rate
            )
        durations = [0.0] * workers
        for w in range(workers):
            hosted = sum(1 for host in self._host_of if host == w)
            if hosted:
                durations[w] = hosted * (
                    plan.straggle_factor if w in slow else 1.0
                )

        # Silent deaths during that barrier: scripted first, then random.
        crashed: list[int] = []
        while (
            self._pending_crashes
            and self._pending_crashes[0].superstep == engine.superstep
        ):
            crashed.append(self._pending_crashes.pop(0).worker)
        if plan.crash_rate:
            for w in range(workers):
                if w not in crashed and self._hosted(w) and rng.random() < plan.crash_rate:
                    crashed.append(w)

        barrier = max((durations[w] for w in range(workers) if w not in crashed), default=1.0)
        barrier = max(barrier, 1.0)
        self._clock += barrier

        # Live workers heartbeated through the barrier.
        interval = plan.heartbeat_interval
        for w in range(workers):
            if w not in crashed:
                gap = self._clock - self._last_heartbeat[w]
                beats = int(gap // interval)
                if beats:
                    self._detectors[w].observe(gap / beats)
                self._last_heartbeat[w] = self._clock

        # A dead worker stalls the BSP barrier; the master waits until the
        # detector fires.  Detection latency = the silence the phi/deadline
        # detector needed, measured from the victim's last heartbeat.
        tracer = self._tracer()
        for w in crashed:
            detector = self._detectors[w]
            silence = detector.silence_for_phi(plan.phi_threshold)
            if plan.deadline_timeout:
                silence = min(silence, plan.deadline_timeout)
            detected_at = max(self._clock, self._last_heartbeat[w] + silence)
            missed = int((detected_at - self._last_heartbeat[w]) // interval)
            self._clock = max(self._clock, detected_at)
            detection = {
                "worker": w,
                "superstep": engine.superstep,
                "clock": self._clock,
                "silence": detected_at - self._last_heartbeat[w],
                "phi": detector.phi(detected_at - self._last_heartbeat[w]),
                "heartbeats_missed": missed,
            }
            if not self._escalate(w, detection, tracer, self._clock):
                return  # degraded: the run halts at this barrier

        # Straggler quarantine: consecutive blown barriers re-host the
        # worker's partitions (physical placement only — the logical
        # partition map, and with it the metered ledger, is untouched).
        if plan.barrier_timeout:
            for w in range(workers):
                if w in self._quarantined or w in crashed or not durations[w]:
                    continue
                if durations[w] > plan.barrier_timeout:
                    self._strikes[w] += 1
                    if self._strikes[w] >= plan.straggle_strikes:
                        self._quarantine(w, tracer)
                else:
                    self._strikes[w] = 0

    # -- real-process liveness (mp backend) -------------------------------
    #
    # The simulated hook above models the cluster clock; the mp backend
    # has real worker processes, so the same detector runs on wall time:
    # every barrier reply is a liveness ping, and a reply that never
    # arrives (the parent's deadline-based exchange) is a detection.

    def start_liveness(self, now: float) -> None:
        """Arm the detector against real wall-clock heartbeats (mp): the
        workers were just forked, so every partition hosts on its own
        worker and every detector starts from the nominal interval."""
        engine = self._engine
        workers = engine.num_workers
        self._started = True
        self._real_epoch = now
        self._host_of = list(range(workers))
        self._last_heartbeat = [now] * workers
        self._detectors = [
            PhiAccrualDetector(self.plan.heartbeat_interval)
            for _ in range(workers)
        ]
        self._strikes = [0] * workers

    def observe_liveness(self, worker: int, now: float) -> None:
        """One real heartbeat: worker ``worker``'s barrier reply arrived."""
        gap = now - self._last_heartbeat[worker]
        if gap > 0:
            self._detectors[worker].observe(gap)
        self._last_heartbeat[worker] = now
        self._clock = now - self._real_epoch

    def draw_real_crashes(self) -> list[int]:
        """Seeded random silent deaths for one real superstep (mp): the
        ``crash_rate`` knob draws per live worker, exactly like the
        simulated model — but the death is a real SIGKILL."""
        plan = self.plan
        if not plan.crash_rate:
            return []
        return [
            w
            for w in range(self._engine.num_workers)
            if self._rng.random() < plan.crash_rate
        ]

    def on_worker_failure(self, worker: int, now: float, cause: str) -> bool:
        """A real worker process failed its exchange deadline (died or
        hung).  Escalate exactly like a simulated detection (returns False
        on degrading; the engine aborts with ``halt_reason="unrecoverable"``)."""
        engine = self._engine
        self._clock = now - self._real_epoch
        silence = now - self._last_heartbeat[worker]
        detection = {
            "worker": worker,
            "superstep": engine.superstep,
            "clock": self._clock,
            "silence": silence,
            "phi": self._detectors[worker].phi(silence),
            "heartbeats_missed": int(silence // self.plan.heartbeat_interval),
            "cause": cause,
        }
        return self._escalate(worker, detection, self._tracer(), now)

    def _escalate(self, worker: int, detection: dict, tracer, now: float) -> bool:
        """The one escalation of a detected death, simulated or real: meter
        the silence, then recover the partitions ``worker`` hosted through
        the FT manager, which spends the plan's restart budget — or, with
        the budget spent, degrade to a partial result instead of raising.
        ``now`` is the worker's fresh heartbeat on the detector's clock."""
        engine = self._engine
        ft = engine.ft
        engine.metrics.heartbeats_missed += detection["heartbeats_missed"]
        if self._mreg is not None:
            self._mreg.counter("supervisor.detections").inc()
            self._mreg.counter("supervisor.heartbeats_missed").inc(
                detection["heartbeats_missed"]
            )
        if tracer is not None:
            tracer.event("supervisor.suspect", cat="supervisor", info=dict(detection))
        restarted = ft.recover_worker(worker, partitions=self._hosted(worker))
        detection["action"] = "restarted" if restarted else "degraded"
        self._detections.append(detection)
        info = {"worker": worker, "restarts_used": ft.restarts_used}
        if restarted:
            self._last_heartbeat[worker] = now
            self._strikes[worker] = 0
            info["recovery"] = ft.plan.recovery
        else:
            self.degraded = True
            engine._abort_reason = "unrecoverable"
            info.update(max_restarts=ft.plan.max_restarts, superstep=engine.superstep)
        if tracer is not None:
            name = "supervisor.restart" if restarted else "supervisor.degraded"
            tracer.event(name, cat="supervisor", info=info)
        return restarted

    def on_oom(self, exc) -> None:
        """Memory exhaustion escalates like a silent crash: the worker that
        blew its budget is recorded as a detection and the run degrades —
        but the halt reason stays ``out_of_memory``, because the worker is
        not dead, it is unsatisfiable (no restart could ever fit it)."""
        engine = self._engine
        detection = {
            "worker": exc.worker,
            "superstep": exc.superstep,
            "clock": self._clock,
            "action": "out_of_memory",
            "phase": exc.phase,
            "needed_bytes": exc.needed,
            "budget_bytes": exc.budget,
        }
        self._detections.append(detection)
        self.degraded = True
        self.oom = dict(detection)
        tracer = self._tracer() if engine is not None else None
        if tracer is not None:
            tracer.event("supervisor.oom", cat="supervisor", info=dict(detection))

    def _quarantine(self, worker: int, tracer) -> None:
        targets = [
            w
            for w in range(self._engine.num_workers)
            if w != worker and w not in self._quarantined
        ]
        if not targets:
            return  # nobody left to take the work
        moved = self._hosted(worker)
        for p in moved:
            load = {w: sum(1 for h in self._host_of if h == w) for w in targets}
            self._host_of[p] = min(targets, key=lambda w: (load[w], w))
        self._quarantined.add(worker)
        self._engine.metrics.workers_quarantined += 1
        if self._mreg is not None:
            self._mreg.counter("supervisor.quarantines").inc()
        record = {
            "worker": worker,
            "superstep": self._engine.superstep,
            "clock": self._clock,
            "partitions_moved": moved,
        }
        self._quarantines.append(record)
        if tracer is not None:
            tracer.event("supervisor.quarantine", cat="supervisor", info=dict(record))

    # -- reporting --------------------------------------------------------

    def report(self) -> dict:
        """The structured supervision summary — on degradation this is the
        partial-result report the CLI prints instead of a traceback."""
        engine = self._engine
        if self.oom is not None:
            halt_reason = "out_of_memory"
        elif self.degraded:
            halt_reason = "unrecoverable"
        else:
            halt_reason = ""
        return {
            "degraded": self.degraded,
            "halt_reason": halt_reason,
            "restarts_used": engine.ft.restarts_used if engine else 0,
            "max_restarts": engine.ft.plan.max_restarts if engine else 0,
            "heartbeats_missed": engine.metrics.heartbeats_missed if engine else 0,
            "clock_units": self._clock,
            "completed_supersteps": engine.superstep if engine else 0,
            "oom": dict(self.oom) if self.oom else None,
            "detections": [dict(d) for d in self._detections],
            "quarantined_workers": sorted(self._quarantined),
            "quarantines": [dict(q) for q in self._quarantines],
            "partition_hosts": list(self._host_of),
        }
