"""Self-healing supervision: heartbeats, failure detection, automatic recovery.

The fault-tolerance manager (:mod:`repro.pregel.ft`) recovers from crashes
it is *told about* — a pre-declared :class:`~repro.pregel.ft.CrashEvent`
schedule drives recovery directly.  Real Pregel/GPS masters are told nothing: they learn a worker is
gone because its heartbeats stop, and they must decide, recover, and keep a
restart budget on their own.  The supervisor is that failure detector and
nothing else:

* **Silent deaths come from the fault plan** — every worker death of a run
  is a :attr:`FaultPlan.crashes` entry.  A ``kill`` event,
  ``FaultPlan(crashes=(CrashEvent(w, s, "kill"), ...))``, is fired in
  process by the supervisor on ``sim``/``columnar`` (as a real SIGKILL by
  the mp parent), but the supervisor is never told: it only sees the
  heartbeats stop.
* **Simulated cluster clock** — every worker hosts its own partition, so
  each barrier lasts one simulated unit, and live workers heartbeat every
  ``heartbeat_interval`` units through it.  On ``mp`` the same detector
  runs on wall time: every barrier reply is a heartbeat.
* **Phi-style/deadline failure detector** — per worker, suspicion grows
  with silence: ``phi = elapsed / (mean_interval · ln 10)`` (the phi-accrual
  formulation under exponential inter-arrivals) accrues until it crosses
  ``phi_threshold``, with ``deadline_timeout`` as the hard upper bound.
  The BSP barrier stalls on the dead worker, so detection resolves at the
  barrier where the crash happened — detection latency (simulated units) is
  the silence the detector needed, and every missed heartbeat is metered.
* **Escalation → automatic recovery** — a detected death triggers the
  *existing* recovery machinery (:meth:`FaultTolerance.recover_worker`,
  rollback or confined per the plan) for the dead worker's partition, and
  the worker is restarted.  Each restart spends one unit of the run's one
  budget, :attr:`FaultPlan.max_restarts`, which the FT manager keeps
  whoever detected the death.
* **Graceful degradation** — when a detected failure finds the restart
  budget exhausted, the run is aborted with
  ``halt_reason="unrecoverable"`` and a structured partial-result
  :meth:`report` instead of an exception.

Because detection only ever *triggers* that bit-exact recovery (or aborts),
a supervised run that stays within its restart budget produces outputs and
``RunMetrics.parity_key()`` identical to the failure-free run — the
acceptance property ``tests/test_supervisor.py`` asserts for all six
algorithms under both recovery strategies.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .ft import parse_spec

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
    """The failure detector's settings, fixed up front (deterministic).

    * ``heartbeat_interval`` — simulated units between worker heartbeats.
    * ``phi_threshold`` / ``deadline_timeout`` — a worker is declared dead
      when its silence drives phi past the threshold *or* exceeds the hard
      deadline (0 disables the deadline).
    """

    heartbeat_interval: float = 1.0
    phi_threshold: float = 4.0
    deadline_timeout: float = 5.0

    def __post_init__(self):
        # NaN fails every comparison: each check needs a true one to pass
        if not self.heartbeat_interval > 0:
            raise ValueError("heartbeat_interval must be > 0")
        if not self.phi_threshold > 0:
            raise ValueError("phi_threshold must be > 0")
        if not self.deadline_timeout >= 0:
            raise ValueError("timeouts must be >= 0")


_HB_KEYS = {
    "interval": ("heartbeat_interval", float),
    "phi": ("phi_threshold", float),
    "deadline": ("deadline_timeout", float),
}


def parse_heartbeat(spec: str) -> SupervisorPlan:
    """Parse the CLI syntax, e.g. ``interval=1,phi=4,deadline=5``.

    A silent death is the fault plan's (``--inject-fault kill:W@S``), and
    so is the restart budget (``--max-restarts``).
    """
    if any(item.partition("=")[0].strip() == "crash" for item in spec.split(",")):
        raise ValueError(
            "there is no crash= key (schedule a silent death with "
            "--inject-fault kill:W@S)"
        )
    return SupervisorPlan(**parse_spec("--heartbeat", spec, _HB_KEYS))


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
        self._started = False
        self._clock = 0.0
        self._real_epoch = 0.0  # wall-clock origin of real-liveness mode
        self._pending_kills: list = []  # the fault plan's, read at attach()
        self._last_heartbeat: list[float] = []
        self._detectors: list[PhiAccrualDetector] = []
        self.degraded = False
        self.oom: dict | None = None
        self._detections: list[dict] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, engine: "PregelEngine") -> None:
        if self._engine is not None:
            raise RuntimeError("a Supervisor drives exactly one run")
        if engine.ft is None:
            raise ValueError(
                "supervision requires a FaultTolerance manager: detection "
                "escalates into its checkpoint recovery (pass ft=...)"
            )
        self._engine = engine
        # The silent deaths this supervisor fires in process (``ft.attach``
        # checked their workers); the mp parent fires its own as SIGKILLs.
        self._pending_kills = sorted(
            (c for c in engine.ft.plan.crashes if c.kind == "kill"),
            key=lambda c: c.superstep,
        )
        # A recovery point must exist before anything can be detected dead.
        engine.ft.force_initial_checkpoint = True

    def _arm(self, now: float) -> None:
        """Every worker just heartbeated at ``now``; every detector starts
        from the nominal interval."""
        workers = self._engine.num_workers
        self._started = True
        self._last_heartbeat = [now] * workers
        self._detectors = [
            PhiAccrualDetector(self.plan.heartbeat_interval) for _ in range(workers)
        ]

    # -- engine hook ------------------------------------------------------

    def on_superstep_start(self) -> None:
        """Runs at every superstep boundary, before the FT manager's own
        hook: simulate the barrier that just completed (one unit, the
        heartbeats, the plan's silent deaths), detect, and escalate."""
        engine = self._engine
        if not self._started:
            self._arm(0.0)
            return
        plan = self.plan
        self._clock += 1.0

        crashed: list[int] = []
        while self._pending_kills and self._pending_kills[0].superstep == engine.superstep:
            crashed.append(self._pending_kills.pop(0).worker)

        # Live workers heartbeated through the barrier.
        interval = plan.heartbeat_interval
        for w in range(engine.num_workers):
            if w not in crashed:
                gap = self._clock - self._last_heartbeat[w]
                beats = int(gap // interval)
                if beats:
                    self._detectors[w].observe(gap / beats)
                self._last_heartbeat[w] = self._clock

        # A dead worker stalls the BSP barrier; the master waits until the
        # detector fires.  Detection latency = the silence the phi/deadline
        # detector needed, measured from the victim's last heartbeat.
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
            if not self._escalate(w, detection, self._clock):
                return  # degraded: the run halts at this barrier

    # -- real-process liveness (mp backend) -------------------------------
    #
    # The simulated hook above models the cluster clock; the mp backend
    # has real worker processes, so the same detector runs on wall time:
    # every barrier reply is a liveness ping, and a reply that never
    # arrives (the parent's deadline-based exchange) is a detection.

    def start_liveness(self, now: float) -> None:
        """Arm the detector against real wall-clock heartbeats (mp): the
        workers were just forked."""
        self._real_epoch = now
        self._arm(now)

    def observe_liveness(self, worker: int, now: float) -> None:
        """One real heartbeat: worker ``worker``'s barrier reply arrived."""
        gap = now - self._last_heartbeat[worker]
        if gap > 0:
            self._detectors[worker].observe(gap)
        self._last_heartbeat[worker] = now
        self._clock = now - self._real_epoch

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
        return self._escalate(worker, detection, now)

    def _escalate(self, worker: int, detection: dict, now: float) -> bool:
        """The one escalation of a detected death, simulated or real: meter
        the silence, then recover ``worker``'s partition through the FT
        manager, which spends the plan's restart budget — or, with the
        budget spent, degrade to a partial result instead of raising.
        ``now`` is the worker's fresh heartbeat on the detector's clock."""
        engine = self._engine
        ft = engine.ft
        engine.metrics.heartbeats_missed += detection["heartbeats_missed"]
        tracer = engine.tracer
        if tracer is not None:
            tracer.event("supervisor.suspect", cat="supervisor", info=dict(detection))
        restarted = ft.recover_worker(worker)
        detection["action"] = "restarted" if restarted else "degraded"
        self._detections.append(detection)
        info = {"worker": worker, "restarts_used": ft.restarts_used}
        if restarted:
            self._last_heartbeat[worker] = now
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
        if engine is not None and engine.tracer is not None:
            engine.tracer.event("supervisor.oom", cat="supervisor", info=dict(detection))

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
        }
