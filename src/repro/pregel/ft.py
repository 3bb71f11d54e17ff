"""Fault tolerance for the Pregel simulator: checkpointing, crash injection,
and recovery.

Pregel (and GPS, the substrate of the paper's evaluation) is a
*fault-tolerant* BSP system: workers write a checkpoint of their partition
state to durable storage at configurable superstep intervals, the master
detects worker failures at the barrier, and the job recovers by reloading
the latest checkpoint and replaying the lost supersteps.  This module adds
that layer to the simulator so programs — generated and hand-written alike —
can be executed, metered, and *verified* under failure.

Three pieces:

* **Checkpointing** — at superstep boundaries (start of superstep, before
  ``master.compute()``) the engine's state and every registered
  :class:`Checkpointable` program state are pickled into an immutable blob.
  The blob's length is the metered checkpoint cost
  (:attr:`~repro.pregel.runtime.RunMetrics.checkpoint_bytes`).  Pickling
  doubles as deep isolation: a later restore can never alias live state.
* **Deterministic fault injection** — a :class:`FaultPlan` carries a
  schedule of :class:`CrashEvent`\\ s (worker *w* dies at the barrier
  entering superstep *s*, losing the partition it owns) plus an optional
  transient cross-worker message-loss rate whose retry/backoff cost is
  metered from a dedicated seeded RNG (so the fault machinery never
  perturbs the algorithm's own random stream).
* **Recovery** — two strategies, selected by ``FaultPlan.recovery``:

  - ``"rollback"`` (Pregel's classic checkpoint recovery): *every*
    partition reloads the latest checkpoint and the engine replays all lost
    supersteps.  Metrics counters are part of the checkpoint, so after
    replay the run's ledger is bit-identical to a failure-free execution.
  - ``"confined"`` (GPS-style confined recovery): only the failed worker's
    partition reloads its checkpoint slice; its lost supersteps are
    recomputed from the per-superstep message and broadcast logs the
    healthy workers retained, while their own state — and the metrics
    ledger, which lives on the master — is untouched.  Replay runs with
    sends and global puts suppressed (their effects already reached the
    healthy side), so recovery work is proportional to one partition, not
    the whole graph.

Because the engine is deterministic (the master RNG state is part of every
checkpoint), both strategies produce results, supersteps, and message
totals bit-identical to a failure-free run — the property
``tests/test_fault_tolerance.py`` asserts for all six paper algorithms.
"""

from __future__ import annotations

import pickle
import random
import time
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime uses duck typing)
    from .runtime import PregelEngine


@runtime_checkable
class Checkpointable(Protocol):
    """Program-owned state that must survive a worker crash.

    ``checkpoint_state`` returns a picklable snapshot payload;
    ``restore_state`` writes a loaded payload back **in place** (live
    closures and generated code alias the underlying columns, so restores
    must mutate, never rebind).  ``vertices`` restricts the restore to one
    partition's vertex ids (confined recovery); ``None`` means restore
    everything, including any non-partitioned state such as master scalars.
    """

    def checkpoint_state(self) -> dict: ...

    def restore_state(self, state: dict, vertices: Sequence[int] | None = None) -> None: ...


class ColumnState:
    """A :class:`Checkpointable` over columnar per-vertex state.

    Covers both the generated programs' property columns (``F_name`` arrays)
    and the manual baselines' closure-captured lists (``pr``, ``dist``,
    ``match``, …): anything shaped ``{name: one-value-per-vertex list}``.
    """

    def __init__(self, columns: dict[str, list]):
        self.columns = columns

    def checkpoint_state(self) -> dict:
        # A shallow copy per column suffices: the enclosing checkpoint is
        # pickled, which deep-copies nested values (e.g. _in_nbrs lists).
        return {name: list(col) for name, col in self.columns.items()}

    def restore_state(self, state: dict, vertices: Sequence[int] | None = None) -> None:
        for name, saved in state.items():
            col = self.columns[name]
            if vertices is None:
                if isinstance(col, array):
                    # Typed backend column: slice-assignment needs an array
                    # of the same typecode, not the checkpointed list.
                    col[:] = array(col.typecode, saved)
                else:
                    col[:] = saved
            else:
                for v in vertices:
                    col[v] = saved[v]


@dataclass(frozen=True)
class CrashEvent:
    """Worker ``worker`` fails at the barrier entering superstep ``superstep``,
    losing the vertex partition (fields, voted bits, undelivered inbox) it
    owns.  Each event fires at most once — recovery re-executes the same
    superstep numbers, and a crash is not re-injected into its own replay."""

    worker: int
    superstep: int


def parse_crash(spec: str) -> CrashEvent:
    """Parse the CLI syntax ``WORKER@STEP`` (e.g. ``1@5``); both are >= 0."""
    try:
        worker_text, step_text = spec.split("@", 1)
        crash = CrashEvent(int(worker_text), int(step_text))
    except ValueError:
        crash = None
    if crash is None or crash.worker < 0 or crash.superstep < 0:
        raise ValueError(
            f"invalid fault spec '{spec}': expected WORKER@STEP with both >= 0, e.g. 1@5"
        )
    return crash


#: the real fault kinds ``parse_fault`` and the mp engine accept.  ``kill``
#: and ``hang`` are process faults (any mp transport); ``netsplit`` and
#: ``slowlink`` are *network* faults that only mean something when the
#: slabs actually travel a network — they additionally require the tcp
#: transport (``--transport tcp``).
REAL_FAULT_KINDS = ("kill", "hang", "netsplit", "slowlink")
NETWORK_FAULT_KINDS = ("netsplit", "slowlink")


@dataclass(frozen=True)
class RealFault:
    """A real process- or network-level fault for the mp backend.

    ``kill`` SIGKILLs worker ``worker``'s OS process at superstep
    ``superstep``; ``hang`` makes it sleep past the parent's exchange
    deadline.  Under the tcp transport, ``netsplit`` closes the worker's
    listening socket mid-exchange (peers see ECONNREFUSED) and
    ``slowlink`` throttles the worker's outbound link below the exchange
    deadline (peers time out waiting for its frames).  Unlike a
    :class:`CrashEvent` the failure is *not announced* — the parent must
    detect it through its deadline-based barrier (and, for the network
    kinds, the workers' own peer-failure classification) and escalate
    into the same checkpoint recovery.  Each fault fires at most once."""

    kind: str  # "kill" | "hang" | "netsplit" | "slowlink"
    worker: int
    superstep: int


def parse_fault(spec: str) -> CrashEvent | RealFault:
    """Parse one ``--inject-fault`` spec.

    ``W@S`` is a simulated :class:`CrashEvent` (any backend);
    ``kill:W@S`` / ``hang:W@S`` are :class:`RealFault` process faults
    (mp backend only — SIGKILL / sleep-past-deadline), and
    ``netsplit:W@S`` / ``slowlink:W@S`` are real network faults
    (mp backend with ``--transport tcp`` only)."""
    if ":" in spec:
        kind, _, rest = spec.partition(":")
        if kind not in REAL_FAULT_KINDS:
            raise ValueError(
                f"invalid fault spec '{spec}': unknown kind '{kind}' "
                "(expected WORKER@STEP, or one of "
                + ", ".join(f"{k}:WORKER@STEP" for k in REAL_FAULT_KINDS)
                + ")"
            )
        try:
            crash = parse_crash(rest)
        except ValueError:
            raise ValueError(
                f"invalid fault spec '{spec}': expected {kind}:WORKER@STEP "
                f"with both >= 0, e.g. {kind}:1@5"
            ) from None
        return RealFault(kind, crash.worker, crash.superstep)
    return parse_crash(spec)


@dataclass(frozen=True)
class FaultPlan:
    """Everything about a run's failure model, fixed up front (deterministic).

    * ``checkpoint_every`` — checkpoint at supersteps 0, k, 2k, …; 0 disables
      periodic checkpoints (an initial superstep-0 checkpoint is still taken
      whenever crashes are scheduled, mirroring the durable job input).
    * ``crashes`` — the injection schedule.
    * ``recovery`` — ``"rollback"`` or ``"confined"`` (see module docstring).
    * ``message_loss_rate`` / ``max_retries`` — probability that one delivery
      attempt of a cross-worker message fails transiently; each failed
      attempt is retried with exponential backoff (1, 2, 4, … simulated
      units) up to ``max_retries`` times and metered in
      ``messages_retried`` / ``retry_backoff_units``.  Delivery ultimately
      succeeds, so results are unaffected — this meters the *cost* of an
      at-least-once network, it does not drop data.
    * ``seed`` — seeds the injector's own RNG, independent of the engine's.
    """

    checkpoint_every: int = 0
    crashes: tuple[CrashEvent, ...] = ()
    recovery: str = "rollback"
    message_loss_rate: float = 0.0
    max_retries: int = 3
    seed: int = 29

    def __post_init__(self):
        if self.recovery not in ("rollback", "confined"):
            raise ValueError(
                f"unknown recovery strategy '{self.recovery}' "
                "(expected 'rollback' or 'confined')"
            )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if not 0.0 <= self.message_loss_rate < 1.0:
            raise ValueError("message_loss_rate must be in [0, 1)")


class FaultTolerance:
    """Per-run fault-tolerance manager: owns checkpoints, logs, and recovery.

    Create one per execution (it is stateful) and hand it to the engine:
    ``program.run(graph, args, ft=FaultTolerance(plan))``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._engine: "PregelEngine | None" = None
        self._mreg = None  # engine's metrics registry, picked up at attach()
        self._programs: list[Checkpointable] = []
        #: (superstep, blob) — latest entry is the recovery point.  The blob
        #: is pickled bytes, or a streamed on-disk handle when the engine
        #: runs under a memory budget (see _take_checkpoint).
        self._checkpoints: list[tuple[int, object]] = []
        self._pending = sorted(plan.crashes, key=lambda c: c.superstep)
        self._rng = random.Random(plan.seed)
        #: set by the supervisor: heartbeat-detected failures need a
        #: recovery point even when no crash is *scheduled*, so the initial
        #: superstep-0 checkpoint is forced regardless of ``crashes``.
        self.force_initial_checkpoint = False
        # Confined recovery replays a partition from what the healthy side
        # already knows: the messages delivered each superstep and the
        # master's broadcast map each superstep (keyed by superstep number,
        # pruned back to the latest checkpoint).
        self._outbox_log: dict[int, dict[int, list]] = {}
        self._broadcast_log: dict[int, dict] = {}

    # -- wiring ----------------------------------------------------------

    def attach(self, engine: "PregelEngine") -> None:
        if self._engine is not None:
            raise RuntimeError("a FaultTolerance manager drives exactly one run")
        for crash in self._pending:
            if not 0 <= crash.worker < engine.num_workers:
                raise ValueError(
                    f"fault schedules worker {crash.worker} but the engine "
                    f"has {engine.num_workers} workers"
                )
        self._engine = engine
        self._mreg = getattr(engine, "_mreg", None)

    def register(self, program: Checkpointable) -> None:
        """Add program-owned state to every future checkpoint."""
        self._programs.append(program)

    # -- engine hooks ----------------------------------------------------

    def on_superstep_start(self) -> None:
        """Runs first thing each superstep: checkpoint if due, then inject.

        Checkpoint-before-inject means a crash at a checkpointed superstep
        loses nothing — the snapshot reached durable storage before the
        worker died, exactly the barrier protocol Pregel describes.
        """
        engine = self._engine
        step = engine.superstep
        every = self.plan.checkpoint_every
        due = (every > 0 and step % every == 0) or (
            step == 0 and (self._pending or self.force_initial_checkpoint)
        )
        if due:
            self._take_checkpoint()
        # Re-read the superstep each time: a rollback rewinds it, and any
        # remaining events at the original superstep must then wait for the
        # replay to reach them again.
        while self._pending and self._pending[0].superstep == engine.superstep:
            self._recover(self._pending.pop(0))

    def on_master_done(self) -> None:
        """Log the broadcast map vertices will see this superstep (confined)."""
        if self.plan.recovery == "confined":
            engine = self._engine
            self._broadcast_log[engine.superstep] = dict(engine.globals.broadcast)

    def on_superstep_end(self) -> None:
        """Log the superstep's outgoing messages (confined recovery replay).

        ``outbox_view()`` gives the in-flight ``{dst: msgs}`` map under either
        scheduler (dense mode returns the live dict by reference; frontier
        mode merges its per-worker outbox batches).  After the delivery swap
        the engine only reads the message lists, so the log sees exactly what
        superstep+1 delivered.  A real cluster keeps the same log on the
        healthy workers.
        """
        if self.plan.recovery == "confined":
            engine = self._engine
            self._outbox_log[engine.superstep] = engine.outbox_view()

    def account_delivery(self, count: int = 1) -> None:
        """Meter transient delivery failures of ``count`` cross-worker
        messages, one after another."""
        rate = self.plan.message_loss_rate
        if rate <= 0.0:
            return
        metrics = self._engine.metrics
        for _ in range(count):
            attempt = 1
            while attempt <= self.plan.max_retries and self._rng.random() < rate:
                metrics.messages_retried += 1
                metrics.retry_backoff_units += 1 << (attempt - 1)
                attempt += 1

    # -- observability ---------------------------------------------------

    def _tracer(self):
        """The engine's recording tracer, or None.  FT events carry no
        deterministic payload (``det=None``): a faulted run's trace must
        still project to the same deterministic stream as its failure-free
        twin, and checkpoints/crashes/recoveries only happen on the faulted
        side."""
        tracer = self._engine.tracer
        return tracer if tracer is not None and tracer.enabled else None

    # -- checkpointing ---------------------------------------------------

    def _take_checkpoint(self) -> None:
        engine = self._engine
        t0 = time.perf_counter()
        payload = {
            "engine": engine.checkpoint_state(),
            "programs": [p.checkpoint_state() for p in self._programs],
        }
        mem = engine.mem
        if mem is not None and mem.limited:
            # Budgeted run: stream the payload to disk through a bounded
            # window instead of materializing one pickled blob in memory —
            # the serialization cost is metered as checkpoint_peak_bytes
            # and charged against the tightest worker budget.
            blob = mem.write_checkpoint(payload)
            nbytes = blob.size
        else:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            nbytes = len(blob)
        self._checkpoints.append((engine.superstep, blob))
        engine.metrics.checkpoints_taken += 1
        engine.metrics.checkpoint_bytes += nbytes
        if self._mreg is not None:
            self._mreg.counter("ft.checkpoints").inc()
            self._mreg.histogram("ft.checkpoint_bytes").observe(nbytes)
        tracer = self._tracer()
        if tracer is not None:
            tracer.event(
                "ft.checkpoint",
                cat="ft",
                info={
                    "superstep": engine.superstep,
                    "bytes": nbytes,
                    "seconds": time.perf_counter() - t0,
                },
            )
        # Logs before the new recovery point can never be replayed again.
        horizon = engine.superstep - 1
        for log in (self._outbox_log, self._broadcast_log):
            for key in [k for k in log if k < horizon]:
                del log[key]

    # -- recovery --------------------------------------------------------

    def recover_worker(
        self, worker: int, partitions: Sequence[int] | None = None
    ) -> None:
        """Detector-driven recovery: the supervisor detected (rather than
        pre-declared) that ``worker`` died at the current barrier.

        ``partitions`` lists the logical partitions the dead worker was
        *hosting* (after straggler quarantine a worker can host partitions
        other than its own); confined recovery replays each of them.
        ``None`` means the worker hosted only its own partition.
        """
        engine = self._engine
        self._recover(
            CrashEvent(worker, engine.superstep),
            partitions=partitions,
            source="detected",
        )

    def _recover(
        self,
        crash: CrashEvent,
        partitions: Sequence[int] | None = None,
        source: str = "scheduled",
    ) -> None:
        engine = self._engine
        if not self._checkpoints:
            raise RuntimeError(
                f"worker {crash.worker} crashed at superstep {crash.superstep} "
                "with no checkpoint to recover from"
            )
        metrics = engine.metrics
        metrics.faults_injected += 1
        ckpt_step, blob = self._checkpoints[-1]
        lost = engine.superstep - ckpt_step
        metrics.lost_supersteps += lost
        if self._mreg is not None:
            self._mreg.counter("ft.crashes").inc()
            self._mreg.counter("ft.lost_supersteps").inc(lost)
        tracer = self._tracer()
        if tracer is not None:
            tracer.event(
                "ft.crash",
                cat="ft",
                info={
                    "worker": crash.worker,
                    "superstep": crash.superstep,
                    "checkpoint_superstep": ckpt_step,
                    "lost_supersteps": lost,
                    "source": source,
                },
            )
        t0 = time.perf_counter()
        replay_before = metrics.recovery_replay_work
        payload = pickle.loads(blob) if isinstance(blob, bytes) else blob.load()
        if self.plan.recovery == "rollback":
            engine.restore_state(payload["engine"])
            for program, state in zip(self._programs, payload["programs"]):
                program.restore_state(state)
            # Every partition re-executes the lost supersteps.
            metrics.recovery_replay_work += lost * engine.graph.num_nodes
        else:
            for partition in (
                partitions if partitions is not None else (crash.worker,)
            ):
                self._confined_recover(partition, ckpt_step, payload)
        if self._mreg is not None:
            self._mreg.counter("ft.recoveries", strategy=self.plan.recovery).inc()
            self._mreg.counter("ft.replay_work").inc(
                metrics.recovery_replay_work - replay_before
            )
        if tracer is not None:
            tracer.event(
                "ft.recovery",
                cat="ft",
                info={
                    "strategy": self.plan.recovery,
                    "worker": crash.worker,
                    "from_superstep": ckpt_step,
                    "replay_work": metrics.recovery_replay_work - replay_before,
                    "seconds": time.perf_counter() - t0,
                    "source": source,
                },
            )

    def _confined_recover(self, worker: int, ckpt_step: int, payload: dict) -> None:
        """Recompute only the failed partition, feeding it logged traffic.

        Healthy partitions keep their (current) state; the metrics ledger —
        which lives on the master — is never rolled back.  The failed
        worker's vertices are restored to the checkpoint slice and stepped
        forward through the lost supersteps with:

        * inboxes rebuilt from the outbox logs (checkpointed in-flight
          messages for the first replayed superstep);
        * the broadcast map each superstep swapped to its logged value;
        * sends and global puts suppressed — their effects already reached
          the healthy side during the original execution (and the failed
          partition's own regenerated sends are, by determinism, exactly the
          logged ones it is being fed).
        """
        engine = self._engine
        worker_of = engine._worker_of
        vids = [v for v in range(engine.graph.num_nodes) if worker_of[v] == worker]
        engine.restore_state(payload["engine"], vertices=vids)
        for program, state in zip(self._programs, payload["programs"]):
            program.restore_state(state, vertices=vids)

        crash_step = engine.superstep
        ckpt_outbox = payload["engine"]["outbox"]
        voted = engine._voted
        compute = engine._vertex_compute
        saved_broadcast = dict(engine.globals.broadcast)
        broadcast = engine.globals.broadcast
        work = 0
        engine._ft_replaying = True
        try:
            for step in range(ckpt_step, crash_step):
                # Messages delivered at `step` were sent at `step - 1`; the
                # checkpoint carries the in-flight set for its own superstep.
                sent = ckpt_outbox if step == ckpt_step else self._outbox_log.get(step - 1, {})
                inbox = {
                    dst: msgs for dst, msgs in sent.items() if worker_of[dst] == worker
                }
                engine.superstep = step
                broadcast.clear()
                broadcast.update(self._broadcast_log.get(step, {}))
                if voted is not None:
                    for dst in inbox:
                        voted[dst] = 0
                for vid in vids:
                    if voted is not None and voted[vid]:
                        continue
                    engine._current_vertex = vid
                    compute(engine, vid, inbox.get(vid, ()))
                    work += 1
        finally:
            engine._ft_replaying = False
            engine._current_vertex = -1
            engine.superstep = crash_step
            broadcast.clear()
            broadcast.update(saved_broadcast)
        engine.metrics.recovery_replay_work += work
