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
  entering superstep *s*, losing the partition it owns), every kind in one
  schedule parsed by one grammar (:func:`parse_fault`, ``[KIND:]W@S``) —
  every worker death of a run is one of them.  Whoever owns the workers
  fires it: this manager the announced ``crash`` kind; the mp parent the
  real process and network kinds; on ``sim`` and ``columnar`` an attached
  :class:`~repro.pregel.supervisor.Supervisor` fires a ``kill`` silently
  and detects it by heartbeat.  The plan also holds the run's one restart
  budget (``max_restarts``), spent by every *detected* failure through
  :meth:`FaultTolerance.recover_worker` — the supervisor's and the mp
  parent's alike.  Lossy delivery is not this plan's: it is the simulated
  channel's (:class:`~repro.pregel.net.NetFaultPlan`).
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
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import filterfalse
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


#: every kind of scheduled fault.  ``crash`` is simulated, on any backend;
#: the rest are *real* faults the mp engine fires: ``kill`` and ``hang``
#: are process faults (any mp transport), ``netsplit`` and ``slowlink``
#: network faults that need slabs to travel a network (tcp).  A supervised
#: in-process engine fires ``kill`` too, as a silent death.
FAULT_KINDS = ("crash", "kill", "hang", "netsplit", "slowlink")
REAL_FAULT_KINDS = FAULT_KINDS[1:]
NETWORK_FAULT_KINDS = ("netsplit", "slowlink")


@dataclass(frozen=True)
class CrashEvent:
    """Worker ``worker`` fails at the barrier entering superstep
    ``superstep``, losing the vertex partition (fields, voted bits,
    undelivered inbox) it owns.  Each event fires at most once — recovery
    re-executes the same superstep numbers, and a fault is not re-injected
    into its own replay.

    A ``crash`` is announced: the FT manager recovers from it directly.
    The real kinds are not — ``kill`` SIGKILLs the worker's process (or,
    in process, silences its heartbeats under a supervisor),
    ``hang`` sleeps past the exchange deadline, ``netsplit`` closes its tcp
    listener mid-exchange, ``slowlink`` stalls its frames past the peers'
    deadline — so the mp parent must detect them and escalate into the
    same checkpoint recovery."""

    worker: int
    superstep: int
    kind: str = "crash"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'")
        if self.worker < 0 or self.superstep < 0:
            raise ValueError("fault coordinates must be >= 0")


def bad_fault_spec(spec: str, kind: str = "crash") -> ValueError:
    """The error for a malformed ``[KIND:]W@S`` spec of ``kind``."""
    eg = "" if kind == "crash" else f"{kind}:"
    return ValueError(
        f"invalid fault spec '{spec}': expected {eg}WORKER@STEP "
        f"with both >= 0, e.g. {eg}1@5"
    )


def parse_fault(spec: str) -> CrashEvent:
    """Parse one fault spec, ``[KIND:]WORKER@STEP`` (e.g. ``1@5``,
    ``kill:1@5``): a bare ``W@S`` is a simulated ``crash`` (any backend);
    a ``KIND:`` prefix names a real kind (mp backend only)."""
    kind, colon, rest = spec.partition(":")
    if not colon:
        kind, rest = "crash", spec
    elif kind not in REAL_FAULT_KINDS:
        raise ValueError(
            f"invalid fault spec '{spec}': unknown kind '{kind}' "
            "(expected WORKER@STEP, or one of "
            + ", ".join(f"{k}:WORKER@STEP" for k in REAL_FAULT_KINDS)
            + ")"
        )
    try:
        worker_text, step_text = rest.split("@", 1)
        return CrashEvent(int(worker_text), int(step_text), kind)
    except ValueError:
        raise bad_fault_spec(spec, kind) from None


def fault_refusal(kind: str, fireable: tuple[str, ...]) -> str | None:
    """Why an engine that fires the real kinds ``fireable`` refuses a
    ``kind`` fault, or None when it can fire it.  Engines raise it at
    construction; the CLI prints it before the graph loads."""
    if kind == "crash" or kind in fireable:
        return None
    if "hang" not in fireable:  # in process: at most a supervisor's kill
        refusal = (
            f"'{kind}:' faults are real process faults — they need real "
            "worker processes (run with --backend mp)"
        )
        if kind == "kill":
            refusal += ", or a supervisor to fire them silently (run with --heartbeat)"
        return refusal
    return (
        f"'{kind}:' faults are network faults — they need the real socket "
        "transport (run with --transport tcp)"
    )


def parse_spec(flag: str, spec: str, keys: dict) -> dict:
    """Parse a ``key=value,...`` flag spec into keyword arguments.

    ``keys`` maps a spec key to ``(field, cast)``.  Errors name ``flag``."""
    names = ", ".join(sorted(keys))
    kwargs: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"invalid {flag} entry '{item}': expected key=value with keys {names}"
            )
        key, text = item.split("=", 1)
        key, text = key.strip(), text.strip()
        if key in keys:
            field_name, cast = keys[key]
            try:
                kwargs[field_name] = cast(text)
            except ValueError:
                raise ValueError(f"invalid {flag} value for '{key}': '{text}'") from None
        else:
            raise ValueError(f"unknown {flag} key '{key}' (expected one of {names})")
    return kwargs


@dataclass(frozen=True)
class FaultPlan:
    """Everything about a run's failure model, fixed up front (deterministic).

    * ``checkpoint_every`` — checkpoint at supersteps 0, k, 2k, …; 0 disables
      periodic checkpoints (an initial superstep-0 checkpoint is still taken
      whenever a fault is scheduled, mirroring the durable job input).
    * ``crashes`` — the injection schedule, every kind of fault and every
      worker death of the run, at most one per ``(worker, superstep)``:
      the manager fires the ``crash`` events, the mp engine the real ones,
      a supervisor on ``sim``/``columnar`` the ``kill`` ones.
    * ``max_restarts`` — the restart budget: detected failures beyond it
      abort the run with ``halt_reason="unrecoverable"`` (graceful
      degradation).  Spent by :meth:`FaultTolerance.recover_worker`,
      whoever detected the failure — the supervisor or the mp parent.
    * ``recovery`` — ``"rollback"`` or ``"confined"`` (see module docstring).
    """

    checkpoint_every: int = 0
    crashes: tuple[CrashEvent, ...] = ()
    recovery: str = "rollback"
    max_restarts: int = 3

    def __post_init__(self):
        if self.recovery not in ("rollback", "confined"):
            raise ValueError(
                f"unknown recovery strategy '{self.recovery}' "
                "(expected 'rollback' or 'confined')"
            )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        seen = set()
        for crash in self.crashes:
            at = (crash.worker, crash.superstep)
            if at in seen:
                raise ValueError(
                    f"worker {crash.worker} dies twice entering superstep "
                    f"{crash.superstep}: schedule one fault per worker and superstep"
                )
            seen.add(at)


class FaultTolerance:
    """Per-run fault-tolerance manager: owns checkpoints, logs, and recovery.

    Create one per execution (it is stateful) and hand it to the engine:
    ``program.run(graph, args, ft=FaultTolerance(plan))``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._engine: "PregelEngine | None" = None
        self._programs: list[Checkpointable] = []
        #: (superstep, blob) — latest entry is the recovery point.  The blob
        #: is pickled bytes, or a streamed on-disk handle when the engine
        #: runs under a memory budget (see _take_checkpoint).
        self._checkpoints: list[tuple[int, object]] = []
        #: the announced faults this manager fires itself; the real kinds
        #: are the mp engine's to fire (and its deadline barrier's to detect).
        self._pending = sorted(
            (c for c in plan.crashes if c.kind == "crash"), key=lambda c: c.superstep
        )
        #: set by the supervisor: heartbeat-detected failures need a
        #: recovery point even when no fault is *scheduled*, so the initial
        #: superstep-0 checkpoint is forced regardless of ``crashes``.
        self.force_initial_checkpoint = False
        #: detected failures recovered so far, against ``plan.max_restarts``.
        self.restarts_used = 0
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
        for crash in self.plan.crashes:
            if not 0 <= crash.worker < engine.num_workers:
                raise ValueError(
                    f"fault schedules worker {crash.worker} but the engine "
                    f"has {engine.num_workers} workers"
                )
            refusal = fault_refusal(crash.kind, engine.REAL_FAULT_KINDS)
            if refusal is not None:
                from .backend.base import BackendUnsupported

                raise BackendUnsupported(refusal)
        self._engine = engine

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
            step == 0 and (self.plan.crashes or self.force_initial_checkpoint)
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
        scheduler, a new map over the staged message lists (the slab
        backends decode theirs).  After the delivery swap
        the engine only reads the message lists, so the log sees exactly what
        superstep+1 delivered.  A real cluster keeps the same log on the
        healthy workers.
        """
        if self.plan.recovery == "confined":
            engine = self._engine
            self._outbox_log[engine.superstep] = engine.outbox_view()

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
        tracer = engine.tracer
        if tracer is not None:
            # ft.* events are info-only: a faulted run's trace projects to
            # the same deterministic stream as its failure-free twin.
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

    def recover_worker(self, worker: int) -> bool:
        """Detector-driven recovery: the supervisor or the mp parent
        detected (rather than was told) that ``worker`` died at the current
        barrier.  Each call spends one restart of ``plan.max_restarts`` —
        the run's one budget.  Returns False, recovering nothing, when the
        budget is spent or no checkpoint exists: the caller degrades the
        run to ``halt_reason="unrecoverable"``.  Confined recovery replays
        the dead worker's own partition.
        """
        engine = self._engine
        if self.restarts_used >= self.plan.max_restarts or not self._checkpoints:
            return False
        self.restarts_used += 1
        engine.metrics.restarts += 1
        self._recover(CrashEvent(worker, engine.superstep), source="detected")
        return True

    def rewind(self) -> None:
        """Restore the latest checkpoint whole, engine and program state: a
        run that gives up partway through a superstep (the mp parent,
        whose live workers ran ahead of a dead one) hands back one
        consistent boundary.  Without a checkpoint there is none to give."""
        if self._checkpoints:
            self._restore(self._load())

    def _load(self) -> dict:
        """The latest checkpoint's payload."""
        _step, blob = self._checkpoints[-1]
        return pickle.loads(blob) if isinstance(blob, bytes) else blob.load()

    def _restore(self, payload: dict) -> None:
        self._engine.restore_state(payload["engine"])
        for program, state in zip(self._programs, payload["programs"]):
            program.restore_state(state)

    def _recover(self, crash: CrashEvent, source: str = "scheduled") -> None:
        # A checkpoint exists: a scheduled fault forces the superstep-0
        # one, and recover_worker checks before it calls.
        engine = self._engine
        metrics = engine.metrics
        metrics.faults_injected += 1
        ckpt_step = self._checkpoints[-1][0]
        lost = engine.superstep - ckpt_step
        metrics.lost_supersteps += lost
        tracer = engine.tracer
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
        payload = self._load()
        if self.plan.recovery == "rollback":
            self._restore(payload)
            # Every partition re-executes the lost supersteps.
            metrics.recovery_replay_work += lost * engine.graph.num_nodes
        else:
            self._confined_recover(crash.worker, ckpt_step, payload)
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
        saved_broadcast = dict(engine.globals.broadcast)
        broadcast = engine.globals.broadcast
        work = 0
        engine._ft_replaying = True
        try:
            for step in range(ckpt_step, crash_step):
                # Messages delivered at `step` were sent at `step - 1`; the
                # checkpoint carries the in-flight set for its own superstep.
                sent = ckpt_outbox if step == ckpt_step else self._outbox_log.get(step - 1, {})
                inbox = defaultdict(tuple, {
                    dst: msgs for dst, msgs in sent.items() if worker_of[dst] == worker
                })  # fmt: skip
                engine.superstep = step
                broadcast.clear()
                broadcast.update(self._broadcast_log.get(step, {}))
                active = vids
                if voted is not None:
                    for dst in inbox:
                        voted[dst] = 0
                    active = filterfalse(voted.__getitem__, vids)
                # the loop reads this superstep's logged broadcast
                work += engine._phase_loop()(engine, active, inbox)
        finally:
            engine._ft_replaying = False
            engine._current_vertex = -1
            engine.superstep = crash_step
            broadcast.clear()
            broadcast.update(saved_broadcast)
        engine.metrics.recovery_replay_work += work
