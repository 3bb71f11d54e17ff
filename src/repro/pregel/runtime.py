"""The Pregel/GPS bulk-synchronous execution engine.

A faithful single-process simulator of GPS (the open-source Pregel the paper
evaluates on):

* computation proceeds in *supersteps* separated by global barriers;
* ``master.compute()`` runs at the start of each superstep (GPS §2.1's
  extension), sees global objects aggregated from the previous superstep's
  vertex puts, and broadcasts values visible to vertices in the same
  superstep;
* every vertex executes ``vertex.compute()`` once per superstep; messages
  sent in superstep *i* are delivered in superstep *i + 1*;
* optional vote-to-halt semantics (used by hand-written Pregel programs; the
  compiler-generated programs drive termination from the master, exactly as
  the paper describes in §5.2).

The engine also meters what the paper measures: the number of timesteps, the
number of messages, and the network I/O they cause under a hash partitioning
of vertices across ``num_workers`` simulated machines.

Superstep scheduling
--------------------

Message-driven programs (BFS-like traversals, converging SSSP) leave most
vertices idle after the first few supersteps, yet a naive BSP loop still
visits every vertex every superstep — the dominant cost on large graphs.
The engine therefore supports two scheduling modes (GraphIt-style
sparse/dense direction switching, applied to the vertex iteration):

* ``scheduling="frontier"`` (the default) — track the *frontier* (vertices
  with incoming messages ∪ vertices that have not voted to halt) explicitly
  and iterate only it while it is sparse; when the frontier exceeds
  ``frontier_threshold × num_nodes`` the engine falls back to the dense
  scan, whose per-vertex cost is lower.  Messages are staged in per-worker
  batched outboxes (one per *destination* worker, as a real Pregel's
  outgoing buffers) and routed once at the barrier into a dense inbox
  index, replacing the per-send dict lookup.  Routing by destination worker
  preserves each receiver's message order exactly, so results and every
  metered quantity are bit-identical to the dense scan.
* ``scheduling="dense"`` — the classic loop over every vertex (skipping
  voted ones under ``use_voting``); the opt-out baseline the frontier mode
  is benchmarked and parity-tested against.

Engines without voting have no idle-vertex information (the compiler's
generated programs deliberately do not vote, §5.2), so the frontier mode
runs their vertex phase densely — batched routing still applies.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from .ft import FaultTolerance
    from .mem import MemoryManager
    from .net import SimulatedTransport
    from .supervisor import Supervisor
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracer import Tracer

from .globalmap import GlobalObjectMap, GlobalOp
from .graph import Graph
from .mem import MemoryExhausted

_NO_MESSAGES: tuple = ()

#: Shared by every backend's vertex ctx (the mp worker raises it from a
#: forked process), so a mis-composed program fails identically everywhere.
VOTING_DISABLED_ERROR = (
    "vote_to_halt() called on an engine constructed with "
    "use_voting=False: pass use_voting=True to PregelEngine, or "
    "drive termination from the master via halt()"
)


class VertexCompute(Protocol):
    def __call__(self, ctx: "PregelEngine", vid: int, messages: list) -> None: ...


class MasterCompute(Protocol):
    def __call__(self, ctx: "PregelEngine") -> None: ...


@dataclass
class RunMetrics:
    """What one Pregel execution cost — the quantities of Figure 6 / §5.2."""

    supersteps: int = 0
    messages: int = 0
    message_bytes: int = 0
    net_messages: int = 0        # messages crossing a worker boundary
    net_bytes: int = 0           # their payload bytes
    broadcast_values: int = 0    # master→vertex global-object broadcasts
    wall_seconds: float = 0.0
    result: Any = None
    halt_reason: str = ""
    #: which execution backend produced this ledger ("sim", "columnar",
    #: "mp"); descriptive only — deliberately outside parity_key(), which
    #: must be bit-identical *across* backends.
    backend: str = "sim"
    per_superstep_messages: list[int] = field(default_factory=list)
    #: send() calls per worker over the whole run (hash partitioning); the
    #: spread measures the load imbalance skewed graphs inflict on a real
    #: cluster, where superstep time = the slowest worker's time.  Unlike
    #: ``messages`` (delivered traffic), this counts every send *including*
    #: those folded into a combiner slot — the sender still does the combine
    #: work — so combiner runs report their true per-worker send load.
    worker_sent: list[int] = field(default_factory=list)
    #: simulated cluster time (with ``track_makespan=True``): per superstep,
    #: the *maximum* over workers of (vertices computed + messages sent +
    #: messages received), summed over supersteps.  A balanced run's makespan
    #: approaches total_work / num_workers; a skewed one is dominated by the
    #: hub-owning worker — the effect behind the paper's per-graph run times.
    makespan_units: int = 0
    ideal_units: float = 0.0
    # -- fault tolerance (repro.pregel.ft) ------------------------------
    #: checkpoints written / their total pickled payload bytes.
    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0
    #: worker crashes injected and the supersteps of work they destroyed
    #: (distance from the crash back to the recovery checkpoint).
    faults_injected: int = 0
    lost_supersteps: int = 0
    #: vertex computations re-executed during recovery: rollback recovery
    #: replays every partition, confined recovery only the failed one.
    recovery_replay_work: int = 0
    #: transient-network accounting: cross-worker deliveries that needed a
    #: retry, and the exponential-backoff units those retries cost.
    messages_retried: int = 0
    retry_backoff_units: int = 0
    # -- simulated transport (repro.pregel.net) --------------------------
    #: channel faults inflicted on the wire and absorbed by the reliable
    #: delivery protocol: attempts dropped in flight, duplicate arrivals
    #: discarded by the dedup table, out-of-order arrivals parked in the
    #: reorder buffer, corrupt arrivals caught by the checksum.  None of
    #: these reach results — they cost retransmissions and backoff.
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    messages_corrupted: int = 0
    packets_retransmitted: int = 0
    net_backoff_units: int = 0
    # -- supervision (repro.pregel.supervisor) ---------------------------
    #: heartbeats the failure detector missed before declaring workers
    #: dead, detector-driven restarts, and stragglers quarantined.
    heartbeats_missed: int = 0
    restarts: int = 0
    workers_quarantined: int = 0
    # -- memory accounting (repro.pregel.mem) -----------------------------
    #: bytes written to spill runs (inbox spills + superstep splits) and
    #: the number of run files; credit-exhausted delivery stalls (parks)
    #: and Giraph-style mid-phase outbox splits.  Like the transport's
    #: fault counters these describe *how* the run fit its budget, not what
    #: it computed — they stay outside parity_key().
    spilled_bytes: int = 0
    spill_files: int = 0
    outbox_parks: int = 0
    superstep_splits: int = 0
    #: peak resident bytes over all workers, and the streamed checkpoint
    #: writer's peak buffered bytes.
    mem_peak_bytes: int = 0
    checkpoint_peak_bytes: int = 0
    # -- codegen/backend provenance ---------------------------------------
    #: phases the columnar vectorizer runs as array code on this run — a
    #: bulk receive handler, a whole-phase kernel, or both ("phase<id>"
    #: labels) — empty on sim/mp and whenever the slab fast path is
    #: inactive.  Backend provenance like ``backend``
    #: itself, so excluded from parity_key().
    vectorized_phases: list[str] = field(default_factory=list)

    def makespan_inflation(self) -> float:
        """makespan / perfectly-balanced makespan (1.0 = no imbalance)."""
        if self.ideal_units == 0:
            return 1.0
        return self.makespan_units / self.ideal_units

    def load_imbalance(self) -> float:
        """max/mean of per-worker sent messages (1.0 = perfectly balanced)."""
        sent = self.worker_sent
        if not sent or sum(sent) == 0:
            return 1.0
        mean = sum(sent) / len(sent)
        return max(sent) / mean

    def to_dict(self) -> dict:
        """The complete ledger as plain data — *every* dataclass field, so a
        machine-readable dump can never silently lag behind new counters
        (asserted against ``dataclasses.fields`` by the test suite).  List
        fields are copied; the caller owns the result."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, list) else value
        return out

    def parity_key(self) -> dict:
        """The deterministic quantities a recovered run must reproduce
        bit-identically against its failure-free twin (everything the paper
        measures except wall time, which recovery legitimately inflates)."""
        return {
            "supersteps": self.supersteps,
            "messages": self.messages,
            "message_bytes": self.message_bytes,
            "net_messages": self.net_messages,
            "net_bytes": self.net_bytes,
            "broadcast_values": self.broadcast_values,
            "worker_sent": list(self.worker_sent),
            "halt_reason": self.halt_reason,
            "result": self.result,
        }

    def summary(self) -> str:
        text = (
            f"supersteps={self.supersteps} messages={self.messages} "
            f"bytes={self.message_bytes} net_bytes={self.net_bytes} "
            f"halt={self.halt_reason or '?'} wall={self.wall_seconds:.3f}s "
            f"backend={self.backend}"
        )
        if self.vectorized_phases:
            text += f" vectorized=[{','.join(self.vectorized_phases)}]"
        if self.checkpoints_taken or self.faults_injected:
            text += (
                f" | ft: checkpoints={self.checkpoints_taken} "
                f"ckpt_bytes={self.checkpoint_bytes} faults={self.faults_injected} "
                f"lost_supersteps={self.lost_supersteps} "
                f"replay_work={self.recovery_replay_work}"
            )
        if self.messages_retried:
            text += (
                f" | net: retried={self.messages_retried} "
                f"backoff_units={self.retry_backoff_units}"
            )
        if (
            self.messages_dropped
            or self.messages_duplicated
            or self.messages_reordered
            or self.messages_corrupted
        ):
            text += (
                f" | transport: dropped={self.messages_dropped} "
                f"duplicated={self.messages_duplicated} "
                f"reordered={self.messages_reordered} "
                f"corrupted={self.messages_corrupted} "
                f"retransmitted={self.packets_retransmitted} "
                f"backoff_units={self.net_backoff_units}"
            )
        if self.heartbeats_missed or self.restarts or self.workers_quarantined:
            text += (
                f" | supervisor: heartbeats_missed={self.heartbeats_missed} "
                f"restarts={self.restarts} quarantined={self.workers_quarantined}"
            )
        if (
            self.spilled_bytes
            or self.spill_files
            or self.outbox_parks
            or self.superstep_splits
            or self.mem_peak_bytes
        ):
            text += (
                f" | mem: peak={self.mem_peak_bytes} "
                f"spilled={self.spilled_bytes} spill_files={self.spill_files} "
                f"parks={self.outbox_parks} splits={self.superstep_splits}"
            )
            if self.checkpoint_peak_bytes:
                text += f" ckpt_peak={self.checkpoint_peak_bytes}"
        return text


def default_message_size(msg: tuple) -> int:
    """Fallback sizing: 1 byte tag + 8 bytes per payload field."""
    return 1 + 8 * (len(msg) - 1)


class PregelEngine:
    """One Pregel job: a graph, a vertex program, and an optional master.

    The engine object itself is the context handed to both compute functions.
    """

    def __init__(
        self,
        graph: Graph,
        vertex_compute: VertexCompute,
        master_compute: MasterCompute | None = None,
        *,
        num_workers: int = 4,
        seed: int = 17,
        message_size: Callable[[tuple], int] = default_message_size,
        max_supersteps: int = 1_000_000,
        use_voting: bool = False,
        record_per_superstep: bool = False,
        combiners: dict[int, Callable[[tuple, tuple], tuple]] | None = None,
        partitioning: str = "hash",
        track_makespan: bool = False,
        ft: "FaultTolerance | None" = None,
        scheduling: str = "frontier",
        frontier_threshold: float = 0.25,
        tracer: "Tracer | None" = None,
        transport: "SimulatedTransport | None" = None,
        supervisor: "Supervisor | None" = None,
        mem: "MemoryManager | None" = None,
        metrics_registry: "MetricsRegistry | None" = None,
    ):
        self.graph = graph
        self._vertex_compute = vertex_compute
        self._master_compute = master_compute
        self.num_workers = max(1, num_workers)
        self.rng = random.Random(seed)
        self._message_size = message_size
        self._max_supersteps = max_supersteps
        self._use_voting = use_voting
        self._record_per_superstep = record_per_superstep

        self.globals = GlobalObjectMap()
        self.superstep = 0
        self.result: Any = None
        self.metrics = RunMetrics()
        # Metrics registry (repro.obs.metrics): cumulative counters/gauges/
        # histograms with the tracer's zero-cost discipline — ``None`` and a
        # disabled registry both collapse to ``_mreg = None`` and the hot
        # loops are untouched.  Set before the subsystem attach() calls below
        # so ft/transport/supervisor/mem can pick up their instruments.
        self.metrics_registry = metrics_registry
        self._mreg = (
            metrics_registry
            if metrics_registry is not None and metrics_registry.enabled
            else None
        )

        self._halt = False
        self._outbox: dict[int, list] = {}
        self._inbox: dict[int, list] = {}
        self._current_vertex = -1
        self._voted = bytearray(graph.num_nodes) if use_voting else None
        # Superstep scheduling (see module docstring).  Frontier mode stages
        # sends in per-destination-worker batches and routes them once at
        # the barrier; the frontier itself is maintained incrementally (the
        # survivors of the last frontier that did not vote, plus the new
        # inbox keys) with a dirty flag forcing a full voted-bitmap scan
        # after anything that invalidates it (start of run, dense fallback,
        # checkpoint restore).
        if scheduling not in ("frontier", "dense"):
            raise ValueError(
                f"unknown scheduling '{scheduling}' (expected 'frontier' or 'dense')"
            )
        if not 0.0 < frontier_threshold <= 1.0:
            raise ValueError("frontier_threshold must be in (0, 1]")
        self.scheduling = scheduling
        self._frontier_threshold = frontier_threshold
        self._batched = scheduling == "frontier"
        self._frontier: list[int] = []
        self._frontier_dirty = True
        if self._batched:
            # Per-destination-worker outboxes (a receiver's messages all live
            # in its owner's batch, so per-receiver order is the global send
            # order), double-buffered so delivery routing reuses the drained
            # dicts instead of reallocating every superstep.
            self._out_parts: list[dict[int, list]] = [{} for _ in range(self.num_workers)]
            self._in_parts: list[dict[int, list]] = [{} for _ in range(self.num_workers)]
            self._inbox_slots: list = [_NO_MESSAGES] * graph.num_nodes
            self._touched: list[int] = []
            self._enqueue = self._enqueue_batch  # type: ignore[method-assign]
        # Sender-side message combining (the Pregel paper's combiners): one
        # slot per (sender worker, destination, tag), folded on every send.
        self._combiners = combiners or {}
        self._combined: dict[tuple[int, int, int], tuple] = {}
        self.metrics.worker_sent = [0] * self.num_workers
        # Vertex -> worker placement.  'hash' is GPS's default (round-robin
        # by id); 'range' assigns contiguous id blocks, which keeps the
        # id-local edges of web crawls within one worker.
        self.partitioning = partitioning
        n, w = graph.num_nodes, self.num_workers
        if partitioning == "hash":
            self._worker_of = bytes(v % w for v in range(n)) if w <= 256 else [
                v % w for v in range(n)
            ]
        elif partitioning == "range":
            self._worker_of = bytes(min(v * w // max(1, n), w - 1) for v in range(n)) if w <= 256 else [
                min(v * w // max(1, n), w - 1) for v in range(n)
            ]
        else:
            raise ValueError(f"unknown partitioning '{partitioning}'")
        self._track_makespan = track_makespan
        # per-superstep work units per worker (compute + sends + receives)
        self._step_work: list[int] = [0] * self.num_workers
        # Fault tolerance (repro.pregel.ft): the manager checkpoints at
        # superstep boundaries, injects scheduled worker crashes, and drives
        # recovery.  ``_ft_replaying`` marks confined-recovery replay, during
        # which sends and global puts are suppressed (their effects already
        # reached the healthy workers in the original execution).
        self.ft = ft
        self._ft_replaying = False
        if ft is not None:
            ft.attach(self)
        # Simulated transport (repro.pregel.net): when present, every
        # barrier's per-destination-worker message batches are routed
        # through its reliable delivery protocol; None keeps the direct
        # in-memory hand-off (the untouched fast path).
        self._transport = transport
        if transport is not None:
            transport.attach(self)
        # Supervision (repro.pregel.supervisor): heartbeat failure
        # detection at every superstep boundary, escalating into the FT
        # manager's recovery — attach() enforces that pairing.  A detected
        # failure past the restart budget sets ``_abort_reason`` and the
        # run degrades to a partial result with that halt_reason.
        self._supervisor = supervisor
        self._abort_reason: str | None = None
        if supervisor is not None:
            supervisor.attach(self)
        # Memory accounting (repro.pregel.mem): with a limited plan every
        # inbox/outbox/combiner/checkpoint byte charges a per-worker budget
        # and delivery runs under credit control; an unlimited plan (or
        # mem=None) installs nothing — the hot loops check one flag per run.
        self.mem = mem
        self._mem_limited = False
        if mem is not None:
            mem.attach(self)
            self._mem_limited = mem.limited
        # Observability (repro.obs): ``tracer=None`` (or a disabled tracer)
        # leaves the hot loops untouched — instrumentation is installed by
        # run() only when the tracer records (see _install_tracing).
        self.tracer = tracer
        self._trace_worker_computed: list[int] = []
        self._trace_worker_seconds: list[float] = []
        self._trace_worker_bytes: list[int] = []

    # ------------------------------------------------------------------
    # Vertex-side API
    # ------------------------------------------------------------------

    def send(self, dst: int, msg: tuple) -> None:
        """Send ``msg`` to vertex ``dst``, delivered next superstep."""
        sender = self._current_vertex
        if sender < 0:
            raise RuntimeError(
                "send() called outside the vertex phase: messages must "
                "originate from a vertex; master code broadcasts through "
                "put_broadcast() instead"
            )
        if self._ft_replaying:
            # Confined-recovery replay: this message was already delivered
            # during the original execution of this superstep.
            return
        worker_of = self._worker_of
        sender_worker = worker_of[sender]
        m = self.metrics
        combiner = self._combiners.get(msg[0]) if self._combiners else None
        if combiner is not None:
            # Delivered traffic (messages / bytes / net) is metered at flush
            # time, on the *folded* payload — folds may change the payload,
            # so metering the first message here would drift from what is
            # actually delivered at the barrier.  The sender's combine work
            # is counted per send: every fold costs the sending worker.
            m.worker_sent[sender_worker] += 1
            if self._track_makespan:
                self._step_work[sender_worker] += 1
            key = (sender_worker, dst, msg[0])
            slot = self._combined.get(key)
            if slot is not None:
                self._combined[key] = combiner(slot, msg)
            else:
                self._combined[key] = msg
            return
        self._enqueue(dst, msg)
        size = self._message_size(msg)
        m.messages += 1
        m.message_bytes += size
        m.worker_sent[sender_worker] += 1
        if sender_worker != worker_of[dst]:
            m.net_messages += 1
            m.net_bytes += size
            if self.ft is not None:
                self.ft.account_delivery()
        if self._track_makespan:
            self._step_work[sender_worker] += 1
            self._step_work[worker_of[dst]] += 1

    def _enqueue(self, dst: int, msg: tuple) -> None:
        bucket = self._outbox.get(dst)
        if bucket is None:
            self._outbox[dst] = [msg]
        else:
            bucket.append(msg)

    def _enqueue_batch(self, dst: int, msg: tuple) -> None:
        # Frontier mode: stage in the destination worker's outbox batch.  A
        # receiver's messages all land in its owner's batch, so per-receiver
        # order is the global send order, as with _enqueue.
        part = self._out_parts[self._worker_of[dst]]
        bucket = part.get(dst)
        if bucket is None:
            part[dst] = [msg]
        else:
            bucket.append(msg)

    def outbox_view(self) -> dict[int, list]:
        """The in-flight messages as one ``{dst: msgs}`` map.

        Dense mode returns the live outbox dict; frontier mode merges the
        per-worker outbox batches (each destination appears in exactly one).
        The fault-tolerance manager checkpoints and logs through this view,
        so both schedulers share one checkpoint/log format.  Under a memory
        budget the view also re-merges any superstep-split spill runs, so
        checkpoints and confined-recovery logs see exactly the traffic a
        budget-free run would have staged in memory.
        """
        if self._mem_limited:
            return self.mem.outbox_snapshot()
        if not self._batched:
            return self._outbox
        merged: dict[int, list] = {}
        for part in self._out_parts:
            merged.update(part)
        return merged

    def _flush_combined(self) -> None:
        """Deliver the combiner slots at the barrier, metering the folded
        payloads — the messages that actually travel."""
        worker_of = self._worker_of
        m = self.metrics
        enqueue = self._enqueue
        size_of = self._message_size
        track = self._track_makespan
        ft = self.ft
        for (sender_worker, dst, _tag), msg in self._combined.items():
            enqueue(dst, msg)
            size = size_of(msg)
            m.messages += 1
            m.message_bytes += size
            if sender_worker != worker_of[dst]:
                m.net_messages += 1
                m.net_bytes += size
                if ft is not None:
                    ft.account_delivery()
            if track:
                self._step_work[worker_of[dst]] += 1
        self._combined.clear()

    def send_to_out_nbrs(self, vid: int, msg: tuple) -> None:
        graph = self.graph
        for dst in graph.out_targets[graph.out_offsets[vid] : graph.out_offsets[vid + 1]]:
            self.send(dst, msg)

    def send_nbrs(self, vid: int, msg: tuple) -> None:
        """Bulk send: ``msg`` to every out-neighbor of ``vid``.

        Generated code emits this for loop-invariant payloads so typed
        backends can stage one packed record per neighbor block; here it is
        the plain per-neighbor loop through ``self.send`` (which picks up
        the traced-send instance shadow when tracing is installed).
        """
        graph = self.graph
        send = self.send
        for dst in graph.out_targets[graph.out_offsets[vid] : graph.out_offsets[vid + 1]]:
            send(dst, msg)

    def send_list(self, dsts: list, msg: tuple) -> None:
        """Bulk send: ``msg`` to every vertex in ``dsts`` (in-neighbor
        sends through the Incoming-Neighbors prologue's ``_in_nbrs``)."""
        send = self.send
        for dst in dsts:
            send(dst, msg)

    def get_global(self, name: str) -> Any:
        return self.globals.broadcast[name]

    def put_global(self, name: str, op: GlobalOp, value: Any) -> None:
        if self._ft_replaying:
            # Confined-recovery replay: this put was already aggregated
            # during the original execution of this superstep.
            return
        self.globals.put_reduce(name, op, value)

    def vote_to_halt(self, vid: int) -> None:
        if self._voted is None:
            # Silently ignoring the vote would mask non-termination as
            # halt_reason="max_supersteps"; fail loudly instead.
            raise RuntimeError(VOTING_DISABLED_ERROR)
        self._voted[vid] = 1

    # ------------------------------------------------------------------
    # Master-side API
    # ------------------------------------------------------------------

    def get_agg(self, name: str, default: Any = None) -> Any:
        return self.globals.get_aggregated(name, default)

    def put_broadcast(self, name: str, value: Any) -> None:
        self.globals.put_broadcast(name, value)
        self.metrics.broadcast_values += 1

    def halt(self, result: Any = None) -> None:
        self._halt = True
        if result is not None:
            self.result = result

    def set_result(self, value: Any) -> None:
        self.result = value

    def pick_random_node(self) -> int:
        return self.rng.randrange(self.graph.num_nodes)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    # ------------------------------------------------------------------
    # Checkpointing (repro.pregel.ft)
    # ------------------------------------------------------------------

    #: RunMetrics counters included in a checkpoint.  Rollback recovery
    #: restores them so a replayed run's ledger matches a failure-free one;
    #: the fault-tolerance counters themselves (checkpoints_taken, …) stay
    #: outside — they describe the faulted execution, not the computation.
    _CHECKPOINTED_METRICS = (
        "messages",
        "message_bytes",
        "net_messages",
        "net_bytes",
        "broadcast_values",
        "makespan_units",
        "ideal_units",
    )

    def checkpoint_state(self) -> dict:
        """Snapshot the engine at a superstep boundary (start of superstep,
        before ``master.compute()``): in-flight messages, voted bits, global
        objects, RNG state, and the metrics ledger.  The returned payload is
        plain picklable data; the fault-tolerance manager serializes it."""
        metrics = self.metrics
        # Only the outer map is copied: the bucket lists are never mutated
        # after staging (delivery swaps and reads, sends build new buckets),
        # and the FT manager serializes the payload immediately — copying
        # every message list here only doubled the checkpoint's transient
        # memory footprint.
        state = {
            "superstep": self.superstep,
            "outbox": dict(self.outbox_view()),
            # Frontier-mode scheduler state: the vertices computed in the
            # last superstep, from which the next frontier's un-voted half
            # derives.  None when unknown (dense scheduling, or before the
            # first sparse superstep) — a restore then recomputes it from
            # the voted bitmap, which is exact.
            "frontier": (
                list(self._frontier)
                if self._batched and not self._frontier_dirty
                else None
            ),
            "voted": bytes(self._voted) if self._voted is not None else None,
            "rng": self.rng.getstate(),
            "result": self.result,
            "halt": self._halt,
            "broadcast": dict(self.globals.broadcast),
            "aggregated": dict(self.globals.aggregated),
            "metrics": {name: getattr(metrics, name) for name in self._CHECKPOINTED_METRICS},
            "per_superstep_messages": list(metrics.per_superstep_messages),
            "worker_sent": list(metrics.worker_sent),
        }
        return state

    def restore_state(self, state: dict, vertices: list[int] | None = None) -> None:
        """Restore a checkpoint payload.

        ``vertices`` selects confined recovery: only the voted bits of the
        failed partition are restored (its in-flight inbox is rebuilt from
        logs by the manager, and the globals/metrics ledger lives on the
        master, which did not fail).  ``None`` is a full rollback: every
        engine structure — including the metrics counters — rewinds to the
        boundary, and live aliases (the broadcast dict generated code closes
        over, the voted bytearray) are mutated in place."""
        if vertices is not None:
            if self._voted is not None and state["voted"] is not None:
                saved = state["voted"]
                for v in vertices:
                    self._voted[v] = saved[v]
            # The partition's voted bits just rewound; force the scheduler to
            # rebuild the frontier from the bitmap at the next delivery.
            self._frontier_dirty = True
            return
        self.superstep = state["superstep"]
        # Install the checkpointed buckets without duplicating each message
        # list: a restored payload is freshly unpickled (FT) or engine
        # buckets are never mutated in place after staging (direct restore
        # of a captured state), so the per-bucket copies this used to make
        # doubled the restore's memory footprint for nothing.
        if self._batched:
            parts = self._out_parts
            for part in parts:
                part.clear()
            worker_of = self._worker_of
            for dst, msgs in state["outbox"].items():
                parts[worker_of[dst]][dst] = msgs
        else:
            self._outbox = dict(state["outbox"])
        saved_frontier = state.get("frontier")
        if self._batched and saved_frontier is not None:
            self._frontier = list(saved_frontier)
            self._frontier_dirty = False
        else:
            self._frontier_dirty = True
        if self._voted is not None and state["voted"] is not None:
            self._voted[:] = state["voted"]
        self.rng.setstate(state["rng"])
        self.result = state["result"]
        self._halt = state["halt"]
        self.globals.broadcast.clear()
        self.globals.broadcast.update(state["broadcast"])
        self.globals.aggregated = dict(state["aggregated"])
        metrics = self.metrics
        for name, value in state["metrics"].items():
            setattr(metrics, name, value)
        # The per-superstep record must stay in lockstep with ``superstep``:
        # one entry per completed superstep.  A checkpoint can legitimately
        # carry *fewer* entries (it was written by an engine that had
        # ``record_per_superstep`` off — pad the unknown early supersteps
        # with 0 so later appends land at the right index) but never more.
        saved_per_superstep = state["per_superstep_messages"]
        if len(saved_per_superstep) > state["superstep"]:
            raise ValueError(
                f"checkpoint at superstep {state['superstep']} carries "
                f"{len(saved_per_superstep)} per-superstep entries — a "
                "checkpoint can never have more entries than completed "
                "supersteps"
            )
        metrics.per_superstep_messages[:] = saved_per_superstep
        if self._record_per_superstep and len(saved_per_superstep) < state["superstep"]:
            metrics.per_superstep_messages.extend(
                [0] * (state["superstep"] - len(saved_per_superstep))
            )
        metrics.worker_sent[:] = state["worker_sent"]
        # Under a budget the live spill runs are stale now — the restored
        # in-flight outbox was just installed in memory; the manager drops
        # the run files and recharges the ledger from the installed batches.
        if self._mem_limited:
            self.mem.on_rollback()
        # Rollback recovery is about to replay the dropped supersteps: the
        # tracer must drop their records too, so a recovered run's stream
        # stays identical to a failure-free one.
        if self.tracer is not None:
            self.tracer.on_rollback(self.superstep)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _install_tracing(self) -> None:
        """Swap in the traced execution hooks (recording tracer only).

        The untraced hot path stays byte-identical: tracing wraps the vertex
        function (per-worker computed counts + compute seconds) and shadows
        ``send`` with an instance attribute (per-worker staged payload
        bytes), so the engine's loops and the per-send fast path carry zero
        extra branches when tracing is off.  Per-worker bytes are metered on
        the *staged* payload (pre-combiner-fold: the sends are identical
        under either scheduler, which keeps the quantity deterministic).
        Confined-recovery replay (``_ft_replaying``) is transparent to both
        wrappers — its work was already counted by the original execution.
        """
        workers = self.num_workers
        self._trace_worker_computed = [0] * workers
        self._trace_worker_seconds = [0.0] * workers
        self._trace_worker_bytes = [0] * workers
        inner = self._vertex_compute
        worker_of = self._worker_of
        computed = self._trace_worker_computed
        seconds = self._trace_worker_seconds
        staged_bytes = self._trace_worker_bytes
        size_of = self._message_size
        perf = time.perf_counter
        cls_send = PregelEngine.send

        def traced_compute(ctx, vid, messages):
            if self._ft_replaying:
                inner(ctx, vid, messages)
                return
            w = worker_of[vid]
            computed[w] += 1
            t0 = perf()
            inner(ctx, vid, messages)
            seconds[w] += perf() - t0

        def traced_send(dst, msg):
            sender = self._current_vertex
            if sender >= 0 and not self._ft_replaying:
                staged_bytes[worker_of[sender]] += size_of(msg)
            cls_send(self, dst, msg)

        self._vertex_compute = traced_compute
        self.send = traced_send  # type: ignore[method-assign]

    def run(self) -> RunMetrics:
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        mem = self.mem
        mem_limited = self._mem_limited
        if traced:
            self._install_tracing()
        if mem_limited:
            # After tracing: the budgeted compute wrapper must see the
            # traced hooks so spilled-inbox materialization is timed too.
            mem.install()
        if traced:
            tracer.event(
                "run.begin",
                cat="engine",
                det={
                    "num_workers": self.num_workers,
                    "num_nodes": self.graph.num_nodes,
                    "num_edges": self.graph.num_edges,
                    "use_voting": self._use_voting,
                    "partitioning": self.partitioning,
                },
                info={
                    "scheduling": self.scheduling,
                    "frontier_threshold": self._frontier_threshold,
                    "max_supersteps": self._max_supersteps,
                },
            )
        start = time.perf_counter()
        graph = self.graph
        n = graph.num_nodes
        voted = self._voted
        ft = self.ft
        supervisor = self._supervisor
        transport = self._transport
        batched = self._batched
        threshold = max(1, int(self._frontier_threshold * n))
        halt_reason = "max_supersteps"
        oom: MemoryExhausted | None = None
        try:
            halt_reason = self._run_loop(
                halt_reason, tracer, traced, mem, mem_limited
            )
        except MemoryExhausted as exc:
            # Graceful degradation: an unsatisfiable budget ends the run
            # with a structured report, never an exception.  The supervisor
            # (when present) records the exhaustion like a detected death.
            oom = exc
            halt_reason = "out_of_memory"
            self._current_vertex = -1
        finally:
            if mem is not None:
                if oom is not None:
                    mem.record_oom(oom)
                mem.close()
        if oom is not None and supervisor is not None:
            supervisor.on_oom(oom)
        self.metrics.supersteps = self.superstep
        self.metrics.wall_seconds = time.perf_counter() - start
        self.metrics.result = self.result
        self.metrics.halt_reason = halt_reason
        if self._mreg is not None:
            self._mreg.counter("pregel.runs", det=True, halt_reason=halt_reason).inc()
            self._mreg.histogram("pregel.run_seconds").observe(
                self.metrics.wall_seconds
            )
            self._mreg.gauge("pregel.num_workers").set_max(self.num_workers)
        if traced:
            m = self.metrics
            tracer.event(
                "run.end",
                cat="engine",
                det={
                    "supersteps": m.supersteps,
                    "messages": m.messages,
                    "message_bytes": m.message_bytes,
                    "net_messages": m.net_messages,
                    "net_bytes": m.net_bytes,
                    "broadcast_values": m.broadcast_values,
                    "worker_sent": list(m.worker_sent),
                    "halt_reason": m.halt_reason,
                    "result": m.result,
                },
                info={"wall_seconds": m.wall_seconds},
            )
        return self.metrics

    def _deliver_batched(self, mem, mem_limited, transport) -> None:
        """Route the per-destination-worker outbox batches into the dense
        inbox index at the barrier (frontier mode's delivery step).  The
        drained dicts are reused as next superstep's outboxes (double
        buffering).  Execution backends override this hook to swap the
        staging representation (e.g. typed message slabs) while keeping the
        run loop — and the barrier it synchronizes at — unchanged."""
        incoming = self._out_parts
        self._out_parts = self._in_parts
        self._in_parts = incoming
        touched = self._touched
        touched.clear()
        slots = self._inbox_slots
        receiving = touched.append
        if mem_limited:
            # Credit-controlled routing: same worker order, same
            # per-receiver message order, bounded by the budget
            # (split runs re-merge ahead of the residual batch).
            mem.deliver_batched(incoming, receiving)
        elif transport is None:
            for part in incoming:
                if part:
                    for dst, msgs in part.items():
                        slots[dst] = msgs
                        receiving(dst)
                    part.clear()
        else:
            # Each destination worker's batch crosses the simulated
            # channel; the reliable protocol hands back the exact
            # sent stream (faults cost retransmissions, not data).
            for wid, part in enumerate(incoming):
                if part:
                    for dst, msgs in transport.route_part(wid, part).items():
                        slots[dst] = msgs
                        receiving(dst)
                    part.clear()

    def _vertex_phase(self, frontier, inbox) -> None:
        """Run ``vertex.compute()`` over this superstep's active set.

        ``frontier`` is the sparse vertex list of a frontier-mode superstep
        (``None`` = every un-voted vertex); ``inbox`` is dense scheduling's
        ``{dst: msgs}`` map, ``None`` under batched routing, whose dense
        inbox index was filled at delivery and is reset here.  Execution
        backends override this hook to run a phase as array code."""
        n = self.graph.num_nodes
        voted = self._voted
        compute = self._vertex_compute
        track = self._track_makespan
        step_work = self._step_work
        worker_of = self._worker_of
        if inbox is None:
            slots = self._inbox_slots
            if frontier is not None:
                for vid in frontier:
                    self._current_vertex = vid
                    if track:
                        step_work[worker_of[vid]] += 1
                    compute(self, vid, slots[vid])
            elif voted is None:
                for vid in range(n):
                    self._current_vertex = vid
                    if track:
                        step_work[worker_of[vid]] += 1
                    compute(self, vid, slots[vid])
            else:
                for vid in range(n):
                    if voted[vid]:
                        continue
                    self._current_vertex = vid
                    if track:
                        step_work[worker_of[vid]] += 1
                    compute(self, vid, slots[vid])
            for dst in self._touched:
                slots[dst] = _NO_MESSAGES
        elif voted is None:
            for vid in range(n):
                self._current_vertex = vid
                if track:
                    step_work[worker_of[vid]] += 1
                compute(self, vid, inbox.get(vid, _NO_MESSAGES))
        else:
            for vid in range(n):
                if voted[vid]:
                    continue
                self._current_vertex = vid
                if track:
                    step_work[worker_of[vid]] += 1
                compute(self, vid, inbox.get(vid, _NO_MESSAGES))

    def _run_loop(self, halt_reason, tracer, traced, mem, mem_limited) -> str:
        graph = self.graph
        n = graph.num_nodes
        voted = self._voted
        ft = self.ft
        supervisor = self._supervisor
        transport = self._transport
        batched = self._batched
        threshold = max(1, int(self._frontier_threshold * n))
        # Metering (repro.obs.metrics) shares the tracer's phase clocks:
        # ``instr`` gates the perf_counter reads, ``traced``/``metered``
        # gate what they feed.  Instrument handles are resolved once here
        # so the loop bumps plain attributes.
        mreg = self._mreg
        metered = mreg is not None
        instr = traced or metered
        if metered:
            m_steps = mreg.counter("pregel.supersteps", det=True)
            m_messages = mreg.counter("pregel.messages", det=True)
            m_msg_bytes = mreg.counter("pregel.message_bytes", det=True)
            m_net_messages = mreg.counter("pregel.net_messages", det=True)
            m_net_bytes = mreg.counter("pregel.net_bytes", det=True)
            m_broadcasts = mreg.counter("pregel.broadcasts", det=True)
            m_step_s = mreg.histogram("pregel.superstep_seconds")
            m_phase_s = {
                phase: mreg.histogram("pregel.phase_seconds", phase=phase)
                for phase in ("master", "route", "vertex", "combine", "barrier")
            }
            m_frontier = mreg.histogram("pregel.frontier_size")
        while self.superstep < self._max_supersteps:
            # Supervision boundary (before the FT hook: detection must see
            # the barrier the workers just crossed, and recovery needs the
            # checkpoint the FT hook's *previous* visits produced).  A
            # detected failure past the restart budget degrades the run.
            if supervisor is not None:
                supervisor.on_superstep_start()
                if self._abort_reason is not None:
                    halt_reason = self._abort_reason
                    break
            # Fault-tolerance boundary: checkpoint if due, then inject any
            # scheduled crash (recovery may rewind ``self.superstep``).
            if ft is not None:
                ft.on_superstep_start()
            if instr:
                # Snapshot the ledger *after* any recovery so the superstep
                # record meters exactly this superstep's deltas.
                _m = self.metrics
                t_step0 = t_phase = time.perf_counter()
                s_messages = _m.messages
                s_message_bytes = _m.message_bytes
                s_net_messages = _m.net_messages
                s_net_bytes = _m.net_bytes
                s_broadcasts = _m.broadcast_values
                if traced:
                    step_ts = tracer.now()
                    s_worker_sent = list(_m.worker_sent)
                    if transport is not None:
                        s_dropped = _m.messages_dropped
                        s_duplicated = _m.messages_duplicated
                        s_reordered = _m.messages_reordered
                        s_corrupted = _m.messages_corrupted
                        s_retransmitted = _m.packets_retransmitted
                    tw_computed = self._trace_worker_computed
                    tw_seconds = self._trace_worker_seconds
                    tw_bytes = self._trace_worker_bytes
                    for w in range(self.num_workers):
                        tw_computed[w] = 0
                        tw_seconds[w] = 0.0
                        tw_bytes[w] = 0

            # Master phase: sees globals aggregated from the previous superstep.
            if self._master_compute is not None:
                self._master_compute(self)
                if self._halt:
                    halt_reason = "master_halt"
                    break
            if ft is not None:
                ft.on_master_done()
            if instr:
                t_now = time.perf_counter()
                master_s, t_phase = t_now - t_phase, t_now

            # Deliver messages sent last superstep.  Frontier mode routes the
            # per-worker outbox batches once, here at the barrier, into the
            # dense inbox index (one slot per vertex); the drained dicts are
            # reused as next superstep's outboxes (double buffering).  Dense
            # mode keeps the classic dict swap.
            if batched:
                self._deliver_batched(mem, mem_limited, transport)
                touched = self._touched
            elif mem_limited:
                staged = self._outbox
                self._outbox = {}
                self._inbox = inbox = mem.deliver_dense(staged)
            else:
                self._inbox, self._outbox = self._outbox, {}
                inbox = self._inbox
                if transport is not None and inbox:
                    # Dense mode stages one flat outbox; group it into
                    # per-destination-worker batches (ascending worker id,
                    # matching frontier mode's routing order) and route
                    # each across the simulated channel.
                    worker_of_ = self._worker_of
                    parts: dict[int, dict[int, list]] = {}
                    for dst, msgs in inbox.items():
                        wid = worker_of_[dst]
                        bucket = parts.get(wid)
                        if bucket is None:
                            parts[wid] = {dst: msgs}
                        else:
                            bucket[dst] = msgs
                    merged: dict[int, list] = {}
                    for wid in sorted(parts):
                        merged.update(transport.route_part(wid, parts[wid]))
                    self._inbox = inbox = merged

            # Scheduling: build this superstep's frontier (frontier mode
            # with voting), or just run the voting halt check (dense mode).
            # ``frontier is None`` means a dense vertex phase.
            frontier = None
            if voted is not None:
                if batched:
                    for dst in touched:
                        voted[dst] = 0
                    if self._frontier_dirty:
                        unvoted = [v for v in range(n) if not voted[v]]
                    else:
                        unvoted = [v for v in self._frontier if not voted[v]]
                    if touched:
                        active = set(unvoted)
                        active.update(touched)
                    else:
                        active = unvoted  # already deduped and ascending
                    if self.superstep > 0 and not active:
                        halt_reason = "all_halted"
                        break
                    if len(active) < threshold:
                        # Sparse superstep: every member is un-voted (message
                        # receivers were just woken), so the vertex loop needs
                        # no voted check.  Ascending order matches the dense
                        # scan, keeping message order — and thus results —
                        # bit-identical.
                        frontier = (
                            sorted(active) if isinstance(active, set) else active
                        )
                        self._frontier = frontier
                        self._frontier_dirty = False
                    else:
                        self._frontier_dirty = True
                else:
                    for dst in inbox:
                        voted[dst] = 0
                    if self.superstep > 0 and not inbox and all(voted):
                        halt_reason = "all_halted"
                        break

            if instr:
                t_now = time.perf_counter()
                route_s, t_phase = t_now - t_phase, t_now
                if traced and transport is not None:
                    # Info-only (like ft.*): faulted traces must project to
                    # the same deterministic stream as failure-free ones.
                    _m = self.metrics
                    tracer.event(
                        "net.route",
                        cat="net",
                        info={
                            "step": self.superstep,
                            "dropped": _m.messages_dropped - s_dropped,
                            "duplicated": _m.messages_duplicated - s_duplicated,
                            "reordered": _m.messages_reordered - s_reordered,
                            "corrupted": _m.messages_corrupted - s_corrupted,
                            "retransmitted": _m.packets_retransmitted - s_retransmitted,
                            "route_s": route_s,
                        },
                    )

            before = self.metrics.messages
            track = self._track_makespan
            step_work = self._step_work
            self._vertex_phase(frontier, None if batched else inbox)
            self._current_vertex = -1  # leaving the vertex phase
            if instr:
                t_now = time.perf_counter()
                vertex_s, t_phase = t_now - t_phase, t_now

            # Barrier: flush combiner slots (metering the folded payloads),
            # then account the superstep.
            if self._combined:
                if mem_limited:
                    # The combiner table lived on the senders all superstep
                    # and cannot spill; charge it before the flush (which
                    # stages — and budget-charges — the folded payloads).
                    mem.check_combiner(self._combined)
                self._flush_combined()
            if instr:
                t_now = time.perf_counter()
                combine_s, t_phase = t_now - t_phase, t_now
            if self._record_per_superstep:
                self.metrics.per_superstep_messages.append(self.metrics.messages - before)
            if track:
                self.metrics.makespan_units += max(step_work)
                self.metrics.ideal_units += sum(step_work) / self.num_workers
                for w in range(self.num_workers):
                    step_work[w] = 0

            if ft is not None:
                ft.on_superstep_end()
            if mem_limited:
                # The vertex phase consumed this superstep's inbox: release
                # its charges and drop its spill runs.
                mem.on_superstep_end()
            self.globals.end_superstep()
            self.superstep += 1
            if instr:
                m = self.metrics
                t_now = time.perf_counter()
                barrier_s = t_now - t_phase
                if metered:
                    m_steps.inc()
                    m_messages.inc(m.messages - s_messages)
                    m_msg_bytes.inc(m.message_bytes - s_message_bytes)
                    m_net_messages.inc(m.net_messages - s_net_messages)
                    m_net_bytes.inc(m.net_bytes - s_net_bytes)
                    m_broadcasts.inc(m.broadcast_values - s_broadcasts)
                    m_step_s.observe(t_now - t_step0)
                    m_phase_s["master"].observe(master_s)
                    m_phase_s["route"].observe(route_s)
                    m_phase_s["vertex"].observe(vertex_s)
                    m_phase_s["combine"].observe(combine_s)
                    m_phase_s["barrier"].observe(barrier_s)
                    if frontier is not None:
                        m_frontier.observe(len(frontier))
            if traced:
                tracer.event(
                    "superstep",
                    cat="engine",
                    ts=step_ts,
                    det={
                        "step": self.superstep - 1,
                        "active": sum(tw_computed),
                        "halted": int(sum(voted)) if voted is not None else 0,
                        "messages": m.messages - s_messages,
                        "message_bytes": m.message_bytes - s_message_bytes,
                        "net_messages": m.net_messages - s_net_messages,
                        "net_bytes": m.net_bytes - s_net_bytes,
                        "broadcasts": m.broadcast_values - s_broadcasts,
                        "worker_computed": list(tw_computed),
                        "worker_sent": [
                            now - then
                            for now, then in zip(m.worker_sent, s_worker_sent)
                        ],
                        "worker_bytes": list(tw_bytes),
                    },
                    info={
                        "mode": "sparse" if frontier is not None else "dense",
                        "frontier": len(frontier) if frontier is not None else -1,
                        "master_s": master_s,
                        "route_s": route_s,
                        "vertex_s": vertex_s,
                        "combine_s": combine_s,
                        "barrier_s": barrier_s,
                        "worker_seconds": list(tw_seconds),
                    },
                )

        return halt_reason
