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
There is one routing path and one vertex loop; ``scheduling`` only decides
whether the loop may go sparse (GraphIt-style sparse/dense direction
switching, applied to the vertex iteration):

* Messages are staged in one outbox, ``{dst: msgs}`` in global send
  order, installed at the barrier into a dense inbox index; the simulated
  channel gets its per-destination-worker totals there, and a memory
  budget batches cut from it.  Each receiver's messages keep their send
  order.
* ``scheduling="frontier"`` (the default) — under voting, track the
  *frontier* (vertices with incoming messages ∪ vertices that have not
  voted to halt) explicitly and iterate only it while it is smaller than
  ``frontier_threshold × num_nodes``; above that the vertex loop scans
  every un-voted vertex, whose per-vertex cost is lower.
* ``scheduling="dense"`` — the sparse switch off: every superstep scans
  every un-voted vertex and the active set is never built (termination is
  "nothing delivered and everyone voted").  The reference the frontier mode
  is benchmarked and parity-tested against; results and every metered
  quantity are bit-identical either way.

Engines without voting have no idle-vertex information (the compiler's
generated programs deliberately do not vote, §5.2), so their vertex phase
is always the full scan.

One driver
----------

``PregelEngine.run`` / ``_superstep_loop`` are the only superstep loop in
the package: ``sim`` and ``columnar`` run it with the in-process body
(deliver → vertex phase → combiner flush), the ``mp`` backend's
``MPEngine`` subclasses it and supplies its own body (step → stat fold →
exchange → ready).  See the class docstring.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property
from dataclasses import dataclass, field, fields
from itertools import filterfalse, repeat, tee
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from .ft import FaultTolerance
    from .mem import MemoryManager
    from .net import SimulatedTransport
    from .supervisor import Supervisor
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracer import Tracer

from .backend import BackendUnsupported
from .fold import OPEN, fold
from .globalmap import GlobalObjectMap, GlobalOp
from .graph import Graph

_NO_MESSAGES: tuple = ()

#: Shared by every backend's vertex ctx (the mp worker raises it from a
#: forked process), so a mis-composed program fails identically everywhere.
VOTING_DISABLED_ERROR = (
    "vote_to_halt() called on an engine constructed with "
    "use_voting=False: pass use_voting=True to PregelEngine, or "
    "drive termination from the master via halt()"
)


#: A send with no vertex computing: refused in these words by every backend.
OUTSIDE_PHASE_ERROR = (
    "send() called outside the vertex phase: messages must "
    "originate from a vertex; master code broadcasts through "
    "put_broadcast() instead"
)


class MemoryExhausted(RuntimeError):
    """A worker's budget cannot hold an irreducible allocation.

    Raised only when spilling and splitting cannot help: a single vertex's
    materialized inbox, one combiner table, or the checkpoint stream window
    exceeds the worker's whole budget.  The engine converts this into
    ``halt_reason="out_of_memory"`` — it never escapes ``run()``.
    """

    def __init__(self, worker: int, phase: str, needed: int, budget: int, superstep: int):
        super().__init__(
            f"worker {worker} out of memory in {phase} at superstep "
            f"{superstep}: needs {needed} bytes, budget is {budget}"
        )
        self.worker = worker
        self.phase = phase
        self.needed = needed
        self.budget = budget
        self.superstep = superstep


class VertexCompute(Protocol):
    def __call__(self, ctx: "PregelEngine", vid: int, messages: list) -> None: ...


class PhaseLoop(Protocol):
    """One superstep's vertex phase: compute every vertex of ``active`` (its
    messages are ``slots[vid]``); returns how many it iterated."""

    def __call__(self, ctx: "PregelEngine", active: Iterable[int], slots) -> int: ...


#: a generated program: per master state, its phase's loop
PhaseLoops = dict[int, PhaseLoop]


def per_vertex_loop(compute: VertexCompute) -> PhaseLoop:
    """Adapt a per-vertex function (a hand-written program, user code) into
    the engine's loop shape; the body is the engine's per-vertex loop."""

    def adapted_loop(ctx, active, slots):
        computed = 0
        for computed, vid in enumerate(active, 1):
            ctx._current_vertex = vid
            compute(ctx, vid, slots[vid])
        return computed

    return adapted_loop


def _count_only(ctx, active, slots) -> int:
    """A state with no phase: its vertices count as computed."""
    computed = 0
    for computed, _vid in enumerate(active, 1):
        pass
    return computed


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
    #: send() calls per worker over the whole run, under the engine's
    #: partitioning; the spread measures the load imbalance skewed graphs
    #: inflict on a real cluster, where superstep time = the slowest
    #: worker's time.  Unlike ``messages`` (delivered traffic), this counts
    #: every send *including* those folded into a combiner slot — the
    #: sender still does the combine work — so combiner runs report their
    #: true per-worker send load.  Per-superstep quantities (the message
    #: series, the makespan) live in a recording tracer's ``superstep``
    #: events, which :mod:`repro.obs.profile` projects.
    worker_sent: list[int] = field(default_factory=list)
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
    # -- simulated transport (repro.pregel.net) --------------------------
    #: channel faults inflicted on the wire and absorbed by the reliable
    #: delivery protocol: attempts dropped in flight, duplicate arrivals
    #: the receiver discards, arrivals it parks past a sequence gap (a
    #: reorder), corrupt arrivals caught by the checksum.  None of
    #: these reach results — they cost retransmissions and backoff.
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    messages_corrupted: int = 0
    packets_retransmitted: int = 0
    net_backoff_units: int = 0
    # -- supervision (repro.pregel.supervisor) ---------------------------
    #: heartbeats the failure detector missed before declaring workers
    #: dead, and detector-driven restarts.
    heartbeats_missed: int = 0
    restarts: int = 0
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
    #: phases the vectorizer runs as array code on this run — a bulk
    #: receive handler, a whole-phase kernel, or both ("phase<id>" labels)
    #: — on columnar and in the mp workers, decided by the program alone
    #: (voting, and a memory budget on mp, change nothing; columnar refuses
    #: a limited budget); empty on sim.  Backend provenance like
    #: ``backend`` itself, so excluded from parity_key().
    vectorized_phases: list[str] = field(default_factory=list)

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
        if self.heartbeats_missed or self.restarts:
            text += (
                f" | supervisor: heartbeats_missed={self.heartbeats_missed} "
                f"restarts={self.restarts}"
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


#: Where the registry reads each ledger total, once, when ``run()`` ends:
#: per engine attribute that attaches the subsystem counting it (None: the
#: run itself, whose families are ``det``), ``(family, key, kind, *label
#: keys)`` — ``key`` a ``RunMetrics`` field or a simulated transport's
#: ``stats`` entry.  Nothing else bumps these families.
LEDGER_FAMILIES: dict[str | None, tuple] = {
    None: (
        ("pregel.supersteps", "supersteps", "counter"),
        ("pregel.messages", "messages", "counter"),
        ("pregel.message_bytes", "message_bytes", "counter"),
        ("pregel.net_messages", "net_messages", "counter"),
        ("pregel.net_bytes", "net_bytes", "counter"),
        ("pregel.broadcasts", "broadcast_values", "counter"),
    ),
    "ft": (
        ("ft.checkpoints", "checkpoints_taken", "counter"),
        ("ft.checkpoint_bytes", "checkpoint_bytes", "counter"),
        ("ft.crashes", "faults_injected", "counter"),
        ("ft.lost_supersteps", "lost_supersteps", "counter"),
        ("ft.replay_work", "recovery_replay_work", "counter"),
        # spent from the fault plan's budget, supervised or not
        ("supervisor.restarts", "restarts", "counter", "backend"),
    ),
    "_supervisor": (
        ("supervisor.heartbeats_missed", "heartbeats_missed", "counter"),
    ),
    "mem": (
        ("mem.spilled_bytes", "spilled_bytes", "counter"),
        ("mem.spill_files", "spill_files", "counter"),
        ("mem.outbox_parks", "outbox_parks", "counter"),
        ("mem.superstep_splits", "superstep_splits", "counter"),
        ("mem.peak_bytes", "mem_peak_bytes", "gauge"),
        ("mem.checkpoint_peak_bytes", "checkpoint_peak_bytes", "gauge"),
    ),
    "_transport": (
        ("net.messages_routed", "messages_routed", "counter"),
        ("net.dropped", "messages_dropped", "counter"),
        ("net.duplicated", "messages_duplicated", "counter"),
        ("net.reordered", "messages_reordered", "counter"),
        ("net.corrupted", "messages_corrupted", "counter"),
        ("net.retransmitted", "packets_retransmitted", "counter"),
        ("net.backoff_units", "net_backoff_units", "counter"),
        ("net.reorder_buffer_peak", "reorder_buffer_peak", "gauge"),
    ),
}


def cross_counts(degrees, nbr_owner, owner):
    """Per row of a neighbour CSR (numpy ``degrees``, each entry's owner
    ``nbr_owner``): how many entries another worker owns than the row's
    vertex (``owner``) — what a send along the row meters as net traffic."""
    import numpy as np

    src = np.repeat(np.arange(len(degrees)), degrees)
    return np.bincount(src[nbr_owner != owner[src]], minlength=len(degrees))


def owner_array(worker_of):
    """A placement table (``PregelEngine._worker_of``) as a numpy array: a
    view of its bytes up to 256 workers, else int64."""
    import numpy as np

    if isinstance(worker_of, bytes):
        return np.frombuffer(worker_of, dtype=np.uint8)
    return np.asarray(worker_of, dtype=np.int64)


def default_message_size(msg: tuple) -> int:
    """Fallback sizing: 1 byte tag + 8 bytes per payload field."""
    return 1 + 8 * (len(msg) - 1)


class SuperstepRecord(NamedTuple):
    """What a superstep body hands the driver for the superstep record."""

    #: the body's own phase clocks, name -> seconds, in execution order
    #: (empty when neither a tracer nor a registry reads them).
    phases: dict
    #: the vertex list of a sparse superstep; None = a dense vertex phase.
    frontier: list | None
    #: per worker: vertices computed, compute seconds, staged payload
    #: bytes, and messages staged for its vertices after combiner folds
    #: (read by a recording tracer only).
    worker_computed: list
    worker_seconds: list
    worker_bytes: list
    worker_received: list
    #: further info-only fields of the trace record.
    info: dict


#: the boundary interface: a subscriber defines any of these, argument-free.
_BOUNDARIES = ("on_superstep_start", "on_master_done", "on_superstep_end")


class PregelEngine:
    """One Pregel job: a graph, a vertex program, and an optional master.

    The engine object itself is the context handed to both compute functions.

    It is also the one superstep driver every backend runs: ``run()`` and
    ``_superstep_loop`` own the superstep order, the ledger and the
    trace/registry records, ``checkpoint_state``/``restore_state`` own the
    checkpoint payload, and ft / supervisor / mem hear the superstep
    boundaries as subscribers.  What a backend supplies is the superstep
    *body* (``_superstep_body``) and the resources a run holds open around
    the loop (``_session``); the in-process body here — deliver, vertex
    phase, combiner flush — serves ``sim`` and ``columnar``.

    This class is the ``sim`` backend, and each backend is its engine class
    (:func:`~repro.pregel.backend.get_backend`): ``build_columns`` /
    ``column_values`` convert a compiled program's property columns to and
    from the class's storage, ``bind_program`` hands the engine those
    columns and the program's array code, and ``refusal`` names a
    composition the class refuses — raised here as
    :class:`~repro.pregel.backend.BackendUnsupported`, printed by the CLI
    before the graph loads.

    ``scheduling`` decides whether the vertex loop may go sparse:
    ``"frontier"`` (default) tracks the active set of a voting program and
    iterates only it while it is smaller than ``frontier_threshold`` of the
    vertices; ``"dense"`` is that switch off.  Message staging and delivery
    are the same either way, on every backend, and both are bit-identical
    on outputs and on every metered quantity (``RunMetrics.parity_key()``);
    generated programs never call ``vote_to_halt`` (§5.2), so for them the
    two coincide.
    """

    def __init__(
        self,
        graph: Graph,
        vertex_compute: VertexCompute | PhaseLoops | None,
        master_compute: MasterCompute | None = None,
        *,
        num_workers: int = 4,
        seed: int = 17,
        message_size: Callable[[tuple], int] = default_message_size,
        max_supersteps: int = 1_000_000,
        use_voting: bool = False,
        combiners: dict[int, GlobalOp] | None = None,
        partitioning: str = "hash",
        ft: "FaultTolerance | None" = None,
        scheduling: str = "frontier",
        frontier_threshold: float = 0.25,
        tracer: "Tracer | None" = None,
        transport: "SimulatedTransport | None" = None,
        supervisor: "Supervisor | None" = None,
        mem: "MemoryManager | None" = None,
        metrics_registry: "MetricsRegistry | None" = None,
        schema=None,
    ):
        refusal = self.refusal(compiled=schema is not None, mem=mem, transport=transport)
        if refusal is not None:
            raise BackendUnsupported(refusal)
        self.graph = graph
        #: the compiled program's typed schema (None: a hand-written program)
        self.schema = schema
        #: the vertex program: a per-vertex function, or a generated
        #: program's :data:`PhaseLoops` table (see ``_phase_loop``)
        self._vertex_compute = vertex_compute
        self._adapted: tuple | None = None
        self._master_compute = master_compute
        self.num_workers = max(1, num_workers)
        self.rng = random.Random(seed)
        self._message_size = message_size
        self._max_supersteps = max_supersteps
        self._use_voting = use_voting

        self.globals = GlobalObjectMap()
        self.superstep = 0
        self.result: Any = None
        self.metrics = RunMetrics()
        # Observability (repro.obs): a disabled tracer or registry is None
        # here, the one check anything makes.  The registry reads the
        # ledger's totals once, when run() ends (_export_ledger), and takes
        # per superstep only the distributions of its phase clocks; the
        # tracer's per-worker counters are allocated by run() (_trace_compute).
        self._mreg = (
            metrics_registry
            if metrics_registry is not None and metrics_registry.enabled
            else None
        )
        self.tracer = tracer if tracer is not None and tracer.enabled else None

        self._halt = False
        self._current_vertex = -1
        self._voted = bytearray(graph.num_nodes) if use_voting else None
        # Superstep scheduling (see module docstring).  Sends are staged in
        # one outbox and installed once at the barrier; the
        # frontier is maintained incrementally (the survivors of the last
        # frontier that did not vote, plus the new inbox keys) with a dirty
        # flag forcing a full voted-bitmap scan after anything that
        # invalidates it (start of run, dense fallback, checkpoint restore).
        if scheduling not in ("frontier", "dense"):
            raise ValueError(
                f"unknown scheduling '{scheduling}' (expected 'frontier' or 'dense')"
            )
        if not 0.0 < frontier_threshold <= 1.0:
            raise ValueError("frontier_threshold must be in (0, 1]")
        self.scheduling = scheduling
        self._frontier_threshold = frontier_threshold
        #: the sparse switch: a voting superstep whose active set is smaller
        #: than this iterates only that set.  0 = switch off, which is all
        #: ``scheduling="dense"`` means — the active set is never built.
        self._sparse_below = (
            max(1, int(frontier_threshold * graph.num_nodes))
            if scheduling == "frontier"
            else 0
        )
        self._frontier: list[int] = []
        self._frontier_dirty = True
        # The one outbox: {dst: msgs} in global send order.
        self._outbox: defaultdict[int, list] = defaultdict(list)
        self._inbox_slots: list = [_NO_MESSAGES] * graph.num_nodes
        self._touched: list[int] = []
        # Sender-side message combining (the Pregel paper's combiners): one
        # slot per (sender worker, destination, tag), folded by the tag's op.
        self._combiners = combiners or {}
        self._combined: dict[tuple[int, int, int], tuple] = {}
        self.metrics.worker_sent = [0] * self.num_workers
        # Vertex -> worker placement.  'hash' is GPS's default (round-robin
        # by id); 'range' assigns contiguous id blocks, which keeps the
        # id-local edges of web crawls within one worker.
        self.partitioning = partitioning
        n, w = graph.num_nodes, self.num_workers
        if partitioning == "hash":
            placed = [v % w for v in range(n)]
        elif partitioning == "range":
            placed = [min(v * w // max(1, n), w - 1) for v in range(n)]
        else:
            raise ValueError(f"unknown partitioning '{partitioning}'")
        self._worker_of = bytes(placed) if w <= 256 else placed
        # Fault tolerance (repro.pregel.ft): the manager checkpoints at
        # superstep boundaries, injects scheduled worker crashes, and drives
        # recovery.  ``_ft_replaying`` marks confined-recovery replay, during
        # which sends and global puts are suppressed (their effects already
        # reached the healthy workers in the original execution).
        self.ft = ft
        self._ft_replaying = False
        self._supervisor = supervisor
        if ft is not None:
            ft.attach(self)
        # Simulated transport (repro.pregel.net): when present, every
        # barrier's per-destination-worker message totals are routed
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
        self._trace_worker_computed: list[int] = []
        self._trace_worker_seconds: list[float] = []
        self._trace_worker_bytes: list[int] = []
        #: a partition range a phase computes -> its vertex ids as int64
        self._partition_ids: dict = {}
        # Who hears the superstep boundaries: per boundary, the subscribed
        # methods in call order.  Nothing attached = three empty tuples, so
        # the bare loop is the fast path by construction.
        self._hooks: dict[str, tuple] = {name: () for name in _BOUNDARIES}
        self._wire_boundaries()

    @classmethod
    def refusal(cls, *, compiled: bool, mem=None, transport=None) -> str | None:
        """Why this engine class refuses to run a program (``compiled``:
        it has a schema) under a memory manager and a simulated transport,
        or None: it runs them.  ``sim`` refuses nothing."""
        return None

    @staticmethod
    def build_columns(schema, fields: dict[str, list]) -> dict:
        """A compiled program's list property columns, in this engine's
        storage: ``sim`` keeps the lists."""
        return fields

    @staticmethod
    def column_values(column) -> list:
        """A plain list view of one property column (for outputs)."""
        return column

    def bind_program(self, columns: dict, array_code: Callable) -> None:
        """Take a compiled program's property columns and its vectorizer,
        ``array_code(columns, engine, decisions) -> (receivers, kernels)``:
        a no-op on ``sim``, which runs the generated scalar loops only."""

    @property
    def REAL_FAULT_KINDS(self) -> tuple[str, ...]:
        """The real fault kinds this engine can fire (``repro.pregel.ft``):
        in process, only ``kill``, and only under a supervisor, which fires
        it silently and detects it by heartbeat.  Any other scheduled real
        fault is refused at construction (``ft.attach``), not ignored."""
        return ("kill",) if self._supervisor is not None else ()

    def _subscribe(self, subscriber) -> None:
        """Call ``subscriber``'s boundary methods (whichever of
        ``on_superstep_start`` / ``on_master_done`` / ``on_superstep_end``
        it defines) at every superstep, after those already subscribed."""
        for name in _BOUNDARIES:
            hook = getattr(subscriber, name, None)
            if hook is not None:
                self._hooks[name] += (hook,)

    def _wire_boundaries(self) -> None:
        """Subscribe the attached subsystems, in call order.  Supervision
        goes before the FT hook: detection must see the barrier the workers
        just crossed, and recovery needs the checkpoint the FT hook's
        *previous* visits produced.  A limited memory plan goes last: at
        the end of a superstep it releases the consumed inbox's charges and
        drops its spill runs."""
        limited_mem = self.mem if self._mem_limited else None
        for subsystem in (self._supervisor, self.ft, limited_mem):
            if subsystem is not None:
                self._subscribe(subsystem)

    # ------------------------------------------------------------------
    # Vertex-side API
    # ------------------------------------------------------------------

    def send(self, dst: int, msg: tuple) -> None:
        """Send ``msg`` to vertex ``dst``, delivered next superstep."""
        sender = self._current_vertex
        if sender < 0:
            raise RuntimeError(OUTSIDE_PHASE_ERROR)
        if self._ft_replaying:
            # Confined-recovery replay: this message was already delivered
            # during the original execution of this superstep.
            return
        worker_of = self._worker_of
        sender_worker = worker_of[sender]
        m = self.metrics
        staged_bytes = self._trace_worker_bytes
        if staged_bytes:  # a recording tracer: the staged payload, pre-fold
            staged_bytes[sender_worker] += self._message_size(msg)
        op = self._combiners.get(msg[0]) if self._combiners else None
        if op is not None:
            # Delivered traffic (messages / bytes / net) is metered at flush
            # time, on the *folded* payload — folds may change the payload,
            # so metering the first message here would drift from what is
            # actually delivered at the barrier.  The sender's combine work
            # is counted per send: every fold costs the sending worker.
            m.worker_sent[sender_worker] += 1
            key = (sender_worker, dst, msg[0])
            slot = self._combined.get(key)
            held = OPEN if slot is None else slot[1]
            self._combined[key] = (msg[0], fold(op, held, [msg[1]]))
            return
        self._enqueue(dst, msg)
        size = self._message_size(msg)
        m.messages += 1
        m.message_bytes += size
        m.worker_sent[sender_worker] += 1
        if sender_worker != worker_of[dst]:
            m.net_messages += 1
            m.net_bytes += size

    def _enqueue(self, dst: int, msg: tuple) -> None:
        """Stage ``msg`` in the one outbox: each receiver's list in send order."""
        self._outbox[dst].append(msg)

    def _batches(self, outbox: dict[int, list]) -> list[dict[int, list]]:
        """``outbox`` cut into per-destination-worker batches, each in the
        outbox's order: what a memory budget and a checkpoint see of it."""
        batches: list[dict[int, list]] = [{} for _ in range(self.num_workers)]
        worker_of = self._worker_of
        for dst, msgs in outbox.items():
            batches[worker_of[dst]][dst] = msgs
        return batches

    def outbox_view(self) -> dict[int, list]:
        """The in-flight messages as one ``{dst: msgs}`` map, the outbox's
        per-worker batches merged in worker order.  The fault-tolerance
        manager checkpoints and logs through this view, so every backend
        shares one checkpoint/log format.  Under a memory budget the view
        also re-merges any superstep-split spill runs, so checkpoints and
        confined-recovery logs see exactly the traffic a budget-free run
        would have staged in memory."""
        if self._mem_limited:
            return self.mem.outbox_snapshot()
        merged: dict[int, list] = {}
        for batch in self._batches(self._outbox):
            merged.update(batch)
        return merged

    def _flush_combined(self) -> None:
        """Deliver the combiner slots at the barrier, metering the folded
        payloads — the messages that actually travel."""
        worker_of = self._worker_of
        m = self.metrics
        enqueue = self._enqueue
        size_of = self._message_size
        for (sender_worker, dst, _tag), msg in self._combined.items():
            enqueue(dst, msg)
            size = size_of(msg)
            m.messages += 1
            m.message_bytes += size
            if sender_worker != worker_of[dst]:
                m.net_messages += 1
                m.net_bytes += size
        self._combined.clear()

    def send_nbrs(self, vid: int, msg: tuple) -> None:
        """Bulk send: ``msg`` to every out-neighbor of ``vid`` — the one-row
        ``send_nbrs_rows``, a no-op on a sink.  Hand-written programs call
        it for a neighbor broadcast."""
        offsets = self.graph.out_offsets
        if offsets[vid] != offsets[vid + 1]:
            self.send_nbrs_rows((vid,), (msg,))

    def send_nbrs_rows(self, vids, msgs, rows=None) -> None:
        """Bulk send: ``msgs[k]`` to every neighbour of ``vids[k]`` — its
        out-CSR row, or ``rows[vids[k]]`` (the ``_in_nbrs`` column) — one
        tag, each vertex its row's sender.  A generated phase whose one
        send is a neighbour send makes one after its loop, over the rows in
        the loop's order, and a per-vertex one ``((vid,), (msg,), rows)``:
        staged as one ``send`` per destination would be.  An empty row is a
        no-op.

        With no limited memory plan and no combiner on the tag, the rows
        stage in one pass and meter once, an out-CSR row's net traffic read
        from ``_cross_nbrs``.  Otherwise each row is the ``_send_block`` a
        per-vertex call makes, from its vertex."""
        if self._current_vertex < 0:
            raise RuntimeError(OUTSIDE_PHASE_ERROR)
        if self._ft_replaying:
            return  # already delivered by the original execution (see send)
        blocks = map((self.graph.out_rows if rows is None else rows).__getitem__, vids)
        if self._mem_limited or (self._combiners and msgs[0][0] in self._combiners):
            for vid, msg, dsts in zip(vids, msgs, blocks):
                if dsts:
                    self._current_vertex = vid
                    self._send_block(dsts, None, msg)
            return
        outbox = self._outbox
        worker_of = self._worker_of
        sent = self.metrics.worker_sent
        staged_bytes = self._trace_worker_bytes
        # a recording tracer's staged bytes are per worker: count this
        # call's sends apart, and meter both once
        counts = [0] * self.num_workers if staged_bytes else sent
        staged = remote = 0
        for vid, msg, dsts in zip(vids, msgs, blocks):
            for dst in dsts:
                outbox[dst].append(msg)
            n = len(dsts)
            owner = worker_of[vid]
            counts[owner] += n
            staged += n
            if rows is not None and n:
                remote += n - list(map(worker_of.__getitem__, dsts)).count(owner)
        if rows is None:
            remote = sum(map(self._cross_nbrs.__getitem__, vids))
        if not staged:
            return
        size = self._message_size(msgs[0])
        m = self.metrics
        m.messages += staged
        m.message_bytes += staged * size
        if remote:
            m.net_messages += remote
            m.net_bytes += remote * size
        if staged_bytes:
            for w, count in enumerate(counts):
                sent[w] += count
                staged_bytes[w] += count * size

    def send_each(self, dsts, msgs: list) -> None:
        """Bulk send: ``msgs[k]`` to vertex ``dsts[k]``, payloads of one tag
        (generated code's per-edge payloads along an out-CSR slice).

        The block is staged in one pass, in ``dsts`` order — the buckets
        and their order one ``send`` per destination would leave — and
        metered once: the tag, so the size, and the sender's worker are
        the block's, only the destinations' owners vary.  A tag a combiner
        folds and a limited memory plan act per message, so under either
        the block is that ``send`` loop.  An empty block is a no-op."""
        if dsts:
            self._send_block(dsts, msgs, msgs[0])

    def _send_block(self, dsts, msgs: list | None, msg: tuple) -> None:
        """``send_each`` of a non-empty block: ``msgs`` lines up with
        ``dsts`` (None: ``msg`` to each), ``msg`` is one of them (the
        block's tag and size)."""
        sender = self._current_vertex
        if sender < 0:
            raise RuntimeError(OUTSIDE_PHASE_ERROR)
        if self._ft_replaying:
            return  # already delivered by the original execution (see send)
        if self._mem_limited or (self._combiners and msg[0] in self._combiners):
            send = self.send
            for dst, one in zip(dsts, repeat(msg) if msgs is None else msgs):
                send(dst, one)
            return
        outbox = self._outbox
        if msgs is None:
            for dst in dsts:
                outbox[dst].append(msg)
        else:
            for dst, one in zip(dsts, msgs):
                outbox[dst].append(one)
        n = len(dsts)
        worker_of = self._worker_of
        sender_worker = worker_of[sender]
        remote = n - list(map(worker_of.__getitem__, dsts)).count(sender_worker)
        size = self._message_size(msg)
        m = self.metrics
        m.messages += n
        m.message_bytes += n * size
        m.worker_sent[sender_worker] += n
        if remote:
            m.net_messages += remote
            m.net_bytes += remote * size
        staged_bytes = self._trace_worker_bytes
        if staged_bytes:
            staged_bytes[sender_worker] += n * size

    @cached_property
    def _owner(self):
        """Per vertex, the worker that owns it (``owner_array``); built at
        first use."""
        return owner_array(self._worker_of)

    @cached_property
    def _worker_vertices(self) -> list[int]:
        """How many vertices each worker owns."""
        import numpy as np

        return np.bincount(self._owner, minlength=self.num_workers).tolist()

    @cached_property
    def _cross_nbrs(self) -> list[int]:
        """Per vertex: how many of its out-neighbours another worker owns;
        built at first use."""
        import numpy as np

        graph = self.graph
        owner = self._owner
        nbr_owner = owner[np.asarray(graph.out_targets)]
        return cross_counts(np.diff(graph.out_offsets), nbr_owner, owner).tolist()

    def get_global(self, name: str) -> Any:
        return self.globals.broadcast[name]

    def put_global(self, name: str, op: GlobalOp, value: Any) -> None:
        if self._ft_replaying:
            # Confined-recovery replay: this put was already aggregated
            # during the original execution of this superstep.
            return
        self.globals.put_reduce(name, op, value)

    def put_global_bulk(self, name: str, op: GlobalOp, vids, values) -> None:
        """A loop's puts to one global, one per entry of ``vids`` (the
        putting vertices, ascending; unused here), as one ``put_fold``:
        what the per-vertex ``put_global`` chain leaves, floats included.
        A generated loop makes one per global it puts to, after the loop;
        array code one per put statement."""
        if self._ft_replaying:
            return  # already aggregated by the original execution (see put_global)
        self.globals.put_fold(name, op, values)

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
            # Scheduler state: the vertices computed in the last sparse
            # superstep, from which the next frontier's un-voted half
            # derives.  None when unknown (the sparse switch is off, or
            # before the first sparse superstep) — a restore then
            # recomputes it from the voted bitmap, which is exact.
            "frontier": None if self._frontier_dirty else list(self._frontier),
            "voted": bytes(self._voted) if self._voted is not None else None,
            "rng": self.rng.getstate(),
            "result": self.result,
            "halt": self._halt,
            "broadcast": dict(self.globals.broadcast),
            "aggregated": dict(self.globals.aggregated),
            "metrics": {name: getattr(metrics, name) for name in self._CHECKPOINTED_METRICS},
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
        self._install_inflight(state)
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
        metrics.worker_sent[:] = state["worker_sent"]
        # Rollback recovery is about to replay the dropped supersteps: the
        # tracer must drop their records too, so a recovered run's stream
        # stays identical to a failure-free one.
        if self.tracer is not None:
            self.tracer.on_rollback(self.superstep)

    def _install_inflight(self, state: dict) -> None:
        """Full rollback, the part the engine's staging owns: make the
        checkpoint's in-flight messages (and scheduler state) the next
        delivery."""
        self._stage_inflight(state["outbox"])
        saved_frontier = state.get("frontier")
        if self._sparse_below and saved_frontier is not None:
            self._frontier = list(saved_frontier)
            self._frontier_dirty = False
        else:
            self._frontier_dirty = True
        # Under a budget the live spill runs are stale now — the restored
        # in-flight outbox was just installed in memory; the manager drops
        # the run files and recharges the ledger from the installed outbox.
        if self._mem_limited:
            self.mem.on_rollback()

    def _stage_inflight(self, outbox: dict) -> None:
        """Stage a checkpoint's ``{dst: msgs}`` as the next delivery."""
        # The buckets are not copied: a restored payload is freshly unpickled
        # (FT), and staged buckets are never mutated after staging.
        self._outbox = defaultdict(list, outbox)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _trace_compute(self) -> None:
        """Allocate the tracer's per-worker counters: vertices computed and
        compute seconds (filled by the vertex phase) and staged payload
        bytes (by the sends, or the seal).  Non-empty counters are what says
        a recording tracer is attached; the sends and loops a traced run
        executes are an untraced run's.  What each worker receives is read
        at the end of the body (``_in_flight_totals``).  Confined-recovery
        replay (``_ft_replaying``) runs no vertex phase and its sends meter
        nothing: the original execution counted its work."""
        workers = self.num_workers
        self._trace_worker_computed = [0] * workers
        self._trace_worker_seconds = [0.0] * workers
        self._trace_worker_bytes = [0] * workers

    @contextmanager
    def _session(self, tracer):
        """What a run holds open around its superstep loop.  In-process
        that is only the tracer's counters and a limited memory plan's
        hooks; a backend with real resources (worker processes, segments,
        sockets) acquires them here and releases them on every exit path."""
        if tracer is not None:
            self._trace_compute()
        if self._mem_limited:
            self.mem.install()
        yield

    def run(self) -> RunMetrics:
        if self._vertex_compute is None:
            raise RuntimeError("no vertex program attached")
        tracer = self.tracer
        if tracer is not None:
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
        mem = self.mem
        halt_reason = "max_supersteps"
        oom: MemoryExhausted | None = None
        # The run path allocates no reference cycles (tests/test_gc.py), so
        # the cyclic collector would scan the run's objects to free none:
        # it is paused for the run (and the mp workers forked inside it).
        collecting = gc.isenabled()
        gc.disable()
        try:
            with self._session(tracer):
                try:
                    halt_reason = self._superstep_loop(tracer)
                except MemoryExhausted as exc:
                    # Graceful degradation: an unsatisfiable budget ends the
                    # run with a structured report, never an exception.  The
                    # supervisor (when present) records the exhaustion like
                    # a detected death.
                    oom = exc
                    halt_reason = "out_of_memory"
                    self._current_vertex = -1
        finally:
            if collecting:
                gc.enable()
            if mem is not None:
                if oom is not None:
                    mem.record_oom(oom)
                mem.close()
        if oom is not None and self._supervisor is not None:
            self._supervisor.on_oom(oom)
        m = self.metrics
        m.supersteps = self.superstep
        m.wall_seconds = time.perf_counter() - start
        m.result = self.result
        m.halt_reason = halt_reason
        if self._mreg is not None:
            self._export_ledger(self._mreg)
        if tracer is not None:
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
        return m

    def _export_ledger(self, mreg: "MetricsRegistry") -> None:
        """Hand the finished run's ledger to the registry: every family of
        :data:`LEDGER_FAMILIES` whose subsystem is attached, plus the run
        itself.  Counters add the run's totals (one registry may meter
        several runs), gauges keep the peak."""
        m = self.metrics
        ledger = dict(vars(m))
        if self._transport is not None:
            ledger.update(self._transport.stats)
        for gate, families in LEDGER_FAMILIES.items():
            if gate is not None and getattr(self, gate) is None:
                continue
            for family, key, kind, *label_keys in families:
                labels = {name: ledger[name] for name in label_keys}
                if kind == "gauge":
                    mreg.gauge(family, **labels).set_max(ledger[key])
                else:
                    mreg.counter(family, det=gate is None, **labels).inc(ledger[key])
        mreg.counter("pregel.runs", det=True, halt_reason=m.halt_reason).inc()
        mreg.histogram("pregel.run_seconds").observe(m.wall_seconds)
        mreg.gauge("pregel.num_workers").set_max(self.num_workers)

    def _superstep_loop(self, tracer) -> str:
        """The superstep order, written once for every backend: boundary
        subscribers, master phase, the backend's body, the superstep's
        accounting, barrier.  Returns the halt reason."""
        m = self.metrics
        voted = self._voted
        master = self._master_compute
        on_start = self._hooks["on_superstep_start"]
        on_master_done = self._hooks["on_master_done"]
        on_end = self._hooks["on_superstep_end"]
        # Metering (repro.obs.metrics) shares the tracer's phase clocks:
        # ``instr`` gates the perf_counter reads, ``traced``/``metered``
        # gate what they feed — the registry takes their distributions, its
        # totals are the ledger's (_export_ledger).  Histograms are resolved
        # once here (the body's phases at their first superstep).
        traced = tracer is not None
        mreg = self._mreg
        metered = mreg is not None
        instr = traced or metered
        if metered:
            m_step_s = mreg.histogram("pregel.superstep_seconds")
            m_phase_s: dict = {}
            m_frontier = mreg.histogram("pregel.frontier_size")
        while self.superstep < self._max_supersteps:
            # Start-of-superstep boundary: detection and escalation, a due
            # checkpoint, scheduled faults — recovery may rewind
            # ``self.superstep``.  A subscriber that gives up on the run
            # (restart budget exhausted) sets ``_abort_reason``; the run
            # then degrades to a partial result with that halt reason.
            for hook in on_start:
                hook()
                if self._abort_reason is not None:
                    return self._abort_reason
            if instr:
                t_step0 = time.perf_counter()
                if traced:
                    # Snapshot the ledger *after* any recovery so the
                    # superstep record holds exactly this superstep's deltas.
                    step_ts = tracer.now()
                    s_messages = m.messages
                    s_message_bytes = m.message_bytes
                    s_net_messages = m.net_messages
                    s_net_bytes = m.net_bytes
                    s_broadcasts = m.broadcast_values
                    s_worker_sent = list(m.worker_sent)

            # Master phase: sees globals aggregated from the previous superstep.
            if master is not None:
                master(self)
                if self._halt:
                    return "master_halt"
            for hook in on_master_done:
                hook()
            if instr:
                t_body = time.perf_counter()

            record = self._superstep_body(instr, tracer)
            if record is None:
                # A recovery inside the body rewound the superstep: nothing
                # to account, go round again from the restored boundary.
                continue
            if type(record) is str:
                return record  # the body's halt reason
            if instr:
                t_barrier = time.perf_counter()

            # Barrier: close the superstep.
            for hook in on_end:
                hook()
            self.globals.end_superstep()
            self.superstep += 1
            if not instr:
                continue
            # The one place a superstep is reported, to registry and tracer.
            t_now = time.perf_counter()
            frontier = record.frontier
            phases = {
                "master": t_body - t_step0,
                **record.phases,
                "barrier": t_now - t_barrier,
            }
            if metered:
                m_step_s.observe(t_now - t_step0)
                for phase, seconds in phases.items():
                    histogram = m_phase_s.get(phase)
                    if histogram is None:
                        histogram = m_phase_s[phase] = mreg.histogram(
                            "pregel.phase_seconds", phase=phase
                        )
                    histogram.observe(seconds)
                if frontier is not None:
                    m_frontier.observe(len(frontier))
            if traced:
                tracer.event(
                    "superstep",
                    cat="engine",
                    ts=step_ts,
                    det={
                        "step": self.superstep - 1,
                        "active": sum(record.worker_computed),
                        "halted": len(voted) - voted.count(0) if voted is not None else 0,
                        "messages": m.messages - s_messages,
                        "message_bytes": m.message_bytes - s_message_bytes,
                        "net_messages": m.net_messages - s_net_messages,
                        "net_bytes": m.net_bytes - s_net_bytes,
                        "broadcasts": m.broadcast_values - s_broadcasts,
                        "worker_computed": list(record.worker_computed),
                        "worker_sent": [
                            now - then
                            for now, then in zip(m.worker_sent, s_worker_sent)
                        ],
                        "worker_bytes": list(record.worker_bytes),
                        "worker_received": list(record.worker_received),
                    },
                    info={
                        "mode": "sparse" if frontier is not None else "dense",
                        "frontier": len(frontier) if frontier is not None else -1,
                        **{f"{phase}_s": s for phase, s in phases.items()},
                        "worker_seconds": list(record.worker_seconds),
                        **record.info,
                    },
                )
        return "max_supersteps"

    def _superstep_body(self, instr: bool, tracer) -> "SuperstepRecord | str | None":
        """One superstep between the master phase and the barrier — the
        only part of the superstep order a backend writes.  In-process:
        deliver last superstep's messages, run the vertex phase over the
        active set, flush the combiner slots.

        Returns the superstep's :class:`SuperstepRecord`; a halt reason
        (``str``) when the body ends the run; or ``None`` when a recovery
        inside it rewound the superstep and the driver must go round again.
        ``instr`` says whether anything reads the phase clocks, ``tracer``
        is the recording tracer or None."""
        traced = tracer is not None
        transport = self._transport
        phases: dict = {}
        if instr:
            t_phase = time.perf_counter()
            if traced:
                tw_computed = self._trace_worker_computed
                tw_seconds = self._trace_worker_seconds
                tw_bytes = self._trace_worker_bytes
                for w in range(self.num_workers):
                    tw_computed[w] = 0
                    tw_seconds[w] = 0.0
                    tw_bytes[w] = 0
                if transport is not None:
                    _m = self.metrics
                    s_dropped = _m.messages_dropped
                    s_duplicated = _m.messages_duplicated
                    s_reordered = _m.messages_reordered
                    s_corrupted = _m.messages_corrupted
                    s_retransmitted = _m.packets_retransmitted

        # Deliver messages sent last superstep: the one outbox is installed
        # once, here at the barrier, into the dense inbox index (one slot
        # per vertex).
        self._deliver()
        touched = self._touched

        # Scheduling: wake the receivers, then either build this
        # superstep's frontier (the sparse switch) or just run the voting
        # halt check.  ``frontier is None`` means a dense vertex phase.
        frontier = None
        voted = self._voted
        if voted is not None:
            for dst in touched:
                voted[dst] = 0
            if self._sparse_below:
                if self._frontier_dirty:
                    unvoted = [v for v in range(len(voted)) if not voted[v]]
                else:
                    unvoted = [v for v in self._frontier if not voted[v]]
                if touched:
                    active = set(unvoted)
                    active.update(touched)
                else:
                    active = unvoted  # already deduped and ascending
                if self.superstep > 0 and not active:
                    return "all_halted"
                if len(active) < self._sparse_below:
                    # Sparse superstep: every member is un-voted (message
                    # receivers were just woken), so the vertex loop needs
                    # no voted check.  Ascending order matches the dense
                    # scan, keeping message order — and thus results —
                    # bit-identical.
                    frontier = sorted(active) if isinstance(active, set) else active
                    self._frontier = frontier
                    self._frontier_dirty = False
                else:
                    self._frontier_dirty = True
            elif self.superstep > 0 and not touched and all(voted):
                # Switch off: nothing delivered and everyone voted.
                return "all_halted"

        if instr:
            t_now = time.perf_counter()
            phases["route"], t_phase = t_now - t_phase, t_now
            if traced and transport is not None:
                # Info-only (like ft.*): faulted traces must project to
                # the same deterministic stream as failure-free ones.
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
                        "route_s": phases["route"],
                    },
                )

        self._vertex_phase(frontier)
        self._current_vertex = -1  # leaving the vertex phase
        if instr:
            t_now = time.perf_counter()
            phases["vertex"], t_phase = t_now - t_phase, t_now

        # Flush combiner slots (metering the folded payloads).
        if self._combined:
            if self._mem_limited:
                # The combiner table lived on the senders all superstep
                # and cannot spill; charge it before the flush (which
                # stages — and budget-charges — the folded payloads).
                self.mem.check_combiner(self._combined)
            self._flush_combined()
        if instr:
            phases["combine"] = time.perf_counter() - t_phase
        return SuperstepRecord(
            phases,
            frontier,
            self._trace_worker_computed,
            self._trace_worker_seconds,
            self._trace_worker_bytes,
            self._in_flight_totals() if traced else [],
            {},
        )

    def _in_flight_totals(self, outbox: dict | None = None) -> list[int]:
        """Per destination worker, how many messages ``outbox`` holds —
        by default the staged one, a limited memory plan's split runs
        included (counted as they were split): what each worker receives
        at the next delivery."""
        totals = [0] * self.num_workers
        if outbox is None:
            outbox = self._outbox
            if self._mem_limited:
                totals = list(self.mem.out_run_messages)
        worker_of = self._worker_of
        for dst, msgs in outbox.items():
            totals[worker_of[dst]] += len(msgs)
        return totals

    def _route(self, in_flight) -> None:
        """Hand the simulated channel each destination worker's total of
        ``in_flight`` (``_in_flight_totals``), ascending, an empty one
        skipped.  The reliable protocol reconstructs the exact sent stream
        (faults cost retransmissions, not data), so only the totals travel."""
        route_count = self._transport.route_count
        for wid, total in enumerate(self._in_flight_totals(in_flight)):
            if total:
                route_count(wid, total)

    def _deliver(self) -> None:
        """Install the one outbox into the dense inbox index at the barrier
        and start the next.  The simulated channel reads its per-worker
        totals (``_route``); per-worker batches are cut from it only for a
        limited memory plan (routed under credit control).  Execution backends
        override this hook to swap the staging representation (e.g. typed
        message slabs) while keeping the run loop — and the barrier it
        synchronizes at — unchanged."""
        outbox = self._outbox
        self._outbox = defaultdict(list)
        touched = self._touched
        touched.clear()
        if self._mem_limited:
            # Credit-controlled routing: same worker order, same
            # per-receiver message order, bounded by the budget
            # (split runs re-merge ahead of the residual batch).
            self.mem.deliver(self._batches(outbox), touched.append)
            return
        if self._transport is not None:
            self._route(outbox)
        slots = self._inbox_slots
        for dst, msgs in outbox.items():
            slots[dst] = msgs
        touched.extend(outbox)

    def _vertex_phase(self, frontier) -> int:
        """Run this superstep's vertex loop over its active set:
        ``frontier`` — the sparse vertex list, or a range to scan (an mp
        worker's partition) — else every vertex; a scan, under voting, skips
        every vertex that has voted by the time it reaches it.  Returns how
        many computed.  Reads the dense inbox index filled at delivery and
        resets it.  Execution backends override this hook to run a phase as
        array code."""
        active = range(self.graph.num_nodes) if frontier is None else frontier
        voted = self._voted
        if voted is not None and type(active) is range:
            # Lazily filtered: a vote cast during the phase still skips a
            # vertex the scan has not reached yet.
            active = filterfalse(voted.__getitem__, active)
        loop = self._phase_loop()
        slots = self._inbox_slots
        if self._trace_worker_computed:
            # a lazily filtered scan's vertices are known only as the loop
            # draws them: tee keeps the drawn ids, with no frame per vertex
            active, drawn = tee(active) if type(active) is filterfalse else (active, None)
            t0 = time.perf_counter()
            computed = loop(self, active, slots)
            seconds = time.perf_counter() - t0
            sel = self._selection(frontier) if drawn is None else list(drawn)
            self._trace_phase(sel, computed, seconds)
        else:
            computed = loop(self, active, slots)
        for dst in self._touched:
            slots[dst] = _NO_MESSAGES
        if self._mreg is not None:
            generated = type(self._vertex_compute) is dict
            self._mreg.counter(
                "pregel.loop_vertices", loop="generated" if generated else "adapted"
            ).inc(computed)
        return computed

    def _phase_loop(self) -> PhaseLoop:
        """This superstep's vertex loop, resolved once: a generated program
        runs the loop of the state the master broadcast (a state with no
        phase only counts its vertices); a per-vertex function runs through
        its adapter, built once per function."""
        program = self._vertex_compute
        if type(program) is dict:
            return program.get(self.globals.broadcast.get("_state", -1), _count_only)
        adapted = self._adapted
        if adapted is None or adapted[0] is not program:
            adapted = self._adapted = (program, per_vertex_loop(program))
        return adapted[1]

    def _selection(self, frontier):
        """The vertices a kernel computes this superstep, as int64 ids, or
        None for every vertex: ``frontier`` — the sparse switch's list, or an
        mp worker's partition range — else all of them, and under
        vote-to-halt only those un-voted when the phase starts."""
        import numpy as np

        sel = frontier
        if type(frontier) is range:
            sel = self._partition_ids.get(frontier)
            if sel is None:
                sel = self._partition_ids[frontier] = np.arange(
                    frontier.start, frontier.stop, frontier.step, dtype=np.int64
                )
        if self._voted is not None:
            if type(frontier) is not list:
                awake = np.frombuffer(self._voted, dtype=np.uint8) == 0
                sel = np.flatnonzero(awake) if sel is None else sel[awake[sel]]
            sel = np.asarray(sel, dtype=np.int64)
        return sel

    def _trace_phase(self, sel, computed: int, seconds: float) -> None:
        """The tracer's per-worker counts of a vertex phase that computed
        the ids ``sel``: for None, every vertex, the placement's counts,
        else one ``bincount`` of their owners; the seconds (info-only) are
        the phase's wall split by those counts."""
        import numpy as np

        if sel is None:
            owned = self._worker_vertices
        else:
            owned = np.bincount(self._owner[sel], minlength=self.num_workers).tolist()
        each = seconds / max(1, computed)
        self._trace_worker_computed[:] = owned
        self._trace_worker_seconds[:] = [each * count for count in owned]
