"""Multiprocessing backend: real worker processes + shared-memory slabs.

The simulator *models* ``num_workers`` machines inside one process; this
backend makes them real: one forked OS process per worker, each computing
its partition of the vertices every superstep, exchanging the
columnar backend's typed message slabs through ``multiprocessing.shared_memory``
segments, and synchronizing at the same batched-routing barrier — here an
actual parent-coordinated barrier rather than a simulated one.

A worker is the partition's view of the columnar data plane: it compiles
the program's array code (``repro.codegen.vectorize``) against itself
after the fork and runs it exactly where :class:`ColumnarEngine` would —
a phase kernel over its own vertices instead of the per-vertex loop, a
bulk receive handler over a tag's incoming records instead of the dict
inbox — selected per phase from the IR.  Sender combiners and
vote-to-halt observe individual sends and keep the generated scalar
program, as does the one step that consumes a recovery-seeded inbox; a
tracer, fault tolerance, a memory budget and the tcp transport read
per-worker totals and whole slabs, and cost the kernels nothing.

Determinism (the whole point of the parity contract) is preserved by
order-reconstructing merges at the parent barrier:

* every slab record carries its **sender id**; a receiving worker keeps
  the incoming per-source slabs raw and delivers them at its next step,
  when the broadcast state says which receive code they are for.  A
  stable sort on sender merges them into the simulator's per-receiver
  message order exactly (global send order = ascending sender id, since
  workers scan their partitions in ascending order and partitions
  interleave) — at array level ahead of a bulk receive handler, and only
  if the vectorizer found an order-sensitive reduce in it (a float
  ``SUM``/``PRODUCT``); record by record into the dict inbox otherwise;
* vertex **global-object puts** ship to the parent — one ``(vid, value)``
  per scalar put, one ``(vids, values)`` array pair per kernel put — and
  are re-folded in ascending-vid order with the kernels' own ordered fold
  (``globalmap.fold_ordered``), so even non-associative float reductions
  (a PageRank error sum) come out bit-identical to the single-process
  fold;
* **combiners** fold per-process at the sender (each worker keeps one slot
  per ``(dst, tag)``, stamped with the vid of the slot's *first* send);
  the parent merges all workers' slots with a stable sort on that birth
  vid, which reconstructs the simulator's combiner-table insertion order
  (one vid belongs to one worker, so ties stay in per-worker — i.e.
  program — order), then meters and routes the folded payloads exactly
  like the simulator's barrier flush;
* **fault tolerance** checkpoints from the parent: ``checkpoint_state()``
  first pulls every worker's live partition columns back into the parent's
  columns (so the registered ``ColumnState`` sees fresh data), and the
  in-flight message set is the parent's own decode of the last exchange's
  slabs.  Recovery restores parent-side state — confined replay runs *in
  the parent* over the restored columns with sends/puts suppressed — and
  then **re-forks** the affected worker processes from the parent, which
  inherit the recovered columns copy-on-write and are re-seeded with their
  partition's in-flight inbox;
* **tracing** buffers per-process counters (computed, seconds, staged
  bytes) in each worker's barrier reply; the parent merges them by
  worker id into the same deterministic superstep records the simulator
  emits, so ``deterministic_jsonl`` projects identically across backends;
* **vote-to-halt** keeps one authoritative vote bitset in the parent:
  each forked worker inherits it copy-on-write, skips its voted vertices,
  clears votes for every vertex it delivers to, and ships its partition's
  slice back in the exchange reply; the parent folds the slices and
  applies the simulator's dense halt rule (no deliveries + all voted) at
  the master boundary;
* **supervision and memory budgets** run against *real* processes: every
  barrier reply is a liveness ping feeding the phi-accrual
  :class:`~repro.pregel.supervisor.Supervisor` on wall time, and each
  reply reports the worker's byte accounting, charged parent-side against
  the :class:`~repro.pregel.mem.MemPlan` (over-budget degrades to
  ``halt_reason="out_of_memory"`` with the structured report, exactly the
  simulator's contract).

Failure handling is real, not simulated: the parent's barrier is a
**deadline-based exchange** — every reply is awaited with
``conn.poll`` ticks against a monotonic deadline while watching the
process sentinel, so a SIGKILL'd worker is detected in milliseconds (EOF
/ dead sentinel) and a hung worker within ``exchange_deadline`` seconds,
never a deadlock.  Detections escalate through
:meth:`~repro.pregel.ft.FaultTolerance.recover_worker` — checkpoint
restore, confined replay in the parent, re-fork of the dead process —
with capped restarts degrading to ``halt_reason="unrecoverable"``.
``--inject-fault kill:W@S`` (real SIGKILL) and ``hang:W@S`` (sleep past
the deadline) exercise the path; shared-memory segments and bound
sockets are tracked module-wide and released on every exit path
(``finally`` + ``atexit``).

**Transports.** ``transport_mode="shm"`` (the default) carries every
slab through the shared-memory segments.  ``"tcp"`` adds a real network
data plane (:mod:`repro.pregel.backend.tcp`): each worker owns a
loopback listening socket bound in the parent before the fork, and the
*cross-worker* slabs travel as length-prefixed CRC-framed messages with
per-destination sequence numbers, acks, bounded retransmit with
exponential backoff, and dedup — the :mod:`repro.pregel.net` delivery
discipline against real kernel buffers.  Slabs are still written to the
segments in tcp mode (the parent's checkpoint decode, makespan
accounting, and delivery counts read them there), so shm and tcp runs
are bit-identical on ``parity_key()`` and outputs by construction; the
receivers' *inboxes*, however, are built from the socket frames, so a
peer that cannot be reached (connection refused / reset / silent past
the per-peer deadline) is a classified real failure: the worker abandons
the exchange, reports ``{peer: cause}`` in its barrier reply, and the
parent folds the reports into a culprit, escalates through
``ft.recover_worker`` and re-seeds the surviving workers' inboxes from
its own slab decode.  ``--inject-fault netsplit:W@S`` (the worker closes
its listening socket mid-exchange) and ``slowlink:W@S`` (the worker
stalls past its peers' deadline) inject real network faults on this
path.

**Partitioning.** ``partitioning="hash"`` (default) interleaves vertex
ids across workers; ``"range"`` assigns contiguous id blocks with the
simulator's exact placement formula.  Both reconstruct the simulator's
per-receiver order from the same stable sender-vid sort — the sim
computes vertices in ascending global vid order whatever the placement,
and a sender vid sort restores exactly that for interleaved *and*
contiguous partitions.

The backend still refuses — with :class:`BackendUnsupported` — the
simulated transport (real pipes and sockets carry the slabs;
channel-fault modeling would have nothing real to model).
:func:`composition_refusals` exposes the refusal list so the CLI can
validate a composition *before* loading a graph, with identical messages.
"""

from __future__ import annotations

import atexit
import os
import signal
import time
import traceback
from array import array
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

from ..ft import NETWORK_FAULT_KINDS, REAL_FAULT_KINDS, RealFault
from ..graph import Graph
from ..runtime import VOTING_DISABLED_ERROR, PregelEngine, SuperstepRecord
from .base import BackendUnsupported, ExecutionBackend
from .codec import MessageCodec
from ..globalmap import fold_ordered
from .columnar import OutCsr, build_typed_columns, vectorized_phases

_EMPTY: tuple = ()
_NO_BYTES = np.empty(0, dtype=np.uint8)

#: granularity of the deadline-based receive loop: how often the parent
#: re-checks the worker's sentinel while waiting for a barrier reply.
_POLL_TICK = 0.05

#: every live shared-memory segment created by any MPEngine in this
#: process, by name — the atexit backstop unlinks whatever an aborted or
#: interrupted run left behind (``/dev/shm`` files outlive the process).
_LIVE_SEGMENTS: dict[str, Any] = {}
_CLEANUP_REGISTERED = False


def _track_segment(seg) -> None:
    global _CLEANUP_REGISTERED
    _LIVE_SEGMENTS[seg.name] = seg
    if not _CLEANUP_REGISTERED:
        atexit.register(_cleanup_segments)
        _CLEANUP_REGISTERED = True


def _release_segment(seg) -> None:
    _LIVE_SEGMENTS.pop(seg.name, None)
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:
        pass


def _cleanup_segments() -> None:
    for seg in list(_LIVE_SEGMENTS.values()):
        _release_segment(seg)


#: every parent-owned bound socket (tcp transport listeners) alive in
#: this process, by id — like the segments, the atexit backstop closes
#: whatever an aborted run left bound.  A listener is tracked from bind
#: until the parent closes its copy right after the owning worker forks.
_LIVE_SOCKETS: dict[int, Any] = {}
_SOCKET_CLEANUP_REGISTERED = False


def _track_socket(sock) -> None:
    global _SOCKET_CLEANUP_REGISTERED
    _LIVE_SOCKETS[id(sock)] = sock
    if not _SOCKET_CLEANUP_REGISTERED:
        atexit.register(_cleanup_sockets)
        _SOCKET_CLEANUP_REGISTERED = True


def _release_socket(sock) -> None:
    _LIVE_SOCKETS.pop(id(sock), None)
    try:
        sock.close()
    except OSError:
        pass


def _cleanup_sockets() -> None:
    for sock in list(_LIVE_SOCKETS.values()):
        _release_socket(sock)


class _WorkerDead(Exception):
    """A worker failed its exchange deadline: the process died (EOF, dead
    sentinel) or went silent past the deadline.  Internal — the engine
    either escalates into recovery or surfaces a RuntimeError."""

    def __init__(self, wid: int, cause: str):
        super().__init__(wid, cause)
        self.wid = wid
        self.cause = cause  # "died" | "timeout"

    def describe(self) -> str:
        return (
            "missed the exchange deadline"
            if self.cause == "timeout"
            else "died unexpectedly"
        )

#: absolute ceiling on one worker's auto-sized shared-memory segment; a
#: superstep whose slabs outgrow it spills through the inline-pipe
#: overflow path, which is correctness-neutral (just slower).
_SLAB_CEILING = 256 << 20


def mp_available() -> bool:
    """True when the platform can run this backend (fork + shared memory).

    Importability alone is not enough: hosts without a usable ``/dev/shm``
    import ``shared_memory`` fine and then fail at segment creation, mid
    superstep.  Probe with a tiny create/unlink round-trip so the failure
    becomes an up-front :class:`BackendUnsupported` refusal instead.
    """
    try:
        import multiprocessing
        from multiprocessing import shared_memory

        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        probe = shared_memory.SharedMemory(create=True, size=16)
        probe.close()
        probe.unlink()
        return True
    except (ImportError, OSError):
        return False


def clamp_slab_bytes(requested: int, plan=None) -> int:
    """Cap an auto-sized per-worker slab reservation.

    Unbounded, the ``traffic * record`` heuristic can reserve multi-GB
    segments on dense graphs.  The cap is the tightest configured
    per-worker budget of a PR 5 :class:`~repro.pregel.mem.MemPlan` when
    one is given, else the absolute ceiling; the floor stays at 1 MiB (a
    smaller segment is all directory, no slab).  Capacity never affects
    results — overflow travels inline over the pipes.
    """
    cap = _SLAB_CEILING
    if plan is not None and getattr(plan, "limited", False):
        finite = [budget for _worker, budget in plan.worker_budgets]
        if plan.budget_bytes:
            finite.append(plan.budget_bytes)
        if finite:
            cap = min(cap, min(finite))
    return max(1 << 20, min(requested, cap))


def composition_refusals(
    *,
    use_voting: bool = False,
    combiners=None,
    ft=None,
    transport=None,
    supervisor=None,
    mem=None,
    tracer=None,
    track_makespan: bool = False,
    partitioning: str = "hash",
) -> list[str]:
    """Refusal messages for running a composition on the mp backend.

    Empty means the composition is supported.  Shared by
    :class:`MPEngine` construction and the CLI's pre-load validation, so
    a refused flag combination fails with the identical message whether
    it is caught in milliseconds (CLI, before the graph loads) or at
    engine construction.  ``combiners``, ``ft``, ``tracer``,
    ``use_voting``, ``supervisor``, ``mem``, ``track_makespan``, and
    ``partitioning`` are accepted for signature stability: those
    compositions are supported (range partitioning runs contiguous vid
    blocks with the simulator's placement formula).
    """
    # lifted compositions — no longer refused
    del combiners, ft, tracer, use_voting, supervisor, mem, track_makespan
    del partitioning
    refusals = []

    def refuse(feature: str, hint: str) -> None:
        refusals.append(
            f"the mp backend does not support {feature}: {hint} "
            "(run with --backend sim or columnar)"
        )

    if transport is not None:
        refuse(
            "the simulated transport",
            "real pipes and sockets carry the slabs — --transport tcp "
            "runs a real network instead",
        )
    return refusals


class _TagStage:
    """Outgoing messages for one (destination worker, tag).  Scalar sends
    append to a destination array, sender run-lengths and the packed
    payload; a kernel's bulk send — the only send of its phase on the tag
    — sets ``bulk`` to its ``(dsts, senders, records | None)`` arrays."""

    __slots__ = ("dsts", "senders", "counts", "payload", "bulk")

    def __init__(self):
        self.dsts = array("i")
        self.senders: list[int] = []
        self.counts: list[int] = []
        self.payload = bytearray()
        self.bulk = None

    def take(self):
        """``(count, dsts, senders, payload)`` — the slab's three sections
        as byte arrays, in wire layout — or None when nothing was staged."""
        if self.bulk is not None:
            dsts, senders, records = self.bulk
            payload = _NO_BYTES if records is None else records.view(np.uint8)
            return len(dsts), dsts.view(np.uint8), senders.view(np.uint8), payload
        if not self.dsts:
            return None
        senders = np.repeat(
            np.asarray(self.senders, dtype=np.int32),
            np.asarray(self.counts, dtype=np.int64),
        )
        return (
            len(self.dsts),
            np.frombuffer(self.dsts, dtype=np.uint8),
            senders.view(np.uint8),
            np.frombuffer(self.payload, dtype=np.uint8),
        )


class MPEngine(PregelEngine):
    """Parent-side coordinator: the shared superstep driver with real
    worker processes for a body.  The master API, ``run()``, the superstep
    loop and the checkpoint payload are :class:`PregelEngine`'s; this class
    owns the process plumbing (``_session``), the barrier protocol
    (``_superstep_body``: step → stat fold → exchange → ready), real-failure
    recovery, and the parent's share of a checkpoint."""

    def __init__(
        self,
        graph: Graph,
        *,
        schema,
        vertex_compute: Callable | None = None,
        mp_slab_bytes: int | None = None,
        real_faults=(),
        exchange_deadline: float = 30.0,
        max_restarts: int = 3,
        transport_mode: str = "shm",
        **engine_opts,
    ):
        refusals = composition_refusals(transport=engine_opts.get("transport"))
        if refusals:
            raise BackendUnsupported(refusals[0])
        if schema is None:
            raise BackendUnsupported(
                "the mp backend needs a program schema (compiled programs only)"
            )
        if not mp_available():
            raise BackendUnsupported(
                "the mp backend needs fork start-method and "
                "multiprocessing.shared_memory, unavailable on this platform"
            )
        if exchange_deadline <= 0:
            raise ValueError("exchange_deadline must be > 0")
        if transport_mode not in ("shm", "tcp"):
            raise ValueError(
                f"unknown transport '{transport_mode}' (expected 'shm' or 'tcp')"
            )
        # The shared construction: ledger, placement, scheduling checks, and
        # the ft → supervisor → mem attach sequence.  ``_voted`` is the one
        # authoritative vote bitset: forked workers inherit it
        # copy-on-write, mutate their own partition's slice, and ship that
        # slice back in every exchange reply for the parent to fold (the FT
        # replay also reads/writes it directly).
        super().__init__(graph, vertex_compute, **engine_opts)
        real_faults = tuple(real_faults or ())
        for fault in real_faults:
            if fault.kind not in REAL_FAULT_KINDS:
                raise ValueError(f"unknown real fault kind '{fault.kind}'")
            if fault.kind in NETWORK_FAULT_KINDS and transport_mode != "tcp":
                raise ValueError(
                    f"'{fault.kind}:' faults are network faults — they need "
                    "the real socket transport (run with --transport tcp)"
                )
            if not 0 <= fault.worker < self.num_workers:
                raise ValueError(
                    f"fault targets worker {fault.worker} but the engine "
                    f"has {self.num_workers} workers"
                )
        if real_faults and self.ft is None:
            raise ValueError(
                "real process faults (kill:/hang:/netsplit:/slowlink:) "
                "require fault tolerance: pass ft=... / --checkpoint-every "
                "so recovery has a checkpoint to restore"
            )
        self.schema = schema
        self.metrics.backend = "mp"
        self.transport_mode = transport_mode
        self._codec = MessageCodec(schema)
        w = self.num_workers
        # ``_part_slices[wid]`` is the column/bitset slice matching the
        # shared placement (``_worker_of``), so strided ('hash') and
        # contiguous ('range') partitions share every gather/scatter/vote
        # path below.
        if self.partitioning == "hash":
            self._part_slices = [slice(wid, None, w) for wid in range(w)]
        else:
            bounds = [0] * (w + 1)
            for owner in self._worker_of:
                bounds[owner + 1] += 1
            for wid in range(w):
                bounds[wid + 1] += bounds[wid]
            self._part_slices = [
                slice(bounds[wid], bounds[wid + 1]) for wid in range(w)
            ]
        self._columns: dict[str, Any] = {}
        #: the vectorizer, ``build(engine) -> (receivers, kernels)``: each
        #: worker compiles its own array code with it after its fork (None:
        #: the workers run the generated scalar program throughout).
        self._array_code: Callable | None = None
        #: numpy view of the out-CSR and the placement, built before the
        #: first fork so the workers share it copy-on-write.
        self._csr: OutCsr | None = None
        self._delivered = 0
        # real-failure machinery: scheduled process faults, the exchange
        # deadline, deferred detections, and the engine-level restart cap
        # (the Supervisor owns its own cap when one is attached).
        self._real_pending: list[RealFault] = list(real_faults)
        self._exchange_deadline = float(exchange_deadline)
        self._max_restarts = max_restarts
        self._restarts_used = 0
        self._hang_now: dict[int, float] = {}
        self._net_now: dict[int, str] = {}
        self._dead_pending: list[tuple[int, str]] = []
        # tcp transport plumbing: parent-bound listeners (children inherit
        # across the fork; the parent closes its copy right after each
        # fork), the port map, and per-worker fork epochs (bumped on every
        # re-fork so receivers reset that sender's sequence stream).
        self._listeners: list = []
        self._ports: list[int] = []
        self._epochs: list[int] = [0] * w
        #: set when an abandoned tcp exchange discarded live workers'
        #: inboxes: the next _refork() re-seeds every surviving worker
        #: from the parent's slab decode.
        self._reseed_live = False
        #: in-flight messages (sent last superstep, delivered to the live
        #: worker inboxes) as the parent's own decode — checkpoint payloads
        #: and confined-recovery logs read this through outbox_view().
        self._inflight: dict[int, list] = {}
        self._refork_all = False
        self._refork_workers: set[int] = set()
        # live process plumbing (populated by _session, mutated by _refork)
        self._mpctx = None
        self._segments: list = []
        self._conns: list = []
        self._procs: list = []
        self._workers: list[_Worker] = []
        supervisor = self._supervisor
        if supervisor is not None:
            # The supervisor's scheduled silent crashes become real
            # SIGKILLs on this backend: same flag, real process death.
            self._real_pending.extend(
                RealFault("kill", crash.worker, crash.superstep)
                for crash in supervisor.plan.silent_crashes
            )
        if self.ft is not None and (self._real_pending or supervisor is not None):
            # A fault can fire at superstep 0, before any periodic
            # checkpoint exists — force one so recovery always has a base.
            self.ft.force_initial_checkpoint = True
        self._mem_prev_inbox = [0] * w
        if mp_slab_bytes is None:
            mem = self.mem
            per_record = 8 + self.schema.max_message_size()
            traffic = (graph.num_edges * 2) // w + graph.num_nodes
            mp_slab_bytes = clamp_slab_bytes(
                traffic * per_record, mem.plan if mem is not None else None
            )
        self._slab_bytes = mp_slab_bytes

    def compile_array_code(self, build: Callable, decisions: list | None = None) -> None:
        """Take the vectorizer: ``build(engine, decisions=None)`` returns
        ``(receivers, kernels)`` compiled against ``engine``.

        Every worker compiles its own array code after its fork — against
        itself, so kernels stage through its slabs and column views bind
        the process's live copy-on-write columns — and runs it per phase,
        from the IR, as :class:`ColumnarEngine` does.  Sender combiners and
        vote-to-halt observe individual sends, so with either on the
        workers keep the generated scalar program.  The parent compiles
        once against a worker that never runs, for the record: which
        phases engage (``RunMetrics.vectorized_phases``) and why the others
        do not (``decisions``, the ``compile.vectorize`` trace events)."""
        engages = not self._combiners and self._voted is None
        if engages:
            self._array_code = build
        if engages or decisions is not None:
            receivers, kernels = build(_Worker(0, self, ()), decisions=decisions)
            if engages:
                self.metrics.vectorized_phases = vectorized_phases(receivers, kernels)

    def _wire_boundaries(self) -> None:
        """mp's start-of-superstep order: escalate what the last exchange
        barrier detected and re-fork; the FT boundary (a due checkpoint
        pulls fresh columns from the workers; simulated ``CrashEvent``
        recovery restores/replays parent-side state and flags the affected
        workers); re-fork those — before the master runs, exactly the
        simulator's ordering; then real process faults, *after* the
        boundary checkpoint, so a fault at superstep S always has a
        recovery base <= S.  The simulated supervision clock and the
        in-process memory ledger are not subscribed: liveness and byte
        accounting ride the real barrier replies instead."""
        self._hooks["on_superstep_start"] += (self._recover_detected,)
        if self.ft is not None:
            self._subscribe(self.ft)
        self._hooks["on_superstep_start"] += (self._refork, self._inject_real_faults)

    # -- vertex-side ctx API (confined-recovery replay only) -------------
    #
    # Normal supersteps run the vertex phase in the worker processes; the
    # parent executes generated vertex code only while replaying a failed
    # partition over its restored columns, where every send and put was
    # already delivered during the original execution and is suppressed.
    # Votes are *state*, not traffic: the inherited vote_to_halt() re-applies
    # them during replay so the recovered bitset matches the lost one.

    def _replay_only(self, *_args) -> None:
        if not self._ft_replaying:
            raise RuntimeError("mp parent runs vertex code only during FT replay")

    send = send_nbrs = send_list = put_global = _replay_only

    # -- checkpoint / restore: the parent's share of the payload ---------

    def outbox_view(self) -> dict[int, list]:
        """The in-flight ``{dst: msgs}`` map (parent-side slab decode)."""
        return self._inflight

    def checkpoint_state(self) -> dict:
        """The workers own the live partition columns, so the snapshot first
        pulls them back into the parent's columns — the FT manager
        serializes the registered ``ColumnState`` (over those same column
        objects) right after this returns, so it sees fresh data."""
        self._sync_columns()
        return super().checkpoint_state()

    def restore_state(self, state: dict, vertices: list[int] | None = None) -> None:
        """Confined recovery (``vertices``): the manager restores the failed
        partition's columns and replays it in the parent, so the engine
        only needs to remember which worker must be re-forked from the
        recovered parent state.  A full rollback re-forks *every* worker
        from the restored columns before the replay resumes."""
        super().restore_state(state, vertices)
        if vertices is not None:
            self._refork_workers.add(self._worker_of[vertices[0]])
        else:
            self._refork_all = True

    def _install_inflight(self, state: dict) -> None:
        self._inflight = dict(state["outbox"])
        # The halt check's delivery count rewinds with the timeline: the
        # checkpoint's in-flight set is exactly what the restored superstep
        # consumes.
        self._delivered = sum(len(msgs) for msgs in self._inflight.values())

    # -- execution ------------------------------------------------------

    @contextmanager
    def _session(self, tracer):
        """Fork the workers (segments and tcp listeners first), hold them
        for the superstep loop, pull the final columns, and release every
        process, pipe, segment and socket on every exit path."""
        import multiprocessing
        from multiprocessing import shared_memory

        self._mpctx = multiprocessing.get_context("fork")
        w = self.num_workers
        try:
            for _ in range(w):
                seg = shared_memory.SharedMemory(create=True, size=self._slab_bytes)
                self._segments.append(seg)
                _track_segment(seg)
            if self.transport_mode == "tcp":
                # Bind every worker's listener *before* any fork: the full
                # port map is then inherited by every child, and each
                # child closes the siblings' copies in its own _init.
                from . import tcp as tcp_transport

                for _ in range(w):
                    sock = tcp_transport.bind_listener()
                    self._listeners.append(sock)
                    self._ports.append(sock.getsockname()[1])
                    _track_socket(sock)
            self._csr = OutCsr(self.graph, self._worker_of)
            self._workers = [
                _Worker(wid, self, self._segments) for wid in range(w)
            ]
            for wid in range(w):
                self._spawn_worker(wid, fresh=True)
            if self._supervisor is not None:
                self._supervisor.start_liveness(time.monotonic())
            yield
            try:
                self._gather_columns()
            except (_WorkerDead, OSError, RuntimeError):
                # An unrecoverable abort can leave dead workers behind;
                # collect what the live ones return and keep the parent's
                # (restored) columns for the rest.
                pass
            for proc in self._procs:
                proc.join(timeout=30)
        except _WorkerDead as exc:
            raise RuntimeError(
                f"mp worker {exc.wid} {exc.describe()} at superstep "
                f"{self.superstep} (no recovery path here)"
            ) from None
        finally:
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            for conn in self._conns:
                conn.close()
            for seg in self._segments:
                _release_segment(seg)
            for sock in self._listeners:
                if sock is not None:
                    _release_socket(sock)

    def _spawn_worker(self, wid: int, *, fresh: bool) -> None:
        """Fork worker ``wid`` from the parent's current state.

        ``fresh=False`` replaces a terminated worker during recovery: the
        new process copy-on-write-inherits the parent's restored/replayed
        columns, and its inbox is re-seeded with its partition's slice of
        the in-flight messages (the healthy workers still hold theirs)."""
        ctx = self._mpctx
        part = None
        if not fresh:
            part = self._seed_part(wid)
            if self.transport_mode == "tcp":
                # The replacement worker needs a live listener: the old
                # one died with the process (or was the netsplit).  Bind a
                # fresh port in the parent pre-fork and bump the worker's
                # epoch so every receiver resets its sequence stream.
                from . import tcp as tcp_transport

                old = self._listeners[wid]
                if old is not None:
                    _release_socket(old)
                sock = tcp_transport.bind_listener()
                _track_socket(sock)
                self._listeners[wid] = sock
                self._ports[wid] = sock.getsockname()[1]
                self._epochs[wid] += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=self._workers[wid].main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        if self.transport_mode == "tcp":
            # The child inherited the listening fd across the fork; close
            # the parent's copy so a worker-side close (the netsplit
            # fault, or a death) really drops the kernel listener and
            # peers see ECONNREFUSED.
            _release_socket(self._listeners[wid])
        if fresh:
            self._conns.append(parent_conn)
            self._procs.append(proc)
        else:
            self._conns[wid] = parent_conn
            self._procs[wid] = proc
            parent_conn.send(("seed", part))

    def _seed_part(self, wid: int) -> dict[int, list]:
        """This worker's slice of the in-flight messages, with the
        matching parent-side vote clears applied.

        The seeded in-flight messages *are* the partition's next
        delivery; a normal exchange clears the receivers' votes
        worker-side, so re-apply those clears here — a re-forked child
        inherits the cleared bitset copy-on-write, and a live re-seeded
        worker applies the same clears in its seed handler."""
        worker_of = self._worker_of
        part = {
            dst: list(msgs)
            for dst, msgs in self._inflight.items()
            if worker_of[dst] == wid
        }
        if self._voted is not None:
            voted = self._voted
            for dst in part:
                voted[dst] = 0
        return part

    def _refork(self) -> None:
        """Re-fork the workers a recovery flagged (none flagged: nothing)."""
        if not (self._refork_all or self._refork_workers):
            return
        wids = (
            range(self.num_workers) if self._refork_all
            else sorted(self._refork_workers)
        )
        for wid in wids:
            proc = self._procs[wid]
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10)
            self._conns[wid].close()
            self._spawn_worker(wid, fresh=False)
        for wid in wids:
            try:
                self._recv(wid)  # ("ready",) after the seed
            except _WorkerDead as exc:
                raise RuntimeError(
                    f"mp worker {wid} {exc.describe()} during recovery re-fork"
                ) from None
        if self._reseed_live and not self._refork_all:
            # An abandoned tcp exchange: the surviving workers discarded
            # their partial inboxes, so re-seed them from the parent's own
            # slab decode — the same per-destination lists a successful
            # socket merge would have produced (identical stable sort).
            reforked = set(wids)
            live = [
                wid for wid in range(self.num_workers) if wid not in reforked
            ]
            for wid in live:
                self._send(wid, ("seed", self._seed_part(wid)))
            for wid in live:
                try:
                    self._recv(wid)
                except _WorkerDead as exc:
                    raise RuntimeError(
                        f"mp worker {wid} {exc.describe()} during "
                        "post-exchange re-seed"
                    ) from None
        self._reseed_live = False
        self._refork_all = False
        self._refork_workers.clear()

    def _inject_real_faults(self) -> None:
        """Fire scheduled real process faults for the current superstep:
        ``kill`` SIGKILLs the worker's OS process now, ``hang`` arms a
        sleep past the exchange deadline in this superstep's step command,
        ``netsplit``/``slowlink`` arm a network fault delivered in this
        superstep's exchange command (the worker closes its listener /
        stalls past its peers' deadline mid-exchange).  Fired faults are
        consumed — recovery re-executes superstep numbers, and a fault is
        not re-injected into its own replay (matching simulated
        CrashEvent semantics)."""
        kills: list[int] = []
        if self._real_pending:
            due = [f for f in self._real_pending if f.superstep == self.superstep]
            if due:
                self._real_pending = [
                    f for f in self._real_pending if f.superstep != self.superstep
                ]
                for fault in due:
                    if fault.kind == "kill":
                        kills.append(fault.worker)
                    elif fault.kind == "hang":
                        self._hang_now[fault.worker] = self._exchange_deadline * 4
                    else:
                        self._net_now[fault.worker] = fault.kind
        if self._supervisor is not None:
            # A supervised crash_rate draws real kills per superstep, the
            # plan's seeded RNG deciding — same knob, real process death.
            kills.extend(self._supervisor.draw_real_crashes())
        for wid in dict.fromkeys(kills):
            proc = self._procs[wid]
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)

    def _escalate(self, failures: list[tuple[int, str]]) -> bool:
        """Escalate detected worker failures into checkpoint recovery.

        Returns False when the run must abort (restart budget exhausted,
        or no checkpoint to restore) — the caller degrades to
        ``halt_reason="unrecoverable"``; this never raises for a
        recoverable-contract failure and never hangs."""
        now = time.monotonic()
        if self._mreg is not None:
            for _wid, cause in failures:
                self._mreg.counter("mp.exchange_deadline_misses", cause=cause).inc()
        if self.ft is None:
            wid, cause = failures[0]
            raise RuntimeError(
                f"mp worker {wid} "
                f"{'missed the exchange deadline' if cause == 'timeout' else 'died unexpectedly'} "
                f"at superstep {self.superstep} with no fault tolerance "
                "attached (pass ft=... / --checkpoint-every to recover)"
            )
        supervisor = self._supervisor
        for wid, cause in failures:
            try:
                if supervisor is not None:
                    if not supervisor.on_worker_failure(wid, now, cause):
                        self._abort_reason = "unrecoverable"
                        return False
                else:
                    if self._restarts_used >= self._max_restarts:
                        self._abort_reason = "unrecoverable"
                        return False
                    self._restarts_used += 1
                    self.metrics.restarts += 1
                    if self._mreg is not None:
                        self._mreg.counter(
                            "supervisor.restarts", backend="mp"
                        ).inc()
                    self.ft.recover_worker(wid)
            except RuntimeError as exc:
                if "no checkpoint" not in str(exc):
                    raise
                self._abort_reason = "unrecoverable"
                return False
        return True

    def _fold_peer_reports(self, reports: dict[int, dict]) -> None:
        """Fold the workers' tcp exchange failure reports into culprits.

        Connection-level evidence (``refused``/``reset``) is conclusive:
        only a peer whose listener or process is actually gone produces
        it, so those peers are the culprits and timeout-only accusations
        — including a netsplit victim blaming every peer whose frames
        never reached its closed listener — are discarded.  With no
        connection-level evidence (a slowlink: the culprit's connects
        still succeed, its frames just never arrive), the peer accused by
        the most reporters is blamed.  Any report means the reporters
        discarded their partial inboxes, so the next ``_refork()``
        re-seeds every surviving worker from the parent's slab decode."""
        accused: dict[int, dict[str, int]] = {}
        for _reporter, report in reports.items():
            for peer, cause in report.items():
                causes = accused.setdefault(peer, {})
                causes[cause] = causes.get(cause, 0) + 1
        conn_level = {
            peer: ("refused" if "refused" in causes else "reset")
            for peer, causes in accused.items()
            if "refused" in causes or "reset" in causes
        }
        if conn_level:
            blamed = sorted(conn_level.items())
        else:
            peer = max(
                accused.items(), key=lambda kv: (sum(kv[1].values()), -kv[0])
            )[0]
            blamed = [(peer, "timeout")]
        already = {wid for wid, _cause in self._dead_pending}
        for peer, cause in blamed:
            if peer not in already:
                self._dead_pending.append((peer, cause))
                already.add(peer)
        self._reseed_live = True

    def _send(self, wid: int, payload) -> None:
        """Send a command, tolerating an already-dead worker: the failure
        is detected (and escalated) at the next deadline receive."""
        try:
            self._conns[wid].send(payload)
        except (BrokenPipeError, OSError):
            pass

    def _recv(self, wid: int, deadline: float | None = None):
        """Deadline-based exchange receive from worker ``wid``.

        Polls the pipe in short ticks against a monotonic deadline while
        watching the process sentinel, so the parent barrier never blocks
        on a dead or hung worker: EOF / a dead process raises
        :class:`_WorkerDead(cause="died")` within a tick, silence past the
        deadline raises ``cause="timeout"``.  A worker that trapped its
        own exception still surfaces it as a RuntimeError.
        """
        conn = self._conns[wid]
        limit = time.monotonic() + (
            self._exchange_deadline if deadline is None else deadline
        )
        while True:
            remaining = limit - time.monotonic()
            try:
                if conn.poll(min(_POLL_TICK, max(0.0, remaining))):
                    reply = conn.recv()
                    break
            except (EOFError, OSError):
                raise _WorkerDead(wid, "died") from None
            if not self._procs[wid].is_alive():
                # Died between replies: drain anything it flushed before
                # the pipe went down, then report the death.
                try:
                    if conn.poll(0):
                        reply = conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise _WorkerDead(wid, "died")
            if remaining <= 0:
                raise _WorkerDead(wid, "timeout")
        if reply[0] == "error":
            raise RuntimeError(f"mp worker failed:\n{reply[1]}")
        return reply

    def _recover_detected(self) -> None:
        """Failures detected at the previous exchange barrier escalate
        first: checkpoint recovery runs parent-side and flags the affected
        workers.  They re-fork *before* the FT boundary — a due checkpoint
        round-trips every worker pipe, so flagged workers must be live
        again by then."""
        if self._dead_pending:
            dead, self._dead_pending = self._dead_pending, []
            if not self._escalate(dead):
                return  # _abort_reason is set: the driver ends the run
        self._refork()

    def _superstep_body(self, instr: bool, tracer):
        """The mp body: step → stat fold → exchange → ready."""
        m = self.metrics
        ft = self.ft
        mreg = self._mreg
        worker_of = self._worker_of
        sizes = self._codec.sizes
        w = self.num_workers
        supervisor = self._supervisor
        voted = self._voted
        # Vote-to-halt termination, the simulator's dense rule at the
        # same boundary: messages delivered at the last exchange wake
        # their receivers (votes cleared worker-side before the slices
        # fold), so "nothing delivered and everyone voted" halts.
        if (
            voted is not None
            and self.superstep > 0
            and self._delivered == 0
            and 0 not in voted
        ):
            return "all_halted"
        bcast = dict(self.globals.broadcast)
        hang = self._hang_now
        self._hang_now = {}
        for wid in range(w):
            self._send(wid, ("step", bcast, hang.get(wid, 0.0)))
        # Vertex-phase barrier under a deadline.  A death here is
        # recovered *within* the superstep when confinement allows it:
        # the failed partition replays parent-side to this superstep's
        # boundary, the worker re-forks from the restored columns, and
        # the step command is re-issued — healthy workers never rewind
        # and their replies stay valid.  A rollback instead abandons
        # the superstep: the driver restarts it from the restored one.
        replies: list = [None] * w
        pending = list(range(w))
        while pending:
            dead: list[tuple[int, str]] = []
            for wid in pending:
                try:
                    replies[wid] = self._recv(wid)
                    if supervisor is not None:
                        supervisor.observe_liveness(wid, time.monotonic())
                except _WorkerDead as exc:
                    dead.append((wid, exc.cause))
            if not dead:
                break
            if not self._escalate(dead):
                return "unrecoverable"
            if self._refork_all:
                return None
            self._refork()
            pending = [wid for wid, _cause in dead]
            for wid in pending:
                self._send(wid, ("step", bcast, 0.0))
        step_net = 0
        all_puts: list = []
        all_slots: list = []
        worker_computed = []
        worker_sent_step = []
        worker_seconds = []
        worker_bytes = []
        for wid, (_, _dir, _inline, counters, puts, slots) in enumerate(replies):
            m.messages += counters["messages"]
            m.message_bytes += counters["bytes"]
            m.net_messages += counters["net_messages"]
            m.net_bytes += counters["net_bytes"]
            m.worker_sent[wid] += counters["sent"]
            step_net += counters["net_messages"]
            worker_computed.append(counters["computed"])
            worker_sent_step.append(counters["sent"])
            worker_seconds.append(counters["seconds"])
            worker_bytes.append(counters["staged"])
            all_puts.extend(puts)
            all_slots.extend(slots)
        if ft is not None:
            # The simulator meters one (argument-free) delivery account
            # per cross-worker send during the phase; the parent makes
            # the same number of calls, so the FT manager's seeded
            # retry counters come out identical.
            account = ft.account_delivery
            for _ in range(step_net):
                account()
        # Combiner barrier flush: a stable sort on the birth vid of
        # each per-worker slot reconstructs the simulator's combiner
        # table insertion order (ties = one vertex's sends, already in
        # program order within its worker's slot list).  Metering at
        # flush, on the folded payload — the message that travels.
        combined_parts: list[list] = [[] for _ in range(w)]
        if all_slots:
            all_slots.sort(key=lambda s: s[0])
            for birth, dst, tag, msg in all_slots:
                size = sizes[tag]
                m.messages += 1
                m.message_bytes += size
                dest = worker_of[dst]
                if worker_of[birth] != dest:
                    m.net_messages += 1
                    m.net_bytes += size
                    if ft is not None:
                        ft.account_delivery()
                combined_parts[dest].append((dst, msg))
        self._fold_puts(all_puts)
        directories = [r[1] for r in replies]
        inlines = [r[2] for r in replies]
        if self._track_makespan:
            # The simulator's work units, left in ``_step_work`` for the
            # driver's makespan accounting: one per computed vertex, one
            # per send (sender side), one per message for its receiving
            # worker — combined messages count their folded deliveries.
            step_work = self._step_work
            for wid in range(w):
                step_work[wid] = worker_computed[wid] + worker_sent_step[wid]
            for directory in directories:
                for dest, _tag, count, _offset, _plen in directory:
                    step_work[dest] += count
            for entries in inlines:
                for dest, _tag, count, _db, _sb, _payload in entries:
                    step_work[dest] += count
            for dest in range(w):
                step_work[dest] += len(combined_parts[dest])
        if instr:
            t_exchange = time.perf_counter()
        if self.transport_mode == "tcp":
            # The exchange command carries the current port/epoch map
            # (a within-superstep re-fork may have moved a listener)
            # plus this worker's armed network fault, if any.
            ports, epochs = list(self._ports), list(self._epochs)
            net_now, self._net_now = self._net_now, {}
            for wid in range(w):
                fault = net_now.get(wid)
                if fault == "slowlink":
                    fault = ("slowlink", self._exchange_deadline * 1.5)
                net = {"ports": ports, "epochs": epochs, "fault": fault}
                self._send(
                    wid, ("exchange", directories, inlines, combined_parts, net)
                )
        else:
            for wid in range(w):
                self._send(
                    wid, ("exchange", directories, inlines, combined_parts)
                )
        # The exchange barrier: each worker replies ("ready",
        # route_seconds, registry_snapshot | None, received_bytes,
        # vote_slice | None) — this is where the per-worker registries
        # merge into the parent's and the vote bitset folds.  A death
        # here is *deferred*: the dead worker's slabs already sit in
        # parent-owned segments (written before its stat reply), so the
        # superstep's bookkeeping completes and the escalation runs at
        # the next start-of-superstep boundary, where recovery replays
        # cover the missing reply's effects.
        worker_route_seconds = [0.0] * w
        delivered_bytes = [0] * w
        peer_reports: dict[int, dict] = {}
        for wid in range(w):
            try:
                ready = self._recv(wid)
            except _WorkerDead as exc:
                self._dead_pending.append((wid, exc.cause))
                continue
            if supervisor is not None:
                supervisor.observe_liveness(wid, time.monotonic())
            worker_route_seconds[wid] = ready[1] if len(ready) > 1 else 0.0
            if mreg is not None and len(ready) > 2 and ready[2]:
                mreg.merge_snapshot(ready[2])
            if len(ready) > 3:
                delivered_bytes[wid] = ready[3]
            if voted is not None and len(ready) > 4 and ready[4] is not None:
                voted[self._part_slices[wid]] = ready[4]
            if len(ready) > 5 and ready[5]:
                peer_reports[wid] = ready[5]
        if peer_reports:
            self._fold_peer_reports(peer_reports)
        phases = {"exchange": time.perf_counter() - t_exchange} if instr else {}
        if voted is not None:
            # Deliveries of this exchange (consumed next superstep) —
            # the termination check's "inbox empty" side.
            delivered = 0
            for directory in directories:
                for _dest, _tag, count, _offset, _plen in directory:
                    delivered += count
            for entries in inlines:
                for _dest, _tag, count, _db, _sb, _payload in entries:
                    delivered += count
            delivered += sum(len(part) for part in combined_parts)
            self._delivered = delivered
        if self.mem is not None:
            # Parent-enforced MemPlan: charge each worker's reported
            # resident bytes — last exchange's inbox (consumed this
            # superstep) plus this exchange's deliveries.  Crossing the
            # hard budget raises MemoryExhausted, degraded by run() to
            # halt_reason="out_of_memory" with the structured report.
            self.mem.charge_exchange(
                self._mem_prev_inbox, delivered_bytes, self.superstep
            )
            self._mem_prev_inbox = delivered_bytes
        if ft is not None:
            # Decode this superstep's outbox from the slabs while the
            # segments still hold them: checkpoint payloads and the
            # confined-recovery logs both read it via outbox_view().
            self._inflight = self._decode_outbox(directories, inlines)
            for dst, msg in (pair for part in combined_parts for pair in part):
                bucket = self._inflight.get(dst)
                if bucket is None:
                    self._inflight[dst] = [msg]
                else:
                    bucket.append(msg)
        info = {}
        if tracer is not None:
            # Real-process identities + per-worker exchange (route)
            # timings: `gm-pregel profile` ranks stragglers by actual OS
            # process.  Info-only — pids differ run to run by construction.
            info = {
                "worker_pids": [proc.pid for proc in self._procs],
                "worker_route_seconds": worker_route_seconds,
            }
        return SuperstepRecord(
            phases, None, worker_computed, worker_seconds, worker_bytes, info
        )

    def _fold_puts(self, puts: list) -> None:
        """Re-fold the workers' vertex puts in ascending-vid order:
        bit-identical to the simulator's sequential fold, float sums
        included.

        A worker's scalar step ships one ``(name, op, vid, value)`` per
        put, a kernel one ``(name, op, vids, values)`` array pair per
        global — and one superstep can hold both for the same global (a
        worker re-forked by a confined recovery re-runs the step scalar
        while its peers' kernel replies are already in).  Either way each
        global's puts become one vid-ordered array, folded with the
        kernels' own ordered fold; values of unlike types stay Python
        objects, which that fold combines one by one."""
        streams: dict[tuple, list] = {}
        for name, op, vids, values in puts:
            streams.setdefault((name, op), []).append((vids, values))
        folded = []
        for (name, op), parts in streams.items():
            if all(isinstance(values, np.ndarray) for _vids, values in parts) and (
                len({values.dtype for _vids, values in parts}) == 1
            ):
                vids = np.concatenate([vids for vids, _values in parts])
                values = np.concatenate([values for _vids, values in parts])
            else:
                vids = np.concatenate([np.atleast_1d(vids) for vids, _values in parts])
                values = np.empty(len(vids), dtype=object)
                values[:] = [
                    x
                    for _vids, part in parts
                    for x in (part.tolist() if isinstance(part, np.ndarray) else (part,))
                ]
            # stable: one vertex's puts (one worker's) stay in program order
            order = np.argsort(vids, kind="stable")
            folded.append((vids[order[0]], name, op, fold_ordered(op, values[order])))
        # slots open in the order a sequential fold would have opened them
        folded.sort(key=lambda put: put[0])
        put_reduce = self.globals.put_reduce
        for _first, name, op, value in folded:
            put_reduce(name, op, value)

    def _decode_outbox(self, directories, inlines) -> dict[int, list]:
        """Parent-side decode of every worker's slabs into one sim-shaped
        ``{dst: msgs}`` map (all destinations, not just one worker's).

        Per-tag stable sender sort reconstructs global send order per
        receiver; receive loops are tag-filtered, so grouping a receiver's
        messages by tag is invisible — the confined replay feeds these
        lists straight to the generated receive code."""
        codec = self._codec
        per_tag: dict[int, list] = {tag: [] for tag in codec.tag_ids}
        for source, directory in enumerate(directories):
            seg_buf = self._segments[source].buf
            for _dest, tag, count, offset, payload_len in directory:
                mid = offset + 4 * count
                pay = mid + 4 * count
                per_tag[tag].append(
                    (
                        np.frombuffer(bytes(seg_buf[offset:mid]), dtype=np.int32),
                        np.frombuffer(bytes(seg_buf[mid:pay]), dtype=np.int32),
                        bytes(seg_buf[pay : pay + payload_len]),
                        count,
                    )
                )
        for entries in inlines:
            for _dest, tag, count, dst_bytes, sender_bytes, payload in entries:
                per_tag[tag].append(
                    (
                        np.frombuffer(dst_bytes, dtype=np.int32),
                        np.frombuffer(sender_bytes, dtype=np.int32),
                        payload,
                        count,
                    )
                )
        outbox: dict[int, list] = {}
        for tag in codec.tag_ids:
            parts = per_tag[tag]
            if not parts:
                continue
            if len(parts) == 1:
                dst_all, snd_all, payload, count = parts[0]
                records = codec.unpack[tag](payload, count)
            else:
                dst_all = np.concatenate([p[0] for p in parts])
                snd_all = np.concatenate([p[1] for p in parts])
                records = []
                for _dst, _snd, payload, count in parts:
                    records.extend(codec.unpack[tag](payload, count))
            by_sender = np.argsort(snd_all, kind="stable")
            order = by_sender[np.argsort(dst_all[by_sender], kind="stable")]
            sorted_dsts = dst_all[order]
            sorted_recs = [records[i] for i in order.tolist()]
            cuts = np.flatnonzero(sorted_dsts[1:] != sorted_dsts[:-1]) + 1
            starts = [0, *cuts.tolist()]
            ends = [*cuts.tolist(), len(sorted_recs)]
            for dst, a, b in zip(sorted_dsts[starts].tolist(), starts, ends):
                bucket = outbox.get(dst)
                if bucket is None:
                    outbox[dst] = sorted_recs[a:b]
                else:
                    bucket.extend(sorted_recs[a:b])
        return outbox

    def _sync_columns(self) -> None:
        """Pull every worker's live partition back into the parent columns."""
        if not self._conns:
            return  # workers not forked yet: the columns hold initial state
        for wid in range(self.num_workers):
            self._send(wid, ("snapshot",))
        self._scatter_columns()

    def _gather_columns(self) -> None:
        """Final column pull at end of run (workers exit afterwards).

        Tolerates dead workers: after an unrecoverable abort the parent's
        columns already hold the best known (restored) state for the dead
        partitions, so only the live workers' slices are pulled."""
        for wid in range(self.num_workers):
            self._send(wid, ("finish",))
        self._scatter_columns(tolerate_dead=True)

    def _scatter_columns(self, *, tolerate_dead: bool = False) -> None:
        n = self.graph.num_nodes
        w = self.num_workers
        for wid in range(w):
            try:
                reply = self._recv(wid)
            except _WorkerDead:
                if tolerate_dead:
                    continue
                raise
            part = self._part_slices[wid]
            for name, values in reply[1].items():
                column = self._columns[name]
                if isinstance(column, array):
                    # the partition slice as the worker's raw column bytes
                    column[part] = array(column.typecode, values)
                else:
                    for i, vid in enumerate(range(n)[part]):
                        column[vid] = values[i]


class _Worker:
    """One worker process: the partition's view of the columnar data plane.

    It computes its partition every superstep — a phase the vectorizer
    compiled runs as the same array kernel :class:`ColumnarEngine` runs,
    restricted to the partition's vertices; any other phase as the
    generated scalar program, one call per vertex — stages outgoing
    messages as per-(destination, tag) slabs in its shared-memory segment
    (folding combined tags into per-(dst, tag) slots instead), keeps the
    other workers' slabs destined here raw after the barrier, and delivers
    them at the next step, when the broadcast state says which receive
    code they are for: a bulk receive handler takes a tag's records as
    arrays, a scalar receive loop takes them from the dict inbox.

    Constructed in the parent *before* fork, so every heavy structure (the
    graph CSR, property columns, the generated vertex function and its
    environment) is inherited copy-on-write — nothing is pickled.  A
    recovery re-fork reuses the same instance: the replacement process
    inherits the parent's *restored* columns the same way, and compiles
    its array code against them in its own ``_init``."""

    def __init__(self, wid: int, engine: MPEngine, segments):
        self.wid = wid
        self.engine = engine
        self.segments = segments
        self._current_vertex = -1
        # read by array code, which is compiled against this object
        self.globals = engine.globals
        self.graph = engine.graph

    # -- vertex-side ctx API (called by generated code) -----------------

    def send(self, dst: int, msg: tuple) -> None:
        tag = msg[0]
        combiner = self._combiners.get(tag) if self._combiners else None
        if combiner is not None:
            self._fold(dst, tag, msg, combiner, 1)
            return
        stage = self._stage[self._worker_of[dst]][tag]
        stage.dsts.append(dst)
        stage.senders.append(self._current_vertex)
        stage.counts.append(1)
        stage.payload += self._pack[tag](msg)
        self._meter(tag, 1, 1 if self._worker_of[dst] != self.wid else 0)

    def send_nbrs(self, vid: int, msg: tuple) -> None:
        tag = msg[0]
        if self._combiners and tag in self._combiners:
            graph = self.engine.graph
            targets = graph.out_targets[
                graph.out_offsets[vid] : graph.out_offsets[vid + 1]
            ]
            if targets:
                combiner = self._combiners[tag]
                for dst in targets:
                    self._fold(dst, tag, msg, combiner, 0)
                c = self._counters
                c["sent"] += len(targets)
                c["staged"] += self._sizes[tag] * len(targets)
            return
        if self._grp_off is None:
            self._group_nbrs()
        offsets = self._grp_off.get(vid)
        if offsets is None:
            return  # no out-neighbours
        record = self._pack[tag](msg)
        grp_tgt = self._grp_tgt
        for dest in range(self._w):
            a = offsets[dest]
            b = offsets[dest + 1]
            if b > a:
                stage = self._stage[dest][tag]
                stage.dsts.frombytes(grp_tgt[a:b].tobytes())
                stage.senders.append(vid)
                stage.counts.append(b - a)
                stage.payload += record * (b - a)
        deg = offsets[-1] - offsets[0]
        own = offsets[self.wid + 1] - offsets[self.wid]
        self._meter(tag, deg, deg - own)

    def send_list(self, dsts: list, msg: tuple) -> None:
        if not dsts:
            return
        tag = msg[0]
        if self._combiners and tag in self._combiners:
            combiner = self._combiners[tag]
            for dst in dsts:
                self._fold(dst, tag, msg, combiner, 0)
            c = self._counters
            c["sent"] += len(dsts)
            c["staged"] += self._sizes[tag] * len(dsts)
            return
        record = self._pack[tag](msg)
        vid = self._current_vertex
        worker_of = self._worker_of
        cross = 0
        for dst in dsts:
            dest = worker_of[dst]
            if dest != self.wid:
                cross += 1
            stage = self._stage[dest][tag]
            stage.dsts.append(dst)
            stage.senders.append(vid)
            stage.counts.append(1)
            stage.payload += record
        self._meter(tag, len(dsts), cross)

    def _fold(self, dst: int, tag: int, msg: tuple, combiner, meter: int) -> None:
        """Combiner send: fold into this worker's (dst, tag) slot, stamped
        with the vid of the slot's first send (the parent's merge key).
        Only the sender's combine work is metered per send — delivered
        traffic is metered at the parent's flush, on the folded payload."""
        if meter:
            c = self._counters
            c["sent"] += 1
            c["staged"] += self._sizes[tag]
        key = (dst, tag)
        slot = self._combined.get(key)
        if slot is not None:
            self._combined[key] = (slot[0], combiner(slot[1], msg))
        else:
            self._combined[key] = (self._current_vertex, msg)

    def put_global(self, name: str, op, value) -> None:
        self._puts.append((name, op, self._current_vertex, value))

    def vote_to_halt(self, vid: int) -> None:
        # The fork-inherited bitset is private to this process: the vote
        # reaches the parent as this partition's slice in the next
        # exchange reply, where the authoritative copy folds it in.
        if self._voted is None:
            raise RuntimeError(VOTING_DISABLED_ERROR)
        self._voted[vid] = 1

    def get_global(self, name: str):
        return self.engine.globals.broadcast[name]

    @property
    def num_nodes(self) -> int:
        return self.engine.graph.num_nodes

    def _meter(self, tag: int, count: int, cross: int) -> None:
        size = self._sizes[tag]
        c = self._counters
        c["messages"] += count
        c["sent"] += count
        c["bytes"] += size * count
        c["staged"] += size * count
        if cross:
            c["net_messages"] += cross
            c["net_bytes"] += size * cross

    # -- kernel-side API (called by array code) -------------------------

    def out_edges(self, senders):
        return self.engine._csr.out_edges(senders)

    def send_nbrs_bulk(self, tag: int, senders, edges, counts, records) -> None:
        """A kernel's one send on ``tag``: ``records[k]`` along out-edge
        ``edges[k]`` (``out_edges(senders)``), split by destination worker
        — stably, so each slab keeps ascending-sender, edge order, what the
        per-vertex sends stage — and metered as they are."""
        csr = self.engine._csr
        dsts = csr.targets if edges is None else csr.targets[edges]
        sender_ids = np.repeat(senders.astype(np.int32), counts)
        owner = csr.nbr_owner if edges is None else csr.nbr_owner[edges]
        order = np.argsort(owner, kind="stable")
        ends = np.cumsum(np.bincount(owner, minlength=self._w)).tolist()
        dsts, sender_ids = dsts[order], sender_ids[order]
        if records is not None:
            records = records[order]
        a = 0
        for dest, b in enumerate(ends):
            if b > a:
                self._stage[dest][tag].bulk = (
                    dsts[a:b],
                    sender_ids[a:b],
                    None if records is None else records[a:b],
                )
            if dest == self.wid:
                own = b - a
            a = b
        self._meter(tag, len(dsts), len(dsts) - own)

    def put_global_bulk(self, name: str, op, vids, values) -> None:
        """A kernel's puts to one global: shipped whole, folded with the
        other workers' by the parent (``MPEngine._fold_puts``)."""
        self._puts.append((name, op, vids, values))

    # -- process body ---------------------------------------------------

    def _init(self) -> None:
        engine = self.engine
        n = engine.graph.num_nodes
        self._w = engine.num_workers
        # Per-process registry (built post-fork when the parent meters):
        # snapshots ship back — and reset — with every exchange reply, so
        # each barrier merge carries exactly one superstep's increments.
        # Instruments are re-resolved per bump (the reset drops handles);
        # at once-per-superstep frequency that lookup is noise.
        self._mreg = None
        parent_reg = engine.metrics_registry
        if parent_reg is not None and parent_reg.enabled:
            from ...obs.metrics import MetricsRegistry

            self._mreg = MetricsRegistry()
        self._worker_of = engine._worker_of
        self._combiners = engine._combiners
        codec = engine._codec
        self._pack = codec.pack
        self._unpack = codec.unpack
        self._sizes = codec.sizes
        self._tag_ids = codec.tag_ids
        self._part_slice = engine._part_slices[self.wid]
        self._own_vids = list(range(n)[self._part_slice])
        self._own_ids = np.arange(n, dtype=np.int64)[self._part_slice]
        # tcp transport: keep the fork-inherited copy of our own listener,
        # close the siblings' (their owners hold the live fds — a stray
        # inherited copy here would keep a "closed" listener accepting).
        self._tcp = None
        if engine.transport_mode == "tcp":
            from .tcp import TcpSlabTransport

            for wid, sock in enumerate(engine._listeners):
                if wid != self.wid and sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
            self._tcp = TcpSlabTransport(
                self.wid,
                engine._listeners[self.wid],
                engine._ports,
                engine._epochs,
                self._mreg,
            )
            # Workers must abandon a dead exchange *before* the parent's
            # own deadline expires on them, so the socket loop gets half
            # the budget — the reply (with the failure report) then lands
            # inside the parent's window.
            self._tcp_deadline = engine._exchange_deadline * 0.5
            self._tcp_outgoing = {
                d: [] for d in range(self._w) if d != self.wid
            }
        self._puts: list = []
        self._counters = self._fresh_counters()
        # What the next step consumes.  An exchange leaves the raw slab
        # parts destined here, per tag, plus the parent's combined
        # messages; a seed (recovery re-fork, re-seed after an abandoned
        # tcp exchange) leaves a ready dict inbox instead, and the step
        # that consumes one runs the scalar program.
        self._parts: dict[int, list] = {}
        self._combined_in: list = _EMPTY
        self._inbox: dict[int, list] = {}
        self._seeded = False
        self._combined: dict = {}
        # Voting: fork-inherited copy of the parent's bitset (or None).
        self._voted = engine._voted
        # Memory budgets: per-delivery receive accounting (payload +
        # envelope, the MemPlan's charge model), reported in the exchange
        # reply and charged parent-side.
        self._mem_overhead = (
            engine.mem.plan.message_overhead_bytes
            if engine.mem is not None
            else None
        )
        self._recv_bytes = 0
        self._stage = [
            {tag: _TagStage() for tag in self._tag_ids} for _ in range(self._w)
        ]
        self._grp_off: dict | None = None  # built by the first scalar send_nbrs
        # Array code, compiled against this process: the kernels stage
        # through the methods above and their column views bind the
        # columns this fork inherited.
        self._receivers: dict = {}
        self._kernels: dict = {}
        if engine._array_code is not None:
            self._receivers, self._kernels = engine._array_code(self)

    def _group_nbrs(self) -> None:
        """Group every own vertex's out-neighbor slice by destination
        worker (stable), so a scalar neighbor broadcast stages one
        contiguous run per destination: ``_grp_tgt`` holds the regrouped
        targets, ``_grp_off[vid]`` the ``w + 1`` bounds of vid's runs."""
        csr = self.engine._csr
        w = self._w
        senders = self._own_ids[csr.degrees[self._own_ids] != 0]
        if not senders.size:
            self._grp_tgt, self._grp_off = csr.targets[:0], {}
            return
        edges, counts = csr.out_edges(senders)
        tgt = csr.targets if edges is None else csr.targets[edges]
        owner = csr.nbr_owner if edges is None else csr.nbr_owner[edges]
        src = np.repeat(np.arange(len(senders), dtype=np.int64), counts)
        self._grp_tgt = tgt[np.lexsort((owner, src))]
        runs = np.bincount(src * w + owner, minlength=len(senders) * w)
        bounds = np.zeros((len(senders), w + 1), dtype=np.int64)
        np.cumsum(runs.reshape(len(senders), w), axis=1, out=bounds[:, 1:])
        bounds += (np.cumsum(counts) - counts)[:, None]
        self._grp_off = dict(zip(senders.tolist(), bounds.tolist()))

    @staticmethod
    def _fresh_counters() -> dict:
        return dict(
            messages=0,
            sent=0,
            bytes=0,
            net_messages=0,
            net_bytes=0,
            staged=0,
            computed=0,
            seconds=0.0,
        )

    def main(self, conn) -> None:
        try:
            self._init()
            while True:
                cmd = conn.recv()
                kind = cmd[0]
                if kind == "step":
                    conn.send(self._step(cmd))
                    self._counters = self._fresh_counters()
                    self._puts = []
                elif kind == "exchange":
                    conn.send(self._exchange(cmd))
                elif kind == "snapshot":
                    conn.send(("columns", self._gather()))
                elif kind == "seed":
                    # Recovery re-fork / post-abandon re-seed: install this
                    # partition's slice of the in-flight messages as the
                    # pending inbox.  The seeded messages are deliveries,
                    # so clear their receivers' votes — a no-op for a
                    # fresh fork (the child inherited the parent's
                    # already-cleared bitset), the missing wake-up for a
                    # live worker that abandoned its exchange.
                    self._inbox = cmd[1]
                    self._seeded = True
                    self._parts, self._combined_in = {}, _EMPTY
                    if self._voted is not None:
                        for dst in self._inbox:
                            self._voted[dst] = 0
                    conn.send(("ready",))
                elif kind == "finish":
                    conn.send(("columns", self._gather()))
                    return
                else:
                    raise RuntimeError(f"unknown command {kind!r}")
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                pass
        finally:
            conn.close()

    def _step(self, cmd) -> tuple:
        """One vertex phase over this partition; returns the stat reply."""
        broadcast = self.engine.globals.broadcast
        broadcast.clear()
        broadcast.update(cmd[1])
        if len(cmd) > 2 and cmd[2]:
            # Injected hang: sleep past the parent's exchange deadline — it
            # detects the miss and recovers (we get terminated mid-nap by
            # the re-fork).
            time.sleep(cmd[2])
        t0 = time.perf_counter()
        mreg = self._mreg
        wid = str(self.wid)
        state = broadcast.get("_state")
        # A seeded inbox holds every tag decoded already: that step is the
        # scalar program's.  Otherwise the phase's own choice, as on the
        # columnar engine: its kernel if the vectorizer built one.
        kernel = None if self._seeded else self._kernels.get(state)
        self._seeded = False
        inbox = self._deliver(state)
        own = self._own_vids
        voted = self._voted
        if kernel is not None:
            # array code and voting never meet: every own vertex computes
            kernel(self._own_ids)
            computed = len(own)
        else:
            compute = self.engine._vertex_compute
            empty = _EMPTY
            if voted is None:
                for vid in own:
                    self._current_vertex = vid
                    compute(self, vid, inbox.get(vid, empty))
                computed = len(own)
            else:
                computed = 0
                for vid in own:
                    if voted[vid]:
                        continue
                    self._current_vertex = vid
                    compute(self, vid, inbox.get(vid, empty))
                    computed += 1
            self._current_vertex = -1
        c = self._counters
        c["computed"] = computed
        directory, inline = self._write_slabs()
        slots = [
            (birth, dst, tag, msg)
            for (dst, tag), (birth, msg) in self._combined.items()
        ]
        self._combined.clear()
        c["seconds"] = time.perf_counter() - t0
        if mreg is not None:
            mreg.histogram("mp.worker_step_seconds", worker=wid).observe(c["seconds"])
            mreg.counter("mp.worker_staged_bytes", worker=wid).inc(c["staged"])
            as_kernel = computed if kernel is not None else 0
            mreg.counter("mp.kernel_vertices", worker=wid).inc(as_kernel)
            mreg.counter("mp.scalar_vertices", worker=wid).inc(computed - as_kernel)
        return ("stat", directory, inline, c, self._puts, slots)

    def _deliver(self, state) -> dict:
        """Hand the pending messages to this step's receive code and
        return the dict inbox the scalar receive loops read.  A tag with a
        bulk receive handler for ``state`` is consumed here, as arrays; the
        records of every other tag are decoded into the inbox."""
        inbox, self._inbox = self._inbox, {}
        parts_by_tag, self._parts = self._parts, {}
        bulk = scalar = 0
        if self._mreg is not None:
            scalar = sum(map(len, inbox.values()))  # a seeded inbox
        for tag in self._tag_ids:
            parts = parts_by_tag.get(tag)
            if not parts:
                continue
            count = sum(part[3] for part in parts)
            handler = self._receivers.get((state, tag))
            if handler is None:
                self._merge_parts(tag, parts, inbox)
                scalar += count
                continue
            if len(parts) == 1:
                dsts, _senders, payload, _count = parts[0]
            else:
                dsts = np.concatenate([part[0] for part in parts])
                payload = b"".join(part[2] for part in parts)
                if handler.ordered_merge is not None:
                    # One part per source worker, each ascending in
                    # sender: a stable sort on sender merges the runs
                    # into the simulator's global send order.
                    order = np.argsort(
                        np.concatenate([part[1] for part in parts]), kind="stable"
                    )
                    dsts = dsts[order]
                    if payload:
                        size = self._sizes[tag]
                        payload = np.frombuffer(payload, dtype=f"V{size}")[order]
            handler(dsts, payload, count)
            bulk += count
        for dst, msg in self._combined_in:
            bucket = inbox.get(dst)
            if bucket is None:
                inbox[dst] = [msg]
            else:
                bucket.append(msg)
        scalar += len(self._combined_in)
        self._combined_in = _EMPTY
        if self._mreg is not None:
            wid = str(self.wid)
            self._mreg.counter("mp.bulk_records", worker=wid).inc(bulk)
            self._mreg.counter("mp.scalar_records", worker=wid).inc(scalar)
        return inbox

    def _exchange(self, cmd) -> tuple:
        """Collect the slabs destined here; returns the ready reply."""
        t0 = time.perf_counter()
        self._recv_bytes = 0
        frames = None
        report = None
        if self._tcp is not None:
            frames, report = self._exchange_tcp(
                cmd[1], cmd[2], cmd[4] if len(cmd) > 4 else None
            )
        voted = self._voted
        mreg = self._mreg
        if report:
            # A peer failed: abandon the whole exchange — keep no part of
            # it, skip the combined parts and the vote clears (the parent
            # re-seeds this worker after recovery) and report the
            # classified causes so the parent can fold blame.
            votes = bytes(voted[self._part_slice]) if voted is not None else None
            route_s = time.perf_counter() - t0
            snap = mreg.snapshot(reset=True) if mreg is not None else None
            return ("ready", route_s, snap, 0, votes, report)
        self._read_slabs(cmd[1], cmd[2], frames)
        self._combined_in = combined = cmd[3][self.wid]
        ovh = self._mem_overhead
        if ovh is not None:
            sizes = self._sizes
            for _dst, msg in combined:
                self._recv_bytes += sizes[msg[0]] + ovh
        votes = None
        if voted is not None:
            # Ship this partition's slice *before* the delivery clears:
            # the parent's fold then matches the simulator's end-of-phase
            # bitset (checkpoints and traces included).  The local copy
            # clears now — delivered messages wake their receivers next
            # step.
            votes = bytes(voted[self._part_slice])
            waking = np.frombuffer(voted, dtype=np.uint8)
            for parts in self._parts.values():
                for dsts, _senders, _payload, _count in parts:
                    waking[dsts] = 0
            for dst, _msg in combined:
                voted[dst] = 0
        route_s = time.perf_counter() - t0
        snap = None
        if mreg is not None:
            mreg.histogram(
                "mp.worker_route_seconds", worker=str(self.wid)
            ).observe(route_s)
            snap = mreg.snapshot(reset=True)
        return ("ready", route_s, snap, self._recv_bytes, votes)

    def _write_slabs(self):
        """Flush the staged per-(destination, tag) slabs into this worker's
        shared-memory segment; anything past its capacity travels inline
        over the pipe instead (correctness never depends on the size).

        In tcp mode the cross-worker parts are *additionally* queued as
        socket frames: the segments stay authoritative for the parent
        (checkpoint decode, makespan, delivery counts — the structural
        parity guarantee), while the receivers build their inboxes from
        the frames."""
        seg = self.segments[self.wid]
        capacity = seg.size
        segment = np.frombuffer(seg.buf, dtype=np.uint8)
        offset = 0
        directory = []
        inline = []
        tcp_out = self._tcp_outgoing if self._tcp is not None else None
        for dest in range(self._w):
            stages = self._stage[dest]
            for tag in self._tag_ids:
                slab = stages[tag].take()
                if slab is None:
                    continue
                stages[tag] = _TagStage()
                count, dsts, senders, payload = slab
                if tcp_out is not None and dest != self.wid:
                    tcp_out[dest].append(
                        (tag, count, dsts.tobytes(), senders.tobytes(), payload.tobytes())
                    )
                mid = offset + dsts.size
                pay = mid + senders.size
                end = pay + payload.size
                if end <= capacity:
                    segment[offset:mid] = dsts
                    segment[mid:pay] = senders
                    segment[pay:end] = payload
                    directory.append((dest, tag, count, offset, payload.size))
                    offset = end
                else:
                    inline.append(
                        (dest, tag, count, dsts.tobytes(), senders.tobytes(), payload.tobytes())
                    )
        return directory, inline

    def _exchange_tcp(self, directories, inlines, net):
        """Run the socket leg of the exchange: ``(frames, None)`` — the
        other workers' parts destined here, ``{source: [(tag, count,
        dst_bytes, sender_bytes, payload), ...]}`` — on success, else
        ``(None, {peer: cause})``, the failure report.

        The directories every worker shipped through the parent double as
        the receive manifest: each (dest==us) entry from another source
        is exactly one expected data frame, so completion needs no extra
        control messages.  An armed network fault fires here — a netsplit
        closes our listener before the loop (peers' connects then fail
        with ECONNREFUSED at the kernel), a slowlink stalls us past our
        peers' socket deadline."""
        tcp = self._tcp
        fault = None
        if net is not None:
            tcp.update_peers(net["ports"], net["epochs"])
            fault = net.get("fault")
        if fault == "netsplit":
            tcp.close_listener()
        elif fault is not None:  # ("slowlink", seconds)
            time.sleep(fault[1])
        wid = self.wid
        expected: dict[int, int] = {}
        for source in range(self._w):
            if source != wid:
                slabs = (*directories[source], *inlines[source])
                frames = sum(1 for entry in slabs if entry[0] == wid)
                if frames:
                    expected[source] = frames
        outgoing = {d: parts for d, parts in self._tcp_outgoing.items() if parts}
        self._tcp_outgoing = {d: [] for d in range(self._w) if d != wid}
        frames, report = tcp.exchange(outgoing, expected, self._tcp_deadline)
        return (None, report) if report else (frames, None)

    def _read_slabs(self, directories, inlines, frames=None) -> None:
        """Keep every slab destined here, raw, for the next step: per tag
        one ``(dsts, senders, payload, count)`` part per source worker,
        each in that worker's send order (ascending sender).  ``frames`` is
        None over shm — every source's slabs are read from its segment (or
        its inline overflow); over tcp it holds the other workers' parts
        as received from the sockets, and only our own slabs (a worker's
        messages to itself never touch the network) come from the segment."""
        wid = self.wid
        ovh = self._mem_overhead
        sizes = self._sizes
        pending = self._parts = {}

        def keep(tag, count, dst_bytes, sender_bytes, payload):
            if ovh is not None:
                self._recv_bytes += count * (sizes[tag] + ovh)
            pending.setdefault(tag, []).append(
                (
                    np.frombuffer(dst_bytes, dtype=np.int32),
                    np.frombuffer(sender_bytes, dtype=np.int32),
                    payload,
                    count,
                )
            )

        for source in range(self._w):
            if frames is not None and source != wid:
                for part in frames.get(source, _EMPTY):
                    keep(*part)
                continue
            seg_buf = self.segments[source].buf
            for dest, tag, count, offset, payload_len in directories[source]:
                if dest == wid:
                    mid = offset + 4 * count
                    pay = mid + 4 * count
                    keep(
                        tag,
                        count,
                        bytes(seg_buf[offset:mid]),
                        bytes(seg_buf[mid:pay]),
                        bytes(seg_buf[pay : pay + payload_len]),
                    )
            for dest, *part in inlines[source]:
                if dest == wid:
                    keep(*part)

    def _merge_parts(self, tag: int, parts: list, inbox: dict) -> None:
        """Decode one tag's parts into per-receiver message lists, merged
        by sender id (stable) — the simulator's exact per-receiver order."""
        if len(parts) == 1:
            dst_all, snd_all, payload, count = parts[0]
            records = self._unpack[tag](payload, count)
        else:
            dst_all = np.concatenate([p[0] for p in parts])
            snd_all = np.concatenate([p[1] for p in parts])
            records = []
            for _dst, _snd, payload, count in parts:
                records.extend(self._unpack[tag](payload, count))
        # Two stable sorts: first by sender (reconstructing the
        # simulator's global send order), then by receiver (grouping
        # bucket fills into list slices instead of per-record appends).
        by_sender = np.argsort(snd_all, kind="stable")
        order = by_sender[np.argsort(dst_all[by_sender], kind="stable")]
        sorted_dsts = dst_all[order]
        sorted_recs = [records[i] for i in order.tolist()]
        cuts = np.flatnonzero(sorted_dsts[1:] != sorted_dsts[:-1]) + 1
        starts = [0, *cuts.tolist()]
        ends = [*cuts.tolist(), len(sorted_recs)]
        for dst, a, b in zip(sorted_dsts[starts].tolist(), starts, ends):
            bucket = inbox.get(dst)
            if bucket is None:
                inbox[dst] = sorted_recs[a:b]
            else:
                bucket.extend(sorted_recs[a:b])

    def _gather(self) -> dict:
        """This partition's slice of every column: a typed column as its
        raw bytes, anything else (``_in_nbrs``, a column escalated to a
        list) as a list of values."""
        part = self._part_slice
        out = {}
        for name, column in self.engine._columns.items():
            if isinstance(column, array):
                out[name] = column[part].tobytes()
            else:
                out[name] = [column[v] for v in self._own_vids]
        return out


class MPBackend(ExecutionBackend):
    name = "mp"
    supports = {
        "ft": True,
        "net": False,
        "mem": True,
        "supervisor": True,
        "tracer": True,
        "combiners": True,
        "voting": True,
        "track_makespan": True,
        "range_partitioning": True,
    }

    def build_columns(self, schema, graph, fields, args):
        return build_typed_columns(schema, fields)

    def create_engine(
        self,
        graph: Graph,
        *,
        master_compute: Callable,
        message_size: Callable[[tuple], int],
        schema,
        engine_opts: dict,
    ) -> MPEngine:
        return MPEngine(
            graph,
            schema=schema,
            master_compute=master_compute,
            message_size=message_size,
            **engine_opts,
        )

    def column_values(self, column) -> list:
        return column.tolist() if isinstance(column, array) else column
