"""Multiprocessing backend: real worker processes + shared-memory slabs.

The simulator *models* ``num_workers`` machines inside one process; this
backend makes them real: one forked OS process per worker, each computing
its partition of the vertices every superstep, exchanging the
columnar backend's typed message slabs through ``multiprocessing.shared_memory``
segments, and synchronizing at the same batched-routing barrier — here an
actual parent-coordinated barrier rather than a simulated one.

A worker is a process shell around the forked engine — :class:`MPEngine`
is a :class:`~repro.pregel.backend.columnar.ColumnarEngine`, whose vertex
phase, delivery and slab plane each worker runs over its partition.  It
compiles the program's array code (``repro.codegen.vectorize``) against
that engine after the fork and runs it where ``columnar`` would,
selected per phase from the IR; a phase the vectorizer refused keeps the
generated scalar program.  Under vote-to-halt a kernel computes the
partition's un-voted vertices; sender combiners fold in the worker's seal,
and a tracer, fault tolerance (recovery included), a memory budget and the
tcp transport read per-worker totals and whole slabs, so none of them
costs the kernels anything.  What the shell adds to a sealed tag is the
wire: the *part* — ``(dsts, senders, payload, count)``, one tag's records
for one receiving worker, whose layout, split by owner and decode
:mod:`~repro.pregel.backend.codec` owns — written once per receiver.  Array
code sends along the worker's partition gather (``NbrGather.of_partition``),
which caches the split of its rows by receiving worker, so a send along all
of them is written from that split straight into the segment; every other
tag is cut by ``split_by_owner``.  What an exchange leaves a worker is
``parts_by_tag``, and that is also the shape of the parent's in-flight log
and of a recovery seed.

Determinism (the whole point of the parity contract) is preserved by
order-reconstructing merges at the parent barrier:

* every slab record carries its **sender id**; a receiving worker keeps
  the incoming per-source parts raw and delivers them at its next step,
  when the broadcast state says which receive code they are for.  A
  stable sort on sender merges them into the simulator's per-receiver
  message order exactly (global send order = ascending sender id, since
  workers scan their partitions in ascending order and partitions
  interleave) — ahead of a bulk receive handler only if the vectorizer
  found an order-sensitive reduce in it (a float ``SUM``/``PRODUCT``),
  always ahead of the decode into the dense inbox;
* vertex **global-object puts** ship to the parent as one ``(vids,
  values)`` pair per global — a kernel's arrays, a generated loop's
  lists — and are re-folded in ascending-vid order with the one ordered
  fold (``globalmap.fold_ordered``), so even
  non-associative float reductions (a PageRank error sum) come out
  bit-identical to the single-process fold;
* **combiners** fold in each worker's seal (``SlabPlane``): one record per
  ``(dst, tag)`` slot, sent from the vid of the slot's *first* send, which
  travels in the parts like any record — the receiver's stable sender
  merge is then the simulator's combiner-table order (one slot per worker
  per receiver, opened by ascending vid);
* **fault tolerance** is ``columnar``'s, from the parent:
  ``checkpoint_state()`` first pulls every worker's live partition columns
  back into the parent's columns (so the registered ``ColumnState`` sees
  fresh data); the in-flight entries ``outbox_view()`` decodes are the
  parent's log of the last exchange — per worker the parts, copied raw out
  of the segments.  Recovery restores parent-side state — confined replay
  runs *in the parent* over the restored columns, its sends dropped by the
  plane as on ``columnar`` — and then **re-forks** the affected worker
  processes from the parent, which inherit the recovered columns
  copy-on-write and are seeded with their entry of that log (after a
  rollback: the checkpoint's messages, staged as ``columnar`` stages them
  and split by owner), so a recovered step runs the same array code as any
  other;
* **tracing** buffers per-process counters (computed, seconds, staged
  bytes) in each worker's barrier reply; the parent merges them by
  worker id into the same deterministic superstep records the simulator
  emits, so ``deterministic_jsonl`` projects identically across backends;
* **vote-to-halt** keeps one authoritative vote bitset in the parent:
  each forked worker inherits it copy-on-write, skips its voted vertices,
  clears votes for every vertex its delivery reaches (``columnar``'s one
  wake), and ships its partition's slice back in the exchange reply —
  before that wake; the parent folds the slices and
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
each spending a restart of ``FaultPlan.max_restarts`` as on ``sim``; past
the budget the run degrades to ``halt_reason="unrecoverable"`` and hands
back the latest checkpoint whole (live workers may have run ahead of the
dead one).  The plan's real faults — ``kill:W@S`` (real SIGKILL) and
``hang:W@S`` (sleep past the deadline) — exercise the path; shared-memory
segments and bound sockets are tracked in one module-wide registry and
released on every exit path (``finally`` + ``atexit``).

**Transports.** ``transport_mode="shm"`` (the default) carries every
slab through the shared-memory segments.  ``"tcp"`` adds a real network
data plane (:mod:`repro.pregel.backend.tcp`): each worker owns a
loopback listening socket bound in the parent before the fork, and the
*cross-worker* parts travel as length-prefixed CRC-framed messages with
per-destination sequence numbers, acks, bounded retransmit with
exponential backoff, and dedup — the :mod:`repro.pregel.net` delivery
discipline against real kernel buffers.  Parts are still written to the
segments in tcp mode (the parent's in-flight log, makespan
accounting, and delivery counts read them there), so shm and tcp runs
are bit-identical on ``parity_key()`` and outputs by construction; what
the receivers *deliver*, however, comes off the socket frames, so a
peer that cannot be reached (connection refused / reset / silent past
the per-peer deadline) is a classified real failure: the worker abandons
the exchange, reports ``{peer: cause}`` in its barrier reply, and the
parent folds the reports into a culprit, escalates through
``ft.recover_worker`` and re-seeds the surviving workers from its log.
``--inject-fault netsplit:W@S`` (the worker closes its listening socket
mid-exchange) and ``slowlink:W@S`` (the worker stalls past its peers'
deadline) inject real network faults on this path.

**Partitioning.** ``partitioning="hash"`` (default) interleaves vertex
ids across workers; ``"range"`` assigns contiguous id blocks with the
simulator's exact placement formula.  Both reconstruct the simulator's
per-receiver order from the same stable sender-vid sort — the sim
computes vertices in ascending global vid order whatever the placement,
and a sender vid sort restores exactly that for interleaved *and*
contiguous partitions.

The backend still refuses — with :class:`BackendUnsupported` — the
simulated transport (real pipes and sockets carry the slabs;
channel-fault modeling would have nothing real to model), and over shm a
scheduled network fault (:func:`fireable_faults`).
:func:`composition_refusals` and :func:`fireable_faults` let the CLI
validate a composition *before* loading a graph, with identical messages.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import time
import traceback
from array import array
from contextlib import contextmanager
from functools import cached_property
from itertools import accumulate, chain
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from ..ft import NETWORK_FAULT_KINDS, REAL_FAULT_KINDS, CrashEvent
from ..graph import Graph
from ..runtime import SuperstepRecord
from .base import BackendUnsupported
from .codec import read_part, split_by_owner, write_part
from .columnar import ColumnarBackend, ColumnarEngine, NbrGather

_EMPTY: tuple = ()

#: granularity of the deadline-based receive loop: how often the parent
#: re-checks the worker's sentinel while waiting for a barrier reply.
_POLL_TICK = 0.05

#: every shared-memory segment and parent-bound listener socket alive in
#: this process, by id.  A run releases its own on every exit path; the
#: atexit backstop sweeps whatever an aborted or interrupted run left
#: behind (``/dev/shm`` files outlive the process).  A listener is tracked
#: from bind until the parent closes its copy right after the owning
#: worker forks.  Both names the no-leak checks import are this registry.
_LIVE: dict[int, Any] = {}
_LIVE_SEGMENTS = _LIVE_SOCKETS = _LIVE


def _track(resource, *closers) -> None:
    """Register ``resource`` with what releasing it calls, in order (a
    segment: ``close`` then ``unlink``; a socket: ``close``)."""
    _LIVE[id(resource)] = (resource, closers)


def _release(resource) -> None:
    """Run a tracked resource's closers; a second release is a no-op."""
    _resource, closers = _LIVE.pop(id(resource), (None, ()))
    for close in closers:
        try:
            close()
        except OSError:  # closed or unlinked already
            pass


@atexit.register
def _release_all() -> None:
    for resource, _closers in list(_LIVE.values()):
        _release(resource)


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


def fireable_faults(transport_mode: str) -> tuple[str, ...]:
    """The real fault kinds an mp engine fires: the network ones over tcp."""
    network = () if transport_mode == "tcp" else NETWORK_FAULT_KINDS
    return tuple(kind for kind in REAL_FAULT_KINDS if kind not in network)


def composition_refusals(transport) -> list[str]:
    """Refusal messages for running a composition on the mp backend.

    Empty means the composition is supported.  Shared by
    :class:`MPEngine` construction and the CLI's pre-load validation, so
    a refused flag combination fails with the identical message whether
    it is caught in milliseconds (CLI, before the graph loads) or at
    engine construction.  Only the simulated ``transport`` is refused;
    every other composition runs (:attr:`MPBackend.supports`).
    """
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


def _slab_parts(segments, directories, inlines, sources, dest=None):
    """``(dest, tag, part)`` for every slab the ``sources`` workers wrote
    this superstep (only those for worker ``dest``, if given), copied out
    of each source's segment or its inline overflow."""
    for source in sources:
        seg_buf = segments[source].buf
        for to, tag, count, start, end in directories[source]:
            if dest is None or to == dest:
                yield to, tag, read_part(seg_buf[start:end], count)
        for to, tag, count, body in inlines[source]:
            if dest is None or to == dest:
                yield to, tag, read_part(body, count)


class MPEngine(ColumnarEngine):
    """Parent-side coordinator: the columnar engine with real worker
    processes for a body, each running its fork of this engine over its
    partition.  This class owns the process plumbing (``_session``), the
    barrier protocol (``_superstep_body``: step → stat fold → exchange →
    ready), real-failure recovery, and the parent's share of a checkpoint."""

    def __init__(
        self,
        graph: Graph,
        *,
        schema,
        vertex_compute: Callable | None = None,
        mp_slab_bytes: int | None = None,
        exchange_deadline: float = 30.0,
        transport_mode: str = "shm",
        **engine_opts,
    ):
        refusals = composition_refusals(engine_opts.get("transport"))
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
        if not (math.isfinite(exchange_deadline) and exchange_deadline > 0):
            raise ValueError("exchange_deadline must be > 0 and finite")
        if transport_mode not in ("shm", "tcp"):
            raise ValueError(
                f"unknown transport '{transport_mode}' (expected 'shm' or 'tcp')"
            )
        # What ``ft.attach`` checks a scheduled fault's kind against.
        self.REAL_FAULT_KINDS = fireable_faults(transport_mode)
        # The shared construction: ledger, placement, scheduling checks, the
        # ft → supervisor → mem attach sequence and the slab plane, all
        # inherited copy-on-write by every fork.  ``_voted`` is the one
        # authoritative vote bitset: each worker mutates its partition's
        # slice and ships it back in every exchange reply for the parent to
        # fold (the FT replay also reads/writes it directly).
        super().__init__(graph, schema=schema, vertex_compute=vertex_compute, **engine_opts)
        self.schema = schema
        self.metrics.backend = "mp"
        self.transport_mode = transport_mode
        w = self.num_workers
        # ``_part_slices[wid]`` is the column/bitset slice matching the
        # shared placement (``_worker_of``), so strided ('hash') and
        # contiguous ('range') partitions share every gather/scatter/vote
        # path below.
        if self.partitioning == "hash":
            self._part_slices = [slice(wid, None, w) for wid in range(w)]
        else:
            ends = list(accumulate(self._worker_vertices))
            self._part_slices = [
                slice(end - count, end) for end, count in zip(ends, self._worker_vertices)
            ]
        self._columns: dict[str, Any] = {}
        #: the vectorizer, ``build(engine) -> (receivers, kernels)``: each
        #: worker compiles its own array code with it after its fork (None:
        #: the workers run the generated scalar program throughout).
        self._array_code: Callable | None = None
        self._delivered = 0
        # real-failure machinery: the plan's real faults (the FT manager
        # fires its crashes), the exchange deadline, deferred detections.
        self._real_pending: list[CrashEvent] = [
            c for c in (self.ft.plan.crashes if self.ft else ()) if c.kind != "crash"
        ]
        self._exchange_deadline = float(exchange_deadline)
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
        #: set when an abandoned tcp exchange discarded what the live
        #: workers had received: the next _refork() re-seeds every
        #: surviving worker from the parent's log.
        self._reseed_live = False
        #: the in-flight log (ft only): per worker, what the last exchange
        #: left it — ``parts_by_tag``, the raw slab parts copied out of the
        #: segments, a worker's own ``_parts``.  A seed ships an entry as it
        #: is; ``outbox_view()`` decodes the log on demand.
        self._log: list[dict] = [{} for _ in range(w)]
        self._refork_all = False
        self._refork_workers: set[int] = set()
        # live process plumbing (populated by _session, mutated by _refork)
        self._mpctx = None
        self._segments: list = []
        self._conns: list = []
        self._procs: list = []
        self._workers: list[_Worker] = []
        if self._supervisor is not None:
            # The supervisor's scheduled silent crashes become real
            # SIGKILLs on this backend: same flag, real process death.
            self._real_pending.extend(
                CrashEvent(crash.worker, crash.superstep, "kill")
                for crash in self._supervisor.plan.silent_crashes
            )
        self._mem_prev_inbox = [0] * w
        if mp_slab_bytes is None:
            mem = self.mem
            per_record = 8 + self.schema.max_message_size()
            traffic = (graph.num_edges * 2) // w + graph.num_nodes
            mp_slab_bytes = clamp_slab_bytes(
                traffic * per_record, mem.plan if mem is not None else None
            )
        self._slab_bytes = mp_slab_bytes

    def _resolve_instruments(self, mreg) -> None:
        """None: each worker counts its partition's traffic under ``mp.*``."""

    def compile_array_code(self, build: Callable, decisions: list | None = None) -> None:
        """Take the vectorizer: ``build(engine, decisions=None)`` returns
        ``(receivers, kernels)`` compiled against ``engine``.

        Every worker compiles its own array code after its fork — against
        its forked engine, so kernels stage through its slabs and column
        views bind the process's live copy-on-write columns — and runs it
        per phase, from the IR, as ``columnar`` does.  The parent compiles
        once against itself and keeps none of it, for the record: which
        phases engage (``RunMetrics.vectorized_phases``) and why the others
        do not (``decisions``, the ``compile.vectorize`` trace events)."""
        self._array_code = build
        super().compile_array_code(build, decisions)
        self._bulk_receivers, self._phase_kernels = {}, {}

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
        self._hooks["on_superstep_start"] += (self._refork, self._fire_faults)

    # -- checkpoint / restore: the parent's share of the payload ---------
    #
    # Normal supersteps run the vertex phase in the worker processes; the
    # parent executes generated vertex code only while replaying a failed
    # partition over its restored columns, where its sends and puts are
    # dropped as on columnar, and its votes — state, not traffic — re-apply.

    def _in_flight(self) -> list:
        """The log: what the last exchange left each worker."""
        return self._log

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
        """Full rollback: the checkpoint's messages staged as ``columnar``
        stages them, split by owner into the log an exchange would have
        left.  The halt check's delivery count rewinds with the timeline:
        the checkpoint's in-flight set is what the restored superstep
        consumes."""
        outbox = state["outbox"]
        self._stage_inflight(outbox)
        w = self.num_workers
        self._log = [{} for _ in range(w)]
        for tag, [(dsts, _senders, payload, _count)] in self._sealed.items():
            parts = split_by_owner(dsts, dsts, payload, self._csr.owner[dsts], w)
            for parts_by_tag, part in zip(self._log, parts):
                if part is not None:
                    parts_by_tag[tag] = [part]
        self._sealed = {}
        self._delivered = sum(map(len, outbox.values()))

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
                _track(seg, seg.close, seg.unlink)
            if self.transport_mode == "tcp":
                # Bind every worker's listener *before* any fork: the full
                # port map is then inherited by every child, and each
                # child closes the siblings' copies in its own _init.
                from . import tcp as tcp_transport

                for _ in range(w):
                    sock = tcp_transport.bind_listener()
                    self._listeners.append(sock)
                    self._ports.append(sock.getsockname()[1])
                    _track(sock, sock.close)
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
                # collect what the live ones return.
                pass
            if self._abort_reason is not None:
                # The live workers may have run ahead of the dead one: hand
                # back the latest checkpoint whole, one consistent boundary.
                self.ft.rewind()
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
            for resource in (*self._segments, *self._listeners):
                _release(resource)

    def _spawn_worker(self, wid: int, *, fresh: bool) -> None:
        """Fork worker ``wid`` from the parent's current state.

        ``fresh=False`` replaces a terminated worker during recovery: the
        new process copy-on-write-inherits the parent's restored/replayed
        columns, and is seeded with its entry of the in-flight log (the
        healthy workers still hold theirs)."""
        ctx = self._mpctx
        seed = None
        if not fresh:
            seed = self._log[wid]
            if self.transport_mode == "tcp":
                # The replacement worker needs a live listener: the old
                # one died with the process (or was the netsplit).  Bind a
                # fresh port in the parent pre-fork and bump the worker's
                # epoch so every receiver resets its sequence stream.
                from . import tcp as tcp_transport

                _release(self._listeners[wid])
                sock = tcp_transport.bind_listener()
                _track(sock, sock.close)
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
            _release(self._listeners[wid])
        if fresh:
            self._conns.append(parent_conn)
            self._procs.append(proc)
        else:
            self._conns[wid] = parent_conn
            self._procs[wid] = proc
            parent_conn.send(("seed", seed))

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
            # An abandoned tcp exchange: the surviving workers kept no part
            # of it, so re-seed them from the parent's log — the very parts
            # a successful socket exchange would have left them.
            reforked = set(wids)
            live = [
                wid for wid in range(self.num_workers) if wid not in reforked
            ]
            for wid in live:
                self._send(wid, ("seed", self._log[wid]))
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

    def _fire_faults(self) -> None:
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

        Each death spends a restart of the fault plan's budget, through the
        supervisor when one is attached.  Returns False when the run must
        abort (budget spent, or no checkpoint to restore) — the caller
        degrades to ``halt_reason="unrecoverable"``; this never raises for
        a recoverable-contract failure and never hangs."""
        now = time.monotonic()
        if self._mreg is not None:
            for _wid, cause in failures:
                self._mreg.counter("mp.exchange_deadline_misses", cause=cause).inc()
        if self.ft is None:
            wid, cause = failures[0]
            raise RuntimeError(
                f"mp worker {wid} {_WorkerDead(wid, cause).describe()} "
                f"at superstep {self.superstep} with no fault tolerance "
                "attached (pass ft=... / --checkpoint-every to recover)"
            )
        supervisor = self._supervisor
        for wid, cause in failures:
            if supervisor is not None:
                recovered = supervisor.on_worker_failure(wid, now, cause)
            else:
                recovered = self.ft.recover_worker(wid)
            if not recovered:
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
        re-seeds every surviving worker from the parent's log."""
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
        w = self.num_workers
        supervisor = self._supervisor
        voted = self._voted
        # Vote-to-halt termination, the simulator's dense rule at the
        # same boundary: messages delivered at the last exchange wake
        # their receivers at the workers' next delivery, so "nothing
        # delivered and everyone voted" halts.
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
            self._send(wid, ("step", bcast, self.superstep, hang.get(wid, 0.0)))
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
                self._send(wid, ("step", bcast, self.superstep, 0.0))
        step_net = 0
        all_puts: list = []
        worker_computed = []
        worker_sent_step = []
        worker_seconds = []
        worker_bytes = []
        for wid, (_, _dir, _inline, counters, puts) in enumerate(replies):
            m.messages += counters.messages
            m.message_bytes += counters.message_bytes
            m.net_messages += counters.net_messages
            m.net_bytes += counters.net_bytes
            m.worker_sent[wid] += counters.sent
            step_net += counters.net_messages
            worker_computed.append(counters.computed)
            worker_sent_step.append(counters.sent)
            worker_seconds.append(counters.seconds)
            worker_bytes.append(counters.staged)
            all_puts.extend(puts)
        if ft is not None:
            # One delivery account per cross-worker record, as the simulator
            # meters during the phase and its combiner flush: the FT
            # manager's seeded retry counters come out identical.
            ft.account_delivery(step_net)
        self._fold_puts(all_puts)
        directories = [r[1] for r in replies]
        inlines = [r[2] for r in replies]
        if self._track_makespan:
            # The simulator's work units, left in ``_step_work`` for the
            # driver's makespan accounting: one per computed vertex, one
            # per send (sender side), one per record for its receiving
            # worker — a combined tag's folded ones.
            step_work = self._step_work
            for wid in range(w):
                step_work[wid] = worker_computed[wid] + worker_sent_step[wid]
            for entries in (*directories, *inlines):
                for dest, _tag, count, *_where in entries:
                    step_work[dest] += count
        if instr:
            t_exchange = time.perf_counter()
        # Over tcp the exchange command carries the current port/epoch map
        # (a within-superstep re-fork may have moved a listener) plus this
        # worker's armed network fault, if any; over shm, None.
        tcp = self.transport_mode == "tcp"
        ports, epochs = list(self._ports), list(self._epochs)
        net_now, self._net_now = self._net_now, {}
        for wid in range(w):
            net = None
            if tcp:
                fault = net_now.get(wid)
                if fault == "slowlink":
                    fault = ("slowlink", self._exchange_deadline * 1.5)
                net = {"ports": ports, "epochs": epochs, "fault": fault}
            self._send(wid, ("exchange", directories, inlines, net))
        # The exchange barrier: each worker replies ("ready",
        # route_seconds, registry_snapshot | None, received_bytes,
        # vote_slice | None, peer_report | None) — this is where the
        # per-worker registries merge into the parent's and the vote
        # bitset folds.  A death here is *deferred*: the dead worker's
        # slabs already sit in parent-owned segments (written before its
        # stat reply), so the superstep's bookkeeping completes and the
        # escalation runs at the next start-of-superstep boundary, where
        # recovery replays cover the missing reply's effects.
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
            _ready, route_s, snap, delivered_bytes[wid], votes, report = ready
            worker_route_seconds[wid] = route_s
            if mreg is not None and snap:
                mreg.merge_snapshot(snap)
            if votes is not None:
                voted[self._part_slices[wid]] = votes
            if report:
                peer_reports[wid] = report
        if peer_reports:
            self._fold_peer_reports(peer_reports)
        phases = {"exchange": time.perf_counter() - t_exchange} if instr else {}
        if voted is not None:
            # Deliveries of this exchange (consumed next superstep) —
            # the termination check's "inbox empty" side.
            self._delivered = sum(
                entry[2] for entries in (*directories, *inlines) for entry in entries
            )
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
            # Copy this superstep's parts out while the segments still hold
            # them: seeds ship them raw, checkpoint payloads and the
            # confined-recovery logs decode them through outbox_view().
            self._log = [{} for _ in range(w)]
            for dest, tag, part in _slab_parts(
                self._segments, directories, inlines, range(w)
            ):
                self._log[dest].setdefault(tag, []).append(part)
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

        A worker ships its bulk puts as they were made, ``(name, op, vids,
        values)`` — a kernel's arrays, a generated loop's lists.  Each
        global's puts become one vid-ordered run, folded by ``put_fold``:
        an array if they all are of one dtype, else Python values."""
        streams: dict[tuple, list] = {}
        for name, op, vids, values in puts:
            streams.setdefault((name, op), []).append((vids, values))
        folded = []
        for (name, op), parts in streams.items():
            vids = np.concatenate([np.asarray(vids) for vids, _values in parts])
            runs = [values for _vids, values in parts]
            # stable: one vertex's puts (one worker's) stay in program order
            order = np.argsort(vids, kind="stable")
            if all(isinstance(run, np.ndarray) for run in runs) and (
                len({run.dtype for run in runs}) == 1
            ):
                values = np.concatenate(runs)[order]
            else:
                items = list(chain.from_iterable(
                    run.tolist() if isinstance(run, np.ndarray) else run for run in runs
                ))  # fmt: skip
                values = [items[k] for k in order.tolist()]
            folded.append((vids[order[0]], name, op, values))
        # slots open in the order a sequential fold would have opened them
        folded.sort(key=lambda put: put[0])
        for _first, name, op, values in folded:
            self.globals.put_fold(name, op, values)

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
        for wid in range(self.num_workers):
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
                    values = array(column.typecode, values)
                column[part] = values


class _Worker:
    """One worker process: the shell around the forked engine.

    The worker adapts its copy of the parent's :class:`MPEngine` in place
    (``_init``) and runs the engine's delivery and vertex phase over its
    partition every superstep.  The shell adds what only a worker does:
    puts ship to the parent, each sealed tag is written as
    per-destination parts into the shared-memory segment, and the other
    workers' parts destined here are kept raw after the barrier until the
    next step's delivery, when the broadcast state says which receive code
    they are for.

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

    # -- what the forked engine's puts become ------------------------------

    def put_global_bulk(self, name: str, op, vids, values) -> None:
        """A generated loop's or array code's puts to one global: shipped
        whole, folded with the other workers' by the parent
        (``MPEngine._fold_puts``)."""
        self._puts.append((name, op, vids, values))

    @cached_property
    def _out(self) -> NbrGather:
        """What array code sends along: the out-CSR's rows of this
        partition, derived in the worker process when first asked for
        (every process built from this instance derives the same)."""
        return NbrGather.of_partition(self.engine._csr, self.wid, self.engine.num_workers)

    # -- process body ---------------------------------------------------

    def _init(self) -> None:
        engine = self.engine
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
        self._sizes = engine._plane.codec.sizes
        self._part_slice = engine._part_slices[self.wid]
        self._own = range(engine.graph.num_nodes)[self._part_slice]
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
        # What the next step consumes: the raw slab parts destined here,
        # per tag — left by an exchange, or shipped by the parent as a seed
        # (recovery re-fork, re-seed after an abandoned tcp exchange) from
        # its log of one.
        self._parts: dict[int, list] = {}
        # Memory budgets: per-delivery receive accounting (payload +
        # envelope, the MemPlan's charge model), reported in the exchange
        # reply and charged parent-side.
        self._mem_overhead = (
            engine.mem.plan.message_overhead_bytes
            if engine.mem is not None
            else None
        )
        self._recv_bytes = 0
        # The forked engine becomes this partition's: the shell counts
        # ``mp.*``, the parent accounts work from the replies, puts ship to
        # it, array code sends along the partition's rows, and the seal
        # writes the slabs.  Then the array code compiles against the engine.
        engine._mreg = None
        engine._track_makespan = False
        engine.put_global_bulk = self.put_global_bulk
        engine.out_gather = lambda: self._out
        engine._seal = self._write_slabs
        if engine._array_code is not None:
            engine.install_array_code(*engine._array_code(engine))

    @staticmethod
    def _fresh_counters() -> SimpleNamespace:
        # ``messages`` .. ``net_bytes``: the ledger fields the plane meters
        return SimpleNamespace(
            messages=0,
            sent=0,
            message_bytes=0,
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
                    # Recovery re-fork / post-abandon re-seed: install what
                    # the exchange would have left this partition (its next
                    # delivery wakes the receivers, as after any exchange).
                    _kind, self._parts = cmd
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
        """One vertex phase of the engine over this partition; returns the
        stat reply."""
        engine = self.engine
        _kind, broadcast, engine.superstep, hang = cmd
        engine.globals.broadcast.clear()
        engine.globals.broadcast.update(broadcast)
        if hang:
            # Injected hang: sleep past the parent's exchange deadline — it
            # detects the miss and recovers (we get terminated mid-nap by
            # the re-fork).
            time.sleep(hang)
        t0 = time.perf_counter()
        self._deliver()
        as_kernel = broadcast.get("_state") in engine._phase_kernels
        c = self._counters
        c.computed = computed = engine._vertex_phase(self._own)
        engine._current_vertex = -1
        c.seconds = time.perf_counter() - t0
        mreg = self._mreg
        if mreg is not None:
            wid = str(self.wid)
            mreg.histogram("mp.worker_step_seconds", worker=wid).observe(c.seconds)
            mreg.counter("mp.worker_staged_bytes", worker=wid).inc(c.staged)
            mreg.counter("mp.kernel_vertices", worker=wid).inc(computed if as_kernel else 0)
            mreg.counter("mp.scalar_vertices", worker=wid).inc(0 if as_kernel else computed)
        return ("stat", *self._slabs, c, self._puts)

    def _deliver(self) -> None:
        """Hand what the last exchange left here to the engine's delivery:
        the plane's dispatch into the dense inbox."""
        engine = self.engine
        engine._sealed, self._parts = self._parts, {}
        engine._deliver()
        if self._mreg is not None:
            plane = engine._plane
            wid = str(self.wid)
            self._mreg.counter("mp.bulk_records", worker=wid).inc(plane.bulk_records)
            self._mreg.counter("mp.scalar_records", worker=wid).inc(plane.scalar_records)

    def _exchange(self, cmd) -> tuple:
        """Collect the parts destined here; returns the ready reply."""
        t0 = time.perf_counter()
        self._recv_bytes = 0
        frames = report = None
        if self._tcp is not None:
            frames, report = self._exchange_tcp(cmd[1], cmd[2], cmd[3])
        voted = self.engine._voted
        # This partition's vote slice, as the phase left it: the next
        # step's delivery wakes the receivers, so the parent's fold is the
        # simulator's end-of-phase bitset (checkpoints and traces included).
        votes = bytes(voted[self._part_slice]) if voted is not None else None
        if not report:
            self._read_slabs(cmd[1], cmd[2], frames)
        # else a peer failed and the whole exchange is abandoned: no part of
        # it is kept (the parent re-seeds this worker after recovery); the
        # report carries the classified causes so the parent can fold blame.
        route_s = time.perf_counter() - t0
        snap = None
        mreg = self._mreg
        if mreg is not None:
            mreg.histogram(
                "mp.worker_route_seconds", worker=str(self.wid)
            ).observe(route_s)
            snap = mreg.snapshot(reset=True)
        return ("ready", route_s, snap, self._recv_bytes, votes, report)

    def _write_slabs(self) -> None:
        """The forked engine's seal: seal the plane, and do what only a real
        worker does with a sealed tag — one split by receiving worker, which its traffic is
        metered from (what crosses is what is not kept here), one write:
        each part goes into this worker's shared-memory segment in the
        codec's layout (``directory`` says where); anything past the
        segment's capacity travels ``inline`` over the pipe instead
        (correctness never depends on the size); ``_slabs`` keeps the two
        for the stat reply.  A send along all the
        partition's rows takes the split the partition gather cached, and
        each part's records go from the sealed payload straight into
        place; every other tag is cut by ``split_by_owner``.

        In tcp mode the cross-worker parts are *additionally* queued as
        socket frame bodies: the segments stay authoritative for the parent
        (its in-flight log, makespan, delivery counts — the structural
        parity guarantee), while the receivers take their parts from the
        frames."""
        seg = self.segments[self.wid]
        segment = np.frombuffer(seg.buf, dtype=np.uint8)
        offset = 0
        directory = []
        inline = []
        tcp_out = self._tcp_outgoing if self._tcp is not None else None
        owner = self.engine._csr.owner
        plane = self.engine._plane
        c = self._counters
        split = 0
        for sealed in plane.seal():
            tag, dsts, payload = sealed.tag, sealed.dsts, sealed.payload
            size = self._sizes[tag]
            count = len(dsts)
            bulk = sealed.bulk
            if bulk is not None and bulk[1] is None and bulk[0] is self._out:
                parts = [
                    cut and ((cut[0], cut[1], payload, len(cut[2])), cut[2])
                    for cut in self._out.owner_split
                ]
            else:
                senders = sealed.record_senders()
                parts = [
                    part and (part, None)
                    for part in split_by_owner(dsts, senders, payload, owner[dsts], self._w)
                ]
                split += count
            own = parts[self.wid]
            plane.meter(c, tag, count, count - (own[0][3] if own else 0))
            c.sent += sealed.staged
            c.staged += size * sealed.staged
            for dest, cut in enumerate(parts):
                if cut is None:
                    continue
                part, order = cut
                end = offset + part[3] * (8 + size)
                fits = end <= seg.size
                body = segment[offset:end] if fits else np.empty(end - offset, np.uint8)
                write_part(body, part, order)
                if fits:
                    directory.append((dest, tag, part[3], offset, end))
                    offset = end
                else:
                    inline.append((dest, tag, part[3], body.tobytes()))
                if tcp_out is not None and dest != self.wid:
                    tcp_out[dest].append((tag, part[3], body.tobytes()))
        if self._mreg is not None:
            self._mreg.counter("mp.split_records", worker=str(self.wid)).inc(split)
        self._slabs = directory, inline

    def _exchange_tcp(self, directories, inlines, net):
        """Run the socket leg of the exchange: ``(frames, None)`` — the
        other workers' parts destined here, ``{source: [(tag, part),
        ...]}`` — on success, else ``(None, {peer: cause})``, the failure
        report.

        The directories every worker shipped through the parent double as
        the receive manifest: each (dest==us) entry from another source
        is exactly one expected data frame, so completion needs no extra
        control messages.  An armed network fault fires here — a netsplit
        closes our listener before the loop (peers' connects then fail
        with ECONNREFUSED at the kernel), a slowlink stalls us past our
        peers' socket deadline."""
        tcp = self._tcp
        tcp.update_peers(net["ports"], net["epochs"])
        fault = net["fault"]
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
        pending = self._parts = {}
        for source in range(self._w):
            if frames is not None and source != wid:
                parts = frames.get(source, _EMPTY)
            else:
                parts = (
                    (tag, part)
                    for _dest, tag, part in _slab_parts(
                        self.segments, directories, inlines, (source,), wid
                    )
                )
            for tag, part in parts:
                if ovh is not None:
                    self._recv_bytes += part[3] * (self._sizes[tag] + ovh)
                pending.setdefault(tag, []).append(part)

    def _gather(self) -> dict:
        """This partition's slice of every column: a typed column as its
        raw bytes, anything else (``_in_nbrs``, a column escalated to a
        list) as the list slice — pickled, rows of vertex ids are smaller
        and rebuild faster than the same rows flattened to arrays."""
        part = self._part_slice
        out = {}
        for name, column in self.engine._columns.items():
            if isinstance(column, array):
                out[name] = column[part].tobytes()
            else:
                out[name] = column[part]
        return out


class MPBackend(ColumnarBackend):
    """The columnar backend's typed columns, run by real worker processes."""

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
