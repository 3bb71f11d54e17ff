"""Columnar backend: typed property columns + struct-packed message slabs.

Vertex properties live in ``array.array`` columns typed from the program
schema (``array`` indexing returns native Python scalars, so generated
code behaves identically on lists and columns).  Messages are staged as
per-tag *slabs* — a destination-id array plus a packed payload byte
buffer — instead of per-destination tuple lists, and decoded once at the
batched-routing barrier.  Loop-invariant neighbor broadcasts
(``send_nbrs``) stage one CSR slice + ``record * degree`` bytes, turning
the per-message Python send loop into a handful of bulk operations; a
phase that ``repro.codegen.vectorize`` compiled to an array kernel skips
the per-vertex loop altogether and stages a whole phase's broadcast in
one ``send_nbrs_bulk`` call — along the graph's out-CSR or, for an
in-neighbour send, along the ``_in_nbrs`` rows, both behind one
:class:`NbrGather`.

Composition policy: the slab fast path engages only when nothing needs to
observe individual staged messages.  Fault-tolerance checkpointing, the
simulated transport, a limited memory budget, a recording tracer, sender
combiners, and vote-to-halt all fall back to the simulator's tuple
staging — same typed columns, same metered quantities, same results —
so every robustness feature keeps working on this backend.  Metering is
identical either way: ``message_size`` is the schema wire size, so
``message_bytes`` always equals the actual slab payload bytes.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import chain
from typing import Callable

import numpy as np

from ..globalmap import fold_ordered
from ..graph import Graph
from ..runtime import PregelEngine, _NO_MESSAGES
from .base import ExecutionBackend
from .codec import MessageCodec


def build_typed_columns(schema, fields: dict[str, list]) -> dict:
    """Convert list columns to ``array.array`` columns per the schema.

    ``_in_nbrs`` (list-of-lists from the Incoming-Neighbors prologue) and
    any column whose initial values do not fit the scheduled typecode
    (e.g. a float-valued property handed to an Int field, which the
    simulator happily stores) keep a representation that can hold them.
    """
    out: dict = {}
    for name, values in fields.items():
        code = schema.columns.get(name)
        if code is None:
            out[name] = values  # _in_nbrs and friends: not a scalar column
            continue
        column = None
        start = {"b": 0, "q": 1, "d": 2}[code]
        for tc in ("b", "q", "d")[start:]:
            try:
                column = array(tc, values)
                break
            except (TypeError, OverflowError):
                continue
        out[name] = values if column is None else column
    return out


def vectorized_phases(receivers: dict, kernels: dict) -> list[str]:
    """``RunMetrics.vectorized_phases`` for installed array code: the
    phases that run either side — receive or compute — as array code."""
    states = {state for state, _tag in receivers} | set(kernels)
    return [f"phase{s}" for s in sorted(states)]


class NbrGather:
    """What a bulk neighbour send gathers from: per-vertex neighbour rows in
    CSR form beside the vertex placement.  One class, two directions: over
    the graph's out-CSR (``of_graph`` — zero-copy views, built once per
    engine; on ``mp`` before the fork, so every worker shares it
    copy-on-write) or over the ``_in_nbrs`` rows the §4.3 prologue built
    (``over_rows`` — derived by the array code at its first in-direction
    send).  The traffic a send along these rows meters — who owns each
    destination, how many of a sender's destinations another worker owns —
    is derived here, and only when a send asks for it."""

    def __init__(self, targets, offsets, owner):
        self.targets = targets  # int32, sender by sender
        self.offsets = offsets
        self.degrees = np.diff(offsets)
        self.owner = owner

    @classmethod
    def of_graph(cls, graph: Graph, worker_of) -> "NbrGather":
        if isinstance(worker_of, bytes):
            owner = np.frombuffer(worker_of, dtype=np.uint8)
        else:  # >256 workers: the placement table is a plain int list
            owner = np.asarray(worker_of, dtype=np.int64)
        return cls(
            np.asarray(graph.out_targets, dtype=np.int32),
            np.asarray(graph.out_offsets, dtype=np.int64),
            owner,
        )

    def over_rows(self, rows: list) -> "NbrGather":
        """The gather over ``rows`` — one neighbour list per vertex, kept in
        stored order — under this one's placement."""
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=offsets[1:])
        targets = np.fromiter(chain.from_iterable(rows), np.int32, int(offsets[-1]))
        return NbrGather(targets, offsets, self.owner)

    @cached_property
    def with_nbrs(self):
        """The vertices that have neighbours, ascending."""
        return np.flatnonzero(self.degrees)

    @cached_property
    def nbr_owner(self):
        return self.owner[self.targets]

    @cached_property
    def cross_nbrs(self):
        """Per vertex: how many of its neighbours another worker owns."""
        src = np.repeat(np.arange(len(self.degrees)), self.degrees)
        return np.bincount(
            src[self.nbr_owner != self.owner[src]], minlength=len(self.degrees)
        )

    def out_edges(self, senders):
        """``(edges, counts)`` for ascending ``senders`` that all have
        neighbours: the positions of their rows' entries — sender by
        sender, each row in stored order — and how many each sender has.
        ``edges`` is ``None`` when that is all of ``targets``, as it is."""
        counts = self.degrees[senders]
        if len(senders) == len(self.with_nbrs):
            return None, counts
        ends = np.cumsum(counts)
        edges = np.repeat(self.offsets[senders] - (ends - counts), counts)
        edges += np.arange(ends[-1])
        return edges, counts


class ColumnarEngine(PregelEngine):
    """PregelEngine whose staged messages are typed slabs.

    The run loop, scheduling, metering, and every hook are inherited; only
    the staging representation changes, behind ``_enqueue`` (the already
    swappable per-send dispatch) and the ``_deliver`` barrier hook.
    """

    def __init__(self, graph: Graph, *, schema=None, **engine_opts):
        super().__init__(graph, **engine_opts)
        self.schema = schema
        self.metrics.backend = "columnar"
        #: (phase state, tag) -> vectorized bulk receive handler, and
        #: phase state -> whole-phase array kernel; installed by the code
        #: generator, consulted only on the slab fast path.
        self._bulk_receivers: dict = {}
        self._phase_kernels: dict = {}
        tracing = self.tracer is not None and self.tracer.enabled
        self._slab_active = (
            schema is not None
            and not self._combiners
            and self._voted is None
            and self.ft is None
            and self._transport is None
            and not self._mem_limited
            and not tracing
        )
        if not self._slab_active:
            return
        if self._mreg is not None:
            self._m_slab_flushes = self._mreg.counter("columnar.slab_flushes")
            self._m_slab_records = self._mreg.counter("columnar.slab_records")
            self._m_bulk_records = self._mreg.counter("columnar.bulk_records")
            self._m_scalar_records = self._mreg.counter("columnar.scalar_records")
            self._m_kernel_vertices = self._mreg.counter("columnar.kernel_vertices")
            self._m_scalar_vertices = self._mreg.counter("columnar.scalar_vertices")
        self._codec = MessageCodec(schema)
        ntags = (max(schema.tags) + 1) if schema.tags else 0
        #: per-tag staging: interleave-ordered destination chunks (numpy
        #: CSR slices and flushed scalar-send runs) + packed payload bytes.
        self._slab_singles: list[list[int]] = [[] for _ in range(ntags)]
        self._slab_chunks: list[list] = [[] for _ in range(ntags)]
        self._slab_payloads: list[bytearray] = [bytearray() for _ in range(ntags)]
        self._csr = csr = NbrGather.of_graph(graph, self._worker_of)
        #: ``csr.cross_nbrs`` as Python ints, for the scalar ``send_nbrs``
        #: (its per-send hot path stays numpy-free); built on its first call
        self._cross_nbrs: list[int] | None = None
        #: how many vertices each worker owns
        self._worker_vertices = np.bincount(csr.owner, minlength=self.num_workers).tolist()
        self._enqueue = self._slab_enqueue  # type: ignore[method-assign]

    def install_array_code(self, receivers: dict, kernels: dict) -> None:
        """Register the vectorizer's output: bulk receive handlers keyed by
        (state, tag) and whole-phase kernels keyed by state.

        A registered handler consumes a whole per-tag slab at the delivery
        barrier — the tag's messages then never reach per-vertex inbox
        slots, and the scalar receive loop (tag-filtered) sees none of
        them, so effects are applied exactly once.  A registered kernel
        runs its phase's filter + compute body for every vertex in place
        of the per-vertex loop.  Only honored while the slab fast path is
        active; fallback staging keeps scalar semantics.
        """
        if self._slab_active:
            self._bulk_receivers = receivers
            self._phase_kernels = kernels
            self.metrics.vectorized_phases = vectorized_phases(receivers, kernels)

    # -- vertex phase -----------------------------------------------------

    def _vertex_phase(self, frontier) -> None:
        kernel = None
        if self._phase_kernels:
            # The master has already broadcast this superstep's state.
            kernel = self._phase_kernels.get(self.globals.broadcast.get("_state"))
        metered = self._mreg is not None and self._slab_active
        if kernel is None:
            super()._vertex_phase(frontier)
            if metered:
                self._m_scalar_vertices.inc(self.graph.num_nodes)
            return
        # Kernels exist only on the slab fast path, which excludes voting:
        # the phase computes every vertex, as the dense loop would.
        if self._track_makespan:
            step_work = self._step_work
            for w, owned in enumerate(self._worker_vertices):
                step_work[w] += owned
        kernel()
        slots = self._inbox_slots
        for dst in self._touched:
            slots[dst] = _NO_MESSAGES
        if metered:
            self._m_kernel_vertices.inc(self.graph.num_nodes)

    # -- staging --------------------------------------------------------

    def _slab_enqueue(self, dst: int, msg: tuple) -> None:
        # Scalar sends (random writes, per-edge payloads of scalar phases)
        # append to the pending singles run; send() does the metering.
        tag = msg[0]
        self._slab_singles[tag].append(dst)
        self._slab_payloads[tag] += self._codec.pack[tag](msg)

    def send_nbrs(self, vid: int, msg: tuple) -> None:
        if not self._slab_active:
            PregelEngine.send_nbrs(self, vid, msg)
            return
        if self._ft_replaying:
            return
        graph = self.graph
        s = graph.out_offsets[vid]
        e = graph.out_offsets[vid + 1]
        deg = e - s
        if deg == 0:
            return
        tag = msg[0]
        singles = self._slab_singles[tag]
        if singles:
            self._slab_chunks[tag].append(np.asarray(singles, dtype=np.int32))
            singles.clear()
        self._slab_chunks[tag].append(self._csr.targets[s:e])
        self._slab_payloads[tag] += self._codec.pack[tag](msg) * deg
        m = self.metrics
        size = self._codec.sizes[tag]
        sender_worker = self._worker_of[self._current_vertex]
        m.messages += deg
        m.message_bytes += size * deg
        m.worker_sent[sender_worker] += deg
        if self._cross_nbrs is None:
            self._cross_nbrs = self._csr.cross_nbrs.tolist()
        cross = self._cross_nbrs[vid]
        if cross:
            m.net_messages += cross
            m.net_bytes += size * cross
        if self._track_makespan:
            step_work = self._step_work
            step_work[sender_worker] += deg
            owners = self._csr.nbr_owner[s:e]
            for w, c in enumerate(np.bincount(owners, minlength=self.num_workers)):
                step_work[w] += int(c)

    def out_gather(self) -> NbrGather:
        """The gather of an out-direction bulk send: the graph's out-CSR."""
        return self._csr

    def put_global_bulk(self, name: str, op, vids, values) -> None:
        """Array code's puts to one global, one per selected vertex in
        ascending vid order (``vids`` None = every vertex): folded as the
        per-vertex ``put_global`` chain would have."""
        self.put_global(name, op, fold_ordered(op, values))

    def send_nbrs_bulk(self, tag: int, gather, senders, edges, counts, records) -> None:
        """A whole phase's neighbor sends in one: stage ``records[k]`` for
        ``gather.targets[edges[k]]``.

        ``edges``/``counts`` are ``gather.out_edges(senders)``; ``records``
        is the numpy array of packed wire records, one per staged message
        (None for an empty layout).  Staged order and every metered
        quantity come from the gather, and are exactly what the per-vertex
        ``send_nbrs`` / ``send_list`` calls — or a per-edge ``send`` loop —
        along the same rows would have produced.
        """
        dsts = gather.targets if edges is None else gather.targets[edges]
        singles = self._slab_singles[tag]
        if singles:
            self._slab_chunks[tag].append(np.asarray(singles, dtype=np.int32))
            singles.clear()
        self._slab_chunks[tag].append(dsts)
        if records is not None:
            self._slab_payloads[tag] += records.view(np.uint8).data
        m = self.metrics
        size = self._codec.sizes[tag]
        total = len(dsts)
        m.messages += total
        m.message_bytes += size * total
        workers = self.num_workers
        sent = np.bincount(gather.owner[senders], weights=counts, minlength=workers)
        for w, c in enumerate(sent.astype(np.int64).tolist()):
            m.worker_sent[w] += c
        cross = int(gather.cross_nbrs[senders].sum())
        if cross:
            m.net_messages += cross
            m.net_bytes += size * cross
        if self._track_makespan:
            step_work = self._step_work
            dst_owner = gather.nbr_owner if edges is None else gather.nbr_owner[edges]
            received = np.bincount(dst_owner, minlength=workers).tolist()
            for w in range(workers):
                step_work[w] += int(sent[w]) + received[w]

    def send_list(self, dsts: list, msg: tuple) -> None:
        if not self._slab_active:
            PregelEngine.send_list(self, dsts, msg)
            return
        if self._ft_replaying or not dsts:
            return
        n = len(dsts)
        tag = msg[0]
        self._slab_singles[tag].extend(dsts)
        self._slab_payloads[tag] += self._codec.pack[tag](msg) * n
        m = self.metrics
        size = self._codec.sizes[tag]
        worker_of = self._worker_of
        sender_worker = worker_of[self._current_vertex]
        m.messages += n
        m.message_bytes += size * n
        m.worker_sent[sender_worker] += n
        cross = 0
        for dst in dsts:
            if worker_of[dst] != sender_worker:
                cross += 1
        if cross:
            m.net_messages += cross
            m.net_bytes += size * cross
        if self._track_makespan:
            step_work = self._step_work
            step_work[sender_worker] += n
            for dst in dsts:
                step_work[worker_of[dst]] += 1

    # -- barrier --------------------------------------------------------

    def _deliver(self) -> None:
        if not self._slab_active:
            super()._deliver()
            return
        touched = self._touched
        touched.clear()
        slots = self._inbox_slots
        receiving = touched.append
        no_messages = _NO_MESSAGES
        metered = self._mreg is not None
        for tag in self._codec.tag_ids:
            singles = self._slab_singles[tag]
            chunks = self._slab_chunks[tag]
            if singles:
                chunks.append(np.asarray(singles, dtype=np.int32))
                singles.clear()
            if not chunks:
                continue
            dsts = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            self._slab_chunks[tag] = []
            payload = bytes(self._slab_payloads[tag])
            self._slab_payloads[tag] = bytearray()
            if metered:
                self._m_slab_flushes.inc()
                self._m_slab_records.inc(len(dsts))
            if self._bulk_receivers:
                # The master has already broadcast this superstep's state,
                # so the handler keyed by (state, tag) is exactly the
                # receive loop the vertex phase would run on these records.
                handler = self._bulk_receivers.get(
                    (self.globals.broadcast.get("_state"), tag)
                )
                if handler is not None:
                    handler(dsts, payload, len(dsts))
                    if metered:
                        self._m_bulk_records.inc(len(dsts))
                    continue
            if metered:
                self._m_scalar_records.inc(len(dsts))
            # Per-receiver order within a tag is global send order, which is
            # the order the one staged slab is in.
            part = (dsts, None, payload, len(dsts))
            for dst, msgs in self._codec.by_receiver(tag, [part]):
                bucket = slots[dst]
                if bucket is no_messages:
                    slots[dst] = msgs
                    receiving(dst)
                else:
                    bucket.extend(msgs)


class ColumnarBackend(ExecutionBackend):
    name = "columnar"
    supports = {
        "ft": "fallback",
        "net": "fallback",
        "mem": "fallback",
        "supervisor": True,
        "tracer": "fallback",
        "combiners": "fallback",
        "voting": "fallback",
        "track_makespan": True,
        "range_partitioning": True,
    }

    def build_columns(
        self, schema, graph: Graph, fields: dict[str, list], args: dict
    ) -> dict:
        return build_typed_columns(schema, fields)

    def create_engine(
        self,
        graph: Graph,
        *,
        master_compute: Callable,
        message_size: Callable[[tuple], int],
        schema,
        engine_opts: dict,
    ) -> ColumnarEngine:
        return ColumnarEngine(
            graph,
            schema=schema,
            vertex_compute=None,  # type: ignore[arg-type]
            master_compute=master_compute,
            message_size=message_size,
            **engine_opts,
        )

    def column_values(self, column) -> list:
        return column.tolist() if isinstance(column, array) else column
