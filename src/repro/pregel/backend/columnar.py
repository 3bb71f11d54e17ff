"""Columnar backend: typed property columns + struct-packed message slabs.

Vertex properties live in ``array.array`` columns typed from the program
schema (``array`` indexing returns native Python scalars, so generated
code behaves identically on lists and columns).  Messages go through the
:class:`SlabPlane` — written once here, hosted by :class:`ColumnarEngine`
and by every ``mp`` worker — as per-tag *slabs*, a destination-id array
plus a packed payload buffer, instead of per-destination tuple lists.  A
loop-invariant neighbor broadcast (``send_nbrs``) stages one CSR slice +
``record * degree`` bytes; a phase that ``repro.codegen.vectorize``
compiled to an array kernel skips the per-vertex loop and stages its
whole broadcast in one ``send_nbrs_bulk`` — along the out-CSR or, for an
in-neighbour send, the ``_in_nbrs`` rows, both behind one :class:`NbrGather`.

Composition policy, one for both hosts: a recording tracer and the
simulated transport read what the seal already holds, so they cost no
array code; sender combiners and vote-to-halt observe individual sends, so
with either on the host keeps the generated scalar program
(``array_code_engages``) — still on slabs, a combined tag folded by the
inherited ``send``.  Checkpointing and a limited memory budget read the
simulator's tuple outbox: ``ColumnarBackend.create_engine`` gives those a
plain ``PregelEngine`` over the same typed columns.  Metering is identical
throughout: ``message_size`` is the schema wire size, so ``message_bytes``
always equals the actual slab payload bytes.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import chain
from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..globalmap import fold_ordered
from ..graph import Graph
from ..runtime import OUTSIDE_PHASE_ERROR, PregelEngine, _NO_MESSAGES
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


def array_code_engages(engine) -> bool:
    """Whether a slab host — ``ColumnarEngine``, ``MPEngine`` — runs the
    vectorizer's output: unless sender combiners or vote-to-halt, which
    observe individual sends, are on.  Nothing else turns array code off."""
    return not engine._combiners and engine._voted is None


def folding(plane_send: Callable, combined_tags, fold: Callable) -> Callable:
    """``plane_send`` behind a host's combiners — the plane knows nothing
    of them: a combined tag's message goes to ``fold(target, msg)``."""

    def send(target, msg: tuple) -> None:
        if msg[0] in combined_tags:
            fold(target, msg)
        else:
            plane_send(target, msg)

    return send


class NbrGather:
    """What a bulk neighbour send gathers from: per-vertex neighbour rows in
    CSR form beside the vertex placement.  One class, two directions: over
    the graph's out-CSR (``of_graph`` — zero-copy views, built once per
    engine; on ``mp`` before the fork, so every worker shares it
    copy-on-write) or over the ``_in_nbrs`` rows the §4.3 prologue built
    (``over_rows`` — derived by the array code at its first in-direction
    send).  The traffic a send along these rows meters — who owns each
    destination, how many of a sender's destinations another worker owns —
    is derived here, and only when a send asks for it.  An ``mp`` worker
    sends along its partition's rows (``of_partition``), whose split by
    receiving worker is derived once, too (``owner_split``)."""

    def __init__(self, targets, offsets, owner):
        self.targets = targets  # int32, sender by sender
        self.offsets = offsets
        self.degrees = np.diff(offsets)
        self.owner = owner
        #: each entry's position in the graph's out-CSR, where its edge
        #: properties live; None: the entries are at those positions
        self.edge_ids = None

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

    @classmethod
    def of_partition(cls, csr: "NbrGather", wid: int, workers: int) -> "NbrGather":
        """``csr`` restricted to the rows of the vertices worker ``wid``
        owns, of ``workers``: every other row is empty, so global vids
        still index it.  A range partition's entries are one stretch of
        ``csr``'s and are viewed, not copied."""
        rows = np.flatnonzero((csr.owner == wid) & (csr.degrees != 0))
        counts = csr.degrees[rows]
        edges = np.repeat(csr.offsets[rows] - np.cumsum(counts) + counts, counts)
        edges += np.arange(len(edges))
        offsets = np.zeros(len(csr.offsets), dtype=np.int64)
        offsets[rows + 1] = counts
        if len(edges) and edges[-1] - edges[0] + 1 == len(edges):
            targets = csr.targets[edges[0] : edges[-1] + 1]
        else:
            targets = csr.targets[edges]
        part = cls(targets, np.cumsum(offsets, out=offsets), csr.owner)
        part.edge_ids, part.workers = edges, workers
        return part

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
    def owner_split(self) -> list:
        """A partition's entries split by the worker that owns their
        destination: per receiving worker ``(dsts, senders, order)`` — its
        entries' destinations and int32 senders in stored order, and their
        positions in ``targets`` — or None where it owns none.  This is
        what ``split_by_owner`` cuts a send along all the rows into."""
        order = np.argsort(self.nbr_owner, kind="stable")
        senders = np.repeat(self.with_nbrs.astype(np.int32), self.degrees[self.with_nbrs])
        parts: list = []
        a = 0
        for b in np.cumsum(np.bincount(self.nbr_owner, minlength=self.workers)).tolist():
            mine = order[a:b]
            parts.append((self.targets[mine], senders[mine], mine) if b > a else None)
            a = b
        return parts

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


def _joined(chunks):
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class _TagStage:
    """One tag's staged sends, in send order: destination chunks (CSR
    slices, a kernel's gather, flushed runs of scalar-send ``singles``)
    beside the packed payload, and one ``(sender, count)`` run per send —
    the scalar sends' in ``senders`` / ``counts`` until a bulk send or the
    seal closes them into ``runs``.  Sealed, ``dsts`` and ``payload`` hold
    one entry per record, ``senders`` and ``counts`` one per send, and
    ``bulk`` is the ``(gather, edges)`` of a bulk send that staged all of
    it — its traffic reads off the gather's caches — else None."""

    def __init__(self, tag: int):
        self.tag = tag
        self.singles: list[int] = []
        self.chunks: list = []
        self.payload = bytearray()
        self.senders: Any = []
        self.counts: Any = []
        self.runs: list = []
        self.bulk = None

    def flush(self) -> None:
        """The scalar destinations so far become a chunk: a whole one is next."""
        if self.singles:
            self.chunks.append(np.asarray(self.singles, dtype=np.int32))
            self.singles = []

    def close(self) -> None:
        self.flush()
        if self.senders:
            self.runs.append((np.asarray(self.senders), np.asarray(self.counts)))
            self.senders, self.counts = [], []


class SlabPlane:
    """The message plane of a host that computes some of the vertices — a
    :class:`ColumnarEngine` all of them, an ``mp`` worker its partition:
    the send API generated code and array kernels call, staged per tag as
    slabs, sealed once when the host's vertex phase is over, metered from
    the sealed arrays, and handed to the next phase's receive code.
    ``gather`` is the out-CSR under the placement; ``host`` supplies
    ``_current_vertex`` (who is sending), ``graph`` and ``_bulk_receivers``.
    Combiners, votes, the wire and the inbox are the host's."""

    def __init__(self, codec: MessageCodec, gather: NbrGather, host):
        self.codec = codec
        self.gather = gather
        self.host = host
        self._pack = codec.pack
        self._offsets = host.graph.out_offsets
        self._stage = {tag: _TagStage(tag) for tag in codec.tag_ids}
        self.bulk_records = self.scalar_records = 0  # of the last dispatch

    def _sender(self) -> int:
        sender = self.host._current_vertex
        if sender < 0:
            raise RuntimeError(OUTSIDE_PHASE_ERROR)
        return sender

    def send(self, dst: int, msg: tuple) -> None:
        tag = msg[0]
        stage = self._stage[tag]
        stage.senders.append(self._sender())
        stage.counts.append(1)
        stage.singles.append(dst)
        stage.payload += self._pack[tag](msg)

    def send_nbrs(self, vid: int, msg: tuple) -> None:
        s = self._offsets[vid]
        e = self._offsets[vid + 1]
        if s == e:
            return
        self._sender()
        tag = msg[0]
        stage = self._stage[tag]
        stage.senders.append(vid)
        stage.counts.append(e - s)
        stage.flush()
        stage.chunks.append(self.gather.targets[s:e])
        stage.payload += self._pack[tag](msg) * (e - s)

    def send_list(self, dsts: list, msg: tuple) -> None:
        if not dsts:
            return
        tag = msg[0]
        stage = self._stage[tag]
        stage.senders.append(self._sender())
        stage.counts.append(len(dsts))
        stage.singles.extend(dsts)
        stage.payload += self._pack[tag](msg) * len(dsts)

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
        stage = self._stage[tag]
        stage.close()
        stage.chunks.append(gather.targets if edges is None else gather.targets[edges])
        stage.runs.append((senders, counts))
        stage.bulk = (gather, edges)
        if records is not None:
            stage.payload += records.view(np.uint8).data

    def send_to_bulk(self, tag: int, senders, dsts, records) -> None:
        """A whole phase's random writes in one: ascending ``senders[k]``
        sends ``records[k]`` (None for an empty layout) to vertex
        ``dsts[k]`` — what one scalar ``send`` per sender would have
        staged, NIL (-1) destinations included, and metered as those are."""
        wire = dsts.astype(np.int32)
        if not np.array_equal(wire, dsts):
            raise OverflowError("destination vertex id out of bounds for int32")
        stage = self._stage[tag]
        stage.close()
        stage.chunks.append(wire)
        stage.runs.append((senders, np.ones(len(senders), dtype=np.int64)))
        if records is not None:
            stage.payload += records.view(np.uint8).data

    def seal(self):
        """Close the step's staging: the sealed stage of every tag that was
        sent on, a fresh one in its place for the next step."""
        for tag in self.codec.tag_ids:
            stage = self._stage[tag]
            stage.close()
            if stage.chunks:
                self._stage[tag] = _TagStage(tag)
                stage.dsts = _joined(stage.chunks)
                stage.senders, stage.counts = map(_joined, zip(*stage.runs))
                if len(stage.chunks) > 1:
                    stage.bulk = None
                yield stage

    def meter(self, ledger, tag: int, count: int, cross: int) -> None:
        """The traffic of ``count`` sealed records of ``tag``, ``cross`` of
        them for another worker's vertices, on ``ledger``."""
        size = self.codec.sizes[tag]
        ledger.messages += count
        ledger.message_bytes += size * count
        ledger.net_messages += cross
        ledger.net_bytes += size * cross

    def meter_workers(self, metrics, step_work, sealed: _TagStage, staged_bytes=None) -> None:
        """Meter a sealed tag across all the placement's workers, as
        ``PregelEngine.send`` would have message by message: who sent, what
        crossed, — into ``step_work``, unless None — one unit per message
        at its sender and one at its receiver, and — into ``staged_bytes``,
        unless None — the wire bytes each worker staged (the tracer's)."""
        owner = self.gather.owner
        workers = len(metrics.worker_sent)
        sender_owner = owner[sealed.senders]
        sent = np.bincount(sender_owner, weights=sealed.counts, minlength=workers)
        sent = sent.astype(np.int64).tolist()
        if sealed.bulk is None:
            dst_owner = owner[sealed.dsts]
            crossing = np.repeat(sender_owner, sealed.counts) != dst_owner
            cross = int(np.count_nonzero(crossing))
        else:
            gather, edges = sealed.bulk
            cross = int(gather.cross_nbrs[sealed.senders].sum())
            if step_work is not None:
                dst_owner = gather.nbr_owner if edges is None else gather.nbr_owner[edges]
        self.meter(metrics, sealed.tag, len(sealed.dsts), cross)
        for w, c in enumerate(sent):
            metrics.worker_sent[w] += c
        if staged_bytes is not None:
            size = self.codec.sizes[sealed.tag]
            for w, c in enumerate(sent):
                staged_bytes[w] += size * c
        if step_work is not None:
            received = np.bincount(dst_owner, minlength=workers).tolist()
            for w in range(workers):
                step_work[w] += sent[w] + received[w]

    def dispatch(self, state, parts_by_tag: dict):
        """Hand the pending parts to the receive code of phase ``state``:
        a tag with a bulk handler for ``(state, tag)`` is consumed here, as
        arrays — several parts merged by sender only if the handler's fold
        observes order; every other tag is decoded and yielded as ``(dst,
        msgs)``, one pair per receiver per tag, for the scalar receive
        loops, which are tag-filtered: effects apply exactly once.  Counts
        both kinds, for the host's registry."""
        codec = self.codec
        receivers = self.host._bulk_receivers
        self.bulk_records = self.scalar_records = 0
        for tag in codec.tag_ids:
            parts = parts_by_tag.get(tag)
            if not parts:
                continue
            handler = receivers.get((state, tag))
            if handler is None:
                self.scalar_records += sum(part[3] for part in parts)
                yield from codec.by_receiver(tag, parts)
            else:
                ordered = handler.ordered_merge is not None
                dsts, payload, count = codec.merge_parts(tag, parts, ordered)
                handler(dsts, payload, count)
                self.bulk_records += count


class ColumnarEngine(PregelEngine):
    """PregelEngine whose staged messages are typed slabs: the inherited
    driver and in-process body over one :class:`SlabPlane` for all the
    vertices.  The plane's send API shadows the inherited one, the vertex
    phase ends in the seal, and ``_deliver`` is the plane's dispatch into
    the dense inbox.
    """

    def __init__(self, graph: Graph, *, schema, **engine_opts):
        super().__init__(graph, **engine_opts)
        self.metrics.backend = "columnar"
        #: (phase state, tag) -> vectorized bulk receive handler, and
        #: phase state -> whole-phase array kernel; installed by the code
        #: generator.
        self._bulk_receivers: dict = {}
        self._phase_kernels: dict = {}
        if self._mreg is not None:
            self._m_slab_flushes = self._mreg.counter("columnar.slab_flushes")
            self._m_slab_records = self._mreg.counter("columnar.slab_records")
            self._m_bulk_records = self._mreg.counter("columnar.bulk_records")
            self._m_scalar_records = self._mreg.counter("columnar.scalar_records")
            self._m_kernel_vertices = self._mreg.counter("columnar.kernel_vertices")
            self._m_scalar_vertices = self._mreg.counter("columnar.scalar_vertices")
        self._csr = csr = NbrGather.of_graph(graph, self._worker_of)
        self._plane = SlabPlane(MessageCodec(schema), csr, self)
        self._bind_sends(super().send)
        #: the next delivery's: tag -> the lone part the last vertex phase
        #: sealed, and the ``(dst, msg)`` its combiner flush folded — off the
        #: wire: a folded value never meets the packers
        self._sealed: dict[int, list] = {}
        self._folded: list = []
        #: how many vertices each worker owns
        self._worker_vertices = np.bincount(csr.owner, minlength=self.num_workers).tolist()

    def _bind_sends(self, fold: Callable) -> None:
        """Shadow the inherited send API with the plane's.  A combined tag's
        message takes ``fold`` instead — the inherited ``send``, so the fold and
        its flush are the simulator's; the inherited list sends loop over it."""
        plane = self._plane
        self.send_nbrs_bulk = plane.send_nbrs_bulk
        self.send_to_bulk = plane.send_to_bulk
        for name in ("send", "send_nbrs", "send_list"):
            send = getattr(plane, name)
            if self._combiners:
                inherited = fold if name == "send" else getattr(super(), name)
                send = folding(send, self._combiners, inherited)
            setattr(self, name, send)

    def _install_tracing(self) -> None:
        # The seal meters the plane's sends for the tracer, whole; only a
        # combined tag's — the inherited fold — go message by message.
        self._trace_compute()
        self._bind_sends(self._traced_send())

    def _enqueue(self, dst: int, msg: tuple) -> None:
        self._folded.append((dst, msg))  # the combiner flush: its only caller here

    def install_array_code(self, receivers: dict, kernels: dict) -> None:
        """Register the vectorizer's output: bulk receive handlers keyed by
        (state, tag), which the plane's dispatch hands whole slabs, and
        whole-phase kernels keyed by state, each run in place of the
        per-vertex loop.  Honored unless the composition observes single
        sends (``array_code_engages``).
        """
        if array_code_engages(self):
            self._bulk_receivers = receivers
            self._phase_kernels = kernels
            self.metrics.vectorized_phases = vectorized_phases(receivers, kernels)

    # -- vertex phase -----------------------------------------------------

    def _vertex_phase(self, frontier) -> int:
        # The master has already broadcast this superstep's state.
        kernel = self._phase_kernels.get(self.globals.broadcast.get("_state"))
        if kernel is None:
            ran = super()._vertex_phase(frontier)
        else:
            # Array code and voting never meet: the phase computes every
            # vertex, as the dense loop would.
            ran = self.graph.num_nodes
            owned = self._worker_vertices
            if self._track_makespan:
                step_work = self._step_work
                for w, count in enumerate(owned):
                    step_work[w] += count
            t0 = perf_counter()
            kernel()
            computed = self._trace_worker_computed  # empty unless a tracer records
            if computed:
                # what traced_compute counts vertex by vertex; the seconds
                # (info-only) are the kernel's wall split by owned vertices
                each = (perf_counter() - t0) / max(1, ran)
                computed[:] = owned
                self._trace_worker_seconds[:] = [each * count for count in owned]
            slots = self._inbox_slots
            for dst in self._touched:
                slots[dst] = _NO_MESSAGES
        if self._mreg is not None:
            (self._m_scalar_vertices if kernel is None else self._m_kernel_vertices).inc(ran)
        # Sealed inside the phase, so the driver's per-superstep deltas see
        # this superstep's sends; the records wait for the next delivery.
        plane = self._plane
        step_work = self._step_work if self._track_makespan else None
        staged_bytes = self._trace_worker_bytes or None
        for sealed in plane.seal():
            plane.meter_workers(self.metrics, step_work, sealed, staged_bytes)
            self._sealed[sealed.tag] = [(sealed.dsts, None, sealed.payload, len(sealed.dsts))]
        return ran

    def out_gather(self) -> NbrGather:
        """The gather of an out-direction bulk send: the graph's out-CSR."""
        return self._csr

    def put_global_bulk(self, name: str, op, vids, values) -> None:
        """Array code's puts to one global, one per selected vertex in
        ascending vid order (``vids`` None = every vertex): folded as the
        per-vertex ``put_global`` chain would have."""
        self.put_global(name, op, fold_ordered(op, values))

    # -- barrier --------------------------------------------------------

    def _deliver(self) -> None:
        touched = self._touched
        touched.clear()
        slots = self._inbox_slots
        sealed, self._sealed = self._sealed, {}
        folded, self._folded = self._folded, []
        plane = self._plane
        if self._transport is not None:
            # Per destination worker, ascending, an empty batch skipped: the
            # calls, and so the RNG draws, of the tuple staging's route_part.
            dsts = [parts[0][0] for parts in sealed.values()]
            dsts.append(np.fromiter((dst for dst, _msg in folded), np.int64, len(folded)))
            totals = np.bincount(self._csr.owner[np.concatenate(dsts)])
            for wid in np.flatnonzero(totals).tolist():
                self._transport.route_count(wid, int(totals[wid]))
        # The master has already broadcast this superstep's state, so the
        # handler keyed by (state, tag) is exactly the receive loop the
        # vertex phase would run on these records.  Per-receiver order
        # within a tag is global send order: the one sealed slab's, and —
        # as the flush enqueues last — the folded messages after it.
        delivered = plane.dispatch(self.globals.broadcast.get("_state"), sealed)
        for dst, msgs in chain(delivered, ((dst, [msg]) for dst, msg in folded)):
            bucket = slots[dst]
            if bucket is _NO_MESSAGES:
                slots[dst] = msgs
                touched.append(dst)
            else:
                bucket.extend(msgs)
        if self._mreg is not None:
            self._m_slab_flushes.inc(len(sealed))
            self._m_slab_records.inc(plane.bulk_records + plane.scalar_records)
            self._m_bulk_records.inc(plane.bulk_records)
            self._m_scalar_records.inc(plane.scalar_records + len(folded))


class ColumnarBackend(ExecutionBackend):
    name = "columnar"
    supports = {
        "ft": "fallback",
        "net": True,
        "mem": "fallback",
        "supervisor": True,
        "tracer": True,
        "combiners": True,
        "voting": True,
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
    ) -> PregelEngine:
        opts = dict(
            engine_opts, vertex_compute=None, master_compute=master_compute, message_size=message_size
        )
        mem = engine_opts.get("mem")
        if schema is None or engine_opts.get("ft") is not None or (mem is not None and mem.limited):
            # The one choice between slabs and tuple staging: checkpoints,
            # recovery logs and budget charges read the tuple outbox, and no
            # schema is no wire layout — ``supports``' "fallback".
            engine = PregelEngine(graph, **opts)
            engine.metrics.backend = self.name
            return engine
        return ColumnarEngine(graph, schema=schema, **opts)

    def column_values(self, column) -> list:
        return column.tolist() if isinstance(column, array) else column
