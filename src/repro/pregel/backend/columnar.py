"""Columnar backend: typed property columns + struct-packed message slabs.

Vertex properties live in ``array.array`` columns typed from the program
schema (``array`` indexing returns native Python scalars, so generated
code behaves identically on lists and columns).  Messages go through the
:class:`SlabPlane` — written once here, hosted by :class:`ColumnarEngine`,
which every ``mp`` worker runs over its partition — as per-tag *slabs*, a
destination-id array plus a packed payload buffer, instead of
per-destination tuple lists.  A
loop-invariant neighbor broadcast (``send_nbrs``) stages one CSR slice +
``record * degree`` bytes; a phase that ``repro.codegen.vectorize``
compiled to an array kernel skips the per-vertex loop and stages its
whole broadcast in one ``send_nbrs_bulk`` — along the out-CSR or, for an
in-neighbour send, the ``_in_nbrs`` rows, both behind one :class:`NbrGather`.

Composition policy, one for both hosts: the program alone decides which
phases run as array code.  A recording tracer and the simulated transport
read what the seal already holds; sender combiners fold a combined tag
when the seal closes it — its records, in send order, into one per
``(sending worker, dst)`` slot with the simulator's combiner callables;
under vote-to-halt a kernel computes the vertices the scalar loop would
and delivery wakes every receiver, a bulk handler's too.  Fault tolerance
costs no array code either: a checkpoint decodes the raw parts a host
keeps in flight, a rollback re-stages them as lone unfolded parts, a
confined replay's sends drop at its sender check.  ``columnar`` refuses
a limited memory budget, which charges the simulator's tuple outbox, and a
program without a schema (``BackendUnsupported``); ``mp`` charges a budget
from its exchange replies.  Metering is identical
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

from ..graph import Graph
from ..runtime import OUTSIDE_PHASE_ERROR, PregelEngine, _NO_MESSAGES
from .base import BackendUnsupported, ExecutionBackend
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


#: why ``columnar`` refuses a limited memory budget — at engine
#: construction and, before the graph loads, in the CLI
MEM_REFUSAL = (
    "the columnar backend does not support a limited memory budget: its "
    "message slabs are not charged against one (run with --backend sim, "
    "which spills, or mp)"
)


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
    one entry per record, ``senders`` and ``counts`` one per send,
    ``staged`` how many records the sends staged, and ``bulk`` is the
    ``(gather, edges)`` of a bulk send that staged all of it — its traffic
    reads off the gather's caches — else None.  A combined tag's seal folds
    its records, one per slot, and ``births`` holds each one's sender."""

    def __init__(self, tag: int):
        self.tag = tag
        self.singles: list[int] = []
        self.chunks: list = []
        self.payload = bytearray()
        self.senders: Any = []
        self.counts: Any = []
        self.runs: list = []
        self.bulk = None
        self.births = None

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

    def record_senders(self):
        """Each sealed record's sender, as int32."""
        if self.births is not None:
            return self.births
        return np.repeat(np.asarray(self.senders, dtype=np.int32), self.counts)


class SlabPlane:
    """The message plane of a host that computes some of the vertices — a
    :class:`ColumnarEngine` all of them, an ``mp`` worker its partition:
    the send API generated code and array kernels call, staged per tag as
    slabs, sealed once when the host's vertex phase is over, metered from
    the sealed arrays, and handed to the next phase's receive code.
    ``gather`` is the out-CSR under the placement; ``host`` supplies
    ``_current_vertex`` (who is sending), ``_ft_replaying``, ``graph``,
    ``_bulk_receivers`` and ``_combiners``, which the seal folds with.
    Votes, the wire and the inbox are the host's."""

    def __init__(self, codec: MessageCodec, gather: NbrGather, host):
        self.codec = codec
        self.gather = gather
        self.host = host
        self._combiners = host._combiners
        self._pack = codec.pack
        self._offsets = host.graph.out_offsets
        self._stage = {tag: _TagStage(tag) for tag in codec.tag_ids}
        self.bulk_records = self.scalar_records = 0  # of the last dispatch

    def _sender(self) -> int | None:
        """The vertex a scalar send is from; None during a confined-recovery
        replay, whose sends the original execution delivered (bulk sends
        never run in one)."""
        host = self.host
        sender = host._current_vertex
        if sender < 0:
            raise RuntimeError(OUTSIDE_PHASE_ERROR)
        return None if host._ft_replaying else sender

    def send(self, dst: int, msg: tuple) -> None:
        sender = self._sender()
        if sender is None:
            return
        tag = msg[0]
        stage = self._stage[tag]
        stage.senders.append(sender)
        stage.counts.append(1)
        stage.singles.append(dst)
        stage.payload += self._pack[tag](msg)

    def send_nbrs(self, vid: int, msg: tuple) -> None:
        s = self._offsets[vid]
        e = self._offsets[vid + 1]
        if s == e or self._sender() is None:
            return
        tag = msg[0]
        stage = self._stage[tag]
        stage.senders.append(vid)
        stage.counts.append(e - s)
        stage.flush()
        stage.chunks.append(self.gather.targets[s:e])
        stage.payload += self._pack[tag](msg) * (e - s)

    def send_list(self, dsts: list, msg: tuple) -> None:
        if dsts:
            self.send_each(dsts, [msg] * len(dsts))

    def send_each(self, dsts, msgs: list) -> None:
        """``msgs[k]`` to ``dsts[k]``, payloads of one tag: one run from the
        sender, the block packed in one join — the records, and the error
        on one the wire cannot carry, of one ``send`` per message."""
        sender = self._sender() if dsts else None
        if sender is None:
            return
        tag = msgs[0][0]
        payload = b"".join(map(self._pack[tag], msgs))
        stage = self._stage[tag]
        stage.senders.append(sender)
        stage.counts.append(len(dsts))
        stage.singles.extend(dsts)
        stage.payload += payload

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
        sent on — a combined tag's folded — a fresh one in its place for the
        next step."""
        combiners = self._combiners
        for tag in self.codec.tag_ids:
            stage = self._stage[tag]
            stage.close()
            if stage.chunks:
                self._stage[tag] = _TagStage(tag)
                stage.dsts = _joined(stage.chunks)
                stage.senders, stage.counts = map(_joined, zip(*stage.runs))
                stage.staged = len(stage.dsts)
                if len(stage.chunks) > 1:
                    stage.bulk = None
                if tag in combiners:
                    self._fold_slots(stage, combiners[tag])
                yield stage

    def _fold_slots(self, stage: _TagStage, combine: Callable) -> None:
        """The simulator's combiner table over a sealed tag: its records,
        decoded in send order, fold with ``combine`` into one slot per
        ``(sending worker, dst)``; each slot, in the order they opened,
        becomes one record from its first sender.  A folded payload is
        packed like any send's, so one the wire cannot carry raises."""
        senders, dsts = stage.record_senders(), stage.dsts
        # a slot's key: its dst (NIL included) in its sending worker's block
        block = len(self.gather.degrees) + 1
        keys = self.gather.owner[senders].astype(np.int64) * block + dsts + 1
        msgs = self.codec.unpack[stage.tag](stage.payload, stage.staged)
        folded: dict = {}
        for key, msg in zip(keys.tolist(), msgs):
            slot = folded.get(key)
            folded[key] = msg if slot is None else combine(slot, msg)
        opened = np.sort(np.unique(keys, return_index=True)[1])
        stage.dsts, stage.births = dsts[opened], senders[opened]
        stage.payload = b"".join(map(self._pack[stage.tag], folded.values()))
        stage.bulk = None

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
        ``PregelEngine.send`` and its combiner flush would have message by
        message: who sent, what crossed, — into ``step_work``, unless None
        — one unit per send at its sender and one per record at its
        receiver, and — into ``staged_bytes``, unless None — the wire bytes
        each worker staged (the tracer's).  A combined tag's sends count
        before the fold, its traffic after."""
        owner = self.gather.owner
        workers = len(metrics.worker_sent)
        sender_owner = owner[sealed.senders]
        sent = np.bincount(sender_owner, weights=sealed.counts, minlength=workers)
        sent = sent.astype(np.int64).tolist()
        if sealed.bulk is None:
            dst_owner = owner[sealed.dsts]
            crossing = owner[sealed.record_senders()] != dst_owner
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
            self._resolve_instruments(self._mreg)
        self._csr = csr = NbrGather.of_graph(graph, self._worker_of)
        self._plane = plane = SlabPlane(MessageCodec(schema), csr, self)
        for name in (
            "send", "send_nbrs", "send_list", "send_each", "send_nbrs_bulk", "send_to_bulk",
        ):  # fmt: skip
            setattr(self, name, getattr(plane, name))
        #: the next delivery's: tag -> its parts — the lone one the last
        #: vertex phase sealed; on an mp worker, one per sending worker
        self._sealed: dict[int, list] = {}
        #: how many vertices each worker owns
        self._worker_vertices = np.bincount(csr.owner, minlength=self.num_workers).tolist()
        #: a partition a kernel computes -> its vertex ids as int64
        self._partition_ids: dict = {}

    def _resolve_instruments(self, mreg) -> None:
        """The registry's ``columnar.*`` counters, resolved once."""
        self._m_slab_flushes = mreg.counter("columnar.slab_flushes")
        self._m_slab_records = mreg.counter("columnar.slab_records")
        self._m_bulk_records = mreg.counter("columnar.bulk_records")
        self._m_scalar_records = mreg.counter("columnar.scalar_records")
        self._m_kernel_vertices = mreg.counter("columnar.kernel_vertices")
        self._m_scalar_vertices = mreg.counter("columnar.scalar_vertices")

    def _install_tracing(self) -> None:
        self._trace_compute()  # the seal meters the plane's sends, whole

    def install_array_code(self, receivers: dict, kernels: dict) -> None:
        """Register the vectorizer's output: bulk receive handlers keyed by
        (state, tag), which the plane's dispatch hands whole slabs, and
        whole-phase kernels keyed by state, each run in place of the
        per-vertex loop.  The program alone decides which phases those are.
        """
        self._bulk_receivers = receivers
        self._phase_kernels = kernels
        self.metrics.vectorized_phases = vectorized_phases(receivers, kernels)

    def compile_array_code(self, build: Callable, decisions: list | None = None) -> None:
        """Compile the vectorizer against this engine and install its output:
        ``build(engine, decisions=None)`` returns ``(receivers, kernels)``."""
        self.install_array_code(*build(self, decisions=decisions))

    # -- vertex phase -----------------------------------------------------

    def _vertex_phase(self, frontier) -> int:
        # The master has already broadcast this superstep's state.
        kernel = self._phase_kernels.get(self.globals.broadcast.get("_state"))
        if kernel is None:
            ran = super()._vertex_phase(frontier)
        else:
            # The kernel computes what the scalar loop would: every vertex —
            # or, on an mp worker, every vertex of its partition, a range,
            # whose work its parent accounts — and under vote-to-halt only
            # the un-voted ones, or the sparse switch's frontier list.
            sel, owned = frontier, self._worker_vertices
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
                owned = np.bincount(self._csr.owner[sel], minlength=self.num_workers).tolist()
            ran = self.graph.num_nodes if sel is None else len(sel)
            if self._track_makespan:
                step_work = self._step_work
                for w, count in enumerate(owned):
                    step_work[w] += count
            t0 = perf_counter()
            kernel(sel)
            computed = self._trace_worker_computed  # empty unless a tracer records
            if computed:
                # what traced_compute counts vertex by vertex; the seconds
                # (info-only) are the kernel's wall split the same way
                each = (perf_counter() - t0) / max(1, ran)
                computed[:] = owned
                self._trace_worker_seconds[:] = [each * count for count in owned]
            slots = self._inbox_slots
            for dst in self._touched:
                slots[dst] = _NO_MESSAGES
        if self._mreg is not None:
            (self._m_scalar_vertices if kernel is None else self._m_kernel_vertices).inc(ran)
        self._seal()
        return ran

    def _seal(self) -> None:
        """Seal the phase's sends — inside the phase, so the driver's
        per-superstep deltas see them — meter them, and keep them for the
        next delivery.  Under ft, each record that crosses workers is one
        delivery the manager meters for transient loss, as a send is."""
        plane = self._plane
        metrics = self.metrics
        step_work = self._step_work if self._track_makespan else None
        staged_bytes = self._trace_worker_bytes or None
        crossed = metrics.net_messages
        for sealed in plane.seal():
            plane.meter_workers(metrics, step_work, sealed, staged_bytes)
            self._sealed[sealed.tag] = [(sealed.dsts, None, sealed.payload, len(sealed.dsts))]
        if self.ft is not None:
            self.ft.account_delivery(metrics.net_messages - crossed)

    def out_gather(self) -> NbrGather:
        """The gather of an out-direction bulk send: the graph's out-CSR."""
        return self._csr

    # -- checkpoint / restore -----------------------------------------

    def _in_flight(self) -> list:
        """What the next delivery reads, as ``parts_by_tag`` entries: the
        parts the last vertex phase sealed."""
        return [self._sealed]

    def outbox_view(self) -> dict[int, list]:
        """The in-flight ``{dst: msgs}`` map, decoded from the raw entries
        when a checkpoint or a confined-recovery log asks for it: per
        receiver, its records tag by tag as the dispatch decodes them."""
        inbox: dict[int, list] = {}
        for parts_by_tag in self._in_flight():
            for dst, msgs in self._plane.dispatch(None, parts_by_tag):
                inbox.setdefault(dst, []).extend(msgs)
        return inbox

    def _stage_inflight(self, outbox: dict) -> None:
        """Stage a checkpoint's ``{dst: msgs}`` as the next delivery: per
        tag a lone part holding every receiver's messages in their
        checkpointed order — packed as sends are, but never merged by
        sender nor folded (a combined tag's were folded when first sealed,
        per sending worker).  Unmetered: the restored ledger already holds
        their traffic."""
        pack = self._plane.codec.pack
        staged: dict[int, tuple[list, bytearray]] = {}
        for dst, msgs in outbox.items():
            for msg in msgs:
                dsts, payload = staged.setdefault(msg[0], ([], bytearray()))
                dsts.append(dst)
                payload += pack[msg[0]](msg)
        self._sealed = {
            tag: [(np.asarray(dsts, dtype=np.int32), None, payload, len(dsts))]
            for tag, (dsts, payload) in staged.items()
        }

    # -- barrier --------------------------------------------------------

    def _deliver(self) -> None:
        touched = self._touched
        touched.clear()
        slots = self._inbox_slots
        sealed, self._sealed = self._sealed, {}
        plane = self._plane
        if self._transport is not None and sealed:
            # Per destination worker, ascending, an empty batch skipped: the
            # calls, and so the RNG draws, of the tuple staging's route_part.
            dsts = np.concatenate([parts[0][0] for parts in sealed.values()])
            totals = np.bincount(self._csr.owner[dsts])
            for wid in np.flatnonzero(totals).tolist():
                self._transport.route_count(wid, int(totals[wid]))
        # The master has already broadcast this superstep's state, so the
        # handler keyed by (state, tag) is exactly the receive loop the
        # vertex phase would run on these records.  Per-receiver order
        # within a tag is global send order — for a combined tag, slot order
        # — the one sealed slab's.
        state = self.globals.broadcast.get("_state")
        if self._voted is not None:
            # The one wake: every receiver's vote clears, one indexed store
            # per part.  A bulk handler's receivers never reach ``touched``,
            # so when one consumes a tag the frontier re-reads the votes.
            awake = np.frombuffer(self._voted, dtype=np.uint8)
            for tag, parts in sealed.items():
                for part in parts:
                    awake[part[0]] = 0
                if (state, tag) in self._bulk_receivers:
                    self._frontier_dirty = True
        for dst, msgs in plane.dispatch(state, sealed):
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
            self._m_scalar_records.inc(plane.scalar_records)


class ColumnarBackend(ExecutionBackend):
    name = "columnar"
    supports = {
        "ft": True,
        "net": True,
        "mem": False,
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
    ) -> ColumnarEngine:
        if schema is None:
            raise BackendUnsupported(
                "the columnar backend needs a program schema (compiled programs only)"
            )
        mem = engine_opts.get("mem")
        if mem is not None and mem.limited:
            raise BackendUnsupported(MEM_REFUSAL)
        return ColumnarEngine(
            graph, schema=schema, vertex_compute=None, master_compute=master_compute,
            message_size=message_size, **engine_opts,
        )  # fmt: skip

    def column_values(self, column) -> list:
        return column.tolist() if isinstance(column, array) else column
