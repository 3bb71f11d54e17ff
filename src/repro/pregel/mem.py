"""Per-worker memory accounting and flow control for the Pregel simulator.

Every real Pregel runtime bounds its buffers: GPS caps per-worker message
buffers, Giraph spills out-of-core and splits supersteps when even spilling
cannot fit.  The simulator so far assumed infinite memory — a high-degree
hub or a dense superstep could grow inboxes and outboxes without bound, and
resource exhaustion was the one failure class with no injection, no
accounting, and no degradation path.  This module adds that layer:

* **Byte-metered budgets** — every inbox, outbox, combiner table, and
  checkpoint buffer charges a per-worker :class:`MemoryBudget` (payload
  bytes under the engine's own ``message_size`` model, so the accounting
  matches the paper's network metering).  ``--mem-budget BYTES[@W]`` makes
  exhaustion a first-class, reproducible fault like ``--inject-fault``.
* **Credit-based backpressure** — at the delivery barrier a sender acquires
  credit against the *destination* worker's budget and routes its batch in
  bounded chunks; when the destination is over budget the chunk parks until
  an inbox spill frees credit, so routing completes under any budget that
  fits the largest single message.
* **Spill-to-disk** — an over-budget inbox spills its resident buckets as a
  sorted run (ascending destination id, one pickled ``(dst, msgs)`` record
  per vertex) to a temp file; the vertex phase, which visits vertices in
  ascending id order in every scheduling mode, merge-reads the runs with
  sequential cursors.  Spilled traffic is metered in
  ``RunMetrics.spilled_bytes`` / ``spill_files``.
* **Graceful degradation** — when the *outbox* cannot fit, the superstep is
  split Giraph-style: the staged sub-batch is flushed to a sorted run
  mid-phase (``superstep_splits``) and re-merged at the next barrier.  Only
  a budget that cannot hold a single vertex's materialized inbox (or the
  combiner table, or the checkpoint window) is unsatisfiable: the run then
  degrades to ``halt_reason="out_of_memory"`` with a structured
  :class:`MemoryReport` instead of raising.

Determinism: none of this machinery changes *what* is delivered or in what
per-receiver order — spilled runs replay each receiver's messages in send
order ahead of the still-resident tail, and the vertex phase materializes
exactly the list a budget-free run would have seen.  Outputs and
``RunMetrics.parity_key()`` are bit-identical under any completing budget;
the new counters live outside the parity key, like the transport's fault
counters.  The unlimited-budget fast path installs nothing (the engine
checks one flag per run), mirroring the tracer's zero-overhead contract.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Iterator

# MemoryExhausted is defined beside the engine that catches it, so a run
# without a budget never loads this module; it is re-exported from here.
from .runtime import MemoryExhausted, PregelEngine

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: effectively-unlimited sentinel for workers without a finite budget
_UNLIMITED = 1 << 62

#: flat-list chunk size for the streamed checkpoint encoder (values per
#: record); 256 floats pickle to ~2KB, inside the 4KB window
_CKPT_LIST_CHUNK = 256

#: nesting depth to which the checkpoint encoder decomposes containers;
#: deep enough to reach payload -> engine -> outbox -> per-vertex buckets.
_CKPT_DEPTH = 4

#: fraction of the budget at which the outbox splits / the inbox spills,
#: leaving headroom for the allocation that crossed it; the hard budget
#: still gates irreducible allocations.
SPILL_WATERMARK = 0.875

#: the in-memory buffer granularity of the streamed checkpoint writer (its
#: charge against the budget).
CHECKPOINT_WINDOW_BYTES = 4096

#: envelope cost charged per message on top of the program's declared
#: payload size.  The network meter counts payload only (a BFS token is 0
#: wire bytes), but a buffered message always occupies memory — the tuple,
#: the list slot, the bookkeeping — so budgets charge payload + envelope.
MESSAGE_OVERHEAD_BYTES = 16


@dataclass(frozen=True)
class MemPlan:
    """Everything about a run's memory model, fixed up front (deterministic).

    * ``budget_bytes`` — the per-worker byte budget; 0 means unlimited.
    * ``worker_budgets`` — ``(worker, bytes)`` overrides for targeted
      exhaustion (the ``BYTES@W`` CLI form); workers without an override
      use ``budget_bytes`` (unlimited if that is 0).
    * ``spill_dir`` — parent directory for the run's private spill
      directory; ``None`` uses the system temp dir.  The private directory
      is always deleted when the run ends.
    """

    budget_bytes: int = 0
    worker_budgets: tuple[tuple[int, int], ...] = ()
    spill_dir: str | None = None

    def __post_init__(self):
        if self.budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 (0 = unlimited)")
        for worker, budget in self.worker_budgets:
            if worker < 0:
                raise ValueError(f"worker index must be >= 0, got {worker}")
            if budget <= 0:
                raise ValueError(
                    f"per-worker budget must be > 0, got {budget} for worker {worker}"
                )

    @property
    def limited(self) -> bool:
        return self.budget_bytes > 0 or bool(self.worker_budgets)


_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _parse_bytes(text: str) -> int:
    raw = text.strip().lower()
    scale = 1
    if raw and raw[-1] in _SUFFIXES:
        scale = _SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw) * scale
    except ValueError:
        raise ValueError(
            f"invalid byte count '{text}': expected an integer with an "
            "optional k/m/g suffix, e.g. 65536 or 64k"
        ) from None
    if value <= 0:
        raise ValueError(f"byte count must be > 0, got '{text}'")
    return value


def parse_mem_budget(specs: Iterable[str]) -> MemPlan:
    """Parse the CLI syntax: each spec is ``BYTES`` (every worker) or
    ``BYTES@WORKER`` (one worker), bytes with an optional k/m/g suffix —
    e.g. ``--mem-budget 64k --mem-budget 4096@1``."""
    base = 0
    overrides: dict[int, int] = {}
    for spec in specs:
        text = spec.strip()
        if "@" in text:
            value_text, worker_text = text.split("@", 1)
            try:
                worker = int(worker_text)
            except ValueError:
                raise ValueError(
                    f"invalid worker index in '{spec}': expected BYTES@WORKER, e.g. 4096@1"
                ) from None
            if worker < 0:
                raise ValueError(f"worker index must be >= 0 in '{spec}'")
            if worker in overrides:
                raise ValueError(f"duplicate budget for worker {worker} in '{spec}'")
            overrides[worker] = _parse_bytes(value_text)
        else:
            if base:
                raise ValueError(
                    f"duplicate global budget '{spec}': pass one BYTES spec, "
                    "plus optional BYTES@WORKER overrides"
                )
            base = _parse_bytes(text)
    return MemPlan(budget_bytes=base, worker_budgets=tuple(sorted(overrides.items())))


class MemoryBudget:
    """One worker's byte ledger: resident inbox + staged outbox + the
    materialized inbox of the vertex currently computing, against a fixed
    budget with a soft spill watermark."""

    __slots__ = (
        "worker",
        "budget_bytes",
        "soft_bytes",
        "inbox_bytes",
        "outbox_bytes",
        "fetch_bytes",
        "peak_bytes",
    )

    def __init__(self, worker: int, budget_bytes: int):
        self.worker = worker
        self.budget_bytes = budget_bytes
        self.soft_bytes = (
            max(1, int(budget_bytes * SPILL_WATERMARK))
            if budget_bytes < _UNLIMITED
            else _UNLIMITED
        )
        self.inbox_bytes = 0
        self.outbox_bytes = 0
        self.fetch_bytes = 0
        self.peak_bytes = 0

    @property
    def limited(self) -> bool:
        return self.budget_bytes < _UNLIMITED

    def total(self) -> int:
        return self.inbox_bytes + self.outbox_bytes + self.fetch_bytes

    def note_peak(self) -> None:
        total = self.inbox_bytes + self.outbox_bytes + self.fetch_bytes
        if total > self.peak_bytes:
            self.peak_bytes = total


class _SpillRef:
    """Inbox-slot marker: this vertex's messages live (partly) in spill
    runs; ``tail`` holds whatever arrived after the last spill and is still
    resident.  The budgeted vertex loop materializes the full list through
    :meth:`MemoryManager.fetch_messages` when it reads the slot."""

    __slots__ = ("tail",)

    def __init__(self):
        self.tail: list = []


class _FetchingSlots:
    """The inbox slots as a budgeted vertex loop reads them: a spilled
    vertex's messages are materialized (and charged) on read."""

    __slots__ = ("_slots", "_fetch")

    def __init__(self, slots, fetch):
        self._slots = slots
        self._fetch = fetch

    def __getitem__(self, vid: int):
        messages = self._slots[vid]
        if type(messages) is _SpillRef:
            return self._fetch(vid, messages)
        return messages


class _RunReader:
    """Sequential cursor over one sorted spill run (ascending dst)."""

    __slots__ = ("path", "head", "_file")

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "rb")
        self.head: tuple[int, list] | None = None
        self.advance()

    def advance(self) -> None:
        try:
            self.head = pickle.load(self._file)
        except EOFError:
            self.head = None
            self._file.close()

    def close(self) -> None:
        if self.head is not None:
            self._file.close()
            self.head = None


@dataclass
class MemoryReport:
    """The structured memory summary of one run — what the CLI prints and
    an OOM degradation carries instead of a traceback."""

    budget_bytes: int
    worker_budgets: dict[int, int]
    peak_bytes: list[int] = field(default_factory=list)
    spilled_bytes: int = 0
    spill_files: int = 0
    outbox_parks: int = 0
    superstep_splits: int = 0
    checkpoint_peak_bytes: int = 0
    largest_message_bytes: int = 0
    largest_vertex_inbox_bytes: int = 0
    oom: dict | None = None

    def to_dict(self) -> dict:
        return {
            "budget_bytes": self.budget_bytes,
            "worker_budgets": dict(self.worker_budgets),
            "peak_bytes": list(self.peak_bytes),
            "spilled_bytes": self.spilled_bytes,
            "spill_files": self.spill_files,
            "outbox_parks": self.outbox_parks,
            "superstep_splits": self.superstep_splits,
            "checkpoint_peak_bytes": self.checkpoint_peak_bytes,
            "largest_message_bytes": self.largest_message_bytes,
            "largest_vertex_inbox_bytes": self.largest_vertex_inbox_bytes,
            "oom": dict(self.oom) if self.oom else None,
        }

    def summary(self) -> str:
        peak = max(self.peak_bytes) if self.peak_bytes else 0
        text = (
            f"memory: budget={self.budget_bytes or 'unlimited'} "
            f"peak={peak} spilled={self.spilled_bytes} "
            f"spill_files={self.spill_files} parks={self.outbox_parks} "
            f"splits={self.superstep_splits}"
        )
        if self.checkpoint_peak_bytes:
            text += f" ckpt_peak={self.checkpoint_peak_bytes}"
        if self.oom:
            text += (
                f" | OOM: worker={self.oom['worker']} phase={self.oom['phase']} "
                f"superstep={self.oom['superstep']} "
                f"needed={self.oom['needed_bytes']} "
                f"budget={self.oom['budget_bytes']}"
            )
        return text


class _CheckpointBlob:
    """Handle to one streamed on-disk checkpoint (replaces the in-memory
    pickled bytes when a budget is active)."""

    __slots__ = ("path", "size")

    def __init__(self, path: str, size: int):
        self.path = path
        self.size = size

    def load(self) -> dict:
        with open(self.path, "rb") as f:
            return _stream_decode(f)


class _WindowWriter:
    """File writer that buffers up to ``window`` bytes in memory, tracking
    the peak buffered size — the checkpoint stream's charge against the
    budget (a real worker serializes through a bounded buffer, not by
    materializing the whole blob)."""

    __slots__ = ("_file", "_window", "_buf", "peak", "written")

    def __init__(self, f, window: int):
        self._file = f
        self._window = window
        self._buf = bytearray()
        self.peak = 0
        self.written = 0

    def write(self, data) -> int:
        buf = self._buf
        buf += data
        size = len(buf)
        if size > self.peak:
            self.peak = size
        if size >= self._window:
            self._file.write(buf)
            self.written += size
            self._buf = bytearray()
        return len(data)

    def flush(self) -> None:
        if self._buf:
            self._file.write(self._buf)
            self.written += len(self._buf)
            self._buf = bytearray()


def _stream_encode(obj, dump, depth: int = _CKPT_DEPTH) -> None:
    """Write ``obj`` as a sequence of small pickled records so no single
    serialization buffers the whole payload: dicts decompose per key,
    lists of containers per element, and long flat lists per chunk, down
    to ``depth`` levels.  (A short list of per-vertex dicts can pickle to
    tens of KB — length alone is not a safe proxy for record size.)"""
    if depth and isinstance(obj, dict):
        dump(("D", len(obj)))
        for key, value in obj.items():
            dump(("k", key))
            _stream_encode(value, dump, depth - 1)
    elif depth and isinstance(obj, list) and any(
        isinstance(item, (dict, list)) and item for item in obj
    ):
        dump(("E", len(obj)))
        for item in obj:
            _stream_encode(item, dump, depth - 1)
    elif depth and isinstance(obj, list) and len(obj) > _CKPT_LIST_CHUNK:
        dump(("L", len(obj)))
        for start in range(0, len(obj), _CKPT_LIST_CHUNK):
            dump(("c", obj[start : start + _CKPT_LIST_CHUNK]))
    else:
        dump(("V", obj))


def _stream_decode(f) -> dict:
    """``_stream_encode``'s records read back through one unpickler: the
    stream's pickler memoized what repeats (its own record tags, payload
    tuples a vertex sent to many receivers) across records."""
    load = pickle.Unpickler(f).load

    def read():
        tag, value = load()
        if tag == "D":
            out: dict = {}
            for _ in range(value):
                _k, key = load()
                out[key] = read()
            return out
        if tag == "E":
            return [read() for _ in range(value)]
        if tag == "L":
            items: list = []
            while len(items) < value:
                _c, chunk = load()
                items.extend(chunk)
            return items
        return value

    return read()


class MemoryManager:
    """Per-run memory accounting, backpressure, spilling, and splitting.

    Create one per execution (it is stateful) and hand it to the engine:
    ``program.run(graph, args, mem=MemoryManager(MemPlan(budget_bytes=65536)))``.
    With an unlimited plan the manager installs nothing — the engine's hot
    loops are untouched (the <5% fast-path contract of bench_mem.py).
    """

    def __init__(self, plan: MemPlan):
        self.plan = plan
        self._engine: "PregelEngine | None" = None
        self.budgets: list[MemoryBudget] = []
        self._dir: str | None = None
        self._seq = 0
        self._closed = False
        # Per-worker delivery/vertex-phase state (filled by attach()).
        self._resident: list[dict[int, int]] = []   # dst -> resident bytes
        self._in_runs: list[list[_RunReader]] = []  # consumed ascending in the vertex phase
        self._in_leftover: list[dict[int, list]] = []
        self._out_runs: list[list[str]] = []        # sorted runs awaiting the next barrier
        self.out_run_messages: list[int] = []       # messages in each worker's runs
        self._no_messages: tuple = ()
        self._ckpt_paths: list[str] = []
        self._oom: dict | None = None
        self._largest_message = 0
        self._largest_inbox = 0
        self._size_of = None  # set by attach(): payload + envelope overhead

    @property
    def limited(self) -> bool:
        return self.plan.limited

    # -- wiring ----------------------------------------------------------

    def attach(self, engine: "PregelEngine") -> None:
        if self._engine is not None:
            raise RuntimeError("a MemoryManager drives exactly one run")
        workers = engine.num_workers
        overrides = dict(self.plan.worker_budgets)
        for worker in overrides:
            if worker >= workers:
                raise ValueError(
                    f"--mem-budget targets worker {worker} but the engine "
                    f"has {workers} workers"
                )
        base = self.plan.budget_bytes or _UNLIMITED
        self.budgets = [
            MemoryBudget(w, overrides.get(w, base)) for w in range(workers)
        ]
        self._resident = [{} for _ in range(workers)]
        self._in_runs = [[] for _ in range(workers)]
        self._in_leftover = [{} for _ in range(workers)]
        self._out_runs = [[] for _ in range(workers)]
        self.out_run_messages = [0] * workers
        payload = engine._message_size
        self._size_of = lambda msg: payload(msg) + MESSAGE_OVERHEAD_BYTES
        self._engine = engine

    def install(self) -> None:
        """Swap in the budgeted execution hooks (limited plans only;
        called by ``run()``).

        ``_enqueue`` is shadowed with an instance attribute so both direct
        sends and combiner flushes charge the destination worker's outbox;
        ``_phase_loop`` is shadowed so every vertex loop reads its slots
        through the spill fetch — a spilled inbox is materialized as the
        loop reads it — and runs one vertex per call, releasing its
        resident buckets after it: what a loop stages after its last
        vertex (a generated loop's neighbour rows) is then charged before
        the vertex's inbox is released, as a send from inside would be.
        """
        engine = self._engine
        from .runtime import _NO_MESSAGES

        self._no_messages = _NO_MESSAGES
        inner_phase_loop = engine._phase_loop
        fetch = self.fetch_messages
        release = self._release_vertex

        def budgeted_phase_loop():
            loop = inner_phase_loop()

            def budgeted_loop(ctx, active, slots):
                fetching = _FetchingSlots(slots, fetch)
                computed = 0
                for vid in active:
                    computed += loop(ctx, (vid,), fetching)
                    release(vid)
                return computed

            return budgeted_loop

        inner_enqueue = engine._enqueue
        charge = self.charge_outbox

        def budgeted_enqueue(dst, msg):
            inner_enqueue(dst, msg)
            charge(dst, msg)

        engine._phase_loop = budgeted_phase_loop  # type: ignore[method-assign]
        engine._enqueue = budgeted_enqueue  # type: ignore[method-assign]

    # -- observability ----------------------------------------------------

    def _event(self, name: str, **info) -> None:
        """A mem.* trace event, info-only: a budgeted run's trace must
        project to the same deterministic stream as an unlimited one."""
        tracer = self._engine.tracer
        if tracer is not None:
            tracer.event(name, cat="mem", info=info)

    # -- spill files ------------------------------------------------------

    def _spill_path(self, kind: str, worker: int) -> str:
        if self._dir is None:
            if self.plan.spill_dir is not None:
                os.makedirs(self.plan.spill_dir, exist_ok=True)
            self._dir = tempfile.mkdtemp(
                prefix="gm-pregel-mem-", dir=self.plan.spill_dir
            )
        self._seq += 1
        return os.path.join(self._dir, f"{self._seq:06d}-{kind}-w{worker}.run")

    def _write_run(self, path: str, records: Iterable[tuple[int, list]]) -> int:
        count = 0
        with open(path, "wb") as f:
            for record in records:
                pickle.dump(record, f, _PROTOCOL)
                count += 1
        return count

    # -- outbox: charging and superstep splitting -------------------------

    def charge_outbox(self, dst: int, msg: tuple) -> None:
        """Charge one staged message to the destination worker's outbox;
        crossing the watermark splits the superstep (spills the staged
        sub-batch as a sorted run)."""
        engine = self._engine
        budget = self.budgets[engine._worker_of[dst]]
        size = self._size_of(msg)
        if size > self._largest_message:
            self._largest_message = size
        budget.outbox_bytes += size
        budget.note_peak()
        if budget.outbox_bytes + budget.inbox_bytes + budget.fetch_bytes > budget.soft_bytes:
            self._split_superstep(budget.worker)

    def _split_superstep(self, worker: int) -> bool:
        """Giraph-style degradation: cut ``worker``'s receivers out of the
        staged outbox into a sorted run mid-phase; the next barrier
        re-merges runs ahead of the residual in-memory batch, preserving
        every receiver's send order."""
        engine = self._engine
        outbox, worker_of = engine._outbox, engine._worker_of
        mine = sorted(dst for dst in outbox if worker_of[dst] == worker)
        if not mine:
            return False
        budget = self.budgets[worker]
        spilled = budget.outbox_bytes
        records = len(mine)
        path = self._spill_path("outbox", worker)
        run = [(dst, outbox.pop(dst)) for dst in mine]
        self._write_run(path, run)
        self._out_runs[worker].append(path)
        self.out_run_messages[worker] += sum(len(msgs) for _dst, msgs in run)
        budget.outbox_bytes = 0
        metrics = engine.metrics
        metrics.superstep_splits += 1
        metrics.spill_files += 1
        metrics.spilled_bytes += spilled
        self._event(
            "mem.split",
            worker=worker,
            superstep=engine.superstep,
            bytes=spilled,
            records=records,
        )
        return True

    # -- inbox: credit-chunked delivery and spilling ----------------------

    def _park(self, worker: int) -> None:
        """Delivery stalled on an over-budget destination: meter the park
        and spill the destination's resident inbox to free credit."""
        engine = self._engine
        engine.metrics.outbox_parks += 1
        self._event(
            "mem.park",
            worker=worker,
            superstep=engine.superstep,
            resident=self.budgets[worker].total(),
        )
        self._spill_inbox(worker)

    def _slot_get(self, dst: int):
        value = self._engine._inbox_slots[dst]
        return None if value is self._no_messages else value

    def _spill_inbox(self, worker: int) -> bool:
        """Spill the worker's resident (not-yet-consumed) inbox buckets as
        one sorted run, replacing each slot with a :class:`_SpillRef`."""
        resident = self._resident[worker]
        if not resident:
            return False
        engine = self._engine
        budget = self.budgets[worker]
        path = self._spill_path("inbox", worker)
        spilled = 0
        records = 0
        with open(path, "wb") as f:
            for dst in sorted(resident):
                value = self._slot_get(dst)
                if type(value) is _SpillRef:
                    if not value.tail:
                        continue
                    pickle.dump((dst, value.tail), f, _PROTOCOL)
                    value.tail = []
                else:
                    pickle.dump((dst, value), f, _PROTOCOL)
                    engine._inbox_slots[dst] = _SpillRef()
                spilled += resident[dst]
                records += 1
        if not records:
            os.unlink(path)
            resident.clear()
            return False
        resident.clear()
        budget.inbox_bytes = 0
        self._in_runs[worker].append(_RunReader(path))
        metrics = engine.metrics
        metrics.spill_files += 1
        metrics.spilled_bytes += spilled
        self._event(
            "mem.spill",
            worker=worker,
            superstep=engine.superstep,
            bytes=spilled,
            records=records,
        )
        return True

    def _incoming_stream(
        self, worker: int, part: dict[int, list]
    ) -> Iterator[tuple[int, list, bool]]:
        """This barrier's traffic for ``worker``: the mid-phase split runs
        (in spill order — earlier sends first) then the residual in-memory
        batch, so each receiver sees its messages in send order.  The third
        element flags whether the bucket still carries a live outbox charge
        (split runs were discharged when they hit disk; live part buckets
        move their charge to the inbox as they deliver)."""
        runs = self._out_runs[worker]
        self._out_runs[worker] = []
        self.out_run_messages[worker] = 0
        for path in runs:
            with open(path, "rb") as f:
                while True:
                    try:
                        dst, msgs = pickle.load(f)
                    except EOFError:
                        break
                    yield dst, msgs, False
            os.unlink(path)
        for dst, msgs in part.items():
            yield dst, msgs, True

    def _deliver_worker(self, worker: int, part: dict[int, list], install) -> None:
        """Route one destination worker's traffic under credit control:
        chunks of at most the free budget (never less than one message) are
        handed over; an exhausted budget parks the stream behind an inbox
        spill.  The transport, when present, carries each chunk — faults
        cost retransmissions, never data."""
        engine = self._engine
        budget = self.budgets[worker]
        budget_bytes = budget.budget_bytes
        size_of = self._size_of
        transport = engine._transport
        for dst, msgs, charged in self._incoming_stream(worker, part):
            n = len(msgs)
            start = 0
            while start < n:
                free = budget_bytes - budget.total()
                if free <= 0:
                    self._park(worker)
                    free = budget_bytes - budget.total()
                taken = 0
                nbytes = 0
                while start + taken < n:
                    b = size_of(msgs[start + taken])
                    if taken and nbytes + b > free:
                        break
                    nbytes += b
                    taken += 1
                    if nbytes >= free:
                        break
                piece = msgs if taken == n and start == 0 else msgs[start : start + taken]
                if transport is not None:
                    transport.route_count(worker, taken, nbytes / taken)
                install(dst, piece, nbytes)
                budget.inbox_bytes += nbytes
                if charged:
                    # Delivered: the bytes move from the staged-outbox charge
                    # to the inbox charge — one copy, counted once.
                    budget.outbox_bytes -= nbytes
                budget.note_peak()
                start += taken

    def _install_piece(self, worker: int, dst: int, piece: list, nbytes: int, receiving) -> None:
        resident = self._resident[worker]
        current = self._slot_get(dst)
        if current is None:
            # First piece for this receiver.  A whole-bucket piece aliases
            # the sender's staged list — safe because each receiver's last
            # traffic source is the in-memory batch (one bucket per dst),
            # so an aliased install is never extended afterwards; partial
            # pieces and run records are fresh lists owned here.
            self._engine._inbox_slots[dst] = piece
            receiving(dst)
            total = resident[dst] = nbytes
        else:
            if type(current) is _SpillRef:
                current.tail.extend(piece)
            else:
                current.extend(piece)
            total = resident[dst] = resident.get(dst, 0) + nbytes
        # Resident bytes bound the receiver's inbox from below (spilled
        # vertices are re-measured exactly at fetch time), so the maximum
        # across both paths is the true largest single-vertex inbox — the
        # budget's satisfiability floor.
        if total > self._largest_inbox:
            self._largest_inbox = total

    def deliver(self, incoming: list[dict[int, list]], receiving) -> None:
        """Budgeted replacement for the barrier's routing of ``incoming``,
        the outbox's per-destination-worker batches: worker by worker, each
        receiver's messages in send order, under credit control and
        spilling."""
        for worker, part in enumerate(incoming):
            if part or self._out_runs[worker]:
                install = lambda dst, piece, nbytes, w=worker: self._install_piece(
                    w, dst, piece, nbytes, receiving
                )
                self._deliver_worker(worker, part, install)

    # -- vertex phase: materializing spilled inboxes ----------------------

    def fetch_messages(self, vid: int, ref: _SpillRef) -> list:
        """Materialize one spilled vertex's full message list: run records
        (sequential cursors — the vertex phase visits ascending ids in
        every mode) in spill order, then the resident tail.  The list is
        charged against the owner's budget for the duration of compute;
        a vertex whose inbox alone exceeds the budget is unsatisfiable."""
        engine = self._engine
        worker = engine._worker_of[vid]
        budget = self.budgets[worker]
        leftover = self._in_leftover[worker]
        msgs: list = leftover.pop(vid, None) or []
        for reader in self._in_runs[worker]:
            head = reader.head
            while head is not None and head[0] <= vid:
                if head[0] == vid:
                    msgs.extend(head[1])
                else:
                    # Defensive: a record for an already-passed id (cannot
                    # happen in ascending phases) is parked, not lost.
                    leftover.setdefault(head[0], []).extend(head[1])
                reader.advance()
                head = reader.head
        msgs.extend(ref.tail)
        size_of = self._size_of
        nbytes = 0
        for msg in msgs:
            nbytes += size_of(msg)
        if nbytes > self._largest_inbox:
            self._largest_inbox = nbytes
        # The resident tail just moved into the materialized list: release
        # its inbox charge so it is not double-counted under fetch_bytes.
        released = self._resident[worker].pop(vid, 0)
        if released:
            budget.inbox_bytes -= released
        budget.fetch_bytes = nbytes
        if budget.total() > budget.budget_bytes:
            # Free everything that can move: split the staged outbox,
            # spill the other residents.  What remains is irreducible.
            self._split_superstep(worker)
            self._spill_inbox(worker)
            if budget.total() > budget.budget_bytes:
                budget.fetch_bytes = 0
                raise MemoryExhausted(
                    worker,
                    "vertex",
                    nbytes,
                    budget.budget_bytes,
                    engine.superstep,
                )
        budget.note_peak()
        return msgs

    def _release_vertex(self, vid: int) -> None:
        """After compute: drop the vertex's resident charge (its messages
        are consumed) and the fetch charge pinned on its worker."""
        worker = self._engine._worker_of[vid]
        budget = self.budgets[worker]
        released = self._resident[worker].pop(vid, 0)
        if released:
            budget.inbox_bytes -= released
        if budget.fetch_bytes:
            budget.fetch_bytes = 0

    # -- combiner table ---------------------------------------------------

    def check_combiner(self, combined: dict) -> None:
        """Charge each sender's combiner table before the barrier flush.
        The table cannot spill (folds mutate it in place all superstep), so
        a table exceeding its worker's budget is unsatisfiable."""
        engine = self._engine
        size_of = self._size_of
        per_worker: dict[int, int] = {}
        for (sender_worker, _dst, _tag), msg in combined.items():
            per_worker[sender_worker] = per_worker.get(sender_worker, 0) + size_of(msg)
        for worker, nbytes in per_worker.items():
            budget = self.budgets[worker]
            total = budget.total() + nbytes
            if total > budget.peak_bytes:
                budget.peak_bytes = total
            if nbytes > budget.budget_bytes:
                raise MemoryExhausted(
                    worker, "combine", nbytes, budget.budget_bytes, engine.superstep
                )

    def note_transport_buffer(self, worker: int, nbytes: int) -> None:
        """Charge a transport reorder buffer's peak occupancy against
        ``worker``'s budget peak.  Metered only — protocol buffers cannot
        spill without breaking the ack contract, so they never raise."""
        if nbytes <= 0:
            return
        budget = self.budgets[worker]
        total = budget.total() + nbytes
        if total > budget.peak_bytes:
            budget.peak_bytes = total

    def charge_exchange(
        self,
        inbox_bytes: list[int],
        delivered_bytes: list[int],
        superstep: int,
    ) -> None:
        """Parent-side ledger for the mp backend's exchange barrier.

        Each worker process reports its byte accounting in the barrier
        reply; the parent charges both the inbox it computed over this
        superstep (delivered at the *previous* barrier) and the batch it
        just installed — the same two buffers the simulator's ledger holds
        resident at its barrier.  The mp backend has no cooperative spill
        path (buffers live in worker processes), so the watermark never
        fires: crossing the hard budget raises :class:`MemoryExhausted`,
        which the engine degrades to ``halt_reason="out_of_memory"``."""
        for budget in self.budgets:
            w = budget.worker
            budget.inbox_bytes = inbox_bytes[w]
            budget.outbox_bytes = delivered_bytes[w]
            budget.note_peak()
            total = budget.total()
            if budget.limited and total > budget.budget_bytes:
                raise MemoryExhausted(
                    w, "exchange", total, budget.budget_bytes, superstep
                )

    # -- checkpoint streaming ---------------------------------------------

    def write_checkpoint(self, payload: dict) -> _CheckpointBlob:
        """Stream a checkpoint payload to disk through a bounded window
        instead of materializing one pickled blob: containers decompose
        into small records (dict entries, list chunks, per-vertex outbox
        buckets), so the in-memory cost is the window plus the largest
        single record — metered as ``checkpoint_peak_bytes`` and charged
        against the tightest worker budget."""
        engine = self._engine
        path = self._spill_path("ckpt", 0)
        with open(path, "wb") as f:
            writer = _WindowWriter(f, CHECKPOINT_WINDOW_BYTES)
            _stream_encode(payload, pickle.Pickler(writer, _PROTOCOL).dump)
            writer.flush()
        metrics = engine.metrics
        if writer.peak > metrics.checkpoint_peak_bytes:
            metrics.checkpoint_peak_bytes = writer.peak
        tightest = min(self.budgets, key=lambda b: b.budget_bytes)
        if tightest.limited and writer.peak > tightest.budget_bytes:
            raise MemoryExhausted(
                tightest.worker,
                "checkpoint",
                writer.peak,
                tightest.budget_bytes,
                engine.superstep,
            )
        self._ckpt_paths.append(path)
        size = os.path.getsize(path)
        self._event(
            "mem.checkpoint",
            superstep=engine.superstep,
            bytes=size,
            peak=writer.peak,
        )
        return _CheckpointBlob(path, size)

    # -- barrier / recovery hooks -----------------------------------------

    def outbox_snapshot(self) -> dict[int, list]:
        """The in-flight ``{dst: msgs}`` map *including* split runs — the
        budgeted engine's ``outbox_view()``.  Runs are peek-read (delivery
        still consumes them later); the FT manager checkpoints and logs
        through this, so recovery sees the same traffic a budget-free run
        would have staged in memory."""
        engine = self._engine
        merged: dict[int, list] = {}
        for worker in range(engine.num_workers):
            for path in self._out_runs[worker]:
                with open(path, "rb") as f:
                    while True:
                        try:
                            dst, msgs = pickle.load(f)
                        except EOFError:
                            break
                        previous = merged.get(dst)
                        merged[dst] = msgs if previous is None else previous + msgs
        for batch in engine._batches(engine._outbox):
            for dst, msgs in batch.items():
                previous = merged.get(dst)
                merged[dst] = msgs if previous is None else previous + msgs
        return merged

    def on_rollback(self) -> None:
        """Full-rollback restore: the engine just reinstalled the
        checkpoint's in-flight outbox in memory, so every live run file is
        stale — delete them and recharge the ledger from the restored
        outbox.  The split comes before the peak: a worker's restored
        receivers over the watermark spill at once, and only what stays
        resident counts toward the peak."""
        engine = self._engine
        for worker in range(engine.num_workers):
            for reader in self._in_runs[worker]:
                path = reader.path
                reader.close()
                if os.path.exists(path):
                    os.unlink(path)
            self._in_runs[worker].clear()
            for path in self._out_runs[worker]:
                if os.path.exists(path):
                    os.unlink(path)
            self._out_runs[worker].clear()
            self.out_run_messages[worker] = 0
            self._in_leftover[worker].clear()
            self._resident[worker].clear()
            budget = self.budgets[worker]
            budget.inbox_bytes = 0
            budget.outbox_bytes = 0
            budget.fetch_bytes = 0
        size_of = self._size_of
        worker_of = engine._worker_of
        for dst, msgs in engine._outbox.items():
            budget = self.budgets[worker_of[dst]]
            for msg in msgs:
                budget.outbox_bytes += size_of(msg)
        for budget in self.budgets:
            if budget.total() > budget.soft_bytes:
                self._split_superstep(budget.worker)
            budget.note_peak()

    def on_superstep_end(self) -> None:
        """Barrier cleanup: the vertex phase consumed this superstep's
        inbox — drop its runs, leftovers, and resident charges.  Staged
        outbox charges (and split runs) carry over to the next barrier."""
        engine = self._engine
        for worker in range(engine.num_workers):
            for reader in self._in_runs[worker]:
                path = reader.path
                reader.close()
                if os.path.exists(path):
                    os.unlink(path)
            self._in_runs[worker].clear()
            self._in_leftover[worker].clear()
            self._resident[worker].clear()
            budget = self.budgets[worker]
            budget.inbox_bytes = 0
            budget.fetch_bytes = 0

    # -- lifecycle / reporting --------------------------------------------

    def record_oom(self, exc: MemoryExhausted) -> None:
        self._oom = {
            "worker": exc.worker,
            "phase": exc.phase,
            "needed_bytes": exc.needed,
            "budget_bytes": exc.budget,
            "superstep": exc.superstep,
        }
        self._event("mem.oom", **self._oom)

    def close(self) -> None:
        """Release every spill resource (idempotent; the engine calls this
        when ``run()`` ends, on any path).  Counters and the report stay
        readable afterwards."""
        if self._closed:
            return
        self._closed = True
        for runs in self._in_runs:
            for reader in runs:
                reader.close()
            runs.clear()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
        for runs in self._out_runs:
            runs.clear()
        self._ckpt_paths.clear()
        engine = self._engine
        if engine is not None and self.budgets:
            peak = max(budget.peak_bytes for budget in self.budgets)
            if peak > engine.metrics.mem_peak_bytes:
                engine.metrics.mem_peak_bytes = peak

    def report(self) -> MemoryReport:
        """The structured :class:`MemoryReport` for this run."""
        metrics = self._engine.metrics if self._engine is not None else None
        return MemoryReport(
            budget_bytes=self.plan.budget_bytes,
            worker_budgets=dict(self.plan.worker_budgets),
            peak_bytes=[budget.peak_bytes for budget in self.budgets],
            spilled_bytes=metrics.spilled_bytes if metrics else 0,
            spill_files=metrics.spill_files if metrics else 0,
            outbox_parks=metrics.outbox_parks if metrics else 0,
            superstep_splits=metrics.superstep_splits if metrics else 0,
            checkpoint_peak_bytes=metrics.checkpoint_peak_bytes if metrics else 0,
            largest_message_bytes=self._largest_message,
            largest_vertex_inbox_bytes=self._largest_inbox,
            oom=dict(self._oom) if self._oom else None,
        )
