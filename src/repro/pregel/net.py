"""Reliable delivery over an unreliable channel: one sans-IO protocol, and
the simulated channel that exercises it.

The protocol is a per-stream :class:`Sender` and :class:`Receiver` that
do no IO; two transports move their messages.  :class:`SimulatedTransport`
(below) drives them through a seeded channel that inflicts **drop,
duplicate, reorder, corrupt, and latency/jitter** faults, and
``backend/tcp.py`` drives them over loopback sockets.  Per stream:

* the sender stamps every message with the next **sequence number** and
  keeps it in an unacked ledger until its ack arrives, retransmitting with
  **exponential backoff** — retransmission ``k`` (from 0) costs
  ``1 << min(k, 16)`` backoff units — up to ``max_attempts``
  transmissions, past which :class:`TransportError` is raised;
* the receiver acks every accepted message (each one, not cumulatively)
  and classifies it: **new** when it extends the contiguous prefix of
  accepted seqs (consuming any parked seqs the gap closed), **parked**
  when it lands past a gap (a reorder, metered once per parked seq), or
  **duplicate** when it was accepted before (discarded, re-acked — a
  channel dup, or a retransmission whose ack was lost).  Corrupt arrivals
  fail their checksum before the receiver sees them and stay unacked, so
  the sender retransmits.  The receiver holds only ``expected`` and its
  parked set, which empties once the stream is whole.

Delivery is **exactly once** under any fault mix, so a run's outputs and
``RunMetrics.parity_key()`` equal a perfect network's.  The simulated
faults are metered in ``RunMetrics`` (``messages_dropped`` / ``_duplicated``
/ ``_reordered`` / ``_corrupted``, ``packets_retransmitted``,
``net_backoff_units``) and the transport's ``stats``.  An all-zero fault
plan takes a **fast path** — ledger accounting only, within a few percent
of direct routing (``benchmarks/bench_net.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .ft import parse_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import PregelEngine


class TransportError(RuntimeError):
    """A message exhausted ``max_attempts`` deliveries — the channel is so
    hostile the reliable protocol gave up (only reachable at extreme fault
    rates; raise ``max_attempts`` or lower the rates)."""


#: Retransmission backoff doubles per attempt but the metered units cap at
#: this shift, so a pathological channel cannot overflow the ledger.
_MAX_BACKOFF_SHIFT = 16

#: a :meth:`Receiver.accept` verdict
NEW, PARKED, DUPLICATE = "new", "parked", "duplicate"


class Sender:
    """One stream's sending end: stamps consecutive seqs and keeps the
    unacked ledger, ``seq -> [transmissions, payload]`` in seq order.  Its
    transport transmits, times and hands back acks."""

    __slots__ = ("max_attempts", "next_seq", "unacked")

    def __init__(self, max_attempts: int):
        self.max_attempts = max_attempts
        self.next_seq = 0
        self.unacked: dict[int, list] = {}

    def stamp(self, payload=None) -> int:
        seq = self.next_seq
        self.next_seq = seq + 1
        self.unacked[seq] = [0, payload]
        return seq

    def attempt(self, seq: int) -> int:
        """Count one transmission of ``seq`` and return its backoff units:
        0 for the first, ``1 << min(k, 16)`` for retransmission ``k``
        (from 0).  Past ``max_attempts`` transmissions, raise."""
        entry = self.unacked[seq]
        k = entry[0]
        if k >= self.max_attempts:
            raise TransportError(
                f"message seq={seq} undelivered after {self.max_attempts} attempts"
                " — raise max_attempts or lower the fault rates"
            )
        entry[0] = k + 1
        return 1 << min(k - 1, _MAX_BACKOFF_SHIFT) if k else 0

    def wait(self, seq: int) -> int:
        """The next retransmission's backoff units: a timed transport's wait."""
        return 1 << min(self.unacked[seq][0] - 1, _MAX_BACKOFF_SHIFT)

    def ack(self, seq: int) -> None:
        self.unacked.pop(seq, None)


class Receiver:
    """One stream's receiving end: ``expected`` is the next seq of the
    contiguous prefix accepted so far, ``parked`` the seqs accepted past a
    gap, ``parked_peak`` the parked set's peak size."""

    __slots__ = ("expected", "parked", "parked_peak")

    def __init__(self):
        self.expected = 0
        self.parked: set[int] = set()
        self.parked_peak = 0

    def accept(self, seq: int) -> str:
        """Classify an arrival that passed its checksum (the transport acks
        it whatever the verdict)."""
        expected = self.expected
        parked = self.parked
        if seq == expected:
            expected += 1
            while expected in parked:  # the gap closed
                parked.remove(expected)
                expected += 1
            self.expected = expected
            return NEW
        if seq < expected or seq in parked:
            return DUPLICATE
        parked.add(seq)
        if len(parked) > self.parked_peak:
            self.parked_peak = len(parked)
        return PARKED


@dataclass(frozen=True)
class NetFaultPlan:
    """One run's channel-fault model, fixed up front (fully deterministic).

    Rates are per transmission attempt, independently sampled from the
    plan's own seeded RNG (the engine's random stream is never touched):

    * ``drop_rate`` — the attempt vanishes; the sender times out and
      retransmits with exponential backoff.  Also applied to acks, so a
      delivered-but-unacked message is retransmitted and deduplicated.
    * ``dup_rate`` — the attempt arrives twice; the receiver discards the
      copy as a duplicate.
    * ``reorder_rate`` — arrivals within a protocol round are displaced;
      the receiver parks an arrival past a gap until the gap closes.
    * ``corrupt_rate`` — the payload is damaged in flight; the checksum
      catches it, the arrival is discarded unacked, and the sender
      retransmits.
    * ``latency_units`` / ``jitter_units`` — simulated per-round channel
      latency (accumulated in the transport's ``stats``, never in results).
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    latency_units: float = 1.0
    jitter_units: float = 0.0
    max_attempts: int = 100
    seed: int = 101

    def __post_init__(self):
        for name in ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 0.9:
                raise ValueError(f"{name} must be in [0, 0.9], got {rate}")
        if not (self.latency_units >= 0 and self.jitter_units >= 0):  # NaN too
            raise ValueError("latency_units and jitter_units must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def lossy(self) -> bool:
        """False means the fast path: no per-message channel simulation."""
        return (
            self.drop_rate > 0
            or self.dup_rate > 0
            or self.reorder_rate > 0
            or self.corrupt_rate > 0
        )


_SPEC_KEYS = {
    "drop": ("drop_rate", float),
    "dup": ("dup_rate", float),
    "reorder": ("reorder_rate", float),
    "corrupt": ("corrupt_rate", float),
    "latency": ("latency_units", float),
    "jitter": ("jitter_units", float),
    "max-attempts": ("max_attempts", int),
    "seed": ("seed", int),
}


def parse_net_faults(spec: str) -> NetFaultPlan:
    """Parse the CLI syntax, e.g. ``drop=0.05,dup=0.02,reorder=0.1,seed=7``.

    Keys: ``drop``, ``dup``, ``reorder``, ``corrupt`` (rates in [0, 0.9]),
    ``latency``, ``jitter`` (simulated units), ``max-attempts``, ``seed``.
    """
    return NetFaultPlan(**parse_spec("--net-faults", spec, _SPEC_KEYS))


class SimulatedTransport:
    """Per-run transport: one inbound reliable stream per destination worker.

    Create one per execution (it is stateful: the RNG, the stats ledger)
    and hand it to the engine:
    ``program.run(graph, args, transport=SimulatedTransport(plan))``.  The
    engine routes every barrier's per-destination-worker message batches
    through :meth:`route_part` (``columnar``: their sizes, through
    :meth:`route_count`); each batch is one fresh stream.
    """

    def __init__(self, plan: NetFaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._engine: "PregelEngine | None" = None
        #: protocol-level ledger (simulated latency, rounds, ack losses);
        #: result-relevant fault counters live in ``RunMetrics``.
        self.stats = {
            "messages_routed": 0,
            "protocol_rounds": 0,
            "latency_units": 0.0,
            "acks_lost": 0,
            "max_attempts_seen": 0,
            #: a receiver's peak parked set, charged (never enforced)
            #: against the worker's budget peak when it runs under one
            "reorder_buffer_peak": 0,
        }

    # -- wiring ----------------------------------------------------------

    def attach(self, engine: "PregelEngine") -> None:
        if self._engine is not None:
            raise RuntimeError("a SimulatedTransport drives exactly one run")
        self._engine = engine

    # -- routing ---------------------------------------------------------

    def route_part(self, worker: int, part: dict[int, list]) -> dict[int, list]:
        """Deliver one barrier's batch for destination ``worker``.

        ``part`` maps destination vertex → message list in global send order
        (each receiver's messages all live in its owner's batch).  The
        reliable protocol reconstructs exactly that stream on the far side,
        so the returned map is content-identical to the input — the faults
        only cost retransmissions, backoff, and simulated latency, all of
        which are metered.
        """
        total = sum(map(len, part.values()))
        avg_bytes = 0.0
        if total and self.plan.lossy and self._engine._mem_limited:
            size_of = self._engine.mem._size_of
            avg_bytes = sum(size_of(msg) for msgs in part.values() for msg in msgs) / total
        self.route_count(worker, total, avg_bytes)
        # Exactly-once in-order delivery reconstructed the sent stream.
        return part

    def route_count(self, worker: int, total: int, avg_bytes: float = 0.0) -> None:
        """One barrier's ``total`` messages for destination ``worker`` — all
        the protocol reads of a batch, so a backend that stages typed slabs
        calls this with the slabs' record count."""
        self.stats["messages_routed"] += total
        if total == 0 or not self.plan.lossy:
            # Fast path: a perfect channel needs no simulation — the
            # ledger only, the caller's batch is delivered as-is.
            self.stats["latency_units"] += self.plan.latency_units if total else 0.0
        else:
            self._simulate_stream(total, worker, avg_bytes)

    # -- channel simulation ----------------------------------------------

    def _simulate_stream(self, n: int, worker: int = 0, avg_bytes: float = 0.0) -> None:
        """Push a fresh stream of ``n`` messages through the channel until
        the sender has seen every one acked; only the ledgers change.
        ``avg_bytes`` (non-zero only under a memory budget) converts the
        parked set's peak into a byte charge against ``worker``'s budget."""
        plan = self.plan
        rng = self._rng
        metrics = self._engine.metrics
        stats = self.stats
        drop, dup, corrupt = plan.drop_rate, plan.dup_rate, plan.corrupt_rate
        reorder = plan.reorder_rate
        random_ = rng.random

        sender, receiver = Sender(plan.max_attempts), Receiver()
        for _ in range(n):
            sender.stamp()
        unacked = sender.unacked
        attempt = sender.attempt
        rounds = 0
        while unacked:
            rounds += 1
            stats["protocol_rounds"] += 1
            stats["latency_units"] += plan.latency_units + (
                random_() * plan.jitter_units if plan.jitter_units else 0.0
            )
            arrivals: list[tuple[int, bool]] = []
            for seq in list(unacked):
                backoff = attempt(seq)
                if backoff:
                    metrics.packets_retransmitted += 1
                    metrics.net_backoff_units += backoff
                if random_() < drop:
                    metrics.messages_dropped += 1
                    continue
                arrivals.append((seq, random_() < corrupt))
                if dup and random_() < dup:
                    arrivals.append((seq, random_() < corrupt))
            if reorder and len(arrivals) > 1:
                # Channel reordering: displace arrivals toward the back.
                last = len(arrivals) - 1
                for i in range(last):
                    if random_() < reorder:
                        j = rng.randrange(i, last + 1)
                        arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
            self.deliver(sender, receiver, arrivals)
        assert receiver.expected == n and not receiver.parked, "stream whole"
        # Every round transmits every unacked seq once, so a stream's
        # rounds are its most-tried message's attempts.
        stats["max_attempts_seen"] = max(stats["max_attempts_seen"], rounds)
        parked_peak = receiver.parked_peak
        stats["reorder_buffer_peak"] = max(stats["reorder_buffer_peak"], parked_peak)
        if avg_bytes and parked_peak:
            self._engine.mem.note_transport_buffer(worker, int(parked_peak * avg_bytes))

    def deliver(self, sender: Sender, receiver: Receiver, arrivals) -> None:
        """Hand one round's ``(seq, corrupted)`` arrivals, in arrival order,
        to ``receiver``, meter each verdict, and send each accepted seq's
        ack back to ``sender`` over the channel, which may drop it."""
        metrics = self._engine.metrics
        drop = self.plan.drop_rate
        random_ = self._rng.random
        accept = receiver.accept
        for seq, corrupted in arrivals:
            if corrupted:
                # Checksum failure: discard, leave unacked → retransmit.
                metrics.messages_corrupted += 1
                continue
            verdict = accept(seq)
            if verdict is DUPLICATE:
                metrics.messages_duplicated += 1
            elif verdict is PARKED:
                metrics.messages_reordered += 1
            if drop and random_() < drop:
                self.stats["acks_lost"] += 1
            else:
                sender.ack(seq)

