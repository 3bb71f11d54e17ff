"""Simulated unreliable transport between workers, hidden behind a reliable
delivery protocol.

PR 1's transient-loss model (`FaultPlan.message_loss_rate`) *meters* an
at-least-once network but never actually loses, duplicates, or reorders a
message.  This module is the adversarial counterpart: a pluggable transport
the engine routes every barrier through, whose simulated channels inflict
**drop, duplicate, reorder, corrupt, and latency/jitter** faults on the
wire — and a sender/receiver protocol that hides all of it:

* every message bound for a destination worker is stamped with a **sequence
  number** from that worker's inbound stream (the simulator's stand-in for
  GPS's per-worker message buffers; sequencing the stream a receiver must
  reconstruct is what makes cross-sender arrival order deterministic);
* the sender retransmits unacknowledged messages with **exponential
  backoff** (metered in ``RunMetrics.net_backoff_units``) until every
  message is acknowledged, up to ``max_attempts`` per message;
* the receiver keeps a **dedup table** (sequence numbers already processed
  — duplicate arrivals, including retransmissions whose ack was lost, are
  counted and discarded), a **reorder buffer** (out-of-order arrivals are
  parked until the sequence gap closes), and a checksum (corrupt arrivals
  are detected, discarded, and left unacked so the sender retransmits).

The protocol therefore delivers **exactly once, in send order**, no matter
the fault mix — which is the property that keeps a run's outputs and
``RunMetrics.parity_key()`` bit-identical to a run over a perfect network
(asserted for all six algorithms by ``tests/test_net.py`` and the chaos
fuzz sweep).  What the faults *do* change is metered: per-fault counters
land in ``RunMetrics`` (``messages_dropped`` / ``messages_duplicated`` /
``messages_reordered`` / ``messages_corrupted`` / ``packets_retransmitted``
/ ``net_backoff_units``) and the transport's own ``stats`` ledger carries
simulated latency units and protocol round counts for the benchmarks.

With an all-zero fault plan the transport takes a **fast path** — ledger
accounting only, no per-message simulation — so a "reliable transport" run
stays within a few percent of direct routing (``benchmarks/bench_net.py``
enforces the ceiling in CI).
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


@dataclass(frozen=True)
class NetFaultPlan:
    """One run's channel-fault model, fixed up front (fully deterministic).

    Rates are per transmission attempt, independently sampled from the
    plan's own seeded RNG (the engine's random stream is never touched):

    * ``drop_rate`` — the attempt vanishes; the sender times out and
      retransmits with exponential backoff.  Also applied to acks, so a
      delivered-but-unacked message is retransmitted and deduplicated.
    * ``dup_rate`` — the attempt arrives twice; the receiver's dedup table
      discards the copy.
    * ``reorder_rate`` — arrivals within a protocol round are displaced;
      the receiver's reorder buffer restores sequence order.
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

    Create one per execution (it is stateful: sequence counters, the RNG,
    the stats ledger) and hand it to the engine:
    ``program.run(graph, args, transport=SimulatedTransport(plan))``.  The
    engine routes every barrier's per-destination-worker message batches
    through :meth:`route_part` (``columnar``: their sizes, through
    :meth:`route_count`).
    """

    def __init__(self, plan: NetFaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._engine: "PregelEngine | None" = None
        self._mreg = None  # engine's metrics registry, picked up at attach()
        #: protocol-level ledger (simulated latency, rounds, ack losses);
        #: result-relevant fault counters live in ``RunMetrics``.
        self.stats = {
            "messages_routed": 0,
            "protocol_rounds": 0,
            "latency_units": 0.0,
            "acks_lost": 0,
            "max_attempts_seen": 0,
            #: peak occupancy of the receiver's reorder buffer (messages
            #: parked waiting for a sequence gap to close) — the protocol's
            #: own memory footprint, charged against the worker's budget
            #: peak when the engine runs under one (metered, not enforced:
            #: protocol buffers cannot spill without breaking the ack
            #: contract).
            "reorder_buffer_peak": 0,
        }

    # -- wiring ----------------------------------------------------------

    def attach(self, engine: "PregelEngine") -> None:
        if self._engine is not None:
            raise RuntimeError("a SimulatedTransport drives exactly one run")
        self._engine = engine
        self._mreg = getattr(engine, "_mreg", None)

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
        """Push ``n`` sequenced messages through the unreliable channel until
        the receiver has processed — and the sender has seen acked — every
        one of them.  Mutates only the metrics/stats ledgers; the delivered
        content is the sequence-ordered input by protocol construction.
        ``avg_bytes`` (non-zero only under a memory budget) converts the
        reorder buffer's peak occupancy into a byte charge against
        ``worker``'s budget peak."""
        plan = self.plan
        rng = self._rng
        metrics = self._engine.metrics
        stats = self.stats
        mreg = self._mreg
        if mreg is not None:
            # Registry bumps happen once per routed stream from ledger
            # deltas — never inside the per-packet loop below.
            s_dropped = metrics.messages_dropped
            s_duplicated = metrics.messages_duplicated
            s_reordered = metrics.messages_reordered
            s_corrupted = metrics.messages_corrupted
            s_retransmitted = metrics.packets_retransmitted
            s_backoff = metrics.net_backoff_units
        drop = plan.drop_rate
        dup = plan.dup_rate
        reorder = plan.reorder_rate
        corrupt = plan.corrupt_rate
        max_attempts = plan.max_attempts
        random_ = rng.random

        attempts = [0] * n
        received = bytearray(n)  # dedup table: seqs the receiver processed
        acked = bytearray(n)     # sender side: retransmit until set
        expected = 0             # next in-order seq the receiver can consume
        parked = 0               # reorder-buffer occupancy (received > expected)
        parked_peak = 0
        unacked = n
        while unacked:
            stats["protocol_rounds"] += 1
            stats["latency_units"] += plan.latency_units + (
                random_() * plan.jitter_units if plan.jitter_units else 0.0
            )
            arrivals: list[tuple[int, bool]] = []
            for seq in range(n):
                if acked[seq]:
                    continue
                attempt = attempts[seq] = attempts[seq] + 1
                if attempt > max_attempts:
                    raise TransportError(
                        f"message seq={seq} undelivered after {max_attempts} "
                        "attempts — fault rates too hostile for the retry "
                        "budget (raise max_attempts or lower the rates)"
                    )
                if attempt > 1:
                    # Exponential backoff before every retransmission.
                    metrics.packets_retransmitted += 1
                    metrics.net_backoff_units += 1 << min(
                        attempt - 2, _MAX_BACKOFF_SHIFT
                    )
                if attempt > stats["max_attempts_seen"]:
                    stats["max_attempts_seen"] = attempt
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
            for seq, corrupted in arrivals:
                if corrupted:
                    # Checksum failure: discard, leave unacked → retransmit.
                    metrics.messages_corrupted += 1
                    continue
                if received[seq]:
                    # Dedup table hit: duplicate arrival (channel dup, or a
                    # retransmission whose ack was lost) is discarded.
                    metrics.messages_duplicated += 1
                else:
                    received[seq] = 1
                    if seq != expected:
                        # Parked in the reorder buffer until the gap closes.
                        metrics.messages_reordered += 1
                        parked += 1
                        if parked > parked_peak:
                            parked_peak = parked
                    else:
                        first = expected
                        while expected < n and received[expected]:
                            expected += 1
                        # The gap closed: every seq past the first consumed
                        # one was sitting in the reorder buffer.
                        parked -= expected - first - 1
                # Ack travels the faulty channel too; a lost ack keeps the
                # message pending, forcing a retransmit the dedup table eats.
                if drop and random_() < drop:
                    stats["acks_lost"] += 1
                elif not acked[seq]:
                    acked[seq] = 1
                    unacked -= 1
        assert expected == n, "protocol invariant: stream fully reconstructed"
        if mreg is not None:
            mreg.counter("net.messages_routed").inc(n)
            mreg.counter("net.dropped").inc(metrics.messages_dropped - s_dropped)
            mreg.counter("net.duplicated").inc(
                metrics.messages_duplicated - s_duplicated
            )
            mreg.counter("net.reordered").inc(
                metrics.messages_reordered - s_reordered
            )
            mreg.counter("net.corrupted").inc(
                metrics.messages_corrupted - s_corrupted
            )
            mreg.counter("net.retransmitted").inc(
                metrics.packets_retransmitted - s_retransmitted
            )
            mreg.counter("net.backoff_units").inc(
                metrics.net_backoff_units - s_backoff
            )
            mreg.gauge("net.reorder_buffer_peak").set_max(parked_peak)
        if parked_peak > stats["reorder_buffer_peak"]:
            stats["reorder_buffer_peak"] = parked_peak
        if avg_bytes and parked_peak:
            self._engine.mem.note_transport_buffer(
                worker, int(parked_peak * avg_bytes)
            )
