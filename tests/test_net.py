"""Simulated unreliable transport (repro.pregel.net): the reliable delivery
protocol must hide every channel fault — drop, duplicate, reorder, corrupt —
behind sequence-numbered exactly-once delivery, so a run over a hostile
channel is bit-identical to a run over a perfect one, for every algorithm
and both schedulers.  The faults themselves are metered, never delivered."""

import socket
from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.algorithms.manual import MANUAL_PROGRAMS
from repro.algorithms.sources import ALGORITHMS
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.pregel import Graph, PregelEngine
from repro.pregel.backend import tcp
from repro.pregel.net import (
    DUPLICATE,
    NEW,
    PARKED,
    NetFaultPlan,
    Receiver,
    Sender,
    SimulatedTransport,
    TransportError,
    parse_net_faults,
)

SCALE = 0.25
WORKERS = 4

#: a hostile mix exercising all four fault types at once
MIXED = dict(drop_rate=0.15, dup_rate=0.1, reorder_rate=0.15, corrupt_rate=0.05, seed=13)


def _graph_for(algorithm: str) -> Graph:
    return load_graph(applicable_graphs(algorithm)[0], SCALE)


def _assert_transport_run_identical(program, graph, args, plan, **opts):
    baseline = program.run(graph, args, num_workers=WORKERS, **opts)
    run = program.run(
        graph, args, num_workers=WORKERS, transport=SimulatedTransport(plan), **opts
    )
    assert run.outputs == baseline.outputs
    assert run.metrics.parity_key() == baseline.metrics.parity_key()
    return baseline, run


class TestPlanValidation:
    def test_defaults_are_fault_free(self):
        plan = NetFaultPlan()
        assert not plan.lossy

    @pytest.mark.parametrize("field", ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate"))
    def test_rate_ranges(self, field):
        assert NetFaultPlan(**{field: 0.9}).lossy
        with pytest.raises(ValueError):
            NetFaultPlan(**{field: 0.91})
        with pytest.raises(ValueError):
            NetFaultPlan(**{field: -0.1})

    def test_negative_latency_rejected(self):
        for value in (-1, float("nan")):
            with pytest.raises(ValueError):
                NetFaultPlan(latency_units=value)
            with pytest.raises(ValueError):
                NetFaultPlan(jitter_units=value)

    def test_max_attempts_floor(self):
        with pytest.raises(ValueError):
            NetFaultPlan(max_attempts=0)


class TestSpecParsing:
    def test_full_spec(self):
        plan = parse_net_faults("drop=0.05,dup=0.02,reorder=0.1,corrupt=0.01,latency=2,jitter=0.5,max-attempts=50,seed=7")
        assert plan == NetFaultPlan(
            drop_rate=0.05, dup_rate=0.02, reorder_rate=0.1, corrupt_rate=0.01,
            latency_units=2.0, jitter_units=0.5, max_attempts=50, seed=7,
        )

    def test_empty_spec_is_default(self):
        assert parse_net_faults("") == NetFaultPlan()

    @pytest.mark.parametrize(
        "bad", ("drop", "bogus=1", "drop=x", "drop=0.99", "latency=nan", "jitter=nan")
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_net_faults(bad)


class TestFastPath:
    def test_zero_fault_plan_only_counts(self):
        transport = SimulatedTransport(NetFaultPlan())
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        engine = PregelEngine(g, lambda c, v, m: None, num_workers=WORKERS)
        transport.attach(engine)
        state = transport._rng.getstate()
        transport.route_count(1, 3)
        assert transport._rng.getstate() == state  # no channel simulated
        assert transport.stats["messages_routed"] == 3
        assert engine.metrics.messages_dropped == 0
        assert engine.metrics.packets_retransmitted == 0

    def test_transport_is_single_use(self):
        transport = SimulatedTransport(NetFaultPlan())
        g = Graph.from_edges(2, [(0, 1)])
        transport.attach(PregelEngine(g, lambda c, v, m: None))
        with pytest.raises(RuntimeError):
            transport.attach(PregelEngine(g, lambda c, v, m: None))

    def test_fast_path_run_is_identical(self):
        graph = _graph_for("pagerank")
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        baseline, run = _assert_transport_run_identical(
            program, graph, args, NetFaultPlan()
        )
        assert run.metrics.messages_dropped == 0
        assert run.metrics.net_backoff_units == 0


class TestFaultMetering:
    def _run(self, plan):
        graph = _graph_for("pagerank")
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        return _assert_transport_run_identical(program, graph, args, plan)[1]

    def test_drop_meters_drops_and_retransmissions(self):
        m = self._run(NetFaultPlan(drop_rate=0.2, seed=3)).metrics
        assert m.messages_dropped > 0
        assert m.packets_retransmitted > 0
        # exponential backoff dominates the retransmission count
        assert m.net_backoff_units >= m.packets_retransmitted
        assert m.messages_duplicated > 0  # lost acks force dedup'd retransmits
        assert m.messages_corrupted == 0

    def test_dup_meters_dedup_hits_only(self):
        m = self._run(NetFaultPlan(dup_rate=0.2, seed=3)).metrics
        assert m.messages_duplicated > 0
        assert m.messages_dropped == 0
        assert m.packets_retransmitted == 0

    def test_reorder_meters_reorder_buffer_parks(self):
        m = self._run(NetFaultPlan(reorder_rate=0.3, seed=3)).metrics
        assert m.messages_reordered > 0
        assert m.messages_dropped == m.messages_duplicated == 0

    def test_corrupt_meters_checksum_failures_and_retransmits(self):
        m = self._run(NetFaultPlan(corrupt_rate=0.2, seed=3)).metrics
        assert m.messages_corrupted > 0
        assert m.packets_retransmitted > 0  # corrupt arrivals stay unacked
        assert m.messages_dropped == 0

    def test_same_seed_meters_identically(self):
        plan = NetFaultPlan(**MIXED)
        first = self._run(plan).metrics
        second = self._run(plan).metrics
        for name in (
            "messages_dropped",
            "messages_duplicated",
            "messages_reordered",
            "messages_corrupted",
            "packets_retransmitted",
            "net_backoff_units",
        ):
            assert getattr(first, name) == getattr(second, name)

    def test_mixed_plan_meters_the_pinned_counts(self):
        # the seeded channel's draw order, pinned: the counts a pagerank
        # run over the MIXED plan meters, whatever drives the protocol
        transport = SimulatedTransport(NetFaultPlan(**MIXED))
        graph = _graph_for("pagerank")
        program = compile_algorithm("pagerank", emit_java=False).program
        m = program.run(
            graph, default_args("pagerank", graph), num_workers=WORKERS, transport=transport
        ).metrics
        assert (
            m.messages_dropped, m.messages_duplicated, m.messages_reordered,
            m.messages_corrupted, m.packets_retransmitted, m.net_backoff_units,
        ) == (25818, 32243, 119378, 7958, 51350, 93261)  # fmt: skip
        assert transport.stats == {
            "messages_routed": 120000, "protocol_rounds": 308, "latency_units": 308.0,
            "acks_lost": 22628, "max_attempts_seen": 12, "reorder_buffer_peak": 6273,
        }  # fmt: skip

    def test_summary_gains_transport_section_only_when_faulted(self):
        clean = self._run(NetFaultPlan()).metrics
        assert "transport:" not in clean.summary()
        faulted = self._run(NetFaultPlan(**MIXED)).metrics
        assert "transport: dropped=" in faulted.summary()

    def test_hostile_channel_exhausts_retry_budget(self):
        graph = _graph_for("pagerank")
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        plan = NetFaultPlan(drop_rate=0.9, max_attempts=2, seed=3)
        with pytest.raises(TransportError):
            program.run(
                graph, args, num_workers=WORKERS, transport=SimulatedTransport(plan)
            )


class TestTransportParity:
    """The tentpole property: bit-identical results under any fault mix."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_generated_program_under_mixed_faults(self, algorithm):
        graph = _graph_for(algorithm)
        program = compile_algorithm(algorithm, emit_java=False).program
        _assert_transport_run_identical(
            program, graph, default_args(algorithm, graph), NetFaultPlan(**MIXED)
        )

    @pytest.mark.parametrize("algorithm", sorted(MANUAL_PROGRAMS))
    def test_manual_baseline_under_mixed_faults(self, algorithm):
        graph = _graph_for(algorithm)
        _assert_transport_run_identical(
            MANUAL_PROGRAMS[algorithm],
            graph,
            default_args(algorithm, graph),
            NetFaultPlan(**MIXED),
        )

    @pytest.mark.parametrize("scheduling", ("frontier", "dense"))
    def test_both_schedulers(self, scheduling):
        graph = _graph_for("sssp")
        program = compile_algorithm("sssp", emit_java=False).program
        _assert_transport_run_identical(
            program,
            graph,
            default_args("sssp", graph),
            NetFaultPlan(**MIXED),
            scheduling=scheduling,
        )

    def test_with_combiners(self):
        graph = _graph_for("pagerank")
        program = compile_algorithm("pagerank", emit_java=False).program
        _assert_transport_run_identical(
            program,
            graph,
            default_args("pagerank", graph),
            NetFaultPlan(**MIXED),
            use_combiners=True,
        )

    def test_composes_with_scheduled_crash_recovery(self):
        from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance

        graph = _graph_for("pagerank")
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        baseline = program.run(graph, args, num_workers=WORKERS)
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            transport=SimulatedTransport(NetFaultPlan(**MIXED)),
            ft=FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 5),))
            ),
        )
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()


class TestTraceEvents:
    def test_net_route_events_are_info_only(self):
        from repro.obs import Tracer, deterministic_jsonl

        graph = _graph_for("pagerank")
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        clean = Tracer()
        program.run(graph, args, num_workers=WORKERS, tracer=clean)
        faulted = Tracer()
        program.run(
            graph,
            args,
            num_workers=WORKERS,
            tracer=faulted,
            transport=SimulatedTransport(NetFaultPlan(**MIXED)),
        )
        names = [e.name for e in faulted.events]
        assert "net.route" in names
        routed = next(e for e in faulted.events if e.name == "net.route")
        assert routed.det is None  # info-only: deterministic stream unchanged
        assert deterministic_jsonl(faulted.events) == deterministic_jsonl(clean.events)


# -- the protocol core: one sender, one receiver ------------------------------


def test_one_arrival_order_meters_alike_on_both_transports():
    # arrivals 0, 2, 1, then 0 again: one seq parked past a gap, one dup
    arrivals = (0, 2, 1, 0)
    g = Graph.from_edges(2, [(0, 1)])
    engine = PregelEngine(g, lambda c, v, m: None)
    simulated = SimulatedTransport(NetFaultPlan())
    simulated.attach(engine)
    sender = Sender(3)
    for _ in range(3):
        sender.stamp()
    simulated.deliver(sender, Receiver(), [(seq, False) for seq in arrivals])
    assert (engine.metrics.messages_reordered, engine.metrics.messages_duplicated) == (1, 1)
    assert sender.unacked == {}

    listener = tcp.bind_listener()
    port = listener.getsockname()[1]
    transport = tcp.TcpSlabTransport(1, listener, [0, port], [0, 0])
    peer = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        peer.sendall(
            b"".join(tcp.pack_frame(0, 0, seq, tcp._KIND_DATA, 0, 1, bytes(8)) for seq in arrivals)
        )
        parts, report = transport.exchange({}, {0: 3}, 5.0)
    finally:
        peer.close()
        transport.close_listener()
    assert report == {} and len(parts[0]) == 3
    counts = transport.take_counts()
    assert counts[("tcp.reorders", ())] == 1
    assert counts[("tcp.dedup_hits", ())] == 1


class ProtocolMachine(RuleBasedStateMachine):
    """One sender and one receiver over a channel whose schedule the rules
    draw: transmit, drop, duplicate, deliver any copy in flight (reorder),
    corrupt, deliver or lose an ack, and abandon the stream for a new one."""

    @initialize(max_attempts=st.integers(1, 20))
    def new_stream(self, max_attempts):
        self.sender = Sender(max_attempts)
        self.receiver = Receiver()
        self.wire: list[int] = []  # copies in flight to the receiver
        self.acks: list[int] = []  # acks in flight back
        self.accepted: Counter = Counter()  # NEW or PARKED verdicts per seq
        self.expected = 0

    def _choose(self, items: list, index: int) -> int:
        return items.pop(index % len(items))

    @rule(n=st.integers(1, 4))
    def stamp(self, n):
        for _ in range(n):
            assert self.sender.stamp() == self.sender.next_seq - 1

    def _attempt(self, seq: int) -> None:
        k = self.sender.unacked[seq][0]
        if k == self.sender.max_attempts:
            with pytest.raises(TransportError):
                self.sender.attempt(seq)
            return
        backoff = self.sender.attempt(seq)
        assert backoff == (0 if k == 0 else 1 << min(k - 1, 16))
        self.wire.append(seq)

    @precondition(lambda self: self.sender.unacked)
    @rule(index=st.integers(0, 63))
    def transmit(self, index):
        unacked = list(self.sender.unacked)
        seq = unacked[index % len(unacked)]
        if self.sender.unacked[seq][0] < self.sender.max_attempts:
            self._attempt(seq)

    @precondition(lambda self: self.sender.unacked)
    @rule(max_attempts=st.integers(1, 20))
    def exhaust_then_abandon(self, max_attempts):
        # every copy of the oldest unacked seq is lost until the cap trips
        seq = next(iter(self.sender.unacked))
        while self.sender.unacked[seq][0] < self.sender.max_attempts:
            self._attempt(seq)
        self._attempt(seq)
        self.new_stream(max_attempts)

    @precondition(lambda self: self.wire)
    @rule(index=st.integers(0, 63))
    def drop(self, index):
        self._choose(self.wire, index)

    @precondition(lambda self: self.wire)
    @rule(index=st.integers(0, 63))
    def duplicate(self, index):
        self.wire.append(self.wire[index % len(self.wire)])

    @precondition(lambda self: self.wire)
    @rule(index=st.integers(0, 63), corrupt=st.booleans(), ack_lost=st.booleans())
    def arrive(self, index, corrupt, ack_lost):
        seq = self._choose(self.wire, index)
        if corrupt:
            return  # fails its checksum: never reaches the receiver, no ack
        before = self.receiver.expected
        verdict = self.receiver.accept(seq)
        if self.accepted[seq]:
            assert verdict is DUPLICATE
        else:
            assert verdict is (NEW if seq == before else PARKED)
            self.accepted[seq] += 1
        if not ack_lost:
            self.acks.append(seq)

    @precondition(lambda self: self.acks)
    @rule(index=st.integers(0, 63))
    def ack(self, index):
        seq = self._choose(self.acks, index)
        self.sender.ack(seq)
        assert seq not in self.sender.unacked

    @rule(max_attempts=st.integers(1, 20))
    def abandon(self, max_attempts):
        self.new_stream(max_attempts)

    @invariant()
    def exactly_once_and_prefix(self):
        receiver = self.receiver
        assert receiver.expected >= self.expected  # only grows
        self.expected = receiver.expected
        assert set(self.accepted.values()) <= {1}
        accepted = set(self.accepted)
        # the prefix is every accepted seq up to the first gap
        assert set(range(receiver.expected)) <= accepted and receiver.expected not in accepted
        # the receiver holds the seqs past its prefix, and nothing else
        assert receiver.parked == accepted - set(range(receiver.expected))
        assert len(receiver.parked) <= receiver.parked_peak
        acked = set(range(self.sender.next_seq)) - set(self.sender.unacked)
        assert acked <= accepted
        if accepted == set(range(self.sender.next_seq)):  # the stream is whole
            assert receiver.parked == set() and receiver.expected == self.sender.next_seq


ProtocolMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestProtocolMachine = ProtocolMachine.TestCase
