"""Simulated unreliable transport (repro.pregel.net): the reliable delivery
protocol must hide every channel fault — drop, duplicate, reorder, corrupt —
behind sequence-numbered exactly-once delivery, so a run over a hostile
channel is bit-identical to a run over a perfect one, for every algorithm
and both schedulers.  The faults themselves are metered, never delivered."""

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS
from repro.algorithms.sources import ALGORITHMS
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.pregel import Graph, PregelEngine
from repro.pregel.net import (
    NetFaultPlan,
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
    def test_zero_fault_plan_returns_part_unchanged(self):
        transport = SimulatedTransport(NetFaultPlan())
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        engine = PregelEngine(g, lambda c, v, m: None, num_workers=WORKERS)
        transport.attach(engine)
        part = {1: [(0, 1.0)], 3: [(0, 2.0), (0, 3.0)]}
        assert transport.route_part(1, part) is part
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
