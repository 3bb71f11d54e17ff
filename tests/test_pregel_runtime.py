"""Pregel engine semantics: delivery timing, global-object aggregation
timing, vote-to-halt, partition metering, determinism."""

import pytest

from repro.pregel import Graph, GlobalOp, PregelEngine
from repro.pregel.fold import combine
from repro.pregel.globalmap import GlobalObjectMap


def line_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestMessageDelivery:
    def test_messages_arrive_exactly_next_superstep(self):
        g = line_graph(3)
        seen: dict[int, list[tuple[int, int]]] = {0: [], 1: [], 2: []}

        def vertex(ctx, vid, messages):
            for m in messages:
                seen[vid].append((ctx.superstep, m[1]))
            if ctx.superstep == 0 and vid == 0:
                ctx.send(1, (0, 99))

        def master(ctx):
            if ctx.superstep == 3:
                ctx.halt()

        PregelEngine(g, vertex, master).run()
        assert seen[1] == [(1, 99)]
        assert seen[0] == [] and seen[2] == []

    def test_undelivered_messages_are_dropped_not_accumulated(self):
        g = line_graph(2)
        received = []

        def vertex(ctx, vid, messages):
            # vertex 1 receives only in superstep 1; superstep 2's inbox must
            # not replay superstep 0's sends
            received.extend((ctx.superstep, vid, m) for m in messages)
            if ctx.superstep == 0 and vid == 0:
                ctx.send(1, (0,))

        def master(ctx):
            if ctx.superstep == 3:
                ctx.halt()

        PregelEngine(g, vertex, master).run()
        assert received == [(1, 1, (0,))]

    def test_send_nbrs(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        hits = []

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0 and vid == 0:
                ctx.send_nbrs(0, (0,))
            hits.extend([vid] * len(messages))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        PregelEngine(g, vertex, master).run()
        assert sorted(hits) == [1, 2, 3]


class TestGlobals:
    def test_vertex_puts_visible_to_master_next_superstep(self):
        g = line_graph(3)
        observed = {}

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                ctx.put_global("S", GlobalOp.SUM, vid + 1)

        def master(ctx):
            if ctx.superstep == 0:
                observed["at0"] = ctx.get_agg("S")
            if ctx.superstep == 1:
                observed["at1"] = ctx.get_agg("S")
                ctx.halt()

        PregelEngine(g, vertex, master).run()
        assert observed == {"at0": None, "at1": 6}

    def test_master_broadcast_visible_same_superstep(self):
        g = line_graph(2)
        got = []

        def vertex(ctx, vid, messages):
            got.append(ctx.get_global("K"))

        def master(ctx):
            ctx.put_broadcast("K", ctx.superstep * 10)
            if ctx.superstep == 2:
                ctx.halt()

        PregelEngine(g, vertex, master).run()
        assert got == [0, 0, 10, 10]

    def test_reduction_ops(self):
        for op, values, expected in [
            (GlobalOp.SUM, [1, 2, 3], 6),
            (GlobalOp.PRODUCT, [2, 3, 4], 24),
            (GlobalOp.MIN, [5, 2, 9], 2),
            (GlobalOp.MAX, [5, 2, 9], 9),
            (GlobalOp.AND, [True, False, True], False),
            (GlobalOp.OR, [False, True, False], True),
        ]:
            gmap = GlobalObjectMap()
            for v in values:
                gmap.put_reduce("x", op, v)
            gmap.end_superstep()
            assert gmap.get_aggregated("x") == expected, op

    def test_conflicting_reductions_rejected(self):
        gmap = GlobalObjectMap()
        gmap.put_reduce("x", GlobalOp.SUM, 1)
        with pytest.raises(ValueError):
            gmap.put_reduce("x", GlobalOp.MIN, 2)

    def test_overwrite_combine(self):
        assert combine(GlobalOp.OVERWRITE, 1, 2) == 2


class TestVoting:
    def test_all_halted_terminates(self):
        g = line_graph(4)

        def vertex(ctx, vid, messages):
            ctx.vote_to_halt(vid)

        metrics = PregelEngine(g, vertex, use_voting=True).run()
        assert metrics.halt_reason == "all_halted"
        assert metrics.supersteps == 1

    def test_message_reactivates(self):
        g = line_graph(4)
        active_log = []

        def vertex(ctx, vid, messages):
            active_log.append((ctx.superstep, vid))
            if ctx.superstep == 0 and vid == 0:
                ctx.send(3, (0,))
            ctx.vote_to_halt(vid)

        PregelEngine(g, vertex, use_voting=True).run()
        # superstep 1 must run exactly the reactivated vertex 3
        assert [entry for entry in active_log if entry[0] == 1] == [(1, 3)]

    @pytest.mark.parametrize("traced", (False, True))
    @pytest.mark.parametrize("attached", ("constructor", "assigned"))
    def test_vote_cast_during_the_phase_skips_a_later_vertex(self, traced, attached):
        # an even vertex also votes its odd successor halted before the
        # scan reaches it: a per-vertex function runs through the adapter,
        # whose scan filters votes lazily, under a tracer or not
        from repro.obs import Tracer

        computed = []

        def vertex(ctx, vid, messages):
            computed.append((ctx.superstep, vid))
            if vid % 2 == 0:
                ctx.vote_to_halt(vid)
                ctx.vote_to_halt(vid + 1)

        tracer = Tracer() if traced else None
        initial = vertex if attached == "constructor" else None
        engine = PregelEngine(
            line_graph(6), initial, use_voting=True, tracer=tracer, scheduling="dense"
        )
        engine._vertex_compute = vertex
        metrics = engine.run()
        assert computed == [(0, 0), (0, 2), (0, 4)]
        assert metrics.halt_reason == "all_halted"
        if traced:
            (step,) = [e for e in tracer.events if e.name == "superstep"]
            assert step.det["active"] == 3

    def test_without_voting_all_vertices_run(self):
        g = line_graph(4)
        count = [0]

        def vertex(ctx, vid, messages):
            count[0] += 1

        def master(ctx):
            if ctx.superstep == 3:
                ctx.halt()

        PregelEngine(g, vertex, master).run()
        assert count[0] == 12


class TestMetrics:
    def test_message_and_byte_counting(self):
        g = line_graph(3)

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                for dst in ctx.graph.out_nbrs(vid):
                    ctx.send(dst, (0, 1.0))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        engine = PregelEngine(g, vertex, master, message_size=lambda m: 8)
        metrics = engine.run()
        assert metrics.messages == 2
        assert metrics.message_bytes == 16

    def test_cross_worker_accounting(self):
        # 0->1 and 1->2 with 2 workers: 0,2 on worker 0; 1 on worker 1.
        g = line_graph(3)

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                for dst in ctx.graph.out_nbrs(vid):
                    ctx.send(dst, (0,))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        engine = PregelEngine(g, vertex, master, num_workers=2, message_size=lambda m: 4)
        metrics = engine.run()
        assert metrics.messages == 2
        assert metrics.net_messages == 2  # both cross the 2-worker split

    def test_single_worker_has_no_network(self):
        g = line_graph(3)

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                ctx.send_nbrs(vid, (0,))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        metrics = PregelEngine(g, vertex, master, num_workers=1).run()
        assert metrics.net_messages == 0

    def test_max_supersteps_cap(self):
        g = line_graph(2)
        metrics = PregelEngine(g, lambda c, v, m: None, max_supersteps=5).run()
        assert metrics.supersteps == 5
        assert metrics.halt_reason == "max_supersteps"

    def test_per_superstep_recording(self):
        g = line_graph(2)

        def vertex(ctx, vid, messages):
            if ctx.superstep == 1 and vid == 0:
                ctx.send(1, (0,))

        def master(ctx):
            if ctx.superstep == 3:
                ctx.halt()

        engine = PregelEngine(g, vertex, master, record_per_superstep=True)
        metrics = engine.run()
        assert metrics.per_superstep_messages == [0, 1, 0]

    def test_to_dict_covers_every_field(self):
        # the JSON ledger must never silently lag behind the dataclass
        import dataclasses

        from repro.pregel.runtime import RunMetrics

        g = line_graph(3)
        metrics = PregelEngine(
            g, lambda c, v, m: None, max_supersteps=2, record_per_superstep=True
        ).run()
        ledger = metrics.to_dict()
        assert set(ledger) == {f.name for f in dataclasses.fields(RunMetrics)}
        for f in dataclasses.fields(RunMetrics):
            value = getattr(metrics, f.name)
            assert ledger[f.name] == (list(value) if isinstance(value, list) else value)
        # lists are copied, not aliased
        ledger["per_superstep_messages"].append(99)
        assert 99 not in metrics.per_superstep_messages

    def test_summary_reports_retries_when_present(self):
        from repro.pregel.runtime import RunMetrics

        metrics = RunMetrics()
        assert "retried" not in metrics.summary()
        metrics.messages_retried = 3
        metrics.retry_backoff_units = 7
        assert "retried=3" in metrics.summary()
        assert "backoff_units=7" in metrics.summary()


class TestRestorePerSuperstepRecord:
    """restore_state must keep per_superstep_messages in lockstep with the
    restored superstep counter, even when ``record_per_superstep`` was
    toggled between checkpoint and restore."""

    def _checkpoint_at(self, step: int, *, record: bool) -> dict:
        captured = {}

        def vertex(ctx, vid, messages):
            if vid == 0:
                ctx.send(1, (0,))

        def master(ctx):
            if ctx.superstep == step:
                captured["state"] = ctx.checkpoint_state()
            if ctx.superstep == step + 1:
                ctx.halt()

        PregelEngine(
            line_graph(2), vertex, master, record_per_superstep=record
        ).run()
        return captured["state"]

    def test_round_trip_with_recording_on_both_sides(self):
        state = self._checkpoint_at(3, record=True)
        assert len(state["per_superstep_messages"]) == 3
        twin = PregelEngine(
            line_graph(2), lambda c, v, m: None, record_per_superstep=True
        )
        twin.restore_state(state)
        assert twin.metrics.per_superstep_messages == state["per_superstep_messages"]

    def test_recording_enabled_after_checkpoint_pads_with_zeros(self):
        # checkpoint written without recording → restore into a recording
        # engine pads the unknown early supersteps so later appends land at
        # the right index
        state = self._checkpoint_at(3, record=False)
        assert state["per_superstep_messages"] == []
        twin = PregelEngine(
            line_graph(2), lambda c, v, m: None, record_per_superstep=True
        )
        twin.restore_state(state)
        assert twin.metrics.per_superstep_messages == [0, 0, 0]

    def test_recording_disabled_after_checkpoint_keeps_saved_record(self):
        state = self._checkpoint_at(2, record=True)
        twin = PregelEngine(line_graph(2), lambda c, v, m: None)
        twin.restore_state(state)
        assert twin.metrics.per_superstep_messages == state["per_superstep_messages"]

    def test_impossible_record_length_raises(self):
        state = self._checkpoint_at(2, record=True)
        state["per_superstep_messages"] = [1, 2, 3, 4]  # > superstep: corrupt
        twin = PregelEngine(
            line_graph(2), lambda c, v, m: None, record_per_superstep=True
        )
        with pytest.raises(ValueError, match="more entries than completed"):
            twin.restore_state(state)


class TestDeterminism:
    def test_same_seed_same_random_sequence(self):
        g = line_graph(5)
        picks = []

        def master(ctx):
            picks.append(ctx.pick_random_node())
            if ctx.superstep == 4:
                ctx.halt()

        PregelEngine(g, lambda c, v, m: None, master, seed=7).run()
        first = list(picks)
        picks.clear()
        PregelEngine(g, lambda c, v, m: None, master, seed=7).run()
        assert picks == first

    def test_message_order_is_sender_id_order(self):
        g = Graph.from_edges(4, [(2, 3), (0, 3), (1, 3)])
        order = []

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                ctx.send_nbrs(vid, (0, vid))
            order.extend(m[1] for m in messages)

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        PregelEngine(g, vertex, master).run()
        assert order == [0, 1, 2]


class TestWorkerLoad:
    def test_worker_sent_sums_to_messages(self):
        g = line_graph(6)

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                ctx.send_nbrs(vid, (0,))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        metrics = PregelEngine(g, vertex, master, num_workers=3).run()
        assert sum(metrics.worker_sent) == metrics.messages == 5
        assert len(metrics.worker_sent) == 3

    def test_load_imbalance_balanced(self):
        from repro.pregel.runtime import RunMetrics

        m = RunMetrics(worker_sent=[10, 10, 10, 10])
        assert m.load_imbalance() == 1.0

    def test_load_imbalance_skewed(self):
        from repro.pregel.runtime import RunMetrics

        m = RunMetrics(worker_sent=[30, 0, 0, 10])
        assert m.load_imbalance() == 3.0

    def test_load_imbalance_empty_run(self):
        from repro.pregel.runtime import RunMetrics

        assert RunMetrics(worker_sent=[0, 0]).load_imbalance() == 1.0
        assert RunMetrics().load_imbalance() == 1.0


class TestPartitioning:
    def _run_net(self, partitioning: str) -> int:
        # 0->1, 2->3 with 2 workers: range keeps both edges local,
        # hash crosses on both.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                ctx.send_nbrs(vid, (0,))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        engine = PregelEngine(
            g, vertex, master, num_workers=2, partitioning=partitioning
        )
        return engine.run().net_messages

    def test_range_keeps_local_edges_local(self):
        assert self._run_net("range") == 0

    def test_hash_crosses_on_adjacent_ids(self):
        assert self._run_net("hash") == 2

    def test_unknown_partitioning_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            PregelEngine(g, lambda c, v, m: None, partitioning="metis")

    def test_range_covers_all_workers(self):
        g = Graph.from_edges(10, [])
        engine = PregelEngine(g, lambda c, v, m: None, num_workers=3,
                              partitioning="range")
        assert sorted(set(engine._worker_of)) == [0, 1, 2]

    def test_results_independent_of_partitioning(self):
        from repro.compiler import compile_algorithm
        from repro.graphgen import attach_standard_props, uniform_random

        g = uniform_random(30, 120, seed=13)
        attach_standard_props(g, seed=14)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = {"e": 1e-10, "d": 0.85, "max_iter": 6}
        a = compiled.program.run(g, args, partitioning="hash")
        b = compiled.program.run(g, args, partitioning="range")
        assert a.outputs["pg_rank"] == b.outputs["pg_rank"]
        assert a.metrics.messages == b.metrics.messages
        assert a.metrics.net_messages != b.metrics.net_messages or True


class TestMakespan:
    def _engine(self, track=True, workers=2):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0 and vid == 0:
                ctx.send_nbrs(0, (0,))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        return PregelEngine(
            g, vertex, master, num_workers=workers, track_makespan=track
        )

    def test_disabled_by_default(self):
        metrics = self._engine(track=False).run()
        assert metrics.makespan_units == 0
        assert metrics.makespan_inflation() == 1.0

    def test_units_counted(self):
        # superstep 0: 4 computes + 3 sends + 3 receive-units;
        # superstep 1: 4 computes.  Worker split (hash, 2 workers):
        # worker0={0,2}, worker1={1,3}.
        metrics = self._engine().run()
        assert metrics.makespan_units > 0
        assert metrics.ideal_units > 0
        assert metrics.makespan_units >= metrics.ideal_units

    def test_single_worker_has_no_inflation(self):
        metrics = self._engine(workers=1).run()
        assert abs(metrics.makespan_inflation() - 1.0) < 1e-9

    def test_skew_inflates_makespan(self):
        from repro.compiler import compile_algorithm
        from repro.graphgen import load_graph

        args = {"e": 1e-9, "d": 0.85, "max_iter": 5}
        compiled = compile_algorithm("pagerank", emit_java=False)
        skewed = compiled.program.run(
            load_graph("twitter", 0.25), args, num_workers=8, track_makespan=True
        )
        uniform = compiled.program.run(
            load_graph("bipartite", 0.25), args, num_workers=8, track_makespan=True
        )
        assert skewed.metrics.makespan_inflation() > 1.5
        assert uniform.metrics.makespan_inflation() < 1.2
