"""Fault-tolerance subsystem (repro.pregel.ft): checkpointing, deterministic
crash injection, and recovery.

The central property: a run with an injected worker crash, recovered from a
checkpoint — by full rollback or by GPS-style confined recovery — must be
*bit-identical* to a failure-free run in outputs, final result, supersteps,
message counts, and every other deterministic metric.  Asserted for all six
paper algorithms, generated and manual."""

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS
from repro.algorithms.sources import ALGORITHMS
from repro.bench.harness import default_args, fault_ablation
from repro.compiler import compile_algorithm
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.pregel import Graph, PregelEngine
from repro.pregel.ft import (
    ColumnState,
    CrashEvent,
    FaultPlan,
    FaultTolerance,
    parse_crash,
    parse_fault,
)

SCALE = 0.25
WORKERS = 4


def _graph_for(algorithm: str) -> Graph:
    return load_graph(applicable_graphs(algorithm)[0], SCALE)


def _assert_recovered_run_identical(program, graph, args, *, recovery, checkpoint_every=2):
    baseline = program.run(graph, args, num_workers=WORKERS)
    supersteps = baseline.metrics.supersteps
    crash_step = max(1, supersteps - 1)
    plan = FaultPlan(
        checkpoint_every=checkpoint_every,
        crashes=(CrashEvent(worker=1, superstep=crash_step),),
        recovery=recovery,
    )
    run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
    assert run.metrics.faults_injected == 1
    assert run.metrics.checkpoints_taken >= 1
    assert run.metrics.checkpoint_bytes > 0
    assert run.outputs == baseline.outputs
    assert run.metrics.parity_key() == baseline.metrics.parity_key()
    return baseline, run


class TestRecoveryParity:
    """All six paper algorithms survive a crash bit-identically."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_generated_program_recovers(self, algorithm, recovery):
        graph = _graph_for(algorithm)
        compiled = compile_algorithm(algorithm, emit_java=False)
        _assert_recovered_run_identical(
            compiled.program, graph, default_args(algorithm, graph), recovery=recovery
        )

    @pytest.mark.parametrize("algorithm", sorted(MANUAL_PROGRAMS))
    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_manual_baseline_recovers(self, algorithm, recovery):
        graph = _graph_for(algorithm)
        _assert_recovered_run_identical(
            MANUAL_PROGRAMS[algorithm], graph, default_args(algorithm, graph),
            recovery=recovery,
        )

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_recovery_with_combiners(self, recovery):
        graph = _graph_for("pagerank")
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        baseline = compiled.program.run(graph, args, num_workers=WORKERS, use_combiners=True)
        plan = FaultPlan(checkpoint_every=3, crashes=(CrashEvent(0, 5),), recovery=recovery)
        run = compiled.program.run(
            graph, args, num_workers=WORKERS, use_combiners=True, ft=FaultTolerance(plan)
        )
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()

    def test_acceptance_pagerank_crash_at_5_checkpoint_every_3(self):
        """The issue's acceptance scenario, verbatim: PageRank, worker crash
        at superstep 5, --checkpoint-every 3 → bit-identical ranks,
        superstep count, and message totals."""
        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        baseline = compiled.program.run(graph, args, num_workers=WORKERS)
        plan = FaultPlan(checkpoint_every=3, crashes=(CrashEvent(1, 5),))
        run = compiled.program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        assert run.outputs["pg_rank"] == baseline.outputs["pg_rank"]
        assert run.metrics.supersteps == baseline.metrics.supersteps
        assert run.metrics.messages == baseline.metrics.messages
        assert run.metrics.lost_supersteps == 2  # checkpoints at 0 and 3


class TestCheckpointMechanics:
    def _pagerank(self):
        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        return compiled.program, graph, default_args("pagerank", graph)

    def test_checkpoint_schedule(self):
        program, graph, args = self._pagerank()
        plan = FaultPlan(checkpoint_every=4)
        run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        # 12 supersteps → checkpoints at 0, 4, 8, and 12 (the master cannot
        # know superstep 12 will halt until it runs, so the boundary
        # checkpoint happens first — as on a real cluster).
        assert run.metrics.checkpoints_taken == 4
        assert run.metrics.faults_injected == 0

    def test_no_checkpoints_without_plan_items(self):
        program, graph, args = self._pagerank()
        run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(FaultPlan()))
        assert run.metrics.checkpoints_taken == 0
        assert run.metrics.checkpoint_bytes == 0

    def test_initial_checkpoint_taken_when_crashes_scheduled(self):
        # checkpoint_every=0 but a crash is scheduled: the superstep-0
        # snapshot (the durable job input) is the recovery point.
        program, graph, args = self._pagerank()
        plan = FaultPlan(checkpoint_every=0, crashes=(CrashEvent(1, 4),))
        baseline = program.run(graph, args, num_workers=WORKERS)
        run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        assert run.metrics.checkpoints_taken >= 1
        assert run.metrics.lost_supersteps == 4
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()

    def test_crash_at_checkpointed_superstep_loses_nothing(self):
        program, graph, args = self._pagerank()
        plan = FaultPlan(checkpoint_every=3, crashes=(CrashEvent(2, 6),))
        run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        assert run.metrics.faults_injected == 1
        assert run.metrics.lost_supersteps == 0

    def test_confined_replays_less_than_rollback(self):
        program, graph, args = self._pagerank()
        work = {}
        for recovery in ("rollback", "confined"):
            plan = FaultPlan(checkpoint_every=3, crashes=(CrashEvent(1, 5),), recovery=recovery)
            run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
            work[recovery] = run.metrics.recovery_replay_work
        # Confined recovery recomputes one partition (~1/WORKERS of the graph).
        assert 0 < work["confined"] < work["rollback"]
        assert work["rollback"] == 2 * graph.num_nodes  # 2 lost supersteps

    def test_multiple_crashes_in_one_run(self):
        program, graph, args = self._pagerank()
        baseline = program.run(graph, args, num_workers=WORKERS)
        plan = FaultPlan(
            checkpoint_every=2,
            crashes=(CrashEvent(0, 3), CrashEvent(3, 7)),
        )
        run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        assert run.metrics.faults_injected == 2
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()

    def test_crash_beyond_run_never_fires(self):
        program, graph, args = self._pagerank()
        plan = FaultPlan(checkpoint_every=3, crashes=(CrashEvent(1, 10_000),))
        run = program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        assert run.metrics.faults_injected == 0

    def test_manager_is_single_use(self):
        program, graph, args = self._pagerank()
        ft = FaultTolerance(FaultPlan(checkpoint_every=3))
        program.run(graph, args, num_workers=WORKERS, ft=ft)
        with pytest.raises(RuntimeError):
            program.run(graph, args, num_workers=WORKERS, ft=ft)

    def test_crash_on_unknown_worker_rejected(self):
        program, graph, args = self._pagerank()
        plan = FaultPlan(checkpoint_every=1, crashes=(CrashEvent(WORKERS, 2),))
        with pytest.raises(ValueError):
            program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))


class TestTransientMessageLoss:
    def test_retries_metered_deterministically_without_changing_results(self):
        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        baseline = compiled.program.run(graph, args, num_workers=WORKERS)
        plan = FaultPlan(message_loss_rate=0.2, max_retries=4, seed=5)
        first = compiled.program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        second = compiled.program.run(graph, args, num_workers=WORKERS, ft=FaultTolerance(plan))
        assert first.outputs == baseline.outputs
        assert first.metrics.parity_key() == baseline.metrics.parity_key()
        assert first.metrics.messages_retried == second.metrics.messages_retried > 0
        assert first.metrics.retry_backoff_units == second.metrics.retry_backoff_units
        # backoff is exponential, so units dominate the retry count
        assert first.metrics.retry_backoff_units >= first.metrics.messages_retried

    def test_single_worker_has_no_retries(self):
        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        plan = FaultPlan(message_loss_rate=0.5)
        run = compiled.program.run(graph, args, num_workers=1, ft=FaultTolerance(plan))
        assert run.metrics.messages_retried == 0


class TestPlanValidation:
    def test_parse_crash(self):
        assert parse_crash("1@5") == CrashEvent(worker=1, superstep=5)

    @pytest.mark.parametrize("bad", ("", "1", "x@5", "1@y", "@", "0@-3", "-1@2", "-1@-1"))
    def test_parse_crash_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="both >= 0"):
            parse_crash(bad)

    @pytest.mark.parametrize("bad", ("kill:-1@2", "hang:0@-1"))
    def test_parse_fault_rejects_negative_coordinates(self, bad):
        with pytest.raises(ValueError, match="both >= 0"):
            parse_fault(bad)

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(recovery="optimistic")

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(checkpoint_every=-1)

    def test_loss_rate_range(self):
        with pytest.raises(ValueError):
            FaultPlan(message_loss_rate=1.0)


class TestColumnState:
    def test_full_and_partitioned_restore(self):
        import pickle

        columns = {"x": [1, 2, 3, 4], "y": [[0], [1], [2], [3]]}
        state = ColumnState(columns)
        # The manager pickles checkpoints (deep isolation); emulate that.
        saved = pickle.loads(pickle.dumps(state.checkpoint_state()))
        columns["x"][:] = [9, 9, 9, 9]
        columns["y"][2].append(99)
        state.restore_state(saved, vertices=[2])
        assert columns["x"] == [9, 9, 3, 9]  # only vertex 2 restored
        assert columns["y"][2] == [2]
        state.restore_state(saved)
        assert columns["x"] == [1, 2, 3, 4]
        assert columns["y"] == [[0], [1], [2], [3]]

    def test_restore_mutates_in_place(self):
        columns = {"x": [1, 2]}
        alias = columns["x"]
        state = ColumnState(columns)
        saved = state.checkpoint_state()
        columns["x"][:] = [5, 6]
        state.restore_state(saved)
        assert alias == [1, 2]


class TestEngineGuards:
    def test_master_send_raises(self):
        g = Graph.from_edges(2, [(0, 1)])

        def master(ctx):
            ctx.send(1, (0,))

        with pytest.raises(RuntimeError, match="outside the vertex phase"):
            PregelEngine(g, lambda c, v, m: None, master).run()

    def test_summary_includes_halt_reason(self):
        g = Graph.from_edges(2, [(0, 1)])
        metrics = PregelEngine(g, lambda c, v, m: None, max_supersteps=2).run()
        assert "halt=max_supersteps" in metrics.summary()

    def test_summary_includes_ft_section_only_when_active(self):
        g = Graph.from_edges(2, [(0, 1)])
        metrics = PregelEngine(g, lambda c, v, m: None, max_supersteps=2).run()
        assert "ft:" not in metrics.summary()


class TestTracedRecovery:
    """Checkpoint/restore and the observability layer: a traced fault-injected
    run's deterministic event stream — and the per-superstep message record —
    must come out identical to the failure-free run's, because rollback
    rewinds the trace and the replay regenerates the dropped records."""

    def _pagerank(self):
        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        return compiled.program, graph, default_args("pagerank", graph)

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_recovered_trace_matches_failure_free(self, recovery):
        from repro.obs import Tracer, deterministic_jsonl

        program, graph, args = self._pagerank()
        clean = Tracer()
        program.run(graph, args, num_workers=WORKERS, tracer=clean)
        faulted = Tracer()
        plan = FaultPlan(
            checkpoint_every=2, crashes=(CrashEvent(1, 5),), recovery=recovery
        )
        run = program.run(
            graph, args, num_workers=WORKERS, ft=FaultTolerance(plan), tracer=faulted
        )
        assert run.metrics.faults_injected == 1
        assert deterministic_jsonl(faulted.events) == deterministic_jsonl(clean.events)
        # the FT lifecycle is still visible in the full (info) stream
        names = [e.name for e in faulted.events]
        assert "ft.crash" in names and "ft.recovery" in names
        assert "ft.crash" not in [e.name for e in clean.events]

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_per_superstep_record_survives_recovery(self, recovery):
        program, graph, args = self._pagerank()
        baseline = program.run(
            graph, args, num_workers=WORKERS, record_per_superstep=True
        )
        record = baseline.metrics.per_superstep_messages
        assert len(record) == baseline.metrics.supersteps
        plan = FaultPlan(
            checkpoint_every=2, crashes=(CrashEvent(1, 5),), recovery=recovery
        )
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            record_per_superstep=True,
            ft=FaultTolerance(plan),
        )
        assert run.metrics.per_superstep_messages == record

    def test_trace_rewound_to_checkpoint_on_rollback(self):
        # white-box: after the crash at superstep 5 (checkpoint at 4), the
        # trace must contain exactly one record per superstep — the rewound
        # steps 4 of the first attempt replaced by the replay's.
        from repro.obs import Tracer

        program, graph, args = self._pagerank()
        tracer = Tracer()
        plan = FaultPlan(checkpoint_every=4, crashes=(CrashEvent(2, 5),))
        run = program.run(
            graph, args, num_workers=WORKERS, ft=FaultTolerance(plan), tracer=tracer
        )
        steps = [e.det["step"] for e in tracer.events if e.name == "superstep"]
        assert steps == list(range(run.metrics.supersteps))


class TestFaultAblation:
    def test_sweep_is_identical_everywhere_and_monotone(self):
        baseline, rows = fault_ablation(
            scale=SCALE, intervals=(1, 3, 5), crash=CrashEvent(1, 5)
        )
        assert all(row.identical for row in rows)
        by_interval = {
            row.checkpoint_every: row.metrics
            for row in rows
            if row.recovery == "rollback"
        }
        # denser checkpoints → more checkpoint overhead ...
        assert (
            by_interval[1].checkpoints_taken
            > by_interval[3].checkpoints_taken
            > by_interval[5].checkpoints_taken
        )
        # ... and the work lost to a crash at superstep 5 is the distance
        # back to the last checkpoint: 5 mod interval.
        for every, metrics in by_interval.items():
            assert metrics.lost_supersteps == 5 % every
