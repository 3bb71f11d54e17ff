"""Supervision layer (repro.pregel.supervisor): heartbeat failure detection,
automatic escalation into checkpoint recovery, straggler quarantine, and
graceful degradation.

The acceptance property (ISSUE 4): for every algorithm, generated and
manual, a run under a nonzero drop+dup+reorder fault plan with
heartbeat-*detected* (not pre-declared) worker crashes produces outputs and
``parity_key()`` byte-identical to the failure-free run, under both
recovery strategies — and exhausting the restart budget degrades to a
structured partial-result report instead of raising."""

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS
from repro.algorithms.sources import ALGORITHMS
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.pregel import Graph, PregelEngine
from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance
from repro.pregel.net import NetFaultPlan, SimulatedTransport
from repro.pregel.supervisor import (
    PhiAccrualDetector,
    Supervisor,
    SupervisorPlan,
    parse_heartbeat,
)

SCALE = 0.25
WORKERS = 4

#: the ISSUE's nonzero drop+duplicate+reorder channel
CHANNEL = dict(drop_rate=0.1, dup_rate=0.05, reorder_rate=0.1, seed=7)


def _graph_for(algorithm: str) -> Graph:
    return load_graph(applicable_graphs(algorithm)[0], SCALE)


def _supervised_run(program, graph, args, *, recovery, baseline, **opts):
    """Run under the acceptance fault mix: hostile channel + a *silent*
    crash the heartbeat detector (not a pre-declared schedule) must catch."""
    crash_step = max(1, baseline.metrics.supersteps - 2)
    supervisor = Supervisor(
        SupervisorPlan(silent_crashes=(CrashEvent(1, crash_step),))
    )
    run = program.run(
        graph,
        args,
        num_workers=WORKERS,
        ft=FaultTolerance(FaultPlan(checkpoint_every=2, recovery=recovery)),
        transport=SimulatedTransport(NetFaultPlan(**CHANNEL)),
        supervisor=supervisor,
        **opts,
    )
    return run, supervisor


class TestAcceptanceMatrix:
    """Every algorithm × both recovery strategies, detected crashes only."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_generated_program(self, algorithm, recovery):
        graph = _graph_for(algorithm)
        program = compile_algorithm(algorithm, emit_java=False).program
        args = default_args(algorithm, graph)
        baseline = program.run(graph, args, num_workers=WORKERS)
        run, supervisor = _supervised_run(
            program, graph, args, recovery=recovery, baseline=baseline
        )
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        assert run.metrics.restarts == 1
        assert run.metrics.heartbeats_missed > 0
        report = supervisor.report()
        assert not report["degraded"]
        assert [d["worker"] for d in report["detections"]] == [1]

    @pytest.mark.parametrize("algorithm", sorted(MANUAL_PROGRAMS))
    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_manual_baseline(self, algorithm, recovery):
        program = MANUAL_PROGRAMS[algorithm]
        graph = _graph_for(algorithm)
        args = default_args(algorithm, graph)
        baseline = program.run(graph, args, num_workers=WORKERS)
        run, _ = _supervised_run(
            program, graph, args, recovery=recovery, baseline=baseline
        )
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        assert run.metrics.restarts == 1

    @pytest.mark.parametrize("scheduling", ("frontier", "dense"))
    def test_both_schedulers(self, scheduling):
        graph = _graph_for("sssp")
        program = compile_algorithm("sssp", emit_java=False).program
        args = default_args("sssp", graph)
        baseline = program.run(
            graph, args, num_workers=WORKERS, scheduling=scheduling
        )
        run, _ = _supervised_run(
            program,
            graph,
            args,
            recovery="confined",
            baseline=baseline,
            scheduling=scheduling,
        )
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()


class TestDegradation:
    def _pagerank(self):
        graph = load_graph("twitter", SCALE)
        program = compile_algorithm("pagerank", emit_java=False).program
        return program, graph, default_args("pagerank", graph)

    def test_exhausted_budget_degrades_not_raises(self):
        program, graph, args = self._pagerank()
        supervisor = Supervisor(
            SupervisorPlan(max_restarts=0, silent_crashes=(CrashEvent(1, 5),))
        )
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
            supervisor=supervisor,
        )
        assert run.metrics.halt_reason == "unrecoverable"
        assert run.metrics.supersteps == 5  # partial: halted at the detection
        assert run.metrics.restarts == 0
        report = supervisor.report()
        assert report["degraded"] is True
        assert report["halt_reason"] == "unrecoverable"
        assert report["completed_supersteps"] == 5
        assert report["detections"][0]["action"] == "degraded"

    def test_budget_of_n_survives_n_crashes_then_degrades(self):
        program, graph, args = self._pagerank()
        baseline = program.run(graph, args, num_workers=WORKERS)
        crashes = (CrashEvent(1, 3), CrashEvent(2, 5), CrashEvent(3, 7))
        # budget 3 covers all three detected deaths → full, identical run
        healthy = Supervisor(
            SupervisorPlan(max_restarts=3, silent_crashes=crashes)
        )
        run = program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
            supervisor=healthy,
        )
        assert run.metrics.restarts == 3
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        # budget 2 dies on the third
        degraded = Supervisor(
            SupervisorPlan(max_restarts=2, silent_crashes=crashes)
        )
        run = program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
            supervisor=degraded,
        )
        assert run.metrics.halt_reason == "unrecoverable"
        assert run.metrics.restarts == 2
        assert degraded.report()["restarts_used"] == 2

    def test_summary_gains_supervisor_section(self):
        program, graph, args = self._pagerank()
        run, _ = _supervised_run(
            program, graph, args, recovery="rollback",
            baseline=program.run(graph, args, num_workers=WORKERS),
        )
        assert "supervisor: heartbeats_missed=" in run.metrics.summary()


class TestDetector:
    def test_phi_grows_with_silence(self):
        det = PhiAccrualDetector(expected_interval=1.0)
        assert det.phi(1.0) < det.phi(5.0)

    def test_threshold_silence_scales_with_mean(self):
        fast = PhiAccrualDetector(expected_interval=1.0)
        slow = PhiAccrualDetector(expected_interval=4.0)
        assert fast.silence_for_phi(4.0) < slow.silence_for_phi(4.0)

    def test_window_adapts_the_mean(self):
        det = PhiAccrualDetector(expected_interval=1.0, window=4)
        for _ in range(4):
            det.observe(3.0)
        assert det.mean_interval == pytest.approx(3.0)

    def test_detection_latency_metered_in_heartbeats(self):
        graph = load_graph("twitter", SCALE)
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        supervisor = Supervisor(
            SupervisorPlan(
                heartbeat_interval=0.5,
                deadline_timeout=3.0,
                silent_crashes=(CrashEvent(1, 4),),
            )
        )
        run = program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
            supervisor=supervisor,
        )
        detection = supervisor.report()["detections"][0]
        # silence is bounded by the deadline; missed beats ≈ silence / interval
        assert detection["silence"] <= 3.0 + 1e-9
        assert run.metrics.heartbeats_missed == detection["heartbeats_missed"] > 0


class TestQuarantine:
    def test_straggler_is_quarantined_and_results_unchanged(self):
        graph = load_graph("twitter", SCALE)
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        baseline = program.run(graph, args, num_workers=WORKERS)
        supervisor = Supervisor(
            SupervisorPlan(
                stragglers=(2,),
                straggle_factor=10.0,
                barrier_timeout=5.0,
                straggle_strikes=2,
            )
        )
        run = program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
            supervisor=supervisor,
        )
        report = supervisor.report()
        assert report["quarantined_workers"] == [2]
        assert run.metrics.workers_quarantined == 1
        # re-hosting is physical placement only: worker 2's partition moved
        # to another host, the logical ledger — and the results — untouched
        assert 2 not in report["partition_hosts"]
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()

    def test_quarantined_hosts_are_covered_on_crash(self):
        # worker 2 is quarantined early; its partition re-hosts onto some
        # live worker, which then silently dies — detection must recover
        # every partition the dead worker hosted, still bit-identically.
        graph = load_graph("twitter", SCALE)
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        baseline = program.run(graph, args, num_workers=WORKERS)
        probe = Supervisor(
            SupervisorPlan(
                stragglers=(2,), straggle_factor=10.0,
                barrier_timeout=5.0, straggle_strikes=1,
            )
        )
        program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
            supervisor=probe,
        )
        host = probe.report()["partition_hosts"][2]
        supervisor = Supervisor(
            SupervisorPlan(
                stragglers=(2,), straggle_factor=10.0,
                barrier_timeout=5.0, straggle_strikes=1,
                silent_crashes=(CrashEvent(host, 6),),
            )
        )
        run = program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2, recovery="confined")),
            supervisor=supervisor,
        )
        assert run.metrics.restarts == 1
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()


class TestRandomFailures:
    def test_seeded_crash_rate_is_deterministic(self):
        graph = load_graph("twitter", SCALE)
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        baseline = program.run(graph, args, num_workers=WORKERS)

        def once():
            supervisor = Supervisor(
                SupervisorPlan(crash_rate=0.05, max_restarts=50, seed=9)
            )
            run = program.run(
                graph, args, num_workers=WORKERS,
                ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
                supervisor=supervisor,
            )
            return run

        first, second = once(), once()
        assert first.metrics.restarts == second.metrics.restarts
        assert first.metrics.heartbeats_missed == second.metrics.heartbeats_missed
        assert first.outputs == baseline.outputs
        assert first.metrics.parity_key() == baseline.metrics.parity_key()


class TestWiring:
    def test_supervisor_requires_fault_tolerance(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="requires a FaultTolerance"):
            PregelEngine(
                g, lambda c, v, m: None, supervisor=Supervisor(SupervisorPlan())
            )

    def test_supervisor_is_single_use(self):
        graph = load_graph("twitter", 0.05)
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        supervisor = Supervisor(SupervisorPlan())
        program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan()), supervisor=supervisor,
        )
        with pytest.raises(RuntimeError):
            program.run(
                graph, args, num_workers=WORKERS,
                ft=FaultTolerance(FaultPlan()), supervisor=supervisor,
            )

    def test_crash_on_unknown_worker_rejected(self):
        graph = load_graph("twitter", 0.05)
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        supervisor = Supervisor(
            SupervisorPlan(silent_crashes=(CrashEvent(WORKERS, 2),))
        )
        with pytest.raises(ValueError):
            program.run(
                graph, args, num_workers=WORKERS,
                ft=FaultTolerance(FaultPlan()), supervisor=supervisor,
            )

    def test_supervisor_events_are_info_only(self):
        from repro.obs import Tracer, deterministic_jsonl

        graph = load_graph("twitter", SCALE)
        program = compile_algorithm("pagerank", emit_java=False).program
        args = default_args("pagerank", graph)
        clean = Tracer()
        program.run(graph, args, num_workers=WORKERS, tracer=clean)
        supervised = Tracer()
        supervisor = Supervisor(
            SupervisorPlan(silent_crashes=(CrashEvent(1, 5),))
        )
        program.run(
            graph, args, num_workers=WORKERS,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
            supervisor=supervisor, tracer=supervised,
        )
        names = [e.name for e in supervised.events]
        assert "supervisor.suspect" in names and "supervisor.restart" in names
        assert deterministic_jsonl(supervised.events) == deterministic_jsonl(clean.events)


class TestPlanValidation:
    @pytest.mark.parametrize(
        "kwargs",
        (
            {"heartbeat_interval": 0},
            {"phi_threshold": 0},
            {"deadline_timeout": -1},
            {"straggle_strikes": 0},
            {"max_restarts": -1},
            {"crash_rate": 1.0},
            {"straggle_rate": -0.1},
            {"straggle_factor": 0.5},
            {"heartbeat_interval": float("nan")},
            {"phi_threshold": float("nan")},
            {"deadline_timeout": float("nan")},
            {"barrier_timeout": float("nan")},
            {"straggle_factor": float("nan")},
        ),
    )
    def test_bad_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPlan(**kwargs)

    def test_parse_heartbeat_full(self):
        plan = parse_heartbeat(
            "interval=0.5,phi=3,deadline=4,barrier=8,strikes=2,"
            "crash=1@3+0@6,straggler=2+3,crash-rate=0.01,"
            "straggle-rate=0.02,straggle-factor=6,seed=5",
            max_restarts=7,
        )
        assert plan == SupervisorPlan(
            heartbeat_interval=0.5, phi_threshold=3.0, deadline_timeout=4.0,
            barrier_timeout=8.0, straggle_strikes=2, max_restarts=7,
            silent_crashes=(CrashEvent(1, 3), CrashEvent(0, 6)),
            stragglers=(2, 3), crash_rate=0.01, straggle_rate=0.02,
            straggle_factor=6.0, seed=5,
        )

    def test_parse_heartbeat_empty_is_default(self):
        assert parse_heartbeat("") == SupervisorPlan()

    @pytest.mark.parametrize(
        "bad",
        (
            "junk", "bogus=1", "crash=zz", "straggler=x", "straggler=-1", "straggler=1+-2",
            "interval=x", "crash=-1@2",
            "crash=0@-3", "interval=nan", "phi=nan", "deadline=nan", "straggle-factor=nan",
        ),
    )
    def test_parse_heartbeat_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_heartbeat(bad)
