"""Memory-pressure robustness (repro.pregel.mem): per-worker byte budgets,
credit-based backpressure, spill-to-disk, superstep splitting, and graceful
out-of-memory degradation.

The load-bearing invariant mirrors the transport's: the memory machinery
must change *cost*, never *results*.  Outputs and ``parity_key()`` are
bit-identical under any budget the run can complete in — including budgets
tight enough to force spilling, parking, and splitting — for every
algorithm, both schedulers, and in composition with net faults, crash
recovery, and supervision.  Only an irreducible allocation (one vertex's
materialized inbox, a combiner table, the checkpoint window) may end the
run, and then as structured ``halt_reason="out_of_memory"`` degradation,
never an exception."""

import glob
import os
import tempfile

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS, ManualBFS
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen import skewed
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.obs import MetricsRegistry
from repro.pregel import Graph
from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance
from repro.pregel.mem import (
    MemoryExhausted,
    MemoryManager,
    MemPlan,
    parse_mem_budget,
)
from repro.pregel.net import NetFaultPlan, SimulatedTransport
from repro.pregel.supervisor import Supervisor, SupervisorPlan

from .conftest import loop_vertices

SCALE = 0.25
WORKERS = 4

#: the transport suite's hostile mix, reused for composition tests
MIXED = dict(drop_rate=0.15, dup_rate=0.1, reorder_rate=0.15, corrupt_rate=0.05, seed=13)

ALL_PROGRAMS = dict(MANUAL_PROGRAMS) | {"bfs": ManualBFS()}
#: compiled programs under a budget: their phase loops read spilled inboxes
GENERATED = ("generated:pagerank", "generated:sssp")


def _graph_for(algorithm: str) -> Graph:
    name = applicable_graphs(algorithm)[0] if algorithm != "bfs" else "twitter"
    return load_graph(name, SCALE)


def _workload(algorithm: str):
    kind, _, name = algorithm.rpartition(":")
    if kind == "generated":
        program = compile_algorithm(name, emit_java=False).program
        algorithm = name
    else:
        program = ALL_PROGRAMS[algorithm]
    graph = _graph_for(algorithm)
    args = default_args(algorithm, graph)
    return program, graph, args


def _assert_budget_run_identical(program, graph, args, budget, **opts):
    """A budgeted run must be bit-identical to the unlimited baseline."""
    baseline = program.run(graph, args, num_workers=WORKERS, **opts)
    mem = MemoryManager(MemPlan(budget_bytes=budget))
    run = program.run(graph, args, num_workers=WORKERS, mem=mem, **opts)
    assert run.outputs == baseline.outputs
    assert run.metrics.parity_key() == baseline.metrics.parity_key()
    return baseline, run


def _observed_peak(program, graph, args, **opts) -> int:
    """Per-worker peak under an effectively-unlimited (but metered) budget."""
    mem = MemoryManager(MemPlan(budget_bytes=1 << 30))
    run = program.run(graph, args, num_workers=WORKERS, mem=mem, **opts)
    return run.metrics.mem_peak_bytes


class TestPlanParsing:
    def test_single_budget(self):
        plan = parse_mem_budget(["65536"])
        assert plan.budget_bytes == 65536 and plan.limited

    @pytest.mark.parametrize(
        "spec,expected", [("64k", 64 << 10), ("2m", 2 << 20), ("1g", 1 << 30)]
    )
    def test_suffixes(self, spec, expected):
        assert parse_mem_budget([spec]).budget_bytes == expected

    def test_targeted_worker(self):
        plan = parse_mem_budget(["64k", "4096@1"])
        assert plan.budget_bytes == 64 << 10
        assert plan.worker_budgets == ((1, 4096),)

    def test_empty_is_unlimited(self):
        assert not parse_mem_budget([]).limited

    @pytest.mark.parametrize(
        "bad",
        ["banana", "0", "-5", "64k@x", "@2", "64q"],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_mem_budget([bad])

    def test_rejects_duplicate_global(self):
        with pytest.raises(ValueError):
            parse_mem_budget(["64k", "32k"])

    def test_rejects_duplicate_worker(self):
        with pytest.raises(ValueError):
            parse_mem_budget(["4096@1", "8192@1"])

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            MemPlan(budget_bytes=-1)
        with pytest.raises(ValueError):
            MemPlan(spill_watermark=0.0)
        with pytest.raises(ValueError):
            MemPlan(worker_budgets=((0, 0),))
        with pytest.raises(ValueError):
            MemPlan(checkpoint_window_bytes=0)

    def test_budget_targeting_missing_worker_rejected_at_attach(self):
        program, graph, args = _workload("pagerank")
        mem = MemoryManager(MemPlan(worker_budgets=((WORKERS + 3, 4096),)))
        with pytest.raises(ValueError):
            program.run(graph, args, num_workers=WORKERS, mem=mem)

    def test_manager_drives_exactly_one_run(self):
        program, graph, args = _workload("avg_teen_cnt")
        mem = MemoryManager(MemPlan(budget_bytes=1 << 20))
        program.run(graph, args, num_workers=WORKERS, mem=mem)
        with pytest.raises(RuntimeError):
            program.run(graph, args, num_workers=WORKERS, mem=mem)


class TestUnlimitedFastPath:
    def test_no_manager_leaves_counters_zero(self):
        program, graph, args = _workload("pagerank")
        run = program.run(graph, args, num_workers=WORKERS)
        m = run.metrics
        assert m.spilled_bytes == m.spill_files == 0
        assert m.outbox_parks == m.superstep_splits == 0
        assert m.mem_peak_bytes == m.checkpoint_peak_bytes == 0

    def test_unlimited_plan_installs_nothing(self):
        program, graph, args = _workload("pagerank")
        baseline = program.run(graph, args, num_workers=WORKERS)
        mem = MemoryManager(MemPlan())  # no budget: metering stays off
        run = program.run(graph, args, num_workers=WORKERS, mem=mem)
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        assert run.metrics.mem_peak_bytes == 0


class TestParityUnderPressure:
    @pytest.mark.parametrize("algorithm", sorted(ALL_PROGRAMS) + list(GENERATED))
    @pytest.mark.parametrize("scheduling", ("dense", "frontier"))
    def test_tight_budget_bit_identical(self, algorithm, scheduling):
        """Quarter-of-peak budgets force spills/splits on every message-heavy
        workload; outputs and parity must not move."""
        program, graph, args = _workload(algorithm)
        peak = _observed_peak(program, graph, args, scheduling=scheduling)
        tight = max(1024, peak // 4)
        registry = MetricsRegistry()
        _, run = _assert_budget_run_identical(
            program, graph, args, tight, scheduling=scheduling, metrics_registry=registry
        )
        loop = "generated" if algorithm in GENERATED else "adapted"
        assert set(loop_vertices(registry)) == {loop}
        if peak > 4096:
            # Message-heavy workloads must actually have exercised the
            # machinery, not completed trivially under the tight budget.
            assert run.metrics.spilled_bytes > 0
            assert run.metrics.superstep_splits > 0

    def test_targeted_single_worker_budget(self):
        """A budget pinned to one worker pressures only that worker; parity
        still holds (the BYTES@W injection form)."""
        program, graph, args = _workload("pagerank")
        baseline = program.run(graph, args, num_workers=WORKERS)
        mem = MemoryManager(MemPlan(worker_budgets=((2, 50_000),)))
        run = program.run(graph, args, num_workers=WORKERS, mem=mem)
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        assert run.metrics.spilled_bytes > 0

    def test_minimum_completing_budget(self):
        """Binary-search the smallest budget PageRank completes under: it
        must be far below the unlimited peak (spilling works), and the run
        at the minimum must still be bit-identical."""
        program, graph, args = _workload("pagerank")
        baseline = program.run(graph, args, num_workers=WORKERS)
        peak = _observed_peak(program, graph, args)

        def completes(budget: int):
            mem = MemoryManager(MemPlan(budget_bytes=budget))
            run = program.run(graph, args, num_workers=WORKERS, mem=mem)
            return run if run.metrics.halt_reason != "out_of_memory" else None

        lo, hi = 1, peak
        while lo < hi:
            mid = (lo + hi) // 2
            if completes(mid):
                hi = mid
            else:
                lo = mid + 1
        minimum = hi
        run = completes(minimum)
        assert run is not None
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        assert run.metrics.spilled_bytes > 0
        assert minimum < peak // 2, (
            f"minimum completing budget {minimum} should be well under the "
            f"unlimited peak {peak}"
        )
        if minimum > 1:
            assert completes(minimum - 1) is None


class TestComposition:
    def test_with_net_faults(self):
        program, graph, args = _workload("pagerank")
        baseline = program.run(graph, args, num_workers=WORKERS)
        tight = _observed_peak(program, graph, args) // 3
        mem = MemoryManager(MemPlan(budget_bytes=tight))
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            mem=mem,
            transport=SimulatedTransport(NetFaultPlan(**MIXED)),
        )
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        assert run.metrics.spilled_bytes > 0
        assert run.metrics.messages_dropped > 0  # faults really ran

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_with_crash_recovery(self, recovery):
        program, graph, args = _workload("pagerank")
        baseline = program.run(graph, args, num_workers=WORKERS)
        tight = _observed_peak(program, graph, args) // 3
        mem = MemoryManager(MemPlan(budget_bytes=tight))
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            mem=mem,
            ft=FaultTolerance(
                FaultPlan(
                    checkpoint_every=2,
                    recovery=recovery,
                    crashes=(CrashEvent(worker=1, superstep=3),),
                )
            ),
        )
        assert run.metrics.faults_injected == 1
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()
        assert run.metrics.spilled_bytes > 0

    def test_streamed_checkpoints_meter_peak(self):
        """Under a budget, checkpoints stream through a bounded window
        instead of one monolithic pickle; the window peak is metered."""
        program, graph, args = _workload("pagerank")
        mem = MemoryManager(MemPlan(budget_bytes=1 << 30))
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            mem=mem,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
        )
        assert run.metrics.checkpoint_peak_bytes > 0

    def test_full_stack(self):
        """Budget + net faults + crash + supervisor at once: the paper's
        whole robustness story composes without breaking parity."""
        program, graph, args = _workload("sssp")
        baseline = program.run(graph, args, num_workers=WORKERS)
        tight = _observed_peak(program, graph, args) // 3
        mem = MemoryManager(MemPlan(budget_bytes=tight))
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            mem=mem,
            transport=SimulatedTransport(NetFaultPlan(**MIXED)),
            ft=FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(0, 2),))
            ),
            supervisor=Supervisor(SupervisorPlan()),
        )
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()


class TestOutOfMemory:
    def test_unsatisfiable_budget_degrades(self):
        """A budget below one vertex's inbox ends the run structurally."""
        program, graph, args = _workload("pagerank")
        mem = MemoryManager(MemPlan(budget_bytes=256))
        run = program.run(graph, args, num_workers=WORKERS, mem=mem)
        assert run.metrics.halt_reason == "out_of_memory"
        report = mem.report()
        assert report.oom is not None
        assert report.oom["phase"] in ("vertex", "combine", "checkpoint")
        assert report.oom["needed_bytes"] > report.oom["budget_bytes"] == 256
        d = report.to_dict()
        assert d["oom"]["worker"] == report.oom["worker"]
        assert "OOM" in report.summary()

    def test_oom_escalates_to_supervisor(self):
        program, graph, args = _workload("pagerank")
        mem = MemoryManager(MemPlan(budget_bytes=256))
        supervisor = Supervisor(SupervisorPlan())
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            mem=mem,
            supervisor=supervisor,
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
        )
        assert run.metrics.halt_reason == "out_of_memory"
        report = supervisor.report()
        assert report["halt_reason"] == "out_of_memory"
        assert report["degraded"]
        assert report["oom"]["worker"] == mem.report().oom["worker"]

    def test_largest_inbox_is_the_satisfiability_floor(self):
        """On the skewed graph the hub's inbox is the irreducible allocation:
        a budget under it OOMs, a budget with room over it completes."""
        hub_graph = skewed(400, 6, seed=5)
        from repro.graphgen.generators import attach_standard_props

        attach_standard_props(hub_graph)
        program = MANUAL_PROGRAMS["pagerank"]
        args = default_args("pagerank", hub_graph)
        baseline = program.run(hub_graph, args, num_workers=WORKERS)
        probe = MemoryManager(MemPlan(budget_bytes=1 << 30))
        program.run(hub_graph, args, num_workers=WORKERS, mem=probe)
        floor = probe.report().largest_vertex_inbox_bytes
        assert floor > 0
        mem = MemoryManager(MemPlan(budget_bytes=max(1, floor // 2)))
        run = program.run(hub_graph, args, num_workers=WORKERS, mem=mem)
        assert run.metrics.halt_reason == "out_of_memory"
        mem = MemoryManager(MemPlan(budget_bytes=2 * floor))
        run = program.run(hub_graph, args, num_workers=WORKERS, mem=mem)
        assert run.metrics.halt_reason != "out_of_memory"
        assert run.outputs == baseline.outputs
        assert run.metrics.parity_key() == baseline.metrics.parity_key()

    def test_memory_exhausted_never_escapes_run(self):
        program, graph, args = _workload("pagerank")
        mem = MemoryManager(MemPlan(budget_bytes=64))
        try:
            run = program.run(graph, args, num_workers=WORKERS, mem=mem)
        except MemoryExhausted:  # pragma: no cover - the bug being tested
            pytest.fail("MemoryExhausted escaped PregelEngine.run()")
        assert run.metrics.halt_reason == "out_of_memory"


class TestSpillHygiene:
    def _leftovers(self, parent) -> list[str]:
        return glob.glob(os.path.join(str(parent), "gm-pregel-mem-*"))

    def test_spill_dir_cleaned_after_normal_run(self, tmp_path):
        program, graph, args = _workload("pagerank")
        tight = _observed_peak(program, graph, args) // 3
        mem = MemoryManager(MemPlan(budget_bytes=tight, spill_dir=str(tmp_path)))
        run = program.run(graph, args, num_workers=WORKERS, mem=mem)
        assert run.metrics.spill_files > 0
        assert self._leftovers(tmp_path) == []

    def test_spill_dir_cleaned_after_oom(self, tmp_path):
        program, graph, args = _workload("pagerank")
        mem = MemoryManager(MemPlan(budget_bytes=256, spill_dir=str(tmp_path)))
        run = program.run(graph, args, num_workers=WORKERS, mem=mem)
        assert run.metrics.halt_reason == "out_of_memory"
        assert self._leftovers(tmp_path) == []

    def test_spill_dir_cleaned_after_crash_recovery(self, tmp_path):
        program, graph, args = _workload("pagerank")
        tight = _observed_peak(program, graph, args) // 3
        mem = MemoryManager(MemPlan(budget_bytes=tight, spill_dir=str(tmp_path)))
        run = program.run(
            graph,
            args,
            num_workers=WORKERS,
            mem=mem,
            ft=FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),))
            ),
        )
        assert run.metrics.faults_injected == 1
        assert self._leftovers(tmp_path) == []

    def test_system_tempdir_not_littered(self):
        before = set(self._leftovers(tempfile.gettempdir()))
        program, graph, args = _workload("conductance")
        mem = MemoryManager(MemPlan(budget_bytes=4_000))
        program.run(graph, args, num_workers=WORKERS, mem=mem)
        assert set(self._leftovers(tempfile.gettempdir())) == before


class TestObservability:
    def test_budgeted_trace_projection_matches_unlimited(self):
        """mem.* events are info-only: the deterministic projection of a
        budgeted traced run equals the unlimited one's."""
        from repro.obs import Tracer
        from repro.obs.tracer import deterministic_events

        program, graph, args = _workload("pagerank")
        t_base = Tracer()
        program.run(graph, args, num_workers=WORKERS, tracer=t_base)
        t_mem = Tracer()
        tight = _observed_peak(program, graph, args) // 3
        mem = MemoryManager(MemPlan(budget_bytes=tight))
        run = program.run(graph, args, num_workers=WORKERS, tracer=t_mem, mem=mem)
        assert run.metrics.spilled_bytes > 0
        assert deterministic_events(t_mem.events) == deterministic_events(
            t_base.events
        )
        names = {e.name for e in t_mem.events}
        assert {"mem.spill", "mem.split"} <= names

    def test_summary_lines_mention_memory(self):
        program, graph, args = _workload("pagerank")
        mem = MemoryManager(MemPlan(budget_bytes=_observed_peak(program, graph, args) // 3))
        run = program.run(graph, args, num_workers=WORKERS, mem=mem)
        assert "mem: peak=" in run.metrics.summary()
        assert mem.report().summary().startswith("memory: budget=")


class TestChaosMemAxis:
    def test_drawn_budget_cases_hold_parity(self):
        from repro.bench.chaos import draw_case, run_case

        seed = next(
            s for s in range(64) if draw_case(s).mem_budget is not None
        )
        result = run_case(draw_case(seed), scale=0.125)
        assert result.ok, result.violations
