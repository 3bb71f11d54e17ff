"""Frontier-aware superstep scheduling (engine extension): sparse/dense
parity on every algorithm, batched message routing, interaction with voting,
combiners, and fault recovery, and checkpointing of the frontier state."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS, ManualBFS
from repro.algorithms.sources import ALGORITHMS
from repro.compiler import compile_algorithm
from repro.bench.harness import default_args
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.pregel import Graph, PregelEngine
from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance
from repro.pregel.mem import MemoryManager, MemPlan
from repro.pregel.net import NetFaultPlan, SimulatedTransport
from repro.obs import MetricsRegistry, Tracer

from .conftest import loop_vertices

SCALE = 0.125  # 500-node graphs: big enough to cross worker boundaries


def line_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def bfs_vertex(level: list):
    def vertex(ctx, vid, messages):
        if ctx.superstep == 0:
            if vid == 0:
                level[vid] = 0
                ctx.send_nbrs(vid, (0,))
        elif messages and level[vid] < 0:
            level[vid] = ctx.superstep
            ctx.send_nbrs(vid, (0,))
        ctx.vote_to_halt(vid)

    return vertex


class TestConstruction:
    def test_unknown_scheduling_rejected(self):
        with pytest.raises(ValueError, match="scheduling"):
            PregelEngine(line_graph(2), lambda *a: None, scheduling="eager")

    def test_threshold_out_of_range_rejected(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="frontier_threshold"):
                PregelEngine(
                    line_graph(2), lambda *a: None, frontier_threshold=bad
                )

    def test_vote_to_halt_without_voting_raises(self):
        # Silently ignoring the vote used to mask non-termination as
        # halt_reason="max_supersteps"; the engine now fails loudly.
        def vertex(ctx, vid, messages):
            ctx.vote_to_halt(vid)

        engine = PregelEngine(line_graph(2), vertex, use_voting=False)
        with pytest.raises(RuntimeError, match="use_voting=True"):
            engine.run()


class TestSparseExecution:
    """BFS on a line graph: the frontier is a single vertex every superstep,
    the canonical case the sparse path exists for."""

    def _run(self, n: int, **opts):
        level = [-1] * n
        engine = PregelEngine(
            line_graph(n),
            bfs_vertex(level),
            use_voting=True,
            message_size=lambda m: 0,
            **opts,
        )
        return engine, level, engine.run()

    def test_sparse_matches_dense_bit_for_bit(self):
        _, dense_level, dense = self._run(64, scheduling="dense")
        engine, level, metrics = self._run(
            64, scheduling="frontier", frontier_threshold=1.0
        )
        assert level == dense_level == [i for i in range(64)]
        assert metrics.parity_key() == dense.parity_key()
        assert metrics.halt_reason == "all_halted"
        # the run ended inside the sparse regime: the frontier is live
        assert not engine._frontier_dirty

    def test_dense_fallback_above_threshold(self):
        # threshold so low every superstep falls back to the dense scan;
        # results must be unchanged
        _, dense_level, dense = self._run(64, scheduling="dense")
        engine, level, metrics = self._run(
            64, scheduling="frontier", frontier_threshold=1e-9
        )
        assert level == dense_level
        assert metrics.parity_key() == dense.parity_key()
        assert engine._frontier_dirty  # never entered the sparse regime

    def test_outbox_view_merges_per_worker_batches(self):
        # master runs before delivery, so at superstep 1 it observes the
        # in-flight messages sent at superstep 0 under either scheduler
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        seen = {}

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0 and vid == 0:
                for dst in (1, 2, 3):
                    ctx.send(dst, (0, dst * 10))

        def master(ctx):
            if ctx.superstep == 1:
                seen["view"] = {
                    dst: list(msgs) for dst, msgs in ctx.outbox_view().items()
                }
            if ctx.superstep == 2:
                ctx.halt()

        PregelEngine(g, vertex, master, num_workers=2, scheduling="frontier").run()
        assert seen["view"] == {1: [(0, 10)], 2: [(0, 20)], 3: [(0, 30)]}


class TestAlgorithmParity:
    """Frontier scheduling is bit-identical to the dense scan — outputs and
    the whole metered ledger — for all six algorithms.  Generated programs
    run their phase loops, hand-written ones the per-vertex adapter
    (``pregel.loop_vertices``)."""

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_generated_parity(self, algorithm):
        key = applicable_graphs(algorithm)[0]
        graph = load_graph(key, SCALE)
        compiled = compile_algorithm(algorithm, emit_java=False)
        args = default_args(algorithm, graph)
        for use_voting in (False, True):
            runs = {}
            for scheduling in ("dense", "frontier"):
                registry = MetricsRegistry()
                runs[scheduling] = run = compiled.program.run(
                    graph, args, scheduling=scheduling, use_voting=use_voting,
                    metrics_registry=registry,
                )  # fmt: skip
                # generated programs never vote: every superstep loops over all
                assert loop_vertices(registry) == {
                    "generated": graph.num_nodes * run.metrics.supersteps
                }
            dense, frontier = runs["dense"], runs["frontier"]
            assert frontier.outputs == dense.outputs
            assert frontier.metrics.parity_key() == dense.metrics.parity_key()

    @pytest.mark.parametrize("algorithm", sorted(MANUAL_PROGRAMS))
    def test_manual_parity(self, algorithm):
        key = applicable_graphs(algorithm)[0]
        graph = load_graph(key, SCALE)
        program = MANUAL_PROGRAMS[algorithm]
        args = default_args(algorithm, graph)
        registry = MetricsRegistry()
        dense = program.run(graph, args, scheduling="dense", metrics_registry=registry)
        frontier = program.run(graph, args, scheduling="frontier")
        assert frontier.outputs == dense.outputs
        assert frontier.metrics.parity_key() == dense.metrics.parity_key()
        assert set(loop_vertices(registry)) == {"adapted"}

    def test_parity_with_combiners(self):
        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        dense = compiled.program.run(graph, args, use_combiners=True, scheduling="dense")
        frontier = compiled.program.run(
            graph, args, use_combiners=True, scheduling="frontier"
        )
        assert frontier.outputs == dense.outputs
        assert frontier.metrics.parity_key() == dense.metrics.parity_key()

    def test_parity_with_voting_sparse_supersteps(self):
        # manual SSSP and BFS vote to halt; force the sparse path with a
        # permissive threshold so both regimes are actually exercised — each
        # through the per-vertex adapter, its computed vertices the traced ones
        graph = load_graph("twitter", SCALE)
        args = default_args("sssp", graph)
        for program in (MANUAL_PROGRAMS["sssp"], ManualBFS()):
            runs = {}
            for scheduling in ("dense", "frontier"):
                tracer, registry = Tracer(), MetricsRegistry()
                runs[scheduling] = program.run(
                    graph, args, scheduling=scheduling, frontier_threshold=1.0,
                    tracer=tracer, metrics_registry=registry,
                )  # fmt: skip
                active = [e.det["active"] for e in tracer.events if e.name == "superstep"]
                assert loop_vertices(registry) == {"adapted": sum(active)}
                assert min(active) < graph.num_nodes  # votes skipped vertices
            dense, frontier = runs["dense"], runs["frontier"]
            assert frontier.outputs == dense.outputs
            assert frontier.metrics.parity_key() == dense.metrics.parity_key()


class TestFaultRecovery:
    """Frontier state must survive checkpoint/restore: a frontier-scheduled
    run that crashes and recovers stays bit-identical to the dense
    failure-free baseline, under both recovery strategies."""

    @pytest.mark.parametrize("recovery", ["rollback", "confined"])
    def test_recovered_run_matches_dense_baseline(self, recovery):
        graph = load_graph("twitter", SCALE)
        args = default_args("sssp", graph)
        sssp = MANUAL_PROGRAMS["sssp"]
        dense = sssp.run(graph, args, scheduling="dense")
        plan = FaultPlan(
            checkpoint_every=2,
            crashes=(CrashEvent(worker=1, superstep=3),),
            recovery=recovery,
        )
        faulted = sssp.run(
            graph,
            args,
            scheduling="frontier",
            frontier_threshold=1.0,
            ft=FaultTolerance(plan),
        )
        assert faulted.metrics.faults_injected == 1
        assert faulted.outputs == dense.outputs
        assert faulted.metrics.parity_key() == dense.metrics.parity_key()

    @pytest.mark.parametrize("recovery", ["rollback", "confined"])
    def test_recovered_bfs_levels_match(self, recovery):
        # the pure frontier workload: sparse supersteps on both sides of the
        # crash, checkpoint taken mid-traversal
        n = 64
        dense = ManualBFS().run(line_graph(n), {"root": 0}, scheduling="dense")
        plan = FaultPlan(
            checkpoint_every=3,
            crashes=(CrashEvent(worker=2, superstep=10),),
            recovery=recovery,
        )
        faulted = ManualBFS().run(
            line_graph(n),
            {"root": 0},
            scheduling="frontier",
            frontier_threshold=1.0,
            ft=FaultTolerance(plan),
        )
        assert faulted.metrics.faults_injected == 1
        assert faulted.outputs == dense.outputs
        assert faulted.metrics.parity_key() == dense.metrics.parity_key()

    def test_checkpoint_carries_frontier_and_restore_rebuilds_it(self):
        # white-box: a checkpoint taken in the sparse regime records the live
        # frontier; a rollback restore revives it, a confined restore forces
        # a recompute from the voted bitmap
        n = 32
        level = [-1] * n
        captured = {}

        def master(ctx):
            if ctx.superstep == 5:
                captured["state"] = ctx.checkpoint_state()
            if ctx.superstep == 8:
                ctx.halt()

        engine = PregelEngine(
            line_graph(n),
            bfs_vertex(level),
            master,
            use_voting=True,
            scheduling="frontier",
            frontier_threshold=1.0,
        )
        engine.run()
        state = captured["state"]
        assert state["frontier"]  # sparse regime: the frontier was live

        level2 = [-1] * n
        twin = PregelEngine(
            line_graph(n),
            bfs_vertex(level2),
            use_voting=True,
            scheduling="frontier",
            frontier_threshold=1.0,
        )
        twin.restore_state(state)
        assert twin._frontier == state["frontier"]
        assert not twin._frontier_dirty
        assert twin.outbox_view() == state["outbox"]

        twin.restore_state(state, vertices=[0, 1])
        assert twin._frontier_dirty  # partition rewound: frontier recomputed

    def test_dense_checkpoint_restores_into_frontier_engine(self):
        # a checkpoint written by a dense engine has frontier=None; a
        # frontier engine restoring it must fall back to a bitmap recompute
        n = 32
        level = [-1] * n
        captured = {}

        def master(ctx):
            if ctx.superstep == 5:
                captured["state"] = ctx.checkpoint_state()
            if ctx.superstep == 8:
                ctx.halt()

        dense = PregelEngine(
            line_graph(n),
            bfs_vertex(level),
            master,
            use_voting=True,
            scheduling="dense",
        )
        dense.run()
        assert captured["state"]["frontier"] is None

        level2 = [-1] * n
        twin = PregelEngine(
            line_graph(n),
            bfs_vertex(level2),
            use_voting=True,
            scheduling="frontier",
            frontier_threshold=1.0,
        )
        twin.restore_state(captured["state"])
        assert twin._frontier_dirty


DENSE_REFERENCE = Path(__file__).parent / "goldens" / "dense_reference.json"

DENSE_REFERENCE_PROGRAMS = (
    [f"generated:{name}" for name in ALGORITHMS]
    + [f"manual:{name}" for name in sorted(MANUAL_PROGRAMS)]
    + ["manual:bfs"]
)


def _dense_reference_configs(generated: bool) -> dict:
    """Engine compositions of the frozen dense matrix, as factories (the
    ft / transport / mem managers are stateful: one per run)."""

    def ft(recovery):
        return FaultTolerance(
            FaultPlan(
                checkpoint_every=2,
                crashes=(CrashEvent(worker=1, superstep=3),),
                recovery=recovery,
            )
        )

    configs = {
        "plain": lambda: {},
        "makespan": lambda: {"track_makespan": True},
        "range": lambda: {"partitioning": "range"},
        "ft-rollback": lambda: {"ft": ft("rollback")},
        "ft-confined": lambda: {"ft": ft("confined")},
        "lossy-transport": lambda: {
            "transport": SimulatedTransport(
                NetFaultPlan(
                    drop_rate=0.2, dup_rate=0.1, reorder_rate=0.1, corrupt_rate=0.05
                )
            )
        },
        "mem-64k": lambda: {"mem": MemoryManager(MemPlan(budget_bytes=64 << 10))},
        "mem-16k-ft": lambda: {
            "mem": MemoryManager(MemPlan(budget_bytes=16 << 10)),
            "ft": ft("rollback"),
        },
    }
    if generated:
        configs["combiners"] = lambda: {"use_combiners": True}
    return configs


def dense_reference_rows(program: str) -> dict:
    """``{config: {"parity_key", "outputs_sha256"}}`` for one program of the
    frozen matrix, every run at ``scheduling="dense"``."""
    variant, name = program.split(":")
    algorithm = "sssp" if name == "bfs" else name
    graph = load_graph(applicable_graphs(algorithm)[0], SCALE)
    args = default_args(algorithm, graph)
    if variant == "generated":
        run = compile_algorithm(name, emit_java=False).program.run
    else:
        run = (ManualBFS() if name == "bfs" else MANUAL_PROGRAMS[name]).run
    rows = {}
    for config, opts in _dense_reference_configs(variant == "generated").items():
        result = run(graph, args, scheduling="dense", **opts())
        outputs = json.dumps(result.outputs, sort_keys=True)
        rows[config] = {
            # through JSON, so the comparison sees what the golden file holds
            "parity_key": json.loads(json.dumps(result.metrics.parity_key())),
            "outputs_sha256": hashlib.sha256(outputs.encode()).hexdigest(),
        }
    return rows


class TestDenseReference:
    """``tests/goldens/dense_reference.json`` was captured at commit 96f0211
    from the dict-inbox dense path (flat ``{dst: msgs}`` outbox swapped into
    the inbox at the barrier), the last commit that had one.  It is frozen:
    ``scheduling="dense"`` now runs the shared routing path with the sparse
    switch off and must reproduce every row — 6 generated + 5 manual programs
    + manual BFS × {plain, combiners, makespan, range partitioning, ft
    rollback/confined, lossy transport, 64 KiB budget, 16 KiB budget + ft}."""

    @pytest.mark.parametrize("program", DENSE_REFERENCE_PROGRAMS)
    def test_dense_reproduces_frozen_reference(self, program):
        frozen = json.loads(DENSE_REFERENCE.read_text())[program]
        rows = dense_reference_rows(program)
        assert sorted(rows) == sorted(frozen)
        for config, row in rows.items():
            assert row == frozen[config], f"{program} / {config}"


class TestTraceParity:
    """The observability acceptance property, from the scheduler's side: the
    deterministic projection of a traced run's event stream (timestamps and
    ``info`` excluded) is *byte-identical* across frontier and dense
    scheduling — per-superstep message/byte deltas, per-worker send counts,
    halt votes, all of it."""

    def _traced(self, n: int, **opts):
        from repro.obs import Tracer

        level = [-1] * n
        tracer = Tracer()
        PregelEngine(
            line_graph(n),
            bfs_vertex(level),
            use_voting=True,
            message_size=lambda m: 0,
            tracer=tracer,
            **opts,
        ).run()
        return level, tracer

    def test_bfs_trace_streams_identical(self):
        from repro.obs import deterministic_jsonl

        dense_level, dense = self._traced(64, scheduling="dense")
        level, frontier = self._traced(
            64, scheduling="frontier", frontier_threshold=1.0
        )
        assert level == dense_level
        assert deterministic_jsonl(frontier.events) == deterministic_jsonl(dense.events)
        # the streams came from genuinely different execution regimes
        modes = {e.info["mode"] for e in frontier.events if e.name == "superstep"}
        assert "sparse" in modes
        assert all(
            e.info["mode"] == "dense" for e in dense.events if e.name == "superstep"
        )

    def test_compiled_trace_streams_identical_with_combiners(self):
        from repro.obs import Tracer, deterministic_jsonl

        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        streams = {}
        for scheduling in ("dense", "frontier"):
            tracer = Tracer()
            compiled.program.run(
                graph,
                args,
                use_combiners=True,
                scheduling=scheduling,
                tracer=tracer,
            )
            streams[scheduling] = deterministic_jsonl(tracer.events)
        assert streams["frontier"] == streams["dense"]
