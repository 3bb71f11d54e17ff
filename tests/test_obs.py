"""Observability subsystem (repro.obs): tracer API, exporters, engine and
compiler instrumentation.

The central property mirrors the scheduler and fault-tolerance suites: the
*deterministic projection* of a trace — every event's ``det`` payload, in
stream order, timestamps excluded — is byte-identical across
``frontier``/``dense`` scheduling for all six paper algorithms, and the
compiler-pass events carry enough to regenerate the paper's Table 3."""

import json

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS
from repro.algorithms.sources import ALGORITHMS
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    chrome_trace,
    deterministic_events,
    deterministic_jsonl,
    load_jsonl,
    profile_report,
    straggler_supersteps,
    strip_timing,
    timeline_report,
    to_jsonl,
    worker_profile,
    write_chrome_trace,
    write_jsonl,
)
from repro.pregel import Graph, PregelEngine
from repro.transform.pipeline import TABLE3_ROWS

SCALE = 0.125


def _traced_run(algorithm, *, scheduling="frontier", **engine_opts):
    graph = load_graph(applicable_graphs(algorithm)[0], SCALE)
    tracer = Tracer()
    compiled = compile_algorithm(algorithm, emit_java=False, tracer=tracer)
    args = default_args(algorithm, graph)
    run = compiled.program.run(
        graph, args, scheduling=scheduling, tracer=tracer, **engine_opts
    )
    return run, tracer


class TestTracerCore:
    def test_events_accumulate_in_order(self):
        tracer = Tracer()
        tracer.event("a", det={"x": 1})
        tracer.event("b", info={"y": 2})
        assert [e.name for e in tracer.events] == ["a", "b"]
        assert tracer.events[0].det == {"x": 1} and tracer.events[0].info is None
        assert tracer.events[1].info == {"y": 2} and tracer.events[1].det is None

    def test_timestamps_are_monotone_from_epoch(self):
        tracer = Tracer()
        tracer.event("a")
        tracer.event("b")
        assert 0.0 <= tracer.events[0].ts <= tracer.events[1].ts

    def test_span_records_duration_and_payload(self):
        tracer = Tracer()
        with tracer.span("work", cat="compile") as span:
            span.det["n"] = 3
            span.info["note"] = "hi"
        (event,) = tracer.events
        assert event.name == "work" and event.cat == "compile"
        assert event.dur is not None and event.dur >= 0.0
        assert event.det == {"n": 3} and event.info == {"note": "hi"}

    def test_span_with_empty_payload_carries_none(self):
        tracer = Tracer()
        with tracer.span("empty"):
            pass
        assert tracer.events[0].det is None and tracer.events[0].info is None

    def test_span_emits_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError()
        assert [e.name for e in tracer.events] == ["boom"]

    def test_on_rollback_drops_replayed_steps_only(self):
        tracer = Tracer()
        tracer.event("compile.pass", det={"pass": "x", "applied": True})
        tracer.event("superstep", det={"step": 0})
        tracer.event("superstep", det={"step": 1})
        tracer.event("ft.checkpoint", info={"superstep": 2})  # det=None: kept
        tracer.event("superstep", det={"step": 2})
        tracer.on_rollback(1)
        assert [e.name for e in tracer.events] == [
            "compile.pass",
            "superstep",
            "ft.checkpoint",
        ]
        assert tracer.events[1].det["step"] == 0

    def test_null_tracer_is_inert(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.now() == 0.0
        NULL_TRACER.event("ignored", det={"x": 1})
        with NULL_TRACER.span("ignored") as span:
            span.det["x"] = 1  # accepted, discarded
        NULL_TRACER.on_rollback(0)
        assert NULL_TRACER.events == ()

    def test_deterministic_projection_excludes_info_only_events(self):
        events = [
            TraceEvent("a", det={"k": 1}, info={"wall": 0.5}),
            TraceEvent("b", info={"wall": 0.5}),
        ]
        assert deterministic_events(events) == [{"name": "a", "det": {"k": 1}}]


class TestExporters:
    def _events(self):
        _, tracer = _traced_run("pagerank")
        return tracer.events

    def test_jsonl_round_trip(self, tmp_path):
        events = self._events()
        path = tmp_path / "trace.jsonl"
        write_jsonl(events, path)
        loaded = load_jsonl(path)
        assert len(loaded) == len(events)
        assert [o["name"] for o in loaded] == [e.name for e in events]
        # strip_timing re-derives the deterministic projection from disk
        stripped = [s for s in (strip_timing(o) for o in loaded) if s]
        assert stripped == deterministic_events(events)

    def test_jsonl_lines_parse_and_omit_none(self):
        events = self._events()
        for line in to_jsonl(events).splitlines():
            obj = json.loads(line)
            assert "name" in obj and "ts" in obj
            assert None not in obj.values()

    def test_deterministic_jsonl_excludes_timing(self):
        text = deterministic_jsonl(self._events())
        assert text
        for line in text.splitlines():
            obj = json.loads(line)
            assert set(obj) == {"name", "det"}

    def test_chrome_trace_is_valid_and_complete(self, tmp_path):
        events = self._events()
        path = tmp_path / "trace.json"
        write_chrome_trace(events, path)
        doc = json.loads(path.read_text())
        trace_events = doc["traceEvents"]
        phases = {e["ph"] for e in trace_events}
        assert {"M", "X", "C"} <= phases
        # every phase of every superstep appears as a complete slice
        supersteps = sum(1 for e in events if e.name == "superstep")
        slices = [e for e in trace_events if e["ph"] == "X" and e["name"].startswith("vertex s")]
        assert len(slices) == supersteps
        for e in trace_events:
            assert e["pid"] == 1
            if e["ph"] in ("X", "C", "i"):
                assert e["ts"] >= 0

    def test_timeline_report_covers_every_superstep(self):
        events = self._events()
        report = timeline_report(events)
        supersteps = [e for e in events if e.name == "superstep"]
        # one row per superstep plus header, separator, and run summary
        assert len(report.splitlines()) >= len(supersteps) + 2
        assert "mode" in report and "vertex ms" in report
        assert f"supersteps={len(supersteps)}" in report

    def test_empty_trace_renders_placeholders(self):
        assert "no superstep records" in timeline_report([])
        assert "no superstep records" in profile_report([])


class TestProfile:
    def test_worker_profile_totals_match_metrics(self):
        run, tracer = _traced_run("pagerank", num_workers=4)
        stats = worker_profile(tracer.events)
        assert len(stats) == 4
        assert [s.sent for s in stats] == run.metrics.worker_sent
        assert sum(s.computed for s in stats) > 0
        assert all(s.seconds >= 0 for s in stats)

    def test_straggler_rows_are_sorted_by_imbalance(self):
        _, tracer = _traced_run("pagerank", num_workers=4)
        rows = straggler_supersteps(tracer.events, top=3)
        assert len(rows) <= 3
        assert all(r.imbalance >= 1.0 for r in rows)
        assert [r.imbalance for r in rows] == sorted(
            (r.imbalance for r in rows), reverse=True
        )

    def test_profile_report_mentions_each_worker(self):
        _, tracer = _traced_run("pagerank", num_workers=3)
        report = profile_report(tracer.events)
        assert "per-worker totals" in report
        assert "send load imbalance" in report


class TestEngineInstrumentation:
    def test_superstep_records_match_run_metrics(self):
        run, tracer = _traced_run("pagerank", num_workers=4)
        steps = [e for e in tracer.events if e.name == "superstep"]
        assert len(steps) == run.metrics.supersteps
        assert [e.det["step"] for e in steps] == list(range(run.metrics.supersteps))
        assert sum(e.det["messages"] for e in steps) == run.metrics.messages
        assert sum(e.det["message_bytes"] for e in steps) == run.metrics.message_bytes
        assert sum(e.det["net_messages"] for e in steps) == run.metrics.net_messages
        per_worker = [0] * 4
        for e in steps:
            for w, v in enumerate(e.det["worker_sent"]):
                per_worker[w] += v
        assert per_worker == run.metrics.worker_sent

    def test_run_end_event_carries_final_ledger(self):
        run, tracer = _traced_run("sssp")
        (end,) = [e for e in tracer.events if e.name == "run.end"]
        assert end.det["supersteps"] == run.metrics.supersteps
        assert end.det["halt_reason"] == run.metrics.halt_reason
        assert end.det["messages"] == run.metrics.messages
        assert end.info["wall_seconds"] > 0

    def test_phase_times_cover_the_superstep(self):
        _, tracer = _traced_run("pagerank")
        for e in tracer.events:
            if e.name != "superstep":
                continue
            for key in ("master_s", "route_s", "vertex_s", "combine_s", "barrier_s"):
                assert e.info[key] >= 0.0
            assert e.info["mode"] in ("sparse", "dense")

    def test_sparse_mode_reports_frontier_size(self):
        graph = Graph.from_edges(16, [(i, i + 1) for i in range(15)])
        level = [-1] * 16

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0:
                if vid == 0:
                    level[vid] = 0
                    ctx.send_nbrs(vid, (0,))
            elif messages and level[vid] < 0:
                level[vid] = ctx.superstep
                ctx.send_nbrs(vid, (0,))
            ctx.vote_to_halt(vid)

        tracer = Tracer()
        PregelEngine(
            graph,
            vertex,
            use_voting=True,
            scheduling="frontier",
            frontier_threshold=1.0,
            tracer=tracer,
        ).run()
        sparse = [e for e in tracer.events if e.name == "superstep" and e.info["mode"] == "sparse"]
        assert sparse
        for e in sparse:
            assert e.info["frontier"] >= 0
            assert e.det["active"] == e.info["frontier"]

    def test_untraced_engine_keeps_hot_loop_clean(self):
        # tracer=None must not install the metering wrappers
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        engine = PregelEngine(graph, lambda c, v, m: None, max_supersteps=2)
        assert "send" not in engine.__dict__  # class method, not a shadow
        engine.run()
        nulled = PregelEngine(
            graph, lambda c, v, m: None, max_supersteps=2, tracer=NULL_TRACER
        )
        assert "send" not in nulled.__dict__
        nulled.run()


class TestSchedulerTraceParity:
    """The acceptance property: the deterministic event stream is
    byte-identical across frontier and dense scheduling."""

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_generated_trace_parity(self, algorithm):
        _, dense = _traced_run(algorithm, scheduling="dense")
        _, frontier = _traced_run(algorithm, scheduling="frontier")
        assert deterministic_jsonl(frontier.events) == deterministic_jsonl(dense.events)

    def test_manual_trace_parity_in_sparse_regime(self):
        graph = load_graph("twitter", SCALE)
        args = default_args("sssp", graph)
        sssp = MANUAL_PROGRAMS["sssp"]
        traces = {}
        for scheduling, threshold in (("dense", 0.05), ("frontier", 1.0)):
            tracer = Tracer()
            sssp.run(
                graph,
                args,
                scheduling=scheduling,
                frontier_threshold=threshold,
                tracer=tracer,
            )
            traces[scheduling] = tracer
        assert deterministic_jsonl(traces["frontier"].events) == deterministic_jsonl(
            traces["dense"].events
        )
        # and it was a real sparse run, not a dense fallback
        assert any(
            e.info.get("mode") == "sparse"
            for e in traces["frontier"].events
            if e.name == "superstep"
        )


class TestCompilerTelemetry:
    """Table 3 as a trace: the compile.pass / compile.rules events carry
    exactly what the benchmark's check-matrix is built from."""

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_table3_row_rebuilt_from_trace(self, algorithm):
        tracer = Tracer()
        result = compile_algorithm(algorithm, emit_java=False, tracer=tracer)
        (rules_event,) = [e for e in tracer.events if e.name == "compile.rules"]
        assert rules_event.det["procedure"] == result.name
        applied = set(rules_event.det["applied"])
        assert {name: name in applied for name in TABLE3_ROWS} == result.rule_row()

    def test_pass_events_cover_both_pipeline_halves(self):
        tracer = Tracer()
        compile_algorithm("bc_approx", emit_java=False, tracer=tracer)
        passes = [e for e in tracer.events if e.name == "compile.pass"]
        names = [e.det["pass"] for e in passes]
        # §4.1 Green-Marl→Green-Marl passes and §4.2 IR optimizations
        for expected in ("BFS Traversal", "Dissecting Loops", "State Merging", "Intra-Loop Merge"):
            assert expected in names
        for e in passes:
            assert isinstance(e.det["applied"], bool)
            assert e.dur is not None and e.dur >= 0.0

    def test_merge_events_record_state_counts(self):
        tracer = Tracer()
        result = compile_algorithm("pagerank", emit_java=False, tracer=tracer)
        merges = [
            e
            for e in tracer.events
            if e.name == "compile.pass" and "states_before" in (e.det or {})
        ]
        assert merges
        for e in merges:
            if e.det["applied"]:
                assert e.det["states_after"] < e.det["states_before"]
            else:
                assert e.det["states_after"] == e.det["states_before"]
        # the last merging event's state count is the final machine size
        assert merges[-1].det["states_after"] == len(result.ir.phases)

    def test_span_events_wrap_the_stages(self):
        tracer = Tracer()
        compile_algorithm("pagerank", emit_java=False, tracer=tracer)
        names = {e.name for e in tracer.events}
        assert {
            "compile.canonicalize",
            "compile.translate",
            "compile.optimize",
            "compile.codegen",
        } <= names
        (translate,) = [e for e in tracer.events if e.name == "compile.translate"]
        assert translate.info["states"] > 0 and translate.info["messages"] >= 0

    def test_compile_events_are_deterministic_across_compilations(self):
        streams = []
        for _ in range(2):
            tracer = Tracer()
            compile_algorithm("conductance", emit_java=False, tracer=tracer)
            streams.append(deterministic_jsonl(tracer.events))
        assert streams[0] == streams[1]


class TestFaultToleranceEvents:
    def test_ft_lifecycle_events_are_info_only(self):
        from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance

        graph = load_graph("twitter", SCALE)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        tracer = Tracer()
        plan = FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),))
        compiled.program.run(
            graph, args, num_workers=4, ft=FaultTolerance(plan), tracer=tracer
        )
        by_name = {}
        for e in tracer.events:
            by_name.setdefault(e.name, []).append(e)
        assert by_name["ft.checkpoint"] and by_name["ft.crash"] and by_name["ft.recovery"]
        for name in ("ft.checkpoint", "ft.crash", "ft.recovery"):
            for e in by_name[name]:
                assert e.cat == "ft"
                assert e.det is None  # excluded from the deterministic stream
        checkpoint = by_name["ft.checkpoint"][0]
        assert checkpoint.info["bytes"] > 0 and checkpoint.info["seconds"] >= 0
        crash = by_name["ft.crash"][0]
        assert crash.info["worker"] == 1 and crash.info["superstep"] == 3
        recovery = by_name["ft.recovery"][0]
        assert recovery.info["strategy"] == "rollback"
        assert recovery.info["replay_work"] > 0
