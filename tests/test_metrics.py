"""Metrics registry + bench telemetry: units, cross-backend parity, CLI.

The contracts under test:

* registry semantics — labeled instrument identity, log-bucketed
  histograms, snapshot/merge (counters sum, histograms bucket-sum, gauges
  max), the deterministic projection, Prometheus exposition;
* observational transparency — attaching a recording registry changes no
  run result: all six algorithms stay bit-identical on ``parity_key()``
  and outputs across sim/columnar/mp, metrics enabled or disabled;
* cross-backend determinism — the ``det`` families of a run's snapshot
  are identical across every backend (the registry twin of
  ``deterministic_events``);
* the telemetry pipeline — BENCH_*.json round-trip, noise-aware
  ``gm-pregel compare`` exit codes (0 clean / 1 regression / 2 malformed),
  and the ``gm-pregel metrics`` exporter.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.harness import default_args
from repro.bench.telemetry import (
    SCHEMA_VERSION,
    TelemetryError,
    compare,
    graph_signature,
    hist_summary,
    load_bench,
    run_record,
    snapshot_histogram_summaries,
    validate,
    write_bench,
)
from repro.cli import main
from repro.compiler import compile_algorithm
from repro.graphgen.registry import load_graph
from repro.obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    deterministic_snapshot,
    prometheus_text,
)
from repro.pregel.backend.mp import mp_available

ALGORITHMS = (
    "avg_teen_cnt",
    "pagerank",
    "conductance",
    "sssp",
    "bipartite_matching",
    "bc_approx",
)

needs_mp = pytest.mark.skipif(
    not mp_available(),
    reason="needs fork start-method and multiprocessing.shared_memory",
)


# ---------------------------------------------------------------------------
# Registry units
# ---------------------------------------------------------------------------


class TestRegistryUnits:
    def test_counter_identity_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("x.total", route="a")
        b = reg.counter("x.total", route="b")
        assert a is not b
        assert reg.counter("x.total", route="a") is a
        a.inc()
        a.inc(4)
        b.inc(2)
        snap = reg.snapshot()
        series = snap["x.total"]["series"]
        assert [(r["labels"], r["value"]) for r in series] == [
            ({"route": "a"}, 5),
            ({"route": "b"}, 2),
        ]

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_gauge_set_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("peak")
        g.set_max(10)
        g.set_max(3)
        assert reg.snapshot()["peak"]["series"][0]["value"] == 10

    def test_histogram_log_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.3, 0.6, 1.0, 1.5, 3.0, 0.0):
            h.observe(v)
        row = reg.snapshot()["lat"]["series"][0]
        assert row["count"] == 6
        assert row["sum"] == pytest.approx(6.4)
        assert row["min"] == 0.0 and row["max"] == 3.0
        # bounds are powers of two (plus the 0.0 underflow bucket); an
        # exact power of two files under its own bucket.
        assert row["buckets"] == [
            [0.0, 1],  # 0.0
            [0.5, 1],  # 0.3
            [1.0, 2],  # 0.6, 1.0 (exact power of two)
            [2.0, 1],  # 1.5
            [4.0, 1],  # 3.0
        ]

    def test_snapshot_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        assert reg.snapshot(reset=True)["c"]["series"][0]["value"] == 3
        assert reg.snapshot() == {}

    def test_merge_snapshot(self):
        a = MetricsRegistry()
        a.counter("c", det=True).inc(3)
        a.gauge("g").set_max(5)
        a.histogram("h").observe(0.75)
        b = MetricsRegistry()
        b.counter("c", det=True).inc(4)
        b.gauge("g").set_max(9)
        b.histogram("h").observe(0.75)
        b.histogram("h").observe(100.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["c"]["series"][0]["value"] == 7  # counters sum
        assert snap["g"]["series"][0]["value"] == 9  # gauges max
        h = snap["h"]["series"][0]
        assert h["count"] == 3  # histograms bucket-sum
        assert h["min"] == 0.75 and h["max"] == 100.0
        assert [1.0, 2] in h["buckets"]  # 0.75 twice, merged bucket-wise
        assert snap["c"]["det"] is True

    def test_merge_preserves_round_trip(self):
        src = MetricsRegistry()
        src.histogram("h", phase="x").observe(0.1)
        src.histogram("h", phase="x").observe(2.0)
        snap = src.snapshot()
        dst = MetricsRegistry()
        dst.merge_snapshot(snap)
        assert dst.snapshot() == snap

    def test_deterministic_projection(self):
        reg = MetricsRegistry()
        reg.counter("msgs", det=True).inc(7)
        reg.counter("noise").inc(1)
        reg.histogram("work", det=True).observe(1.25)
        det = deterministic_snapshot(reg.snapshot())
        assert set(det) == {"msgs", "work"}
        # det histograms project to order-independent counts only
        assert det["work"]["series"][0] == {"labels": {}, "count": 1}

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("x").inc()
        NULL_REGISTRY.gauge("x").set_max(5)
        NULL_REGISTRY.histogram("x").observe(1.0)
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.snapshot() == {}

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("pregel.messages", det=True, tag="0").inc(12)
        reg.histogram("step.seconds").observe(0.3)
        text = prometheus_text(reg.snapshot())
        assert "# TYPE pregel_messages counter" in text
        assert 'pregel_messages{tag="0"} 12' in text
        assert 'step_seconds_bucket{le="+Inf"} 1' in text
        assert "step_seconds_count 1" in text


# ---------------------------------------------------------------------------
# Cross-backend parity: metrics are observationally transparent
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def graph():
    return load_graph("twitter", 0.1)


@pytest.fixture(scope="module")
def programs():
    return {alg: compile_algorithm(alg, emit_java=False).program for alg in ALGORITHMS}


def _run(programs, graph, alg, backend, registry=None):
    return programs[alg].run(
        graph,
        default_args(alg, graph),
        backend=backend,
        metrics_registry=registry,
    )


class TestMeteredParityMatrix:
    """6 algorithms x {sim, columnar, mp} x {enabled, disabled}: the
    registry never changes results, and its det families agree across
    backends."""

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_matrix(self, programs, graph, alg):
        oracle = _run(programs, graph, alg, "sim")  # no registry at all
        backends = ["sim", "columnar"] + (["mp"] if mp_available() else [])
        det_snaps = {}
        for backend in backends:
            plain = _run(programs, graph, alg, backend)
            registry = MetricsRegistry()
            metered = _run(programs, graph, alg, backend, registry)
            for run in (plain, metered):
                assert run.metrics.parity_key() == oracle.metrics.parity_key(), backend
                assert run.outputs == oracle.outputs, backend
                assert run.result == oracle.result, backend
            det_snaps[backend] = deterministic_snapshot(registry.snapshot())
        first = det_snaps[backends[0]]
        assert first, "det families must be populated"
        for backend in backends[1:]:
            assert det_snaps[backend] == first, backend

    def test_det_families_match_run_metrics(self, programs, graph):
        registry = MetricsRegistry()
        run = _run(programs, graph, "pagerank", "sim", registry)
        snap = registry.snapshot()

        def value(name):
            return snap[name]["series"][0]["value"]

        m = run.metrics
        assert value("pregel.supersteps") == m.supersteps
        assert value("pregel.messages") == m.messages
        assert value("pregel.message_bytes") == m.message_bytes
        assert value("pregel.net_messages") == m.net_messages
        assert value("pregel.net_bytes") == m.net_bytes
        runs = snap["pregel.runs"]["series"]
        assert [(r["labels"], r["value"]) for r in runs] == [
            ({"halt_reason": m.halt_reason}, 1)
        ]
        assert snap["pregel.superstep_seconds"]["series"][0]["count"] == m.supersteps

    def test_columnar_slab_counters(self, programs, graph):
        registry = MetricsRegistry()
        run = _run(programs, graph, "pagerank", "columnar", registry)
        snap = registry.snapshot()
        slab = snap["columnar.slab_records"]["series"][0]["value"]
        bulk = snap["columnar.bulk_records"]["series"][0]["value"]
        scalar = snap["columnar.scalar_records"]["series"][0]["value"]
        assert slab == bulk + scalar > 0
        assert run.metrics.vectorized_phases  # pagerank's fold vectorizes

    @pytest.mark.parametrize(
        "alg,kernel_steps",
        # every superstep of these runs as an array kernel (None; a number
        # is how many do, the others keeping the scalar program)
        [("pagerank", None), ("sssp", None), ("bipartite_matching", None)],
    )
    def test_columnar_compute_side_coverage(self, programs, graph, alg, kernel_steps):
        registry = MetricsRegistry()
        run = _run(programs, graph, alg, "columnar", registry)
        snap = registry.snapshot()
        steps = run.metrics.supersteps
        if kernel_steps is None:
            kernel_steps = steps
        n = graph.num_nodes
        kernel = snap["columnar.kernel_vertices"]["series"][0]["value"]
        scalar = snap["columnar.scalar_vertices"]["series"][0]["value"]
        assert kernel == n * kernel_steps
        assert scalar == n * (steps - kernel_steps)
        # coverage describes how this backend ran, not what was computed
        det = deterministic_snapshot(snap)
        assert "columnar.kernel_vertices" not in det
        assert "columnar.scalar_vertices" not in det

    def test_compute_side_coverage_is_columnar_only(self, programs, graph):
        registry = MetricsRegistry()
        _run(programs, graph, "pagerank", "sim", registry)
        assert not [k for k in registry.snapshot() if k.startswith("columnar.")]

    @needs_mp
    def test_mp_worker_families_merge_at_barrier(self, programs, graph):
        registry = MetricsRegistry()
        run = _run(programs, graph, "pagerank", "mp", registry)
        snap = registry.snapshot()
        route = snap["mp.worker_route_seconds"]["series"]
        workers = sorted(r["labels"]["worker"] for r in route)
        assert workers == ["0", "1", "2", "3"]
        for row in snap["mp.worker_step_seconds"]["series"]:
            assert row["count"] == run.metrics.supersteps

    @needs_mp
    @pytest.mark.parametrize("kind,cause", [("kill", "died"), ("hang", "timeout")])
    def test_mp_real_fault_families(self, programs, graph, kind, cause):
        from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance

        registry = MetricsRegistry()
        run = programs["pagerank"].run(
            graph,
            default_args("pagerank", graph),
            backend="mp",
            num_workers=2,
            metrics_registry=registry,
            ft=FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 1, kind),))
            ),
            exchange_deadline=0.75 if kind == "hang" else 10.0,
        )
        assert run.metrics.restarts == 1
        snap = registry.snapshot()
        misses = snap["mp.exchange_deadline_misses"]["series"]
        assert [(row["labels"], row["value"]) for row in misses] == [
            ({"cause": cause}, 1)
        ]
        restarts = snap["supervisor.restarts"]["series"]
        assert [(row["labels"], row["value"]) for row in restarts] == [
            ({"backend": "mp"}, 1)
        ]


# ---------------------------------------------------------------------------
# Vectorizer decision telemetry (compile.vectorize)
# ---------------------------------------------------------------------------


class TestVectorizeTelemetry:
    def test_columnar_trace_carries_decisions(self, graph):
        from repro.obs import Tracer

        tracer = Tracer()
        compiled = compile_algorithm("pagerank", emit_java=False, tracer=tracer)
        compiled.program.run(
            graph,
            default_args("pagerank", graph),
            backend="columnar",
            tracer=tracer,
        )
        events = [e for e in tracer.events if e.name == "compile.vectorize"]
        assert events, "columnar runs must report per-phase vectorizer decisions"
        for e in events:
            assert e.det is None  # info-only: sim never runs the vectorizer
            assert set(e.info) == {
                "phase", "eligible", "reason", "ops", "tags", "ordered_merge",
                "kernel", "kernel_reason",
            }
        assert any(e.info["eligible"] for e in events)
        for e in events:
            if not e.info["eligible"]:
                assert e.info["reason"] != "vectorized"
        # pagerank: both phases compile to array kernels
        assert [e.info["kernel"] for e in events] == [True, True]
        assert {e.info["kernel_reason"] for e in events} == {"kernel"}

    def test_kernel_refusals_carry_a_reason(self, graph):
        from repro.obs import Tracer

        from repro.compiler import compile_source

        tracer = Tracer()
        compiled = compile_source(
            # a store that switches its own guard off: the first writer wins
            "Procedure p(G: Graph, age: N_P<Int>; o: N_P<Int>) {\n"
            "  G.o = 0;\n"
            "  Foreach (n: G.Nodes) { Foreach (t: n.Nbrs)[t.o == 0] { t.o = n.age; } }\n"
            "}",
            emit_java=False, tracer=tracer,
        )  # fmt: skip
        compiled.program.run(graph, {}, backend="columnar", tracer=tracer)
        init, receiving = [
            e.info for e in tracer.events if e.name == "compile.vectorize"
        ]
        assert init["kernel"] and not init["eligible"]
        assert not receiving["kernel"] and receiving["ops"] == []
        assert receiving["kernel_reason"] == (
            "scalar receive loop (guarded assign of a message value)"
        )

    def test_decisions_name_the_idioms(self, graph):
        from repro.obs import Tracer

        tracer = Tracer()
        compiled = compile_algorithm("sssp", emit_java=False, tracer=tracer)
        compiled.program.run(
            graph, default_args("sssp", graph), backend="columnar", tracer=tracer
        )
        by_phase = {
            e.info["phase"]: e.info
            for e in tracer.events
            if e.name == "compile.vectorize"
        }
        # sssp's relax phase: the flag/min pair of its receive loop and the
        # edge-weighted payload of its send are named, not just counted
        assert by_phase[9]["eligible"] and by_phase[9]["kernel"]
        assert by_phase[9]["reason"] == "vectorized (improve-flag min)"
        assert by_phase[9]["kernel_reason"] == "kernel (per-edge send)"

    @needs_mp
    def test_mp_trace_carries_decisions_and_merge_orders(self, programs, graph):
        from repro.obs import Tracer, deterministic_jsonl

        def decisions(alg, **opts):
            tracer = Tracer()
            run = programs[alg].run(
                graph, default_args(alg, graph), backend="mp", num_workers=2,
                tracer=tracer, **opts,
            )
            events = [e for e in tracer.events if e.name == "compile.vectorize"]
            assert events and all(e.det is None for e in events)  # info-only
            assert "compile.vectorize" not in deterministic_jsonl(tracer.events)
            return run, {e.info["phase"]: e.info for e in events}

        # the workers run what the record says, tracer attached or not
        run, by_phase = decisions("pagerank")
        assert run.metrics.vectorized_phases == ["phase0", "phase4"]
        assert "vectorized=[phase0,phase4]" in run.metrics.summary()
        # a float sum needs its messages in sender order; min / or do not
        (merge,) = by_phase[4]["ordered_merge"]
        assert (merge["tag"], merge["ordered"]) == (0, True)
        assert merge["reason"].startswith("float sum into ")
        run, by_phase = decisions("sssp")
        assert [m["ordered"] for m in by_phase[9]["ordered_merge"]] == [False]
        # a last writer is the last in sender order; the lowered ops ride along
        run, by_phase = decisions("bipartite_matching")
        assert by_phase[3]["ops"] == [
            {"tag": 0, "ops": ["Select(last) suitor", "put finished and"]}
        ]
        assert by_phase[3]["ordered_merge"] == [
            {"tag": 0, "ordered": True, "reason": "last writer of suitor"}
        ]
        # the program alone decides: under votes the kernels compute the
        # un-voted vertices, and combiners fold in the seal
        run, by_phase = decisions("pagerank", use_voting=True)
        assert by_phase[4]["kernel"] and run.metrics.vectorized_phases == ["phase0", "phase4"]
        run, _by_phase = decisions("pagerank", use_combiners=True)
        assert run.metrics.vectorized_phases == ["phase0", "phase4"]

    def test_sim_trace_has_no_decisions(self, graph):
        from repro.obs import Tracer

        tracer = Tracer()
        compiled = compile_algorithm("pagerank", emit_java=False, tracer=tracer)
        compiled.program.run(
            graph, default_args("pagerank", graph), backend="sim", tracer=tracer
        )
        assert not [e for e in tracer.events if e.name == "compile.vectorize"]

    def test_summary_reports_vectorized_phases(self, programs, graph):
        run = _run(programs, graph, "pagerank", "columnar")
        assert run.metrics.vectorized_phases
        assert "vectorized=[" in run.metrics.summary()
        # the field is backend provenance, never part of the parity key
        assert "vectorized_phases" not in run.metrics.parity_key()

    def test_vectorized_phases_lists_kernel_only_phases(self, programs, graph):
        # bipartite matching's init phase has no receive loop, but it is a
        # kernel: a phase is listed when either side runs as array code
        run = _run(programs, graph, "bipartite_matching", "columnar")
        assert run.metrics.vectorized_phases == ["phase0", "phase3", "phase5", "phase8"]
        run = _run(programs, graph, "sssp", "columnar")
        assert run.metrics.vectorized_phases == ["phase0", "phase9"]
        assert "vectorized=[phase0,phase9]" in run.metrics.summary()
        run = _run(programs, graph, "bc_approx", "columnar")
        assert run.metrics.vectorized_phases == [
            "phase1", "phase4", "phase6", "phase9", "phase10", "phase12",
            "phase14", "phase15",
        ]


# ---------------------------------------------------------------------------
# mp profile: process identities + per-worker route timings
# ---------------------------------------------------------------------------


@needs_mp
class TestMpProfile:
    def test_profile_report_names_pids(self, programs, graph):
        from repro.obs import Tracer, profile_report, worker_profile

        tracer = Tracer()
        programs["pagerank"].run(
            graph, default_args("pagerank", graph), backend="mp", tracer=tracer
        )
        stats = worker_profile(tracer.events)
        assert len(stats) == 4
        assert all(s.pid is not None and s.pid > 0 for s in stats)
        assert len({s.pid for s in stats}) == 4  # four distinct processes
        assert any(s.route_seconds > 0 for s in stats)
        report = profile_report(tracer.events)
        assert "pid" in report and "route ms" in report
        assert f"pid {stats[0].pid}" in report or str(stats[0].pid) in report


# ---------------------------------------------------------------------------
# Telemetry documents + compare
# ---------------------------------------------------------------------------


def _doc(tmp_path, name, runs):
    path = write_bench(name, runs, out_dir=tmp_path)
    return path, load_bench(path)


class TestTelemetry:
    def test_round_trip_and_schema(self, tmp_path):
        runs = [
            run_record(
                "r1", backend="sim", workers=4, wall_seconds=[0.2, 0.21],
                counts={"messages": 10},
            )
        ]
        path, doc = _doc(tmp_path, "unit", runs)
        assert path.name == "BENCH_unit.json"
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["meta"]["cpu_count"] >= 1
        assert "git_sha" in doc["meta"]
        validate(doc)  # idempotent

    def test_graph_signature_distinguishes_topology(self):
        a = load_graph("twitter", 0.05, 1)
        b = load_graph("twitter", 0.05, 2)
        sig_a, sig_b = graph_signature(a, "twitter"), graph_signature(b, "twitter")
        assert sig_a != sig_b
        assert sig_a == graph_signature(load_graph("twitter", 0.05, 1), "twitter")

    def test_hist_summary_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in [0.4] * 98 + [100.0, 200.0]:
            h.observe(v)
        row = reg.snapshot()["h"]["series"][0]
        s = hist_summary(row)
        assert s["count"] == 100
        assert s["p50"] == 0.5  # log-bucket upper bound of 0.4
        assert s["p90"] == 0.5
        assert s["p99"] == 128.0  # bucket holding 100.0
        summaries = snapshot_histogram_summaries(reg.snapshot())
        assert summaries == {"h": s}

    def test_validate_rejects_malformed(self):
        with pytest.raises(TelemetryError):
            validate([])
        with pytest.raises(TelemetryError, match="schema_version"):
            validate({"schema_version": 99, "bench": "x", "runs": []})
        with pytest.raises(TelemetryError, match="missing 'runs'"):
            validate({"schema_version": SCHEMA_VERSION, "bench": "x"})
        with pytest.raises(TelemetryError, match="wall_seconds"):
            validate(
                {
                    "schema_version": SCHEMA_VERSION,
                    "bench": "x",
                    "runs": [{"name": "r", "backend": "sim", "counts": {}}],
                }
            )

    def test_compare_detects_20pct_slowdown(self, tmp_path):
        runs = [
            run_record(
                "pagerank@sim", backend="sim", workers=4,
                wall_seconds=[0.10, 0.12, 0.11], counts={"messages": 100},
            )
        ]
        _, baseline = _doc(tmp_path, "cmp", runs)
        current = copy.deepcopy(baseline)
        current["runs"][0]["wall_seconds"] = [
            s * 1.2 for s in current["runs"][0]["wall_seconds"]
        ]
        result = compare(baseline, current)
        assert not result.ok
        assert result.regressions[0].metric == "wall_seconds"
        # min-of-N: one slow outlier among fast samples is NOT a regression
        noisy = copy.deepcopy(baseline)
        noisy["runs"][0]["wall_seconds"] = [0.10, 0.50, 0.40]
        assert compare(baseline, noisy).ok

    def test_compare_counts_exact_and_thresholds(self, tmp_path):
        runs = [
            run_record(
                "r", backend="sim", workers=4, wall_seconds=[0.1],
                counts={"messages": 100, "message_bytes": 800},
            )
        ]
        _, baseline = _doc(tmp_path, "cnt", runs)
        drift = copy.deepcopy(baseline)
        drift["runs"][0]["counts"]["messages"] = 105
        assert not compare(baseline, drift, counts_only=True).ok
        assert compare(
            baseline, drift, counts_only=True, thresholds={"messages": 1.10}
        ).ok
        assert not compare(
            baseline, drift, counts_only=True, thresholds={"messages": 1.01}
        ).ok

    def test_compare_missing_run_is_regression(self, tmp_path):
        runs = [
            run_record("a", backend="sim", workers=4, wall_seconds=[0.1], counts={}),
            run_record("b", backend="sim", workers=4, wall_seconds=[0.1], counts={}),
        ]
        _, baseline = _doc(tmp_path, "mrun", runs)
        current = copy.deepcopy(baseline)
        current["runs"] = current["runs"][:1]
        result = compare(baseline, current)
        assert [i.metric for i in result.regressions] == ["presence"]


class TestCompareCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_codes(self, tmp_path, capsys):
        runs = [
            run_record(
                "r", backend="sim", workers=4,
                wall_seconds=[0.10, 0.11], counts={"messages": 9},
            )
        ]
        base_path = str(write_bench("cli", runs, out_dir=tmp_path))
        baseline = load_bench(base_path)

        same = self._write(tmp_path, "same.json", baseline)
        assert main(["compare", base_path, same]) == 0
        assert "no regressions" in capsys.readouterr().out

        slow = copy.deepcopy(baseline)
        slow["runs"][0]["wall_seconds"] = [s * 1.2 for s in slow["runs"][0]["wall_seconds"]]
        slow_path = self._write(tmp_path, "slow.json", slow)
        assert main(["compare", base_path, slow_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

        bad_path = tmp_path / "bad.json"
        bad_path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["compare", base_path, str(bad_path)])
        assert exc.value.code == 2

        missing = str(tmp_path / "nope.json")
        with pytest.raises(SystemExit) as exc:
            main(["compare", base_path, missing])
        assert exc.value.code == 2

    def test_threshold_flag_validation(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "a.json", "b.json", "--threshold", "messages"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["compare", "a.json", "b.json", "--threshold", "messages=0.5"])
        assert exc.value.code == 2

    def test_counts_only_skips_wall(self, tmp_path, capsys):
        runs = [
            run_record(
                "r", backend="sim", workers=4, wall_seconds=[0.1], counts={"m": 5}
            )
        ]
        base_path = str(write_bench("co", runs, out_dir=tmp_path))
        slow = load_bench(base_path)
        slow["runs"][0]["wall_seconds"] = [10.0]
        slow_path = self._write(tmp_path, "slow.json", slow)
        assert main(["compare", base_path, slow_path, "--counts-only"]) == 0
        capsys.readouterr()


class TestMetricsCli:
    def test_json_and_prom_formats(self, capsys):
        from repro.algorithms.sources import source_path

        gm = str(source_path("pagerank"))
        args = ["--arg", "e=1e-9", "--arg", "d=0.85", "--arg", "max_iter=3",
                "--scale", "0.05"]
        assert main(["metrics", gm, *args]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["pregel.supersteps"]["det"] is True
        assert snap["pregel.supersteps"]["series"][0]["value"] > 0

        assert main(["metrics", gm, *args, "--format", "prom",
                     "--backend", "columnar"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE pregel_messages counter" in text
        assert "# TYPE columnar_slab_records counter" in text
