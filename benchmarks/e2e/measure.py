"""The benchmark's two passes over one workload.

* :func:`end_to_end` — tracing off.  Set-up is sampled in fresh processes,
  then timed rounds run every case on ``sim``, ``columnar``, ``mp`` and the
  ``gm-pregel run`` CLI, interleaved inside each round, through the public
  entry points a user calls.
* :func:`per_layer` — the same work taken apart from outside: spans around
  each compiler stage and around ``make_engine`` / ``engine.run()`` /
  ``column_values``, then one *metered* pass with a ``MetricsRegistry``
  attached for the engines' own phase clocks and counters.

Nothing under ``src/`` is instrumented: every number is a clock read around
a public call, or a counter the program already exports.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracle
from calibrate import kernel_seconds, normalised
from spans import SpanRecorder
from workloads import (
    BACKENDS,
    CLI_BACKEND,
    NUM_WORKERS,
    SCHEDULING,
    TINY_SCALE,
    Workload,
    edge_file,
    set_up,
)

#: fresh-process set-up samples per run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: one ``compile_s`` sample is this many back-to-back compiles, averaged
COMPILE_REPS = 3
#: calls per compiler stage in the layer pass; the metric is their median
STAGE_CALLS = 20
#: the layer pass spends at most this share of ``--seconds`` on repeated
#: spanned rounds; the rest is the fixed-size stage, metered and CLI probes
SPANNED_SHARE = 0.4

#: one sample per timed round; ``compile_s`` has one per slot of the round
#: and ``setup_s`` comes from fresh processes before the rounds
ROUND_METRICS = ("sim.run_s", "columnar.run_s", "mp.run_s", "cli.run_s", "cli.peak_rss_mb")
E2E_NAMES = ("setup_s", "compile_s", *ROUND_METRICS)

_STAGES = (
    "lang.parse",
    "lang.typecheck",
    "transform.canonicalize",
    "translate.translate",
    "translate.optimize",
    "codegen.executable",
    "codegen.java",
)
_SIM_PHASES = ("master", "route", "vertex", "combine", "barrier")

LAYER_NAMES = (
    *(f"{stage}_s" for stage in _STAGES),
    "lang.source_lines",
    "transform.rules_applied",
    "translate.states_unmerged",
    "translate.states_merged",
    "translate.message_tags",
    "codegen.vertex_src_lines",
    "codegen.java_lines",
    "codegen.vectorized_phases",
    "graphgen.generate_s",
    "graphgen.save_edge_list_s",
    "graphgen.load_edge_list_s",
    "graphgen.nodes",
    "graphgen.edges",
    *(
        f"{backend}.{part}"
        for backend in BACKENDS
        for part in ("make_engine_s", "engine_run_s", "gather_s", "msgs_per_s")
    ),
    *(f"sim.phase.{phase}_s" for phase in _SIM_PHASES),
    *(f"columnar.phase.{phase}_s" for phase in _SIM_PHASES),
    "mp.phase.master_s",
    "mp.phase.exchange_s",
    "mp.worker_step_max_s",
    "mp.worker_route_max_s",
    "mp.parent_residual_s",
    "mp.worker_staged_bytes",
    "mp.w1.engine_run_s",
    "mp.speedup_2over1",
    "mp.over_columnar",
    "columnar.bulk_records",
    "columnar.scalar_records",
    "columnar.bulk_record_share",
    "columnar.slab_flushes",
    "runtime.supersteps",
    "runtime.messages",
    "runtime.message_bytes",
    "runtime.net_messages",
    "runtime.net_bytes",
    "runtime.broadcasts",
    "cli.python_startup_s",
    "cli.import_s",
    "cli.fixed_s",
    "algorithms.manual_run_s",
    "sim.gen_over_manual",
    *(f"obs.metered_overhead_ratio.{backend}" for backend in BACKENDS),
    "obs.tracer_slowdown.columnar",
)


@dataclass
class Case:
    """One (algorithm, graph) pair of a workload, ready to run."""

    algorithm: str
    graph_key: str
    graph: object
    edge_file: Path
    gm_file: Path
    source: str
    args: dict
    #: engine seed: ``run(seed=)`` and CLI ``--seed`` (see oracle.engine_seed)
    seed: int
    program: object
    want: dict

    def run_opts(self, **extra) -> dict:
        return {"num_workers": NUM_WORKERS, "seed": self.seed, "scheduling": SCHEDULING, **extra}

    def cli_argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro", "run", str(self.gm_file),
            "--graph-file", str(self.edge_file),
            "--backend", CLI_BACKEND,
            "--workers", str(NUM_WORKERS),
            "--seed", str(self.seed),
            "--scheduling", SCHEDULING,
        ]  # fmt: skip
        for name, value in self.args.items():
            argv += ["--arg", f"{name}={value}"]
        return argv


def prepare(workload: Workload, seed: int, scale: float, outdir: Path, spans) -> list[Case]:
    """Set up the inputs in this process and compute the reference outputs
    (the benchmark's own cost: span ``bench.reference``, in no metric)."""
    outdir.mkdir(parents=True, exist_ok=True)
    graphs = set_up(workload, seed, scale, outdir, spans)

    from repro.algorithms.sources import load_source, source_path
    from repro.bench.harness import default_args
    from repro.compiler import compile_source

    cases = []
    for algorithm, key in workload.cases:
        graph = graphs[key]
        args = default_args(algorithm, graph)
        source = load_source(algorithm)
        with spans.span("bench.reference"):
            run_seed = oracle.engine_seed(algorithm, graph, args, seed)
            want = oracle.expected(algorithm, graph, args, run_seed)
        cases.append(
            Case(
                algorithm, key, graph, edge_file(outdir, key), source_path(algorithm),
                source, args, run_seed, compile_source(source).program, want,
            )  # fmt: skip
        )
    return cases


class Bench:
    """Runs the cases of one workload and keeps the ledger of operations:
    an operation is one run on one backend or one CLI invocation."""

    def __init__(self, name: str, cases: list[Case], spawner, spans, outdir: Path):
        self.name = name
        self.cases = cases
        self.spawner = spawner
        self.spans = spans
        self.outdir = outdir
        self.attempted = 0
        self.failures: list[dict] = []

    def _record(self, case: Case, backend: str, why: str | None) -> None:
        self.attempted += 1
        if why:
            self.failures.append(
                {
                    "workload": self.name,
                    "case": f"{case.algorithm}@{case.graph_key}",
                    "backend": backend,
                    "round": self.spans.round,
                    "why": why,
                }
            )

    def _check(self, case, backend, sim, metrics, outputs, same_workers=True) -> None:
        why = oracle.check_reference(case.algorithm, case.graph, case.want, metrics, outputs)
        if why is None and backend != "sim":
            why = oracle.check_parity(sim, metrics, outputs, same_workers=same_workers)
        self._record(case, backend, why)

    def _raised(self, case: Case, backend: str, exc: Exception) -> None:
        # the boundary that must keep running: record the traceback, count
        # the operation as failed, go on to the next one
        traceback.print_exc()
        self._record(case, backend, f"raised {type(exc).__name__}: {exc}")

    # -- the public entry points, as a user calls them ----------------------

    def run(self, case: Case, backend: str, sim):
        """``CompiledProgram.run`` on one backend, checked.  Returns
        ``(seconds, (metrics, outputs))``; the pair is None if it raised."""
        t0 = time.perf_counter()
        try:
            run = case.program.run(
                case.graph, case.args, backend=backend, **case.run_opts()
            )
        except Exception as exc:
            self._raised(case, backend, exc)
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        self._check(case, backend, sim, run.metrics, run.outputs)
        return seconds, (run.metrics, run.outputs)

    def cli(self, case: Case, sim) -> dict:
        """One ``python -m repro run`` child, checked against the sim run."""
        with self.spans.span("cli.run"):
            reply = self.spawner.run(case.cli_argv(), self.outdir / "cli.out")
        self._record(case, "cli", oracle.check_cli(reply, sim))
        return reply

    def timed_round(self) -> dict[str, dict]:
        """One round: every case on every backend and the CLI, a compile
        sample after each, so all metrics see the same stretch of host
        noise.  Each (operation, compile sample) pair sits between two
        shots of the calibration kernel and is normalised by their mean.
        Returns the round's sample of each metric in raw and in
        host-normalised seconds; ``compile_s`` is a list, one sample per
        slot of the round."""
        from repro.compiler import compile_source

        operations = (*BACKENDS, "cli")
        raw: dict = dict.fromkeys(ROUND_METRICS, 0.0)
        raw["compile_s"] = [0.0] * len(operations)
        norm = {**raw, "compile_s": [0.0] * len(operations)}
        for case in self.cases:
            sim = None
            kernel_before = kernel_seconds()
            for slot, operation in enumerate(operations):
                if operation == "cli":
                    reply = self.cli(case, sim)
                    seconds = reply["wall_s"]
                else:
                    seconds, got = self.run(case, operation, sim)
                    if operation == "sim":
                        sim = got
                t0 = time.perf_counter()
                for _ in range(COMPILE_REPS):
                    compile_source(case.source)
                compile_s = (time.perf_counter() - t0) / COMPILE_REPS
                kernel_after = kernel_seconds()
                kernel_s = (kernel_before + kernel_after) / 2
                kernel_before = kernel_after
                raw[f"{operation}.run_s"] += seconds
                norm[f"{operation}.run_s"] += normalised(seconds, kernel_s)
                raw["compile_s"][slot] += compile_s
                norm["compile_s"][slot] += normalised(compile_s, kernel_s)
            # memory is a peak, not a sum: the largest child of the round
            peak = max(raw["cli.peak_rss_mb"], reply["maxrss_kb"] / 1024)
            raw["cli.peak_rss_mb"] = norm["cli.peak_rss_mb"] = peak
        return {"raw": raw, "norm": norm}

    # -- the same work, taken apart from outside ----------------------------

    def run_split(self, case: Case, backend: str, sim, label="", same_workers=True, **opts):
        """``CompiledProgram.run`` as its three public steps, a span around
        each.  Returns ``({step: seconds}, (metrics, outputs))``."""
        from repro.pregel.backend import get_backend

        program = case.program
        parts = {}
        try:
            with self.spans.span(f"{backend}.run{label}"):
                with self.spans.span(f"{backend}.make_engine{label}") as span:
                    engine, fields, _master = program.make_engine(
                        case.graph, case.args, backend=backend, **case.run_opts(**opts)
                    )
                parts["make_engine"] = span.seconds
                with self.spans.span(f"{backend}.engine_run{label}") as span:
                    metrics = engine.run()
                parts["engine_run"] = span.seconds
                with self.spans.span(f"{backend}.gather{label}") as span:
                    column_values = get_backend(backend).column_values
                    outputs = {
                        p.name: column_values(fields[p.name])
                        for p in program.ir.params
                        if p.is_output and p.name in fields
                    }
                parts["gather"] = span.seconds
        except Exception as exc:
            self._raised(case, backend, exc)
            return defaultdict(float, parts), None
        self._check(case, backend, sim, metrics, outputs, same_workers)
        return parts, (metrics, outputs)

    def spanned_round(self) -> dict[str, float]:
        """One round with spans on and nothing attached to the engines."""
        from repro.algorithms.manual import MANUAL_PROGRAMS

        out: dict[str, float] = defaultdict(float)
        for case in self.cases:
            sim = None
            sim_seconds = 0.0
            for backend in BACKENDS:
                parts, got = self.run_split(case, backend, sim)
                if backend == "sim":
                    sim = got
                    sim_seconds = sum(parts.values())
                for part, seconds in parts.items():
                    out[f"{backend}.{part}_s"] += seconds
                if got is not None and backend == CLI_BACKEND:
                    out["codegen.vectorized_phases"] += len(got[0].vectorized_phases)
            reply = self.cli(case, sim)
            if reply["exit"] == 0:
                out["cli.fixed_s"] += reply["wall_s"] - oracle.cli_wall(reply["output"])
            manual = MANUAL_PROGRAMS.get(case.algorithm)
            if manual is not None:
                # Figure 6's ratio: the generated program over the
                # hand-written one on the same engine, in the same round
                try:
                    with self.spans.span("algorithms.manual_run") as span:
                        manual.run(case.graph, case.args, **case.run_opts())
                    self._record(case, "manual", None)
                except Exception as exc:
                    self._raised(case, "manual", exc)
                out["algorithms.manual_run_s"] += span.seconds
                out["sim.generated_s"] += sim_seconds
        return out

    def metered_pass(self) -> dict[str, float]:
        """One run per backend with a ``MetricsRegistry`` attached.

        Not the ``Tracer``: a recording tracer switches ``ColumnarEngine``
        off its slab path, so a traced run times a different program.  The
        registry leaves the slab path on (``columnar.bulk_records`` proves
        it); the tracer's cost is recorded once, as a ratio."""
        from repro.obs import MetricsRegistry, Tracer

        out: dict[str, float] = defaultdict(float)
        for case in self.cases:
            sim = None
            for backend in BACKENDS:
                registry = MetricsRegistry()
                parts, got = self.run_split(
                    case, backend, sim, label=".metered", metrics_registry=registry
                )
                if backend == "sim":
                    sim = got
                out[f"{backend}.metered_run_s"] += parts["engine_run"]
                snap = registry.snapshot()
                for row in _series(snap, "pregel.phase_seconds"):
                    out[f"{backend}.phase.{row['labels']['phase']}_s"] += row["sum"]
                if backend == "sim":
                    # deterministic totals, identical on every backend
                    # (check_parity holds each run to the sim run's)
                    for counter in ("supersteps", "messages", "message_bytes",
                                    "net_messages", "net_bytes", "broadcasts"):  # fmt: skip
                        out[f"runtime.{counter}"] += _counter(snap, f"pregel.{counter}")
                elif backend == "columnar":
                    for counter in ("bulk_records", "scalar_records", "slab_flushes"):
                        out[f"columnar.{counter}"] += _counter(snap, f"columnar.{counter}")
                else:
                    # a superstep ends when its slowest worker does
                    for part in ("step", "route"):
                        rows = _series(snap, f"mp.worker_{part}_seconds")
                        out[f"mp.worker_{part}_max_s"] += max((r["sum"] for r in rows), default=0.0)
                    out["mp.worker_staged_bytes"] += _counter(snap, "mp.worker_staged_bytes")
            parts, _got = self.run_split(
                case, "mp", sim, label=".w1", same_workers=False,
                num_workers=1, metrics_registry=MetricsRegistry(),
            )  # fmt: skip
            out["mp.w1.engine_run_s"] += parts["engine_run"]
            parts, _got = self.run_split(case, "columnar", sim, label=".tracer", tracer=Tracer())
            out["columnar.tracer_run_s"] += parts["engine_run"]
        return out

    def compiler_stages(self, calls: int) -> dict[str, float]:
        """Each stage of ``compile_source`` called ``calls`` times on fresh
        input (the passes consume their input); per stage the median, and
        the size of what each stage produced."""
        from repro.codegen.executable import CompiledProgram
        from repro.codegen.java import generate_java
        from repro.lang.parser import parse_procedure
        from repro.lang.typecheck import typecheck
        from repro.transform.pipeline import to_canonical
        from repro.translate.merge import optimize
        from repro.translate.translate import translate

        out: dict[str, float] = defaultdict(float)
        span = self.spans.span
        for case in self.cases:
            seconds: dict[str, list[float]] = defaultdict(list)
            for _ in range(calls):
                with span("lang.parse") as s:
                    proc = parse_procedure(case.source)
                seconds[s.name].append(s.seconds)
                with span("lang.typecheck") as s:
                    typecheck(proc)
                seconds[s.name].append(s.seconds)
                with span("transform.canonicalize") as s:
                    canonical = to_canonical(proc)
                seconds[s.name].append(s.seconds)
                with span("translate.translate") as s:
                    ir = translate(canonical)
                seconds[s.name].append(s.seconds)
                unmerged = len(ir.phases)
                with span("translate.optimize") as s:
                    optimize(ir, canonical.rules)
                seconds[s.name].append(s.seconds)
                with span("codegen.executable") as s:
                    program = CompiledProgram(ir)
                seconds[s.name].append(s.seconds)
                with span("codegen.java") as s:
                    java = generate_java(ir)
                seconds[s.name].append(s.seconds)
            for stage, values in seconds.items():
                out[f"{stage}_s"] += statistics.median(values)
            out["lang.source_lines"] += _lines(case.source)
            out["transform.rules_applied"] += len(canonical.rules.applied)
            out["translate.states_unmerged"] += unmerged
            out["translate.states_merged"] += len(ir.phases)
            out["translate.message_tags"] += len(ir.messages)
            out["codegen.vertex_src_lines"] += _lines(program.vertex_source)
            out["codegen.java_lines"] += _lines(java)
        return out

    def cli_fixed_costs(self, samples: int) -> dict[str, float]:
        """What every CLI invocation pays before it reads its arguments."""
        out_file = self.outdir / "probe.out"
        walls: dict[str, list[float]] = {"pass": [], "import repro": []}
        for _ in range(samples):
            for code, values in walls.items():
                reply = self.spawner.run([sys.executable, "-c", code], out_file)
                if reply["exit"] != 0:
                    raise RuntimeError(f"python -c {code!r} failed: {reply['output']}")
                values.append(reply["wall_s"])
        startup = statistics.median(walls["pass"])
        return {
            "cli.python_startup_s": startup,
            "cli.import_s": statistics.median(walls["import repro"]) - startup,
        }

    def load_edge_lists(self) -> float:
        from repro.graphgen import load_edge_list

        with self.spans.span("graphgen.load_edge_list") as span:
            for path in dict.fromkeys(case.edge_file for case in self.cases):
                load_edge_list(path)
        return span.seconds


def _series(snap: dict, family: str) -> list[dict]:
    return snap[family]["series"] if family in snap else []


def _counter(snap: dict, family: str) -> float:
    return sum(row["value"] for row in _series(snap, family))


def _ratio(a: float, b: float) -> float:
    """``a / b``; 0 when the denominator was never measured (a failed run, or
    a layer the workload does not have)."""
    return a / b if b else 0.0


def _lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def summarize(values: list[float]) -> dict:
    """Median, extremes and quartiles of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def _rounds(one_round, spans: SpanRecorder, seconds: float, rounds: int | None):
    """Repeat ``one_round`` for ``rounds`` rounds, or — when ``rounds`` is
    None — for as many whole rounds as fit in ``seconds`` (at least one).
    Returns the rounds' samples and the wall of the median round."""
    samples: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        if rounds is not None:
            if len(samples) >= rounds:
                break
        elif samples and time.perf_counter() - start + max(walls) > seconds:
            break
        spans.round = len(samples)
        t0 = time.perf_counter()
        samples.append(one_round())
        walls.append(time.perf_counter() - t0)
    spans.round = None
    return samples, statistics.median(walls)


def _warm_up(name: str, workload: Workload, seed: int, spawner, outdir: Path) -> None:
    """One untimed round on the tiny graphs: imports, ``.pyc`` files, numpy
    and the fork path are warm before the first timed round.  Users pay
    those once per process; the CLI metric is where they are measured."""
    spans = SpanRecorder(name, keep=False)
    cases = prepare(workload, seed, TINY_SCALE, outdir / "warm", spans)
    bench = Bench(name, cases, spawner, spans, outdir)
    for case in cases:
        for backend in BACKENDS:
            bench.run(case, backend, None)


def _setup_samples(name: str, seed: int, scale: float, spawner, outdir: Path) -> dict[str, list]:
    """Fresh-process set-up samples, raw and host-normalised."""
    script = Path(__file__).with_name("workloads.py")
    sample_dir = outdir / "setup"
    sample_dir.mkdir(parents=True, exist_ok=True)
    samples: dict[str, list] = {"raw": [], "norm": []}
    kernel_seconds()  # discarded: the first shot runs unspecialised bytecode
    kernel_before = kernel_seconds()
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, str(script), name, str(seed), str(scale), str(sample_dir)]
        reply = spawner.run(argv, outdir / "setup.out")
        kernel_after = kernel_seconds()
        if reply["exit"] != 0:
            raise RuntimeError(f"set-up of {name} failed: {reply['output']}")
        seconds = json.loads(reply["output"].splitlines()[-1])["setup_s"]
        samples["raw"].append(seconds)
        samples["norm"].append(normalised(seconds, (kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return samples


def end_to_end(
    name: str, workload: Workload, seed: int, scale: float, spawner, outdir: Path,
    *, seconds: float, rounds: int | None,
) -> dict:  # fmt: skip
    """The end-to-end metrics of one workload, tracing off."""
    spans = SpanRecorder(name, keep=False)
    setup = _setup_samples(name, seed, scale, spawner, outdir)
    _warm_up(name, workload, seed, spawner, outdir)
    bench = Bench(name, prepare(workload, seed, scale, outdir, spans), spawner, spans, outdir)
    samples, round_s = _rounds(bench.timed_round, spans, seconds, rounds)

    def values(kind: str, metric: str) -> list[float]:
        if metric == "setup_s":
            return setup[kind]
        per_round = [sample[kind][metric] for sample in samples]
        return sum(per_round, []) if metric == "compile_s" else per_round

    # the gated value is the median of the host-normalised samples (see
    # calibrate.py); the raw median rides along for the reader
    metrics = {
        metric: {**summarize(values("norm", metric)), "raw": statistics.median(values("raw", metric))}
        for metric in E2E_NAMES
    }
    return {**_result(bench, metrics), "round_s": round_s}


def per_layer(
    name: str, workload: Workload, seed: int, scale: float, spawner, outdir: Path,
    *, seconds: float, rounds: int | None, span_file: Path, stage_calls: int = STAGE_CALLS,
) -> dict:  # fmt: skip
    """The per-layer metrics of one workload; writes the span file."""
    spans = SpanRecorder(name, keep=True)
    _warm_up(name, workload, seed, spawner, outdir)
    cases = prepare(workload, seed, scale, outdir, spans)
    bench = Bench(name, cases, spawner, spans, outdir)

    m: dict[str, float] = defaultdict(float)
    for span in spans.spans:
        if span.name.startswith("graphgen."):
            m[f"{span.name}_s"] += span.seconds
    m["graphgen.load_edge_list_s"] = bench.load_edge_lists()
    graphs = {case.graph_key: case.graph for case in cases}.values()
    m["graphgen.nodes"] = sum(g.num_nodes for g in graphs)
    m["graphgen.edges"] = sum(g.num_edges for g in graphs)
    m.update(bench.compiler_stages(stage_calls))
    m.update(bench.cli_fixed_costs(samples=5))

    samples, _ = _rounds(bench.spanned_round, spans, seconds * SPANNED_SHARE, rounds)
    for key in samples[0]:
        m[key] = statistics.median(sample[key] for sample in samples)
    m.update(bench.metered_pass())

    for backend in BACKENDS:
        run_s = sum(m[f"{backend}.{part}_s"] for part in ("make_engine", "engine_run", "gather"))
        m[f"{backend}.msgs_per_s"] = _ratio(m["runtime.messages"], run_s)
        m[f"obs.metered_overhead_ratio.{backend}"] = _ratio(
            m[f"{backend}.metered_run_s"], m[f"{backend}.engine_run_s"]
        )
    m["obs.tracer_slowdown.columnar"] = _ratio(
        m["columnar.tracer_run_s"], m["columnar.engine_run_s"]
    )
    m["mp.parent_residual_s"] = (
        m["mp.metered_run_s"] - m["mp.phase.master_s"] - m["mp.phase.exchange_s"]
        - m["mp.worker_step_max_s"]
    )  # fmt: skip
    m["mp.speedup_2over1"] = _ratio(m["mp.w1.engine_run_s"], m["mp.metered_run_s"])
    m["mp.over_columnar"] = _ratio(m["mp.engine_run_s"], m["columnar.engine_run_s"])
    m["columnar.bulk_record_share"] = _ratio(
        m["columnar.bulk_records"], m["columnar.bulk_records"] + m["columnar.scalar_records"]
    )
    # 0 where no case of the workload has a hand-written baseline (bc)
    m["sim.gen_over_manual"] = _ratio(m["sim.generated_s"], m["algorithms.manual_run_s"])

    spans.write(span_file)
    return _result(bench, {metric: {"value": m[metric]} for metric in LAYER_NAMES})


def _result(bench: Bench, metrics: dict) -> dict:
    return {
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "metrics": metrics,
    }
