"""Command-line interface: ``gm-pregel`` (or ``python -m repro``).

Subcommands:

* ``compile FILE.gm`` — run the full pipeline; ``--emit`` selects the
  artifact to print (java, canonical Green-Marl, the state machine, or the
  executable Python module: vertex loops and master);
* ``run FILE.gm`` — compile and execute on a generated graph, printing
  outputs and run metrics; ``--trace``/``--trace-chrome`` export the event
  log, ``--metrics-json`` dumps the complete metrics ledger;
* ``trace FILE.gm`` — compile and execute with tracing on and print the
  per-superstep timeline (phase times, active set, message traffic);
* ``profile FILE.gm`` — compile and execute with tracing on and print the
  per-worker load profile and straggler supersteps;
* ``metrics FILE.gm`` — compile and execute with a recording metrics
  registry and print the snapshot (``--format json|prom``);
* ``interp FILE.gm`` — execute under the shared-memory reference semantics;
* ``bench`` — regenerate the paper's tables/figure on the simulator;
* ``compare BASELINE CURRENT`` — noise-aware perf-regression check between
  two ``BENCH_*.json`` telemetry documents (exit 1 on regression).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .compiler import compile_source
from .graphgen.registry import TABLE1, load_graph
from .lang.errors import BadArgument, GreenMarlError, MissingArgument
from .pregel.backend import BACKENDS, BackendUnsupported


def _parse_value(text: str):
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    return text


def _die(message: str) -> "SystemExit":
    """Usage error: one line on stderr, exit code 2 (argparse's convention),
    never a traceback."""
    print(f"gm-pregel: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _read_program(ns: argparse.Namespace) -> str:
    """The Green-Marl source ``ns.file`` names; a path that cannot be read
    (missing, a directory) is a usage error."""
    try:
        return Path(ns.file).read_text()
    except OSError as exc:
        raise _die(f"cannot read {ns.file}: {exc.strerror or exc}") from None


def _parse_args_list(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise _die(f"--arg expects name=value, got '{pair}'")
        name, value = pair.split("=", 1)
        out[name] = _parse_value(value)
    return out


def _validate_run_shape(ns: argparse.Namespace) -> None:
    """Range-check the numeric run parameters up front: out-of-range values
    are usage errors (exit 2), not tracebacks from deep inside a run."""
    if not 0.0 < ns.scale <= 16.0:
        raise _die(f"--scale must be in (0, 16], got {ns.scale}")
    if not 1 <= ns.workers <= 4096:
        raise _die(f"--workers must be in [1, 4096], got {ns.workers}")
    if getattr(ns, "checkpoint_every", 0) < 0:
        raise _die(f"--checkpoint-every must be >= 0, got {ns.checkpoint_every}")
    if getattr(ns, "max_restarts", 0) < 0:
        raise _die(f"--max-restarts must be >= 0, got {ns.max_restarts}")
    deadline = getattr(ns, "exchange_deadline", 30.0)
    if not (math.isfinite(deadline) and deadline > 0):
        raise _die(f"--exchange-deadline must be > 0 and finite, got {deadline}")


def _cmd_compile(ns: argparse.Namespace) -> int:
    source = _read_program(ns)
    result = compile_source(
        source,
        state_merging=not ns.no_state_merging,
        intra_loop_merging=not ns.no_intra_loop,
    )
    if ns.emit == "java":
        print(result.java_source)
    elif ns.emit == "canonical":
        print(result.canonical_source)
    elif ns.emit == "states":
        print(result.ir.describe())
        print()
        print("applied rules:", ", ".join(sorted(result.rules.applied)))
    elif ns.emit == "python":
        print(result.program.source)
    return 0


def _load_cli_graph(ns: argparse.Namespace):
    if ns.graph_file:
        from .graphgen.io import GraphFormatError, load_edge_list

        try:
            return load_edge_list(ns.graph_file)
        except FileNotFoundError:
            raise _die(f"--graph-file: no such file: {ns.graph_file}") from None
        except GraphFormatError as exc:
            raise _die(f"--graph-file: {exc}") from None
    return load_graph(ns.graph, ns.scale, ns.seed)


def _build_fault_tolerance(ns: argparse.Namespace):
    """A FaultTolerance manager from the CLI flags, or None when unused.

    ``--heartbeat`` implies fault tolerance (detection escalates into
    checkpoint recovery), so supervision alone still gets a manager.
    ``--inject-fault`` takes every fault kind into the one plan: simulated
    crashes (``W@S``, any backend) and real faults (``kill:W@S`` …, mp
    only), refused here, before the graph loads, in the engine's words.
    ``--max-restarts`` is the plan's restart budget.
    """
    if not ns.checkpoint_every and not ns.inject_fault and not ns.heartbeat:
        return None
    from .pregel.ft import FaultPlan, FaultTolerance, fault_refusal, parse_fault

    fireable = ()
    if ns.backend == "mp":
        from .pregel.backend.mp import fireable_faults

        fireable = fireable_faults(getattr(ns, "transport", "shm"))
    try:
        faults = [parse_fault(spec) for spec in ns.inject_fault]
        for fault in faults:
            if fault.worker >= ns.workers:
                raise ValueError(
                    f"names worker {fault.worker} but --workers is {ns.workers}"
                )
        for fault in faults:
            refusal = fault_refusal(fault.kind, fireable)
            if refusal is not None:
                raise ValueError(refusal)
        plan = FaultPlan(
            checkpoint_every=ns.checkpoint_every,
            crashes=tuple(faults),
            recovery=ns.recovery,
            max_restarts=ns.max_restarts,
        )
    except ValueError as exc:
        raise _die(f"--inject-fault: {exc}") from None
    return FaultTolerance(plan)


def _build_transport(ns: argparse.Namespace):
    """A SimulatedTransport from ``--net-faults``, or None when unused."""
    if not ns.net_faults:
        return None
    from .pregel.net import SimulatedTransport, parse_net_faults

    try:
        return SimulatedTransport(parse_net_faults(ns.net_faults))
    except ValueError as exc:
        raise _die(f"--net-faults: {exc}") from None


def _build_supervisor(ns: argparse.Namespace):
    """A Supervisor from ``--heartbeat``, or None."""
    if not ns.heartbeat:
        return None
    from .pregel.supervisor import Supervisor, parse_heartbeat

    try:
        plan = parse_heartbeat(ns.heartbeat)
        for worker in (*(crash.worker for crash in plan.silent_crashes), *plan.stragglers):
            if worker >= ns.workers:
                raise ValueError(f"names worker {worker} but --workers is {ns.workers}")
        return Supervisor(plan)
    except ValueError as exc:
        raise _die(f"--heartbeat: {exc}") from None


def _build_mem(ns: argparse.Namespace):
    """A MemoryManager from ``--mem-budget``/``--spill-dir``, or None."""
    if not ns.mem_budget:
        if ns.spill_dir:
            raise _die("--spill-dir requires --mem-budget")
        return None
    from .pregel.mem import MemoryManager, parse_mem_budget

    if ns.spill_dir:
        try:
            os.makedirs(ns.spill_dir, exist_ok=True)
        except OSError as exc:
            raise _die(f"--spill-dir: {exc}")
    try:
        plan = parse_mem_budget(ns.mem_budget)
        if ns.spill_dir:
            import dataclasses

            plan = dataclasses.replace(plan, spill_dir=ns.spill_dir)
        for worker, _budget in plan.worker_budgets:
            if worker >= ns.workers:
                raise ValueError(
                    f"targets worker {worker} but --workers is {ns.workers}"
                )
    except ValueError as exc:
        raise _die(f"--mem-budget: {exc}") from None
    return MemoryManager(plan)


def _validate_backend_composition(ns: argparse.Namespace) -> None:
    """Refuse unsupported backend/feature compositions *before* the graph
    loads.  The engine constructor re-checks (it is the authority), but by
    then the CLI has spent seconds generating a large graph — validating
    from the flags alone makes ``--backend mp --net-faults ...`` on a
    1M-vertex graph fail in milliseconds, with the identical exit-2
    message, because both paths share :func:`composition_refusals`."""
    if ns.backend != "mp":
        if getattr(ns, "transport", "shm") == "tcp":
            raise _die(
                "--transport tcp needs real worker processes to connect "
                "(run with --backend mp)"
            )
        return
    from .pregel.backend.mp import composition_refusals, mp_available

    refusals = composition_refusals(ns.net_faults or None)
    if refusals:
        raise _die(refusals[0])
    if not mp_available():
        raise _die(
            "the mp backend needs fork start-method and "
            "multiprocessing.shared_memory, unavailable on this platform"
        )


def _execute_traced(
    ns: argparse.Namespace, *, force_trace: bool = False, metrics_registry=None
):
    """Compile and run ``ns.file``, threading one tracer through the compiler
    and the engine when tracing is requested (or forced by the subcommand).
    Returns ``(graph, run, tracer)``; trace/metrics exports are written here
    so every run-shaped subcommand shares them."""
    _validate_run_shape(ns)
    _validate_backend_composition(ns)
    # Build every flag-derived component *before* the graph loads: a
    # malformed --inject-fault / --heartbeat / --mem-budget spec is a
    # usage error and must exit 2 in milliseconds, not after seconds of
    # graph generation.
    ft = _build_fault_tolerance(ns)
    transport = _build_transport(ns)
    supervisor = _build_supervisor(ns)
    mem = _build_mem(ns)
    if ns.backend == "columnar" and mem is not None and mem.limited:
        from .pregel.backend.columnar import MEM_REFUSAL

        raise _die(MEM_REFUSAL)
    tracer = None
    if force_trace or ns.trace or ns.trace_chrome:
        from .obs import Tracer

        tracer = Tracer()
    source = _read_program(ns)
    graph = _load_cli_graph(ns)
    result = compile_source(source, emit_java=False, tracer=tracer)
    args = _parse_args_list(ns.arg)
    engine_opts = {}
    if getattr(ns, "partitioning", "hash") != "hash":
        engine_opts["partitioning"] = ns.partitioning
    if ns.backend == "mp":
        # mp-only knobs: the sim/columnar engines have no worker
        # processes, so they do not take these keyword arguments.
        engine_opts.update(
            exchange_deadline=ns.exchange_deadline,
            transport_mode=getattr(ns, "transport", "shm"),
        )
    try:
        run = result.program.run(
            graph,
            args,
            backend=ns.backend,
            num_workers=ns.workers,
            seed=ns.seed,
            scheduling=ns.scheduling,
            ft=ft,
            tracer=tracer,
            metrics_registry=metrics_registry,
            transport=transport,
            supervisor=supervisor,
            mem=mem,
            **engine_opts,
        )
    except BackendUnsupported as exc:
        # A feature composition the backend deliberately refuses is a
        # usage error (exit 2), never a traceback or a silent wrong answer.
        raise _die(str(exc)) from None
    if ns.metrics_json:
        Path(ns.metrics_json).write_text(
            json.dumps(run.metrics.to_dict(), sort_keys=True, default=str) + "\n"
        )
    if tracer is not None:
        from .obs import write_chrome_trace, write_jsonl

        if ns.trace:
            write_jsonl(tracer.events, ns.trace)
            print(f"trace: {len(tracer.events)} events -> {ns.trace}", file=sys.stderr)
        if ns.trace_chrome:
            write_chrome_trace(tracer.events, ns.trace_chrome)
            print(
                f"chrome trace -> {ns.trace_chrome} (open in Perfetto)",
                file=sys.stderr,
            )
    return graph, run, tracer, supervisor, mem


def _cmd_run(ns: argparse.Namespace) -> int:
    graph, run, _tracer, supervisor, mem = _execute_traced(ns)
    print(f"graph: {graph}")
    print(f"metrics: {run.metrics.summary()}")
    if run.metrics.faults_injected:
        print(
            f"recovery: {ns.recovery} survived {run.metrics.faults_injected} "
            f"worker crash(es), {run.metrics.lost_supersteps} superstep(s) lost, "
            f"{run.metrics.recovery_replay_work} vertex computations replayed"
        )
    if mem is not None:
        report = mem.report()
        print(report.summary())
        if report.oom:
            # Graceful degradation: the budget could not hold an irreducible
            # allocation — partial result plus a structured report, no crash.
            print(
                f"memory: OUT OF MEMORY — worker {report.oom['worker']} in "
                f"{report.oom['phase']} at superstep {report.oom['superstep']} "
                f"needed {report.oom['needed_bytes']} bytes against a "
                f"{report.oom['budget_bytes']}-byte budget; partial result "
                f"covers {run.metrics.supersteps} superstep(s)"
            )
    m = run.metrics
    if m.halt_reason == "unrecoverable":
        # Graceful degradation: the restart budget ran out, so this is a
        # *partial* result — say so structurally, don't raise.  The
        # supervisor, when one detected the deaths, says it; else recovery.
        print(
            f"{'recovery' if supervisor is None else 'supervisor'}: DEGRADED "
            f"(halt_reason=unrecoverable) after {m.restarts}/{ns.max_restarts} "
            f"restart(s); partial result covers {m.supersteps} superstep(s)"
        )
    if supervisor is not None:
        report = supervisor.report()
        if m.halt_reason != "unrecoverable":
            print(
                f"supervisor: {report['restarts_used']} restart(s), "
                f"{report['heartbeats_missed']} heartbeat(s) missed, "
                f"{len(report['quarantined_workers'])} worker(s) quarantined, "
                f"clock={report['clock_units']:.1f} units"
            )
        for detection in report["detections"]:
            cause = detection.get("cause")
            print(
                f"supervisor: worker {detection['worker']} declared dead at "
                f"superstep {detection['superstep']} after "
                f"{detection['silence']:.2f} units of silence "
                f"(phi={detection['phi']:.2f}"
                + (f", cause={cause}" if cause else "")
                + f") -> {detection['action']}"
            )
    if run.result is not None:
        print(f"result: {run.result}")
    for name, column in run.outputs.items():
        preview = ", ".join(str(v) for v in column[:8])
        print(f"output {name}: [{preview}{', ...' if len(column) > 8 else ''}]")
    return 0


def _cmd_trace(ns: argparse.Namespace) -> int:
    from .obs import timeline_report

    graph, run, tracer, _supervisor, _mem = _execute_traced(ns, force_trace=True)
    print(f"graph: {graph}")
    print(timeline_report(tracer.events))
    print()
    print(f"metrics: {run.metrics.summary()}")
    return 0


def _cmd_profile(ns: argparse.Namespace) -> int:
    from .obs import profile_report

    graph, run, tracer, _supervisor, _mem = _execute_traced(ns, force_trace=True)
    print(f"graph: {graph}")
    print(profile_report(tracer.events))
    print()
    print(f"metrics: {run.metrics.summary()}")
    return 0


def _cmd_metrics(ns: argparse.Namespace) -> int:
    """Run once with a recording metrics registry and print the snapshot
    (JSON or Prometheus text exposition)."""
    from .obs import MetricsRegistry, prometheus_text

    registry = MetricsRegistry()
    graph, run, _tracer, _supervisor, _mem = _execute_traced(
        ns, metrics_registry=registry
    )
    snap = registry.snapshot()
    if ns.format == "prom":
        print(prometheus_text(snap), end="")
    else:
        print(json.dumps(snap, indent=2, sort_keys=True))
    print(f"graph: {graph}", file=sys.stderr)
    print(f"metrics: {run.metrics.summary()}", file=sys.stderr)
    return 0


def _cmd_compare(ns: argparse.Namespace) -> int:
    """Compare two BENCH_*.json documents; exit 1 on regression, 2 on a
    malformed document or threshold spec."""
    from .bench.telemetry import TelemetryError, compare, load_bench

    thresholds = {}
    for spec in ns.threshold:
        if "=" not in spec:
            raise _die(f"--threshold expects metric=ratio, got '{spec}'")
        metric, _, ratio_text = spec.partition("=")
        try:
            ratio = float(ratio_text)
        except ValueError:
            raise _die(f"--threshold ratio must be a number, got '{ratio_text}'") from None
        if ratio < 1.0:
            raise _die(f"--threshold ratio must be >= 1.0, got {ratio}")
        thresholds[metric] = ratio
    if ns.wall_threshold < 1.0:
        raise _die(f"--wall-threshold must be >= 1.0, got {ns.wall_threshold}")
    try:
        baseline = load_bench(ns.baseline)
        current = load_bench(ns.current)
        result = compare(
            baseline,
            current,
            wall_threshold=ns.wall_threshold,
            thresholds=thresholds,
            counts_only=ns.counts_only,
        )
    except TelemetryError as exc:
        raise _die(str(exc)) from None
    print(result.render())
    return 0 if result.ok else 1


def _cmd_interp(ns: argparse.Namespace) -> int:
    from .interp import interpret

    _validate_run_shape(ns)
    source = _read_program(ns)
    graph = _load_cli_graph(ns)
    args = _parse_args_list(ns.arg)
    result = interpret(source, graph, args, seed=ns.seed)
    if result.result is not None:
        print(f"result: {result.result}")
    for name, column in result.outputs.items():
        preview = ", ".join(str(v) for v in column[:8])
        print(f"output {name}: [{preview}{', ...' if len(column) > 8 else ''}]")
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    from .bench import figure6_experiments, render_table, table2_rows
    from .bench.tables import render_check_matrix
    from .compiler import compile_algorithm
    from .algorithms.sources import ALGORITHMS
    from .transform.pipeline import TABLE3_ROWS

    print("== Table 2: lines of code ==")
    rows = table2_rows()
    print(
        render_table(
            ["Algorithm", "GM", "GM(paper)", "Java(gen)", "GPS(paper)"],
            [
                [r.display, r.green_marl, r.paper_green_marl, r.generated_java, r.paper_gps]
                for r in rows
            ],
        )
    )
    print()
    print("== Table 3: applied transformations ==")
    marks = {name: compile_algorithm(name, emit_java=False).rule_row() for name in ALGORITHMS}
    print(render_check_matrix(TABLE3_ROWS, list(ALGORITHMS), marks))
    print()
    print(f"== Figure 6: generated vs manual (scale={ns.scale}) ==")
    results = figure6_experiments(ns.scale, repeats=ns.repeats)
    print(
        render_table(
            ["Algorithm", "Graph", "Norm. runtime", "Δ timesteps", "msgs gen", "msgs man"],
            [
                [
                    r.algorithm,
                    r.graph,
                    r.normalized_runtime,
                    r.timestep_delta,
                    r.generated.messages,
                    r.manual.messages if r.manual else None,
                ]
                for r in results
            ],
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gm-pregel",
        description="Green-Marl → Pregel compiler (CGO 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a .gm file and print an artifact")
    p_compile.add_argument("file")
    p_compile.add_argument(
        "--emit",
        choices=("java", "canonical", "states", "python"),
        default="states",
    )
    p_compile.add_argument("--no-state-merging", action="store_true")
    p_compile.add_argument("--no-intra-loop", action="store_true")
    p_compile.set_defaults(fn=_cmd_compile)

    run_like = (
        ("run", _cmd_run, "run a .gm file on a graph"),
        ("trace", _cmd_trace, "run with tracing and print the superstep timeline"),
        ("profile", _cmd_profile, "run with tracing and print the per-worker profile"),
        ("metrics", _cmd_metrics, "run with a metrics registry and print the snapshot"),
        ("interp", _cmd_interp, "interp a .gm file on a graph"),
    )
    for name, fn, help_text in run_like:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        if name == "metrics":
            p.add_argument(
                "--format",
                choices=("json", "prom"),
                default="json",
                help="snapshot exposition format: structured JSON or the "
                "Prometheus text format",
            )
        p.add_argument("--graph", choices=tuple(TABLE1), default="twitter")
        p.add_argument("--graph-file", help="edge-list file instead of a generator")
        p.add_argument("--scale", type=float, default=0.25)
        p.add_argument("--seed", type=int, default=17)
        p.add_argument("--workers", type=int, default=4)
        p.add_argument(
            "--arg", action="append", default=[], help="procedure argument name=value"
        )
        if name != "interp":
            p.add_argument(
                "--scheduling",
                choices=("frontier", "dense"),
                default="frontier",
                help="superstep scheduling: 'frontier' iterates only the "
                "active set when it is sparse; 'dense' turns that switch off "
                "and always scans every un-voted vertex (same message routing)",
            )
            p.add_argument(
                "--backend",
                choices=BACKENDS,
                default="sim",
                help="execution backend: 'sim' is the dict-based simulator, "
                "'columnar' stores properties in typed arrays and stages "
                "messages as packed struct slabs, 'mp' runs real worker "
                "processes exchanging those slabs over shared memory; all "
                "are parity-identical on outputs and metered quantities",
            )
            p.add_argument(
                "--transport",
                choices=("shm", "tcp"),
                default="shm",
                help="mp backend data plane: 'shm' exchanges slabs through "
                "shared-memory segments, 'tcp' moves the cross-worker slabs "
                "over real loopback sockets (length-prefixed CRC frames, "
                "per-destination sequence numbers, ack/retransmit/dedup); "
                "outputs and parity_key() are bit-identical across both",
            )
            p.add_argument(
                "--partitioning",
                choices=("hash", "range"),
                default="hash",
                help="vertex -> worker placement: 'hash' interleaves ids "
                "round-robin, 'range' assigns contiguous id blocks "
                "(id-local edges stay within one worker); outputs are "
                "bit-identical across both at equal worker counts",
            )
            p.add_argument(
                "--checkpoint-every",
                type=int,
                default=0,
                metavar="N",
                help="checkpoint engine+program state every N supersteps (0 = off)",
            )
            p.add_argument(
                "--inject-fault",
                action="append",
                default=[],
                metavar="[KIND:]WORKER@STEP",
                help="crash the given worker entering the given superstep "
                "(repeatable); the run recovers from the latest checkpoint.  "
                "Plain W@S simulates the crash on any backend; kill:W@S "
                "SIGKILLs the real worker process and hang:W@S wedges it "
                "past the exchange deadline (both --backend mp only, "
                "detected by the parent's deadline-based barrier); "
                "netsplit:W@S closes the worker's listening socket "
                "mid-exchange and slowlink:W@S stalls it past its peers' "
                "deadline (both --backend mp --transport tcp only, "
                "classified as refused/timeout by the peers)",
            )
            p.add_argument(
                "--recovery",
                choices=("rollback", "confined"),
                default="rollback",
                help="recovery strategy: rollback replays every partition, "
                "confined replays only the failed worker's partition",
            )
            p.add_argument(
                "--net-faults",
                metavar="SPEC",
                help="route messages through a simulated faulty channel "
                "hidden behind reliable exactly-once delivery, e.g. "
                "'drop=0.05,dup=0.02,reorder=0.1,corrupt=0.01,seed=7' "
                "(results stay bit-identical; the faults are metered)",
            )
            p.add_argument(
                "--heartbeat",
                metavar="SPEC",
                help="supervise the run with heartbeat failure detection "
                "and automatic recovery, e.g. "
                "'interval=1,phi=4,deadline=5,crash=1@3,straggler=2,seed=5' "
                "(crash=W@S schedules *silent* deaths the detector must "
                "notice; implies fault tolerance)",
            )
            p.add_argument(
                "--exchange-deadline",
                type=float,
                default=30.0,
                metavar="SECONDS",
                help="mp backend: how long the parent waits for a worker's "
                "barrier reply before declaring it dead/hung and escalating "
                "into recovery (default 30)",
            )
            p.add_argument(
                "--max-restarts",
                type=int,
                default=3,
                metavar="N",
                help="restart budget for detected failures; past it the run "
                "degrades to a partial result with halt_reason=unrecoverable",
            )
            p.add_argument(
                "--mem-budget",
                action="append",
                default=[],
                metavar="BYTES[@W]",
                help="per-worker memory budget (k/m/g suffixes allowed); "
                "BYTES@W targets one worker (repeatable).  Over-budget "
                "inboxes spill to disk and outboxes split the superstep; "
                "results stay bit-identical.  A budget too small for a "
                "single vertex's inbox degrades the run to "
                "halt_reason=out_of_memory with a structured report",
            )
            p.add_argument(
                "--spill-dir",
                metavar="DIR",
                help="parent directory for the run's private spill files "
                "(default: the system temp dir); requires --mem-budget",
            )
            p.add_argument(
                "--trace",
                metavar="FILE",
                help="write the observability event log (compiler passes, "
                "per-superstep records, FT lifecycle) as JSONL",
            )
            p.add_argument(
                "--trace-chrome",
                metavar="FILE",
                help="write the trace in Chrome trace-event JSON "
                "(loadable in Perfetto / chrome://tracing)",
            )
            p.add_argument(
                "--metrics-json",
                metavar="FILE",
                help="write the complete RunMetrics ledger as JSON",
            )
        p.set_defaults(fn=fn)

    p_bench = sub.add_parser("bench", help="regenerate the paper's tables")
    p_bench.add_argument("--scale", type=float, default=0.5)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.set_defaults(fn=_cmd_bench)

    p_compare = sub.add_parser(
        "compare",
        help="compare two BENCH_*.json telemetry documents for perf regressions",
    )
    p_compare.add_argument("baseline", help="baseline BENCH_*.json path")
    p_compare.add_argument("current", help="current BENCH_*.json path")
    p_compare.add_argument(
        "--wall-threshold",
        type=float,
        default=1.15,
        metavar="RATIO",
        help="min-of-N wall-time ratio above which a run regresses "
        "(default 1.15)",
    )
    p_compare.add_argument(
        "--threshold",
        action="append",
        default=[],
        metavar="METRIC=RATIO",
        help="per-count threshold, e.g. messages=1.10 allows 10%% growth; "
        "counts without one must match exactly (repeatable)",
    )
    p_compare.add_argument(
        "--counts-only",
        action="store_true",
        help="skip wall-time comparison (cross-host CI: only the "
        "deterministic counts are comparable)",
    )
    p_compare.set_defaults(fn=_cmd_compare)

    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except GreenMarlError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    except MissingArgument as exc:  # run, trace, profile, metrics, interp
        raise _die(f"{exc}: pass --arg {exc.name}=VALUE") from None
    except BadArgument as exc:
        raise _die(str(exc)) from None
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
