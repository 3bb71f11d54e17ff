#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads, every
metric by name.

    python3 benchmarks/e2e/run.py                      # everything, 5 rounds
    python3 benchmarks/e2e/run.py --smoke              # tiny graphs, 1 round
    python3 benchmarks/e2e/run.py --repeat-check       # two full sets, compared
    python3 benchmarks/e2e/run.py --workload bc_twitter --seed 7 \\
        --seconds 18 --trace 0                         # one driver-style run

With ``--trace`` the command is one run of one workload, as the benchmark
driver calls it: ``--trace 0`` measures the end-to-end metrics with tracing
off, ``--trace 1`` the per-layer metrics, and the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--trace`` it makes both passes over every workload (or the one
``--workload`` names), prints each metric with its unit and spread, and
writes ``out/result.json`` and ``out/spans_<workload>.json``.

Any incorrect output — against the textbook references, against the sim
run, or in what the CLI printed — makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
FULL_ROUNDS = 5
#: --repeat-check raises the sample count this far before it gives up
MAX_ROUNDS = 9
#: units of the metrics that must repeat exactly from run to run
EXACT_UNITS = ("count", "bytes", "lines")


def load_contract() -> dict:
    """``BENCHMARK.json``, after checking that its workload and metric
    names are exactly the ones this code measures."""
    import measure
    from workloads import WORKLOADS

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (
        ("workloads", WORKLOADS),
        ("end_to_end", measure.E2E_NAMES),
        ("per_layer", measure.LAYER_NAMES),
    ):
        theirs = [entry["name"] for entry in contract[key]]
        if sorted(theirs) != sorted(ours):
            odd = sorted(set(theirs) ^ set(ours))
            raise SystemExit(f"run.py and BENCHMARK.json disagree on {key}: {odd}")
    return contract


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def host_facts() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
    }


def measure_one(name: str, trace: int, ns, spawner, out_dir: Path) -> dict:
    """One pass (``trace`` 0 or 1) over one workload."""
    import measure
    from workloads import TINY_SCALE, WORKLOADS

    workload = WORKLOADS[name]
    scale = TINY_SCALE if ns.smoke else workload.scale
    workdir = out_dir / f"work-{os.getpid()}"
    opts = {"seconds": ns.seconds, "rounds": ns.rounds}
    t0 = time.perf_counter()
    try:
        if trace:
            if ns.smoke:
                opts["stage_calls"] = 3
            opts["span_file"] = out_dir / f"spans_{name}.json"
            result = measure.per_layer(name, workload, ns.seed, scale, spawner, workdir, **opts)
        else:
            result = measure.end_to_end(name, workload, ns.seed, scale, spawner, workdir, **opts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["wall_s"] = time.perf_counter() - t0
    return result


def with_units(metrics: dict, entries: list[dict]) -> dict:
    out = {}
    for entry in entries:
        stats = {**metrics[entry["name"]], "unit": entry["unit"]}
        if entry["unit"] in EXACT_UNITS:
            stats["value"] = int(stats["value"])
        out[entry["name"]] = stats
    return out


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        line = f"{workload:13} {name:36} {value:>14} {m['unit']}"
        if "n" in m:
            line += f"   [raw {m['raw']:.6g}  min {m['min']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  max {m['max']:.6g}  n={m['n']}]"
        print(line)


def print_failures(failures: list[dict]) -> None:
    for f in failures:
        print(
            f"FAILED {f['workload']} {f['case']} on {f['backend']} round {f['round']}: {f['why']}",
            file=sys.stderr,
        )


def driver_run(ns, contract: dict, spawner, out_dir: Path) -> int:
    result = measure_one(ns.workload, ns.trace, ns, spawner, out_dir)
    key = "per_layer" if ns.trace else "end_to_end"
    metrics = with_units(result["metrics"], contract[key])
    print_metrics(ns.workload, metrics)
    print_failures(result["failures"])
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def full_run(ns, contract: dict, spawner, out_dir: Path) -> int:
    names = [ns.workload] if ns.workload else [w["name"] for w in contract["workloads"]]
    doc = {
        "seed": ns.seed,
        "rounds": ns.rounds,
        "smoke": ns.smoke,
        "host": host_facts(),
        "workloads": {},
    }
    attempted = failed = 0
    for name in names:
        timed = measure_one(name, 0, ns, spawner, out_dir)
        layers = measure_one(name, 1, ns, spawner, out_dir)
        e2e = with_units(timed["metrics"], contract["end_to_end"])
        per_layer = with_units(layers["metrics"], contract["per_layer"])
        failures = timed["failures"] + layers["failures"]
        ops = timed["attempted"] + layers["attempted"]
        e2e["failed_share"] = {"value": len(failures) / ops, "unit": "ratio"}
        print_metrics(name, e2e)
        print_metrics(name, per_layer)
        print_failures(failures)
        attempted += ops
        failed += len(failures)
        doc["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": per_layer,
            "attempted": ops,
            "failures": failures,
            # what the layer pass costs next to one tracing-off round
            "tracing_overhead": {
                "layer_pass_s": layers["wall_s"],
                "timed_round_s": timed["round_s"],
                "ratio": layers["wall_s"] / timed["round_s"],
            },
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{attempted} operations, {failed} failed; wrote {out_dir / 'result.json'}")
    return 0 if failed == 0 else 1


def repeat_check(ns, contract: dict, out_dir: Path) -> int:
    """Two full sets of runs of this commit, each in a fresh process, must
    agree within the benchmark's own bounds.  A timing metric that does not
    gets more rounds before anyone widens its bound."""
    bounds = {e["name"]: e["bound"] for e in contract["end_to_end"]}
    rounds = ns.rounds
    while True:
        docs = []
        for side in "ab":
            side_dir = out_dir / f"repeat_{side}"
            argv = [sys.executable, str(HERE / "run.py"), "--seed", str(ns.seed),
                    "--rounds", str(rounds), "--out", str(side_dir)]  # fmt: skip
            argv += ["--smoke"] if ns.smoke else []
            argv += ["--workload", ns.workload] if ns.workload else []
            if subprocess.run(argv, stdout=subprocess.DEVNULL).returncode != 0:
                print(f"set {side} failed; see {side_dir}", file=sys.stderr)
                return 1
            docs.append(json.loads((side_dir / "result.json").read_text())["workloads"])
        over = []
        print(f"-- {rounds} rounds: metric, workload, median a, median b, |b-a|/a, bound")
        for name in docs[0]:
            a, b = docs[0][name], docs[1][name]
            for metric, bound in bounds.items():
                va, vb = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
                diff = abs(vb - va) / va
                flag = "" if diff <= bound else "  OVER"
                print(f"{metric:18} {name:13} {va:12.6g} {vb:12.6g} {diff:8.4f} {bound:6.2f}{flag}")
                if flag:
                    over.append((metric, name))
            for metric, m in a["per_layer"].items():
                if m["unit"] in EXACT_UNITS and m != b["per_layer"][metric]:
                    print(f"{metric} {name}: count differs: {m['value']} vs {b['per_layer'][metric]['value']}")
                    over.append((metric, name))
        if not over:
            print("both sets agree within every bound; all counts identical")
            return 0
        if rounds >= MAX_ROUNDS:
            print(f"still over at {rounds} rounds: {over} — widen those bounds, recording this spread")
            return 1
        rounds = min(MAX_ROUNDS, rounds + 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time of one --trace run")
    parser.add_argument("--rounds", type=int, help="timed rounds instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, one round")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    ns = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # one thread per process: two workers on two cores, never oversubscribed
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    contract = load_contract()
    if ns.workload is not None and ns.workload not in WORKLOADS:
        parser.error(f"unknown workload '{ns.workload}' (have: {', '.join(WORKLOADS)})")
    if ns.trace is not None and ns.workload is None:
        parser.error("--trace measures one workload: name it with --workload")
    if ns.smoke:
        ns.rounds = 1
    elif ns.rounds is None and ns.trace is None:
        ns.rounds = FULL_ROUNDS
    if ns.seconds is None:
        ns.seconds = float(contract["run_seconds"])
    out_dir = ns.out.resolve()

    if ns.repeat_check:
        return repeat_check(ns, contract, out_dir)
    from spawner import Spawner

    with Spawner(child_env()) as spawner:
        if ns.trace is not None:
            return driver_run(ns, contract, spawner, out_dir)
        return full_run(ns, contract, spawner, out_dir)


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so a child of a launcher that died early
    is re-parented here, where :func:`stop_children` finds it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: stop_children still covers the direct children


def child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # gone between listdir and read
            if int(stat.rpartition(")")[2].split()[1]) == me:
                pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process the benchmark started and wait until each has
    ended.  Runs last on every path out of the command.

    On a clean run there is exactly one left: multiprocessing's resource
    tracker, which the ``mp`` backend's shared-memory segments start and
    which lives until this process closes its pipe — that is, until after
    this process is gone, unless it is stopped and waited for here."""
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None)
    try:
        tracker._stop()  # closes the pipe, waits for the tracker to exit
    except (AttributeError, OSError):
        pass  # never started, or another Python's tracker: killed below
    while pids := child_pids():
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


if __name__ == "__main__":
    # registered before anything imports multiprocessing or the program, so
    # it runs after their exit handlers (joins, shared-memory sweep)
    adopt_orphans()
    atexit.register(stop_children)
    # a terminated benchmark leaves the same way as a finished one
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
