"""Ablation — message combiners and cluster-size scaling (extensions).

Two studies on the communication model:

* **Combiners**: the opt-in combiner inference folds reduction-shaped
  messages at the sender (PageRank's partial sums, CC's min-labels).  The
  bench shows the message/byte reduction, that results are preserved, and
  that every backend folds alike: ``columnar`` and ``mp`` meter the
  simulator's messages and net bytes, and ``columnar`` keeps the array code
  of its combiner-free run.  One wall time per run is reported beside.
* **Worker sweep**: network I/O as a function of the simulated cluster size —
  with W workers a random graph sends ~(W-1)/W of its messages across the
  network, the reason the paper measures network I/O at all.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import default_args, render_table
from repro.compiler import compile_algorithm
from repro.graphgen import load_graph
from repro.obs import Tracer, makespan
from repro.pregel.backend.mp import mp_available

from conftest import emit_report


def test_combiner_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _combiner_report(scale, report_dir), rounds=1, iterations=1)


def _combiner_report(scale, report_dir):
    graph = load_graph("twitter", scale)
    backends = ("sim", "columnar", "mp") if mp_available() else ("sim", "columnar")
    rows, walls = [], []
    for name in ("pagerank", "connected_components"):
        compiled = compile_algorithm(name, emit_java=False)
        args = default_args(name, graph)
        runs, wall = {}, {}
        for backend in backends:
            for use_combiners in (False, True):
                t0 = time.perf_counter()
                runs[backend, use_combiners] = compiled.program.run(
                    graph, args, backend=backend, num_workers=4, use_combiners=use_combiners
                )
                wall[backend, use_combiners] = time.perf_counter() - t0
            walls.append([name, backend, f"{wall[backend, False]:.3f}", f"{wall[backend, True]:.3f}"])
        plain, combined = runs["sim", False].metrics, runs["sim", True].metrics
        rows.append(
            [
                name,
                plain.messages,
                combined.messages,
                f"{plain.messages / max(1, combined.messages):.2f}x",
                plain.net_bytes,
                combined.net_bytes,
            ]
        )
        assert combined.messages < plain.messages, name
        for (backend, use_combiners), run in runs.items():
            sim = runs["sim", use_combiners]
            assert run.outputs == sim.outputs, (name, backend, use_combiners)
            traffic = (run.metrics.messages, run.metrics.net_bytes)
            assert traffic == (sim.metrics.messages, sim.metrics.net_bytes), (name, backend)
        vectorized = runs["columnar", True].metrics.vectorized_phases
        assert vectorized == runs["columnar", False].metrics.vectorized_phases != [], name
    table = render_table(
        ["Algorithm", "msgs (plain)", "msgs (combined)", "reduction",
         "net bytes (plain)", "net bytes (combined)"],
        rows,
    )
    wall_table = render_table(["Algorithm", "backend", "wall s (plain)", "wall s (combined)"], walls)
    emit_report(
        report_dir,
        "ablation_combiners",
        "Ablation: sender-side message combining (4 workers; every backend meters the\n"
        "same messages and net bytes)\n" + table
        + "\n\nWall time of one run (informational, not a gate)\n" + wall_table,
    )


def test_worker_sweep_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _worker_sweep_report(scale, report_dir), rounds=1, iterations=1)


def _worker_sweep_report(scale, report_dir):
    graph = load_graph("twitter", scale)
    compiled = compile_algorithm("pagerank", emit_java=False)
    args = default_args("pagerank", graph)
    rows = []
    previous_net = -1
    for workers in (1, 2, 4, 8, 16):
        run = compiled.program.run(graph, args, num_workers=workers)
        frac = run.metrics.net_messages / max(1, run.metrics.messages)
        rows.append(
            [workers, run.metrics.messages, run.metrics.net_messages,
             f"{frac:.3f}", f"{1 - 1 / workers:.3f}"]
        )
        assert run.metrics.net_messages >= previous_net
        previous_net = run.metrics.net_messages
    table = render_table(
        ["Workers", "messages", "cross-worker", "measured frac", "expected (W-1)/W"],
        rows,
    )
    emit_report(
        report_dir,
        "ablation_workers",
        "Network I/O vs simulated cluster size (PageRank, twitter analogue)\n" + table,
    )


@pytest.mark.parametrize("use_combiners", (False, True))
def test_pagerank_combiner_runtime(benchmark, scale, use_combiners):
    graph = load_graph("twitter", scale)
    compiled = compile_algorithm("pagerank", emit_java=False)
    args = default_args("pagerank", graph)
    benchmark.pedantic(
        lambda: compiled.program.run(graph, args, use_combiners=use_combiners),
        rounds=3,
        iterations=1,
    )


def test_load_imbalance_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _load_imbalance_report(scale, report_dir), rounds=1, iterations=1)


def _load_imbalance_report(scale, report_dir):
    """Load imbalance under hash partitioning: the degree skew of the Twitter
    analogue concentrates traffic on the workers owning the hubs, while the
    uniform bipartite graph balances — the phenomenon that makes superstep
    makespan (and hence Figure 6's run times) graph-dependent on a real
    cluster."""
    rows = []
    measured = {}
    for key in ("twitter", "bipartite", "sk-2005"):
        graph = load_graph(key, scale)
        compiled = compile_algorithm("pagerank", emit_java=False)
        tracer = Tracer()
        run = compiled.program.run(
            graph, default_args("pagerank", graph), num_workers=8, tracer=tracer
        )
        imbalance = run.metrics.load_imbalance()
        measured[key] = imbalance
        units, ideal = makespan(tracer.events)
        rows.append([key, run.metrics.messages, f"{imbalance:.2f}x",
                     f"{units / ideal:.2f}x",
                     max(run.metrics.worker_sent), min(run.metrics.worker_sent)])
    table = render_table(
        ["Graph", "messages", "send imbalance", "makespan inflation",
         "busiest worker", "idlest worker"],
        rows,
    )
    emit_report(
        report_dir,
        "ablation_imbalance",
        "Worker load imbalance, PageRank on 8 workers (hash partitioning)\n" + table,
    )
    assert measured["twitter"] > 1.5 * measured["bipartite"]


def test_partitioning_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _partitioning_report(scale, report_dir), rounds=1, iterations=1)


def _partitioning_report(scale, report_dir):
    """Hash vs range partitioning (GPS's own research axis): range placement
    keeps the web crawl's id-local edges inside one worker, cutting network
    I/O; on the RMAT social graph ids carry no locality, so the strategies
    tie."""
    rows = []
    saved = {}
    for key in ("twitter", "sk-2005"):
        graph = load_graph(key, scale)
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = default_args("pagerank", graph)
        by = {}
        for strategy in ("hash", "range"):
            run = compiled.program.run(graph, args, num_workers=8, partitioning=strategy)
            by[strategy] = run.metrics
        rows.append(
            [
                key,
                by["hash"].net_messages,
                by["range"].net_messages,
                f"{by['hash'].net_messages / max(1, by['range'].net_messages):.2f}x",
            ]
        )
        saved[key] = by
    table = render_table(
        ["Graph", "net msgs (hash)", "net msgs (range)", "range saves"],
        rows,
    )
    emit_report(
        report_dir,
        "ablation_partitioning",
        "Hash vs range partitioning, PageRank on 8 workers\n" + table,
    )
    # the web analogue must benefit from range placement far more than RMAT
    web = saved["sk-2005"]
    twitter = saved["twitter"]
    web_gain = web["hash"].net_messages / max(1, web["range"].net_messages)
    twitter_gain = twitter["hash"].net_messages / max(1, twitter["range"].net_messages)
    assert web_gain > 1.5 * twitter_gain
