"""Ablation — the value of the §4.2 optimizations.

Not a paper table, but the design-choice study DESIGN.md calls for: how many
timesteps (and how much wall time) State Merging and Intra-Loop State Merging
save, per algorithm.  The paper motivates both with the per-superstep global
barrier cost; here the saving appears directly as the superstep count.
"""

from __future__ import annotations

import pytest

from repro.bench import default_args, render_table
from repro.compiler import compile_algorithm
from repro.graphgen import load_graph

from conftest import bench_scale, emit_report

CONFIGS = {
    "none": dict(state_merging=False, intra_loop_merging=False),
    "state": dict(state_merging=True, intra_loop_merging=False),
    "state+intra": dict(state_merging=True, intra_loop_merging=True),
}

ALGOS = ("avg_teen_cnt", "pagerank", "conductance", "sssp", "bc_approx")


def _run(algorithm: str, config: dict, graph):
    compiled = compile_algorithm(algorithm, emit_java=False, **config)
    args = default_args(algorithm, graph)
    return compiled.program.run(graph, args)


def test_ablation_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _ablation_report(scale, report_dir), rounds=1, iterations=1)


def _ablation_report(scale, report_dir):
    graph = load_graph("twitter", scale)
    rows = []
    saved = {}
    for algorithm in ALGOS:
        entry = [algorithm]
        steps = {}
        for label, config in CONFIGS.items():
            run = _run(algorithm, config, graph)
            steps[label] = run.metrics.supersteps
            entry.append(run.metrics.supersteps)
        rows.append(entry)
        saved[algorithm] = steps
    table = render_table(
        ["Algorithm", "no merging", "state merging", "+ intra-loop"], rows
    )
    emit_report(report_dir, "ablation_merging", "Ablation: timesteps vs §4.2 optimizations\n" + table)
    for algorithm, steps in saved.items():
        assert steps["state"] <= steps["none"]
        assert steps["state+intra"] <= steps["state"]
    # the iterative algorithms must benefit from intra-loop merging
    assert saved["pagerank"]["state+intra"] < saved["pagerank"]["state"]
    assert saved["sssp"]["state+intra"] < saved["sssp"]["state"]
    # and state merging alone must already collapse the init phases
    assert saved["avg_teen_cnt"]["state"] < saved["avg_teen_cnt"]["none"]


@pytest.mark.parametrize("label", list(CONFIGS))
@pytest.mark.parametrize("algorithm", ("pagerank", "sssp"))
def test_ablation_runtime(benchmark, algorithm, label, scale):
    graph = load_graph("twitter", scale)
    config = CONFIGS[label]
    compiled = compile_algorithm(algorithm, emit_java=False, **config)
    args = default_args(algorithm, graph)
    benchmark.pedantic(lambda: compiled.program.run(graph, args), rounds=3, iterations=1)


def test_voting_effect_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _voting_effect_report(scale, report_dir), rounds=1, iterations=1)


def _voting_effect_report(scale, report_dir):
    """Reproduce the §5.2 SSSP observation: the generated program (no
    vote-to-halt) keeps calling compute() on converged vertices, while the
    manual one sleeps them — visible as the tail where <2% of vertices are
    active."""
    from repro.algorithms.manual import MANUAL_PROGRAMS
    from repro.obs import Tracer

    graph = load_graph("twitter", scale)
    # both traced, so the wall times compare like with like
    tracer = Tracer()
    gen = compile_algorithm("sssp", emit_java=False).program.run(
        graph, {"root": 0}, tracer=tracer
    )
    man = MANUAL_PROGRAMS["sssp"].run(graph, {"root": 0}, tracer=Tracer())
    per_step = [e.det["messages"] for e in tracer.events if e.name == "superstep"]
    lines = [
        "SSSP vote-to-halt effect (paper §5.2: generated lacks voteToHalt)",
        f"  generated: supersteps={gen.metrics.supersteps} wall={gen.metrics.wall_seconds:.4f}s",
        f"  manual:    supersteps={man.metrics.supersteps} wall={man.metrics.wall_seconds:.4f}s"
        "  (inactive vertices skipped)",
        f"  per-superstep messages (generated): {per_step}",
    ]
    emit_report(report_dir, "sssp_voting", "\n".join(lines))
