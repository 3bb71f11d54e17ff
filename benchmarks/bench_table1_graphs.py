"""Table 1 — input graph inventory.

Regenerates the paper's graph table with our scaled analogues, reporting the
structural statistics that matter for Pregel behaviour (degree skew for the
Twitter analogue, locality for the web analogue, two-sidedness for the
bipartite input), and benchmarks graph construction itself.

The last two rows are the Twitter and sk-2005 analogues at 10^6 edges
(84 000 nodes, whatever ``REPRO_BENCH_SCALE`` says): the array-code RMAT
generator and the copying-model loop must each build theirs, properties
included, within :data:`MILLION_EDGE_BUDGETS` on the reference host and
keep the skew (and, for sk-2005, the locality).
"""

from __future__ import annotations

import resource
import time
from dataclasses import replace

import numpy as np  # loaded here so the first row does not time the import
import pytest

from repro.bench import render_table
from repro.graphgen import TABLE1, load_graph, twitter_like, web_like

from conftest import emit_report

#: the fixed large rows: 84 000 nodes at degree 12 — 1 008 000 edges for
#: twitter, 1 207 536 for sk-2005 (the copying model's reciprocal links) —
#: at any scale
MILLION_EDGE_NODES = 84_000
MILLION_EDGE_ROWS = (
    replace(
        TABLE1["twitter"],
        key="twitter-1M",
        build=lambda _scale, seed: twitter_like(MILLION_EDGE_NODES, avg_degree=12, seed=seed),
    ),
    replace(
        TABLE1["sk-2005"],
        key="sk-2005-1M",
        build=lambda _scale, seed: web_like(MILLION_EDGE_NODES, avg_degree=12, seed=seed),
    ),
)
#: (generate s, process peak RSS MB) each large row may take
MILLION_EDGE_BUDGETS = {"twitter-1M": (2.0, 300), "sk-2005-1M": (1.5, 300)}


def _stats(graph):
    degrees = sorted((graph.out_degree(v) for v in graph.nodes()), reverse=True)
    in_degrees = sorted((graph.in_degree(v) for v in graph.nodes()), reverse=True)
    avg = graph.num_edges / max(1, graph.num_nodes)
    return {
        "avg_deg": round(avg, 1),
        "max_out": degrees[0] if degrees else 0,
        "max_in": in_degrees[0] if in_degrees else 0,
    }


def test_table1_report(benchmark, scale, report_dir):
    benchmark.pedantic(lambda: _table1_report(scale, report_dir), rounds=1, iterations=1)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _table1_report(scale, report_dir):
    rows, notes = [], []
    # the large rows are last, so the peak RSS before them is the small
    # graphs'; each graph is checked and dropped before the next is built
    for spec in (*TABLE1.values(), *MILLION_EDGE_ROWS):
        rss_before = _peak_rss_mb()
        start = time.perf_counter()
        graph = spec.load(scale)
        seconds = round(time.perf_counter() - start, 3)
        stats = _stats(graph)
        rows.append(
            [
                spec.key,
                spec.description,
                f"{spec.paper_nodes}/{spec.paper_edges}",
                f"{graph.num_nodes}/{graph.num_edges}",
                stats["avg_deg"],
                stats["max_in"],
                seconds,
            ]
        )
        _assert_shape(spec.key, graph, stats)
        if spec.key in MILLION_EDGE_BUDGETS:
            rss = _peak_rss_mb()
            notes.append(
                f"{spec.key}: generated and given its properties in {seconds} s; process "
                f"peak RSS {rss:.0f} MB ({rss_before:.0f} MB before the row)"
            )
            budget_s, budget_mb = MILLION_EDGE_BUDGETS[spec.key]
            assert graph.num_nodes == MILLION_EDGE_NODES and graph.num_edges >= 10**6
            assert seconds <= budget_s, f"{spec.key} took {seconds} s"
            assert rss <= budget_mb, f"{spec.key} peaked at {rss:.0f} MB"
        del graph
    table = render_table(
        ["Name", "Description", "Paper N/E", "Ours N/E", "avg deg", "max in-deg", "generate s"],
        rows,
    )
    emit_report(report_dir, "table1_graphs", "\n".join(["Table 1 (scaled analogues)", table, *notes]))


def _assert_shape(key, graph, stats):
    """The analogues must reproduce the structural features that matter."""
    # not the small web graph: at 500-1 000 nodes (scales 0.125-0.25) its
    # largest in-degree is under 5x the mean
    if key in ("twitter", "twitter-1M", "sk-2005-1M"):
        assert stats["max_in"] > 5 * stats["avg_deg"], f"{key}: analogue must be skewed"
    if key.startswith("sk-2005"):
        # crawl-order locality: most links stay within the copying window
        sources = np.repeat(np.arange(graph.num_nodes), np.diff(graph.out_offsets))
        gaps = np.abs(sources - np.asarray(graph.out_targets))
        window = max(4, graph.num_nodes // 50)
        assert np.mean(gaps <= window) > 0.5, f"{key}: web analogue must be local"
    if key == "bipartite":
        assert all(graph.node_props["is_left"][a] for a, _ in graph.edges())


@pytest.mark.parametrize("key", list(TABLE1))
def test_generate_graph(benchmark, key, scale):
    benchmark.pedantic(lambda: load_graph(key, scale), rounds=3, iterations=1)
