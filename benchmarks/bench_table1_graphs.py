"""Table 1 — input graph inventory.

Regenerates the paper's graph table with our scaled analogues, reporting the
structural statistics that matter for Pregel behaviour (degree skew for the
Twitter analogue, locality for the web analogue, two-sidedness for the
bipartite input), and benchmarks graph construction itself.

The last row is the Twitter analogue at 10^6 edges (84 000 nodes, whatever
``REPRO_BENCH_SCALE`` says): the array-code RMAT generator must build it in
:data:`MILLION_EDGE_BUDGET_S` on the reference host and keep the skew.
"""

from __future__ import annotations

import resource
import time
from dataclasses import replace

import numpy.random  # noqa: F401 - loaded here so the first row does not time the import
import pytest

from repro.bench import render_table
from repro.graphgen import TABLE1, load_graph, twitter_like

from conftest import emit_report

#: the fixed large row: 84 000 nodes x 12 = 1 008 000 edges, at any scale
MILLION_EDGE_NODES = 84_000
MILLION_EDGE_BUDGET_S = 2.0
MILLION_EDGE_RSS_MB = 300
MILLION_EDGE_TWITTER = replace(
    TABLE1["twitter"],
    key="twitter-1M",
    build=lambda _scale, seed: twitter_like(MILLION_EDGE_NODES, avg_degree=12, seed=seed),
)


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
    rows = []
    graphs = {}
    # the large row is last, so the peak RSS before it is the small graphs'
    for spec in (*TABLE1.values(), MILLION_EDGE_TWITTER):
        rss_before = _peak_rss_mb()
        start = time.perf_counter()
        graph = graphs[spec.key] = spec.load(scale)
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
    table = render_table(
        ["Name", "Description", "Paper N/E", "Ours N/E", "avg deg", "max in-deg", "generate s"],
        rows,
    )
    rss = _peak_rss_mb()
    note = (
        f"twitter-1M: generated and given its properties in {seconds} s; process peak RSS "
        f"{rss:.0f} MB ({rss_before:.0f} MB before the row)"
    )
    emit_report(report_dir, "table1_graphs", f"Table 1 (scaled analogues)\n{table}\n{note}")
    # shape assertions: the analogues must reproduce the structural features
    for key in ("twitter", "twitter-1M"):
        twitter = graphs[key]
        assert max(twitter.in_degree(v) for v in twitter.nodes()) > 5 * (
            twitter.num_edges / twitter.num_nodes
        ), f"{key}: twitter analogue must be skewed"
    bip = graphs["bipartite"]
    assert all(bip.node_props["is_left"][a] for a, _ in bip.edges())
    assert graphs["twitter-1M"].num_edges == MILLION_EDGE_NODES * 12
    assert seconds <= MILLION_EDGE_BUDGET_S, f"10^6-edge twitter took {seconds} s"
    assert rss <= MILLION_EDGE_RSS_MB, f"10^6-edge twitter peaked at {rss:.0f} MB"


@pytest.mark.parametrize("key", list(TABLE1))
def test_generate_graph(benchmark, key, scale):
    benchmark.pedantic(lambda: load_graph(key, scale), rounds=3, iterations=1)
