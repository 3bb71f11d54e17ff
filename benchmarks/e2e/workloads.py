"""The benchmark's workloads, its fixed settings, and its set-up.

Everything here is a constant of the benchmark, not derived from the host,
so two commits are always measured on the same work.  The names must match
``BENCHMARK.json`` (``run.py`` refuses to start otherwise).

Run as a script — ``workloads.py NAME SEED SCALE OUTDIR`` — this file is one
fresh-process *set-up sample*: it prints the seconds a user pays before the
first run (``import repro`` + ``load_graph`` + ``save_edge_list``).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: every backend and the CLI run with two workers, so one ``parity_key()``
#: serves all of them and ``mp`` never oversubscribes a 2-core host.
NUM_WORKERS = 2
SCHEDULING = "frontier"
BACKENDS = ("sim", "columnar", "mp")
#: the backend behind the ``gm-pregel run`` figure
CLI_BACKEND = "columnar"

#: 8 800 nodes: ~125k edges on sk-2005, 105 600 on twitter.  The issue sized
#: these workloads at scale 4 and allowed shrinking them together, never
#: below 10^5 edges, to fit the driver's time cap: at this size a 25 s run
#: holds five to eight timed rounds, which the medians need on a noisy host.
LARGE_SCALE = 2.2
#: the size of the committed ``benchmarks/bench_*.py`` reports
SMALL_SCALE = 0.5
#: ``--smoke`` and the untimed warm-up round
TINY_SCALE = 0.25


@dataclass(frozen=True)
class Workload:
    scale: float
    #: (algorithm, Table 1 graph); a metric on the workload is the sum over
    #: its cases within one round
    cases: tuple[tuple[str, str], ...]


WORKLOADS: dict[str, Workload] = {
    "pagerank_web": Workload(LARGE_SCALE, (("pagerank", "sk-2005"),)),
    "sssp_twitter": Workload(LARGE_SCALE, (("sssp", "twitter"),)),
    "bc_twitter": Workload(LARGE_SCALE, (("bc_approx", "twitter"),)),
    "six_small": Workload(
        SMALL_SCALE,
        (
            ("avg_teen_cnt", "twitter"),
            ("sssp", "twitter"),
            ("bc_approx", "twitter"),
            ("pagerank", "sk-2005"),
            ("conductance", "sk-2005"),
            ("bipartite_matching", "bipartite"),
        ),
    ),
}


def graph_keys(workload: Workload) -> list[str]:
    """The distinct graphs a workload needs, in first-use order."""
    return list(dict.fromkeys(key for _alg, key in workload.cases))


def set_up(workload: Workload, seed: int, scale: float, outdir: Path, spans=None) -> dict:
    """What a user does before the first run: import the package, generate
    each graph (with the standard properties) and write its edge list for
    the CLI.  Nothing is cached, so every call repeats the work."""
    from contextlib import nullcontext

    from repro.graphgen import load_graph, save_edge_list

    def span(name):
        return spans.span(name) if spans is not None else nullcontext()

    graphs = {}
    for key in graph_keys(workload):
        with span("graphgen.generate"):
            graphs[key] = load_graph(key, scale, seed)
        with span("graphgen.save_edge_list"):
            save_edge_list(graphs[key], edge_file(outdir, key))
    return graphs


def edge_file(outdir: Path, graph_key: str) -> Path:
    return outdir / f"{graph_key}.el"


def main(argv: list[str]) -> int:
    name, seed, scale, outdir = argv
    t0 = time.perf_counter()
    set_up(WORKLOADS[name], int(seed), float(scale), Path(outdir))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
