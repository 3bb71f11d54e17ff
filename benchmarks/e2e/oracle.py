"""Independent correctness oracle for the benchmark.

Expected outputs come from ``repro.algorithms.reference`` — textbook
implementations that share no code with the compiler or the engines —
computed once in set-up.  Every run is checked three ways: against the
reference, against the round's ``sim`` run (bit-identical outputs and
``parity_key()``), and, for the CLI, against what it printed.
"""

from __future__ import annotations

import re

from repro.algorithms import reference

TOL = 1e-9
EXPECTED_HALT = "master_halt"
#: values of each output column the CLI prints
CLI_PREVIEW = 8


def engine_seed(algorithm: str, graph, args: dict, seed: int) -> int:
    """The seed passed to ``run(seed=)`` and CLI ``--seed``.

    Only bc_approx draws from it (``G.PickRandom()`` roots).  On the RMAT
    analogue a third of the vertices reach almost nothing, and a root
    among them ends its BFS in two supersteps — with K=4 the work would
    swing tenfold with ``--seed``.  So bc takes the first engine seed at
    or after ``seed`` whose roots all reach at least half the graph."""
    if algorithm != "bc_approx":
        return seed
    reach: dict[int, bool] = {}
    while True:
        roots = reference.bc_roots_for_seed(graph.num_nodes, args["K"], seed)
        for root in roots:
            if root not in reach:
                reach[root] = 2 * _reachable(graph, root) >= graph.num_nodes
        if all(reach[root] for root in roots):
            return seed
        seed += 1


def _reachable(graph, root: int) -> int:
    off, tgt = graph.out_offsets, graph.out_targets
    seen = bytearray(graph.num_nodes)
    seen[root] = 1
    frontier = [root]
    count = 1
    while frontier:
        nxt = []
        for v in frontier:
            for w in tgt[off[v] : off[v + 1]]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        count += len(nxt)
        frontier = nxt
    return count


def expected(algorithm: str, graph, args: dict, seed: int) -> dict:
    """Reference values for one case: ``{"outputs": {...}, "result": ...}``
    (bipartite matching has no unique answer; it is checked by invariant)."""
    if algorithm == "pagerank":
        ranks, _ = reference.pagerank(graph, args["e"], args["d"], args["max_iter"])
        return {"outputs": {"pg_rank": ranks}}
    if algorithm == "sssp":
        return {"outputs": {"dist": reference.sssp(graph, args["root"])}}
    if algorithm == "bc_approx":
        roots = reference.bc_roots_for_seed(graph.num_nodes, args["K"], seed)
        return {"outputs": {"bc": reference.bc_approx(graph, roots)}}
    if algorithm == "avg_teen_cnt":
        counts, avg = reference.avg_teen_cnt(graph, graph.node_props["age"], args["K"])
        return {"outputs": {"teen_cnt": counts}, "result": avg}
    if algorithm == "conductance":
        value = reference.conductance(graph, graph.node_props["member"], args["num"])
        return {"outputs": {}, "result": value}
    if algorithm == "bipartite_matching":
        return {"outputs": {}}
    raise KeyError(f"no reference for algorithm '{algorithm}'")


def _close(a, b) -> bool:
    return a == b or abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check_reference(algorithm: str, graph, want: dict, metrics, outputs: dict) -> str | None:
    """Why this run disagrees with the textbook reference, or None."""
    if metrics.halt_reason != EXPECTED_HALT:
        return f"halt_reason {metrics.halt_reason!r}, expected {EXPECTED_HALT!r}"
    if algorithm == "bipartite_matching":
        is_left, match = graph.node_props["is_left"], outputs["match"]
        if not reference.is_valid_maximal_matching(graph, is_left, match):
            return "match is not a valid maximal matching"
        if metrics.result != reference.matching_size(match, is_left):
            return f"result {metrics.result} is not the matching's size"
        return None
    for name, column in want["outputs"].items():
        got = outputs.get(name)
        if got is None or len(got) != len(column):
            return f"output '{name}' missing or of the wrong length"
        for v, (x, y) in enumerate(zip(got, column)):
            if not _close(x, y):
                return f"output {name}[{v}] = {x!r}, reference {y!r}"
    if "result" in want and not _close(metrics.result, want["result"]):
        return f"result {metrics.result!r}, reference {want['result']!r}"
    return None


def check_parity(sim, metrics, outputs: dict, *, same_workers: bool = True) -> str | None:
    """Why this run is not bit-identical to the round's sim run, or None.
    ``sim`` is that run's ``(metrics, outputs)``.  A run at another worker
    count keeps the outputs and the traffic totals but not the
    cross-worker split."""
    if sim is None:
        return "no sim run in this round to compare with"
    sim_metrics, sim_outputs = sim
    if outputs != sim_outputs:
        return "outputs differ from the sim run"
    want, got = sim_metrics.parity_key(), metrics.parity_key()
    if not same_workers:
        for key in ("net_messages", "net_bytes", "worker_sent"):
            del want[key], got[key]
    if got != want:
        diff = sorted(k for k in want if want[k] != got[k])
        return f"parity_key differs from the sim run in {diff}"
    return None


_SUMMARY_FIELD = re.compile(r"(\w+)=(\S+)")


def parse_cli(output: str) -> dict:
    """The ``metrics:`` summary fields, ``result:`` and output previews the
    CLI printed."""
    parsed: dict = {"summary": {}, "outputs": {}}
    for line in output.splitlines():
        if line.startswith("metrics: "):
            parsed["summary"] = dict(_SUMMARY_FIELD.findall(line))
        elif line.startswith("result: "):
            parsed["result"] = line.split(": ", 1)[1]
        elif line.startswith("output "):
            name, values = line[len("output ") :].split(": ", 1)
            parsed["outputs"][name] = [
                v for v in values.strip("[]").split(", ") if v and v != "..."
            ]
    return parsed


def check_cli(reply: dict, sim) -> str | None:
    """Why this CLI invocation disagrees with the round's sim run, or None."""
    if reply["exit"] != 0:
        return f"exit code {reply['exit']}: {reply['output'][-300:]!r}"
    if sim is None:
        return "no sim run in this round to compare with"
    sim_metrics, sim_outputs = sim
    parsed = parse_cli(reply["output"])
    summary = parsed["summary"]
    for field in ("supersteps", "messages", "net_bytes"):
        if summary.get(field) != str(getattr(sim_metrics, field)):
            return f"summary {field}={summary.get(field)}, sim {getattr(sim_metrics, field)}"
    if summary.get("halt") != EXPECTED_HALT:
        return f"summary halt={summary.get('halt')}"
    if sim_metrics.result is not None:
        if "result" not in parsed or float(parsed["result"]) != float(sim_metrics.result):
            return f"result {parsed.get('result')}, sim {sim_metrics.result}"
    for name, column in sim_outputs.items():
        shown = parsed["outputs"].get(name)
        want = [float(v) for v in column[:CLI_PREVIEW]]
        if shown is None or [float(v) for v in shown] != want:
            return f"output {name} preview {shown}, sim {want}"
    return None


def cli_wall(output: str) -> float:
    """The ``wall=`` the CLI printed: the engine's own superstep time."""
    return float(parse_cli(output)["summary"]["wall"].rstrip("s"))
