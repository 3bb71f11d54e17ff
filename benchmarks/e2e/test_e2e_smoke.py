"""Smoke test of the e2e benchmark (outside tier-1: ``pytest benchmarks/e2e``).

Two ``--smoke`` invocations must emit every metric ``BENCHMARK.json`` names
for every workload, with counts that repeat exactly; a wrong output must be
counted as a failure and fail the command.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    docs = []
    for side in "ab":
        out = tmp_path_factory.mktemp(f"smoke_{side}")
        assert run.main(["--smoke", "--out", str(out)]) == 0
        docs.append((out, json.loads((out / "result.json").read_text())))
    return docs


def test_every_named_metric_appears_for_every_workload(smoke_results):
    out, doc = smoke_results[0]
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        result = doc["workloads"][workload]
        for key in ("end_to_end", "per_layer"):
            for entry in CONTRACT[key]:
                metric = result[key][entry["name"]]
                assert metric["unit"] == entry["unit"]
                assert isinstance(metric["value"], (int, float))
        assert result["end_to_end"]["failed_share"]["value"] == 0
        assert result["attempted"] > 0
        spans = json.loads((out / f"spans_{workload}.json").read_text())
        names = {span["name"] for span in spans}
        assert {"bench.reference", "graphgen.generate", "lang.parse", "cli.run",
                "columnar.make_engine", "columnar.engine_run", "columnar.gather"} <= names  # fmt: skip
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            assert span["workload"] == workload
            assert 0 <= span["self_s"] <= span["end"] - span["start"] + 1e-9
            if span["parent"] is not None:
                assert by_id[span["parent"]]["start"] <= span["start"]


def test_counts_are_identical_across_two_invocations(smoke_results):
    (_, a), (_, b) = smoke_results
    for workload, result in a["workloads"].items():
        for name, metric in result["per_layer"].items():
            if metric["unit"] in run.EXACT_UNITS:
                assert metric == b["workloads"][workload]["per_layer"][name], (workload, name)


def test_a_wrong_output_is_counted_and_fails_the_command(monkeypatch, tmp_path, capsys):
    real_expected = oracle.expected

    def wrong_expected(algorithm, graph, args, seed):
        want = real_expected(algorithm, graph, args, seed)
        want["outputs"]["dist"][1] += 1
        return want

    monkeypatch.setattr(oracle, "expected", wrong_expected)
    argv = ["--smoke", "--workload", "sssp_twitter", "--trace", "0", "--out", str(tmp_path)]
    assert run.main(argv) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]
