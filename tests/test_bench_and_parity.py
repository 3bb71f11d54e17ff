"""Harness tests and the §5.2 parity claims: generated vs manual programs
must agree on messages, bytes, and (up to the startup phase) timesteps."""

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS
from repro.bench import (
    PAPER_TABLE2,
    count_loc,
    default_args,
    render_check_matrix,
    render_table,
    run_pair,
    table2_rows,
)
from repro.bench.harness import paired_overhead
from repro.compiler import compile_algorithm
from repro.graphgen import load_graph


@pytest.fixture(scope="module")
def twitter():
    return load_graph("twitter", scale=0.2, seed=3)


@pytest.fixture(scope="module")
def bip():
    return load_graph("bipartite", scale=0.2, seed=3)


class TestParity:
    """The paper: 'The compiler-generated programs took the exact same number
    of timesteps and incurred the exact same network I/O as the manually
    coded Pregel programs.'  We reproduce message/byte equality exactly for
    PageRank, SSSP and AvgTeen; the timestep delta is the one-superstep
    initialization phase (documented in EXPERIMENTS.md)."""

    def test_pagerank_messages_and_bytes_equal(self, twitter):
        pair = run_pair("pagerank", twitter, "twitter")
        assert pair.generated.messages == pair.manual.messages
        assert pair.generated.message_bytes == pair.manual.message_bytes

    def test_pagerank_timesteps_within_startup(self, twitter):
        pair = run_pair("pagerank", twitter, "twitter")
        assert 0 <= pair.timestep_delta <= 1

    def test_sssp_messages_and_bytes_equal(self, twitter):
        pair = run_pair("sssp", twitter, "twitter")
        assert pair.generated.messages == pair.manual.messages
        assert pair.generated.message_bytes == pair.manual.message_bytes

    def test_sssp_timesteps_within_startup(self, twitter):
        pair = run_pair("sssp", twitter, "twitter")
        assert 0 <= pair.timestep_delta <= 1

    def test_avg_teen_exact_parity(self, twitter):
        pair = run_pair("avg_teen_cnt", twitter, "twitter")
        assert pair.generated.messages == pair.manual.messages
        assert pair.timestep_delta == 0

    def test_bipartite_same_result(self, bip):
        from repro.algorithms.manual import MANUAL_PROGRAMS
        from repro.compiler import compile_algorithm

        gen = compile_algorithm("bipartite_matching", emit_java=False).program.run(bip)
        man = MANUAL_PROGRAMS["bipartite_matching"].run(bip)
        assert gen.result == man.result

    def test_conductance_overhead_is_the_prologue(self, twitter):
        # generated needs the 2-superstep incoming-neighbors prologue plus the
        # per-edge id broadcast; the manual version avoids it by pushing.
        pair = run_pair("conductance", twitter, "twitter")
        assert pair.timestep_delta == 1
        assert pair.generated.messages > pair.manual.messages

    def test_normalized_runtime_in_paper_band(self, twitter):
        # the paper saw 0.92x..1.35x; interpretation overheads differ here but
        # the generated code must stay in the same performance class.  Each
        # side is its engine's run, the ratio the median of interleaved pairs:
        # a best-of-3 of 20-40 ms runs dipped below 0.5 one run in five.
        args = default_args("pagerank", twitter)
        generated = compile_algorithm("pagerank", emit_java=False).program
        manual = MANUAL_PROGRAMS["pagerank"]
        _manual_s, _generated_s, ratio = paired_overhead(
            lambda: manual.run(twitter, args).metrics.wall_seconds,
            lambda: generated.run(twitter, args).metrics.wall_seconds,
            pairs=15,
        )
        assert 0.5 <= ratio <= 2.5


class TestHarness:
    def test_default_args_known_algorithms(self, twitter):
        assert "max_iter" in default_args("pagerank", twitter)
        assert default_args("bc_approx", twitter) == {"K": 4}

    def test_run_pair_without_manual_baseline(self, twitter):
        pair = run_pair("bc_approx", twitter, "twitter", args={"K": 1})
        assert pair.manual is None
        assert pair.normalized_runtime is None
        assert pair.generated.supersteps > 0

    def test_repeat_takes_best_wall_time(self, twitter):
        pair = run_pair("avg_teen_cnt", twitter, "twitter", repeats=3)
        assert pair.generated.wall_seconds > 0


class TestTable2:
    def test_rows_cover_all_algorithms(self):
        rows = table2_rows()
        assert len(rows) == 6

    def test_green_marl_is_an_order_of_magnitude_smaller(self):
        for row in table2_rows():
            assert row.generated_java >= 5 * row.green_marl, row.algorithm

    def test_our_gm_loc_close_to_paper(self):
        for row in table2_rows():
            assert row.green_marl <= row.paper_green_marl + 5, row.algorithm

    def test_bc_has_no_manual_gps(self):
        assert PAPER_TABLE2["bc_approx"][1] is None

    def test_count_loc_strips_comments(self):
        text = "// comment\n\ncode();\n/* block\nstill block */\nmore();\n"
        assert count_loc(text) == 2


class TestTableRendering:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["xyz", None]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "N/A" in out and "2.500" in out

    def test_check_matrix(self):
        out = render_check_matrix(
            ["Rule A", "Rule B"],
            ["alg1", "alg2"],
            {"alg1": {"Rule A": True}, "alg2": {"Rule B": True}},
        )
        assert "x" in out
        assert "Rule A" in out and "alg2" in out


class TestTable3:
    def test_matrix_matches_expectations(self):
        from repro.algorithms.sources import ALGORITHMS
        from repro.compiler import compile_algorithm

        marks = {
            name: compile_algorithm(name, emit_java=False).rule_row()
            for name in ALGORITHMS
        }
        # universal rows (the paper: "commonly applied to all algorithms")
        for name in ALGORITHMS:
            assert marks[name]["State Machine Const."]
            assert marks[name]["Global Object"]
            assert marks[name]["Message Class Gen."]
            assert marks[name]["State Merging"]
        # per-algorithm signatures
        assert marks["avg_teen_cnt"]["Flipping Edge"]
        assert marks["pagerank"]["Intra-Loop Merge"]
        assert marks["conductance"]["Incoming Neighbors"]
        assert marks["sssp"]["Edge Property"]
        assert marks["sssp"]["Random Access (Seq.)"]
        assert marks["bipartite_matching"]["Random Writing"]
        assert marks["bipartite_matching"]["Multiple Comm."]
        assert marks["bc_approx"]["BFS Traversal"]
        # and the negatives
        assert not marks["avg_teen_cnt"]["BFS Traversal"]
        assert not marks["pagerank"]["Random Writing"]
        assert not marks["sssp"]["Flipping Edge"]
