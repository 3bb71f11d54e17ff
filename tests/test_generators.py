"""Workload-generator and graph-I/O tests."""

import math
import random
import threading
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.telemetry import graph_signature
from repro.graphgen import generators
from repro.graphgen import (
    TABLE1,
    applicable_graphs,
    attach_standard_props,
    bipartite,
    load_edge_list,
    load_graph,
    save_edge_list,
    skewed,
    twitter_like,
    uniform_random,
    web_like,
)

from . import scalar_generators as scalar


class TestUniformRandom:
    def test_exact_edge_count(self):
        g = uniform_random(50, 200, seed=1)
        assert g.num_edges == 200

    def test_no_self_loops(self):
        g = uniform_random(30, 100, seed=2)
        assert all(a != b for a, b in g.edges())

    def test_deterministic_by_seed(self):
        a = uniform_random(30, 100, seed=3)
        b = uniform_random(30, 100, seed=3)
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = uniform_random(30, 100, seed=3)
        b = uniform_random(30, 100, seed=4)
        assert list(a.edges()) != list(b.edges())


    @pytest.mark.parametrize("n, m", [(3, 7), (1, 1), (0, 1), (40, 40 * 39 + 1)])
    def test_more_edges_than_pairs_is_refused_not_a_hang(self, n, m):
        # the scalar loop never returned: it waited for an edge that cannot exist
        outcome = []

        def call():
            try:
                uniform_random(n, m)
            except ValueError as exc:
                outcome.append(str(exc))

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "uniform_random is still looping"
        assert outcome and f"at most {max(n, 0) * max(n - 1, 0)} edges" in outcome[0]

    def test_every_pair_is_still_reachable(self):
        assert uniform_random(5, 20, seed=3).num_edges == 20

    @pytest.mark.parametrize(
        "kwargs, name",
        [(dict(num_nodes=-3, num_edges=0), "num_nodes"), (dict(num_nodes=5, num_edges=-1), "num_edges")],
    )
    def test_validation(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            uniform_random(**kwargs)


class TestTwitterLike:
    def test_size_near_target(self):
        g = twitter_like(500, avg_degree=8, seed=1)
        assert g.num_nodes == 500
        assert g.num_edges >= 0.5 * 500 * 8

    def test_degree_skew(self):
        """RMAT must be much more skewed than uniform: compare max degrees."""
        rmat = twitter_like(600, avg_degree=10, seed=1)
        uni = uniform_random(600, rmat.num_edges, seed=1)
        max_rmat = max(rmat.in_degree(v) for v in rmat.nodes())
        max_uni = max(uni.in_degree(v) for v in uni.nodes())
        assert max_rmat > 2 * max_uni

    def test_no_self_loops(self):
        g = twitter_like(200, avg_degree=6, seed=5)
        assert all(a != b for a, b in g.edges())


    def test_unreachable_target_returns_short_silently(self):
        # 5 nodes hold 20 edges, 80 were asked for: the loop gives up after
        # 20 attempts per edge asked for.  Kept — it is part of the replay.
        g = twitter_like(5, avg_degree=16)
        assert 0 < g.num_edges <= 20 < 5 * 16

    @pytest.mark.parametrize(
        "kwargs, name",
        [(dict(num_nodes=-3), "num_nodes"), (dict(num_nodes=10, avg_degree=-1), "avg_degree")],
    )
    def test_validation(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            twitter_like(**kwargs)


class TestWebLike:
    def test_reaches_target_size(self):
        g = web_like(400, avg_degree=8, seed=1)
        assert g.num_edges > 400  # at least one edge per non-root node

    def test_locality(self):
        """Most edges should connect nearby ids (the crawl-order locality)."""
        g = web_like(1000, avg_degree=8, seed=2)
        window = max(4, 1000 // 50)
        local = sum(1 for a, b in g.edges() if abs(a - b) <= window)
        assert local / g.num_edges > 0.5

    def test_deterministic(self):
        a = web_like(200, seed=7)
        b = web_like(200, seed=7)
        assert list(a.edges()) == list(b.edges())

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(num_nodes=-5), "num_nodes"),
            (dict(num_nodes=10, avg_degree=0), "avg_degree"),
            (dict(num_nodes=10, avg_degree=-2), "avg_degree"),
            (dict(num_nodes=10, avg_degree=4, locality=1.5), "locality"),
            (dict(num_nodes=10, avg_degree=4, locality=-0.1), "locality"),
            (dict(num_nodes=10, avg_degree=4, locality=math.nan), "locality"),
        ],
    )
    def test_validation(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            web_like(**kwargs)

    def test_degenerate_sizes_are_valid(self):
        assert web_like(0).num_nodes == 0
        assert web_like(1).num_edges == 0


class TestSkewed:
    def test_hub_has_max_in_degree_by_default(self):
        g = skewed(400, 6, seed=5)
        assert g.in_degree(0) == 399

    def test_custom_hub_degree(self):
        g = skewed(400, 6, seed=5, hub_degree=100)
        assert g.in_degree(0) >= 100

    def test_more_skewed_than_uniform(self):
        n, deg = 500, 8
        sk = skewed(n, deg, seed=3)
        un = uniform_random(n, n * deg, seed=3)
        # Ignore the forced hub; the power-law tail alone should beat uniform.
        sk_max = max(sk.in_degree(v) for v in sk.nodes() if v != 0)
        un_max = max(un.in_degree(v) for v in un.nodes())
        assert sk_max > un_max

    def test_no_self_loops(self):
        g = skewed(300, 6, seed=2)
        assert all(a != b for a, b in g.edges())

    def test_deterministic_by_seed(self):
        assert list(skewed(200, 5, seed=9).edges()) == list(
            skewed(200, 5, seed=9).edges()
        )

    def test_seed_changes_graph(self):
        assert list(skewed(200, 5, seed=1).edges()) != list(
            skewed(200, 5, seed=2).edges()
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_nodes=1),
            dict(num_nodes=100, hub_degree=0),
            dict(num_nodes=100, hub_degree=100),
            dict(num_nodes=100, exponent=1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            skewed(**kwargs)


class TestBipartite:
    def test_edges_run_left_to_right(self):
        g = bipartite(10, 15, num_edges=40, seed=1)
        is_left = g.node_props["is_left"]
        for a, b in g.edges():
            assert is_left[a] and not is_left[b]

    def test_is_left_partition_sizes(self):
        g = bipartite(10, 15, num_edges=20, seed=1)
        assert sum(g.node_props["is_left"]) == 10

    def test_edge_count_capped_by_complete_graph(self):
        g = bipartite(3, 3, num_edges=100, seed=1)
        assert g.num_edges == 9

    @pytest.mark.parametrize(
        "args, name",
        [((-1, 5, 3), "num_left"), ((5, -1, 3), "num_right"), ((5, 5, -1), "num_edges")],
    )
    def test_validation(self, args, name):
        with pytest.raises(ValueError, match=name):
            bipartite(*args)

    def test_an_empty_side_is_valid(self):
        g = bipartite(0, 5, 3)
        assert (g.num_nodes, g.num_edges) == (5, 0)


class TestStandardProps:
    def test_attach(self):
        g = uniform_random(40, 120, seed=1)
        attach_standard_props(g, seed=2)
        assert len(g.node_props["age"]) == 40
        assert len(g.edge_props["len"]) == 120
        assert all(1 <= w <= 15 for w in g.edge_props["len"])
        assert set(g.node_props["member"]) <= {0, 1}


class TestRegistry:
    def test_all_specs_load(self):
        for key in TABLE1:
            g = load_graph(key, scale=0.05)
            assert g.num_nodes > 0 and g.num_edges > 0
            assert "age" in g.node_props and "len" in g.edge_props

    def test_scale_changes_size(self):
        small = load_graph("twitter", scale=0.05)
        larger = load_graph("twitter", scale=0.2)
        assert larger.num_nodes > small.num_nodes

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            load_graph("facebook")

    def test_applicability(self):
        assert applicable_graphs("bipartite_matching") == ["bipartite"]
        assert set(applicable_graphs("pagerank")) == set(TABLE1)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = uniform_random(20, 60, seed=1)
        attach_standard_props(g, seed=2)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.num_nodes == g.num_nodes
        assert sorted(loaded.edges()) == sorted(g.edges())
        assert loaded.node_props["age"] == g.node_props["age"]

    def test_edge_props_round_trip(self, tmp_path):
        g = uniform_random(10, 30, seed=3)
        attach_standard_props(g, seed=4)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        # compare per-pair weights (CSR order may differ)
        def weights(graph):
            return {
                (v, graph.out_targets[p]): graph.edge_props["len"][p]
                for v in graph.nodes()
                for p in graph.out_edge_range(v)
            }

        assert weights(loaded) == weights(g)

    def test_nodes_header_preserves_isolated(self, tmp_path):
        from repro.pregel import Graph

        g = Graph.from_edges(5, [(0, 1)])
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path).num_nodes == 5

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_random(self, tmp_path_factory, seed):
        g = uniform_random(12, 30, seed=seed)
        path = tmp_path_factory.mktemp("io") / "g.txt"
        save_edge_list(g, path)
        assert sorted(load_edge_list(path).edges()) == sorted(g.edges())


def _draws(seed, count, draw):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(count)]


class TestStreamReplaysRandom:
    """``generators._Stream`` against ``random.Random`` on this interpreter."""

    @given(st.integers(), st.integers(0, 300))
    @settings(deadline=None)
    def test_words_and_doubles(self, seed, count):
        stream = generators._Stream(seed)
        assert stream.doubles(count).tolist() == _draws(seed, count, lambda r: r.random())
        stream = generators._Stream(seed)
        assert stream.words(count).tolist() == _draws(seed, count, lambda r: r.getrandbits(32))

    @given(st.integers(), st.integers(1, 2**32 - 1), st.integers(0, 300))
    @settings(deadline=None)
    def test_randbelow_is_randrange(self, seed, n, count):
        got = generators._Stream(seed).randbelow(n, count)
        assert got.dtype == "int64"
        assert got.tolist() == _draws(seed, count, lambda r: r.randrange(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 2**31, 2**32 - 1])
    def test_randbelow_at_bit_length_edges(self, n):
        # a power of two has one bit more than its largest value needs, so
        # half its words are rejected; n == 1 rejects every set top bit
        assert generators._Stream(9).randbelow(n, 500).tolist() == _draws(
            9, 500, lambda r: r.randrange(n)
        )

    @pytest.mark.parametrize("n", [0, -3, 2**32])
    def test_randbelow_outside_one_word(self, n):
        with pytest.raises(ValueError, match="32-bit word"):
            generators._Stream(1).randbelow(n, 1)

    @given(
        st.integers(),
        st.lists(
            st.tuples(st.sampled_from(["random", "below", "bits"]), st.integers(1, 1000), st.integers(0, 40)),
            max_size=12,
        ),
    )
    @settings(deadline=None)
    def test_position_is_carried_across_mixed_draws(self, seed, script):
        stream, rng = generators._Stream(seed), random.Random(seed)
        for kind, n, count in script:
            if kind == "random":
                assert stream.doubles(count).tolist() == [rng.random() for _ in range(count)]
            elif kind == "below":
                assert stream.randbelow(n, count).tolist() == [rng.randrange(n) for _ in range(count)]
            else:
                assert stream.words(count).tolist() == [rng.getrandbits(32) for _ in range(count)]


def _assert_same_graph(got, want):
    assert got.num_nodes == want.num_nodes
    for name in ("out_offsets", "out_targets", "in_offsets", "in_sources", "in_edge_ids"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.node_props == want.node_props
    assert got.edge_props == want.edge_props
    assert graph_signature(got) == graph_signature(want)


def _assert_same_files(got, want, tmp_path, sidecars):
    """``got`` is the graph the oracle's ``want`` becomes with the standard
    properties, and both save to the same files — the .el and every .prop.*
    sidecar, byte for byte — through the live writer and the frozen one."""
    want = scalar.attach_standard_props(want)
    _assert_same_graph(got, want)
    save_edge_list(got, tmp_path / "got.el")
    scalar.save_edge_list(want, tmp_path / "want.el")
    saved = sorted(p.name for p in tmp_path.glob("got.el*"))
    assert saved == ["got.el", *(f"got.el.prop.{name}" for name in sorted(sidecars))]
    for name in saved:
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("got", "want")).read_bytes()


class TestArrayGeneratorsReplayScalar:
    """The array generators build the graphs ``tests/scalar_generators.py``
    builds — the same buffers, not the same distribution."""

    @given(
        st.integers(1, 400),
        st.integers(1, 20),
        st.integers(0, 2**32),
        st.sampled_from([(0.57, 0.19, 0.19), (0.45, 0.15, 0.15), (0.25, 0.25, 0.25), (0.9, 0.2, 0.1)]),
    )
    @settings(deadline=None)
    def test_twitter_like(self, num_nodes, avg_degree, seed, abc):
        a, b, c = abc
        _assert_same_graph(
            twitter_like(num_nodes, avg_degree, seed=seed, a=a, b=b, c=c),
            scalar.twitter_like(num_nodes, avg_degree, seed=seed, a=a, b=b, c=c),
        )

    @given(st.data(), st.integers(0, 2**32))
    @settings(deadline=None)
    def test_uniform_random(self, data, seed):
        n = data.draw(st.integers(0, 48))
        m = data.draw(st.integers(0, max(n, 0) * max(n - 1, 0)))
        _assert_same_graph(uniform_random(n, m, seed=seed), scalar.uniform_random(n, m, seed=seed))

    @given(st.integers(0, 300), st.integers(0, 3000), st.integers(0, 2**32))
    @settings(deadline=None)
    def test_attach_standard_props(self, n, m, seed):
        m = min(m, max(n, 0) * max(n - 1, 0))
        got = attach_standard_props(scalar.uniform_random(n, m, seed=7), seed=seed)
        want = scalar.attach_standard_props(scalar.uniform_random(n, m, seed=7), seed=seed)
        _assert_same_graph(got, want)
        assert {type(v) for col in (*got.node_props.values(), *got.edge_props.values()) for v in col} <= {int}

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("scale", [0.25, 0.5, 2.2])
    def test_registry_twitter_is_the_same_file(self, scale, seed, tmp_path):
        # the sizes the committed reports and benchmarks/e2e load
        want = scalar.twitter_like(max(100, int(4000 * scale)), avg_degree=12, seed=seed)
        _assert_same_files(load_graph("twitter", scale, seed), want, tmp_path, ["age", "member"])

    @pytest.mark.parametrize("n, d", [(1, 1), (1, 9), (2, 1), (2, 5), (5, 16), (3, 0), (0, 4)])
    def test_twitter_like_degenerate_sizes(self, n, d):
        # one node: every attempt is a self-loop; two nodes at d=5 and five
        # at d=16: the target is unreachable and the attempt cap ends the loop
        _assert_same_graph(twitter_like(n, d, seed=4), scalar.twitter_like(n, d, seed=4))

    @pytest.mark.parametrize("block", [7, 64])
    def test_target_reached_at_a_block_boundary(self, block, monkeypatch):
        # count the oracle's attempts per seed and keep the seeds whose last
        # attempt is the last of a block (residue 0) or the first of the next
        calls = [0]

        class Counting(random.Random):
            def random(self):
                calls[0] += 1
                return super().random()

        monkeypatch.setattr(scalar, "random", types.SimpleNamespace(Random=Counting))
        monkeypatch.setattr(generators, "_BLOCK", block)
        n, d = 40, 4  # 212-288 attempts: both sides of 4 * 64
        scale = (n - 1).bit_length()
        seen_residues = set()
        for seed in range(300):
            calls[0] = 0
            want = scalar.twitter_like(n, d, seed=seed)
            residue = calls[0] // scale % block
            if residue in (0, 1) or seed < 20:
                seen_residues.add(residue)
                _assert_same_graph(twitter_like(n, d, seed=seed), want)
        assert {0, 1} <= seen_residues

    @pytest.mark.parametrize("block", [7, 64])
    def test_uniform_random_in_small_blocks(self, block, monkeypatch):
        monkeypatch.setattr(generators, "_BLOCK", block)
        for seed in range(40):
            for n, m in [(12, 60), (12, 132), (64, 65), (9, 7)]:
                _assert_same_graph(uniform_random(n, m, seed=seed), scalar.uniform_random(n, m, seed=seed))

    @pytest.mark.slow
    def test_million_edges(self, request):
        if "slow" not in request.config.getoption("markexpr"):
            pytest.skip("6 s scalar oracle; run with -m slow (CI: bench-telemetry)")
        got = attach_standard_props(twitter_like(84_000, avg_degree=12))
        want = scalar.attach_standard_props(scalar.twitter_like(84_000, avg_degree=12))
        assert got.num_edges == 1_008_000
        _assert_same_graph(got, want)


class TestLoopsReplayScalar:
    """``web_like``, ``bipartite`` and ``skewed`` — tight loops over
    ``random.Random`` — build the graphs their old loops in
    ``tests/scalar_generators.py`` build, buffer for buffer."""

    @given(
        st.integers(0, 400),
        st.integers(1, 20),
        st.integers(0, 2**32),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    )
    @settings(deadline=None)
    def test_web_like(self, num_nodes, avg_degree, seed, locality):
        _assert_same_graph(
            web_like(num_nodes, avg_degree, seed=seed, locality=locality),
            scalar.web_like(num_nodes, avg_degree, seed=seed, locality=locality),
        )

    @given(st.data(), st.integers(0, 60), st.integers(0, 60), st.integers(0, 2**32))
    @settings(deadline=None)
    def test_bipartite(self, data, num_left, num_right, seed):
        # past L * R the target is capped at the complete bipartite graph
        num_edges = data.draw(st.integers(0, num_left * num_right + 20))
        _assert_same_graph(
            bipartite(num_left, num_right, num_edges, seed=seed),
            scalar.bipartite(num_left, num_right, num_edges, seed=seed),
        )

    @given(
        st.data(),
        st.integers(2, 300),
        st.integers(0, 20),
        st.integers(0, 2**32),
        st.floats(1.01, 4.0),
    )
    @settings(deadline=None)
    def test_skewed(self, data, num_nodes, avg_degree, seed, exponent):
        hub_degree = data.draw(st.one_of(st.none(), st.integers(1, num_nodes - 1)))
        kwargs = dict(seed=seed, exponent=exponent, hub_degree=hub_degree)
        _assert_same_graph(
            skewed(num_nodes, avg_degree, **kwargs), scalar.skewed(num_nodes, avg_degree, **kwargs)
        )

    def test_skewed_degree_past_the_last_cumulative_weight(self, monkeypatch):
        # a draw above the last cumulative weight takes the largest degree,
        # as the old scan's default did; random() stays below 1.0, so both
        # generators are handed a stream whose draws reach past it
        class Stretched(random.Random):
            def random(self):
                return super().random() * 1.05

            def getrandbits(self, k):  # keeps randrange on getrandbits
                return super().getrandbits(k)

        for module in (generators, scalar):
            monkeypatch.setattr(module, "random", types.SimpleNamespace(Random=Stretched))
        for exponent in (1.01, 2.1):
            for seed in range(20):
                _assert_same_graph(
                    skewed(60, 4, seed=seed, exponent=exponent),
                    scalar.skewed(60, 4, seed=seed, exponent=exponent),
                )

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("scale", [0.25, 0.5, 2.2])
    @pytest.mark.parametrize("key", ["sk-2005", "bipartite"])
    def test_registry_graph_is_the_same_file(self, key, scale, seed, tmp_path):
        # the sizes the committed reports and benchmarks/e2e load
        if key == "sk-2005":
            want = scalar.web_like(max(100, int(4000 * scale)), avg_degree=12, seed=seed)
            sidecars = ["age", "member"]
        else:
            half = max(50, int(2000 * scale))
            want = scalar.bipartite(half, half, num_edges=half * 12, seed=seed)
            sidecars = ["age", "is_left", "member"]
        _assert_same_files(load_graph(key, scale, seed), want, tmp_path, sidecars)

    @pytest.mark.slow
    @pytest.mark.parametrize("key", ["web_like", "bipartite"])
    def test_million_edges(self, key, request):
        if "slow" not in request.config.getoption("markexpr"):
            pytest.skip("10 s scalar oracle; run with -m slow (CI: bench-telemetry)")
        if key == "web_like":
            args, edges = (84_000, 12), 1_207_536
        else:
            args, edges = (84_000, 84_000, 1_008_000), 1_008_000
        got = getattr(generators, key)(*args)
        assert got.num_edges == edges
        _assert_same_graph(got, getattr(scalar, key)(*args))


class TestWriterReplaysScalar:
    """``save_edge_list`` writes what the frozen column-wise writer in
    ``tests/scalar_generators.py`` writes, byte for byte."""

    EDGES = [(2, 0), (0, 1), (1, 2), (0, 2), (2, 1)]

    @pytest.mark.parametrize(
        "props",
        [
            {},
            {"w": [3, -(2**63), 0, 2**63 - 1, 7]},
            {"w": [0.5, 1.0, -2.25, 1e300, 0.1]},
            {"w": [True, False, True, True, False]},
            {"w": [1, 2.5, 3, -4, 5.0]},
            {"w": [0.5, 1.0, -2.25, 1e300, 0.1], "k": [1, 2, 3, 4, 5], "b": [True] * 5},
        ],
        ids=("no-props", "int", "float", "bool", "mixed", "three"),
    )
    @pytest.mark.parametrize("rows", [2, 1 << 15])
    def test_columns(self, props, rows, tmp_path, monkeypatch):
        from repro.graphgen import io
        from repro.pregel import Graph

        monkeypatch.setattr(io, "_ROWS", rows)  # 2: blocks end mid-node and at its last row
        typed = Graph.from_edges(3, self.EDGES, edge_props=props)
        listed = Graph.from_edges(3, self.EDGES)
        for name, values in typed.edge_props.items():  # the same values as lists
            listed.edge_props[name] = list(values)
        for graph in (typed, listed):
            for kwargs in ({}, {"edge_props": sorted(props)[:1]}):
                save_edge_list(graph, tmp_path / "got.el", **kwargs)
                scalar.save_edge_list(graph, tmp_path / "want.el", **kwargs)
                got = (tmp_path / "got.el").read_bytes()
                assert got == (tmp_path / "want.el").read_bytes()
                assert got.count(b"\n") >= 1 + len(self.EDGES)

    def test_zero_edges_and_node_props(self, tmp_path):
        from repro.pregel import Graph

        for graph in (Graph.from_edges(0, []), Graph.from_edges(4, [])):
            graph.add_node_prop("flag", [True, False, True, False][: graph.num_nodes])
            save_edge_list(graph, tmp_path / "got.el")
            scalar.save_edge_list(graph, tmp_path / "want.el")
            for suffix in ("", ".prop.flag"):
                assert (tmp_path / f"got.el{suffix}").read_bytes() == (tmp_path / f"want.el{suffix}").read_bytes()
