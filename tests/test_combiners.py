"""Message-combiner extension: inference, engine folding, and equivalence."""

import pytest

from repro.compiler import compile_algorithm
from repro.graphgen import attach_standard_props, uniform_random
from repro.pregel import Graph, PregelEngine
from repro.pregel.globalmap import GlobalOp
from repro.translate.combiner import infer_combiners


@pytest.fixture(scope="module")
def graph():
    g = uniform_random(60, 300, seed=21)
    attach_standard_props(g, seed=22)
    return g


class TestInference:
    def test_pagerank_sum_tag_combinable(self):
        compiled = compile_algorithm("pagerank", emit_java=False)
        combiners = infer_combiners(compiled.ir)
        assert list(combiners.values()) == [GlobalOp.SUM]

    def test_sssp_rejected_multi_statement_receive(self):
        compiled = compile_algorithm("sssp", emit_java=False)
        assert infer_combiners(compiled.ir) == {}

    def test_bipartite_overwrite_rejected(self):
        compiled = compile_algorithm("bipartite_matching", emit_java=False)
        assert infer_combiners(compiled.ir) == {}

    def test_cc_min_tags_combinable(self):
        compiled = compile_algorithm("connected_components", emit_java=False)
        combiners = infer_combiners(compiled.ir)
        assert GlobalOp.MIN in combiners.values()
        # the id-broadcast tag (list building) must not be combinable
        assert len(combiners) < len(compiled.ir.messages)

    def test_avg_teen_rejected_empty_payload(self):
        # empty payload: message *count* is the datum; combining would lose it
        compiled = compile_algorithm("avg_teen_cnt", emit_java=False)
        assert infer_combiners(compiled.ir) == {}


class TestEngineFolding:
    def test_combined_sends_are_folded(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        fns = {0: GlobalOp.SUM}
        got = []

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0 and vid < 2:
                ctx.send(2, (0, vid + 1))
            got.extend(messages)

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        metrics = PregelEngine(g, vertex, master, combiners=fns, num_workers=1).run()
        assert got == [(0, 3)]  # 1 + 2 folded at the sender
        assert metrics.messages == 1

    def test_per_worker_slots(self):
        # senders on different workers cannot share a combiner slot
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        fns = {0: GlobalOp.SUM}
        got = []

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0 and vid < 2:
                ctx.send(2, (0, vid + 1))
            got.extend(messages)

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        metrics = PregelEngine(g, vertex, master, combiners=fns, num_workers=2).run()
        assert sorted(m[1] for m in got) == [1, 2]
        assert metrics.messages == 2

    def test_uncombined_tags_flow_normally(self):
        g = Graph.from_edges(2, [(0, 1)])
        fns = {5: GlobalOp.SUM}
        got = []

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0 and vid == 0:
                ctx.send(1, (0, 10))
                ctx.send(1, (0, 20))
            got.extend(messages)

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        PregelEngine(g, vertex, master, combiners=fns).run()
        assert got == [(0, 10), (0, 20)]


class TestMetering:
    def test_width_changing_combiner_meters_folded_payload(self):
        # regression: bytes used to be metered on the *first* send into a
        # slot; a fold whose payload sizes differently must be metered at
        # flush on the message that actually travels
        g = Graph.from_edges(3, [(0, 2), (1, 2)])

        def vertex(ctx, vid, messages):
            if ctx.superstep == 0 and vid < 2:
                ctx.send(2, (0, vid + 8))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        def size(msg):  # a varint-like payload: 1 tag byte + 1 or 8
            return 2 if msg[1] < 16 else 9

        metrics = PregelEngine(
            g, vertex, master, combiners={0: GlobalOp.SUM}, message_size=size, num_workers=1
        ).run()
        assert metrics.messages == 1
        # the folded (0, 17) is 9 bytes, not the 2 of the first send
        assert metrics.message_bytes == 9

    def test_worker_sent_counts_folded_sends(self):
        # both sends cost the sending worker even though they fold into one
        # delivered message; messages/net_messages stay flush-side
        g = Graph.from_edges(4, [(0, 3), (2, 3)])
        fns = {0: GlobalOp.SUM}

        def vertex(ctx, vid, messages):
            # with 2 workers, vertices 0 and 2 share worker 0; dst 3 is on
            # worker 1, so the folded flush is one cross-worker message
            if ctx.superstep == 0 and vid in (0, 2):
                ctx.send(3, (0, 1))

        def master(ctx):
            if ctx.superstep == 2:
                ctx.halt()

        metrics = PregelEngine(g, vertex, master, combiners=fns, num_workers=2).run()
        assert metrics.worker_sent == [2, 0]
        assert metrics.messages == 1
        assert metrics.net_messages == 1
        assert metrics.load_imbalance() == 2.0


class TestEndToEnd:
    def test_pagerank_same_results_fewer_messages(self, graph):
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = {"e": 1e-10, "d": 0.85, "max_iter": 8}
        plain = compiled.program.run(graph, args)
        combined = compiled.program.run(graph, args, use_combiners=True, num_workers=4)
        # combining changes float summation order: equal up to rounding
        for a, b in zip(plain.outputs["pg_rank"], combined.outputs["pg_rank"]):
            assert abs(a - b) < 1e-12
        assert combined.metrics.messages < plain.metrics.messages

    def test_cc_same_results_with_combining(self, graph):
        compiled = compile_algorithm("connected_components", emit_java=False)
        plain = compiled.program.run(graph)
        combined = compiled.program.run(graph, use_combiners=True)
        assert plain.outputs["comp"] == combined.outputs["comp"]

    def test_combining_respects_worker_count(self, graph):
        compiled = compile_algorithm("pagerank", emit_java=False)
        args = {"e": 1e-10, "d": 0.85, "max_iter": 6}
        few = compiled.program.run(graph, args, use_combiners=True, num_workers=2)
        many = compiled.program.run(graph, args, use_combiners=True, num_workers=16)
        # more workers -> fewer sharing opportunities -> more messages
        assert few.metrics.messages <= many.metrics.messages
        for a, b in zip(few.outputs["pg_rank"], many.outputs["pg_rank"]):
            assert abs(a - b) < 1e-12
