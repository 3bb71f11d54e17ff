"""Execution backends: cross-backend parity matrix + codec + mp smoke.

The contract under test: every backend is observationally identical on
``RunMetrics.parity_key()`` and on program outputs — the dict simulator
(the oracle), the columnar data plane, and the multiprocessing backend
may only differ in wall time, memory, and the ``metrics.backend`` label.
"""

from __future__ import annotations

import functools
import os
import re
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen.registry import load_graph
from repro.obs import Tracer, makespan
from repro.pregel.backend import BACKENDS, BackendUnsupported, get_backend
from repro.pregel.backend.codec import MessageCodec
from repro.pregel.backend.columnar import ColumnarEngine
from repro.pregel.backend.mp import MPEngine, mp_available
from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance
from repro.pregel.net import NetFaultPlan, SimulatedTransport, parse_net_faults
from repro.pregel.runtime import PregelEngine
from repro.pregel.supervisor import Supervisor, SupervisorPlan
from repro.pregelir.ir import INF_VALUE

from .conftest import loop_vertices

ALGORITHMS = (
    "avg_teen_cnt",
    "pagerank",
    "conductance",
    "sssp",
    "bipartite_matching",
    "bc_approx",
)

#: the words ``mp`` refuses a simulated transport in, at construction and
#: in the CLI
MP_TRANSPORT_REFUSAL = (
    "the mp backend does not support the simulated transport: real pipes and "
    "sockets carry the slabs — --transport tcp runs a real network instead "
    "(run with --backend sim or columnar)"
)

needs_mp = pytest.mark.skipif(
    not mp_available(),
    reason="needs fork start-method and multiprocessing.shared_memory",
)


@pytest.fixture(scope="module")
def graph():
    return load_graph("twitter", 0.15)


@pytest.fixture(scope="module")
def programs():
    return {alg: compile_algorithm(alg).program for alg in ALGORITHMS}


def run_on(programs, graph, alg, backend, **opts):
    program = programs[alg]
    return program.run(graph, default_args(alg, graph), backend=backend, **opts)


def run_traced(programs, graph, alg, backend, **opts):
    """A run under a recording tracer: ``(run, (units, ideal))``, the
    makespan its trace projects."""
    tracer = Tracer()
    run = run_on(programs, graph, alg, backend, tracer=tracer, **opts)
    return run, makespan(tracer.events)


#: programs every phase of which runs as array code, on columnar and on mp
ALL_KERNEL = ALGORITHMS


@functools.lru_cache(maxsize=None)
def _matching_graph(num_nodes):
    return load_graph("bipartite", num_nodes / 4000)


def graph_for(alg, graph):
    """The graph a matrix cell runs ``alg`` on: ``graph`` — a twitter one,
    where nothing ``is_left`` — but for bipartite matching the bipartite
    graph of the same size, where it has something to match."""
    return _matching_graph(graph.num_nodes) if alg == "bipartite_matching" else graph


def run_counted(programs, graph, alg, backend, **opts):
    """A run with a registry attached: ``(run, {counter: total})`` over the
    backend's array-code attribution counters (per worker on mp)."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    run = run_on(programs, graph, alg, backend, metrics_registry=registry, **opts)
    snap = registry.snapshot()
    totals = {
        name: sum(row["value"] for row in snap[f"{backend}.{name}"]["series"])
        if f"{backend}.{name}" in snap else 0
        for name in (
            "kernel_vertices", "scalar_vertices", "bulk_records", "scalar_records", "slab_records"
        )
    }
    return run, totals


class RecordingTransport(SimulatedTransport):
    """A simulated transport that also notes every batch the protocol is
    handed, as ``(destination worker, messages)``, in call order."""

    def __init__(self, plan):
        super().__init__(plan)
        self.batches = []

    def route_count(self, worker, total, avg_bytes=0.0):
        self.batches.append((worker, total))
        super().route_count(worker, total, avg_bytes)


def lossy_transport():
    plan = NetFaultPlan(
        drop_rate=0.1, dup_rate=0.05, reorder_rate=0.1, corrupt_rate=0.02,
        jitter_units=1.0, seed=7,
    )  # fmt: skip
    return RecordingTransport(plan)


def in_nbr_rows(graph):
    """The rows the §4.3 prologue must build: each vertex's in-neighbours,
    ascending sender, a sender's parallel edges in edge order."""
    rows = [[] for _ in range(graph.num_nodes)]
    for v in range(graph.num_nodes):
        for t in graph.out_nbrs(v):
            rows[t].append(v)
    return rows


def assert_parity(oracle, other, *, ignore_partition_keys=False):
    key_a = oracle.metrics.parity_key()
    key_b = other.metrics.parity_key()
    if ignore_partition_keys:
        # Cross-worker-count comparison: the per-worker sent split and the
        # cross-worker traffic depend on the partitioning (identically so
        # on the simulator), so only the partition-independent keys and
        # the outputs must match.
        for key in ("worker_sent", "net_messages", "net_bytes"):
            key_a.pop(key)
            key_b.pop(key)
    assert key_a == key_b
    assert oracle.outputs == other.outputs
    assert oracle.result == other.result


class TestColumnarParityMatrix:
    """6 algorithms x {frontier, dense} x {sim, columnar}: bit-identical."""

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("scheduling", ("frontier", "dense"))
    def test_matrix(self, programs, graph, alg, scheduling):
        sim = run_on(programs, graph, alg, "sim", scheduling=scheduling)
        col = run_on(programs, graph, alg, "columnar", scheduling=scheduling)
        assert sim.metrics.backend == "sim"
        assert col.metrics.backend == "columnar"
        assert_parity(sim, col)

    @pytest.mark.parametrize("alg", ("pagerank", "sssp"))
    def test_typed_columns_round_trip_outputs_as_lists(self, programs, graph, alg):
        col = run_on(programs, graph, alg, "columnar")
        for column in col.outputs.values():
            assert isinstance(column, list)

    def test_backend_outside_parity_key(self, programs, graph):
        run = run_on(programs, graph, "pagerank", "columnar")
        assert "backend" not in run.metrics.parity_key()
        assert "backend=columnar" in run.metrics.summary()


class TestColumnarFallbacks:
    """Robustness features keep working on columnar: combiners and the
    tracer on the slab engine, fault tolerance on the simulator's engine
    over the typed columns (``TestColumnarCompositions`` holds the table)."""

    def test_ft_crash_recovery_parity(self, programs, graph):
        plan = FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),))
        sim = run_on(programs, graph, "pagerank", "sim", ft=FaultTolerance(plan))
        plan = FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),))
        col = run_on(programs, graph, "pagerank", "columnar", ft=FaultTolerance(plan))
        assert sim.metrics.faults_injected == col.metrics.faults_injected == 1
        assert_parity(sim, col)

    def test_combiners_parity(self, programs, graph):
        sim = run_on(programs, graph, "sssp", "sim", use_combiners=True)
        col = run_on(programs, graph, "sssp", "columnar", use_combiners=True)
        assert_parity(sim, col)

    def test_tracer_sees_same_superstep_stream(self, programs, graph):
        from repro.obs import Tracer

        traces = {}
        for backend in ("sim", "columnar"):
            tracer = Tracer()
            run_on(programs, graph, "pagerank", backend, tracer=tracer)
            traces[backend] = [
                e.det for e in tracer.events if e.name == "superstep"
            ]
        assert traces["sim"] == traces["columnar"]


class TestColumnarCompositions:
    """One composition table for the slab engine: under a tracer, a lossy
    simulated transport, vote-to-halt, combiners, all of them at once, and
    a crash recovered over the lossy transport, a columnar run is the
    simulator's on outputs, ``parity_key()``, the makespan units, the
    transport's fault counters and ledger, the ft ledger and the
    deterministic trace byte for byte — on every placement."""

    FAULT_COUNTERS = (
        "messages_dropped", "messages_duplicated", "messages_reordered",
        "messages_corrupted", "packets_retransmitted", "net_backoff_units",
    )  # fmt: skip

    @staticmethod
    def compositions():
        from repro.obs import Tracer

        return {
            "tracer": lambda: {"tracer": Tracer()},
            "net": lambda: {"transport": lossy_transport()},
            "voting-frontier": lambda: {"use_voting": True, "scheduling": "frontier"},
            "voting-dense": lambda: {"use_voting": True, "scheduling": "dense"},
            "combiners": lambda: {"use_combiners": True},
            "together": lambda: {
                "tracer": Tracer(), "transport": lossy_transport(),
                "use_combiners": True, "use_voting": True,
            },
            "ft-net": lambda: {
                "ft": FaultTolerance(
                    FaultPlan(checkpoint_every=2, crashes=(CrashEvent(0, 3),))
                ),
                "transport": lossy_transport(),
            },
        }  # fmt: skip

    @classmethod
    def observed(cls, metrics, opts) -> dict:
        """Everything two backends must agree on for one run under ``opts``."""
        from repro.obs.export import deterministic_jsonl

        seen = {
            "parity": metrics.parity_key(),
            "faults": [getattr(metrics, name) for name in cls.FAULT_COUNTERS],
        }
        if "transport" in opts:
            seen["ledger"] = (opts["transport"].stats, opts["transport"].batches)
        if "ft" in opts:
            seen["ft"] = (metrics.faults_injected, metrics.lost_supersteps, metrics.recovery_replay_work)
        if "tracer" in opts:
            events = opts["tracer"].events
            seen["trace"] = deterministic_jsonl(events)
            seen["units"] = makespan(events)
            seen["net.route"] = [
                {k: v for k, v in e.info.items() if k != "route_s"}
                for e in events if e.name == "net.route"
            ]  # fmt: skip
        return seen

    @pytest.fixture(scope="class")
    def small(self):
        # forks aside, as TestPartitionKernels: 100 vertices
        return load_graph("twitter", 0.02)

    @pytest.mark.parametrize(
        "composition",
        ("tracer", "net", "voting-frontier", "voting-dense", "combiners", "together", "ft-net"),
    )
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_matrix(self, programs, small, alg, composition):
        make = self.compositions()[composition]
        small = graph_for(alg, small)
        for partitioning in ("hash", "range"):
            for workers in (1, 2, 3, 5):
                seen = {}
                for backend in ("sim", "columnar"):
                    opts = {"tracer": Tracer(), **make()}  # every cell traced
                    run = run_on(
                        programs, small, alg, backend, num_workers=workers,
                        partitioning=partitioning, **opts,
                    )  # fmt: skip
                    seen[backend] = (self.observed(run.metrics, opts), run.outputs)
                assert seen["sim"] == seen["columnar"], (partitioning, workers)
                if "transport" in opts:
                    assert run.metrics.messages_dropped > 0
                steps = [e.det for e in opts["tracer"].events if e.name == "superstep"]
                # (avg_teen_cnt's one message is empty: zero bytes on the wire)
                assert any(sum(step["worker_bytes"]) for step in steps) or alg == "avg_teen_cnt"
                assert all(sum(step["worker_computed"]) == small.num_nodes for step in steps)
                # what is received is what is delivered
                assert [sum(step["worker_received"]) for step in steps] == [
                    step["messages"] for step in steps
                ]

    #: benchmarks/e2e's workloads: (algorithm, Table 1 graph) cases
    WORKLOADS = {
        "pagerank_web": (("pagerank", "sk-2005"),),
        "sssp_twitter": (("sssp", "twitter"),),
        "bc_twitter": (("bc_approx", "twitter"),),
        "six_small": (
            ("avg_teen_cnt", "twitter"), ("sssp", "twitter"), ("bc_approx", "twitter"),
            ("pagerank", "sk-2005"), ("conductance", "sk-2005"),
            ("bipartite_matching", "bipartite"),
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("feature", ("tracer", "net"))
    def test_observers_cost_no_array_code(self, programs, workload, feature):
        """On the benchmark's workloads (scaled down): what runs as array
        code, and how many records go through handlers, the scalar receive
        loops and the slabs at all, does not depend on who watches."""
        for alg, graph_name in self.WORKLOADS[workload]:
            g = load_graph(graph_name, 0.1)
            plain, counted = run_counted(programs, g, alg, "columnar", num_workers=2)
            col, totals = run_counted(
                programs, g, alg, "columnar", num_workers=2, **self.compositions()[feature]()
            )
            assert col.metrics.vectorized_phases == plain.metrics.vectorized_phases != []
            assert totals == counted
            assert totals["slab_records"] > 0 or alg == "avg_teen_cnt"  # (sends once, last)
            if alg in ALL_KERNEL:
                assert totals["scalar_records"] == totals["scalar_vertices"] == 0
            assert_parity(plain, col)

    # -- a program that votes -------------------------------------------

    @staticmethod
    def gossip(graph, log, label):
        """Hand-written, over bc_approx's wire layout: min-label propagation
        into the ``label`` column on tag 3, every improvement announced on
        tag 0 as well (the tag the combiner cells fold, by sum); a vertex
        logs its inbox verbatim and votes to halt — so the run goes sparse
        and ends ``all_halted``."""

        def vertex(ctx, vid, messages):
            log.append((ctx.superstep, vid, list(messages)))
            best = min([label[vid]] + [m[1] for m in messages if m[0] == 3])
            if ctx.superstep == 0 or best < label[vid]:
                label[vid] = best
                ctx.send_nbrs(vid, (3, best))
                for nbr in graph.out_nbrs(vid):
                    ctx.send(nbr, (0, float(best)))
                dsts = list(graph.out_nbrs(vid))[:2]
                ctx.send_each(dsts, [(3, best)] * len(dsts))
            ctx.vote_to_halt(vid)

        return vertex

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(("frontier", "dense")),
        st.sampled_from(("hash", "range")),
        st.sampled_from((1, 2, 3, 5)),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @example("dense", "hash", 3, True, False, False)
    @example("dense", "hash", 3, True, True, False)
    def test_voting_program(self, scheduling, partitioning, workers, fold, traced, lossy):
        from repro.obs import MetricsRegistry, Tracer
        from repro.pregel.globalmap import GlobalOp

        g = load_graph("twitter", 0.02)
        schema = compile_algorithm("bc_approx").program.schema
        sizes = {tag: schema.message_size(tag) for tag in schema.tags}
        seen, logs, registries, labels = {}, {}, {}, {}
        # the mp cell: a folded tag and a decoded one into each of three
        # workers' dense inbox, the votes folded at the parent's barrier
        mp_cell = workers == 3 and fold and not lossy and mp_available()
        for backend in ("sim", "columnar", "mp") if mp_cell else ("sim", "columnar"):
            logs[backend] = log = []
            labels[backend] = label = array("q", range(g.num_nodes))
            registries[backend] = MetricsRegistry()
            opts = {"tracer": Tracer()} if traced else {}
            if lossy:
                opts["transport"] = lossy_transport()
            if fold:
                opts["combiners"] = {0: GlobalOp.SUM}
            common = dict(
                vertex_compute=self.gossip(g, log, label), num_workers=workers,
                partitioning=partitioning, use_voting=True, scheduling=scheduling,
                message_size=lambda msg: sizes[msg[0]],
                metrics_registry=registries[backend], **opts,
            )  # fmt: skip
            if backend == "sim":
                engine = PregelEngine(g, **common)
            elif backend == "columnar":
                engine = ColumnarEngine(g, schema=schema, **common)
            else:
                engine = MPEngine(g, schema=schema, **common)
                engine._columns = {"label": label}  # gathered back at the end
            seen[backend] = self.observed(engine.run(), opts), list(label)
        assert seen["sim"] == seen["columnar"] == seen.get("mp", seen["sim"])
        assert labels["sim"] != array("q", range(g.num_nodes))
        seen = {backend: observed for backend, (observed, _label) in seen.items()}
        assert seen["sim"]["parity"]["halt_reason"] == "all_halted"
        # tag by tag, as the receive loops read it (a folded tag is a slab
        # like any other, dispatched in tag order)
        for tag in (0, 3):
            by_tag = {
                backend: [(step, vid, [m for m in msgs if m[0] == tag]) for step, vid, msgs in log]
                for backend, log in logs.items()
                if backend != "mp"  # (logged in the worker processes)
            }
            assert by_tag["sim"] == by_tag["columnar"]
        # the counter reads the vertices that computed, not the graph's size
        snap = registries["columnar"].snapshot()
        ran = sum(row["value"] for row in snap["columnar.scalar_vertices"]["series"])
        assert ran == len(logs["columnar"]) < g.num_nodes * seen["sim"]["parity"]["supersteps"]
        if traced:
            steps = [e.det for e in opts["tracer"].events if e.name == "superstep"]
            assert ran == sum(sum(step["worker_computed"]) for step in steps)

    # -- a generated program under votes cast from outside it ------------

    class ForcedVotes:
        """A subscriber that votes every vertex ``v % 10 != superstep`` once
        the master is done at supersteps 2, 3 and 5: a generated program,
        which never votes, then computes only the vertices left awake and
        those its messages wake — a bulk handler's receivers included."""

        def __init__(self, engine):
            self.engine = engine

        def on_master_done(self):
            engine = self.engine
            if engine.superstep in (2, 3, 5):
                for v in range(engine.graph.num_nodes):
                    if v % 10 != engine.superstep:
                        engine.vote_to_halt(v)

    @pytest.mark.parametrize("scheduling", ("frontier", "dense"))
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_forced_votes(self, programs, small, alg, scheduling):
        """Kernels and bulk handlers run under vote-to-halt and compute
        exactly the vertices the scalar loop would: a columnar run is the
        simulator's on outputs, ``parity_key()``, the makespan units and the
        deterministic trace byte for byte."""
        from repro.obs import Tracer
        from repro.obs.export import deterministic_jsonl

        small = graph_for(alg, small)
        program = programs[alg]
        modes = set()
        for workers in (1, 3):
            seen = {}
            for backend in ("sim", "columnar"):
                tracer = Tracer()
                engine, fields, _master = program.make_engine(
                    small, default_args(alg, small), backend=backend, num_workers=workers,
                    use_voting=True, scheduling=scheduling, tracer=tracer,
                )  # fmt: skip
                engine._subscribe(self.ForcedVotes(engine))
                metrics = engine.run()
                outputs = {
                    p.name: list(fields[p.name]) for p in program.ir.params if p.is_output
                }
                seen[backend] = (
                    metrics.parity_key(),
                    makespan(tracer.events),
                    deterministic_jsonl(tracer.events),
                    outputs,
                )
                modes |= {e.info["mode"] for e in tracer.events if e.name == "superstep"}
            assert seen["sim"] == seen["columnar"], workers
            assert metrics.vectorized_phases == [
                f"phase{p}" for p in TestPhaseKernels.EXPECTED[alg]
            ]
        if alg == "bipartite_matching" and scheduling == "frontier":
            assert "sparse" in modes


@needs_mp
class TestMultiprocessingBackend:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_parity_against_sim(self, programs, graph, alg):
        sim = run_on(programs, graph, alg, "sim", num_workers=2)
        mp = run_on(programs, graph, alg, "mp", num_workers=2)
        assert mp.metrics.backend == "mp"
        assert_parity(sim, mp)

    @pytest.mark.parametrize("transport", ("shm", "tcp"))
    @pytest.mark.parametrize("partitioning", ("hash", "range"))
    def test_workers_run_the_forked_engine(self, programs, graph, transport, partitioning):
        # A hand-written program's context in a worker is the engine the
        # worker forked from: a ColumnarEngine, as on columnar.  What it
        # writes into its columns comes back with the end-of-run gather.
        def program(seen, heard):
            def vertex(ctx, vid, messages):
                if isinstance(ctx, ColumnarEngine):
                    seen[vid] += 10**ctx.superstep
                heard[vid] += len(messages)
                ctx.send_nbrs(vid, (0, float(vid)))

            return vertex

        runs = {}
        for backend in ("columnar", "mp"):
            seen, heard = (array("q", [0]) * graph.num_nodes for _ in range(2))
            opts = dict(
                vertex_compute=program(seen, heard), num_workers=3, max_supersteps=3,
                partitioning=partitioning,
            )  # fmt: skip
            schema = programs["pagerank"].schema
            if backend == "columnar":
                engine = ColumnarEngine(graph, schema=schema, **opts)
            else:
                engine = MPEngine(graph, schema=schema, transport_mode=transport, **opts)
                engine._columns = {"seen": seen, "heard": heard}
            runs[backend] = engine.run().parity_key(), list(seen), list(heard)
        assert runs["mp"] == runs["columnar"]
        assert set(runs["mp"][1]) == {111}  # supersteps 0, 1 and 2
        assert sum(runs["mp"][2]) > 0

    @pytest.mark.parametrize("workers", (1, 3))
    def test_worker_count_invariance(self, programs, graph, workers):
        base = run_on(programs, graph, "sssp", "sim", num_workers=4)
        mp = run_on(programs, graph, "sssp", "mp", num_workers=workers)
        assert_parity(base, mp, ignore_partition_keys=True)
        assert sum(mp.metrics.worker_sent) == sum(base.metrics.worker_sent)
        # and at equal worker counts the cross-worker traffic matches too
        same_w = run_on(programs, graph, "sssp", "mp", num_workers=4)
        assert_parity(base, same_w)

    def test_unsupported_compositions_refuse_cleanly(self, programs, graph):
        # The engine refuses at construction, before the feature object is
        # ever touched, so a sentinel stands in for the real manager.
        # The simulated transport is the only refusal left: real pipes and
        # sockets carry the slabs (``--transport tcp`` for the latter).
        with pytest.raises(BackendUnsupported, match="does not support"):
            run_on(
                programs, graph, "pagerank", "mp", num_workers=2,
                transport=object(),
            )


class TestRegistry:
    def test_known_backends(self):
        # a backend is its engine class
        assert BACKENDS == ("sim", "columnar", "mp")
        engines = (PregelEngine, ColumnarEngine, MPEngine)
        assert tuple(get_backend(name) for name in BACKENDS) == engines

    def test_selecting_sim_loads_no_array_engine(self):
        from .test_graph import _loaded_after, _under

        loaded = _loaded_after(
            "import repro.cli\nfrom repro.pregel.backend import get_backend\nget_backend('sim')"
        )
        assert "repro.pregel.runtime" in loaded
        assert not _under(
            loaded,
            "repro.pregel.backend.columnar", "repro.pregel.backend.mp",
            "repro.pregel.backend.codec", "repro.codegen.vectorize",
        )  # fmt: skip

    def test_unknown_name_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")


class TestMessageCodec:
    def roundtrip(self, alg, messages):
        schema = compile_algorithm(alg).program.schema
        codec = MessageCodec(schema)
        by_tag = {}
        for msg in messages:
            by_tag.setdefault(msg[0], []).append(msg)
        for tag, msgs in by_tag.items():
            blob = b"".join(codec.pack[tag](m) for m in msgs)
            assert len(blob) == codec.sizes[tag] * len(msgs)
            assert codec.unpack[tag](blob, len(msgs)) == msgs
        return codec

    def test_pagerank_doubles(self):
        codec = self.roundtrip("pagerank", [(0, 0.125), (0, 1e-300)])
        assert codec.sizes[0] == 8  # untagged [Double]

    def test_sssp_int_with_inf_sentinel(self):
        codec = self.roundtrip("sssp", [(0, 7), (0, INF_VALUE), (0, 0)])
        assert codec.sizes[0] == 4  # untagged [Int], INF via sentinel
        # escalated double columns send exact ints back
        schema = compile_algorithm("sssp").program.schema
        c2 = MessageCodec(schema)
        assert c2.unpack[0](c2.pack[0]((0, 5.0)), 1) == [(0, 5)]

    def test_avg_teen_empty_payload(self):
        self.roundtrip("avg_teen_cnt", [(0,), (0,), (0,)])

    def test_tagged_records_lead_with_tag_byte(self):
        codec = self.roundtrip(
            "bipartite_matching", [(1, 3), (1, 9), (2, 4)]
        )
        assert all(size == 5 for size in codec.sizes.values())  # B + i


class TestSlabCodec:
    """The slab *part* — ``(dsts, senders, payload, count)`` — has one
    owner, ``backend/codec.py``: its byte layout, the split by receiving
    worker and the by-receiver decode are each written once there and
    held here to what the copies they replaced did."""

    #: (algorithm, tag, message maker): a double, an empty layout, a
    #: tagged int record
    LAYOUTS = (
        ("pagerank", 0, lambda rng: (0, rng.random())),
        ("avg_teen_cnt", 0, lambda rng: (0,)),
        ("bipartite_matching", 1, lambda rng: (1, rng.randrange(1 << 20))),
    )

    @staticmethod
    def codec(alg):
        return MessageCodec(compile_algorithm(alg).program.schema)

    @staticmethod
    def make_part(codec, tag, make, rng, count, senders=None):
        import numpy as np

        msgs = [make(rng) for _ in range(count)]
        if senders is None:
            senders = sorted(rng.randrange(500) for _ in range(count))
        part = (
            np.array([rng.randrange(40) for _ in range(count)], dtype=np.int32),
            np.array(senders, dtype=np.int32),
            b"".join(codec.pack[tag](m) for m in msgs),
            count,
        )
        return part, msgs

    @staticmethod
    def same_part(a, b):
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()
        assert bytes(a[2]) == bytes(b[2]) and a[3] == b[3]

    def test_part_round_trips_through_every_container(self):
        import random

        import numpy as np

        from repro.pregel.backend import tcp
        from repro.pregel.backend.codec import read_part, write_part

        rng = random.Random(17)
        for alg, tag, make in self.LAYOUTS:
            codec = self.codec(alg)
            for count in (0, 1, 9):
                part, _msgs = self.make_part(codec, tag, make, rng, count)
                size = count * (8 + codec.sizes[tag])
                # a stretch of a shared-memory segment, written in place
                segment = bytearray(b"\xff" * (size + 48))
                write_part(np.frombuffer(segment, dtype=np.uint8)[24 : 24 + size], part)
                assert segment[:24] == segment[24 + size :] == b"\xff" * 24
                self.same_part(part, read_part(memoryview(segment)[24 : 24 + size], count))
                # the inline overflow body
                body = bytes(segment[24 : 24 + size])
                self.same_part(part, read_part(body, count))
                # a tcp frame body
                wire = bytearray(tcp.pack_frame(1, 0, 0, tcp._KIND_DATA, tag, count, body))
                ((ok, *_head, got_count, got_body),) = tcp.parse_frames(wire)
                assert ok
                self.same_part(part, read_part(got_body, got_count))

    def test_body_shorter_than_its_count_is_rejected(self):
        from repro.pregel.backend.codec import read_part

        with pytest.raises(ValueError, match="5 records needs 40 bytes.*has 39"):
            read_part(b"\0" * 39, 5)
        with pytest.raises(ValueError):
            read_part(b"", -1)
        assert read_part(b"\0" * 40, 5)[2] == b""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(0, 99), min_size=1, max_size=60),
        st.integers(1, 5),
        st.sampled_from((0, 4)),
    )
    def test_owner_split_is_stable_and_lossless(self, dsts, workers, size):
        import numpy as np

        from repro.pregel.backend.codec import split_by_owner

        count = len(dsts)
        dsts = np.array(dsts, dtype=np.int32)
        senders = np.arange(count, dtype=np.int32) // 3  # ascending runs
        # record k's payload is k: the identity the split must carry along
        payload = bytearray(np.arange(count, dtype="<i4").tobytes()) if size else bytearray()
        owners = (dsts % workers).astype(np.uint8)
        parts = split_by_owner(dsts, senders, payload, owners, workers)
        assert len(parts) == workers
        seen = []
        for w, part in enumerate(parts):
            want = [k for k in range(count) if owners[k] == w]
            if not want:
                assert part is None
                continue
            got_dsts, got_senders, got_payload, got_count = part
            assert got_count == len(want)
            # the owner's records, in input order
            assert got_dsts.tolist() == dsts[want].tolist()
            assert got_senders.tolist() == senders[want].tolist()
            if size:
                assert np.frombuffer(got_payload, dtype="<i4").tolist() == want
            else:
                assert len(got_payload) == 0
            seen += want
        assert sorted(seen) == list(range(count))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 14),
        st.integers(1, 5),
        st.sampled_from(("hash", "range")),
        st.sampled_from((0, 1, 8, 17)),
        st.randoms(use_true_random=False),
    )
    def test_a_dense_send_writes_what_split_by_owner_cuts(
        self, n, workers, partitioning, size, rng
    ):
        # A send along all of a partition's rows writes each part from the
        # split its gather cached, the records taken straight from the
        # sealed payload: the bytes split_by_owner + write_part put there.
        # Record k is a per-edge payload — the record of the edge at CSR
        # position edge_ids[k].
        import numpy as np

        from repro.pregel.backend.codec import split_by_owner, write_part
        from repro.pregel.backend.columnar import NbrGather
        from repro.pregel.graph import Graph

        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(4 * n + 1))]
        graph = Graph.from_edges(n, edges)
        if partitioning == "hash":
            placed = [v % workers for v in range(n)]
        else:  # the engines' range placement
            placed = [min(v * workers // max(1, n), workers - 1) for v in range(n)]
        csr = NbrGather.of_graph(graph, bytes(placed))
        of_edge = np.frombuffer(
            bytes(rng.randrange(256) for _ in range(size * graph.num_edges)), f"V{max(size, 1)}"
        )
        for wid in range(workers):
            gather = NbrGather.of_partition(csr, wid, workers)
            # the partition's rows at global vids, every other row empty
            positions = [p for v in range(n) if placed[v] == wid for p in graph.out_edge_range(v)]
            assert gather.edge_ids.tolist() == positions
            assert gather.targets.tolist() == [graph.out_targets[p] for p in positions]
            assert gather.degrees.tolist() == [
                graph.out_degree(v) if placed[v] == wid else 0 for v in range(n)
            ]
            if not positions:
                continue  # a send with no record seals nothing
            # the sealed tag: per-edge records, ascending sender, stored order
            senders = np.repeat(gather.with_nbrs.astype(np.int32), gather.degrees[gather.with_nbrs])
            payload = bytearray(of_edge[gather.edge_ids].tobytes() if size else b"")
            owners = csr.owner[gather.targets]
            want = split_by_owner(gather.targets, senders, payload, owners, workers)
            assert len(gather.owner_split) == workers
            for cut, part in zip(gather.owner_split, want):
                assert (cut is None) == (part is None)
                if part is None:
                    continue
                got, ref = np.zeros((2, part[3] * (8 + size)), np.uint8)
                write_part(got, (cut[0], cut[1], payload, len(cut[2])), cut[2])
                write_part(ref, part)
                assert got.tobytes() == ref.tobytes()

    def test_by_receiver_equals_append_per_message(self):
        import random

        rng = random.Random(23)
        for alg, tag, make in self.LAYOUTS:
            codec = self.codec(alg)
            for sources in (1, 2, 3, 5):
                for _round in range(8):
                    parts, sent = [], []
                    for source in range(sources):
                        count = rng.randrange(0, 30)
                        if sources > 1 and not count:
                            continue  # no worker writes an empty part
                        # one vertex belongs to one worker: sender ids of
                        # different sources never collide
                        senders = sorted(
                            rng.randrange(100) * sources + source for _ in range(count)
                        )
                        part, msgs = self.make_part(codec, tag, make, rng, count, senders)
                        parts.append(part)
                        sent += zip(senders, part[0].tolist(), msgs)
                    # the reference: the simulator appends each message to
                    # its receiver's list in global send order — ascending
                    # sender, a sender's own in the order it sent them
                    want: dict = {}
                    for _sender, dst, msg in sorted(sent, key=lambda r: r[0]):
                        want.setdefault(dst, []).append(msg)
                    got = list(codec.by_receiver(tag, parts)) if parts else []
                    assert [dst for dst, _msgs in got] == sorted(want)
                    assert dict(got) == want


class TestSlabPlane:
    """The slab plane — the one stage / seal / meter / dispatch that
    ``ColumnarEngine`` and every ``mp`` worker run — driven directly, with
    a stand-in host, and held to the simulator: what it seals is what an
    append-per-message staging would hold, and what it meters is what
    ``PregelEngine.send`` meters message by message — per worker, in
    bytes and in messages received, as a recording tracer reads them
    (``_trace_compute``, ``_in_flight_totals``).  The simulator's own
    block sends are held to that per-message path on the same scripts."""

    #: a script's one-block calls, by kind: what each sends to which
    #: destinations.  ``send_each`` is one payload for every destination,
    #: ``send_rows`` a per-vertex ``send_nbrs_rows`` along its own row.
    KINDS = ("send", "send_nbrs", "send_each", "send_rows")

    @staticmethod
    def call(target, kind, sender, arg, msg) -> None:
        """Make ``kind`` of the script on ``target`` (an engine or a plane)."""
        if kind == "send_each":
            target.send_each(arg, [msg] * len(arg))
        elif kind == "send_rows":
            target.send_nbrs_rows((sender,), (msg,), {sender: arg})
        else:
            getattr(target, kind)(arg, msg)

    @staticmethod
    def destinations(graph, kind, sender, arg) -> list:
        """The destinations ``kind`` of the script sends to, in order."""
        if kind == "send":
            return [arg]
        return list(graph.out_nbrs(sender)) if kind == "send_nbrs" else arg

    @staticmethod
    def plane_received(gather, workers, sealed) -> list:
        """What ``columnar`` reads as each worker's received messages from
        ``sealed`` stages (``ColumnarEngine._in_flight_totals``)."""
        from types import SimpleNamespace

        host = SimpleNamespace(_csr=gather, num_workers=workers)
        parts = {one.tag: [(one.dsts, None, one.payload, len(one.dsts))] for one in sealed}
        return ColumnarEngine._in_flight_totals(host, parts)

    @staticmethod
    def make_msg(schema, tag, rng):
        return (
            tag,
            *(rng.random() if slot.code == "d" else rng.randrange(1 << 20)
              for slot in schema.tags[tag].slots),
        )  # fmt: skip

    @classmethod
    def script(cls, graph, schema, rng):
        """Per tag, ascending senders; a sender makes a few scalar sends,
        or belongs to the tag's one bulk send (a window of vertex ids, a
        random subset sending: those with neighbours along their rows, or
        any, each to a vertex of its own — NIL at times).  The tags' ops
        are merged by first sender, as one scan of the vertices would
        interleave them."""
        n = graph.num_nodes
        ops = []
        for tag in sorted(schema.tags):
            vid, bulk_left = 0, rng.random() < 0.7
            while vid < n:
                roll = rng.random()
                if bulk_left and roll < 0.15:
                    end = min(n, vid + rng.randrange(1, 8))
                    to = rng.random() < 0.5
                    senders = [
                        v for v in range(vid, end)
                        if (to or graph.out_degree(v)) and rng.random() < 0.8
                    ]  # fmt: skip
                    if senders:
                        bulk_left = False
                        msgs = [cls.make_msg(schema, tag, rng) for _ in senders]
                        if to:
                            senders = (senders, [rng.randrange(-1, n) for _ in senders])
                        ops.append((vid, tag, "bulk_to" if to else "bulk", senders, msgs))
                    vid = end
                    continue
                if roll < 0.6:
                    for _ in range(rng.randrange(1, 4)):
                        kind = rng.choice(cls.KINDS)
                        dsts = [rng.randrange(n) for _ in range(rng.randrange(0, 4))]
                        arg = {"send": rng.randrange(n), "send_nbrs": vid}.get(kind, dsts)
                        ops.append((vid, tag, kind, arg, cls.make_msg(schema, tag, rng)))
                vid += 1
        ops.sort(key=lambda op: op[0])
        return ops

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("bc_approx", "avg_teen_cnt", "connected_components")),
        st.integers(2, 24),
        st.sampled_from((1, 2, 3, 5)),
        st.sampled_from(("hash", "range")),
        st.sampled_from((None, "SUM", "MIN", "MAX")),
        st.randoms(use_true_random=False),
    )
    def test_seal_and_metering_equal_the_simulators(
        self, alg, n, workers, partitioning, fold, rng
    ):
        import numpy as np
        from types import SimpleNamespace

        from repro.pregel.backend.columnar import NbrGather, SlabPlane
        from repro.pregel.globalmap import GlobalOp
        from repro.pregel.graph import Graph
        from repro.pregel.runtime import PregelEngine, RunMetrics

        schema = compile_algorithm(alg).program.schema
        codec = MessageCodec(schema)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 3 * n))]
        graph = Graph.from_edges(n, edges)
        # one tag of a single slot folded by ``fold``, if the layout has one
        foldable = [tag for tag in codec.tag_ids if len(schema.tags[tag].slots) == 1]
        combiners = {}
        if fold is not None and foldable:
            combiners = {rng.choice(foldable): GlobalOp[fold]}
        # the reference: the simulator's own send, one message at a time
        sim = PregelEngine(
            graph, None, num_workers=workers, partitioning=partitioning,
            message_size=lambda msg: codec.sizes[msg[0]], combiners=combiners,
        )  # fmt: skip
        want = {tag: ([], [], bytearray()) for tag in codec.tag_ids}
        births = {}  # a combiner slot's first sender
        sim._trace_compute()  # ... with the tracer's counters

        def reference(sender, dst, msg):
            sim._current_vertex = sender
            sim.send(dst, msg)
            if msg[0] in combiners:
                births.setdefault((sim._worker_of[sender], dst, msg[0]), sender)
                return
            dsts, senders, payload = want[msg[0]]
            dsts.append(dst)
            senders.append(sender)
            payload += codec.pack[msg[0]](msg)

        host = SimpleNamespace(
            _current_vertex=-1, _ft_replaying=False, graph=graph, _bulk_receivers={},
            _combiners=combiners,
        )  # fmt: skip
        gather = NbrGather.of_graph(graph, sim._worker_of)
        plane = SlabPlane(codec, gather, host)
        for sender, tag, kind, arg, msg in self.script(graph, schema, rng):
            if kind == "bulk_to":
                senders, dsts = arg
                records = None
                if codec.sizes[tag]:
                    packed = b"".join(codec.pack[tag](m) for m in msg)
                    records = np.frombuffer(packed, dtype=f"V{codec.sizes[tag]}")
                plane.send_to_bulk(tag, np.asarray(senders), np.asarray(dsts), records)
                for v, dst, m in zip(senders, dsts, msg):
                    reference(v, dst, m)
                continue
            if kind == "bulk":
                senders = np.asarray(arg)
                edge_ids, counts = gather.out_edges(senders)
                records = None
                if codec.sizes[tag]:
                    packed = b"".join(
                        codec.pack[tag](m) * c for m, c in zip(msg, counts.tolist())
                    )
                    records = np.frombuffer(packed, dtype=f"V{codec.sizes[tag]}")
                plane.send_nbrs_bulk(tag, gather, senders, edge_ids, counts, records)
                for v, m in zip(arg, msg):
                    for dst in graph.out_nbrs(v):
                        reference(v, dst, m)
                continue
            host._current_vertex = sender
            self.call(plane, kind, sender, arg, msg)
            host._current_vertex = -1
            for dst in self.destinations(graph, kind, sender, arg):
                reference(sender, dst, msg)

        # the simulator's combiner table, slot by slot in the order they
        # opened, then its flush, which meters the folded messages
        for (worker, dst, tag), msg in sim._combined.items():
            dsts, senders, payload = want[tag]
            dsts.append(dst)
            senders.append(births[worker, dst, tag])
            payload += codec.pack[tag](msg)
        sim._flush_combined()
        metrics = RunMetrics(worker_sent=[0] * workers)
        staged_bytes = [0] * workers
        sealed = {one.tag: one for one in plane.seal()}
        assert sorted(sealed) == [tag for tag in codec.tag_ids if want[tag][0]]
        for tag, one in sealed.items():
            dsts, senders, payload = want[tag]
            assert one.dsts.tolist() == dsts
            assert one.record_senders().tolist() == senders
            assert bytes(one.payload) == bytes(payload)
            plane.meter_workers(metrics, one, staged_bytes)
        assert not list(plane.seal())  # the seal left every stage empty
        for name in ("messages", "message_bytes", "net_messages", "net_bytes", "worker_sent"):
            assert getattr(metrics, name) == getattr(sim.metrics, name), name
        assert staged_bytes == sim._trace_worker_bytes
        received = self.plane_received(gather, workers, sealed.values())
        assert received == sim._in_flight_totals()
        assert sum(received) == metrics.messages

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("bc_approx", "avg_teen_cnt", "connected_components")),
        st.integers(2, 24),
        st.sampled_from((1, 2, 3, 5)),
        st.sampled_from(("hash", "range")),
        st.sampled_from((None, "SUM", "MIN", "MAX")),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_a_block_send_is_its_sends(self, alg, n, workers, partitioning, fold, traced, rng):
        # the simulator's send_nbrs / send_nbrs_rows / send_each stage and
        # meter a block in one pass: held to one PregelEngine.send per
        # destination (send_nbrs meters from its cross-worker table)
        from repro.pregel.globalmap import GlobalOp
        from repro.pregel.graph import Graph

        schema = compile_algorithm(alg).program.schema
        codec = MessageCodec(schema)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 3 * n))]
        graph = Graph.from_edges(n, edges)
        foldable = [tag for tag in codec.tag_ids if len(schema.tags[tag].slots) == 1]
        combiners = {}
        if fold is not None and foldable:
            combiners = {rng.choice(foldable): GlobalOp[fold]}

        def engine():
            one = PregelEngine(
                graph, None, num_workers=workers, partitioning=partitioning,
                message_size=lambda msg: codec.sizes[msg[0]], combiners=combiners,
                ft=FaultTolerance(FaultPlan()),
            )  # fmt: skip
            if traced:
                one._trace_compute()  # the tracer's counters
            return one

        block, each = engine(), engine()
        for sender, _tag, kind, arg, msg in self.script(graph, schema, rng):
            if kind == "bulk_to":  # the plane's bulk ops, as the simulator's calls
                calls = [(v, "send", dst, m) for v, dst, m in zip(*arg, msg)]
            elif kind == "bulk":
                calls = [(v, "send_nbrs", v, m) for v, m in zip(arg, msg)]
            else:
                calls = [(sender, kind, arg, msg)]
            for vid, api, to, m in calls:
                block._current_vertex = each._current_vertex = vid
                self.call(block, api, vid, to, m)
                for dst in self.destinations(graph, api, vid, to):
                    each.send(dst, m)
        for flush in (False, True):
            if flush:  # the folded slots, metered at the barrier
                block._flush_combined()
                each._flush_combined()
            assert list(block._outbox.items()) == list(each._outbox.items())
            assert list(block._combined.items()) == list(each._combined.items())
            for name in ("messages", "message_bytes", "net_messages", "net_bytes", "worker_sent"):
                assert getattr(block.metrics, name) == getattr(each.metrics, name), name
            assert block._trace_worker_bytes == each._trace_worker_bytes
            assert block._in_flight_totals() == each._in_flight_totals()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("bc_approx", "sssp", "connected_components")),
        st.integers(2, 24),
        st.sampled_from((1, 2, 3, 5)),
        st.sampled_from(("hash", "range")),
        st.sampled_from((None, "SUM", "MIN", "MAX")),
        st.randoms(use_true_random=False),
    )
    def test_an_edge_block_is_its_sends(self, alg, n, workers, partitioning, fold, rng):
        # send_each — one payload per destination, as a generated per-edge
        # send makes — held to one send per destination: the simulator's
        # buckets and ledger, and the plane's sealed records and metering
        from types import SimpleNamespace

        from repro.pregel.backend.columnar import NbrGather, SlabPlane
        from repro.pregel.globalmap import GlobalOp
        from repro.pregel.graph import Graph
        from repro.pregel.runtime import RunMetrics

        schema = compile_algorithm(alg).program.schema
        codec = MessageCodec(schema)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 3 * n))]
        graph = Graph.from_edges(n, edges)
        foldable = [tag for tag in codec.tag_ids if len(schema.tags[tag].slots) == 1]
        combiners = {}
        if fold is not None and foldable:
            combiners = {rng.choice(foldable): GlobalOp[fold]}
        # ascending senders, each a few blocks of one tag: along its out-CSR
        # slice, or to any vertices (repeats and empty blocks included)
        script = []
        for vid in range(n):
            for _ in range(rng.randrange(0, 3)):
                tag = rng.choice(codec.tag_ids)
                if rng.random() < 0.5:
                    offsets = graph.out_offsets
                    dsts = graph.out_targets[offsets[vid] : offsets[vid + 1]]
                else:
                    dsts = [rng.randrange(n) for _ in range(rng.randrange(0, 5))]
                script.append((vid, dsts, [self.make_msg(schema, tag, rng) for _ in dsts]))

        def engine():
            one = PregelEngine(
                graph, None, num_workers=workers, partitioning=partitioning,
                message_size=lambda msg: codec.sizes[msg[0]], combiners=combiners,
                ft=FaultTolerance(FaultPlan()),
            )  # fmt: skip
            one._trace_compute()  # the tracer's counters
            return one

        block, each = engine(), engine()
        gather = NbrGather.of_graph(graph, block._worker_of)
        hosts = [
            SimpleNamespace(
                _current_vertex=-1, _ft_replaying=False, graph=graph, _bulk_receivers={},
                _combiners=combiners,
            )  # fmt: skip
            for _ in range(2)
        ]
        planes = [SlabPlane(codec, gather, host) for host in hosts]
        for vid, dsts, msgs in script:
            block._current_vertex = each._current_vertex = vid
            hosts[0]._current_vertex = hosts[1]._current_vertex = vid
            block.send_each(dsts, msgs)
            planes[0].send_each(dsts, msgs)
            for dst, msg in zip(dsts, msgs):
                each.send(dst, msg)
                planes[1].send(dst, msg)
        traffic = ("messages", "message_bytes", "net_messages", "net_bytes", "worker_sent")
        for flush in (False, True):
            if flush:  # the folded slots, metered at the barrier
                block._flush_combined()
                each._flush_combined()
            assert list(block._outbox.items()) == list(each._outbox.items())
            assert list(block._combined.items()) == list(each._combined.items())
            for name in traffic:
                assert getattr(block.metrics, name) == getattr(each.metrics, name), name
            assert block._trace_worker_bytes == each._trace_worker_bytes
            assert block._in_flight_totals() == each._in_flight_totals()
        # the plane: one run per block, the records of one send per message,
        # metered as the simulator metered them once its combiner table flushed
        sealed = [[], []]
        for plane, records in zip(planes, sealed):
            metrics = RunMetrics(worker_sent=[0] * workers)
            staged_bytes = [0] * workers
            stages = list(plane.seal())
            for one in stages:
                plane.meter_workers(metrics, one, staged_bytes)
                records.append(
                    (one.tag, one.dsts.tolist(), one.record_senders().tolist(), bytes(one.payload))
                )
            for name in traffic:
                assert getattr(metrics, name) == getattr(each.metrics, name), name
            assert staged_bytes == each._trace_worker_bytes
            assert self.plane_received(gather, workers, stages) == each._in_flight_totals()
        assert sealed[0] == sealed[1]

    #: per reduction, a pending value and runs of puts whose sequential fold
    #: a reordering, a pairwise fold or a fold not chained from the pending
    #: value changes
    nan = float("nan")
    LOOP_PUTS = {
        "SUM": (-1e16, ([1e16, 1.0, -1e16], [1e16, 1.0], [0.1, 0.2, 0.3], [3, 4, 2**70])),
        "PRODUCT": (1e-200, ([1e200, 1e200, 1e-200], [1.1, 1.3, 1e-300], [3, -2, 2**40])),
        "MIN": (1.0, ([0.0, -0.0], [-0.0, 0.0], [nan, 1.0], [nan, 0.5], [1.0, nan, 0.5])),
        "MAX": (1.0, ([0.0, -0.0], [-0.0, 0.0], [nan, 1.0], [nan, 2.0], [1.0, nan, 2.0])),
        "AND": (7, ([3, 0, 2], [2, 3], [True, 2.5], [1.5, 0.0, False], [True, True])),
        "OR": (0.0, ([0, 0.0, 2.5, 3], [0, 0.0], [False, 0], [0, True, 2])),
        "OVERWRITE": (5, ([1, 2.5, 3], [True], [-0.0])),
    }

    @needs_mp
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("op", sorted(LOOP_PUTS))
    def test_a_loop_put_is_its_puts(self, op):
        # put_global_bulk — a generated loop's puts to one global, made once
        # after the loop — leaves what one put_global per vertex leaves, on
        # sim and columnar, and the mp parent's vid-ordered fold of the
        # same puts split over its workers; onto a pending value it chains
        import itertools
        import math

        import numpy as np

        from repro.pregel.globalmap import GlobalObjectMap, GlobalOp

        gop = GlobalOp[op]

        def same(got, want):
            if isinstance(want, float) and math.isnan(want):
                return isinstance(got, float) and math.isnan(got)
            return repr(got) == repr(want) and type(got) is type(want)

        def chain(values):
            want = GlobalObjectMap()
            for value in values:
                want.put_reduce("g", gop, value)
            return want._pending["g"]

        program = compile_algorithm("pagerank").program
        graph = load_graph("twitter", 0.02)
        args = default_args("pagerank", graph)
        engines = {
            b: program.make_engine(graph, args, backend=b, num_workers=3)[0]
            for b in ("sim", "columnar", "mp")
        }
        first, runs = self.LOOP_PUTS[op]
        for values, pending in itertools.product(runs, (None, first)):
            vids = list(range(len(values)))
            want = chain(values if pending is None else [pending, *values])
            for backend, engine in engines.items():
                engine.globals = GlobalObjectMap()
                if pending is not None:
                    engine.put_global("g", gop, pending)
                if backend == "mp":  # the workers' lists, by worker
                    engine._fold_puts([
                        ("g", gop, vids[w::3], values[w::3]) for w in (2, 0, 1) if vids[w::3]
                    ])  # fmt: skip
                else:
                    engine.put_global_bulk("g", gop, vids, list(values))
                got = engine.globals._pending["g"]
                assert same(got, want), (backend, values, pending, got, want)
            # an array kernel's puts fold by the same rule
            array = np.asarray(values)
            if array.dtype != object and pending is None and len({type(v) for v in values}) == 1:
                engine = engines["columnar"]
                engine.globals = GlobalObjectMap()
                engine.put_global_bulk("g", gop, None, array)
                assert same(engine.globals._pending["g"], want), (values, "array")
        # another reduction on the global is refused, in put_reduce's words
        other = GlobalOp.MAX if gop is GlobalOp.MIN else GlobalOp.MIN
        for engine in engines.values():
            with pytest.raises(ValueError, match="conflicting reductions on global 'g'"):
                engine.put_global_bulk("g", other, [0], [1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_loop_puts_equal_the_interpreters(self, programs):
        # a generated loop's puts on sim, columnar and mp — each as array
        # code and as the generated loop — and the interpreter's sequential
        # reductions give one result; a loop that puts nothing aggregates
        # nothing; a confined replay of the put phase puts nothing
        import itertools
        import math
        from collections import defaultdict

        from repro.compiler import compile_source
        from repro.interp import interpret
        from repro.pregel.graph import Graph
        from repro.pregelir.ir import VGlobalPut, walk_stmts

        source = (
            "Procedure puts(G: Graph, x: N_P<Double>, y: N_P<Double>, z: N_P<Double>,\n"
            "    b: N_P<Bool>;\n"
            "    o_s: N_P<Double>, o_p: N_P<Double>, o_lo: N_P<Double>, o_hi: N_P<Double>,\n"
            "    o_all: N_P<Bool>, o_any: N_P<Bool>, o_none: N_P<Double>) {\n"
            "  Double s = 0.0; Double p = 1.0; Double lo = +INF; Double hi = -INF;\n"
            "  Bool all = True; Bool any = False; Double none = 7.0;\n"
            "  Foreach (n: G.Nodes) {\n"
            "    s += n.x; p *= n.y; lo min= n.z; hi max= n.z; all &= n.b; any |= n.b;\n"
            "  }\n"
            "  Foreach (n: G.Nodes)[n.x > 1e300] { none += n.x; }\n"
            "  Foreach (n: G.Nodes) {\n"
            "    n.o_s = s; n.o_p = p; n.o_lo = lo; n.o_hi = hi;\n"
            "    n.o_all = all; n.o_any = any; n.o_none = none;\n"
            "  }\n"
            "}\n"
        )
        program = compile_source(source).program
        n = 12
        graph = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
        args = {
            "x": [1e16, 1.0, -1e16, 0.0, -0.0, 0.5, -0.0, 0.0, 1e16, 1.0, 0.25, -1e16],
            "y": [1e200, 1e200, 1e-200, 1.5, 1.1, 1.3, 1.7, 0.9, 1.01, 1.2, 1.4, 1.05],
            # a NaN never wins a min or a max, nor seeds one
            "z": [math.nan, 1.0, -1e16, 0.0, -0.0, 0.5, -0.0, math.nan, 1e16, 1.0, 0.25, -1e16],
            "b": [True] * 5 + [False] + [True] * 6,
        }
        outputs = ("o_s", "o_p", "o_lo", "o_hi", "o_all", "o_any", "o_none")
        interp = interpret(source, graph, args)
        want = {name: interp.props[name] for name in outputs}
        # (the sum in any other order, or exactly, is not 0.0)
        assert want["o_s"][0] == 0.0 and want["o_p"][0] == math.inf and want["o_none"][0] == 7.0
        assert (want["o_lo"][0], want["o_hi"][0]) == (-1e16, 1e16)
        runs = {}
        for backend, workers, scalar in itertools.product(
            ("sim", "columnar", "mp"), (1, 3), (False, True)
        ):
            if (backend == "mp" and not mp_available()) or (backend == "sim" and scalar):
                continue
            engine, fields, _master = program.make_engine(
                graph, args, backend=backend, num_workers=workers
            )
            if scalar:
                engine._array_code = None
                engine.install_array_code({}, {})
            engine.run()  # the product overflows, as silently as the interpreter's
            column = get_backend(backend).column_values
            runs[backend, workers, scalar] = {name: column(fields[name]) for name in outputs}
        def exact(columns):  # ±0.0 apart; a typed Bool column holds 0/1
            return {
                name: [bool(v) if name in ("o_all", "o_any") else repr(float(v)) for v in values]
                for name, values in columns.items()
            }

        for cell, got in runs.items():
            assert exact(got) == exact(want), cell

        # confined replay: the put phase's loop, replayed, leaves no pending put
        for backend in ("sim", "columnar"):
            engine, _fields, _master = program.make_engine(graph, args, backend=backend)
            [state] = [
                pid for pid, phase in program.ir.phases.items()
                if any(isinstance(stmt, VGlobalPut) for stmt in walk_stmts(phase.compute))
            ]  # fmt: skip
            loop = engine._vertex_compute[state]
            for replaying in (True, False):
                engine._ft_replaying = replaying
                loop(engine, range(n), defaultdict(tuple))
                engine._current_vertex = -1
                assert bool(engine.globals._pending) is not replaying, backend
            assert engine.globals._pending["s"] == 0.0
            assert "none" not in engine.globals._pending

    @pytest.mark.parametrize("backend", ["sim", "columnar", "mp"])
    @pytest.mark.parametrize("api", ["send_nbrs", "send_each"])
    def test_an_empty_block_is_a_no_op(self, programs, graph, backend, api):
        # no sender is needed to send nothing: a sink's send_nbrs and an
        # empty send_each, outside the vertex phase, neither refuse nor stage
        if backend == "mp" and not mp_available():
            pytest.skip("needs fork start-method and multiprocessing.shared_memory")
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), backend=backend, num_workers=2
        )
        sink = next(v for v in graph.nodes() if not graph.out_degree(v))
        if api == "send_nbrs":
            engine.send_nbrs(sink, (0, 0.5))
        else:
            engine.send_each([], [])
        assert engine.metrics.messages == 0
        assert engine.metrics.worker_sent == [0, 0]
        if backend == "sim":
            assert not engine._outbox
        else:
            assert not list(engine._plane.seal())

    @pytest.mark.parametrize("api", ["send_nbrs", "send_each"])
    def test_a_block_replayed_under_recovery_stages_nothing(self, programs, graph, api):
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), num_workers=2,
            ft=FaultTolerance(FaultPlan()),
        )  # fmt: skip
        engine._trace_compute()
        sender = next(v for v in graph.nodes() if graph.out_degree(v))
        engine._current_vertex = sender
        engine._ft_replaying = True
        if api == "send_nbrs":
            engine.send_nbrs(sender, (0, 0.5))
        else:
            engine.send_each([1, 2], [(0, 0.5)] * 2)
        m = engine.metrics
        assert (m.messages, m.message_bytes, m.net_messages, m.net_bytes) == (0, 0, 0, 0)
        assert m.worker_sent == engine._trace_worker_bytes == [0, 0]
        assert engine._in_flight_totals() == [0, 0]
        assert not engine._outbox

    @pytest.mark.parametrize("manual", [False, True])
    def test_a_limited_budget_sends_message_by_message(self, programs, graph, manual):
        # a limited MemPlan charges (and may spill) between two messages of
        # one block, so its blocks go one send per message: outputs and
        # ledger are the unbudgeted run's, spill counts the per-send path's
        from repro.algorithms.manual import MANUAL_PROGRAMS
        from repro.pregel.mem import MemoryManager, MemPlan

        program = MANUAL_PROGRAMS["pagerank"] if manual else programs["pagerank"]
        args = default_args("pagerank", graph)
        mem = MemoryManager(MemPlan(budget_bytes=8192))
        limited = program.run(graph, args, num_workers=2, mem=mem)
        free = program.run(graph, args, num_workers=2)
        assert limited.outputs == free.outputs
        assert limited.metrics.parity_key() == free.metrics.parity_key()
        assert limited.metrics.messages == 79200
        r = mem.report()
        assert (r.spilled_bytes, r.spill_files, r.outbox_parks, r.superstep_splits) == (
            3548064, 832, 462, 351,
        )  # fmt: skip

    @pytest.mark.parametrize("backend", ["sim", "columnar", "mp"])
    @pytest.mark.parametrize("api", ["send", "send_nbrs", "send_each"])
    def test_a_send_outside_the_vertex_phase_is_refused(self, programs, graph, backend, api):
        if backend == "mp" and not mp_available():
            pytest.skip("needs fork start-method and multiprocessing.shared_memory")
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), backend=backend, num_workers=2
        )
        assert backend == "sim" or isinstance(engine, ColumnarEngine)
        sender = next(v for v in graph.nodes() if graph.out_degree(v))
        target, msg = {
            "send": (1, (0, 0.5)),
            "send_nbrs": (sender, (0, 0.5)),
            "send_each": ([1, 2], [(0, 0.5)] * 2),
        }[api]
        # one refusal on every backend, the mp parent's plane included
        with pytest.raises(RuntimeError, match="outside the vertex phase"):
            getattr(engine, api)(target, msg)
        assert engine.metrics.messages == 0
        assert engine.metrics.worker_sent == [0, 0]

    def test_a_bulk_destination_the_wire_cannot_address_is_refused(self):
        # the scalar send fails packing such an id into the int32 chunk;
        # the bulk one must not let it wrap onto some other vertex
        import numpy as np
        from types import SimpleNamespace

        from repro.pregel.backend.columnar import NbrGather, SlabPlane
        from repro.pregel.graph import Graph

        codec = MessageCodec(compile_algorithm("avg_teen_cnt").program.schema)
        graph = Graph.from_edges(4, [(0, 1)])
        host = SimpleNamespace(
            _current_vertex=-1, _ft_replaying=False, graph=graph, _bulk_receivers={},
            _combiners={},
        )  # fmt: skip
        plane = SlabPlane(codec, NbrGather.of_graph(graph, bytes(4)), host)
        with pytest.raises(OverflowError, match="out of bounds for int32"):
            plane.send_to_bulk(codec.tag_ids[0], np.array([0, 1]), np.array([2, 2**32 + 1]), None)
        assert not list(plane.seal())

    def test_dispatch_hands_a_tag_to_its_handler_or_decodes_it(self):
        import numpy as np
        from types import SimpleNamespace

        from repro.pregel.backend.columnar import NbrGather, SlabPlane
        from repro.pregel.graph import Graph

        codec = MessageCodec(compile_algorithm("bc_approx").program.schema)
        graph = Graph.from_edges(4, [(0, 1)])
        seen = []

        def handler(dsts, payload, count):
            seen.append((dsts.tolist(), bytes(payload), count))

        handler.ordered_merge = None
        host = SimpleNamespace(
            _current_vertex=0, _ft_replaying=False, graph=graph,
            _bulk_receivers={(7, 3): handler}, _combiners={},
        )  # fmt: skip
        plane = SlabPlane(codec, NbrGather.of_graph(graph, bytes(4)), host)
        plane.send(2, (3, 11))
        plane.send(1, (0, 0.5))
        plane.send(1, (0, 0.25))
        parts = {
            one.tag: [(one.dsts, None, one.payload, len(one.dsts))] for one in plane.seal()
        }
        # phase 7 has a bulk handler for tag 3; tag 0 is decoded by receiver
        assert list(plane.dispatch(7, parts)) == [(1, [(0, 0.5), (0, 0.25)])]
        assert seen == [([2], codec.pack[3]((3, 11)), 1)]
        assert (plane.bulk_records, plane.scalar_records) == (1, 2)
        # no other phase has one: everything is decoded
        assert dict(plane.dispatch(8, parts)) == {1: [(0, 0.5), (0, 0.25)], 2: [(3, 11)]}
        assert (plane.bulk_records, plane.scalar_records) == (0, 3)

    @pytest.mark.parametrize("backend", ("columnar", pytest.param("mp", marks=needs_mp)))
    def test_a_rollback_restages_folded_records_as_checkpointed(self, programs, graph, backend):
        """A rollback stages the checkpoint's messages without folding them
        again: a receiver's records of one combined tag — one per sending
        worker, folded when first sealed — come back as checkpointed, and
        the recovered run is the simulator's."""
        args = default_args("pagerank", graph)

        def ft():
            return FaultTolerance(FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),)))

        opts = dict(num_workers=3, use_combiners=True)
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, args, backend=backend, ft=ft(), **opts
        )
        install, restaged = engine._install_inflight, []

        def recording(state):
            install(state)
            restaged.append((state["outbox"], engine.outbox_view()))

        engine._install_inflight = recording
        assert engine.run().faults_injected == 1
        [(checkpointed, staged)] = restaged
        assert max(map(len, checkpointed.values())) >= 2  # (pagerank: one tag)
        assert staged == checkpointed
        sim = run_on(programs, graph, "pagerank", "sim", ft=ft(), **opts)
        assert_parity(sim, run_on(programs, graph, "pagerank", backend, ft=ft(), **opts))


class TestCLI:
    ARGS = ["--scale", "0.05", "--arg", "e=1e-9", "--arg", "d=0.85",
            "--arg", "max_iter=3"]

    def gm(self, name):
        from repro.algorithms.sources import source_path

        return str(source_path(name))

    def test_backend_flag_runs_columnar(self, capsys):
        from repro.cli import main

        code = main(["run", self.gm("pagerank"), *self.ARGS,
                     "--backend", "columnar"])
        assert code == 0
        assert "backend=columnar" in capsys.readouterr().out

    def test_unknown_backend_is_exit_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", self.gm("pagerank"), *self.ARGS, "--backend", "gpu"])
        assert exc.value.code == 2

    @needs_mp
    def test_mp_runs_checkpointing(self, capsys):
        # Fault tolerance is a *lifted* composition: the flag pair that
        # used to refuse with exit 2 now runs to completion.
        from repro.cli import main

        code = main(["run", self.gm("pagerank"), *self.ARGS,
                     "--backend", "mp", "--checkpoint-every", "2"])
        assert code == 0
        assert "backend=mp" in capsys.readouterr().out

    @needs_mp
    def test_transport_flag_runs_tcp(self, capsys):
        from repro.cli import main

        code = main(["run", self.gm("pagerank"), *self.ARGS,
                     "--backend", "mp", "--transport", "tcp",
                     "--workers", "2"])
        assert code == 0
        assert "backend=mp" in capsys.readouterr().out

    @needs_mp
    def test_netsplit_over_tcp_recovers(self, capsys):
        from repro.cli import main

        code = main(["run", self.gm("pagerank"), *self.ARGS,
                     "--backend", "mp", "--transport", "tcp",
                     "--workers", "2", "--checkpoint-every", "2",
                     "--inject-fault", "netsplit:1@1",
                     "--exchange-deadline", "2.0"])
        assert code == 0
        assert "backend=mp" in capsys.readouterr().out

    def test_tcp_transport_needs_mp_backend(self, capsys):
        # Validated from the flags alone, before any graph work.
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", self.gm("pagerank"), *self.ARGS,
                  "--backend", "sim", "--transport", "tcp"])
        assert exc.value.code == 2
        assert "--backend mp" in capsys.readouterr().err

    def test_network_faults_need_tcp_transport(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", self.gm("pagerank"), *self.ARGS,
                  "--backend", "mp", "--checkpoint-every", "2",
                  "--inject-fault", "netsplit:1@1"])
        assert exc.value.code == 2
        assert "--transport tcp" in capsys.readouterr().err

    @needs_mp
    def test_partitioning_flag_runs_range(self, capsys):
        from repro.cli import main

        code = main(["run", self.gm("pagerank"), *self.ARGS,
                     "--backend", "mp", "--partitioning", "range",
                     "--workers", "2"])
        assert code == 0
        assert "backend=mp" in capsys.readouterr().out

    def test_mp_refuses_net_faults_as_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", self.gm("pagerank"), *self.ARGS,
                  "--backend", "mp", "--net-faults", "drop=0.05"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"gm-pregel: error: {MP_TRANSPORT_REFUSAL}\n"

    def test_mp_refusal_fires_before_graph_load(self, capsys):
        # The composition is validated from the flags alone: a refused
        # pairing wins over a graph file that does not even exist, proving
        # no load was attempted first.
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", self.gm("pagerank"), *self.ARGS,
                  "--backend", "mp", "--net-faults", "drop=0.05",
                  "--graph-file", "/nonexistent/never.el"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"gm-pregel: error: {MP_TRANSPORT_REFUSAL}\n"

    def test_mp_refusal_is_the_engines(self, programs, graph):
        # what the CLI prints before the graph loads is what make_engine raises
        with pytest.raises(BackendUnsupported) as exc:
            programs["pagerank"].make_engine(
                graph, default_args("pagerank", graph), backend="mp",
                transport=SimulatedTransport(parse_net_faults("drop=0.05")),
            )  # fmt: skip
        assert str(exc.value) == MP_TRANSPORT_REFUSAL

    def test_mp_unavailable_is_usage_error(self, capsys, monkeypatch):
        import repro.pregel.backend.mp as mp_mod
        from repro.cli import main

        monkeypatch.setattr(mp_mod, "mp_available", lambda: False)
        with pytest.raises(SystemExit) as exc:
            main(["run", self.gm("pagerank"), *self.ARGS, "--backend", "mp"])
        assert exc.value.code == 2
        assert "unavailable on this platform" in capsys.readouterr().err


class TestRefusalMatrix:
    """Every refusal is stated once, by its engine class's ``refusal``:
    the construction-time refusal and the CLI's pre-load validation read
    it, so a feature either runs or fails fast with one message."""

    def test_columnar_refuses_only_a_memory_budget(self, programs, graph, capsys):
        from repro.algorithms.sources import source_path
        from repro.cli import main
        from repro.pregel.backend.columnar import MEM_REFUSAL
        from repro.pregel.mem import MemoryManager, MemPlan

        # at construction: a limited budget is refused, an unlimited one runs
        args = default_args("pagerank", graph)
        limited = MemoryManager(MemPlan(budget_bytes=1 << 30))
        with pytest.raises(BackendUnsupported, match=re.escape(MEM_REFUSAL)) as raised:
            programs["pagerank"].make_engine(graph, args, backend="columnar", mem=limited)
        unlimited = MemoryManager(MemPlan())
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, args, backend="columnar", mem=unlimited
        )
        assert isinstance(engine, ColumnarEngine)
        # in the CLI, in the same words, before the graph loads: a graph
        # file that does not exist is never reached
        with pytest.raises(SystemExit) as exc:
            main([
                "run", str(source_path("pagerank")), *TestCLI.ARGS, "--backend", "columnar",
                "--graph-file", "/nonexistent/graph.el", "--mem-budget", "1g",
            ])  # fmt: skip
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"gm-pregel: error: {raised.value}\n"

    def test_mp_declaration_matches_refusals(self, monkeypatch):
        import repro.pregel.backend.mp as mp_mod

        # the one composition mp refuses is a simulated transport
        monkeypatch.setattr(mp_mod, "mp_available", lambda: True)
        assert MPEngine.refusal(compiled=True) is None
        assert MPEngine.refusal(compiled=True, transport=object()) == MP_TRANSPORT_REFUSAL

    @pytest.mark.parametrize("backend", ("sim", "columnar"))
    def test_in_process_engines_refuse_real_faults(self, programs, graph, backend):
        # refused at construction, in the words the CLI prints
        text = (
            "'kill:' faults are real process faults — they need real worker "
            "processes (run with --backend mp)"
        )
        ft = FaultTolerance(FaultPlan(crashes=(CrashEvent(1, 2, "kill"),)))
        with pytest.raises(BackendUnsupported, match=re.escape(text)):
            run_on(programs, graph, "pagerank", backend, ft=ft)


@needs_mp
class TestLiftedCompositions:
    """The three compositions mp once refused, locked to sim parity — and
    fault tolerance on columnar, which checkpoints from the slab plane."""

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_combiners_parity(self, programs, graph, alg):
        sim = run_on(programs, graph, alg, "sim", use_combiners=True)
        mp = run_on(programs, graph, alg, "mp", use_combiners=True)
        assert_parity(sim, mp)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_ft_rollback_recovery_parity(self, programs, graph, alg):
        # The crash fires entering superstep 1 so even the shortest
        # algorithm (avg_teen_cnt halts after 2 supersteps) gets hit.
        def ft():
            return FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 1),))
            )

        sim = run_on(programs, graph, alg, "sim", ft=ft())
        col = run_on(programs, graph, alg, "columnar", ft=ft())
        mp = run_on(programs, graph, alg, "mp", ft=ft())
        assert sim.metrics.faults_injected == col.metrics.faults_injected == 1
        assert mp.metrics.faults_injected == 1
        assert_parity(sim, col)
        assert_parity(sim, mp)

    @pytest.mark.parametrize("alg", ("pagerank", "sssp"))
    def test_ft_confined_recovery_parity(self, programs, graph, alg):
        def ft():
            return FaultTolerance(
                FaultPlan(
                    checkpoint_every=2,
                    crashes=(CrashEvent(2, 3),),
                    recovery="confined",
                )
            )

        sim = run_on(programs, graph, alg, "sim", ft=ft())
        col = run_on(programs, graph, alg, "columnar", ft=ft())
        mp = run_on(programs, graph, alg, "mp", ft=ft())
        assert_parity(sim, col)
        assert_parity(sim, mp)

    @pytest.mark.parametrize("use_combiners", (False, True))
    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_ft_ledger_under_message_loss(self, programs, graph, recovery, use_combiners):
        # the cross-worker traffic a lossy channel would carry (parity's
        # net_messages) and the recovery ledger: equal on every backend —
        # and columnar keeps its array code throughout.  Lossy delivery is
        # the simulated channel's (tests/test_net.py), which mp refuses.
        ledger = ("faults_injected", "lost_supersteps", "recovery_replay_work")
        runs = {}
        for backend in ("sim", "columnar", "mp"):
            ft = FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),), recovery=recovery)
            )
            run = run_on(programs, graph, "pagerank", backend, ft=ft, use_combiners=use_combiners)
            runs[backend] = run, [getattr(run.metrics, name) for name in ledger]
        (sim, sim_ledger), (col, col_ledger), (mp, mp_ledger) = runs.values()
        assert sim_ledger[0] == 1 and sim.metrics.net_messages > 0
        assert sim_ledger == col_ledger == mp_ledger
        assert_parity(sim, col)
        assert_parity(sim, mp)
        plain = run_on(programs, graph, "pagerank", "columnar", use_combiners=use_combiners)
        assert col.metrics.vectorized_phases == plain.metrics.vectorized_phases != []

    def test_recovered_run_matches_failure_free_outputs(self, programs, graph):
        clean = run_on(programs, graph, "pagerank", "sim")
        ft = FaultTolerance(
            FaultPlan(checkpoint_every=2, crashes=(CrashEvent(0, 4),))
        )
        recovered = run_on(programs, graph, "pagerank", "mp", ft=ft)
        assert recovered.outputs == clean.outputs

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_deterministic_trace_byte_identity(self, programs, graph, alg):
        from repro.obs import MetricsRegistry, Tracer, deterministic_jsonl

        streams = {}
        for backend in ("sim", "columnar", "mp"):
            tracer, registry = Tracer(), MetricsRegistry()
            run_on(programs, graph, alg, backend, tracer=tracer, metrics_registry=registry)
            streams[backend] = deterministic_jsonl(tracer.events)
            if backend == "sim":
                # the traced counts are what the generated phase loops iterated
                active = [e.det["active"] for e in tracer.events if e.name == "superstep"]
                assert loop_vertices(registry) == {"generated": sum(active)}
        assert streams["sim"] == streams["columnar"] == streams["mp"]

    def test_traced_ft_recovery_stream_matches_sim(self, programs, graph):
        from repro.obs import Tracer, deterministic_jsonl

        streams = {}
        for backend in ("sim", "columnar", "mp"):
            tracer = Tracer()
            ft = FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),))
            )
            run_on(programs, graph, "pagerank", backend, ft=ft, tracer=tracer)
            streams[backend] = deterministic_jsonl(tracer.events)
        assert streams["sim"] == streams["columnar"] == streams["mp"]

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    @pytest.mark.parametrize("kind", ("crash", "kill"))
    def test_voting_program_recovers(self, programs, graph, kind, recovery):
        """A voting program on three workers recovers from a crash or a real
        kill at superstep 4 — re-forked workers seeded from the parent's
        log, their receivers woken by their next delivery — to the
        simulator's failure-free run."""

        def vertex(ctx, vid, messages):
            # sends on supersteps 0-5, votes on odd ones and when idle
            step = ctx.superstep
            if step < 6 and (vid + step) % 4 == 0:
                for nbr in graph.out_nbrs(vid):
                    ctx.send(nbr, (0, float(vid)))
            if step % 2 or not messages:
                ctx.vote_to_halt(vid)

        common = dict(vertex_compute=vertex, num_workers=3, use_voting=True)
        sim = PregelEngine(graph, message_size=lambda m: 8, **common).run()
        plan = FaultPlan(
            checkpoint_every=2, crashes=(CrashEvent(1, 4, kind),), recovery=recovery
        )
        mp = MPEngine(graph, schema=programs["pagerank"].schema, ft=FaultTolerance(plan), **common)
        mp.run()
        assert mp.metrics.faults_injected == 1
        assert sim.halt_reason == "all_halted" and sim.supersteps > 5
        assert mp.metrics.parity_key() == sim.parity_key()

    def test_combined_ft_and_combiners(self, programs, graph):
        def run(backend):
            ft = FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(0, 2),))
            )
            return run_on(
                programs, graph, "sssp", backend, ft=ft, use_combiners=True
            )

        sim = run("sim")
        assert_parity(sim, run("columnar"))
        assert_parity(sim, run("mp"))


@needs_mp
class TestRealProcessFaults:
    """SIGKILL / hang real worker processes mid-run: the deadline-based
    exchange barrier must detect the failure, re-fork the worker from the
    latest checkpoint, finish bit-identical to the failure-free run, and
    leak nothing when recovery is impossible."""

    def ft(self, *faults, recovery="rollback", max_restarts=3):
        return FaultTolerance(
            FaultPlan(
                checkpoint_every=2, crashes=faults, recovery=recovery,
                max_restarts=max_restarts,
            )
        )

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_sigkill_recovers_bit_identical(self, programs, graph, alg, recovery):
        # The kill fires entering superstep 1 so even the shortest
        # algorithm gets hit; detection is pipe-EOF, well inside the
        # deadline.
        sim = run_on(programs, graph, alg, "sim", num_workers=2)
        mp = run_on(
            programs, graph, alg, "mp", num_workers=2,
            ft=self.ft(CrashEvent(1, 1, "kill"), recovery=recovery),
            exchange_deadline=10.0,
        )
        assert mp.metrics.restarts == 1
        assert_parity(sim, mp)

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    def test_hung_worker_never_deadlocks(self, programs, graph, recovery):
        # The worker wedges in its vertex phase (sleeps far past the
        # deadline); the parent must time the barrier out, declare it
        # dead, and recover — a blind pipe read would hang forever here.
        sim = run_on(programs, graph, "pagerank", "sim", num_workers=2)
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=self.ft(CrashEvent(0, 3, "hang"), recovery=recovery),
            exchange_deadline=0.75,
        )
        assert mp.metrics.restarts == 1
        assert_parity(sim, mp)

    def test_two_workers_killed_same_exchange_recover(self, programs, graph):
        # Both partitions vanish from one exchange barrier; each blamed
        # worker costs one restart from the budget — a budget of two
        # covers both — and the run still finishes bit-identical.
        sim = run_on(programs, graph, "pagerank", "sim", num_workers=3)
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=3,
            ft=self.ft(CrashEvent(1, 2, "kill"), CrashEvent(2, 2, "kill"), max_restarts=2),
            exchange_deadline=10.0,
        )
        assert mp.metrics.restarts == 2
        assert_parity(sim, mp)

    def test_two_workers_killed_same_exchange_degrade_not_hang(self, programs, graph):
        # The second failure lands while the budget covers only one
        # restart: the run must degrade to a structured partial result,
        # never hang in the recovery barrier.
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=3,
            ft=self.ft(CrashEvent(1, 2, "kill"), CrashEvent(2, 2, "kill"), max_restarts=1),
            exchange_deadline=10.0,
        )
        assert mp.metrics.halt_reason == "unrecoverable"

    def test_exhausted_restarts_degrade_without_leaks(self, programs, graph, tmp_path):
        from repro.pregel.backend.mp import _LIVE_SEGMENTS, _LIVE_SOCKETS
        from repro.pregel.mem import MemPlan, MemoryManager

        mem = MemoryManager(MemPlan(budget_bytes=1 << 30, spill_dir=str(tmp_path)))
        mem._spill_path("inbox", 0)  # force the private spill dir into existence
        shm = "/dev/shm"
        before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=self.ft(CrashEvent(1, 3, "kill"), max_restarts=0), mem=mem,
        )
        # Graceful degradation: a structured partial result, not an
        # exception and not a hang.
        assert mp.metrics.halt_reason == "unrecoverable"
        assert _LIVE_SEGMENTS == {}
        assert _LIVE_SOCKETS == {}
        if os.path.isdir(shm):
            leaked = {n for n in os.listdir(shm) if n.startswith("psm_")} - before
            assert leaked == set()
        # The abort runs the same teardown path as a clean exit, so the
        # run's private spill directory is gone too.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alg", ("pagerank", "sssp", "bc_approx"))
    def test_degraded_run_returns_the_latest_checkpoint(self, programs, graph, alg):
        # The live worker has run the failed superstep's vertex phase by the
        # time the dead one is given up on: the partial result is the
        # latest checkpoint, whole.  With one at the failed boundary it is
        # sim's degraded result; with an older one, a clean run stopped at
        # the checkpoint's superstep.
        def ft(every, *faults):
            return FaultTolerance(
                FaultPlan(checkpoint_every=every, crashes=faults, max_restarts=0)
            )

        kill = CrashEvent(1, 3, "kill")
        silent = Supervisor(SupervisorPlan())  # fires the kill in process
        sim = run_on(programs, graph, alg, "sim", num_workers=2, ft=ft(1, kill), supervisor=silent)
        mp = run_on(programs, graph, alg, "mp", num_workers=2, ft=ft(1, kill))
        assert mp.metrics.halt_reason == sim.metrics.halt_reason == "unrecoverable"
        assert_parity(sim, mp)
        mp = run_on(programs, graph, alg, "mp", num_workers=2, ft=ft(2, kill))
        clean = run_on(programs, graph, alg, "sim", num_workers=2, max_supersteps=2)
        assert mp.metrics.supersteps == 2
        assert mp.outputs == clean.outputs

    def test_exchange_deadline_must_be_positive(self, programs, graph):
        with pytest.raises(ValueError, match="exchange_deadline"):
            run_on(
                programs, graph, "pagerank", "mp", num_workers=2,
                exchange_deadline=0.0,
            )


@needs_mp
class TestTcpTransport:
    """Real TCP loopback slab exchange (``--transport tcp``): the framed
    protocol reuses the ``repro.pregel.net`` sequencing discipline against
    real kernel buffers, so every run must be bit-identical to shm and
    sim — failure-free, under real network faults with recovery, and with
    zero leaked sockets on every exit path."""

    def ft(self, *faults, recovery="rollback", max_restarts=3):
        return FaultTolerance(
            FaultPlan(
                checkpoint_every=2, crashes=faults, recovery=recovery,
                max_restarts=max_restarts,
            )
        )

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("scheduling", ("frontier", "dense"))
    def test_parity_matrix(self, programs, graph, alg, scheduling):
        # 6 algorithms x {frontier, dense} x {shm, tcp}: the transport is
        # observationally invisible.
        sim = run_on(
            programs, graph, alg, "sim", num_workers=2,
            scheduling=scheduling,
        )
        shm = run_on(
            programs, graph, alg, "mp", num_workers=2,
            scheduling=scheduling,
        )
        tcp = run_on(
            programs, graph, alg, "mp", num_workers=2,
            scheduling=scheduling, transport_mode="tcp",
        )
        assert_parity(sim, shm)
        assert_parity(sim, tcp)

    def test_tcp_metrics_families_flow(self, programs, graph):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            transport_mode="tcp", metrics_registry=registry,
        )
        snap = registry.snapshot()

        def value(name):
            return sum(s["value"] for s in snap[name]["series"])

        # Exactly-once on a healthy link: every frame sent is received
        # and acked exactly once, byte counts agree end to end.
        assert value("tcp.frames_sent") > 0
        assert value("tcp.frames_received") == value("tcp.frames_sent")
        assert value("tcp.acks_received") == value("tcp.frames_sent")
        assert value("tcp.bytes_received") == value("tcp.bytes_sent")
        assert value("tcp.connects") > 0

    def test_frame_shorter_than_its_count_is_dropped_unacked(self):
        import socket

        from repro.pregel.backend import tcp

        listener = tcp.bind_listener()
        port = listener.getsockname()[1]
        transport = tcp.TcpSlabTransport(0, listener, [port, 0], [0, 0])
        peer = socket.create_connection(("127.0.0.1", port), timeout=5)
        try:
            # CRC-valid, from the expected source, announcing 5 records
            # (40 id bytes) over a 12-byte body
            peer.sendall(tcp.pack_frame(1, 0, 0, tcp._KIND_DATA, 0, 5, b"\0" * 12))
            parts, report = transport.exchange({}, {1: 1}, 0.4)
            # never accepted: nothing kept, the source still owes its frame
            assert parts == {} and report == {1: "timeout"}
            # ... and never acked: the connection closed without a byte
            assert peer.recv(64) == b""
        finally:
            peer.close()
            transport.close_listener()
        counts = transport.take_counts()
        assert counts[("tcp.malformed_frames", ())] == 1
        assert ("tcp.frames_received", ()) not in counts

    def test_an_abandoned_exchange_leaves_fresh_streams_behind(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.pregel.backend import tcp

        listeners = [tcp.bind_listener() for _ in range(2)]
        ports = [sock.getsockname()[1] for sock in listeners]
        a, b = (
            tcp.TcpSlabTransport(wid, listeners[wid], ports, [0, 0])
            for wid in range(2)
        )
        frame = (0, 1, bytes(8))  # (tag, count, body): one record
        try:
            # b sits this exchange out: a's two frames go unacked, a gives up
            assert a.exchange({1: [frame, frame]}, {}, 0.3) == ({}, {1: "timeout"})
            # the recovery bumps every epoch: both ends start fresh streams
            for end in (a, b):
                end.update_peers(ports, [1, 1])
            with ThreadPoolExecutor(2) as pool:
                sent = pool.submit(a.exchange, {1: [frame]}, {}, 5.0)
                received = pool.submit(b.exchange, {}, {0: 1}, 5.0)
                assert sent.result() == ({}, {})
                parts, report = received.result()
        finally:
            for end in (a, b):
                end.close_listener()
        assert report == {} and len(parts[0]) == 1
        # the new stream's seq 0 closed the prefix: nothing parked, no
        # reorder metered; the abandoned frames were stale, not parked
        assert {src: (r.expected, r.parked) for src, r in b._receivers.items()} == {0: (1, set())}
        assert (a._senders[1].next_seq, a._senders[1].unacked) == (1, {})
        counts = {**a.take_counts(), **b.take_counts()}
        assert ("tcp.reorders", ()) not in counts
        assert counts[("tcp.stale_frames", ())] >= 1

    @pytest.mark.parametrize("recovery", ("rollback", "confined"))
    @pytest.mark.parametrize("kind,superstep", [
        ("kill", 1), ("netsplit", 2), ("slowlink", 1),
    ])
    def test_network_faults_recover_bit_identical(
        self, programs, graph, kind, superstep, recovery
    ):
        # netsplit closes the victim's listening socket mid-exchange
        # (peers see a real ECONNREFUSED); slowlink throttles it past the
        # deadline (peers time out).  Either way the blame fold must
        # identify the victim, recovery must replay it, and the run must
        # end bit-identical to the failure-free tcp run.
        base = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            transport_mode="tcp",
        )
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=self.ft(CrashEvent(1, superstep, kind), recovery=recovery),
            transport_mode="tcp", exchange_deadline=3.0,
        )
        assert mp.metrics.restarts == 1
        assert_parity(base, mp)

    def test_netsplit_classified_as_refused(self, programs, graph):
        # Connection-level evidence is conclusive: the peers' ECONNREFUSED
        # reports, not the parent's barrier timeout, name the cause.
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        run = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=self.ft(CrashEvent(1, 2, "netsplit")),
            transport_mode="tcp", exchange_deadline=3.0,
            metrics_registry=registry,
        )
        assert run.metrics.restarts == 1
        snap = registry.snapshot()
        misses = snap["mp.exchange_deadline_misses"]["series"]
        assert [(row["labels"], row["value"]) for row in misses] == [
            ({"cause": "refused"}, 1)
        ]
        causes = {
            row["labels"]["cause"]
            for row in snap["tcp.peer_failures"]["series"]
        }
        assert "refused" in causes

    @pytest.mark.parametrize("superstep", (0, 11), ids=("first", "final"))
    def test_fault_at_run_boundaries(self, programs, graph, superstep):
        # Edge supersteps for pagerank's 12-superstep run: a fault in the
        # very first exchange recovers from the forced initial checkpoint;
        # one in the last exchange replays only the tail.
        base = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            transport_mode="tcp",
        )
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=self.ft(CrashEvent(1, superstep, "netsplit")),
            transport_mode="tcp", exchange_deadline=3.0,
        )
        assert mp.metrics.restarts == 1
        assert_parity(base, mp)

    def test_two_workers_killed_same_exchange_over_tcp(self, programs, graph):
        sim = run_on(programs, graph, "pagerank", "sim", num_workers=3)
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=3,
            ft=self.ft(CrashEvent(1, 2, "kill"), CrashEvent(2, 2, "kill"), max_restarts=3),
            transport_mode="tcp", exchange_deadline=3.0,
        )
        assert mp.metrics.restarts == 2
        assert_parity(sim, mp)

    def test_unrecoverable_tcp_degrades_without_leaks(self, programs, graph, tmp_path):
        from repro.pregel.backend.mp import _LIVE_SEGMENTS, _LIVE_SOCKETS
        from repro.pregel.mem import MemPlan, MemoryManager

        mem = MemoryManager(MemPlan(budget_bytes=1 << 30, spill_dir=str(tmp_path)))
        mem._spill_path("inbox", 0)
        shm = "/dev/shm"
        before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=self.ft(CrashEvent(1, 2, "netsplit"), max_restarts=0), mem=mem,
            transport_mode="tcp", exchange_deadline=3.0,
        )
        # Structured degradation with nothing left behind: no bound
        # sockets, no shm segments, no spill files.
        assert mp.metrics.halt_reason == "unrecoverable"
        assert _LIVE_SOCKETS == {}
        assert _LIVE_SEGMENTS == {}
        if os.path.isdir(shm):
            leaked = {n for n in os.listdir(shm) if n.startswith("psm_")} - before
            assert leaked == set()
        assert list(tmp_path.iterdir()) == []

    def test_network_faults_require_tcp_transport(self, programs, graph):
        # refused at construction, in the words the CLI prints
        text = (
            "'netsplit:' faults are network faults — they need the real "
            "socket transport (run with --transport tcp)"
        )
        with pytest.raises(BackendUnsupported, match=re.escape(text)):
            run_on(
                programs, graph, "pagerank", "mp", num_workers=2,
                ft=self.ft(CrashEvent(1, 1, "netsplit")),
            )

    def test_unknown_transport_mode_raises(self, programs, graph):
        with pytest.raises(ValueError, match="unknown transport"):
            run_on(
                programs, graph, "pagerank", "mp", num_workers=2,
                transport_mode="udp",
            )


@needs_mp
class TestRangePartitioning:
    """Contiguous vid blocks per worker (``--partitioning range``), lifted
    from the refusal matrix: bit-identical to the simulator's range
    placement at equal worker counts."""

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_parity_against_sim_range(self, programs, graph, alg):
        sim = run_on(
            programs, graph, alg, "sim", num_workers=3, partitioning="range",
        )
        mp = run_on(
            programs, graph, alg, "mp", num_workers=3, partitioning="range",
        )
        assert_parity(sim, mp)

    def test_outputs_match_hash_partitioning(self, programs, graph):
        # Partitioning moves vertices between workers, so the per-worker
        # split differs — but the partition-independent keys and outputs
        # must not.
        hashed = run_on(programs, graph, "pagerank", "mp", num_workers=2)
        ranged = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            partitioning="range",
        )
        assert_parity(hashed, ranged, ignore_partition_keys=True)

    def test_unknown_partitioning_raises(self, programs, graph):
        with pytest.raises(ValueError, match="partitioning"):
            run_on(
                programs, graph, "pagerank", "mp", num_workers=2,
                partitioning="diagonal",
            )


@needs_mp
class TestSupervisedMP:
    """Real liveness supervision: the plan's ``kill`` faults are actual
    SIGKILLs that only the deadline barrier's liveness pings reveal."""

    def test_silent_crash_detected_restarted_and_parity(self, programs, graph):
        sim = run_on(programs, graph, "pagerank", "sim", num_workers=2)
        supervisor = Supervisor(SupervisorPlan())
        plan = FaultPlan(
            checkpoint_every=2, crashes=(CrashEvent(1, 3, "kill"),), recovery="confined"
        )
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=FaultTolerance(plan),
            supervisor=supervisor,
        )
        assert_parity(sim, mp)
        report = supervisor.report()
        assert report["restarts_used"] == 1
        (detection,) = report["detections"]
        assert detection["worker"] == 1
        assert detection["action"] == "restarted"
        assert detection["cause"] == "died"

    def test_restart_budget_exhaustion_degrades(self, programs, graph):
        supervisor = Supervisor(SupervisorPlan())
        plan = FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3, "kill"),), max_restarts=0)
        mp = run_on(
            programs, graph, "pagerank", "mp", num_workers=2,
            ft=FaultTolerance(plan),
            supervisor=supervisor,
        )
        assert mp.metrics.halt_reason == "unrecoverable"
        assert supervisor.report()["degraded"]

    def test_budget_of_n_covers_n_detected_deaths(self, programs, graph):
        # the plan's budget, spent through the supervisor's escalation:
        # two covers both deaths bit-identically, one degrades at the second
        sim = run_on(programs, graph, "pagerank", "sim", num_workers=2)
        crashes = (CrashEvent(1, 3, "kill"), CrashEvent(0, 5, "kill"))
        for budget in (2, 1):
            supervisor = Supervisor(SupervisorPlan())
            plan = FaultPlan(checkpoint_every=2, crashes=crashes, max_restarts=budget)
            mp = run_on(
                programs, graph, "pagerank", "mp", num_workers=2,
                ft=FaultTolerance(plan),
                supervisor=supervisor,
            )
            report = supervisor.report()
            assert report["restarts_used"] == mp.metrics.restarts == budget
            assert report["max_restarts"] == budget
            if budget == 2:
                assert_parity(sim, mp)
        assert mp.metrics.halt_reason == "unrecoverable"
        assert [d["action"] for d in report["detections"]] == ["restarted", "degraded"]


@needs_mp
class TestVotingOnMP:
    """vote_to_halt lifted: per-worker bitsets folded at the barrier are
    bit-identical to the simulator's single authoritative bitset."""

    @pytest.mark.parametrize("alg", ("pagerank", "sssp"))
    def test_generated_programs_run_under_voting(self, programs, graph, alg):
        # Generated programs never vote (§5.2) — the voting plumbing must
        # be parity-invisible when enabled but unused.
        sim = run_on(programs, graph, alg, "sim", use_voting=True)
        mp = run_on(programs, graph, alg, "mp", use_voting=True)
        assert_parity(sim, mp)

    def test_custom_voting_program_halts_identically(self, programs, graph):
        from repro.pregel.backend.mp import MPEngine
        from repro.pregel.runtime import PregelEngine

        # no-inbox vertices flood their neighbours then vote; awakened
        # vertices just vote again — all_halted at superstep 2, driven
        # entirely by the folded vote bitsets.
        def vertex(ctx, vid, messages):
            if not messages:
                for nbr in graph.out_nbrs(vid):
                    ctx.send(nbr, (0, float(vid)))
            ctx.vote_to_halt(vid)

        schema = programs["pagerank"].schema
        sim = PregelEngine(
            graph, vertex, num_workers=2, use_voting=True,
            message_size=lambda m: 8,
        ).run()
        mp = MPEngine(
            graph, schema=schema, vertex_compute=vertex,
            num_workers=2, use_voting=True,
        )
        mp.run()
        assert sim.halt_reason == mp.metrics.halt_reason == "all_halted"
        assert sim.parity_key() == mp.metrics.parity_key()

    def test_vote_without_voting_enabled_raises(self, programs, graph):
        from repro.pregel.backend.mp import MPEngine

        def vertex(ctx, vid, messages):
            ctx.vote_to_halt(vid)

        mp = MPEngine(
            graph, schema=programs["pagerank"].schema,
            vertex_compute=vertex, num_workers=2,
        )
        with pytest.raises(RuntimeError, match="use_voting=True"):
            mp.run()


@needs_mp
class TestMemOnMP:
    """Memory budgets lifted: per-process byte accounting rides the
    exchange reply; the parent enforces the plan."""

    def test_generous_budget_is_parity_invisible(self, programs, graph):
        from repro.pregel.mem import MemPlan, MemoryManager

        sim = run_on(programs, graph, "pagerank", "sim", num_workers=2)
        mem = MemoryManager(MemPlan(budget_bytes=1 << 30))
        mp = run_on(programs, graph, "pagerank", "mp", num_workers=2, mem=mem)
        assert_parity(sim, mp)
        report = mem.report()
        assert len(report.peak_bytes) == 2
        assert all(peak > 0 for peak in report.peak_bytes)
        assert mp.metrics.mem_peak_bytes == max(report.peak_bytes)

    def test_overflow_degrades_to_structured_oom(self, programs, graph):
        from repro.pregel.mem import MemPlan, MemoryManager

        mem = MemoryManager(MemPlan(budget_bytes=2048))
        mp = run_on(programs, graph, "pagerank", "mp", num_workers=2, mem=mem)
        assert mp.metrics.halt_reason == "out_of_memory"
        report = mem.report()
        assert report.oom is not None
        assert report.oom["phase"] == "exchange"
        assert report.oom["needed_bytes"] > report.oom["budget_bytes"] == 2048


@needs_mp
class TestMakespanOnMP:
    def test_makespan_accounting_matches_sim(self, programs, graph):
        sim, sim_units = run_traced(programs, graph, "pagerank", "sim", scheduling="dense")
        mp, mp_units = run_traced(programs, graph, "pagerank", "mp", scheduling="dense")
        assert sim_units == mp_units
        assert min(sim_units) > 0
        assert_parity(sim, mp)


EVERY_BACKEND = ("sim", "columnar", pytest.param("mp", marks=needs_mp))


class TestOneDriver:
    """The three backends run one superstep driver: the same constructor
    checks, the same scheduling decision, the same boundary calls."""

    @staticmethod
    def voting_bfs_engine(programs, backend, tracer, **opts):
        """A vote-to-halt BFS over a sparse random graph (most supersteps
        touch a handful of vertices), built through the backend itself."""
        from repro.bench.harness import deep_bfs_root
        from repro.graphgen import uniform_random

        sparse = uniform_random(400, 480, seed=5)
        root = deep_bfs_root(sparse)
        reached = bytearray(sparse.num_nodes)

        def vertex(ctx, vid, messages):
            if not reached[vid] and (vid == root or messages):
                reached[vid] = 1
                for nbr in sparse.out_nbrs(vid):
                    ctx.send(nbr, (0, 0.0))
            ctx.vote_to_halt(vid)

        return get_backend(backend)(
            sparse, vertex_compute=vertex, message_size=lambda msg: 8,
            schema=programs["pagerank"].schema,
            use_voting=True, num_workers=2, tracer=tracer, **opts,
        )  # fmt: skip

    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    def test_dense_never_takes_the_sparse_switch(self, programs, backend):
        from repro.obs import Tracer

        modes = {}
        for scheduling in ("dense", "frontier"):
            tracer = Tracer()
            metrics = self.voting_bfs_engine(
                programs, backend, tracer, scheduling=scheduling
            ).run()
            assert metrics.halt_reason == "all_halted" and metrics.supersteps > 3
            modes[scheduling] = [
                e.info["mode"] for e in tracer.events if e.name == "superstep"
            ]
        assert len(modes["dense"]) == len(modes["frontier"])
        assert "sparse" not in modes["dense"]
        if backend != "mp":  # mp workers scan their own partitions
            assert "sparse" in modes["frontier"]

    def test_run_begin_reports_the_same_keys_on_every_backend(self, programs):
        from repro.obs import Tracer

        keys = {}
        for backend in BACKENDS:
            if backend == "mp" and not mp_available():
                continue
            tracer = Tracer()
            self.voting_bfs_engine(programs, backend, tracer).run()
            (begin,) = [e for e in tracer.events if e.name == "run.begin"]
            keys[backend] = (sorted(begin.det), sorted(begin.info))
        assert len(set(map(str, keys.values()))) == 1, keys
        assert "frontier_threshold" in keys["sim"][1]

    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    @pytest.mark.parametrize("bad", (0.0, 1.5))
    def test_frontier_threshold_validated_on_every_backend(
        self, programs, graph, backend, bad
    ):
        with pytest.raises(ValueError, match=r"frontier_threshold must be in \(0, 1\]"):
            programs["pagerank"].make_engine(
                graph, default_args("pagerank", graph),
                backend=backend, frontier_threshold=bad,
            )

    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    def test_run_without_a_vertex_program_on_every_backend(
        self, programs, graph, backend
    ):
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), backend=backend
        )
        engine._vertex_compute = None
        with pytest.raises(RuntimeError, match="no vertex program attached"):
            engine.run()

    @pytest.mark.parametrize("crash", (None, CrashEvent(worker=1, superstep=1)))
    def test_subscribers_hear_the_same_boundaries_on_every_backend(
        self, programs, graph, crash
    ):
        """A recording subscriber sees one (boundary, superstep) sequence
        whatever the backend — across an ft rollback too (the crash at the
        superstep-1 boundary rewinds to the superstep-0 checkpoint)."""

        class Recorder:
            def __init__(self, engine):
                self.engine, self.calls = engine, []

            def on_superstep_start(self):
                self.calls.append(("start", self.engine.superstep))

            def on_master_done(self):
                self.calls.append(("master_done", self.engine.superstep))

            def on_superstep_end(self):
                self.calls.append(("end", self.engine.superstep))

        heard = {}
        for backend in BACKENDS:
            if backend == "mp" and not mp_available():
                continue
            opts = {}
            if crash is not None:
                plan = FaultPlan(checkpoint_every=2, crashes=(crash,))
                opts["ft"] = FaultTolerance(plan)
            engine, _fields, _master = programs["conductance"].make_engine(
                graph, default_args("conductance", graph),
                backend=backend, num_workers=2, **opts,
            )
            recorder = Recorder(engine)
            engine._subscribe(recorder)
            metrics = engine.run()
            assert metrics.supersteps == 3
            assert metrics.faults_injected == (crash is not None)
            heard[backend] = recorder.calls
        expected = [(b, s) for s in range(3) for b in ("start", "master_done", "end")]
        expected.append(("start", 3))  # the master halts this superstep
        if crash is not None:
            # superstep 0 ran, the crash rewound to it, and it ran again
            expected = expected[:3] + expected
        for backend, calls in heard.items():
            assert calls == expected, backend


class TestSlabSizing:
    def test_clamp_applies_absolute_ceiling(self):
        from repro.pregel.backend.mp import _SLAB_CEILING, clamp_slab_bytes

        assert clamp_slab_bytes(10 * _SLAB_CEILING) == _SLAB_CEILING
        assert clamp_slab_bytes(4 << 20) == 4 << 20

    def test_clamp_keeps_one_mib_floor(self):
        from repro.pregel.backend.mp import clamp_slab_bytes

        assert clamp_slab_bytes(17) == 1 << 20

    def test_clamp_respects_mem_plan_budget(self):
        from repro.pregel.backend.mp import clamp_slab_bytes
        from repro.pregel.mem import MemPlan

        plan = MemPlan(budget_bytes=8 << 20)
        assert clamp_slab_bytes(1 << 30, plan) == 8 << 20
        targeted = MemPlan(worker_budgets=((1, 2 << 20),))
        assert clamp_slab_bytes(1 << 30, targeted) == 2 << 20
        unlimited = MemPlan()
        assert clamp_slab_bytes(32 << 20, unlimited) == 32 << 20

    @needs_mp
    def test_tiny_slab_still_parity_identical(self, programs, graph):
        # Overflow spills through the inline pipe path: capacity is a
        # performance knob, never a correctness one.  (1 MiB would be this
        # graph's auto-sized segment; 64 bytes sends sssp's edge-payload
        # parts inline.)
        sim = run_on(programs, graph, "sssp", "sim", num_workers=2)
        mp = run_on(
            programs, graph, "sssp", "mp", num_workers=2,
            mp_slab_bytes=64,
        )
        assert_parity(sim, mp)


class TestEnginesViewTheGraphBuffers:
    """The engines' CSR arrays are views of the graph's typed buffers, not
    converted copies — on ``mp`` built once in the parent, before the fork."""

    @staticmethod
    def assert_views(engine, graph):
        import numpy as np

        csr = engine._csr
        assert np.shares_memory(csr.targets, np.asarray(graph.out_targets))
        assert np.shares_memory(csr.offsets, np.asarray(graph.out_offsets))

    def test_columnar(self, programs, graph):
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), backend="columnar"
        )
        self.assert_views(engine, graph)

    @needs_mp
    def test_mp_parent(self, programs, graph):
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), backend="mp", num_workers=2
        )
        engine.run()
        self.assert_views(engine, graph)


class TestVectorizedReceivers:
    """The columnar bulk-receive handlers: installed exactly where the
    vectorizer proves the receive loop is a pure column reduction, and
    parity-invisible wherever they run (the matrix above runs them)."""

    def handlers(self, programs, graph, alg):
        program = programs[alg]
        engine, _fields, _master = program.make_engine(
            graph, default_args(alg, graph), backend="columnar"
        )
        return engine._bulk_receivers

    def test_reduction_phases_vectorize(self, programs, graph):
        # sssp's receive couples two fields across statements, but only
        # through the improve-flag idiom (`flag |= e < f; f min= e`)
        # ... and bipartite matching's store message values: last writer wins
        for alg in ALGORITHMS:
            assert self.handlers(programs, graph, alg), alg

    def test_dependent_or_stateful_phases_do_not(self, programs, graph):
        # a store that switches its own guard off: the *first* writer wins
        program = TestPhaseKernels.compile(
            TestPhaseKernels.FIRST_MATCH.format(guard="[t.o == 0]", body="t.o = n.age;")
        )
        engine, _fields, _master = program.make_engine(graph, backend="columnar")
        assert engine._bulk_receivers == {}

    def test_handlers_only_engage_on_slab_fast_path(self, programs, graph):
        program = programs["pagerank"]
        engine, _fields, _master = program.make_engine(
            graph,
            default_args("pagerank", graph),
            backend="columnar",
            ft=FaultTolerance(FaultPlan(checkpoint_every=2)),
        )
        # Fault tolerance reads the slab plane's raw parts: the slab engine,
        # its handlers installed as without it.
        assert isinstance(engine, ColumnarEngine)
        assert sorted(engine._bulk_receivers) == sorted(self.handlers(programs, graph, "pagerank"))
        assert engine._bulk_receivers
        assert engine.metrics.vectorized_phases != []


class TestPhaseKernels:
    """Whole-phase array kernels: a phase whose receive part is empty or
    bulk and whose filter + compute body is straight-line vertex-local
    code runs as one numpy program instead of the per-vertex loop —
    selected from the IR and the engine's composition alone, and
    bit-identical to the simulator wherever it runs."""

    #: algorithm -> the phase states that compile to kernels
    EXPECTED = {
        "pagerank": [0, 4],
        "avg_teen_cnt": [0, 2],
        "conductance": [4, 6, 7],
        "bc_approx": [1, 4, 6, 9, 10, 12, 14, 15],
        "sssp": [0, 9],
        "bipartite_matching": [0, 3, 5, 8],
    }

    @staticmethod
    def decisions(program, graph, args=None):
        from repro.codegen.vectorize import build_array_code

        engine, fields, _master = program.make_engine(graph, args, backend="columnar")
        decisions: list = []
        build_array_code(program.ir, program.schema, fields, engine, decisions=decisions)
        return engine, {d["phase"]: d for d in decisions}

    @staticmethod
    def compile(source):
        from repro.compiler import compile_source

        return compile_source(source, emit_java=False).program

    @staticmethod
    def run_scalar_slab(program, graph, args=None, **opts):
        """A columnar run on the slab engine with the array code taken
        out: the generated scalar program through ``MessageCodec.pack``."""
        from repro.codegen.executable import RunResult

        opts["backend"] = "columnar"
        engine, fields, _master = program.make_engine(graph, args, **opts)
        assert isinstance(engine, ColumnarEngine)
        engine.install_array_code({}, {})
        metrics = engine.run()
        outputs = {
            p.name: fields[p.name].tolist()
            for p in program.ir.params
            if p.is_output and p.name in fields
        }
        return RunResult(metrics, outputs, metrics.result, fields)

    # -- (a) eligibility ------------------------------------------------

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_eligibility_table(self, programs, graph, alg):
        engine, by_phase = self.decisions(programs[alg], graph, default_args(alg, graph))
        assert sorted(engine._phase_kernels) == self.EXPECTED[alg]
        for phase, d in by_phase.items():
            assert d["kernel"] == (phase in self.EXPECTED[alg])
            assert d["kernel_reason"].startswith("kernel") == d["kernel"]

    def test_refusal_reasons(self, programs, graph):
        reasons = {}
        for alg in ALGORITHMS:
            _engine, by_phase = self.decisions(
                programs[alg], graph, default_args(alg, graph)
            )
            for phase, d in by_phase.items():
                if not d["kernel"]:
                    reasons[alg, phase] = d["kernel_reason"]
        # every phase of the six paper algorithms is array code; what the
        # vectorizer still refuses, it refuses on synthetic programs below
        assert reasons == {}

    def random_write_case(self, programs, operate=lambda ir: None):
        """Bipartite matching with ``operate(ir)`` applied, on a graph it
        matches on: its decisions, and parity of what runs with the
        simulator and with the scalar slab path."""
        return self.surgery_case(
            programs, _matching_graph(600), "bipartite_matching", operate
        )

    def test_random_write_is_a_column_addressed_send(self, programs):
        # phases 3 and 5 send to a vertex a column names: one record per
        # selected sender, staged whole
        by_phase = self.random_write_case(programs)
        for phase in (3, 5):
            assert by_phase[phase]["kernel_reason"] == "kernel (column-addressed send)"

    def test_two_random_writes_on_one_tag_stay_scalar(self, programs):
        import copy

        def operate(ir):
            compute = ir.phases[3].compute
            (guarded,) = [s for s in compute if s.then]
            guarded.then.append(copy.deepcopy(guarded.then[-1]))

        by_phase = self.random_write_case(programs, operate)
        assert by_phase[3]["kernel_reason"] == "more than one send on tag 1"
        assert by_phase[3]["eligible"] and by_phase[5]["kernel"]

    def test_random_write_to_a_destination_that_can_raise_stays_scalar(self, programs):
        from repro.lang.ast import BinOp
        from repro.pregelir.ir import Bin, Lit

        def operate(ir):
            (guarded,) = [s for s in ir.phases[5].compute if s.then]
            send = next(s for s in guarded.then if hasattr(s, "target"))
            send.target = Bin(BinOp.DIV, send.target, Lit(1))

        by_phase = self.random_write_case(programs, operate)
        assert by_phase[5]["kernel_reason"] == "random write to a destination that can raise"

    NIL_WRITE = (
        "Procedure p(G: Graph, age: N_P<Int>; o: N_P<Int>) {\n"
        "  N_P<Node> to;\n"
        "  G.o = 0;\n"
        "  Foreach (n: G.Nodes)[n.age > 30] { Node t = n.to; t.o = n.age; }\n"
        "}"
    )

    def test_write_through_an_unset_node_property_lands_on_the_last_vertex(self):
        # a known wart, pinned: NIL is -1, and every inbox — the
        # interpreter's column, sim's and columnar's slots, a handler's
        # numpy store — indexes it from the end
        from repro.interp import interpret

        g = load_graph("twitter", 0.02)
        last = g.num_nodes - 1
        want = interpret(self.NIL_WRITE, g).outputs["o"]
        writers = [v for v in range(g.num_nodes) if g.node_props["age"][v] > 30]
        assert want == [0] * last + [g.node_props["age"][writers[-1]]] and len(writers) > 1
        program = self.compile(self.NIL_WRITE)
        _engine, by_phase = self.decisions(program, g)
        assert by_phase[0]["kernel_reason"] == "kernel (column-addressed send)"
        runs = [
            program.run(g, backend="sim", num_workers=3),
            program.run(g, backend="columnar", num_workers=3),
            self.run_scalar_slab(program, g, num_workers=3),
        ]
        if mp_available():
            runs.append(program.run(g, backend="mp", num_workers=3))
        for run in runs:
            assert run.outputs["o"] == want
            assert_parity(runs[0], run)
        assert runs[0].metrics.messages == len(writers)

    def test_decisions_name_the_idioms(self, programs, graph):
        _engine, by_phase = self.decisions(
            programs["sssp"], graph, default_args("sssp", graph)
        )
        assert by_phase[9]["reason"] == "vectorized (improve-flag min)"
        assert by_phase[9]["kernel_reason"] == "kernel (per-edge send)"
        assert by_phase[0]["kernel_reason"] == "kernel"
        assert by_phase[9]["ops"] == [  # the flag is applied after the reduce it watches
            {"tag": 0, "ops": ["ScatterReduce(min) dist_nxt", "ImproveFlag(min) updated_nxt"]}
        ]
        _engine, by_phase = self.decisions(programs["bipartite_matching"], graph)
        assert [by_phase[p]["reason"] for p in (3, 5, 8)] == [
            "vectorized (last-writer assign)"
        ] * 3
        assert by_phase[3]["ops"] == [
            {"tag": 0, "ops": ["Select(last) suitor", "put finished and"]}
        ]
        assert by_phase[8]["ops"] == [{"tag": 2, "ops": ["Select(last) match"]}]
        assert by_phase[0]["ops"] == []
        _engine, by_phase = self.decisions(
            programs["bc_approx"], graph, default_args("bc_approx", graph)
        )
        assert by_phase[15]["ops"] == [{"tag": 3, "ops": ["RowAppend _in_nbrs"]}]
        assert ["Select(first) _gm_lev0", "put _gm_fin2 and"] in [
            entry["ops"] for entry in by_phase[9]["ops"]
        ]

    # -- (b) parity matrix ------------------------------------------------

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("partitioning", ("hash", "range"))
    @pytest.mark.parametrize("scheduling", ("frontier", "dense"))
    def test_parity_matrix(self, programs, graph, alg, scheduling, partitioning):
        graph = graph_for(alg, graph)
        for workers in (1, 2, 4):
            opts = dict(
                scheduling=scheduling, partitioning=partitioning, num_workers=workers
            )
            sim, sim_units = run_traced(programs, graph, alg, "sim", **opts)
            for traced in (False, True):
                tracer = Tracer() if traced else None
                col, totals = run_counted(
                    programs, graph, alg, "columnar", tracer=tracer, **opts
                )
                assert col.metrics.vectorized_phases == [
                    f"phase{p}" for p in self.EXPECTED[alg]
                ]
                assert_parity(sim, col)
                if alg in ALL_KERNEL:
                    assert totals["scalar_vertices"] == totals["scalar_records"] == 0
                    assert totals["bulk_records"] > 0
                if traced:
                    assert makespan(tracer.events) == sim_units

    FORMS = """
    Procedure forms(G: Graph, age: N_P<Int>, member: N_P<Int>, w: N_P<Double>;
                    oi: N_P<Int>, od: N_P<Double>, ob: N_P<Bool>): Double {
      Int lo = 1000000;
      Int hi = 0;
      Bool anyone = False;
      Bool everyone = True;
      Double prod = 1.0;
      Foreach (n: G.Nodes) {
        Int half = n.age / 2;
        Double r = (n.member == 1) ? (Double) half : n.w * 0.5;
        n.oi = (n.age % 7) - |half - 20|;
        n.od = r / 3.0 + (Double) (n.Degree() - n.InDegree());
        n.ob = (n.age > 30 && n.member == 1) || n.w < 0.25;
        lo min= n.age;
        hi max= n.age - half;
        anyone |= n.age > 60;
        everyone &= n.age > 10;
        prod *= 1.0 + n.w / 100.0;
      }
      Foreach (n: G.Nodes)[n.ob] {
        n.oi min= n.age - 50;
        n.od max= 2.5;
        If (n.age % 2 == 0) { n.oi += -n.age; } Else { n.od += 1.0; }
      }
      Return prod + (Double) (hi - lo);
    }
    """

    def test_expression_and_statement_forms(self, graph):
        # what the six algorithms do not reach: locals, truncating Int
        # division, %, |x|, unary minus, casts, ?:, && / ||, Bool columns,
        # If/Else, field min=/max=, and MIN/MAX/AND/OR/PRODUCT global puts
        import random

        rng = random.Random(5)
        graph.add_node_prop(
            "w", [rng.random() * (rng.random() < 0.9) for _ in range(graph.num_nodes)]
        )
        try:
            program = self.compile(self.FORMS)
            engine, _fields, _master = program.make_engine(graph, backend="columnar")
            assert sorted(engine._phase_kernels) == [0]
            sim = program.run(graph, backend="sim")
            assert_parity(sim, program.run(graph, backend="columnar"))
            assert type(sim.result) is float and len(set(sim.outputs["oi"])) > 10
        finally:
            del graph.node_props["w"]

    @pytest.mark.parametrize(
        "alg,args,kernels",
        [
            ("degree_stats", {}, [0, 2]),
            ("hits", {"max_iter": 5}, [4, 7, 10, 14, 15, 16]),
            ("connected_components", {}, [3, 7, 8, 9]),
        ],
    )
    def test_extra_algorithms(self, graph, alg, args, kernels):
        program = compile_algorithm(alg, emit_java=False).program
        engine, _fields, _master = program.make_engine(graph, args, backend="columnar")
        assert sorted(engine._phase_kernels) == kernels
        assert_parity(
            program.run(graph, args, backend="sim"),
            program.run(graph, args, backend="columnar"),
        )

    # -- (c) edges ----------------------------------------------------------

    @staticmethod
    def small_graph(num_nodes, edges):
        from repro.graphgen.generators import attach_standard_props
        from repro.pregel.graph import Graph

        return attach_standard_props(Graph.from_edges(num_nodes, edges))

    @pytest.mark.parametrize(
        "num_nodes,edges,workers",
        [
            (5, [], 2),                                  # all-sink graph
            (1, [], 1),                                  # single vertex
            (1, [(0, 0)], 4),                            # ... with a self loop
            (3, [(0, 1), (1, 2), (2, 0)], 8),            # workers > vertices
            (6, [(0, 1), (0, 2), (1, 2), (3, 0)], 2),    # sinks + isolated
            # parallel edges and a self loop into one row; 0 and 2 have no
            # in-neighbours
            (4, [(0, 1), (0, 1), (1, 1), (1, 3), (2, 1)], 2),
        ],
    )
    @pytest.mark.parametrize(
        "alg", ("pagerank", "avg_teen_cnt", "conductance", "bc_approx", "sssp")
    )
    def test_degenerate_graphs(self, programs, alg, num_nodes, edges, workers):
        g = self.small_graph(num_nodes, edges)
        sim, sim_units = run_traced(programs, g, alg, "sim", num_workers=workers)
        col, col_units = run_traced(programs, g, alg, "columnar", num_workers=workers)
        assert_parity(sim, col)
        assert col_units == sim_units
        if "_in_nbrs" in col.fields:
            # the bulk build keeps duplicates, in sender order
            assert col.fields["_in_nbrs"] == sim.fields["_in_nbrs"] == in_nbr_rows(g)

    @pytest.mark.parametrize("alg", ("bc_approx", "conductance"))
    def test_reverse_gather_is_the_graphs_in_csr(self, programs, graph, alg, monkeypatch):
        # the prologue's messages are the source, the graph's in-CSR only the
        # oracle: rows and gather must come out equal to it — derived once,
        # at the first in-direction send, however many sends follow
        import numpy as np

        from repro.pregel.backend.columnar import NbrGather

        derived = []
        over_rows = NbrGather.over_rows

        def recording(self, rows):
            derived.append(over_rows(self, rows))
            return derived[-1]

        monkeypatch.setattr(NbrGather, "over_rows", recording)
        engine, fields, _master = programs[alg].make_engine(
            graph, default_args(alg, graph), backend="columnar", num_workers=2
        )
        assert not derived and not any(fields["_in_nbrs"])
        engine.run()
        (reverse,) = derived
        assert fields["_in_nbrs"] == in_nbr_rows(graph)
        assert reverse.targets.tolist() == list(graph.in_sources)
        assert reverse.offsets.tolist() == list(graph.in_offsets)
        assert reverse.owner is engine._csr.owner
        # ... and the forward one is still the graph's own buffers
        TestEnginesViewTheGraphBuffers.assert_views(engine, graph)

    def test_zero_degree_senders_under_the_degree_guard(self, programs):
        # pagerank's payload divides by the out-degree; the kernel, like
        # the generated code, evaluates it only for vertices with neighbours
        g = self.small_graph(4, [(0, 1), (0, 2), (1, 2)])  # 2 and 3 are sinks
        sim = run_on(programs, g, "pagerank", "sim")
        col = run_on(programs, g, "pagerank", "columnar")
        assert col.metrics.vectorized_phases == ["phase0", "phase4"]
        assert_parity(sim, col)

    def test_empty_selection_makes_no_put(self, graph):
        program = self.compile(
            "Procedure p(G: Graph, age: N_P<Int>): Int {\n"
            "  Int s = 0;\n"
            "  Foreach (n: G.Nodes)[n.age > 1000] { s += n.age; }\n"
            "  Return s;\n"
            "}"
        )
        engine, _fields, _master = program.make_engine(graph, backend="columnar")
        assert sorted(engine._phase_kernels) == [0]
        metrics = engine.run()
        # nobody passed the filter: the global was never put, so the
        # master's finalize sees no aggregate (not a zero)
        assert not engine.globals.has_aggregated("s")
        assert metrics.result == program.run(graph, backend="sim").result == 0

    def test_unguarded_division_by_zero_fails_loudly(self):
        program = self.compile(
            "Procedure p(G: Graph; o: N_P<Double>) {\n"
            "  Foreach (n: G.Nodes) { n.o = 1.0 / n.Degree(); }\n"
            "}"
        )
        g = self.small_graph(3, [(0, 1), (1, 2)])  # vertex 2 has degree 0
        engine, _fields, _master = program.make_engine(g, backend="columnar")
        assert sorted(engine._phase_kernels) == [0]
        for backend in ("sim", "columnar"):
            with pytest.raises(ZeroDivisionError):
                program.run(g, backend=backend)

    def test_guard_still_protects_a_division(self):
        program = self.compile(
            "Procedure p(G: Graph; o: N_P<Double>) {\n"
            "  Foreach (n: G.Nodes)[n.Degree() > 0] { n.o = 1.0 / n.Degree(); }\n"
            "}"
        )
        g = self.small_graph(3, [(0, 1), (0, 2), (1, 2)])
        col = program.run(g, backend="columnar")
        assert col.metrics.vectorized_phases == ["phase0"]
        assert col.outputs == program.run(g, backend="sim").outputs == {
            "o": [0.5, 1.0, 0.0]
        }

    def test_duplicate_global_phase_is_refused(self, graph):
        program = self.compile(
            "Procedure p(G: Graph, age: N_P<Int>, member: N_P<Int>): Int {\n"
            "  Int s = 0;\n"
            "  Foreach (n: G.Nodes) { s += n.age; s += n.member; }\n"
            "  Return s;\n"
            "}"
        )
        engine, by_phase = self.decisions(program, graph)
        assert engine._phase_kernels == {}
        assert by_phase[0]["kernel_reason"] == "more than one put to global s"
        assert_parity(program.run(graph, backend="sim"), program.run(graph, backend="columnar"))

    def test_duplicate_tag_phase_is_refused(self, graph):
        import copy

        from repro.codegen.executable import CompiledProgram
        from repro.pregelir.ir import VSendNbrs

        ir = copy.deepcopy(compile_algorithm("pagerank").ir)
        compute = ir.phases[4].compute
        send = next(s for s in compute if isinstance(s, VSendNbrs))
        compute.append(copy.deepcopy(send))
        program = CompiledProgram(ir)
        args = default_args("pagerank", graph)
        engine, by_phase = self.decisions(program, graph, args)
        assert sorted(engine._phase_kernels) == [0]
        assert by_phase[4]["kernel_reason"] == "more than one send on tag 0"
        # ... and the refused phase still runs, scalar, to the same answer
        assert_parity(
            program.run(graph, args, backend="sim"),
            program.run(graph, args, backend="columnar"),
        )

    # -- (c'') first-match receive loops, the in-neighbour build and send ------

    FIRST_MATCH = (
        "Procedure p(G: Graph, age: N_P<Int>, member: N_P<Int>; o: N_P<Int>, q: N_P<Int>): Int {{\n"
        "  Int top = 0;\n"
        "  G.o = 0; G.q = 0;\n"
        "  Foreach (n: G.Nodes)[n.age > 30] {{ Foreach (t: n.Nbrs){guard} {{ {body} }} }}\n"
        "  Return top;\n"
        "}}"
    )

    def first_match_case(self, graph, guard, body):
        program = self.compile(self.FIRST_MATCH.format(guard=guard, body=body))
        _engine, by_phase = self.decisions(program, graph)
        (receiving,) = [
            d for d in by_phase.values() if d["reason"] != "no receive statements"
        ]
        sim = program.run(graph, backend="sim")
        assert_parity(sim, program.run(graph, backend="columnar"))
        assert_parity(sim, self.run_scalar_slab(program, graph))
        return receiving, sim

    @pytest.mark.parametrize(
        "guard,body",
        [
            # the block switches its own guard off
            ("[t.o == 0]", "t.o = 5; top max= t.age;"),
            # ... or leaves it on: every firing stores and puts the same
            ("[t.member == 1]", "t.o = t.age + 2; t.q = 1; top min= 0 - t.age;"),
            # nobody passes: no store and no put at all
            ("[t.age > 1000]", "t.o = 5; top max= 7;"),
        ],
    )
    def test_first_match_loops_vectorize(self, graph, guard, body):
        receiving, sim = self.first_match_case(graph, guard, body)
        assert receiving["reason"] == "vectorized (first-match assign)"
        assert receiving["kernel"]
        assert receiving["ordered_merge"][0]["ordered"] is False
        assert (sim.result != 0) == ("1000" not in guard)

    @pytest.mark.parametrize(
        "guard,body",
        [
            # every record of a receiver whose guard holds stores: the last stays
            ("[t.member == 1]", "t.o = n.age; t.q = 1; top min= 0 - t.age;"),
            # ... of every receiver, without a guard
            ("", "t.o = n.age;"),
            # nobody passes: no store and no put at all
            ("[t.age > 1000]", "t.o = n.age; top max= 7;"),
        ],
    )
    def test_last_writer_loops_vectorize(self, graph, guard, body):
        receiving, sim = self.first_match_case(graph, guard, body)
        assert receiving["reason"] == "vectorized (last-writer assign)"
        assert receiving["kernel"]
        (merge,) = receiving["ordered_merge"]
        assert merge["ordered"] and merge["reason"].startswith("last writer of o")
        assert (len(set(sim.outputs["o"])) > 10) == ("1000" not in guard)

    @pytest.mark.parametrize(
        "guard,body,reason",
        [
            ("[t.o == 0]", "t.o = 5; top += 1;", "sum put inside a receive loop"),
            ("[t.member == 1]", "t.o = n.age; top += 1;", "sum put inside a receive loop"),
            # first writer wins, if the store switches the guard off
            ("[t.o == 0]", "t.o = n.age;", "guarded assign of a message value"),
            # an earlier record's value may fail where the last one does not
            ("", "t.o = n.age + t.age;", "store of a message value that can raise"),
            ("", "t.o = n.age / (t.age + 1);", "first-match guard or value can raise"),
            ("[t.o == 0]", "t.o = 5; top max= n.age;", "guarded put of a message value"),
            ("[t.o < n.age]", "t.o = 5;", "first-match guard reads the message"),
            ("[t.o == 0]", "t.o = t.o + 1;", "first-match value reads a field the block assigns"),
            ("[100 / (t.age + 1) > 2]", "t.o = 5;", "first-match guard or value can raise"),
            (
                "", "If (t.o == 0) { t.o = 5; } Else { t.q = 1; }",
                "guarded receive statements with an else arm",
            ),
        ],
    )
    def test_near_misses_of_first_match_stay_scalar(self, graph, guard, body, reason):
        receiving, _sim = self.first_match_case(graph, guard, body)
        assert receiving["reason"] == reason
        assert receiving["kernel_reason"] == f"scalar receive loop ({reason})"

    def surgery_case(self, programs, graph, alg, operate):
        """``alg`` with ``operate(ir)`` applied: its decisions, and parity of
        the array code with the simulator and with the scalar slab path."""
        import copy

        from repro.codegen.executable import CompiledProgram

        ir = copy.deepcopy(programs[alg].ir)
        operate(ir)
        program = CompiledProgram(ir)
        args = default_args(alg, graph)
        _engine, by_phase = self.decisions(program, graph, args)
        sim = program.run(graph, args, backend="sim")
        assert_parity(sim, program.run(graph, args, backend="columnar"))
        assert_parity(sim, self.run_scalar_slab(program, graph, args))
        return by_phase

    def test_second_loop_reading_the_assigned_field_stays_scalar(self, programs, graph):
        from repro.pregel.globalmap import GlobalOp
        from repro.pregelir.ir import Field, VFieldReduce, VMsgLoop

        def operate(ir):
            # beside the discover loop, a loop (on a tag nobody sends to this
            # phase) folding the level the discover loop assigns
            ir.phases[9].receive.append(
                VMsgLoop(0, [VFieldReduce("delta", GlobalOp.SUM, Field("_gm_lev0"))])
            )

        by_phase = self.surgery_case(programs, graph, "bc_approx", operate)
        assert by_phase[9]["reason"] == "field dependence between receive statements"
        assert not by_phase[9]["kernel"] and by_phase[10]["kernel"]

    def test_a_put_the_compute_body_also_makes_stays_scalar(self, programs, graph):
        from repro.pregel.globalmap import GlobalOp
        from repro.pregelir.ir import Lit, VGlobalPut

        def operate(ir):
            # every vertex also puts the AND's neutral element
            ir.phases[9].compute.append(VGlobalPut("_gm_fin2", GlobalOp.AND, Lit(True)))

        by_phase = self.surgery_case(programs, graph, "bc_approx", operate)
        assert by_phase[9]["reason"] == "more than one put to global _gm_fin2"

    def test_in_and_out_send_on_one_tag_stay_scalar(self, programs, graph):
        from repro.pregelir.ir import VSendNbrs

        def operate(ir):
            ir.phases[7].compute.append(VSendNbrs(0, [], "out"))

        by_phase = self.surgery_case(programs, graph, "conductance", operate)
        assert by_phase[7]["kernel_reason"] == "more than one send on tag 0"
        assert by_phase[7]["reason"] == "vectorized (in-neighbour build)"

    def test_edge_property_on_an_in_send_is_refused(self, programs, graph):
        # the generated scalar program refuses it too: an in-neighbour row
        # holds vertex ids, not edges
        from repro.codegen import vectorize
        from repro.pregelir.ir import Call, VSendNbrs

        program = programs["conductance"]
        engine, fields, _master = program.make_engine(
            graph, default_args("conductance", graph), backend="columnar"
        )
        scope = vectorize._Scope(fields, engine.globals.broadcast, {}, graph)
        builder = vectorize._KernelBuilder(scope, program.schema.tags, engine)
        send = VSendNbrs(1, [Call("edge_prop", ("len",))], "in")
        with pytest.raises(
            vectorize._Unvectorizable, match="edge property on an in-neighbour send"
        ):
            builder.send_nbrs(send)

    def test_append_of_something_else_stays_scalar(self, programs, graph):
        from repro.lang.ast import BinOp
        from repro.pregelir.ir import Bin, Lit, MsgField, VAppendInNbr

        def operate(ir):
            (loop,) = ir.phases[15].receive
            loop.body[0] = VAppendInNbr(Bin(BinOp.ADD, MsgField(0), Lit(0)))

        by_phase = self.surgery_case(programs, graph, "bc_approx", operate)
        reason = "in-neighbour append of something other than a sender id slot"
        assert by_phase[15]["reason"] == reason
        assert by_phase[15]["kernel_reason"] == f"scalar receive loop ({reason})"
        # the reverse sweep still gathers from the rows the scalar loop built
        assert by_phase[10]["kernel"]

    # -- (c') edge-weighted relaxation (sssp phase 9) --------------------------

    @staticmethod
    def weighted(num_nodes, edges):
        """A graph from ``(src, dst, len)`` triples."""
        from repro.pregel.graph import Graph

        return Graph.from_edges(
            num_nodes, [e[:2] for e in edges], {"len": [e[2] for e in edges]}
        )

    @pytest.mark.parametrize(
        "num_nodes,edges,dist",
        [
            # unreachable vertices keep INF
            (5, [(0, 1, 2), (1, 2, 3), (3, 4, 1)], [0, 2, 5, INF_VALUE, INF_VALUE]),
            # a root with nobody to send to
            (3, [(1, 2, 4), (2, 0, 1)], [0, INF_VALUE, INF_VALUE]),
            # parallel edges: two improving messages to vertex 1 in one superstep
            (3, [(0, 1, 5), (0, 1, 3), (0, 2, 1), (2, 1, 1)], [0, 2, 1]),
            # improving messages in descending and in ascending order
            (4, [(0, 3, 9), (1, 3, 7), (2, 3, 8), (3, 0, 1), (3, 1, 1), (3, 2, 1)],
             [0, 10, 10, 9]),
        ],
    )
    def test_sssp_relaxation_edges(self, programs, num_nodes, edges, dist):
        g = self.weighted(num_nodes, edges)
        for workers in (1, 2):
            sim, sim_units = run_traced(programs, g, "sssp", "sim", num_workers=workers)
            col, col_units = run_traced(programs, g, "sssp", "columnar", num_workers=workers)
            assert col.metrics.vectorized_phases == ["phase0", "phase9"]
            assert_parity(sim, col)
            assert col_units == sim_units
            assert col.outputs["dist"] == dist

    def test_sssp_equal_distance_is_no_improvement(self, programs):
        # 0 -> 1 costs 2 directly and 1 + 1 through vertex 2: the second
        # offer ties, so updated_nxt must stay false and the run must end
        g = self.weighted(3, [(0, 1, 2), (0, 2, 1), (2, 1, 1)])
        sim = run_on(programs, g, "sssp", "sim")
        col = run_on(programs, g, "sssp", "columnar")
        assert_parity(sim, col)
        assert col.outputs["dist"] == [0, 2, 1]
        assert col.fields["updated_nxt"].tolist() == [0, 0, 0]
        assert (col.metrics.supersteps, col.metrics.messages) == (4, 3)

    @pytest.mark.parametrize(
        "length,message",
        [
            # dist + len reaches the slot's reserved upper bound
            (2**31 - 5, r"2147483647\.0 in slot 'f0' of message tag 0.*reserved"),
            (2**31 + 3, r"2147483655\.0 in slot 'f0' of message tag 0"),
            # E_P<Int> handed fractions: sim delivers them, the wire cannot
            (2.5, r"non-integral payload value 6\.5 in slot 'f0' of message tag 0"),
            (float("nan"), r"cannot convert float NaN to integer"),
        ],
    )
    def test_sssp_payload_the_wire_cannot_carry(self, programs, length, message):
        g = self.weighted(3, [(0, 1, 4), (1, 2, length)])
        args = default_args("sssp", g)
        programs["sssp"].run(g, args, backend="sim")  # sim has no wire
        errors = []
        for run in (
            functools.partial(programs["sssp"].run, backend="columnar"),
            functools.partial(self.run_scalar_slab, programs["sssp"]),
        ):
            with pytest.raises(ValueError, match=message) as raised:
                run(g, args)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]  # kernel == scalar packer, to the letter

    def relaxation_variant(self, old, new):
        from repro.algorithms.sources import load_source

        source = load_source("sssp")
        assert source.count(old) == 1
        return self.compile(source.replace(old, new))

    @pytest.mark.parametrize(
        "old,new",
        [
            # not strict: min e <= f0 cannot be told from the reduced column
            ("e.len) < s.dist_nxt", "e.len) <= s.dist_nxt"),
            # the wrong way round for a min-reduce
            ("e.len) < s.dist_nxt", "e.len) > s.dist_nxt"),
            # not the value the reduce folds
            ("(n.dist + e.len) < s.dist_nxt", "(n.dist + e.len + 1) < s.dist_nxt"),
            # an and-flag is no existential
            ("s.updated_nxt |=", "s.updated_nxt &="),
        ],
    )
    def test_near_misses_of_the_improve_flag_stay_scalar(self, graph, old, new):
        program = self.relaxation_variant(old, new)
        args = default_args("sssp", graph)
        engine, by_phase = self.decisions(program, graph, args)
        assert sorted(engine._phase_kernels) == [0]
        assert by_phase[9]["kernel_reason"] == (
            "scalar receive loop (field dependence between receive statements)"
        )
        assert_parity(
            program.run(graph, args, backend="sim"),
            program.run(graph, args, backend="columnar"),
        )

    @pytest.mark.parametrize("surgery", ("flag after the reduce", "guarded reduce"))
    def test_misplaced_improve_flag_stays_scalar(self, graph, surgery):
        import copy

        from repro.codegen.executable import CompiledProgram
        from repro.pregelir.ir import Lit, VIf

        ir = copy.deepcopy(compile_algorithm("sssp").ir)
        body = ir.phases[9].receive[0].body
        if surgery == "flag after the reduce":
            body.reverse()  # dist_nxt min= e; flag |= e < dist_nxt: never fires
        else:
            body[1] = VIf(Lit(True), [body[1]])
        program = CompiledProgram(ir)
        args = default_args("sssp", graph)
        engine, by_phase = self.decisions(program, graph, args)
        assert sorted(engine._phase_kernels) == [0]
        assert by_phase[9]["reason"] == "field dependence between receive statements"
        sim = program.run(graph, args, backend="sim")
        assert_parity(sim, program.run(graph, args, backend="columnar"))
        if surgery == "flag after the reduce":
            assert sim.metrics.supersteps == 3

    def test_max_relaxation_vectorizes_too(self, graph):
        # the mirror image, with the comparison's operands swapped
        program = self.compile(
            "Procedure widest(G: Graph, len: E_P<Int>; far: N_P<Int>) {\n"
            "  N_P<Int> nxt; N_P<Bool> up; N_P<Bool> up_nxt;\n"
            "  G.far = -INF; G.nxt = -INF; G.up = True; G.up_nxt = False;\n"
            "  Int k = 0;\n"
            "  While (k < 3) {\n"
            "    Foreach (n: G.Nodes)[n.up] { Foreach (s: n.Nbrs) {\n"
            "      Edge e = s.ToEdge();\n"
            "      s.up_nxt |= s.nxt < e.len - k;\n"
            "      s.nxt max= e.len - k;\n"
            "    } }\n"
            "    G.far = G.nxt; G.up = G.up_nxt; G.up_nxt = False;\n"
            "    k++;\n"
            "  }\n"
            "}"
        )
        engine, by_phase = self.decisions(program, graph)
        flagged = [d for d in by_phase.values() if d["reason"].endswith("(improve-flag max)")]
        assert flagged and all(d["kernel"] for d in flagged)
        sim = program.run(graph, backend="sim")
        assert_parity(sim, program.run(graph, backend="columnar"))
        assert len(set(sim.outputs["far"])) > 3

    SENTINEL = (
        "Procedure p(G: Graph, w: N_P<{t}>; o: N_P<{t}>) {{\n"
        "  G.o = +INF;\n"
        "  Foreach (n: G.Nodes) {{ Foreach (t: n.Nbrs) {{ t.o {update}; }} }}\n"
        "}}"
    )

    @pytest.mark.parametrize(
        "t,update,reason",
        [
            ("Int", "min= n.w", None),
            ("Int", "+= n.w + t.w", None),
            # Python ints on the scalar path, doubles in a decoded column
            ("Int", "+= n.w * t.w", "integer arithmetic on an INF-sentinel payload"),
            # int64 -> double rounds above 2**53
            ("Long", "min= n.w", "slot f0 carries an INF sentinel in 64 bits"),
        ],
    )
    def test_sentinel_slots_in_receivers(self, graph, t, update, reason):
        graph.add_node_prop("w", [(v * 37) % 101 - 20 for v in range(graph.num_nodes)])
        try:
            program = self.compile(self.SENTINEL.format(t=t, update=update))
            _engine, by_phase = self.decisions(program, graph)
            receiving = [d for d in by_phase.values() if d["reason"] != "no receive statements"]
            assert len(receiving) == 1
            if reason is None:
                assert receiving[0]["eligible"] and receiving[0]["kernel"]
            else:
                assert receiving[0]["reason"] == reason
                assert receiving[0]["kernel_reason"] == f"scalar receive loop ({reason})"
            sim = program.run(graph, backend="sim")
            assert_parity(sim, program.run(graph, backend="columnar"))
            assert INF_VALUE in sim.outputs["o"] or t == "Int"
        finally:
            del graph.node_props["w"]

    BOOL_PUSH = (
        "Procedure p(G: Graph, age: N_P<Int>, member: N_P<Int>; any: N_P<Bool>, all: N_P<Bool>) {\n"
        "  Foreach (n: G.Nodes) { n.any = n.age > 65; n.all = n.member == 0; }\n"
        "  Foreach (n: G.Nodes) { Foreach (t: n.Nbrs) {\n"
        "    t.any |= n.age < 10;\n"
        "    t.all &= n.age > 12;\n"
        "  } }\n"
        "}"
    )

    def test_bool_reductions_in_a_receive_loop(self, graph):
        program = self.compile(self.BOOL_PUSH)
        engine, by_phase = self.decisions(program, graph)
        assert [d["reason"] for d in by_phase.values() if d["eligible"]] == ["vectorized"]
        assert all(d["kernel"] for d in by_phase.values())
        sim = program.run(graph, backend="sim")
        assert_parity(sim, program.run(graph, backend="columnar"))
        for name in ("any", "all"):
            assert {False, True} == set(sim.outputs[name])

    def test_bool_reduction_into_an_int_column_stays_scalar(self, graph):
        import copy

        from repro.codegen.executable import CompiledProgram
        from repro.lang import types as ty

        ir = copy.deepcopy(self.compile(self.BOOL_PUSH).ir)
        ir.vertex_fields["any"] = ty.PrimType(ty.Prim.INT)
        program = CompiledProgram(ir)
        _engine, by_phase = self.decisions(program, graph)
        assert "or-reduction into a non-Bool column" in {
            d["reason"] for d in by_phase.values()
        }

    @pytest.mark.parametrize("op", ("OR", "AND"))
    def test_bool_put_fold_matches_the_scalar_chain(self, op):
        import random

        import numpy as np

        from repro.pregel.fold import OPEN, GlobalOp, combine, fold

        rng = random.Random(11)
        gop = GlobalOp[op]
        cases = [[0] * 9, [1] * 9, [0], [1], [False, True, False], [True, True]]
        cases += [[rng.randrange(2) for _ in range(rng.randrange(1, 40))] for _ in range(50)]
        cases += [[rng.random() < 0.5 for _ in range(7)] for _ in range(10)]
        cases += [[0, 3, 0, 2], [2, 0, 3], [0.0, 2.5, 0.0]]  # returns an *operand*
        for items in cases:
            want = functools.reduce(lambda a, b: combine(gop, a, b), items)
            got = fold(gop, OPEN, np.asarray(items))
            assert got == want and type(got) is type(want), (op, items)

    def test_empty_selection_makes_no_bool_put(self, graph):
        program = self.compile(
            "Procedure p(G: Graph, age: N_P<Int>): Bool {\n"
            "  Bool seen = False;\n"
            "  Foreach (n: G.Nodes)[n.age > 1000] { seen |= n.age > 5; }\n"
            "  Return seen;\n"
            "}"
        )
        engine, _fields, _master = program.make_engine(graph, backend="columnar")
        assert sorted(engine._phase_kernels) == [0]
        metrics = engine.run()
        assert not engine.globals.has_aggregated("seen")
        assert metrics.result is program.run(graph, backend="sim").result is False

    # -- (d) composition ------------------------------------------------------

    @pytest.mark.parametrize(
        "feature", ("ft", "tracer", "mem", "combiners", "voting", "net", "schemaless")
    )
    def test_kernels_disengage_with_the_slab_path(self, programs, graph, feature, tmp_path):
        """The composition table, cell by cell: a tracer, a lossy transport,
        ft, combiners and vote-to-halt cost no array code; a limited budget
        and a program without a schema are refused, never run on another
        engine."""
        from repro.obs import Tracer
        from repro.pregel.backend.columnar import MEM_REFUSAL
        from repro.pregel.mem import MemPlan, MemoryManager

        opts = {
            "ft": lambda: {"ft": FaultTolerance(FaultPlan(checkpoint_every=2))},
            "tracer": lambda: {"tracer": Tracer()},
            "mem": lambda: {
                "mem": MemoryManager(
                    MemPlan(budget_bytes=1 << 30, spill_dir=str(tmp_path))
                )
            },
            "combiners": lambda: {"use_combiners": True},
            "voting": lambda: {"use_voting": True},
            "net": lambda: {"transport": lossy_transport()},
            "schemaless": lambda: {},
        }[feature]
        args = default_args("pagerank", graph)
        if feature == "schemaless":
            with pytest.raises(BackendUnsupported, match="needs a program schema"):
                ColumnarEngine(graph, vertex_compute=None, message_size=len, schema=None)
            return
        if feature == "mem":
            with pytest.raises(BackendUnsupported, match=re.escape(MEM_REFUSAL)):
                programs["pagerank"].make_engine(graph, args, backend="columnar", **opts())
            return
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, args, backend="columnar", **opts()
        )
        assert engine.metrics.backend == "columnar"
        assert isinstance(engine, ColumnarEngine) and engine._plane is not None
        plain, counted = run_counted(programs, graph, "pagerank", "columnar")
        col, totals = run_counted(programs, graph, "pagerank", "columnar", **opts())
        assert sorted(engine._phase_kernels) == self.EXPECTED["pagerank"]
        assert col.metrics.vectorized_phases == plain.metrics.vectorized_phases != []
        assert totals["scalar_records"] == totals["scalar_vertices"] == 0
        assert totals["kernel_vertices"] == counted["kernel_vertices"]
        if feature == "combiners":  # the handlers take the folded records
            assert 0 < totals["bulk_records"] < counted["bulk_records"]
        else:
            assert totals == counted
        sim = programs["pagerank"].run(graph, args, backend="sim", **opts())
        col = programs["pagerank"].run(graph, args, backend="columnar", **opts())
        assert_parity(sim, col)

    # -- wire range (satellite bugfix) ------------------------------------------

    WIRE = (
        "Procedure p(G: Graph, age: N_P<Int>{extra}; o: N_P<Int>) {{\n"
        "  Foreach (n: G.Nodes) {{ Foreach (t: n.Nbrs) {{ {body} }} }}\n"
        "}}"
    )

    @pytest.mark.parametrize(
        "extra,body,kernel",
        [
            # loop-invariant payload, staged by the phase kernel
            ("", "t.o += n.age;", True),
            # per-edge payload: with the array code taken out (scalar sends
            # through MessageCodec.pack), and staged by the phase kernel
            (", len: E_P<Int>", "Edge e = t.ToEdge(); t.o += n.age + e.len;", False),
            (", len: E_P<Int>", "Edge e = t.ToEdge(); t.o += n.age + e.len;", True),
        ],
    )
    def test_int_payload_outside_the_wire_slot(self, extra, body, kernel):
        program = self.compile(self.WIRE.format(extra=extra, body=body))
        g = self.small_graph(3, [(0, 1), (1, 2)])
        engine, _fields, _master = program.make_engine(g, backend="columnar")
        assert 0 in engine._phase_kernels
        run = program.run if kernel else functools.partial(self.run_scalar_slab, program)
        assert_parity(program.run(g, backend="sim"), run(g, backend="columnar"))
        g.node_props["age"] = [2**31 + 5, 1, 2]
        assert program.run(g, backend="sim").outputs["o"][1] >= 2**31 + 5
        with pytest.raises(ValueError, match=r"214748365\d.*slot 'f0' of message tag 0"):
            run(g, backend="columnar")

    def test_a_fold_outside_the_wire_slot(self):
        # each send fits the 32-bit slot, the sums folded from them do not:
        # the simulator folds off the wire; the slab hosts put the folded
        # record on it, and refuse it as they would a send of that value
        program = self.compile(
            "Procedure p(G: Graph, age: N_P<Int>; o: N_P<Int>) {\n"
            "  G.o = 0;\n"
            "  Foreach (n: G.Nodes) { Foreach (t: n.Nbrs) { t.o += n.age; } }\n"
            "}"
        )
        g = load_graph("twitter", 0.05)
        g.node_props["age"] = [2**30] * g.num_nodes
        opts = dict(num_workers=2, use_combiners=True)
        assert max(program.run(g, backend="sim", **opts).outputs["o"]) == 124_554_051_584
        wire = r"cannot encode integral payload value \d+ in slot 'f0' of message tag 0: "
        with pytest.raises(ValueError, match=wire) as exc:
            program.run(g, backend="columnar", **opts)
        assert "\n" not in str(exc.value)
        if mp_available():  # the worker's error, as its traceback's last line
            with pytest.raises(RuntimeError, match="mp worker failed") as exc:
                program.run(g, backend="mp", **opts)
            assert re.match("ValueError: " + wire, str(exc.value).splitlines()[-1])

    def test_codec_names_tag_slot_and_value(self):
        schema = compile_algorithm("bipartite_matching").program.schema
        codec = MessageCodec(schema)
        with pytest.raises(ValueError, match=r"-2147483649.*slot 'f0' of message tag 1"):
            codec.pack[1]((1, -(2**31) - 1))
        # the INF-sentinel encoder raises the same error
        sssp = MessageCodec(compile_algorithm("sssp").program.schema)
        with pytest.raises(ValueError, match=r"2147483647.*slot 'f0' of message tag 0.*reserved"):
            sssp.pack[0]((0, 2**31 - 1))
        # a fractional value is named the same way, on either kind of slot
        with pytest.raises(ValueError, match=r"non-integral.*1\.5.*slot 'f0' of message tag 1"):
            codec.pack[1]((1, 1.5))
        with pytest.raises(ValueError, match=r"non-integral.*5\.5.*slot 'f0' of message tag 0"):
            sssp.pack[0]((0, 5.5))
        assert sssp.unpack[0](sssp.pack[0]((0, 5.0)), 1) == [(0, 5)]
        # a wrong *type* is still the codec's own error
        import struct

        with pytest.raises(struct.error):
            codec.pack[1]((1, "1"))


@needs_mp
class TestPartitionKernels:
    """An mp worker runs the same compiled array code as the columnar
    engine, over its partition and behind the real barrier: selected per
    phase from the IR, bit-identical to the simulator in every cell, and
    kept when a tracer, fault tolerance, a memory budget or the tcp
    transport is attached."""

    @pytest.fixture(scope="class")
    def small(self):
        return load_graph("twitter", 0.02)  # 100 vertices: forks dominate

    @pytest.mark.parametrize("partitioning", ("hash", "range"))
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_parity_matrix(self, programs, small, alg, partitioning):
        small = graph_for(alg, small)
        for workers in (1, 2, 3, 4):
            opts = dict(num_workers=workers, partitioning=partitioning)
            sim, sim_units = run_traced(programs, small, alg, "sim", **opts)
            for traced in (False, True):
                for transport in ("shm", "tcp"):
                    tracer = Tracer() if traced else None
                    mp, totals = run_counted(
                        programs, small, alg, "mp", transport_mode=transport, tracer=tracer,
                        **opts,
                    )  # fmt: skip
                    assert_parity(sim, mp)
                    if traced:
                        assert makespan(tracer.events) == sim_units
                    kernels = TestPhaseKernels.EXPECTED[alg]
                    assert {f"phase{s}" for s in kernels} <= set(mp.metrics.vectorized_phases)
                    assert totals["kernel_vertices"] > 0
                    if alg in ALL_KERNEL:
                        assert totals["scalar_vertices"] == totals["scalar_records"] == 0
                        assert totals["bulk_records"] > 0

    @pytest.mark.parametrize("kind", ("complete", "generated"))
    def test_last_writer_order_matrix(self, programs, kind):
        # Select(last) keeps, per receiver, the last record in delivery
        # order — ascending sender — which several workers' parts only have
        # once merged by sender.  K(6, 9) is the worst case: every girl has
        # 6 suitors, every boy up to 9 answers.
        from repro.graphgen.generators import attach_standard_props, bipartite

        alg = "bipartite_matching"
        if kind == "complete":
            g = attach_standard_props(bipartite(6, 9, num_edges=54))
            cells = [(w, p, "shm") for w in (1, 2, 3, 4, 8) for p in ("hash", "range")]
            cells.append((3, "hash", "tcp"))
        else:
            g = load_graph("bipartite", 0.15)
            cells = [(w, p, "shm") for w in (1, 2, 3, 4) for p in ("hash", "range")]
        _engine, by_phase = TestPhaseKernels.decisions(programs[alg], g)
        for phase, field in ((3, "suitor"), (5, "suitor"), (8, "match")):
            (merge,) = by_phase[phase]["ordered_merge"]
            assert merge["ordered"] and merge["reason"] == f"last writer of {field}"
        for workers, partitioning, transport in cells:
            opts = dict(num_workers=workers, partitioning=partitioning)
            sim = run_on(programs, g, alg, "sim", **opts)
            col, col_totals = run_counted(programs, g, alg, "columnar", **opts)
            mp, mp_totals = run_counted(
                programs, g, alg, "mp", transport_mode=transport, **opts
            )
            assert sim.result > 0
            for run, totals in ((col, col_totals), (mp, mp_totals)):
                assert_parity(sim, run)
                assert run.outputs["match"] == sim.outputs["match"]
                assert run.result == sim.result
                assert totals["scalar_vertices"] == totals["scalar_records"] == 0
                assert totals["bulk_records"] > 0

    def test_float_sums_interleave_across_three_workers(self, programs, graph):
        # hash partitioning deals consecutive vertices to different workers:
        # a receiver's pagerank contributions and the per-vertex `diff` puts
        # arrive as three runs that must be merged by sender / by vid before
        # the (non-associative) float folds — the receiver's ordered merge
        # and the parent's put fold respectively
        opts = dict(num_workers=3, partitioning="hash")
        sim = run_on(programs, graph, "pagerank", "sim", **opts)
        mp, totals = run_counted(programs, graph, "pagerank", "mp", **opts)
        assert_parity(sim, mp)
        assert totals["scalar_vertices"] == totals["scalar_records"] == 0
        assert totals["bulk_records"] > 0
        # ... and the vectorizer says which merges those are
        _engine, by_phase = TestPhaseKernels.decisions(
            programs["pagerank"], graph, default_args("pagerank", graph)
        )
        assert [m["ordered"] for m in by_phase[4]["ordered_merge"]] == [True]
        assert by_phase[4]["ordered_merge"][0]["reason"].startswith("float sum into ")
        _engine, by_phase = TestPhaseKernels.decisions(
            programs["sssp"], graph, default_args("sssp", graph)
        )
        assert by_phase[9]["ordered_merge"] == [
            {"tag": 0, "ordered": False, "reason": "order-insensitive reduces"}
        ]

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_voting_keeps_the_kernels(self, programs, graph, alg):
        # a kernel computes the un-voted vertices — of the graph on
        # columnar, of its partition in an mp worker — and a generated
        # program never votes: the same array code, over every vertex
        g = graph_for(alg, graph)
        sim = run_on(programs, g, alg, "sim", num_workers=2, use_voting=True)
        for backend in ("columnar", "mp"):
            plain, counted = run_counted(programs, g, alg, backend, num_workers=2)
            run, totals = run_counted(
                programs, g, alg, backend, num_workers=2, use_voting=True
            )
            assert_parity(sim, run)
            assert run.metrics.vectorized_phases == plain.metrics.vectorized_phases != []
            assert totals == counted
            assert totals["scalar_vertices"] == totals["scalar_records"] == 0

    @pytest.mark.parametrize("feature", ("tracer", "ft", "mem", "tcp", "combiners"))
    def test_attachments_do_not_cost_the_kernels(self, programs, graph, feature, tmp_path):
        from repro.obs import Tracer
        from repro.pregel.mem import MemPlan, MemoryManager

        make = {
            "combiners": lambda: {"use_combiners": True},
            "tracer": lambda: {"tracer": Tracer()},
            "ft": lambda: {"ft": FaultTolerance(FaultPlan(checkpoint_every=2))},
            "mem": lambda: {
                "mem": MemoryManager(MemPlan(budget_bytes=1 << 30, spill_dir=str(tmp_path)))
            },
            "tcp": lambda: {"transport_mode": "tcp"},
        }[feature]
        for alg in ALL_KERNEL:
            g = graph_for(alg, graph)
            sim_opts = {} if feature == "tcp" else make()
            sim = run_on(programs, g, alg, "sim", num_workers=2, **sim_opts)
            mp, totals = run_counted(programs, g, alg, "mp", num_workers=2, **make())
            assert_parity(sim, mp)
            assert totals["scalar_vertices"] == totals["scalar_records"] == 0
            assert totals["kernel_vertices"] == graph.num_nodes * sim.metrics.supersteps

    @pytest.mark.parametrize(
        "num_nodes,edges,workers",
        [
            (0, [], 2),                                  # empty graph
            (1, [(0, 0)], 4),                            # workers > vertices
            (3, [(0, 1), (1, 2), (2, 0)], 8),            # ... most partitions empty
            (6, [(0, 1), (0, 2), (1, 2), (3, 0)], 4),    # sinks + isolated
            # parallel edges and a self loop into one row, built across workers
            (4, [(0, 1), (0, 1), (1, 1), (1, 3), (2, 1)], 3),
        ],
    )
    def test_degenerate_partitions(self, programs, num_nodes, edges, workers):
        g = TestPhaseKernels.small_graph(num_nodes, edges)
        algs = ("pagerank", "avg_teen_cnt", "conductance")
        if num_nodes:  # these two start from a vertex
            algs += ("sssp", "bc_approx")
        for alg in algs:
            for partitioning in ("hash", "range"):
                opts = dict(num_workers=workers, partitioning=partitioning)
                sim = run_on(programs, g, alg, "sim", **opts)
                mp, totals = run_counted(programs, g, alg, "mp", **opts)
                assert_parity(sim, mp)
                if alg in ALL_KERNEL:
                    assert totals["scalar_vertices"] == 0
                if "_in_nbrs" in mp.fields:
                    assert mp.fields["_in_nbrs"] == in_nbr_rows(g)

    # -- recovery keeps the kernels ----------------------------------------

    @pytest.mark.parametrize("recovery", ("confined", "rollback"))
    @pytest.mark.parametrize("transport", ("shm", "tcp"))
    @pytest.mark.parametrize("alg", ("pagerank", "sssp"))
    def test_kill_in_a_kernel_phase(self, programs, graph, alg, transport, recovery):
        # The kill lands entering a superstep whose phase is a kernel with a
        # put.  A seed ships what the exchange would have left — raw parts —
        # so the re-forked worker (confined) or every worker (rollback, from
        # the re-packed checkpoint) re-runs the step as the kernel it is.
        workers, victim = 3, 1
        sim = run_on(programs, graph, alg, "sim", num_workers=workers)
        mp, totals = run_counted(
            programs, graph, alg, "mp", num_workers=workers, transport_mode=transport,
            ft=FaultTolerance(FaultPlan(
                checkpoint_every=2, crashes=(CrashEvent(victim, 3, "kill"),), recovery=recovery,
            )),
            exchange_deadline=10.0,
        )
        assert mp.metrics.restarts == 1
        assert_parity(sim, mp)
        assert totals["scalar_vertices"] == totals["scalar_records"] == 0
        assert totals["kernel_vertices"] > 0

    @pytest.mark.parametrize("recovery", ("confined", "rollback"))
    @pytest.mark.parametrize("transport", ("shm", "tcp"))
    @pytest.mark.parametrize("superstep", (1, 17), ids=("build", "reverse-sweep"))
    def test_kill_around_the_in_neighbour_rows(
        self, programs, small, superstep, transport, recovery
    ):
        # bc on the 100-vertex graph: superstep 1 is the §4.3 build, 17 an
        # in-direction send of the first reverse sweep.  A kill entering the
        # build rolls back to the checkpoint taken *before* the prologue —
        # the rows are rebuilt from empty, not appended to twice; one in the
        # reverse sweep makes the re-forked worker derive its reverse gather
        # from rows it inherited rather than built.
        workers, victim = 3, 1
        sim = run_on(programs, small, "bc_approx", "sim", num_workers=workers)
        mp, totals = run_counted(
            programs, small, "bc_approx", "mp", num_workers=workers, transport_mode=transport,
            ft=FaultTolerance(FaultPlan(
                checkpoint_every=4, crashes=(CrashEvent(victim, superstep, "kill"),),
                recovery=recovery,
            )),
            exchange_deadline=10.0,
        )
        assert mp.metrics.restarts == 1
        assert_parity(sim, mp)
        assert mp.fields["_in_nbrs"] == sim.fields["_in_nbrs"] == in_nbr_rows(small)
        assert totals["scalar_vertices"] == totals["scalar_records"] == 0
        assert totals["kernel_vertices"] > 0

    def test_rollback_ft_decodes_the_log_only_at_checkpoints(
        self, programs, graph, monkeypatch
    ):
        # the parent keeps each exchange's parts raw; under rollback nothing
        # asks for the {dst: msgs} view but a checkpoint (confined recovery
        # would log it every superstep)
        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), backend="mp", num_workers=2,
            ft=FaultTolerance(FaultPlan(checkpoint_every=4, recovery="rollback")),
        )
        decoded_at = []
        decode = MessageCodec.by_receiver

        def counting(codec, tag, parts):
            decoded_at.append(engine.superstep)  # parent-side calls only
            return decode(codec, tag, parts)

        monkeypatch.setattr(MessageCodec, "by_receiver", counting)
        metrics = engine.run()
        assert metrics.supersteps > 8 and metrics.checkpoints_taken >= 3
        assert decoded_at and set(decoded_at) <= {4, 8, 12}
        # one tag, one log entry per worker, one decode each per checkpoint
        assert len(decoded_at) == 2 * len(set(decoded_at))

    def test_put_fold_merges_the_workers_puts_by_vid(self, programs, graph):
        import numpy as np

        from repro.pregel.globalmap import GlobalObjectMap, GlobalOp

        engine, _fields, _master = programs["pagerank"].make_engine(
            graph, default_args("pagerank", graph), backend="mp", num_workers=3
        )
        values = [1.0 / (4 + v * v) for v in range(9)]
        flags = [v % 4 == 3 for v in range(9)]
        puts = [
            # per worker: "s" as a kernel's float arrays, "any" as a
            # generated loop's lists
            ("s", GlobalOp.SUM, np.array([0, 3, 6]), np.array(values[0::3])),
            ("s", GlobalOp.SUM, np.array([1, 4, 7]), np.array(values[1::3])),
            ("s", GlobalOp.SUM, np.array([2, 5, 8]), np.array(values[2::3])),
            ("any", GlobalOp.OR, [1, 4, 7], flags[1::3]),
            ("any", GlobalOp.OR, [0, 3, 6], flags[0::3]),
            ("any", GlobalOp.OR, [2, 5, 8], flags[2::3]),
        ]
        engine._fold_puts(puts)
        want = GlobalObjectMap()
        for v in range(9):
            want.put_reduce("s", GlobalOp.SUM, values[v])
            want.put_reduce("any", GlobalOp.OR, flags[v])
        assert engine.globals._pending == want._pending
        assert list(engine.globals._pending) == ["s", "any"]
        # the order is observable: worker by worker the sum rounds otherwise
        by_worker = values[0::3] + values[1::3] + values[2::3]
        assert functools.reduce(lambda a, b: a + b, by_worker) != want._pending["s"]
        with pytest.raises(ValueError, match="conflicting reductions on global 's'"):
            engine._fold_puts([("s", GlobalOp.MIN, np.array([0]), np.array([1.0]))])


@needs_mp
class TestDenseSends:
    """A send along all of an mp worker's rows goes from the split its
    partition gather cached straight into the segment — or the inline
    body, or a tcp frame — and never through ``split_by_owner``
    (``mp.split_records`` counts what does): sim ≡ columnar ≡ mp on
    outputs and ``parity_key()`` for the programs that send along every
    edge, through a kill and its recovery too."""

    ARGS = {"hits": {"max_iter": 5}, "degree_stats": {}}
    #: (workers, partitioning, extra mp options)
    CELLS = [
        *((w, p, {}) for w in (1, 2, 3, 4) for p in ("hash", "range")),
        (3, "range", {"transport_mode": "tcp"}),
        (2, "hash", {"mp_slab_bytes": 64}),  # no segment room: every part inline
        (  # kill:1@3, or at the last superstep of a shorter run
            3, "hash", {
                "ft": lambda last: FaultTolerance(
                    FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, min(3, last), "kill"),))
                ),
                "exchange_deadline": 10.0,
            },
        ),
    ]  # fmt: skip

    @pytest.fixture(scope="class")
    def dense(self):
        return load_graph("twitter", 0.05)

    @pytest.mark.parametrize("alg", ("pagerank", "conductance", "avg_teen_cnt", "hits", "degree_stats"))
    def test_parity_matrix(self, dense, alg):
        from repro.obs import MetricsRegistry

        program = compile_algorithm(alg, emit_java=False).program
        args = self.ARGS.get(alg) or default_args(alg, dense)
        splits = set()
        for workers, partitioning, extra in self.CELLS:
            opts = dict(num_workers=workers, partitioning=partitioning)
            sim = program.run(dense, args, backend="sim", **opts)
            assert_parity(sim, program.run(dense, args, backend="columnar", **opts))
            registry = MetricsRegistry()
            mp = program.run(
                dense, args, backend="mp", metrics_registry=registry, **opts,
                **{k: v(sim.metrics.supersteps - 1) if callable(v) else v for k, v in extra.items()},
            )  # fmt: skip
            assert_parity(sim, mp)
            assert mp.metrics.restarts == ("ft" in extra)
            snap = registry.snapshot()
            totals = {
                name: sum(row["value"] for row in snap[f"mp.{name}"]["series"])
                for name in ("split_records", "bulk_records", "scalar_records", "scalar_vertices")
            }
            assert totals["scalar_vertices"] == totals["scalar_records"] == 0
            if not mp.metrics.restarts:  # a recovery sends some supersteps twice
                splits.add(totals["split_records"])
            if alg == "pagerank":
                assert totals["split_records"] == 0 < totals["bulk_records"]
            elif alg in ("hits", "conductance"):  # and in-direction sends
                assert 0 < totals["split_records"] < totals["bulk_records"]
        # which sends split is the program's, not the placement's
        assert len(splits) == 1


class TestOneOutbox:
    """The simulator stages every message in one ``{dst: msgs}`` outbox and
    cuts per-destination-worker batches from it only at the barrier."""

    @pytest.mark.parametrize("alg", ["pagerank", "sssp"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("partitioning", ["hash", "range"])
    def test_route_count_totals_are_what_each_worker_received(
        self, programs, graph, alg, workers, partitioning
    ):
        # per delivery, ascending, an empty batch skipped: the totals the
        # simulated channel is handed are the messages that worker's
        # receivers hold once the outbox is installed
        transport = lossy_transport()
        engine, _fields, _master = programs[alg].make_engine(
            graph, default_args(alg, graph), num_workers=workers,
            partitioning=partitioning, transport=transport,
        )  # fmt: skip
        received = []
        deliver = engine._deliver

        def counted_deliver():
            deliver()
            totals = [0] * workers
            for dst in engine._touched:
                totals[engine._worker_of[dst]] += len(engine._inbox_slots[dst])
            received.extend((wid, total) for wid, total in enumerate(totals) if total)

        engine._deliver = counted_deliver
        metrics = engine.run()
        assert transport.batches == received
        assert {wid for wid, _total in received} == set(range(workers))
        assert metrics.parity_key() == run_on(
            programs, graph, alg, "sim", num_workers=workers, partitioning=partitioning
        ).metrics.parity_key()

    def test_a_traced_run_sends_as_an_untraced_one(self, programs, graph, monkeypatch):
        # a recording tracer adds no send path: the engine keeps its class's
        # send, and pagerank's rows go out in one pass, never block by block;
        # what each worker received is read at the barrier, as columnar does
        from repro.obs import deterministic_events

        calls = []
        block = PregelEngine._send_block

        def counted(engine, *args):
            calls.append(args)
            return block(engine, *args)

        monkeypatch.setattr(PregelEngine, "_send_block", counted)
        streams = {}
        for backend in ("sim", "columnar"):
            tracer = Tracer()
            engine, _fields, _master = programs["pagerank"].make_engine(
                graph, default_args("pagerank", graph), backend=backend, num_workers=2,
                tracer=tracer,
            )  # fmt: skip
            engine.run()
            streams[backend] = deterministic_events(tracer.events)
            if backend == "sim":
                assert "send" not in vars(engine)
                assert calls == []
        received = [e["det"]["worker_received"] for e in streams["sim"] if e["name"] == "superstep"]
        assert any(map(any, received))
        assert streams["sim"] == streams["columnar"]
