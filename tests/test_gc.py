"""A run pays no cyclic garbage collection, and loses nothing by it.

``PregelEngine.run`` pauses the cyclic collector for the run (the ``mp``
workers fork inside it and inherit the pause).  That is lossless because
the run path allocates no reference cycles: each cell here collects,
pauses the collector, runs an engine and asserts that ``gc.collect()``
then finds nothing — over the six algorithms on every backend, the
manual baselines, and pagerank and bc_approx under every composition the
engines run.  The exit-path tests hold ``run()`` to leaving the collector
as it found it.  The last tests drop a finished engine: on ``sim`` it dies
by reference count; the slab engines keep the cycles named there.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.algorithms.manual import MANUAL_PROGRAMS
from repro.algorithms.sources import ALGORITHMS
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.obs import MetricsRegistry, Tracer
from repro.pregel import PregelEngine
from repro.pregel.backend.mp import mp_available
from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance
from repro.pregel.mem import MemoryManager, MemPlan
from repro.pregel.net import NetFaultPlan, SimulatedTransport
from repro.pregel.supervisor import Supervisor, SupervisorPlan

SCALE = 0.05
WORKERS = 2

BACKENDS = (
    "sim",
    "columnar",
    pytest.param(
        "mp", marks=pytest.mark.skipif(not mp_available(), reason="needs fork + shared memory")
    ),
)


@pytest.fixture(scope="module")
def programs():
    return {alg: compile_algorithm(alg, emit_java=False).program for alg in ALGORITHMS}


def _graph(alg: str):
    return load_graph(applicable_graphs(alg)[0], SCALE)


#: the argument that sets how long a run is
LENGTH = {"pagerank": "max_iter", "bc_approx": "K"}


def _args(alg: str, graph, size: int = 5) -> dict:
    """The evaluation arguments, pagerank's ``max_iter`` or bc_approx's
    ``K`` at ``size``."""
    args = default_args(alg, graph)
    if alg in LENGTH:
        args[LENGTH[alg]] = size
    return args


def collected_after(call) -> int:
    """What the collector frees of the garbage ``call()`` leaves: collect,
    pause the collector, call, collect."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module", autouse=True)
def warm(programs):
    """One run per backend first: what a first run imports (the mp
    backend's multiprocessing modules among it) leaves import-time
    garbage that is no run's."""
    graph = _graph("pagerank")
    for backend in ("sim", "columnar", "mp") if mp_available() else ("sim", "columnar"):
        programs["pagerank"].run(graph, _args("pagerank", graph), backend=backend)


def run_collects(program, alg, backend, size=5, **opts) -> int:
    """Build an engine, then collect what its ``run()`` leaves."""
    graph = _graph(alg)
    engine = program.make_engine(
        graph, _args(alg, graph, size), backend=backend, num_workers=WORKERS, **opts
    )[0]
    return collected_after(engine.run)


# -- the run path allocates no cycles ---------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_a_run_leaves_no_cycles(programs, alg, backend):
    assert run_collects(programs[alg], alg, backend) == 0


@pytest.mark.parametrize("alg", sorted(MANUAL_PROGRAMS))
def test_a_manual_baseline_leaves_no_cycles(alg):
    graph = _graph(alg)
    manual = MANUAL_PROGRAMS[alg]
    assert collected_after(lambda: manual.run(graph, _args(alg, graph), num_workers=WORKERS)) == 0


def _crash(recovery):
    return lambda: {
        "ft": FaultTolerance(
            FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3),), recovery=recovery)
        )
    }


#: composition -> (backends it runs on, a factory of fresh engine options)
COMPOSITIONS = {
    "tracer": (("sim", "columnar", "mp"), lambda: {"tracer": Tracer()}),
    "metrics": (("sim", "columnar", "mp"), lambda: {"metrics_registry": MetricsRegistry()}),
    "ft_rollback": (("sim", "columnar", "mp"), _crash("rollback")),
    "ft_confined": (("sim", "columnar", "mp"), _crash("confined")),
    "mem_limited": (
        ("sim", "mp"), lambda: {"mem": MemoryManager(MemPlan(budget_bytes=1 << 30))}
    ),
    "net_faults": (
        ("sim", "columnar"),
        lambda: {"transport": SimulatedTransport(NetFaultPlan(drop_rate=0.2, seed=3))},
    ),
    "supervisor_kill": (
        ("sim", "columnar", "mp"),
        lambda: {
            "supervisor": Supervisor(SupervisorPlan()),
            "ft": FaultTolerance(
                FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3, "kill"),))
            ),
        },
    ),
    "voting": (("sim", "columnar", "mp"), lambda: {"use_voting": True}),
    "combiners": (("sim", "columnar", "mp"), lambda: {"use_combiners": True}),
    "tcp": (("mp",), lambda: {"transport_mode": "tcp"}),
}

CELLS = [
    pytest.param(
        name, backend, alg,
        id=f"{name}-{backend}-{alg}",
        marks=() if backend != "mp" or mp_available() else pytest.mark.skip("no mp"),
    )  # fmt: skip
    for name, (backends, _opts) in COMPOSITIONS.items()
    for backend in backends
    for alg in ("pagerank", "bc_approx")
]


@pytest.mark.parametrize("name, backend, alg", CELLS)
def test_a_composed_run_leaves_no_cycles(programs, name, backend, alg):
    opts = COMPOSITIONS[name][1]()
    assert run_collects(programs[alg], alg, backend, **opts) == 0


# -- run() leaves the collector as it found it --------------------------------


def _pagerank(programs, **opts):
    graph = _graph("pagerank")
    return lambda: programs["pagerank"].run(
        graph, _args("pagerank", graph), num_workers=WORKERS, **opts
    )


def _raising_run():
    def vertex(ctx, vid, msgs):
        raise ZeroDivisionError("vertex program")

    PregelEngine(_graph("pagerank"), vertex).run()


EXITS = {
    "halt": lambda programs: _pagerank(programs),
    "out_of_memory": lambda programs: _pagerank(
        programs, mem=MemoryManager(MemPlan(budget_bytes=256))
    ),
    "unrecoverable": lambda programs: _pagerank(
        programs,
        supervisor=Supervisor(SupervisorPlan()),
        ft=FaultTolerance(
            FaultPlan(checkpoint_every=2, crashes=(CrashEvent(1, 3, "kill"),), max_restarts=0)
        ),
    ),
    "raises": lambda programs: _raising_run,
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("exit_path", EXITS)
def test_run_restores_the_collector(programs, exit_path, enabled):
    call = EXITS[exit_path](programs)
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            result = call()
        except ZeroDivisionError:
            assert exit_path == "raises"
        else:
            assert exit_path != "raises"
            if exit_path != "halt":
                assert result.metrics.halt_reason == exit_path
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


# -- a dropped engine ----------------------------------------------------------


def dropped(program, alg, backend, size=5) -> tuple[bool, int]:
    """Build, run and drop an engine with the collector paused: whether the
    engine outlived the drop, and what the collector then frees."""
    graph = _graph(alg)
    gc.collect()
    gc.disable()
    try:
        engine = program.make_engine(
            graph, _args(alg, graph, size), backend=backend, num_workers=WORKERS
        )[0]
        engine.run()
        ref = weakref.ref(engine)
        del engine
        return ref() is not None, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_a_dropped_sim_engine_dies_by_reference_count(programs, alg):
    # the generated namespace keeps no function, so it holds no cycle
    assert dropped(programs[alg], alg, "sim") == (False, 0)


# A dropped slab engine waits for the collector.  What holds it in cycles:
# its sends are its ``SlabPlane``'s bound methods, and the plane reads who
# is sending off ``SlabPlane.host``, the engine, on every scalar send; its
# array code's closures hold the engine's bound sends and puts; on ``mp``,
# ``_hooks`` holds the engine's own boundary methods and every ``_Worker``
# shell holds the engine.  Each is held once per engine, so what the
# collector frees does not grow with the run (on CPython 3.11, at scale
# 0.05: 253 / 313 / 1 011 objects on columnar, 101 / 107 / 359 on mp, for
# pagerank / sssp / bc_approx — counts that move with the interpreter).
@pytest.mark.parametrize("backend", BACKENDS[1:])
@pytest.mark.parametrize("alg", ["pagerank", "sssp", "bc_approx"])
def test_a_dropped_slab_engine_waits_for_the_collector(programs, alg, backend):
    alive, found = dropped(programs[alg], alg, backend)
    assert alive and found > 0
    assert dropped(programs[alg], alg, backend, size=20) == (True, found)
