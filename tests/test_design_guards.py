"""The design guards: what a deletion removed stays removed, and what the
design keeps single stays single.

``GUARDS`` states each deletion once, as one row: a regular expression,
the files it is searched in, how many lines of them may match (counted as
``grep -c`` counts: once per matching line), the change that made it
true — the headline of its ``CHANGES.md`` entry — why, and a sample line
the pattern forbids.  The sample is itself checked against the pattern,
so a row cannot rot into one that matches nothing.  A deletion's guard
is a new row here.

The tests after the table pin the same design at run time: the plans'
fields, the one engine an ``mp`` worker runs, the generated phase loops
on ``sim``, dense sends on ``mp`` and a degraded ``mp`` run.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.algorithms.sources import ALGORITHMS, EXTRA_ALGORITHMS
from repro.bench.harness import default_args
from repro.compiler import compile_algorithm
from repro.graphgen.registry import applicable_graphs, load_graph
from repro.obs import MetricsRegistry, Tracer
from repro.pregel.backend.mp import mp_available

from .conftest import loop_vertices

ROOT = Path(__file__).resolve().parents[1]

needs_mp = pytest.mark.skipif(
    not mp_available(),
    reason="needs fork start-method and multiprocessing.shared_memory",
)


class Guard(NamedTuple):
    pattern: str
    #: a glob under the repository root; ``**`` descends
    scope: str
    count: int
    change: str
    reason: str
    sample: str


#: one row per deletion or single home
GUARDS = (
    Guard(
        r"merge_snapshot|def _tracer|MetricsRegistry\(\)", "src/repro/pregel/**/*", 0,
        "Each count has one home",
        "nothing under pregel/ merges worker registries or keeps its own tracer check",
        "registry.merge_snapshot(worker_snapshot)",
    ),
    Guard(
        r"RealFault|real_faults|parse_crash", "src/**/*.py", 0,
        "One FaultPlan",
        "one fault record, one restart budget: FaultPlan.max_restarts",
        "def parse_crash(spec: str) -> RealFault:",
    ),
    Guard(
        r"_slab_active", "src/**/*.py", 0,
        "one composition rule for both slab hosts",
        "a ColumnarEngine always stages on the slab plane",
        "if not self._slab_active:",
    ),
    Guard(
        r"class ExecutionBackend|def create_engine|supports = \{", "src/**/*.py", 0,
        "A backend is its engine class",
        "no wrapper hierarchy and no support tables",
        "class ExecutionBackend:",
    ),
    Guard(
        r"array_code_engages|def _wake\b", "src/**/*.py", 0,
        "Array code runs under vote-to-halt, and columnar has one engine",
        "no engine option that turns array code off, and one vote wake",
        "    def _wake(self, dsts):",
    ),
    Guard(
        r"^\s*_MAX_BACKOFF_SHIFT\s*=", "src/**/*.py", 1,
        "one reliable-delivery protocol",
        "one backoff rule: net.py's Sender, which the simulated channel and tcp.py drive",
        "_MAX_BACKOFF_SHIFT = 16",
    ),
    Guard(
        r"_seen|_next_expected", "src/repro/pregel/backend/tcp.py", 0,
        "one reliable-delivery protocol",
        "tcp.py keeps no dedup or ordering state of its own: net.py's Receiver does",
        "self._next_expected[peer] += 1",
    ),
    Guard(
        r"_out_parts|_in_parts", "src/**/*.py", 0,
        "One outbox on sim",
        "the simulator stages into one outbox, with no per-worker staging buffers",
        "self._out_parts[worker][dst].append(msg)",
    ),
    Guard(
        r"send_to_out_nbrs", "src/**/*.py", 0,
        "the simulator stages a neighbour block in one pass",
        "one neighbour-block send on the simulator: send_nbrs",
        "ctx.send_to_out_nbrs(vid, msg)",
    ),
    Guard(
        r"silent_crashes|message_loss_rate|account_delivery|messages_retried"
        r"|retry_backoff_units", "src/**/*.py", 0,
        "One fault schedule",
        "a silent death is a kill in FaultPlan.crashes, and the simulated channel is the"
        " one lossy-delivery model",
        "plan.message_loss_rate = 0.1",
    ),
    Guard(
        r"def _eval\b|_eval_bin", "src/repro/codegen/*.py", 0,
        "The master is generated source",
        "no IR interpreter in codegen",
        "def _eval(expr, env):",
    ),
    Guard(
        r"track_makespan|record_per_superstep|_step_work|per_superstep_messages"
        r"|makespan_units|ideal_units", "src/**/*.py", 0,
        "The trace is the one per-superstep record",
        "the message series and the makespan are projections of the trace's superstep event",
        "engine = PregelEngine(graph, track_makespan=True)",
    ),
    Guard(
        r"_traced_send|_install_tracing|def send_list", "src/**/*", 0,
        "A trace adds no send path",
        "received messages are counted at the barrier, and one payload to many is send_each",
        "        self.send = self._traced_send",
    ),
    Guard(
        r"_counting|_counted_loop", "src/**/*.py", 0,
        "A trace adds no vertex-loop path",
        "a traced phase runs the untraced loop; per-worker counts come from its selection",
        "computed = self._counted_loop(loop, active, slots)",
    ),
    Guard(
        r"quarantin|crash_rate|draw_real_crashes|_host_of|partition_hosts"
        r"|straggle_(rate|factor|strikes)", "src/**/*.py", 0,
        "The supervisor only detects",
        "no simulated stragglers or quarantine, and no deaths drawn outside FaultPlan.crashes",
        "SupervisorPlan(crash_rate=0.01)",
    ),
    Guard(
        r"_replay_only", "src/**/*.py", 0,
        "Checkpoints read the slab plane",
        "the mp parent has no replay guard of its own",
        "if self._replay_only:",
    ),
    Guard(
        r"def folding|_folded|_combined_in|def _fold\b", "src/repro/pregel/backend/**/*", 0,
        "Combiners fold in the slab plane",
        "no second fold in the backends: folding(), a worker's _fold slots, the parent's"
        " combined flush",
        "        self._combined_in.extend(parts)",
    ),
    Guard(
        r"gc\.(disable|enable|freeze|unfreeze|set_threshold)\(", "src/**/*.py", 2,
        "A run pays no cyclic GC",
        "the collector's pause has one home: PregelEngine.run pauses it for the run and"
        " restores it, in runtime.py, one line each",
        "    gc.disable()  # the CLI pauses the collector too",
    ),
)


def _files(scope: str) -> list[Path]:
    return [
        path
        for path in sorted(ROOT.glob(scope))
        if path.is_file() and "__pycache__" not in path.parts
    ]


def matching_lines(pattern: str, scope: str) -> list[str]:
    """``path:line: text`` of every line of ``scope`` that ``pattern`` matches."""
    regex = re.compile(pattern)
    found = []
    for path in _files(scope):
        text = path.read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), 1):
            if regex.search(line):
                found.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    return found


def _row_id(guard: Guard) -> str:
    """The row's first forbidden name."""
    words = re.findall(r"\w+", re.sub(r"\\.", " ", guard.pattern))
    return next(word for word in words if word not in ("def", "class"))


@pytest.mark.parametrize("guard", GUARDS, ids=_row_id)
def test_guard(guard):
    assert _files(guard.scope), f"{guard.scope} holds no file"
    found = matching_lines(guard.pattern, guard.scope)
    assert len(found) == guard.count, (
        f"{guard.reason} ({guard.change}): {len(found)} lines match "
        f"{guard.pattern!r} in {guard.scope}, expected {guard.count}\n" + "\n".join(found)
    )


@pytest.mark.parametrize("guard", GUARDS, ids=_row_id)
def test_guard_sample_is_forbidden(guard):
    assert re.search(guard.pattern, guard.sample), (guard.pattern, guard.sample)


# -- the plans' fields -----------------------------------------------------


def test_fault_plan_holds_the_one_restart_budget():
    from repro.pregel.backend.mp import MPEngine
    from repro.pregel.ft import FaultPlan
    from repro.pregel.supervisor import SupervisorPlan

    assert "max_restarts" not in {f.name for f in dataclasses.fields(SupervisorPlan)}
    assert [f.name for f in dataclasses.fields(FaultPlan)] == [
        "checkpoint_every", "crashes", "recovery", "max_restarts",
    ]  # fmt: skip
    assert not {"max_restarts", "real_faults"} & set(
        inspect.signature(MPEngine.__init__).parameters
    )


def test_supervisor_and_memory_plans_fields():
    from repro.pregel.mem import MemPlan
    from repro.pregel.supervisor import SupervisorPlan

    assert [f.name for f in dataclasses.fields(SupervisorPlan)] == [
        "heartbeat_interval", "phi_threshold", "deadline_timeout",
    ]  # fmt: skip
    assert [f.name for f in dataclasses.fields(MemPlan)] == [
        "budget_bytes", "worker_budgets", "spill_dir",
    ]  # fmt: skip


# -- one engine in every mp worker -----------------------------------------


def test_an_mp_worker_is_a_shell_around_its_engine():
    # MPEngine is a ColumnarEngine, and _Worker defines none of the
    # vertex-side context API generated code and kernels call
    from repro.pregel.backend.columnar import ColumnarEngine
    from repro.pregel.backend.mp import MPEngine, _Worker

    assert issubclass(MPEngine, ColumnarEngine)
    api = ("send", "send_nbrs", "vote_to_halt", "get_global", "num_nodes", "out_gather")
    assert not [name for name in api if name in vars(_Worker)]


def test_columnar_keeps_its_kernels_under_fault_tolerance():
    # checkpoints read the slab plane, so a columnar run under ft keeps
    # the slab engine and its kernels
    from repro.pregel.backend.columnar import ColumnarEngine
    from repro.pregel.ft import FaultPlan, FaultTolerance

    g = load_graph("twitter", 0.05)
    ft = FaultTolerance(FaultPlan(checkpoint_every=4))
    engine = compile_algorithm("pagerank").program.make_engine(
        g, default_args("pagerank", g), backend="columnar", ft=ft
    )[0]
    assert type(engine) is ColumnarEngine and engine._phase_kernels


@pytest.mark.parametrize(
    "backend, counter",
    [
        ("columnar", "columnar.scalar_records"),
        pytest.param("mp", "mp.scalar_vertices", marks=needs_mp),
    ],
)
def test_combined_pagerank_runs_its_kernels(backend, counter):
    # combiners fold in the plane's seal, so a combined pagerank runs its
    # kernels on columnar and on mp
    g = load_graph("twitter", 0.05)
    registry = MetricsRegistry()
    run = compile_algorithm("pagerank").program.run(
        g, default_args("pagerank", g), backend=backend, num_workers=2,
        use_combiners=True, metrics_registry=registry,
    )  # fmt: skip
    scalar = sum(row["value"] for row in registry.snapshot()[counter]["series"])
    assert run.metrics.vectorized_phases and scalar == 0, (backend, scalar)


# -- generated phases loop on sim ------------------------------------------


@pytest.mark.parametrize("name", ALGORITHMS)
def test_generated_phases_loop_on_sim(name, monkeypatch):
    # the six generated programs on sim, metered and traced: every computed
    # vertex ran in a generated phase loop (none through the per-vertex
    # adapter), outputs and parity_key() are columnar's, and the master
    # make_engine returns runs the generated MASTER_STEP, compiled in the
    # same module as the phase loops; no loop calls the engine per put or
    # per edge; a tracer adds no send path: the traced runs of pagerank and
    # bc_approx, whose only sends are rows, make no _send_block call
    from repro.pregel.runtime import PregelEngine

    block_calls = []
    send_block = PregelEngine._send_block

    def counted_send_block(engine, *args):
        block_calls.append(1)
        return send_block(engine, *args)

    monkeypatch.setattr(PregelEngine, "_send_block", counted_send_block)
    graph = load_graph(applicable_graphs(name)[0], 0.25)
    program = compile_algorithm(name).program
    args = default_args(name, graph)
    registry = MetricsRegistry()
    sim = program.run(graph, args, backend="sim", metrics_registry=registry, tracer=Tracer())
    if name in ("pagerank", "bc_approx"):
        assert block_calls == []
    col = program.run(graph, args, backend="columnar")
    loops = loop_vertices(registry)
    assert loops.get("adapted", 0) == 0 and loops.get("generated")
    assert sim.outputs == col.outputs
    assert sim.metrics.parity_key() == col.metrics.parity_key()
    _, _, master = program.make_engine(graph, args)
    assert master.step.__code__.co_filename == f"<generated:{program.ir.name}>"
    calls = ("ctx.put_global(", "ctx.send(OUT_TGT[")
    assert [c for c in calls if c in program.vertex_source] == []


@pytest.mark.parametrize("name", ALGORITHMS + EXTRA_ALGORITHMS)
def test_a_single_neighbour_send_goes_out_after_the_loop(name):
    # a phase whose one send is a neighbour send outside any message loop
    # sends its rows once after the loop: no per-vertex ctx.send_nbrs(
    from repro.pregelir.ir import VMsgLoop, VSendNbrs, VSendTo, walk_stmts

    program = compile_algorithm(name, emit_java=False).program
    loops = dict(
        (int(loop.split("(", 1)[0]), loop)
        for loop in program.vertex_source.split("\ndef _loop_")[1:]
    )
    per_vertex = 0
    for pid, phase in program.ir.phases.items():
        stmts = [*phase.receive, *phase.compute]
        sends = [s for s in walk_stmts(stmts) if isinstance(s, (VSendNbrs, VSendTo))]
        looped = [s for m in stmts if isinstance(m, VMsgLoop) for s in walk_stmts(m.body)]
        if (
            len(sends) == 1 and isinstance(sends[0], VSendNbrs)
            and "EP_" not in loops[pid] and not any(s is sends[0] for s in looped)
        ):  # fmt: skip
            per_vertex += loops[pid].count("ctx.send_nbrs(")
    assert per_vertex == 0


def test_pagerank_folds_its_sum_in_a_local():
    # pagerank's receive loop folds its sum in a local: no per-message
    # F_x[vid] = F_x[vid] + store
    source = compile_algorithm("pagerank").program.vertex_source
    assert re.findall(r"F_(\w+)\[vid\] = F_\1\[vid\] \+", source) == []


# -- mp --------------------------------------------------------------------


@needs_mp
def test_dense_sends_skip_the_owner_split_on_mp():
    # pagerank sends along every edge: on mp (2 workers) each record goes
    # from the partition gather's cached split straight into the segment,
    # none through split_by_owner, and the outputs are sim's
    graph = load_graph("sk-2005", 0.5)
    program = compile_algorithm("pagerank").program
    args = default_args("pagerank", graph)
    sim = program.run(graph, args, backend="sim", num_workers=2)
    registry = MetricsRegistry()
    mp = program.run(graph, args, backend="mp", num_workers=2, metrics_registry=registry)
    split = sum(row["value"] for row in registry.snapshot()["mp.split_records"]["series"])
    assert split == 0
    assert mp.outputs == sim.outputs
    assert mp.metrics.parity_key() == sim.metrics.parity_key()


def test_a_degraded_mp_run_is_the_degraded_sim_run():
    # budget 0 and a checkpoint every superstep: a killed worker degrades
    # the run, and mp hands back sim's degraded result — the latest
    # checkpoint, whole
    from repro.pregel.ft import CrashEvent, FaultPlan, FaultTolerance
    from repro.pregel.supervisor import Supervisor, SupervisorPlan

    g = load_graph("twitter", 0.05)
    p = compile_algorithm("pagerank").program
    a = default_args("pagerank", g)
    plan = FaultPlan(crashes=(CrashEvent(1, 2, "kill"),), checkpoint_every=1, max_restarts=0)
    runs = [
        p.run(
            g, a, backend=b, num_workers=2, ft=FaultTolerance(plan),
            supervisor=Supervisor(SupervisorPlan()),
        )  # fmt: skip
        for b in ("sim", "mp")
        if b == "sim" or mp_available()
    ]
    assert all(run.metrics.halt_reason == "unrecoverable" for run in runs)
    assert all(run.outputs == runs[0].outputs for run in runs)
