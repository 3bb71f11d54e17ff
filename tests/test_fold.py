"""One fold: every reduction steps by ``repro.pregel.fold.combine``,
chained from the value it reduces into.

The interpreter's sequential chain is the spec.  These tests hold to it the
module's chain and scatter fold, the step the scalar loops print inline,
and whole programs — a global, a field reduction ``t.o op= ...`` and the
same under combiners — on every backend, array code and scalar loops."""

from __future__ import annotations

import functools
import itertools
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.executable import _Emitter, emit_stmt
from repro.compiler import compile_source
from repro.interp import interpret
from repro.pregel.backend import get_backend
from repro.pregel.backend.mp import mp_available
from repro.pregel.fold import IDENTITY, OPEN, GlobalOp, combine, fold, fold_at
from repro.pregel.graph import Graph
from repro.pregelir.ir import Local, VFieldReduce

nan, inf = float("nan"), float("inf")

#: where the step's cases part: NaN, signed zeros and infinities, ints past
#: int64 and a double, floats that overflow, bools
EDGES = [nan, inf, -inf, 0.0, -0.0, 1.0, -1.5, 1e308, -1e308, 1e16, 2**70, 3, 0, -2, True, False]


def same(got, want) -> bool:
    """Equal values of one type; NaN equals NaN, -0.0 is not 0.0."""
    return type(got) is type(want) and repr(got) == repr(want)


def chain_of(op: GlobalOp, seed, values):
    """The reference: ``combine`` step by step, a slot opening as if at the
    op's identity."""
    if seed is OPEN:
        if op in (GlobalOp.MIN, GlobalOp.MAX):
            seed = IDENTITY[op]
        else:
            seed, values = values[0], values[1:]
    return functools.reduce(functools.partial(combine, op), values, seed)


def outcome(fn):
    try:
        return fn()
    except ArithmeticError as exc:
        return type(exc)


def scatter(typecode: str, column_values, message_values):
    """A column of three of ``column_values`` with its ``array`` typecode,
    and up to eight ``(destination, value)`` messages into it."""
    return st.tuples(
        st.just(typecode),
        st.lists(st.sampled_from(column_values), min_size=3, max_size=3),
        st.lists(st.tuples(st.integers(0, 2), st.sampled_from(message_values)), max_size=8),
    )


pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestRule:
    @pytest.mark.parametrize("op", list(GlobalOp), ids=lambda op: op.name)
    def test_the_inline_step_is_the_rule(self, op):
        # the scalar loops' field reduce, as emitted, over every pair
        out = _Emitter()
        emit_stmt(out, VFieldReduce("f", op, Local("v")))
        code = compile(out.text(), "<step>", "exec")
        for a, b in itertools.product(EDGES, repeat=2):
            env = {"F_f": [a], "vid": 0, "L_v": b}
            got = outcome(lambda: exec(code, env) or env["F_f"][0])
            want = outcome(lambda: combine(op, a, b))
            assert same(got, want), (op, a, b, got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(list(GlobalOp)),
        st.one_of(st.just(OPEN), st.sampled_from(EDGES)),
        st.lists(st.sampled_from(EDGES), min_size=1, max_size=8),
    )
    def test_fold_is_the_chain(self, op, seed, values):
        want = outcome(lambda: chain_of(op, seed, values))
        assert same(outcome(lambda: fold(op, seed, list(values))), want)
        # an array's fast paths: one dtype, as array code hands them over
        for kind in (float, int, bool):
            if all(type(v) is kind for v in values) and not any(
                type(v) is int and abs(v) >= 2**63 for v in values
            ):
                got = outcome(lambda: fold(op, seed, np.asarray(values)))
                assert same(got, want), (op, seed, values, got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([GlobalOp.SUM, GlobalOp.PRODUCT, GlobalOp.MIN, GlobalOp.MAX]),
        st.one_of(
            scatter("d", [nan, inf, -inf, 0.0, -0.0, 1.0, -1.5, 1e308], [nan, inf, -inf, 0.0, -0.0, 2.0, -1.5, 1e308]),
            scatter("q", [0, 1, -1, 3, 2**31, 2**62, -(2**62)], [0, 1, -1, 2, -3, 2**31, 2**62, -(2**62)]),
        ),
    )
    def test_fold_at_is_the_chain(self, op, case):
        # the reference stores into the scalar loops' column, an Int one
        # raising OverflowError past int64
        typecode, column, messages = case
        want = array(typecode, column)

        def chain():
            for d, v in messages:
                want[d] = combine(op, want[d], v)
            return [repr(v) for v in want]

        got = np.asarray(column, dtype=np.float64 if typecode == "d" else np.int64)
        dsts = np.asarray([d for d, _v in messages], dtype=np.int64)
        values = np.asarray([v for _d, v in messages], dtype=got.dtype)
        result = outcome(lambda: fold_at(op, got, dsts, values) or [repr(v) for v in got.tolist()])
        assert result == outcome(chain), messages

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([GlobalOp.AND, GlobalOp.OR]),
        st.lists(st.integers(0, 1), min_size=3, max_size=3),
        st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=8),
    )
    def test_bool_fold_at_is_the_chain(self, op, column, messages):
        want = list(column)
        for d, v in messages:
            want[d] = int(bool(combine(op, want[d], v)))
        got = np.asarray(column, dtype=np.int8)
        dsts = np.asarray([d for d, _v in messages], dtype=np.int64)
        fold_at(op, got, dsts, np.asarray([v for _d, v in messages], dtype=bool))
        assert got.tolist() == want


# -- whole programs ---------------------------------------------------------

BACKENDS = ("sim", "columnar", "mp") if mp_available() else ("sim", "columnar")
MIN_PUT = (
    "Procedure p(G: Graph, x: N_P<Double>): Double {\n"
    "  Double lo = +INF; Foreach (n: G.Nodes) { lo min= n.x; } Return lo; }"
)
SUM_PUT = (
    "Procedure p(G: Graph, x: N_P<Double>): Double {\n"
    "  Double s = 1e16; Foreach (n: G.Nodes) { s += n.x; } Return s; }"
)
FIELD = (
    "Procedure p(G: Graph, x: N_P<Double>; o: N_P<Double>) {{\n"
    "  G.o = {init}; Foreach (n: G.Nodes) {{ Foreach (t: n.Nbrs) {{ t.o {op} n.x; }} }} }}"
)
FIELD_MIN, FIELD_MAX = FIELD.format(init="+INF", op="min="), FIELD.format(init="-INF", op="max=")
#: program, graph, the values folded, the result the interpreter gives
PROGRAMS = {
    "global min": (MIN_PUT, (2, []), [nan, 1.0], 1.0),
    "global sum": (SUM_PUT, (2, []), [1.0, 1.0], 1e16),
    "field min": (FIELD_MIN, (3, [(0, 2), (1, 2), (2, 0)]), [nan, 1.0, 2.0], [2.0, inf, 1.0]),
    "field max": (FIELD_MAX, (3, [(0, 2), (1, 2), (2, 0)]), [nan, 1.0, 2.0], [2.0, -inf, 1.0]),
}


@functools.lru_cache(maxsize=None)
def compiled(source: str):
    return compile_source(source).program


def run(source, graph, args, backend, workers, *, scalar=False, combiners=False):
    """The program's result and output columns on one cell of the matrix."""
    engine, fields, _master = compiled(source).make_engine(
        graph, args, backend=backend, num_workers=workers, use_combiners=combiners
    )
    if scalar:
        engine._array_code = None
        engine.install_array_code({}, {})
    result = engine.run().result
    column = get_backend(backend).column_values
    return result, {name: column(fields[name]) for name in ("o",) if name in fields}


def cells(backends=BACKENDS, workers=(1, 3)):
    for backend, w, scalar in itertools.product(backends, workers, (False, True)):
        if not (backend == "sim" and scalar):
            yield backend, w, scalar


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_reduction_is_the_interpreters(name):
    # NaN puts and a non-identity float seed chain as the interpreter does,
    # on every backend, as array code and as the scalar loops; with
    # combiners too, whose slots open at the op's identity
    source, (n, edges), x, want = PROGRAMS[name]
    graph = Graph.from_edges(n, edges)
    interp = interpret(source, graph, {"x": x})
    assert repr(interp.props.get("o", interp.result)) == repr(want)
    combined = (False, True) if "min" in name else (False,)
    for (backend, w, scalar), combiners in itertools.product(cells(), combined):
        result, columns = run(source, graph, {"x": x}, backend, w, scalar=scalar, combiners=combiners)
        got = columns.get("o", result)
        assert repr(got) == repr(want), (backend, w, scalar, combiners)


@pytest.mark.parametrize("init, fused", [("1e16", True), ("s0 * 2.0", False)])
def test_a_fused_phase_chains_from_its_field(init, fused):
    # state merging runs a constant initialisation of a global ahead of the
    # phase it fuses into, where the slot opens at the field; anything else
    # between the two phases keeps them apart
    source = (
        "Procedure q(G: Graph, x: N_P<Double>, s0: Double; o: N_P<Double>): Double {\n"
        "  Foreach (n: G.Nodes) { n.o = n.x * 2.0; }\n"
        f"  Double s = {init}; Foreach (n: G.Nodes) {{ s += n.x; }} Return s; }}"
    )
    graph, args = Graph.from_edges(2, []), {"x": [1.0, 1.0], "s0": 5e15}
    assert (len(compiled(source).ir.phases) == 1) is fused
    want = interpret(source, graph, args).result
    assert want == 1e16
    for backend, w, scalar in cells(workers=(1,)):
        assert repr(run(source, graph, args, backend, w, scalar=scalar)[0]) == repr(want)


def test_an_int_field_past_int64_raises_on_array_code_and_scalar_loops():
    # `t.o *= n.y` from 2**40 by 2**30: int64 ufunc.at would wrap to 0
    source = (
        "Procedure p(G: Graph, y: N_P<Int>, s0: Int; o: N_P<Int>) {\n"
        "  G.o = s0; Foreach (n: G.Nodes) { Foreach (t: n.Nbrs) { t.o *= n.y; } } }"
    )
    graph, args = Graph.from_edges(2, [(0, 1)]), {"y": [2**30, 1], "s0": 2**40}
    for scalar in (False, True):
        with pytest.raises(OverflowError):
            run(source, graph, args, "columnar", 1, scalar=scalar)


# -- the property: a global, a field reduction, combiners -------------------

FOLD3 = """Procedure fold3(G: Graph, x: N_P<{t}>, y: N_P<{t}>, s0: {s}; o: N_P<{s}>): {s} {{
  {s} s = s0;
  Foreach (n: G.Nodes) {{ s {op} n.x; }}
  G.o = s0;
  Foreach (n: G.Nodes) {{ Foreach (t: n.Nbrs) {{ t.o {op} n.y; }} }}
  Return s;
}}"""
SPELLING = {
    GlobalOp.SUM: "+=", GlobalOp.PRODUCT: "*=", GlobalOp.MIN: "min=", GlobalOp.MAX: "max=",
    GlobalOp.AND: "&=", GlobalOp.OR: "|=",
}  # fmt: skip
#: (op, the global's and field's type, the values' type)
CASES = [
    (op, s, t)
    for op in (GlobalOp.SUM, GlobalOp.PRODUCT, GlobalOp.MIN, GlobalOp.MAX)
    for s, t in (("Double", "Double"), ("Int", "Int"), ("Double", "Int"))
] + [(GlobalOp.AND, "Bool", "Bool"), (GlobalOp.OR, "Bool", "Bool")]
#: in-degrees 0 to 3; vertex 3 keeps its seed
FOLD3_GRAPH = Graph.from_edges(5, [(0, 2), (1, 2), (3, 2), (2, 0), (4, 0), (1, 4), (4, 1)])
DOUBLES = st.sampled_from([nan, inf, -inf, 0.0, -0.0, 1.0, -1.5, 0.1, 1e16, 1e308, -1e308, 1e-300, 2.0**70])
#: a global's puts reach past int64 (2**70); a field's stay in its int64
#: column and 32-bit wire slot, as the typed backends require
BIG_INTS = st.sampled_from([0, 1, -1, 3, 2**35, -(2**35), 2**62, -(2**62)])
SMALL_INTS = st.integers(-1000, 1000)


def fold3_args(case, draw):
    op, s, t = case
    if t == "Bool":
        x, y, seed = [st.booleans()] * 3
    elif t == "Double":
        x, y, seed = DOUBLES, DOUBLES, DOUBLES
    else:
        x, y, seed = BIG_INTS, SMALL_INTS, DOUBLES if s == "Double" else SMALL_INTS
    n = FOLD3_GRAPH.num_nodes
    return {
        "x": draw(st.lists(x, min_size=n, max_size=n)),
        "y": draw(st.lists(y, min_size=n, max_size=n)),
        "s0": draw(seed),
    }


def exact(case, result, columns):
    """A run's global and field, comparable across backends: a typed Bool
    column holds 0/1, a Double column a float of any value."""
    kind = {"Bool": bool, "Double": lambda v: repr(float(v)), "Int": int}[case[1]]
    return kind(result), tuple(kind(v) for v in columns["o"])


def check_fold3(case, args, backends, workers):
    op, s, t = case
    source = FOLD3.format(s=s, t=t, op=SPELLING[op])
    interp = interpret(source, FOLD3_GRAPH, args)
    want = exact(case, interp.result, interp.props)
    for backend, w, scalar in cells(backends, workers):
        got = exact(case, *run(source, FOLD3_GRAPH, args, backend, w, scalar=scalar))
        assert got == want, (backend, w, scalar)
    # combiners: the interpreter's value where the op reassociates exactly;
    # a float SUM/PRODUCT reassociates (Pregel's combiner contract), so
    # there the backends agree with each other only
    combined = {
        b: exact(case, *run(source, FOLD3_GRAPH, args, b, 1, combiners=True)) for b in backends
    }
    assert len(set(combined.values())) == 1, combined
    if not (s == "Double" and op in (GlobalOp.SUM, GlobalOp.PRODUCT)):
        assert combined[backends[0]] == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_every_fold_is_the_interpreters(case, data):
    check_fold3(case, fold3_args(case, data.draw), ("sim", "columnar"), (2,))


@pytest.mark.skipif(not mp_available(), reason="needs fork and multiprocessing.shared_memory")
@pytest.mark.parametrize(
    "case", [CASES[0], CASES[5], CASES[7], CASES[-1]], ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]}"
)
def test_every_fold_is_the_interpreters_on_mp(case):
    op, s, t = case
    fixed = {
        "Double": [nan, -0.0, 1e308, 0.0, 1e16],
        "Int": [2**62, 3, -(2**35), 2**35, 1],
        "Bool": [True, False, True, True, False],
    }
    x = fixed[t]
    y = x if t != "Int" else [7, -3, 0, 2, 5]
    seed = {"Double": 0.5, "Int": 2, "Bool": True}[s] if s == t else 1e16
    check_fold3(case, {"x": x, "y": y, "s0": seed}, ("sim", "columnar", "mp"), (3,))
