"""Differential fuzzing: random Green-Marl programs, interpreter vs compiler.

A seeded generator assembles random programs from the Pregel-compatible
construct pool — vertex updates, push loops in both directions, pull loops
(forcing Dissection + Edge Flipping), global reductions, filters, sequential
While loops (exercising the state machine and intra-loop merging), group
assignments, and — one seed in eight each — an edge-weighted relaxation in
sssp's shape (``ToEdge()`` + ``E_P<Int>``, ``±INF`` initialisers, a ``|=``
improve flag whose comparison may or may not be the one the vectorizer
accepts) and a BFS traversal in bc's shape (``InBFS`` from a random root
with an up-neighbour reduction, optionally ``InReverse`` with a
down-neighbour one: the discover loop, the in-neighbour build and the
reverse gather), and one seed in sixteen master code (a ``Do … While`` on
a reduced scalar around a scalar ``If``/``Else``, a ternary, Int ``/`` and
``%`` on negatives, casts) — then asserts that the shared-memory
interpreter and the compiled Pregel program agree on every output property and the returned
scalar, and that the columnar backend (array kernels + bulk receivers
wherever the vectorizer finds them eligible) is bit-identical to the
simulator, under sender combiners too when a tag is combinable.  This sweeps interactions the hand-written tests cannot
enumerate.

The generator only emits *race-free* parallel loops (Green-Marl leaves racy
programs nondeterministic, so there is nothing to compare): within one loop,

* a property written through the inner iterator (a push target) is never
  read — by anyone — nor written per-vertex in the same loop;
* a property written per-vertex is never read through an inner iterator in
  the same loop (its remote value would depend on scheduling);
* all pushes in one loop reduce with the same commutative operator.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.graphgen import uniform_random
from repro.interp import interpret
from repro.lang.errors import GreenMarlError
from repro.pregel.backend.mp import mp_available
from repro.translate.combiner import infer_combiners
from repro.translate.merge import phase_global_reads

HEADER = (
    "Procedure fuzz(G: Graph, a: N_P<Int>, b: N_P<Int>, x: N_P<Double>, "
    "len: E_P<Int>; oa: N_P<Int>, ox: N_P<Double>): Double {\n"
)

#: Stable int props: never pushed to, safe to read anywhere.
STABLE_INT = ("a", "b")


class ProgramBuilder:
    """Builds a random, race-free, Pregel-compatible Green-Marl procedure."""

    def __init__(self, seed: int, size: int):
        self.rng = random.Random(seed)
        self.size = max(1, size)
        self.scalars: list[tuple[str, str, str]] = []  # (name, type, reduce op)
        self.counter = 0
        # the scalar the current vertex loop reduces: unreadable inside it
        self._reducing: str | None = None

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"{hint}{self.counter}"

    # -- expressions -------------------------------------------------------

    def int_atom(self, var: str | None, props: tuple[str, ...]) -> str:
        choices = [str(self.rng.randint(0, 9))]
        if var:
            choices += [f"{var}.{p}" for p in props]
            choices.append(f"{var}.Degree()")
        choices += [n for n, t, _ in self.scalars if t == "Int" and n != self._reducing]
        return self.rng.choice(choices)

    def int_expr(self, var: str | None, props: tuple[str, ...], depth: int = 2) -> str:
        if depth == 0 or self.rng.random() < 0.4:
            return self.int_atom(var, props)
        op = self.rng.choice(("+", "-", "*"))
        return (
            f"({self.int_expr(var, props, depth - 1)} {op} "
            f"{self.int_expr(var, props, depth - 1)})"
        )

    def double_expr(self, var: str | None, props: tuple[str, ...], depth: int = 2) -> str:
        if depth == 0 or self.rng.random() < 0.5:
            base = [f"{self.rng.randint(0, 9)}.5"]
            if var and "x" in props:
                base.append(f"{var}.x")
            base += [n for n, t, _ in self.scalars if t == "Double" and n != self._reducing]
            return self.rng.choice(base)
        if self.rng.random() < 0.3:
            return f"(Double) {self.int_expr(var, tuple(p for p in props if p != 'x'), depth - 1)}"
        op = self.rng.choice(("+", "-", "*"))
        return (
            f"({self.double_expr(var, props, depth - 1)} {op} "
            f"{self.double_expr(var, props, depth - 1)})"
        )

    def bool_expr(self, var: str | None, props: tuple[str, ...]) -> str:
        cmp = self.rng.choice(("<", ">", "<=", ">=", "==", "!="))
        return f"{self.int_expr(var, props, 1)} {cmp} {self.int_expr(var, props, 1)}"

    # -- statements -----------------------------------------------------------

    def vertex_stmt(self, it: str, writes: tuple[str, ...], reads: tuple[str, ...]) -> str:
        kind = self.rng.randrange(5)
        int_writes = tuple(p for p in writes if p != "ox")
        if kind == 0 and int_writes:
            prop = self.rng.choice(int_writes)
            return f"{it}.{prop} = {self.int_expr(it, reads)};"
        if kind == 1 and "ox" in writes:
            return f"{it}.ox = {self.double_expr(it, reads + ('x',))};"
        if kind == 2 and int_writes:
            prop = self.rng.choice(int_writes)
            op = self.rng.choice(("+=", "min=", "max="))
            return f"{it}.{prop} {op} {self.int_expr(it, reads)};"
        if kind == 3 and self._reducing is not None:
            # each scalar keeps one reduction operator for its whole life —
            # a global object supports a single reduction per superstep —
            # and may not be read inside the loop reducing it
            name, t, op = next(s for s in self.scalars if s[0] == self._reducing)
            expr = (
                self.int_expr(it, reads)
                if t == "Int"
                else self.double_expr(it, reads + ("x",))
            )
            return f"{name} {op} {expr};"
        if int_writes:
            return (
                f"If ({self.bool_expr(it, reads)}) {{ "
                f"{it}.{self.rng.choice(int_writes)} += {self.int_expr(it, reads, 1)}; }}"
            )
        return f"{it}.ox = {self.double_expr(it, reads + ('x',), 1)};"

    def push_loop(self, outer: str, target: str, op: str, reads: tuple[str, ...]) -> str:
        inner = self.fresh("t")
        direction = self.rng.choice(("Nbrs", "InNbrs"))
        value = self.rng.choice(
            (
                self.int_expr(outer, reads, 1),
                f"({outer}.a + {inner}.b)",
                f"{outer}.Degree()",
                "1",
            )
        )
        filt = ""
        if self.rng.random() < 0.5:
            who = self.rng.choice((outer, inner))
            filt = f"[{self.bool_expr(who, reads)}]"
        return (
            f"Foreach ({inner}: {outer}.{direction}){filt} {{ "
            f"{inner}.{target} {op} {value}; }}"
        )

    def pull_loop_nest(self) -> str:
        """An outer loop whose body pulls — must be flipped by the compiler."""
        outer = self.fresh("n")
        inner = self.fresh("t")
        direction = self.rng.choice(("Nbrs", "InNbrs"))
        agg = self.rng.choice(
            (
                f"Count({inner}: {outer}.{direction})[{self.bool_expr(inner, STABLE_INT)}]",
                f"Sum({inner}: {outer}.{direction}){{{inner}.a + {inner}.b}}",
            )
        )
        return f"Foreach ({outer}: G.Nodes) {{ {outer}.oa = {agg}; }}"

    def vertex_loop(self) -> str:
        it = self.fresh("n")
        self._reducing = self.rng.choice(self.scalars)[0] if self.scalars else None
        has_push = self.rng.random() < 0.4
        if has_push:
            # race-free partition: pushes reduce into 'oa'; per-vertex writes
            # go to 'ox' only; everything reads only the stable props.
            target, op = "oa", self.rng.choice(("+=", "min=", "max="))
            writes: tuple[str, ...] = ("ox",)
            reads: tuple[str, ...] = STABLE_INT
        else:
            target, op = "", ""
            writes = ("oa", "ox")
            reads = STABLE_INT + ("oa",)
        body = []
        for _ in range(self.rng.randint(1, 3)):
            if has_push and self.rng.random() < 0.5:
                body.append(self.push_loop(it, target, op, reads))
            else:
                body.append(self.vertex_stmt(it, writes, reads))
        filt = f"[{self.bool_expr(it, STABLE_INT)}]" if self.rng.random() < 0.3 else ""
        self._reducing = None
        return f"Foreach ({it}: G.Nodes){filt} {{ " + " ".join(body) + " }"

    def seq_stmt(self) -> str:
        kind = self.rng.randrange(6)
        if kind == 0:
            name = self.fresh("s")
            t = self.rng.choice(("Int", "Double"))
            init = "0" if t == "Int" else "0.0"
            self.scalars.append((name, t, self.rng.choice(("+=", "min=", "max="))))
            return f"{t} {name} = {init};"
        if kind == 1:
            prop = self.rng.choice(("oa",))
            return f"G.{prop} = {self.rng.randint(0, 5)};"
        if kind == 2:
            return self.pull_loop_nest()
        if kind == 3:
            k = self.fresh("k")
            n = self.rng.randint(1, 3)
            return (
                f"Int {k} = 0; While ({k} < {n}) {{ "
                + self.vertex_loop()
                + f" {k}++; }}"
            )
        return self.vertex_loop()

    def relaxation(self) -> str:
        """sssp's shape with the knobs turned: double-buffered ``oa``/``nxt``
        relaxed along weighted edges from a few seed vertices.  The INF
        initialiser escalates every Int column and gives the message an
        INF-sentinel slot, the payload is per edge, and the optional flag's
        comparison is drawn from the improve-flag idiom (which the columnar
        backend compiles to array code) and its near misses (which it must
        refuse) — all of it checked by the same oracles as any program."""
        rng = self.rng
        op, inf, strict = rng.choice((("min=", "+INF", "<"), ("max=", "-INF", ">")))
        value = "n.oa + e.len" if rng.random() < 0.7 else f"n.oa + e.len * {rng.randint(2, 3)}"
        flag = rng.choice(("improve", "swapped", "opposite", "loose", "mismatch", "none"))
        compare = {
            "improve": f"({value}) {strict} t.nxt",
            "swapped": f"t.nxt {'>' if strict == '<' else '<'} ({value})",
            "opposite": f"({value}) {'>' if strict == '<' else '<'} t.nxt",
            "loose": f"({value}) {strict}= t.nxt",
            "mismatch": f"({value} + 1) {strict} t.nxt",
            "none": "",
        }[flag]
        outer = rng.choice(("[n.up]", f"[{self.bool_expr('n', STABLE_INT)}]", ""))
        lines = [
            HEADER,
            "  N_P<Int> nxt; N_P<Bool> up; N_P<Bool> up_nxt;",
            f"  G.oa = {inf}; G.nxt = {inf}; G.up = False; G.up_nxt = False;",
            f"  Foreach (n: G.Nodes)[n.a < {rng.randint(1, 4)}] "
            "{ n.oa = n.b; n.nxt = n.b; n.up = True; }",
            f"  Int k = 0; While (k < {rng.randint(1, 4)}) {{",
            f"    Foreach (n: G.Nodes){outer} {{ Foreach (t: n.Nbrs) {{",
            "      Edge e = t.ToEdge();",
            f"      t.up_nxt |= {compare};" if compare else "",
            f"      t.nxt {op} {value};",
            "    } }",
            "    G.oa = G.nxt; G.up = G.up_nxt; G.up_nxt = False; k++;",
            "  }",
            "  Foreach (n: G.Nodes)[n.up] { n.ox = 1.5; }",
            "  Return 0.0;",
            "}",
        ]
        return "\n".join(line for line in lines if line)

    def bfs(self) -> str:
        """bc's shape with the knobs turned: a forward sweep from a random
        root reducing over BFS parents, and (two times in three) a reverse
        sweep reducing over BFS children along the in-neighbour rows the
        §4.3 prologue builds.  On the columnar backend that is the
        first-match discover loop, the bulk in-neighbour build, the reverse
        gather and float ``SUM`` receivers.  Values only ever feed back
        additively, so nothing outgrows a double."""
        rng = self.rng

        def level_filter() -> str:
            return rng.choice(("[v != s]", f"[{self.bool_expr('v', STABLE_INT)}]", ""))

        def nbr_filter() -> str:
            return f"[{self.bool_expr('w', STABLE_INT)}]" if rng.random() < 0.4 else ""

        if rng.random() < 0.3:
            up = f"v.oa = Sum(w: v.UpNbrs){nbr_filter()}{{{self.int_expr('w', STABLE_INT, 1)}}};"
        else:
            term = rng.choice(("w.sg", f"(w.sg + {self.double_expr('w', ('x',), 1)})"))
            up = f"v.sg = Sum(w: v.UpNbrs){nbr_filter()}{{{term}}};"
        lines = [
            HEADER,
            "  N_P<Double> sg; N_P<Double> dl;",
            f"  G.oa = 0; G.ox = 0.0; G.dl = 0.0; G.sg = {rng.randint(0, 2)}.5;",
            "  Node s = G.PickRandom();",
            "  s.sg = 1.0;",
            f"  InBFS (v: G.Nodes From s){level_filter()} {{",
            f"    {up}",
            "  }",
        ]
        if rng.random() < 0.67:
            mine = rng.choice(("v.x", "v.sg", self.double_expr("v", ("x",), 1)))
            theirs = rng.choice(("w.dl", "(1.0 + w.dl)", f"(w.dl + {self.double_expr('w', ('x',), 1)})"))
            glue = rng.choice(("+", "-", "*"))
            lines += [
                f"  InReverse{level_filter()} {{",
                f"    v.dl = Sum(w: v.DownNbrs){nbr_filter()}{{({mine} {glue} {theirs})}};",
                "    v.ox += v.dl;",
                "  }",
            ]
        else:
            lines.append("  Foreach (n: G.Nodes) { n.ox = n.sg; }")
        lines += ["  Return 0.0;", "}"]
        return "\n".join(lines)

    def sequential(self) -> str:
        """Master code with the knobs turned: a ``Do … While`` whose
        condition reads the scalar its vertex loop reduced, a scalar
        ``If``/``Else``, a ternary, ``&&`` and ``||``, Int ``/`` and ``%``
        on negatives, both casts and ``G.NumNodes()`` — the state machine
        the master runs, checked by the same oracles as any program."""
        rng = self.rng
        join = rng.choice(("&&", "||"))
        div = rng.choice(("3", "-3", "(k + 2)", "-(k + 2)"))
        mod = rng.choice(("4", "-4", "(k + 3)", "-(k + 3)"))
        write = rng.choice(("n.a + m", "m % 5", f"(Int) (n.x * {rng.randint(1, 3)}.5) + k"))
        lines = [
            HEADER,
            f"  Int m = {rng.randint(1, 9)} - G.NumNodes(); Int s = 0; Int k = 0;",
            f"  Double w = {rng.randint(0, 3)}.5;",
            "  Do {",
            "    s = 0;",
            f"    Foreach (n: G.Nodes)[{self.bool_expr('n', STABLE_INT)}] {{",
            f"      s += {self.int_expr('n', STABLE_INT, 1)}; n.oa = {write};",
            "    }",
            f"    If (s % 2 == 0 {join} m < 0) {{ m = m / {div}; }} Else {{ m = m % {mod} - s; }}",
            f"    w = w + (Double) m / {rng.randint(2, 5)}.0 + (s > {rng.randint(0, 20)} ? 1.5 : -0.5);",
            "    k++;",
            f"  }} While (k < {rng.randint(1, 4)} && (s > {rng.randint(0, 30)} "
            f"|| (Int) w < {rng.randint(-5, 5)}));",
            "  Foreach (n: G.Nodes) { n.ox = w + (Double) (n.a % 3); }",
            "  Return w;",
            "}",
        ]
        return "\n".join(lines)

    def build(self) -> str:
        lines = [HEADER]
        for _ in range(self.size):
            lines.append("  " + self.seq_stmt())
        result = "0.0"
        if self.scalars and self.rng.random() < 0.7:
            name, t, _ = self.rng.choice(self.scalars)
            result = f"(Double) {name}" if t == "Int" else name
        lines.append(f"  Return {result};")
        lines.append("}")
        return "\n".join(lines)


def generate(seed: int, size: int) -> str:
    """The program of one seed.  Which production a seed gets depends on the
    seed alone, so the general programs' text is stable under changes to
    the relaxation, BFS and master productions and vice versa."""
    builder = ProgramBuilder(seed, size)
    if seed % 16 == 11:
        return builder.sequential()
    special = {7: builder.relaxation, 5: builder.bfs}
    return special.get(seed % 8, builder.build)()


def _compare(program: str, seed: int, *, mp: bool = False) -> None:
    graph = uniform_random(14, 40, seed=seed % 17 + 1)
    graph.add_node_prop("a", [(v * 7) % 11 for v in range(14)])
    graph.add_node_prop("b", [(v * 3) % 5 for v in range(14)])
    graph.add_node_prop("x", [v / 4.0 for v in range(14)])
    graph.add_edge_prop_csr("len", [(i * 5) % 7 + 1 for i in range(graph.num_edges)])

    interp = interpret(program, graph)
    compiled = compile_source(program, emit_java=False)
    for phase in compiled.ir.phases.values():
        # what each phase's loop reads when its superstep starts
        assert phase_global_reads(phase) <= set(compiled.ir.master_fields), program
    run = compiled.program.run(graph)

    for name in ("oa", "ox"):
        for idx, (want, got) in enumerate(zip(interp.outputs[name], run.outputs[name])):
            assert _close(want, got), (
                f"output {name}[{idx}]: interp={want} pregel={got}\n{program}"
            )
    assert _close(interp.result, run.result), (
        f"result: interp={interp.result} pregel={run.result}\n{program}"
    )

    # The columnar backend runs every eligible phase as an array kernel
    # (and every eligible receive loop as a bulk handler): random programs
    # exercise that eligibility analysis, and whatever it accepts must be
    # bit-identical to the simulator — not merely close.
    try:
        col = compiled.program.run(graph, backend="columnar")
    except OverflowError:
        # Int columns are array('q'): a program whose integers outgrow
        # int64 fails at the store on every columnar path.  With the array
        # code taken out, the generated scalar program must fail the same way.
        with pytest.raises(OverflowError):
            engine, _fields, _master = compiled.program.make_engine(graph, backend="columnar")
            engine.install_array_code({}, {})
            engine.run()
        return
    _assert_identical(run, col, "columnar", program)
    # Sender combiners fold a combinable tag in the seal with the
    # simulator's callables, array code running: the same run again.
    combined = bool(infer_combiners(compiled.ir))
    if combined:
        _assert_identical(
            compiled.program.run(graph, use_combiners=True),
            compiled.program.run(graph, backend="columnar", use_combiners=True),
            "columnar (combiners)",
            program,
        )
    if mp:
        # ... and the same array code over two real partitions: slabs
        # merged across processes, puts folded by the parent
        for use_combiners in (False, True) if combined else (False,):
            opts = dict(num_workers=2, use_combiners=use_combiners)
            _assert_identical(
                compiled.program.run(graph, **opts),
                compiled.program.run(graph, backend="mp", **opts),
                "mp (combiners)" if use_combiners else "mp",
                program,
            )


def _assert_identical(oracle, other, what: str, program: str) -> None:
    assert other.outputs == oracle.outputs, f"{what} outputs differ\n{program}"
    assert other.result == oracle.result, f"{what} result differs\n{program}"
    assert other.metrics.parity_key() == oracle.metrics.parity_key(), (
        f"{what} parity_key differs\n{program}"
    )


def _close(a, b, tol=1e-9) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a == b:
            return True
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=120, deadline=None)
def test_random_programs_interpreter_equals_pregel(seed, size):
    program = generate(seed, size)
    try:
        compile_source(program, emit_java=False)
    except GreenMarlError:
        # the generator may produce programs the compiler legitimately
        # rejects (e.g. fission blocked by a filter dependency); those are
        # covered by targeted tests — here we only compare runnable ones.
        return
    _compare(program, seed)


def test_generator_yields_mostly_compilable_programs():
    """Guard the fuzzer's value: most generated programs must compile."""
    ok = 0
    total = 120
    for seed in range(total):
        program = generate(seed, 4)
        try:
            compile_source(program, emit_java=False)
            ok += 1
        except GreenMarlError:
            pass
    assert ok / total > 0.8, f"only {ok}/{total} programs compiled"


def test_fixed_regression_seeds():
    """A few pinned seeds stay green even if hypothesis explores elsewhere."""
    general = ((1, 4), (99, 6), (12345, 5), (777, 3), (31337, 6))
    # combinable tags: SUM and MAX beside a plain tag, MIN among six tags,
    # SUM beside MIN (31337 folds a SUM, relaxation 7 a MAX)
    combinable = ((0, 4), (10, 4), (54, 4))
    # relaxations (seed % 8 == 7): no flag, the improve flag under max= and
    # min=, and its loose / mismatched / swapped / opposite variants
    relaxations = tuple((seed, 4) for seed in (7, 23, 31, 39, 47, 55, 63, 127))
    # traversals (seed % 8 == 5): forward only with an Int and with a Double
    # up-neighbour sum, both sweeps all as array code (Int, Double), and with
    # a down-neighbour term or cast the bulk receivers refuse
    traversals = tuple((seed, 4) for seed in (13, 77, 21, 29, 5, 197))
    # master code (seed % 16 == 11): `||` with divisors (k + 2) / (k + 3),
    # `&&` with -3 / -4, and `||` dividing by -(k + 2); 3–5 supersteps each
    masters = tuple((seed, 4) for seed in (27, 91, 171))
    for seed, size in general + combinable + relaxations + traversals + masters:
        program = generate(seed, size)
        try:
            compile_source(program, emit_java=False)
        except GreenMarlError:
            continue
        _compare(program, seed, mp=mp_available())
