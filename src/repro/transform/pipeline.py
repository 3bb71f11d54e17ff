"""The Green-Marl→Green-Marl half of the compilation pipeline (Fig. 1).

Runs the §4.1 transformation passes in dependency order, re-type-checking
after each rewrite, and verifies the result is Pregel-canonical.  Applied
rules are recorded under the paper's Table 3 row names so the benchmark can
regenerate that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.ast import Procedure
from ..lang.errors import NotPregelCanonicalError
from ..lang.typecheck import CheckResult, typecheck
from ..analysis.canonical import check_canonical
from ..analysis.loops import refuse_racing_writes
from .bfs_lowering import lower_bfs
from .dissect import dissect
from .edge_flip import flip_edges
from .normalize import normalize
from .random_access import rewrite_random_access
from .rewriter import NameGenerator

#: Table 3 row names, in the paper's order.
TABLE3_ROWS = (
    "State Machine Const.",
    "Global Object",
    "Multiple Comm.",
    "Random Writing",
    "Edge Property",
    "Flipping Edge",
    "Dissecting Loops",
    "Random Access (Seq.)",
    "BFS Traversal",
    "State Merging",
    "Intra-Loop Merge",
    "Incoming Neighbors",
    "Message Class Gen.",
)


@dataclass
class RuleLog:
    """Which named compiler rules fired during a compilation."""

    applied: set[str] = field(default_factory=set)

    def mark(self, rule: str) -> None:
        self.applied.add(rule)

    def row(self) -> dict[str, bool]:
        return {name: name in self.applied for name in TABLE3_ROWS}


@dataclass
class CanonicalProgram:
    """A type-checked, Pregel-canonical Green-Marl procedure plus the rule log
    accumulated while producing it."""

    procedure: Procedure
    check: CheckResult
    rules: RuleLog


def to_canonical(
    proc: Procedure, *, rules: RuleLog | None = None, tracer=None
) -> CanonicalProgram:
    """Transform ``proc`` (in place) into Pregel-canonical form.

    Raises :class:`NotPregelCanonicalError` if violations remain after all
    transformation rules have been applied — mirroring the paper's
    "otherwise, the compiler reports an error".

    ``tracer`` (a ``repro.obs`` tracer) records one ``compile.pass`` event
    per transformation — which §4.1 rules fired and how long each took, the
    raw material Table 3 is regenerated from.
    """
    log = rules if rules is not None else RuleLog()
    if tracer is None or not tracer.enabled:
        from ..obs.tracer import NULL_TRACER

        tracer = NULL_TRACER

    def _pass(rule: str, fn) -> None:
        t0 = tracer.now()
        applied = bool(fn())
        if applied and rule in TABLE3_ROWS:
            log.mark(rule)
        tracer.event(
            "compile.pass",
            cat="compile",
            det={"pass": rule, "applied": applied},
            ts=t0,
            dur=tracer.now() - t0,
        )
        typecheck(proc)

    result = typecheck(proc)
    refuse_racing_writes(proc)
    graph_name = result.graph_name
    names = NameGenerator.for_procedure(proc)

    _pass("Normalize", lambda: normalize(proc) or True)
    _pass("BFS Traversal", lambda: lower_bfs(proc, graph_name, names))
    _pass("Random Access (Seq.)", lambda: rewrite_random_access(proc, graph_name, names))
    _pass("Dissecting Loops", lambda: dissect(proc, graph_name, names).applied)
    _pass("Flipping Edge", lambda: flip_edges(proc))
    result = typecheck(proc)

    violations = check_canonical(proc)
    if violations:
        detail = "\n".join(f"  - {v}" for v in violations)
        raise NotPregelCanonicalError(
            "the program is not Pregel-canonical and no transformation rule "
            f"applies:\n{detail}",
            violations[0].span,
        )
    return CanonicalProgram(proc, result, log)
