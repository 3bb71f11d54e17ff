"""Performance optimizations on the Pregel IR (§4.2).

**State Merging** — two vertex phases scheduled in consecutive supersteps are
fused into one when no BSP barrier is required between them:

* the second phase must not *receive* messages (they could only have been
  sent by the first phase, and message delivery needs a superstep boundary);
* master instructions between the two phases must be safe to postpone: only
  global finalizations whose value the second phase neither reads (via the
  broadcast map) nor contributes to (via puts).

Each fused phase simply executes both bodies in order inside one
``compute()`` call, with the original loop filters pushed down as guards —
exactly the paper's merged ``do_state_4``.

**Intra-Loop State Merging** — inside a While loop whose body (after state
merging) is ``LEAD-seq, P₁, MID, P_k, TAIL-seq``, the last phase of iteration
*i* is fused with the first phase of iteration *i + 1*, guarded by a
compiler-inserted ``_is_first`` flag (Figure 5).  The merged loop executes
``P₁`` one extra time whose messages dangle and are dropped — the paper's
"safely dropped by the system as they have no side effect".  The pass
verifies the dataflow conditions that make the reordering and the extra
execution unobservable before applying it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.ast import BinOp, UnOp
from ..lang import types as ty
from ..transform.pipeline import RuleLog
from ..pregelir.ir import (
    Bin,
    Call,
    CastTo,
    Cond,
    Field,
    GlobalGet,
    Lit,
    MAssign,
    MBranch,
    MFinalize,
    MHalt,
    MInstr,
    MJump,
    MLabel,
    MVPhase,
    PregelIR,
    Un,
    VAppendInNbr,
    VAssignLocal,
    VExpr,
    VFieldAssign,
    VFieldReduce,
    VGlobalPut,
    VIf,
    VLocal,
    VMsgLoop,
    VSendNbrs,
    VSendTo,
    VStmt,
    VertexPhase,
)


# ---------------------------------------------------------------------------
# IR walkers
# ---------------------------------------------------------------------------


def _walk_exprs(stmts: list[VStmt]):
    for stmt in stmts:
        if isinstance(stmt, (VLocal, VAssignLocal, VFieldAssign, VFieldReduce, VGlobalPut)):
            yield stmt.expr
        elif isinstance(stmt, VIf):
            yield stmt.cond
            yield from _walk_exprs(stmt.then)
            yield from _walk_exprs(stmt.other)
        elif isinstance(stmt, VSendNbrs):
            yield from stmt.payload
        elif isinstance(stmt, VSendTo):
            yield stmt.target
            yield from stmt.payload
        elif isinstance(stmt, VAppendInNbr):
            yield stmt.source
        elif isinstance(stmt, VMsgLoop):
            yield from _walk_exprs(stmt.body)


def _expr_globals(expr: VExpr, out: set[str]) -> None:
    if isinstance(expr, GlobalGet):
        out.add(expr.name)
    for attr in ("lhs", "rhs", "operand", "cond", "then", "other"):
        child = getattr(expr, attr, None)
        if isinstance(child, VExpr):
            _expr_globals(child, out)


def phase_global_reads(phase: VertexPhase) -> set[str]:
    out: set[str] = set()
    for expr in _walk_exprs(phase.receive + phase.compute):
        _expr_globals(expr, out)
    if phase.filter is not None:
        _expr_globals(phase.filter, out)
    return out


def _collect_puts(stmts: list[VStmt], out: set[str]) -> None:
    for stmt in stmts:
        if isinstance(stmt, VGlobalPut):
            out.add(stmt.name)
        elif isinstance(stmt, VIf):
            _collect_puts(stmt.then, out)
            _collect_puts(stmt.other, out)
        elif isinstance(stmt, VMsgLoop):
            _collect_puts(stmt.body, out)


def phase_global_puts(phase: VertexPhase) -> set[str]:
    out: set[str] = set()
    _collect_puts(phase.receive, out)
    _collect_puts(phase.compute, out)
    return out


def _collect_field_writes(stmts: list[VStmt], out: set[str]) -> None:
    for stmt in stmts:
        if isinstance(stmt, (VFieldAssign, VFieldReduce)):
            out.add(stmt.name)
        elif isinstance(stmt, VAppendInNbr):
            out.add("_in_nbrs")
        elif isinstance(stmt, VIf):
            _collect_field_writes(stmt.then, out)
            _collect_field_writes(stmt.other, out)
        elif isinstance(stmt, VMsgLoop):
            _collect_field_writes(stmt.body, out)


def phase_field_writes(phase: VertexPhase, *, compute_only: bool = False) -> set[str]:
    out: set[str] = set()
    if not compute_only:
        _collect_field_writes(phase.receive, out)
    _collect_field_writes(phase.compute, out)
    return out


def _expr_fields(expr: VExpr, out: set[str]) -> None:
    if isinstance(expr, Field):
        out.add(expr.name)
    for attr in ("lhs", "rhs", "operand", "cond", "then", "other"):
        child = getattr(expr, attr, None)
        if isinstance(child, VExpr):
            _expr_fields(child, out)


def phase_field_reads(phase: VertexPhase) -> set[str]:
    out: set[str] = set()
    for expr in _walk_exprs(phase.receive + phase.compute):
        _expr_fields(expr, out)
    if phase.filter is not None:
        _expr_fields(phase.filter, out)
    return out


def guarded_compute(phase: VertexPhase) -> list[VStmt]:
    """A phase's compute body with its iteration filter pushed down."""
    if phase.filter is None or not phase.compute:
        return list(phase.compute)
    return [VIf(phase.filter, list(phase.compute), [])]


# ---------------------------------------------------------------------------
# State Merging
# ---------------------------------------------------------------------------


def merge_states(ir: PregelIR, rules: RuleLog | None = None) -> int:
    """Fuse consecutive vertex phases wherever no barrier is needed.

    Returns the number of merges performed.
    """
    merged = 0
    code = ir.master_code
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(code):
            if not isinstance(code[i], MVPhase):
                i += 1
                continue
            j = i + 1
            hoisted: list[MInstr] = []
            while j < len(code) and isinstance(code[j], (MFinalize, MAssign)):
                hoisted.append(code[j])
                j += 1
            if j >= len(code) or not isinstance(code[j], MVPhase):
                i += 1
                continue
            pa = ir.phases[code[i].phase]  # type: ignore[union-attr]
            pb = ir.phases[code[j].phase]  # type: ignore[union-attr]
            if not _can_merge(pa, pb, hoisted):
                i = j
                continue
            # Fuse pb into pa: run both bodies in one superstep.
            pa.compute = guarded_compute(pa) + guarded_compute(pb)
            pa.filter = None
            pa.receive = pa.receive + pb.receive  # pb.receive is empty (checked)
            pa.label = f"{pa.label}+{pb.label}"
            del ir.phases[pb.phase_id]
            # Postpone the hoisted finalizations to after the fused phase.
            code[i + 1 : j + 1] = hoisted
            merged += 1
            changed = True
    if merged and rules is not None:
        rules.mark("State Merging")
    return merged


def _can_merge(pa: VertexPhase, pb: VertexPhase, between: list[MInstr]) -> bool:
    if pb.receive:
        # pb's messages could only come from pa; delivery needs a barrier.
        return False
    if between:
        hoisted_names = {instr.name for instr in between}  # type: ignore[union-attr]
        if hoisted_names & phase_global_reads(pb):
            return False  # pb would observe the pre-update broadcast value
        finalize_names = {
            instr.name for instr in between if isinstance(instr, MFinalize)
        }
        if finalize_names & phase_global_puts(pb):
            return False  # the postponed finalize would double-count pb's puts
    return True


# ---------------------------------------------------------------------------
# Intra-Loop State Merging
# ---------------------------------------------------------------------------


@dataclass
class _LoopShape:
    """A While loop recognised in the master instruction stream."""

    head_branch: int | None  # index of the entry MBranch (while-form), else None
    body_start: int          # index just after the body label
    body_end: int            # index of the backedge instruction
    backedge: int            # index of MJump(head) or MBranch(cond, body, exit)
    body_label: str
    exit_label: str
    cond: VExpr | None       # loop condition (for while-form re-check)


def _find_innermost_loops(code: list[MInstr]) -> list[_LoopShape]:
    """Recognise straight-line loop bodies (no inner control flow) in the
    instruction stream, in both While and Do-While shapes."""
    labels = {
        instr.label: idx for idx, instr in enumerate(code) if isinstance(instr, MLabel)
    }

    def straight_line(span: list[MInstr]) -> bool:
        return not any(
            isinstance(s, (MLabel, MJump, MBranch, MHalt)) for s in span
        )

    loops: list[_LoopShape] = []
    for idx, instr in enumerate(code):
        if isinstance(instr, MJump) and labels.get(instr.label, len(code)) < idx:
            # while-form: [head:][MBranch(c, body, exit)][body:][B*][MJump(head)]
            head = labels[instr.label]
            if head + 2 >= idx:
                continue
            branch = code[head + 1]
            body_lbl = code[head + 2]
            if not (isinstance(branch, MBranch) and isinstance(body_lbl, MLabel)):
                continue
            if branch.on_true != body_lbl.label:
                continue
            if not straight_line(code[head + 3 : idx]):
                continue
            loops.append(
                _LoopShape(
                    head_branch=head + 1,
                    body_start=head + 3,
                    body_end=idx,
                    backedge=idx,
                    body_label=body_lbl.label,
                    exit_label=branch.on_false,
                    cond=branch.cond,
                )
            )
        elif isinstance(instr, MBranch) and labels.get(instr.on_true, len(code)) < idx:
            # do-while-form: [body:][B*][MBranch(c, body, exit)]
            start = labels[instr.on_true]
            if not straight_line(code[start + 1 : idx]):
                continue
            loops.append(
                _LoopShape(
                    head_branch=None,
                    body_start=start + 1,
                    body_end=idx,
                    backedge=idx,
                    body_label=instr.on_true,
                    exit_label=instr.on_false,
                    cond=instr.cond,
                )
            )
    return loops


def merge_intra_loop(ir: PregelIR, rules: RuleLog | None = None) -> int:
    """Apply Intra-Loop State Merging to every eligible While loop."""
    applied = 0
    while True:
        loop = _next_candidate(ir)
        if loop is None:
            break
        _apply_intra_loop(ir, loop)
        applied += 1
    if applied and rules is not None:
        rules.mark("Intra-Loop Merge")
    return applied


def _next_candidate(ir: PregelIR) -> _LoopShape | None:
    for loop in _find_innermost_loops(ir.master_code):
        if _eligible(ir, loop):
            return loop
    return None


def _eligible(ir: PregelIR, loop: _LoopShape) -> bool:
    code = ir.master_code
    body = code[loop.body_start : loop.body_end]
    phases = [instr.phase for instr in body if isinstance(instr, MVPhase)]
    if len(phases) < 2:
        return False
    first = ir.phases[phases[0]]
    last = ir.phases[phases[-1]]
    if first.phase_id == last.phase_id:
        return False
    if first.receive:
        return False
    if phase_global_puts(first):
        # The extra execution would leave stray puts for later finalizes.
        return False
    if not last.receive and not last.compute:
        return False
    # Master instructions around the boundary (TAIL after last, LEAD before
    # first): the first phase now runs *before* them each iteration, so it may
    # not read any global they write.
    first_idx = next(i for i, s in enumerate(body) if isinstance(s, MVPhase))
    last_idx = max(i for i, s in enumerate(body) if isinstance(s, MVPhase))
    lead = body[:first_idx]
    tail = body[last_idx + 1 :]
    boundary_writes: set[str] = set()
    for instr in lead + tail:
        if isinstance(instr, (MAssign, MFinalize)):
            boundary_writes.add(instr.name)
    if boundary_writes & phase_global_reads(first):
        return False
    # The extra execution of `first` must be unobservable: the fields it
    # writes may only be consumed by phases of this loop body.
    extra_writes = phase_field_writes(first, compute_only=True)
    if extra_writes:
        loop_phase_ids = set(phases)
        for phase in ir.phases.values():
            if phase.phase_id in loop_phase_ids:
                continue
            if extra_writes & phase_field_reads(phase):
                return False
        output_fields = {p.name for p in ir.params if p.is_output}
        if extra_writes & output_fields:
            return False
    # Structural invariant: the dangling messages of the extra execution must
    # not be picked up by whatever runs after the loop.  Receive phases always
    # directly follow their send phase, so this only needs a sanity check.
    first_tags = first.sent_tags()
    if first_tags:
        exit_phase = _phase_after_label(ir, loop.exit_label)
        if exit_phase is not None and exit_phase.received_tags() & first_tags:
            return False
    # Only handle loops we have not already rewritten (flag convention).
    if any(
        isinstance(instr, MAssign) and instr.name.startswith("_is_first")
        for instr in body
    ):
        return False
    return True


def _phase_after_label(ir: PregelIR, label: str) -> VertexPhase | None:
    code = ir.master_code
    idx = next(
        (i for i, s in enumerate(code) if isinstance(s, MLabel) and s.label == label),
        None,
    )
    if idx is None:
        return None
    for instr in code[idx + 1 :]:
        if isinstance(instr, MVPhase):
            return ir.phases[instr.phase]
        if isinstance(instr, (MJump, MBranch, MHalt)):
            return None
    return None


def _apply_intra_loop(ir: PregelIR, loop: _LoopShape) -> None:
    code = ir.master_code
    body = code[loop.body_start : loop.body_end]
    first_idx = next(i for i, s in enumerate(body) if isinstance(s, MVPhase))
    last_idx = max(i for i, s in enumerate(body) if isinstance(s, MVPhase))
    lead = body[:first_idx]
    mid = body[first_idx + 1 : last_idx]
    tail = body[last_idx + 1 :]
    first = ir.phases[body[first_idx].phase]  # type: ignore[union-attr]
    last = ir.phases[body[last_idx].phase]  # type: ignore[union-attr]

    # Numbered per program, so a compilation's output is the same in every
    # process (the type checker keeps user names off this shape).
    seq = 1 + sum(name.startswith("_is_first_") for name in ir.master_fields)
    flag = f"_is_first_{seq}"
    ir.master_fields[flag] = ty.BOOL

    # Build the merged phase: last-of-iteration-i parts (guarded by !flag),
    # then first-of-iteration-(i+1) parts.
    merged = VertexPhase(
        phase_id=max(ir.phases) + 1,
        label=f"intra[{last.label}+{first.label}]",
    )
    merged.receive = list(last.receive)
    merged.compute = [
        VIf(Un(UnOp.NOT, GlobalGet(flag)), guarded_compute(last), [])
    ] + guarded_compute(first)
    ir.phases[merged.phase_id] = merged
    del ir.phases[first.phase_id]
    del ir.phases[last.phase_id]

    suffix = f"il{seq}"
    l_head = f"ilm_head_{suffix}"
    l_first = f"ilm_first_{suffix}"
    l_rest = f"ilm_rest_{suffix}"
    l_cont = f"ilm_cont_{suffix}"
    l_mid = f"ilm_mid_{suffix}"
    cond = loop.cond
    assert cond is not None

    # Layout (Figure 5(b)): per superstep the merged phase runs
    # [P_last of iteration i, P_first of iteration i+1]; the master parts
    # around the iteration boundary (TAIL_i, condition check, LEAD_{i+1})
    # execute — in their original order — in the following superstep's master
    # slot.  On the first pass the flag skips TAIL and the stale P_last part.
    new_body: list[MInstr] = [
        MAssign(flag, Lit(True)),
        *lead,
        MLabel(l_head),
        MVPhase(merged.phase_id),
        MBranch(GlobalGet(flag), l_first, l_rest),
        MLabel(l_first),
        MAssign(flag, Lit(False)),
        MJump(l_mid),
        MLabel(l_rest),
        *tail,
        MBranch(cond, l_cont, loop.exit_label),
        MLabel(l_cont),
        *lead_clone(lead),
        MJump(l_mid),
        MLabel(l_mid),
        *mid,
        MJump(l_head),
    ]

    if loop.head_branch is not None:
        # while-form: keep the entry check, replace [branch][label][body][jump]
        entry = code[loop.head_branch]
        assert isinstance(entry, MBranch)
        entry_branch = MBranch(entry.cond, loop.body_label, loop.exit_label)
        span_start = loop.head_branch
        replacement = [entry_branch, MLabel(loop.body_label)] + new_body
        code[span_start : loop.body_end + 1] = replacement
    else:
        # do-while-form: replace [label][body][branch]
        span_start = loop.body_start - 1
        replacement = [MLabel(loop.body_label)] + new_body
        code[span_start : loop.body_end + 1] = replacement


def lead_clone(lead: list[MInstr]) -> list[MInstr]:
    """LEAD instructions appear twice (loop entry and per-iteration); the
    master interpreter is stateless over instructions so sharing is fine, but
    we re-emit fresh objects to keep the stream unambiguous for printing."""
    out: list[MInstr] = []
    for instr in lead:
        if isinstance(instr, MAssign):
            out.append(MAssign(instr.name, instr.expr))
        elif isinstance(instr, MFinalize):
            out.append(MFinalize(instr.name, instr.op))
        else:
            out.append(instr)
    return out


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def optimize(
    ir: PregelIR,
    rules: RuleLog | None = None,
    *,
    state_merging: bool = True,
    intra_loop_merging: bool = True,
    tracer=None,
) -> PregelIR:
    """Apply the §4.2 optimizations in place and return ``ir``.

    ``tracer`` (a ``repro.obs`` tracer) records one ``compile.pass`` event
    per optimization, including the vertex-phase count before and after —
    the state-machine shrinkage the paper's Figure 5 illustrates.
    """
    traced = tracer is not None and tracer.enabled

    def _pass(rule: str, fn) -> None:
        before = len(ir.phases)
        if not traced:
            fn()
            return
        t0 = tracer.now()
        applied = bool(fn())  # merge count from this invocation, not the
        tracer.event(  # cumulative rule log (the re-run may be a no-op)
            "compile.pass",
            cat="compile",
            det={
                "pass": rule,
                "applied": applied,
                "states_before": before,
                "states_after": len(ir.phases),
            },
            ts=t0,
            dur=tracer.now() - t0,
        )

    if state_merging:
        _pass("State Merging", lambda: merge_states(ir, rules))
    if intra_loop_merging:
        _pass("Intra-Loop Merge", lambda: merge_intra_loop(ir, rules))
        if state_merging:
            _pass("State Merging", lambda: merge_states(ir, rules))
    return ir
