"""Message-combiner inference — an extension beyond the paper.

Pregel lets programs register a *combiner* that folds messages headed for the
same vertex at the sender, cutting network traffic for reduction-shaped
communication.  The paper's compiler does not emit combiners (like
vote-to-halt, it is listed among the things manual programmers tune); we add
the analysis as an opt-in optimization and measure its effect in the
ablation benchmarks.

A tag is combinable when every receive site for it is exactly one

    VFieldReduce(field, op, MsgField(0))

with the same commutative-associative ``op`` everywhere and a single-field
payload: then folding payloads with ``op`` before delivery is
observationally equivalent to applying them one by one — up to Pregel's
combiner contract, which takes ``op`` to be associative and commutative: a
float ``SUM``/``PRODUCT`` is not, so combined runs of one may round apart
from uncombined ones (and from the interpreter), and of two equal MIN/MAX
values (``-0.0``, ``0.0``) slots on different workers may deliver either.
The engines fold a slot with ``repro.pregel.fold``'s rule, opened at the
op's identity: a NaN never seeds a MIN/MAX slot.  (Guarded or
multi-statement receives — e.g. SSSP's updated-flag logic — are conservatively
rejected; correct combining there would require a per-program proof.)
"""

from __future__ import annotations

from ..pregel.fold import IDENTITY, GlobalOp
from ..pregelir.ir import MsgField, PregelIR, VFieldReduce, VIf, VMsgLoop, VStmt


def _msg_loops(stmts: list[VStmt], out: list[VMsgLoop]) -> None:
    for stmt in stmts:
        if isinstance(stmt, VMsgLoop):
            out.append(stmt)
        elif isinstance(stmt, VIf):
            _msg_loops(stmt.then, out)
            _msg_loops(stmt.other, out)


def infer_combiners(ir: PregelIR) -> dict[int, GlobalOp]:
    """Tags whose receive code is a pure single-field reduction, with the op
    to combine by."""
    loops: list[VMsgLoop] = []
    for phase in ir.phases.values():
        _msg_loops(phase.receive, loops)
        _msg_loops(phase.compute, loops)

    per_tag: dict[int, set[GlobalOp] | None] = {}
    for loop in loops:
        ops = per_tag.setdefault(loop.tag, set())
        if ops is None:
            continue
        if (
            len(loop.body) == 1
            and isinstance(loop.body[0], VFieldReduce)
            and loop.body[0].op in IDENTITY  # all but OVERWRITE
            and isinstance(loop.body[0].expr, MsgField)
            and loop.body[0].expr.index == 0
        ):
            ops.add(loop.body[0].op)
        else:
            per_tag[loop.tag] = None  # disqualified

    result: dict[int, GlobalOp] = {}
    for tag, ops in per_tag.items():
        if ops and len(ops) == 1 and len(ir.messages[tag].fields) == 1:
            result[tag] = next(iter(ops))
    return result
