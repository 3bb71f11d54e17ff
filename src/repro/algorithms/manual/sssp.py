"""Hand-written Pregel SSSP (the original Pregel paper's example).

Uses vote-to-halt: vertices go inactive once their distance stops improving
and are only woken by new candidate distances.  The paper's compiler does not
use vote-to-halt (§5.2), which is exactly why its generated SSSP was ~35%
slower on Twitter — this baseline preserves that asymmetry so the experiment
can reproduce the effect."""

from __future__ import annotations

from ...pregel.graph import Graph
from ...pregel.runtime import PregelEngine
from .base import ManualProgram, finish, fixed_size

INF = float("inf")


class ManualSSSP(ManualProgram):
    def __init__(self):
        super().__init__("sssp")

    def run(self, graph: Graph, args: dict | None = None, **engine_opts):
        args = dict(args or {})
        root = args["root"]
        length = graph.edge_props["len"]
        n = graph.num_nodes
        dist = [INF] * n
        out_off = graph.out_offsets
        out_tgt = graph.out_targets

        def vertex(ctx: PregelEngine, vid: int, messages) -> None:
            if ctx.superstep == 0:
                changed = vid == root
                if changed:
                    dist[vid] = 0
            else:
                best = dist[vid]
                for m in messages:
                    if m[1] < best:
                        best = m[1]
                changed = best < dist[vid]
                dist[vid] = best
            lo, hi = out_off[vid], out_off[vid + 1]
            if changed and lo != hi:
                base = dist[vid]
                ctx.send_each(out_tgt[lo:hi], [(0, base + length[ei]) for ei in range(lo, hi)])
            ctx.vote_to_halt(vid)

        engine = PregelEngine(
            graph,
            vertex,
            master_compute=None,
            message_size=fixed_size(4),
            use_voting=True,
            **engine_opts,
        )
        return finish(engine, {"dist": dist}, {"dist": dist})
