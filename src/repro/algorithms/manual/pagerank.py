"""Hand-written Pregel PageRank (as in the original Pregel paper / GPS
samples), with the same convergence rule as the Green-Marl program: stop when
the L1 change drops to ``e`` or after ``max_iter`` iterations."""

from __future__ import annotations

from ...pregel.globalmap import GlobalOp
from ...pregel.graph import Graph
from ...pregel.runtime import PregelEngine
from .base import ManualProgram, finish, fixed_size


class ManualPageRank(ManualProgram):
    def __init__(self):
        super().__init__("pagerank")

    def run(self, graph: Graph, args: dict | None = None, **engine_opts):
        args = dict(args or {})
        eps = args["e"]
        d = args["d"]
        max_iter = args["max_iter"]
        n = graph.num_nodes
        inv_n = 1.0 / n
        pr = [inv_n] * n
        out_off = graph.out_offsets

        def vertex(ctx: PregelEngine, vid: int, messages) -> None:
            superstep = ctx.superstep
            if superstep == 0:
                pr[vid] = inv_n
            else:
                total = 0.0
                for m in messages:
                    total += m[1]
                val = (1.0 - d) * inv_n + d * total
                ctx.put_global("diff", GlobalOp.SUM, abs(val - pr[vid]))
                pr[vid] = val
            # Keep sending; the master halts the computation once converged
            # (the final round's messages dangle, exactly like the compiler's
            # intra-loop-merged code).
            degree = out_off[vid + 1] - out_off[vid]
            if degree:
                ctx.send_nbrs(vid, (0, pr[vid] / degree))

        def master(ctx: PregelEngine) -> None:
            superstep = ctx.superstep
            if superstep >= 2:
                diff = ctx.get_agg("diff", 0.0)
                cnt = superstep - 1  # completed update rounds
                if not (diff > eps and cnt < max_iter):
                    ctx.halt()

        engine = PregelEngine(
            graph, vertex, master, message_size=fixed_size(8), **engine_opts
        )
        return finish(engine, {"pg_rank": pr}, {"pg_rank": pr})
