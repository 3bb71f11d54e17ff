"""Hand-written Pregel BFS (level-synchronous, vote-to-halt).

The canonical frontier workload: a vertex computes only in the superstep it
is first reached, then goes inactive forever.  On high-diameter graphs the
frontier is a sliver of the graph for most supersteps, which makes BFS the
reference benchmark for the engine's sparse scheduler
(``scheduling="frontier"``) — the scheduler ablation in
``benchmarks/bench_scheduler.py`` is built on this program.

Not part of :data:`MANUAL_PROGRAMS`: the paper's Figure 6 evaluates five
manual baselines and BFS is not one of them.  This baseline exists for the
scheduler experiments, not the paper tables.
"""

from __future__ import annotations

from ...pregel.graph import Graph
from ...pregel.runtime import PregelEngine
from .base import ManualProgram, finish, fixed_size


class ManualBFS(ManualProgram):
    def __init__(self):
        super().__init__("bfs")

    def run(self, graph: Graph, args: dict | None = None, **engine_opts):
        args = dict(args or {})
        root = args["root"]
        n = graph.num_nodes
        level = [-1] * n

        def vertex(ctx: PregelEngine, vid: int, messages) -> None:
            if ctx.superstep == 0:
                if vid == root:
                    level[vid] = 0
                    ctx.send_nbrs(vid, (0,))
            elif messages and level[vid] < 0:
                level[vid] = ctx.superstep
                ctx.send_nbrs(vid, (0,))
            ctx.vote_to_halt(vid)

        engine = PregelEngine(
            graph,
            vertex,
            master_compute=None,
            # the message is a pure wake-up signal; payload-free on the wire
            message_size=fixed_size(0),
            use_voting=True,
            **engine_opts,
        )
        return finish(engine, {"level": level}, {"level": level})
