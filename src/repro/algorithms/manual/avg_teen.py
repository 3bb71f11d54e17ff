"""Hand-written Pregel Average-Teenage-Followers (the paper's Figure 3)."""

from __future__ import annotations

from ...pregel.globalmap import GlobalOp
from ...pregel.graph import Graph
from ...pregel.runtime import PregelEngine
from .base import ManualProgram, finish, fixed_size


class ManualAvgTeen(ManualProgram):
    def __init__(self):
        super().__init__("avg_teen_cnt")

    def run(self, graph: Graph, args: dict | None = None, **engine_opts):
        args = dict(args or {})
        k = args["K"]
        age = args.get("age", graph.node_props.get("age"))
        if age is None:
            raise ValueError("avg_teen_cnt needs an 'age' node property")
        n = graph.num_nodes
        teen_cnt = [0] * n

        def vertex(ctx: PregelEngine, vid: int, messages) -> None:
            superstep = ctx.superstep
            if superstep == 0:
                # check my age, notify followees (Figure 3 lines 15-26);
                # the message body carries no payload — its arrival means "1".
                if 13 <= age[vid] <= 19:
                    ctx.send_nbrs(vid, (0,))
            elif superstep == 1:
                teen_cnt[vid] = len(messages)
                if age[vid] > k:
                    ctx.put_global("S", GlobalOp.SUM, teen_cnt[vid])
                    ctx.put_global("C", GlobalOp.SUM, 1)

        def master(ctx: PregelEngine) -> None:
            if ctx.superstep == 2:
                s = ctx.get_agg("S", 0)
                c = ctx.get_agg("C", 0)
                ctx.halt(0.0 if c == 0 else s / float(c))

        engine = PregelEngine(
            graph, vertex, master, message_size=fixed_size(0), **engine_opts
        )
        return finish(engine, {"teen_cnt": teen_cnt}, {"teen_cnt": teen_cnt})
