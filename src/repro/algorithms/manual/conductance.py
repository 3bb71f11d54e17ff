"""Hand-written Pregel conductance.

A Pregel programmer avoids the compiler's incoming-neighbor machinery: every
vertex pushes its membership to its out-neighbors, receivers count crossing
edges, and the degree sums travel through aggregators — three supersteps."""

from __future__ import annotations

from ...pregel.globalmap import GlobalOp
from ...pregel.graph import Graph
from ...pregel.runtime import PregelEngine
from .base import ManualProgram, finish, fixed_size

INF = float("inf")


class ManualConductance(ManualProgram):
    def __init__(self):
        super().__init__("conductance")

    def run(self, graph: Graph, args: dict | None = None, **engine_opts):
        args = dict(args or {})
        num = args["num"]
        member = args.get("member", graph.node_props.get("member"))
        if member is None:
            raise ValueError("conductance needs a 'member' node property")

        def vertex(ctx: PregelEngine, vid: int, messages) -> None:
            superstep = ctx.superstep
            if superstep == 0:
                deg = ctx.graph.out_degree(vid)
                if member[vid] == num:
                    ctx.put_global("Din", GlobalOp.SUM, deg)
                else:
                    ctx.put_global("Dout", GlobalOp.SUM, deg)
                # tell my out-neighbors whether I am inside the subset
                ctx.send_nbrs(vid, (0, member[vid] == num))
            elif superstep == 1:
                if member[vid] != num:
                    crossing = 0
                    for m in messages:
                        if m[1]:
                            crossing += 1
                    if crossing:
                        ctx.put_global("Cross", GlobalOp.SUM, crossing)

        def master(ctx: PregelEngine) -> None:
            if ctx.superstep == 1:
                ctx.put_broadcast("Din", ctx.get_agg("Din", 0))
                ctx.put_broadcast("Dout", ctx.get_agg("Dout", 0))
            elif ctx.superstep == 2:
                d_in = ctx.globals.broadcast["Din"]
                d_out = ctx.globals.broadcast["Dout"]
                cross = ctx.get_agg("Cross", 0)
                m = float(min(d_in, d_out))
                if m == 0.0:
                    ctx.halt(0.0 if cross == 0 else INF)
                else:
                    ctx.halt(cross / m)

        engine = PregelEngine(
            graph, vertex, master, message_size=fixed_size(1), **engine_opts
        )
        return finish(engine, {}, {})
