"""Hand-written Pregel random bipartite matching.

The classic three-superstep handshake, phase selected by ``superstep % 3``:

* phase 0 — right vertices apply last round's match notifications; unmatched
  left vertices propose to *all* neighbors (a vertex cannot read its
  neighbor's state in Pregel, so matched receivers simply ignore proposals);
* phase 1 — each unmatched right vertex picks one suitor (last proposal wins,
  mirroring Green-Marl's racy parallel write) and answers it; an aggregator
  records that the round still had activity;
* phase 2 — left vertices finalize the match and notify the right vertex.

The master halts when a round's phase 1 saw no proposal land on an unmatched
right vertex — the same condition the Green-Marl program's
``finished &= False`` computes."""

from __future__ import annotations

from ...pregel.globalmap import GlobalOp
from ...pregel.graph import Graph
from ...pregel.runtime import PregelEngine
from .base import ManualProgram, finish, fixed_size

NIL = -1


class ManualBipartiteMatching(ManualProgram):
    def __init__(self):
        super().__init__("bipartite_matching")

    def run(self, graph: Graph, args: dict | None = None, **engine_opts):
        args = dict(args or {})
        is_left = args.get("is_left", graph.node_props.get("is_left"))
        if is_left is None:
            raise ValueError("bipartite_matching needs an 'is_left' node property")
        n = graph.num_nodes
        match = [NIL] * n

        def vertex(ctx: PregelEngine, vid: int, messages) -> None:
            phase = ctx.superstep % 3
            if phase == 0:
                for m in messages:  # match notifications from phase 2
                    match[vid] = m[1]
                if is_left[vid] and match[vid] == NIL:
                    ctx.send_nbrs(vid, (0, vid))
            elif phase == 1:
                if not is_left[vid] and match[vid] == NIL and messages:
                    suitor = NIL
                    for m in messages:
                        suitor = m[1]  # last proposal wins
                    ctx.send(suitor, (1, vid))
                    ctx.put_global("active", GlobalOp.OR, True)
            else:
                if is_left[vid] and match[vid] == NIL and messages:
                    girl = NIL
                    for m in messages:
                        girl = m[1]  # last answer wins
                    match[vid] = girl
                    ctx.send(girl, (2, vid))
                    ctx.put_global("matched", GlobalOp.SUM, 1)

        def master(ctx: PregelEngine) -> None:
            superstep = ctx.superstep
            if superstep == 0:
                ctx.put_broadcast("count", 0)
                return
            if superstep % 3 == 0:
                ctx.put_broadcast(
                    "count", ctx.globals.broadcast["count"] + ctx.get_agg("matched", 0)
                )
            elif superstep % 3 == 2:
                if not ctx.get_agg("active", False):
                    ctx.halt(ctx.globals.broadcast["count"])

        engine = PregelEngine(
            graph, vertex, master, message_size=fixed_size(4), **engine_opts
        )
        return finish(engine, {"match": match}, {"match": match})
