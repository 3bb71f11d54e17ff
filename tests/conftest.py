"""Shared fixtures: small deterministic graphs with standard properties."""

from __future__ import annotations

import random

import pytest

from repro.graphgen import attach_standard_props, bipartite, twitter_like, uniform_random
from repro.pregel import Graph


def make_random_graph(num_nodes: int, num_edges: int, seed: int) -> Graph:
    graph = uniform_random(num_nodes, num_edges, seed=seed)
    attach_standard_props(graph, seed=seed + 1)
    return graph


@pytest.fixture(scope="session")
def small_graph() -> Graph:
    """60 nodes / ~240 edges with age/member/len properties."""
    return make_random_graph(60, 240, seed=11)


@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """A fixed 6-node graph for hand-checkable assertions."""
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 0)]
    graph = Graph.from_edges(6, edges, edge_props={"len": [3, 1, 4, 1, 5, 9, 2, 6]})
    graph.add_node_prop("age", [15, 40, 17, 55, 19, 30])
    graph.add_node_prop("member", [1, 0, 1, 1, 0, 0])
    return graph


@pytest.fixture(scope="session")
def bipartite_graph() -> Graph:
    return bipartite(25, 25, num_edges=120, seed=3)


@pytest.fixture(scope="session")
def skewed_graph() -> Graph:
    graph = twitter_like(200, avg_degree=8, seed=5)
    attach_standard_props(graph, seed=6)
    return graph


def loop_vertices(registry) -> dict[str, int]:
    """``pregel.loop_vertices`` of a registry, by loop kind: vertices the
    generated phase loops computed, and those a per-vertex function's
    adapter did."""
    family = registry.snapshot().get("pregel.loop_vertices", {"series": []})
    return {row["labels"]["loop"]: row["value"] for row in family["series"]}
