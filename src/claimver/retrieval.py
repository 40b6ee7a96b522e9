"""Bounded path retrieval between seed entities.

For every unordered pair of seed nodes the retriever returns the k shortest
simple paths within a hop budget, ties broken lexicographically by node-id
sequence. Triplets are collected from the returned paths in first-appearance
order.

Each pair is searched from its smaller id u toward v. One BFS from each
distinct v, to radius max_hops - 1, gives the ball levels that every pair
ending at v shares: a step that leaves `budget` edges may only enter the
ball of radius `budget`. Each step scans the smaller side, the tail's
neighbors or that ball, so the last hop out of a hub costs one bisection
instead of a scan of its neighbors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterable

from .errors import UnknownNodeError
from .kg import KnowledgeGraph, NodeId, Triplet


@dataclass(frozen=True)
class RetrievalConfig:
    max_hops: int = 3
    max_paths_per_pair: int = 4

    def __post_init__(self):
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")
        if self.max_paths_per_pair < 1:
            raise ValueError(
                f"max_paths_per_pair must be >= 1, got {self.max_paths_per_pair}")


@dataclass(frozen=True)
class KgPath:
    """A simple path between two seeds, oriented from the smaller node id.

    edges[i] is the stored triplet joining nodes[i] and nodes[i+1]; when
    parallel edges exist the one earliest in the snapshot is used.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Triplet, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError("edge count must be node count minus one")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path nodes must be distinct")


@dataclass(frozen=True)
class RetrievedTriplets:
    """Paths found for all seed pairs plus their deduplicated triplets."""

    paths: tuple[KgPath, ...]
    triplets: tuple[Triplet, ...] = field(init=False)

    def __post_init__(self):
        seen: dict[Triplet, None] = {}
        for path in self.paths:
            for edge in path.edges:
                seen.setdefault(edge, None)
        object.__setattr__(self, "triplets", tuple(seen))


def _distances_from(kg: KnowledgeGraph, source: NodeId,
                    limit: int) -> tuple[dict[NodeId, int], list[int]]:
    """Hop distance to every node within limit of source (plain BFS).

    The dict holds the nodes in BFS order, so the ball of radius b (every node
    within b hops of source) is its first ends[b] keys.
    """
    dist = {source: 0}
    ends = [1]
    frontier = [source]
    for d in range(1, limit + 1):
        nxt = []
        for node in frontier:
            for nbr in kg.neighbors(node):
                if nbr not in dist:
                    dist[nbr] = d
                    nxt.append(nbr)
        frontier = nxt
        ends.append(len(dist))
    return dist, ends


def _pair_paths(kg: KnowledgeGraph, u: NodeId, v: NodeId,
                ball: tuple[dict[NodeId, int], list[int]],
                config: RetrievalConfig) -> list[tuple[NodeId, ...]]:
    """Shortest simple u-v paths, level-synchronous over partial paths.

    Expanding partial paths in lexicographic order with sorted neighbor lists
    yields completions already sorted by (length, node sequence), so the found
    list needs no final sort. ball is _distances_from(kg, v, max_hops - 1): a
    step is kept only into the ball of radius `budget` (the edges left after
    it), so a partial path that cannot reach v in time is never made. The
    step scans the smaller side: the tail's sorted neighbors filtered by the
    ball, or the ball's members looked up by bisection in those neighbors.
    """
    dist_v, ends = ball
    found: list[tuple[NodeId, ...]] = []
    frontier: list[tuple[NodeId, ...]] = [(u,)]
    budget = config.max_hops
    while frontier and len(found) < config.max_paths_per_pair:
        budget -= 1  # edges left after one more step
        size = ends[budget]
        nxt: list[tuple[NodeId, ...]] = []
        for partial in frontier:
            nbrs = kg.neighbors(partial[-1])
            if size < len(nbrs):
                steps = sorted(m for m in islice(dist_v, size)
                               if (i := bisect_left(nbrs, m)) < len(nbrs) and nbrs[i] == m)
            else:
                steps = [n for n in nbrs if dist_v.get(n, budget + 1) <= budget]
            for nbr in steps:
                if nbr == v:
                    found.append(partial + (v,))
                elif nbr not in partial:
                    nxt.append(partial + (nbr,))
        frontier = nxt
    return found[:config.max_paths_per_pair]


def _materialize(kg: KnowledgeGraph, nodes: tuple[NodeId, ...]) -> KgPath:
    edges = tuple(kg.edge_between(a, b) for a, b in zip(nodes, nodes[1:]))
    return KgPath(nodes=nodes, edges=edges)


def retrieve(kg: KnowledgeGraph, seeds: Iterable[NodeId],
             config: RetrievalConfig | None = None) -> RetrievedTriplets:
    """Collect bounded shortest paths for every unordered pair of seeds.

    Seeds are deduplicated and sorted; unknown ids raise UnknownNodeError.
    Fewer than two distinct seeds yields an empty result.
    """
    config = config or RetrievalConfig()
    unique = sorted(set(seeds))
    for seed in unique:
        if seed not in kg:
            raise UnknownNodeError(seed)
    by_pair: dict[tuple[NodeId, NodeId], list[KgPath]] = {}
    for j, v in enumerate(unique[1:], 1):
        ball = _distances_from(kg, v, config.max_hops - 1)
        for u in unique[:j]:
            by_pair[u, v] = [_materialize(kg, p) for p in _pair_paths(kg, u, v, ball, config)]
    return RetrievedTriplets(paths=tuple(
        p for pair in combinations(unique, 2) for p in by_pair[pair]))
