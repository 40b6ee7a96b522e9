"""Bounded path retrieval between seed entities.

For every unordered pair of seed nodes the retriever returns the k shortest
simple paths within a hop budget, ties broken lexicographically by node-id
sequence (Yen, 1971, is the ordering reference). Triplets are collected from
the returned paths in first-appearance order.

The search runs on the graph's node codes (see KnowledgeGraph). Codes follow
sorted ids, so code order is id order and every tie breaks as it would on
ids; ids and Triplet objects are made only for the paths returned, one
Triplet per edge in a call.

Each pair is searched from its smaller id u toward v. One BFS from each
distinct v, to radius max_hops - 1, gives the ball levels that every pair
ending at v shares: a step that leaves `budget` edges may only enter the
ball of radius `budget`. Each step scans the smaller side. A tail with no
more neighbors than the ball has members filters its neighbor codes through
the ball; a hub looks up the ball's sorted codes in its neighbors, by
bisection when the ball is small and else with one np.searchsorted in its
CSR row.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterable

import numpy as np

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


# Ball size from which a hub step looks the ball's members up with one
# np.searchsorted in the hub's CSR row rather than one bisection each. Per
# step, timed on hub rows of the verify-hubs graph: 8 members 2.3 us by
# bisection against 4.6 us by searchsorted, 16 members 5.8 against 5.4 us,
# 32 members 10.6 against 6.5 us. At 2 hops only 3.5% of verify-hubs hub
# steps reach 16 members, but they hold 78% of the members looked up, and
# without this branch retrieval of the first 30 documents took 1.7 rather
# than 1.25 ms CPU per document.
_SEARCHSORTED_MIN = 16


class _Ball:
    """The nodes within each radius of a target, by BFS over codes.

    dist holds the codes in BFS order with their hop distances, so the ball
    of radius b is its first ends[b] keys. A radius's members are sorted on
    first use, to be looked up in a hub's neighbors.
    """

    __slots__ = ("dist", "ends", "_sorted")

    def __init__(self, dist: dict[int, int], ends: list[int]):
        self.dist, self.ends = dist, ends
        self._sorted: dict[int, list[int]] = {}

    def sorted_members(self, radius: int) -> list[int]:
        """The codes within radius hops in ascending order."""
        members = self._sorted.get(radius)
        if members is None:
            members = self._sorted[radius] = sorted(islice(self.dist, self.ends[radius]))
        return members


def _distances_from(kg: KnowledgeGraph, source: int, limit: int) -> _Ball:
    """The ball of radius limit around the node with code source."""
    neighbor_codes = kg._neighbor_codes
    dist = {source: 0}
    ends = [1]
    start = 0  # where the nodes at distance d - 1 begin in dist
    for d in range(1, limit + 1):
        frontier = list(islice(dist, start, None))
        start = len(dist)
        for node in frontier:
            for nbr in neighbor_codes(node):
                if nbr not in dist:
                    dist[nbr] = d
        ends.append(len(dist))
    return _Ball(dist, ends)


def _pair_paths(kg: KnowledgeGraph, u: int, v: int, ball: _Ball,
                config: RetrievalConfig) -> list[tuple[int, ...]]:
    """Shortest simple u-v paths as code tuples, level-synchronous over
    partial paths.

    Expanding partial paths in lexicographic order with sorted neighbor codes
    yields completions already sorted by (length, code sequence), so the
    found list needs no final sort. ball is _distances_from(kg, v,
    max_hops - 1): a step is kept only into the ball of radius `budget` (the
    edges left after it), so a partial path that cannot reach v in time is
    never made. The step scans the smaller side: the tail's neighbor codes
    filtered by the ball, or the ball's sorted codes looked up in the tail's
    neighbors: by bisection for a small ball, else with one np.searchsorted.
    """
    neighbor_codes, dist_v = kg._neighbor_codes, ball.dist
    found: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [(u,)]
    budget = config.max_hops
    while frontier and len(found) < config.max_paths_per_pair:
        budget -= 1  # edges left after one more step
        size = ball.ends[budget]
        members = keys = None
        nxt: list[tuple[int, ...]] = []
        for partial in frontier:
            tail = partial[-1]
            nbrs = neighbor_codes(tail)
            if size < len(nbrs):
                if members is None:
                    members = ball.sorted_members(budget)
                if size < _SEARCHSORTED_MIN:
                    steps = [m for m in members
                             if (i := bisect_left(nbrs, m)) < len(nbrs) and nbrs[i] == m]
                else:
                    if keys is None:
                        keys = np.array(members, dtype=np.int32)
                    steps = kg._neighbors_among(tail, keys)
            else:
                steps = [n for n in nbrs if dist_v.get(n, budget + 1) <= budget]
            for nbr in steps:
                if nbr == v:
                    found.append(partial + (v,))
                elif nbr not in partial:
                    nxt.append(partial + (nbr,))
        frontier = nxt
    return found[:config.max_paths_per_pair]


def _materialize(kg: KnowledgeGraph, codes: tuple[int, ...],
                 triplets: dict[int, Triplet]) -> KgPath:
    """The KgPath of a code path; triplets caches one Triplet per edge."""
    edges = []
    for a, b in zip(codes, codes[1:]):
        edge = kg._edge_code(a, b)
        triplet = triplets.get(edge)
        if triplet is None:
            triplet = triplets[edge] = kg._triplet(edge)
        edges.append(triplet)
    return KgPath(nodes=tuple(map(kg._id, codes)), edges=tuple(edges))


def retrieve(kg: KnowledgeGraph, seeds: Iterable[NodeId],
             config: RetrievalConfig | None = None) -> RetrievedTriplets:
    """Collect bounded shortest paths for every unordered pair of seeds.

    Seeds are deduplicated and sorted; unknown ids raise UnknownNodeError.
    Fewer than two distinct seeds yields an empty result.
    """
    config = config or RetrievalConfig()
    codes = [kg._code(seed) for seed in sorted(set(seeds))]
    triplets: dict[int, Triplet] = {}
    by_pair: dict[tuple[int, int], list[KgPath]] = {}
    for j, v in enumerate(codes[1:], 1):
        ball = _distances_from(kg, v, config.max_hops - 1)
        for u in codes[:j]:
            by_pair[u, v] = [_materialize(kg, p, triplets)
                             for p in _pair_paths(kg, u, v, ball, config)]
    return RetrievedTriplets(paths=tuple(
        p for pair in combinations(codes, 2) for p in by_pair[pair]))
