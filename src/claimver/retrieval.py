"""Bounded path retrieval between seed entities.

For every unordered pair of seed nodes the retriever returns the k shortest
simple paths within a hop budget, ties broken lexicographically by node-id
sequence. Triplets are collected from the returned paths in first-appearance
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
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

    @property
    def hops(self) -> int:
        return len(self.edges)


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


def _distances_from(kg: KnowledgeGraph, source: NodeId, limit: int) -> dict[NodeId, int]:
    """Hop distance to every node within limit of source (plain BFS)."""
    dist = {source: 0}
    frontier = [source]
    for d in range(1, limit + 1):
        nxt = []
        for node in frontier:
            for nbr in kg.neighbors(node):
                if nbr not in dist:
                    dist[nbr] = d
                    nxt.append(nbr)
        frontier = nxt
    return dist


def _pair_paths(kg: KnowledgeGraph, u: NodeId, v: NodeId,
                config: RetrievalConfig) -> list[tuple[NodeId, ...]]:
    """Shortest simple u-v paths, level-synchronous over partial paths.

    Expanding partial paths in lexicographic order with sorted neighbor lists
    yields completions already sorted by (length, node sequence), so the found
    list needs no final sort. Partial paths that cannot reach v within the
    remaining budget are pruned using exact distances to v.
    """
    dist_v = _distances_from(kg, v, config.max_hops)
    if dist_v.get(u, config.max_hops + 1) > config.max_hops:
        return []
    found: list[tuple[NodeId, ...]] = []
    frontier: list[tuple[NodeId, ...]] = [(u,)]
    while frontier and len(found) < config.max_paths_per_pair:
        nxt: list[tuple[NodeId, ...]] = []
        for partial in frontier:
            budget = config.max_hops - len(partial)  # edges left after one more step
            tail = partial[-1]
            for nbr in kg.neighbors(tail):
                if nbr in partial:
                    continue
                if nbr == v:
                    found.append(partial + (v,))
                elif dist_v.get(nbr, budget + 1) <= budget:
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
    paths: list[KgPath] = []
    for u, v in combinations(unique, 2):
        paths.extend(_materialize(kg, p) for p in _pair_paths(kg, u, v, config))
    return RetrievedTriplets(paths=tuple(paths))

