"""Bounded path retrieval between seed entities.

For every unordered pair of seed nodes the retriever returns the k shortest
simple paths within a hop budget, ties broken lexicographically by node-id
sequence (Yen, 1971, is the ordering reference). Triplets are collected from
the returned paths in first-appearance order.

One search (_search) runs on the graph's node codes (see KnowledgeGraph)
and returns code paths. Codes follow sorted ids, so code order is id order
and every tie breaks as it would on ids. retrieve() maps the paths found to
ids and Triplet objects, one Triplet per edge in a call; _retrieve_labels,
which datagen uses, reads each distinct edge's label triple straight from
the code columns and builds neither.

Each pair is searched from its smaller id u toward v by joins of sorted
neighbor rows: a length-1 path is one bisection in u's row, the length-2
paths are the common neighbors of u and v, and a longer path is a partial
path from u whose tail has common neighbors with v. Up to three hops this
needs no search around v; the length-3 paths are joined from whichever end
has the shorter row. From four hops on, one BFS from each distinct v, to
radius max_hops - 2, prunes the partial paths of two or more edges that
cannot reach v in time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, starmap
from typing import Iterable

from .kg import KnowledgeGraph, NodeId, Triplet


@dataclass(frozen=True)
class RetrievalConfig:
    max_hops: int = 3
    max_paths_per_pair: int = 4

    def __post_init__(self):
        for name in ("max_hops", "max_paths_per_pair"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


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


def _distances_from(kg: KnowledgeGraph, source: int, limit: int) -> dict[int, int]:
    """The hop distance from the node with code source to each node within
    limit hops, in BFS order."""
    neighbor_codes = kg._neighbor_codes
    dist = {source: 0}
    start = 0  # where the nodes at distance d - 1 begin in dist
    for d in range(1, limit + 1):
        frontier = list(islice(dist, start, None))
        start = len(dist)
        for node in frontier:
            for nbr in neighbor_codes(node):
                if nbr not in dist:
                    dist[nbr] = d
    return dist


def _pair_paths(kg: KnowledgeGraph, u: int, v: int, config: RetrievalConfig,
                dist: dict[int, int] | None) -> list[tuple[int, ...]]:
    """The first max_paths_per_pair simple u-v paths in (length, code
    sequence) order, as code tuples.

    A path of j + 2 edges is a partial path of j edges from u whose tail is
    joined to v through their common neighbors. Partial paths are extended
    in lexicographic order through sorted neighbor codes, so each length's
    paths come out sorted and the search stops at the k-th path. dist is
    _distances_from(kg, v, max_hops - 2), or None when max_hops <= 3: a
    partial path of j >= 2 edges is kept only if its tail is within
    max_hops - j hops of v.

    At max_hops = 3 the length-3 paths are joined from the end with the
    shorter neighbor row. From u, u's neighbors are walked in order up to
    the k-th path; from v, every (a, b) with b a neighbor of v and a one of
    u is collected and sorted. Hubs have the smallest ids, so u is mostly
    the hub, and each join from v probes u's neighbor set. In-process CPU of
    retrieve at 3 hops, with the joins through neighbor sets: joining always
    from u took 0.71 ms per datagen-corpus call and 41 ms per verify-hubs
    document (first 20), against 0.15 and 5.8 ms by this rule. Weighting the
    rule 2x or 4x toward either end changed neither, when it was measured
    with the earlier CSR joins.
    """
    neighbor_codes, common = kg._neighbor_codes, kg._common_neighbors
    k, hops = config.max_paths_per_pair, config.max_hops
    u_nbrs = neighbor_codes(u)
    i = bisect_left(u_nbrs, v)
    found = [(u, v)] if i < len(u_nbrs) and u_nbrs[i] == v else []
    level: list[tuple[int, ...]] = [(u,)]
    for j in range(hops - 1):  # level holds the partial paths of j edges
        if len(found) >= k:
            break
        if j == 1 and hops == 3 and len(neighbor_codes(v)) < len(u_nbrs):
            found += sorted((u, a, b, v) for b in neighbor_codes(v) if b != u and b != v
                            for a in common(b, u) if a != u and a != v and a != b)
            break
        if j:
            level = [p + (x,) for p in level for x in neighbor_codes(p[-1])
                     if x != v and x not in p and (j < 2 or dist.get(x, hops) <= hops - j)]
        for p in level:
            found += [p + (m, v) for m in common(p[-1], v) if m != v and m not in p]
            if len(found) >= k:
                break
    return found[:k]


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


def _search(kg: KnowledgeGraph, seeds: Iterable[NodeId],
            config: RetrievalConfig) -> list[tuple[int, ...]]:
    """The code paths of every unordered pair of the deduplicated, sorted
    seeds: pairs in order, each pair's paths as _pair_paths gives them."""
    codes = [kg._code(seed) for seed in sorted(set(seeds))]
    by_pair: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for j, v in enumerate(codes[1:], 1):
        dist = _distances_from(kg, v, config.max_hops - 2) if config.max_hops >= 4 else None
        for u in codes[:j]:
            by_pair[u, v] = _pair_paths(kg, u, v, config, dist)
    return [p for pair in combinations(codes, 2) for p in by_pair[pair]]


def retrieve(kg: KnowledgeGraph, seeds: Iterable[NodeId],
             config: RetrievalConfig | None = None) -> RetrievedTriplets:
    """Collect bounded shortest paths for every unordered pair of seeds.

    Seeds are deduplicated and sorted; unknown ids raise UnknownNodeError.
    Fewer than two distinct seeds yields an empty result.
    """
    triplets: dict[int, Triplet] = {}
    return RetrievedTriplets(paths=tuple(
        _materialize(kg, p, triplets) for p in _search(kg, seeds, config or RetrievalConfig())))


def _retrieve_labels(kg: KnowledgeGraph, seeds: Iterable[NodeId],
                     config: RetrievalConfig) -> list[tuple[str, str, str]]:
    """The label triples of retrieve(kg, seeds, config).triplets, in order,
    read from the edge codes of the paths found: no path or Triplet is
    built."""
    steps = dict.fromkeys(chain.from_iterable(zip(p, p[1:]) for p in _search(kg, seeds, config)))
    return list(map(kg._edge_labels, dict.fromkeys(starmap(kg._edge_code, steps))))
