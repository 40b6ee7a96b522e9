"""Random and hub-shaped graph generation, the exhaustive path oracle for
cross-checking retrieval, and brute-force oracles for the graph store's
lookups."""

import random
from typing import Optional

from claimver.errors import UnknownNodeError
from claimver.kg import KgNode, KnowledgeGraph, NodeId, Triplet, triplet_key
from claimver.text import normalize

PREDICATES = ("rel_a", "rel_b", "rel_c")


def random_graph(rng: random.Random, max_nodes: int = 50,
                 max_edges: int = 150) -> KnowledgeGraph:
    """Graph with random topology: parallel edges, duplicates, and the odd
    self-loop are all allowed on purpose."""
    n = rng.randint(2, max_nodes)
    nodes = [KgNode(f"N{i:03d}", f"node {i:03d}") for i in range(n)]
    triplets = []
    for _ in range(rng.randint(0, max_edges)):
        s = rng.randrange(n)
        o = rng.randrange(n)
        if s == o and rng.random() < 0.8:
            o = (o + 1) % n
        triplets.append(Triplet(f"N{s:03d}", rng.choice(PREDICATES), f"N{o:03d}"))
    return KnowledgeGraph(nodes, triplets)


def hub_graph(rng: random.Random, max_nodes: int = 40,
              max_hubs: int = 3) -> KnowledgeGraph:
    """Star-shaped graph: a few hubs joined to most of an inner half, a
    sparse outer half with the odd parallel edge and self-loop, and a last
    node that no edge touches, so every pair with it has no path. A hub's
    degree exceeds the small balls around an outer target while a leaf's
    does not, so retrieval scans from both sides."""
    n = rng.randint(4, max_nodes)
    ids = [f"N{i:03d}" for i in range(n)]
    core = ids[:-1]
    rng.shuffle(core)
    inner, outer = core[:len(core) // 2 + 1], core[len(core) // 2 + 1:]
    triplets = []
    for hub in rng.sample(inner, rng.randint(1, min(max_hubs, len(inner)))):
        for other in core:
            if other != hub and rng.random() < (0.8 if other in inner else 0.1):
                s, o = (hub, other) if rng.random() < 0.5 else (other, hub)
                triplets.append(Triplet(s, rng.choice(PREDICATES), o))
    for _ in range(rng.randint(0, len(core))):
        triplets.append(Triplet(rng.choice(core), rng.choice(PREDICATES), rng.choice(core)))
    rng.shuffle(triplets)
    return KnowledgeGraph([KgNode(i, f"node {i}") for i in ids], triplets)


def random_seeds(rng: random.Random, kg: KnowledgeGraph, max_seeds: int = 5) -> list[str]:
    ids = list(kg.nodes)
    return rng.sample(ids, rng.randint(0, min(max_seeds, len(ids))))


def enumerate_paths_oracle(kg: KnowledgeGraph, source: NodeId, target: NodeId,
                           max_hops: int) -> list[tuple[NodeId, ...]]:
    """Exhaustively enumerate all simple source-target paths within max_hops.

    Recursive depth-first reference implementation, sorted by (length, node
    sequence) after the fact. Intended for cross-checking retrieve(); it does
    no pruning and no truncation.
    """
    if source == target:
        return []
    if source not in kg:
        raise UnknownNodeError(source)
    if target not in kg:
        raise UnknownNodeError(target)
    out: list[tuple[NodeId, ...]] = []

    def walk(path: list[NodeId], seen: set[NodeId]):
        tail = path[-1]
        if tail == target:
            out.append(tuple(path))
            return
        if len(path) - 1 >= max_hops:
            return
        for nbr in kg.neighbors(tail):
            if nbr not in seen:
                path.append(nbr)
                seen.add(nbr)
                walk(path, seen)
                path.pop()
                seen.remove(nbr)

    walk([source], {source})
    return sorted(out, key=lambda p: (len(p), p))


def neighbors_oracle(kg: KnowledgeGraph, node: NodeId) -> tuple[NodeId, ...]:
    """Sorted distinct other endpoints of the edges touching node, by a scan of
    every edge; a self-loop makes the node its own neighbor."""
    return tuple(sorted({t.object if t.subject == node else t.subject
                         for t in kg.edges if node in (t.subject, t.object)}))


def edge_between_oracle(kg: KnowledgeGraph, a: NodeId, b: NodeId) -> Optional[Triplet]:
    """First edge in file order joining a and b in either direction, or None."""
    return next((t for t in kg.edges if (t.subject, t.object) in ((a, b), (b, a))), None)


def contains_triplet_oracle(kg: KnowledgeGraph, subject_label: str, predicate: str,
                            object_label: str) -> Optional[Triplet]:
    """First edge in file order whose normalized labels match the candidate."""
    key = triplet_key(subject_label, predicate, object_label)
    return next((t for t in kg.edges if triplet_key(*kg.triplet_labels(t)) == key), None)


def label_index_oracle(kg: KnowledgeGraph) -> dict[str, tuple[NodeId, ...]]:
    """Each non-empty normalized label or alias, in sorted order, mapped to the
    sorted ids of the nodes carrying it, by a scan of every node."""
    surfaces = {nid: {normalize(x) for x in (n.label, *n.aliases)} - {""}
                for nid, n in kg.nodes.items()}
    return {key: tuple(sorted(nid for nid, keys in surfaces.items() if key in keys))
            for key in sorted(set().union(*surfaces.values()))}
