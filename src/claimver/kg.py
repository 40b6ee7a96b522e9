"""Triplet knowledge-graph store: snapshot loading, indexing, and lookups.

A graph is immutable after load and safe to share across threads. Matching of
labels, aliases, and predicates uses one normalization everywhere: Unicode
case-fold, collapse internal whitespace, trim.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .errors import KgLoadError, UnknownNodeError
from .text import format_triplet, normalize

logger = logging.getLogger(__name__)

NodeId = str


@dataclass(frozen=True)
class KgNode:
    """One entity: id, display label, optional description and aliases."""

    id: NodeId
    label: str
    description: str = ""
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("node id must be non-empty")
        if not self.label:
            raise ValueError(f"node {self.id!r} has an empty label")
        folded = [normalize(a) for a in self.aliases]
        if len(set(folded)) != len(folded):
            raise ValueError(f"node {self.id!r} has duplicate aliases after case-folding")


@dataclass(frozen=True)
class Triplet:
    """One stored fact: (subject id, predicate label, object id)."""

    subject: NodeId
    predicate: str
    object: NodeId


def triplet_key(subject_label: str, predicate: str, object_label: str) -> tuple[str, str, str]:
    """Normalized (s, p, o) label triple under which triplets are matched."""
    return normalize(subject_label), normalize(predicate), normalize(object_label)


class KnowledgeGraph:
    """Node table plus adjacency and label indexes over a triplet snapshot.

    Adjacency is undirected (each edge is reachable from both endpoints);
    triplet direction is preserved in the stored edges for display.
    Instances are read-only after construction.
    """

    def __init__(self, nodes: dict[NodeId, KgNode], edges: tuple[Triplet, ...],
                 load_report: tuple[str, ...] = ()):
        self.nodes = nodes
        self.edges = edges
        self.load_report = load_report

        adjacency: dict[NodeId, list[tuple[NodeId, int]]] = {nid: [] for nid in nodes}
        pair_edge: dict[tuple[NodeId, NodeId], int] = {}
        for idx, t in enumerate(edges):
            adjacency[t.subject].append((t.object, idx))
            if t.object != t.subject:
                adjacency[t.object].append((t.subject, idx))
            pair_edge.setdefault((t.subject, t.object), idx)
            pair_edge.setdefault((t.object, t.subject), idx)
        self.adjacency: dict[NodeId, tuple[tuple[NodeId, int], ...]] = {
            nid: tuple(entries) for nid, entries in adjacency.items()
        }
        self._pair_edge = pair_edge
        self._neighbor_sets: dict[NodeId, tuple[NodeId, ...]] = {
            nid: tuple(sorted({nbr for nbr, _ in entries}))
            for nid, entries in self.adjacency.items()
        }

        label_index: dict[str, set[NodeId]] = {}
        for node in nodes.values():
            for surface in (node.label, *node.aliases):
                key = normalize(surface)
                if key:
                    label_index.setdefault(key, set()).add(node.id)
        self.label_index: dict[str, tuple[NodeId, ...]] = {
            key: tuple(sorted(ids)) for key, ids in sorted(label_index.items())
        }
        self.max_label_tokens = max((len(k.split()) for k in self.label_index), default=0)

        triplet_index: dict[tuple[str, str, str], Triplet] = {}
        for t in edges:
            triplet_index.setdefault(triplet_key(*self.triplet_labels(t)), t)
        self._triplet_index = triplet_index

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.nodes

    def label_of(self, node_id: NodeId) -> str:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        return node.label

    def triplet_labels(self, t: Triplet) -> tuple[str, str, str]:
        """A stored triplet as (subject label, predicate, object label)."""
        return self.label_of(t.subject), t.predicate, self.label_of(t.object)

    def neighbors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Sorted distinct neighbors of a node, both edge directions."""
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        return self._neighbor_sets[node_id]

    def edge_between(self, a: NodeId, b: NodeId) -> Triplet:
        """Canonical stored edge joining two adjacent nodes (first in file order)."""
        idx = self._pair_edge.get((a, b))
        if idx is None:
            raise KeyError(f"no edge between {a!r} and {b!r}")
        return self.edges[idx]

    def lookup_by_label(self, surface: str) -> list[NodeId]:
        """All node ids whose label or alias equals the normalized surface."""
        return list(self.label_index.get(normalize(surface), ()))

    def contains_triplet(self, subject_label: str, predicate: str,
                         object_label: str) -> Optional[Triplet]:
        """The stored triplet whose labels match the candidate, if any."""
        return self._triplet_index.get(triplet_key(subject_label, predicate, object_label))


def build_graph(nodes: Iterable[KgNode], triplets: Iterable[Triplet],
                load_report: Iterable[str] = ()) -> KnowledgeGraph:
    """Assemble an indexed graph from node and triplet records.

    Duplicate triplets are dropped (first occurrence kept); self-loops are kept
    but noted in the load report. Node iteration order is sorted by id.
    """
    node_map = {n.id: n for n in sorted(nodes, key=lambda n: n.id)}
    report = list(load_report)
    seen: set[Triplet] = set()
    kept: list[Triplet] = []
    for t in triplets:
        if t.subject not in node_map:
            raise UnknownNodeError(t.subject)
        if t.object not in node_map:
            raise UnknownNodeError(t.object)
        if t in seen:
            continue
        seen.add(t)
        if t.subject == t.object:
            loop = format_triplet(t.subject, t.predicate, t.object)
            report.append(f"self-loop triplet kept: {loop}")
        kept.append(t)
    return KnowledgeGraph(node_map, tuple(kept), tuple(report))


def _sidecar_path(path: Path) -> Optional[Path]:
    candidate = path.with_name(f"{path.stem}.nodes{path.suffix}")
    return candidate if candidate.is_file() else None


class _SnapshotReader:
    """Accumulates rows from a snapshot plus optional node file."""

    def __init__(self):
        self.labels: dict[NodeId, str] = {}
        self.descriptions: dict[NodeId, str] = {}
        self.aliases: dict[NodeId, list[str]] = {}
        self.first_ref: dict[NodeId, int] = {}
        self.edge_rows: list[tuple[int, NodeId, str, NodeId]] = []
        self.errors: list[str] = []
        self.report: list[str] = []

    def offer_label(self, node_id: NodeId, label: str, line: int):
        self.first_ref.setdefault(node_id, line)
        if not label:
            return
        known = self.labels.get(node_id)
        if known is None:
            self.labels[node_id] = label
        elif normalize(known) != normalize(label):
            self.report.append(
                f"line {line}: conflicting label {label!r} for {node_id!r}; kept {known!r}")

    def add_aliases(self, node_id: NodeId, aliases: Iterable[str]):
        bucket = self.aliases.setdefault(node_id, [])
        seen = {normalize(a) for a in bucket}
        for alias in aliases:
            alias = alias.strip()
            key = normalize(alias)
            if alias and key not in seen:
                bucket.append(alias)
                seen.add(key)

    def finish(self, lenient: bool) -> KnowledgeGraph:
        dangling = {nid for nid in self.first_ref if nid not in self.labels}
        for nid in sorted(dangling):
            self.errors.append(
                f"line {self.first_ref[nid]}: dangling node reference {nid!r} (no label found)")
        if self.errors and not lenient:
            raise KgLoadError(self.errors)
        if self.errors:
            self.report.extend(f"skipped: {e}" for e in self.errors)

        nodes = [
            KgNode(id=nid, label=label,
                   description=self.descriptions.get(nid, ""),
                   aliases=tuple(self.aliases.get(nid, ())))
            for nid, label in self.labels.items()
        ]
        triplets = [
            Triplet(s, p, o)
            for _, s, p, o in self.edge_rows
            if s not in dangling and o not in dangling
        ]
        return build_graph(nodes, triplets, self.report)


def _read_tsv(reader: _SnapshotReader, path: Path):
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            reader.errors.append(f"line {line_no}: expected 5 tab-separated columns, got {len(cols)}")
            continue
        s_id, s_label, pred, o_id, o_label = (c.strip() for c in cols)
        if not s_id or not pred or not o_id:
            reader.errors.append(f"line {line_no}: empty subject id, predicate, or object id")
            continue
        reader.offer_label(s_id, s_label, line_no)
        reader.offer_label(o_id, o_label, line_no)
        reader.edge_rows.append((line_no, s_id, pred, o_id))


def _read_tsv_nodes(reader: _SnapshotReader, path: Path):
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) not in (2, 3):
            reader.errors.append(
                f"line {line_no} (node file): expected 2 or 3 tab-separated columns, got {len(cols)}")
            continue
        node_id = cols[0].strip()
        if not node_id:
            reader.errors.append(f"line {line_no} (node file): empty node id")
            continue
        if node_id not in reader.first_ref:
            reader.errors.append(
                f"line {line_no} (node file): unknown node id {node_id!r}")
            continue
        if cols[1].strip():
            reader.descriptions.setdefault(node_id, cols[1].strip())
        if len(cols) == 3 and cols[2].strip():
            reader.add_aliases(node_id, cols[2].split("|"))


def _read_jsonl(reader: _SnapshotReader, path: Path):
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            reader.errors.append(f"line {line_no}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(row, dict):
            reader.errors.append(f"line {line_no}: expected a JSON object")
            continue
        s_id = str(row.get("s_id", "")).strip()
        o_id = str(row.get("o_id", "")).strip()
        pred = str(row.get("p", "")).strip()
        if not s_id or not pred or not o_id:
            reader.errors.append(f"line {line_no}: missing s_id, p, or o_id")
            continue
        reader.offer_label(s_id, str(row.get("s_label", "")).strip(), line_no)
        reader.offer_label(o_id, str(row.get("o_label", "")).strip(), line_no)
        reader.edge_rows.append((line_no, s_id, pred, o_id))


def _read_jsonl_nodes(reader: _SnapshotReader, path: Path):
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            reader.errors.append(f"line {line_no} (node file): invalid JSON ({exc.msg})")
            continue
        node_id = str(row.get("id", "")).strip()
        label = str(row.get("label", "")).strip()
        if not node_id:
            reader.errors.append(f"line {line_no} (node file): empty node id")
            continue
        reader.offer_label(node_id, label, line_no)
        if str(row.get("description", "")).strip():
            reader.descriptions.setdefault(node_id, str(row["description"]).strip())
        aliases = row.get("aliases", ())
        if isinstance(aliases, (list, tuple)):
            reader.add_aliases(node_id, (str(a) for a in aliases))


def load_kg(path: str | Path, format: str = "tsv", *,
            nodes_path: str | Path | None = None, lenient: bool = False) -> KnowledgeGraph:
    """Load and index a knowledge-graph snapshot.

    Formats:
      tsv   - one triplet per line: subject_id, subject_label, predicate,
              object_id, object_label (tab separated). Optional companion file
              "<stem>.nodes.tsv" (or nodes_path): node_id, description,
              alias1|alias2|...
      jsonl - one object per line with keys s_id, s_label, p, o_id, o_label.
              Optional node file rows: id, label, description, aliases.

    Rejected rows are reported with their line numbers; by default any rejected
    row fails the load (KgLoadError). With lenient=True they are skipped and
    recorded in the returned graph's load_report.
    """
    path = Path(path)
    if not path.is_file():
        raise KgLoadError([f"no such file: {path}"])
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown format {format!r} (expected 'tsv' or 'jsonl')")

    reader = _SnapshotReader()
    if format == "tsv":
        _read_tsv(reader, path)
    else:
        _read_jsonl(reader, path)

    sidecar = Path(nodes_path) if nodes_path else _sidecar_path(path)
    if nodes_path and not sidecar.is_file():
        raise KgLoadError([f"no such node file: {sidecar}"])
    if sidecar:
        if format == "tsv":
            _read_tsv_nodes(reader, sidecar)
        else:
            _read_jsonl_nodes(reader, sidecar)

    graph = reader.finish(lenient)
    logger.debug("loaded %d nodes, %d edges from %s", len(graph.nodes), len(graph.edges), path)
    return graph
