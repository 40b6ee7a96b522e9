"""Triplet knowledge-graph store: snapshot loading, indexing, and lookups.

A graph is immutable after load and safe to share across threads. Matching of
labels, aliases, and predicates uses one normalization everywhere: Unicode
case-fold, collapse internal whitespace, trim.
"""

from __future__ import annotations

import gc
import json
import logging
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from sys import intern
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .errors import KgLoadError, UnknownNodeError
from .text import format_triplet, normalize

logger = logging.getLogger(__name__)

NodeId = str


@dataclass(frozen=True, slots=True)
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


class Triplet(NamedTuple):
    """One stored fact: (subject id, predicate label, object id)."""

    subject: NodeId
    predicate: str
    object: NodeId


def triplet_key(subject_label: str, predicate: str, object_label: str) -> tuple[str, str, str]:
    """Normalized (s, p, o) label triple under which triplets are matched."""
    return normalize(subject_label), normalize(predicate), normalize(object_label)


class KnowledgeGraph:
    """Node table plus adjacency and label indexes over a triplet snapshot.

    Nodes are kept sorted by id; node ids must be distinct and a node's
    aliases must stay distinct after normalization (ValueError). Every
    triplet endpoint must be a node (UnknownNodeError). Duplicate triplets
    are dropped, the first kept; self-loops are kept and noted in the load
    report. Adjacency is undirected (each edge is reachable from both
    endpoints); triplet direction is preserved in the stored edges for
    display. Instances are read-only after construction.

    The indexes are built by numpy sorts over integer codes (node
    positions, predicate numbers) instead of per-node dictionaries. The
    triplet index is three code columns sorted together and searched with
    np.searchsorted.
    """

    def __init__(self, nodes: Iterable[KgNode], triplets: Iterable[Triplet],
                 load_report: Iterable[str] = ()):
        ordered = sorted(nodes, key=attrgetter("id"))
        self.nodes = {n.id: n for n in ordered}
        if len(self.nodes) != len(ordered):
            dup = next(a.id for a, b in zip(ordered, ordered[1:]) if a.id == b.id)
            raise ValueError(f"duplicate node id {dup!r}")
        ids = list(self.nodes)
        self.label_index, primary = _label_index(ordered)
        self.max_label_tokens = max((len(k.split()) for k in self.label_index), default=0)
        # Each distinct normalized primary label is coded by its rank.
        label_keys, label_code = np.unique(np.array(primary, dtype=object), return_inverse=True)
        self._label_keys: list[str] = label_keys.tolist()

        # Code columns: endpoint positions (which follow sorted ids) and raw
        # predicate numbers. Codes are 1:1 with ids and predicates, so a
        # repeated triplet is a repeated row.
        rows = list(triplets)
        s, o = _endpoint_codes(ids, rows)
        predicates = {q: i for i, q in enumerate(dict.fromkeys(map(itemgetter(1), rows)))}
        p = _codes(predicates, map(itemgetter(1), rows), len(rows))
        keep = np.zeros(len(rows), dtype=bool)
        keep[_run_heads(s, p, o)] = True
        self.edges = tuple(compress(rows, keep.tolist()))
        del rows
        s, p, o = s[keep], p[keep], o[keep]
        self.load_report = (*load_report, *(
            f"self-loop triplet kept: {format_triplet(*self.edges[i])}"
            for i in np.flatnonzero(s == o).tolist()))

        # Triplet index: (label, normalized predicate, label) code columns
        # sorted together, with the first edge in file order per key.
        self._predicate_codes: dict[str, int] = {}
        to_normalized = np.array(
            [self._predicate_codes.setdefault(normalize(q), len(self._predicate_codes))
             for q in predicates], dtype=np.intp)
        columns = label_code[s], to_normalized[p], label_code[o]
        self._triplet_edges = _run_heads(*columns)
        self._triplet_columns = tuple(c[self._triplet_edges] for c in columns)
        del label_code, p, columns

        # Adjacency: entry 2i is edge i seen from its subject, 2i+1 from its
        # object. One sort by (node, neighbor) keeps the first edge in file
        # order per pair; positions follow sorted ids, so neighbors come out
        # sorted by id.
        ends = np.column_stack((s, o)).ravel()
        others = np.column_stack((o, s)).ravel()
        del s, o
        heads = _run_heads(ends, others)
        bounds = np.searchsorted(ends[heads], np.arange(len(ids) + 1)).tolist()
        nbrs = np.array(ids, dtype=object)[others[heads]].tolist()
        first = np.fromiter(self.edges, dtype=object, count=len(self.edges))[heads // 2].tolist()
        del ends, others, heads
        # node -> (sorted distinct neighbors, first edge in file order to each)
        self._adjacency: dict[NodeId, tuple[tuple[NodeId, ...], tuple[Triplet, ...]]] = {
            nid: (tuple(nbrs[a:b]), tuple(first[a:b]))
            for nid, a, b in zip(ids, bounds, bounds[1:])
        }

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
        try:
            return self._adjacency[node_id][0]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def edge_between(self, a: NodeId, b: NodeId) -> Triplet:
        """Canonical stored edge joining two adjacent nodes (first in file order)."""
        nbrs, edges = self._adjacency.get(a, ((), ()))
        i = bisect_left(nbrs, b)
        if i == len(nbrs) or nbrs[i] != b:
            raise KeyError(f"no edge between {a!r} and {b!r}")
        return edges[i]

    def contains_triplet(self, subject_label: str, predicate: str,
                         object_label: str) -> Optional[Triplet]:
        """The stored triplet whose labels match the candidate, if any."""
        s_key, p_key, o_key = triplet_key(subject_label, predicate, object_label)
        codes = (_rank(self._label_keys, s_key), self._predicate_codes.get(p_key),
                 _rank(self._label_keys, o_key))
        if None in codes:
            return None
        lo, hi = 0, len(self._triplet_edges)
        for column, code in zip(self._triplet_columns, codes):
            first, end = column[lo:hi].searchsorted((code, code + 1)).tolist()
            lo, hi = lo + first, lo + end
        return self.edges[self._triplet_edges[lo]] if lo < hi else None


def _label_index(nodes: list[KgNode]) -> tuple[dict[str, tuple[NodeId, ...]], list[str]]:
    """The label index of nodes sorted by id, and each node's normalized label.

    (key, id) pairs are grouped by a stable sort on the key, so each group
    keeps the sorted id order; a node whose label and alias share a key is
    listed once.
    """
    primary: list[str] = []
    keys: list[str] = []
    owners: list[NodeId] = []
    for node in nodes:
        label = normalize(node.label)
        folded = [normalize(a) for a in node.aliases]
        if len(set(folded)) != len(folded):
            raise ValueError(f"node {node.id!r} has duplicate aliases after case-folding")
        primary.append(label)
        for key in (label, *folded):
            if key:
                keys.append(key)
                owners.append(node.id)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    index = {key: tuple(dict.fromkeys(map(owners.__getitem__, group)))
             for key, group in groupby(order, keys.__getitem__)}
    return index, primary


def _endpoint_codes(ids: list[NodeId], rows: list[Triplet]) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ids of each row's subject and object; UnknownNodeError
    names the first endpoint, in row order, that is not in ids."""
    position = dict(zip(ids, range(len(ids))))
    try:
        return (_codes(position, map(itemgetter(0), rows), len(rows)),
                _codes(position, map(itemgetter(2), rows), len(rows)))
    except KeyError:
        unknown = next(end for s, _, o in rows for end in (s, o) if end not in position)
        raise UnknownNodeError(unknown) from None


def _codes(table: dict, keys: Iterable, count: int) -> np.ndarray:
    """table[k] for each of count keys, as an integer array (KeyError if absent)."""
    return np.fromiter(map(table.__getitem__, keys), dtype=np.intp, count=count)


def _rank(keys: list[str], key: str) -> Optional[int]:
    """Position of key in the sorted list keys, or None if absent."""
    i = bisect_left(keys, key)
    return i if i < len(keys) and keys[i] == key else None


def _run_heads(*columns: np.ndarray) -> np.ndarray:
    """For each distinct row of the equal-length columns, the index of its
    first occurrence; ordered by row, the first column most significant."""
    order = np.lexsort(columns[::-1])
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for column in columns:
        ranked = column[order]
        head[1:] |= ranked[1:] != ranked[:-1]
    return order[head]


# A row decoder's output: (line number, the row's fields or the message
# that rejects the row).
_Rows = Iterator[tuple[int, Union[tuple, str]]]


class _SnapshotReader:
    """Accumulates decoded rows from a snapshot plus optional node file."""

    def __init__(self):
        self.labels: dict[NodeId, str] = {}
        self.descriptions: dict[NodeId, str] = {}
        self.aliases: dict[NodeId, list[str]] = {}
        self.first_ref: dict[NodeId, int] = {}
        self.triplets: list[Triplet] = []
        self.errors: list[str] = []
        self.report: list[str] = []

    def offer_label(self, node_id: NodeId, label: str, line: int):
        self.first_ref.setdefault(node_id, line)
        if not label:
            return
        known = self.labels.setdefault(node_id, label)
        if known != label and normalize(known) != normalize(label):
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

    def read_edges(self, rows: _Rows):
        """Rows of (s_id, s_label, predicate, o_id, o_label)."""
        # A node whose label is already known has its first reference too,
        # and offering the same label again changes nothing.
        labels = self.labels
        for line_no, row in rows:
            if isinstance(row, str):
                self.errors.append(f"line {line_no}: {row}")
                continue
            s_id, s_label, pred, o_id, o_label = row
            if labels.get(s_id) != s_label:
                self.offer_label(s_id, s_label, line_no)
            if labels.get(o_id) != o_label:
                self.offer_label(o_id, o_label, line_no)
            self.triplets.append(Triplet(s_id, pred, o_id))

    def read_nodes(self, rows: _Rows):
        """Rows of (id, label, description, aliases); a label of None means
        the row may only describe a node the snapshot already references."""
        for line_no, row in rows:
            if isinstance(row, str):
                self.errors.append(f"line {line_no} (node file): {row}")
                continue
            node_id, label, description, aliases = row
            if not node_id:
                self.errors.append(f"line {line_no} (node file): empty node id")
                continue
            if label is not None:
                self.offer_label(node_id, label, line_no)
            elif node_id not in self.first_ref:
                self.errors.append(
                    f"line {line_no} (node file): unknown node id {node_id!r}")
                continue
            if description:
                self.descriptions.setdefault(node_id, description)
            if aliases:
                self.add_aliases(node_id, aliases)

    def finish(self, lenient: bool) -> KnowledgeGraph:
        """The graph of everything read; empties the reader's row tables
        first, so they are freed before the graph is indexed."""
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
        triplets = (t for t in self.triplets
                    if t.subject not in dangling and t.object not in dangling)
        for table in (self.labels, self.descriptions, self.aliases, self.first_ref):
            table.clear()
        self.triplets = []
        return KnowledgeGraph(nodes, triplets, self.report)


def _tsv_rows(lines: Iterable[str], node_file: bool) -> _Rows:
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if node_file:
            if len(cols) not in (2, 3):
                yield line_no, f"expected 2 or 3 tab-separated columns, got {len(cols)}"
                continue
            aliases = cols[2].split("|") if len(cols) == 3 else ()
            yield line_no, (intern(cols[0].strip()), None, cols[1].strip(), aliases)
        elif len(cols) != 5:
            yield line_no, f"expected 5 tab-separated columns, got {len(cols)}"
        else:
            s_id, s_label, pred, o_id, o_label = map(str.strip, cols)
            if not s_id or not pred or not o_id:
                yield line_no, "empty subject id, predicate, or object id"
            else:
                yield line_no, (intern(s_id), s_label, intern(pred), intern(o_id), o_label)


def _jsonl_rows(lines: Iterable[str], node_file: bool) -> _Rows:
    keys = (("id", "label", "description") if node_file
            else ("s_id", "s_label", "p", "o_id", "o_label"))
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            yield line_no, f"invalid JSON ({exc.msg})"
            continue
        if not isinstance(row, dict):
            yield line_no, "expected a JSON object"
            continue
        values = [row.get(k) for k in keys]
        bad = [k for k, v in zip(keys, values) if v is not None and not isinstance(v, str)]
        if bad:
            yield line_no, f"{bad[0]} must be a string or null"
            continue
        values = [(v or "").strip() for v in values]
        if node_file:
            aliases = [] if row.get("aliases") is None else row["aliases"]
            if not isinstance(aliases, list) or any(
                    a is not None and not isinstance(a, str) for a in aliases):
                yield line_no, "aliases must be a list of strings"
                continue
            node_id, label, description = values
            yield line_no, (intern(node_id), label, description,
                            [a for a in aliases if a is not None])
        else:
            s_id, s_label, pred, o_id, o_label = values
            if not s_id or not pred or not o_id:
                yield line_no, "missing s_id, p, or o_id"
            else:
                yield line_no, (intern(s_id), s_label, intern(pred), intern(o_id), o_label)


def load_kg(path: str | Path, format: str = "tsv", *,
            nodes_path: str | Path | None = None, lenient: bool = False) -> KnowledgeGraph:
    """Load and index a knowledge-graph snapshot.

    Formats:
      tsv   - one triplet per line: subject_id, subject_label, predicate,
              object_id, object_label (tab separated). Optional companion file
              "<stem>.nodes.tsv" (or nodes_path): node_id, description,
              alias1|alias2|... Such a row carries no label, so its id must
              occur in the snapshot.
      jsonl - one object per line with keys s_id, s_label, p, o_id, o_label.
              Optional node file objects: id, label, description, aliases.
              These carry a label, so they may add nodes. A value that is
              not a string (aliases: a list of strings) rejects the row. A
              JSON null counts as absent: a null id or predicate rejects the
              row, a null label or description is empty, and a null alias is
              skipped.

    Lines end only at \n, \r\n or \r, never at other Unicode line breaks.

    Rejected rows are reported with their line numbers; by default any rejected
    row fails the load (KgLoadError). With lenient=True they are skipped and
    recorded in the returned graph's load_report.

    A 200k-edge load keeps about half a million small containers (the
    triplets, the nodes and the per-node index tuples), so the load pauses
    the cyclic garbage collector while it reads and indexes. That switch is
    process-global: other threads run without cyclic collection until the
    load returns, and the collector is re-enabled only if it was enabled on
    entry.
    """
    path = Path(path)
    if not path.is_file():
        raise KgLoadError([f"no such file: {path}"])
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown format {format!r} (expected 'tsv' or 'jsonl')")

    decode = _tsv_rows if format == "tsv" else _jsonl_rows
    reader = _SnapshotReader()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with path.open(encoding="utf-8") as lines:
            reader.read_edges(decode(lines, node_file=False))

        sidecar = (Path(nodes_path) if nodes_path
                   else path.with_name(f"{path.stem}.nodes{path.suffix}"))
        if sidecar.is_file():
            with sidecar.open(encoding="utf-8") as lines:
                reader.read_nodes(decode(lines, node_file=True))
        elif nodes_path:
            raise KgLoadError([f"no such node file: {sidecar}"])

        graph = reader.finish(lenient)
    finally:
        if gc_was_enabled:
            gc.enable()
    logger.debug("loaded %d nodes, %d edges from %s", len(graph.nodes), len(graph.edges), path)
    return graph
