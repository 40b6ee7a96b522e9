"""Triplet knowledge-graph store: snapshot loading, indexing, and lookups.

A graph does not change after load, apart from caching what lookups build,
and is safe to share across threads. Matching of labels, aliases, and
predicates uses one normalization everywhere: Unicode case-fold, collapse
internal whitespace, trim.
"""

from __future__ import annotations

import json
import logging
import re
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import filterfalse, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO, Union

import numpy as np

from .errors import KgLoadError, UnknownNodeError
from .text import format_triplet, max_word_spans, normalize

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


# A neighbor row at least this long is probed through a frozenset of the row
# in _common_neighbors; a shorter one is bisected. Sets are kept per node, so
# this bounds what they hold: the 2,407 rows of 16 or more entries in the
# verify-hubs graph took 6.3 MiB as sets (tracemalloc), against 5.0 MiB for
# all of its neighbor tuples.
_SET_ROW = 16


class KnowledgeGraph:
    """Node table plus adjacency and label indexes over a triplet snapshot.

    Nodes are kept sorted by id; node ids must be distinct and a node's
    aliases must stay distinct after normalization (ValueError). Every
    triplet endpoint must be a node (UnknownNodeError). Duplicate triplets
    are dropped, the first kept; self-loops are kept and noted in the load
    report. Adjacency is undirected (each edge is reachable from both
    endpoints); triplet direction is preserved in the stored edges for
    display. Instances are read-only after construction, apart from the
    neighbor tuples built on first use (below). The constructor codes its
    nodes and triplets into the same _SnapshotDecoder tables that load_kg
    decodes a file into, and _SnapshotDecoder.finish indexes both.

    The store is columnar. A node's code is its position in sorted id
    order, so ordering codes orders ids; labels, descriptions and aliases
    are lists indexed by code, and the distinct edges are int32 code columns
    in file order. Adjacency is CSR over the codes: _indptr bounds each
    node's entries, _nbr_codes (int32) holds the neighbor codes in sorted
    order and _first_edge the first edge in file order to each neighbor.
    Each distinct-row pass (repeated triplets, adjacency pairs, triplet
    index keys) sorts one packed integer key per row (see _run_heads).
    Retrieval works on codes through _code, _id, _neighbor_codes,
    _common_neighbors, _edge_code, _triplet and _edge_labels, and maps codes
    to ids only for the paths retrieve() returns; neighbors() builds the
    sorted id tuple on each call. _neighbor_codes builds a node's tuple of
    neighbor codes from its CSR row the first time it is asked and keeps it
    in _adjacency, which starts as all None; every tuple takes its ints from
    _code_ints, which holds _position's own int objects, so the store keeps
    one int object per code. _common_neighbors intersects two nodes' rows
    for retrieval's joins, probing a long row through a frozenset of it that
    it builds on first use and keeps in _neighbor_sets. Two threads that
    race on one node build equal tuples or sets, and storing into a list or
    a dict is atomic, so neither cache needs a lock.

    The label index is built in one pass over the nodes in id order, so
    each key's owners arrive in id order; its sorted keys also code the
    labels in the triplet index, which is three int32 code columns sorted
    together and searched with np.searchsorted. Python objects are built
    only when a lookup asks: kg.nodes is a read-only mapping that makes a
    KgNode on access, and kg.edges, the tuple of Triplet in file order, is
    built on first access.
    """

    def __init__(self, nodes: Iterable[KgNode], triplets: Iterable[Triplet]):
        decoder = _SnapshotDecoder()
        for node in nodes:
            if node.id in decoder.position:
                raise ValueError(f"duplicate node id {node.id!r}")
            decoder.code(node.id, node.label, 0)
            decoder.descriptions.append(node.description)
            decoder.aliases.append(node.aliases)
        known = len(decoder.labels)
        decoder.read_edge_rows((0, (s, "", p, o, "")) for s, p, o in triplets)
        if len(decoder.labels) > known:
            # The first unknown endpoint in row order took the first code past the nodes.
            raise UnknownNodeError(next(islice(decoder.position, known, None)))
        decoder.finish(self, lenient=False)

    def _index(self, ids: list[NodeId], position: dict[NodeId, int], labels: list[str],
               descriptions: list[str], aliases: list[tuple[str, ...]], predicates: list[str],
               s: np.ndarray, p: np.ndarray, o: np.ndarray, load_report: Iterable[str]):
        """Build the store. ids are sorted and distinct, position maps each to
        its code in code order, and the node columns are indexed by code. s,
        p and o code each triplet in file order, repeats included."""
        self._ids, self._position, self._labels = ids, position, labels
        self._predicates = predicates
        self.nodes: Mapping[NodeId, KgNode] = _NodeTable(ids, position, labels,
                                                         descriptions, aliases)

        # Codes are 1:1 with ids and predicates, so a repeated triplet is a
        # repeated row; the first in file order is kept.
        keep = np.zeros(len(s), dtype=bool)
        keep[_run_heads(s, p, o)] = True
        self._s, self._p, self._o = s, p, o = s[keep], p[keep], o[keep]
        del keep
        self.load_report = (*load_report, *(
            f"self-loop triplet kept: {format_triplet(*self._triplet(e))}"
            for e in np.flatnonzero(s == o).tolist()))

        # Adjacency: entry 2i is edge i seen from its subject, 2i+1 from its
        # object. One sort by (node, neighbor) keeps the first edge in file
        # order per pair; codes follow sorted ids, so neighbors come out
        # sorted by id.
        ends = np.column_stack((s, o)).ravel()
        others = np.column_stack((o, s)).ravel()
        heads = _run_heads(ends, others)
        self._indptr = np.searchsorted(ends[heads], np.arange(len(ids) + 1)).astype(np.int32)
        self._first_edge = (heads // 2).astype(np.int32)
        self._nbr_codes = others[heads]
        del ends, others, heads
        # Each node's tuple of neighbor codes is built by _neighbor_codes on
        # first use; all tuples take their ints from this list, which holds
        # position's own int objects, so there is one per code.
        self._code_ints = list(position.values())
        self._adjacency: list[Optional[tuple[int, ...]]] = [None] * len(ids)
        self._neighbor_sets: dict[int, frozenset[int]] = {}

        # Triplet index: (label, normalized predicate, label) code columns
        # sorted together, with the first edge in file order per key. A
        # normalized label is coded by its position among the sorted label
        # index keys, so an alias-only key has a code that no edge uses.
        self.label_index, self.max_label_tokens, self._label_keys, label_code = _label_index(
            ids, labels, aliases)
        numbering = _Numbering()
        to_normalized = _codes(numbering, map(normalize, predicates), len(predicates))
        self._predicate_codes = dict(numbering)
        columns = label_code[s], to_normalized[p], label_code[o]
        self._triplet_edges = _run_heads(*columns).astype(np.int32)
        self._triplet_columns = tuple(c[self._triplet_edges] for c in columns)
        del label_code, columns

    @cached_property
    def edges(self) -> tuple[Triplet, ...]:
        """The distinct stored triplets in file order."""
        ids, predicates = self._ids, self._predicates
        return tuple(map(Triplet, map(ids.__getitem__, self._s.tolist()),
                         map(predicates.__getitem__, self._p.tolist()),
                         map(ids.__getitem__, self._o.tolist())))

    def _triplet(self, edge: int) -> Triplet:
        """The stored triplet with index edge in the code columns."""
        ids, predicates = self._ids, self._predicates
        # As Triplet._make does, without its Python-level call: a retrieval
        # result builds each of its triplets through here.
        return tuple.__new__(Triplet, (ids[self._s.item(edge)], predicates[self._p.item(edge)],
                                       ids[self._o.item(edge)]))

    def _edge_labels(self, edge: int) -> tuple[str, str, str]:
        """The (subject label, predicate, object label) of the stored
        triplet with index edge in the code columns."""
        labels = self._labels
        return (labels[self._s.item(edge)], self._predicates[self._p.item(edge)],
                labels[self._o.item(edge)])

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._position

    def label_of(self, node_id: NodeId) -> str:
        return self._labels[self._code(node_id)]

    def triplet_labels(self, t: Triplet) -> tuple[str, str, str]:
        """A stored triplet as (subject label, predicate, object label)."""
        return self.label_of(t.subject), t.predicate, self.label_of(t.object)

    def neighbors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Sorted distinct neighbors of a node, both edge directions."""
        return tuple(map(self._ids.__getitem__, self._neighbor_codes(self._code(node_id))))

    def _code(self, node_id: NodeId) -> int:
        """The code of a node id."""
        try:
            return self._position[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def _id(self, code: int) -> NodeId:
        """The node id with a code."""
        return self._ids[code]

    def _neighbor_codes(self, code: int) -> tuple[int, ...]:
        """Sorted distinct neighbor codes of the node with a code."""
        nbrs = self._adjacency[code]
        if nbrs is None:
            row = self._nbr_codes[self._indptr.item(code):self._indptr.item(code + 1)]
            nbrs = self._adjacency[code] = tuple(map(self._code_ints.__getitem__, row.tolist()))
        return nbrs

    def _common_neighbors(self, a: int, b: int) -> list[int]:
        """The sorted codes adjacent to both nodes a and b: each code of the
        shorter neighbor tuple looked up in the longer, through its set when
        it has at least _SET_ROW entries and by bisection otherwise."""
        # The cached rows are read directly: this runs several times per seed
        # pair, and each method call costs.
        short = self._adjacency[a] or self._neighbor_codes(a)
        long = self._adjacency[b] or self._neighbor_codes(b)
        if len(short) > len(long):
            b, short, long = a, long, short
        if len(long) < _SET_ROW:
            return [c for c in short if (i := bisect_left(long, c)) < len(long) and long[i] == c]
        nbrs = self._neighbor_sets.get(b)
        if nbrs is None:
            nbrs = self._neighbor_sets[b] = frozenset(long)
        return list(filter(nbrs.__contains__, short))

    def _edge_code(self, a: int, b: int) -> Optional[int]:
        """The index of the canonical edge joining the nodes with codes a and
        b, or None if they are not adjacent."""
        nbrs = self._neighbor_codes(a)
        i = bisect_left(nbrs, b)
        if i == len(nbrs) or nbrs[i] != b:
            return None
        return self._first_edge.item(self._indptr.item(a) + i)

    def edge_between(self, a: NodeId, b: NodeId) -> Triplet:
        """Canonical stored edge joining two adjacent nodes (first in file order)."""
        codes = self._position.get(a), self._position.get(b)
        edge = None if None in codes else self._edge_code(*codes)
        if edge is None:
            raise KeyError(f"no edge between {a!r} and {b!r}")
        return self._triplet(edge)

    def contains_triplet(self, subject_label: str, predicate: str,
                         object_label: str) -> Optional[Triplet]:
        """The stored triplet whose labels match the candidate, if any."""
        s_key, p_key, o_key = triplet_key(subject_label, predicate, object_label)
        codes = (_rank(self._label_keys, s_key), self._predicate_codes.get(p_key),
                 _rank(self._label_keys, o_key))
        if None in codes:
            return None
        # int32 keys: Python ints would make searchsorted cast the whole column.
        keys = np.array([(code, code + 1) for code in codes], dtype=np.int32)
        lo, hi = 0, len(self._triplet_edges)
        for column, key in zip(self._triplet_columns, keys):
            first, end = column[lo:hi].searchsorted(key).tolist()
            lo, hi = lo + first, lo + end
        return self._triplet(self._triplet_edges.item(lo)) if lo < hi else None


class _NodeTable(Mapping):
    """Read-only id -> KgNode view of a graph's node columns, in id order;
    each lookup builds its KgNode."""

    __slots__ = ("_ids", "_position", "_labels", "_descriptions", "_aliases")

    def __init__(self, ids: list[NodeId], position: dict[NodeId, int], labels: list[str],
                 descriptions: list[str], aliases: list[tuple[str, ...]]):
        self._ids, self._position, self._labels = ids, position, labels
        self._descriptions, self._aliases = descriptions, aliases

    def __getitem__(self, node_id: NodeId) -> KgNode:
        code = self._position[node_id]
        return KgNode(self._ids[code], self._labels[code], self._descriptions[code],
                      self._aliases[code])

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id) -> bool:
        return node_id in self._position


def _label_index(ids: list[NodeId], labels: list[str], aliases: list[tuple[str, ...]]
                 ) -> tuple[dict[str, tuple[NodeId, ...]], int, list[str], np.ndarray]:
    """The label index of nodes sorted by id, the most words a match of one of
    its keys can span (max_word_spans), its keys in sorted order, and the
    position in that order of each node's normalized label (int32).

    One pass in id order appends each key's owners in id order; a node whose
    label and alias share a key is listed once. A key's first owner is
    stored as a 1-tuple, the final form of most keys, and only a key that
    gains a second owner collects them in a list; a list for every key
    would raise the peak memory of a 50k-node load by about 3 MB. The keys
    are then sorted once, and the word bounds and label positions read off
    them. A label that normalizes to "" has a position but no entry in the
    index.
    """
    primary = list(map(normalize, labels))
    index: dict[str, Union[tuple[NodeId, ...], list[NodeId]]] = {}
    shared = []  # the keys with a second owner, whose owners are a list
    for nid, label, names in zip(ids, primary, aliases):
        keys = (label,)
        if names:
            folded = [normalize(a) for a in names]
            if len(set(folded)) != len(folded):
                raise ValueError(f"node {nid!r} has duplicate aliases after case-folding")
            keys += tuple(folded)
        for key in keys:
            owners = index.get(key)
            if owners is None:
                index[key] = (nid,)
            elif owners[-1] != nid:
                if type(owners) is tuple:
                    owners = index[key] = list(owners)
                    shared.append(key)
                owners.append(nid)
    for key in shared:
        index[key] = tuple(index[key])
    keys = sorted(index)
    code = _codes(dict(zip(keys, range(len(keys)))), primary, len(primary))
    return ({key: index[key] for key in keys if key},
            max(map(max_word_spans, keys), default=0), keys, code)


def _codes(table: dict, keys: Iterable, count: int) -> np.ndarray:
    """table[k] for each of count keys, as an int32 array."""
    return np.fromiter(map(table.__getitem__, keys), dtype=np.int32, count=count)


class _Numbering(dict):
    """A dict in which table[key] gives a missing key the next code,
    len(table): a key's code is the number of distinct keys before it. get()
    and `in` add nothing."""

    def __missing__(self, key) -> int:
        code = self[key] = len(self)
        return code


def _rank(keys: list[str], key: str) -> Optional[int]:
    """Position of key in the sorted list keys, or None if absent."""
    i = bisect_left(keys, key)
    return i if i < len(keys) and keys[i] == key else None


def _run_heads(*columns: np.ndarray) -> np.ndarray:
    """For each distinct row of the equal-length, non-negative columns, the
    index of its first occurrence; ordered by row, the first column most
    significant.

    Each row is packed into one int64 key with its index as the least
    significant digit, so the keys are distinct and one plain sort puts
    equal rows together in file order. np.lexsort is the fallback for keys
    that do not fit int64.
    """
    count = len(columns[0])
    key = _packed_key((*columns, np.arange(count, dtype=np.int32)))
    if key is None:
        order = np.lexsort(columns[::-1])
        ranked = [column[order] for column in columns]
    else:
        key.sort()
        order = key % max(count, 1)
        key //= max(count, 1)  # the packed columns alone
        ranked = [key]
    head = np.zeros(count, dtype=bool)
    head[:1] = True
    for column in ranked:
        head[1:] |= column[1:] != column[:-1]
    return order[head]


def _packed_key(columns: tuple[np.ndarray, ...]) -> Optional[np.ndarray]:
    """The rows of the non-negative columns as one mixed-radix int64 each,
    the first column most significant; None if int64 does not hold them."""
    radices = [int(c.max()) + 1 if len(c) else 1 for c in columns]
    span = 1
    for radix in radices:
        span *= radix
    if span - 1 > np.iinfo(np.int64).max:
        return None
    key = columns[0].astype(np.int64)
    for column, radix in zip(columns[1:], radices[1:]):
        key *= radix
        key += column
    return key


def _merge_aliases(known: tuple[str, ...], names: Iterable[str]) -> tuple[str, ...]:
    """known plus each stripped, non-empty name whose normalized form is new."""
    merged = list(known)
    seen = set(map(normalize, known))
    for alias in names:
        alias = alias.strip()
        key = normalize(alias)
        if alias and key not in seen:
            merged.append(alias)
            seen.add(key)
    return tuple(merged)


# A row decoder's output: (line number, the row's fields or the message
# that rejects the row).
_Rows = Iterator[tuple[int, Union[tuple, str]]]

# Characters per block of a snapshot: readlines() ends a block with the line
# that takes it past this many.
_BLOCK_CHARS = 1 << 16


class _SnapshotDecoder:
    """The code tables that a snapshot and its node file are decoded into.

    position and predicates are _Numbering tables, so a node's code is its
    position in order of first reference; its label is "" until a row gives
    one, and the first label given wins. The snapshot is read in readlines()
    blocks: code_clean_block codes a clean TSV block at once, and any other
    block, like every JSONL block, goes row by row, reporting each row it
    rejects, so each line is decoded once. KnowledgeGraph(nodes, triplets)
    fills the same tables, and finish indexes a graph from them either way.
    """

    def __init__(self):
        self.position: dict[NodeId, int] = _Numbering()
        self.labels: list[str] = []
        # Descriptions and aliases by code: from the end of a snapshot on, or
        # node by node in KnowledgeGraph(nodes, triplets).
        self.descriptions: list[str] = []
        self.aliases: list[tuple[str, ...]] = []
        # The line of the first reference, kept only for codes first seen
        # without a label: a dangling reference is reported at that line.
        self.first_ref: dict[int, int] = {}
        self.predicates: dict[str, int] = _Numbering()
        # The s, p and o code columns of each block, joined into one when the
        # snapshot ends, so the per-block arrays are freed before the node file.
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.errors: list[str] = []
        self.report: list[str] = []

    def read_edges(self, lines: TextIO, tsv: bool):
        """Decode the lines of a TSV or JSONL snapshot, block by block."""
        line = 1
        for block in iter(partial(lines.readlines, _BLOCK_CHARS), []):
            if not (tsv and self.code_clean_block(block)):
                self.read_edge_rows((_tsv_rows if tsv else _jsonl_rows)(block, line))
            line += len(block)
        self.blocks = [tuple(map(np.concatenate, zip(*self.blocks)))
                       or (np.zeros(0, dtype=np.int32),) * 3]
        self.descriptions, self.aliases = [""] * len(self.labels), [()] * len(self.labels)

    def code_clean_block(self, block: list[str]) -> bool:
        """Code a block of TSV lines that the row decoder would take as they
        stand and that gives no id a label it does not already hold: each
        line blank or five non-empty fields, and one spelling of each id's
        label. False, with the tables as they were, for any other block."""
        # The row decoder skips whitespace-only lines and reports nothing.
        text = "".join(filterfalse(str.isspace, block))
        if not text:
            return True
        if not text.endswith("\n"):
            text += "\n"
        if not (_tabs_per_line(text) == 4).all():
            return False
        fields = list(map(str.strip, text[:-1].replace("\n", "\t").split("\t")))
        if "" in fields:
            return False
        ends, names, preds = fields[0::5] + fields[3::5], fields[1::5] + fields[4::5], fields[2::5]
        known = len(self.labels)
        codes = list(map(self.position.__getitem__, ends))
        both = np.array(codes, dtype=np.int32)
        if len(self.position) > known:  # new ids hold the top codes, so the last heads
            heads = _run_heads(both)[known - len(self.position):]
            self.labels.extend(map(names.__getitem__, heads.tolist()))
        # An id with two spellings, or a known one with another label or none yet.
        if list(map(self.labels.__getitem__, codes)) != names:
            for _ in range(len(self.position) - known):
                self.position.popitem()
            del self.labels[known:]
            return False
        self.blocks.append((both[:len(preds)], _codes(self.predicates, preds, len(preds)),
                            both[len(preds):]))
        return True

    def read_edge_rows(self, rows: _Rows):
        """Rows of (s_id, s_label, predicate, o_id, o_label)."""
        code, predicates = self.code, self.predicates
        s, p, o = [], [], []
        for line_no, row in rows:
            if isinstance(row, str):
                self.errors.append(f"line {line_no}: {row}")
                continue
            s_id, s_label, pred, o_id, o_label = row
            s.append(code(s_id, s_label, line_no))
            p.append(predicates[pred])
            o.append(code(o_id, o_label, line_no))
        self.blocks.append(tuple(np.array(c, dtype=np.int32) for c in (s, p, o)))

    def code(self, node_id: NodeId, label: str, line: int) -> int:
        """The code of a node id that a line names with a label ("" for
        none); a known label that normalizes differently is reported."""
        code = self.position[node_id]
        if code == len(self.labels):  # a new id
            self.labels.append(label)
            if not label:
                self.first_ref[code] = line
        elif label:
            known = self.labels[code]
            if not known:
                self.labels[code] = label
            elif known != label and normalize(known) != normalize(label):
                self.report.append(
                    f"line {line}: conflicting label {label!r} for {node_id!r}; kept {known!r}")
        return code

    def read_tsv_nodes(self, lines: Iterable[str]):
        """The lines of a TSV node file: id, description and optional aliases
        joined by "|". Such a row carries no label, so its id must be known."""
        position, descriptions, aliases = self.position, self.descriptions, self.aliases
        for line_no, line in enumerate(lines, 1):
            cols = line.split("\t")
            node_id = cols[0].strip()
            code = position.get(node_id) if 2 <= len(cols) <= 3 else None
            if code is None:
                if not 2 <= len(cols) <= 3:
                    error = f"expected 2 or 3 tab-separated columns, got {len(cols)}"
                else:
                    error = f"unknown node id {node_id!r}" if node_id else "empty node id"
                if not line.isspace():
                    self.errors.append(f"line {line_no} (node file): {error}")
                continue
            description = cols[1].strip()
            if description and not descriptions[code]:
                descriptions[code] = description
            names = cols[2].strip() if len(cols) == 3 else ""
            if names:
                aliases[code] = _merge_aliases(aliases[code], names.split("|"))

    def read_jsonl_nodes(self, lines: Iterable[str]):
        """The lines of a JSONL node file; its rows carry a label, so they may add nodes."""
        descriptions, aliases = self.descriptions, self.aliases
        for line_no, row in _jsonl_rows(lines, node_file=True):
            if isinstance(row, str):
                self.errors.append(f"line {line_no} (node file): {row}")
                continue
            node_id, label, description, names = row
            code = self.code(node_id, label, line_no)
            if code == len(descriptions):  # a node that no edge names
                descriptions.append("")
                aliases.append(())
            if description and not descriptions[code]:
                descriptions[code] = description
            if names:
                aliases[code] = _merge_aliases(aliases[code], names)

    def finish(self, graph: KnowledgeGraph, lenient: bool):
        """Index everything read into graph, a KnowledgeGraph not yet built;
        empties the tables first, so they are freed before the graph is
        indexed."""
        position, labels = self.position, self.labels
        ids = sorted(position)
        dangling = [nid for nid in ids if not labels[position[nid]]] if "" in labels else []
        self.errors.extend(f"line {self.first_ref[position[nid]]}: dangling node reference "
                           f"{nid!r} (no label found)" for nid in dangling)
        if self.errors and not lenient:
            raise KgLoadError(self.errors)
        self.report.extend(f"skipped: {e}" for e in self.errors)

        s, p, o = self.blocks.pop()
        if dangling:
            labelled = np.array(list(map(bool, labels)))
            keep = labelled[s] & labelled[o]
            s, p, o = s[keep], p[keep], o[keep]
            ids = [nid for nid in ids if labels[position[nid]]]
        # Recode the labelled nodes by their position in sorted id order.
        old = list(map(position.__getitem__, ids))
        new = np.empty(len(labels), dtype=np.int32)
        new[old] = np.arange(len(ids), dtype=np.int32)
        s, o = new[s], new[o]
        labels = list(map(labels.__getitem__, old))
        descriptions = list(map(self.descriptions.__getitem__, old))
        aliases = list(map(self.aliases.__getitem__, old))
        del old, new
        for table in (self.position, self.labels, self.descriptions, self.aliases, self.first_ref):
            table.clear()
        graph._index(ids, dict(zip(ids, range(len(ids)))), labels, descriptions, aliases,
                     list(self.predicates), s, p, o, self.report)


def _tsv_rows(lines: Iterable[str], start: int = 1) -> _Rows:
    for line_no, line in enumerate(lines, start):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            yield line_no, f"expected 5 tab-separated columns, got {len(cols)}"
            continue
        s_id, s_label, pred, o_id, o_label = map(str.strip, cols)
        if not s_id or not pred or not o_id:
            yield line_no, "empty subject id, predicate, or object id"
        else:
            yield line_no, (s_id, s_label, pred, o_id, o_label)


def _jsonl_rows(lines: Iterable[str], start: int = 1, node_file: bool = False) -> _Rows:
    keys = (("id", "label", "description") if node_file
            else ("s_id", "s_label", "p", "o_id", "o_label"))
    for line_no, line in enumerate(lines, start):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Not JSON, an integer longer than int() converts, or nesting too deep.
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            yield line_no, f"invalid JSON ({msg})"
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
            elif not values[0]:
                yield line_no, "empty node id"
            else:
                yield line_no, (*values, [a for a in aliases if a is not None])
        else:
            s_id, s_label, pred, o_id, o_label = values
            if not s_id or not pred or not o_id:
                yield line_no, "missing s_id, p, or o_id"
            else:
                yield line_no, (s_id, s_label, pred, o_id, o_label)


def _tabs_per_line(text: str) -> np.ndarray:
    """The number of tabs on each line of text, which ends with a newline."""
    # Tab and newline are single bytes in UTF-8 and never part of another character.
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.searchsorted(np.flatnonzero(data == 9), np.flatnonzero(data == 10))
    return np.diff(ends, prepend=0)


def _node_file(path: Path, nodes_path: str | Path | None) -> Optional[Path]:
    """The node file to read with the snapshot at path, if any: nodes_path
    (KgLoadError if it is not a file) or else "<stem>.nodes<suffix>"."""
    sidecar = (Path(nodes_path) if nodes_path
               else path.with_name(f"{path.stem}.nodes{path.suffix}"))
    if sidecar.is_file():
        return sidecar
    if nodes_path:
        raise KgLoadError([f"no such node file: {sidecar}"])
    return None


# What errors="surrogateescape" decodes a byte that is not UTF-8 to.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _read_text(path: Path, read: Callable[[TextIO], None], where: str = ""):
    """read(lines) over the UTF-8 text of path. Text that is not UTF-8 is a
    KgLoadError naming its first line, numbered as text mode numbers lines
    (where follows the number); the file is read again to find that line
    only after the decode fails, so valid text pays nothing for it."""
    try:
        with path.open(encoding="utf-8") as lines:
            read(lines)
    except UnicodeDecodeError:
        with path.open(encoding="utf-8", errors="surrogateescape") as lines:
            line_no = next(n for n, line in enumerate(lines, 1) if _UNDECODABLE.search(line))
        raise KgLoadError([f"line {line_no}{where}: not valid UTF-8"]) from None


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
    recorded in the returned graph's load_report. Bytes that are not UTF-8
    fail the load under either setting, with one KgLoadError that names the
    first line holding them.

    The snapshot is read in readlines() blocks and decoded straight to node
    and predicate codes, with no Triplet or KgNode object. A TSV block is
    coded at once when the row decoder would take every row as it stands and
    the block gives no id a label it does not already hold: whitespace-only
    lines aside, each line has five fields, no empty id, predicate or label,
    and one spelling of each id's label. Any other block, and every JSONL
    block, goes row by row, so each line is decoded once and messages and
    line numbers do not depend on how a block was decoded. The loaded graph
    builds a KgNode when kg.nodes is looked up and the tuple kg.edges on its
    first access.
    """
    path = Path(path)
    if not path.is_file():
        raise KgLoadError([f"no such file: {path}"])
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown format {format!r} (expected 'tsv' or 'jsonl')")

    decoder = _SnapshotDecoder()
    _read_text(path, partial(decoder.read_edges, tsv=format == "tsv"))
    sidecar = _node_file(path, nodes_path)
    if sidecar:
        _read_text(sidecar, decoder.read_tsv_nodes if format == "tsv" else decoder.read_jsonl_nodes,
                   " (node file)")
    graph = KnowledgeGraph.__new__(KnowledgeGraph)
    decoder.finish(graph, lenient)
    logger.debug("loaded %d nodes, %d edges from %s", len(graph.nodes), len(graph._s), path)
    return graph
