"""Reference implementations that the fast code paths are checked against.

Each one is the plain form the package used before it was sped up or folded
into a shared path:
- render_json_oracle: the report through to_dict() and json.dumps(indent=2);
- span_colors_oracle and paint_oracle: the per-character span painter, valid
  for claim offsets inside the text;
- retrieve_oracle: path retrieval on node ids through kg.neighbors and
  kg.edge_between, with a bisection of every ball member at a hub step;
- iter_datagen_records_oracle: datagen's own serial loop over the sentences,
  each retrieved, prompted and sent before the next one starts;
- normalized_finder_oracle: span lookup through a map from every normalized
  character back to its source characters, built for every text;
- link_entities_oracle: the linker scan with no bound on a match's length,
  each word trying every span up to the end of the text;
- embed_oracle: the hashed bag of tokens, one sha256 and one vector update
  per token;
- overlaps_earlier_oracle: validation's overlap flag, each located span
  checked against every earlier one.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from itertools import combinations, islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from claimver.backend import build_datagen_prompt
from claimver.errors import BackendError, UnknownNodeError
from claimver.kg import KnowledgeGraph, NodeId, Triplet
from claimver.linking import (LinkedEntity, PreprocessHook, TextChunk, preprocess,
                              split_sentences)
from claimver.pipeline import _as_completer, _chunk_seeds, _stage
from claimver.report import VerificationReport
from claimver.retrieval import KgPath, RetrievalConfig, retrieve
from claimver.text import normalize, tokens, word_spans


def render_json_oracle(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"


def span_colors_oracle(report: VerificationReport) -> list[Optional[str]]:
    colors: list[Optional[str]] = [None] * len(report.input_text)
    for claim in report.claims:
        if claim.start is None or claim.end is None:
            continue
        for i in range(claim.start, min(claim.end, len(colors))):
            colors[i] = claim.prediction
    return colors


def paint_oracle(text: str, colors: list[Optional[str]], open_code, close_code, escape) -> str:
    out: list[str] = []
    current: Optional[str] = None
    for ch, color in zip(text, colors):
        if color != current:
            if current is not None:
                out.append(close_code(current))
            if color is not None:
                out.append(open_code(color))
            current = color
        out.append(escape(ch))
    if current is not None:
        out.append(close_code(current))
    return "".join(out)


def _distances_from_oracle(kg: KnowledgeGraph, source: NodeId,
                           limit: int) -> tuple[dict[NodeId, int], list[int]]:
    """Hop distance to every node within limit of source, in BFS order; the
    ball of radius b is the dict's first ends[b] keys."""
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


def _pair_paths_oracle(kg: KnowledgeGraph, u: NodeId, v: NodeId,
                       ball: tuple[dict[NodeId, int], list[int]],
                       config: RetrievalConfig) -> list[tuple[NodeId, ...]]:
    """Shortest simple u-v paths, level-synchronous over partial paths in
    lexicographic order; each step scans the tail's neighbors or the ball."""
    dist_v, ends = ball
    found: list[tuple[NodeId, ...]] = []
    frontier: list[tuple[NodeId, ...]] = [(u,)]
    budget = config.max_hops
    while frontier and len(found) < config.max_paths_per_pair:
        budget -= 1
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


def retrieve_oracle(kg: KnowledgeGraph, seeds: Iterable[NodeId],
                    config: RetrievalConfig | None = None
                    ) -> tuple[tuple[KgPath, ...], tuple[Triplet, ...]]:
    """The paths retrieve() finds and their triplets in first-appearance
    order along the paths."""
    config = config or RetrievalConfig()
    unique = sorted(set(seeds))
    for seed in unique:
        if seed not in kg:
            raise UnknownNodeError(seed)
    by_pair: dict[tuple[NodeId, NodeId], list[KgPath]] = {}
    for j, v in enumerate(unique[1:], 1):
        ball = _distances_from_oracle(kg, v, config.max_hops - 1)
        for u in unique[:j]:
            by_pair[u, v] = [
                KgPath(nodes=p, edges=tuple(kg.edge_between(a, b) for a, b in zip(p, p[1:])))
                for p in _pair_paths_oracle(kg, u, v, ball, config)]
    paths = tuple(p for pair in combinations(unique, 2) for p in by_pair[pair])
    return paths, tuple(dict.fromkeys(e for p in paths for e in p.edges))


def iter_datagen_records_oracle(kg: KnowledgeGraph, text: str,
                                retrieval_cfg: Optional[RetrievalConfig] = None,
                                backend=None,
                                hooks: Sequence[PreprocessHook] = ()
                                ) -> Iterator[dict[str, Any]]:
    retrieval_cfg = retrieval_cfg or RetrievalConfig()
    completer = _as_completer(backend) if backend is not None else None
    with _stage("preprocess", catch=Exception):
        text, entities = preprocess(kg, text, hooks)
    offset = 0
    for sentence in split_sentences(text):
        chunk = TextChunk(sentence, offset)
        offset += len(sentence)
        span = sentence.strip()
        if not span:
            continue
        with _stage("triplet-retrieval"):
            retrieved = retrieve(kg, _chunk_seeds(chunk, entities), retrieval_cfg)
        labeled = [kg.triplet_labels(t) for t in retrieved.triplets]
        with _stage("prompt"):
            prompt = build_datagen_prompt(text, span, labeled)
        record: dict[str, Any] = {
            "full_text": text,
            "text_span": span,
            "triplets": list(map(list, labeled)),
            "prompt": prompt.text,
        }
        if completer is not None:
            with _stage("llm-backend", catch=(BackendError, OSError)):
                record["response"] = completer(prompt)
        yield record


def _normalize_with_map_oracle(s: str) -> tuple[str, list[tuple[int, int]]]:
    """Normalize s, keeping for each output char its source span in s."""
    chars: list[str] = []
    spans: list[tuple[int, int]] = []
    ws_start: int | None = None
    for i, ch in enumerate(s):
        if ch.isspace():
            if chars and ws_start is None:
                ws_start = i
            continue
        if ws_start is not None:
            chars.append(" ")
            spans.append((ws_start, i))
            ws_start = None
        for folded in ch.casefold():
            chars.append(folded)
            spans.append((i, i + 1))
    return "".join(chars), spans


def normalized_finder_oracle(text: str) -> Callable[..., tuple[int, int] | None]:
    ntext, spans = _normalize_with_map_oracle(text)

    def find(needle: str, start: int = 0) -> tuple[int, int] | None:
        target = normalize(needle)
        if not target:
            return None
        pos = bisect_left(spans, (start,))
        while True:
            j = ntext.find(target, pos)
            if j < 0:
                return None
            lo = spans[j][0]
            hi = spans[j + len(target) - 1][1]
            if normalize(text[lo:hi]) == target:
                return lo, hi
            pos = j + 1

    return find


def link_entities_oracle(kg: KnowledgeGraph, text: str) -> list[LinkedEntity]:
    spans = word_spans(text)
    found = []
    i = 0
    while i < len(spans):
        for j in range(len(spans), i, -1):  # the longest span first
            start, end = spans[i][0], spans[j - 1][1]
            owners = kg.label_index.get(normalize(text[start:end]))
            if owners:
                found.append(LinkedEntity(text[start:end], start, end, owners[0],
                                          tuple(owners[1:])))
                i = j
                break
        else:
            i += 1
    return found


def embed_oracle(text: str, dim: int = 1024) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float64)
    for tok in tokens(text):
        digest = hashlib.sha256(tok.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:8], "big") % dim] += 1.0
    return vec


def overlaps_earlier_oracle(spans: Sequence[tuple[int, int]]) -> list[bool]:
    """For each (start, end) span in order, whether it overlaps an earlier one."""
    return [any(start < e and s < end for s, e in spans[:i])
            for i, (start, end) in enumerate(spans)]
