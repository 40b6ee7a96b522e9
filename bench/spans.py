"""In-memory span tracer for the traced benchmark run.

Wrappers installed from here time the calls into each claimver module at the
point where claimver.pipeline binds them, plus the completer, the embedder
and the graph's neighbors(). Each span keeps (id, name, start, end, parent,
document id), where the document id numbers the documents in the order the
loop ran them. A span opened in a thread with no open span (a chunk worker)
takes as parent the innermost span open in the document's own thread. Counters are summed per document.
Self time is a span's duration minus the union of its children's intervals,
so chunk work done in parallel threads is subtracted once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (attribute of claimver.pipeline, span name)
PIPELINE_CALLS = (
    ("preprocess", "linking.preprocess"),
    ("chunk_text", "linking.chunk_text"),
    ("split_sentences", "linking.split_sentences"),
    ("retrieve", "retrieval.retrieve"),
    ("build_verification_prompt", "backend.build_verification_prompt"),
    ("build_datagen_prompt", "backend.build_datagen_prompt"),
    ("parse_response", "parsing.parse_response"),
    ("validate_claims", "parsing.validate_claims"),
    ("score_claims", "scoring.score_claims"),
    ("kg_attribution_score", "scoring.kg_attribution_score"),
    ("build_report", "report.build_report"),
)

BOOKKEEPING = "trace.bookkeeping"
LABELS = ("Attributable", "Extrapolatory", "Contradictory", "NoAttribution")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.doc = -1
        self._doc_stack: list[int] | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: dict[str, list] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._doc_stack[-1] if self._doc_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.doc))

    @contextmanager
    def document(self, doc_id: int, name: str):
        """Top-level span of one document.

        Spans opened by threads with no open span of their own (chunk
        workers) take as parent the innermost span open in this thread.
        """
        self.doc = doc_id
        self._doc_stack = self._stack()
        try:
            with self.span(name):
                yield
        finally:
            self._doc_stack = None
        for counter, tally in self._tallies.items():
            # next() on the tally returns the number of calls so far plus
            # the snapshots taken before this one.
            mark = next(tally[0])
            self.counters[doc_id][counter] += mark - tally[1]
            tally[1] = mark + 1

    def count(self, name: str, value: float = 1.0):
        with self._lock:
            self.counters[self.doc][name] += value

    def wrap(self, name: str, fn, after=None):
        """fn timed as span name; after(args, result) then counts, untimed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(args, result)
            return result
        return traced

    def counted(self, name: str, fn):
        """fn with its calls tallied per document.

        For hot calls: itertools.count advances atomically under the GIL
        without a lock, and the tally is read once per document.
        """
        tally = itertools.count()
        self._tallies[name] = [tally, 0]

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            next(tally)
            return fn(*args, **kwargs)
        return counting

    def write_jsonl(self, path: Path, origin: float):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, doc in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": round(start - origin, 9),
                                    "end": round(end - origin, 9), "parent": parent,
                                    "doc": doc}) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - _union(kids)
    return out


def chunk_stats(spans) -> dict[int, tuple[int, float, float]]:
    """Per document: chunk count, summed chunk durations, fan-out wall time.

    A chunk runs retrieve ... validate_claims in one thread, so each chunk
    opens with a retrieve span and closes with a validate_claims span. The
    summed durations are sum(closes) - sum(opens) whatever the pairing, and
    the fan-out spans from the first open to the last close. Documents whose
    spans do not pair up (datagen calls retrieve per sentence) are left out.
    """
    opens: dict[int, list[float]] = defaultdict(list)
    closes: dict[int, list[float]] = defaultdict(list)
    for _, name, start, end, _, doc in spans:
        if name == "retrieval.retrieve":
            opens[doc].append(start)
        elif name == "parsing.validate_claims":
            closes[doc].append(end)
    out = {}
    for doc, starts in opens.items():
        ends = closes.get(doc, [])
        if len(ends) == len(starts):
            out[doc] = (len(starts), sum(ends) - sum(starts), max(ends) - min(starts))
    return out
