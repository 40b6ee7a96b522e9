"""End-to-end orchestration: text in, verification report out.

Flow: apply the preprocessing hooks and chunk if requested. The linker scans
the text once, left to right; as soon as it has passed a chunk's end, that
chunk's evidence paths are retrieved, its prompt is built and its backend
request sent. Then each chunk's response is parsed, validated and scored, in
chunk order, while later requests are in flight. The document score runs once
over the concatenated claims. Failures surface as PipelineError tagged with
the stage that failed, carrying any diagnostics gathered so far.
"""

from __future__ import annotations

import functools
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterator, Optional, Sequence

from .backend import PromptBundle, build_datagen_prompt, build_verification_prompt
from .errors import BackendError, ClaimverError, PipelineError, ResponseParseError
from .kg import KnowledgeGraph, NodeId
from .linking import (LinkedEntity, PreprocessHook, TextChunk, _scan, chunk_text,
                      preprocess, split_sentences)
from .parsing import ClaimResult, parse_response, validate_claims
from .report import VerificationReport, build_report
from .retrieval import RetrievalConfig, RetrievedTriplets, retrieve
from .scoring import (Embedder, ScoredClaim, ScoringConfig, kg_attribution_score,
                      score_claims)

logger = logging.getLogger(__name__)

Completer = Callable[[PromptBundle], str]

# The one cap on in-flight backend requests.
_PARALLEL_CHUNKS = 4


def _as_completer(backend) -> Completer:
    if hasattr(backend, "complete"):
        return backend.complete
    if callable(backend):
        return backend
    raise TypeError("backend must be a client with complete(prompt) or a callable "
                    f"(wrap a BackendConfig in ChatBackend): {backend!r}")


@contextmanager
def _stage(name: str, diagnostics: Sequence[str] = (), catch=ClaimverError):
    """Re-raise a caught failure in the block as PipelineError(name) with the
    diagnostics so far; a PipelineError from the block passes unchanged."""
    try:
        yield
    except PipelineError:
        raise
    except catch as exc:
        raise PipelineError(name, str(exc), diagnostics) from exc


@dataclass
class _ChunkOutcome:
    retrieved: RetrievedTriplets
    claims: list[ClaimResult]
    diagnostics: list[str]


def _chunk_seeds(chunk: TextChunk, entities: Sequence[LinkedEntity]) -> list[NodeId]:
    """Distinct nodes linked inside the chunk, in first-appearance order."""
    lo, hi = chunk.offset, chunk.offset + len(chunk.text)
    return list(dict.fromkeys(e.node for e in entities if lo <= e.start and e.end <= hi))


def _chunk_prompt(kg: KnowledgeGraph, chunk: TextChunk, entities: Sequence[LinkedEntity],
                  retrieval_cfg: RetrievalConfig,
                  diagnostics: list[str]) -> tuple[RetrievedTriplets, PromptBundle]:
    """The half of a chunk before its backend request: evidence and prompt."""
    with _stage("triplet-retrieval", diagnostics):
        retrieved = retrieve(kg, _chunk_seeds(chunk, entities), retrieval_cfg)
    with _stage("prompt", diagnostics):
        prompt = build_verification_prompt(chunk.text, retrieved, kg)
    return retrieved, prompt


def _chunk_outcome(kg: KnowledgeGraph, chunk: TextChunk, retrieved: RetrievedTriplets,
                   diagnostics: list[str], response: Callable[[], str]) -> _ChunkOutcome:
    """The half of a chunk from its backend request on: response() returns
    the model's answer (or raises the request's failure), which is parsed,
    validated and moved to document offsets."""
    with _stage("llm-backend", diagnostics, catch=(BackendError, OSError)):
        raw = response()
    with _stage("response-parser", diagnostics, catch=ResponseParseError):
        raws = parse_response(raw, diagnostics)

    claims = validate_claims(raws, chunk.text, retrieved, kg)
    if chunk.offset:
        claims = [
            replace(c, start=c.start + chunk.offset, end=c.end + chunk.offset)
            if c.start is not None else c
            for c in claims
        ]
    return _ChunkOutcome(retrieved=retrieved, claims=claims, diagnostics=diagnostics)


class _Scan:
    """The linker's scan of one text, run only as far as the chunks need it."""

    def __init__(self, kg: KnowledgeGraph, text: str):
        self._mentions = _scan(kg, text)
        self.entities: list[LinkedEntity] = []

    def until(self, end: float = math.inf) -> list[LinkedEntity]:
        """Scan on until a mention starts at or after end, or the text ends
        (by default, the whole text); then every mention that starts before
        end is in self.entities. A failure is the preprocess stage's."""
        with _stage("preprocess", catch=Exception):
            for entity in self._mentions:
                self.entities.append(entity)
                if entity.start >= end:
                    break
        return self.entities


def _run_chunks(kg: KnowledgeGraph, chunks: Sequence[TextChunk], scan: _Scan,
                completer: Completer,
                retrieval_cfg: RetrievalConfig) -> Iterator[_ChunkOutcome]:
    """Every chunk's outcome, yielded in chunk order.

    The calling thread sends each chunk's request as soon as the scan has
    passed the chunk's end and its prompt is built, then parses the
    responses in chunk order, each while later requests are in flight. Only
    the backend requests of a split input run in a pool. The first chunk in
    chunk order that fails decides the error, and requests still queued by
    then are never sent.
    """
    pool = None
    if len(chunks) > 1:
        pool = ThreadPoolExecutor(max_workers=min(_PARALLEL_CHUNKS, len(chunks)))
    failure = None
    sent = []
    try:
        for chunk in chunks:
            entities = scan.until(chunk.offset + len(chunk.text))
            diagnostics: list[str] = []
            try:
                retrieved, prompt = _chunk_prompt(kg, chunk, entities, retrieval_cfg,
                                                  diagnostics)
            except PipelineError as exc:
                failure = exc  # unless an earlier chunk fails below
                break
            request = (pool.submit(completer, prompt).result if pool
                       else functools.partial(completer, prompt))
            sent.append((chunk, retrieved, diagnostics, request))
        for chunk, retrieved, diagnostics, request in sent:
            yield _chunk_outcome(kg, chunk, retrieved, diagnostics, request)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    if failure is not None:
        raise failure


def _doc_notes(entities: Sequence[LinkedEntity], n_chunks: int) -> list[str]:
    """The document's own diagnostics: ambiguous mentions, then the split."""
    notes = [f"ambiguous mention {e.mention!r} at {e.start}: "
             f"linked {e.node}, also matches {', '.join(e.alternates)}"
             for e in entities if e.alternates]
    if n_chunks > 1:
        notes.append(f"input split into {n_chunks} chunks")
    return notes


def _merge_retrieved(outcomes: Sequence[_ChunkOutcome]) -> RetrievedTriplets:
    seen = {}
    for outcome in outcomes:
        for path in outcome.retrieved.paths:
            seen.setdefault(path, None)
    return RetrievedTriplets(paths=tuple(seen))


def run_pipeline(kg: KnowledgeGraph, text: str, backend,
                 retrieval_cfg: Optional[RetrievalConfig] = None,
                 scoring_cfg: Optional[ScoringConfig] = None, *,
                 embedder: Optional[Embedder] = None,
                 hooks: Sequence[PreprocessHook] = (),
                 chunk_chars: Optional[int] = None,
                 extra_config: Optional[dict[str, Any]] = None) -> VerificationReport:
    """Verify one input text against the graph and assemble the report.

    backend is any object with complete(prompt) -> str, such as a ChatBackend,
    or a bare callable. When the input was split, up to _PARALLEL_CHUNKS
    chunk requests are in flight at once; claims keep chunk order and the
    document score covers them all. Error precedence does not depend on
    timing: a preprocess failure beats every chunk failure, the first failing
    chunk in chunk order beats later ones, and a scoring failure is raised
    only once every chunk has succeeded.
    """
    retrieval_cfg = retrieval_cfg or RetrievalConfig()
    scoring_cfg = scoring_cfg or ScoringConfig()
    completer = _as_completer(backend)
    if not text:
        raise PipelineError("input", "input text is empty")

    with _stage("preprocess", catch=Exception):
        for hook in hooks:
            text = hook(text)
    if not text:
        raise PipelineError("preprocess", "preprocessing left no text")

    scan = _Scan(kg, text)
    outcomes: list[_ChunkOutcome] = []
    scored: list[ScoredClaim] = []
    held = None
    try:
        chunks = chunk_text(text, chunk_chars) if chunk_chars else [TextChunk(text, 0)]
        for outcome in _run_chunks(kg, chunks, scan, completer, retrieval_cfg):
            outcomes.append(outcome)
            if held is None:
                # A claim's linked mentions all lie in its chunk, so the
                # scan has passed them.
                try:
                    scored += score_claims(outcome.claims, scan.entities, kg, embedder,
                                           scoring_cfg)
                except Exception as exc:  # raised once every chunk has succeeded
                    held = exc
    except Exception as exc:
        scan.until()  # a preprocess failure, raised here, beats exc
        # A scan failure is a preprocess failure: like a hook's, it carries no notes.
        if isinstance(exc, PipelineError) and exc.stage != "preprocess":
            exc.diagnostics[:0] = _doc_notes(scan.entities, len(chunks))
        raise

    entities = scan.until()
    doc_diagnostics = _doc_notes(entities, len(chunks))
    for outcome in outcomes:
        doc_diagnostics.extend(outcome.diagnostics)
    retrieved = _merge_retrieved(outcomes)

    with _stage("scoring", doc_diagnostics):
        if held is not None:
            raise held
        attribution = kg_attribution_score(scored, scoring_cfg)

    config: dict[str, Any] = {
        "retrieval": asdict(retrieval_cfg),
        "scoring": asdict(scoring_cfg),
        "chunk_chars": chunk_chars or 0,
    }
    if extra_config:
        config.update(extra_config)

    return build_report(kg, text, entities, retrieved, scored,
                        attribution.kas, config, doc_diagnostics)


def iter_datagen_records(kg: KnowledgeGraph, text: str,
                         retrieval_cfg: Optional[RetrievalConfig] = None,
                         backend=None,
                         hooks: Sequence[PreprocessHook] = ()) -> Iterator[dict[str, Any]]:
    """Span-labeling records for one document, one per sentence.

    Each record holds the document, the sentence span, the triplets retrieved
    for that sentence's entities (as label triples), and the rendered prompt;
    with a backend (taken as in run_pipeline) also the model's response.
    Failures are tagged with the stage that failed, as in run_pipeline.
    """
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
        with _stage("prompt"):
            prompt = build_datagen_prompt(text, span, retrieved, kg)
        record: dict[str, Any] = {
            "full_text": text,
            "text_span": span,
            "triplets": [list(kg.triplet_labels(t)) for t in retrieved.triplets],
            "prompt": prompt.text,
        }
        if completer is not None:
            with _stage("llm-backend", catch=(BackendError, OSError)):
                record["response"] = completer(prompt)
        yield record
