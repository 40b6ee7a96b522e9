"""End-to-end orchestration: text in, verification report or span-labelling
records out.

Both outputs come from one loop over chunks of the text (_run_chunks): a
verify run's chunks (the whole text unless it asked for chunking), a datagen
run's sentences. As soon as the linker's scan has passed a chunk's end, that
chunk's evidence paths are retrieved, its prompt is built and its backend
request sent, at most _PARALLEL_CHUNKS at once. Each chunk is then finished
in chunk order while later requests are in flight: a verify chunk's response
is parsed, validated and scored, a datagen sentence becomes its record. A
verify run scores the document once over the concatenated claims. Failures
surface as PipelineError tagged with the stage that failed, carrying any
diagnostics gathered so far.
"""

from __future__ import annotations

import functools
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from typing import Any, Callable, Iterator, Optional, Sequence

from .backend import PromptBundle, build_datagen_prompt, build_verification_prompt
from .errors import BackendError, ClaimverError, PipelineError, ResponseParseError
from .kg import KnowledgeGraph, NodeId
from .linking import (LinkedEntity, PreprocessHook, TextChunk, _scan, chunk_text,
                      preprocess, split_sentences)
from .parsing import parse_response, validate_claims
from .report import VerificationReport, build_report
from .retrieval import RetrievalConfig, RetrievedTriplets, _retrieve_labels, retrieve
from .scoring import (Embedder, ScoredClaim, ScoringConfig, kg_attribution_score,
                      score_claims)
from .text import replace_surrogates

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


class _stage:
    """Context manager: re-raise a caught failure in the block as
    PipelineError(name) with the diagnostics so far; a PipelineError from the
    block passes unchanged. A class rather than a generator, as it runs a few
    times per chunk or datagen sentence."""

    def __init__(self, name: str, diagnostics: Sequence[str] = (), catch=ClaimverError):
        self.name, self.diagnostics, self.catch = name, diagnostics, catch

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, self.catch) and not isinstance(exc, PipelineError):
            raise PipelineError(self.name, str(exc), self.diagnostics) from exc


def _chunk_seeds(chunk: TextChunk, entities: Sequence[LinkedEntity]) -> list[NodeId]:
    """Distinct nodes linked inside the chunk, in first-appearance order."""
    lo, hi = chunk.offset, chunk.offset + len(chunk.text)
    return list(dict.fromkeys(e.node for e in entities if lo <= e.start and e.end <= hi))


class _Scan:
    """A linker's mentions of one text, in text order, taken only as far as
    the chunks need them."""

    def __init__(self, mentions: Iterator[LinkedEntity]):
        self._mentions = mentions
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


def _run_chunks(chunks: Sequence[TextChunk], scan: _Scan, completer: Optional[Completer],
                evidence_for: Callable[[list[NodeId]], Any],
                prompt_for: Callable[[TextChunk, Any], PromptBundle],
                finish: Callable[..., Any]) -> Iterator[Any]:
    """finish(chunk, evidence, prompt, diagnostics, response) for every
    chunk, yielded in chunk order.

    The calling thread retrieves each chunk's evidence with
    evidence_for(seeds) and builds its prompt with prompt_for(chunk,
    evidence) as soon as the scan has passed the chunk's end, and sends the
    chunk's request; then it finishes the chunks in chunk order, each while
    later requests are in flight. response() returns the model's answer or
    raises the request's failure; it is None when there is no completer.
    Only the requests of more than one chunk run in a pool. The first chunk
    in chunk order that fails decides the error, and requests still queued
    by then are never sent.
    """
    pool = None
    if completer is not None and len(chunks) > 1:
        pool = ThreadPoolExecutor(max_workers=min(_PARALLEL_CHUNKS, len(chunks)))
    failure = None
    sent = []
    try:
        for chunk in chunks:
            entities = scan.until(chunk.offset + len(chunk.text))
            diagnostics: list[str] = []
            try:
                with _stage("triplet-retrieval", diagnostics):
                    evidence = evidence_for(_chunk_seeds(chunk, entities))
                with _stage("prompt", diagnostics):
                    prompt = prompt_for(chunk, evidence)
            except PipelineError as exc:
                failure = exc  # unless an earlier chunk fails below
                break
            if completer is None:
                response = None
            elif pool:
                response = pool.submit(completer, prompt).result
            else:
                response = functools.partial(completer, prompt)
            sent.append((chunk, evidence, prompt, diagnostics, response))
        for step in sent:
            yield finish(*step)
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

    paths = []
    chunk_diagnostics: list[str] = []

    def finish(chunk, retrieved, prompt, diagnostics, response):
        """The chunk's claims, validated and moved to document offsets."""
        with _stage("llm-backend", diagnostics, catch=(BackendError, OSError)):
            raw = response()
        with _stage("response-parser", diagnostics, catch=ResponseParseError):
            raws = parse_response(raw, diagnostics)
        claims = validate_claims(raws, chunk.text, retrieved, kg)
        paths.extend(retrieved.paths)
        chunk_diagnostics.extend(diagnostics)
        if not chunk.offset:
            return claims
        return [replace(c, start=c.start + chunk.offset, end=c.end + chunk.offset)
                if c.start is not None else c
                for c in claims]

    scan = _Scan(_scan(kg, text))
    scored: list[ScoredClaim] = []
    held = None
    try:
        chunks = chunk_text(text, chunk_chars) if chunk_chars else [TextChunk(text, 0)]
        for claims in _run_chunks(
                chunks, scan, completer, lambda seeds: retrieve(kg, seeds, retrieval_cfg),
                lambda chunk, retrieved: build_verification_prompt(chunk.text, retrieved, kg),
                finish):
            if held is None:
                # A claim's linked mentions all lie in its chunk, so the
                # scan has passed them.
                try:
                    scored += score_claims(claims, scan.entities, kg, embedder, scoring_cfg)
                except Exception as exc:  # raised once every chunk has succeeded
                    held = exc
    except Exception as exc:
        scan.until()  # a preprocess failure, raised here, beats exc
        # A scan failure is a preprocess failure: like a hook's, it carries no notes.
        if isinstance(exc, PipelineError) and exc.stage != "preprocess":
            exc.diagnostics[:0] = _doc_notes(scan.entities, len(chunks))
        raise

    entities = scan.until()
    doc_diagnostics = _doc_notes(entities, len(chunks)) + chunk_diagnostics
    retrieved = RetrievedTriplets(paths=tuple(dict.fromkeys(paths)))

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
    """Span-labeling records for one document, one per sentence, in sentence
    order.

    Each record holds the document, the sentence span, the triplets retrieved
    for that sentence's entities (as label triples, read from the edge codes
    without building paths or triplets), and the rendered prompt;
    with a backend (taken as in run_pipeline) also the model's response, up to
    _PARALLEL_CHUNKS sentence requests in flight at once. Failures are tagged
    with the stage that failed, as in run_pipeline; the records of the
    sentences before the first failing one are yielded before it is raised.
    """
    retrieval_cfg = retrieval_cfg or RetrievalConfig()
    completer = _as_completer(backend) if backend is not None else None
    with _stage("preprocess", catch=Exception):
        text, entities = preprocess(kg, text, hooks)
    sentences = []
    offset = 0
    for sentence in split_sentences(text):
        if sentence.strip():
            sentences.append(TextChunk(sentence, offset))
        offset += len(sentence)

    def finish(chunk, labeled, prompt, diagnostics, response):
        record: dict[str, Any] = {
            "full_text": text,
            "text_span": chunk.text.strip(),
            "triplets": list(map(list, labeled)),
            "prompt": prompt.text,
        }
        if response is not None:
            with _stage("llm-backend", diagnostics, catch=(BackendError, OSError)):
                record["response"] = replace_surrogates(response())
        return record

    yield from _run_chunks(
        sentences, _Scan(iter(entities)), completer,
        lambda seeds: _retrieve_labels(kg, seeds, retrieval_cfg),
        lambda chunk, labeled: build_datagen_prompt(text, chunk.text.strip(), labeled),
        finish)
