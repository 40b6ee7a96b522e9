"""Dictionary entity linking and size-bounded text chunking."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .kg import KnowledgeGraph, NodeId
from .text import normalize, word_spans

logger = logging.getLogger(__name__)

# A sentence ends at terminal punctuation followed by whitespace and an
# upper-case letter (str.isupper); the boundary sits after the whitespace.
_SENTENCE_END = re.compile(r"[.?!]+\s+")

PreprocessHook = Callable[[str], str]


@dataclass(frozen=True)
class LinkedEntity:
    """One mention in the input resolved to a graph node.

    alternates holds the remaining candidate ids when the surface was
    ambiguous; node is always the lexicographically smallest candidate.
    """

    mention: str
    start: int
    end: int
    node: NodeId
    alternates: tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class TextChunk:
    """A contiguous slice of the input and its offset in the original."""

    text: str
    offset: int


def link_entities(kg: KnowledgeGraph, text: str) -> list[LinkedEntity]:
    """Find KG mentions in text by longest exact label/alias match.

    Matching is case-insensitive, aligned to word boundaries, non-overlapping,
    and scans left to right; at each position the longest matching surface
    wins, tried at up to kg.max_label_tokens words (word_spans runs, which
    bound every match). Ambiguous surfaces resolve to the smallest node id
    with the rest kept as alternates.
    """
    return list(_scan(kg, text))


def _scan(kg: KnowledgeGraph, text: str) -> Iterator[LinkedEntity]:
    """link_entities' mentions, each yielded as soon as the scan finds it, so
    a caller can stop the scan at any offset and resume it later."""
    spans = word_spans(text)
    max_tokens = kg.max_label_tokens
    i = 0
    while i < len(spans):
        start = spans[i][0]
        for length in range(min(max_tokens, len(spans) - i), 0, -1):
            end = spans[i + length - 1][1]
            candidates = kg.label_index.get(normalize(text[start:end]))
            if candidates:
                break
        else:
            i += 1
            continue
        if len(candidates) > 1:
            logger.debug("ambiguous mention %r -> %s", text[start:end], candidates)
        yield LinkedEntity(
            mention=text[start:end], start=start, end=end,
            node=candidates[0], alternates=tuple(candidates[1:]))
        i += length


def split_sentences(text: str) -> list[str]:
    """Split text at sentence boundaries; concatenation reproduces the input."""
    pieces: list[str] = []
    last = 0
    for m in _SENTENCE_END.finditer(text):
        if text[m.end():m.end() + 1].isupper():
            pieces.append(text[last:m.end()])
            last = m.end()
    if last < len(text):
        pieces.append(text[last:])
    return [p for p in pieces if p]


def chunk_text(text: str, max_chars: int) -> list[TextChunk]:
    """Pack whole sentences greedily into chunks of at most max_chars.

    A single sentence longer than the budget is hard-split at fixed width.
    Concatenating the chunk texts reproduces the input exactly.
    """
    if max_chars < 1:
        raise ValueError(f"max_chars must be positive, got {max_chars}")
    if not text:
        return []
    chunks: list[TextChunk] = []
    buffer = ""
    offset = 0

    def flush():
        nonlocal buffer, offset
        if buffer:
            chunks.append(TextChunk(buffer, offset))
            offset += len(buffer)
            buffer = ""

    for sentence in split_sentences(text):
        if len(sentence) > max_chars:
            flush()
            for at in range(0, len(sentence), max_chars):
                buffer = sentence[at:at + max_chars]
                flush()
            continue
        if len(buffer) + len(sentence) > max_chars:
            flush()
        buffer += sentence
    flush()
    return chunks


def preprocess(kg: KnowledgeGraph, text: str,
               hooks: Sequence[PreprocessHook] = ()) -> tuple[str, list[LinkedEntity]]:
    """Apply hooks in order, then link entities in the transformed text.

    Hook errors propagate.
    """
    for hook in hooks:
        text = hook(text)
    return text, link_entities(kg, text)
