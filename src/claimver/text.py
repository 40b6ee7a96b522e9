"""Text normalization and formatting helpers shared across the package."""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable

_WORD_RE = re.compile(r"\w+")


def normalize(s: str) -> str:
    """Case-fold, collapse whitespace runs to single spaces, and trim."""
    return " ".join(s.casefold().split())


def format_triplet(s: str, p: str, o: str) -> str:
    """The "(s, p, o)" form used in prompts, scoring text, and reports."""
    return f"({s}, {p}, {o})"


def tokens(s: str) -> list[str]:
    return _WORD_RE.findall(s.casefold())


def word_spans(s: str) -> list[tuple[int, int]]:
    """Character spans of word-character runs, in order."""
    return [(m.start(), m.end()) for m in _WORD_RE.finditer(s)]


def _normalize_with_map(s: str) -> tuple[str, list[tuple[int, int]]]:
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


def normalized_finder(text: str) -> Callable[..., tuple[int, int] | None]:
    """normalized_find over one text, building its normalized map at most once.

    The returned find(needle, start=0) only reports matches that begin at or
    after text offset start. The map is built on the first call that needs it
    and dropped with the returned function.
    """
    mapped: tuple[str, list[tuple[int, int]]] | None = None

    def find(needle: str, start: int = 0) -> tuple[int, int] | None:
        nonlocal mapped
        target = normalize(needle)
        if not target:
            return None
        if mapped is None:
            mapped = _normalize_with_map(text)
        ntext, spans = mapped
        # spans is sorted, so this is the first output char from text[start:].
        pos = bisect_left(spans, (start,))
        while True:
            j = ntext.find(target, pos)
            if j < 0:
                return None
            lo = spans[j][0]
            hi = spans[j + len(target) - 1][1]
            # A case-fold expansion (one source char, several folded chars) can let
            # the normalized match end mid-character; reject those and keep looking.
            if normalize(text[lo:hi]) == target:
                return lo, hi
            pos = j + 1

    return find


def normalized_find(text: str, needle: str) -> tuple[int, int] | None:
    """Locate needle in text under normalization, returning original offsets.

    Returns (start, end) such that normalize(text[start:end]) == normalize(needle),
    or None when there is no such span.
    """
    return normalized_finder(text)(needle)
