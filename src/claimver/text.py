"""Text normalization and formatting helpers shared across the package."""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable

_WORD_RE = re.compile(r"\w+")
_SPACE_RUN_RE = re.compile(r"\s+")


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


def _find_words(folded: str, words: list[str], start: int) -> tuple[int, int] | None:
    """First (lo, hi) at or after start where folded holds the words in order,
    separated by whitespace runs: the first ending where a run begins, the
    inner ones filling the space between runs, the last starting after one."""
    first, rest = words[0], words[1:]
    pos = start
    while True:
        lo = folded.find(first, pos)
        if lo < 0:
            return None
        hi = lo + len(first)
        for word in rest:
            run = _SPACE_RUN_RE.match(folded, hi)
            if run is None or not folded.startswith(word, run.end()):
                break
            hi = run.end() + len(word)
        else:
            return lo, hi
        pos = lo + 1


def normalized_finder(text: str) -> Callable[..., tuple[int, int] | None]:
    """normalized_find over one text, case-folding it at most once.

    The returned find(needle, start=0) only reports matches that begin at or
    after text offset start. When case folding keeps the text's length, each
    character folds to one, so a match is a run of the needle's words in the
    folded text and offsets need no map. Otherwise the normalized text and its
    per-character map are built on the first call that needs them and dropped
    with the returned function.
    """
    folded: str | None = None
    mapped: tuple[str, list[tuple[int, int]]] | None = None

    def find(needle: str, start: int = 0) -> tuple[int, int] | None:
        nonlocal folded, mapped
        target = normalize(needle)
        if not target:
            return None
        if folded is None:
            folded = text.casefold()
        if len(folded) == len(text):
            return _find_words(folded, target.split(" "), max(start, 0))
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
