"""Text normalization and formatting helpers shared across the package."""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate
from typing import Callable

_WORD_RE = re.compile(r"\w+")
_SPACE_RUN_RE = re.compile(r"\s+")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def normalize(s: str) -> str:
    """Case-fold, collapse whitespace runs to single spaces, and trim."""
    return " ".join(s.casefold().split())


def replace_surrogates(s: str) -> str:
    """s with each lone surrogate, which UTF-8 cannot encode, made U+FFFD."""
    return _SURROGATE_RE.sub("\ufffd", s)


def format_triplet(s: str, p: str, o: str) -> str:
    """The "(s, p, o)" form used in prompts, scoring text, and reports."""
    return f"({s}, {p}, {o})"


def tokens(s: str) -> list[str]:
    return _WORD_RE.findall(s.casefold())


def word_spans(s: str) -> list[tuple[int, int]]:
    """Character spans of word-character runs, in order."""
    return [(m.start(), m.end()) for m in _WORD_RE.finditer(s)]


def max_word_spans(key: str) -> int:
    """The most word_spans a text span normalizing to key can hold: key's word
    runs plus its "ι"s, since U+0345, the one non-word character that folds
    to word characters, folds to "ι" and so can join the words around it."""
    # A key of word characters and spaces has one run per word (most keys: no regex).
    words = key.split() if key.replace(" ", "").isalnum() else _WORD_RE.findall(key)
    return len(words) + key.count("\u03b9")


def _find_words(folded: str, words: list[str], start: int,
                starts: list[int] | None) -> tuple[int, int] | None:
    """First text span (lo, hi) at or after text offset start whose folded
    form holds the words in order, separated by whitespace runs: the first
    ending where a run begins, the inner ones filling the space between runs,
    the last starting after one. starts[i] is where character i begins in
    folded, and a hit counts only when both its ends fall on one; None means
    every character folds to one, so text and folded offsets agree."""
    first, rest = words[0], words[1:]
    pos = start if starts is None else starts[start]
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
            if starts is None:
                return lo, hi
            i, j = bisect_left(starts, lo), bisect_left(starts, hi)
            if starts[i] == lo and starts[j] == hi:
                return i, j
        pos = lo + 1


def normalized_finder(text: str) -> Callable[..., tuple[int, int] | None]:
    """normalized_find over one text, case-folding it at most once.

    The returned find(needle, start=0) only reports matches that begin at or
    after text offset start. A match is a run of the needle's words in the
    case-folded text. When folding changes the text's length, the folded start
    of each character is kept, and a match that starts or ends inside one
    character's expansion is skipped: "\ufb01x" (a ligature, then x) holds
    "fix" but not "ix".
    """
    folded: str | None = None
    starts: list[int] | None = None

    def find(needle: str, start: int = 0) -> tuple[int, int] | None:
        nonlocal folded, starts
        target = normalize(needle)
        if not target:
            return None
        if folded is None:
            folded = text.casefold()
            if len(folded) != len(text):
                starts = [0, *accumulate(len(c.casefold()) for c in text)]
        return _find_words(folded, target.split(" "), min(max(start, 0), len(text)), starts)

    return find


def normalized_find(text: str, needle: str) -> tuple[int, int] | None:
    """Locate needle in text under normalization, returning original offsets.

    Returns (start, end) such that normalize(text[start:end]) == normalize(needle),
    or None when there is no such span.
    """
    return normalized_finder(text)(needle)
