"""Parse model verification output into claims and validate them.

The model answers with numbered key/value lines (text_span1, prediction1,
triplets1, rationale1, ...). Real output drifts: JSON braces, missing quotes,
trailing commas, unnumbered keys. The parser tolerates all of that; the
validator then enforces that spans actually occur in the input and that cited
triplets are ones we retrieved (with a flagged fallback to the whole graph).
Validation never raises on bad model output; problems become diagnostics.
"""

from __future__ import annotations

import json
import logging
import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

from .errors import ResponseParseError
from .kg import KnowledgeGraph, Triplet, triplet_key
from .retrieval import RetrievedTriplets
from .text import format_triplet, normalize, normalized_finder, replace_surrogates

logger = logging.getLogger(__name__)


class PredictionLabel(str, Enum):
    """Claim categories. NoAttribution is assigned only by validation."""

    ATTRIBUTABLE = "Attributable"
    EXTRAPOLATORY = "Extrapolatory"
    CONTRADICTORY = "Contradictory"
    NO_ATTRIBUTION = "NoAttribution"


_PARSED_LABELS = {
    "attributable": PredictionLabel.ATTRIBUTABLE,
    "extrapolatory": PredictionLabel.EXTRAPOLATORY,
    "contradictory": PredictionLabel.CONTRADICTORY,
}

_KEYS = ("text_span", "prediction", "triplets", "rationale")

_KEY_RE = re.compile(
    r"[\"']?(text_span|prediction|triplets|rationale)[ _-]?(\d*)[\"']?\s*[:=]\s*",
    re.IGNORECASE)
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


@dataclass(frozen=True)
class RawClaim:
    """One numbered group exactly as the model stated it."""

    index: int
    text_span: str
    prediction: str
    triplets_field: str
    rationale: str


@dataclass(frozen=True)
class ClaimResult:
    """A validated claim: located span, mapped label, verified triplets."""

    span: str
    start: Optional[int]
    end: Optional[int]
    prediction: PredictionLabel
    rel_triplets: tuple[Triplet, ...]
    rationale: str
    diagnostics: tuple[str, ...] = ()


def _is_na(value: str) -> bool:
    return normalize(value) in ("", "na", "n/a", "none")


def _unquote(segment: str) -> str:
    """Decode a double-quoted value, tolerating non-JSON escapes."""
    try:
        return json.loads(segment)
    except ValueError:
        return segment[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _read_value(raw: str, at: int) -> tuple[str, int]:
    """Value starting at position `at`: quoted string, bracketed list, or rest of line."""
    if at < len(raw) and raw[at] == '"':
        m = _QUOTED_RE.match(raw, at)
        if m:
            return _unquote(m.group(0)), m.end()
    if at < len(raw) and raw[at] == "[":
        close = raw.find("]", at)
        # Take a multi-line list only when no other key sits inside it.
        if close != -1 and _KEY_RE.search(raw, at, close) is None:
            return raw[at:close + 1], close + 1
    end = raw.find("\n", at)
    if end == -1:
        end = len(raw)
    value = raw[at:end].strip().rstrip(",").strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        value = value[1:-1]
    return value, end


def parse_response(raw: str, diagnostics: Optional[list[str]] = None) -> list[RawClaim]:
    """Extract numbered claim groups from a model response.

    Unnumbered keys count as group 1; duplicate keys keep the first value;
    a key whose number int() cannot read is ignored and reported; groups
    missing some keys are padded with "NA" and reported. A response
    with no complete group at all fails with ResponseParseError.
    """
    sink = diagnostics if diagnostics is not None else []
    groups: dict[int, dict[str, str]] = {}
    pos = 0
    while True:
        m = _KEY_RE.search(raw, pos)
        if m is None:
            break
        key = m.group(1).lower()
        value, pos = _read_value(raw, m.end())
        try:
            index = int(m.group(2) or "1")
        except ValueError:  # more digits than int() reads
            sink.append(f"{key} key with a {len(m.group(2))}-digit number ignored")
            continue
        bucket = groups.setdefault(index, {})
        if key in bucket:
            sink.append(f"duplicate key {key}{index} ignored")
        else:
            bucket[key] = replace_surrogates(value)

    if not groups:
        raise ResponseParseError("no claim keys found in response", raw)

    complete = [i for i, g in sorted(groups.items()) if all(k in g for k in _KEYS)]
    if not complete:
        raise ResponseParseError("no complete claim group in response", raw)

    claims = []
    for index, bucket in sorted(groups.items()):
        missing = [k for k in _KEYS if k not in bucket]
        if missing:
            sink.append(f"claim {index} missing {', '.join(missing)}; padded with NA")
        claims.append(RawClaim(
            index=index,
            text_span=bucket.get("text_span", "NA"),
            prediction=bucket.get("prediction", "NA"),
            triplets_field=bucket.get("triplets", "NA"),
            rationale=bucket.get("rationale", "NA"),
        ))
    return claims


_PAREN_RE = re.compile(r"\(([^()]*)\)")


def _split_triplet_parts(piece: str) -> Optional[tuple[str, str, str]]:
    parts = piece.split("|") if "|" in piece else piece.split(",")
    cleaned = [p.strip().strip("'\"").strip() for p in parts]
    if len(cleaned) != 3 or not all(cleaned):
        return None
    return cleaned[0], cleaned[1], cleaned[2]


def parse_triplet_field(field: str) -> tuple[list[tuple[str, str, str]], list[str]]:
    """Candidate (s, p, o) label triples from a triplets value, plus problems.

    Accepts "(a, b, c)" groups anywhere in the text, or one "a | b | c" /
    "a, b, c" triple per line.
    """
    if _is_na(field):
        return [], []
    candidates: list[tuple[str, str, str]] = []
    problems: list[str] = []
    groups = _PAREN_RE.findall(field)
    if groups:
        for g in groups:
            triple = _split_triplet_parts(g)
            if triple:
                candidates.append(triple)
            else:
                problems.append(f"unparseable triplet ({g.strip()})")
        return candidates, problems
    for line in field.splitlines():
        line = line.strip().strip(",").strip("[]").strip()
        if not line or _is_na(line):
            continue
        triple = _split_triplet_parts(line)
        if triple:
            candidates.append(triple)
        else:
            problems.append(f"unparseable triplet line {line!r}")
    return candidates, problems


def _locate_span(input_text: str, span: str,
                 find_normalized: Callable[..., Optional[tuple[int, int]]],
                 after: int) -> tuple[Optional[int], Optional[int], list[str]]:
    """Anchor span at its first occurrence from offset after, else at its
    first occurrence anywhere."""
    if _is_na(span):
        return None, None, ["text span missing or NA"]
    for start in ((after, 0) if after else (0,)):
        at = input_text.find(span, start)
        if at != -1:
            return at, at + len(span), []
        hit = find_normalized(span, start)
        if hit:
            return hit[0], hit[1], ["span located only after normalization"]
    return None, None, [f"span not found in input: {span[:60]!r}"]


def _match_triplets(candidates: list[tuple[str, str, str]],
                    by_labels: dict[tuple[str, str, str], Triplet],
                    kg: KnowledgeGraph, diagnostics: list[str]) -> tuple[Triplet, ...]:
    kept: dict[Triplet, None] = {}
    for candidate in candidates:
        text = format_triplet(*candidate)
        hit = by_labels.get(triplet_key(*candidate))
        if hit is None:
            hit = kg.contains_triplet(*candidate)
            if hit is not None:
                diagnostics.append(f"triplet {text} not among retrieved; matched in graph")
        if hit is None:
            diagnostics.append(f"triplet {text} not found; dropped")
            continue
        if hit in kept:
            diagnostics.append(f"duplicate triplet {text} ignored")
        else:
            kept[hit] = None
    return tuple(kept)


def _overlaps_earlier(spans: list[tuple[int, int]]) -> list[bool]:
    """For each (start, end) span in order, whether it overlaps an earlier
    one. A Fenwick tree over the ranks of the starts keeps, for each prefix
    of ranks, the largest end among the spans seen so far: span i overlaps
    an earlier one if some earlier span starting before its end reaches
    past its start."""
    starts = sorted(start for start, _ in spans)
    reach = [-1] * (len(spans) + 1)
    flags = []
    for start, end in spans:
        i, furthest = bisect_left(starts, end), -1
        while i:
            furthest = max(furthest, reach[i])
            i &= i - 1
        flags.append(furthest > start)
        i = bisect_left(starts, start) + 1
        while i < len(reach):
            reach[i] = max(reach[i], end)
            i += i & -i
    return flags


def validate_claims(raws: list[RawClaim], input_text: str, retrieved: RetrievedTriplets,
                    kg: KnowledgeGraph) -> list[ClaimResult]:
    """Check each raw claim against the input text and the retrieved evidence.

    Unlocatable spans and unreadable predictions become NoAttribution; cited
    triplets survive only if retrieved (or, flagged, present in the graph);
    Attributable/Contradictory claims with no surviving triplet are downgraded
    to NoAttribution. Claims stay in model order; a span is anchored after the
    previous anchored claim's start when it occurs there, so repeated
    sentences anchor in claim order, and overlaps are flagged.
    """
    by_labels: dict[tuple[str, str, str], Triplet] = {}
    for labels, t in zip(retrieved.labels, retrieved.triplets):
        by_labels.setdefault(triplet_key(*labels), t)
    find_normalized = normalized_finder(input_text)
    results: list[ClaimResult] = []
    located: list[tuple[int, int]] = []
    for raw in raws:
        diagnostics: list[str] = []
        # Just past the previous anchor, so a repeated sentence anchors at its
        # next occurrence.
        after = located[-1][0] + 1 if located else 0
        start, end, span_diags = _locate_span(input_text, raw.text_span, find_normalized, after)
        diagnostics.extend(span_diags)

        label = _PARSED_LABELS.get(normalize(raw.prediction).strip(' ."\''))
        if label is None:
            diagnostics.append(f"unrecognized prediction {raw.prediction[:40]!r}")
            label = PredictionLabel.NO_ATTRIBUTION
        if start is None:
            label = PredictionLabel.NO_ATTRIBUTION

        candidates, problems = parse_triplet_field(raw.triplets_field)
        diagnostics.extend(problems)
        rel = _match_triplets(candidates, by_labels, kg, diagnostics)

        if label in (PredictionLabel.ATTRIBUTABLE, PredictionLabel.CONTRADICTORY) and not rel:
            diagnostics.append(f"{label.value} claim has no validated triplets; downgraded")
            label = PredictionLabel.NO_ATTRIBUTION

        if start is not None:
            located.append((start, end))

        results.append(ClaimResult(
            span=raw.text_span, start=start, end=end, prediction=label,
            rel_triplets=rel, rationale=raw.rationale,
            diagnostics=tuple(diagnostics)))
    # The overlap flag is a claim's last diagnostic.
    overlapping = iter(_overlaps_earlier(located))
    return [replace(c, diagnostics=(*c.diagnostics, "span overlaps an earlier claim"))
            if c.start is not None and next(overlapping) else c
            for c in results]
