"""Attribution scoring: claim scores, triplet match scores, and the overall
verification score for a document.

Per claim: an integer claim score from its predicted label, an entity
presence ratio (how many entities of the claim appear in its triplets), a
semantic similarity between claim text and triplet text, and their weighted
blend (the triplet match score). The document score squashes the sum of
tms * cs terms through an asymmetric sigmoid that penalizes negative sums
more steeply than it rewards positive ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from .backend import _EndpointClient
from .errors import BackendError, ClaimverError
from .kg import KnowledgeGraph, NodeId, Triplet
from .linking import LinkedEntity
from .parsing import ClaimResult, PredictionLabel
from .text import format_triplet, tokens


@dataclass(frozen=True)
class ScoringConfig:
    """Weights for the match score blend and the sigmoid steepness factors."""

    alpha: float = 0.5
    beta: float = 0.5
    gamma_neg: float = 3.0
    gamma_pos: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma_neg, self.gamma_pos))):
            raise ValueError("alpha, beta, gamma_neg and gamma_pos must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.alpha + self.beta <= 0:
            raise ValueError("alpha + beta must be > 0")
        if not (self.gamma_neg >= self.gamma_pos >= 0):
            raise ValueError("need gamma_neg >= gamma_pos >= 0")


def claim_score(label: PredictionLabel, n_triplets: int) -> int:
    """Integer validity score for one claim.

    Attributable 2; Extrapolatory 1 with supporting triplets, else 0;
    NoAttribution 0; Contradictory -1.
    """
    if n_triplets < 0:
        raise ValueError("n_triplets must be >= 0")
    if label is PredictionLabel.ATTRIBUTABLE:
        return 2
    if label is PredictionLabel.EXTRAPOLATORY:
        return 1 if n_triplets > 0 else 0
    if label is PredictionLabel.CONTRADICTORY:
        return -1
    return 0


def entity_presence_ratio(claim_entities: set[NodeId], triplet_entities: set[NodeId]) -> float:
    """Fraction of the claim's entities covered by its triplets; 0 if none."""
    if not claim_entities:
        return 0.0
    return len(claim_entities & triplet_entities) / len(claim_entities)


class Embedder(Protocol):
    def embed(self, text: str) -> np.ndarray: ...


class HashedBagEmbedder:
    """Deterministic offline embedder: hashed bag-of-tokens counts.

    Tokens are case-folded word characters hashed with sha256 into a fixed
    number of buckets, so vectors are stable across processes and platforms.
    """

    def __init__(self, dim: int = 1024):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim

    def _bucket(self, token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.dim

    def embed(self, text: str) -> np.ndarray:
        buckets = [self._bucket(tok) for tok in tokens(text)]
        return np.bincount(np.array(buckets, dtype=np.intp),
                           minlength=self.dim).astype(np.float64)


class HttpEmbedder(_EndpointClient):
    """Client for an embeddings endpoint (POST {base_url}/embeddings).

    Requests are retried like ChatBackend's; every failure is a BackendError.
    """

    _kind = "embedding"

    def embed(self, text: str) -> np.ndarray:
        payload = self._post("/embeddings", {"model": self.config.model, "input": [text]})
        try:
            return np.asarray(payload["data"][0]["embedding"], dtype=np.float64)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed embedding response: {exc}") from exc


class FallbackEmbedder:
    """Try a primary embedder; on its first failure switch to the fallback.

    The switch is sticky so one flaky endpoint cannot mix embedding spaces
    within a document.
    """

    def __init__(self, primary: Embedder, fallback: Embedder | None = None):
        self.primary = primary
        self.fallback = fallback if fallback is not None else HashedBagEmbedder()
        self.degraded = False

    def embed(self, text: str) -> np.ndarray:
        if not self.degraded:
            try:
                return self.primary.embed(text)
            except BackendError:
                self.degraded = True
        return self.fallback.embed(text)


_NORM_MIN, _NORM_MAX = 1e-150, 1e150


def cosine(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # sqrt(x.dot(x)) is what np.linalg.norm computes for a 1-D float vector.
    with np.errstate(over="ignore"):
        na = math.sqrt(a.dot(a))
        nb = math.sqrt(b.dot(b))
    if not (_NORM_MIN < na < _NORM_MAX and _NORM_MIN < nb < _NORM_MAX):
        # Zero, or so small or large that the products would leave the float
        # range: scale each vector to unit max first.
        ma = float(np.abs(a).max(initial=0.0))
        mb = float(np.abs(b).max(initial=0.0))
        if ma == 0.0 or mb == 0.0:
            return 0.0
        a, b = a / ma, b / mb
        na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))
    return float(np.dot(a, b) / (na * nb))


def _embedding(embedder: Embedder, text: str) -> np.ndarray:
    try:
        vec = np.asarray(embedder.embed(text), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ClaimverError(f"embedding is not a numeric vector: {exc}") from exc
    if vec.ndim != 1 or vec.size == 0:
        raise ClaimverError(f"embedding must be a non-empty 1-D vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ClaimverError("embedding contains NaN or infinite values")
    return vec


def semantic_similarity(embedder: Embedder, claim_text: str, triplets_text: str) -> float:
    """Cosine similarity of the two texts' embeddings, clamped to [0, 1].

    Empty, multi-dimensional, non-finite or differently sized embeddings
    raise ClaimverError.
    """
    a = _embedding(embedder, claim_text)
    b = _embedding(embedder, triplets_text)
    if a.shape != b.shape:
        raise ClaimverError(f"embedding sizes differ: {a.size} and {b.size}")
    return max(0.0, min(1.0, cosine(a, b)))


def triplets_match_score(cfg: ScoringConfig, ss: float, epr: float, n_triplets: int) -> float:
    """Weighted blend alpha*ss + beta*epr; zero when there are no triplets."""
    if n_triplets == 0:
        return 0.0
    return cfg.alpha * ss + cfg.beta * epr


def modified_sigmoid(x: float, cfg: Optional[ScoringConfig] = None) -> float:
    """Logistic squash with a steeper slope on the negative side.

    1/(1+exp(-g*x)) with g = gamma_neg for x < 0 and gamma_pos otherwise.
    Both branches are evaluated in their numerically safe form, so extreme
    inputs saturate to 0 or 1 instead of overflowing.
    """
    cfg = cfg or ScoringConfig()
    gamma = cfg.gamma_neg if x < 0 else cfg.gamma_pos
    z = gamma * x
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class ScoredClaim:
    claim: ClaimResult
    cs: int
    ss: float
    epr: float
    tms: float


@dataclass(frozen=True)
class AttributionResult:
    sum_term: float
    kas: float


def kg_attribution_score(claims: Iterable[ScoredClaim],
                         cfg: Optional[ScoringConfig] = None) -> AttributionResult:
    """Document score: sigmoid of the sum of per-claim tms * cs terms.

    No claims means a neutral 0.5.
    """
    cfg = cfg or ScoringConfig()
    sum_term = sum(sc.tms * sc.cs for sc in claims)
    return AttributionResult(sum_term=float(sum_term), kas=modified_sigmoid(sum_term, cfg))


def _triplets_text(kg: KnowledgeGraph, triplets: Sequence[Triplet]) -> str:
    return "; ".join(format_triplet(*kg.triplet_labels(t)) for t in triplets)


def _claim_entity_ids(claim: ClaimResult, entities: Sequence[LinkedEntity]) -> set[NodeId]:
    if claim.start is None or claim.end is None:
        return set()
    return {e.node for e in entities if claim.start <= e.start and e.end <= claim.end}


def score_claims(claims: Sequence[ClaimResult], entities: Sequence[LinkedEntity],
                 kg: KnowledgeGraph, embedder: Optional[Embedder] = None,
                 cfg: Optional[ScoringConfig] = None) -> list[ScoredClaim]:
    """Attach cs, ss, epr, and tms to each validated claim.

    A claim's entities are the linked mentions lying inside its span; its
    triplet entities are the subjects and objects of its validated triplets.
    Claims with no triplets score ss = epr = tms = 0 without touching the
    embedder.
    """
    cfg = cfg or ScoringConfig()
    embedder = embedder if embedder is not None else HashedBagEmbedder()
    scored: list[ScoredClaim] = []
    for claim in claims:
        n = len(claim.rel_triplets)
        cs = claim_score(claim.prediction, n)
        if n == 0:
            scored.append(ScoredClaim(claim=claim, cs=cs, ss=0.0, epr=0.0, tms=0.0))
            continue
        triplet_entities = {t.subject for t in claim.rel_triplets}
        triplet_entities |= {t.object for t in claim.rel_triplets}
        epr = entity_presence_ratio(_claim_entity_ids(claim, entities), triplet_entities)
        ss = semantic_similarity(embedder, claim.span, _triplets_text(kg, claim.rel_triplets))
        tms = triplets_match_score(cfg, ss, epr, n)
        scored.append(ScoredClaim(claim=claim, cs=cs, ss=ss, epr=epr, tms=tms))
    return scored
