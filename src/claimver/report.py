"""Self-contained verification report model.

Records carry resolved labels and descriptions so a report can be rendered or
inspected without the knowledge graph it came from. Conversion to and from
plain dicts is lossless, which makes the JSON output a faithful serialization
of the report object.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Iterable, Optional, Sequence, get_args, get_origin, get_type_hints

from .kg import KnowledgeGraph, Triplet
from .linking import LinkedEntity
from .retrieval import KgPath, RetrievedTriplets
from .scoring import ScoredClaim

@functools.cache
def _spec(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(field name, resolved type, has a default) per field, in field order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is not MISSING or f.default_factory is not MISSING)
                 for f in fields(cls))


def _encode(value: Any) -> Any:
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(hint: Any, value: Any) -> Any:
    origin = get_origin(hint)
    if origin is tuple:
        item = get_args(hint)[0]
        return tuple(_decode(item, v) for v in value)
    if origin is dict:
        return dict(value)
    if isinstance(hint, type) and issubclass(hint, _Record):
        return hint.from_dict(value)
    return value


class _Record:
    """Dict conversion for the record dataclasses below.

    Keys follow field order and tuples become lists. from_dict needs every
    field without a default and ignores unknown keys.
    """

    def to_dict(self) -> dict[str, Any]:
        return {name: _encode(getattr(self, name)) for name, _, _ in _spec(type(self))}

    @classmethod
    def from_dict(cls, d: dict[str, Any]):
        return cls(**{name: _decode(hint, d[name])
                      for name, hint, optional in _spec(cls) if not optional or name in d})


@dataclass(frozen=True)
class TripletRecord(_Record):
    s_id: str
    s_label: str
    p: str
    o_id: str
    o_label: str


@dataclass(frozen=True)
class PathRecord(_Record):
    nodes: tuple[str, ...]
    edges: tuple[TripletRecord, ...]


@dataclass(frozen=True)
class EntityRecord(_Record):
    mention: str
    start: int
    end: int
    node: str
    label: str
    description: str = ""
    alternates: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClaimRecord(_Record):
    span: str
    start: Optional[int]
    end: Optional[int]
    prediction: str
    triplets: tuple[TripletRecord, ...]
    rationale: str
    ss: float
    epr: float
    tms: float
    claim_score: int
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True, kw_only=True)
class VerificationReport(_Record):
    """Everything produced for one input: entities, evidence, claims, scores."""

    input_text: str
    entities: tuple[EntityRecord, ...]
    retrieved_triplets: tuple[TripletRecord, ...]
    retrieved_paths: tuple[PathRecord, ...] = ()
    claims: tuple[ClaimRecord, ...]
    n: int
    kas: float
    config: dict[str, Any] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n != len(self.claims):
            raise ValueError(f"n={self.n} does not match {len(self.claims)} claims")


def triplet_record(kg: KnowledgeGraph, t: Triplet) -> TripletRecord:
    s_label, p, o_label = kg.triplet_labels(t)
    return TripletRecord(s_id=t.subject, s_label=s_label, p=p, o_id=t.object, o_label=o_label)


def path_record(kg: KnowledgeGraph, path: KgPath) -> PathRecord:
    return PathRecord(nodes=path.nodes,
                      edges=tuple(triplet_record(kg, e) for e in path.edges))


def entity_record(kg: KnowledgeGraph, entity: LinkedEntity) -> EntityRecord:
    node = kg.nodes[entity.node]
    return EntityRecord(mention=entity.mention, start=entity.start, end=entity.end,
                        node=entity.node, label=node.label,
                        description=node.description, alternates=entity.alternates)


def claim_record(kg: KnowledgeGraph, scored: ScoredClaim) -> ClaimRecord:
    c = scored.claim
    return ClaimRecord(span=c.span, start=c.start, end=c.end,
                       prediction=c.prediction.value,
                       triplets=tuple(triplet_record(kg, t) for t in c.rel_triplets),
                       rationale=c.rationale,
                       ss=scored.ss, epr=scored.epr, tms=scored.tms, claim_score=scored.cs,
                       diagnostics=c.diagnostics)


def build_report(kg: KnowledgeGraph, input_text: str,
                 entities: Sequence[LinkedEntity], retrieved: RetrievedTriplets,
                 scored: Sequence[ScoredClaim], kas: float,
                 config: dict[str, Any], diagnostics: Iterable[str] = ()) -> VerificationReport:
    return VerificationReport(
        input_text=input_text,
        entities=tuple(entity_record(kg, e) for e in entities),
        retrieved_paths=tuple(path_record(kg, p) for p in retrieved.paths),
        retrieved_triplets=tuple(triplet_record(kg, t) for t in retrieved.triplets),
        claims=tuple(claim_record(kg, sc) for sc in scored),
        n=len(scored), kas=kas, config=dict(config), diagnostics=tuple(diagnostics),
    )
