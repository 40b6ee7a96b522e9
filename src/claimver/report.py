"""Self-contained verification report model.

Records carry resolved labels and descriptions so a report can be rendered or
inspected without the knowledge graph it came from. Conversion to and from
plain dicts is lossless, which makes the JSON output a faithful serialization
of the report object; to_json writes that JSON text without building the dicts.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields
from json.encoder import encode_basestring
from operator import attrgetter
from typing import (Any, Callable, Iterable, Optional, Sequence, get_args, get_origin,
                    get_type_hints)

from .kg import KnowledgeGraph, Triplet
from .linking import LinkedEntity
from .retrieval import RetrievedTriplets
from .scoring import ScoredClaim

@functools.cache
def _spec(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(field name, resolved type, has a default) per field, in field order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is not MISSING or f.default_factory is not MISSING)
                 for f in fields(cls))


# How a record field value becomes JSON: a record becomes an object in field
# order, a tuple becomes a list, every other value passes through. _encode
# applies the rule for to_dict, and _write for to_json; keep the two alike.

def _encode(value: Any) -> Any:
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


_INF = float("inf")


def _float(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


def _block(open_: str, items: list[str], close: str, level: int) -> str:
    """Items already written at level + 1, one per line between the brackets."""
    if not items:
        return open_ + close
    outer = "\n" + "  " * level
    inner = outer + "  "
    return open_ + inner + ("," + inner).join(items) + outer + close


def _key(k: Any) -> str:
    if isinstance(k, str):
        return encode_basestring(k)
    if isinstance(k, (float, int)) or k is None:
        return '"' + _write(k, 0) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(v: Any, level: int, records: bool = True) -> str:
    """_encode(v) as json.dumps(indent=2, ensure_ascii=False) writes it, in
    json.dumps's type-check order. records says whether _encode would reach a
    record here: in a field or a tuple inside one, not inside a list or dict.
    Anything json.dumps cannot encode raises TypeError."""
    if isinstance(v, str):
        return encode_basestring(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float(v)
    if isinstance(v, (list, tuple)):
        records = records and isinstance(v, tuple)
        return _block("[", [_write(x, level + 1, records) for x in v], "]", level)
    if isinstance(v, dict):
        return _block("{", [_key(k) + ": " + _write(x, level + 1, False) for k, x in v.items()],
                      "}", level)
    if records and isinstance(v, _Record):
        return _write_record(v, level)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


@functools.cache
def _template(cls: type, level: int) -> tuple[str, Callable[[Any], tuple]]:
    """One record class at one indent level: its %-format and a getter of its
    field values in field order. Every record class has at least two fields."""
    names = [name for name, _, _ in _spec(cls)]
    return (_block("{", [encode_basestring(name) + ": %s" for name in names], "}", level),
            attrgetter(*names))


def _write_record(rec: _Record, level: int) -> str:
    template, get = _template(type(rec), level)
    level += 1
    return template % tuple([_write(v, level) for v in get(rec)])


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
    """Dict and JSON conversion for the record dataclasses below.

    Keys follow field order and tuples become lists. from_dict needs every
    field without a default and ignores unknown keys.
    """

    def to_dict(self) -> dict[str, Any]:
        return {name: _encode(getattr(self, name)) for name, _, _ in _spec(type(self))}

    def to_json(self) -> str:
        """to_dict() as json.dumps(..., indent=2, ensure_ascii=False) writes it,
        without building the dict."""
        return _write_record(self, 0)

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


def _check_offsets(what: str, start: Any, end: Any):
    """ValueError unless start and end are integers with 0 <= start <= end."""
    if not (isinstance(start, int) and isinstance(end, int) and 0 <= start <= end):
        raise ValueError(f"{what} offsets start={start!r}, end={end!r} "
                         f"are not integers with 0 <= start <= end")


@dataclass(frozen=True)
class EntityRecord(_Record):
    mention: str
    start: int
    end: int
    node: str
    label: str
    description: str = ""
    alternates: tuple[str, ...] = ()

    def __post_init__(self):
        _check_offsets(f"entity {self.mention!r}", self.start, self.end)


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

    def __post_init__(self):
        """Offsets are both None (the span was not found) or both set."""
        if self.start is not None or self.end is not None:
            _check_offsets(f"claim {self.span!r}", self.start, self.end)


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
        """Claim and entity offsets lie within input_text."""
        if self.n != len(self.claims):
            raise ValueError(f"n={self.n} does not match {len(self.claims)} claims")
        length = len(self.input_text)
        for what, record in (*(("entity", e) for e in self.entities),
                             *(("claim", c) for c in self.claims)):
            if record.end is not None and record.end > length:
                raise ValueError(f"{what} offsets start={record.start}, end={record.end} "
                                 f"run past input_text ({length} characters)")


def triplet_record(kg: KnowledgeGraph, t: Triplet) -> TripletRecord:
    s_label, p, o_label = kg.triplet_labels(t)
    return TripletRecord(s_id=t.subject, s_label=s_label, p=p, o_id=t.object, o_label=o_label)


def entity_record(kg: KnowledgeGraph, entity: LinkedEntity) -> EntityRecord:
    node = kg.nodes[entity.node]
    return EntityRecord(mention=entity.mention, start=entity.start, end=entity.end,
                        node=entity.node, label=node.label,
                        description=node.description, alternates=entity.alternates)


def build_report(kg: KnowledgeGraph, input_text: str,
                 entities: Sequence[LinkedEntity], retrieved: RetrievedTriplets,
                 scored: Sequence[ScoredClaim], kas: float,
                 config: dict[str, Any], diagnostics: Iterable[str] = ()) -> VerificationReport:
    """Assemble the report. retrieved_triplets, the path edges and the claims
    share one TripletRecord per retrieved triplet."""
    records = {t: triplet_record(kg, t) for t in retrieved.triplets}

    def triplets(ts: Iterable[Triplet]) -> tuple[TripletRecord, ...]:
        return tuple(records.get(t) or triplet_record(kg, t) for t in ts)

    def claim_record(sc: ScoredClaim) -> ClaimRecord:
        c = sc.claim
        return ClaimRecord(span=c.span, start=c.start, end=c.end,
                           prediction=c.prediction.value, triplets=triplets(c.rel_triplets),
                           rationale=c.rationale, ss=sc.ss, epr=sc.epr, tms=sc.tms,
                           claim_score=sc.cs, diagnostics=c.diagnostics)

    return VerificationReport(
        input_text=input_text,
        entities=tuple(entity_record(kg, e) for e in entities),
        retrieved_triplets=tuple(records.values()),
        retrieved_paths=tuple(PathRecord(nodes=p.nodes, edges=triplets(p.edges))
                              for p in retrieved.paths),
        claims=tuple(claim_record(sc) for sc in scored),
        n=len(scored), kas=kas, config=dict(config), diagnostics=tuple(diagnostics),
    )
