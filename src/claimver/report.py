"""Self-contained verification report model.

Records carry resolved labels and descriptions so a report can be rendered or
inspected without the knowledge graph it came from. Conversion to and from
plain dicts is lossless, which makes the JSON output a faithful serialization
of the report object; to_json writes that JSON text without building the dicts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, field, fields
from json.encoder import encode_basestring
from typing import (Any, Callable, Iterable, Optional, Sequence, Union, get_args, get_origin,
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
# order, a tuple becomes a list, every other value passes through. _encode is
# that one rule. to_dict applies it to each field of _spec; the JSON writer
# writes _encode(value) with _dump, and only takes a shortcut for values of
# exactly their hinted type, which _encode passes through (str, int, float,
# None) or turns into a list or an object (tuples, records).

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


def _dump(v: Any, level: int) -> str:
    """v as json.dumps(v, indent=2, ensure_ascii=False) writes it at this
    indent level; JSON text holds a raw newline only between lines. Anything
    json.dumps cannot encode, a record among them, raises TypeError."""
    return json.dumps(v, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * level)


_DIRECT = {str: "_str", int: "_int", float: "_float"}


def _field_source(hint: Any, var: str, level: int, env: dict[str, Any]) -> str:
    """Source of an expression that writes var, a field value hinted as hint,
    at level: directly when its type is exactly the hint's, else as _dump of
    its _encode."""
    fallback = f"_dump(_encode({var}), {level})"
    args = get_args(hint)
    if hint in _DIRECT:
        return f"{_DIRECT[hint]}({var}) if type({var}) is {hint.__name__} else {fallback}"
    if get_origin(hint) is Union and len(args) == 2 and type(None) in args:
        inner = _field_source(args[args[0] is type(None)], var, level, env)
        return f"'null' if {var} is None else {inner}"
    if get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = f"x{level}"
        outer = "\n" + "  " * level
        inner = outer + "  "
        items = _field_source(args[0], item, level + 1, env)
        return (f"(({'[' + inner!r} + {',' + inner!r}.join([{items} for {item} in {var}])"
                f" + {outer + ']'!r}) if {var} else '[]') if type({var}) is tuple "
                f"else {fallback}")
    if isinstance(hint, type) and issubclass(hint, _Record):
        cls, writer = f"_c{len(env)}", f"_w{len(env)}"
        env[cls], env[writer] = hint, _writer(hint, level)
        return f"{writer}({var}) if type({var}) is {cls} else {fallback}"
    return fallback


@functools.cache
def _writer(cls: type, level: int) -> Callable[[Any], str]:
    """The JSON writer of one record class at one indent level, generated once
    from the _spec field hints, as dataclasses generates __init__. Its output
    is always _dump(rec.to_dict(), level). Record hints form no cycle."""
    env: dict[str, Any] = {"_str": encode_basestring, "_int": int.__repr__,
                           "_float": _float, "_dump": _dump, "_encode": _encode}
    lines = ["def write(rec):"]
    for i, (name, hint, _) in enumerate(_spec(cls)):
        lines.append(f"    v{i} = rec.{name}")
        lines.append(f"    w{i} = {_field_source(hint, f'v{i}', level + 1, env)}")
    # The object with a NUL where each value goes, as one f-string of w0, w1, ...
    text = _block("{", [encode_basestring(name) + ": \0" for name, _, _ in _spec(cls)],
                  "}", level)
    first, *rest = text.replace("{", "{{").replace("}", "}}").split("\0")
    lines.append("    return f" + repr(first + "".join(
        f"{{w{i}}}{part}" for i, part in enumerate(rest))))
    exec("\n".join(lines), env)
    write = env["write"]
    write.__qualname__ = f"_writer({cls.__name__}, {level})"
    return write


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
        return _writer(type(self), 0)(self)

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
