"""Report model round-trips and the three renderers."""

import dataclasses
import enum
import gc
import importlib
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimver.linking import link_entities
from claimver.parsing import PredictionLabel, RawClaim, validate_claims
from claimver.render import render, render_ansi, render_html, render_json
import claimver.report
from claimver.report import (ClaimRecord, EntityRecord, PathRecord, TripletRecord,
                             VerificationReport, build_report)
from claimver.retrieval import retrieve
from claimver.scoring import kg_attribution_score, score_claims

from conftest import APOLLO_RESPONSE, APOLLO_TEXT
from oracles import paint_oracle, render_json_oracle, span_colors_oracle

# The module, not the render() function that claimver re-exports under its name.
render_mod = importlib.import_module("claimver.render")

_ANSI_RE = re.compile(r"\x1b\[[0-9;]*m")


@pytest.fixture
def apollo_report(apollo_kg):
    from claimver.parsing import parse_response
    entities = link_entities(apollo_kg, APOLLO_TEXT)
    retrieved = retrieve(apollo_kg, [e.node for e in entities])
    claims = validate_claims(parse_response(APOLLO_RESPONSE), APOLLO_TEXT,
                             retrieved, apollo_kg)
    scored = score_claims(claims, entities, apollo_kg)
    kas = kg_attribution_score(scored).kas
    return build_report(apollo_kg, APOLLO_TEXT, entities, retrieved, scored, kas,
                        config={"scoring": {"alpha": 0.5}}, diagnostics=("note a",))


class TestReportModel:
    def test_claim_count_invariant(self, apollo_report):
        assert apollo_report.n == len(apollo_report.claims) == 2
        with pytest.raises(ValueError):
            VerificationReport(input_text="x", entities=(), retrieved_paths=(),
                               retrieved_triplets=(), claims=(), n=3, kas=0.5)

    def test_records_are_self_contained(self, apollo_report):
        claim = apollo_report.claims[1]
        assert claim.prediction == "Contradictory"
        assert claim.triplets[0] == TripletRecord(
            s_id="Q1615", s_label="Neil Armstrong", p="country of citizenship",
            o_id="Q30", o_label="United States")
        entity = apollo_report.entities[0]
        assert entity.label == "Apollo 11"
        assert entity.description == "first crewed Moon landing mission"

    def test_dict_round_trip(self, apollo_report):
        again = VerificationReport.from_dict(apollo_report.to_dict())
        assert again == apollo_report

    def test_json_round_trip(self, apollo_report):
        blob = json.dumps(apollo_report.to_dict())
        again = VerificationReport.from_dict(json.loads(blob))
        assert again == apollo_report

    def test_schema_keys(self, apollo_report):
        d = apollo_report.to_dict()
        assert list(d) == ["input_text", "entities", "retrieved_triplets",
                           "retrieved_paths", "claims", "n", "kas", "config",
                           "diagnostics"]
        claim_keys = list(d["claims"][0])
        assert claim_keys == ["span", "start", "end", "prediction", "triplets",
                              "rationale", "ss", "epr", "tms", "claim_score",
                              "diagnostics"]

    def test_missing_optional_keys_take_defaults(self, apollo_report):
        d = json.loads(json.dumps(apollo_report.to_dict()))
        for key in ("retrieved_paths", "config", "diagnostics"):
            del d[key]
        for key in ("description", "alternates"):
            del d["entities"][0][key]
        del d["claims"][0]["diagnostics"]
        again = VerificationReport.from_dict(d)
        assert again.retrieved_paths == () and again.config == {} and again.diagnostics == ()
        assert again.entities[0].description == "" and again.entities[0].alternates == ()
        assert again.claims[0].diagnostics == ()
        del d["kas"]
        with pytest.raises(KeyError):
            VerificationReport.from_dict(d)

    def test_round_trip_with_unplaced_claim_and_non_ascii(self):
        claim = ClaimRecord(span="Ärger — 月", start=None, end=None, prediction="NoAttribution",
                            triplets=(TripletRecord("a", "É", "p", "b", "ß"),), rationale="",
                            ss=0.0, epr=0.0, tms=0.0, claim_score=0, diagnostics=("x",))
        report = VerificationReport(input_text="Ärger — 月", entities=(), retrieved_triplets=(),
                                    claims=(claim,), n=1, kas=0.5)
        assert list(report.to_dict()["claims"][0]["triplets"][0]) == [
            "s_id", "s_label", "p", "o_id", "o_label"]
        out = render_json(report)
        assert '"start": null' in out and "Ärger — 月" in out
        assert VerificationReport.from_dict(json.loads(out)) == report

    def test_paths_carry_labels(self, apollo_report):
        path = apollo_report.retrieved_paths[0]
        assert all(e.s_label and e.o_label for e in path.edges)


class TestRenderJson:
    def test_parses_and_round_trips(self, apollo_report):
        out = render_json(apollo_report)
        assert out.endswith("\n")
        again = VerificationReport.from_dict(json.loads(out))
        assert again == apollo_report

    def test_deterministic(self, apollo_report):
        assert render_json(apollo_report) == render_json(apollo_report)


class TestRenderAnsi:
    def test_contradictory_span_red(self, apollo_report):
        out = render_ansi(apollo_report)
        red_spans = re.findall(r"\x1b\[31m([^\x1b]*)\x1b\[0m", out)
        assert any("French citizen" in s for s in red_spans)

    def test_attributable_span_green(self, apollo_report):
        out = render_ansi(apollo_report)
        green = re.findall(r"\x1b\[32m([^\x1b]*)\x1b\[0m", out)
        assert any("Apollo 11 landed on the Moon." in s for s in green)

    def test_stripping_codes_preserves_text(self, apollo_report):
        stripped = _ANSI_RE.sub("", render_ansi(apollo_report))
        assert stripped.startswith(APOLLO_TEXT + "\n")

    def test_kas_full_precision(self, apollo_report):
        out = _ANSI_RE.sub("", render_ansi(apollo_report))
        match = re.search(r"KAS: (\S+)", out)
        assert float(match.group(1)) == apollo_report.kas

    def test_claim_details_present(self, apollo_report):
        out = _ANSI_RE.sub("", render_ansi(apollo_report))
        assert "rationale: The graph records United States citizenship." in out
        assert "(Neil Armstrong, country of citizenship, United States)" in out
        assert "Claims: 2" in out
        assert "note a" in out


class TestRenderHtml:
    def test_text_survives_tag_stripping(self, apollo_kg):
        import html as html_mod
        text = "Tricky <tag> & Apollo 11 on the Moon."
        entities = link_entities(apollo_kg, text)
        retrieved = retrieve(apollo_kg, [e.node for e in entities])
        report = build_report(apollo_kg, text, entities, retrieved, [], 0.5, {})
        out = render_html(report)
        pre = re.search(r'<pre class="text">(.*?)</pre>', out, re.S).group(1)
        assert html_mod.unescape(re.sub(r"<[^>]+>", "", pre)) == text

    def test_claim_span_classes(self, apollo_report):
        out = render_html(apollo_report)
        assert '<span class="contradictory">' in out
        assert '<span class="attributable">' in out
        assert "KAS:" in out

    def test_escapes_model_strings(self, apollo_kg):
        report = build_report(
            apollo_kg, "plain", [], retrieve(apollo_kg, []), [], 0.5, {},
            diagnostics=("<script>alert(1)</script>",))
        out = render_html(report)
        assert "<script>" not in out
        assert "&lt;script&gt;" in out


class TestRenderDispatch:
    def test_formats(self, apollo_report):
        assert render(apollo_report, "json") == render_json(apollo_report)
        assert render(apollo_report, "ansi") == render_ansi(apollo_report)
        assert render(apollo_report, "html") == render_html(apollo_report)

    def test_unknown_format(self, apollo_report):
        with pytest.raises(ValueError):
            render(apollo_report, "pdf")


@pytest.mark.parametrize("format", ["ansi", "html"])
@pytest.mark.parametrize("prediction", ["Bogus", None, ["Attributable"]])
def test_unknown_loaded_prediction_refused_by_painting_renderers(apollo_report, format,
                                                                 prediction):
    d = apollo_report.to_dict()
    d["claims"][-1]["prediction"] = prediction
    report = VerificationReport.from_dict(d)
    assert render(report, "json") == render_json(report)
    with pytest.raises(ValueError, match=f"prediction {re.escape(repr(prediction))}$"):
        render(report, format)


_LABELS = st.sampled_from(["Attributable", "Extrapolatory", "Contradictory", "NoAttribution"])


def _painted_report(text, claims):
    records = tuple(ClaimRecord(span="", start=s, end=e, prediction=label, triplets=(),
                                rationale="", ss=0.0, epr=0.0, tms=0.0, claim_score=0)
                    for s, e, label in claims)
    return VerificationReport(input_text=text, entities=(), retrieved_triplets=(),
                              claims=records, n=len(records), kas=0.5)


def _spans(length: int):
    """(start, end) pairs with 0 <= start <= end <= length."""
    return st.tuples(st.integers(0, length), st.integers(0, length)).map(sorted)


@st.composite
def _painted_claims(draw):
    text = draw(st.text(st.sampled_from("ab <>&\"'\n月"), max_size=30))
    spans = draw(st.lists(_spans(len(text)), max_size=5))
    return text, [(start, end, draw(_LABELS)) for start, end in spans]


class TestOverlapPainting:
    def test_later_claim_wins(self, apollo_kg):
        text = "Apollo 11 landed on the Moon."
        claims = (
            ClaimRecord(span=text, start=0, end=len(text), prediction="Extrapolatory",
                        triplets=(), rationale="", ss=0, epr=0, tms=0, claim_score=0),
            ClaimRecord(span="Moon", start=24, end=28, prediction="Contradictory",
                        triplets=(), rationale="", ss=0, epr=0, tms=0, claim_score=-1),
        )
        report = VerificationReport(input_text=text, entities=(), retrieved_paths=(),
                                    retrieved_triplets=(), claims=claims, n=2, kas=0.5)
        out = render_ansi(report)
        assert "\x1b[31mMoon\x1b[0m" in out
        stripped = _ANSI_RE.sub("", out)
        assert stripped.startswith(text + "\n")

    @pytest.mark.parametrize("start, end", [(-9, -2), (12, 15), (5, 3), (-1, 99), (-2, 1)])
    def test_offsets_outside_text(self, start, end):
        # Such a report cannot be built, so the painter never sees one.
        with pytest.raises(ValueError, match="offsets"):
            _painted_report("hello world", [(start, end, "Attributable")])

    @given(_painted_claims())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_character_painter(self, text_and_claims):
        text, claims = text_and_claims
        report = _painted_report(text, claims)
        ansi, page = render_ansi(report), render_html(report)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(render_mod, "_span_colors", span_colors_oracle)
            mp.setattr(render_mod, "_paint", paint_oracle)
            assert ansi == render_ansi(report)
            assert page == render_html(report)


# Strings with non-ASCII characters, control characters, quotes, backslashes
# and lone surrogates.
_CHARS = st.one_of(st.characters(), st.characters(categories=["Cs"]),
                   st.sampled_from('"\\\x00\x1f\x7f\u2028é月\U0001F600'))
_TEXT = st.text(_CHARS, max_size=6)
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]))
_INTS = st.integers(-2**70, 2**70)
_JSON = st.recursive(st.none() | st.booleans() | _INTS | _FLOATS | _TEXT,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_TEXT, inner, max_size=3),
                     max_leaves=5)


def _tuples(elements, max_size=2):
    return st.lists(elements, max_size=max_size).map(tuple)


_TRIPLETS = st.builds(TripletRecord, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT)


def _entities(spans):
    return _tuples(spans.flatmap(lambda span: st.builds(
        EntityRecord, mention=_TEXT, start=st.just(span[0]), end=st.just(span[1]),
        node=_TEXT, label=_TEXT, description=_TEXT, alternates=_tuples(_TEXT))))


def _claims(spans):
    return _tuples(spans.flatmap(lambda span: st.builds(
        ClaimRecord, span=_TEXT, start=st.just(span[0]), end=st.just(span[1]),
        prediction=_TEXT, triplets=_tuples(_TRIPLETS), rationale=_TEXT, ss=_FLOATS,
        epr=_FLOATS, tms=_FLOATS, claim_score=_INTS, diagnostics=_tuples(_TEXT))))


def _reports(entity_spans, claim_spans):
    """Reports whose offsets into a drawn input_text come from the two span
    strategies, each given the text's length."""
    return _TEXT.flatmap(lambda text: st.builds(
        lambda claims, **kw: VerificationReport(claims=claims, n=len(claims), **kw),
        input_text=st.just(text),
        entities=_entities(entity_spans(len(text))),
        retrieved_triplets=_tuples(_TRIPLETS),
        retrieved_paths=_tuples(st.builds(PathRecord, nodes=_tuples(_TEXT),
                                          edges=_tuples(_TRIPLETS))),
        claims=_claims(claim_spans(len(text))),
        kas=_FLOATS,
        config=st.dictionaries(_TEXT, _JSON, max_size=4),
        diagnostics=_tuples(_TEXT),
    ))


_REPORTS = _reports(_spans, lambda length: st.just((None, None)) | _spans(length))


def _offsets_fit(length, entity_spans, claim_spans) -> bool:
    """Entity offsets, and claim offsets other than (None, None), are
    integers with 0 <= start <= end <= length."""
    placed = [*entity_spans, *(span for span in claim_spans if span != (None, None))]
    return all(None not in span and 0 <= span[0] <= span[1] <= length for span in placed)


_ANY_OFFSET = st.integers(-3, 12)


class TestOffsetsCheckedWhenBuilt:
    def test_entity_record(self):
        with pytest.raises(ValueError, match="offsets"):
            EntityRecord(mention="x", start=-2, end=99, node="Q1", label="X")

    @pytest.mark.parametrize("start, end", [(None, 3), (3, None), (4, 2), (-1, 0)])
    def test_claim_record(self, start, end):
        with pytest.raises(ValueError, match="offsets"):
            ClaimRecord(span="x", start=start, end=end, prediction="NoAttribution",
                        triplets=(), rationale="", ss=0, epr=0, tms=0, claim_score=0)

    @given(st.text(max_size=8), st.lists(st.tuples(_ANY_OFFSET, _ANY_OFFSET), max_size=3),
           st.lists(st.tuples(st.none() | _ANY_OFFSET, st.none() | _ANY_OFFSET), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_from_dict_accepts_exactly_offsets_in_text(self, text, entity_spans, claim_spans):
        d = {"input_text": text,
             "entities": [{"mention": "m", "start": s, "end": e, "node": "Q1", "label": "L"}
                          for s, e in entity_spans],
             "retrieved_triplets": [],
             "claims": [{"span": "c", "start": s, "end": e, "prediction": "NoAttribution",
                         "triplets": [], "rationale": "", "ss": 0.0, "epr": 0.0, "tms": 0.0,
                         "claim_score": 0} for s, e in claim_spans],
             "n": len(claim_spans), "kas": 0.5}
        if _offsets_fit(len(text), entity_spans, claim_spans):
            report = VerificationReport.from_dict(d)
            assert VerificationReport.from_dict(json.loads(render_json(report))) == report
        else:
            with pytest.raises(ValueError, match="offsets"):
                VerificationReport.from_dict(d)


class _Label(str):
    pass


class _Count(enum.IntEnum):
    ONE = 1


@dataclasses.dataclass(frozen=True)
class _TaggedTriplet(TripletRecord):
    tag: str = "extra"


_TRIPLET = TripletRecord("a", "A", "p", "b", "B")
_PLAIN_REPORT = VerificationReport(
    input_text="one two", retrieved_triplets=(_TRIPLET,),
    entities=(EntityRecord(mention="one", start=0, end=3, node="a", label="A"),),
    retrieved_paths=(PathRecord(nodes=("a", "b"), edges=(_TRIPLET,)),),
    claims=(ClaimRecord(span="one two", start=0, end=7, prediction="Attributable",
                        triplets=(_TRIPLET,), rationale="r", ss=0.5, epr=1.0, tms=0.75,
                        claim_score=2),),
    n=1, kas=0.6)


def _with_claim(**changes):
    return lambda r: dataclasses.replace(
        r, claims=(dataclasses.replace(r.claims[0], **changes),))


def _with_entity(**changes):
    return lambda r: dataclasses.replace(
        r, entities=(dataclasses.replace(r.entities[0], **changes),))


def _with_path(**changes):
    return lambda r: dataclasses.replace(
        r, retrieved_paths=(dataclasses.replace(r.retrieved_paths[0], **changes),))


# One value per field kind whose type is not exactly the field's hint.
_OFF_TYPE_CASES = [
    ("str-subclass", _with_claim(span=_Label("one two"), rationale=_Label("r\u2028"))),
    ("str-enum", _with_claim(prediction=PredictionLabel.CONTRADICTORY)),
    ("str-subclass-in-record", lambda r: dataclasses.replace(
        r, retrieved_triplets=(TripletRecord(_Label("a"), "A", _Label("p"), "b", "B"),))),
    ("str-none", _with_claim(rationale=None, prediction=None)),
    ("int-bool", _with_claim(claim_score=True)),
    ("int-intenum", _with_claim(claim_score=_Count.ONE)),
    ("int-bool-offsets", _with_entity(start=False, end=True)),
    ("int-intenum-offsets", _with_claim(start=_Count.ONE, end=_Count.ONE)),
    ("int-intenum-count", lambda r: dataclasses.replace(r, n=_Count.ONE)),
    ("float-np-float64", _with_claim(ss=np.float64(0.1), epr=np.float64(-0.0))),
    ("float-nan-inf", _with_claim(ss=math.nan, epr=math.inf, tms=-math.inf)),
    ("float-np-nan", lambda r: dataclasses.replace(r, kas=np.float64("nan"))),
    ("float-int", _with_claim(ss=0, epr=1, tms=True)),
    ("tuple-list-of-str", _with_claim(diagnostics=["d1", "d2"])),
    ("tuple-list-of-str-nodes", _with_path(nodes=["a", "b"])),
    ("tuple-list-of-records", _with_claim(triplets=[_TRIPLET])),
    ("tuple-non-str-items", _with_entity(alternates=(1, None, 2.5, ("x",), [True]))),
    ("tuple-non-record-items", _with_path(edges=("edge", 3, None, {"k": (1,)}))),
    ("tuple-record-subclass", _with_claim(triplets=(_TRIPLET, _TaggedTriplet(
        "c", "C", "q", "d", "D")))),
    ("tuple-nested-tuple", _with_path(edges=((_TRIPLET, (_TRIPLET,)),))),
    ("tuple-record-in-dict", _with_path(edges=({"t": _TRIPLET},))),
    ("tuple-empty", lambda r: dataclasses.replace(r, retrieved_triplets=(), claims=(), n=0)),
    ("optional-none", _with_claim(start=None, end=None)),
    ("dict-tuple-key-values", lambda r: dataclasses.replace(
        r, config={"a": (1, (2,)), 3: [None], 4.5: {"b": ()}})),
    ("record-as-str", _with_claim(rationale=_TRIPLET)),
    ("record-as-tuple", lambda r: dataclasses.replace(r, diagnostics=_TRIPLET)),
]


class TestRenderJsonMatchesDumps:
    """render_json writes the text itself; json.dumps(indent=2) is the oracle."""

    @given(_REPORTS)
    @settings(max_examples=100, deadline=None)
    def test_random_reports(self, report):
        assert render_json(report) == render_json_oracle(report)

    def test_fixture_report(self, apollo_report):
        assert render_json(apollo_report) == render_json_oracle(apollo_report)

    def test_shared_records_and_odd_field_types(self):
        # A record read back from loose JSON can hold values of other types;
        # they are written as json.dumps writes them.
        odd = TripletRecord(1, None, "p", 2.5, ["x", {"k": True}])
        shared = TripletRecord("a", "A", "p", "b", "B")
        report = VerificationReport(
            input_text="t", entities=(), retrieved_triplets=(shared, odd),
            retrieved_paths=(PathRecord(nodes=("a", "b"), edges=(shared, shared)),),
            claims=(), n=0, kas=1, config={2: "two", 2.5: None, False: [], None: {}})
        assert render_json(report) == render_json_oracle(report)

    @pytest.mark.parametrize("config", [
        {"x": object()}, {"x": {1, 2}}, {"x": b"bytes"}, {"x": [1, object()]},
        {"x": TripletRecord("a", "A", "p", "b", "B")}, {(1, 2): "tuple key"},
    ])
    def test_unencodable_config_raises_type_error(self, config):
        report = VerificationReport(input_text="t", entities=(), retrieved_triplets=(),
                                    claims=(), n=0, kas=0.5, config=config)
        with pytest.raises(TypeError):
            render_json_oracle(report)
        with pytest.raises(TypeError):
            render_json(report)

    def test_config_that_contains_itself_raises_value_error(self):
        config = {"x": 1}
        config["self"] = [config]
        report = VerificationReport(input_text="t", entities=(), retrieved_triplets=(),
                                    claims=(), n=0, kas=0.5, config=config)
        with pytest.raises(ValueError, match="Circular reference"):
            render_json_oracle(report)
        with pytest.raises(ValueError, match="Circular reference"):
            render_json(report)

    def test_record_in_list_field_raises_type_error(self):
        # to_dict converts records in tuples, not in lists.
        inner = TripletRecord("a", "A", "p", "b", "B")
        listed = TripletRecord("x", [inner], "p", "y", "Y")
        report = VerificationReport(input_text="t", entities=(), retrieved_triplets=(listed,),
                                    claims=(), n=0, kas=0.5)
        with pytest.raises(TypeError):
            render_json_oracle(report)
        with pytest.raises(TypeError):
            render_json(report)

    @pytest.mark.parametrize("kind, change", _OFF_TYPE_CASES,
                             ids=[kind for kind, _ in _OFF_TYPE_CASES])
    def test_off_type_field_values(self, kind, change):
        # A value whose type is not exactly its field's hint is written as
        # json.dumps writes it, or raises TypeError as json.dumps does.
        report = change(_PLAIN_REPORT)
        try:
            expected = render_json_oracle(report)
        except TypeError:
            with pytest.raises(TypeError):
                render_json(report)
        else:
            assert render_json(report) == expected

    def test_writer_cache_holds_no_report(self, apollo_report):
        # One generated writer per (record class, indent level), whatever
        # the number of reports written; the writers keep no report alive.
        render_json(apollo_report)
        writers = claimver.report._writer.cache_info().currsize
        levels = 3  # the report at 0, its records at 2, their triplets at 4
        assert writers <= len(claimver.report._Record.__subclasses__()) * levels
        refs = []
        for i in range(1000):
            report = dataclasses.replace(apollo_report, diagnostics=(f"run {i}",))
            refs.append(weakref.ref(report))
            render_json(report)
        del report
        gc.collect()
        assert claimver.report._writer.cache_info().currsize == writers
        assert not any(ref() for ref in refs)


class TestBuildReportSharesTriplets:
    def test_one_record_per_triplet(self, apollo_kg, apollo_report):
        by_key = {(t.s_id, t.p, t.o_id): t for t in apollo_report.retrieved_triplets}
        edges = [e for p in apollo_report.retrieved_paths for e in p.edges]
        cited = [t for c in apollo_report.claims for t in c.triplets]
        assert edges and cited
        for rec in edges + cited:
            assert rec is by_key[(rec.s_id, rec.p, rec.o_id)]
