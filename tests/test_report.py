"""Report model round-trips and the three renderers."""

import json
import re

import pytest

from claimver.linking import link_entities
from claimver.parsing import RawClaim, validate_claims
from claimver.render import render, render_ansi, render_html, render_json
from claimver.report import (ClaimRecord, TripletRecord, VerificationReport,
                             build_report)
from claimver.retrieval import retrieve
from claimver.scoring import kg_attribution_score, score_claims

from conftest import APOLLO_RESPONSE, APOLLO_TEXT

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
        from claimver.retrieval import RetrievedTriplets
        report = build_report(
            apollo_kg, "plain", [], RetrievedTriplets(paths=()), [], 0.5, {},
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
