"""Tolerant response parsing and claim validation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import claimver.parsing
from claimver.errors import ResponseParseError
from claimver.kg import KnowledgeGraph, Triplet
from claimver.parsing import (ClaimResult, PredictionLabel, RawClaim, parse_response,
                              parse_triplet_field, validate_claims)
from claimver.retrieval import RetrievalConfig, RetrievedTriplets, retrieve
from claimver.text import normalize, normalized_find

from conftest import APOLLO_RESPONSE, APOLLO_TEXT, format_response
from oracles import overlaps_earlier_oracle


# Fragments of the key/value shapes parse_response reads, mixed with noise.
_RESPONSE_PIECES = st.one_of(
    st.sampled_from(["text_span", "prediction", "triplets", "rationale", "TEXT-SPAN", "1",
                     "23", "_", ":", "=", '"', "'", "\\", "[", "]", "(", ")", ",", " ",
                     "\n", "NA", "Attributable"]),
    st.text(max_size=8))


class TestParseResponse:
    def test_two_claim_response(self):
        claims = parse_response(APOLLO_RESPONSE)
        assert len(claims) == 2
        assert claims[0] == RawClaim(
            index=1, text_span="Apollo 11 landed on the Moon.",
            prediction="Attributable",
            triplets_field="(Apollo 11, landing site, Moon)",
            rationale="The landing site triplet states this directly.")
        assert claims[1].prediction == "Contradictory"

    def test_unnumbered_keys_are_group_one(self):
        claims = parse_response('"text_span": "abc", "prediction": "Attributable",\n'
                                '"triplets": "NA", "rationale": "r"')
        assert [c.index for c in claims] == [1]
        assert claims[0].text_span == "abc"

    def test_json_object_shape(self):
        raw = """{
          "text_span1": "first claim",
          "prediction1": "Extrapolatory",
          "triplets1": "NA",
          "rationale1": "no direct evidence"
        }"""
        claims = parse_response(raw)
        assert claims[0].prediction == "Extrapolatory"
        assert claims[0].triplets_field == "NA"

    def test_bare_values_and_single_quotes(self):
        raw = ("text_span1: the moon is real\n"
               "prediction1: 'Attributable',\n"
               "triplets1: NA\n"
               "rationale1: obvious\n")
        claims = parse_response(raw)
        assert claims[0].text_span == "the moon is real"
        assert claims[0].prediction == "Attributable"

    def test_groups_sorted_by_index(self):
        raw = ('"text_span2": "b", "prediction2": "Attributable", "triplets2": "NA", '
               '"rationale2": "r2",\n'
               '"text_span1": "a", "prediction1": "Contradictory", "triplets1": "NA", '
               '"rationale1": "r1"')
        claims = parse_response(raw)
        assert [c.index for c in claims] == [1, 2]
        assert [c.text_span for c in claims] == ["a", "b"]

    def test_duplicate_key_first_wins(self):
        sink = []
        raw = ('"text_span1": "first", "text_span1": "second",\n'
               '"prediction1": "Attributable", "triplets1": "NA", "rationale1": "r"')
        claims = parse_response(raw, sink)
        assert claims[0].text_span == "first"
        assert any("duplicate" in d for d in sink)

    def test_incomplete_group_padded_with_na(self):
        sink = []
        raw = ('"text_span1": "a", "prediction1": "Attributable", "triplets1": "NA", '
               '"rationale1": "r",\n'
               '"text_span2": "orphan"')
        claims = parse_response(raw, sink)
        assert len(claims) == 2
        assert claims[1].prediction == "NA"
        assert any("missing" in d for d in sink)

    def test_escaped_quotes_in_value(self):
        raw = ('"text_span1": "he said \\"go\\"", "prediction1": "Attributable",\n'
               '"triplets1": "NA", "rationale1": "quoted"')
        claims = parse_response(raw)
        assert claims[0].text_span == 'he said "go"'

    def test_multiline_bracket_list_value(self):
        raw = ('"text_span1": "a", "prediction1": "Attributable",\n'
               '"triplets1": [("x", "y", "z"),\n ("q", "r", "s")],\n'
               '"rationale1": "r"')
        claims = parse_response(raw)
        assert '("q", "r", "s")' in claims[0].triplets_field

    def test_empty_string_fails(self):
        with pytest.raises(ResponseParseError):
            parse_response("")

    def test_no_complete_group_fails(self):
        with pytest.raises(ResponseParseError) as err:
            parse_response('"text_span1": "lonely span"')
        assert err.value.raw == '"text_span1": "lonely span"'

    def test_prose_without_keys_fails(self):
        with pytest.raises(ResponseParseError):
            parse_response("The text seems broadly accurate to me.")

    def test_unreadable_claim_number_ignored(self):
        sink = []
        raw = APOLLO_RESPONSE + '\n"text_span' + "1" * 5000 + '": "x"'
        assert parse_response(raw, sink) == parse_response(APOLLO_RESPONSE)
        assert sink == ["text_span key with a 5000-digit number ignored"]

    @given(st.one_of(st.text(), st.lists(_RESPONSE_PIECES, max_size=40).map("".join)))
    @example('"text_span' + "1" * 5000 + '": "x"')
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_fails_as_parse_error(self, raw):
        try:
            claims = parse_response(raw)
        except ResponseParseError:
            return
        assert claims and all(isinstance(c, RawClaim) for c in claims)


class TestFormatRoundTrip:
    def test_simple_round_trip(self):
        claims = parse_response(APOLLO_RESPONSE)
        assert parse_response(format_response(claims)) == claims

    @given(st.lists(st.integers(1, 9), unique=True, min_size=1, max_size=4),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_round_trip(self, indices, data):
        value = st.text(max_size=60)
        claims = [
            RawClaim(index=i, text_span=data.draw(value), prediction=data.draw(value),
                     triplets_field=data.draw(value), rationale=data.draw(value))
            for i in sorted(indices)
        ]
        assert parse_response(format_response(claims)) == claims


class TestParseTripletField:
    def test_paren_groups(self):
        triples, problems = parse_triplet_field("(a, b, c) and (d, e, f)")
        assert triples == [("a", "b", "c"), ("d", "e", "f")]
        assert problems == []

    def test_pipe_lines(self):
        triples, _ = parse_triplet_field("a | b | c\nd | e | f")
        assert triples == [("a", "b", "c"), ("d", "e", "f")]

    def test_comma_line(self):
        triples, _ = parse_triplet_field("Apollo 11, crew member, Neil Armstrong")
        assert triples == [("Apollo 11", "crew member", "Neil Armstrong")]

    def test_quoted_parts_stripped(self):
        triples, _ = parse_triplet_field('("Apollo 11", "landing site", "Moon")')
        assert triples == [("Apollo 11", "landing site", "Moon")]

    def test_na_empty(self):
        assert parse_triplet_field("NA") == ([], [])
        assert parse_triplet_field("  ") == ([], [])

    def test_garbage_reported(self):
        triples, problems = parse_triplet_field("(only, two)")
        assert triples == []
        assert problems


@pytest.fixture
def apollo_retrieved(apollo_kg):
    return retrieve(apollo_kg, ["Q43653", "Q405", "Q1615"], RetrievalConfig())


def _raw(span, prediction, triplets="NA", rationale="r", index=1):
    return RawClaim(index=index, text_span=span, prediction=prediction,
                    triplets_field=triplets, rationale=rationale)


class TestValidateClaims:
    def test_clean_claim(self, apollo_kg, apollo_retrieved):
        raws = [_raw("Apollo 11 landed on the Moon.", "Attributable",
                     "(Apollo 11, landing site, Moon)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        claim = out[0]
        assert claim.prediction is PredictionLabel.ATTRIBUTABLE
        assert (claim.start, claim.end) == (0, 29)
        assert claim.rel_triplets == (Triplet("Q43653", "landing site", "Q405"),)
        assert claim.diagnostics == ()

    def test_normalized_span_match_warns(self, apollo_kg, apollo_retrieved):
        raws = [_raw("apollo 11  landed on the moon.", "Attributable",
                     "(Apollo 11, landing site, Moon)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].prediction is PredictionLabel.ATTRIBUTABLE
        assert out[0].start == 0
        assert any("normalization" in d for d in out[0].diagnostics)

    @staticmethod
    def _finders_built(text, spans, kg, retrieved, monkeypatch):
        """The texts one validate_claims call builds a normalized finder over,
        checking that each span lands where normalized_find puts it."""
        assert all(text.find(s) == -1 for s in spans)
        expected = [normalized_find(text, s) for s in spans]
        assert all(expected)
        built = []
        original = claimver.parsing.normalized_finder

        def counting(s):
            built.append(s)
            return original(s)

        monkeypatch.setattr(claimver.parsing, "normalized_finder", counting)
        raws = [_raw(s, "Extrapolatory", index=i) for i, s in enumerate(spans, 1)]
        out = validate_claims(raws, text, retrieved, kg)
        assert [(c.start, c.end) for c in out] == expected
        return built

    def test_normalized_map_built_once_per_call(self, apollo_kg, apollo_retrieved, monkeypatch):
        # Case folding lengthens the ß, so the finder keeps each character's
        # folded offset; it is still built once for all four spans.
        text = APOLLO_TEXT + " He grew up on a Straße."
        spans = ["apollo 11  landed on the moon.", "NEIL ARMSTRONG", "a  french citizen.",
                 "on a strasse."]
        built = self._finders_built(text, spans, apollo_kg, apollo_retrieved, monkeypatch)
        assert built == [text]

    def test_length_preserving_text_builds_no_map(self, apollo_kg, apollo_retrieved,
                                                  monkeypatch):
        spans = ["apollo 11  landed on the moon.", "NEIL ARMSTRONG", "a  french citizen."]
        built = self._finders_built(APOLLO_TEXT, spans, apollo_kg, apollo_retrieved,
                                    monkeypatch)
        assert built == [APOLLO_TEXT]

    def test_unlocatable_span_noattribution(self, apollo_kg, apollo_retrieved):
        raws = [_raw("The Moon is made of cheese.", "Attributable",
                     "(Apollo 11, landing site, Moon)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].prediction is PredictionLabel.NO_ATTRIBUTION
        assert out[0].start is None
        assert any("not found" in d for d in out[0].diagnostics)

    def test_na_span(self, apollo_kg, apollo_retrieved):
        out = validate_claims([_raw("NA", "Attributable")],
                              APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].prediction is PredictionLabel.NO_ATTRIBUTION

    def test_prediction_wrappers_tolerated(self, apollo_kg, apollo_retrieved):
        for wrapped in ('"Contradictory"', " contradictory.", "CONTRADICTORY"):
            raws = [_raw("Neil Armstrong was a French citizen.", wrapped,
                         "(Neil Armstrong, country of citizenship, United States)")]
            out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
            assert out[0].prediction is PredictionLabel.CONTRADICTORY

    def test_unrecognized_prediction(self, apollo_kg, apollo_retrieved):
        out = validate_claims([_raw("Apollo 11 landed on the Moon.", "Probably fine")],
                              APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].prediction is PredictionLabel.NO_ATTRIBUTION
        assert any("unrecognized prediction" in d for d in out[0].diagnostics)

    def test_triplet_membership_case_insensitive(self, apollo_kg, apollo_retrieved):
        raws = [_raw("Apollo 11 landed on the Moon.", "Attributable",
                     "(APOLLO 11, Landing Site, moon)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].rel_triplets == (Triplet("Q43653", "landing site", "Q405"),)

    def test_kg_fallback_flagged(self, apollo_kg, apollo_retrieved):
        # (Moon, orbits, Earth) is in the graph but not among the retrieved set.
        raws = [_raw("Apollo 11 landed on the Moon.", "Attributable",
                     "(Moon, orbits, Earth)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].rel_triplets == (Triplet("Q405", "orbits", "Q2"),)
        assert any("not among retrieved" in d for d in out[0].diagnostics)

    def test_unknown_triplet_dropped(self, apollo_kg, apollo_retrieved):
        raws = [_raw("Apollo 11 landed on the Moon.", "Extrapolatory",
                     "(Moon, made of, cheese)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].rel_triplets == ()
        assert any("dropped" in d for d in out[0].diagnostics)
        assert out[0].prediction is PredictionLabel.EXTRAPOLATORY

    def test_duplicate_triplet_deduped(self, apollo_kg, apollo_retrieved):
        raws = [_raw("Apollo 11 landed on the Moon.", "Attributable",
                     "(Apollo 11, landing site, Moon)\n(Apollo 11, landing site, Moon)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert len(out[0].rel_triplets) == 1
        assert any("duplicate triplet" in d for d in out[0].diagnostics)

    def test_downgrade_attributable_without_triplets(self, apollo_kg, apollo_retrieved):
        out = validate_claims([_raw("Apollo 11 landed on the Moon.", "Attributable", "NA")],
                              APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].prediction is PredictionLabel.NO_ATTRIBUTION
        assert any("downgraded" in d for d in out[0].diagnostics)

    def test_downgrade_contradictory_without_triplets(self, apollo_kg, apollo_retrieved):
        out = validate_claims(
            [_raw("Neil Armstrong was a French citizen.", "Contradictory", "NA")],
            APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].prediction is PredictionLabel.NO_ATTRIBUTION

    def test_extrapolatory_without_triplets_kept(self, apollo_kg, apollo_retrieved):
        out = validate_claims(
            [_raw("Neil Armstrong was a French citizen.", "Extrapolatory", "NA")],
            APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert out[0].prediction is PredictionLabel.EXTRAPOLATORY

    def test_overlap_flagged_on_later_claim(self, apollo_kg, apollo_retrieved):
        raws = [
            _raw("Apollo 11 landed on the Moon.", "Extrapolatory", index=1),
            _raw("landed on the Moon", "Extrapolatory", index=2),
        ]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert not any("overlaps" in d for d in out[0].diagnostics)
        assert any("overlaps" in d for d in out[1].diagnostics)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 5)), max_size=14))
    @example([(2, 3), (5, 1), (1, 6), (2, 3), (4, 0), (3, 2)])
    def test_overlap_sweep_matches_oracle(self, starts_and_lengths):
        # Small offsets, so spans often touch, nest and repeat.
        spans = [(start, start + length) for start, length in starts_and_lengths]
        assert claimver.parsing._overlaps_earlier(spans) == overlaps_earlier_oracle(spans)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 4)), min_size=1, max_size=10))
    def test_overlap_flag_is_the_last_diagnostic(self, picks):
        # Claims quote runs of the words of a text, some repeated or nested,
        # and one in three cannot be located.
        words = "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 w0 w1".split()
        text = " ".join(words)
        raws = [_raw(" ".join(words[first:first + count]) if (first + count) % 3 else "x y",
                     "Unsure", index=i)
                for i, (first, count) in enumerate(picks, 1)]
        out = validate_claims(raws, text, RetrievedTriplets(paths=()), KnowledgeGraph([], []))
        located = [c for c in out if c.start is not None]
        flags = overlaps_earlier_oracle([(c.start, c.end) for c in located])
        for claim, flagged in zip(located, flags):
            assert claim.diagnostics.count("span overlaps an earlier claim") == flagged
            if flagged:
                assert claim.diagnostics[-1] == "span overlaps an earlier claim"
        assert all("overlaps" not in d for c in out if c.start is None for d in c.diagnostics)

    def test_repeated_sentence_anchors_in_claim_order(self, apollo_kg, apollo_retrieved):
        text = "Rome is big. Paris is old. Rome is big."
        raws = [_raw(s, "Extrapolatory", index=i)
                for i, s in enumerate(["Rome is big.", "Paris is old.", "Rome is big."], 1)]
        out = validate_claims(raws, text, apollo_retrieved, apollo_kg)
        assert [(c.start, c.end) for c in out] == [(0, 12), (13, 26), (27, 39)]
        assert all(c.diagnostics == () for c in out)

    def test_out_of_order_claim_falls_back_to_first_occurrence(self, apollo_kg,
                                                               apollo_retrieved):
        text = "Rome is big. Paris is old."
        raws = [_raw("Paris is old.", "Extrapolatory", index=1),
                _raw("rome is  BIG.", "Extrapolatory", index=2)]
        out = validate_claims(raws, text, apollo_retrieved, apollo_kg)
        assert [(c.start, c.end) for c in out] == [(13, 26), (0, 12)]
        assert out[1].diagnostics == ("span located only after normalization",)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["Rome is big.", "Paris is old.", "Oslo is cold."]),
                              st.sampled_from([" ", "\n", "  \t"]), st.booleans()),
                    min_size=1, max_size=8))
    def test_repeated_sentences_in_text_order(self, parts):
        text = "".join(sentence + gap for sentence, gap, _ in parts)
        raws = [_raw(sentence.upper() if shout else sentence, "Extrapolatory", index=i)
                for i, (sentence, _, shout) in enumerate(parts, 1)]
        out = validate_claims(raws, text, RetrievedTriplets(paths=()), KnowledgeGraph([], []))
        starts = [c.start for c in out]
        assert all(a < b for a, b in zip(starts, starts[1:]))
        for claim, (sentence, _, shout) in zip(out, parts):
            assert text[claim.start:claim.end] == sentence
            assert normalize(text[claim.start:claim.end]) == normalize(claim.span)
            assert not any("overlaps" in d for d in claim.diagnostics)
            assert claim.diagnostics == (("span located only after normalization",)
                                         if shout else ())

    def test_model_order_preserved(self, apollo_kg, apollo_retrieved):
        raws = [
            _raw("Neil Armstrong was a French citizen.", "Extrapolatory", index=1),
            _raw("Apollo 11 landed on the Moon.", "Extrapolatory", index=2),
        ]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert [c.span for c in out] == [r.text_span for r in raws]

    def test_never_raises_on_noise(self, apollo_kg, apollo_retrieved):
        raws = [_raw("\x00\x01 garbage", ")(*&^%", "((((", "")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        assert isinstance(out[0], ClaimResult)
        assert out[0].prediction is PredictionLabel.NO_ATTRIBUTION

    def test_rel_triplets_always_from_graph(self, apollo_kg, apollo_retrieved):
        raws = [_raw("Apollo 11 landed on the Moon.", "Attributable",
                     "(Apollo 11, landing site, Moon)\n(Moon, orbits, Earth)\n(x, y, z)")]
        out = validate_claims(raws, APOLLO_TEXT, apollo_retrieved, apollo_kg)
        for t in out[0].rel_triplets:
            assert t in apollo_kg.edges
