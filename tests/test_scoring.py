"""Claim scores, match scores, sigmoid, document score, and embedders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimver.backend import BackendConfig
from claimver.errors import BackendError, ClaimverError
from claimver.kg import Triplet
from claimver.linking import link_entities
from claimver.parsing import ClaimResult, PredictionLabel, RawClaim, validate_claims
from claimver.retrieval import retrieve
from claimver.scoring import (AttributionResult, FallbackEmbedder,
                              HashedBagEmbedder, HttpEmbedder, ScoredClaim,
                              ScoringConfig, claim_score, cosine,
                              entity_presence_ratio, kg_attribution_score,
                              modified_sigmoid, score_claims,
                              semantic_similarity, triplets_match_score)

from conftest import APOLLO_TEXT
from oracles import embed_oracle

# Independently derived with a 50-digit evaluation of 1/(1+exp(-g*x)).
SIG_2_G1 = 0.8807970779778823
SIG_NEG1_G3 = 0.04742587317756678


class TestConfig:
    def test_defaults(self):
        cfg = ScoringConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma_neg, cfg.gamma_pos) == (0.5, 0.5, 3.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"beta": -1}, {"alpha": 0, "beta": 0},
        {"gamma_neg": 1, "gamma_pos": 2}, {"gamma_pos": -1, "gamma_neg": 0},
        {"alpha": float("nan")}, {"beta": float("inf")}, {"gamma_neg": float("inf")},
        {"gamma_pos": float("nan")}, {"alpha": float("-inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScoringConfig(**kwargs)


class TestClaimScore:
    @pytest.mark.parametrize("label,n,expected", [
        (PredictionLabel.ATTRIBUTABLE, 3, 2),
        (PredictionLabel.ATTRIBUTABLE, 0, 2),
        (PredictionLabel.EXTRAPOLATORY, 2, 1),
        (PredictionLabel.EXTRAPOLATORY, 0, 0),
        (PredictionLabel.NO_ATTRIBUTION, 0, 0),
        (PredictionLabel.NO_ATTRIBUTION, 4, 0),
        (PredictionLabel.CONTRADICTORY, 1, -1),
        (PredictionLabel.CONTRADICTORY, 0, -1),
    ])
    def test_mapping(self, label, n, expected):
        assert claim_score(label, n) == expected

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            claim_score(PredictionLabel.ATTRIBUTABLE, -1)

    def test_range(self):
        values = {claim_score(label, n)
                  for label in PredictionLabel for n in (0, 1, 5)}
        assert values == {-1, 0, 1, 2}


class TestEntityPresenceRatio:
    def test_half(self):
        assert entity_presence_ratio({"A", "B"}, {"A", "C"}) == 0.5

    def test_full(self):
        assert entity_presence_ratio({"A"}, {"A"}) == 1.0

    def test_empty_claim_entities(self):
        assert entity_presence_ratio(set(), {"A"}) == 0.0

    def test_one_iff_subset(self):
        assert entity_presence_ratio({"A", "B"}, {"A", "B", "C"}) == 1.0
        assert entity_presence_ratio({"A", "B", "X"}, {"A", "B"}) < 1.0


class TestHashedBagEmbedder:
    def test_deterministic_across_instances(self):
        a = HashedBagEmbedder().embed("Apollo landed on the moon")
        b = HashedBagEmbedder().embed("Apollo landed on the moon")
        assert np.array_equal(a, b)

    def test_case_insensitive(self):
        e = HashedBagEmbedder()
        assert np.array_equal(e.embed("MOON rocks"), e.embed("moon ROCKS"))

    def test_counts_accumulate(self):
        e = HashedBagEmbedder()
        assert np.linalg.norm(e.embed("moon moon")) == 2 * np.linalg.norm(e.embed("moon"))

    def test_empty_text_zero_vector(self):
        assert np.linalg.norm(HashedBagEmbedder().embed("...")) == 0.0

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            HashedBagEmbedder(dim=0)

    @given(st.text(st.sampled_from("ab Zß1_.\u0345é"), max_size=40), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_token_loop(self, text, dim):
        got, want = HashedBagEmbedder(dim).embed(text), embed_oracle(text, dim)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class _FixedEmbedder:
    """Returns the vector stored under the text."""

    def __init__(self, **vectors):
        self.vectors = vectors

    def embed(self, text):
        return self.vectors[text]


class TestSemanticSimilarity:
    def test_identical_strings(self):
        e = HashedBagEmbedder()
        assert semantic_similarity(e, "the moon landing", "the moon landing") == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_tokens_zero(self):
        e = HashedBagEmbedder()
        assert semantic_similarity(e, "alpha beta", "gamma delta") == 0.0

    def test_half_overlap_hand_value(self):
        # ("alpha beta") . ("beta gamma") = 1 shared count; norms sqrt(2) each.
        e = HashedBagEmbedder()
        got = semantic_similarity(e, "alpha beta", "beta gamma")
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_negative_cosine_clamped(self):
        class Flip:
            def embed(self, text):
                return np.array([1.0]) if text == "a" else np.array([-1.0])
        assert semantic_similarity(Flip(), "a", "b") == 0.0

    def test_zero_norm_is_zero(self):
        e = HashedBagEmbedder()
        assert semantic_similarity(e, "", "moon") == 0.0

    def test_cosine_helper(self):
        assert cosine([1, 0], [0, 1]) == 0.0
        assert cosine([1, 1], [1, 1]) == pytest.approx(1.0)
        assert cosine([0, 0], [1, 1]) == 0.0

    def test_cosine_outside_float_range_of_products(self):
        assert cosine([1e200, 1e200], [1e200, 1e200]) == pytest.approx(1.0)
        assert cosine([1e-200, 0.0], [1e-200, 1e-200]) == pytest.approx(0.5 ** 0.5)
        assert cosine([1e300, -1e300], [1e300, 1e300]) == pytest.approx(0.0)

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        *[st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)] * 2)))
    @settings(max_examples=300, deadline=None)
    def test_cosine_norms_as_linalg_norm(self, vectors):
        # Each norm is sqrt(x.dot(x)), exactly what np.linalg.norm computes.
        a, b = (np.asarray(v) for v in vectors)
        with np.errstate(over="ignore"):
            na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        if not (1e-150 < na < 1e150 and 1e-150 < nb < 1e150):
            return
        assert cosine(a, b) == float(np.dot(a, b) / (na * nb))

    @pytest.mark.parametrize("a, b", [
        ([float("nan"), 1.0], [1.0, 1.0]),
        ([1.0, 1.0], [float("inf"), 1.0]),
        ([1.0, 2.0], [1.0, 2.0, 3.0]),
        ([], []),
        ([[1.0, 2.0]], [[1.0, 2.0]]),
        (1.0, 1.0),
        (["x"], ["y"]),
    ])
    def test_bad_embeddings_rejected(self, a, b):
        with pytest.raises(ClaimverError):
            semantic_similarity(_FixedEmbedder(a=a, b=b), "a", "b")

    @given(st.lists(st.floats(width=64), max_size=6), st.lists(st.floats(width=64), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_in_unit_interval_or_rejected(self, a, b):
        embedder = _FixedEmbedder(a=np.array(a, dtype=np.float64), b=np.array(b, dtype=np.float64))
        try:
            value = semantic_similarity(embedder, "a", "b")
        except ClaimverError:
            assert len(a) != len(b) or not a or not np.isfinite(a + b).all()
            return
        assert 0.0 <= value <= 1.0
        if a == b and any(a):
            assert value == pytest.approx(1.0)


class TestTripletsMatchScore:
    def test_perfect(self):
        assert triplets_match_score(ScoringConfig(), 1.0, 1.0, 2) == 1.0

    def test_weighted_blend(self):
        assert triplets_match_score(ScoringConfig(), 0.8, 0.5, 1) == pytest.approx(0.65)

    def test_zero_triplets_forces_zero(self):
        assert triplets_match_score(ScoringConfig(), 1.0, 1.0, 0) == 0.0

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_both_inputs(self, ss1, ss2, epr1, epr2):
        cfg = ScoringConfig()
        lo = triplets_match_score(cfg, min(ss1, ss2), min(epr1, epr2), 1)
        hi = triplets_match_score(cfg, max(ss1, ss2), max(epr1, epr2), 1)
        assert lo <= hi


class TestModifiedSigmoid:
    def test_zero_is_half(self):
        assert modified_sigmoid(0.0) == 0.5

    def test_reference_values(self):
        assert modified_sigmoid(2.0) == pytest.approx(SIG_2_G1, abs=1e-12)
        assert modified_sigmoid(-1.0) == pytest.approx(SIG_NEG1_G3, abs=1e-12)

    def test_extremes_saturate_without_overflow(self):
        assert modified_sigmoid(1e6) == 1.0
        assert modified_sigmoid(-1e6) == 0.0
        assert 0.0 < modified_sigmoid(30.0) <= 1.0

    def test_negative_branch_uses_gamma_neg(self):
        cfg = ScoringConfig(gamma_neg=3.0, gamma_pos=1.0)
        assert modified_sigmoid(-0.5, cfg) == pytest.approx(
            1.0 / (1.0 + math.exp(1.5)), abs=1e-15)

    @given(st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=300, deadline=None)
    def test_strictly_increasing(self, x, y):
        if abs(x - y) < 1e-6:
            return
        lo, hi = sorted((x, y))
        assert modified_sigmoid(lo) < modified_sigmoid(hi)

    @given(st.floats(0.001, 30))
    @settings(max_examples=300, deadline=None)
    def test_asymmetric_penalty(self, x):
        assert modified_sigmoid(-x) < 1.0 - modified_sigmoid(x)


def _scored(cs, tms):
    claim = ClaimResult(span="s", start=0, end=1,
                        prediction=PredictionLabel.ATTRIBUTABLE,
                        rel_triplets=(), rationale="")
    return ScoredClaim(claim=claim, cs=cs, ss=0.0, epr=0.0, tms=tms)


class TestKgAttributionScore:
    def test_empty_is_neutral(self):
        result = kg_attribution_score([])
        assert result == AttributionResult(sum_term=0.0, kas=0.5)

    def test_single_attributable(self):
        result = kg_attribution_score([_scored(2, 1.0)])
        assert result.sum_term == 2.0
        assert result.kas == pytest.approx(SIG_2_G1, abs=1e-12)

    def test_single_contradictory(self):
        result = kg_attribution_score([_scored(-1, 1.0)])
        assert result.kas == pytest.approx(SIG_NEG1_G3, abs=1e-12)

    def test_sum_matches_manual(self):
        claims = [_scored(2, 0.7), _scored(-1, 0.3), _scored(1, 0.5)]
        result = kg_attribution_score(claims)
        assert result.sum_term == pytest.approx(2 * 0.7 - 0.3 + 0.5, abs=1e-12)

    def test_zero_product_leaves_score_unchanged(self):
        base = kg_attribution_score([_scored(2, 0.7)])
        extended = kg_attribution_score([_scored(2, 0.7), _scored(0, 0.9), _scored(-1, 0.0)])
        assert extended.kas == base.kas

    def test_kas_in_open_interval(self):
        for claims in ([], [_scored(2, 1.0)] * 5, [_scored(-1, 1.0)] * 5):
            assert 0.0 < kg_attribution_score(claims).kas < 1.0


class _ForbiddenEmbedder:
    def embed(self, text):
        raise AssertionError("embedder must not be called for claims without triplets")


class TestScoreClaims:
    def test_full_scoring_on_fixture(self, apollo_kg):
        entities = link_entities(apollo_kg, APOLLO_TEXT)
        retrieved = retrieve(apollo_kg, [e.node for e in entities])
        raws = [RawClaim(1, "Apollo 11 landed on the Moon.", "Attributable",
                         "(Apollo 11, landing site, Moon)", "direct")]
        claims = validate_claims(raws, APOLLO_TEXT, retrieved, apollo_kg)
        scored = score_claims(claims, entities, apollo_kg)
        sc = scored[0]
        assert sc.cs == 2
        # Claim entities {Apollo 11, Moon} are both triplet endpoints.
        assert sc.epr == 1.0
        assert 0.0 < sc.ss <= 1.0
        assert sc.tms == pytest.approx(0.5 * sc.ss + 0.5 * sc.epr, abs=1e-15)

    def test_no_triplets_skips_embedder(self, apollo_kg):
        claim = ClaimResult(span="x", start=0, end=1,
                            prediction=PredictionLabel.EXTRAPOLATORY,
                            rel_triplets=(), rationale="")
        scored = score_claims([claim], [], apollo_kg, embedder=_ForbiddenEmbedder())
        assert (scored[0].ss, scored[0].epr, scored[0].tms) == (0.0, 0.0, 0.0)
        assert scored[0].cs == 0

    def test_unlocated_claim_has_no_entities(self, apollo_kg):
        entities = link_entities(apollo_kg, APOLLO_TEXT)
        claim = ClaimResult(span="unplaced", start=None, end=None,
                            prediction=PredictionLabel.EXTRAPOLATORY,
                            rel_triplets=(Triplet("Q405", "orbits", "Q2"),),
                            rationale="")
        scored = score_claims([claim], entities, apollo_kg)
        assert scored[0].epr == 0.0
        assert scored[0].cs == 1


def _embedder(url: str) -> HttpEmbedder:
    return HttpEmbedder(BackendConfig(base_url=url, model="m", api_key="", backoff_base=0.01))


class TestHttpEmbedder:
    def test_success(self, scripted_server):
        server = scripted_server([(200, {"data": [{"embedding": [1.0, 2.0, 2.0]}]})])
        e = HttpEmbedder(BackendConfig(base_url=server.url, model="embed-model", api_key="k"))
        vec = e.embed("hello")
        assert np.allclose(vec, [1.0, 2.0, 2.0])
        req = server.requests[0]
        assert req["path"] == "/embeddings"
        assert req["body"] == {"model": "embed-model", "input": ["hello"]}
        assert req["headers"]["authorization"] == "Bearer k"

    def test_http_error(self, scripted_server):
        server = scripted_server([(500, "x")])
        with pytest.raises(BackendError):
            _embedder(server.url).embed("hello")

    def test_malformed_body(self, scripted_server):
        server = scripted_server([(200, {"data": []})])
        with pytest.raises(BackendError):
            _embedder(server.url).embed("hello")

    def test_non_numeric_embedding(self, scripted_server):
        server = scripted_server([(200, {"data": [{"embedding": ["a", "b"]}]})])
        with pytest.raises(BackendError):
            _embedder(server.url).embed("hello")


class TestFallbackEmbedder:
    class _Failing:
        def __init__(self):
            self.attempts = 0

        def embed(self, text):
            self.attempts += 1
            raise BackendError("down")

    def test_sticky_fallback(self):
        failing = self._Failing()
        fb = FallbackEmbedder(failing, HashedBagEmbedder())
        a = fb.embed("moon")
        b = fb.embed("moon")
        assert np.array_equal(a, b)
        assert failing.attempts == 1
        assert fb.degraded

    def test_primary_used_when_healthy(self):
        fb = FallbackEmbedder(HashedBagEmbedder(dim=64))
        assert fb.embed("moon").shape == (64,)
        assert not fb.degraded
