"""Acceptance criteria, one test per criterion.

Each test prints one "ACCEPTANCE PASS/FAIL" line (run with -s to see them all;
a FAIL line always comes with a failing assertion). Expected numeric values
are computed by independent oracles: a 50-digit evaluation of the sigmoid, a
direct re-coding of the scoring formulas, and an exhaustive path enumerator.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from itertools import combinations

import pytest
from mpmath import mp, mpf

mp.dps = 50

from claimver.backend import (BackendConfig, ChatBackend, MockBackend,
                              build_verification_prompt)
from claimver.errors import ClaimverError, ResponseParseError
from claimver.kg import KnowledgeGraph
from claimver.linking import link_entities
from claimver.parsing import (ClaimResult, PredictionLabel, RawClaim,
                              parse_response, validate_claims)
from claimver.pipeline import run_pipeline
from claimver.render import render_json
from claimver.retrieval import RetrievalConfig, retrieve
from claimver.scoring import (ScoredClaim, ScoringConfig, claim_score,
                              kg_attribution_score, modified_sigmoid,
                              triplets_match_score)

from conftest import (APOLLO_NODES, APOLLO_RESPONSE, APOLLO_TEXT, APOLLO_TRIPLETS,
                      format_response)
from graphgen import enumerate_paths_oracle, random_graph, random_seeds


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def oracle_sigmoid(x, gamma_neg=3, gamma_pos=1) -> mpf:
    """Independent high-precision 1/(1+exp(-g*x))."""
    g = gamma_neg if x < 0 else gamma_pos
    return 1 / (1 + mp.exp(-mpf(g) * mpf(x)))


_CS_TABLE = {
    "Attributable": lambda n: 2,
    "Extrapolatory": lambda n: 1 if n > 0 else 0,
    "NoAttribution": lambda n: 0,
    "Contradictory": lambda n: -1,
}


def oracle_kas(items, cfg: ScoringConfig) -> mpf:
    """Direct high-precision recomputation of the whole scoring chain.

    items: (label string, ss, epr, triplet count) per claim.
    """
    total = mpf(0)
    for label, ss, epr, n in items:
        cs = _CS_TABLE[label](n)
        tms = mpf(0) if n == 0 else mpf(cfg.alpha) * mpf(ss) + mpf(cfg.beta) * mpf(epr)
        total += tms * cs
    return oracle_sigmoid(total, cfg.gamma_neg, cfg.gamma_pos)


def _scored(label: PredictionLabel, ss: float, epr: float, n: int,
            cfg: ScoringConfig) -> ScoredClaim:
    claim = ClaimResult(span="s", start=None, end=None, prediction=label,
                        rel_triplets=(), rationale="")
    return ScoredClaim(claim=claim, cs=claim_score(label, n), ss=ss, epr=epr,
                       tms=triplets_match_score(cfg, ss, epr, n))


def test_criterion_1_claim_score_mapping():
    with criterion("claim score mapping, all cases exact"):
        start = time.perf_counter()
        cases = [
            (PredictionLabel.ATTRIBUTABLE, 1, 2),
            (PredictionLabel.EXTRAPOLATORY, 1, 1),
            (PredictionLabel.EXTRAPOLATORY, 0, 0),
            (PredictionLabel.NO_ATTRIBUTION, 0, 0),
            (PredictionLabel.CONTRADICTORY, 1, -1),
        ]
        for label, n, expected in cases:
            assert claim_score(label, n) == expected
        # Exhaustive over every label and a range of counts: no other value
        # ever appears, and the count only matters for Extrapolatory.
        for label in PredictionLabel:
            for n in range(0, 8):
                got = claim_score(label, n)
                assert got in (-1, 0, 1, 2)
                if label is PredictionLabel.EXTRAPOLATORY:
                    assert got == (1 if n > 0 else 0)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_sigmoid_reference_values():
    with criterion("sigmoid at 0, 2, -1 matches 50-digit oracle to 1e-12"):
        start = time.perf_counter()
        assert modified_sigmoid(0.0) == 0.5
        assert abs(modified_sigmoid(2.0) - float(oracle_sigmoid(2))) < 1e-12
        assert abs(modified_sigmoid(-1.0) - float(oracle_sigmoid(-1))) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_3_scoring_chain_vs_oracle():
    with criterion("1000 random claim sets match direct recomputation to 1e-12"):
        start = time.perf_counter()
        rng = random.Random(90125)
        labels = list(_CS_TABLE)
        for _ in range(1000):
            cfg = ScoringConfig()
            items = [
                (rng.choice(labels), rng.random(), rng.random(), rng.randint(0, 4))
                for _ in range(rng.randint(0, 10))
            ]
            scored = [
                _scored(PredictionLabel(label), ss, epr, n, cfg)
                for label, ss, epr, n in items
            ]
            got = kg_attribution_score(scored, cfg).kas
            expected = oracle_kas(items, cfg)
            assert abs(got - float(expected)) < 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_4_sigmoid_monotone_and_asymmetric():
    with criterion("sigmoid monotone, penalty asymmetric, KAS ordered by appends; 1000 cases each"):
        rng = random.Random(424242)
        violations = 0
        for _ in range(1000):
            x = rng.uniform(-20, 20)
            y = rng.uniform(-20, 20)
            if abs(x - y) < 1e-6:
                continue
            lo, hi = sorted((x, y))
            if not modified_sigmoid(lo) < modified_sigmoid(hi):
                violations += 1
        for _ in range(1000):
            x = rng.uniform(1e-3, 30)
            if not modified_sigmoid(-x) < 1.0 - modified_sigmoid(x):
                violations += 1

        # Appending a claim moves KAS in the direction of cs*tms. Generated
        # tms values are 0 or at least 1e-3 so the strict orderings stay
        # resolvable in double precision.
        cfg = ScoringConfig()
        labels = [PredictionLabel(name) for name in _CS_TABLE]
        def rand_claim():
            label = rng.choice(labels)
            n = rng.randint(0, 4)
            ss = epr = 0.0
            if n > 0:
                ss = rng.uniform(1e-3, 1.0)
                epr = rng.uniform(1e-3, 1.0)
            return _scored(label, ss, epr, n, cfg)
        for _ in range(1000):
            base = [rand_claim() for _ in range(rng.randint(0, 9))]
            extra = rand_claim()
            before = kg_attribution_score(base, cfg).kas
            after = kg_attribution_score(base + [extra], cfg).kas
            term = extra.cs * extra.tms
            ok = (after > before if term > 0 else
                  after < before if term < 0 else after == before)
            if not ok:
                violations += 1
        assert violations == 0


def test_criterion_5_retrieval_matches_oracle():
    with criterion("retrieval equals oracle's first 4 paths on 200 random graphs"):
        start = time.perf_counter()
        rng = random.Random(19690720)
        cfg = RetrievalConfig(max_hops=3, max_paths_per_pair=4)
        for _ in range(200):
            kg = random_graph(rng, max_nodes=50, max_edges=150)
            seeds = random_seeds(rng, kg, max_seeds=5)
            result = retrieve(kg, seeds, cfg)
            by_pair: dict = {}
            for p in result.paths:
                by_pair.setdefault((p.nodes[0], p.nodes[-1]), []).append(p.nodes)
            for u, v in combinations(sorted(set(seeds)), 2):
                expected = enumerate_paths_oracle(kg, u, v, cfg.max_hops)
                assert by_pair.get((u, v), []) == expected[:cfg.max_paths_per_pair]
        assert time.perf_counter() - start < 60.0


_SPAN_POOL = [
    "Apollo 11 landed on the Moon.",
    "Neil Armstrong was a French citizen.",
    "Apollo 11 landed",
    "French citizen",
]
_TRIPLET_POOL = [
    "(Apollo 11, landing site, Moon)",
    "(Neil Armstrong, country of citizenship, United States)",
    "(Apollo 11, crew member, Neil Armstrong)",
    "NA",
]
_RATIONALE_POOL = [
    "Supported by the retrieved facts.",
    'The evidence says "no".',
    "Cites the citizenship relation, including a, b, and c.",
    "NA",
]


def _well_formed(rng: random.Random) -> list[RawClaim]:
    count = rng.randint(1, 4)
    return [
        RawClaim(index=i + 1,
                 text_span=rng.choice(_SPAN_POOL),
                 prediction=rng.choice(["Attributable", "Extrapolatory", "Contradictory"]),
                 triplets_field=rng.choice(_TRIPLET_POOL),
                 rationale=rng.choice(_RATIONALE_POOL))
        for i in range(count)
    ]


def _benign_mutations(text: str, rng: random.Random) -> str:
    if rng.random() < 0.3:
        text = "Here is my analysis:\n" + text
    if rng.random() < 0.3:
        text = "{\n" + text + "\n}"
    if rng.random() < 0.3:
        lines = text.splitlines()
        rng.shuffle(lines)
        text = "\n".join(lines)
    return text


def _corrupt(claims: list[RawClaim], rng: random.Random) -> str:
    """Render claims with one guaranteed-diagnosable defect injected."""
    target = rng.randrange(len(claims))
    defect = rng.randrange(5)
    rendered: list[str] = []
    for pos, c in enumerate(claims):
        fields = {
            "text_span": c.text_span,
            "prediction": c.prediction,
            "triplets": c.triplets_field,
            "rationale": c.rationale,
        }
        if pos == target:
            if defect == 0:
                del fields["prediction"]  # incomplete group
            elif defect == 1:
                fields["text_span"] = "completely fabricated span zzz"
            elif defect == 2:
                fields["text_span"] = "NA"
            elif defect == 3:
                fields["prediction"] = "Maybe"
            else:
                fields["prediction"] = "Attributable"
                fields["triplets"] = "(only, two)"
        for key, value in fields.items():
            rendered.append(f'"{key}{c.index}": {json.dumps(value)},')
    return _benign_mutations("\n".join(rendered), rng)


def test_criterion_6_parser_corpus():
    with criterion("500 well-formed responses round-trip; 500 corrupted degrade with diagnostics"):
        rng = random.Random(60466176)
        kg = KnowledgeGraph(APOLLO_NODES, APOLLO_TRIPLETS)
        entities = link_entities(kg, APOLLO_TEXT)
        retrieved = retrieve(kg, [e.node for e in entities])

        for _ in range(500):
            claims = _well_formed(rng)
            assert parse_response(format_response(claims)) == claims

        parse_failures = 0
        for _ in range(500):
            raw = _corrupt(_well_formed(rng), rng)
            sink: list[str] = []
            try:
                parsed = parse_response(raw, sink)
            except ResponseParseError:
                # Controlled degradation: the response carried no usable group.
                parse_failures += 1
                continue
            validated = validate_claims(parsed, APOLLO_TEXT, retrieved, kg)
            flags = sink + [d for v in validated for d in v.diagnostics]
            assert flags, f"corrupted response produced no diagnostics:\n{raw}"
        # The corpus mixes defects; most corruptions must still be parseable.
        assert parse_failures < 250


def test_criterion_7_end_to_end_determinism(apollo_kg):
    with criterion("byte-identical reports on re-run; report KAS equals sigmoid(2*tms)"):
        single_text = "Apollo 11 landed on the Moon."
        entities = link_entities(apollo_kg, single_text)
        retrieved = retrieve(apollo_kg, [e.node for e in entities])
        prompt = build_verification_prompt(single_text, retrieved.labels)
        mock = MockBackend()
        mock.add(prompt, '"text_span1": "Apollo 11 landed on the Moon.",\n'
                         '"prediction1": "Attributable",\n'
                         '"triplets1": "(Apollo 11, landing site, Moon)",\n'
                         '"rationale1": "Matches the landing site fact."')

        first = run_pipeline(apollo_kg, single_text, mock)
        second = run_pipeline(apollo_kg, single_text, mock)
        assert render_json(first).encode() == render_json(second).encode()

        t = first.claims[0].tms
        assert first.claims[0].claim_score == 2
        assert first.kas == modified_sigmoid(2 * t)
        assert abs(first.kas - float(oracle_sigmoid(2 * mpf(t)))) < 1e-12

        # Same determinism for the two-claim fixture.
        entities = link_entities(apollo_kg, APOLLO_TEXT)
        retrieved = retrieve(apollo_kg, [e.node for e in entities])
        prompt = build_verification_prompt(APOLLO_TEXT, retrieved.labels)
        mock.add(prompt, APOLLO_RESPONSE)
        a = run_pipeline(apollo_kg, APOLLO_TEXT, mock)
        b = run_pipeline(apollo_kg, APOLLO_TEXT, mock)
        assert render_json(a).encode() == render_json(b).encode()


def test_criterion_8_downgrade_contributes_zero(apollo_kg):
    with criterion("unverifiable Attributable claim downgraded and scores zero"):
        entities = link_entities(apollo_kg, APOLLO_TEXT)
        retrieved = retrieve(apollo_kg, [e.node for e in entities])
        raws = [RawClaim(index=1, text_span="Apollo 11 landed on the Moon.",
                         prediction="Attributable",
                         triplets_field="(Moon, made of, cheese)",
                         rationale="made up")]
        validated = validate_claims(raws, APOLLO_TEXT, retrieved, apollo_kg)
        assert validated[0].prediction is PredictionLabel.NO_ATTRIBUTION
        assert validated[0].rel_triplets == ()

        cfg = ScoringConfig()
        from claimver.scoring import score_claims
        scored = score_claims(validated, entities, apollo_kg, cfg=cfg)
        result = kg_attribution_score(scored, cfg)
        assert result.sum_term == 0.0
        assert result.kas == 0.5


def test_criterion_9_optional_live_endpoint(apollo_kg):
    """Non-gating: exercises a real endpoint when CLAIMVER_LIVE_URL is set."""
    url = os.environ.get("CLAIMVER_LIVE_URL")
    if not url:
        print("ACCEPTANCE SKIP (optional): no live endpoint configured (CLAIMVER_LIVE_URL)")
        pytest.skip("no live endpoint configured")
    model = os.environ.get("CLAIMVER_LIVE_MODEL", "gpt-4o-mini")
    cfg = BackendConfig(base_url=url, model=model)
    try:
        report = run_pipeline(apollo_kg, APOLLO_TEXT, ChatBackend(cfg))
    except ClaimverError as exc:
        print(f"ACCEPTANCE RECORDED (optional): live endpoint failed: {exc}")
        return
    contradictory = [c for c in report.claims if c.prediction == "Contradictory"]
    with_triplets = [c for c in contradictory if c.triplets]
    print("ACCEPTANCE RECORDED (optional): live run produced "
          f"{report.n} claims, {len(contradictory)} contradictory, "
          f"{len(with_triplets)} of those with validated triplets, kas={report.kas:.4f}")
