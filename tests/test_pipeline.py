"""End-to-end pipeline orchestration with the mock backend."""

import importlib.util
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import claimver.pipeline
import claimver.retrieval

from claimver.backend import (BackendConfig, ChatBackend, MockBackend,
                              build_verification_prompt)
from claimver.errors import BackendError, PipelineError, PromptError
from claimver.kg import KgNode, KnowledgeGraph, Triplet
from claimver.linking import TextChunk, chunk_text, link_entities
from claimver.pipeline import iter_datagen_records, run_pipeline
from claimver.render import render_json
from claimver.report import VerificationReport, build_report
from claimver.retrieval import KgPath, retrieve
from claimver.scoring import ScoringConfig, modified_sigmoid

from conftest import (APOLLO_NODES, APOLLO_RESPONSE, APOLLO_TEXT, APOLLO_TRIPLETS,
                      chat_payload)
from graphgen import hub_graph
from oracles import iter_datagen_records_oracle


@pytest.fixture
def apollo_backend(apollo_kg):
    entities = link_entities(apollo_kg, APOLLO_TEXT)
    retrieved = retrieve(apollo_kg, [e.node for e in entities])
    prompt = build_verification_prompt(APOLLO_TEXT, retrieved.labels)
    mock = MockBackend()
    mock.add(prompt, APOLLO_RESPONSE)
    return mock


class TestRunPipeline:
    def test_full_report(self, apollo_kg, apollo_backend):
        report = run_pipeline(apollo_kg, APOLLO_TEXT, apollo_backend)
        assert report.input_text == APOLLO_TEXT
        assert report.n == 2
        assert [e.label for e in report.entities] == ["Apollo 11", "Moon", "Neil Armstrong"]
        assert [c.prediction for c in report.claims] == ["Attributable", "Contradictory"]
        assert report.claims[0].start == 0
        assert report.config["retrieval"]["max_hops"] == 3
        assert report.config["scoring"]["alpha"] == 0.5

    def test_kas_matches_recomputation(self, apollo_kg, apollo_backend):
        report = run_pipeline(apollo_kg, APOLLO_TEXT, apollo_backend)
        expected_sum = sum(c.tms * c.claim_score for c in report.claims)
        assert report.kas == modified_sigmoid(expected_sum, ScoringConfig())

    def test_deterministic_reports(self, apollo_kg, apollo_backend):
        a = run_pipeline(apollo_kg, APOLLO_TEXT, apollo_backend)
        b = run_pipeline(apollo_kg, APOLLO_TEXT, apollo_backend)
        assert a == b
        assert render_json(a) == render_json(b)

    def test_empty_text_rejected(self, apollo_kg, apollo_backend):
        with pytest.raises(PipelineError) as err:
            run_pipeline(apollo_kg, "", apollo_backend)
        assert err.value.stage == "input"

    def test_backend_failure_stage(self, apollo_kg, scripted_server):
        server = scripted_server([(401, "denied")])
        cfg = BackendConfig(base_url=server.url, model="m")
        with pytest.raises(PipelineError) as err:
            run_pipeline(apollo_kg, APOLLO_TEXT, ChatBackend(cfg))
        assert err.value.stage == "llm-backend"

    def test_unparseable_response_stage(self, apollo_kg):
        backend = MockBackend(default="no keys here at all")
        with pytest.raises(PipelineError) as err:
            run_pipeline(apollo_kg, APOLLO_TEXT, backend)
        assert err.value.stage == "response-parser"

    def test_backend_as_callable(self, apollo_kg):
        def fake(prompt):
            return ('"text_span1": "Apollo 11 landed on the Moondust plain.", '
                    '"prediction1": "Extrapolatory", "triplets1": "NA", '
                    '"rationale1": "cannot verify"')
        report = run_pipeline(apollo_kg, "Apollo 11 landed on the Moondust plain.", fake)
        assert report.n == 1
        assert report.claims[0].prediction == "Extrapolatory"

    @pytest.mark.parametrize("backend", [BackendConfig(base_url="http://x", model="m"), 42],
                             ids=["config", "non-callable"])
    def test_backend_must_be_client_or_callable(self, apollo_kg, backend):
        with pytest.raises(TypeError, match="complete"):
            run_pipeline(apollo_kg, APOLLO_TEXT, backend)
        with pytest.raises(TypeError, match="complete"):
            next(iter_datagen_records(apollo_kg, APOLLO_TEXT, backend=backend))

    def test_no_linkable_entities(self, apollo_kg):
        backend = MockBackend(default=(
            '"text_span1": "Nothing known here.", "prediction1": "Extrapolatory", '
            '"triplets1": "NA", "rationale1": "no evidence"'))
        report = run_pipeline(apollo_kg, "Nothing known here.", backend)
        assert report.entities == ()
        assert report.retrieved_triplets == ()
        assert report.claims[0].claim_score == 0
        assert report.kas == 0.5

    def test_scoring_respects_custom_config(self, apollo_kg, apollo_backend):
        cfg = ScoringConfig(alpha=0.5, beta=0.5, gamma_neg=5.0, gamma_pos=1.0)
        report = run_pipeline(apollo_kg, APOLLO_TEXT, apollo_backend, scoring_cfg=cfg)
        expected_sum = sum(c.tms * c.claim_score for c in report.claims)
        assert report.kas == modified_sigmoid(expected_sum, cfg)

    def test_hooks_transform_text(self, apollo_kg):
        backend = MockBackend(default=(
            '"text_span1": "Apollo 11 flew.", "prediction1": "Extrapolatory", '
            '"triplets1": "NA", "rationale1": "thin"'))
        report = run_pipeline(apollo_kg, "APOLLO_MARKER flew.", backend,
                              hooks=[lambda s: s.replace("APOLLO_MARKER", "Apollo 11")])
        assert report.input_text == "Apollo 11 flew."
        assert [e.label for e in report.entities] == ["Apollo 11"]

    def test_ambiguity_diagnostic(self, apollo_kg):
        backend = MockBackend(default=(
            '"text_span1": "USA.", "prediction1": "Extrapolatory", '
            '"triplets1": "NA", "rationale1": "x"'))
        report = run_pipeline(apollo_kg, "USA.", backend)
        assert report.diagnostics == ()  # single candidate, no ambiguity
        assert report.entities[0].node == "Q30"


class TestChunkedPipeline:
    def _chunked_backend(self, kg, text, chunk_chars, responses):
        mock = MockBackend()
        for chunk, response in zip(chunk_text(text, chunk_chars), responses):
            entities = [e for e in link_entities(kg, text)
                        if chunk.offset <= e.start and e.end <= chunk.offset + len(chunk.text)]
            retrieved = retrieve(kg, list(dict.fromkeys(e.node for e in entities)))
            mock.add(build_verification_prompt(chunk.text, retrieved.labels), response)
        return mock

    def test_claims_concatenated_with_document_offsets(self, apollo_kg):
        budget = 40  # forces the two sentences into separate chunks
        responses = [
            ('"text_span1": "Apollo 11 landed on the Moon.", '
             '"prediction1": "Attributable", '
             '"triplets1": "(Apollo 11, landing site, Moon)", "rationale1": "a"'),
            ('"text_span1": "Neil Armstrong was a French citizen.", '
             '"prediction1": "Extrapolatory", "triplets1": "NA", "rationale1": "b"'),
        ]
        mock = self._chunked_backend(apollo_kg, APOLLO_TEXT, budget, responses)
        report = run_pipeline(apollo_kg, APOLLO_TEXT, mock, chunk_chars=budget)
        assert report.n == 2
        assert any("2 chunks" in d for d in report.diagnostics)
        second = report.claims[1]
        assert APOLLO_TEXT[second.start:second.end] == second.span
        assert second.start == APOLLO_TEXT.index("Neil Armstrong was")

    def test_one_kas_over_all_chunks(self, apollo_kg):
        budget = 40
        responses = [
            ('"text_span1": "Apollo 11 landed on the Moon.", '
             '"prediction1": "Attributable", '
             '"triplets1": "(Apollo 11, landing site, Moon)", "rationale1": "a"'),
            ('"text_span1": "Neil Armstrong was a French citizen.", '
             '"prediction1": "Contradictory", '
             '"triplets1": "(Neil Armstrong, country of citizenship, United States)", '
             '"rationale1": "b"'),
        ]
        mock = self._chunked_backend(apollo_kg, APOLLO_TEXT, budget, responses)
        report = run_pipeline(apollo_kg, APOLLO_TEXT, mock, chunk_chars=budget)
        expected_sum = sum(c.tms * c.claim_score for c in report.claims)
        assert report.kas == modified_sigmoid(expected_sum, ScoringConfig())
        assert {c.prediction for c in report.claims} == {"Attributable", "Contradictory"}


# Seven sentences that chunk_chars=40 splits into one chunk each.
FAN_OUT_TEXT = " ".join(f"Apollo 11 trip {i} reached the Moon." for i in range(7))


def _chunk_index(prompt) -> int:
    return int(re.search(r"-Text: Apollo 11 trip (\d+)", prompt.text).group(1))


def _answer(prompt) -> str:
    """An Extrapolatory claim spanning the prompt's whole chunk."""
    span = f"Apollo 11 trip {_chunk_index(prompt)} reached the Moon."
    return (f'"text_span1": "{span}", "prediction1": "Extrapolatory", '
            f'"triplets1": "NA", "rationale1": "r"')


def _attributable(prompt) -> str:
    """An Attributable claim spanning the prompt's whole chunk and citing the
    landing-site triplet, which every chunk of FAN_OUT_TEXT retrieves."""
    i = _chunk_index(prompt)
    return (f'"text_span1": "Apollo 11 trip {i} reached the Moon.", '
            f'"prediction1": "Attributable", '
            f'"triplets1": "(Apollo 11, landing site, Moon)", "rationale1": "r"')


class _BrokenEmbedder:
    def __init__(self):
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        raise BackendError("embeddings down")


# FAN_OUT_TEXT with an ambiguous mention in its last chunk only.
EARTH_TEXT = FAN_OUT_TEXT.replace("trip 6 reached the Moon", "trip 6 reached the Earth")


@pytest.fixture
def earth_kg() -> KnowledgeGraph:
    """The Apollo graph plus a second node labelled Earth."""
    return KnowledgeGraph(APOLLO_NODES + [KgNode("Q9", "Earth", "soil")], APOLLO_TRIPLETS)


class _WatchedIndex(dict):
    """A label index that calls on_lookup(key) before each lookup."""

    def __init__(self, index, on_lookup):
        super().__init__(index)
        self.on_lookup = on_lookup

    def get(self, key, default=None):
        self.on_lookup(key)
        return super().get(key, default)


def _fail_chunk_zero(stage, monkeypatch):
    """A completer, with the prompt builder patched when stage is "prompt",
    under which chunk 0 of a FAN_OUT_TEXT variant fails at stage."""
    if stage == "prompt":
        def build(text, labeled):
            if "trip 0 " in text:
                raise PromptError("chunk 1 prompt broke")
            return build_verification_prompt(text, labeled)
        monkeypatch.setattr(claimver.pipeline, "build_verification_prompt", build)

    def complete(prompt):
        if _chunk_index(prompt) == 0:
            raise BackendError("chunk 1 unavailable")
        return _answer(prompt)
    return complete


class TestChunkFanOut:
    """The contract of the chunk fan-out: requests run in the pool, prompts
    and parsing in the caller, and chunk order decides everything else."""

    def test_in_flight_requests_capped(self, apollo_kg, scripted_server):
        answer = '"text_span1": "x", "prediction1": "Extrapolatory", "triplets1": "NA", ' \
                 '"rationale1": "r"'
        server = scripted_server([(200, chat_payload(answer))], keep_alive=True, delay=0.1)
        backend = ChatBackend(BackendConfig(base_url=server.url, model="m"))
        report = run_pipeline(apollo_kg, FAN_OUT_TEXT + " Apollo 11 flew.", backend,
                              chunk_chars=40)
        backend.close()
        assert report.n == 8
        assert len(server.requests) == 8
        assert server.inflight_max == claimver.pipeline._PARALLEL_CHUNKS
        # Each later request found an idle connection the first wave had made.
        assert len({r["port"] for r in server.requests}) <= claimver.pipeline._PARALLEL_CHUNKS

    def test_first_failing_chunk_in_order_decides(self, apollo_kg):
        fourth_failed = threading.Event()

        def complete(prompt):
            i = _chunk_index(prompt)
            if i == 3:
                fourth_failed.set()
                raise BackendError("chunk 4 unavailable")
            if i == 1:  # fails after chunk 4 has, with its own diagnostic
                assert fourth_failed.wait(10)
                return '"prediction1": "Attributable", "prediction1": "Contradictory"'
            return _answer(prompt)

        with pytest.raises(PipelineError) as err:
            run_pipeline(apollo_kg, FAN_OUT_TEXT, complete, chunk_chars=40)
        assert err.value.stage == "response-parser"
        assert str(err.value) == "[response-parser] no complete claim group in response"
        assert err.value.diagnostics == ["input split into 7 chunks",
                                         "duplicate key prediction1 ignored"]

    def test_queued_requests_not_sent_after_failure(self, apollo_kg, monkeypatch):
        futures = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr(claimver.pipeline, "ThreadPoolExecutor", RecordingPool)
        started = []
        release = threading.Event()

        def complete(prompt):
            started.append(_chunk_index(prompt))
            if started[-1] == 0:
                raise BackendError("chunk 1 unavailable")
            release.wait(10)
            return _answer(prompt)

        def release_once_cancelled():
            # Every worker but the failed chunk's is held until the requests
            # still queued behind them are cancelled.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not (
                    len(futures) == 7 and all(f.cancelled() for f in futures[5:])):
                time.sleep(0.005)
            release.set()

        watcher = threading.Thread(target=release_once_cancelled)
        watcher.start()
        with pytest.raises(PipelineError) as err:
            run_pipeline(apollo_kg, FAN_OUT_TEXT, complete, chunk_chars=40)
        watcher.join(10)
        assert not watcher.is_alive()
        assert str(err.value) == "[llm-backend] chunk 1 unavailable"
        # The failed chunk's worker may have taken chunk 5 before the failure
        # was seen; chunks 6 and 7 were still queued and were never sent.
        assert 0 in started and set(started) <= {0, 1, 2, 3, 4}

    def test_claims_keep_chunk_order_under_reordered_responses(self, apollo_kg):
        def reversed_answers(prompt):
            time.sleep((7 - _chunk_index(prompt)) * 0.01)
            return _answer(prompt)

        def instant_answers(prompt):
            return _answer(prompt)

        report = run_pipeline(apollo_kg, FAN_OUT_TEXT, reversed_answers, chunk_chars=40)
        assert [(c.start, c.span) for c in report.claims] == [
            (FAN_OUT_TEXT.index(f"trip {i} ") - len("Apollo 11 "),
             f"Apollo 11 trip {i} reached the Moon.") for i in range(7)]
        assert report == run_pipeline(apollo_kg, FAN_OUT_TEXT, instant_answers,
                                      chunk_chars=40)

    def test_scoring_failure_yields_to_a_later_chunk_failure(self, apollo_kg):
        embedder = _BrokenEmbedder()

        def complete(prompt):
            if _chunk_index(prompt) == 2:
                raise BackendError("chunk 3 unavailable")
            return _attributable(prompt)

        with pytest.raises(PipelineError) as err:
            run_pipeline(apollo_kg, FAN_OUT_TEXT, complete, chunk_chars=40,
                         embedder=embedder)
        assert str(err.value) == "[llm-backend] chunk 3 unavailable"
        assert err.value.diagnostics == ["input split into 7 chunks"]
        # Chunk 0 was scored while chunk 2's request was out; after the
        # scoring failure no later claim was embedded.
        assert embedder.calls == 1

    def test_scoring_failure_raised_once_every_chunk_succeeded(self, apollo_kg):
        def complete(prompt):
            answer = _attributable(prompt)
            if _chunk_index(prompt) == 3:
                answer += ', "prediction1": "Contradictory"'
            return answer

        embedder = _BrokenEmbedder()
        with pytest.raises(PipelineError) as err:
            run_pipeline(apollo_kg, FAN_OUT_TEXT, complete, chunk_chars=40,
                         embedder=embedder)
        assert str(err.value) == "[scoring] embeddings down"
        assert embedder.calls == 1
        report = run_pipeline(apollo_kg, FAN_OUT_TEXT, complete, chunk_chars=40)
        assert "duplicate key prediction1 ignored" in report.diagnostics
        assert err.value.diagnostics == list(report.diagnostics)

    @pytest.mark.parametrize("stage", ["prompt", "llm-backend"])
    def test_chunk_failure_keeps_later_ambiguity_notes(self, earth_kg, monkeypatch, stage):
        complete = _fail_chunk_zero(stage, monkeypatch)
        with pytest.raises(PipelineError) as err:
            run_pipeline(earth_kg, EARTH_TEXT, complete, chunk_chars=40)
        assert err.value.stage == stage
        assert err.value.diagnostics == [
            f"ambiguous mention 'Earth' at {EARTH_TEXT.index('Earth')}: "
            "linked Q2, also matches Q9",
            "input split into 7 chunks"]

    @pytest.mark.parametrize("stage", ["prompt", "llm-backend"])
    def test_preprocess_failure_beats_chunk_failure(self, earth_kg, monkeypatch, stage):
        def on_lookup(key):
            if key == "earth":
                raise RuntimeError("index broke")

        earth_kg.label_index = _WatchedIndex(earth_kg.label_index, on_lookup)
        complete = _fail_chunk_zero(stage, monkeypatch)
        with pytest.raises(PipelineError) as err:
            run_pipeline(earth_kg, EARTH_TEXT, complete, chunk_chars=40)
        assert str(err.value) == "[preprocess] index broke"
        assert err.value.diagnostics == []

    def test_first_request_sent_before_the_scan_reaches_the_last_chunk(self, earth_kg):
        sent = threading.Event()
        seen_at_last_chunk = []

        def on_lookup(key):
            if key == "earth":  # only in the last chunk
                seen_at_last_chunk.append(sent.wait(10))

        earth_kg.label_index = _WatchedIndex(earth_kg.label_index, on_lookup)

        def complete(prompt):
            sent.set()
            return _answer(prompt)

        report = run_pipeline(earth_kg, EARTH_TEXT, complete, chunk_chars=40)
        assert report.n == 7
        assert seen_at_last_chunk == [True]


# A vocabulary whose multi-word label contains a sentence end, so that a
# mention can cross a chunk boundary, and whose Paris is ambiguous.
STREAM_KG_NODES = [
    KgNode("Q1", "St. Louis", "city"),
    KgNode("Q2", "Louis", "given name"),
    KgNode("Q3", "Paris", "capital"),
    KgNode("Q4", "Paris", "prince of Troy"),
    KgNode("Q5", "Moon", "satellite", ("the Moon",)),
]
STREAM_KG_TRIPLETS = [
    Triplet("Q1", "twinned with", "Q3"),
    Triplet("Q3", "named after", "Q4"),
    Triplet("Q5", "seen from", "Q1"),
]
STREAM_WORDS = ["St.", "Louis", "Paris", "Moon", "the", "saw", "I", "far", "Far."]


def _na_answer(prompt) -> str:
    return ('"text_span1": "x", "prediction1": "Extrapolatory", "triplets1": "NA", '
            '"rationale1": "r"')


def _streamed_run(kg, text, chunk_chars):
    """run_pipeline's report and the seeds it retrieved for, chunk by chunk."""
    seeds = []

    def recording(kg, chunk_seeds, cfg):
        seeds.append(list(chunk_seeds))
        return retrieve(kg, chunk_seeds, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claimver.pipeline, "retrieve", recording)
        report = run_pipeline(kg, text, _na_answer, chunk_chars=chunk_chars)
    return report, seeds


class TestStreamedLinking:
    """The scan stopped and resumed at chunk ends links what one scan of the
    whole text links, and gives each chunk the same seeds."""

    @given(st.lists(st.sampled_from(STREAM_WORDS), min_size=1, max_size=25),
           st.integers(0, 60))
    @example(["I", "saw", "St.", "Louis"], 10)
    @settings(max_examples=150, deadline=None)
    def test_matches_linking_the_whole_text(self, words, chunk_chars):
        kg = KnowledgeGraph(STREAM_KG_NODES, STREAM_KG_TRIPLETS)
        text = " ".join(words)
        report, seeds = _streamed_run(kg, text, chunk_chars)

        entities = link_entities(kg, text)
        chunks = chunk_text(text, chunk_chars) if chunk_chars else [TextChunk(text, 0)]
        assert seeds == [
            list(dict.fromkeys(e.node for e in entities
                               if c.offset <= e.start and e.end <= c.offset + len(c.text)))
            for c in chunks]
        assert [(e.mention, e.start, e.end, e.node, e.alternates)
                for e in report.entities] == [
            (e.mention, e.start, e.end, e.node, e.alternates) for e in entities]
        assert sum(d.startswith("ambiguous mention") for d in report.diagnostics) == sum(
            bool(e.alternates) for e in entities)

    def test_mention_across_a_chunk_boundary_seeds_neither_chunk(self):
        kg = KnowledgeGraph(STREAM_KG_NODES, STREAM_KG_TRIPLETS)
        report, seeds = _streamed_run(kg, "I saw St. Louis", 10)
        assert [c.text for c in chunk_text("I saw St. Louis", 10)] == ["I saw St. ", "Louis"]
        assert [(e.mention, e.start, e.end) for e in report.entities] == [("St. Louis", 6, 15)]
        assert seeds == [[], []]


class TestDatagen:
    def test_records_per_sentence(self, apollo_kg):
        records = list(iter_datagen_records(apollo_kg, APOLLO_TEXT))
        assert len(records) == 2
        first = records[0]
        assert first["full_text"] == APOLLO_TEXT
        assert first["text_span"] == "Apollo 11 landed on the Moon."
        assert ["Apollo 11", "landing site", "Moon"] in first["triplets"]
        assert '**Text span:** "Apollo 11 landed on the Moon."' in first["prompt"]
        assert "response" not in first

    def test_with_backend_includes_response(self, apollo_kg):
        backend = MockBackend(default='- "prediction": "Attributable"\n- "rationale": "ok"')
        records = list(iter_datagen_records(apollo_kg, APOLLO_TEXT, backend=backend))
        assert all("response" in r for r in records)

    def test_sentence_without_entities_has_empty_triplets(self, apollo_kg):
        records = list(iter_datagen_records(apollo_kg, "Nothing to see. Apollo 11 on the Moon."))
        assert records[0]["triplets"] == []
        assert records[1]["triplets"] != []

    def test_backend_failure_stage(self, apollo_kg, scripted_server):
        server = scripted_server([(401, "denied")])
        cfg = BackendConfig(base_url=server.url, model="m")
        with pytest.raises(PipelineError) as err:
            list(iter_datagen_records(apollo_kg, APOLLO_TEXT, backend=ChatBackend(cfg)))
        assert err.value.stage == "llm-backend"
        assert str(err.value) == "[llm-backend] endpoint rejected credentials (HTTP 401)"

    def test_hook_failure_stage(self, apollo_kg):
        def broken(text):
            raise RuntimeError("hook broke")
        with pytest.raises(PipelineError) as err:
            list(iter_datagen_records(apollo_kg, APOLLO_TEXT, hooks=[broken]))
        assert str(err.value) == "[preprocess] hook broke"


# Words whose sentences link zero to several Apollo entities; "Luna" marks a
# sentence whose request fails.
DATAGEN_WORDS = ["Apollo", "11", "Neil", "Armstrong", "Buzz", "Aldrin", "Moon", "Moon.",
                 "Earth.", "USA!", "Luna", "Luna.", "walked", "It", "the", " ", "\n"]


def _span_of(prompt) -> str:
    return prompt.rendered_input.split('**Text span:** "', 1)[1].rsplit('"\n**Triplets', 1)[0]


def _datagen_answer(prompt) -> str:
    span = _span_of(prompt)
    if "Luna" in span:
        raise BackendError(f"no answer for {span!r}")
    return f"answer for {span}"


def _drain(records):
    """The records yielded, and the failure that ended them, if any."""
    out = []
    try:
        for record in records:
            out.append(record)
    except PipelineError as exc:
        return out, (str(exc), exc.diagnostics)
    return out, None


class TestDatagenChunkLoop:
    """iter_datagen_records runs its sentences through the shared chunk loop:
    the same records and failures as one sentence at a time, with the
    requests of one document fanned out."""

    @given(st.lists(st.sampled_from(DATAGEN_WORDS), max_size=30), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_serial_loop(self, words, with_backend):
        kg = KnowledgeGraph(APOLLO_NODES, APOLLO_TRIPLETS)
        text = " ".join(words)
        backend = _datagen_answer if with_backend else None
        assert _drain(iter_datagen_records(kg, text, backend=backend)) == _drain(
            iter_datagen_records_oracle(kg, text, backend=backend))

    @pytest.mark.parametrize("with_backend", [False, True])
    def test_builds_no_paths_or_triplets(self, with_backend, monkeypatch):
        # Each sentence's label triples are read from its edge codes.
        kg = KnowledgeGraph(APOLLO_NODES, APOLLO_TRIPLETS)
        text = (f"{APOLLO_TEXT} Apollo 11 took Neil Armstrong and Buzz Aldrin to the Moon. "
                "Buzz Aldrin walked on the Moon with Neil Armstrong.")
        backend = _datagen_answer if with_backend else None
        expected = _drain(iter_datagen_records_oracle(kg, text, backend=backend))
        assert sum(len(r["triplets"]) for r in expected[0]) >= 4
        built = []
        triplet = KnowledgeGraph._triplet
        monkeypatch.setattr(KnowledgeGraph, "_triplet",
                            lambda self, edge: built.append(edge) or triplet(self, edge))
        monkeypatch.setattr(KgPath, "__post_init__", built.append)
        assert _drain(iter_datagen_records(kg, text, backend=backend)) == expected
        assert built == []

    def test_requests_fan_out_and_records_keep_sentence_order(self, apollo_kg):
        lock = threading.Lock()
        inflight = [0, 0]  # now, most

        def slow(prompt):
            i = _span_of(prompt).split()[3]
            with lock:
                inflight[0] += 1
                inflight[1] = max(inflight)
            time.sleep(0.01 * (7 - int(i)))  # later sentences answer first
            with lock:
                inflight[0] -= 1
            return f"answer {i}"

        records = list(iter_datagen_records(apollo_kg, FAN_OUT_TEXT, backend=slow))
        assert [(r["text_span"], r["response"]) for r in records] == [
            (f"Apollo 11 trip {i} reached the Moon.", f"answer {i}") for i in range(7)]
        assert 2 <= inflight[1] <= claimver.pipeline._PARALLEL_CHUNKS

    def test_failing_sentence_ends_the_records_and_queued_requests(self, apollo_kg,
                                                                   monkeypatch):
        futures = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr(claimver.pipeline, "ThreadPoolExecutor", RecordingPool)
        started = []
        release = threading.Event()

        def complete(prompt):
            i = int(_span_of(prompt).split()[3])
            started.append(i)
            if i == 1:
                raise BackendError("sentence 2 unavailable")
            if i > 0:
                release.wait(10)
            return f"answer {i}"

        def release_once_cancelled():
            # Sentences 0 and 1 answer at once and their workers take two
            # more, which are held with 2 and 3 until the last request, still
            # queued, is cancelled.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not (
                    len(futures) == 7 and futures[6].cancelled()):
                time.sleep(0.005)
            release.set()

        watcher = threading.Thread(target=release_once_cancelled)
        watcher.start()
        records, failure = _drain(iter_datagen_records(apollo_kg, FAN_OUT_TEXT,
                                                       backend=complete))
        watcher.join(10)
        assert not watcher.is_alive()
        assert [(r["text_span"], r["response"]) for r in records] == [
            ("Apollo 11 trip 0 reached the Moon.", "answer 0")]
        assert failure == ("[llm-backend] sentence 2 unavailable", [])
        assert 6 not in started


def test_traced_benchmark_stages_are_bound():
    """bench/spans.py wraps these claimver.pipeline attributes by name and
    skips a missing one, which would silently zero its per-layer metrics."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PIPELINE_CALLS
    assert [attr for attr, _ in spans.PIPELINE_CALLS
            if not callable(getattr(claimver.pipeline, attr, None))] == []


def _hub_text(kg, rng) -> str:
    """Sentences naming a few nodes of kg each, by label."""
    ids = list(kg.nodes)
    return " ".join("Of " + " and ".join(kg.nodes[i].label for i in rng.sample(ids, k)) + "."
                    for k in (rng.randint(1, min(4, len(ids))) for _ in range(rng.randint(1, 5))))


class TestOneRetrievalPath:
    """Both pipelines retrieve through retrieve(), as claimver.pipeline binds
    it, and a document's evidence is built from its chunks' results."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([None, 20, 60]))
    def test_document_evidence_is_the_ordered_union_of_chunk_results(self, rng, chunk_chars):
        kg = hub_graph(rng)
        results, documents = [], []

        def recording(*args):
            results.append(retrieve(*args))
            return results[-1]

        def report(kg, text, entities, retrieved, *rest):
            documents.append(retrieved)
            return build_report(kg, text, entities, retrieved, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(claimver.pipeline, "retrieve", recording)
            mp.setattr(claimver.pipeline, "build_report", report)
            run_pipeline(kg, _hub_text(kg, rng), _na_answer, chunk_chars=chunk_chars)
        (document,) = documents
        if len(results) == 1:
            assert document is results[0]
        assert document.paths == tuple(dict.fromkeys(p for r in results for p in r.paths))
        assert document.triplets == tuple(dict.fromkeys(t for r in results for t in r.triplets))
        assert document.labels == tuple(map(kg.triplet_labels, document.triplets))

    @pytest.mark.parametrize("datagen", [False, True])
    def test_every_search_goes_through_the_pipeline_binding(self, datagen, monkeypatch):
        searches, bound = [], []
        search = claimver.retrieval._search
        monkeypatch.setattr(claimver.retrieval, "_search",
                            lambda *args: searches.append(1) or search(*args))
        monkeypatch.setattr(claimver.pipeline, "retrieve",
                            lambda *args: bound.append(1) or retrieve(*args))
        kg = KnowledgeGraph(APOLLO_NODES, APOLLO_TRIPLETS)
        if datagen:
            records = list(iter_datagen_records(kg, FAN_OUT_TEXT))
            assert any(r["triplets"] for r in records)
        else:
            run_pipeline(kg, FAN_OUT_TEXT, _na_answer, chunk_chars=60)
        assert len(searches) == len(bound) > 1


# What a model might put in a claim field: spans of APOLLO_TEXT, the graph's
# triplets and junk ones, labels, and arbitrary text.
_REPLY_VALUES = st.one_of(
    st.sampled_from([
        "Apollo 11 landed on the Moon.", "Neil Armstrong was a French citizen.",
        "Apollo 11", "landed on the", "(Apollo 11, landing site, Moon)",
        "(Neil Armstrong, country of citizenship, United States)",
        "(Apollo 11, landing site, Moon), (Moon, orbits, Mars)", "(Moon, orbits)", "()",
        "Attributable", "Contradictory", "Extrapolatory", "NoAttribution", "NA", ""]),
    st.text(max_size=30))
_REPLY_KEYS = ("text_span", "prediction", "triplets", "rationale")


@st.composite
def model_replies(draw) -> str:
    """Claim groups at random indices, repeats included, as numbered
    key/value lines: each value quoted as JSON or sent bare, and now and
    then a field left out."""
    lines = []
    for index in draw(st.lists(st.integers(0, 4), max_size=5)):
        for key in _REPLY_KEYS:
            value, quoted, present = draw(st.tuples(_REPLY_VALUES, st.booleans(),
                                                    st.integers(0, 9)))
            if present:
                shown = json.dumps(value, ensure_ascii=False) if quoted else value
                lines.append(f'"{key}{index}": {shown},')
    return "\n".join(lines)


_STAGES = {"input", "preprocess", "triplet-retrieval", "prompt", "llm-backend",
           "response-parser", "scoring"}


class TestModelReplies:
    @given(model_replies(), st.sampled_from([None, 7, 20, 40]))
    @settings(max_examples=200, deadline=None)
    def test_reply_ends_as_a_stage_error_or_a_report_that_round_trips(self, reply, chunk_chars):
        kg = KnowledgeGraph(APOLLO_NODES, APOLLO_TRIPLETS)
        try:
            report = run_pipeline(kg, APOLLO_TEXT, lambda prompt: reply, chunk_chars=chunk_chars)
        except PipelineError as err:
            assert err.stage in _STAGES
            return
        blob = render_json(report)
        assert render_json(VerificationReport.from_dict(json.loads(blob))) == blob
