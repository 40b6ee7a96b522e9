"""Byte-for-byte golden outputs for the Apollo fixture.

The files under tests/golden/ pin the json, ansi and html renderings of the
two-claim Apollo report (unchunked and chunked), the verification prompts
sent to the model, and the datagen records. Any change to serialization,
prompt text, offsets or diagnostics shows up here as a byte difference.

After an intended output change, rewrite the files with
    PYTHONPATH=src:tests python tests/test_golden.py
and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from claimver.kg import KnowledgeGraph
from claimver.pipeline import iter_datagen_records, run_pipeline
from claimver.render import render

from conftest import APOLLO_NODES, APOLLO_RESPONSE, APOLLO_TEXT, APOLLO_TRIPLETS

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "ansi", "html")
CHUNK_CHARS = 40  # puts the two sentences in separate chunks

# Chunk text -> scripted answer. The second chunk's answer exercises the
# diagnostics: a span located only after normalization, a triplet found in
# the graph but not retrieved, an unknown triplet, a duplicate, and a
# downgrade.
CHUNK_RESPONSES = {
    "Apollo 11 landed on the Moon. ": APOLLO_RESPONSE.split('"text_span2"')[0],
    "Neil Armstrong was a French citizen.": """\
"text_span1": "neil  armstrong was a French citizen",
"prediction1": "Contradictory",
"triplets1": "(Neil Armstrong, country of citizenship, United States), (Neil Armstrong, country of citizenship, United States)",
"rationale1": "Citizenship is recorded as United States.",
"text_span2": "Neil Armstrong",
"prediction2": "Attributable",
"triplets2": "(Neil Armstrong, born in, France)",
"rationale2": "unsupported",
""",
}


class _Recorder:
    """Answers each prompt from a table keyed by chunk text and keeps the prompts."""

    def __init__(self, responses: dict[str, str]):
        self.responses = responses
        self.prompts: dict[str, str] = {}

    def complete(self, prompt) -> str:
        for chunk, response in self.responses.items():
            if f"-Text: {chunk}\n" in prompt.rendered_input:
                self.prompts[chunk] = prompt.text
                return response
        raise AssertionError(f"unexpected prompt: {prompt.rendered_input[:80]!r}")


def golden_outputs() -> dict[str, str]:
    kg = KnowledgeGraph(APOLLO_NODES, APOLLO_TRIPLETS)
    out: dict[str, str] = {}
    prompts: list[str] = []
    runs = (("apollo", {APOLLO_TEXT: APOLLO_RESPONSE}, None),
            ("apollo_chunked", CHUNK_RESPONSES, CHUNK_CHARS))
    for name, responses, chunk_chars in runs:
        backend = _Recorder(responses)
        report = run_pipeline(kg, APOLLO_TEXT, backend, chunk_chars=chunk_chars)
        for fmt in FORMATS:
            out[f"{name}.{fmt}"] = render(report, fmt)
        prompts.extend(backend.prompts[chunk] for chunk in responses)
    out["apollo_prompts.txt"] = "\n=====\n".join(prompts)
    records = iter_datagen_records(kg, APOLLO_TEXT)
    out["apollo_datagen.jsonl"] = "".join(
        json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    return out


NAMES = [f"{run}.{fmt}" for run in ("apollo", "apollo_chunked") for fmt in FORMATS] + [
    "apollo_prompts.txt", "apollo_datagen.jsonl"]


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    return golden_outputs()


def test_golden_names(outputs):
    assert sorted(outputs) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_golden_bytes(outputs, name):
    expected = (GOLDEN / name).read_bytes()
    assert outputs[name].encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in golden_outputs().items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
