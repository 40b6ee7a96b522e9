"""Self-tests of the benchmark: python3 -m pytest bench

They cover the generator's determinism, the stub endpoint, the output
checks (including that a corrupted report fails them) and the span
arithmetic, on inputs scaled down so the whole file runs in seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SCALE = {"verify-hubs": 0.02, "verify-chunked": 0.1, "datagen-corpus": 0.05}


def _generate(workload: str, seed: int, out: Path, hashseed: str):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    subprocess.run([sys.executable, str(BENCH / "gen.py"), workload, str(seed), str(out),
                    str(SCALE[workload])], check=True, env=env, timeout=120)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(SCALE))
def test_one_seed_gives_byte_identical_files(tmp_path, workload):
    _generate(workload, 7, tmp_path / "a", "1")
    _generate(workload, 7, tmp_path / "b", "2")
    _generate(workload, 8, tmp_path / "c", "1")
    first = _files(tmp_path / "a")
    assert {"graph.tsv", "graph.nodes.tsv", "docs.jsonl", "answers.json"} <= set(first)
    assert first == _files(tmp_path / "b")
    assert first["graph.tsv"] != _files(tmp_path / "c")["graph.tsv"]


@pytest.fixture(scope="module")
def claimver():
    return worker.import_claimver()


def _workload(cv, name: str, data: Path, stub_url: str | None = None):
    kg = cv.load_kg(data / "graph.tsv")
    spec = json.loads((data / "spec.json").read_text())
    docs = [json.loads(line) for line in (data / "docs.jsonl").read_text().splitlines()]
    args = Namespace(stub_url=stub_url)
    return worker.WORKLOADS[name](cv, kg, data, spec, worker.RUN[name], args), docs


def _answers_file(tmp_path: Path, answers: dict[str, str]) -> Path:
    path = tmp_path / "answers.json"
    path.write_text(json.dumps(answers))
    return path


def _post(url: str, prompt: str):
    body = json.dumps({"model": "stub", "messages": [{"role": "user", "content": prompt}]})
    req = urllib.request.Request(url + "/v1/chat/completions", data=body.encode(), method="POST",
                                 headers={"Content-Type": "application/json"})
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    try:
        with opener.open(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, None


def test_stub_returns_scripted_answer_and_counts_inflight(tmp_path):
    chunk = "Vorak Zenth located in Bralo Quen. "
    answers = {gen.sha(chunk): '"text_span1": "x",'}
    endpoint = run.Stub(_answers_file(tmp_path, answers), 0.3)
    try:
        prompt = f"Instruction\nInput for analysis:\n-Text: {chunk}\n-Triplets: (a, b, c)\n"
        results = []
        threads = [threading.Thread(target=lambda: results.append(_post(endpoint.url, prompt)))
                   for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert [status for status, _ in results] == [200, 200, 200]
        assert all(body["choices"][0]["message"]["content"] == answers[gen.sha(chunk)]
                   for _, body in results)
        assert _post(endpoint.url, prompt.replace("Vorak", "Other"))[0] == 404
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        stats = json.loads(opener.open(endpoint.url + "/stats", timeout=10).read())
        assert stats == {"requests": 4, "inflight_max": 3}
    finally:
        endpoint.close()
    assert endpoint.proc.returncode is not None


@pytest.mark.parametrize("name", ["verify-hubs", "datagen-corpus", "verify-chunked"])
def test_small_workload_passes_checks_and_repeats(tmp_path, claimver, name):
    data = tmp_path / name
    _generate(name, 3, data, "0")
    endpoint = run.Stub(data / "answers.json", 0.0) if name == "verify-chunked" else None
    try:
        work, docs = _workload(claimver, name, data, endpoint.url if endpoint else None)
        first = worker.run_loop(work, docs, 0.0)
        again = worker.run_loop(work, docs, 0.0)
    finally:
        if endpoint:
            endpoint.close()
    assert first["failures"] == []
    assert first["attempted"] == len(docs) == len(first["latencies"])
    assert again["digest"] == first["digest"]


def test_corrupted_report_fails_the_check(tmp_path, claimver):
    data = tmp_path / "hubs"
    _generate("verify-hubs", 3, data, "0")
    work, docs = _workload(claimver, "verify-hubs", data)
    doc = docs[0]
    outputs = work.process(doc)
    assert work.check(doc, outputs) is None

    def corrupt(edit):
        report = json.loads(outputs[0])
        edit(report)
        return work.check(doc, [json.dumps(report)])

    flip = {"Attributable": "Contradictory"}
    assert corrupt(lambda r: r["claims"][0].update(
        prediction=flip.get(r["claims"][0]["prediction"], "Attributable"))) is not None
    assert corrupt(lambda r: r.update(kas=1.0)) is not None
    assert corrupt(lambda r: (r["claims"].pop(), r.update(n=r["n"] - 1))) is not None
    assert corrupt(lambda r: r["entities"].reverse()) is not None
    assert corrupt(lambda r: r["claims"][0].update(bogus=1)) is not None


def test_corrupted_datagen_record_fails_the_check(tmp_path, claimver):
    data = tmp_path / "dg"
    _generate("datagen-corpus", 3, data, "0")
    work, docs = _workload(claimver, "datagen-corpus", data)
    doc = next(d for d in docs if any(s["triplets"] for s in d["sentences"]))
    lone = next(d for d in docs if any(s["entities"] == 1 for s in d["sentences"]))
    outputs = work.process(lone)
    j = next(j for j, s in enumerate(lone["sentences"]) if s["entities"] == 1)
    record = json.loads(outputs[j])
    record["triplets"] = [["a", "b", "c"]]
    assert work.check(lone, outputs[:j] + [json.dumps(record)] + outputs[j + 1:]) is not None

    outputs = work.process(doc)
    assert work.check(doc, outputs) is None
    i = next(i for i, s in enumerate(doc["sentences"]) if s["triplets"])
    record = json.loads(outputs[i])
    record["triplets"] = [t for t in record["triplets"] if t not in doc["sentences"][i]["triplets"]]
    broken = list(outputs)
    broken[i] = json.dumps(record)
    assert work.check(doc, broken) is not None
    assert work.check(doc, outputs[:-1]) is not None


def test_self_time_subtracts_the_union_of_children():
    # doc span 1 [0, 10]; two parallel children [1, 5] and [3, 8]; a
    # grandchild [2, 4] under the first child.
    recorded = [(1, "root", 0.0, 10.0, 0, 0), (2, "a", 1.0, 5.0, 1, 0),
                (3, "b", 3.0, 8.0, 1, 0), (4, "c", 2.0, 4.0, 2, 0)]
    selfs = spans.self_times(recorded)
    assert selfs == {1: 3.0, 2: 2.0, 3: 5.0, 4: 2.0}


def test_chunk_stats_pairs_retrieve_and_validate():
    recorded = [(1, "retrieval.retrieve", 0.0, 1.0, 0, 5), (2, "parsing.validate_claims", 3.0, 4.0, 0, 5),
                (3, "retrieval.retrieve", 0.5, 1.0, 0, 5), (4, "parsing.validate_claims", 2.0, 2.5, 0, 5),
                (5, "retrieval.retrieve", 0.0, 1.0, 0, 6)]
    assert spans.chunk_stats(recorded) == {5: (2, 6.5 - 0.5, 4.0)}


def test_tracer_counts_calls_per_document():
    tracer = spans.Tracer()
    double = tracer.counted("calls", lambda x: 2 * x)
    for doc, n in ((0, 3), (1, 5)):
        with tracer.document(doc, "doc"):
            for i in range(n):
                double(i)
    assert tracer.counters[0]["calls"] == 3
    assert tracer.counters[1]["calls"] == 5
