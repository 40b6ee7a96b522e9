"""Measured worker: runs one workload in a fresh process.

    python3 bench/worker.py --workload W --data DIR --seconds S [--trace]
                            [--stub-url URL] [--probe]

--probe only times load_kg and prints {"setup_s": ...}. Otherwise the worker
loads the graph once (timed), runs two warm-up documents, then runs the
seeded documents in order as a closed loop with one client: the first pass
is always complete and each output is checked; further passes repeat until
--seconds have passed and must reproduce the first pass byte for byte. With
--trace a second, traced loop follows; its per-layer numbers come from the
spans, and its outputs must have the untraced digest. The last line of
stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import html
import json
import re
import resource
import statistics
import sys
import time
import urllib.request
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

import stub  # noqa: E402
from spans import LABELS, PIPELINE_CALLS, Tracer, chunk_stats, self_times  # noqa: E402

# Run-time settings per workload. tail is the percentile reported as
# doc_tail_ms: the highest of 90, 95, 97.5 and 99 that keeps ten samples
# beyond it in the slowest 20 s runs measured (bench/README.md).
RUN = {
    "verify-hubs": {"max_hops": 2, "tail": 95, "setup_repeats": 3},
    "verify-chunked": {"max_hops": 3, "tail": 90, "setup_repeats": 7, "delay_s": 0.02},
    "datagen-corpus": {"max_hops": 3, "tail": 95, "setup_repeats": 5},
}

_ANSI_CODE = re.compile(r"\x1b\[[0-9;]*m")
_TAG = re.compile(r"<[^>]+>")
_PRE = re.compile(r'<pre class="text">(.*?)</pre>', re.S)


def import_claimver():
    """claimver from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "claimver" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no claimver sources under {src}")
    sys.path.insert(0, str(src))
    import claimver
    if not Path(claimver.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"benchmark: imported claimver from {claimver.__file__}, not {src}")
    return claimver


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile q (0-100) of an ascending list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# -- workloads ---------------------------------------------------------------

class Workload:
    """Runs one document and checks its outputs; subclasses bind the calls."""

    def __init__(self, cv, kg, data: Path, spec: dict, settings: dict, args):
        self.cv = cv
        self.kg = kg
        self.retrieval = cv.RetrievalConfig(max_hops=settings["max_hops"])
        self.tracer: Tracer | None = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def process(self, doc: dict) -> list[str]:
        raise NotImplementedError

    def check(self, doc: dict, outputs: list[str]) -> str | None:
        raise NotImplementedError

    def stats(self) -> dict:
        return {}


class Verify(Workload):
    formats = ("json",)
    chunk_chars = None

    def process(self, doc):
        with self.span("pipeline.run_pipeline"):
            report = self.cv.run_pipeline(self.kg, doc["text"], self.complete, self.retrieval,
                                          chunk_chars=self.chunk_chars)
        outputs = []
        for fmt in self.formats:
            with self.span(f"render.{fmt}"):
                outputs.append(self.cv.render(report, fmt))
        if self.tracer:
            self.tracer.count("report.json_bytes", len(outputs[0].encode("utf-8")))
        return outputs

    def check(self, doc, outputs):
        data = json.loads(outputs[0])
        report = self.cv.VerificationReport.from_dict(data)
        if report.to_dict() != data:
            return "report does not round-trip through VerificationReport.from_dict"
        if not 0.0 < report.kas < 1.0:
            return f"kas {report.kas!r} outside (0, 1)"
        labels = [c.prediction for c in report.claims]
        if report.n != len(doc["labels"]) or labels != doc["labels"]:
            return f"claim labels {labels} differ from expected {doc['labels']}"
        nodes = [e.node for e in report.entities]
        if nodes != doc["entities"]:
            return f"linked entities {nodes} differ from expected {doc['entities']}"
        text = report.input_text
        for fmt, out in zip(self.formats[1:], outputs[1:]):
            if fmt == "ansi" and not _ANSI_CODE.sub("", out).startswith(text):
                return "ansi rendering does not strip back to the input text"
            if fmt == "html":
                pre = _PRE.search(out)
                if pre is None or html.unescape(_TAG.sub("", pre.group(1))) != text:
                    return "html rendering does not strip back to the input text"
        return None


class VerifyHubs(Verify):
    """In-process zero-latency model: the scripted answer for the text."""

    def __init__(self, cv, kg, data, spec, settings, args):
        super().__init__(cv, kg, data, spec, settings, args)
        with open(data / "answers.json", encoding="utf-8") as f:
            answers = json.load(f)

        def complete(prompt):
            return answers[stub.answer_key(prompt.text)]
        self.complete = complete


class VerifyChunked(Verify):
    """ChatBackend against the stub endpoint; every report in three formats."""

    formats = ("json", "ansi", "html")

    def __init__(self, cv, kg, data, spec, settings, args):
        super().__init__(cv, kg, data, spec, settings, args)
        self.chunk_chars = spec["chunk_chars"]
        self.url = args.stub_url
        self.client = cv.ChatBackend(cv.BackendConfig(
            base_url=self.url + "/v1", model="stub", api_key="", timeout=30.0))
        self.complete = self.client.complete

    def reset_stub(self):
        _http(self.url + "/stats/reset", b"{}")

    def stats(self):
        return json.loads(_http(self.url + "/stats"))


class DatagenCorpus(Workload):
    """iter_datagen_records without a backend, one JSON line per record."""

    def process(self, doc):
        with self.span("pipeline.iter_datagen_records"):
            records = list(self.cv.iter_datagen_records(self.kg, doc["text"], self.retrieval))
        with self.span("render.records"):
            return [json.dumps(r, ensure_ascii=False) for r in records]

    def check(self, doc, outputs):
        records = [json.loads(o) for o in outputs]
        if len(records) != len(doc["sentences"]):
            return f"{len(records)} records for {len(doc['sentences'])} sentences"
        for rec, sent in zip(records, doc["sentences"]):
            if rec["full_text"] != doc["text"] or rec["text_span"] != sent["span"]:
                return f"record span {rec['text_span']!r} differs from {sent['span']!r}"
            if sent["span"] not in rec["prompt"]:
                return "record prompt lacks its text span"
            if sent["entities"] == 1 and rec["triplets"]:
                return f"single-entity sentence got triplets: {rec['triplets'][:3]}"
            missing = [t for t in sent["triplets"] if t not in rec["triplets"]]
            if missing:
                return f"record for {sent['span']!r} misses triplets {missing}"
        return None


WORKLOADS = {"verify-hubs": VerifyHubs, "verify-chunked": VerifyChunked,
             "datagen-corpus": DatagenCorpus}


def _http(url: str, body: bytes | None = None) -> bytes:
    req = urllib.request.Request(url, data=body, method="POST" if body is not None else "GET")
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(req, timeout=10) as resp:
        return resp.read()


# -- measurement ---------------------------------------------------------------

def run_loop(work: Workload, docs: list[dict], seconds: float, tracer: Tracer | None = None) -> dict:
    """Closed loop over docs: one full checked pass, then repeat until seconds pass."""
    latencies: list[float] = []
    failures: list[str] = []
    first: list[tuple[str, str | None] | None] = [None] * len(docs)
    attempted = 0
    start = time.perf_counter()
    i = 0
    while i < len(docs) or time.perf_counter() - start < seconds:
        idx = i % len(docs)
        doc = docs[idx]
        i += 1
        attempted += 1
        scope = tracer.document(attempted, "bench.document") if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                outputs = work.process(doc)
        except Exception as exc:  # any failure of the program counts against it
            failures.append(f"doc {idx}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256("\0".join(outputs).encode("utf-8")).hexdigest()
        if i <= len(docs):
            problem = work.check(doc, outputs)
            first[idx] = (digest, problem)
        elif first[idx] is None or digest != first[idx][0]:
            problem = "output differs from the first pass"
        else:
            problem = first[idx][1]
        if problem:
            failures.append(f"doc {idx}: {problem}")
            continue
        latencies.append(elapsed)
    whole = hashlib.sha256("".join(f[0] if f else "-" for f in first).encode()).hexdigest()
    return {"latencies": latencies, "failures": failures, "attempted": attempted,
            "digest": whole}


def summarize(loop: dict, tail: float) -> dict:
    lat = sorted(loop["latencies"])
    if not lat:
        return {}
    return {
        "docs_per_s": len(lat) / sum(lat),
        "doc_p50_ms": statistics.median(lat) * 1000.0,
        "doc_tail_ms": percentile(lat, tail) * 1000.0,
    }


def traced_run(cv, work: Workload, docs, seconds, untraced: dict, out_path: Path) -> dict:
    """Traced loop: wrappers on pipeline bindings, completer, embedder, neighbors."""
    import claimver.pipeline as pipeline
    import claimver.scoring as scoring
    from claimver import parsing

    tracer = Tracer()
    c: dict = {}

    def after_retrieve(args, result):
        seeds = len(set(args[1]))
        tracer.count("retrieval.seeds", seeds)
        tracer.count("retrieval.pairs", seeds * (seeds - 1) // 2)
        tracer.count("retrieval.paths", len(result.paths))
        tracer.count("retrieval.triplets", len(result.triplets))
        tracer.count("retrieval.pair_hits", len({(p.nodes[0], p.nodes[-1]) for p in result.paths}))

    def after_parse(args, result):
        tracer.count("parsing.claims", len(result))

    split = getattr(parsing, "parse_triplet_field", None)

    def after_validate(args, result):
        for claim in result:
            label = getattr(claim.prediction, "value", claim.prediction)
            tracer.count(f"parsing.claims_{label}")
            tracer.count("parsing.triplets_kept", len(claim.rel_triplets))
        if split is not None:
            tracer.count("parsing.triplets_cited",
                         sum(len(split(raw.triplets_field)[0]) for raw in args[0]))

    def after_complete(args, result):
        prompt = args[0]
        tracer.count("backend.prompt_chars", len(getattr(prompt, "text", prompt)))
        tracer.count("backend.response_chars", len(result))

    after = {"retrieval.retrieve": after_retrieve, "parsing.parse_response": after_parse,
             "parsing.validate_claims": after_validate}
    originals = {}
    for attr, name in PIPELINE_CALLS:
        if hasattr(pipeline, attr):
            originals[attr] = getattr(pipeline, attr)
            setattr(pipeline, attr, tracer.wrap(name, originals[attr], after.get(name)))
    embed = scoring.HashedBagEmbedder.embed
    scoring.HashedBagEmbedder.embed = tracer.counted("scoring.embed.calls", embed)
    work.kg.neighbors = tracer.counted("kg.neighbors.calls", work.kg.neighbors)
    if hasattr(work, "complete"):
        work.complete = tracer.wrap("backend.complete", work.complete, after_complete)
    work.tracer = tracer
    if isinstance(work, VerifyChunked):
        work.reset_stub()
    try:
        origin = time.perf_counter()
        loop = run_loop(work, docs, seconds, tracer)
    finally:
        for attr, fn in originals.items():
            setattr(pipeline, attr, fn)
        scoring.HashedBagEmbedder.embed = embed
        del work.kg.neighbors
    tracer.write_jsonl(out_path, origin)

    n_docs = max(1, loop["attempted"])
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    doc_ms = 0.0
    for sid, name, start, end, _, _ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + selfs[sid] * 1000.0
        if name == "bench.document":
            doc_ms += (end - start) * 1000.0
    span_names = [name for _, name in PIPELINE_CALLS] + [
        "backend.complete", "pipeline.run_pipeline", "pipeline.iter_datagen_records",
        "render.json", "render.ansi", "render.html"]
    for name in span_names:
        c[f"{name}.calls"] = calls.get(name, 0) / n_docs
        c[f"{name}.self_ms"] = self_ms.get(name, 0.0) / n_docs
    totals: dict[str, float] = {}
    for per_doc in tracer.counters.values():
        for key, value in per_doc.items():
            totals[key] = totals.get(key, 0.0) + value
    for key in ("kg.neighbors.calls", "scoring.embed.calls", "retrieval.seeds", "retrieval.pairs",
                "retrieval.paths", "retrieval.triplets", "backend.prompt_chars",
                "backend.response_chars", "parsing.claims", "report.json_bytes",
                *(f"parsing.claims_{label}" for label in LABELS)):
        c[key] = totals.get(key, 0.0) / n_docs
    c["retrieval.pair_hit_ratio"] = totals.get("retrieval.pair_hits", 0.0) / max(1.0, totals.get("retrieval.pairs", 0.0))
    c["parsing.triplets_kept_ratio"] = totals.get("parsing.triplets_kept", 0.0) / max(1.0, totals.get("parsing.triplets_cited", 0.0))
    chunks = chunk_stats(tracer.spans)
    c["pipeline.chunks"] = sum(n for n, _, _ in chunks.values()) / n_docs
    overlaps = [busy / wall for _, busy, wall in chunks.values() if wall > 0]
    c["pipeline.chunk_overlap"] = statistics.mean(overlaps) if overlaps else 0.0
    stub_stats = work.stats()
    c["backend.requests"] = stub_stats.get("requests", 0) / n_docs
    c["backend.inflight_max"] = stub_stats.get("inflight_max", 0)
    c["trace.doc_ms"] = doc_ms / n_docs
    c["retrieval.retrieve.doc_share"] = self_ms.get("retrieval.retrieve", 0.0) / doc_ms if doc_ms else 0.0
    traced = summarize(loop, 50)
    c["trace.overhead_pct"] = (1.0 - traced.get("docs_per_s", 0.0) / untraced["docs_per_s"]) * 100.0 \
        if untraced.get("docs_per_s") else 0.0
    return {"layers": c, "loop": loop}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-out", type=Path)
    p.add_argument("--stub-url")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    cv = import_claimver()
    t0 = time.perf_counter()
    kg = cv.load_kg(args.data / "graph.tsv")
    setup_s = time.perf_counter() - t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    settings = RUN[args.workload]
    spec = json.loads((args.data / "spec.json").read_text(encoding="utf-8"))
    with open(args.data / "docs.jsonl", encoding="utf-8") as f:
        docs = [json.loads(line) for line in f]
    work = WORKLOADS[args.workload](cv, kg, args.data, spec, settings, args)
    for doc in docs[:2]:
        try:
            work.process(doc)
        except Exception:  # warm-up only: the measured loop reports failures
            pass

    loop = run_loop(work, docs, args.seconds)
    result = {"setup_s": setup_s, "attempted": loop["attempted"], "failures": loop["failures"],
              "samples": len(loop["latencies"]), "tail_percentile": settings["tail"],
              "digest": loop["digest"], "metrics": summarize(loop, settings["tail"])}
    if args.trace:
        traced = traced_run(cv, work, docs, args.seconds, result["metrics"], args.trace_out)
        result["layers"] = traced["layers"]
        result["attempted"] += traced["loop"]["attempted"]
        result["failures"] += traced["loop"]["failures"]
        if traced["loop"]["digest"] != loop["digest"]:
            result["failures"].append("traced outputs differ from the untraced digest")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
