"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the seeded inputs of the
workload (cached under .bench_cache/, outside any timed region), times
load_kg in fresh probe processes, starts the stub chat endpoint when the
workload needs one, and runs the measured worker in a fresh process. It
prints the workload's digest and sample counts, then as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). A failed output check makes "correct" false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import RUN  # noqa: E402

DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def inputs(workload: str, seed: int, deadline: float) -> Path:
    """The cached input directory, generated on first use."""
    stamp = hashlib.sha256((BENCH / "gen.py").read_bytes() + f"{workload}:{seed}".encode()).hexdigest()
    data = ROOT / ".bench_cache" / workload / f"seed-{seed}"
    marker = data / "stamp"
    if marker.is_file() and marker.read_text() == stamp:
        return data
    tmp = data.with_name(data.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run([sys.executable, str(BENCH / "gen.py"), workload, str(seed), str(tmp)],
                   check=True, timeout=max(1.0, deadline - time.monotonic()))
    (tmp / "stamp").write_text(stamp)
    shutil.rmtree(data, ignore_errors=True)
    tmp.rename(data)
    return data


def child_env() -> dict:
    env = dict(os.environ)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          stdout=subprocess.PIPE, env=child_env(), text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Stub:
    """The stub endpoint in its own process, up and answering before use."""

    def __init__(self, answers: Path, delay: float):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "stub.py"), str(answers), str(delay)],
                                     stdout=subprocess.PIPE, text=True, env=child_env())
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError("stub endpoint did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        try:
            with opener.open(self.url + "/stats", timeout=10) as resp:
                json.loads(resp.read())
        except Exception:
            self.close()
            raise

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "claimver" / "__init__.py").is_file():
        return fail(f"no claimver sources under {ROOT / 'src'}")
    if args.workload not in RUN:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(RUN)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    settings = RUN[args.workload]
    data = inputs(args.workload, args.seed, deadline)
    setup = [run_worker(["--workload", args.workload, "--data", str(data), "--probe"], deadline)["setup_s"]
             for _ in range(settings["setup_repeats"] - 1)]

    stub = Stub(data / "answers.json", settings["delay_s"]) if "delay_s" in settings else None
    try:
        worker_args = ["--workload", args.workload, "--data", str(data),
                       "--seconds", str(args.seconds)]
        if stub:
            worker_args += ["--stub-url", stub.url]
        if args.trace:
            out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            worker_args += ["--trace", "--trace-out", str(out)]
        result = run_worker(worker_args, deadline)
    finally:
        if stub:
            stub.close()

    setup.append(result["setup_s"])
    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = result["peak_rss_mb"]
    values.update(result.get("layers", {}))
    failures = result["failures"]
    attempted = result["attempted"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")

    for failure in failures[:20]:
        print(f"benchmark: FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: digest {result['digest']}")
    print(f"samples {result['samples']}, doc_tail_ms at p{result['tail_percentile']}, "
          f"error_rate {len(failures) / max(1, attempted):.4f}, "
          f"setup_s samples {[round(s, 4) for s in setup]}")
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
