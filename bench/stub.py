"""Stub OpenAI-style chat endpoint for the verify-chunked workload.

    python3 bench/stub.py ANSWERS_JSON DELAY_SECONDS

Serves POST /v1/chat/completions on 127.0.0.1 at a free port and prints
"port N" on stdout once listening. Each request is answered with the
scripted response for the chunk text in its prompt (the text between
"-Text: " and "-Triplets: "), after a fixed delay spent in time.sleep, so
the wait costs no CPU. An unknown chunk gets HTTP 404. GET /stats returns
{"requests", "inflight_max"}; POST /stats/reset zeroes both. The stub runs
in its own process, so its work never shares the measured interpreter.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

TEXT_OPEN = "\n-Text: "
TEXT_CLOSE = "\n-Triplets: "


def chunk_of(prompt: str) -> str:
    """The input text a verification prompt carries."""
    start = prompt.rfind(TEXT_OPEN)
    end = prompt.rfind(TEXT_CLOSE)
    if start < 0 or end < start:
        return ""
    return prompt[start + len(TEXT_OPEN):end]


def answer_key(prompt: str) -> str:
    return hashlib.sha256(chunk_of(prompt).encode("utf-8")).hexdigest()


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.inflight = 0
        self.inflight_max = 0

    def enter(self):
        with self.lock:
            self.requests += 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)

    def leave(self):
        with self.lock:
            self.inflight -= 1

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "inflight_max": self.inflight_max}

    def reset(self):
        with self.lock:
            self.requests = 0
            self.inflight_max = self.inflight


def make_server(answers: dict[str, str], delay: float) -> ThreadingHTTPServer:
    stats = Stats()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in two writes; without TCP_NODELAY the
        # second waits for the client's delayed ACK (about 40 ms).
        disable_nagle_algorithm = True

        def _send(self, status: int, payload: dict):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, stats.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/stats/reset":
                stats.reset()
                self._send(200, stats.snapshot())
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, {"error": "not found"})
                return
            stats.enter()
            try:
                prompt = json.loads(raw)["messages"][-1]["content"]
                time.sleep(delay)
            finally:
                stats.leave()
            answer = answers.get(answer_key(prompt))
            if answer is None:
                self._send(404, {"error": "no scripted answer for this chunk"})
                return
            self._send(200, {"object": "chat.completion", "choices": [
                {"index": 0, "message": {"role": "assistant", "content": answer},
                 "finish_reason": "stop"}]})

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.stats = stats
    return server


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as f:
        answers = json.load(f)
    server = make_server(answers, float(argv[1]))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
