"""Shared fixtures: a small moon-landing knowledge graph, snapshot writers,
and a scripted local HTTP server for backend tests."""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from claimver.kg import KgNode, KnowledgeGraph, Triplet

APOLLO_NODES = [
    KgNode("Q43653", "Apollo 11", "first crewed Moon landing mission", ("Apollo XI",)),
    KgNode("Q1615", "Neil Armstrong", "American astronaut"),
    KgNode("Q2252", "Buzz Aldrin", "American astronaut", ("Edwin Aldrin",)),
    KgNode("Q405", "Moon", "natural satellite of Earth"),
    KgNode("Q30", "United States", "country in North America",
           ("USA", "United States of America")),
    KgNode("Q2", "Earth", "third planet from the Sun"),
]

APOLLO_TRIPLETS = [
    Triplet("Q43653", "crew member", "Q1615"),
    Triplet("Q43653", "crew member", "Q2252"),
    Triplet("Q43653", "landing site", "Q405"),
    Triplet("Q1615", "country of citizenship", "Q30"),
    Triplet("Q2252", "country of citizenship", "Q30"),
    Triplet("Q405", "orbits", "Q2"),
]


@pytest.fixture
def apollo_kg() -> KnowledgeGraph:
    return KnowledgeGraph(APOLLO_NODES, APOLLO_TRIPLETS)


def write_apollo_tsv(directory) -> str:
    """Write the fixture graph as TSV plus companion node file; returns the path."""
    kg_path = directory / "apollo.tsv"
    rows = []
    labels = {n.id: n.label for n in APOLLO_NODES}
    for t in APOLLO_TRIPLETS:
        rows.append(f"{t.subject}\t{labels[t.subject]}\t{t.predicate}"
                    f"\t{t.object}\t{labels[t.object]}")
    kg_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    node_rows = [f"{n.id}\t{n.description}\t{'|'.join(n.aliases)}" for n in APOLLO_NODES]
    (directory / "apollo.nodes.tsv").write_text("\n".join(node_rows) + "\n", encoding="utf-8")
    return str(kg_path)


def write_apollo_jsonl(directory) -> str:
    kg_path = directory / "apollo.jsonl"
    labels = {n.id: n.label for n in APOLLO_NODES}
    rows = [
        json.dumps({"s_id": t.subject, "s_label": labels[t.subject], "p": t.predicate,
                    "o_id": t.object, "o_label": labels[t.object]})
        for t in APOLLO_TRIPLETS
    ]
    kg_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    node_rows = [
        json.dumps({"id": n.id, "label": n.label, "description": n.description,
                    "aliases": list(n.aliases)})
        for n in APOLLO_NODES
    ]
    (directory / "apollo.nodes.jsonl").write_text("\n".join(node_rows) + "\n", encoding="utf-8")
    return str(kg_path)


@pytest.fixture
def tsv_kg_path(tmp_path) -> str:
    return write_apollo_tsv(tmp_path)


@pytest.fixture
def jsonl_kg_path(tmp_path) -> str:
    return write_apollo_jsonl(tmp_path)


APOLLO_TEXT = "Apollo 11 landed on the Moon. Neil Armstrong was a French citizen."

APOLLO_RESPONSE = """\
"text_span1": "Apollo 11 landed on the Moon.",
"prediction1": "Attributable",
"triplets1": "(Apollo 11, landing site, Moon)",
"rationale1": "The landing site triplet states this directly.",
"text_span2": "Neil Armstrong was a French citizen.",
"prediction2": "Contradictory",
"triplets2": "(Neil Armstrong, country of citizenship, United States)",
"rationale2": "The graph records United States citizenship.",
"""


def format_response(claims) -> str:
    """Render RawClaims back into the numbered output shape the parser reads."""
    lines = []
    for c in claims:
        for key, value in (("text_span", c.text_span), ("prediction", c.prediction),
                           ("triplets", c.triplets_field), ("rationale", c.rationale)):
            lines.append(f'"{key}{c.index}": {json.dumps(value, ensure_ascii=False)},')
    return "\n".join(lines) + "\n"


def chat_payload(content: str) -> dict:
    """Response body shape of a chat-completion endpoint."""
    return {"choices": [{"message": {"content": content}}]}


class _QuietServer(ThreadingHTTPServer):
    """Reports a handler's errors, apart from a client that hung up before
    its reply was written: tests hang up on purpose."""

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


class ScriptedServer:
    """Local HTTP server that replays a scripted list of (status, payload)
    or (status, payload, headers).

    Records every request (method, path, headers, parsed JSON body, client
    port). Dict payloads are sent as JSON, strings verbatim; headers is a
    dict of extra response headers, and with {"Transfer-Encoding":
    "chunked"} among them the body goes out in 1 KiB chunks instead of
    after a Content-Length. An exhausted script repeats its last
    entry. Each reply waits delay seconds first; inflight_max is the most
    requests ever handled at once. With keep_alive the server speaks
    HTTP/1.1 and keeps connections open, unless hang_up is set: then it
    closes each connection after its reply without announcing it. A CONNECT
    request is recorded and refused with 502.
    """

    def __init__(self, script, *, keep_alive=False, delay=0.0):
        self.script = list(script)
        self.requests: list[dict] = []
        self.delay = delay
        self.hang_up = False
        self.inflight = self.inflight_max = 0
        self._lock = threading.Lock()
        self.httpd = _QuietServer(("127.0.0.1", 0), self._handler(keep_alive))
        # A short poll lets shutdown() return promptly instead of after 0.5 s.
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.httpd.server_address[1]}"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()

    def _next(self):
        with self._lock:
            if len(self.script) > 1:
                return self.script.pop(0)
            return self.script[0]

    def _handler(self, keep_alive):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            # Headers and body go out in two writes; on a kept-alive
            # connection Nagle would hold the body for the client's delayed ACK.
            disable_nagle_algorithm = keep_alive

            def _record(self, body):
                server.requests.append({
                    "method": self.command,
                    "path": self.path,
                    "headers": {k.lower(): v for k, v in self.headers.items()},
                    "body": body,
                    "port": self.client_address[1],
                })

            def do_CONNECT(self):
                self._record(None)
                self.send_error(502)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    body = json.loads(raw) if raw else None
                except ValueError:
                    body = raw.decode("utf-8", "replace")
                self._record(body)
                with server._lock:
                    server.inflight += 1
                    server.inflight_max = max(server.inflight_max, server.inflight)
                time.sleep(server.delay)
                with server._lock:
                    server.inflight -= 1
                status, payload, *extra = server._next()
                data = (json.dumps(payload) if isinstance(payload, dict) else str(payload))
                encoded = data.encode("utf-8")
                headers = extra[0] if extra else {}
                chunked = headers.get("Transfer-Encoding") == "chunked"
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                if not chunked:
                    self.send_header("Content-Length", str(len(encoded)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                if chunked:
                    for at in range(0, len(encoded), 1024):
                        piece = encoded[at:at + 1024]
                        self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
                    self.wfile.write(b"0\r\n\r\n")
                else:
                    self.wfile.write(encoded)
                if server.hang_up:
                    self.close_connection = True

            def log_message(self, *args):
                pass

        return Handler


@pytest.fixture
def scripted_server():
    servers = []

    def make(script, **options) -> ScriptedServer:
        s = ScriptedServer(script, **options)
        servers.append(s)
        return s

    yield make
    for s in servers:
        s.close()
