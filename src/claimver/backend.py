"""Prompt construction and chat-completion clients (HTTP and mock)."""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .errors import BackendAuthError, BackendError, PromptError, UnknownPromptError
from .text import format_triplet, normalized_find

if TYPE_CHECKING:
    import http.client

logger = logging.getLogger(__name__)

# The most response body read from an endpoint, far above any real chat or
# embeddings reply; a longer body fails the request.
_MAX_BODY = 32 << 20

# Instruction sent before each verification request's input block.
VERIFICATION_TEMPLATE = """\
Analyze text against provided triplets, classifying claims as "Attributable", "Contradictory", or "Extrapolatory".
Justify your classification using the following structure:
- "text_span": Text under evaluation.
- "prediction": Category of the text (Attributable / Contradictory / Extrapolatory).
- "triplets": Relevant triplets (if any, else "NA").
- "rationale": Reason for classification.
For multiple claims, number each component (e.g., "text_span1", "prediction1",..). Use "NA" for inapplicable keys.
Example:
"text_span1": "Specific claim",
"prediction1": "Attributable/Contradictory/Extrapolatory",
"triplets1": "Relevant triplets",
"rationale1": "Prediction justification",
...
Input for analysis:
"""

# Few-shot instruction for labeling one text span against triplets, used to
# produce training/evaluation records.
DATAGEN_TEMPLATE = """\
**Text Span Attribution Verification**

**Objective:** Predict whether the text span is "Attributable", "Contradictory", or "Extrapolatory" based on the information provided in the triplets.

**Instructions:**

1. **Read the Full Text:**
- Understand the context and content of the full text string.

2. **Examine the Text Span:**
- Determine the claims made within the text span.

3. **Analyze the Triplets:**
- Evaluate if the triplets support, refute, or neither support nor refute the claims in the text span.

4. **Make Your Prediction:**
- Classify the text span as "Attributable", "Contradictory", or "Extrapolatory" based on your analysis of the triplets.

5. **Provide Rationale:**
- Clearly explain your reasoning for the classification.

**Classification Criteria:**

- **"Attributable"**: The text span is sufficiently supported by the triplet(s). All claims in the text span are directly present in the triplet information.
- **"Contradictory"**: The text span is conclusively refuted by the triplet(s). All claims in the text span are directly contradicted by the triplet information.
- **"Extrapolatory"**: The triplet(s) can neither support nor refute the text span. The information provided is either irrelevant, indirect, or related but not sufficient to support or refute the text span.

**Example:**

**Full Text:** "Albert Einstein is widely recognized as the father of modern physics. He was awarded the Nobel Prize in Physics for his services to Theoretical Physics."

**Text Span:** "He was awarded the Nobel Prize in Physics."

**Triplets:** [("Albert Einstein", "award received", "Nobel Prize in Physics")]

**Sample Evaluation:**
- **Prediction:** "Attributable"
- **Rationale:** "The triplet directly supports the claim that Albert Einstein received the Nobel Prize in Physics."

**Example:**

**Full Text:** "Isaac Newton discovered the element radium."

**Text Span:** "Isaac Newton discovered radium."

**Triplets:** [("Marie Curie", "discovered", "radium")]

**Sample Evaluation:**
- **Prediction:** "Contradictory"
- **Rationale:** "The triplet states that Marie Curie discovered radium, contradicting the claim that Isaac Newton discovered it."

**Example:**

**Full Text:** "The Eiffel Tower is a wrought-iron lattice tower that was opened in 1889."

**Text Span:** "The Eiffel Tower is a wrought-iron lattice tower that was opened in 1889."

**Triplets:** [("Eiffel Tower", "located in", "Paris")]

**Sample Evaluation:**
- **Prediction:** "Extrapolatory"
- **Rationale:** "The triplet states that the Eiffel Tower is located in Paris, which is related but not sufficient to confirm or refute that it was opened in 1889."

**Verification Checklist:**

- [ ] The prediction accurately reflects the relationship between the text span and the triplets.
- [ ] The rationale clearly explains the classification based on the triplets.
- [ ] The explanation is free from irrelevant information.

**Response Format:**
Provide your evaluation in the following JSON format:
- "prediction": "Attributable", "Contradictory", or "Extrapolatory"
- "rationale": "Your comments here"

**Inputs to Evaluate**

"""


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt: fixed instruction plus the per-request input block."""

    instruction: str
    rendered_input: str

    @property
    def text(self) -> str:
        return self.instruction + self.rendered_input


def serialize_triplets(labeled: Iterable[tuple[str, str, str]]) -> str:
    """One (s, p, o) line per triplet, in the given order."""
    return "\n".join(format_triplet(*t) for t in labeled)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_triplets_bracketed(labeled: Iterable[tuple[str, str, str]]) -> str:
    """Bracketed tuple-list form, e.g. [("s", "p", "o"), ("s2", "p2", "o2")]."""
    inner = ", ".join(f"({_quote(s)}, {_quote(p)}, {_quote(o)})" for s, p, o in labeled)
    return f"[{inner}]"


def build_verification_prompt(text: str,
                              labeled: Iterable[tuple[str, str, str]]) -> PromptBundle:
    """Render the verification instruction with the text and its triplets,
    given as (subject label, predicate, object label) triples: one line
    each, in the given order.
    """
    return PromptBundle(VERIFICATION_TEMPLATE,
                        f"-Text: {text}\n-Triplets: {serialize_triplets(labeled)}\n")


def _span_in_text(full_text: str, text_span: str) -> bool:
    # A quoted span often gains terminal punctuation the source lacks at that
    # position; ignore it, and fall back to case/whitespace-folded search.
    if text_span in full_text:
        return True
    stripped = text_span.rstrip(" \t\n.?!")
    if not stripped:
        return False
    return stripped in full_text or normalized_find(full_text, stripped) is not None


def build_datagen_prompt(full_text: str, text_span: str,
                         labeled: Iterable[tuple[str, str, str]]) -> PromptBundle:
    """Render the span-labeling instruction for one (text, span, triplets)
    item, triplets given as (subject label, predicate, object label); the
    span must occur in full_text (trailing sentence punctuation and
    case/whitespace differences are tolerated).
    """
    if not _span_in_text(full_text, text_span):
        raise PromptError("text_span must be a substring of full_text")
    return PromptBundle(DATAGEN_TEMPLATE, f'**Full text:** "{full_text}"\n'
                                          f'**Text span:** "{text_span}"\n'
                                          f"**Triplets:** {serialize_triplets_bracketed(labeled)}\n")


def _default_api_key() -> str:
    return os.environ.get("CLAIMVER_API_KEY", "")


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for a chat-completion or embeddings endpoint."""

    base_url: str
    model: str
    api_key: str = field(default_factory=_default_api_key, repr=False)
    timeout: float = 30.0
    max_retries: int = 2
    temperature: float = 0.0
    backoff_base: float = 0.5

    def __post_init__(self):
        # A refusal names the value's type, never the value: it can be the key.
        accepted = {"str": str, "int": int, "float": (int, float)}
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, accepted[f.type]) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be {f.type}, got {type(value).__name__}")
            if not value and f.name in ("base_url", "model"):
                raise ValueError(f"{f.name} must be non-empty")
        if not all(map(math.isfinite, (self.timeout, self.temperature, self.backoff_base))):
            raise ValueError("timeout, temperature and backoff_base must be finite")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.backoff_base <= 0:
            raise ValueError(f"backoff_base must be > 0, got {self.backoff_base}")
        for name in ("timeout", "backoff_base"):  # socket.settimeout and time.sleep refuse more
            if (value := getattr(self, name)) > threading.TIMEOUT_MAX:
                raise ValueError(f"{name} must be <= {threading.TIMEOUT_MAX}, got {value}")
        # A header value http.client can send; the key itself is never echoed.
        if any(ch in "\r\n" or ch > "\xff" for ch in self.api_key):
            raise ValueError("api_key must be latin-1 text without CR or LF")


def _retry_after(value: str | None, cap: float) -> float | None:
    """Seconds asked for by a numeric Retry-After header value, at most cap."""
    try:
        seconds = float(value or "")
    except ValueError:
        return None
    return min(seconds, cap) if seconds >= 0 else None


def _proxy_for(scheme: str, netloc: str) -> tuple[str, int, dict[str, str]] | None:
    """(host, port, auth headers) of the proxy the environment names for
    scheme://netloc, or None when there is none or NO_PROXY bypasses it."""
    import urllib.request
    from urllib.parse import unquote, urlsplit

    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(netloc):
        return None
    url = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    # Refusals name no part of the URL past its scheme: that part can hold a
    # password, and urlsplit misreads where it ends when it holds a / or #.
    if url.scheme != "http":
        raise ValueError(f"unsupported proxy scheme {url.scheme!r}: only http:// proxies work")
    if not url.hostname:
        raise ValueError("proxy URL has no host")
    try:
        port = url.port or 80
    except ValueError:
        raise ValueError("proxy port must be a number from 0 to 65535") from None
    auth = {}
    if url.username is not None:
        credentials = f"{unquote(url.username)}:{unquote(url.password or '')}"
        auth["Proxy-Authorization"] = (
            "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii"))
    return url.hostname, port, auth


class _EndpointClient:
    """Thread-safe JSON POST client for an endpoint; _kind names its requests
    in log lines and errors.

    Requests go over stdlib http.client keep-alive connections, kept on one
    idle stack that every thread using the client shares. Proxy variables
    (HTTP(S)_PROXY, ALL_PROXY, NO_PROXY) are read once, when the client is
    built; an https endpoint behind a proxy is reached through a CONNECT
    tunnel. Redirects are not followed. The client does not cap concurrent
    requests itself; run_pipeline bounds them (pipeline._PARALLEL_CHUNKS).
    5xx, 429 and timeouts are retried with exponential backoff, or after a
    429's numeric Retry-After (at most config.timeout); 401/403 raise
    BackendAuthError, and other 3xx and 4xx and a body over _MAX_BODY bytes
    raise BackendError, none of them retried. A request that a reused
    connection drops before any response arrives is sent once more on a
    fresh connection, without spending an attempt.
    """

    _kind = "request"

    def __init__(self, config: BackendConfig):
        # The HTTP stack is loaded only by a client, so importing the package
        # or running with a callable or mock backend never loads it.
        import http.client
        from urllib.parse import urlsplit

        from . import __version__

        self.config = config
        url = urlsplit(config.base_url)
        # No refusal quotes the whole URL; see _proxy_for.
        if url.scheme not in ("http", "https"):
            raise ValueError(f"base_url must be an http:// or https:// URL, "
                             f"got scheme {url.scheme!r}")
        if not url.hostname:
            raise ValueError("base_url has no host")
        if "#" in config.base_url:
            raise ValueError("base_url must not have a #fragment")
        path = url.path.rstrip("/")
        # An "@" past the host means a password holding a "/" or "?" was read
        # as path or query, so the refusal then quotes neither.
        quoted = "@" not in url.path + url.query
        for part, text in (("path", path), ("query", url.query)):
            if any(not "!" <= ch <= "~" for ch in text):
                raise ValueError(f"base_url {part} must be printable ASCII without spaces"
                                 + (f", got {text!r}" if quoted else ""))
        try:
            port = url.port or (443 if url.scheme == "https" else 80)
        except ValueError:
            # urllib's message quotes the text after the colon, which can be
            # part of a password holding a "/".
            raise ValueError("base_url port must be a number from 0 to 65535") from None
        # Credentials in the URL would be sent nowhere and copied into reports.
        if url.username is not None:
            raise ValueError("base_url must not hold a user name or password; "
                             "set the key in CLAIMVER_API_KEY")
        host = url.hostname
        # Each request's path goes between the base path and the base query.
        self._target = path
        self._query = "?" + url.query if url.query else ""
        self._headers = {"Content-Type": "application/json",
                         "User-Agent": f"claimver/{__version__}"}
        if config.api_key:
            self._headers["Authorization"] = f"Bearer {config.api_key}"
        self._tunnel = None
        proxy = _proxy_for(url.scheme, url.netloc)
        if proxy:
            proxy_host, proxy_port, auth = proxy
            if url.scheme == "https":
                self._tunnel = (host, port, auth)
            else:
                self._target = f"http://{url.netloc}{path}"
                self._headers.update(auth)
            host, port = proxy_host, proxy_port
        if url.scheme == "https":
            import ssl
            self._new_connection = functools.partial(
                http.client.HTTPSConnection, host, port, timeout=config.timeout,
                context=ssl.create_default_context())
        else:
            self._new_connection = functools.partial(
                http.client.HTTPConnection, host, port, timeout=config.timeout)
        self._failures = (OSError, http.client.HTTPException)
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self):
        """Close the idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        conn = self._new_connection()
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _exchange(self, path: str, payload: bytes) -> tuple[int, str | None, bytes]:
        """(status, Retry-After header, body) of one POST to {base_url}{path}."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connection()
        target = self._target + path + self._query
        try:
            try:
                conn.request("POST", target, payload, self._headers)
                resp = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # The server closed the idle connection before answering:
                # send once more, on a fresh connection.
                if not reused:
                    raise
                conn.close()
                conn.request("POST", target, payload, self._headers)
                resp = conn.getresponse()
            # resp.length is the Content-Length, None for a chunked body or
            # one read to the connection's close.
            if resp.length is not None and resp.length > _MAX_BODY:
                raise BackendError(f"response body exceeds the {_MAX_BODY}-byte limit")
            body = resp.read() if resp.length is not None else resp.read(_MAX_BODY + 1)
            if len(body) > _MAX_BODY:
                raise BackendError(f"response body exceeds the {_MAX_BODY}-byte limit")
        except BaseException:
            conn.close()
            raise
        if not resp.will_close:
            with self._lock:
                self._idle.append(conn)
        return resp.status, resp.getheader("Retry-After"), body

    def _post(self, path: str, body: dict) -> Any:
        """The decoded JSON body of a 200 response to POST {base_url}{path}."""
        cfg = self.config
        payload = json.dumps(body).encode("utf-8")
        last_error = "exhausted retries"
        wait = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(cfg.backoff_base * 2 ** (attempt - 1) if wait is None else wait)
            wait = None
            try:
                status, retry_after, data = self._exchange(path, payload)
            except TimeoutError:
                last_error = "request timed out"
                logger.warning("%s attempt %d timed out", self._kind, attempt + 1)
                continue
            except self._failures as exc:
                last_error = f"connection failed: {exc}"
                logger.warning("%s attempt %d failed: %s", self._kind, attempt + 1, exc)
                continue
            if status in (401, 403):
                raise BackendAuthError(f"endpoint rejected credentials (HTTP {status})")
            if status == 429:
                wait = _retry_after(retry_after, cfg.timeout)
            elif 300 <= status < 500:
                text = data.decode("utf-8", "replace")
                raise BackendError(f"request rejected (HTTP {status}): {text[:200]}")
            if status != 200:
                last_error = f"HTTP {status}"
                logger.warning("%s attempt %d got HTTP %d", self._kind, attempt + 1, status)
                continue
            try:
                return json.loads(data)
            except ValueError as exc:
                raise BackendError(f"malformed endpoint response: {exc}") from exc
        raise BackendError(
            f"{self._kind} failed after {cfg.max_retries + 1} attempts: {last_error}")


class ChatBackend(_EndpointClient):
    """Client for a chat-completion endpoint (POST {base_url}/chat/completions)."""

    _kind = "completion"

    def complete(self, prompt: PromptBundle | str) -> str:
        text = prompt.text if isinstance(prompt, PromptBundle) else prompt
        payload = self._post("/chat/completions", {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": text}],
        })
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed endpoint response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError("malformed endpoint response: content is not a string")
        return content


def prompt_digest(prompt: PromptBundle | str) -> str:
    """Stable identity of a prompt: sha256 over its full text."""
    text = prompt.text if isinstance(prompt, PromptBundle) else prompt
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class MockBackend:
    """Deterministic in-memory backend for tests and offline runs."""

    def __init__(self, responses: Mapping[str, str] | None = None, default: str | None = None):
        self.responses = dict(responses or {})
        self.default = default
        self.calls: list[str] = []

    def add(self, prompt: PromptBundle | str, response: str):
        self.responses[prompt_digest(prompt)] = response

    def complete(self, prompt: PromptBundle | str) -> str:
        digest = prompt_digest(prompt)
        self.calls.append(digest)
        if digest in self.responses:
            return self.responses[digest]
        if self.default is not None:
            return self.default
        raise UnknownPromptError(f"no canned response for prompt digest {digest[:12]}")
