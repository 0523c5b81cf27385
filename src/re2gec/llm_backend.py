"""Completion backends: an OpenAI-style HTTP endpoint and a scripted mock.

The HTTP backend POSTs the prompt as a single user message to
``{endpoint}/chat/completions`` with the decoding parameters attached
(``temperature``, plus ``sample`` and ``beam_size`` verbatim as extension
fields) and reads ``choices[0].message.content`` back.  A bearer
token is taken from the ``RE2_API_KEY`` environment variable when set.
Requests go through the standard library's ``urllib.request``: proxies come
from ``http_proxy``/``https_proxy``/``no_proxy``, https is verified against
the system CA store, and no redirect is followed.
Transport errors, 429 and 5xx responses are retried, up to ``MAX_ATTEMPTS``
attempts in all, after a "full jitter" delay, uniform in
``[0, BASE_DELAY * BACKOFF_FACTOR**(n - 1)]`` (1 s and 2 s) before retry ``n``;
a 429 or 503 reply's ``Retry-After`` of whole seconds, capped by the timeout,
replaces that delay.  Other failures raise immediately.

The mock backend resolves prompts through a JSON script file mapping
``sha256(prompt)`` hex digests to response strings.  The reserved
``__fallback__`` key selects behaviour for unscripted prompts:
``"echo_last_line"`` (default) answers with the prompt's last line, which
for the bundled correction templates is the input sentence; ``"none"``
raises instead.  A ``BackendConfig`` reads and checks its script once, on
first use, and keeps it (``config.script``); a ``Re2Config`` does that when it
is made, so a script that is missing, not UTF-8 JSON, not an object, or names
an unknown fallback fails before any input.  Edits made to the file later in
the run are not seen.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import BackendError, decode_json, encode_text

API_KEY_ENV = "RE2_API_KEY"
BACKEND_KINDS = ("http", "mock")
FALLBACK_KEY = "__fallback__"


@dataclass(frozen=True)
class DecodingParams:
    sample: bool = False
    temperature: float = 1.0
    beam_size: int = 8

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if not 0 < self.temperature < math.inf:  # a request body holds no NaN or infinity
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"
    endpoint: str | None = None
    model: str | None = None
    script_path: str | None = None
    timeout: float = 30.0

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http backend requires an endpoint")
        if self.kind == "http" and not _is_http_url(self.endpoint):
            raise ValueError(
                "endpoint must be an http:// or https:// URL of printable ASCII, "
                f"got {self.endpoint!r}"
            )
        if self.kind == "mock" and not self.script_path:
            raise ValueError("mock backend requires a script_path")
        if not 0 < self.timeout < math.inf:  # sockets and select take no NaN or infinity
            raise ValueError(f"timeout must be positive and finite, got {self.timeout}")

    @functools.cached_property
    def script(self) -> dict:
        """A mock backend's script, read and checked on first use, then kept."""
        path = self.script_path
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise BackendError(f"cannot read mock script {path!r}: {exc}") from None
        script = decode_json(data, f"mock script {path!r}", BackendError)
        if not isinstance(script, dict):
            raise BackendError(f"mock script {path!r} must be a JSON object")
        fallback = script.get(FALLBACK_KEY, "echo_last_line")
        if fallback not in ("echo_last_line", "none"):
            raise BackendError(f"mock script {path!r}: unknown fallback {fallback!r}")
        return script


def _is_http_url(text: str) -> bool:
    """Whether ``text`` is an http(s) URL with a host that ``urlopen`` can send as written."""
    try:
        parts = urllib.parse.urlsplit(text)
        parts.port  # raises ValueError on a port that is not a number
    except ValueError:
        return False
    printable = text.isascii() and text.isprintable() and " " not in text
    return printable and parts.scheme in ("http", "https") and bool(parts.hostname)


def prompt_key(text: str) -> str:
    """Stable content hash used as the mock script lookup key."""
    import hashlib  # here, not at the top: it loads OpenSSL, which scoring never needs

    return hashlib.sha256(encode_text(text, "prompt", BackendError)).hexdigest()


def _mock_complete(prompt: str, config: BackendConfig) -> str:
    script = config.script
    key = prompt_key(prompt)
    if key in script:
        if not isinstance(script[key], str):
            raise BackendError(f"mock script reply {key[:12]}… is not a string")
        return script[key]
    if script.get(FALLBACK_KEY, "echo_last_line") == "echo_last_line":
        return prompt.rstrip("\n").rsplit("\n", 1)[-1]
    raise BackendError(f"mock backend: no scripted response for prompt (key {key[:12]}…)")


def _headers() -> dict:
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        if max(map(ord, api_key)) > 0xFF or not api_key.isprintable():  # as a header takes
            raise BackendError(f"{API_KEY_ENV} holds a character that is not printable Latin-1")
        headers["Authorization"] = f"Bearer {api_key}"
    return headers


# Module attributes, so tests can replace them.  An HTTP call makes at most
# MAX_ATTEMPTS attempts, and retry n waits up to BASE_DELAY * BACKOFF_FACTOR**(n - 1) s.
MAX_ATTEMPTS = 3
BASE_DELAY = 1.0
BACKOFF_FACTOR = 2.0
_sleep = time.sleep


def _uniform(low: float, high: float) -> float:
    import random

    return random.uniform(low, high)


@functools.cache
def _opener():
    """``urlopen``'s handlers, except that a redirect fails as its 3xx status.

    urllib would follow a 301, 302 or 303 to any host, Authorization header and all.
    """
    import urllib.request  # here, not at the top: ~25 ms of startup only HTTP backends need

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None

    return urllib.request.build_opener(NoRedirect)


def _post_once(url: str, body: bytes, timeout: float) -> tuple[int, bytes, str]:
    """Status, body and ``Retry-After`` header (or "") of one POST, whatever the status."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, body, _headers(), method="POST")
    try:
        with _opener().open(request, timeout=timeout) as response:
            return response.status, response.read(), ""
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read(), exc.headers.get("Retry-After", "")


def _post_with_retries(url: str, payload: dict, config: BackendConfig) -> dict:
    from http.client import HTTPException  # a reply cut short raises one that is no OSError
    from urllib.error import URLError

    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    last_error = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        wait = None
        try:
            status, data, retry_after = _post_once(url, body, config.timeout)
        except (OSError, HTTPException) as exc:
            last_error = f"transport error: {exc.reason if isinstance(exc, URLError) else exc}"
        else:
            if 200 <= status < 300:
                return decode_json(data, f"non-JSON response from {url}", BackendError)
            text = data.decode("utf-8", "replace")[:200]
            if status == 429 or 500 <= status < 600:
                last_error = f"HTTP {status}: {text}"
                if status in (429, 503) and retry_after.strip().isdecimal():
                    wait = min(float(retry_after), config.timeout)  # RFC 9110 §10.2.3
            else:
                raise BackendError(f"HTTP {status} from {url}: {text}")
        if attempt < MAX_ATTEMPTS:
            if wait is None:  # "full jitter" (Brooker, Exponential Backoff and Jitter, 2015)
                wait = _uniform(0.0, BASE_DELAY * BACKOFF_FACTOR ** (attempt - 1))
            _sleep(wait)
    raise BackendError(f"request to {url} failed after {MAX_ATTEMPTS} attempts: {last_error}")


def _http_complete(prompt: str, params: DecodingParams, config: BackendConfig) -> str:
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": params.temperature,
        "sample": params.sample,
        "beam_size": params.beam_size,
    }
    url = config.endpoint.rstrip("/") + "/chat/completions"
    data = _post_with_retries(url, payload, config)
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise BackendError(f"malformed completion response from {url}") from None
    if not isinstance(content, str):
        raise BackendError(f"malformed completion response from {url}")
    return content


def complete(prompt: str, params: DecodingParams, config: BackendConfig | None) -> str:
    """One completion for one prompt; with no backend (``None``), a ``BackendError``."""
    if config is None:
        raise BackendError("no backend is configured for this call")
    if config.kind == "mock":
        return _mock_complete(prompt, config)
    return _http_complete(prompt, params, config)


def embed(texts: Sequence[str], config: BackendConfig) -> list[list[float]]:
    """Dense vectors for texts, in input order.

    HTTP backends POST to ``{endpoint}/embeddings``; mock backends resolve
    each text's hash against the script, whose values must be number lists.
    """
    if config.kind == "mock":
        script = config.script
        vectors = []
        for text in texts:
            key = prompt_key(text)
            vec = script.get(key)
            if not isinstance(vec, list):
                raise BackendError(
                    f"mock backend: no scripted embedding for text (key {key[:12]}…)"
                )
            try:
                vectors.append([float(v) for v in vec])
            except (KeyError, TypeError, ValueError) as exc:
                raise BackendError(f"mock script embedding {key[:12]}…: {exc}") from None
        return vectors
    url = config.endpoint.rstrip("/") + "/embeddings"
    data = _post_with_retries(url, {"model": config.model, "input": list(texts)}, config)
    try:
        rows = sorted(data["data"], key=lambda row: row["index"])
        vectors = [[float(v) for v in row["embedding"]] for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendError(f"malformed embedding response from {url}: {exc}") from None
    if len(vectors) != len(texts):
        raise BackendError(
            f"embedding endpoint returned {len(vectors)} vectors for {len(texts)} texts"
        )
    return vectors
