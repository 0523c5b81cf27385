import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from conftest import script_from_pairs

import re2gec
from re2gec import llm_backend
from re2gec.errors import BackendError
from re2gec.llm_backend import (
    BackendConfig,
    DecodingParams,
    complete,
    embed,
    prompt_key,
)
from re2gec.pipeline import Re2Config, correct_corpus
from re2gec.retriever import build_index

PARAMS = DecodingParams()


def _retries(monkeypatch, attempts: int, base_delay: float, factor: float) -> None:
    """Replace the module's retry policy, as ``_waits`` replaces its sleep."""
    monkeypatch.setattr(llm_backend, "MAX_ATTEMPTS", attempts)
    monkeypatch.setattr(llm_backend, "BASE_DELAY", base_delay)
    monkeypatch.setattr(llm_backend, "BACKOFF_FACTOR", factor)


@pytest.fixture(autouse=True)
def _no_retry_delay(monkeypatch):
    _retries(monkeypatch, 3, 0.0, 1.0)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        body = json.loads(raw) if length else {}
        record = {"path": self.path, "headers": dict(self.headers), "body": body, "raw": raw}
        self.server.requests.append(record)
        status, payload = self.server.responder(record, len(self.server.requests))
        if status is None:  # the whole reply as given, status line and all; b"" sends none
            self.wfile.write(payload)
            return
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # so a followed redirect shows in ``requests``

    def log_message(self, *_args):
        pass


@contextmanager
def stub_server(responder):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.responder = responder
    server.requests = []
    # shutdown() waits for serve_forever's next poll, 0.5 s apart by default.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def completion(text: str):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def http_config(url: str, **overrides) -> BackendConfig:
    fields = dict(kind="http", endpoint=url, model="m", timeout=5.0)
    fields.update(overrides)
    return BackendConfig(**fields)


def mock_config(tmp_path, pairs, fallback="echo_last_line", name="script.json") -> BackendConfig:
    path = tmp_path / name
    path.write_text(
        json.dumps(script_from_pairs(pairs, fallback), ensure_ascii=False),
        encoding="utf-8",
    )
    return BackendConfig(kind="mock", script_path=str(path))


# --- config validation ---


def test_decoding_params_validation():
    with pytest.raises(ValueError, match="beam_size"):
        DecodingParams(beam_size=0)
    with pytest.raises(ValueError, match="temperature"):
        DecodingParams(temperature=0.0)
    for value in (math.nan, math.inf):  # neither has a JSON form
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            DecodingParams(temperature=value)


def test_backend_config_validation():
    with pytest.raises(ValueError, match="kind"):
        BackendConfig(kind="carrier_pigeon")
    with pytest.raises(ValueError, match="endpoint"):
        BackendConfig(kind="http")
    with pytest.raises(ValueError, match="script_path"):
        BackendConfig(kind="mock")
    with pytest.raises(ValueError, match="timeout"):
        BackendConfig(kind="mock", script_path="s", timeout=0.0)


@pytest.mark.parametrize(
    "endpoint",
    ["localhost:9/v1", "file:///etc/passwd", "ftp://host/v1", "http://", "http://host:8x/v1",
     "http://host:99999/v1", "http://[::1/v1", "http://host/v1 beta", "http://host/模型",
     "http://host/v1\n"],
)
def test_http_endpoint_must_be_an_http_url(endpoint):
    # urlopen would open file:// and ftp:// URLs, and raise ValueError on the rest.
    with pytest.raises(ValueError, match="^endpoint must be an http:// or https:// URL"):
        BackendConfig(kind="http", endpoint=endpoint)


def test_http_endpoint_accepts_http_and_https_urls():
    for endpoint in ("http://127.0.0.1:8000/v1", "https://api.example.com/v1/", "http://[::1]:80"):
        assert BackendConfig(kind="http", endpoint=endpoint).endpoint == endpoint


def test_prompt_key_is_utf8_sha256():
    assert prompt_key("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert prompt_key("好") == prompt_key("好")
    assert prompt_key("好") != prompt_key("坏")


def test_script_from_pairs_rejects_unknown_fallback():
    with pytest.raises(ValueError, match="fallback"):
        script_from_pairs({}, fallback="improvise")


# --- mock backend ---


def test_mock_scripted_response(tmp_path):
    config = mock_config(tmp_path, {"问题提示": "回答文本"})
    assert complete("问题提示", PARAMS, config) == "回答文本"


def test_mock_echo_last_line_fallback(tmp_path):
    config = mock_config(tmp_path, {})
    assert complete("第一行\n第二行\n最后一行", PARAMS, config) == "最后一行"
    assert complete("只有一行", PARAMS, config) == "只有一行"
    assert complete("结尾换行\n目标行\n", PARAMS, config) == "目标行"


def test_mock_none_fallback_raises(tmp_path):
    config = mock_config(tmp_path, {"已知": "答"}, fallback="none")
    assert complete("已知", PARAMS, config) == "答"
    with pytest.raises(BackendError, match="no scripted response"):
        complete("未知", PARAMS, config)


def test_mock_unknown_fallback_in_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"__fallback__": "improvise"}), encoding="utf-8")
    config = BackendConfig(kind="mock", script_path=str(path))
    with pytest.raises(BackendError, match="unknown fallback"):
        complete("任意", PARAMS, config)


def test_mock_script_must_be_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]", encoding="utf-8")
    config = BackendConfig(kind="mock", script_path=str(path))
    with pytest.raises(BackendError, match="JSON object"):
        complete("任意", PARAMS, config)


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"__fallback__": "\xff"}', r"line 1 is not UTF-8 \(invalid start byte\)"),
        (b"[" * 2000 + b"]" * 2000, r"nested too deeply: line 1 column 2000 \(char 1999\)"),
        # The limit is sys.get_int_max_str_digits(), 4300 by default.
        (b'{"__fallback__": "echo_last_line",\n "n": ' + b"9" * 5000 + b"}",
         r"Exceeds the limit \(\d+ digits\) for integer string conversion: "
         r"value has 5000 digits: line 2 column 7 \(char 41\)"),
    ],
    ids=["not UTF-8", "nested too deeply", "integer too long"],
)
def test_mock_script_must_be_utf8_json(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    config = BackendConfig(kind="mock", script_path=str(path))
    with pytest.raises(BackendError, match=rf"^mock script '.*bad.json': {message}$"):
        complete("任意", PARAMS, config)


def test_mock_script_missing_file(tmp_path):
    config = BackendConfig(kind="mock", script_path=str(tmp_path / "nope.json"))
    with pytest.raises(BackendError, match="cannot read"):
        complete("任意", PARAMS, config)


# --- http backend ---


def test_http_payload_and_auth_header(monkeypatch):
    monkeypatch.setenv("RE2_API_KEY", "sk-test-123")
    with stub_server(lambda rec, n: (200, completion("纠正后：好句子"))) as (url, server):
        got = complete("这句有错", PARAMS, http_config(url + "/"))
    assert got == "纠正后：好句子"
    (request,) = server.requests
    assert request["path"] == "/chat/completions"
    assert request["headers"]["Authorization"] == "Bearer sk-test-123"
    assert request["body"] == {
        "model": "m",
        "messages": [{"role": "user", "content": "这句有错"}],
        "temperature": 1.0,
        "sample": False,
        "beam_size": 8,
    }


@pytest.mark.parametrize("key", ["sk-密钥", "sk-secret\n"], ids=["not latin-1", "newline"])
def test_api_key_a_header_cannot_carry_is_named_not_shown(monkeypatch, key):
    monkeypatch.setenv("RE2_API_KEY", key)
    with stub_server(lambda rec, n: (200, completion("答"))) as (url, server):
        with pytest.raises(BackendError) as info:
            complete("问", PARAMS, http_config(url))
    assert str(info.value) == "RE2_API_KEY holds a character that is not printable Latin-1"
    assert server.requests == []


def test_http_no_auth_header_without_key(monkeypatch):
    monkeypatch.delenv("RE2_API_KEY", raising=False)
    with stub_server(lambda rec, n: (200, completion("答"))) as (url, server):
        complete("问", PARAMS, http_config(url))
    assert "Authorization" not in server.requests[0]["headers"]


def test_http_optional_sampling_fields(monkeypatch):
    monkeypatch.delenv("RE2_API_KEY", raising=False)
    params = DecodingParams(sample=True, temperature=0.7)
    with stub_server(lambda rec, n: (200, completion("答"))) as (url, server):
        complete("问", params, http_config(url))
    body = server.requests[0]["body"]
    assert body["sample"] is True
    assert body["temperature"] == 0.7


@pytest.mark.parametrize("retriable", [500, 503, 429])
def test_http_retries_transient_errors(retriable):
    def responder(_rec, n):
        if n == 1:
            return retriable, {"error": "soon"}
        return 200, completion("成功")

    with stub_server(responder) as (url, server):
        assert complete("问", PARAMS, http_config(url)) == "成功"
        assert len(server.requests) == 2


def test_http_gives_up_after_max_attempts():
    with stub_server(lambda rec, n: (503, {"error": "down"})) as (url, server):
        with pytest.raises(BackendError, match="failed after 3 attempts.*HTTP 503"):
            complete("问", PARAMS, http_config(url))
        assert len(server.requests) == 3


def test_http_client_error_is_not_retried():
    with stub_server(lambda rec, n: (404, {"error": "nope"})) as (url, server):
        with pytest.raises(BackendError, match="HTTP 404 from"):
            complete("问", PARAMS, http_config(url))
        assert len(server.requests) == 1


@pytest.mark.parametrize("status", [302, 307])
def test_http_redirect_is_not_followed(monkeypatch, status):
    # urllib would follow a 302 as a GET to any host, bearer token and all.
    monkeypatch.setenv("RE2_API_KEY", "sk-test-123")
    with stub_server(lambda rec, n: (200, completion("答"))) as (elsewhere, target):
        reply = f"HTTP/1.0 {status} Moved\r\nLocation: {elsewhere}/x\r\n\r\n".encode()
        with stub_server(lambda rec, n: (None, reply)) as (url, server):
            with pytest.raises(BackendError, match=f"^HTTP {status} from {url}/chat/completions"):
                complete("问", PARAMS, http_config(url))
    assert len(server.requests) == 1
    assert target.requests == []


def test_http_non_json_success_body():
    with stub_server(lambda rec, n: (200, b"plain text")) as (url, _):
        with pytest.raises(BackendError, match="non-JSON response"):
            complete("问", PARAMS, http_config(url))


def test_http_malformed_completion_shape():
    with stub_server(lambda rec, n: (200, {"choices": []})) as (url, _):
        with pytest.raises(BackendError, match="malformed completion response"):
            complete("问", PARAMS, http_config(url))
    with stub_server(lambda rec, n: (200, {"choices": [{"message": {"content": 7}}]})) as (
        url,
        _,
    ):
        with pytest.raises(BackendError, match="malformed completion response"):
            complete("问", PARAMS, http_config(url))


def test_http_body_is_what_requests_json_sent(monkeypatch):
    monkeypatch.delenv("RE2_API_KEY", raising=False)
    with stub_server(lambda rec, n: (200, completion("答"))) as (url, server):
        complete("这句有错 \u2028", PARAMS, http_config(url))
    (request,) = server.requests
    payload = {
        "model": "m",
        "messages": [{"role": "user", "content": "这句有错 \u2028"}],
        "temperature": 1.0,
        "sample": False,
        "beam_size": 8,
    }
    assert request["raw"] == json.dumps(payload, allow_nan=False).encode()
    assert request["headers"]["Content-Type"] == "application/json"


@pytest.mark.parametrize(
    "reply, error",
    [
        (b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{\"choices\"", "IncompleteRead"),
        (b"", "Remote end closed connection without response"),
    ],
    ids=["content-length past the body", "closed with no reply"],
)
def test_http_broken_reply_is_a_retried_transport_error(reply, error):
    with stub_server(lambda rec, n: (None, reply)) as (url, server):
        with pytest.raises(BackendError) as info:
            complete("问", PARAMS, http_config(url))
    assert len(server.requests) == 3
    assert f"failed after 3 attempts: transport error: {error}" in str(info.value)


def _waits(monkeypatch):
    """The delays slept between attempts; the jitter draws its upper bound."""
    slept = []
    monkeypatch.setattr(llm_backend, "_sleep", slept.append)
    monkeypatch.setattr(llm_backend, "_uniform", lambda low, high: ("jitter", low, high))
    return slept


def test_http_retry_delay_is_full_jitter(monkeypatch):
    slept = _waits(monkeypatch)
    _retries(monkeypatch, 4, 0.5, 3.0)
    with stub_server(lambda rec, n: (500, {"error": "down"})) as (url, _):
        with pytest.raises(BackendError, match="failed after 4 attempts.*HTTP 500"):
            complete("问", PARAMS, http_config(url))
    assert slept == [("jitter", 0.0, 0.5), ("jitter", 0.0, 1.5), ("jitter", 0.0, 4.5)]


@pytest.mark.parametrize(
    "status, retry_after, waited",
    [
        (429, "2", 2.0),
        (503, " 3 ", 3.0),
        (503, "120", 5.0),  # capped by the timeout
        (503, "9" * 5000, 5.0),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", ("jitter", 0.0, 1.0)),  # dates are not honoured
        (429, "1.5", ("jitter", 0.0, 1.0)),
        (500, "2", ("jitter", 0.0, 1.0)),  # only 429 and 503 carry it
    ],
    ids=["429", "503 padded", "503 capped", "503 past int's digit limit", "http-date",
         "fraction", "500"],
)
def test_http_retry_after_replaces_the_jitter(monkeypatch, status, retry_after, waited):
    slept = _waits(monkeypatch)
    _retries(monkeypatch, 2, 1.0, 2.0)
    reply = (f"HTTP/1.0 {status} Busy\r\nRetry-After: {retry_after}\r\n"
             "Content-Length: 4\r\n\r\nbusy").encode()

    def responder(_rec, n):
        return (None, reply) if n == 1 else (200, completion("成功"))

    with stub_server(responder) as (url, server):
        assert complete("问", PARAMS, http_config(url)) == "成功"
    assert len(server.requests) == 2
    assert slept == [waited]


def test_http_client_loads_neither_requests_nor_urllib3(tmp_path):
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    with stub_server(lambda rec, n: (200, completion("答"))) as (url, server):
        child = (
            "import json, sys\n"
            "from re2gec.llm_backend import BackendConfig, DecodingParams, complete\n"
            f"config = BackendConfig(kind='http', endpoint={url!r}, model='m')\n"
            "reply = complete('问', DecodingParams(), config)\n"
            "print(json.dumps([reply, sorted({'requests', 'urllib3'} & set(sys.modules))]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
        )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["答", []]
    assert len(server.requests) == 1


def test_http_transport_error_reports_attempts(monkeypatch):
    _retries(monkeypatch, 2, 0.0, 1.0)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    config = http_config(f"http://127.0.0.1:{dead_port}")
    with pytest.raises(BackendError, match="failed after 2 attempts.*transport error"):
        complete("问", PARAMS, config)


# --- concurrency ---


def test_correct_corpus_runs_backend_calls_concurrently(mini_gee_corpus):
    state = {"active": 0, "peak": 0}
    lock = threading.Lock()

    def responder(_rec, _n):
        with lock:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        time.sleep(0.05)
        with lock:
            state["active"] -= 1
        return 200, completion("答")

    index = build_index(mini_gee_corpus, "explanation")
    inputs = [f"句{i}" for i in range(8)]
    with stub_server(responder) as (url, server):
        backend = http_config(url)
        config = Re2Config(backend=backend, explainer_backend=backend)
        outcomes = correct_corpus(inputs, index, mini_gee_corpus, config, jobs=4)
    assert [o.input for o in outcomes] == inputs
    assert [o.correction for o in outcomes] == ["答"] * 8
    assert len(server.requests) == 16  # one explanation and one correction per input
    assert state["peak"] >= 2


def test_threads_share_a_mock_script_read_on_first_use(tmp_path):
    config = mock_config(tmp_path, {f"问{i}": f"答{i}" for i in range(50)})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the first read too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(lambda i: complete(f"问{i % 50}", PARAMS, config), range(400)))
    finally:
        sys.setswitchinterval(interval)
    assert replies == [f"答{i % 50}" for i in range(400)]


# --- embeddings ---


def test_embed_mock(tmp_path):
    path = tmp_path / "emb.json"
    script = {prompt_key("甲"): [1, 0.5], prompt_key("乙"): [0, 2]}
    path.write_text(json.dumps(script), encoding="utf-8")
    config = BackendConfig(kind="mock", script_path=str(path))
    assert embed(["甲", "乙"], config) == [[1.0, 0.5], [0.0, 2.0]]
    with pytest.raises(BackendError, match="no scripted embedding"):
        embed(["丙"], config)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({prompt_key("丙"): [1, "x"]}), encoding="utf-8")
    with pytest.raises(BackendError, match="embedding .*: could not convert string to float"):
        embed(["丙"], BackendConfig(kind="mock", script_path=str(bad)))


def test_mock_reply_must_be_a_string(tmp_path):
    config = mock_config(tmp_path, {"提示": 7})
    with pytest.raises(BackendError, match="^mock script reply .* is not a string$"):
        complete("提示", PARAMS, config)


def test_embed_http_sorts_by_index():
    payload = {
        "data": [
            {"index": 1, "embedding": [0.0, 1.0]},
            {"index": 0, "embedding": [1.0, 0.0]},
        ]
    }
    with stub_server(lambda rec, n: (200, payload)) as (url, server):
        got = embed(["甲", "乙"], http_config(url))
    assert got == [[1.0, 0.0], [0.0, 1.0]]
    assert server.requests[0]["path"] == "/embeddings"
    assert server.requests[0]["body"] == {"model": "m", "input": ["甲", "乙"]}


def test_embed_http_count_mismatch():
    payload = {"data": [{"index": 0, "embedding": [1.0]}]}
    with stub_server(lambda rec, n: (200, payload)) as (url, _):
        with pytest.raises(BackendError, match="1 vectors for 2 texts"):
            embed(["甲", "乙"], http_config(url))


def test_embed_http_malformed_rows():
    with stub_server(lambda rec, n: (200, {"data": [{"oops": 1}]})) as (url, _):
        with pytest.raises(BackendError, match="malformed embedding response"):
            embed(["甲"], http_config(url))
