"""Local stand-in for an OpenAI-style completion endpoint, with a fixed delay.

    python3 bench/stub.py REPLIES.json DELAY_SECONDS

REPLIES.json maps a model name to a role and a table of scripted replies:

    {"bench-explainer": {"role": "explain", "replies": {"<input>": "<reply>"}},
     "bench-corrector": {"role": "correct", "replies": {"<input>": "<reply>"}}}

A POST to ``/chat/completions`` is routed by its ``model``.  The input
sentence is read from the prompt: for ``explain`` the last line starting with
``Source: ``, for ``correct`` the last line.  The stub sleeps DELAY_SECONDS,
then answers with the scripted reply, or 404 when the model or input is
unknown.  ``GET /stats`` returns the counters since the previous
``GET /stats`` and resets them: requests, accepted TCP connections, the peak
number of requests in flight and non-2xx replies.

The stub binds 127.0.0.1 on a free port and prints the port as its first
line of output.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.non_2xx = 0

    def take(self) -> dict:
        """The counters since the last call, which resets them.

        Called while serving ``GET /stats``, whose own connection is left out.
        """
        with self.lock:
            out = {
                "requests": self.requests,
                "connections": self.connections - 1,
                "max_in_flight": self.max_in_flight,
                "non_2xx": self.non_2xx,
            }
            self.requests = self.connections = self.non_2xx = 0
            self.max_in_flight = self.in_flight
        return out


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replies: dict, delay: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.replies = replies
        self.delay = delay
        self.stats = Stats()

    def process_request(self, request, client_address):
        with self.stats.lock:
            self.stats.connections += 1
        super().process_request(request, client_address)


def _input_of(prompt: str, role: str) -> str:
    lines = prompt.rstrip("\n").split("\n")
    if role == "explain":
        for line in reversed(lines):
            if line.startswith("Source: "):
                return line[len("Source: "):]
        return ""
    return lines[-1]


class Handler(BaseHTTPRequestHandler):
    server: StubServer

    def log_message(self, format, *args):  # noqa: A002 - base-class signature
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.server.stats.take())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        stats = self.server.stats
        with stats.lock:
            stats.requests += 1
            stats.in_flight += 1
            stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
        status, body = 500, {"error": "stub failed"}
        try:
            status, body = self._complete()
            time.sleep(self.server.delay)
        finally:
            # Leave the in-flight count before replying: once the reply is
            # out, the client may already have its next request on the wire.
            with stats.lock:
                stats.in_flight -= 1
                stats.non_2xx += status != 200
        self._send(status, body)

    def _complete(self) -> tuple[int, dict]:
        if self.path.rstrip("/") != "/chat/completions":
            return 404, {"error": f"unknown path {self.path}"}
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        model = self.server.replies.get(payload.get("model"))
        if model is None:
            return 404, {"error": f"unknown model {payload.get('model')!r}"}
        prompt = payload["messages"][-1]["content"]
        reply = model["replies"].get(_input_of(prompt, model["role"]))
        if reply is None:
            return 404, {"error": "no scripted reply for this input"}
        return 200, {"choices": [{"message": {"role": "assistant", "content": reply}}]}


def main(argv: list[str]) -> int:
    replies = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    server = StubServer(replies, float(argv[1]))
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
