"""Tokenization with character offsets.

Three modes:

* ``character`` -- every character (including whitespace) is one token.
* ``whitespace`` -- maximal runs of non-whitespace are tokens; separators
  between tokens are recoverable from the offsets, so the original text is
  always reconstructible from (text, tokens).
* ``external`` -- a long-running child process speaks a line protocol: one
  input line on stdin, one line of space-separated tokens on stdout.  The
  joined tokens must re-concatenate to the input line exactly.

External mode keeps a single child per configured segmenter and serializes
access to its pipes; concurrent callers queue on a lock.
"""

from __future__ import annotations

import atexit
import re
import threading
import time
from dataclasses import dataclass

from .errors import SegmentationError, decode_text, encode_text

SEGMENTER_MODES = ("character", "whitespace", "external")

_WS_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class Token:
    """A token with its half-open character span [start, end) in the source."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class SegmenterConfig:
    mode: str = "character"
    external_command: str | None = None
    external_timeout: float = 10.0

    def __post_init__(self):
        if self.mode not in SEGMENTER_MODES:
            raise ValueError(f"unknown segmenter mode {self.mode!r}")
        if self.mode == "external" and not self.external_command:
            raise ValueError("external mode requires external_command")
        if self.mode != "external" and self.external_command:
            raise ValueError(f"external_command is only valid in external mode, not {self.mode!r}")
        if self.external_timeout <= 0:
            raise ValueError("external_timeout must be positive")


class ExternalSegmenter:
    """Owns one child process and serializes line-protocol exchanges with it.

    It imports ``subprocess``, ``select`` and ``shlex`` itself, so that the
    character and whitespace modes never load them.
    """

    def __init__(self, command: str, timeout: float):
        import shlex
        import subprocess

        self.command = command
        self.timeout = timeout
        self._lock = threading.Lock()
        self._buf = b""
        try:
            self._proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise SegmentationError(f"cannot start segmenter {command!r}: {exc}") from None

    def _read_line(self, deadline: float) -> bytes:
        import select

        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SegmentationError(
                    f"segmenter {self.command!r} timed out after {self.timeout}s"
                )
            ready, _, _ = select.select([self._proc.stdout], [], [], remaining)
            if not ready:
                continue
            chunk = self._proc.stdout.read(65536)
            if not chunk:
                raise SegmentationError(f"segmenter {self.command!r} closed its output")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line

    def segment_line(self, text: str) -> list[str]:
        if "\n" in text:
            raise SegmentationError("external segmenter input must not contain newlines")
        data = encode_text(text, f"segmenter input {text!r}", SegmentationError) + b"\n"
        with self._lock:
            if self._proc.poll() is not None:
                raise SegmentationError(f"segmenter {self.command!r} exited")
            try:
                self._proc.stdin.write(data)
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise SegmentationError(f"segmenter {self.command!r} pipe failed: {exc}") from None
            line = self._read_line(time.monotonic() + self.timeout)
        output = decode_text(line, f"segmenter output for {text!r}", SegmentationError)
        tokens = [t for t in output.split(" ") if t]
        if "".join(tokens) != text:
            raise SegmentationError(
                f"segmenter output does not re-concatenate to the input line: "
                f"input={text!r} output={output!r}"
            )
        return tokens

    def close(self) -> None:
        import subprocess

        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


_external_registry: dict[tuple[str, float], ExternalSegmenter] = {}
_registry_lock = threading.Lock()


def _external_for(config: SegmenterConfig) -> ExternalSegmenter:
    key = (config.external_command, config.external_timeout)
    with _registry_lock:
        seg = _external_registry.get(key)
        if seg is None or seg._proc.poll() is not None:
            seg = ExternalSegmenter(config.external_command, config.external_timeout)
            _external_registry[key] = seg
        return seg


def close_external_segmenters() -> None:
    """Terminate all cached external segmenter processes."""
    with _registry_lock:
        for seg in _external_registry.values():
            seg.close()
        _external_registry.clear()


atexit.register(close_external_segmenters)


def segment(text: str, config: SegmenterConfig) -> list[Token]:
    """Segment text into tokens carrying exact character offsets.

    Deterministic for a fixed (text, config).  In every mode the token spans
    are ascending and non-overlapping, and any character outside a token span
    is an inter-token separator (only whitespace mode has separators).
    """
    if config.mode == "character":
        return [Token(ch, i, i + 1) for i, ch in enumerate(text)]
    if config.mode == "whitespace":
        return [Token(m.group(), m.start(), m.end()) for m in _WS_TOKEN.finditer(text)]
    if not text:
        return []
    seg = _external_for(config)
    try:
        pieces = seg.segment_line(text)
    except SegmentationError:
        with _registry_lock:
            key = (config.external_command, config.external_timeout)
            if _external_registry.get(key) is seg:
                del _external_registry[key]
        seg.close()
        raise
    tokens = []
    cursor = 0
    for piece in pieces:
        tokens.append(Token(piece, cursor, cursor + len(piece)))
        cursor += len(piece)
    return tokens
