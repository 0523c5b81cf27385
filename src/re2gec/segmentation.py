"""Tokenization with character offsets.

Three modes:

* ``character`` -- every character (including whitespace) is one token.
* ``whitespace`` -- maximal runs of non-whitespace are tokens; separators
  between tokens are recoverable from the offsets, so the original text is
  always reconstructible from (text, tokens).
* ``external`` -- a long-running child process speaks a line protocol: one
  input line on stdin, one line of space-separated tokens on stdout.  No
  token can hold a space (U+0020), so the child may drop the line's spaces:
  the tokens, with only spaces around them, must spell out the input line,
  and each token's offset skips the spaces before it.

External mode keeps one ``ExternalSegmenter`` per (command, timeout), which
serializes the exchanges with its child and restarts the child after it exits
or a line fails.  A failed line costs only itself: lines queued behind it wait
out its timeout and then get a fresh child.
"""

from __future__ import annotations

import atexit
import math
import re
import threading
import time
from dataclasses import dataclass

from .errors import SegmentationError, decode_text, encode_text

SEGMENTER_MODES = ("character", "whitespace", "external")

_WS_TOKEN = re.compile(r"\S+")
_SPACES = re.compile(" *")


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
        if not 0 < self.external_timeout < math.inf:
            raise ValueError(
                f"external_timeout must be positive and finite, got {self.external_timeout}"
            )


class ExternalSegmenter:
    """Owns one child process at a time and serializes line-protocol exchanges with it.

    A line starts the child when none runs.  A failed exchange stops the
    child before its error is raised, so the next line, in whichever thread,
    gets a fresh one.  It imports ``subprocess``, ``select`` and ``shlex``
    itself, so that the character and whitespace modes never load them.
    """

    def __init__(self, command: str, timeout: float):
        self.command = command
        self.timeout = timeout
        self._lock = threading.RLock()  # a failed exchange calls close() while holding it
        self._proc = None
        self._buf = b""

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

    def _exchange(self, text: str, data: bytes) -> list[Token]:
        import shlex
        import subprocess

        if self._proc is None or self._proc.poll() is not None:
            self.close()
            try:
                self._proc = subprocess.Popen(shlex.split(self.command), bufsize=0,
                                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            except OSError as exc:
                raise SegmentationError(f"cannot start segmenter {self.command!r}: {exc}") from None
        try:
            self._proc.stdin.write(data)
            self._proc.stdin.flush()
        except OSError as exc:
            raise SegmentationError(f"segmenter {self.command!r} pipe failed: {exc}") from None
        line = self._read_line(time.monotonic() + self.timeout)
        output = decode_text(line, f"segmenter output for {text!r}", SegmentationError)
        # The tokens must spell out the line, with only its spaces around them.
        tokens, cursor = [], 0
        for piece in filter(None, output.split(" ")):
            cursor = _SPACES.match(text, cursor).end()
            tokens.append(Token(piece, cursor, cursor + len(piece)))
            cursor += len(piece)
        spelled = all(text.startswith(t.text, t.start) for t in tokens)
        if spelled and _SPACES.match(text, cursor).end() == len(text):
            return tokens
        raise SegmentationError(
            f"segmenter output does not re-concatenate to the input line: "
            f"input={text!r} output={output!r}"
        )

    def segment_line(self, text: str) -> list[Token]:
        if "\n" in text:
            raise SegmentationError("external segmenter input must not contain newlines")
        data = encode_text(text, f"segmenter input {text!r}", SegmentationError) + b"\n"
        with self._lock:
            try:
                return self._exchange(text, data)
            except BaseException:  # the child may now be anywhere in the protocol
                self.close()
                raise

    def close(self) -> None:
        """Stop the child, if one runs; a later line starts another."""
        with self._lock:
            proc, self._proc, self._buf = self._proc, None, b""
            if proc is not None:
                proc.kill()
                proc.wait()
                proc.stdin.close()
                proc.stdout.close()


# One segmenter per (command, timeout).  Two threads that both miss may each
# make one; ``setdefault`` keeps the first, and the other never starts a child.
_external_registry: dict[tuple[str, float], ExternalSegmenter] = {}


def close_external_segmenters() -> None:
    """Stop every external segmenter's child and forget the segmenters."""
    for seg in list(_external_registry.values()):
        seg.close()
    _external_registry.clear()


atexit.register(close_external_segmenters)


def segment(text: str, config: SegmenterConfig) -> list[Token]:
    """Segment text into tokens carrying exact character offsets.

    Deterministic for a fixed (text, config).  In every mode the token spans
    are ascending and non-overlapping, and any character outside a token span
    is an inter-token separator: whitespace in whitespace mode, a space in
    external mode.
    """
    if config.mode == "character":
        return [Token(ch, i, i + 1) for i, ch in enumerate(text)]
    if config.mode == "whitespace":
        return [Token(m.group(), m.start(), m.end()) for m in _WS_TOKEN.finditer(text)]
    if not text:
        return []
    key = (config.external_command, config.external_timeout)
    seg = _external_registry.get(key) or _external_registry.setdefault(key, ExternalSegmenter(*key))
    return seg.segment_line(text)
