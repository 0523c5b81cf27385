"""Exception hierarchy, and the one place outside bytes become values and values bytes.

Each decoding helper raises the caller's ``Re2Error`` subclass, naming ``where`` and, if
known, the line.  ``decode_json`` reads a well-formed document with one ``raw_decode``
and hands any other to ``json.loads``.  ``replace_file`` is the one way the package
writes a file.
"""

import json
import os
import re
import stat
import sys


class Re2Error(Exception):
    """Base class for all toolkit errors."""


class CorpusError(Re2Error):
    """Malformed corpus file or record."""


class SegmentationError(Re2Error):
    """Segmenter misconfiguration or external-process protocol failure."""


class EditError(Re2Error):
    """Edit script that cannot be applied to its source sentence."""


class RetrievalError(Re2Error):
    """Index construction or query failure."""


class TemplateError(Re2Error):
    """Missing template, placeholder, or required record field."""


class ParseError(Re2Error):
    """Completion text that cannot be parsed into a correction."""


class BackendError(Re2Error):
    """Backend transport failure, bad response, or missing scripted reply."""


class PipelineError(Re2Error):
    """Failure inside an orchestration step, annotated with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.message = message


def decode_text(data: bytes, where: str, error: type[Re2Error], universal_newlines=False) -> str:
    """``data`` as UTF-8; ``universal_newlines`` turns ``\\r\\n`` and ``\\r`` into ``\\n``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{where}: line {line} is not UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if universal_newlines else text


_DECODER = json.JSONDecoder()


def decode_json(data: str | bytes, where: str, error: type[Re2Error]):
    """The JSON value of ``data``, which is UTF-8 when bytes.

    One ``raw_decode`` that reads the whole string gives the value.  Anything else
    (a failure, whitespace around the value, a BOM, extra data) takes the path of
    ``json.loads``, whose values and messages it keeps.  Every failure names its
    position in ``JSONDecodeError``'s form.  The parser gives none for a document
    nested too deeply or an integer too long for ``int()``, so ``_json_failure_at``
    finds those two.
    """
    if isinstance(data, bytes):
        data = decode_text(data, where, error)
    try:
        value, end = _DECODER.raw_decode(data)
        if end == len(data):
            return value
    except (ValueError, RecursionError):
        pass
    try:
        return json.loads(data)
    except RecursionError:
        reason, at = "nested too deeply", _json_failure_at(data, too_deep=True)
    except json.JSONDecodeError as exc:
        reason, at = str(exc), None
    except ValueError as exc:  # an integer with more digits than int() takes
        reason, at = str(exc).partition(";")[0], _json_failure_at(data, too_deep=False)
    if at is not None:
        reason = str(json.JSONDecodeError(reason, data, at))  # "reason: line L column C (char N)"
    raise error(f"{where}: {reason}")


# A JSON string, a bracket, or a number: its digits, fraction and exponent as groups.
_JSON_TOKEN = r'"(?:[^"\\]|\\.)*"|[\[\]{}]|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?'


def _json_failure_at(doc: str, too_deep: bool) -> int | None:
    """Offset of the first ``[`` or ``{`` at ``doc``'s greatest depth if ``too_deep``, else of
    the first integer with more digits than ``sys.get_int_max_str_digits()``.

    The scan skips strings whole, so brackets and digits inside them do not count.
    """
    depth = deepest = 0
    at = None
    for token in re.finditer(_JSON_TOKEN, doc, re.DOTALL):
        head = token.group()[0]
        digits, fraction, exponent = token.groups()
        if too_deep and head in "[{":
            depth += 1
            if depth > deepest:
                deepest, at = depth, token.start()
        elif too_deep and head in "]}":
            depth -= 1
        elif not too_deep and digits and not (fraction or exponent):
            if len(digits) > sys.get_int_max_str_digits():
                return token.start()
    return at


def encode_text(text: str, where: str, error: type[Re2Error]) -> bytes:
    """``text`` as UTF-8; ``where`` gains the line of a lone surrogate if ``text`` has lines."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        if "\n" in text:
            line = text.count("\n", 0, exc.start) + 1
            where = f"{where} line {line}"
        raise error(f"{where} has a lone surrogate, which UTF-8 cannot encode") from None


def replace_file(path: str | os.PathLike, data: bytes) -> None:
    """Make ``data`` the whole of file ``path`` (a symlink's target), or leave it as it was.

    The bytes go to a sibling file, which ``os.replace`` moves over the target with the
    mode ``open(path, "wb")`` would give; a failure deletes the sibling instead.  A
    target that is no regular file (``/dev/null``, a FIFO) is written in place.
    """
    target = os.path.realpath(path)
    mode = os.stat(target).st_mode if os.path.exists(target) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as fh:
            fh.write(data)
        return
    sibling = f"{target}.{os.urandom(6).hex()}.tmp"
    # Created as open() creates a file: mode 0o666 less the umask.
    fd = os.open(sibling, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(data)
        os.replace(sibling, target)
    except BaseException:
        os.unlink(sibling)
        raise
