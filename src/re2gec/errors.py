"""Exception hierarchy, and the one place outside bytes become values and values bytes.

Each helper raises the caller's ``Re2Error`` subclass, naming ``where`` and, if known, the line.
"""

import json


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


def decode_text(data: bytes, where: str, error: type[Re2Error], universal_newlines=False) -> str:
    """``data`` as UTF-8; ``universal_newlines`` turns ``\\r\\n`` and ``\\r`` into ``\\n``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{where}: line {line} is not UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if universal_newlines else text


def decode_json(data: str | bytes, where: str, error: type[Re2Error]):
    """The JSON value of ``data``, which is UTF-8 when bytes."""
    if isinstance(data, bytes):
        data = decode_text(data, where, error)
    try:
        return json.loads(data)
    except RecursionError:
        reason = "nested too deeply"
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits for int()
        reason = str(exc).partition(";")[0]
    raise error(f"{where}: {reason}")


def encode_text(text: str, where: str, error: type[Re2Error]) -> bytes:
    """``text`` as UTF-8; ``where`` gains the line of a lone surrogate if ``text`` has lines."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        if "\n" in text:
            line = text.count("\n", 0, exc.start) + 1
            where = f"{where} line {line}"
        raise error(f"{where} has a lone surrogate, which UTF-8 cannot encode") from None
