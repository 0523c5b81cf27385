"""Corpus data model and JSON-lines I/O.

A corpus file holds one JSON object per line:

    {"id": "...", "source": "...", "targets": ["..."],
     "error_types": ["SC"], "edits": [[[4, "cat", "dog"]]],
     "explanation": "...", "rough_explanation": "..."}

``id``, ``source`` and ``targets`` are required.  ``targets`` must be
non-empty; a sentence without errors carries ``targets == [source]``.
``edits`` is optional and, when present, holds one edit list per target,
each edit a ``[offset, original, replacement]`` triple over 0-based
character offsets into ``source``.  ``Edit`` is that triple as a tuple, and
``edit_extract`` owns it.  Every check on a file's ``edits`` value runs in
``_parse_edits``, as the record loads: its shape, each edit's types, a
non-negative offset, an edit that changes something, and each list
rebuilding its target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

from .edit_extract import Edit, apply_edits
from .errors import CorpusError, EditError, decode_json, decode_text, replace_file

_REQUIRED_FIELDS = ("id", "source", "targets")
_OPTIONAL_FIELDS = ("error_types", "edits", "explanation", "rough_explanation")
_KNOWN_FIELDS = frozenset(_REQUIRED_FIELDS + _OPTIONAL_FIELDS)


class ErrorType(Enum):
    """The seven grammatical error categories."""

    IWO = "IWO"  # incorrect word order
    IWC = "IWC"  # incorrect word collocation
    CM = "CM"    # component missing
    CR = "CR"    # component redundancy
    SC = "SC"    # structure confusion
    ILL = "ILL"  # illogical
    AM = "AM"    # ambiguity

    @classmethod
    def parse(cls, code: str) -> "ErrorType":
        try:
            return cls(code)
        except ValueError:
            raise CorpusError(f"unknown error type {code!r}") from None


@dataclass
class SentencePair:
    """One corpus record: a source sentence with its reference corrections."""

    id: str
    source: str
    targets: list[str]
    error_types: list[ErrorType] = field(default_factory=list)
    edits: list[list[Edit]] | None = None
    explanation: str | None = None
    rough_explanation: str | None = None


@dataclass
class Corpus:
    records: list[SentencePair]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def get(self, record_id: str) -> SentencePair:
        by_id = self.__dict__.get("_by_id")
        if by_id is None or len(by_id) != len(self.records):
            by_id = {rec.id: rec for rec in self.records}
            self.__dict__["_by_id"] = by_id
        try:
            return by_id[record_id]
        except KeyError:
            raise CorpusError(f"unknown record id {record_id!r}") from None


def _parse_record(
    obj: dict, line_no: int, strict: bool, unknown: list[tuple[int, str]]
) -> SentencePair:
    """The record of ``obj``; a lenient parse appends (line, name) per unknown field to ``unknown``.

    The caller logs them once the whole file has loaded.
    """
    for name in obj:
        if name not in _KNOWN_FIELDS:
            if strict:
                raise CorpusError(f"line {line_no}: unknown field {name!r}")
            unknown.append((line_no, name))
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise CorpusError(f"line {line_no}: missing required field {name!r}")
    rec_id, source, targets = obj["id"], obj["source"], obj["targets"]
    if not isinstance(rec_id, str) or not rec_id:
        raise CorpusError(f"line {line_no}: id must be a non-empty string")
    if not isinstance(source, str):
        raise CorpusError(f"line {line_no}: source must be a string")
    if (
        not isinstance(targets, list)
        or not targets
        or not all(isinstance(t, str) for t in targets)
    ):
        raise CorpusError(f"line {line_no}: targets must be a non-empty list of strings")

    error_types = []
    if "error_types" in obj:
        raw = obj["error_types"]
        if not isinstance(raw, list):
            raise CorpusError(f"line {line_no}: error_types must be a list")
        try:
            error_types = [ErrorType.parse(code) for code in raw]
        except CorpusError as exc:
            raise CorpusError(f"line {line_no}: {exc}") from None

    edits = None
    if obj.get("edits") is not None:
        try:
            edits = _parse_edits(obj["edits"], source, targets, rec_id)
        except CorpusError as exc:
            raise CorpusError(f"line {line_no}: {exc}") from None

    explanation = obj.get("explanation")
    rough = obj.get("rough_explanation")
    for name, value in (("explanation", explanation), ("rough_explanation", rough)):
        if value is not None and not isinstance(value, str):
            raise CorpusError(f"line {line_no}: {name} must be a string")

    return SentencePair(
        id=rec_id,
        source=source,
        targets=targets,
        error_types=error_types,
        edits=edits,
        explanation=explanation,
        rough_explanation=rough,
    )


def _parse_edits(raw, source: str, targets: list[str], rec_id: str) -> list[list[Edit]]:
    """A record's ``edits`` value as one edit list per target, each checked to rebuild it."""
    if not isinstance(raw, list):
        raise CorpusError("edits must be a list of edit lists")
    if len(raw) != len(targets):
        raise CorpusError(f"edits has {len(raw)} lists for {len(targets)} targets")
    edits = []
    for i, (triples, target) in enumerate(zip(raw, targets)):
        if not isinstance(triples, list):
            raise CorpusError("edits must be a list of edit lists")
        for t in triples:
            if not (
                isinstance(t, list)
                and len(t) == 3
                and type(t[0]) is int
                and isinstance(t[1], str)
                and isinstance(t[2], str)
            ):
                raise CorpusError(f"edit must be [offset, original, replacement], got {t!r}")
            if t[0] < 0:
                raise CorpusError(f"edit offset must be >= 0, got {t[0]}")
            if not t[1] and not t[2]:
                raise CorpusError(
                    "edit must change something: original and replacement both empty"
                )
        edit_list = [Edit(*t) for t in triples]
        try:
            rebuilt = apply_edits(source, edit_list)
        except EditError as exc:
            raise CorpusError(f"edit/target mismatch id={rec_id}: {exc}") from None
        if rebuilt != target:
            raise CorpusError(
                f"edit/target mismatch id={rec_id}: edits for target {i} rebuild {rebuilt!r}"
            )
        edits.append(edit_list)
    return edits


def json_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) per non-blank line; CorpusError names any other line."""
    where = repr(str(path))
    text = decode_text(Path(path).read_bytes(), where, CorpusError, universal_newlines=True)
    # Records end at a newline; str.splitlines() would also split on
    # U+2028-style separators that may appear raw inside JSON strings.
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        obj = decode_json(line, f"line {line_no}: invalid JSON in {where}", CorpusError)
        if not isinstance(obj, dict):
            raise CorpusError(f"line {line_no}: record must be a JSON object")
        yield line_no, obj


def string_fields(path: str | Path, names: Sequence[str]) -> list[tuple[str, ...]]:
    """The named string fields of each record of a JSON-lines file, in file order."""
    rows = []
    for line_no, obj in json_objects(path):
        for name in names:
            if name not in obj:
                raise CorpusError(f"line {line_no}: missing required field {name!r}")
            if not isinstance(obj[name], str):
                raise CorpusError(f"line {line_no}: {name} must be a string")
        rows.append(tuple(obj[name] for name in names))
    return rows


def load_corpus(path: str | Path, strict: bool = False) -> Corpus:
    """Load and validate a JSON-lines corpus file.

    Unknown fields are rejected when ``strict`` is true, otherwise ignored
    with a warning each, logged once the whole file has loaded: a load that
    fails logs none.  Raises CorpusError with the offending line number on
    malformed JSON, schema violations, duplicate ids, or edit lists that do
    not rebuild their targets.
    """
    records, unknown = [], []
    seen = set()
    for line_no, obj in json_objects(path):
        rec = _parse_record(obj, line_no, strict, unknown)
        if rec.id in seen:
            raise CorpusError(f"line {line_no}: duplicate id {rec.id!r}")
        seen.add(rec.id)
        records.append(rec)
    if unknown:
        import logging  # here, not at the top: a corpus without unknown fields logs nothing

        for line_no, name in unknown:
            logging.getLogger(__name__).warning(
                "line %d: ignoring unknown field %r", line_no, name
            )
    return Corpus(records=records)


def record_to_dict(rec: SentencePair) -> dict:
    """Record as a JSON-ready dict with stable field order, omitting absent optionals."""
    obj = {"id": rec.id, "source": rec.source, "targets": list(rec.targets)}
    if rec.error_types:
        obj["error_types"] = [t.value for t in rec.error_types]
    if rec.edits is not None:
        obj["edits"] = [list(edit_list) for edit_list in rec.edits]
    if rec.explanation is not None:
        obj["explanation"] = rec.explanation
    if rec.rough_explanation is not None:
        obj["rough_explanation"] = rec.rough_explanation
    return obj


def dumps_record(rec: SentencePair) -> str:
    return json.dumps(record_to_dict(rec), ensure_ascii=False, separators=(",", ":"))


def dump_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to JSON-lines; load_corpus(dump_corpus(c)) round-trips."""
    replace_file(path, "".join(dumps_record(rec) + "\n" for rec in corpus.records).encode())
