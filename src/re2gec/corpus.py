"""Corpus data model and JSON-lines I/O.

A corpus file holds one JSON object per line:

    {"id": "...", "source": "...", "targets": ["..."],
     "error_types": ["SC"], "edits": [[[4, "cat", "dog"]]],
     "explanation": "...", "rough_explanation": "..."}

``id``, ``source`` and ``targets`` are required.  ``targets`` must be
non-empty; a sentence without errors carries ``targets == [source]``.
``edits`` is optional and, when present, holds one edit list per target,
each edit a ``[offset, original, replacement]`` triple over 0-based
character offsets into ``source``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

from .errors import CorpusError

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class Edit:
    """One span substitution: replace source[offset:offset+len(original)] with replacement."""

    offset: int
    original: str
    replacement: str

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"edit offset must be >= 0, got {self.offset}")
        if not self.original and not self.replacement:
            raise ValueError("edit must change something: original and replacement both empty")

    def to_triple(self) -> list:
        return [self.offset, self.original, self.replacement]

    @classmethod
    def from_triple(cls, triple) -> "Edit":
        if (
            not isinstance(triple, (list, tuple))
            or len(triple) != 3
            or not isinstance(triple[0], int)
            or isinstance(triple[0], bool)
            or not isinstance(triple[1], str)
            or not isinstance(triple[2], str)
        ):
            raise ValueError(f"edit must be [offset, original, replacement], got {triple!r}")
        return cls(triple[0], triple[1], triple[2])


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


def _parse_record(obj: dict, line_no: int, strict: bool) -> SentencePair:
    for name in obj:
        if name not in _KNOWN_FIELDS:
            if strict:
                raise CorpusError(f"line {line_no}: unknown field {name!r}")
            logger.warning("line %d: ignoring unknown field %r", line_no, name)
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
    if "edits" in obj and obj["edits"] is not None:
        raw = obj["edits"]
        if not isinstance(raw, list):
            raise CorpusError(f"line {line_no}: edits must be a list of edit lists")
        if len(raw) != len(targets):
            raise CorpusError(
                f"line {line_no}: edits has {len(raw)} lists for {len(targets)} targets"
            )
        edits = []
        for triples in raw:
            if not isinstance(triples, list):
                raise CorpusError(f"line {line_no}: edits must be a list of edit lists")
            try:
                edits.append([Edit.from_triple(t) for t in triples])
            except ValueError as exc:
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


def _check_edits_replay(rec: SentencePair, line_no: int) -> None:
    # Deferred import: edit application lives with edit extraction.
    from .edit_extract import apply_edits

    for i, edit_list in enumerate(rec.edits or []):
        try:
            rebuilt = apply_edits(rec.source, edit_list)
        except Exception as exc:
            raise CorpusError(
                f"line {line_no}: edit/target mismatch id={rec.id}: {exc}"
            ) from None
        if rebuilt != rec.targets[i]:
            raise CorpusError(
                f"line {line_no}: edit/target mismatch id={rec.id}: "
                f"edits for target {i} rebuild {rebuilt!r}"
            )


def json_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) per non-blank line; CorpusError names any other line."""
    text = Path(path).read_text(encoding="utf-8")
    # Records are separated by plain \n; str.splitlines() would also split on
    # U+2028-style separators that may appear raw inside JSON strings.
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {line_no}: invalid JSON: {exc}") from None
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
    with a warning.  Raises CorpusError with the offending line number on
    malformed JSON, schema violations, duplicate ids, or edit lists that do
    not rebuild their targets.
    """
    records = []
    seen = set()
    for line_no, obj in json_objects(path):
        rec = _parse_record(obj, line_no, strict)
        if rec.id in seen:
            raise CorpusError(f"line {line_no}: duplicate id {rec.id!r}")
        seen.add(rec.id)
        if rec.edits is not None:
            _check_edits_replay(rec, line_no)
        records.append(rec)
    return Corpus(records=records)


def record_to_dict(rec: SentencePair) -> dict:
    """Record as a JSON-ready dict with stable field order, omitting absent optionals."""
    obj = {"id": rec.id, "source": rec.source, "targets": list(rec.targets)}
    if rec.error_types:
        obj["error_types"] = [t.value for t in rec.error_types]
    if rec.edits is not None:
        obj["edits"] = [[e.to_triple() for e in edit_list] for edit_list in rec.edits]
    if rec.explanation is not None:
        obj["explanation"] = rec.explanation
    if rec.rough_explanation is not None:
        obj["rough_explanation"] = rec.rough_explanation
    return obj


def dumps_record(rec: SentencePair) -> str:
    return json.dumps(record_to_dict(rec), ensure_ascii=False, separators=(",", ":"))


def dump_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to JSON-lines; load_corpus(dump_corpus(c)) round-trips."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            fh.write(dumps_record(rec) + "\n")
