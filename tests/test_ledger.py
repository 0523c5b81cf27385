"""The output ledger: every command's output bytes, pinned across commits.

Each line of ``tests/ledger.jsonl`` names one command line (``argv``), one
file it writes (``"-"`` for stdout) and that file's sha256.  A file that is
UTF-8 text also gets an 8-digit digest of each of its lines (``lines``), so
that a mismatch can name the first line that moved; a binary file, such as
an index, keeps its sha256 alone.  An ``omit`` list names JSON keys whose
values are timings: each ``, "key": <number>`` is cut from the file before
it is hashed.

The command lines run in process, in ledger order, in one directory that
``ledger_inputs.write_inputs`` fills, with ``COLUMNS=80`` so that argparse
wraps help text the same way on every terminal.  A change that moves output
bytes on purpose rewrites the lines it moves with

    PYTHONPATH=src python tests/test_ledger.py

which prints each moved line; CHANGES.md then names them.  To add a command
line, append a ledger line with an empty ``sha256`` and run the same command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

import ledger_inputs
from re2gec.cli import dispatch

LEDGER = Path(__file__).resolve().parent / "ledger.jsonl"


def _read_ledger() -> list[dict]:
    return [json.loads(line) for line in LEDGER.read_text(encoding="utf-8").splitlines()]


def _run_all(entries: list[dict], directory: Path) -> dict[tuple, tuple[int, str, dict]]:
    """(exit code, stderr, {file: bytes}) per distinct argv, run in ledger order in ``directory``."""
    ledger_inputs.write_inputs(directory)
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        mp.setenv("COLUMNS", "80")
        for entry in entries:
            argv = tuple(entry["argv"])
            if argv in runs:
                continue
            stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = dispatch(list(argv))
            stdout.flush()
            files = {"-": stdout.buffer.getvalue()}
            files.update((e["file"], (directory / e["file"]).read_bytes()) for e in entries
                         if tuple(e["argv"]) == argv and e["file"] != "-")
            runs[argv] = (code, stderr.getvalue(), files)
    return runs


def _pinned(data: bytes, omit: list[str]) -> bytes:
    for key in omit:
        data = re.sub(rb', "' + key.encode() + rb'": [-+.0-9eE]+', b"", data)
    return data


def _digests(data: bytes) -> dict:
    """The ``sha256`` of ``data``, and its ``lines`` digests if it is UTF-8 text."""
    digests = {"sha256": hashlib.sha256(data).hexdigest()}
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return digests
    lines = data.splitlines(keepends=True)
    digests["lines"] = [hashlib.sha256(line).hexdigest()[:8] for line in lines]
    return digests


ENTRIES = _read_ledger()


@pytest.fixture(scope="module")
def ledger_runs(tmp_path_factory):
    return _run_all(ENTRIES, tmp_path_factory.mktemp("ledger"))


def _entry_id(entry: dict) -> str:
    command = entry["argv"][0] if entry["argv"][0] != "--help" else "re2gec"
    return f"{command}:{entry['file']}"


@pytest.mark.parametrize("entry", ENTRIES, ids=[_entry_id(e) for e in ENTRIES])
def test_output_bytes_match_the_ledger(entry, ledger_runs):
    code, stderr, files = ledger_runs[tuple(entry["argv"])]
    assert code == 0, stderr
    data = _pinned(files[entry["file"]], entry.get("omit", []))
    digests = _digests(data)
    if digests["sha256"] == entry["sha256"]:
        return
    moved = (f"{entry['file']} of `re2gec {' '.join(entry['argv'])}` moved: "
             f"sha256 {digests['sha256']}, ledger {entry['sha256']}")
    if "lines" not in entry or "lines" not in digests:
        pytest.fail(moved, pytrace=False)
    lines, got = digests["lines"], data.splitlines(keepends=True)
    first = next((i for i, (a, b) in enumerate(zip(lines, entry["lines"])) if a != b),
                 min(len(lines), len(entry["lines"])))
    if first < len(got):
        shown = repr(got[first].decode("utf-8", "backslashreplace")[:200])
    else:
        shown = "(missing: the file is shorter)"
    pytest.fail(f"{moved}; first differing line {first + 1} of {len(got)}: {shown}", pytrace=False)


def _rewrite() -> None:
    """Rewrite the digests of every ledger line from this tree; print the lines that moved."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = _run_all(ENTRIES, Path(tmp))
    out = []
    for entry in ENTRIES:
        code, stderr, files = runs[tuple(entry["argv"])]
        if code != 0:
            sys.exit(f"re2gec {' '.join(entry['argv'])}: exit {code}: {stderr}")
        digests = _digests(_pinned(files[entry["file"]], entry.get("omit", [])))
        if digests["sha256"] != entry["sha256"]:
            print(f"moved: {_entry_id(entry)} {' '.join(entry['argv'])}")
        entry = {key: value for key, value in entry.items() if key != "lines"}
        out.append(json.dumps({**entry, **digests}, ensure_ascii=False))
    LEDGER.write_text("".join(line + "\n" for line in out), encoding="utf-8")


if __name__ == "__main__":
    _rewrite()
