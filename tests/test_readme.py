"""The README's command line walkthrough, run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import re2gec

README = Path(__file__).resolve().parent.parent / "README.md"


def _walkthrough_blocks() -> list[tuple[str, str]]:
    """(language, text) of each fenced block of the "Command line walkthrough" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line walkthrough\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```(\w+)\n(.*?)^```$", section, flags=re.M | re.S)


def test_readme_walkthrough_runs_and_prints_what_it_shows(tmp_path):
    blocks = _walkthrough_blocks()
    assert [lang for lang, _ in blocks] == ["sh", "sh", "json", "sh", "json", "sh", "sh", "json"]
    # `re2gec` and `python` on PATH run this interpreter, against the re2gec under test.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("re2gec", f'"{sys.executable}" -m re2gec'), ("python", sys.executable)):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n', encoding="utf-8")
        shim.chmod(0o755)
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
        "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])),
    }
    work = tmp_path / "work"
    work.mkdir()
    stdout = None
    for lang, text in blocks:
        if lang == "json":
            assert stdout.strip() == text.strip()
            continue
        proc = subprocess.run(
            ["bash", "-e", "-c", text], cwd=work, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        stdout = proc.stdout
