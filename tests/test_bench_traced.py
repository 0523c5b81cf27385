"""The benchmark's tracer wraps package functions by module attribute name.

A refactor that renames or moves one of them must fail here: otherwise the
benchmark only prints "traced: not wrapped" and the per-layer metrics fed by
that wrapper read zero.
"""

import importlib
import importlib.util
from pathlib import Path

from re2gec.retriever import ExplanationIndex

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def test_traced_install_wraps_every_named_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    # install() replaces module attributes; registering each one with
    # monkeypatch first restores the originals after the test.
    for module_name, attr, _ in traced.WRAPS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(ExplanationIndex, "postings", ExplanationIndex.postings)
    assert traced.install(traced.Tracer()) == []
