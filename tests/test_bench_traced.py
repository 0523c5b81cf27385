"""The benchmark's tracer wraps package functions by module attribute name.

A refactor that renames or moves one of them must fail here: otherwise the
benchmark only prints "traced: not wrapped" and the per-layer metrics fed by
that wrapper read zero.  So must a refactor that keeps the names but binds a
function so that its caller no longer looks it up through the wrapped
attribute: the traced CLI run below must still record a span for each layer.
The benchmark also calls ``tests/oracles.py`` functions by name for its
full-scan answers, so a rename there must fail here too, not every run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import oracles
import pytest
from conftest import GEE_DOCS, INPUT_HIGH, INPUT_LOW, Q_HIGH, Q_LOW, TARGET_HIGH, TARGET_LOW

from re2gec.cli import dispatch
from re2gec.corpus import SentencePair
from re2gec.prompting import load_template_set, render_gee_prompt
from re2gec.retriever import ExplanationIndex

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
RUN = TRACED.with_name("run.py")


@pytest.fixture
def traced(monkeypatch):
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
    return traced


def test_traced_install_wraps_every_named_function(traced):
    assert traced.install(traced.Tracer()) == []


def test_bench_calls_only_oracles_that_exist():
    called = {
        node.func.attr
        for node in ast.walk(ast.parse(RUN.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "oracles"
    }
    assert called  # the benchmark's full-scan answers come from tests/oracles.py
    assert sorted(name for name in called if not callable(getattr(oracles, name, None))) == []


def test_traced_cli_run_records_a_span_for_every_layer(
    traced, write_corpus, write_script, tmp_path
):
    templates = load_template_set("default")
    explainer = write_script(
        {
            render_gee_prompt(SentencePair(id="", source=text, targets=[text]), "input_only",
                              templates): explanation
            for text, explanation in ((INPUT_LOW, Q_LOW), (INPUT_HIGH, Q_HIGH))
        },
        fallback="none",
    )
    train = write_corpus(
        [
            {"id": doc_id, "source": f"原句{i}", "targets": [f"改句{i}"], "explanation": text}
            for i, (doc_id, text) in enumerate(GEE_DOCS)
        ]
    )
    dev = write_corpus(
        [
            {"id": "devA", "source": INPUT_LOW, "targets": [TARGET_LOW]},
            {"id": "devB", "source": INPUT_HIGH, "targets": [TARGET_HIGH]},
        ]
    )
    index, log = str(tmp_path / "train.re2idx"), str(tmp_path / "log.jsonl")
    tracer = traced.Tracer()
    assert traced.install(tracer, explainer=explainer) == []
    for argv in (
        ["build-index", "--in", train, "--out", index],
        ["correct", "--in", dev, "--corpus", train, "--index", index,
         "--script", write_script({}), "--explainer-script", explainer, "--out", log],
        ["score", "--src", dev, "--hyp-log", log, "--out", str(tmp_path / "score.json")],
    ):
        assert dispatch(argv) == 0
    tags: dict[str, set] = {}
    for name, start, end, _, _, tag in tracer.spans:
        if end > start:
            tags.setdefault(name, set()).add(tag)
    assert sorted(
        {
            "corpus.load_corpus", "retriever.build_index", "retriever.dumps_index",
            "retriever.load_index", "retriever.loads_index", "retriever.postings",
            "retriever.query", "pipeline.correct_corpus", "pipeline.run_re2",
            "pipeline.generate_explanation", "prompting.render_gee_prompt",
            "prompting.render_gec_prompt", "prompting.parse_correction",
            "llm_backend.complete", "scorer.score_sentence", "edit_extract.char_level_edits",
        }
        - set(tags)
    ) == []
    assert tags["llm_backend.complete"] == {"explain", "correct"}
