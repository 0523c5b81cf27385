import json
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import (
    INPUT_HIGH,
    INPUT_LOW,
    Q_HIGH,
    Q_HIGH_BEST_SIM,
    Q_LOW,
    Q_LOW_BEST_SIM,
    TARGET_HIGH,
    TARGET_LOW,
)

import re2gec.pipeline as pipeline_module
from re2gec.corpus import Corpus, SentencePair
from re2gec.errors import BackendError, PipelineError, Re2Error, TemplateError
from re2gec.llm_backend import BackendConfig, DecodingParams, complete
from re2gec.pipeline import (
    MODE_WITH,
    MODE_WITHOUT,
    CorrectionOutcome,
    Re2Config,
    compare_retrievers,
    correct_corpus,
    map_ordered,
    run_baseline,
    run_re2,
    sft_examples,
    sweep_threshold,
)
from re2gec.prompting import load_template_set, render_gec_prompt, render_gee_prompt
from re2gec.retriever import IndexConfig, RetrievalResult, build_index, query

SET = load_template_set("default")


def explain_prompt(text: str) -> str:
    return render_gee_prompt(
        SentencePair(id="", source=text, targets=[text]), "input_only", SET
    )


def examples_prompt(index, corpus, input_text: str, explanation: str) -> str:
    hits = query(index, explanation, k=3, theta=0.0).hits
    examples = [
        (corpus.get(h.doc_id).source, corpus.get(h.doc_id).targets[0]) for h in hits
    ]
    return render_gec_prompt(input_text, examples, SET)


@pytest.fixture
def gee_index(mini_gee_corpus):
    return build_index(mini_gee_corpus, "explanation", IndexConfig())


@pytest.fixture
def explainer_backend(write_script):
    path = write_script(
        {explain_prompt(INPUT_LOW): Q_LOW, explain_prompt(INPUT_HIGH): Q_HIGH},
        fallback="none",
    )
    return BackendConfig(kind="mock", script_path=path)


@pytest.fixture
def echo_backend(write_script):
    return BackendConfig(kind="mock", script_path=write_script({}))


@pytest.fixture
def config(echo_backend, explainer_backend):
    return Re2Config(backend=echo_backend, explainer_backend=explainer_backend)


def test_re2_config_validation(echo_backend):
    with pytest.raises(ValueError, match="k"):
        Re2Config(backend=echo_backend, explainer_backend=echo_backend, k=0)
    with pytest.raises(ValueError, match="theta"):
        Re2Config(backend=echo_backend, explainer_backend=echo_backend, theta=1.5)


def test_re2_config_reads_its_mock_scripts_once_when_made(tmp_path, write_script):
    missing = BackendConfig(kind="mock", script_path=str(tmp_path / "missing.json"))
    for role in ("backend", "explainer_backend", "embedding_backend"):
        with pytest.raises(BackendError, match="^cannot read mock script '.*missing.json'"):
            Re2Config(**{role: missing})
    path = Path(write_script({"提示": "答"}))
    config = Re2Config(backend=BackendConfig(kind="mock", script_path=str(path)))
    path.unlink()  # kept from when the config was made
    assert complete("提示", DecodingParams(), config.backend) == "答"


def test_flow_without_the_backend_it_calls_fails_at_that_stage(gee_index, mini_gee_corpus):
    config, message = Re2Config(), "no backend is configured for this call"
    with pytest.raises(PipelineError) as info:
        run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)
    assert (info.value.stage, info.value.message) == ("explain", message)
    with pytest.raises(PipelineError) as info:
        run_baseline(INPUT_LOW, "zero_shot", mini_gee_corpus, None, config)
    assert (info.value.stage, info.value.message) == ("correct", message)


def test_re2_config_loads_its_template_set_once_when_made(echo_backend):
    config = Re2Config(backend=echo_backend, explainer_backend=echo_backend)
    assert config.template_set == SET
    with pytest.raises(TemplateError, match="template set not found: 'no_such_set'"):
        Re2Config(backend=echo_backend, explainer_backend=echo_backend, templates="no_such_set")


def test_gate_fixture_similarities_are_frozen(gee_index):
    low = query(gee_index, Q_LOW, k=3, theta=0.0)
    high = query(gee_index, Q_HIGH, k=3, theta=0.0)
    assert len(low.hits) == 3 and len(high.hits) == 3
    assert low.hits[0].doc_id == "d0" and high.hits[0].doc_id == "d0"
    assert low.hits[0].score == pytest.approx(Q_LOW_BEST_SIM, abs=1e-9)
    assert high.hits[0].score == pytest.approx(Q_HIGH_BEST_SIM, abs=1e-9)


def test_run_re2_gate_closed_uses_without_examples(gee_index, mini_gee_corpus, config):
    outcome = run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)
    assert outcome.mode_used == MODE_WITHOUT
    assert outcome.explanation == Q_LOW
    assert outcome.hits.gate_open is False
    assert len(outcome.hits.hits) == 3  # hits are logged even when gated off
    assert outcome.prompt == render_gec_prompt(INPUT_LOW, [], SET)
    assert outcome.correction == INPUT_LOW  # echo backend returns the input line


def test_run_re2_gate_open_uses_ranked_examples(
    gee_index, mini_gee_corpus, explainer_backend, write_script
):
    with_prompt = examples_prompt(gee_index, mini_gee_corpus, INPUT_HIGH, Q_HIGH)
    corrector = BackendConfig(
        kind="mock", script_path=write_script({with_prompt: "纠正后：好句B"})
    )
    config = Re2Config(backend=corrector, explainer_backend=explainer_backend)
    outcome = run_re2(INPUT_HIGH, gee_index, mini_gee_corpus, config)
    assert outcome.mode_used == MODE_WITH
    assert outcome.hits.gate_open is True
    assert outcome.prompt == with_prompt
    assert outcome.correction == "好句B"  # answer label stripped
    example_lines = [ln for ln in outcome.prompt.split("\n") if ln.startswith("原句：")]
    expect = [
        f"原句：{mini_gee_corpus.get(h.doc_id).source} 纠正后："
        f"{mini_gee_corpus.get(h.doc_id).targets[0]}"
        for h in outcome.hits.hits
    ]
    assert example_lines == expect


def test_run_re2_is_deterministic(gee_index, mini_gee_corpus, config):
    first = run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)
    second = run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)
    assert first == second
    blob_a = json.dumps(first.to_dict(), ensure_ascii=False, sort_keys=True)
    blob_b = json.dumps(second.to_dict(), ensure_ascii=False, sort_keys=True)
    assert blob_a == blob_b


def test_outcome_to_dict_field_order(gee_index, mini_gee_corpus, config):
    outcome = run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)
    assert list(outcome.to_dict()) == [
        "input",
        "explanation",
        "hits",
        "prompt",
        "correction",
        "mode_used",
    ]
    hits = outcome.to_dict()["hits"]
    assert list(hits) == ["hits", "gate_open"]
    assert all(isinstance(h, list) and len(h) == 2 for h in hits["hits"])


def test_run_re2_wraps_explainer_failure(gee_index, mini_gee_corpus, echo_backend, write_script):
    silent = BackendConfig(kind="mock", script_path=write_script({}, fallback="none"))
    config = Re2Config(backend=echo_backend, explainer_backend=silent)
    with pytest.raises(PipelineError, match="explain: ") as info:
        run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)
    assert info.value.stage == "explain"


def test_correct_corpus_parallel_matches_sequential(gee_index, mini_gee_corpus, config):
    inputs = [INPUT_LOW, INPUT_HIGH, INPUT_LOW]
    sequential = correct_corpus(inputs, gee_index, mini_gee_corpus, config, jobs=1)
    parallel = correct_corpus(inputs, gee_index, mini_gee_corpus, config, jobs=4)
    assert sequential == parallel
    assert [o.input for o in sequential] == inputs


@pytest.mark.parametrize("jobs", [1, 4])
def test_map_ordered_gives_each_failed_item_its_error(jobs):
    def fn(item):
        if item % 3 == 1:
            raise PipelineError("explain", f"no reply for {item}")
        return item * 10

    results = map_ordered(fn, range(7), jobs)
    assert [r if isinstance(r, int) else str(r) for r in results] == [
        0, "explain: no reply for 1", 20, 30, "explain: no reply for 4", 50, 60
    ]

    def buggy(item):
        if item == 2:
            raise KeyError(item)  # not a Re2Error: a bug, which keeps its traceback
        return item

    with pytest.raises(KeyError):
        map_ordered(buggy, range(4), jobs)


def test_correct_corpus_gives_a_failed_input_its_error(gee_index, mini_gee_corpus, config):
    results = correct_corpus([INPUT_LOW, "未知的句子", INPUT_HIGH], gee_index, mini_gee_corpus,
                             config, jobs=2)
    assert [type(r) for r in results] == [CorrectionOutcome, PipelineError, CorrectionOutcome]
    assert results[1].stage == "explain"
    assert results[1].message.startswith("mock backend: no scripted response")
    assert results[0] == run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)


def test_sweep_threshold_raises_the_first_failed_input(
    dev_corpus, gee_index, mini_gee_corpus, sweep_config
):
    records = [SentencePair(id="bad", source="未知的句子", targets=["未知的句子"]), *dev_corpus]
    with pytest.raises(Re2Error, match="^explain: mock backend: no scripted response"):
        sweep_threshold(Corpus(records), [0.6], sweep_config, gee_index, mini_gee_corpus)


def test_open_gate_without_hits_uses_without_examples(mini_gee_corpus, config):
    result = RetrievalResult(hits=(), gate_open=True)
    outcome = pipeline_module._correct(
        INPUT_LOW, Q_LOW, result, mini_gee_corpus, SET, pipeline_module._completer(config)
    )
    assert outcome.mode_used == MODE_WITHOUT
    assert outcome.prompt == render_gec_prompt(INPUT_LOW, [], SET)
    assert outcome.hits is result


# --- baselines ---


def test_zero_shot_baseline(mini_gee_corpus, config):
    outcome = run_baseline(INPUT_LOW, "zero_shot", mini_gee_corpus, None, config)
    assert outcome.mode_used == MODE_WITHOUT
    assert outcome.hits.hits == () and outcome.hits.gate_open is False
    assert outcome.explanation == ""
    assert outcome.correction == INPUT_LOW


def test_random_k_baseline_is_seed_deterministic(mini_gee_corpus, config):
    a = run_baseline(INPUT_LOW, "random_k", mini_gee_corpus, None, config, seed=7)
    b = run_baseline(INPUT_LOW, "random_k", mini_gee_corpus, None, config, seed=7)
    assert a == b
    assert a.mode_used == MODE_WITH
    ids = [h.doc_id for h in a.hits.hits]
    assert len(ids) == config.k
    assert set(ids) <= {"d0", "d1", "d2"}
    seen = {
        tuple(
            h.doc_id
            for h in run_baseline(
                INPUT_LOW, "random_k", mini_gee_corpus, None, config, seed=s
            ).hits.hits
        )
        for s in range(10)
    }
    assert len(seen) > 1  # the seed actually drives the draw


def test_random_k_needs_enough_records(mini_gee_corpus, echo_backend, explainer_backend):
    config = Re2Config(backend=echo_backend, explainer_backend=explainer_backend, k=4)
    with pytest.raises(PipelineError, match="need k=4"):
        run_baseline(INPUT_LOW, "random_k", mini_gee_corpus, None, config)


def test_textsim_baseline_ignores_gate(mini_gee_corpus, config):
    source_index = build_index(mini_gee_corpus, "source", IndexConfig())
    outcome = run_baseline("原句0", "textsim", mini_gee_corpus, source_index, config)
    assert outcome.mode_used == MODE_WITH
    assert outcome.hits.gate_open is True
    assert outcome.hits.hits[0].doc_id == "d0"


def test_textsim_requires_index(mini_gee_corpus, config):
    with pytest.raises(PipelineError, match="textsim requires"):
        run_baseline(INPUT_LOW, "textsim", mini_gee_corpus, None, config)


def test_unknown_baseline_mode(mini_gee_corpus, config):
    with pytest.raises(PipelineError, match="unknown baseline mode"):
        run_baseline(INPUT_LOW, "oracle", mini_gee_corpus, None, config)


# --- sft construction ---


def test_sft_examples_shapes(gee_index, mini_gee_corpus, config):
    for rec in mini_gee_corpus:
        with_ex, without_ex = sft_examples(rec, gee_index, mini_gee_corpus, config)
        assert with_ex.meta["mode"] == MODE_WITH
        assert with_ex.meta["id"] == rec.id
        assert rec.id not in with_ex.meta["example_ids"]  # no self-leakage
        assert with_ex.meta["example_ids"]  # ungated: neighbours always attached
        assert with_ex.response == rec.targets[0]
        n_blocks = sum(
            1 for ln in with_ex.prompt.split("\n") if ln.startswith("原句：")
        )
        assert n_blocks == len(with_ex.meta["example_ids"])
        assert without_ex.meta == {"id": rec.id, "mode": MODE_WITHOUT}
        assert without_ex.prompt == render_gec_prompt(rec.source, [], SET)
        assert without_ex.response == rec.targets[0]


def test_sft_examples_require_explanations(gee_index, mini_gee_corpus, config):
    bare = SentencePair(id="bare", source="原句x", targets=["改句x"])
    train = Corpus(records=list(mini_gee_corpus.records) + [bare])
    with pytest.raises(PipelineError, match="record bare: missing explanation"):
        sft_examples(bare, gee_index, train, config)


def test_sft_example_to_dict():
    from re2gec.pipeline import SftExample

    ex = SftExample(prompt="p", response="r", meta={"id": "a"})
    assert ex.to_dict() == {"prompt": "p", "response": "r", "meta": {"id": "a"}}


# --- threshold sweep ---


@pytest.fixture
def dev_corpus():
    return Corpus(
        records=[
            SentencePair(id="devA", source=INPUT_LOW, targets=[TARGET_LOW]),
            SentencePair(id="devB", source=INPUT_HIGH, targets=[TARGET_HIGH]),
        ],
    )


@pytest.fixture
def sweep_config(gee_index, mini_gee_corpus, explainer_backend, write_script):
    # with-examples prompts answer with the gold target; everything else
    # echoes, so an echoed (uncorrected) source counts as a miss
    corrector = BackendConfig(
        kind="mock",
        script_path=write_script(
            {
                examples_prompt(gee_index, mini_gee_corpus, INPUT_LOW, Q_LOW): TARGET_LOW,
                examples_prompt(gee_index, mini_gee_corpus, INPUT_HIGH, Q_HIGH): TARGET_HIGH,
            }
        ),
    )
    return Re2Config(backend=corrector, explainer_backend=explainer_backend)


def test_sweep_threshold_rows(dev_corpus, gee_index, mini_gee_corpus, sweep_config):
    rows = sweep_threshold(
        dev_corpus, [0.0, 0.6, 1.0], sweep_config, gee_index, mini_gee_corpus
    )
    assert [row["theta"] for row in rows] == [0.0, 0.6, 1.0]
    for row in rows:
        assert list(row) == ["theta", "precision", "recall", "f_half"]

    # theta 0: both gates open, both corrected
    assert rows[0]["precision"] == pytest.approx(1.0)
    assert rows[0]["recall"] == pytest.approx(1.0)
    assert rows[0]["f_half"] == pytest.approx(1.0)

    # theta 0.6: only the 0.61-similarity query passes the gate
    assert rows[1]["precision"] == pytest.approx(1.0)
    assert rows[1]["recall"] == pytest.approx(0.5)
    assert rows[1]["f_half"] == pytest.approx(1.25 * 0.5 / (0.25 + 0.5))

    # theta 1: both gated off, nothing corrected
    assert rows[2]["precision"] == pytest.approx(1.0)  # no predicted edits at all
    assert rows[2]["recall"] == pytest.approx(0.0)
    assert rows[2]["f_half"] == pytest.approx(0.0)


def test_sweep_threshold_caches_completions(
    dev_corpus, gee_index, mini_gee_corpus, sweep_config, monkeypatch
):
    real = pipeline_module.complete
    calls = []

    def counting(prompt, params, backend):
        calls.append(prompt)
        return real(prompt, params, backend)

    monkeypatch.setattr(pipeline_module, "complete", counting)
    sweep_threshold(dev_corpus, [0.0, 0.6, 1.0], sweep_config, gee_index, mini_gee_corpus)
    # 2 explanations + 4 distinct correction prompts, despite 6 gate decisions
    assert len(calls) == 6


def _count_edit_extractions(monkeypatch) -> list:
    import re2gec.scorer

    real = re2gec.scorer.char_level_edits
    calls = []

    def counting(source, target):
        calls.append((source, target))
        return real(source, target)

    monkeypatch.setattr(re2gec.scorer, "char_level_edits", counting)
    return calls


def test_sweep_threshold_extracts_gold_edits_once(
    dev_corpus, gee_index, mini_gee_corpus, sweep_config, monkeypatch
):
    calls = _count_edit_extractions(monkeypatch)
    thetas = [0.0, 0.6, 1.0]
    sweep_threshold(dev_corpus, thetas, sweep_config, gee_index, mini_gee_corpus)
    n_refs = sum(len(rec.targets) for rec in dev_corpus)
    # each reference once, then each theta's hypotheses
    assert len(calls) == n_refs + len(thetas) * len(dev_corpus)
    assert calls[:n_refs] == [(rec.source, t) for rec in dev_corpus for t in rec.targets]


def test_sweep_threshold_validates_thetas(dev_corpus, gee_index, mini_gee_corpus, sweep_config):
    with pytest.raises(ValueError, match="theta"):
        sweep_threshold(dev_corpus, [0.5, 1.01], sweep_config, gee_index, mini_gee_corpus)


# --- retriever comparison ---


def test_compare_retrievers_rows(dev_corpus, mini_gee_corpus, sweep_config):
    rows = compare_retrievers(
        dev_corpus, ["tfidf_cosine", "bm25"], sweep_config, mini_gee_corpus
    )
    assert [row["ranking"] for row in rows] == ["tfidf_cosine", "bm25"]
    for row in rows:
        assert list(row) == ["ranking", "precision", "recall", "f_half", "mean_query_ms"]
        assert row["mean_query_ms"] >= 0.0
        assert 0.0 <= row["f_half"] <= 1.0
    # tfidf keeps the 0.6 gate: only the high query gets examples
    assert rows[0]["recall"] == pytest.approx(0.5)


def test_compare_retrievers_extracts_gold_edits_once(
    dev_corpus, mini_gee_corpus, sweep_config, monkeypatch
):
    calls = _count_edit_extractions(monkeypatch)
    rankings = ["tfidf_cosine", "bm25"]
    compare_retrievers(dev_corpus, rankings, sweep_config, mini_gee_corpus)
    n_refs = sum(len(rec.targets) for rec in dev_corpus)
    assert len(calls) == n_refs + len(rankings) * len(dev_corpus)


def test_compare_retrievers_embedding_needs_backend(
    dev_corpus, mini_gee_corpus, sweep_config, monkeypatch
):
    calls = []
    monkeypatch.setattr(pipeline_module, "complete", lambda *args: calls.append(args))
    with pytest.raises(PipelineError, match="embedding ranking requires"):
        compare_retrievers(dev_corpus, ["embedding"], sweep_config, mini_gee_corpus)
    assert calls == []  # checked before the first explanation


def test_compare_retrievers_checks_rankings_before_any_backend_call(
    dev_corpus, mini_gee_corpus, sweep_config, monkeypatch
):
    calls = []
    monkeypatch.setattr(pipeline_module, "complete", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="unknown ranking 'bm2'"):
        compare_retrievers(dev_corpus, ["tfidf_cosine", "bm2"], sweep_config, mini_gee_corpus)
    assert calls == []


def test_compare_retrievers_checks_the_field_before_any_backend_call(
    dev_corpus, mini_gee_corpus, sweep_config, monkeypatch
):
    calls = []
    monkeypatch.setattr(pipeline_module, "complete", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^unknown retriever field 'edits'$"):
        compare_retrievers(
            dev_corpus, ["tfidf_cosine"], sweep_config, mini_gee_corpus, field_name="edits"
        )
    assert calls == []


def test_compare_retrievers_builds_each_index_over_the_field_with_the_config(
    dev_corpus, mini_gee_corpus, sweep_config, monkeypatch
):
    builds = []
    real = pipeline_module.build_index
    monkeypatch.setattr(
        pipeline_module, "build_index",
        lambda corpus, field_name, config, **kw: builds.append((field_name, config))
        or real(corpus, field_name, config, **kw),
    )
    base = IndexConfig(ngram_min=1, ngram_max=2)
    rows = compare_retrievers(
        dev_corpus, ["bm25", "tfidf_cosine"], sweep_config, mini_gee_corpus,
        field_name="source", index_config=base,
    )
    assert [row["ranking"] for row in rows] == ["bm25", "tfidf_cosine"]
    assert builds == [("source", replace(base, ranking="bm25")),
                      ("source", replace(base, ranking="tfidf_cosine"))]
    # By default each index is built over the explanations with IndexConfig().
    builds.clear()
    compare_retrievers(dev_corpus, ["bm25"], sweep_config, mini_gee_corpus)
    assert builds == [("explanation", IndexConfig(ranking="bm25"))]


def test_compare_retrievers_query_time_leaves_out_embedding(
    dev_corpus, mini_gee_corpus, sweep_config, write_script, monkeypatch
):
    calls = []

    def slow_embed(texts, backend):
        calls.append(list(texts))
        time.sleep(0.2)
        return [[float(len(text)), 1.0] for text in texts]

    monkeypatch.setattr(pipeline_module, "embed", slow_embed)
    embedder = BackendConfig(kind="mock", script_path=write_script({}))  # its embed is slow_embed
    config = replace(sweep_config, embedding_backend=embedder)
    (row,) = compare_retrievers(dev_corpus, ["embedding"], config, mini_gee_corpus)
    assert row["mean_query_ms"] < 100.0
    # one call for the train index, one for the distinct dev explanations
    assert len(calls) == 2
    assert [Q_LOW, Q_HIGH] in calls


def test_pipeline_error_carries_stage():
    err = PipelineError("explain", "boom")
    assert err.stage == "explain"
    assert err.message == "boom"
    assert str(err) == "explain: boom"


def test_correction_outcome_is_frozen(gee_index, mini_gee_corpus, config):
    outcome = run_re2(INPUT_LOW, gee_index, mini_gee_corpus, config)
    assert isinstance(outcome, CorrectionOutcome)
    with pytest.raises(AttributeError):
        outcome.correction = "改"
