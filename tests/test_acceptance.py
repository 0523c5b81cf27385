"""Acceptance gate: ten deterministic end-to-end checks.

Each test covers one numbered criterion and prints a single
``[criterion N] PASS|FAIL - summary`` line, so ``pytest tests/test_acceptance.py -v -s``
reads as a checklist.  Timed criteria include their runtime in the line.
"""

import json
import random
import time

import pytest
from conftest import (
    GEE_DOCS,
    INPUT_HIGH,
    INPUT_LOW,
    Q_HIGH,
    Q_HIGH_BEST_SIM,
    Q_LOW,
    Q_LOW_BEST_SIM,
)

import oracles
from re2gec.cli import dispatch
from re2gec.corpus import Corpus, SentencePair
from re2gec.edit_extract import apply_edits, extract_edits
from re2gec.llm_backend import BackendConfig
from re2gec.pipeline import MODE_WITH, MODE_WITHOUT, Re2Config, build_sft_data, run_re2
from re2gec.prompting import load_template_set, render_gee_prompt
from re2gec.retriever import IndexConfig, build_index, query
from re2gec.scorer import detection_metrics, f_beta, rouge_l, score_corpus, score_sentence
from re2gec.segmentation import SegmenterConfig

SET = load_template_set("default")


def report(n: int, failures: list[str], summary: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {n}] {status} - {summary}")
    assert not failures, f"criterion {n}: " + "; ".join(failures[:5])


def example_blocks(prompt: str) -> int:
    return sum(1 for line in prompt.split("\n") if line.startswith("原句："))


def test_criterion_01_f_beta_reproduces_reported_rows():
    rows = [
        (64.49, 36.22, 55.78),
        (48.19, 37.14, 45.48),
        (66.33, 42.80, 59.76),
        (45.59, 40.18, 44.39),
    ]
    start = time.perf_counter()
    failures = []
    for p, r, expected in rows:
        got = round(f_beta(p / 100.0, r / 100.0, 0.5) * 100.0, 2)
        if abs(got - expected) > 0.01:
            failures.append(f"({p}, {r}) -> {got}, expected {expected}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    report(1, failures, f"F0.5 reproduces 4 frozen P/R rows within 0.01 ({elapsed:.3f}s < 1s)")


_POOLS = [
    "abcdefghij",
    "的了是在不我有这他中文句子语法错误修改",
    " \t，。！？、",
    "αβγδε",
    "😀🚀🌍",
]


def _rand_text(rng: random.Random, max_len: int = 40) -> str:
    return "".join(
        rng.choice(rng.choice(_POOLS)) for _ in range(rng.randint(0, max_len))
    )


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(0, 5)):
        op = rng.choice(("insert", "delete", "replace"))
        pos = rng.randint(0, len(text))
        piece = _rand_text(rng, 4)
        if op == "insert":
            text = text[:pos] + piece + text[pos:]
        elif text:
            end = min(len(text), pos + rng.randint(1, 4))
            text = text[:pos] + ("" if op == "delete" else piece) + text[end:]
    return text


def test_criterion_02_edit_round_trip_1000_pairs():
    rng = random.Random(20260814)
    configs = [SegmenterConfig(mode="character"), SegmenterConfig(mode="whitespace")]
    start = time.perf_counter()
    failures = []
    for i in range(1000):
        source = _rand_text(rng)
        target = _mutate(rng, source) if i % 2 == 0 else _rand_text(rng)
        for cfg in configs:
            edits = extract_edits(source, target, cfg)
            rebuilt = apply_edits(source, edits)
            if rebuilt != target:
                failures.append(f"{cfg.mode}: {source!r} -> {target!r} gave {rebuilt!r}")
                if len(failures) >= 5:
                    break
        if len(failures) >= 5:
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, limit 10s")
    report(
        2,
        failures,
        f"1000 randomized pairs round-trip under both segmenters ({elapsed:.2f}s < 10s)",
    )


_TYPES = ["主谓搭配不当", "语序不当", "成分残缺", "成分赘余", "结构混乱", "表意不明", "不合逻辑"]
_PARTS = [
    "谓语动词使用错误",
    "状语位置错误",
    "缺少宾语中心语",
    "主语重复多余",
    "两种句式杂糅在一起",
    "指代对象不明确",
    "前后表述互相矛盾",
]
_ACTIONS = [
    "应当替换为合适的动词",
    "应当将状语移到谓语之前",
    "应当在句末补出宾语",
    "应当删去多余的成分",
    "应当保留其中一种句式",
    "应当明确指代的对象",
    "应当修改使前后一致",
]


def _synth_corpus(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    ids = [f"d{i:03d}" for i in range(n)]
    texts = [
        f"{rng.choice(_TYPES)}，{rng.choice(_PARTS)}，{rng.choice(_ACTIONS)}"
        for _ in range(n)
    ]
    return ids, texts


def test_criterion_03_retrieval_matches_full_scan_oracle():
    rng = random.Random(7)
    ids, texts = _synth_corpus(rng, 200)
    corpus = Corpus(
        [
            SentencePair(id=i, source="原", targets=["改"], explanation=t)
            for i, t in zip(ids, texts)
        ],
    )
    start = time.perf_counter()
    index = build_index(corpus, "explanation", IndexConfig())
    queries = []
    for _ in range(50):
        fragments = [
            rng.choice(texts)[rng.randint(0, 10) : rng.randint(12, 24)]
            for _ in range(rng.randint(1, 3))
        ]
        queries.append("".join(fragments) or "空查询")
    failures = []
    for q in queries:
        for k in (1, 3, 5):
            got = query(index, q, k=k, theta=0.0)
            want = oracles.full_scan_topk(texts, ids, q, k)
            if [h.doc_id for h in got.hits] != [doc_id for doc_id, _ in want]:
                failures.append(f"k={k} ids differ for {q!r}")
                continue
            for hit, (_, score) in zip(got.hits, want):
                if abs(hit.score - score) > 1e-9:
                    failures.append(f"k={k} score {hit.score} vs {score} for {q!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, limit 10s")
    report(
        3,
        failures,
        f"200-doc/50-query top-k equals full-scan oracle for k in {{1,3,5}} ({elapsed:.2f}s < 10s)",
    )


def test_criterion_04_tfidf_normalization():
    rng = random.Random(11)
    ids, texts = _synth_corpus(rng, 60)
    corpus = Corpus(
        [
            SentencePair(id=i, source="原", targets=["改"], explanation=t)
            for i, t in zip(ids, texts)
        ],
    )
    index = build_index(corpus, "explanation", IndexConfig())
    failures = []
    for doc_id, vec in zip(index.doc_ids, oracles.doc_vectors(index)):
        if not vec:
            continue
        norm = sum(w * w for w in vec.values()) ** 0.5
        if abs(norm - 1.0) > 1e-9:
            failures.append(f"{doc_id}: norm {norm}")
    for doc_id, text in zip(ids, texts):
        hits = query(index, text, k=len(ids), theta=0.0).hits
        sim = next((hit.score for hit in hits if hit.doc_id == doc_id), 0.0)
        if abs(sim - 1.0) > 1e-9:
            failures.append(f"self-similarity {sim} for {text!r}")
    report(4, failures, "all doc vectors unit-norm and self-similarity 1.0 within 1e-9")


def test_criterion_05_threshold_gate_routing(mini_gee_corpus, write_script):
    index = build_index(mini_gee_corpus, "explanation", IndexConfig())
    explain = lambda text: render_gee_prompt(
        SentencePair(id="", source=text, targets=[text]), "input_only", SET
    )
    explainer = BackendConfig(
        kind="mock",
        script_path=write_script(
            {explain(INPUT_LOW): Q_LOW, explain(INPUT_HIGH): Q_HIGH}, fallback="none"
        ),
    )
    corrector = BackendConfig(kind="mock", script_path=write_script({}))
    config = Re2Config(backend=corrector, explainer_backend=explainer, k=3, theta=0.6)

    failures = []
    low = run_re2(INPUT_LOW, index, mini_gee_corpus, config)
    high = run_re2(INPUT_HIGH, index, mini_gee_corpus, config)
    best_low, best_high = low.hits.hits[0].score, high.hits.hits[0].score
    if round(best_low, 2) != 0.59 or abs(best_low - Q_LOW_BEST_SIM) > 1e-9:
        failures.append(f"low fixture similarity {best_low}")
    if round(best_high, 2) != 0.61 or abs(best_high - Q_HIGH_BEST_SIM) > 1e-9:
        failures.append(f"high fixture similarity {best_high}")
    if low.mode_used != MODE_WITHOUT:
        failures.append(f"0.59 fixture used {low.mode_used}")
    if high.mode_used != MODE_WITH:
        failures.append(f"0.61 fixture used {high.mode_used}")
    if example_blocks(high.prompt) != 3:
        failures.append(f"{example_blocks(high.prompt)} example blocks, expected 3")
    if example_blocks(low.prompt) != 0:
        failures.append("gated-off prompt still has example blocks")
    report(
        5,
        failures,
        "max-sim 0.59/0.61 fixtures route to without/with examples at theta 0.6, 3 blocks",
    )


def test_criterion_06_sft_builder_on_50_records(tmp_path):
    records = [
        SentencePair(
            id=f"t{i:02d}",
            source=f"第{i}句原文各自不同有待修改",
            targets=[f"第{i}句原文各自不同已经修改"],
            explanation=f"{_TYPES[i % 7]}，{_PARTS[i % 7]}，{_ACTIONS[i % 7]}",
        )
        for i in range(50)
    ]
    train = Corpus(records)
    index = build_index(train, "explanation", IndexConfig())
    unused = BackendConfig(kind="mock", script_path=str(tmp_path / "unused.json"))
    config = Re2Config(backend=unused, explainer_backend=unused, k=3)
    examples = build_sft_data(train, index, config)

    failures = []
    if len(examples) != 100:
        failures.append(f"{len(examples)} records, expected 100")
    with_blocks = [ex for ex in examples if example_blocks(ex.prompt) > 0]
    without_blocks = [ex for ex in examples if example_blocks(ex.prompt) == 0]
    if len(with_blocks) != 50 or len(without_blocks) != 50:
        failures.append(
            f"{len(with_blocks)} with / {len(without_blocks)} without example blocks"
        )
    by_id = {rec.id: rec for rec in records}
    for ex in examples:
        rec = by_id[ex.meta["id"]]
        own_block = f"原句：{rec.source} 纠正后：{rec.targets[0]}"
        if own_block in ex.prompt:
            failures.append(f"{rec.id}: own pair leaked into its prompt")
        if ex.meta["mode"] == MODE_WITH and rec.id in ex.meta["example_ids"]:
            failures.append(f"{rec.id}: own id in example_ids")
    report(6, failures, "N=50 yields 100 pairs, 50/50 with/without blocks, no self-leakage")


def test_criterion_07_rouge_l_desk_checks():
    failures = []
    if rouge_l("同一个句子", "同一个句子") != (1.0, 1.0, 1.0):
        failures.append(f"identical strings gave {rouge_l('同一个句子', '同一个句子')}")
    got = rouge_l("ace", "abcde")
    if got != (1.0, 0.6, 0.75):
        failures.append(f"('ace','abcde') gave {got}")
    report(7, failures, "identical -> 1.0 and ('ace','abcde') -> (1.0, 0.6, 0.75) exact")


def test_criterion_08_end_to_end_determinism(
    tmp_path, write_corpus, write_script, mini_gee_corpus
):
    gee_jsonl = write_corpus(
        [
            {
                "id": doc_id,
                "source": f"原句{i}",
                "targets": [f"改句{i}"],
                "explanation": text,
            }
            for i, (doc_id, text) in enumerate(GEE_DOCS)
        ]
    )
    dev_jsonl = write_corpus(
        [
            {"id": "devA", "source": INPUT_LOW, "targets": [INPUT_LOW]},
            {"id": "devB", "source": INPUT_HIGH, "targets": [INPUT_HIGH]},
        ]
    )
    explain = lambda text: render_gee_prompt(
        SentencePair(id="", source=text, targets=[text]), "input_only", SET
    )
    explainer_script = write_script(
        {explain(INPUT_LOW): Q_LOW, explain(INPUT_HIGH): Q_HIGH}, fallback="none"
    )
    corrector_script = write_script({})

    failures = []
    index_a, index_b = tmp_path / "a.re2idx", tmp_path / "b.re2idx"
    for out in (index_a, index_b):
        code = dispatch(["build-index", "--in", gee_jsonl, "--out", str(out)])
        if code != 0:
            failures.append(f"build-index exited {code}")
    if index_a.read_bytes() != index_b.read_bytes():
        failures.append("index files differ between runs")

    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (log_a, log_b):
        code = dispatch(
            [
                "correct",
                "--in", dev_jsonl,
                "--corpus", gee_jsonl,
                "--index", str(index_a),
                "--script", corrector_script,
                "--explainer-script", explainer_script,
                "--out", str(out),
            ]
        )
        if code != 0:
            failures.append(f"correct exited {code}")
    if log_a.read_bytes() != log_b.read_bytes():
        failures.append("outcome logs differ between runs")
    modes = [
        json.loads(line)["mode_used"]
        for line in log_a.read_text(encoding="utf-8").splitlines()
    ]
    if modes != [MODE_WITHOUT, MODE_WITH]:
        failures.append(f"unexpected modes {modes}")
    report(8, failures, "repeated build-index and correct runs are byte-identical")


def _score_items(items):
    return score_corpus(score_sentence(*item) for item in items)


def test_criterion_09_scorer_conventions():
    failures = []
    perfect = _score_items([("病句", "好句", ["好句"]), ("对的", "对的", ["对的"])])
    if (perfect.precision, perfect.recall, perfect.f_half) != (1.0, 1.0, 1.0):
        failures.append(f"all-correct fixture gave {perfect}")
    unchanged = _score_items([("病句啊", "病句啊", ["好句呢"])])
    if unchanged.recall != 0.0:
        failures.append(f"unchanged hypothesis recall {unchanged.recall}")
    hand = _score_items(
        [
            ("他昨天去了学校的", "她昨天去了学校的", ["她昨天去了学校"]),  # tp=1 fn=1
            ("abc", "abX", ["Ybc"]),                                      # fp=1 fn=1
            ("好句子", "好句子", ["好句子"]),                               # no edits
        ]
    )
    if (hand.tp, hand.fp, hand.fn) != (1, 1, 2):
        failures.append(f"hand-tallied fixture gave tp/fp/fn {(hand.tp, hand.fp, hand.fn)}")
    if abs(hand.precision - 0.5) > 1e-12 or abs(hand.recall - 1 / 3) > 1e-12:
        failures.append(f"hand-tallied P/R {(hand.precision, hand.recall)}")
    report(9, failures, "all-correct, unchanged-hypothesis, and hand-tallied fixtures match")


def test_criterion_10_detection_fixtures():
    failures = []
    exact = detection_metrics([("abcd", "XbcY", ["XbcY"])])
    if (exact.position_precision, exact.position_recall) != (1.0, 1.0):
        failures.append(
            f"exact-match positions {(exact.position_precision, exact.position_recall)}"
        )
    partial = detection_metrics([("abcd", "Xbcd", ["XbcY"])])  # hyp {0}, gold {0,3}
    if (partial.position_precision, partial.position_recall) != (1.0, 0.5):
        failures.append(
            f"partial-overlap positions {(partial.position_precision, partial.position_recall)}"
        )
    disjoint = detection_metrics([("abcd", "Xbcd", ["abcY"])])  # hyp {0}, gold {3}
    if (disjoint.position_precision, disjoint.position_recall) != (0.0, 0.0):
        failures.append(
            f"disjoint positions {(disjoint.position_precision, disjoint.position_recall)}"
        )
    report(10, failures, "exact/partial/disjoint span fixtures give (1,1), (1,0.5), (0,0)")
