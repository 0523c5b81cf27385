import importlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import (
    GEE_DOCS,
    INPUT_HIGH,
    INPUT_LOW,
    Q_HIGH,
    Q_LOW,
    TARGET_HIGH,
    TARGET_LOW,
)
from test_llm_backend import stub_server

import re2gec
from re2gec.cli import dispatch
from re2gec.corpus import SentencePair
from re2gec.prompting import load_template_set, render_gec_prompt, render_gee_prompt
from re2gec.retriever import load_index
from re2gec.retriever import query as lib_query
from re2gec.scorer import detection_metrics, rouge_l, score_corpus, score_sentence

SET = load_template_set("default")


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = dispatch(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def gee_jsonl(write_corpus):
    return write_corpus(
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


@pytest.fixture
def dev_jsonl(write_corpus):
    return write_corpus(
        [
            {"id": "devA", "source": INPUT_LOW, "targets": [TARGET_LOW]},
            {"id": "devB", "source": INPUT_HIGH, "targets": [TARGET_HIGH]},
        ]
    )


@pytest.fixture
def index_file(run, gee_jsonl, tmp_path):
    path = tmp_path / "gee.re2idx"
    code, _, err = run("build-index", "--in", gee_jsonl, "--out", str(path))
    assert code == 0, err
    return str(path)


def explain_prompt(text: str) -> str:
    return render_gee_prompt(
        SentencePair(id="", source=text, targets=[text]), "input_only", SET
    )


@pytest.fixture
def explainer_script(write_script):
    return write_script(
        {explain_prompt(INPUT_LOW): Q_LOW, explain_prompt(INPUT_HIGH): Q_HIGH},
        fallback="none",
    )


@pytest.fixture
def corrector_script(write_script, index_file):
    # with-examples prompts answer with the gold target; everything else echoes
    return write_script(_correction_pairs(load_index(index_file)))


def _correction_pairs(index):
    corpus_by_id = {
        doc_id: (f"原句{i}", f"改句{i}") for i, (doc_id, _) in enumerate(GEE_DOCS)
    }
    pairs = {}
    for explanation, input_text, target in (
        (Q_LOW, INPUT_LOW, TARGET_LOW),
        (Q_HIGH, INPUT_HIGH, TARGET_HIGH),
    ):
        hits = lib_query(index, explanation, k=3, theta=0.0).hits
        examples = [corpus_by_id[h.doc_id] for h in hits]
        pairs[render_gec_prompt(input_text, examples, SET)] = target
    return pairs


# --- exit codes ---


def test_no_arguments_is_usage_error(run):
    code, _, _ = run()
    assert code == 2


def test_unknown_subcommand_is_usage_error(run):
    code, _, _ = run("frobnicate")
    assert code == 2


def test_missing_required_option_is_usage_error(run):
    code, _, err = run("query", "--text", "x")
    assert code == 2
    assert "missing required option --index" in err


def test_build_index_requires_out_as_its_help_says(run, gee_jsonl):
    code, out, _ = run("build-index", "--help")
    assert code == 0
    assert "index file to write (required)" in " ".join(out.split())
    code, _, err = run("build-index", "--in", gee_jsonl)
    assert code == 2
    assert "missing required option --out" in err


def test_runtime_error_exits_one(run, tmp_path):
    code, _, err = run(
        "build-index", "--in", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "i")
    )
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "\ud800", "explanation": "主谓搭配"}, r"record '\ud800': the id"),
        ({"id": "d1", "explanation": "主谓\udfff搭配"}, "record 'd1': the explanation"),
    ],
    ids=["surrogate id", "surrogate text"],
)
def test_lone_surrogate_record_is_one_error_line(run, tmp_path, record, message):
    # json.dumps escapes the lone surrogates, and load_corpus accepts the escapes.
    records = [{"id": "d0", "explanation": "正常的解释"}, record]
    infile = tmp_path / "gee.jsonl"
    infile.write_text(
        "".join(json.dumps({"source": "s", "targets": ["t"], **r}) + "\n" for r in records),
        encoding="ascii",
    )
    code, out, err = run("build-index", "--in", str(infile), "--out", str(tmp_path / "i"))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line == f"error: {message} has a lone surrogate, which UTF-8 cannot encode"
    assert not (tmp_path / "i").exists()


def test_correct_without_backend_is_usage_error(run, dev_jsonl, gee_jsonl, index_file):
    code, _, err = run(
        "correct", "--in", dev_jsonl, "--corpus", gee_jsonl, "--index", index_file
    )
    assert code == 2
    assert "missing required option --script" in err


def test_backend_kind_without_script_is_usage_error(run, dev_jsonl, gee_jsonl, index_file):
    code, _, err = run(
        "correct", "--in", dev_jsonl, "--corpus", gee_jsonl, "--index", index_file,
        "--backend", "mock",
    )
    assert code == 2
    assert "missing required option --script" in err


def test_http_backend_without_endpoint_is_usage_error(run, dev_jsonl, gee_jsonl, index_file):
    code, _, err = run(
        "correct", "--in", dev_jsonl, "--corpus", gee_jsonl, "--index", index_file,
        "--backend", "http",
    )
    assert code == 2
    assert "missing required option --endpoint" in err


def test_missing_input_names_its_flag(run, write_script):
    code, _, err = run("explain", "--explainer-script", write_script({}))
    assert code == 2
    assert err.splitlines() == ["usage error: missing required option --in"]


# --- output ---

TEXT_COMMANDS = [
    "extract-edits", "query", "explain", "correct", "baseline", "score", "rouge", "detect",
    "make-sft-data", "sweep-theta", "compare-retrievers",
]


@pytest.fixture
def text_commands(
    dev_jsonl, gee_jsonl, index_file, explainer_script, corrector_script, write_corpus, tmp_path
):
    """Per command that writes text: the argv of one run and its number of output lines."""
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(f"{TARGET_LOW}\n{INPUT_HIGH}\n", encoding="utf-8")
    pairs = write_corpus([{"source": "AXB", "target": "AB"}, {"source": "ab", "target": "ba"}])
    backends = ("--script", corrector_script, "--explainer-script", explainer_script)
    return {
        "extract-edits": (("--in", pairs), 2),
        "query": (("--index", index_file, "--text", Q_HIGH), 1),
        "explain": (("--in", dev_jsonl, "--explainer-script", explainer_script), 2),
        "correct": (("--in", dev_jsonl, "--corpus", gee_jsonl, "--index", index_file,
                     *backends), 2),
        "baseline": (("--mode", "zero_shot", "--in", dev_jsonl, "--corpus", gee_jsonl,
                      "--script", corrector_script), 2),
        "score": (("--src", dev_jsonl, "--hyp", str(hyp)), 1),
        "rouge": (("--candidate", "ace", "--reference", "abcde"), 1),
        "detect": (("--src", dev_jsonl, "--hyp", str(hyp)), 1),
        "make-sft-data": (("--train", gee_jsonl, "--index", index_file), 2 * len(GEE_DOCS)),
        "sweep-theta": (("--dev", dev_jsonl, "--train", gee_jsonl, "--index", index_file,
                         "--thetas", "0.0,0.6", *backends), 1),
        "compare-retrievers": (("--dev", dev_jsonl, "--train", gee_jsonl,
                                "--rankings", "tfidf_cosine", *backends), 1),
    }


@pytest.mark.parametrize("command", TEXT_COMMANDS)
def test_stdout_and_out_file_get_the_same_lines(run, text_commands, command, tmp_path):
    argv, n_lines = text_commands[command]
    code, stdout, err = run(command, *argv)
    assert code == 0, err
    path = tmp_path / "out.txt"
    assert run(command, *argv, "--out", str(path)) == (0, "", "")
    written = path.read_bytes().decode("utf-8")
    for text in (stdout, written):
        lines = text.split("\n")
        assert len(lines) == n_lines + 1 and lines[-1] == ""
        assert all(json.loads(line) is not None for line in lines[:-1])
    if command == "compare-retrievers":  # mean_query_ms is a timing
        stdout, written = (
            [{**row, "mean_query_ms": 0.0} for row in json.loads(text)]
            for text in (stdout, written)
        )
    assert written == stdout


@pytest.mark.parametrize("command", ["extract-edits", "explain", "correct", "baseline"])
def test_empty_input_gives_empty_output(run, text_commands, command, write_corpus, tmp_path):
    argv = list(text_commands[command][0])
    argv[argv.index("--in") + 1] = write_corpus([])
    assert run(command, *argv) == (0, "", "")
    path = tmp_path / "out.jsonl"
    assert run(command, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("command", [*TEXT_COMMANDS, "build-index"])
def test_out_in_a_missing_directory_fails_before_any_work(
    run, text_commands, gee_jsonl, write_script, monkeypatch, tmp_path, command
):
    if command == "build-index":  # an embedding build calls a backend
        argv = ("--in", gee_jsonl, "--ranking", "embedding", "--embed-script", write_script({}))
    else:
        argv = text_commands[command][0]
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for module, name in [(re2gec.pipeline, "complete"), (re2gec.pipeline, "embed"),
                         (re2gec.cli, "load_corpus"), (re2gec.cli, "load_index"),
                         (re2gec.cli, "string_fields")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    out = tmp_path / "missing" / "out.jsonl"
    code, stdout, err = run(command, *argv, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"error: --out {str(out)!r}: no directory {str(out.parent)!r}"]
    assert calls == []
    assert not out.parent.exists()


def test_failed_run_leaves_out_as_it_was(run, text_commands, write_script, tmp_path):
    argv = list(text_commands["correct"][0])
    argv[argv.index("--explainer-script") + 1] = write_script({}, fallback="none")
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_bytes(b"old\n")
    for path in (old, new):
        code, _, err = run("correct", *argv, "--out", str(path))
        assert code == 1
        assert err.startswith("error: explain: mock backend: no scripted response")
    assert old.read_bytes() == b"old\n"
    assert not new.exists()


def test_out_may_name_an_input_file(run, write_corpus):
    pairs = write_corpus([{"source": "ab", "target": "ba"}])
    assert run("extract-edits", "--in", pairs, "--out", pairs) == (0, "", "")
    assert Path(pairs).read_text(encoding="utf-8") == '[[0,"a",""],[2,"","a"]]\n'


@pytest.mark.parametrize(
    "command, single, files, message",
    [
        ("explain", {"text": "句子"}, {"infile": "in.jsonl"}, "--text and --in"),
        ("extract-edits", {"source": "ab", "target": "ba"}, {"infile": "in.jsonl"},
         "--source/--target and --in"),
        ("extract-edits", {"target": "ba"}, {"infile": "in.jsonl"},
         "--source/--target and --in"),
        ("rouge", {"candidate": "ace", "reference": "abcde"},
         {"cand_file": "c.txt", "ref_file": "r.txt"},
         "--candidate/--reference and --cand-file/--ref-file"),
        ("rouge", {"reference": "abcde"}, {"cand_file": "c.txt"},
         "--candidate/--reference and --cand-file/--ref-file"),
    ],
    ids=["explain", "extract-edits", "extract-edits target only", "rouge", "rouge one each"],
)
@pytest.mark.parametrize("files_via", ["flags", "manifest"])
def test_single_input_and_file_input_are_mutually_exclusive(
    run, write_script, tmp_path, command, single, files, message, files_via
):
    argv = [command]
    for name, value in single.items():
        argv += [f"--{name}", value]
    # None of the files exists, so reading one would exit 1, not 2.
    files = {name: str(tmp_path / value) for name, value in files.items()}
    if files_via == "flags":
        flags = {"infile": "--in", "cand_file": "--cand-file", "ref_file": "--ref-file"}
        for name, path in files.items():
            argv += [flags[name], path]
    else:
        manifest = tmp_path / "config.json"
        manifest.write_text(json.dumps(files), encoding="utf-8")
        argv += ["--config", str(manifest)]
    if command == "explain":
        argv += ["--explainer-script", write_script({})]
    assert run(*argv) == (2, "", f"usage error: {message} are mutually exclusive\n")


# --- edits ---


def test_extract_edits_single_pair(run):
    code, out, _ = run("extract-edits", "--source", "ab", "--target", "ba")
    assert code == 0
    assert out.strip() == '[[0,"a",""],[2,"","a"]]'


def test_extract_edits_whitespace_mode(run):
    code, out, _ = run(
        "extract-edits", "--source", "the cat sat", "--target", "the dog sat",
        "--segmenter", "whitespace",
    )
    assert code == 0
    assert json.loads(out) == [[4, "cat", "dog"]]


def test_extract_edits_file_mode(run, tmp_path):
    infile = tmp_path / "pairs.jsonl"
    infile.write_text(
        json.dumps({"source": "AXB", "target": "AB"})
        + "\n"
        + json.dumps({"source": "ab", "target": "ba"})
        + "\n",
        encoding="utf-8",
    )
    outfile = tmp_path / "edits.jsonl"
    code, _, _ = run("extract-edits", "--in", str(infile), "--out", str(outfile))
    assert code == 0
    lines = outfile.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        [[1, "X", ""]],
        [[0, "a", ""], [2, "", "a"]],
    ]


_GOOD_PAIR = json.dumps({"source": "AXB", "target": "AB"})
_GOOD_HYP = json.dumps({"id": "devA", "correction": TARGET_LOW})


@pytest.mark.parametrize(
    "command, bad_line, message",
    [
        ("extract-edits", "[1, 2]", "record must be a JSON object"),
        ("extract-edits", '{"source": 5, "target": "AB"}', "source must be a string"),
        ("extract-edits", '{"source": "AB"}', "missing required field 'target'"),
        ("extract-edits", '{"source": "AB", "target"', "invalid JSON"),
        ("score", "[1]", "record must be a JSON object"),
        ("score", '{"id": "devB"}', "missing required field 'correction'"),
        ("score", '{"id": "devB", "correction": 5}', "correction must be a string"),
    ],
    ids=[
        "pair not an object", "source not a string", "target missing", "pair bad JSON",
        "log line not an object", "correction missing", "correction not a string",
    ],
)
def test_bad_scoring_input_line_is_one_error_line(
    run, dev_jsonl, tmp_path, command, bad_line, message
):
    infile = tmp_path / "in.jsonl"
    good = _GOOD_PAIR if command == "extract-edits" else _GOOD_HYP
    infile.write_text(f"{good}\n{bad_line}\n", encoding="utf-8")
    if command == "extract-edits":
        code, out, err = run("extract-edits", "--in", str(infile))
    else:
        code, out, err = run("score", "--src", dev_jsonl, "--hyp-log", str(infile))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: line 2: {message}")


def test_score_per_sentence_scores_each_sentence_once(run, write_corpus, tmp_path, monkeypatch):
    import re2gec.scorer

    src = write_corpus(
        [
            {"id": "a", "source": "他昨天去学校了的", "targets": ["他昨天去学校了"]},
            {"id": "b", "source": "我很喜欢吃苹果苹果",
             "targets": ["我很喜欢吃苹果", "我很喜欢吃苹果。"]},
            {"id": "c", "source": "她看书在图书馆", "targets": ["她在图书馆看书", "她在图书馆里看书"]},
            {"id": "d", "source": "正确的句子", "targets": ["正确的句子"]},
        ]
    )
    hyp = tmp_path / "hyp.txt"
    hyps = ["他昨天去学校了", "我很喜欢吃苹果。", "她在图书馆看书了", "正确的句子呀"]
    hyp.write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
    calls = []
    original = re2gec.scorer.char_level_edits

    def counting(source, target):
        calls.append((source, target))
        return original(source, target)

    monkeypatch.setattr(re2gec.scorer, "char_level_edits", counting)
    tsv = tmp_path / "per.tsv"
    code, out, _ = run("score", "--src", src, "--hyp", str(hyp), "--per-sentence", str(tsv))
    assert code == 0
    # one extraction per hypothesis, then one per reference, sentence by sentence
    records = [json.loads(line) for line in Path(src).read_text(encoding="utf-8").splitlines()]
    assert calls == [
        (rec["source"], text)
        for rec, h in zip(records, hyps)
        for text in [h, *rec["targets"]]
    ]
    # expected bytes are the output of the two-pass scorer this replaced
    assert out == (
        '{"tp": 3, "fp": 2, "fn": 1, "precision": 0.6, "recall": 0.75, "f0.5": 0.625}\n'
    )
    assert tsv.read_text(encoding="utf-8") == (
        "index\ttp\tfp\tfn\tchosen_reference\n"
        "0\t1\t0\t0\t0\n"
        "1\t1\t0\t0\t1\n"
        "2\t1\t1\t1\t0\n"
        "3\t0\t1\t0\t0\n"
    )


# --- index and query ---


def test_build_index_and_query_match_library(run, index_file):
    code, out, _ = run(
        "query", "--index", index_file, "--text", Q_HIGH, "--k", "3", "--theta", "0.6"
    )
    assert code == 0
    got = json.loads(out)
    want = lib_query(load_index(index_file), Q_HIGH, k=3, theta=0.6).to_dict()
    assert got == want
    assert got["gate_open"] is True
    assert len(got["hits"]) == 3


def test_query_gate_closed_below_threshold(run, index_file):
    code, out, _ = run(
        "query", "--index", index_file, "--text", Q_LOW, "--theta", "0.6"
    )
    assert code == 0
    assert json.loads(out)["gate_open"] is False


def test_query_exclude_ids(run, index_file):
    code, out, _ = run(
        "query", "--index", index_file, "--text", Q_HIGH, "--exclude", "d0,d1",
        "--theta", "0.0",
    )
    assert code == 0
    ids = [doc_id for doc_id, _ in json.loads(out)["hits"]]
    assert ids == ["d2"]


# --- embedding backend ---


def _vector(text: str) -> list[float]:
    """A toy embedding: counts of a few characters, plus one."""
    return [float(text.count(ch)) for ch in "谓序缺"] + [1.0]


def test_embedding_index_round_trip_with_mock_script(run, gee_jsonl, write_script, tmp_path):
    script = write_script({text: _vector(text) for _, text in GEE_DOCS})
    index = str(tmp_path / "emb.re2idx")
    code, _, err = run(
        "build-index", "--in", gee_jsonl, "--ranking", "embedding", "--embed-script", script,
        "--out", index,
    )
    assert code == 0, err
    code, out, err = run("query", "--index", index, "--text", GEE_DOCS[1][1],
                         "--theta", "0.0", "--embed-script", script)
    assert code == 0, err
    got = json.loads(out)
    want = lib_query(load_index(index), GEE_DOCS[1][1], k=3, theta=0.0,
                     embedder=lambda texts: [_vector(t) for t in texts])
    assert got == want.to_dict()
    assert got["hits"][0] == ["d1", pytest.approx(1.0)]


def test_embed_endpoint_alone_selects_the_http_backend(run, gee_jsonl, tmp_path):
    def responder(record, _n):
        texts = record["body"]["input"]
        return 200, {"data": [{"index": i, "embedding": _vector(t)} for i, t in enumerate(texts)]}

    index = str(tmp_path / "emb.re2idx")
    with stub_server(responder) as (url, server):
        code, _, err = run("build-index", "--in", gee_jsonl, "--ranking", "embedding",
                           "--embed-endpoint", url, "--out", index)
        assert code == 0, err
        code, out, err = run("query", "--index", index, "--text", GEE_DOCS[2][1],
                             "--embed-endpoint", url)
        assert code == 0, err
    assert [rec["path"] for rec in server.requests] == ["/embeddings", "/embeddings"]
    assert json.loads(out)["hits"][0] == ["d2", pytest.approx(1.0)]


@pytest.mark.parametrize(
    "kind, missing", [("mock", "--embed-script"), ("http", "--embed-endpoint")]
)
def test_embed_backend_without_its_source_is_usage_error(
    run, gee_jsonl, tmp_path, kind, missing
):
    code, out, err = run("build-index", "--in", gee_jsonl, "--ranking", "embedding",
                         "--embed-backend", kind, "--out", str(tmp_path / "i"))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"usage error: missing required option {missing}"]


# --- explain / correct ---


def test_explain_single_text(run, explainer_script):
    code, out, _ = run(
        "explain", "--text", INPUT_LOW, "--explainer-script", explainer_script
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {"id": "", "source": INPUT_LOW, "explanation": Q_LOW}


def test_explain_corpus_file(run, dev_jsonl, explainer_script):
    code, out, _ = run(
        "explain", "--in", dev_jsonl, "--explainer-script", explainer_script
    )
    assert code == 0
    recs = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["id"] for r in recs] == ["devA", "devB"]
    assert [r["explanation"] for r in recs] == [Q_LOW, Q_HIGH]


def test_explain_failure_names_the_stage(run, explainer_script):
    code, out, err = run("explain", "--text", "未知的句子", "--explainer-script", explainer_script)
    assert code == 1
    assert out == ""
    assert err.startswith("error: explain: mock backend: no scripted response")


def test_correct_end_to_end_and_determinism(
    run, dev_jsonl, gee_jsonl, index_file, explainer_script, corrector_script, tmp_path
):
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out_path in (out_a, out_b):
        code, _, err = run(
            "correct",
            "--in", dev_jsonl,
            "--corpus", gee_jsonl,
            "--index", index_file,
            "--script", corrector_script,
            "--explainer-script", explainer_script,
            "--out", str(out_path),
        )
        assert code == 0, err
    assert out_a.read_bytes() == out_b.read_bytes()
    outcomes = [
        json.loads(line) for line in out_a.read_text(encoding="utf-8").splitlines()
    ]
    assert [o["mode_used"] for o in outcomes] == ["without_examples", "with_examples"]
    assert outcomes[0]["correction"] == INPUT_LOW  # echo fallback, gate closed
    assert outcomes[1]["correction"] == TARGET_HIGH
    assert outcomes[1]["hits"]["gate_open"] is True


# --- baseline ---


def test_baseline_random_k_seed_determinism(run, dev_jsonl, gee_jsonl, write_script):
    script = write_script({})
    argv = (
        "baseline", "--mode", "random_k", "--in", dev_jsonl, "--corpus", gee_jsonl,
        "--script", script, "--seed", "7",
    )
    code_a, out_a, _ = run(*argv)
    code_b, out_b, _ = run(*argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    outcomes = [json.loads(line) for line in out_a.strip().split("\n")]
    assert all(o["mode_used"] == "with_examples" for o in outcomes)
    assert all(len(o["hits"]["hits"]) == 3 for o in outcomes)


def test_baseline_zero_shot(run, dev_jsonl, gee_jsonl, write_script):
    code, out, _ = run(
        "baseline", "--mode", "zero_shot", "--in", dev_jsonl, "--corpus", gee_jsonl,
        "--script", write_script({}),
    )
    assert code == 0
    outcomes = [json.loads(line) for line in out.strip().split("\n")]
    assert all(o["mode_used"] == "without_examples" for o in outcomes)
    assert [o["correction"] for o in outcomes] == [INPUT_LOW, INPUT_HIGH]


def test_baseline_requires_mode(run, dev_jsonl, gee_jsonl, write_script):
    code, _, err = run(
        "baseline", "--in", dev_jsonl, "--corpus", gee_jsonl,
        "--script", write_script({}),
    )
    assert code == 2
    assert "missing required option --mode" in err


# --- scoring commands ---


def test_score_with_hyp_file(run, dev_jsonl, tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(f"{TARGET_LOW}\n{INPUT_HIGH}\n", encoding="utf-8")
    code, out, _ = run("score", "--src", dev_jsonl, "--hyp", str(hyp))
    assert code == 0
    report = json.loads(out)
    assert (report["tp"], report["fp"], report["fn"]) == (1, 0, 1)
    assert report["precision"] == 1.0
    assert report["recall"] == 0.5
    assert 0.0 < report["f0.5"] < 1.0


def test_score_from_outcome_log_with_per_sentence(
    run, dev_jsonl, gee_jsonl, index_file, explainer_script, corrector_script, tmp_path
):
    log = tmp_path / "log.jsonl"
    code, _, _ = run(
        "correct", "--in", dev_jsonl, "--corpus", gee_jsonl, "--index", index_file,
        "--script", corrector_script, "--explainer-script", explainer_script,
        "--out", str(log),
    )
    assert code == 0
    tsv = tmp_path / "per.tsv"
    code, out, _ = run(
        "score", "--src", dev_jsonl, "--hyp-log", str(log), "--per-sentence", str(tsv)
    )
    assert code == 0
    report = json.loads(out)
    # devA echoes (miss), devB is corrected (hit)
    assert (report["tp"], report["fp"], report["fn"]) == (1, 0, 1)
    lines = tsv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index\ttp\tfp\tfn\tchosen_reference"
    assert len(lines) == 3


def test_score_count_mismatch(run, dev_jsonl, tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("只有一行\n", encoding="utf-8")
    code, _, err = run("score", "--src", dev_jsonl, "--hyp", str(hyp))
    assert code == 1
    assert "2 sources but 1 hypotheses" in err


def test_rouge_single_pair_golden(run):
    code, out, _ = run("rouge", "--candidate", "ace", "--reference", "abcde")
    assert code == 0
    report = json.loads(out)
    assert report["precision"] == pytest.approx(1.0, abs=1e-9)
    assert report["recall"] == pytest.approx(0.6, abs=1e-9)
    assert report["f1"] == pytest.approx(0.75, abs=1e-9)


def test_rouge_file_mode(run, tmp_path):
    cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
    cand.write_text("ace\n同一句\n", encoding="utf-8")
    ref.write_text("abcde\n同一句\n", encoding="utf-8")
    code, out, _ = run("rouge", "--cand-file", str(cand), "--ref-file", str(ref))
    assert code == 0
    report = json.loads(out)
    assert len(report["pairs"]) == 2
    assert report["mean_precision"] == pytest.approx(1.0)
    assert report["mean_recall"] == pytest.approx((0.6 + 1.0) / 2)
    assert report["mean_f1"] == pytest.approx((0.75 + 1.0) / 2)


def test_detect_output_shape(run, dev_jsonl, tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(f"{TARGET_LOW}\n{TARGET_HIGH}\n", encoding="utf-8")
    code, out, _ = run("detect", "--src", dev_jsonl, "--hyp", str(hyp))
    assert code == 0
    report = json.loads(out)
    assert report["sentence_level"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert report["position_level"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


# str.splitlines() would also break at these; in a plain-text line file they
# are part of the sentence.  A lone \r is too: only \n ends a line.
LINE_BREAK_LOOKALIKES = {"u2028": "\u2028", "u0085": "\x85", "formfeed": "\x0c", "lone_cr": "\r"}


@pytest.mark.parametrize("char", LINE_BREAK_LOOKALIKES.values(), ids=LINE_BREAK_LOOKALIKES.keys())
def test_plain_text_line_files_split_at_newline_only(run, dev_jsonl, tmp_path, char):
    odd = TARGET_LOW[:2] + char + TARGET_LOW[2:]
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(f"{odd}\n{TARGET_HIGH}\n", encoding="utf-8", newline="")
    items = [(INPUT_LOW, odd, [TARGET_LOW]), (INPUT_HIGH, TARGET_HIGH, [TARGET_HIGH])]

    code, out, err = run("score", "--src", dev_jsonl, "--hyp", str(hyp))
    assert code == 0, err
    report = score_corpus(score_sentence(*item) for item in items)
    assert json.loads(out) == {
        "tp": report.tp, "fp": report.fp, "fn": report.fn,
        "precision": report.precision, "recall": report.recall, "f0.5": report.f_half,
    }
    assert report.fp == 1

    code, out, err = run("detect", "--src", dev_jsonl, "--hyp", str(hyp))
    assert code == 0, err
    assert json.loads(out) == detection_metrics(items).to_dict()

    cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
    cand.write_text(f"{odd}\n同一句\n", encoding="utf-8", newline="")
    ref.write_text(f"{TARGET_LOW}\n同一句\n", encoding="utf-8", newline="")
    code, out, err = run("rouge", "--cand-file", str(cand), "--ref-file", str(ref))
    assert code == 0, err
    pairs = json.loads(out)["pairs"]
    assert [tuple(p.values()) for p in pairs] == [rouge_l(odd, TARGET_LOW), (1.0, 1.0, 1.0)]


def test_crlf_line_files_read_as_lf(run, dev_jsonl, tmp_path):
    def write(name, lines, eol):
        path = tmp_path / f"{name}-{len(eol)}.txt"
        path.write_text("".join(line + eol for line in lines), encoding="utf-8", newline="")
        return str(path)

    outputs = []
    for eol in ("\n", "\r\n"):
        hyp = write("hyp", [TARGET_LOW, INPUT_HIGH], eol)
        cand = write("cand", ["ace", "同一句", ""], eol)
        ref = write("ref", ["abcde", "同一句", "空"], eol)
        outputs.append(
            [
                run("score", "--src", dev_jsonl, "--hyp", hyp),
                run("detect", "--src", dev_jsonl, "--hyp", hyp),
                run("rouge", "--cand-file", cand, "--ref-file", ref),
            ]
        )
    lf, crlf = outputs
    assert crlf == lf
    assert [code for code, _, _ in lf] == [0, 0, 0]
    assert len(json.loads(lf[2][1])["pairs"]) == 3


# --- data construction and studies ---


@pytest.mark.parametrize("command", ["correct", "baseline", "make-sft-data", "sweep-theta"])
def test_index_over_another_corpus_is_rejected(
    run, command, gee_jsonl, dev_jsonl, write_corpus, write_script, tmp_path
):
    other = write_corpus(
        [
            {
                "id": doc_id,
                # Record 0 differs from gee_jsonl's in both indexable fields.
                "source": f"原句{i}" if i else "别的句子",
                "targets": [f"改句{i}"],
                "explanation": text if i else text + "。",
            }
            for i, (doc_id, text) in enumerate(GEE_DOCS)
        ]
    )
    field = "source" if command == "baseline" else "explanation"
    index = str(tmp_path / "other.re2idx")
    code, _, err = run("build-index", "--in", other, "--field", field, "--out", index)
    assert code == 0, err
    script = write_script({})
    argv = {
        "correct": ("correct", "--in", dev_jsonl, "--corpus", gee_jsonl,
                    "--script", script, "--explainer-script", script),
        "baseline": ("baseline", "--mode", "textsim", "--in", dev_jsonl, "--corpus", gee_jsonl,
                     "--script", script),
        "make-sft-data": ("make-sft-data", "--train", gee_jsonl),
        "sweep-theta": ("sweep-theta", "--dev", dev_jsonl, "--train", gee_jsonl,
                        "--thetas", "0.5", "--script", script, "--explainer-script", script),
    }[command]
    code, out, err = run(*argv, "--index", index)
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert f"index does not match the corpus: it was built over the {field} field" in lines[0]


def test_make_sft_data_needs_no_backend(run, gee_jsonl, index_file):
    code, out, err = run("make-sft-data", "--train", gee_jsonl, "--index", index_file)
    assert code == 0, err
    examples = [json.loads(line) for line in out.strip().split("\n")]
    assert len(examples) == 2 * len(GEE_DOCS)
    modes = [ex["meta"]["mode"] for ex in examples]
    assert modes == ["with_examples", "without_examples"] * len(GEE_DOCS)
    for ex in examples:
        if ex["meta"]["mode"] == "with_examples":
            assert ex["meta"]["id"] not in ex["meta"]["example_ids"]


def test_sweep_theta_rows(
    run, dev_jsonl, gee_jsonl, index_file, explainer_script, corrector_script
):
    code, out, err = run(
        "sweep-theta", "--dev", dev_jsonl, "--train", gee_jsonl, "--index", index_file,
        "--thetas", "0.0,0.6,1.0",
        "--script", corrector_script, "--explainer-script", explainer_script,
    )
    assert code == 0, err
    rows = json.loads(out)
    assert [row["theta"] for row in rows] == [0.0, 0.6, 1.0]
    for row in rows:
        assert list(row) == ["theta", "precision", "recall", "f_half"]
    assert rows[0]["f_half"] == pytest.approx(1.0)
    assert rows[1]["recall"] == pytest.approx(0.5)
    assert rows[2]["recall"] == pytest.approx(0.0)


def test_compare_retrievers_rows(
    run, dev_jsonl, gee_jsonl, explainer_script, corrector_script
):
    code, out, err = run(
        "compare-retrievers", "--dev", dev_jsonl, "--train", gee_jsonl,
        "--rankings", "tfidf_cosine,bm25",
        "--script", corrector_script, "--explainer-script", explainer_script,
    )
    assert code == 0, err
    rows = json.loads(out)
    assert [row["ranking"] for row in rows] == ["tfidf_cosine", "bm25"]
    for row in rows:
        assert list(row) == ["ranking", "precision", "recall", "f_half", "mean_query_ms"]


def test_compare_retrievers_has_no_ranking_option(run, dev_jsonl, gee_jsonl, corrector_script):
    code, out, err = run(
        "compare-retrievers", "--dev", dev_jsonl, "--train", gee_jsonl,
        "--rankings", "tfidf_cosine", "--script", corrector_script, "--ranking", "bm25",
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --ranking bm25" in err


@pytest.mark.parametrize(
    "thetas, manifest, message",
    [
        ("0.5,abc", None, "argument --thetas: not a number: 'abc'"),
        ("1.5", None, "argument --thetas: theta must lie in [0, 1], got 1.5"),
        ("0.5,,0.6", None, "argument --thetas: not a number: ''"),
        (None, "0.5,abc", "usage error: config key 'thetas'"),
        (None, [0.5, 1.5], "usage error: config key 'thetas'"),
    ],
    ids=["flag not a number", "flag out of range", "flag empty item", "manifest string",
         "manifest list"],
)
def test_sweep_theta_rejects_thetas_before_reading_files(
    run, monkeypatch, tmp_path, write_script, thetas, manifest, message
):
    loads = []
    monkeypatch.setattr(re2gec.cli, "load_corpus", lambda *args, **kw: loads.append(args))
    missing = str(tmp_path / "missing.jsonl")
    script = write_script({})
    argv = ["sweep-theta", "--dev", missing, "--train", missing, "--index", missing,
            "--script", script, "--explainer-script", script]
    if thetas is not None:
        argv += ["--thetas", thetas]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"thetas": manifest}), encoding="utf-8")
        argv += ["--config", str(path)]
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert message in err.splitlines()[-1]
    assert loads == []


@pytest.mark.parametrize(
    "rankings, manifest, code, message",
    [
        ("tfidf_cosine,bm2", None, 2, "argument --rankings: unknown ranking 'bm2'"),
        (None, ["tfidf_cosine", "bm2"], 2, "usage error: config key 'rankings'"),
        ("tfidf_cosine,embedding", None, 1,
         "error: compare: embedding ranking requires an embedding backend"),
    ],
    ids=["flag", "manifest", "embedding without backend"],
)
def test_compare_retrievers_rejects_rankings_before_any_backend_call(
    run, dev_jsonl, gee_jsonl, explainer_script, corrector_script, monkeypatch, tmp_path,
    rankings, manifest, code, message,
):
    backend_calls = []
    complete = re2gec.pipeline.complete
    monkeypatch.setattr(
        re2gec.pipeline, "complete",
        lambda prompt, *args: backend_calls.append(prompt) or complete(prompt, *args),
    )
    argv = ["compare-retrievers", "--dev", dev_jsonl, "--train", gee_jsonl,
            "--script", corrector_script, "--explainer-script", explainer_script]
    if rankings:
        argv += ["--rankings", rankings]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rankings": manifest}), encoding="utf-8")
        argv += ["--config", str(path)]
    got, out, err = run(*argv)
    assert (got, out) == (code, "")
    assert message in err.splitlines()[-1]
    assert backend_calls == []
    # The same run with known rankings does call the backends.
    assert run(*argv[:7], "--rankings", "tfidf_cosine")[0] == 0
    assert backend_calls


# --- --jobs ---


@pytest.fixture
def batch_dev(write_corpus):
    pairs = [(INPUT_LOW, TARGET_LOW), (INPUT_HIGH, TARGET_HIGH)] * 4
    return write_corpus(
        [
            {"id": f"dev{i}", "source": source, "targets": [target]}
            for i, (source, target) in enumerate(pairs)
        ]
    )


@pytest.mark.parametrize(
    "command",
    [
        "explain",
        "correct",
        "baseline:zero_shot",
        "baseline:random_k",
        "baseline:textsim",
        "sweep-theta",
        "compare-retrievers",
    ],
)
def test_jobs_do_not_change_output(
    run, command, batch_dev, gee_jsonl, index_file, explainer_script, corrector_script,
    tmp_path,
):
    backends = ("--script", corrector_script, "--explainer-script", explainer_script)
    name, _, mode = command.partition(":")
    if mode == "textsim":
        source_index = str(tmp_path / "source.re2idx")
        code, _, err = run(
            "build-index", "--in", gee_jsonl, "--field", "source", "--out", source_index
        )
        assert code == 0, err
        extra = ("--index", source_index)
    else:
        extra = ()
    argv = {
        "explain": ("--in", batch_dev, "--explainer-script", explainer_script),
        "correct": ("--in", batch_dev, "--corpus", gee_jsonl, "--index", index_file,
                    *backends),
        "baseline": ("--mode", mode, "--in", batch_dev, "--corpus", gee_jsonl,
                     "--script", corrector_script, "--seed", "3", *extra),
        "sweep-theta": ("--dev", batch_dev, "--train", gee_jsonl, "--index", index_file,
                        "--thetas", "0.0,0.6,1.0", *backends),
        "compare-retrievers": ("--dev", batch_dev, "--train", gee_jsonl,
                               "--rankings", "tfidf_cosine,bm25", *backends),
    }[name]
    outs = []
    for jobs in ("1", "4"):
        code, out, err = run(name, *argv, "--jobs", jobs)
        assert code == 0, err
        if name == "compare-retrievers":
            rows = json.loads(out)
            for row in rows:
                del row["mean_query_ms"]  # a timing
            out = json.dumps(rows)
        outs.append(out)
    assert outs[0] == outs[1]
    if name in ("explain", "correct", "baseline"):
        assert len(outs[0].strip().split("\n")) == 8


# --- config manifest ---


def test_config_manifest_supplies_defaults_and_flags_override(
    run, index_file, tmp_path
):
    manifest = tmp_path / "config.json"
    manifest.write_text(json.dumps({"theta": 0.0, "k": 2}), encoding="utf-8")
    code, out, _ = run(
        "query", "--config", str(manifest), "--index", index_file, "--text", Q_LOW
    )
    assert code == 0
    got = json.loads(out)
    assert got["gate_open"] is True  # manifest theta 0.0
    assert len(got["hits"]) == 2     # manifest k 2

    code, out, _ = run(
        "query", "--config", str(manifest), "--index", index_file, "--text", Q_LOW,
        "--theta", "0.6",
    )
    assert code == 0
    assert json.loads(out)["gate_open"] is False  # flag beats manifest


def test_config_manifest_must_be_object(run, index_file, tmp_path):
    manifest = tmp_path / "config.json"
    manifest.write_text("[1,2]", encoding="utf-8")
    code, _, err = run(
        "query", "--config", str(manifest), "--index", index_file, "--text", Q_LOW
    )
    assert code == 1
    assert "must hold a JSON object" in err


@pytest.mark.parametrize(
    "command, manifest",
    [
        pytest.param("baseline", {"k": [1]}, id="k list"),
        pytest.param("baseline", {"k": "three"}, id="k word"),
        pytest.param("baseline", {"k": 2.5}, id="k fraction"),
        pytest.param("compare-retrievers", {"theta": True}, id="theta bool"),
        pytest.param("baseline", {"mode": "best"}, id="mode choice"),
        pytest.param("compare-retrievers", {"field": "target"}, id="field choice"),
        pytest.param("baseline", {"sample": "yes"}, id="sample string"),
        pytest.param("baseline", {"jobs": 0}, id="jobs zero"),
        pytest.param("baseline", {"surprise": 1, "strict": True}, id="strict unknown key"),
    ],
)
def test_bad_config_manifest_is_usage_error(
    run, dev_jsonl, gee_jsonl, write_script, tmp_path, command, manifest
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "zero_shot", **manifest}), encoding="utf-8")
    inputs = {
        "baseline": ("--in", dev_jsonl, "--corpus", gee_jsonl),
        "compare-retrievers": ("--dev", dev_jsonl, "--train", gee_jsonl,
                               "--rankings", "tfidf_cosine"),
    }[command]
    code, out, err = run(
        command, "--config", str(path), *inputs, "--script", write_script({}),
    )
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("usage error: config")


def test_config_manifest_unknown_keys_and_lists(
    run, dev_jsonl, gee_jsonl, index_file, write_script, tmp_path
):
    script = write_script({})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "zero_shot", "surprise": 1}), encoding="utf-8")
    argv = ("baseline", "--config", str(path), "--in", dev_jsonl, "--corpus", gee_jsonl,
            "--script", script)
    assert run(*argv)[0] == 0
    code, _, err = run(*argv, "--strict")
    assert code == 2
    assert "unknown key(s) 'surprise'" in err
    code, _, err = run(*argv, "--jobs", "0")
    assert code == 2
    assert "--jobs: must be >= 1" in err

    path.write_text(json.dumps({"thetas": [0.0, 0.6, 1.0]}), encoding="utf-8")
    argv = ("sweep-theta", "--dev", dev_jsonl, "--train", gee_jsonl, "--index", index_file,
            "--script", script, "--explainer-script", script)
    code, from_list, err = run(*argv, "--config", str(path))
    assert code == 0, err
    assert from_list == run(*argv, "--thetas", "0.0,0.6,1.0")[1]


def test_strict_corpus_loading(run, write_corpus, tmp_path):
    path = write_corpus(
        [{"id": "a", "source": "原", "targets": ["改"], "surprise": 1}]
    )
    out = str(tmp_path / "i.re2idx")
    code, _, err = run("build-index", "--in", path, "--field", "source", "--out", out, "--strict")
    assert code == 1
    assert "unknown field" in err
    code, _, _ = run("build-index", "--in", path, "--field", "source", "--out", out)
    assert code == 0


# --- console-script entry point ---


def _declared_console_script(name):
    """The `module:attr` spec of console script `name`: from the installed
    distribution's metadata when there is one, else from the checkout's
    pyproject.toml."""
    declared = importlib.metadata.entry_points(group="console_scripts", name=name)
    if declared:
        (entry_point,) = declared
        return entry_point.value
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_console_script_entry_point(tmp_path):
    spec = _declared_console_script("re2gec")
    assert spec == "re2gec.cli:main"
    module_name, _, attr = spec.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    # Run the entry point as its own process, the way pip's generated
    # wrapper does, against the same re2gec the tests imported.
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    wrapper = (
        f"import sys; from {module_name} import {attr}; "
        f"sys.argv[0] = 're2gec'; sys.exit({attr}())"
    )
    launchers = [([sys.executable, "-c", wrapper], env)]
    exe = shutil.which("re2gec")
    if exe:
        launchers.append(([exe], None))

    for launcher, launcher_env in launchers:
        def launch(*argv):
            return subprocess.run(
                [*launcher, *argv],
                capture_output=True,
                text=True,
                timeout=60,
                cwd=tmp_path,
                env=launcher_env,
            )

        proc = launch("extract-edits", "--source", "ab", "--target", "ba")
        assert proc.returncode == 0
        assert proc.stdout.strip() == '[[0,"a",""],[2,"","a"]]'

        proc = launch("extract-edits")
        assert proc.returncode == 2
        err_lines = proc.stderr.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("usage error:")


def test_numpy_loaded_only_by_index_queries(tmp_path):
    # numpy costs startup time and memory; commands that never query an
    # n-gram index (scoring, edit extraction) must not import it.
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    child = (
        "import json, sys\n"
        "import re2gec.cli\n"
        "after_import = 'numpy' in sys.modules\n"
        "code = re2gec.cli.dispatch(['extract-edits', '--source', 'ab', '--target', 'ba'])\n"
        "after_extract = 'numpy' in sys.modules\n"
        "from re2gec import Corpus, SentencePair, build_index, query\n"
        "recs = [SentencePair(id='a', source='s', targets=['t'], explanation='主谓搭配')]\n"
        "query(build_index(Corpus(recs)), '搭配', k=1, theta=0.0)\n"
        "print(json.dumps([code, after_import, after_extract, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, after_import, after_extract, after_query = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert after_import is False
    assert after_extract is False
    assert after_query is True  # the probe does see numpy once a query loads it


def test_requests_loaded_only_by_http_backends(tmp_path):
    # requests (with urllib3 and charset_normalizer) is about half of the
    # CLI's import time; only an HTTP backend's POST may import it.
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    (tmp_path / "src.jsonl").write_text(
        json.dumps({"id": "a", "source": "他去了的", "targets": ["他去了"]}) + "\n",
        encoding="utf-8",
    )
    (tmp_path / "hyp.txt").write_text("他去了\n", encoding="utf-8")
    child = (
        "import json, sys\n"
        "import re2gec.cli\n"
        "seen = ['requests' in sys.modules]\n"
        "codes = []\n"
        "for argv in (['score', '--src', 'src.jsonl', '--hyp', 'hyp.txt'],\n"
        "             ['rouge', '--candidate', 'ab', '--reference', 'abc'],\n"
        "             ['extract-edits', '--source', 'ab', '--target', 'ba']):\n"
        "    codes.append(re2gec.cli.dispatch(argv))\n"
        "    seen.append('requests' in sys.modules)\n"
        "print(json.dumps([codes, seen]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    codes, seen = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert seen == [False, False, False, False]
