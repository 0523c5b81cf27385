import importlib
import importlib.metadata
import json
import os
import re
import resource
import shutil
import signal
import stat
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
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
from test_segmentation import HANG_ON_X_CMD

import re2gec
from re2gec import retriever
from re2gec.cli import dispatch
from re2gec.corpus import SentencePair
from re2gec.prompting import load_template_set, render_gec_prompt, render_gee_prompt
from re2gec.retriever import load_index
from re2gec.retriever import query as lib_query
from re2gec.scorer import detection_metrics, rouge_l, score_corpus, score_sentence
from re2gec.segmentation import close_external_segmenters

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


@pytest.mark.parametrize(
    "argv",
    [
        ("extract-edits", "--segmenter", "bogus"),
        ("build-index", "--ngram-min", "x"),
        ("query", "--k", "x"),
        ("explain", "--jobs", "0"),
        ("correct", "--k", "x"),
        ("baseline", "--mode", "best"),
        ("score", "--src"),
        ("rouge", "--candidate"),
        ("detect", "--hyp-log"),
        ("make-sft-data", "--k", "2.5"),
        ("sweep-theta", "--thetas", "0.5,abc"),
        ("compare-retrievers", "--rankings", "bm2"),
        (),
        ("frobnicate",),
    ],
    ids=lambda argv: argv[0] if argv else "bare",
)
def test_parse_error_is_one_usage_line(run, argv):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("usage error:")
    if argv[1:]:
        # The same command asked for help prints it and succeeds.
        code, out, err = run(argv[0], "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: re2gec {argv[0]}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("query", "--k", "0", "--index", "{missing}", "--text", "x"),
         "argument --k: k must be >= 1"),
        (("query", "--theta", "2", "--index", "{missing}", "--text", "x"),
         "argument --theta: theta must lie in [0, 1]"),
        (("build-index", "--ngram-min", "0", "--in", "{missing}", "--out", "{out}"),
         "argument --ngram-min: need 1 <= ngram_min <= ngram_max"),
        (("explain", "--temperature", "0", "--in", "{missing}", "--explainer-script", "{missing}"),
         "argument --temperature: temperature must be positive"),
        (("explain", "--temperature", "nan", "--in", "{missing}",
          "--explainer-script", "{missing}"),
         "argument --temperature: temperature must be positive and finite, got nan"),
        # Not retried for seconds, and never opened as a file:// or ftp:// URL.
        (("explain", "--explainer-endpoint", "localhost:9/v1", "--in", "{missing}"),
         "argument --explainer-endpoint: endpoint must be an http:// or https:// URL"),
        (("build-index", "--embed-endpoint", "file:///etc", "--in", "{missing}", "--out", "{out}"),
         "argument --embed-endpoint: endpoint must be an http:// or https:// URL"),
        (("explain", "--explainer-timeout", "0", "--in", "{missing}",
          "--explainer-script", "{missing}"),
         "argument --explainer-timeout: timeout must be positive"),
        (("correct", "--explainer-script", "{missing}", "--timeout", "0", "--script", "{missing}",
          "--in", "{missing}", "--corpus", "{missing}", "--index", "{missing}"),
         "argument --timeout: timeout must be positive"),
        (("build-index", "--segmenter-cmd", "cat", "--in", "{missing}", "--out", "{out}"),
         "argument --segmenter-cmd: external_command is only valid in external mode"),
        (("build-index", "--segmenter", "external", "--segmenter-cmd", "cat",
          "--segmenter-timeout", "0", "--in", "{missing}", "--out", "{out}"),
         "argument --segmenter-timeout: external_timeout must be positive"),
        # A backend option whose role has no backend is rejected, not dropped.
        (("explain", "--text", "他吃饭了", "--explainer-model", "nosuch",
          "--explainer-timeout", "0"),
         "--explainer-model needs --explainer-backend, --explainer-endpoint or "
         "--explainer-script"),
        (("explain", "--in", "{missing}", "--explainer-timeout", "5"),
         "--explainer-timeout needs --explainer-backend, --explainer-endpoint or "
         "--explainer-script"),
        (("correct", "--explainer-script", "{missing}", "--model", "m", "--in", "{missing}",
          "--corpus", "{missing}", "--index", "{missing}"),
         "--model needs --backend, --endpoint or --script"),
        # A kind reads one of endpoint and script; the other given is rejected, not dropped.
        (("correct", "--endpoint", "http://127.0.0.1:9/v1", "--script", "{missing}",
          "--explainer-script", "{missing}", "--in", "{missing}", "--corpus", "{missing}",
          "--index", "{missing}"),
         "argument --script: script_path is only valid for a mock backend, not 'http'"),
        (("correct", "--backend", "mock", "--script", "{missing}",
          "--endpoint", "http://127.0.0.1:9/v1", "--explainer-script", "{missing}",
          "--in", "{missing}", "--corpus", "{missing}", "--index", "{missing}"),
         "argument --endpoint: endpoint is only valid for an http backend, not 'mock'"),
        (("explain", "--explainer-backend", "http",
          "--explainer-endpoint", "http://127.0.0.1:9/v1", "--explainer-script", "{missing}",
          "--in", "{missing}"),
         "argument --explainer-script: script_path is only valid for a mock backend, not 'http'"),
        (("build-index", "--embed-endpoint", "http://127.0.0.1:9/v1",
          "--embed-script", "{missing}", "--in", "{missing}", "--out", "{out}"),
         "argument --embed-script: script_path is only valid for a mock backend, not 'http'"),
        (("build-index", "--in", "{missing}", "--out", "{out}", "--embed-model", "m"),
         "--embed-model needs --embed-backend, --embed-endpoint or --embed-script"),
        (("build-index", "--embed-timeout", "0", "--embed-script", "{missing}",
          "--in", "{missing}", "--out", "{out}"),
         "argument --embed-timeout: timeout must be positive"),
        (("build-index", "--in", "{missing}", "--out", "{out}", "--embed-timeout", "3"),
         "--embed-timeout needs --embed-backend, --embed-endpoint or --embed-script"),
        # Sockets and select take no NaN or infinity, and BM25 weights must be finite.
        (("explain", "--explainer-timeout", "nan", "--in", "{missing}",
          "--explainer-script", "{missing}"),
         "argument --explainer-timeout: timeout must be positive and finite, got nan"),
        (("correct", "--explainer-script", "{missing}", "--timeout", "inf", "--script", "{missing}",
          "--in", "{missing}", "--corpus", "{missing}", "--index", "{missing}"),
         "argument --timeout: timeout must be positive and finite, got inf"),
        (("build-index", "--segmenter", "external", "--segmenter-cmd", "cat",
          "--segmenter-timeout", "nan", "--in", "{missing}", "--out", "{out}"),
         "argument --segmenter-timeout: external_timeout must be positive and finite, got nan"),
        (("build-index", "--segmenter", "external", "--segmenter-cmd", "cat",
          "--segmenter-timeout", "inf", "--in", "{missing}", "--out", "{out}"),
         "argument --segmenter-timeout: external_timeout must be positive and finite, got inf"),
        (("build-index", "--ranking", "bm25", "--bm25-k1", "nan", "--in", "{missing}",
          "--out", "{out}"),
         "argument --bm25-k1: bm25_k1 must be >= 0 and finite, got nan"),
        (("build-index", "--ranking", "bm25", "--bm25-k1", "inf", "--in", "{missing}",
          "--out", "{out}"),
         "argument --bm25-k1: bm25_k1 must be >= 0 and finite, got inf"),
    ],
    ids=["query k", "query theta", "build-index ngram-min", "explain temperature",
         "explain temperature nan", "explain explainer-endpoint", "build-index embed-endpoint",
         "explain explainer-timeout", "correct timeout", "build-index segmenter-cmd",
         "build-index segmenter-timeout", "explain explainer-model without backend",
         "explain explainer-timeout without backend", "correct model without backend",
         "correct endpoint and script", "correct mock with endpoint",
         "explain explainer http with script", "build-index embed endpoint and script",
         "build-index embed-model without backend", "build-index embed-timeout",
         "build-index embed-timeout without backend", "explain explainer-timeout nan",
         "correct timeout inf", "build-index segmenter-timeout nan",
         "build-index segmenter-timeout inf", "build-index bm25-k1 nan", "build-index bm25-k1 inf"],
)
def test_value_a_config_rejects_is_usage_error_before_any_input(
    run, monkeypatch, tmp_path, argv, message
):
    # The line names the flag that was set, not only the config field.
    reads = []
    monkeypatch.setattr(re2gec.cli, "load_corpus", lambda *args, **kw: reads.append(args))
    monkeypatch.setattr(re2gec.cli, "load_index", lambda *args, **kw: reads.append(args))
    paths = {"missing": str(tmp_path / "missing"), "out": str(tmp_path / "out")}
    code, out, err = run(*(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("usage error: " + message)
    assert reads == []


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


@pytest.mark.parametrize(
    "explanation, options, message",
    [
        ("主谓\0搭配", [], "record 'd1': the explanation holds U+0000"),
        ("a " + "b" * 65, ["--segmenter", "whitespace", "--ngram-min", "1"],
         f"record 'd1': the n-gram {'b' * 20!r}... has 65 characters, "
         "more than the 64 an index allows; use shorter tokens or n-grams"),
    ],
    ids=["U+0000", "over-wide gram"],
)
def test_text_an_index_cannot_store_is_one_error_line(
    run, write_corpus, tmp_path, explanation, options, message
):
    records = [{"id": "d0", "explanation": "正常的解释"}, {"id": "d1", "explanation": explanation}]
    infile = write_corpus([{"source": "s", "targets": ["t"], **r} for r in records])
    code, out, err = run("build-index", "--in", infile, "--out", str(tmp_path / "i"), *options)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "i").exists()


def test_failed_lenient_load_prints_only_its_error(tmp_path):
    # In a process of its own: pytest's logging plugin would catch the warnings.
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src_dir}
    line = json.dumps({"id": "a", "source": "s", "targets": ["t"], "explanation": "主谓", "zz": 1})
    (tmp_path / "good.jsonl").write_text(line + "\n", encoding="utf-8")
    (tmp_path / "bad.jsonl").write_text(line + "\n{\n", encoding="utf-8")
    stderr = {}
    for name in ("good", "bad"):
        proc = subprocess.run(
            [sys.executable, "-m", "re2gec", "build-index", "--in", f"{name}.jsonl",
             "--out", f"{name}.idx"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        stderr[name] = (proc.returncode, proc.stderr.splitlines())
    assert stderr["good"] == (0, ["line 1: ignoring unknown field 'zz'"])
    code, lines = stderr["bad"]
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: line 2: invalid JSON in 'bad.jsonl'")


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


# The backend roles of each command, by the options it registers.
_ROLES = {
    "build-index": {"embed_"}, "query": {"embed_"}, "make-sft-data": {"embed_"},
    "explain": {"explainer_"}, "baseline": {"", "embed_"},
    "correct": {"", "explainer_", "embed_"}, "sweep-theta": {"", "explainer_", "embed_"},
    "compare-retrievers": {"", "explainer_", "embed_"},
}


@pytest.mark.parametrize("command", sorted(_ROLES))
def test_each_command_registers_the_backend_roles_it_runs(command):
    (populate,) = [p for name, _, _, p in re2gec.cli._COMMANDS if name == command]
    parser = re2gec.cli._Parser(prog=command)
    populate(parser)
    options = {action.dest for action in parser._actions} - {"help"}
    roles = {prefix for prefix in ("", "explainer_", "embed_") if prefix + "backend" in options}
    assert roles == _ROLES[command]
    # A role has all five options or none.
    for prefix in ("", "explainer_", "embed_"):
        names = {prefix + name for name in ("backend", "endpoint", "model", "script", "timeout")}
        assert names <= options if prefix in roles else not names & options
    if command == "explain":
        assert len(options) == 15


@pytest.mark.parametrize("command, role", [
    ("explain", "explainer_"), ("correct", ""), ("correct", "explainer_"), ("baseline", ""),
    ("sweep-theta", ""), ("sweep-theta", "explainer_"), ("compare-retrievers", ""),
    ("compare-retrievers", "explainer_"),
])
def test_a_missing_backend_role_is_one_usage_line_before_any_work(
    run, work_args, tmp_path, command, role
):
    # No role stands in for another: the corrector does not explain, nor the explainer correct.
    argvs, calls = work_args
    argv = list(argvs[command])
    flag = f"--{role.replace('_', '-')}"
    at = argv.index(flag + "script")
    del argv[at:at + 2]
    out = tmp_path / "out.jsonl"
    message = f"usage error: missing required option {flag}script or {flag}backend\n"
    assert run(command, *argv, "--out", str(out)) == (2, "", message)
    assert calls == []
    assert not out.exists()


def test_missing_input_names_its_flag(run, write_script):
    code, _, err = run("explain", "--explainer-script", write_script({}))
    assert code == 2
    assert err.splitlines() == ["usage error: missing required option --in"]


@pytest.mark.parametrize(
    "command, missing",
    [("explain", "--in"), ("correct", "--in"), ("baseline", "--mode"), ("sweep-theta", "--dev"),
     ("compare-retrievers", "--dev"), ("query", "--index"), ("make-sft-data", "--train")],
)
def test_missing_input_option_is_a_usage_error_before_any_script_is_read(
    run, tmp_path, command, missing
):
    script = str(tmp_path / "missing.json")
    flags = {"query": ["--embed-script"], "make-sft-data": ["--embed-script"],
             "explain": ["--explainer-script"], "baseline": ["--script"]}
    argv = [a for flag in flags.get(command, ["--script", "--explainer-script"])
            for a in (flag, script)]
    assert run(command, *argv) == (2, "", f"usage error: missing required option {missing}\n")


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


# A precision, recall or F over no sentences would read as a perfect score.
@pytest.mark.parametrize("command, option, message", [
    ("score", "--src", "no source/hypothesis pairs"),
    ("detect", "--src", "no source/hypothesis pairs"),
    ("sweep-theta", "--dev", "score: no dev inputs"),
    ("compare-retrievers", "--dev", "score: no dev inputs"),
    ("rouge", "--cand-file", "no candidate/reference pairs"),
])
def test_an_aggregate_score_of_an_empty_input_fails(
    run, work_args, write_corpus, tmp_path, command, option, message
):
    argvs, calls = work_args
    argv = list(argvs[command])
    if command == "rouge":  # its usual argv scores one pair given as flags
        argv = ["--cand-file", "", "--ref-file", write_corpus([])]
    argv[argv.index(option) + 1] = write_corpus([])
    if "--hyp" in argv:
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        argv[argv.index("--hyp") + 1] = str(empty)
    out, per_sentence = tmp_path / "out.json", tmp_path / "per_sentence.tsv"
    if command == "score":
        argv += ["--per-sentence", str(per_sentence)]
    assert run(command, *argv, "--out", str(out)) == (1, "", f"error: {message}\n")
    assert not out.exists() and not per_sentence.exists()
    assert [name for name in calls if name in ("complete", "embed")] == []


@pytest.fixture
def work_args(text_commands, gee_jsonl, write_script, monkeypatch):
    """Per command: the argv of one run, and the list of the input reads and backend calls made."""
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for module, name in [(re2gec.pipeline, "complete"), (re2gec.pipeline, "embed"),
                         (re2gec.cli, "load_corpus"), (re2gec.cli, "load_index"),
                         (re2gec.cli, "string_fields")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    argvs = {command: argv for command, (argv, _) in text_commands.items()}
    # An embedding build calls a backend.
    argvs["build-index"] = (
        "--in", gee_jsonl, "--ranking", "embedding", "--embed-script", write_script({})
    )
    return argvs, calls


# "score --per-sentence" checks that output file the way --out is checked.
@pytest.mark.parametrize("command", [*TEXT_COMMANDS, "build-index", "score --per-sentence"])
def test_out_in_a_missing_directory_fails_before_any_work(run, work_args, tmp_path, command):
    argvs, calls = work_args
    command, _, flag = command.partition(" ")
    flag = flag or "--out"
    out = tmp_path / "missing" / "out.jsonl"
    code, stdout, err = run(command, *argvs[command], flag, str(out))
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"error: {flag} {str(out)!r}: no directory {str(out.parent)!r}"]
    assert calls == []
    assert not out.parent.exists()


@pytest.mark.parametrize("command", [*TEXT_COMMANDS, "build-index", "score --per-sentence"])
def test_out_naming_a_directory_fails_before_any_work(run, work_args, tmp_path, command):
    argvs, calls = work_args
    command, _, flag = command.partition(" ")
    flag = flag or "--out"
    code, stdout, err = run(command, *argvs[command], flag, str(tmp_path))
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"error: {flag} {str(tmp_path)!r}: is a directory"]
    assert calls == []


def test_extract_edits_writes_a_lone_surrogate_as_its_escape(run, tmp_path):
    # The JSON escape loads as a lone surrogate, which UTF-8 cannot encode.
    pair = json.dumps({"source": "主谓搭配", "target": "谓主搭配"}) + "\n"
    clean, mixed = tmp_path / "clean.jsonl", tmp_path / "mixed.jsonl"
    clean.write_text(pair, encoding="ascii")
    mixed.write_text(pair + json.dumps({"source": "a\ud800", "target": "a"}) + "\n", "ascii")
    for name in ("clean", "mixed"):
        argv = ("--in", str(tmp_path / f"{name}.jsonl"), "--out", str(tmp_path / f"{name}.out"))
        assert run("extract-edits", *argv) == (0, "", "")
    data = (tmp_path / "mixed.out").read_bytes()
    first, second = data.splitlines(keepends=True)
    assert first == (tmp_path / "clean.out").read_bytes()
    assert second == b'[[1,"\\ud800",""]]\n'
    assert json.loads(second) == [[1, "\ud800", ""]]
    assert run("extract-edits", "--in", str(mixed)) == (0, data.decode("utf-8"), "")


def _run_on_a_full_disk(argv, cwd) -> subprocess.CompletedProcess:
    """``re2gec argv`` in a process of its own that may write no file past 40 bytes."""

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so that write() fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (40, 40))

    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src_dir, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "re2gec", *argv], preexec_fn=limit_file_size,
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )


def _assert_full_disk_leaves_files_as_they_were(argv, flag, tmp_path):
    """Each run exits 1; an old file keeps its bytes, and no new file or sibling is left."""
    out_dir = tmp_path / "written"
    out_dir.mkdir()
    old = out_dir / "old"
    old.write_bytes(b"old\n")
    for path in (old, out_dir / "new"):
        proc = _run_on_a_full_disk([*argv, flag, str(path)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: [Errno 27] File too large"]
    assert os.listdir(out_dir) == ["old"]
    assert old.read_bytes() == b"old\n"


def test_failed_run_leaves_out_as_it_was(run, text_commands, tmp_path):
    # A full disk, while a per-input command writes its lines.
    argv, _ = text_commands["correct"]
    _assert_full_disk_leaves_files_as_they_were(["correct", *argv], "--out", tmp_path)


def test_make_sft_data_writes_a_lone_surrogate_as_its_escape(run, tmp_path):
    # Record b's source holds a lone surrogate, from a JSON escape.  The index
    # is built over explanations, so the same records with a snowman in its
    # place retrieve the same examples.
    def sft_bytes(name: str, b_source: str) -> bytes:
        records = [
            {"id": "a", "source": "原句甲", "targets": ["改句甲"], "explanation": "主谓搭配不当"},
            {"id": "b", "source": b_source, "targets": ["改句乙"], "explanation": "主谓搭配"},
            {"id": "c", "source": "原句丙", "targets": ["改句丙"], "explanation": "语序不当"},
        ]
        train, index = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.idx"
        train.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
        assert run("build-index", "--in", str(train), "--out", str(index)) == (0, "", "")
        out = tmp_path / f"{name}.sft.jsonl"
        argv = ("--train", str(train), "--index", str(index), "--out", str(out))
        assert run("make-sft-data", *argv) == (0, "", "")
        return out.read_bytes()

    surrogate, snowman = sft_bytes("surrogate", "原句\ud800乙"), sft_bytes("snowman", "原句☃乙")
    # b's two prompts hold its source, and so does a's with-examples prompt.
    assert snowman.count("☃".encode()) == 3
    assert surrogate == snowman.replace("☃".encode(), b"\\ud800")


@pytest.mark.parametrize("command", ["rouge --out", "build-index --out", "score --per-sentence"])
def test_full_disk_leaves_each_written_file_as_it_was(
    text_commands, gee_jsonl, tmp_path, command
):
    command, flag = command.split()
    argvs = {name: argv for name, (argv, _) in text_commands.items()}
    argvs["build-index"] = ("--in", gee_jsonl)
    _assert_full_disk_leaves_files_as_they_were([command, *argvs[command]], flag, tmp_path)


def test_written_file_gets_the_mode_open_would_give(run, tmp_path):
    argv = ("rouge", "--candidate", "ace", "--reference", "abcde", "--out")
    old, new = tmp_path / "old", tmp_path / "new"
    old.write_bytes(b"old\n")
    old.chmod(0o751)
    umask = os.umask(0o027)
    try:
        for path in (old, new):
            assert run(*argv, str(path)) == (0, "", "")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(old.stat().st_mode) == 0o751
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert old.read_bytes() == new.read_bytes() != b"old\n"


def test_symlinked_out_is_written_through_to_its_target(run, tmp_path):
    argv = ("rouge", "--candidate", "ace", "--reference", "abcde")
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    assert run(*argv, "--out", str(link)) == (0, "", "")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == run(*argv)[1]


def test_out_that_is_no_regular_file_is_written_in_place(run, tmp_path):
    # Replacing a FIFO (or /dev/null) by a file would change what it is.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    argv = ("rouge", "--candidate", "ace", "--reference", "abcde")
    assert run(*argv, "--out", str(fifo)) == (0, "", "")
    reader.join(timeout=60)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert read == [run(*argv)[1].encode()]
    assert sorted(os.listdir(tmp_path)) == ["fifo"]


def test_out_may_name_an_input_file(run, write_corpus):
    pairs = write_corpus([{"source": "ab", "target": "ba"}])
    assert run("extract-edits", "--in", pairs, "--out", pairs) == (0, "", "")
    assert Path(pairs).read_text(encoding="utf-8") == '[[0,"a",""],[2,"","a"]]\n'


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src_dir, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-m", "re2gec", "extract-edits", "--source", "他打饭", "--target", "他饭"],
        capture_output=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == '[[1,"打",""]]\n'.encode("utf-8")


@pytest.mark.parametrize(
    "command, single, files, message",
    [
        ("explain", {"text": "句子"}, {"in": "in.jsonl"}, "--text and --in"),
        ("extract-edits", {"source": "ab", "target": "ba"}, {"in": "in.jsonl"},
         "--source/--target and --in"),
        ("extract-edits", {"target": "ba"}, {"in": "in.jsonl"},
         "--source/--target and --in"),
        ("rouge", {"candidate": "ace", "reference": "abcde"},
         {"cand_file": "c.txt", "ref_file": "r.txt"},
         "--candidate/--reference and --cand-file/--ref-file"),
        ("rouge", {"reference": "abcde"}, {"cand_file": "c.txt"},
         "--candidate/--reference and --cand-file/--ref-file"),
        # Both hypothesis files: neither is scored in place of the other.
        ("score", {"hyp": "hyp.txt"}, {"src": "src.jsonl", "hyp_log": "log.jsonl"},
         "--hyp and --hyp-log"),
        ("detect", {"hyp": "hyp.txt"}, {"src": "src.jsonl", "hyp_log": "log.jsonl"},
         "--hyp and --hyp-log"),
    ],
    ids=["explain", "extract-edits", "extract-edits target only", "rouge", "rouge one each",
         "score", "detect"],
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
        flags = {"in": "--in", "cand_file": "--cand-file", "ref_file": "--ref-file",
                 "src": "--src", "hyp_log": "--hyp-log"}
        for name, path in files.items():
            argv += [flags[name], path]
    else:
        manifest = tmp_path / "config.json"
        manifest.write_text(json.dumps(files), encoding="utf-8")
        argv += ["--config", str(manifest)]
    if command == "explain":
        argv += ["--explainer-script", write_script({})]
    assert run(*argv) == (2, "", f"usage error: {message} are mutually exclusive\n")


@pytest.mark.parametrize("command", ["score", "detect"])
def test_scoring_without_hypotheses_names_both_flags(run, tmp_path, command):
    # --src is not read: the usage error comes first.
    got = run(command, "--src", str(tmp_path / "missing.jsonl"))
    assert got == (2, "", "usage error: missing required option --hyp or --hyp-log\n")


# --- hostile inputs ---

# Values that a JSON input may hold in place of any one of its values.
_HOSTILE_VALUES = [
    b"[" * 2000 + b"]" * 2000, b'{"a":' * 2000 + b"0" + b"}" * 2000, b"1" * 5001,
    b"NaN", b"-Infinity", b'"\\ud800"', b'"a\\u0000b"', b"null", b"true", b"2.5", b"-1",
    b"[]", b"{}", b'"x"', b'[1, "a"]',
]
# Bytes that may land anywhere in any input.
_HOSTILE_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00", b"\r", b"\n"]
_MARK = "@@hostile@@"


def _marked(draw, value):
    """``value`` with the mark in place of itself or of one member, at any depth."""
    if not isinstance(value, (dict, list)) or not value or draw(st.integers(0, 3)) == 0:
        return _MARK
    if isinstance(value, dict):
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: _marked(draw, value[key])}
    i = draw(st.integers(0, len(value) - 1))
    return [*value[:i], _marked(draw, value[i]), *value[i + 1:]]


@st.composite
def _hostile(draw, valid: bytes) -> bytes:
    """``valid`` truncated, with hostile bytes spliced in, or with a JSON value replaced."""
    how = draw(st.sampled_from(["truncate", "splice", "value"]))
    try:
        lines = [json.loads(line) for line in valid.decode("utf-8").split("\n") if line.strip()]
    except ValueError:  # not JSON lines, or not UTF-8
        lines = []
    if how == "truncate":
        return valid[: draw(st.integers(0, max(len(valid) - 1, 0)))]
    if how == "splice" or not lines:
        at = draw(st.integers(0, len(valid)))
        return valid[:at] + draw(st.sampled_from(_HOSTILE_BYTES + _HOSTILE_VALUES)) + valid[at:]
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = _marked(draw, lines[i])
    text = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
    return text.encode("utf-8").replace(
        json.dumps(_MARK).encode(), draw(st.sampled_from(_HOSTILE_VALUES))
    )


def _with_header(blob: bytes, head: bytes) -> bytes:
    """An index blob whose header is ``head``, with its length entry to match."""
    magic, lengths = retriever._MAGIC_LINE, retriever._LENGTHS
    head_len, *block_lens = lengths.unpack_from(blob, len(magic))
    blocks = blob[len(magic) + lengths.size + head_len:]
    return magic + lengths.pack(len(head), *block_lens) + head + blocks


@pytest.fixture
def hostile_inputs(
    dev_jsonl, gee_jsonl, index_file, explainer_script, corrector_script, write_script,
    tmp_path,
):
    """Per command, the argv of one run, whose ``@name`` items are the files of ``inputs``."""
    templates = tmp_path / "templates"
    shutil.copytree(Path(str(resources.files("re2gec"))) / "templates" / "default", templates)
    embeddings = {text: [1.0, float(i)] for i, (_, text) in enumerate(GEE_DOCS)}
    inputs = {
        "corpus": gee_jsonl, "dev": dev_jsonl, "index": index_file,
        "script": corrector_script, "explainer": explainer_script,
        "embed": write_script(embeddings),
        "templates": templates / "gee_input_only.txt",
    }
    texts = {
        "pairs": json.dumps({"source": "AXB", "target": "AB"}) + "\n",
        "hyp_log": _GOOD_HYP + "\n"
        + json.dumps({"input": INPUT_HIGH, "correction": TARGET_HIGH}, ensure_ascii=False) + "\n",
        "hyp": f"{TARGET_LOW}\r\n{INPUT_HIGH}\n",
        "cand": "ace\n同一句\n", "ref": "abcde\n同一句\n",
        "config": '{"strict": false}',
    }
    for name, text in texts.items():
        inputs[name] = tmp_path / f"{name}.in"
        inputs[name].write_text(text, encoding="utf-8")
    backends = ["--script", "@script", "--explainer-script", "@explainer"]
    argvs = {
        "extract-edits": ["--in", "@pairs"],
        "build-index": ["--in", "@corpus"],
        "build-index embedding": ["--in", "@corpus", "--ranking", "embedding",
                                  "--embed-script", "@embed"],
        "query": ["--index", "@index", "--text", Q_HIGH],
        "explain": ["--in", "@dev", "--explainer-script", "@explainer",
                    "--templates", "@templates"],
        "correct": ["--in", "@dev", "--corpus", "@corpus", "--index", "@index", *backends],
        "baseline": ["--mode", "random_k", "--in", "@dev", "--corpus", "@corpus",
                     "--script", "@script"],
        "score": ["--src", "@dev", "--hyp-log", "@hyp_log"],
        "detect": ["--src", "@dev", "--hyp", "@hyp"],
        "rouge": ["--cand-file", "@cand", "--ref-file", "@ref"],
        "make-sft-data": ["--train", "@corpus", "--index", "@index"],
        "sweep-theta": ["--dev", "@dev", "--train", "@corpus", "--index", "@index",
                        "--thetas", "0.6", *backends],
        "compare-retrievers": ["--dev", "@dev", "--train", "@corpus",
                               "--rankings", "tfidf_cosine", *backends],
    }
    for argv in argvs.values():
        argv += ["--config", "@config"]
    return {name: Path(path) for name, path in inputs.items()}, argvs


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_input_file_is_one_error_line(run, hostile_inputs, tmp_path, data):
    inputs, argvs = hostile_inputs
    label = data.draw(st.sampled_from(sorted(argvs)), label="command")
    argv = argvs[label]
    name = data.draw(st.sampled_from([a[1:] for a in argv if a.startswith("@")]), label="input")
    valid = inputs[name].read_bytes()
    if name == "index":
        head_len = retriever._LENGTHS.unpack_from(valid, len(retriever._MAGIC_LINE))[0]
        start = len(retriever._MAGIC_LINE) + retriever._LENGTHS.size
        head = data.draw(_hostile(valid[start:start + head_len]), label="header")
        hostile = _with_header(valid, head)
    else:
        hostile = data.draw(_hostile(valid), label="bytes")
    out = tmp_path / "out"
    out.write_bytes(b"old\n")
    inputs[name].write_bytes(hostile)
    try:
        # A template set is named by its directory.
        files = {**inputs, "templates": inputs["templates"].parent}
        paths = [str(files[a[1:]]) if a.startswith("@") else a for a in argv]
        code, stdout, err = run(label.split()[0], *paths, "--out", str(out))
    finally:
        inputs[name].write_bytes(valid)
    if code == 0:
        return
    assert (code, stdout) in ((1, ""), (2, ""))
    (line,) = err.splitlines()
    assert line.startswith("error: " if code == 1 else "usage error: ")
    failed = re.match(r"error: (\d+) of (\d+) inputs failed \(first: ", line)
    if not failed:
        assert out.read_bytes() == b"old\n"
        return
    # Inputs of a per-input command failed: each input has its lines, a failed one an error.
    # A mock script or template set that no input can use failed above, in one line, so an
    # input fails here only on what its own prompt meets: a scripted reply that is not a
    # string, or no reply for a prompt that a changed key or template no longer matches.
    k, n = map(int, failed.groups())
    written = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    errors = [obj["error"]["message"] for obj in written if "error" in obj]
    assert len(errors) == k
    # make-sft-data adds a with-examples line for each record whose retrieval found a hit.
    metas = [obj["meta"] for obj in written if "meta" in obj]
    example_ids = [meta["example_ids"] for meta in metas if "example_ids" in meta]
    assert all(example_ids)
    assert len(written) == n + len(example_ids)
    file_faults = ("cannot read mock script", "mock script '", "template ")
    assert not [message for message in errors if message.startswith(file_faults)]


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
_GOOD_HYP = json.dumps({"input": INPUT_LOW, "correction": TARGET_LOW}, ensure_ascii=False)
_INPUT_B = json.dumps(INPUT_HIGH, ensure_ascii=False)


@pytest.mark.parametrize(
    "command, bad_line, message",
    [
        ("extract-edits", "[1, 2]", "record must be a JSON object"),
        ("extract-edits", '{"source": 5, "target": "AB"}', "source must be a string"),
        ("extract-edits", '{"source": "AB"}', "missing required field 'target'"),
        ("extract-edits", '{"source": "AB", "target"', "invalid JSON"),
        ("score", "[1]", "record must be a JSON object"),
        ("score", f'{{"input": {_INPUT_B}}}', "missing required field 'correction'"),
        ("score", f'{{"input": {_INPUT_B}, "correction": 5}}', "correction must be a string"),
        ("score", '{"correction": "句"}', "missing required field 'input'"),
        ("extract-edits", "[" * 2000 + "]" * 2000, "invalid JSON in '.*': nested too deeply"),
        ("score", '{"correction": ' * 2000 + '""' + "}" * 2000,
         "invalid JSON in '.*': nested too deeply"),
    ],
    ids=[
        "pair not an object", "source not a string", "target missing", "pair bad JSON",
        "log line not an object", "correction missing", "correction not a string",
        "input missing", "pair nested too deeply", "log line nested too deeply",
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
    assert re.match(f"error: line 2: {message}", line)


# Records a and b have a hypothesis equal to a target; d's hypothesis differs from its one target.
_ONCE_RECORDS = [
    {"id": "a", "source": "他昨天去学校了的", "targets": ["他昨天去学校了"]},
    {"id": "b", "source": "我很喜欢吃苹果苹果", "targets": ["我很喜欢吃苹果", "我很喜欢吃苹果。"]},
    {"id": "c", "source": "她看书在图书馆", "targets": ["她在图书馆看书", "她在图书馆里看书"]},
    {"id": "d", "source": "正确的句子", "targets": ["正确的句子"]},
]
_ONCE_HYPS = ["他昨天去学校了", "我很喜欢吃苹果。", "她在图书馆看书了", "正确的句子呀"]


def _extractions(run, write_corpus, tmp_path, monkeypatch, command, *options):
    """(exit code, stdout, the (source, text) of each char_level_edits call) of one scoring run."""
    import re2gec.scorer

    src = write_corpus(_ONCE_RECORDS)
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("".join(h + "\n" for h in _ONCE_HYPS), encoding="utf-8")
    calls = []
    original = re2gec.scorer.char_level_edits

    def counting(source, target):
        calls.append((source, target))
        return original(source, target)

    monkeypatch.setattr(re2gec.scorer, "char_level_edits", counting)
    code, out, _ = run(command, "--src", src, "--hyp", str(hyp), *options)
    return code, out, calls


def _each_distinct_text_once():
    """The hypothesis and then each reference, sentence by sentence, skipping a text seen before."""
    return [
        (rec["source"], text)
        for rec, h in zip(_ONCE_RECORDS, _ONCE_HYPS)
        for text in dict.fromkeys([h, *rec["targets"]])
    ]


def test_score_per_sentence_scores_each_sentence_once(run, write_corpus, tmp_path, monkeypatch):
    tsv = tmp_path / "per.tsv"
    code, out, calls = _extractions(
        run, write_corpus, tmp_path, monkeypatch, "score", "--per-sentence", str(tsv)
    )
    assert code == 0
    # a and b reuse the hypothesis's edits for the target equal to it
    assert calls == _each_distinct_text_once()
    assert len(calls) == 8  # 10 with every text extracted
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


def test_detect_extracts_each_distinct_text_once(run, write_corpus, tmp_path, monkeypatch):
    code, out, calls = _extractions(run, write_corpus, tmp_path, monkeypatch, "detect")
    assert code == 0
    assert calls == _each_distinct_text_once()
    # expected bytes are the output of the scorer that extracted every text
    assert out == (
        '{"sentence_level": {"precision": 0.75, "recall": 1.0, "f1": 0.8571428571428571}, '
        '"position_level": {"precision": 0.8571428571428571, "recall": 1.0, '
        '"f1": 0.923076923076923}}\n'
    )


def test_sweep_theta_extracts_each_distinct_text_of_an_input_once(run, tmp_path, monkeypatch):
    import ledger_inputs
    import re2gec.pipeline
    import re2gec.scorer

    ledger_inputs.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run("build-index", "--in", "train.jsonl", "--out", "tfidf.idx")[0] == 0
    calls, corrections = [], []
    original_edits, original_correct = re2gec.scorer.char_level_edits, re2gec.pipeline._correct

    def counting(source, target):
        calls.append((source, target))
        return original_edits(source, target)

    def correct(source, *args):
        outcome = original_correct(source, *args)
        corrections.append((source, outcome.correction))
        return outcome

    monkeypatch.setattr(re2gec.scorer, "char_level_edits", counting)
    monkeypatch.setattr(re2gec.pipeline, "_correct", correct)
    code, _, _ = run(
        "sweep-theta", "--dev", "dev.jsonl", "--train", "train.jsonl", "--index", "tfidf.idx",
        "--thetas", "0,0.6,0.9", "--script", "corrector.json", "--explainer-script",
        "explainer.json",
    )
    assert code == 0
    dev = [json.loads(line) for line in (tmp_path / "dev.jsonl").read_text("utf-8").splitlines()]
    assert len(corrections) == 3 * len(dev)
    assert len({r["source"] for r in dev}) == len(dev)  # so a source names its input
    # Each input's targets first, then each theta's corrections, input by input;
    # a text already extracted for that input, in any earlier theta, is not again.
    want, seen = [], set()
    for source, text in [(r["source"], t) for r in dev for t in r["targets"]] + corrections:
        if (source, text) not in seen:
            seen.add((source, text))
            want.append((source, text))
    assert calls == want
    assert sum(len(r["targets"]) for r in dev) + len(corrections) == 52
    assert len(calls) == 31


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


def test_make_sft_data_with_an_embedding_index(run, gee_jsonl, write_script, tmp_path):
    script = write_script({text: _vector(text) for _, text in GEE_DOCS})
    index = str(tmp_path / "emb.re2idx")
    code, _, err = run(
        "build-index", "--in", gee_jsonl, "--ranking", "embedding", "--embed-script", script,
        "--out", index,
    )
    assert code == 0, err
    code, out, err = run(
        "make-sft-data", "--train", gee_jsonl, "--index", index, "--k", "2",
        "--embed-script", script,
    )
    assert code == 0, err
    got = [json.loads(line)["meta"] for line in out.splitlines()[::2]]
    loaded, embedder = load_index(index), lambda texts: [_vector(t) for t in texts]
    want = [
        lib_query(loaded, text, k=2, theta=0.0, exclude_ids={doc_id}, embedder=embedder)
        for doc_id, text in GEE_DOCS
    ]
    assert [meta["id"] for meta in got] == [doc_id for doc_id, _ in GEE_DOCS]
    assert [meta["example_ids"] for meta in got] == [[h.doc_id for h in r.hits] for r in want]
    assert all(len(meta["example_ids"]) == 2 for meta in got)


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
    (line,) = out.splitlines()
    failed = json.loads(line)
    assert list(failed) == ["id", "input", "error"]
    assert failed["id"] == "" and failed["input"] == "未知的句子"
    assert failed["error"]["stage"] == "explain"
    message = failed["error"]["message"]
    assert message.startswith("mock backend: no scripted response")
    assert err.splitlines() == [f"error: 1 of 1 inputs failed (first:  at explain: {message})"]


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


@pytest.mark.parametrize("command", ["score", "detect"])
def test_a_hyp_log_of_other_inputs_fails(run, dev_jsonl, write_corpus, tmp_path, command):
    # The log has one outcome per --src record, but its second corrected another input.
    log = write_corpus([{"input": INPUT_LOW, "correction": TARGET_LOW},
                        {"input": "别的句子", "correction": "别的句子"}])
    out = tmp_path / "out.json"
    code, stdout, err = run(command, "--src", dev_jsonl, "--hyp-log", log, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [
        f"error: --hyp-log outcome 2 holds input '别的句子', but --src record 'devB' "
        f"has source {INPUT_HIGH!r}"
    ]
    assert not out.exists()


def test_rouge_files_of_different_lengths_fail(run, tmp_path):
    cand, ref, out = tmp_path / "cand.txt", tmp_path / "ref.txt", tmp_path / "out.json"
    cand.write_text("他去了\n学校\n", encoding="utf-8")
    ref.write_text("他去了\n", encoding="utf-8")
    argv = ("rouge", "--cand-file", str(cand), "--ref-file", str(ref), "--out", str(out))
    assert run(*argv) == (1, "", "error: 2 candidates but 1 references\n")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command, field, message",
    [
        ("correct", "source", "index was built over the source field, not explanation: "
         "rebuild it with build-index --field explanation"),
        ("sweep-theta", "source", "index was built over the source field, not explanation: "
         "rebuild it with build-index --field explanation"),
        ("baseline", "explanation", "baseline: textsim requires a source-text index, "
         "not one built over the explanation field"),
    ],
    ids=["correct", "sweep-theta", "baseline textsim"],
)
def test_index_over_the_wrong_field_is_rejected(
    run, command, field, message, gee_jsonl, dev_jsonl, write_script, monkeypatch, tmp_path
):
    # The index matches the corpus, but holds the text the command does not retrieve by.
    index = str(tmp_path / "wrong.re2idx")
    assert run("build-index", "--in", gee_jsonl, "--field", field, "--out", index) == (0, "", "")
    calls = []
    monkeypatch.setattr(re2gec.pipeline, "complete", lambda *args: calls.append(args) or "句")
    script = write_script({})
    argv = {
        "correct": ("correct", "--in", dev_jsonl, "--corpus", gee_jsonl,
                    "--script", script, "--explainer-script", script),
        "sweep-theta": ("sweep-theta", "--dev", dev_jsonl, "--train", gee_jsonl,
                        "--thetas", "0.5", "--script", script, "--explainer-script", script),
        "baseline": ("baseline", "--mode", "textsim", "--in", dev_jsonl, "--corpus", gee_jsonl,
                     "--script", script),
    }[command]
    out_file = tmp_path / "out.jsonl"
    code, out, err = run(*argv, "--index", index, "--out", str(out_file))
    assert (code, out, calls) == (1, "", [])
    assert err.splitlines() == [f"error: {message}"]
    assert not out_file.exists()


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


def test_a_failed_shared_completion_fails_sweep_theta_once(
    run, gee_jsonl, index_file, explainer_script, write_corpus, write_script, monkeypatch,
    tmp_path,
):
    # Two inputs ask for the same correction prompt, which the corrector fails.
    dev = write_corpus([{"id": f"dev{i}", "source": INPUT_LOW, "targets": [TARGET_LOW]}
                        for i in range(2)])
    corrector = write_script({}, fallback="none")
    calls = []
    complete = re2gec.pipeline.complete
    monkeypatch.setattr(
        re2gec.pipeline, "complete",
        lambda prompt, params, backend: calls.append((backend.script_path, prompt))
        or complete(prompt, params, backend),
    )
    out = tmp_path / "rows.json"
    code, stdout, err = run(
        "sweep-theta", "--dev", dev, "--train", gee_jsonl, "--index", index_file,
        "--thetas", "0,0.6", "--script", corrector, "--explainer-script", explainer_script,
        "--jobs", "2", "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: correct: mock backend: no scripted response")
    assert not out.exists()
    # One explanation per input, and one call for the prompt both inputs share.
    assert [path for path, _ in calls].count(explainer_script) == 2
    assert len([prompt for path, prompt in calls if path == corrector]) == 1


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
        (",", None, 2, "argument --rankings: no ranking given"),
        (None, [], 2, "usage error: config key 'rankings': argument --rankings: no ranking given"),
    ],
    ids=["flag", "manifest", "embedding without backend", "empty flag", "empty manifest"],
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
    assert run(*argv[:9], "--rankings", "tfidf_cosine")[0] == 0
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


@pytest.mark.parametrize("command", ["explain", "correct", "baseline"])
def test_one_failing_input_costs_one_error_line(
    run, command, text_commands, write_corpus, write_script, tmp_path
):
    # The third input has no scripted explanation, nor (for baseline) correction.
    texts = [INPUT_LOW, INPUT_HIGH, "未知的句子", INPUT_HIGH, INPUT_LOW]
    records = [{"id": f"dev{i}", "source": t, "targets": [t]} for i, t in enumerate(texts)]
    argv = list(text_commands[command][0])
    if command == "baseline":
        replies = {render_gec_prompt(t, [], SET): "答" for t in (INPUT_LOW, INPUT_HIGH)}
        argv[argv.index("--script") + 1] = write_script(replies, fallback="none")
    runs = {}
    for name, kept in (("planted", records), ("clean", records[:2] + records[3:])):
        argv[argv.index("--in") + 1] = write_corpus(kept)
        for jobs in ("1", "4"):
            runs[name, jobs] = run(command, *argv, "--jobs", jobs)
    assert runs["planted", "1"] == runs["planted", "4"]
    assert runs["clean", "1"] == runs["clean", "4"]
    code, out, err = runs["planted", "1"]
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] + lines[3:] == runs["clean", "1"][1].splitlines()
    failed = json.loads(lines[2])
    stage = "correct" if command == "baseline" else "explain"
    assert (failed["id"], failed["input"], failed["error"]["stage"]) == ("dev2", texts[2], stage)
    message = failed["error"]["message"]
    assert message.startswith("mock backend: no scripted response")
    assert err.splitlines() == [f"error: 1 of 5 inputs failed (first: dev2 at {stage}: {message})"]


def test_a_line_that_hangs_the_segmenter_costs_one_input_at_any_jobs(
    run, gee_jsonl, write_corpus, write_script, tmp_path
):
    # The index's external segmenter hangs on d3's explanation, past its timeout;
    # the inputs queued behind it wait that out and then get a fresh child.
    index = str(tmp_path / "external.re2idx")
    code, _, err = run("build-index", "--in", gee_jsonl, "--out", index, "--segmenter",
                       "external", "--segmenter-cmd", HANG_ON_X_CMD, "--segmenter-timeout", "0.5")
    assert code == 0, err
    sources = [f"第{i}个句子" for i in range(8)]
    explanations = [GEE_DOCS[i % 3][1] for i in range(8)]
    explanations[3] = "X" + explanations[3]
    explainer = write_script(
        {explain_prompt(s): e for s, e in zip(sources, explanations)}, fallback="none"
    )
    dev = write_corpus(
        [{"id": f"d{i}", "source": s, "targets": [s]} for i, s in enumerate(sources)]
    )
    argv = ("correct", "--in", dev, "--corpus", gee_jsonl, "--index", index,
            "--script", write_script({}), "--explainer-script", explainer)
    try:
        runs = {jobs: run(*argv, "--jobs", jobs) for jobs in ("1", "4")}
    finally:
        close_external_segmenters()
    assert runs["1"] == runs["4"]
    code, out, err = runs["1"]
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert ["error" in line for line in lines] == [i == 3 for i in range(8)]
    assert (lines[3]["id"], lines[3]["error"]["stage"]) == ("d3", "retrieve")
    message = lines[3]["error"]["message"]
    assert message.endswith("timed out after 0.5s")
    assert err.splitlines() == [f"error: 1 of 8 inputs failed (first: d3 at retrieve: {message})"]


def test_a_segmenter_that_cannot_start_is_one_error_line(run, gee_jsonl, tmp_path):
    out = tmp_path / "external.re2idx"
    command = str(tmp_path / "no-such-segmenter")
    code, stdout, err = run("build-index", "--in", gee_jsonl, "--out", str(out),
                            "--segmenter", "external", "--segmenter-cmd", command)
    assert (code, stdout) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot start segmenter {command!r}: ")
    assert not out.exists()


def test_make_sft_data_rejects_a_source_text_index(run, write_corpus, tmp_path):
    # make-sft-data retrieves by explanation, so an index over the sources fails once,
    # before any record: here even before record d1, which has no explanation.
    records = [
        {"id": doc_id, "source": f"原句{i}", "targets": [f"改句{i}"], "explanation": text}
        for i, (doc_id, text) in enumerate(GEE_DOCS)
    ]
    del records[1]["explanation"]
    train = write_corpus(records)
    index = str(tmp_path / "source.re2idx")
    assert run("build-index", "--in", train, "--field", "source", "--out", index) == (0, "", "")
    out_file = tmp_path / "sft.jsonl"
    code, out, err = run("make-sft-data", "--train", train, "--index", index, "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: index was built over the source field, not explanation: "
        "rebuild it with build-index --field explanation"
    ]
    assert not out_file.exists()


def test_make_sft_data_record_without_a_hit_gets_one_plain_pair(run, write_corpus, tmp_path):
    # c's explanation shares no character bigram or trigram with a's or b's.
    texts = {"a": "主谓搭配不当，谓语动词使用错误", "b": "主谓搭配不当，宾语中心语残缺", "c": "语序颠倒"}
    train = write_corpus([
        {"id": doc_id, "source": f"原句{doc_id}", "targets": [f"改句{doc_id}"], "explanation": text}
        for doc_id, text in texts.items()
    ])
    index = str(tmp_path / "train.re2idx")
    assert run("build-index", "--in", train, "--out", index) == (0, "", "")
    code, out, err = run("make-sft-data", "--train", train, "--index", index)
    assert (code, err) == (0, "")
    metas = [json.loads(line)["meta"] for line in out.splitlines()]
    assert metas == [
        {"id": "a", "mode": "with_examples", "example_ids": ["b"]},
        {"id": "a", "mode": "without_examples"},
        {"id": "b", "mode": "with_examples", "example_ids": ["a"]},
        {"id": "b", "mode": "without_examples"},
        {"id": "c", "mode": "without_examples"},
    ]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--mode", "textsim"], "baseline: textsim requires a source-text index"),
        (["--mode", "random_k", "--k", "4"], "baseline: corpus has 3 records, need k=4"),
    ],
    ids=["textsim without index", "random_k past the corpus"],
)
def test_baseline_that_no_input_can_pass_fails_once_before_any_backend_call(
    run, dev_jsonl, gee_jsonl, write_script, monkeypatch, options, message
):
    calls = []
    monkeypatch.setattr(re2gec.pipeline, "complete", lambda *args: calls.append(args))
    code, out, err = run(
        "baseline", *options, "--in", dev_jsonl, "--corpus", gee_jsonl,
        "--script", write_script({}),
    )
    assert (code, out, calls) == (1, "", [])
    assert err.splitlines() == [f"error: {message}"]


def test_lone_surrogate_input_costs_one_error_line(run, text_commands, write_corpus, tmp_path):
    # json.dumps escapes the surrogate, load_corpus accepts the escape, and no prompt holding it
    # can be sent; the error line keeps it as the escape.
    texts = [INPUT_LOW, "他\ud800吃饭", INPUT_HIGH]
    dev = tmp_path / "dev.jsonl"
    records = [{"id": f"dev{i}", "source": t, "targets": [t]} for i, t in enumerate(texts)]
    dev.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="ascii")
    argv = list(text_commands["correct"][0])
    argv[argv.index("--in") + 1] = str(dev)
    runs = {jobs: run("correct", *argv, "--jobs", jobs) for jobs in ("1", "4")}
    assert runs["1"] == runs["4"]
    code, out, err = runs["1"]
    assert code == 1
    lines = out.splitlines()
    clean = [{"id": "devA", "source": INPUT_LOW, "targets": [INPUT_LOW]},
             {"id": "devB", "source": INPUT_HIGH, "targets": [INPUT_HIGH]}]
    argv[argv.index("--in") + 1] = write_corpus(clean)
    assert [lines[0], lines[2]] == run("correct", *argv)[1].splitlines()
    failed = json.loads(lines[1])
    assert (failed["id"], failed["input"]) == ("dev1", texts[1])
    assert failed["error"]["stage"] == "explain"
    assert "\\ud800" in lines[1]
    (line,) = err.splitlines()
    assert line.startswith("error: 1 of 3 inputs failed (first: dev1 at explain: prompt line ")


_BAD_SCRIPTS = {
    "missing": (None, "cannot read mock script '{path}': [Errno 2] No such file or directory"),
    "not UTF-8": (b'{"__fallback__": "\xff"}',
                  "mock script '{path}': line 1 is not UTF-8 (invalid start byte)"),
    "not JSON": (b"{fallback", "mock script '{path}': Expecting property name enclosed in"),
    "JSON list": (b'["echo_last_line"]', "mock script '{path}' must be a JSON object"),
    "unknown fallback": (b'{"__fallback__": "improvise"}',
                         "mock script '{path}': unknown fallback 'improvise'"),
}


@pytest.mark.parametrize("fault", _BAD_SCRIPTS)
@pytest.mark.parametrize(
    "command, flag",
    [("explain", "--explainer-script"), ("correct", "--script"), ("baseline", "--script"),
     ("sweep-theta", "--explainer-script"), ("query", "--embed-script")],
)
def test_bad_mock_script_fails_once_before_any_input(
    run, work_args, tmp_path, command, flag, fault
):
    argvs, calls = work_args
    data, message = _BAD_SCRIPTS[fault]
    script = tmp_path / "bad-script.json"
    if data is not None:
        script.write_bytes(data)
    argv = list(argvs[command])
    if flag in argv:
        argv[argv.index(flag) + 1] = str(script)
    else:
        argv += [flag, str(script)]
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old\n")
    code, stdout, err = run(command, *argv, "--out", str(out))
    assert (code, stdout, calls) == (1, "", [])  # no input read, no backend called
    (line,) = err.splitlines()
    assert line.startswith("error: " + message.format(path=script))
    assert out.read_bytes() == b"old\n"


@pytest.mark.parametrize(
    "command, file, body, message",
    [
        ("correct", "gec_without_examples.txt", "{Inputt}\n",
         "template gec_without_examples: missing placeholder 'Inputt'"),
        # Stricter than rendering alone: a zero-shot run renders no with-examples prompt.
        ("baseline", "gec_with_examples.txt", "{Input}\n",
         "template gec_with_examples: no example block line"),
    ],
    ids=["unbound placeholder", "no example block line"],
)
def test_template_set_no_input_can_render_fails_once_before_any_backend_call(
    run, text_commands, batch_dev, monkeypatch, tmp_path, command, file, body, message
):
    templates = tmp_path / "templates"
    shutil.copytree(Path(str(resources.files("re2gec"))) / "templates" / "default", templates)
    (templates / file).write_text(body, encoding="utf-8")
    calls = []
    monkeypatch.setattr(re2gec.pipeline, "complete", lambda *args: calls.append(args))
    argv = list(text_commands[command][0])
    argv[argv.index("--in") + 1] = batch_dev
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old\n")
    code, stdout, err = run(command, *argv, "--templates", str(templates), "--out", str(out))
    assert (code, stdout, calls) == (1, "", [])
    assert err.splitlines() == [f"error: {message}"]
    assert out.read_bytes() == b"old\n"


def test_sweep_theta_on_a_bm25_index_warns_that_theta_moves_nothing(
    run, dev_jsonl, gee_jsonl, index_file, explainer_script, corrector_script, tmp_path
):
    # In a process of its own: pytest's logging plugin would catch the warning.
    bm25_index = str(tmp_path / "bm25.re2idx")
    argv = ("build-index", "--in", gee_jsonl, "--ranking", "bm25", "--out", bm25_index)
    assert run(*argv) == (0, "", "")
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src_dir}
    results = {}
    for name, index in (("tfidf", index_file), ("bm25", bm25_index)):
        proc = subprocess.run(
            [sys.executable, "-m", "re2gec", "sweep-theta", "--dev", dev_jsonl,
             "--train", gee_jsonl, "--index", index, "--thetas", "0.0,1.0",
             "--script", corrector_script, "--explainer-script", explainer_script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        results[name] = (proc.returncode, proc.stderr.splitlines(), json.loads(proc.stdout))
    assert results["tfidf"][:2] == (0, [])
    code, lines, rows = results["bm25"]
    assert (code, lines) == (0, ["theta does not move a BM25 gate, so every row is the same"])
    assert [{**row, "theta": 0} for row in rows] == [{**rows[0], "theta": 0}] * 2


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
    "text, message",
    [
        ('{"k": 2,\n "theta": ' + "[" * 2000 + "]" * 2000 + "}",
         r"nested too deeply: line 2 column 2010 \(char 2018\)"),
        ('{"k": 2, "note": "[1",\n "theta": ' + "7" * 5000 + "}",
         r"Exceeds the limit .* digits: line 2 column 11 \(char 33\)"),
    ],
    ids=["nested too deeply", "integer too long"],
)
def test_unreadable_config_manifest_names_the_position(run, index_file, tmp_path, text, message):
    manifest = tmp_path / "config.json"
    manifest.write_text(text, encoding="utf-8")
    code, out, err = run(
        "query", "--config", str(manifest), "--index", index_file, "--text", Q_LOW
    )
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert re.fullmatch(f"error: cannot read config '.*': {message}", line)


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


def test_manifest_keys_are_long_option_names(run, write_corpus, tmp_path):
    pairs = write_corpus([{"source": "ab", "target": "ba"}])
    manifest = tmp_path / "config.json"
    manifest.write_text(json.dumps({"in": pairs, "segmenter": "whitespace"}), encoding="utf-8")
    assert run("extract-edits", "--config", str(manifest)) == (0, '[[0,"ab","ba"]]\n', "")
    # The option's dest is not a key.
    manifest.write_text(json.dumps({"infile": pairs}), encoding="utf-8")
    code, _, err = run("extract-edits", "--config", str(manifest), "--strict")
    assert (code, err) == (2, f"usage error: config {str(manifest)!r}: unknown key(s) 'infile'\n")


def test_manifest_values_reach_the_handler_unchanged(run, write_corpus, tmp_path, monkeypatch):
    manifest = tmp_path / "config.json"
    manifest.write_text(json.dumps({"candidate": "", "reference": "abc"}), encoding="utf-8")
    assert run("rouge", "--config", str(manifest)) == run(
        "rouge", "--candidate", "", "--reference", "abc"
    )
    # Paths with "=" or a leading "-" are values, not options.
    monkeypatch.chdir(tmp_path)
    for name in ("a=b.jsonl", "-pairs.jsonl"):
        write_corpus([{"source": "ab", "target": "ba"}], name=name)
        manifest.write_text(json.dumps({"in": name}), encoding="utf-8")
        assert run("extract-edits", "--config", str(manifest)) == (
            0, '[[0,"a",""],[2,"","a"]]\n', ""
        )


def test_manifest_help_key_is_an_unknown_key(run, tmp_path):
    manifest = tmp_path / "config.json"
    manifest.write_text(
        json.dumps({"help": True, "source": "ab", "target": "ba"}), encoding="utf-8"
    )
    argv = ("extract-edits", "--config", str(manifest))
    assert run(*argv) == (0, '[[0,"a",""],[2,"","a"]]\n', "")
    assert run(*argv, "--strict") == (
        2, "", f"usage error: config {str(manifest)!r}: unknown key(s) 'help'\n"
    )


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
        "from re2gec.corpus import Corpus, SentencePair\n"
        "from re2gec.retriever import build_index, query\n"
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


@pytest.mark.parametrize("module", ["re2gec.scorer", "re2gec.corpus", "re2gec.edit_extract"])
def test_offline_modules_load_no_pipeline_modules(tmp_path, module):
    # The package re-exports nothing, so a module loads only the modules it imports.
    src_dir = str(Path(re2gec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    child = f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    pipeline_side = {"re2gec.pipeline", "re2gec.retriever", "re2gec.prompting",
                     "re2gec.llm_backend", "numpy"}
    assert module in loaded
    assert loaded & pipeline_side == set()


def _modules_loaded_by_offline_commands(tmp_path, names, more=()):
    """Exit codes of ``score``, ``detect``, ``rouge`` and ``extract-edits``, then of each argv
    of ``more``, run in turn in a fresh interpreter, and which of ``names`` each step loaded:
    ``import re2gec.cli`` first, then each command.  A module loaded before ``re2gec.cli``
    (a ``site`` hook may preload some) counts for no step.
    """
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
        f"names = {tuple(names)!r}\n"
        "loaded = set(sys.modules)\n"
        "def step():\n"
        "    new = [name for name in names if name in sys.modules and name not in loaded]\n"
        "    loaded.update(sys.modules)\n"
        "    return new\n"
        "import re2gec.cli\n"
        "seen = [step()]\n"
        "codes = []\n"
        "for argv in (['score', '--src', 'src.jsonl', '--hyp', 'hyp.txt'],\n"
        "             ['detect', '--src', 'src.jsonl', '--hyp', 'hyp.txt'],\n"
        "             ['rouge', '--candidate', 'ab', '--reference', 'abc'],\n"
        "             ['extract-edits', '--source', 'ab', '--target', 'ba'],\n"
        f"             *{list(more)!r}):\n"
        "    codes.append(re2gec.cli.dispatch(argv))\n"
        "    seen.append(step())\n"
        "print(json.dumps([codes, seen]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_http_clients_loaded_only_by_http_backends(tmp_path):
    # Only an HTTP backend's POST may import an HTTP client. requests (with
    # urllib3 and charset_normalizer) is imported by nothing; urllib.request
    # and http.client cost import time that an offline command never needs.
    names = ("requests", "urllib.request", "http.client")
    codes, seen = _modules_loaded_by_offline_commands(tmp_path, names)
    assert codes == [0, 0, 0, 0]
    assert seen == [[], [], [], [], []]


def test_scoring_loads_no_pipeline_backend_or_segmenter_modules(tmp_path):
    # These serve the pipeline, the backends and the external segmenter only:
    # hashlib loads OpenSSL, and the rest cost start-up time that scoring and
    # edit extraction never use.
    names = ("hashlib", "_hashlib", "logging", "concurrent.futures", "subprocess", "select",
             "shlex")
    codes, seen = _modules_loaded_by_offline_commands(tmp_path, names)
    assert codes == [0, 0, 0, 0]
    assert seen == [[], [], [], [], []]


def test_inspect_and_segmentation_first_load_at_extract_edits(tmp_path):
    # score, detect and rouge segment nothing and read no signature; inspect
    # (with ast, dis and tokenize) loads with the dataclasses of segmentation
    # and where extract-edits reads the --segmenter default for its help.
    names = ("inspect", "dataclasses", "re2gec.segmentation")
    codes, seen = _modules_loaded_by_offline_commands(tmp_path, names)
    assert codes == [0, 0, 0, 0]
    assert seen == [[], [], [], [], list(names)]


def test_scoring_loads_no_pipeline_side_modules(tmp_path, text_commands):
    # re2gec.cli imports the pipeline side on first use, so scoring and edit
    # extraction run without it; a correct run, which needs it, loads it all.
    names = ("re2gec.pipeline", "re2gec.retriever", "re2gec.prompting", "re2gec.llm_backend",
             "numpy")
    correct = ["correct", *text_commands["correct"][0]]
    codes, seen = _modules_loaded_by_offline_commands(tmp_path, names, [correct])
    assert codes == [0, 0, 0, 0, 0]
    assert seen == [[], [], [], [], [], list(names)]
