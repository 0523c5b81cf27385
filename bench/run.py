"""Seeded offline benchmark for the re2gec CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Every command under test runs as
``python -m re2gec ...`` in a fresh child process, with the package taken
from ``src/``.  Workloads (see BENCHMARK.json and bench/README.md):

* ``correct-stub``  -- ``correct --jobs <nproc>`` over 220 dev inputs and a
  1k-doc index, both backends HTTP against bench/stub.py (50 ms per reply).
* ``retrieve-5k``   -- ``correct --jobs 1`` over 100 dev inputs and a 5k-doc
  index, with mock backends, so index load and query dominate.
* ``score-eval``    -- ``score --per-sentence``, ``detect`` and ``rouge`` over
  4000 (source, hypothesis, targets) triples.

Each run writes its inputs from the seed, times the workload's preparation
command three times (``setup_s`` is the median), then repeats the measured
command(s) for about S seconds.  Every timed command runs between two runs
of a calibration kernel, and its CPU time is scaled to the reference CPU
speed (see ``calibrate``).  Every output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced
(bench/traced.py) invocations alternate and the metrics are the per-layer
ones.  Working files live under ``.bench_build/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402

SETUP_REPEATS = 3
# Seconds of CPU the calibration kernel takes on the reference CPU; see
# calibrate().  It only scales the reported times; it is not a tuning knob.
CAL_REF_S = 0.1
THETA = 0.6
K = 3
STUB_DELAY_S = 0.05
ORACLE_SAMPLE = 6           # sample queries checked against the full-scan oracle
SCORE_TOLERANCE = 1e-9
MODE_WITH = "with_examples"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "corpus.load_corpus.busy_s": "s",
    "retriever.ngram_counts.calls": "count",
    "retriever.ngram_counts.busy_s": "s",
    "retriever.build_index.busy_s": "s",
    "retriever.dumps_index.busy_s": "s",
    "retriever.vocab_size": "count",
    "retriever.index_bytes": "bytes",
    "retriever.loads_index.busy_s": "s",
    "retriever.postings.first_s": "s",
    "retriever.query.calls": "count",
    "retriever.query.busy_s": "s",
    "retriever.query.p50_ms": "ms",
    "retriever.query.p90_ms": "ms",
    "retriever.query_bm25.p50_ms": "ms",
    "prompting.render_gec_prompt.busy_s": "s",
    "pipeline.gate_open_ratio": "ratio",
    "pipeline.run_re2.p50_ms": "ms",
    "pipeline.run_re2.p90_ms": "ms",
    "pipeline.stage.explain_s": "s",
    "pipeline.stage.retrieve_s": "s",
    "pipeline.stage.prompt_s": "s",
    "pipeline.stage.correct_s": "s",
    "llm_backend.complete.calls": "count",
    "llm_backend.complete.p50_ms": "ms",
    "llm_backend.overhead_ms": "ms",
    "llm_backend.http_requests": "count",
    "llm_backend.connections": "count",
    "llm_backend.attempts_per_call": "ratio",
    "llm_backend.max_in_flight_seen": "count",
    "edit_extract.char_level_edits.calls": "count",
    "edit_extract.char_level_edits.busy_s": "s",
    "scorer.score_corpus.busy_s": "s",
    "scorer.score_sentence.calls": "count",
    "scorer.score_sentence_per_pair": "ratio",
    "scorer.detection_metrics.busy_s": "s",
    "scorer.rouge_l.busy_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.target_share": "ratio",
}
LAYERS = (
    "cli", "corpus", "segmentation", "retriever", "prompting",
    "llm_backend", "pipeline", "edit_extract", "scorer",
)
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed output check)."""


# ---------------------------------------------------------------- children


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class Runner:
    """Starts CLI children from the repository root and times each one.

    The children are started by bench/launch.py, itself started before this
    process has generated anything, so their peak RSS is their own.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
        env.pop("RE2_API_KEY", None)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        env["NO_PROXY"] = "127.0.0.1,localhost"
        self.env = env
        self._log = 0
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=root, text=True,
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()

    def run(self, argv: list[str], stdout: Path | None = None) -> ChildRun:
        """Run one child to completion; wall, CPU and peak RSS come from wait4."""
        self._log += 1
        err_path = self.work / f"stderr-{self._log}.txt"
        request = {"argv": argv, "stdout": str(stdout) if stdout else None,
                   "stderr": str(err_path)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise BenchError("launcher exited")
        child = ChildRun(**json.loads(reply))
        if child.code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-400:]
            print(f"child exited {child.code}: {' '.join(argv[:4])} ...: {tail}", file=sys.stderr)
        return child

    def cli(self, args: list[str], stdout: Path | None = None) -> ChildRun:
        return self.run([sys.executable, "-m", "re2gec", *args], stdout)

    def traced(
        self, args: list[str], spans: Path, explainer: str | None = None,
        stdout: Path | None = None,
    ) -> ChildRun:
        extra = ["--explainer", explainer] if explainer else []
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), *extra, "--", *args]
        return self.run(argv, stdout)


class Stub:
    """bench/stub.py in its own process; stopped and waited for on exit."""

    def __init__(self, runner: Runner, replies: Path, delay: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), str(replies), str(delay)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=runner.env,
            cwd=runner.root, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise BenchError("stub did not report its port")
        self.endpoint = f"http://127.0.0.1:{line}"

    def stats(self) -> dict:
        """Counters since the previous call (the stub resets them)."""
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(self.endpoint + "/stats", timeout=10) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- spans


class Spans:
    """Aggregates over spans written by bench/traced.py."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_name: dict[str, list[list]] = {}
        for span in spans:
            self.by_name.setdefault(span[0], []).append(span)

    def durations(self, name: str, tag=None) -> list[float]:
        return [
            s[2] - s[1] for s in self.by_name.get(name, ()) if tag is None or s[5] == tag
        ]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, name: str, tag=None) -> float:
        return sum(self.durations(name, tag))

    def pct_ms(self, name: str, q: float) -> float:
        return _pct(self.durations(name), q) * 1000.0

    def first(self, name: str) -> float:
        spans = self.by_name.get(name)
        return spans[0][2] - spans[0][1] if spans else 0.0

    def last_tag(self, name: str) -> float:
        spans = self.by_name.get(name)
        return float(spans[-1][5] or 0) if spans else 0.0

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the union of their child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append((span[1], span[2]))
        out = {layer: 0.0 for layer in LAYERS}
        for idx, (name, start, end, _thread, _parent, _tag) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer not in out:
                continue
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[layer] += (end - start) - covered
        return out


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _load_spans(paths: list[Path]) -> Spans:
    spans: list[list] = []
    for path in paths:
        offset = len(spans)
        for span in json.loads(path.read_text(encoding="utf-8")):
            if span[4] is not None:
                span[4] += offset
            spans.append(span)
    return Spans(spans)


# ---------------------------------------------------------------- workloads


def _write_jsonl(path: Path, records: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n")


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    items: int
    failed: int
    spans: Spans | None = None
    extra: dict = field(default_factory=dict)
    speed: float = 1.0      # calibrate() time around it over CAL_REF_S


# ---------------------------------------------------------------- calibration


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python kernel: n-gram counting and a sort.

    On a shared 2-vCPU virtual machine, CPU speed was seen to drift by up to
    1.8x for minutes at a time, moving compute-bound and memory-bound Python
    alike.  Timing this kernel right
    before and after each measured command gives the speed it ran at, and
    every reported time is scaled to the reference speed (CAL_REF_S).
    """
    start = time.process_time()
    text = "".join(chr(0x4E00 + (i * 7919) % 3000) for i in range(150000))
    counts: dict[str, int] = {}
    for n in (2, 3):
        for i in range(len(text) - n + 1):
            gram = text[i:i + n]
            counts[gram] = counts.get(gram, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.process_time() - start


def _at_ref(wall: float, cpu: float, speed: float) -> float:
    """Wall time at reference speed: the CPU part scales, waiting does not."""
    return wall - cpu + cpu / speed


def _calibrated(fn):
    """Run ``fn()`` between two calibrations; returns (result, speed factor)."""
    before = calibrate()
    result = fn()
    return result, (before + calibrate()) / 2 / CAL_REF_S


class Workload:
    name = ""
    setup_items = 0      # items the preparation command's output is checked on

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.work = runner.work
        self.seed = seed
        self.properties: dict = {}

    def prepare(self) -> None:
        """Write the seeded inputs and compute oracle answers (untimed)."""

    def setup_args(self) -> list[str]:
        raise NotImplementedError

    def check_setup(self) -> int:
        """Failed items of the preparation command's output."""
        return 0

    def start(self) -> None:
        """Start helper processes before the measured phase."""

    def stop(self) -> None:
        """Stop them again; must be safe to call twice."""

    def invoke(self, traced: bool) -> Invocation:
        raise NotImplementedError

    def layer_metrics(self, inv: Invocation) -> dict:
        """Workload-specific per-layer metrics of one traced invocation."""
        return {}

    def target_share(self, inv: Invocation) -> float:
        """Share of the traced invocation spent in the workload's target layer."""
        raise NotImplementedError

    def bm25_probe(self) -> float:
        """p50 ms of the sample queries against a BM25 index; 0.0 without retrieval."""
        return 0.0


class _CorrectWorkload(Workload):
    """Shared by the two ``re2gec correct`` workloads."""

    n_train = 0
    n_dev = 0
    jobs = 1

    def prepare(self) -> None:
        data = gen.correction_set(self.seed, self.n_train, self.n_dev)
        self.data = data
        self.train_path = self.work / "train.jsonl"
        self.dev_path = self.work / "dev.jsonl"
        self.index_path = self.work / "train.idx"
        self.out_path = self.work / "outcomes.jsonl"
        _write_jsonl(self.train_path, data.train)
        _write_jsonl(self.dev_path, data.dev)
        self.expected_corrections = self.scripted_corrections()
        self._oracle()

    def scripted_corrections(self) -> list[str]:
        raise NotImplementedError

    def _oracle(self) -> None:
        """Full-scan answers for a fixed sample of queries, from tests/oracles.py."""
        import oracles

        texts = [rec["explanation"] for rec in self.data.train]
        ids = [rec["id"] for rec in self.data.train]
        vectors, idf = oracles.tfidf_vectors(texts)
        half = ORACLE_SAMPLE // 2
        near = [i for i, n in enumerate(self.data.near_copy) if n][:half]
        fresh = [i for i, n in enumerate(self.data.near_copy) if not n][:half]
        self.oracle_hits: dict[int, list[tuple[str, float]]] = {}
        shares = []
        for i in near + fresh:
            qv = oracles.query_vector(self.data.explanations[i], idf)
            scored = []
            for doc_id, vec in zip(ids, vectors):
                sim = oracles.cosine(qv, vec)
                if sim > 0.0:
                    scored.append((doc_id, sim))
            shares.append(len(scored) / len(ids))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            self.oracle_hits[i] = scored[:K]
        self.properties = {
            "docs": len(texts),
            "dev_inputs": len(self.data.dev),
            "mean_explanation_chars": statistics.fmean(len(t) for t in texts),
            "vocab_ngrams": len(idf),
            "query_doc_share": statistics.fmean(shares),
            "designed_gate_open_share": statistics.fmean(self.data.near_copy),
            "jobs": self.jobs,
        }

    def setup_args(self) -> list[str]:
        return self.build_args(self.index_path)

    def build_args(self, out: Path, *extra: str) -> list[str]:
        return [
            "build-index", "--in", str(self.train_path), "--kind", "gee",
            "--out", str(out), *extra,
        ]

    def correct_args(self) -> list[str]:
        return [
            "correct", "--in", str(self.dev_path), "--corpus", str(self.train_path),
            "--index", str(self.index_path), "--k", str(K), "--theta", str(THETA),
            "--jobs", str(self.jobs), "--out", str(self.out_path),
            *self.backend_args(),
        ]

    def backend_args(self) -> list[str]:
        raise NotImplementedError

    def explainer_id(self) -> str:
        raise NotImplementedError

    def check_outcomes(self) -> tuple[int, float]:
        """(failed inputs, gate-open share) of the last outcome log."""
        try:
            outcomes = _read_jsonl(self.out_path)
        except (OSError, json.JSONDecodeError):
            return self.n_dev, 0.0
        if len(outcomes) != self.n_dev:
            return self.n_dev, 0.0
        failed = 0
        for i, out in enumerate(outcomes):
            ok = (
                out.get("input") == self.data.dev[i]["source"]
                and out.get("explanation") == self.data.explanations[i]
                and out.get("correction") == self.expected_corrections[i]
                and (out.get("mode_used") == MODE_WITH) == self.data.near_copy[i]
            )
            if ok and i in self.oracle_hits:
                ok = _same_hits(out.get("hits", {}).get("hits"), self.oracle_hits[i])
            failed += not ok
        gate_open = sum(out.get("mode_used") == MODE_WITH for out in outcomes)
        return failed, gate_open / len(outcomes)

    def invoke(self, traced: bool) -> Invocation:
        self.out_path.unlink(missing_ok=True)
        before = self.backend_stats()
        spans_path = self.work / "spans-correct.json"
        if traced:
            child = self.runner.traced(self.correct_args(), spans_path, self.explainer_id())
        else:
            child = self.runner.cli(self.correct_args())
        stats = self.backend_stats()
        failed, gate_open = self.check_outcomes()
        if child.code != 0:
            failed = self.n_dev
        if before.get("non_2xx") or stats.get("non_2xx"):
            failed = self.n_dev
        spans = _load_spans([spans_path]) if traced and child.code == 0 else None
        return Invocation(
            child.wall_s, child.cpu_s, child.rss_mb, self.n_dev, failed, spans,
            {"gate_open": gate_open, "stub": stats},
        )

    def backend_stats(self) -> dict:
        return {}

    def backend_delay_ms(self) -> float:
        return 0.0

    def layer_metrics(self, inv: Invocation) -> dict:
        spans = inv.spans
        complete = "llm_backend.complete"
        calls = spans.calls(complete)
        stub = inv.extra["stub"]
        requests = stub.get("requests", 0)
        return {
            "pipeline.gate_open_ratio": inv.extra["gate_open"],
            "pipeline.run_re2.p50_ms": spans.pct_ms("pipeline.run_re2", 0.5),
            "pipeline.run_re2.p90_ms": spans.pct_ms("pipeline.run_re2", 0.9),
            "pipeline.stage.explain_s": spans.busy(complete, "explain"),
            "pipeline.stage.retrieve_s": spans.busy("retriever.query"),
            "pipeline.stage.prompt_s": (
                spans.busy("prompting.render_gec_prompt")
                + spans.busy("prompting.render_gee_prompt")
            ),
            "pipeline.stage.correct_s": spans.busy(complete, "correct"),
            "llm_backend.complete.calls": calls,
            "llm_backend.complete.p50_ms": spans.pct_ms(complete, 0.5),
            "llm_backend.overhead_ms": spans.pct_ms(complete, 0.5) - self.backend_delay_ms(),
            "llm_backend.http_requests": requests,
            "llm_backend.connections": stub.get("connections", 0),
            "llm_backend.attempts_per_call": requests / calls if calls and requests else 0.0,
            "llm_backend.max_in_flight_seen": stub.get("max_in_flight", 0),
        }


def _same_hits(hits, expected: list[tuple[str, float]]) -> bool:
    if not isinstance(hits, list) or len(hits) != len(expected):
        return False
    return all(
        hit[0] == doc_id and abs(hit[1] - score) <= SCORE_TOLERANCE
        for hit, (doc_id, score) in zip(hits, expected)
    )


class CorrectStub(_CorrectWorkload):
    name = "correct-stub"
    n_train = 1000
    n_dev = 220
    jobs = len(os.sched_getaffinity(0))
    explainer_model = "bench-explainer"
    corrector_model = "bench-corrector"

    def __init__(self, runner: Runner, seed: int):
        super().__init__(runner, seed)
        self.stub: Stub | None = None

    def scripted_corrections(self) -> list[str]:
        return self.data.corrections

    def prepare(self) -> None:
        super().prepare()
        self.replies_path = self.work / "replies.json"
        sources = [rec["source"] for rec in self.data.dev]
        replies = {
            self.explainer_model: {
                "role": "explain", "replies": dict(zip(sources, self.data.explanations)),
            },
            self.corrector_model: {
                "role": "correct", "replies": dict(zip(sources, self.data.corrections)),
            },
        }
        self.replies_path.write_text(json.dumps(replies, ensure_ascii=False), encoding="utf-8")
        self.properties["stub_delay_ms"] = STUB_DELAY_S * 1000.0

    def start(self) -> None:
        self.stub = Stub(self.runner, self.replies_path, STUB_DELAY_S)

    def stop(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    def backend_args(self) -> list[str]:
        return [
            "--backend", "http", "--endpoint", self.stub.endpoint,
            "--model", self.corrector_model,
            "--explainer-backend", "http", "--explainer-endpoint", self.stub.endpoint,
            "--explainer-model", self.explainer_model,
        ]

    def explainer_id(self) -> str:
        return self.explainer_model

    def backend_stats(self) -> dict:
        return self.stub.stats()

    def backend_delay_ms(self) -> float:
        return STUB_DELAY_S * 1000.0

    def target_share(self, inv: Invocation) -> float:
        run_re2 = inv.spans.busy("pipeline.run_re2")
        return inv.spans.busy("llm_backend.complete") / run_re2 if run_re2 else 0.0


class Retrieve(_CorrectWorkload):
    name = "retrieve-5k"
    n_train = 5000
    n_dev = 100
    jobs = 1

    def prepare(self) -> None:
        super().prepare()
        from re2gec.corpus import SentencePair
        from re2gec.llm_backend import prompt_key
        from re2gec.prompting import load_template_set, render_gee_prompt

        templates = load_template_set("default")
        script = {"__fallback__": "none"}
        for rec, explanation in zip(self.data.dev, self.data.explanations):
            pair = SentencePair(id="", source=rec["source"], targets=[rec["source"]])
            script[prompt_key(render_gee_prompt(pair, "input_only", templates))] = explanation
        self.explainer_script = self.work / "explainer-script.json"
        self.corrector_script = self.work / "corrector-script.json"
        self.explainer_script.write_text(json.dumps(script, ensure_ascii=False), encoding="utf-8")
        self.corrector_script.write_text('{"__fallback__": "echo_last_line"}', encoding="utf-8")

    def scripted_corrections(self) -> list[str]:
        # The echo script answers with the prompt's last line: the input.
        return [rec["source"] for rec in self.data.dev]

    def backend_args(self) -> list[str]:
        return [
            "--backend", "mock", "--script", str(self.corrector_script),
            "--explainer-backend", "mock", "--explainer-script", str(self.explainer_script),
        ]

    def explainer_id(self) -> str:
        return str(self.explainer_script)

    def target_share(self, inv: Invocation) -> float:
        spans = inv.spans
        # The lazy postings build runs inside the first query span.
        busy = spans.busy("retriever.loads_index") + spans.busy("retriever.query")
        return busy / inv.wall_s

    def bm25_probe(self) -> float:
        """The oracle sample queries against a BM25 index of the same corpus."""
        bm25_path = self.work / "train-bm25.idx"
        child = self.runner.cli(self.build_args(bm25_path, "--ranking", "bm25"))
        if child.code != 0:
            raise BenchError("bm25 build-index failed")
        queries = self.work / "bm25-queries.json"
        texts = [self.data.explanations[i] for i in sorted(self.oracle_hits)]
        queries.write_text(json.dumps(texts, ensure_ascii=False), encoding="utf-8")
        spans_path = self.work / "spans-bm25.json"
        argv = [
            sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path),
            "--probe", str(bm25_path), str(queries),
        ]
        if self.runner.run(argv).code != 0:
            raise BenchError("bm25 probe failed")
        return _load_spans([spans_path]).pct_ms("retriever.query", 0.5)


class ScoreEval(Workload):
    name = "score-eval"
    n_items = 4000
    setup_items = n_items

    def prepare(self) -> None:
        items = gen.score_items(self.seed, self.n_items)
        self.items = items
        w = self.work
        self.src_path, self.hyp_path = w / "src.jsonl", w / "hyp.txt"
        self.ref_path, self.pairs_path = w / "ref.txt", w / "pairs.jsonl"
        self.edits_out = w / "edits.jsonl"
        self.score_out, self.tsv_out = w / "score.json", w / "per-sentence.tsv"
        self.detect_out, self.rouge_out = w / "detect.json", w / "rouge.json"
        _write_jsonl(
            self.src_path,
            [
                {
                    "id": f"s{i:05d}",
                    "source": it.source,
                    "targets": it.targets,
                    "edits": [[list(e) for e in edits] for edits in it.target_edits],
                }
                for i, it in enumerate(items)
            ],
        )
        _write_jsonl(
            self.pairs_path, [{"source": it.source, "target": it.targets[0]} for it in items]
        )
        self.hyp_path.write_text("".join(it.hypothesis + "\n" for it in items), encoding="utf-8")
        self.ref_path.write_text("".join(it.targets[0] + "\n" for it in items), encoding="utf-8")
        self.expected = _expected_scores(items)
        n_edits = [len(e) for it in items for e in it.target_edits]
        self.properties = {
            "triples": len(items),
            "mean_source_chars": statistics.fmean(len(it.source) for it in items),
            "targets_per_item": statistics.fmean(len(it.targets) for it in items),
            "edits_per_target": statistics.fmean(n_edits),
            "edits_per_hypothesis": statistics.fmean(len(it.hyp_edits) for it in items),
        }

    def setup_args(self) -> list[str]:
        return ["extract-edits", "--in", str(self.pairs_path), "--out", str(self.edits_out)]

    def check_setup(self) -> int:
        try:
            got = _read_jsonl(self.edits_out)
        except (OSError, json.JSONDecodeError):
            return len(self.items)
        if len(got) != len(self.items):
            return len(self.items)
        return sum(
            row != [list(e) for e in it.target_edits[0]] for row, it in zip(got, self.items)
        )

    def commands(self) -> list[tuple[list[str], Path]]:
        return [
            (["score", "--src", str(self.src_path), "--hyp", str(self.hyp_path),
              "--per-sentence", str(self.tsv_out)], self.score_out),
            (["detect", "--src", str(self.src_path), "--hyp", str(self.hyp_path)],
             self.detect_out),
            (["rouge", "--cand-file", str(self.hyp_path), "--ref-file", str(self.ref_path)],
             self.rouge_out),
        ]

    def invoke(self, traced: bool) -> Invocation:
        wall = cpu = rss = 0.0
        failed_cmd = False
        span_paths = []
        for i, (args, out) in enumerate(self.commands()):
            out.unlink(missing_ok=True)
            if traced:
                span_paths.append(self.work / f"spans-score-{i}.json")
                child = self.runner.traced(args, span_paths[-1], stdout=out)
            else:
                child = self.runner.cli(args, stdout=out)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            failed_cmd = failed_cmd or child.code != 0
        failed = len(self.items) if failed_cmd else self.check_outputs()
        spans = _load_spans(span_paths) if traced and not failed_cmd else None
        return Invocation(wall, cpu, rss, len(self.items), failed, spans)

    def check_outputs(self) -> int:
        exp = self.expected
        try:
            score = json.loads(self.score_out.read_text(encoding="utf-8"))
            detect = json.loads(self.detect_out.read_text(encoding="utf-8"))
            rouge = json.loads(self.rouge_out.read_text(encoding="utf-8"))
            tsv = self.tsv_out.read_text(encoding="utf-8").splitlines()
        except (OSError, json.JSONDecodeError):
            return len(self.items)
        if (
            score != exp["score"]
            or detect != exp["detect"]
            or {k: v for k, v in rouge.items() if k != "pairs"} != exp["rouge_means"]
            or len(tsv) != len(exp["tsv"])
            or len(rouge.get("pairs", ())) != len(exp["rouge_pairs"])
        ):
            return len(self.items)
        rows = tsv[1:]
        return sum(
            row != want_row or pair != want_pair
            for row, want_row, pair, want_pair in zip(
                rows, exp["tsv"][1:], rouge["pairs"], exp["rouge_pairs"]
            )
        )

    def layer_metrics(self, inv: Invocation) -> dict:
        spans = inv.spans
        calls = spans.calls("scorer.score_sentence")
        return {
            "scorer.score_sentence_per_pair": calls / len(self.items),
        }

    def target_share(self, inv: Invocation) -> float:
        self_times = inv.spans.self_times()
        return (self_times["scorer"] + self_times["edit_extract"]) / inv.wall_s


# Reference scoring from the designed edit scripts.  The formulas are the
# documented ones (README, ``re2gec.scorer`` docstrings); the edit scripts do
# not come from the scorer, so these values check it rather than repeat it.


def _f_beta(precision: float, recall: float, beta: float) -> float:
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def _sentence_f(tp: int, fp: int, fn: int) -> float:
    if tp + fp == 0 and tp + fn == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return _f_beta(p, r, 0.5)


def _positions(edits) -> set[int]:
    out: set[int] = set()
    for offset, original, _ in edits:
        out.update(range(offset, offset + len(original)) if original else (offset,))
    return out


def _ratio(numer: int, denom: int) -> float:
    return numer / denom if denom else 1.0


def _expected_scores(items: list[gen.ScoreItem]) -> dict:
    tsv = ["index\ttp\tfp\tfn\tchosen_reference"]
    tp = fp = fn = 0
    s_tp = s_fp = s_fn = p_tp = p_fp = p_fn = 0
    pairs = []
    for i, it in enumerate(items):
        hyp = set(it.hyp_edits)
        best = best_key = None
        for ref, edits in enumerate(it.target_edits):
            gold = set(edits)
            counts = (len(hyp & gold), len(hyp - gold), len(gold - hyp))
            key = (_sentence_f(*counts), counts[0])
            if best_key is None or key > best_key:
                best_key, best = key, (*counts, ref)
        tsv.append("\t".join(str(v) for v in (i, *best)))
        tp, fp, fn = tp + best[0], fp + best[1], fn + best[2]

        predicted = it.hypothesis != it.source
        gold_err = all(t != it.source for t in it.targets)
        s_tp += predicted and gold_err
        s_fp += predicted and not gold_err
        s_fn += gold_err and not predicted
        pred_pos = _positions(it.hyp_edits)
        best_gold, best_overlap = set(), -1
        for edits in it.target_edits:
            gold_pos = _positions(edits)
            if len(pred_pos & gold_pos) > best_overlap:
                best_overlap, best_gold = len(pred_pos & gold_pos), gold_pos
        p_tp += len(pred_pos & best_gold)
        p_fp += len(pred_pos - best_gold)
        p_fn += len(best_gold - pred_pos)

        # Every character of a hypothesis or target is distinct and the
        # shared ones keep their order, so the LCS is their intersection.
        cand, ref_text = it.hypothesis, it.targets[0]
        lcs = len(set(cand) & set(ref_text))
        pairs.append(
            {
                "precision": lcs / len(cand),
                "recall": lcs / len(ref_text),
                "f1": 2 * lcs / (len(cand) + len(ref_text)) if lcs else 0.0,
            }
        )
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    sp, sr = _ratio(s_tp, s_tp + s_fp), _ratio(s_tp, s_tp + s_fn)
    pp, pr = _ratio(p_tp, p_tp + p_fp), _ratio(p_tp, p_tp + p_fn)
    n = len(pairs)
    return {
        "score": {
            "tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall,
            "f0.5": _f_beta(precision, recall, 0.5),
        },
        "tsv": tsv,
        "detect": {
            "sentence_level": {"precision": sp, "recall": sr, "f1": _f_beta(sp, sr, 1.0)},
            "position_level": {"precision": pp, "recall": pr, "f1": _f_beta(pp, pr, 1.0)},
        },
        "rouge_pairs": pairs,
        "rouge_means": {
            "mean_precision": sum(p["precision"] for p in pairs) / n,
            "mean_recall": sum(p["recall"] for p in pairs) / n,
            "mean_f1": sum(p["f1"] for p in pairs) / n,
        },
    }


WORKLOADS = {cls.name: cls for cls in (CorrectStub, Retrieve, ScoreEval)}


# ---------------------------------------------------------------- runs


def _setup(workload: Workload, traced: bool) -> tuple[list[float], Spans | None, int]:
    """Run the preparation command; returns (walls, spans of a traced run, failed)."""
    runner = workload.runner
    if traced:
        spans_path = runner.work / "spans-setup.json"
        child = runner.traced(workload.setup_args(), spans_path)
        children, spans = [child], None
        if child.code == 0:
            spans = _load_spans([spans_path])
    else:
        timed = [_calibrated(lambda: runner.cli(workload.setup_args()))
                 for _ in range(SETUP_REPEATS)]
        children = [child for child, _ in timed]
        spans = None
    if any(c.code != 0 for c in children):
        raise BenchError(f"{workload.name}: preparation command failed")
    if traced:
        return [], spans, workload.check_setup()
    walls = [_at_ref(c.wall_s, c.cpu_s, speed) for c, speed in timed]
    return walls, spans, workload.check_setup()


def _measure(workload: Workload, seconds: float, trace: bool) -> tuple[list, list]:
    """Invoke until about ``seconds`` of measured commands have run.

    Stops before an invocation that would, at the mean length so far, end
    past 1.25 x ``seconds``, so a run measures a whole number of invocations
    close to ``seconds``.  Returns (untraced, traced) invocations; with
    ``trace`` they alternate, starting untraced, and each list gets one or more.
    """
    plain, traced = [], []
    elapsed = 0.0
    while True:
        use_trace = trace and len(traced) < len(plain)
        inv, speed = _calibrated(lambda: workload.invoke(use_trace))
        inv.speed = speed
        (traced if use_trace else plain).append(inv)
        elapsed += inv.wall_s
        mean = elapsed / (len(plain) + len(traced))
        if (traced or not trace) and elapsed + mean > 1.25 * seconds:
            return plain, traced


def _layer_metrics(
    workload: Workload, plain: list[Invocation], traced: list[Invocation],
    setup_spans: Spans, bm25_p50: float,
) -> dict:
    """Per-layer metrics: medians over the traced invocations."""
    per_inv = []
    for inv in traced:
        spans = inv.spans
        m = {name: 0.0 for name in PER_LAYER}
        m.update(
            {
                "corpus.load_corpus.busy_s": spans.busy("corpus.load_corpus"),
                "retriever.ngram_counts.calls": setup_spans.calls("retriever.ngram_counts"),
                "retriever.ngram_counts.busy_s": setup_spans.busy("retriever.ngram_counts"),
                "retriever.build_index.busy_s": setup_spans.busy("retriever.build_index"),
                "retriever.dumps_index.busy_s": setup_spans.busy("retriever.dumps_index"),
                "retriever.vocab_size": setup_spans.last_tag("retriever.build_index"),
                "retriever.index_bytes": setup_spans.last_tag("retriever.dumps_index"),
                "retriever.loads_index.busy_s": spans.busy("retriever.loads_index"),
                "retriever.postings.first_s": spans.first("retriever.postings"),
                "retriever.query.calls": spans.calls("retriever.query"),
                "retriever.query.busy_s": spans.busy("retriever.query"),
                "retriever.query.p50_ms": spans.pct_ms("retriever.query", 0.5),
                "retriever.query.p90_ms": spans.pct_ms("retriever.query", 0.9),
                "retriever.query_bm25.p50_ms": bm25_p50,
                "prompting.render_gec_prompt.busy_s": spans.busy("prompting.render_gec_prompt"),
                "edit_extract.char_level_edits.calls": spans.calls("edit_extract.char_level_edits"),
                "edit_extract.char_level_edits.busy_s": spans.busy("edit_extract.char_level_edits"),
                "scorer.score_corpus.busy_s": spans.busy("scorer.score_corpus"),
                "scorer.score_sentence.calls": spans.calls("scorer.score_sentence"),
                "scorer.detection_metrics.busy_s": spans.busy("scorer.detection_metrics"),
                "scorer.rouge_l.busy_s": spans.busy("scorer.rouge_l"),
                "trace.wall_s": inv.wall_s,
                "trace.target_share": workload.target_share(inv),
            }
        )
        m.update(workload.layer_metrics(inv))
        for layer, value in spans.self_times().items():
            m[f"{layer}.self_s"] = value
        per_inv.append(m)
    out = {name: statistics.median(m[name] for m in per_inv) for name in PER_LAYER}
    out["trace.overhead_ratio"] = 1.0 - _items_per_s(traced) / _items_per_s(plain)
    return out


def _items_per_s(invocations: list[Invocation]) -> float:
    return statistics.median(
        i.items / _at_ref(i.wall_s, i.cpu_s, i.speed) for i in invocations
    )


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    workload.prepare()
    setup_walls, setup_spans, setup_failed = _setup(workload, trace)
    workload.start()
    try:
        plain, traced = _measure(workload, seconds, trace)
    finally:
        workload.stop()
    invocations = plain + traced
    if any(inv.spans is None for inv in traced):
        raise BenchError(f"{workload.name}: traced invocation failed")
    attempted = sum(inv.items for inv in invocations) + workload.setup_items
    failed = sum(inv.failed for inv in invocations) + setup_failed
    print("workload " + json.dumps({"name": workload.name, "seed": workload.seed,
                                    **workload.properties}, ensure_ascii=False))
    if trace:
        metrics = _layer_metrics(workload, plain, traced, setup_spans, workload.bm25_probe())
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "items_per_s": _items_per_s(plain),
            "cpu_s": statistics.median(i.cpu_s / i.speed for i in plain),
            "peak_rss_mb": statistics.median(i.rss_mb for i in plain),
        }
        units = END_TO_END
        print(
            "  unscaled: items_per_s %.6f, cpu_s %.6f; speed factor %.4f"
            % (
                statistics.median(i.items / i.wall_s for i in plain),
                statistics.median(i.cpu_s for i in plain),
                statistics.median(i.speed for i in plain),
            )
        )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    print(f"  {'error_ratio':40s} {failed / attempted:14.6f} ratio "
          f"({failed} failed of {attempted}; {len(invocations)} invocations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/re2gec/cli.py", "tests/oracles.py"):
        if not (root / needed).is_file():
            print(f"bench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    # The benchmark process itself imports the package only to key mock
    # scripts by prompt, and tests/oracles.py for the full-scan answers.
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    work = root / ".bench_build" / f"re2gec-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    workload = WORKLOADS[args.workload](runner, args.seed)
    try:
        result = run(workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.stop()
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
