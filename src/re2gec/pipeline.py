"""End-to-end orchestration.

The main correction flow for one input sentence:

1. explain -- ask the explainer backend for a grammatical-error explanation
   of the bare input (no gold target is available at inference time);
2. retrieve -- query the explanation index with that text and apply the
   theta gate to the best similarity;
3. correct -- render the with-examples prompt from the retrieved records
   when the gate is open (the without-examples prompt otherwise), send it to
   the correction backend, and parse the completion.

Also here: the zero-shot / random-k / text-similarity baselines, supervised
fine-tuning pair construction, the theta ablation sweep, and the ranking
comparison harness.

Many inputs run through one driver, ``map_ordered``: in input order, each
input gives its result or the ``Re2Error`` it raised, so one bad input costs
only its own result.  The theta sweep and the ranking comparison score whole
sets, so they raise the first error instead.  A ``Re2Config`` loads its
template set and reads the scripts of its mock backends once, when it is
made, so a set or script that no input could use fails there; every prompt
and completion of a run uses them.  Its backends are optional: a flow that
calls one its config lacks fails at that stage with a ``PipelineError``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .corpus import Corpus, SentencePair
from .errors import PipelineError, Re2Error
from .llm_backend import BackendConfig, DecodingParams, complete, embed
from .prompting import (
    TemplateSet,
    load_template_set,
    parse_correction,
    render_gec_prompt,
    render_gee_prompt,
)
from .retriever import (
    INDEX_FIELDS,
    ExplanationIndex,
    Hit,
    IndexConfig,
    RetrievalResult,
    build_index,
    gate_open,
    query,
)
from .scorer import edit_triples, score_corpus, score_triples

MODE_WITH = "with_examples"
MODE_WITHOUT = "without_examples"
BASELINE_MODES = ("zero_shot", "random_k", "textsim")


@dataclass(frozen=True)
class Re2Config:
    backend: BackendConfig | None = None
    explainer_backend: BackendConfig | None = None
    k: int = 3
    theta: float = 0.6
    decoding: DecodingParams = field(default_factory=DecodingParams)
    embedding_backend: BackendConfig | None = None
    templates: str = "default"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        # Read once, before any input: every call of a run uses these scripts and this set.
        for backend in (self.backend, self.explainer_backend, self.embedding_backend):
            if backend is not None and backend.kind == "mock":
                backend.script  # read and checked here, then kept on the backend
        object.__setattr__(self, "template_set", load_template_set(self.templates))


@dataclass(frozen=True)
class CorrectionOutcome:
    input: str
    explanation: str
    hits: RetrievalResult
    prompt: str
    correction: str
    mode_used: str

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "explanation": self.explanation,
            "hits": self.hits.to_dict(),
            "prompt": self.prompt,
            "correction": self.correction,
            "mode_used": self.mode_used,
        }


@dataclass(frozen=True)
class SftExample:
    prompt: str
    response: str
    meta: dict

    def to_dict(self) -> dict:
        return {"prompt": self.prompt, "response": self.response, "meta": self.meta}


def _stage(stage: str, fn: Callable, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Re2Error as exc:
        raise PipelineError(stage, str(exc)) from exc


def map_ordered(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """``fn(item)`` per item, in input order, on ``jobs`` threads when ``jobs > 1``.

    An item whose call raises ``Re2Error`` gives that error in place of its
    result, and the other items still run.  Any other exception is a bug, and
    propagates.
    """

    def attempt(item):
        try:
            return fn(item)
        except Re2Error as exc:
            return exc

    if jobs <= 1 or len(items) <= 1:
        return [attempt(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # here: scoring runs no thread pool

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(attempt, items))


def _all_or_raise(results: list) -> list:
    """``results`` of ``map_ordered``, or the first error among them raised."""
    for result in results:
        if isinstance(result, Re2Error):
            raise result
    return results


def embedder_for(backend: BackendConfig | None):
    """Embedding callable over ``backend`` for index builds and queries; None without one."""
    if backend is None:
        return None
    return lambda texts: embed(texts, backend)


def _completer(config: Re2Config) -> Callable[[str], str]:
    """Correction-backend ``complete``, looked up at call time so wrappers see each call."""
    return lambda prompt: complete(prompt, config.decoding, config.backend)


def _cached_completer(config: Re2Config) -> Callable[[str], str]:
    """Correction-backend ``complete`` that sends each distinct prompt once.

    Threads may share it: a prompt asked for while its completion is in
    flight waits for that completion rather than sending a second request.
    """
    from concurrent.futures import Future

    send = _completer(config)
    cache: dict[str, Future] = {}
    lock = threading.Lock()

    def completer(prompt: str) -> str:
        with lock:
            pending = cache.get(prompt)
            owner = pending is None
            if owner:
                pending = cache[prompt] = Future()
        if owner:
            try:
                pending.set_result(send(prompt))
            except Exception as exc:
                pending.set_exception(exc)
        return pending.result()

    return completer


def _retrieve(
    stage: str, index: ExplanationIndex, text: str, config: Re2Config, theta: float, **kwargs
) -> RetrievalResult:
    """``query`` for ``config.k`` hits with ``config``'s embedder, as stage ``stage``.

    ``query`` is looked up at call time, so wrappers see each query.
    """
    embedder = embedder_for(config.embedding_backend)
    return _stage(stage, query, index, text, config.k, theta, embedder=embedder, **kwargs)


def generate_explanation(input_text: str, config: Re2Config) -> str:
    """Explanation of a bare input sentence, via the explainer backend."""
    pair = SentencePair(id="", source=input_text, targets=[input_text])
    return _stage("explain", lambda: complete(
        render_gee_prompt(pair, "input_only", config.template_set),
        config.decoding,
        config.explainer_backend,
    )).strip()


def _examples_for_hits(
    hits: Sequence[Hit], corpus: Corpus
) -> list[tuple[str, str]]:
    records = [_stage("retrieve", corpus.get, h.doc_id) for h in hits]
    return [(rec.source, rec.targets[0]) for rec in records]


def _correct(
    input_text: str,
    explanation: str,
    result: RetrievalResult,
    corpus: Corpus,
    template_set: TemplateSet,
    completer: Callable[[str], str],
) -> CorrectionOutcome:
    examples = _examples_for_hits(result.hits, corpus) if result.gate_open else []
    prompt = _stage("prompt", render_gec_prompt, input_text, examples, template_set)
    correction = _stage("correct", lambda: parse_correction(completer(prompt)))
    return CorrectionOutcome(
        input=input_text,
        explanation=explanation,
        hits=result,
        prompt=prompt,
        correction=correction,
        mode_used=MODE_WITH if examples else MODE_WITHOUT,
    )


def run_re2(
    input_text: str,
    index: ExplanationIndex,
    corpus: Corpus,
    config: Re2Config,
) -> CorrectionOutcome:
    """Correct one input sentence with explanation-retrieved examples."""
    explanation = generate_explanation(input_text, config)
    result = _retrieve("retrieve", index, explanation, config, config.theta)
    return _correct(
        input_text, explanation, result, corpus, config.template_set, _completer(config)
    )


def check_baseline(
    mode: str, corpus: Corpus, source_index: ExplanationIndex | None, config: Re2Config
) -> None:
    """Raise the ``PipelineError`` of a baseline run that fails whatever its input."""
    if mode not in BASELINE_MODES:
        problem = f"unknown baseline mode {mode!r}"
    elif mode == "random_k" and len(corpus) < config.k:
        problem = f"corpus has {len(corpus)} records, need k={config.k}"
    elif mode == "textsim" and source_index is None:
        problem = "textsim requires a source-text index"
    elif mode == "textsim" and source_index.field_name != "source":
        problem = (
            "textsim requires a source-text index, not one built over the "
            f"{source_index.field_name} field"
        )
    else:
        return
    raise PipelineError("baseline", problem)


def run_baseline(
    input_text: str,
    mode: str,
    corpus: Corpus,
    source_index: ExplanationIndex | None,
    config: Re2Config,
    seed: int = 0,
) -> CorrectionOutcome:
    """Correct one input with a baseline example-selection strategy.

    ``zero_shot`` uses no examples; ``random_k`` draws k corpus records with
    a seeded RNG (the seed alone determines the draw); ``textsim`` retrieves
    by source-text similarity with no theta gate.
    """
    check_baseline(mode, corpus, source_index, config)
    if mode == "zero_shot":
        result = RetrievalResult(hits=(), gate_open=False)
    elif mode == "random_k":
        import random

        rng = random.Random(seed)
        chosen = rng.sample(range(len(corpus)), config.k)
        result = RetrievalResult(
            hits=tuple(Hit(corpus.records[i].id, 0.0) for i in chosen),
            gate_open=True,
        )
    else:
        result = _retrieve("retrieve", source_index, input_text, config, 0.0)
    return _correct(input_text, "", result, corpus, config.template_set, _completer(config))


def correct_corpus(
    inputs: Sequence[str],
    index: ExplanationIndex,
    corpus: Corpus,
    config: Re2Config,
    jobs: int = 1,
) -> list[CorrectionOutcome | Re2Error]:
    """``run_re2`` over many inputs through ``map_ordered``: per input its outcome or error."""
    return map_ordered(lambda text: run_re2(text, index, corpus, config), inputs, jobs)


def sft_examples(
    rec: SentencePair, index: ExplanationIndex, train: Corpus, config: Re2Config
) -> tuple[SftExample, ...]:
    """A record's fine-tuning pairs: a with-examples prompt, if any, then a without-examples one.

    Retrieval queries the record's own explanation, excludes the record
    itself, and is not theta-gated (every with-examples prompt carries the
    nearest other examples available).  A record whose retrieval finds no
    other example gets the without-examples pair alone, so each pair's mode
    names the template it renders.  The response is always the record's
    first target.
    """
    if not rec.explanation:
        raise PipelineError("sft", f"record {rec.id}: missing explanation")
    result = _retrieve("sft", index, rec.explanation, config, 0.0, exclude_ids={rec.id})
    render = lambda examples: _stage(
        "sft", render_gec_prompt, rec.source, examples, config.template_set
    )
    without = SftExample(render([]), rec.targets[0], {"id": rec.id, "mode": MODE_WITHOUT})
    if not result.hits:
        return (without,)
    with_ids = {"id": rec.id, "mode": MODE_WITH, "example_ids": [h.doc_id for h in result.hits]}
    return (
        SftExample(render(_examples_for_hits(result.hits, train)), rec.targets[0], with_ids),
        without,
    )


def _dev_scorer(
    dev: Corpus, train: Corpus, config: Re2Config, jobs: int
) -> tuple[list[str], Callable[[Sequence[RetrievalResult]], dict]]:
    """Each dev input's explanation, and a scorer of one retrieval result per input.

    ``score(results)`` corrects every input through ``_correct`` with the
    examples ``train`` resolves, on ``jobs`` threads and with completions
    cached per distinct prompt across calls, and returns the precision,
    recall and F0.5 against the dev targets.  Explanations run on ``jobs``
    threads, and the gold edits are extracted once, before any hypothesis.
    Each distinct correction of an input is extracted once across every
    ``score`` call, and one equal to a target reuses that target's edits.
    An empty ``dev`` is an error: a score over nothing would read as a perfect one.
    """
    records = list(dev)
    if not records:
        raise PipelineError("score", "no dev inputs")
    sources = [rec.source for rec in records]
    explanations = _all_or_raise(
        map_ordered(lambda source: generate_explanation(source, config), sources, jobs)
    )
    extracted = [{} for _ in records]  # input i's edit sets by text, kept across score() calls

    def edits(i: int, text: str) -> frozenset:
        known = extracted[i]
        if text not in known:
            known[text] = edit_triples(records[i].source, text)
        return known[text]

    gold = [[edits(i, t) for t in rec.targets] for i, rec in enumerate(records)]
    completer = _cached_completer(config)

    def score(results: Sequence[RetrievalResult]) -> dict:
        corrections = _all_or_raise(map_ordered(
            lambda given: _correct(*given, train, config.template_set, completer).correction,
            list(zip(sources, explanations, results)),
            jobs,
        ))
        report = score_corpus(
            score_triples(edits(i, correction), references)
            for i, (references, correction) in enumerate(zip(gold, corrections))
        )
        return {"precision": report.precision, "recall": report.recall, "f_half": report.f_half}

    return explanations, score


def sweep_threshold(
    dev: Corpus,
    thetas: Sequence[float],
    config: Re2Config,
    index: ExplanationIndex,
    train: Corpus,
    jobs: int = 1,
) -> list[dict]:
    """Score the pipeline at several gate thresholds.

    Explanations and retrievals are computed once; each theta only re-decides
    the gate.  Completions are cached per distinct prompt.  Inputs run on
    ``jobs`` threads.  On a BM25 index theta does not move the gate, which a
    warning says.
    """
    for theta in thetas:
        if not (0.0 <= theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
    explanations, score = _dev_scorer(dev, train, config, jobs)
    ranking = index.config.ranking
    if ranking == "bm25":
        import logging

        logging.getLogger(__name__).warning(
            "theta does not move a BM25 gate, so every row is the same"
        )
    hit_lists = _all_or_raise(map_ordered(
        lambda explanation: _retrieve("retrieve", index, explanation, config, 0.0).hits,
        explanations,
        jobs,
    ))
    return [
        {
            "theta": theta,
            **score([RetrievalResult(hits, gate_open(ranking, hits, theta)) for hits in hit_lists]),
        }
        for theta in thetas
    ]


def compare_retrievers(
    dev: Corpus,
    rankings: Sequence[str],
    config: Re2Config,
    train: Corpus,
    jobs: int = 1,
    field_name: str = "explanation",
    index_config: IndexConfig | None = None,
) -> list[dict]:
    """Score the pipeline under different ranking backends over one dev set.

    Builds one index per ranking over the ``field_name`` field of the train
    corpus, from ``index_config`` (default ``IndexConfig()``), reuses the same
    explanations across rankings, and reports correction quality plus mean
    per-query retrieval latency.  Each index is queried with the dev text of
    its field: an input's explanation, or over ``source`` the input itself.
    The query texts are embedded once, before any query is timed, so the
    latency leaves the embedding backend out.  Explanations and corrections
    run on ``jobs`` threads.
    """
    # The field and every ranking are checked before the first backend call.
    if field_name not in INDEX_FIELDS:
        raise ValueError(f"unknown retriever field {field_name!r}")
    ranking_configs = [replace(index_config or IndexConfig(), ranking=r) for r in rankings]
    embedder = embedder_for(config.embedding_backend)
    if "embedding" in rankings and embedder is None:
        raise PipelineError("compare", "embedding ranking requires an embedding backend")
    explanations, score = _dev_scorer(dev, train, config, jobs)
    queries = explanations if field_name == "explanation" else [rec.source for rec in dev]
    vectors: dict[str, list[float]] = {}
    if "embedding" in rankings:
        distinct = list(dict.fromkeys(queries))
        vectors = dict(zip(distinct, _stage("retrieve", embedder, distinct)))
    looked_up = lambda texts: [vectors[text] for text in texts]

    rows = []
    for ranking_config in ranking_configs:
        index = _stage(
            "compare", build_index, train, field_name, ranking_config, embedder=embedder
        )
        # Queries run one at a time so that their timing does not depend on
        # how many correction threads share the interpreter.
        results = []
        total_seconds = 0.0
        for text in queries:
            start = time.perf_counter()
            results.append(
                _stage(
                    "retrieve", query, index, text, config.k, config.theta, embedder=looked_up
                )
            )
            total_seconds += time.perf_counter() - start
        rows.append(
            {
                "ranking": ranking_config.ranking,
                **score(results),
                "mean_query_ms": total_seconds / len(results) * 1000.0,
            }
        )
    return rows
