"""Command-line interface.

Every subcommand accepts ``--config FILE`` pointing at a JSON object whose
keys are the subcommand's long flag names with dashes as underscores
(``{"in": "dev.jsonl", "k": 3, "theta": 0.6, ...}``).  Each value becomes a
``--name=value`` token that the same argparse parser reads ahead of the
flags, so one parser checks every value, and explicit flags override config
values, which override built-in defaults.  A subcommand registers only the
options its handler reads, and passes on only the options that were set: the
config dataclasses and library signatures hold every default.  A handler
returns its output lines, and ``dispatch`` encodes them all (a lone surrogate
as its JSON escape), then writes them to stdout or, through ``replace_file``,
whole to ``--out``; ``--out`` and ``score --per-sentence`` are checked
before the handler runs.  ``explain``,
``correct``, ``baseline`` and ``make-sft-data`` run their inputs through
``pipeline.map_ordered``, and ``_input_lines`` gives a failed input one error
line in place of its output; ``dispatch`` writes every line and then fails
with one line counting the failed inputs.  Exit codes: 0 on success, 1 on
runtime errors and failed inputs, 2 on usage errors (a bad flag or manifest
value, a missing option, a missing backend role, a backend's model or
timeout without that backend, or a value a config dataclass rejects, named
by its flag).  A command takes the options of the backend roles it runs,
and ``_re2_config`` requires its corrector and explainer.  Either error is
one line on stderr, ``error: ...`` or ``usage error: ...``.  Inputs are decoded
where they enter, through ``errors``, so ``dispatch`` catches only ``Re2Error``
and ``OSError``: any other exception is a bug, and keeps its traceback.

Scoring and edit extraction need none of the pipeline, so this module
imports only ``corpus``, ``edit_extract``, ``errors`` and ``scorer``.
``segmentation`` is imported where a command builds or reads
``--segmenter``, and ``inspect`` where ``_default`` reads a default, so
``score``, ``detect`` and ``rouge`` load neither.  The names this module
uses from ``pipeline``, ``retriever`` and ``llm_backend`` are imported on
first use and bound as globals of this module, where handlers look them
up: a wrapper or stand-in set on this module (``bench/traced.py`` replaces
``load_index`` here) is what the handlers call, and a later import keeps
it.  The parser names every subcommand, but adds a subcommand's options
only when that subcommand parses, so a run builds no other subcommand's
options and reads no pipeline default for them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
from pathlib import Path

from .corpus import SentencePair, load_corpus, string_fields
from .edit_extract import extract_edits
from .errors import Re2Error, decode_json, decode_text, replace_file
from .scorer import detection_metrics, rouge_l, score_corpus, score_sentence

# The module of each pipeline-side name.  These names are read as globals of
# this module, bound on first use.
_MODULE_OF = {
    **dict.fromkeys(("BACKEND_KINDS", "BackendConfig", "DecodingParams"), "llm_backend"),
    **dict.fromkeys((
        "BASELINE_MODES", "Re2Config", "check_baseline", "compare_retrievers", "correct_corpus",
        "embedder_for", "generate_explanation", "map_ordered", "run_baseline", "sft_examples",
        "sweep_threshold",
    ), "pipeline"),
    **dict.fromkeys((
        "INDEX_FIELDS", "RANKINGS", "IndexConfig", "build_index", "check_corpus", "load_index",
        "query", "save_index",
    ), "retriever"),
}


def __getattr__(name: str):
    """A pipeline-side name, imported and bound as a global on its first read.

    A name already bound, by an earlier read or by a caller that replaced it
    (a tracer's wrapper, a test's stand-in), keeps its value.
    """
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    return globals().setdefault(name, value)


def _load_pipeline() -> None:
    """Bind every pipeline-side name, for a command whose options or handler read them."""
    for name in _MODULE_OF:
        __getattr__(name)


class _UsageError(Exception):
    pass


class _InputsFailed(Re2Error):
    """Inputs of a per-input command failed; ``lines`` holds every input's lines."""

    def __init__(self, message: str, lines: list[str]):
        super().__init__(message)
        self.lines = lines


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``_UsageError`` instead of exiting.

    A subcommand's parser has a ``populate(parser)`` that adds its options
    the first time it parses, so a run builds the options of its own
    subcommand only.
    """

    populate = None

    def parse_known_args(self, args=None, namespace=None):
        if self.populate is not None:
            populate, self.populate = self.populate, None
            populate(self)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        raise _UsageError(message)


# Options that take a comma-separated list; a manifest may give a JSON list.
_LIST_OPTIONS = ("thetas", "rankings")


class _Options(argparse.Namespace):
    """The parsed options of one subcommand: flags over manifest values."""

    def get(self, name: str, default=None):
        value = getattr(self, name, None)
        return default if value is None else value

    @staticmethod
    def flag(name: str) -> str:
        """The flag of option ``name``, e.g. ``--hyp-log`` for ``hyp_log``."""
        return "--" + name.replace("_", "-")

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            raise _UsageError(f"missing required option {self.flag(name)}")
        return value

    def single_input(self, single: tuple[str, ...], files: tuple[str, ...]) -> bool:
        """Whether a ``single`` input option is set; one of ``files`` too is a usage error."""
        given = [any(self.get(name) is not None for name in names) for names in (single, files)]
        if all(given):
            flags = ["/".join(map(self.flag, names)) for names in (single, files)]
            raise _UsageError(f"{flags[0]} and {flags[1]} are mutually exclusive")
        return given[0]

    def fields(self, *names: str, **renamed: str) -> dict:
        """{field: value} of the given options that were set, by flag or manifest.

        ``names`` are options named like their field, and ``renamed`` maps a
        field to its option.  Unset options are left out, so the defaults of
        the dataclass or function that takes the fields apply.
        """
        pairs = [(name, name) for name in names] + list(renamed.items())
        return {field: value for field, name in pairs if (value := self.get(name)) is not None}


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> _Options:
    """Flags of ``argv`` over the values of its ``--config`` manifest, all parsed by ``parser``.

    A manifest value of the right JSON shape becomes a ``--name=value`` token
    (an on/off ``true`` the bare flag), checked alone and then parsed ahead
    of ``argv``, where the last value wins.  Keys that name no option,
    ``help`` among them, are ignored, or rejected under ``--strict``.
    """
    args = parser.parse_args(argv, _Options())
    path = args.get("config")
    if not path:
        return args
    manifest = decode_json(Path(path).read_bytes(), f"cannot read config {path!r}", Re2Error)
    if not isinstance(manifest, dict):
        raise Re2Error(f"config {path!r} must hold a JSON object")
    # Whether each option is an on/off flag, by name.
    on_off_of = {a.dest: a.nargs == 0 for a in args.parser._actions if a.dest != "help"}
    tokens, unknown = [], []
    for key, value in manifest.items():
        if key not in on_off_of:
            unknown.append(key)
            continue
        flag, on_off = args.flag(key), on_off_of[key]
        if value is None or (value is False and on_off):
            continue
        items = value if isinstance(value, list) and key in _LIST_OPTIONS else [value]
        if value is True and on_off:
            token = flag
        elif not on_off and all(type(v) in (str, int, float) for v in items):
            token = f"{flag}={','.join(map(str, items))}"
        else:
            want = "true or false" if on_off else "a string or number"
            raise _UsageError(f"config key {key!r}: want {want}, got {json.dumps(value)}")
        try:
            parser.parse_args([args.command, token])
        except _UsageError as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from None
        tokens.append(token)
    args = parser.parse_args([args.command, *tokens, *argv[1:]], _Options())
    if unknown and args.strict:
        raise _UsageError(f"config {path!r}: unknown key(s) " + ", ".join(map(repr, unknown)))
    return args


def _default(owner, name: str):
    """The default of keyword ``name`` of a function or dataclass."""
    import inspect  # here: it loads ast, dis and tokenize, which scoring never uses

    return inspect.signature(owner).parameters[name].default


def _config(cls, opts: _Options, *names: str, values: dict | None = None, **renamed: str):
    """``cls`` from ``values`` and the ``opts.fields`` of ``names`` and ``renamed``.

    A config whose own checks reject the values is a usage error, which
    names the flag of each set option whose field the message names.
    """
    given = opts.fields(*names, **renamed)
    try:
        return cls(**given, **(values or {}))
    except ValueError as exc:
        options = {**dict(zip(names, names)), **renamed}
        flags = [opts.flag(options[f]) for f in given if re.search(rf"\b{f}\b", str(exc))]
        raise _UsageError(f"argument {'/'.join(flags)}: {exc}" if flags else str(exc)) from None


def _segmenter(opts: _Options) -> SegmenterConfig:
    from .segmentation import SegmenterConfig

    return _config(
        SegmenterConfig,
        opts,
        mode="segmenter",
        external_command="segmenter_cmd",
        external_timeout="segmenter_timeout",
    )


def _index_config(opts: _Options) -> IndexConfig:
    names = ("ngram_min", "ngram_max", "ranking", "bm25_k1", "bm25_b")
    return _config(IndexConfig, opts, *names, values={"segmenter": _segmenter(opts)})


def _backend(opts: _Options, prefix: str = "") -> BackendConfig | None:
    """Backend from the prefix-scoped options; None when none were given.

    A model or timeout without a backend, endpoint or script is a usage error.
    """
    kind = opts.get(prefix + "backend")
    endpoint = opts.get(prefix + "endpoint")
    script = opts.get(prefix + "script")
    if kind is None and endpoint is None and script is None:
        flag = opts.flag
        for name in ("model", "timeout"):
            if opts.get(prefix + name) is not None:
                raise _UsageError(f"{flag(prefix + name)} needs {flag(prefix + 'backend')}, "
                                  f"{flag(prefix + 'endpoint')} or {flag(prefix + 'script')}")
        return None
    if kind is None:
        kind = "http" if endpoint else "mock"
    opts.require(prefix + ("script" if kind == "mock" else "endpoint"))
    return _config(
        BackendConfig,
        opts,
        values={"kind": kind},
        endpoint=prefix + "endpoint",
        model=prefix + "model",
        script_path=prefix + "script",
        timeout=prefix + "timeout",
    )


def _re2_config(opts: _Options, *required: str) -> Re2Config:
    """The run's config; each of the ``required`` options is checked first.

    The command takes, and so requires, the correction and explainer roles
    whose options it registers; no role stands in for another.  So a missing
    option is a usage error before the config reads any mock script.
    """
    for name in required:
        opts.require(name)
    backend, explainer = _backend(opts), _backend(opts, "explainer_")
    for prefix, role in (("", backend), ("explainer_", explainer)):
        # argparse gives every option the command registers an attribute.
        if role is None and hasattr(opts, prefix + "backend"):
            raise _UsageError(f"missing required option {opts.flag(prefix + 'script')} "
                              f"or {opts.flag(prefix + 'backend')}")
    values = dict(
        backend=backend,
        explainer_backend=explainer,
        decoding=_config(DecodingParams, opts, "sample", "temperature", "beam_size"),
        embedding_backend=_backend(opts, "embed_"),
    )
    return _config(Re2Config, opts, "k", "theta", "templates", values=values)


def _json_line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _input_lines(
    records, results: list, to_dicts=lambda rec, result: [result.to_dict()]
) -> list[str]:
    """The lines of ``to_dicts(record, result)`` per record and its ``map_ordered`` result.

    A record that failed gives one error line in their place, from its
    ``PipelineError``; then ``_InputsFailed`` carries every line to ``dispatch``.
    """
    lines, failed = [], []
    for rec, result in zip(records, results):
        if isinstance(result, Re2Error):
            error = {"stage": result.stage, "message": result.message}
            failed.append(f"{rec.id} at {result.stage}: {result.message}")
            lines.append(_json_line({"id": rec.id, "input": rec.source, "error": error}))
        else:
            lines += map(_json_line, to_dicts(rec, result))
    if failed:
        message = f"{len(failed)} of {len(records)} inputs failed (first: {failed[0]})"
        raise _InputsFailed(message, lines)
    return lines


def _load(opts: _Options, name: str):
    return load_corpus(opts.require(name), strict=bool(opts.get("strict")))


def _corpus_and_index(
    opts: _Options, name: str, index_required: bool = True, field_name: str | None = None
):
    """The example corpus of option ``name`` and the ``--index`` built over it.

    The index is None when it is optional and not given.  Given a
    ``field_name``, an index over another field is rejected.
    """
    corpus = _load(opts, name)
    path = opts.require("index") if index_required else opts.get("index")
    if path is None:
        return corpus, None
    index = load_index(path)
    if field_name is not None and index.field_name != field_name:
        raise Re2Error(
            f"index was built over the {index.field_name} field, not {field_name}: "
            f"rebuild it with build-index --field {field_name}"
        )
    check_corpus(index, corpus)
    return corpus, index


def _text_lines(path: str) -> list[str]:
    """Lines of a plain-text file, split at \n only.

    One \r ending a line is dropped, and a final newline adds no line.
    """
    lines = decode_text(Path(path).read_bytes(), repr(path), Re2Error).split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _scoring_items(opts: _Options) -> list[tuple[str, str, list[str]]]:
    """(source, hypothesis, targets) per --src record; hypotheses from --hyp or --hyp-log.

    Each --hyp-log outcome must hold its record's source as its ``input``, so
    a log of other inputs is an error, not a score.  No record is an error
    too: a score over nothing would read as a perfect one.
    """
    from_text = opts.single_input(("hyp",), ("hyp_log",))
    if not from_text and opts.get("hyp_log") is None:
        raise _UsageError("missing required option --hyp or --hyp-log")
    src = _load(opts, "src")
    if from_text:
        hyps = _text_lines(opts.hyp)
    else:
        rows = string_fields(opts.hyp_log, ("input", "correction"))
        for n, (rec, (text, _)) in enumerate(zip(src, rows), 1):
            if text != rec.source:
                raise Re2Error(f"--hyp-log outcome {n} holds input {text!r}, but --src record "
                               f"{rec.id!r} has source {rec.source!r}")
        hyps = [correction for _, correction in rows]
    if len(hyps) != len(src):
        raise Re2Error(f"{len(src)} sources but {len(hyps)} hypotheses")
    if not hyps:
        raise Re2Error("no source/hypothesis pairs")
    return [(rec.source, hyp, rec.targets) for rec, hyp in zip(src, hyps)]


def cmd_extract_edits(opts: _Options) -> list[str]:
    cfg = _segmenter(opts)
    if opts.single_input(("source", "target"), ("in",)):
        pairs = [(opts.require("source"), opts.require("target"))]
    else:
        pairs = string_fields(opts.require("in"), ("source", "target"))
    return [_json_line(extract_edits(s, t, cfg)) for s, t in pairs]


def cmd_build_index(opts: _Options) -> None:
    config, embedder = _index_config(opts), embedder_for(_backend(opts, "embed_"))
    index = build_index(
        _load(opts, "in"), config=config, embedder=embedder, **opts.fields(field_name="field")
    )
    save_index(index, opts.require("out"))


def cmd_query(opts: _Options) -> list[str]:
    config = _re2_config(opts, "index", "text")
    index = load_index(opts.require("index"))
    exclude = [x for x in (opts.get("exclude") or "").split(",") if x]
    result = query(
        index,
        opts.require("text"),
        k=config.k,
        theta=config.theta,
        exclude_ids=exclude,
        embedder=embedder_for(config.embedding_backend),
    )
    return [_json_line(result.to_dict())]


def cmd_explain(opts: _Options) -> list[str]:
    single = opts.single_input(("text",), ("in",))
    config = _re2_config(opts, "text" if single else "in")
    if single:
        records = [SentencePair(id="", source=opts.text, targets=[opts.text])]
    else:
        records = _load(opts, "in").records
    explanations = map_ordered(
        lambda rec: generate_explanation(rec.source, config), records, **opts.fields("jobs")
    )
    return _input_lines(records, explanations, lambda rec, explanation: [
        {"id": rec.id, "source": rec.source, "explanation": explanation}
    ])


def cmd_correct(opts: _Options) -> list[str]:
    config = _re2_config(opts, "in", "corpus", "index")
    dev = _load(opts, "in")
    train, index = _corpus_and_index(opts, "corpus", field_name="explanation")
    outcomes = correct_corpus(
        [rec.source for rec in dev],
        index,
        train,
        config,
        **opts.fields("jobs"),
    )
    return _input_lines(dev.records, outcomes)


def cmd_baseline(opts: _Options) -> list[str]:
    config = _re2_config(opts, "mode", "in", "corpus")
    mode = opts.require("mode")
    dev = _load(opts, "in")
    train, source_index = _corpus_and_index(opts, "corpus", index_required=False)
    check_baseline(mode, train, source_index, config)
    seed = opts.get("seed", _default(run_baseline, "seed"))
    outcomes = map_ordered(
        lambda item: run_baseline(item[1].source, mode, train, source_index, config, item[0]),
        list(enumerate(dev, seed)),  # input i draws with seed + i
        **opts.fields("jobs"),
    )
    return _input_lines(dev.records, outcomes)


def cmd_score(opts: _Options) -> list[str]:
    scores = [score_sentence(*item) for item in _scoring_items(opts)]
    report = score_corpus(scores)
    per_sentence = opts.get("per_sentence")
    if per_sentence:
        rows = ["index\ttp\tfp\tfn\tchosen_reference\n"]
        rows += (f"{i}\t{s.tp}\t{s.fp}\t{s.fn}\t{s.chosen_reference}\n"
                 for i, s in enumerate(scores))
        replace_file(per_sentence, "".join(rows).encode())
    fields = {
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "precision": report.precision,
        "recall": report.recall,
        "f0.5": report.f_half,
    }
    return [json.dumps(fields, ensure_ascii=False)]


def cmd_rouge(opts: _Options) -> list[str]:
    if opts.single_input(("candidate", "reference"), ("cand_file", "ref_file")):
        p, r, f1 = rouge_l(opts.require("candidate"), opts.require("reference"))
        return [json.dumps({"precision": p, "recall": r, "f1": f1})]
    cands = _text_lines(opts.require("cand_file"))
    refs = _text_lines(opts.require("ref_file"))
    if len(cands) != len(refs):
        raise Re2Error(f"{len(cands)} candidates but {len(refs)} references")
    if not cands:
        raise Re2Error("no candidate/reference pairs")
    pairs = [rouge_l(c, r) for c, r in zip(cands, refs)]
    precision = recall = f1 = 0.0
    for p, r, f in pairs:  # left to right: from Python 3.12 on, sum() compensates
        precision, recall, f1 = precision + p, recall + r, f1 + f
    n = len(pairs)
    report = {
        "pairs": [{"precision": p, "recall": r, "f1": f} for p, r, f in pairs],
        "mean_precision": precision / n,
        "mean_recall": recall / n,
        "mean_f1": f1 / n,
    }
    return [json.dumps(report, ensure_ascii=False)]


def cmd_detect(opts: _Options) -> list[str]:
    report = detection_metrics(_scoring_items(opts))
    return [json.dumps(report.to_dict(), ensure_ascii=False)]


def cmd_make_sft_data(opts: _Options) -> list[str]:
    config = _re2_config(opts, "train", "index")
    train, index = _corpus_and_index(opts, "train", field_name="explanation")
    pairs = map_ordered(lambda rec: sft_examples(rec, index, train, config), train.records)
    return _input_lines(train.records, pairs, lambda rec, pair: [ex.to_dict() for ex in pair])


def cmd_sweep_theta(opts: _Options) -> list[str]:
    config = _re2_config(opts, "dev", "train", "index", "thetas")
    dev = _load(opts, "dev")
    train, index = _corpus_and_index(opts, "train", field_name="explanation")
    thetas = opts.require("thetas")
    rows = sweep_threshold(dev, thetas, config, index, train, **opts.fields("jobs"))
    return [json.dumps(rows, ensure_ascii=False)]


def cmd_compare_retrievers(opts: _Options) -> list[str]:
    index_config = _index_config(opts)  # a bad --ngram-* fails before any script is read
    config = _re2_config(opts, "dev", "train", "rankings")
    dev = _load(opts, "dev")
    train = _load(opts, "train")
    rows = compare_retrievers(
        dev, opts.require("rankings"), config, train, index_config=index_config,
        **opts.fields("jobs", field_name="field"),
    )
    return [json.dumps(rows, ensure_ascii=False)]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rankings(text: str) -> list[str]:
    names = [x for x in text.split(",") if x]
    if not names:
        raise argparse.ArgumentTypeError(f"no ranking given (choose from {', '.join(RANKINGS)})")
    for name in names:
        if name not in RANKINGS:
            raise argparse.ArgumentTypeError(
                f"unknown ranking {name!r} (choose from {', '.join(RANKINGS)})"
            )
    return names


def _thetas(text: str) -> list[float]:
    thetas = []
    for item in text.split(","):
        try:
            theta = float(item)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {item!r}") from None
        if not (0.0 <= theta <= 1.0):
            raise argparse.ArgumentTypeError(f"theta must lie in [0, 1], got {theta}")
        thetas.append(theta)
    return thetas


def _add_segmenter(sub: argparse.ArgumentParser) -> None:
    from .segmentation import SEGMENTER_MODES, SegmenterConfig

    sub.add_argument("--segmenter", choices=SEGMENTER_MODES,
                     help=f"token segmenter (default: {_default(SegmenterConfig, 'mode')})")
    sub.add_argument("--segmenter-cmd", help="external segmenter command line")
    sub.add_argument("--segmenter-timeout", type=float,
                     help="external segmenter per-line timeout in seconds")


def _add_backend(sub: argparse.ArgumentParser, prefix: str = "", what: str = "correction") -> None:
    flag = "--" + prefix.replace("_", "-")
    sub.add_argument(f"{flag}backend", choices=BACKEND_KINDS, help=f"{what} backend kind")
    sub.add_argument(f"{flag}endpoint", help=f"{what} backend HTTP endpoint")
    sub.add_argument(f"{flag}model", help=f"{what} backend model name")
    sub.add_argument(f"{flag}script", help=f"{what} mock backend script file")
    sub.add_argument(f"{flag}timeout", type=float,
                     help=f"{what} backend request timeout in seconds")


def _add_index_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ngram-min", type=int)
    sub.add_argument("--ngram-max", type=int)
    sub.add_argument("--bm25-k1", type=float)
    sub.add_argument("--bm25-b", type=float)


def _add_field(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument("--field", choices=INDEX_FIELDS,
                     help=f"indexed text field (default: {default})")


def _add_pipeline_options(sub: argparse.ArgumentParser, *, theta: bool, templates=True) -> None:
    sub.add_argument("--k", type=int,
                     help=f"number of retrieved examples (default: {_default(Re2Config, 'k')})")
    if theta:
        sub.add_argument("--theta", type=float, help="similarity gate threshold "
                         f"(default: {_default(Re2Config, 'theta')}); "
                         "a BM25 index opens the gate on any hit")
    if templates:
        sub.add_argument("--templates", help="template set name or directory "
                         f"(default: {_default(Re2Config, 'templates')})")


def _add_decoding(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--temperature", type=float)
    sub.add_argument("--beam-size", type=int)
    sub.add_argument("--sample", action="store_const", const=True)


def _add_common(
    sub: argparse.ArgumentParser, out_help: str = "output path (default: stdout)",
    *, seed: bool = False, jobs: bool = False,
) -> None:
    sub.add_argument("--config", help="JSON config manifest; flags override its values")
    sub.add_argument("--out", help=out_help)
    if seed:
        sub.add_argument("--seed", type=int,
                         help=f"random seed (default: {_default(run_baseline, 'seed')})")
    if jobs:
        sub.add_argument("--jobs", type=_positive_int, help="threads, each running one "
                         f"input at a time (default: {_default(map_ordered, 'jobs')})")
    sub.add_argument("--strict", action="store_const", const=True,
                     help="reject unknown corpus fields and config keys")


# Each subcommand's options, added when it parses.  Those of a pipeline
# command read pipeline-side defaults and choices, so they bind those names first.

def _extract_edits_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--source", help="source sentence")
    sub.add_argument("--target", help="corrected sentence")
    sub.add_argument("--in", help="JSON-lines file of {source, target} pairs")
    _add_segmenter(sub)


def _build_index_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub, out_help="index file to write (required)")
    sub.add_argument("--in", help="corpus JSON-lines file")
    # Read by nothing: kept, with its old choices, so that existing command
    # lines and manifests that pass it (the benchmark's among them) still parse.
    sub.add_argument("--kind", choices=("gec", "gee", "detection"),
                     help="accepted for compatibility; ignored")
    _add_field(sub, _default(build_index, "field_name"))
    sub.add_argument("--ranking", choices=RANKINGS)
    _add_index_options(sub)
    _add_segmenter(sub)
    _add_backend(sub, "embed_", "embedding")


def _query_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub)
    sub.add_argument("--index", help="index file")
    sub.add_argument("--text", help="query text")
    _add_pipeline_options(sub, theta=True, templates=False)
    sub.add_argument("--exclude", help="comma-separated doc ids to exclude")
    _add_backend(sub, "embed_", "embedding")


def _explain_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub, jobs=True)
    sub.add_argument("--in", help="corpus JSON-lines file")
    sub.add_argument("--text", help="single input sentence")
    sub.add_argument("--templates")
    _add_backend(sub, "explainer_", "explainer")
    _add_decoding(sub)


def _correct_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub, jobs=True)
    sub.add_argument("--in", help="inputs corpus JSON-lines file")
    sub.add_argument("--corpus", help="reference example corpus (resolves retrieved ids)")
    sub.add_argument("--index", help="explanation index file")
    _add_pipeline_options(sub, theta=True)
    _add_decoding(sub)
    _add_backend(sub)
    _add_backend(sub, "explainer_", "explainer")
    _add_backend(sub, "embed_", "embedding")


def _baseline_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub, seed=True, jobs=True)
    sub.add_argument("--mode", choices=BASELINE_MODES)
    sub.add_argument("--in", help="inputs corpus JSON-lines file")
    sub.add_argument("--corpus", help="example corpus")
    sub.add_argument("--index", help="source-text index (textsim mode)")
    _add_pipeline_options(sub, theta=False)
    _add_decoding(sub)
    _add_backend(sub)
    _add_backend(sub, "embed_", "embedding")


def _score_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--src", help="source corpus JSON-lines file (with reference targets)")
    sub.add_argument("--hyp", help="hypothesis text file, one sentence per line")
    sub.add_argument("--hyp-log", help="outcome log; corrections are scored")
    sub.add_argument("--per-sentence", help="write per-sentence TSV here")


def _rouge_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--candidate")
    sub.add_argument("--reference")
    sub.add_argument("--cand-file")
    sub.add_argument("--ref-file")


def _detect_options(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--src", help="source corpus JSON-lines file")
    sub.add_argument("--hyp", help="hypothesis text file, one sentence per line")
    sub.add_argument("--hyp-log")


def _make_sft_data_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub)
    sub.add_argument("--train", help="training corpus with explanations")
    sub.add_argument("--index", help="explanation index over the training corpus")
    _add_pipeline_options(sub, theta=False)
    _add_backend(sub, "embed_", "embedding")


def _sweep_theta_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub, jobs=True)
    sub.add_argument("--dev", help="dev corpus")
    sub.add_argument("--train", help="example corpus backing the index")
    sub.add_argument("--index", help="explanation index file")
    sub.add_argument("--thetas", type=_thetas, help="comma-separated thresholds; "
                     "a BM25 index gives the same row at every theta")
    _add_pipeline_options(sub, theta=False)
    _add_decoding(sub)
    _add_backend(sub)
    _add_backend(sub, "explainer_", "explainer")
    _add_backend(sub, "embed_", "embedding")


def _compare_retrievers_options(sub: argparse.ArgumentParser) -> None:
    _load_pipeline()
    _add_common(sub, jobs=True)
    sub.add_argument("--dev", help="dev corpus")
    sub.add_argument("--train", help="example corpus")
    sub.add_argument("--rankings", type=_rankings, help="comma-separated rankings to compare")
    _add_index_options(sub)
    _add_segmenter(sub)
    _add_pipeline_options(sub, theta=True)
    _add_field(sub, _default(compare_retrievers, "field_name"))
    _add_decoding(sub)
    _add_backend(sub)
    _add_backend(sub, "explainer_", "explainer")
    _add_backend(sub, "embed_", "embedding")


# (name, handler, help line, options) per subcommand, in --help order.
_COMMANDS = (
    ("extract-edits", cmd_extract_edits, "extract edit scripts from sentence pairs",
     _extract_edits_options),
    ("build-index", cmd_build_index, "build a similarity index from a corpus",
     _build_index_options),
    ("query", cmd_query, "query an index", _query_options),
    ("explain", cmd_explain, "generate error explanations for inputs", _explain_options),
    ("correct", cmd_correct, "correct inputs with explanation-retrieved examples",
     _correct_options),
    ("baseline", cmd_baseline, "correct inputs with a baseline example strategy",
     _baseline_options),
    ("score", cmd_score, "edit-overlap precision/recall/F0.5", _score_options),
    ("rouge", cmd_rouge, "character-level ROUGE-L", _rouge_options),
    ("detect", cmd_detect, "sentence- and position-level detection metrics", _detect_options),
    ("make-sft-data", cmd_make_sft_data, "build fine-tuning prompt/response pairs",
     _make_sft_data_options),
    ("sweep-theta", cmd_sweep_theta, "score the pipeline across gate thresholds",
     _sweep_theta_options),
    ("compare-retrievers", cmd_compare_retrievers,
     "score the pipeline under different rankings", _compare_retrievers_options),
)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; each one's options are added when it first parses."""
    parser = _Parser(
        prog="re2gec",
        description="Explanation-retrieved examples for grammatical error correction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, populate in _COMMANDS:
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        sub.set_defaults(handler=handler, parser=sub)
        sub.populate = populate
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        opts = _parse(build_parser(), argv)
        out = opts.get("out", "-")
        files = [("--out", out)] if out != "-" else []
        if opts.get("per_sentence"):
            files.append(("--per-sentence", opts.per_sentence))
        for flag, path in files:
            if not Path(path).parent.is_dir():
                raise Re2Error(f"{flag} {path!r}: no directory {str(Path(path).parent)!r}")
            if Path(path).is_dir():
                raise Re2Error(f"{flag} {path!r}: is a directory")
        try:
            lines, failed = opts.handler(opts), None
        except _InputsFailed as exc:
            lines, failed = exc.lines, exc
        if lines is not None:
            # Every character UTF-8 cannot encode is a lone surrogate (from a JSON
            # ``\ud800`` escape) inside a JSON string, so its escape is the same value.
            data = "".join(line + "\n" for line in lines).encode("utf-8", "backslashreplace")
            if out == "-":
                sys.stdout.flush()
                sys.stdout.buffer.write(data)  # UTF-8 whatever the locale, as --out gets
            else:
                replace_file(out, data)
        if failed:
            raise failed
        return 0
    except SystemExit as exc:  # from --help, once the usage is printed
        return exc.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (Re2Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
