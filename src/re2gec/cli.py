"""Command-line interface.

Every subcommand accepts ``--config FILE`` pointing at a JSON object whose
keys mirror the subcommand's long flag names (``{"k": 3, "theta": 0.6, ...}``)
and whose values pass the same type and choice checks as the flags; explicit
flags override config values, which override built-in defaults.  A
subcommand registers only the options its handler reads, and passes on only
the options that were set: the config dataclasses and library signatures
hold every default.  A handler returns its output lines, and ``dispatch``
writes them to ``--out`` (checked before the handler runs) or stdout.  Exit
codes: 0 on success, 1 on runtime errors (one-line diagnostic on stderr), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys
from pathlib import Path

from .corpus import load_corpus, string_fields
from .edit_extract import extract_edits
from .errors import Re2Error
from .llm_backend import BACKEND_KINDS, BackendConfig, DecodingParams
from .pipeline import (
    BASELINE_MODES,
    Re2Config,
    build_sft_data,
    compare_retrievers,
    correct_corpus,
    embedder_for,
    generate_explanation,
    map_ordered,
    run_baseline,
    sweep_threshold,
)
from .prompting import load_template_set
from .retriever import (
    INDEX_FIELDS,
    RANKINGS,
    IndexConfig,
    build_index,
    check_corpus,
    load_index,
    query,
    save_index,
)
from .scorer import detection_metrics, rouge_l, score_corpus, score_sentence
from .segmentation import SEGMENTER_MODES, SegmenterConfig


class _UsageError(Exception):
    pass


# Options that take a comma-separated list; a manifest may give a JSON list.
_LIST_OPTIONS = ("thetas", "rankings")


def _manifest_value(action: argparse.Action, key: str, value):
    """A manifest value parsed the way argparse parses the same flag's argument."""
    if action.nargs == 0:  # an on/off flag
        if not isinstance(value, bool):
            raise _UsageError(f"config key {key!r} must be true or false, got {value!r}")
        return action.const if value else None
    scalars = value if isinstance(value, list) and key in _LIST_OPTIONS else [value]
    if any(isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in scalars):
        raise _UsageError(f"config key {key!r}: invalid value {value!r}")
    text = ",".join(str(v) for v in scalars)
    try:
        parsed = action.type(text) if action.type else text
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise _UsageError(f"config key {key!r}: invalid value {value!r}: {exc}") from None
    if action.choices is not None and parsed not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise _UsageError(
            f"config key {key!r}: invalid choice {parsed!r} (choose from {choices})"
        )
    return parsed


class _Options:
    """Flag values overlaid on the optional JSON config manifest.

    Manifest keys are the subcommand's option names; other keys are ignored,
    or rejected under ``--strict``.
    """

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._manifest = {}
        config_path = getattr(args, "config", None)
        if not config_path:
            return
        try:
            manifest = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise Re2Error(f"cannot read config {config_path!r}: {exc}") from None
        if not isinstance(manifest, dict):
            raise Re2Error(f"config {config_path!r} must hold a JSON object")
        actions = {a.dest: a for a in args.parser._actions if a.option_strings}
        unknown = []
        for key, value in manifest.items():
            if key not in actions:
                unknown.append(key)
            elif value is not None:
                self._manifest[key] = _manifest_value(actions[key], key, value)
        if unknown and self.get("strict"):
            raise _UsageError(
                f"config {config_path!r}: unknown key(s) " + ", ".join(map(repr, unknown))
            )

    def get(self, name: str, default=None):
        value = getattr(self._args, name, None)
        if value is not None:
            return value
        return self._manifest.get(name, default)

    def flag(self, name: str) -> str:
        """The flag of option ``name``, e.g. ``--in`` for ``infile``."""
        return next(a.option_strings[0] for a in self._args.parser._actions if a.dest == name)

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


def _default(owner, name: str):
    """The default of keyword ``name`` of a function or dataclass."""
    return inspect.signature(owner).parameters[name].default


def _segmenter(opts: _Options) -> SegmenterConfig:
    return SegmenterConfig(
        **opts.fields(
            mode="segmenter",
            external_command="segmenter_cmd",
            external_timeout="segmenter_timeout",
        )
    )


def _index_config(opts: _Options) -> IndexConfig:
    return IndexConfig(
        **opts.fields("ngram_min", "ngram_max", "ranking", "bm25_k1", "bm25_b"),
        segmenter=_segmenter(opts),
    )


def _backend(opts: _Options, prefix: str = "") -> BackendConfig | None:
    """Backend from the prefix-scoped options; None when none were given."""
    kind = opts.get(prefix + "backend")
    endpoint = opts.get(prefix + "endpoint")
    script = opts.get(prefix + "script")
    if kind is None and endpoint is None and script is None:
        return None
    flag = "--" + prefix.replace("_", "-")
    if kind is None:
        kind = "http" if endpoint else "mock"
    if kind == "mock" and not script:
        raise _UsageError(f"missing required option {flag}script")
    if kind == "http" and not endpoint:
        raise _UsageError(f"missing required option {flag}endpoint")
    return BackendConfig(
        kind=kind,
        **opts.fields(
            endpoint=prefix + "endpoint",
            model=prefix + "model",
            script_path=prefix + "script",
            timeout=prefix + "timeout",
        ),
    )


# Stands in for backends a flow never calls (prompt construction only);
# completing against it fails loudly.
_UNUSED_BACKEND = BackendConfig(kind="mock", script_path="<unused>")


def _re2_config(
    opts: _Options, *, need_correction: bool = True, need_explainer: bool = True
) -> Re2Config:
    backend = _backend(opts)
    explainer = _backend(opts, "explainer_") or backend
    if backend is None:
        if need_correction:
            raise _UsageError("missing required option --script or --backend")
        backend = _UNUSED_BACKEND
    if explainer is None:
        if need_explainer:
            raise _UsageError(
                "missing required option --explainer-script or --explainer-backend"
            )
        explainer = _UNUSED_BACKEND
    return Re2Config(
        backend=backend,
        explainer_backend=explainer,
        decoding=DecodingParams(**opts.fields("sample", "temperature", "beam_size")),
        embedding_backend=_backend(opts, "embed_"),
        index_config=_index_config(opts),
        **opts.fields("k", "theta", "templates", retriever_field="field"),
    )


def _json_line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _load(opts: _Options, name: str):
    return load_corpus(opts.require(name), strict=bool(opts.get("strict")))


def _corpus_and_index(opts: _Options, name: str, index_required: bool = True):
    """The example corpus of option ``name`` and the ``--index`` built over it.

    The index is None when it is optional and not given.
    """
    corpus = _load(opts, name)
    path = opts.require("index") if index_required else opts.get("index")
    if path is None:
        return corpus, None
    index = load_index(path)
    check_corpus(index, corpus)
    return corpus, index


def _text_lines(path: str) -> list[str]:
    """Lines of a plain-text file, split at \n only.

    One \r ending a line is dropped, and a final newline adds no line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _scoring_items(opts: _Options) -> list[tuple[str, str, list[str]]]:
    """(source, hypothesis, targets) per --src record; hypotheses from --hyp or --hyp-log."""
    src = _load(opts, "src")
    if opts.get("hyp_log") is not None:
        hyps = [row[0] for row in string_fields(opts.get("hyp_log"), ("correction",))]
    else:
        hyps = _text_lines(opts.require("hyp"))
    if len(hyps) != len(src):
        raise Re2Error(f"{len(src)} sources but {len(hyps)} hypotheses")
    return [(rec.source, hyp, rec.targets) for rec, hyp in zip(src, hyps)]


def cmd_extract_edits(opts: _Options) -> list[str]:
    cfg = _segmenter(opts)
    if opts.single_input(("source", "target"), ("infile",)):
        pairs = [(opts.require("source"), opts.require("target"))]
    else:
        pairs = string_fields(opts.require("infile"), ("source", "target"))
    return [_json_line([e.to_triple() for e in extract_edits(s, t, cfg)]) for s, t in pairs]


def cmd_build_index(opts: _Options) -> None:
    corpus = _load(opts, "infile")
    index = build_index(
        corpus,
        config=_index_config(opts),
        embedder=embedder_for(_backend(opts, "embed_")),
        **opts.fields(field_name="field"),
    )
    save_index(index, opts.require("out"))


def cmd_query(opts: _Options) -> list[str]:
    config = _re2_config(opts, need_correction=False, need_explainer=False)
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
    single = opts.single_input(("text",), ("infile",))
    config = _re2_config(opts, need_correction=False)
    template_set = load_template_set(config.templates)
    if single:
        pairs = [("", opts.get("text"))]
    else:
        pairs = [(rec.id, rec.source) for rec in _load(opts, "infile")]
    explanations = map_ordered(
        lambda pair: generate_explanation(pair[1], config, template_set),
        pairs,
        **opts.fields("jobs"),
    )
    return [
        _json_line({"id": rec_id, "source": source, "explanation": explanation})
        for (rec_id, source), explanation in zip(pairs, explanations)
    ]


def cmd_correct(opts: _Options) -> list[str]:
    config = _re2_config(opts)
    dev = _load(opts, "infile")
    train, index = _corpus_and_index(opts, "corpus")
    outcomes = correct_corpus(
        [rec.source for rec in dev],
        index,
        train,
        config,
        **opts.fields("jobs"),
    )
    return [_json_line(o.to_dict()) for o in outcomes]


def cmd_baseline(opts: _Options) -> list[str]:
    config = _re2_config(opts, need_explainer=False)
    mode = opts.require("mode")
    dev = _load(opts, "infile")
    train, source_index = _corpus_and_index(opts, "corpus", index_required=False)
    seed = opts.get("seed", _default(run_baseline, "seed"))
    template_set = load_template_set(config.templates)
    outcomes = map_ordered(
        lambda i: run_baseline(
            dev.records[i].source, mode, train, source_index, config,
            seed=seed + i, template_set=template_set,
        ),
        range(len(dev)),
        **opts.fields("jobs"),
    )
    return [_json_line(o.to_dict()) for o in outcomes]


def cmd_score(opts: _Options) -> list[str]:
    scores = [score_sentence(*item) for item in _scoring_items(opts)]
    report = score_corpus(scores)
    per_sentence = opts.get("per_sentence")
    if per_sentence:
        with open(per_sentence, "w", encoding="utf-8") as fh:
            fh.write("index\ttp\tfp\tfn\tchosen_reference\n")
            for i, s in enumerate(scores):
                fh.write(f"{i}\t{s.tp}\t{s.fp}\t{s.fn}\t{s.chosen_reference}\n")
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
    n = len(pairs)
    report = {
        "pairs": [{"precision": p, "recall": r, "f1": f} for p, r, f in pairs],
        "mean_precision": sum(p for p, _, _ in pairs) / n,
        "mean_recall": sum(r for _, r, _ in pairs) / n,
        "mean_f1": sum(f for _, _, f in pairs) / n,
    }
    return [json.dumps(report, ensure_ascii=False)]


def cmd_detect(opts: _Options) -> list[str]:
    report = detection_metrics(_scoring_items(opts))
    return [json.dumps(report.to_dict(), ensure_ascii=False)]


def cmd_make_sft_data(opts: _Options) -> list[str]:
    config = _re2_config(opts, need_correction=False, need_explainer=False)
    train, index = _corpus_and_index(opts, "train")
    return [_json_line(ex.to_dict()) for ex in build_sft_data(train, index, config)]


def cmd_sweep_theta(opts: _Options) -> list[str]:
    config = _re2_config(opts)
    dev = _load(opts, "dev")
    train, index = _corpus_and_index(opts, "train")
    thetas = opts.require("thetas")
    rows = sweep_threshold(dev, thetas, config, index, train, **opts.fields("jobs"))
    return [json.dumps(rows, ensure_ascii=False)]


def cmd_compare_retrievers(opts: _Options) -> list[str]:
    config = _re2_config(opts)
    dev = _load(opts, "dev")
    train = _load(opts, "train")
    rows = compare_retrievers(dev, opts.require("rankings"), config, train, **opts.fields("jobs"))
    return [json.dumps(rows, ensure_ascii=False)]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rankings(text: str) -> list[str]:
    names = [x for x in text.split(",") if x]
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
    sub.add_argument("--segmenter", choices=SEGMENTER_MODES,
                     help=f"token segmenter (default: {_default(SegmenterConfig, 'mode')})")
    sub.add_argument("--segmenter-cmd", dest="segmenter_cmd",
                     help="external segmenter command line")
    sub.add_argument("--segmenter-timeout", dest="segmenter_timeout", type=float,
                     help="external segmenter per-line timeout in seconds")


def _add_backend(sub: argparse.ArgumentParser, prefix: str = "", what: str = "correction") -> None:
    flag = "--" + prefix.replace("_", "-")
    sub.add_argument(f"{flag}backend", dest=f"{prefix}backend", choices=BACKEND_KINDS,
                     help=f"{what} backend kind")
    sub.add_argument(f"{flag}endpoint", dest=f"{prefix}endpoint",
                     help=f"{what} backend HTTP endpoint")
    sub.add_argument(f"{flag}model", dest=f"{prefix}model", help=f"{what} backend model name")
    sub.add_argument(f"{flag}script", dest=f"{prefix}script",
                     help=f"{what} mock backend script file")
    sub.add_argument(f"{flag}timeout", dest=f"{prefix}timeout", type=float,
                     help=f"{what} backend request timeout in seconds")


def _add_embedding(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--embed-backend", dest="embed_backend", choices=BACKEND_KINDS)
    sub.add_argument("--embed-endpoint", dest="embed_endpoint")
    sub.add_argument("--embed-model", dest="embed_model")
    sub.add_argument("--embed-script", dest="embed_script")


def _add_index_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ngram-min", dest="ngram_min", type=int)
    sub.add_argument("--ngram-max", dest="ngram_max", type=int)
    sub.add_argument("--bm25-k1", dest="bm25_k1", type=float)
    sub.add_argument("--bm25-b", dest="bm25_b", type=float)


def _add_field(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument("--field", choices=INDEX_FIELDS,
                     help=f"indexed text field (default: {default})")


def _add_pipeline_options(sub: argparse.ArgumentParser, *, theta: bool) -> None:
    sub.add_argument("--k", type=int,
                     help=f"number of retrieved examples (default: {_default(Re2Config, 'k')})")
    if theta:
        sub.add_argument("--theta", type=float, help="similarity gate threshold "
                         f"(default: {_default(Re2Config, 'theta')})")
    sub.add_argument("--templates", help="template set name or directory "
                     f"(default: {_default(Re2Config, 'templates')})")


def _add_decoding(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--temperature", type=float)
    sub.add_argument("--beam-size", dest="beam_size", type=int)
    sub.add_argument("--sample", action="store_const", const=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="re2gec",
        description="Explanation-retrieved examples for grammatical error correction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, handler, help_text: str, out_help: str = "output path (default: stdout)",
        *, seed: bool = False, jobs: bool = False,
    ) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        sub.set_defaults(handler=handler, parser=sub)
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
        return sub

    sub = add("extract-edits", cmd_extract_edits, "extract edit scripts from sentence pairs")
    sub.add_argument("--source", help="source sentence")
    sub.add_argument("--target", help="corrected sentence")
    sub.add_argument("--in", dest="infile", help="JSON-lines file of {source, target} pairs")
    _add_segmenter(sub)

    sub = add("build-index", cmd_build_index, "build a similarity index from a corpus",
              out_help="index file to write (required)")
    sub.add_argument("--in", dest="infile", help="corpus JSON-lines file")
    # Read by nothing: kept, with its old choices, so that existing command
    # lines and manifests that pass it (the benchmark's among them) still parse.
    sub.add_argument("--kind", choices=("gec", "gee", "detection"),
                     help="accepted for compatibility; ignored")
    _add_field(sub, _default(build_index, "field_name"))
    sub.add_argument("--ranking", choices=RANKINGS)
    _add_index_options(sub)
    _add_segmenter(sub)
    _add_embedding(sub)

    sub = add("query", cmd_query, "query an index")
    sub.add_argument("--index", help="index file")
    sub.add_argument("--text", help="query text")
    sub.add_argument("--k", type=int)
    sub.add_argument("--theta", type=float)
    sub.add_argument("--exclude", help="comma-separated doc ids to exclude")
    _add_embedding(sub)

    sub = add("explain", cmd_explain, "generate error explanations for inputs", jobs=True)
    sub.add_argument("--in", dest="infile", help="corpus JSON-lines file")
    sub.add_argument("--text", help="single input sentence")
    sub.add_argument("--templates")
    _add_backend(sub, "explainer_", "explainer")
    _add_backend(sub)
    _add_decoding(sub)

    sub = add("correct", cmd_correct, "correct inputs with explanation-retrieved examples",
              jobs=True)
    sub.add_argument("--in", dest="infile", help="inputs corpus JSON-lines file")
    sub.add_argument("--corpus", help="reference example corpus (resolves retrieved ids)")
    sub.add_argument("--index", help="explanation index file")
    _add_pipeline_options(sub, theta=True)
    _add_decoding(sub)
    _add_backend(sub)
    _add_backend(sub, "explainer_", "explainer")
    _add_embedding(sub)

    sub = add("baseline", cmd_baseline, "correct inputs with a baseline example strategy",
              seed=True, jobs=True)
    sub.add_argument("--mode", choices=BASELINE_MODES)
    sub.add_argument("--in", dest="infile", help="inputs corpus JSON-lines file")
    sub.add_argument("--corpus", help="example corpus")
    sub.add_argument("--index", help="source-text index (textsim mode)")
    _add_pipeline_options(sub, theta=False)
    _add_decoding(sub)
    _add_backend(sub)
    _add_embedding(sub)

    sub = add("score", cmd_score, "edit-overlap precision/recall/F0.5")
    sub.add_argument("--src", help="source corpus JSON-lines file (with reference targets)")
    sub.add_argument("--hyp", help="hypothesis text file, one sentence per line")
    sub.add_argument("--hyp-log", dest="hyp_log", help="outcome log; corrections are scored")
    sub.add_argument("--per-sentence", dest="per_sentence", help="write per-sentence TSV here")

    sub = add("rouge", cmd_rouge, "character-level ROUGE-L")
    sub.add_argument("--candidate")
    sub.add_argument("--reference")
    sub.add_argument("--cand-file", dest="cand_file")
    sub.add_argument("--ref-file", dest="ref_file")

    sub = add("detect", cmd_detect, "sentence- and position-level detection metrics")
    sub.add_argument("--src", help="source corpus JSON-lines file")
    sub.add_argument("--hyp", help="hypothesis text file, one sentence per line")
    sub.add_argument("--hyp-log", dest="hyp_log")

    sub = add("make-sft-data", cmd_make_sft_data, "build fine-tuning prompt/response pairs")
    sub.add_argument("--train", help="training corpus with explanations")
    sub.add_argument("--index", help="explanation index over the training corpus")
    _add_pipeline_options(sub, theta=False)

    sub = add("sweep-theta", cmd_sweep_theta, "score the pipeline across gate thresholds",
              jobs=True)
    sub.add_argument("--dev", help="dev corpus")
    sub.add_argument("--train", help="example corpus backing the index")
    sub.add_argument("--index", help="explanation index file")
    sub.add_argument("--thetas", type=_thetas, help="comma-separated thresholds")
    _add_pipeline_options(sub, theta=False)
    _add_decoding(sub)
    _add_backend(sub)
    _add_backend(sub, "explainer_", "explainer")
    _add_embedding(sub)

    sub = add("compare-retrievers", cmd_compare_retrievers,
              "score the pipeline under different rankings", jobs=True)
    sub.add_argument("--dev", help="dev corpus")
    sub.add_argument("--train", help="example corpus")
    sub.add_argument("--rankings", type=_rankings, help="comma-separated rankings to compare")
    _add_index_options(sub)
    _add_segmenter(sub)
    _add_pipeline_options(sub, theta=True)
    _add_field(sub, _default(Re2Config, "retriever_field"))
    _add_decoding(sub)
    _add_backend(sub)
    _add_backend(sub, "explainer_", "explainer")
    _add_embedding(sub)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        opts = _Options(args)
        out = opts.get("out", "-")
        if out != "-" and not Path(out).parent.is_dir():
            raise Re2Error(f"--out {out!r}: no directory {str(Path(out).parent)!r}")
        lines = args.handler(opts)
        if lines is not None:
            stdout = contextlib.nullcontext(sys.stdout)
            with stdout if out == "-" else open(out, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (Re2Error, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
