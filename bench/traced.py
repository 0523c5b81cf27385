"""Run one re2gec CLI command with spans recorded around calls into each layer.

    python3 bench/traced.py SPANS.json [--explainer ID] -- <re2gec arguments>
    python3 bench/traced.py SPANS.json --probe INDEX QUERIES.json

The first form runs ``re2gec.cli.dispatch`` on the arguments.  The second
loads an index and queries it once per text in QUERIES.json (a JSON list),
through the library, for per-ranking query timings.

Nothing in the package changes: each wrapper replaces a function at the
module attribute its caller looks it up through (``re2gec.pipeline.query``,
``re2gec.cli.load_index``, ...).  A span records its name, start and end
(``perf_counter`` seconds), thread, parent span and an optional tag.  Spans
stay in memory and are written to SPANS.json when the command returns.
``--explainer ID`` names the explainer backend (its model, or its mock script
path) so that completion spans are tagged ``explain`` or ``correct``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

# (module, attribute, span name).  The layer is the part before the first dot.
WRAPS = (
    ("re2gec.cli", "load_corpus", "corpus.load_corpus"),
    ("re2gec.cli", "build_index", "retriever.build_index"),
    ("re2gec.retriever", "dumps_index", "retriever.dumps_index"),
    ("re2gec.cli", "load_index", "retriever.load_index"),
    ("re2gec.retriever", "loads_index", "retriever.loads_index"),
    ("re2gec.retriever", "ngram_counts", "retriever.ngram_counts"),
    ("re2gec.retriever", "segment", "segmentation.segment"),
    ("re2gec.pipeline", "query", "retriever.query"),
    ("re2gec.cli", "correct_corpus", "pipeline.correct_corpus"),
    ("re2gec.pipeline", "run_re2", "pipeline.run_re2"),
    ("re2gec.pipeline", "generate_explanation", "pipeline.generate_explanation"),
    ("re2gec.pipeline", "render_gec_prompt", "prompting.render_gec_prompt"),
    ("re2gec.pipeline", "render_gee_prompt", "prompting.render_gee_prompt"),
    ("re2gec.pipeline", "load_template_set", "prompting.load_template_set"),
    ("re2gec.pipeline", "parse_correction", "prompting.parse_correction"),
    ("re2gec.pipeline", "complete", "llm_backend.complete"),
    ("re2gec.cli", "extract_edits", "edit_extract.extract_edits"),
    ("re2gec.scorer", "char_level_edits", "edit_extract.char_level_edits"),
    ("re2gec.cli", "score_corpus", "scorer.score_corpus"),
    ("re2gec.cli", "score_sentence", "scorer.score_sentence"),
    ("re2gec.scorer", "score_sentence", "scorer.score_sentence"),
    ("re2gec.cli", "detection_metrics", "scorer.detection_metrics"),
    ("re2gec.cli", "rouge_l", "scorer.rouge_l"),
)


class Tracer:
    """In-memory span recorder; parents come from a per-thread stack.

    A span opened on a worker thread with an empty stack takes the span open
    on the main thread as its parent, so pool work nests under the call that
    started the pool.
    """

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, thread, parent, tag]
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, tag=None, sizer=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, 0.0, 0.0, threading.get_ident(), parent, tag]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if sizer is not None:
            span[5] = sizer(result)
        return result

    def wrap(self, name: str, fn, tagger=None, sizer=None):
        """``tagger(args, kwargs)`` tags the span before the call, ``sizer(result)`` after."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            return self.call(name, fn, args, kwargs, tag, sizer)

        return wrapper


def _role_tagger(explainer: str | None):
    def tag(args, kwargs):
        backend = args[2] if len(args) > 2 else kwargs.get("config")
        ident = {getattr(backend, "model", None), getattr(backend, "script_path", None)}
        return "explain" if explainer in ident else "correct"

    return tag


def _wrap_postings(tracer: Tracer) -> None:
    """Time the first ``postings()`` call per index: the lazy postings build."""
    from re2gec.retriever import ExplanationIndex

    original = ExplanationIndex.postings
    seen: set[int] = set()

    @functools.wraps(original)
    def postings(self):
        if id(self) in seen:
            return original(self)
        seen.add(id(self))
        return tracer.call("retriever.postings", original, (self,), {})

    ExplanationIndex.postings = postings


def install(tracer: Tracer, explainer: str | None = None) -> list[str]:
    """Install every wrapper; returns the (module, attribute) pairs not found."""
    missing = []
    taggers = {"llm_backend.complete": _role_tagger(explainer)}
    sizers = {
        "retriever.build_index": lambda index: len(getattr(index, "vocabulary", ())),
        "retriever.dumps_index": len,
    }
    for module_name, attr, name in WRAPS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(name, fn, taggers.get(name), sizers.get(name)))
    _wrap_postings(tracer)
    return missing


def _probe(index_path: str, queries_path: str) -> int:
    from re2gec import retriever

    index = retriever.load_index(index_path)
    for text in json.loads(Path(queries_path).read_text(encoding="utf-8")):
        retriever.query(index, text, k=3, theta=0.6)
    return 0


def main(argv: list[str]) -> int:
    spans_out, rest = argv[0], argv[1:]
    tracer = Tracer()
    if rest[:1] == ["--probe"]:
        import re2gec.retriever

        re2gec.retriever.query = tracer.wrap("retriever.query", re2gec.retriever.query)
        _wrap_postings(tracer)
        code = tracer.call("probe", _probe, (rest[1], rest[2]), {})
    else:
        explainer = None
        if rest[:1] == ["--explainer"]:
            explainer, rest = rest[1], rest[2:]
        if rest[:1] != ["--"]:
            print("usage: traced.py SPANS.json [--explainer ID] -- ARGS", file=sys.stderr)
            return 2
        import re2gec.cli

        missing = install(tracer, explainer)
        if missing:
            print("traced: not wrapped: " + ", ".join(missing), file=sys.stderr)
        code = tracer.call("cli.dispatch", re2gec.cli.dispatch, (rest[1:],), {})
    Path(spans_out).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
