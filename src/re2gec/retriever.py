"""Similarity indexes over explanation (or source) text.

The default ranking is TF-IDF cosine over token n-grams:

    idf(g) = ln((1 + N) / (1 + df(g))) + 1

with raw term counts and L2-normalized document vectors, so the
self-similarity of any document with at least one n-gram is exactly 1.
Out-of-vocabulary query n-grams are dropped.  BM25 (Okapi scoring with a
Lucene-style non-negative idf) and dense-embedding cosine are available as
alternative rankings behind the same query interface.

Queries return the top-k hits with strictly positive scores, ranked by
descending score with ties broken by ascending doc id, plus a gate decision:
for cosine rankings the gate opens when the best similarity reaches theta;
BM25 scores are not bounded by 1, so its gate opens whenever any hit exists.

TF-IDF and BM25 queries score through one column-major postings product,
held as numpy arrays and built on the first query.  numpy is imported only
there, so commands that never query an n-gram index do not load it.

``save_index``/``load_index`` use a versioned text format whose bytes are a
deterministic function of the index contents.
"""

from __future__ import annotations

import heapq
import json
import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .corpus import Corpus
from .errors import RetrievalError
from .segmentation import SegmenterConfig, segment

if TYPE_CHECKING:
    import numpy as np

INDEX_MAGIC = "RE2IDX 1"
RANKINGS = ("tfidf_cosine", "bm25", "embedding")
INDEX_FIELDS = ("explanation", "source")

# Joining n-gram member tokens with U+001F keeps multi-token grams unambiguous.
NGRAM_JOIN = "\x1f"

Embedder = Callable[[Sequence[str]], "list[list[float]]"]


@dataclass(frozen=True)
class IndexConfig:
    ngram_min: int = 2
    ngram_max: int = 3
    ranking: str = "tfidf_cosine"
    bm25_k1: float = 1.5
    bm25_b: float = 0.75
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)

    def __post_init__(self):
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise ValueError(
                f"need 1 <= ngram_min <= ngram_max, got ({self.ngram_min}, {self.ngram_max})"
            )
        if self.ranking not in RANKINGS:
            raise ValueError(f"unknown ranking {self.ranking!r}")
        if self.bm25_k1 < 0.0:
            raise ValueError(f"bm25_k1 must be >= 0, got {self.bm25_k1}")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ValueError(f"bm25_b must be in [0, 1], got {self.bm25_b}")


@dataclass(frozen=True)
class Hit:
    doc_id: str
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    hits: tuple[Hit, ...]
    gate_open: bool

    def to_dict(self) -> dict:
        return {
            "hits": [[h.doc_id, h.score] for h in self.hits],
            "gate_open": self.gate_open,
        }


class Postings(NamedTuple):
    """Column-major (CSC) postings of an n-gram index.

    Column ``c`` holds the entries ``indptr[c]:indptr[c + 1]`` of ``rows``
    (doc rows, ascending) and ``weights``.  A weight is the document's
    normalized tf-idf weight, or for BM25 its query-independent gain
    ``idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avg))``.
    """

    indptr: np.ndarray   # int64, len(vocabulary) + 1
    rows: np.ndarray     # int32
    weights: np.ndarray  # float64


@dataclass
class ExplanationIndex:
    vocabulary: dict[str, int]      # n-gram -> column, columns in lexicographic n-gram order
    idf: list[float]
    df: list[int]
    doc_vectors: list[dict[int, float]]  # tfidf: L2-normalized weights; bm25: raw counts
    doc_ids: list[str]
    doc_lengths: list[int]
    avg_doc_length: float
    config: IndexConfig
    _postings: Postings | None = field(default=None, init=False, repr=False, compare=False)
    _postings_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def postings(self) -> Postings:
        """The postings, built once on first use even when threads race for them."""
        if self._postings is None:
            with self._postings_lock:
                if self._postings is None:
                    self._postings = _build_postings(self)
        return self._postings


def _build_postings(index: ExplanationIndex) -> Postings:
    import numpy as np

    vectors = index.doc_vectors
    n_cols = len(index.vocabulary)
    sizes = [len(vec) for vec in vectors]
    n_entries = sum(sizes)
    cols = np.fromiter(chain.from_iterable(vectors), dtype=np.int32, count=n_entries)
    if n_entries and (cols.min() < 0 or cols.max() >= n_cols):
        raise RetrievalError("index has doc vector columns outside its vocabulary")
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
    del cols
    rows = np.repeat(np.arange(len(vectors), dtype=np.int32), sizes)[order]
    weights = np.fromiter(
        chain.from_iterable(vec.values() for vec in vectors),
        dtype=np.float64,
        count=n_entries,
    )[order]
    del order
    if index.config.ranking == "bm25":
        weights = _bm25_gains(index, np.diff(indptr), rows, weights)
    return Postings(indptr, rows, weights)


def _bm25_gains(
    index: ExplanationIndex, col_sizes: np.ndarray, rows: np.ndarray, tf: np.ndarray
) -> np.ndarray:
    """Okapi gain of each posting, with the operations in the formula's order."""
    import numpy as np

    n_docs = len(index.doc_ids)
    k1, b = index.config.bm25_k1, index.config.bm25_b
    avg = index.avg_doc_length or 1.0
    idf = np.array([math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5)) for d in index.df])
    idf = np.repeat(idf, col_sizes)
    dl = np.asarray(index.doc_lengths, dtype=np.float64)[rows]
    return idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avg))


def ngram_counts(text: str, config: IndexConfig) -> Counter:
    """Raw n-gram counts of a text under the index's segmenter and n-gram range."""
    tokens = [t.text for t in segment(text, config.segmenter)]
    counts: Counter = Counter()
    for n in range(config.ngram_min, config.ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            counts[NGRAM_JOIN.join(tokens[i : i + n])] += 1
    return counts


def _l2_normalize(vec: dict[int, float]) -> dict[int, float]:
    norm = math.sqrt(sum(w * w for w in vec.values()))
    if norm == 0.0:
        return {}
    return {col: w / norm for col, w in vec.items()}


def _field_text(rec, field_name: str) -> str:
    value = rec.explanation if field_name == "explanation" else rec.source
    if not value:
        raise RetrievalError(f"record {rec.id}: missing {field_name}")
    return value


def build_index(
    corpus: Corpus,
    field_name: str = "explanation",
    config: IndexConfig | None = None,
    embedder: Embedder | None = None,
) -> ExplanationIndex:
    """Build an index over one text field of every corpus record."""
    if config is None:
        config = IndexConfig()
    if field_name not in INDEX_FIELDS:
        raise RetrievalError(f"unknown index field {field_name!r}")
    doc_ids = [rec.id for rec in corpus]
    if not doc_ids:
        raise RetrievalError("corpus is empty")
    if len(set(doc_ids)) != len(doc_ids):
        raise RetrievalError("corpus has duplicate record ids")
    texts = [_field_text(rec, field_name) for rec in corpus]

    doc_counts = [ngram_counts(text, config) for text in texts]
    doc_lengths = [sum(c.values()) for c in doc_counts]
    avg_len = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0

    if config.ranking == "embedding":
        if embedder is None:
            raise RetrievalError("embedding ranking requires an embedder")
        vectors = embedder(texts)
        if len(vectors) != len(texts):
            raise RetrievalError(
                f"embedder returned {len(vectors)} vectors for {len(texts)} texts"
            )
        doc_vectors = [
            _l2_normalize({i: float(v) for i, v in enumerate(vec) if v != 0.0})
            for vec in vectors
        ]
        return ExplanationIndex(
            vocabulary={},
            idf=[],
            df=[],
            doc_vectors=doc_vectors,
            doc_ids=doc_ids,
            doc_lengths=doc_lengths,
            avg_doc_length=avg_len,
            config=config,
        )

    df_counter: Counter = Counter()
    for counts in doc_counts:
        df_counter.update(counts.keys())
    vocabulary = {gram: col for col, gram in enumerate(sorted(df_counter))}
    n_docs = len(texts)
    df = [0] * len(vocabulary)
    for gram, col in vocabulary.items():
        df[col] = df_counter[gram]
    idf = [math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df]

    doc_vectors = []
    for counts in doc_counts:
        if config.ranking == "tfidf_cosine":
            vec = {vocabulary[g]: c * idf[vocabulary[g]] for g, c in counts.items()}
            doc_vectors.append(_l2_normalize(vec))
        else:
            doc_vectors.append({vocabulary[g]: float(c) for g, c in counts.items()})
    return ExplanationIndex(
        vocabulary=vocabulary,
        idf=idf,
        df=df,
        doc_vectors=doc_vectors,
        doc_ids=doc_ids,
        doc_lengths=doc_lengths,
        avg_doc_length=avg_len,
        config=config,
    )


def _tfidf_query_vector(index: ExplanationIndex, text: str) -> dict[int, float]:
    counts = ngram_counts(text, index.config)
    vec = {}
    for gram, count in counts.items():
        col = index.vocabulary.get(gram)
        if col is not None:
            vec[col] = count * index.idf[col]
    return _l2_normalize(vec)


def pairwise_similarity(index: ExplanationIndex, text_a: str, text_b: str) -> float:
    """TF-IDF cosine similarity of two texts under this index's idf table, in [0, 1]."""
    if index.config.ranking != "tfidf_cosine":
        raise RetrievalError(
            f"pairwise similarity needs a tfidf_cosine index, got {index.config.ranking!r}"
        )
    va = _tfidf_query_vector(index, text_a)
    vb = _tfidf_query_vector(index, text_b)
    if len(vb) < len(va):
        va, vb = vb, va
    sim = sum(w * vb.get(col, 0.0) for col, w in va.items())
    return min(1.0, max(0.0, sim))


def _postings_scores(
    index: ExplanationIndex, text: str, keep: int
) -> Iterable[tuple[int, float]]:
    """(row, score) of the documents that can rank in the top ``keep``.

    A score is the sum over the query's columns, in query order, of query
    weight times posting weight: normalized tf-idf weights (clamped to 1)
    for cosine, raw query counts times the stored gains for BM25.
    ``bincount`` adds each document's terms in that same order, so scores
    equal those of a plain per-posting loop to the last bit.  Only positive
    scores at or above the ``keep``-th largest are returned, so every
    document tied with it stays for the tie-break by id.
    """
    if index.config.ranking == "tfidf_cosine":
        query_weights = _tfidf_query_vector(index, text)
    else:
        counts = ngram_counts(text, index.config)
        query_weights = {
            index.vocabulary[g]: c for g, c in counts.items() if g in index.vocabulary
        }
    if not query_weights:
        return ()
    import numpy as np

    post = index.postings()
    cols = np.fromiter(query_weights, dtype=np.int64, count=len(query_weights))
    spans = list(zip(post.indptr[cols].tolist(), post.indptr[cols + 1].tolist()))
    rows = np.concatenate([post.rows[start:end] for start, end in spans])
    weights = np.concatenate(
        [post.weights[start:end] * w for (start, end), w in zip(spans, query_weights.values())]
    )
    scores = np.bincount(rows, weights=weights, minlength=len(index.doc_ids))
    if index.config.ranking == "tfidf_cosine":
        np.minimum(scores, 1.0, out=scores)
    hit_rows = np.flatnonzero(scores > 0.0)
    if len(hit_rows) > keep:
        hit_scores = scores[hit_rows]
        cut = len(hit_scores) - keep
        hit_rows = hit_rows[hit_scores >= np.partition(hit_scores, cut)[cut]]
    return zip(hit_rows.tolist(), scores[hit_rows].tolist())


def gate_open(ranking: str, hits: Sequence[Hit], theta: float) -> bool:
    """The theta gate over ranked hits.

    Cosine rankings open when the best score reaches theta; BM25 scores are
    not bounded by 1, so its gate opens whenever any hit exists.
    """
    if ranking == "bm25":
        return bool(hits)
    return bool(hits) and hits[0].score >= theta


def query(
    index: ExplanationIndex,
    text: str,
    k: int,
    theta: float,
    exclude_ids: Iterable[str] = (),
    embedder: Embedder | None = None,
) -> RetrievalResult:
    """Top-k positive-score hits for a query text, plus the theta gate decision."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not index.doc_ids:
        raise RetrievalError("empty index")
    excluded = frozenset(exclude_ids)

    if index.config.ranking != "embedding":
        # Excluded ids may hold up to len(excluded) of the top places.
        scored = _postings_scores(index, text, k + len(excluded))
    else:
        if embedder is None:
            raise RetrievalError("embedding ranking requires an embedder")
        qvec = _l2_normalize(
            {i: float(v) for i, v in enumerate(embedder([text])[0]) if v != 0.0}
        )
        scores = {}
        for doc_idx, dvec in enumerate(index.doc_vectors):
            small, big = (qvec, dvec) if len(qvec) <= len(dvec) else (dvec, qvec)
            sim = sum(w * big.get(col, 0.0) for col, w in small.items())
            if sim != 0.0:
                scores[doc_idx] = sim
        scored = scores.items()

    best = heapq.nsmallest(
        k,
        (
            (-score, index.doc_ids[doc_idx])
            for doc_idx, score in scored
            if score > 0.0 and index.doc_ids[doc_idx] not in excluded
        ),
    )
    hits = tuple(Hit(doc_id, -neg_score) for neg_score, doc_id in best)
    return RetrievalResult(hits=hits, gate_open=gate_open(index.config.ranking, hits, theta))


def _segmenter_to_dict(cfg: SegmenterConfig) -> dict:
    return {
        "mode": cfg.mode,
        "external_command": cfg.external_command,
        "external_timeout": cfg.external_timeout,
    }


def dumps_index(index: ExplanationIndex) -> bytes:
    """Serialize to the versioned text format; byte-deterministic for equal contents."""
    cfg = index.config
    columns = sorted(index.vocabulary, key=index.vocabulary.get)
    lines = [
        INDEX_MAGIC,
        _dumps_section(
            {
                "section": "config",
                "ngram_min": cfg.ngram_min,
                "ngram_max": cfg.ngram_max,
                "ranking": cfg.ranking,
                "bm25_k1": cfg.bm25_k1,
                "bm25_b": cfg.bm25_b,
                "segmenter": _segmenter_to_dict(cfg.segmenter),
            }
        ),
        _dumps_section({"section": "vocabulary", "ngrams": columns}),
        _dumps_section({"section": "idf", "values": index.idf, "df": index.df}),
        _dumps_section(
            {
                "section": "doc_vectors",
                "rows": [sorted(vec.items()) for vec in index.doc_vectors],
                "doc_lengths": index.doc_lengths,
                "avg_doc_length": index.avg_doc_length,
            }
        ),
        _dumps_section({"section": "doc_ids", "ids": index.doc_ids}),
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _dumps_section(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def save_index(index: ExplanationIndex, path: str | Path) -> None:
    Path(path).write_bytes(dumps_index(index))


def _read_section(line: str, name: str, line_no: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RetrievalError(f"index line {line_no}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("section") != name:
        raise RetrievalError(f"index line {line_no}: expected {name!r} section")
    return obj


def loads_index(data: bytes) -> ExplanationIndex:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != INDEX_MAGIC:
        raise RetrievalError(
            f"not an index file or unsupported version (expected {INDEX_MAGIC!r} header)"
        )
    if len(lines) < 6:
        raise RetrievalError("truncated index file")
    cfg_obj = _read_section(lines[1], "config", 2)
    seg = cfg_obj.get("segmenter", {})
    try:
        config = IndexConfig(
            ngram_min=cfg_obj["ngram_min"],
            ngram_max=cfg_obj["ngram_max"],
            ranking=cfg_obj["ranking"],
            bm25_k1=cfg_obj["bm25_k1"],
            bm25_b=cfg_obj["bm25_b"],
            segmenter=SegmenterConfig(
                mode=seg["mode"],
                external_command=seg["external_command"],
                external_timeout=seg["external_timeout"],
            ),
        )
    except (KeyError, ValueError) as exc:
        raise RetrievalError(f"bad index config: {exc}") from None
    vocab_obj = _read_section(lines[2], "vocabulary", 3)
    idf_obj = _read_section(lines[3], "idf", 4)
    vec_obj = _read_section(lines[4], "doc_vectors", 5)
    ids_obj = _read_section(lines[5], "doc_ids", 6)
    vocabulary = {gram: col for col, gram in enumerate(vocab_obj["ngrams"])}
    return ExplanationIndex(
        vocabulary=vocabulary,
        idf=[float(v) for v in idf_obj["values"]],
        df=[int(v) for v in idf_obj["df"]],
        doc_vectors=[{int(c): float(w) for c, w in row} for row in vec_obj["rows"]],
        doc_ids=[str(i) for i in ids_obj["ids"]],
        doc_lengths=[int(v) for v in vec_obj["doc_lengths"]],
        avg_doc_length=float(vec_obj["avg_doc_length"]),
        config=config,
    )


def load_index(path: str | Path) -> ExplanationIndex:
    return loads_index(Path(path).read_bytes())
