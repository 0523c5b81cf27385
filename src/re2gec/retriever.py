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

An index stores its documents column-major only, as numpy arrays (one
column per n-gram, or per embedding dimension).  Its build makes no Python
string per n-gram: one ``np.unique`` of the grams' code points gives the
vocabulary, and one sort of every window's (column, position) key gives
the columns.  Every ranking scores by adding the query's columns, one after
another, into one score per document: a column that holds every
document with one ``+=``, any other with ``np.add.at``.  One query scans its
columns at a time, under a module lock; its n-gram lookup or embedder call
runs outside it, so threads still overlap those.  The vocabulary is a numpy
array of the strictly ascending n-grams, fixed-width code points (``<U``)
as wide as the longest gram; a gram's column is its position, and a query
finds all its grams' columns with one ``searchsorted``.  numpy compares
such strings as if padded with U+0000, so indexed text may not hold that
character.  numpy is imported only by index build, load and query, so
commands that never touch an index do not load it.

``save_index``/``load_index`` use the binary ``RE2IDX 4`` format: the magic
line, a table of section lengths, one JSON header, and the three column
arrays and the vocabulary as raw little-endian blocks.  Every stored weight
is the number a query weight multiplies: the normalized tf-idf weight, the
normalized embedding value or the BM25 gain, which the build computes from
the raw counts.  Its bytes are a deterministic function of the index
contents.  A loaded index holds the header's doc id list, and numpy views
into the file bytes for every block: no per-gram or per-posting Python
object is made.  Load derives each column's document frequency from
``indptr`` and, for n-gram indexes, the tf-idf idf from that.

The header's ``corpus_sha256`` hashes the compact JSON list of the indexed
``[id, text]`` pairs; ``check_corpus`` recomputes it to reject a corpus the
index was not built over.  Both feed sha256 one pair at a time and never
build that list, so the check's memory does not grow with the corpus.
"""

from __future__ import annotations

import heapq
import json
import math
import struct
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_quoted
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .corpus import Corpus
from .errors import RetrievalError, decode_json, encode_text, replace_file
from .segmentation import SegmenterConfig, segment

if TYPE_CHECKING:
    import numpy as np

INDEX_MAGIC = "RE2IDX 4"
RANKINGS = ("tfidf_cosine", "bm25", "embedding")
INDEX_FIELDS = ("explanation", "source")

# Joining n-gram member tokens with U+001F keeps multi-token grams unambiguous.
NGRAM_JOIN = "\x1f"
# The most code points an n-gram may have: every vocabulary row is as wide as
# the longest gram, so one long token would widen them all.
MAX_GRAM_WIDTH = 64

Embedder = Callable[[Sequence[str]], "list[list[float]]"]

_MAGIC_LINE = (INDEX_MAGIC + "\n").encode("ascii")
# The raw blocks after the header, in file order: the 8-byte ones first, so
# that every block starts at a multiple of its item size.  The vocabulary's
# rows are 4-byte code points, as many per row as the longest gram has.
_BLOCKS = (("indptr", "<i8"), ("weights", "<f8"), ("rows", "<i4"), ("vocabulary", "<U"))
# Byte lengths of the header and of each block.
_LENGTHS = struct.Struct(f"<{1 + len(_BLOCKS)}Q")
# One query's column scan at a time (``_postings_scores``).
_SCAN_LOCK = threading.Lock()


@dataclass(frozen=True)
class IndexConfig:
    ngram_min: int = 2
    ngram_max: int = 3
    ranking: str = "tfidf_cosine"
    bm25_k1: float = 1.5
    bm25_b: float = 0.75
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)

    def __post_init__(self):
        # An index header's config comes from JSON, which may give any value.
        if not (type(self.ngram_min) is int and type(self.ngram_max) is int):
            got = f"({self.ngram_min!r}, {self.ngram_max!r})"
            raise ValueError(f"ngram_min and ngram_max must be ints, got {got}")
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise ValueError(
                f"need 1 <= ngram_min <= ngram_max, got ({self.ngram_min}, {self.ngram_max})"
            )
        if self.ranking not in RANKINGS:
            raise ValueError(f"unknown ranking {self.ranking!r}")
        if not 0.0 <= self.bm25_k1 < math.inf:
            raise ValueError(f"bm25_k1 must be >= 0 and finite, got {self.bm25_k1}")
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
    """Column-major (CSC) document weights.

    Column ``c`` holds the entries ``indptr[c]:indptr[c + 1]`` of ``rows``
    (doc rows, ascending) and ``weights``: the normalized tf-idf weight, the
    normalized embedding value, or the query-independent BM25 gain
    ``idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avg))``.  A
    query reads its columns as slices of these arrays, one column at a
    time (``_postings_scores``), and copies none of them.
    """

    indptr: np.ndarray   # int64, number of columns + 1
    rows: np.ndarray     # int32
    weights: np.ndarray  # float64


@dataclass(eq=False)
class ExplanationIndex:
    vocabulary: np.ndarray      # <U: strictly ascending n-grams by column; empty for embeddings
    idf: np.ndarray             # float64, tf-idf idf per column; empty for embeddings
    columns: Postings           # the documents; one column per n-gram or embedding dimension
    doc_ids: list[str]
    config: IndexConfig
    field_name: str             # the indexed record field
    corpus_sha256: str          # _corpus_sha256() of the indexed (id, text) pairs

    @property
    def dim(self) -> int:
        """Number of columns: the vocabulary size or the embedding dimension."""
        return len(self.columns.indptr) - 1

    def postings(self) -> Postings:
        """The query postings: the stored columns."""
        return self.columns


def ngram_counts(text: str, config: IndexConfig) -> Counter:
    """Raw n-gram counts of a text under the index's segmenter and n-gram range."""
    seg = config.segmenter
    tokens = text if seg.mode == "character" else [t.text for t in segment(text, seg)]
    counts: Counter = Counter()
    # A window longer than the text holds no gram.
    for n in range(config.ngram_min, min(config.ngram_max, len(tokens)) + 1):
        counts.update(map(NGRAM_JOIN.join, zip(*(tokens[k:] for k in range(n)))))
    return counts


def _token_ids(
    texts: Sequence[str], seg: SegmenterConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Every document's tokens in one code-point array, ranked among the distinct tokens.

    Returns the code points (uint32) of all tokens joined by ``NGRAM_JOIN``,
    where tokens ``p .. p+n-1`` join to ``codes[bounds[p] : bounds[p + n] - 1]``;
    the bounds (int64, one more than the tokens); each token's rank (int32);
    the number of distinct tokens; and the tokens per document.
    ``retriever.segment`` makes the tokens of the other modes.
    """
    import numpy as np

    if seg.mode == "character":
        codes = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
        seen = np.zeros(int(codes.max(initial=0)) + 1, dtype=bool)
        seen[codes] = True
        rank_of = np.cumsum(seen, dtype=np.int32) - 1  # code point -> rank, for those seen
        spaced = np.full(max(2 * len(codes) - 1, 0), ord(NGRAM_JOIN), dtype=np.uint32)
        spaced[::2] = codes
        bounds = np.arange(0, 2 * len(codes) + 1, 2)
        return spaced, bounds, rank_of[codes], int(seen.sum()), np.array(list(map(len, texts)))
    docs = [[t.text for t in segment(text, seg)] for text in texts]
    tokens = list(chain.from_iterable(docs))
    bounds = np.zeros(len(tokens) + 1, dtype=np.int64)
    np.cumsum([len(t) + 1 for t in tokens], out=bounds[1:])
    distinct = sorted(set(tokens))
    rank = dict(zip(distinct, range(len(distinct))))
    ranks = np.fromiter(map(rank.__getitem__, tokens), dtype=np.int32, count=len(tokens))
    codes = np.frombuffer(NGRAM_JOIN.join(tokens).encode("utf-32-le"), dtype=np.uint32)
    return codes, bounds, ranks, len(distinct), np.array(list(map(len, docs)))


def _ranks(values: np.ndarray, bound: int) -> tuple[int, np.ndarray]:
    """The number of distinct int64 ``values``, each in ``[0, bound)``, and each one's rank.

    One sort of packed (value, position) keys where they fit in int64, else ``np.unique``.
    """
    import numpy as np

    shift = len(values).bit_length()
    if bound << shift > 1 << 63:
        distinct, inverse = np.unique(values, return_inverse=True)
        return len(distinct), inverse
    keys = np.sort(values << shift | np.arange(len(values)))
    new = np.diff(keys >> shift, prepend=-1) != 0
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[keys & ((1 << shift) - 1)] = np.cumsum(new) - 1
    return int(new.sum()), ranks


def _gram_slots(
    texts: Sequence[str], config: IndexConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every length-n window's gram id, for n in the index's range, and each gram's code points.

    The id of a length-n window is its rank among the distinct (id of its
    (n-1)-prefix, last token) pairs, so each length's ids follow the order of
    the token tuples; ids run one length after another.  The window slots
    run document by document, each document's windows by length, then
    position: the order in which ``ngram_counts`` meets them.

    Returns ``_token_ids``'s code points, each gram's joined span in them (start
    and length, int64), each slot's gram id (int32) and the windows per document.
    """
    import numpy as np

    codes, bounds, tokens, n_tokens, lengths = _token_ids(texts, config.segmenter)
    nmin, nmax = config.ngram_min, min(config.ngram_max, int(lengths.max(initial=0)))
    # windows[d, n - nmin]: document d's length-n windows; their slots start at starts[d, n - nmin].
    windows = np.maximum(lengths[:, None] - np.arange(nmin - 1, nmax), 0)
    starts = (np.cumsum(windows) - windows.ravel()).reshape(windows.shape)
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int32), lengths)
    offset = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    rest = np.repeat(lengths, lengths) - offset  # tokens from each position to its document's end
    ids, slot_grams = tokens.copy(), np.empty(windows.sum(), dtype=np.int32)
    spans, n_ids, n_grams = [np.zeros((2, 0), dtype=np.int64)], 0, n_tokens
    for n in range(1, nmax + 1):
        pos = np.flatnonzero(rest >= n)
        if n > 1:
            pairs = ids[pos].astype(np.int64) * n_tokens + tokens[pos + n - 1]
            n_grams, ids[pos] = _ranks(pairs, n_grams * n_tokens)
        if n >= nmin:
            grams = ids[pos]
            slot_grams[starts[doc_of[pos], n - nmin] + offset[pos]] = grams + n_ids
            at = np.empty(n_grams, dtype=np.int64)
            at[grams] = pos  # any one occurrence of each gram
            spans.append(bounds[np.array([at, at + n])])
            n_ids += n_grams
    begin, end = np.concatenate(spans, axis=1)
    return codes, begin, end - 1 - begin, slot_grams, windows.sum(axis=1)


def _ngram_entries(
    doc_ids: Sequence[str], texts: Sequence[str], config: IndexConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The vocabulary and every (column, document) entry, column by column with rows ascending.

    The grams' code points, zero-padded to the longest gram's width (checked
    first), form one ``<U`` block; one ``np.unique`` of it gives the sorted
    vocabulary and each gram's column.  numpy orders these strings as Python
    does, as indexed text holds no U+0000, and equal strings of different
    lengths share a column.  One sort of (column, slot) keys then makes each
    (column, document) run an entry: its first slot, and its length the count.

    Returns the vocabulary, each entry's column, row (int32), count (float64)
    and first slot, and the windows per document (int64).
    """
    import numpy as np

    codes, begin, widths, slot_grams, doc_lengths = _gram_slots(texts, config)
    width = int(widths.max(initial=1))
    if width > MAX_GRAM_WIDTH:
        doc_id, gram = next(
            (doc_id, gram)
            for doc_id, text in zip(doc_ids, texts)
            for gram in ngram_counts(text, config)
            if len(gram) > MAX_GRAM_WIDTH
        )
        raise RetrievalError(
            f"record {doc_id!r}: the n-gram {gram[:20]!r}... has {len(gram)} characters, "
            f"more than the {MAX_GRAM_WIDTH} an index allows; use shorter tokens or n-grams"
        )
    block = np.zeros((len(begin), width), dtype=np.uint32)
    for j in range(width):  # U+0000 past each gram's end
        block[:, j] = np.where(widths > j, codes[np.minimum(begin + j, len(codes) - 1)], 0)
    vocabulary, column_of = np.unique(block.view(f"<U{width}").ravel(), return_inverse=True)
    cols = column_of[slot_grams]
    slot_docs = np.repeat(np.arange(len(texts), dtype=np.int32), doc_lengths)
    # Sorted unique (column, slot) keys put each (column, document) run in slot order.
    n = len(cols)
    key_cols, slots = np.divmod(np.sort(cols * n + np.arange(n)), max(n, 1))
    runs = np.flatnonzero(np.diff(key_cols, prepend=-1) | np.diff(slot_docs[slots], prepend=-1))
    counts = np.diff(runs, append=n).astype(np.float64)
    first = slots[runs]
    return vocabulary, key_cols[runs], slot_docs[first], counts, first, doc_lengths


def _per_df(df: np.ndarray, term: Callable[[int], float]) -> np.ndarray:
    """``term(d)`` of each column's non-negative df ``d``.

    One call per df value up to the largest: numpy's log need not match
    ``math.log`` to the last bit.
    """
    import numpy as np

    return np.array([term(d) for d in range(int(df.max(initial=-1)) + 1)], dtype=np.float64)[df]


def _idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    """Smoothed idf ``ln((1 + N) / (1 + df)) + 1`` of each column."""
    return _per_df(df, lambda d: math.log((1 + n_docs) / (1 + d)) + 1.0)


def _bm25_gains(columns: Postings, doc_lengths: np.ndarray, config: IndexConfig) -> np.ndarray:
    """Okapi gain of each posting of raw counts, with the operations in the formula's order.

    Its idf is the Lucene-style ``ln(1 + (N - df + 0.5) / (df + 0.5))``.
    """
    import numpy as np

    indptr, rows, tf = columns
    n_docs, k1, b = len(doc_lengths), config.bm25_k1, config.bm25_b
    avg = int(doc_lengths.sum()) / n_docs or 1.0
    df = np.diff(indptr)
    idf = np.repeat(_per_df(df, lambda d: math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5))), df)
    dl = doc_lengths.astype(np.float64)[rows]
    return idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avg))


def _l2_normalize(vec: dict[int, float]) -> dict[int, float]:
    squares = 0.0
    for w in vec.values():  # left to right: from Python 3.12 on, sum() compensates
        squares += w * w
    norm = math.sqrt(squares)
    if norm == 0.0:
        return {}
    return {col: w / norm for col, w in vec.items()}


def _embed(embedder: Embedder | None, texts: Sequence[str]) -> np.ndarray:
    """The embedder's vectors of ``texts`` as a float64 matrix; every defect raises."""
    import numpy as np

    if embedder is None:
        raise RetrievalError("embedding ranking requires an embedder")
    vectors = embedder(texts)
    if len(vectors) != len(texts):
        raise RetrievalError(f"embedder returned {len(vectors)} vectors for {len(texts)} texts")
    if any(len(vec) != len(vectors[0]) for vec in vectors):
        raise RetrievalError("embedder returned vectors of different lengths")
    matrix = np.array(vectors, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if len(bad):
        raise RetrievalError(f"embedder returned a non-finite value for text {bad[0]}")
    return matrix


def _field_text(rec, field_name: str) -> str:
    value = getattr(rec, field_name)
    if not value:
        raise RetrievalError(f"record {rec.id}: missing {field_name}")
    return value


def _check_encodable(doc_ids: Sequence[str], texts: Sequence[str], field_name: str) -> None:
    """Reject the first record whose id or text holds a lone surrogate, or whose text holds U+0000.

    Index files are UTF-8, and the vocabulary block pads its rows with U+0000.
    """
    for doc_id, text in zip(doc_ids, texts):
        for what, value in (("id", doc_id), (field_name, text)):
            encode_text(value, f"record {doc_id!r}: the {what}", RetrievalError)
        if "\0" in text:
            raise RetrievalError(f"record {doc_id!r}: the {field_name} holds U+0000")


def _corpus_sha256(doc_ids: Iterable[str], texts: Iterable[str]) -> str:
    """sha256 of the compact JSON list of ``[id, text]`` pairs, in corpus order.

    The list is never built: sha256 takes it one pair at a time, each string
    escaped as ``json.dumps`` escapes it, so memory does not grow with the corpus.
    """
    import hashlib  # here, not at the top: it loads OpenSSL, which scoring never needs

    digest = hashlib.sha256(b"[")
    sep = ""
    for doc_id, text in zip(doc_ids, texts):
        digest.update(f"{sep}[{_json_quoted(doc_id)},{_json_quoted(text)}]".encode("ascii"))
        sep = ","
    digest.update(b"]")
    return digest.hexdigest()


def check_corpus(index: ExplanationIndex, corpus: Corpus) -> None:
    """Raise unless ``corpus`` holds, in order, the (id, text) pairs the index was built over."""
    ids = (rec.id for rec in corpus)
    texts = (getattr(rec, index.field_name) or "" for rec in corpus)
    if _corpus_sha256(ids, texts) != index.corpus_sha256:
        raise RetrievalError(
            f"index does not match the corpus: it was built over the {index.field_name} "
            "field of other records; rebuild it with build-index"
        )


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
    _check_encodable(doc_ids, texts, field_name)
    provenance = {"field_name": field_name, "corpus_sha256": _corpus_sha256(doc_ids, texts)}

    import numpy as np

    if config.ranking == "embedding":
        matrix = _embed(embedder, texts)
        # Column by column, rows ascending: a row's squares add in column order.
        cols, rows = np.nonzero(matrix.T)
        weights, rows = matrix[rows, cols], rows.astype(np.int32)
        squares_of = np.bincount(rows, weights=weights * weights, minlength=len(texts))
        vocabulary, idf, dim = np.array([], dtype=str), np.zeros(0), matrix.shape[1]
    else:
        vocabulary, cols, rows, weights, first, doc_lengths = _ngram_entries(doc_ids, texts, config)
        # A document holds each gram once, so df counts the gram's entries.
        idf = _idf(np.bincount(cols, minlength=len(vocabulary)), len(texts))
        dim = len(vocabulary)
        if config.ranking == "tfidf_cosine":
            weights *= idf[cols]
            # Squares at first slots, 0.0 at the others: each document's add in ngram_counts order.
            squares = np.zeros(int(doc_lengths.sum()))
            squares[first] = weights * weights
            slot_docs = np.repeat(np.arange(len(texts)), doc_lengths)
            squares_of = np.bincount(slot_docs, weights=squares, minlength=len(texts))
    if config.ranking != "bm25":
        # Scale each row to unit L2 norm; drop a row whose norm underflows to 0.
        norms = np.sqrt(squares_of)[rows]
        keep = norms != 0.0
        if not keep.all():
            cols, rows, weights, norms = cols[keep], rows[keep], weights[keep], norms[keep]
        weights = weights / norms
    indptr = np.append(0, np.cumsum(np.bincount(cols, minlength=dim), dtype=np.int64))
    columns = Postings(indptr, rows, weights)
    if config.ranking == "bm25":
        columns = columns._replace(weights=_bm25_gains(columns, doc_lengths, config))
    return ExplanationIndex(
        vocabulary=vocabulary, idf=idf, columns=columns, doc_ids=doc_ids, config=config,
        **provenance,
    )


def _query_weights(
    index: ExplanationIndex, text: str, embedder: Embedder | None
) -> dict[int, float]:
    """{column: weight} of the query: normalized tf-idf, raw BM25 counts, or embedding.

    The n-gram columns keep ``ngram_counts`` order, the order in which
    scores add.  A gram wider than the vocabulary's rows matches none, and
    leaving it out keeps ``searchsorted`` from widening the whole
    vocabulary; the others keep their own width.  The match is exact
    Python string equality, so a gram ending in U+0000 matches nothing.
    """
    import numpy as np

    ranking, vocab = index.config.ranking, index.vocabulary
    if ranking != "embedding":
        counts = ngram_counts(text, index.config)
        width = vocab.dtype.itemsize // 4 if len(vocab) else 0
        grams = [gram for gram in counts if len(gram) <= width]
        found = {}
        if grams:
            cols = np.minimum(np.searchsorted(vocab, grams), len(vocab) - 1)
            found = {
                col: counts[gram]
                for col, gram, row in zip(cols.tolist(), grams, vocab[cols].tolist())
                if row == gram
            }
        if ranking == "bm25":
            return found
        idf = index.idf[list(found)].tolist()
        return _l2_normalize({col: c * w for (col, c), w in zip(found.items(), idf)})
    (vec,) = _embed(embedder, [text]).tolist()
    if len(vec) != index.dim:
        raise RetrievalError(
            f"embedder returned a {len(vec)}-dimensional vector "
            f"for an index of dimension {index.dim}"
        )
    return _l2_normalize({i: v for i, v in enumerate(vec) if v != 0.0})


def _postings_scores(
    index: ExplanationIndex, query_weights: dict[int, float], keep: int
) -> Iterable[tuple[int, float]]:
    """(row, score) of the documents that can rank in the top ``keep``.

    A score is the sum over the query's columns, in query order, of query
    weight times posting weight (tf-idf cosine is clamped to 1).  Each
    column in turn is added into one score vector that starts at 0.0.  A
    column's rows strictly ascend within ``[0, n)`` (the build makes them so
    and ``loads_index`` checks it), so a column of ``n`` entries is every
    row in order and adds with one ``+=``; any other column adds with
    ``np.add.at``, unbuffered and in order.  Either way each document gets
    the same additions in the same order, so scores equal those of a plain
    per-posting loop to the last bit.  Beside the scores, only one column's
    products are ever allocated, never a copy of all the query's postings.
    Only positive scores at or above the ``keep``-th largest are returned,
    so every document tied with it stays for the tie-break by id.

    The scan holds ``_SCAN_LOCK``: it makes one small numpy call per
    column, and threads that take turns between those calls run slower
    together than one thread alone.  The query weights, and so any
    embedder call, come before the lock.
    """
    if not query_weights:
        return ()
    import numpy as np

    post = index.postings()
    n = len(index.doc_ids)
    cols = np.fromiter(query_weights, dtype=np.int64, count=len(query_weights))
    spans = zip(
        post.indptr[cols].tolist(), post.indptr[cols + 1].tolist(), query_weights.values()
    )
    with _SCAN_LOCK:
        scores = np.zeros(n)
        for start, end, w in spans:
            if end - start == n:
                scores += post.weights[start:end] * w
            else:
                np.add.at(scores, post.rows[start:end], post.weights[start:end] * w)
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
    # Excluded ids may hold up to len(excluded) of the top places.
    scored = _postings_scores(
        index, _query_weights(index, text, embedder), k + len(excluded)
    )
    best = heapq.nsmallest(
        k,
        (
            (-score, index.doc_ids[doc_idx])
            for doc_idx, score in scored
            if index.doc_ids[doc_idx] not in excluded
        ),
    )
    hits = tuple(Hit(doc_id, -neg_score) for neg_score, doc_id in best)
    return RetrievalResult(hits=hits, gate_open=gate_open(index.config.ranking, hits, theta))


def dumps_index(index: ExplanationIndex) -> bytes:
    """Serialize to ``RE2IDX 4``; byte-deterministic for equal contents."""
    import numpy as np

    header = {
        "config": asdict(index.config),
        "corpus_sha256": index.corpus_sha256,
        "dim": index.dim,
        "doc_ids": index.doc_ids,
        "field": index.field_name,
    }
    head = json.dumps(header, ensure_ascii=False, separators=(",", ":"), sort_keys=True)
    head_bytes = head.encode("utf-8")
    # Pad with JSON whitespace so that the blocks start 8-byte aligned.
    head_bytes += b" " * (-(len(_MAGIC_LINE) + _LENGTHS.size + len(head_bytes)) % 8)
    arrays = {**index.columns._asdict(), "vocabulary": index.vocabulary}
    blocks = [np.asarray(arrays[name], dtype=dtype).tobytes() for name, dtype in _BLOCKS]
    lengths = _LENGTHS.pack(len(head_bytes), *map(len, blocks))
    return b"".join([_MAGIC_LINE, lengths, head_bytes, *blocks])


def save_index(index: ExplanationIndex, path: str | Path) -> None:
    replace_file(path, dumps_index(index))


def _is_str_list(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {str}


def _config_from(cls, values: dict, **nested):
    """``cls(**values)`` with ``nested`` replacing fields; ``values`` must name every field."""
    names, given = {f.name for f in fields(cls)}, set(values)
    if given != names:
        raise ValueError(
            f"{cls.__name__} keys: missing {sorted(names - given)}, unknown {sorted(given - names)}"
        )
    return cls(**{**values, **nested})


def _parse_header(raw: bytes) -> dict:
    """The header fields, type-checked; the config as an ``IndexConfig``."""
    header = decode_json(raw, "bad index header", RetrievalError)
    try:
        cfg = header["config"]
        segmenter = _config_from(SegmenterConfig, cfg["segmenter"])
        parsed = {
            "config": _config_from(IndexConfig, cfg, segmenter=segmenter),
            "corpus_sha256": header["corpus_sha256"],
            "dim": header["dim"],
            "doc_ids": header["doc_ids"],
            "field_name": header["field"],
        }
    except (ValueError, KeyError, TypeError) as exc:
        raise RetrievalError(f"bad index header: {exc!r}") from None
    for name, ok in (
        ("corpus_sha256", isinstance(parsed["corpus_sha256"], str)),
        ("dim", type(parsed["dim"]) is int and parsed["dim"] >= 0),
        ("doc_ids", _is_str_list(parsed["doc_ids"])),
        ("field", parsed["field_name"] in INDEX_FIELDS),
    ):
        if not ok:
            raise RetrievalError(f"bad index header: invalid {name!r}")
    return parsed


def loads_index(data: bytes) -> ExplanationIndex:
    """Read an ``RE2IDX 4`` file; every defect raises a one-line ``RetrievalError``."""
    if data[:9] in (b"RE2IDX 1\n", b"RE2IDX 2\n", b"RE2IDX 3\n"):
        raise RetrievalError(
            f"index file has the old {data[:8].decode()} format; rebuild it with build-index"
        )
    if not data.startswith(_MAGIC_LINE):
        raise RetrievalError(
            f"not an index file or unsupported version (expected {INDEX_MAGIC!r} header)"
        )
    start = len(_MAGIC_LINE) + _LENGTHS.size
    if len(data) < start:
        raise RetrievalError("truncated index file")
    head_len, *block_lens = _LENGTHS.unpack_from(data, len(_MAGIC_LINE))
    end = start + head_len + sum(block_lens)
    if len(data) != end:
        if len(data) < end:
            raise RetrievalError("truncated index file")
        raise RetrievalError(f"index file has {len(data) - end} trailing bytes")
    header = _parse_header(data[start : start + head_len])
    doc_ids, dim = header["doc_ids"], header.pop("dim")
    if len(set(doc_ids)) != len(doc_ids):
        raise RetrievalError("index has duplicate doc ids")

    import numpy as np

    offset, blocks = start + head_len, {}
    for (name, dtype), size in zip(_BLOCKS, block_lens):
        blocks[name] = (dtype, offset, size)
        offset += size

    def block(name: str, count: int) -> np.ndarray:
        dtype, at, size = blocks[name]
        if size != count * np.dtype(dtype).itemsize:
            raise RetrievalError(
                f"index block {name!r} has {size} bytes but the header counts give {count} values"
            )
        return np.frombuffer(data, dtype=dtype, count=count, offset=at)

    # The vocabulary's width is its block's bytes per n-gram column.
    embedding = header["config"].ranking == "embedding"
    n_grams = 0 if embedding else dim
    _, at, vocab_bytes = blocks["vocabulary"]
    width = vocab_bytes // (4 * n_grams) if n_grams else 1
    if vocab_bytes != 4 * width * n_grams or not width:
        if embedding:
            raise RetrievalError("embedding index has a vocabulary")
        raise RetrievalError(f"index has {dim} columns but a vocabulary of {vocab_bytes} bytes")
    vocab = np.frombuffer(data, dtype=f"<U{width}", count=n_grams, offset=at)
    indptr = block("indptr", dim + 1)
    df = np.diff(indptr)
    if indptr[0] != 0 or (df < 0).any():
        raise RetrievalError("index indptr is not monotone from 0")
    rows, weights = block("rows", int(indptr[-1])), block("weights", int(indptr[-1]))
    for defect, values, lo, hi in (
        ("doc rows out of range", rows, -1, len(doc_ids)),
        ("non-finite weights", weights, -math.inf, math.inf),
        ("vocabulary values that are not code points", vocab.view("<u4"), -1, 0x110000),
    ):
        # A NaN fails every comparison; min and max need no temporary array.
        if len(values) and not lo < values.min() <= values.max() < hi:
            raise RetrievalError(f"index has {defect}")
    if not (vocab[1:] > vocab[:-1]).all():
        raise RetrievalError("index vocabulary is not sorted or has duplicates")
    idf = np.zeros(0)
    if not embedding:
        # Checked before _idf makes a table as long as the longest column.
        if df.max(initial=0) > len(doc_ids):
            raise RetrievalError("index has a column with more entries than documents")
        idf = _idf(df, len(doc_ids))
    # A repeated row would count its weight twice.  Entry j compares rows j - 1
    # and j, and is excused where a column starts at j.
    ascends = np.ones(len(rows) + 1, dtype=bool)
    np.greater(rows[1:], rows[:-1], out=ascends[1:-1])
    ascends[indptr] = True
    if not ascends.all():
        raise RetrievalError("index has a column whose rows do not strictly ascend")
    return ExplanationIndex(
        vocabulary=vocab, idf=idf, columns=Postings(indptr, rows, weights), **header
    )


def load_index(path: str | Path) -> ExplanationIndex:
    return loads_index(Path(path).read_bytes())
