"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, not from the package
internals: n-grams are tuples of token texts, vectors are plain dicts keyed
by those tuples, ranking is a full scan.  Only the segmentation module is
reused, since token boundaries are part of the shared contract (and are
tested on their own).

The last sections instead keep earlier package code, as the
reference that a faster rewrite must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Sequence

from re2gec.corpus import Corpus, Edit
from re2gec.errors import CorpusError, RetrievalError, decode_json, decode_text
from re2gec.retriever import (
    INDEX_FIELDS,
    NGRAM_JOIN,
    Embedder,
    ExplanationIndex,
    IndexConfig,
    Postings,
    _field_text,
)
from re2gec.segmentation import SegmenterConfig, segment

CHAR = SegmenterConfig(mode="character")


def add_in_order(values) -> float:
    """The floats added left to right, as ``sum`` adds them before Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def ngram_tuples(text: str, nmin: int, nmax: int, seg: SegmenterConfig = CHAR) -> list[tuple]:
    tokens = [t.text for t in segment(text, seg)]
    grams = []
    for n in range(nmin, nmax + 1):
        for i in range(len(tokens) - n + 1):
            grams.append(tuple(tokens[i : i + n]))
    return grams


def count(grams: list[tuple]) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for g in grams:
        counts[g] = counts.get(g, 0) + 1
    return counts


def tfidf_vectors(
    texts: list[str], nmin: int = 2, nmax: int = 3, seg: SegmenterConfig = CHAR
) -> tuple[list[dict[tuple, float]], dict[tuple, float]]:
    """Brute-force normalized tf-idf vectors and the idf table."""
    doc_counts = [count(ngram_tuples(t, nmin, nmax, seg)) for t in texts]
    n_docs = len(texts)
    df: dict[tuple, int] = {}
    for counts in doc_counts:
        for g in counts:
            df[g] = df.get(g, 0) + 1
    idf = {g: math.log((1 + n_docs) / (1 + d)) + 1.0 for g, d in df.items()}
    vectors = []
    for counts in doc_counts:
        vec = {g: c * idf[g] for g, c in counts.items()}
        norm = math.sqrt(add_in_order(w * w for w in vec.values()))
        vectors.append({g: w / norm for g, w in vec.items()} if norm else {})
    return vectors, idf


def query_vector(
    text: str, idf: dict[tuple, float], nmin: int = 2, nmax: int = 3,
    seg: SegmenterConfig = CHAR,
) -> dict[tuple, float]:
    counts = count(ngram_tuples(text, nmin, nmax, seg))
    vec = {g: c * idf[g] for g, c in counts.items() if g in idf}
    norm = math.sqrt(add_in_order(w * w for w in vec.values()))
    return {g: w / norm for g, w in vec.items()} if norm else {}


def cosine(va: dict, vb: dict) -> float:
    return add_in_order(w * vb.get(g, 0.0) for g, w in va.items())


def corpus_sha256(doc_ids: Sequence[str], texts: Sequence[str]) -> str:
    """sha256 of the compact JSON list of the corpus's ``[id, text]`` pairs, in order."""
    pairs = [[doc_id, text] for doc_id, text in zip(doc_ids, texts)]
    return hashlib.sha256(json.dumps(pairs, separators=(",", ":")).encode("ascii")).hexdigest()


def doc_vectors(index: ExplanationIndex) -> list[dict[int, float]]:
    """Each document's {column: stored weight}, read back from the index's columns."""
    indptr, rows, weights = (array.tolist() for array in index.columns)
    vectors: list[dict[int, float]] = [{} for _ in index.doc_ids]
    for col in range(len(indptr) - 1):
        for pos in range(indptr[col], indptr[col + 1]):
            vectors[rows[pos]][col] = weights[pos]
    return vectors


def postings_loop_topk(
    index: ExplanationIndex,
    query_weights: dict[int, float],
    k: int,
    exclude: frozenset[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Top k of a plain per-posting loop over the index's stored columns.

    For each query column in order, for each stored (row, weight) of that
    column, the row's score gains weight times the query weight, in Python
    floats; tf-idf cosine is clamped to 1.  Positive scores, desc, ties by id asc.
    """
    indptr, rows, weights = (array.tolist() for array in index.columns)
    scores = [0.0] * len(index.doc_ids)
    for col, w in query_weights.items():
        for pos in range(indptr[col], indptr[col + 1]):
            scores[rows[pos]] += weights[pos] * w
    if index.config.ranking == "tfidf_cosine":
        scores = [min(score, 1.0) for score in scores]
    scored = [
        (doc_id, score)
        for doc_id, score in zip(index.doc_ids, scores)
        if score > 0.0 and doc_id not in exclude
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def full_scan_topk(
    texts: list[str],
    ids: list[str],
    query_text: str,
    k: int,
    exclude: frozenset[str] = frozenset(),
    nmin: int = 2,
    nmax: int = 3,
    seg: SegmenterConfig = CHAR,
) -> list[tuple[str, float]]:
    """Naive full-scan cosine ranking: positive scores, desc, ties by id asc."""
    vectors, idf = tfidf_vectors(texts, nmin, nmax, seg)
    qv = query_vector(query_text, idf, nmin, nmax, seg)
    scored = []
    for doc_id, vec in zip(ids, vectors):
        if doc_id in exclude:
            continue
        sim = cosine(qv, vec)
        if sim > 0.0:
            scored.append((doc_id, sim))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def bm25_topk(
    texts: list[str],
    ids: list[str],
    query_text: str,
    k: int,
    exclude: frozenset[str] = frozenset(),
    k1: float = 1.5,
    b: float = 0.75,
    nmin: int = 2,
    nmax: int = 3,
    seg: SegmenterConfig = CHAR,
) -> list[tuple[str, float]]:
    """Naive full-scan Okapi BM25 with idf ln(1 + (N - df + 0.5) / (df + 0.5)).

    score(d) = sum over query n-grams g of
        qtf(g) * idf(g) * tf(g, d) * (k1 + 1) / (tf(g, d) + k1 * (1 - b + b * |d| / avgdl))
    Positive scores, desc, ties by id asc.
    """
    doc_counts = [count(ngram_tuples(t, nmin, nmax, seg)) for t in texts]
    n_docs = len(texts)
    lengths = [sum(c.values()) for c in doc_counts]
    avgdl = sum(lengths) / n_docs
    df: dict[tuple, int] = {}
    for counts in doc_counts:
        for g in counts:
            df[g] = df.get(g, 0) + 1
    q_counts = count(ngram_tuples(query_text, nmin, nmax, seg))
    scored = []
    for doc_id, counts, dl in zip(ids, doc_counts, lengths):
        if doc_id in exclude:
            continue
        score = 0.0
        for g, qtf in q_counts.items():
            tf = counts.get(g, 0)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n_docs - df[g] + 0.5) / (df[g] + 0.5))
            score += qtf * idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
        if score > 0.0:
            scored.append((doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def lcs_len(a, b) -> int:
    """Plain LCS length over any two sequences."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def lcs_pairs(a, b) -> list[tuple[int, int]]:
    """Matched index pairs of one LCS by the full O(n·m) table, canonical tie-break.

    The traceback matches equal heads at once and, when skipping, consumes
    ``a`` first whenever that keeps the LCS length.
    """
    la, lb = len(a), len(b)
    # L[i][j] = LCS length of a[i:], b[j:]
    length = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        row, nxt = length[i], length[i + 1]
        ai = a[i]
        for j in range(lb - 1, -1, -1):
            if ai == b[j]:
                row[j] = nxt[j + 1] + 1
            else:
                x, y = nxt[j], row[j + 1]
                row[j] = x if x >= y else y
    pairs = []
    i = j = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            # Matching equal heads is always LCS-optimal.
            pairs.append((i, j))
            i += 1
            j += 1
        elif length[i + 1][j] >= length[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


# --- Earlier package code, kept as the reference. ---
# The per-document n-gram loop and dict-based index build that preceded the
# flattened column build in re2gec.retriever, with BM25 counts turned into
# gains by a per-posting loop.


def _to_columns(vectors: list[dict[int, float]], n_cols: int) -> Postings:
    """Column-major form of per-document {column: weight} rows."""
    import numpy as np

    sizes = [len(vec) for vec in vectors]
    n_entries = sum(sizes)
    cols = np.fromiter(chain.from_iterable(vectors), dtype=np.int32, count=n_entries)
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
    return Postings(indptr, rows, weights)


def bm25_gains(
    columns: Postings, doc_lengths: list[int], k1: float, b: float
) -> Postings:
    """The columns with each raw count replaced by its Okapi gain, one posting at a time.

    gain = idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * |d| / avgdl)), with
    idf = ln(1 + (N - df + 0.5) / (df + 0.5)), in that order of operations.
    """
    import numpy as np

    indptr, rows, counts = (array.tolist() for array in columns)
    n_docs = len(doc_lengths)
    avgdl = sum(doc_lengths) / n_docs or 1.0
    gains = []
    for col in range(len(indptr) - 1):
        df = indptr[col + 1] - indptr[col]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for pos in range(indptr[col], indptr[col + 1]):
            tf, dl = counts[pos], doc_lengths[rows[pos]]
            gains.append(idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl)))
    return Postings(columns.indptr, columns.rows, np.array(gains, dtype=np.float64))


def ngram_counts(text: str, config: IndexConfig) -> Counter:
    """Raw n-gram counts of a text under the index's segmenter and n-gram range."""
    tokens = [t.text for t in segment(text, config.segmenter)]
    counts: Counter = Counter()
    for n in range(config.ngram_min, config.ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            counts[NGRAM_JOIN.join(tokens[i : i + n])] += 1
    return counts


def _l2_normalize(vec: dict[int, float]) -> dict[int, float]:
    norm = math.sqrt(add_in_order(w * w for w in vec.values()))
    if norm == 0.0:
        return {}
    return {col: w / norm for col, w in vec.items()}


def _embedding_vector(values: Sequence[float]) -> dict[int, float]:
    return _l2_normalize({i: float(v) for i, v in enumerate(values) if v != 0.0})


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
    provenance = {"field_name": field_name, "corpus_sha256": corpus_sha256(doc_ids, texts)}

    import numpy as np

    if config.ranking == "embedding":
        if embedder is None:
            raise RetrievalError("embedding ranking requires an embedder")
        vectors = embedder(texts)
        if len(vectors) != len(texts):
            raise RetrievalError(
                f"embedder returned {len(vectors)} vectors for {len(texts)} texts"
            )
        dim = len(vectors[0])
        if any(len(vec) != dim for vec in vectors):
            raise RetrievalError("embedder returned vectors of different lengths")
        return ExplanationIndex(
            vocabulary=[],
            idf=np.zeros(0),
            columns=_to_columns([_embedding_vector(vec) for vec in vectors], dim),
            doc_ids=doc_ids,
            config=config,
            **provenance,
        )

    doc_counts = [ngram_counts(text, config) for text in texts]
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
    columns = _to_columns(doc_vectors, len(vocabulary))
    if config.ranking == "bm25":
        doc_lengths = [sum(c.values()) for c in doc_counts]
        columns = bm25_gains(columns, doc_lengths, config.bm25_k1, config.bm25_b)
    return ExplanationIndex(
        vocabulary=list(vocabulary),
        idf=np.array(idf),
        columns=columns,
        doc_ids=doc_ids,
        config=config,
        **provenance,
    )


# The edit extraction that preceded the direct character-mode path in
# re2gec.edit_extract: every mode anchored on matched tokens and trimmed the
# gaps between them.  The O(n·m) ``lcs_pairs`` above stands in for the
# kernel it called, so this route shares no LCS code with the package.

_lcs_pairs = lcs_pairs


def _affixes(a: Sequence[str], b: Sequence[str]) -> tuple[int, int]:
    """Lengths of the common prefix and of the common suffix that does not overlap it."""
    la, lb = len(a), len(b)
    pre = 0
    while pre < la and pre < lb and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while suf < la - pre and suf < lb - pre and a[la - 1 - suf] == b[lb - 1 - suf]:
        suf += 1
    return pre, suf


def _match_pairs(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int]]:
    """LCS match pairs with common prefix/suffix pinned before the kernel runs."""
    la, lb = len(a), len(b)
    pre, suf = _affixes(a, b)
    pairs = [(i, i) for i in range(pre)]
    mid_a, mid_b = a[pre : la - suf], b[pre : lb - suf]
    if mid_a and mid_b:
        pairs.extend((pre + i, pre + j) for i, j in _lcs_pairs(mid_a, mid_b))
    pairs.extend((la - suf + n, lb - suf + n) for n in range(suf))
    return pairs


def _edits_from_alignment(
    source: str,
    target: str,
    pairs: list[tuple[int, int]],
    s_spans: Sequence[tuple[int, int]],
    t_spans: Sequence[tuple[int, int]],
) -> list[Edit]:
    edits = []
    prev_s = prev_t = 0
    anchors = [(s_spans[i], t_spans[j]) for i, j in pairs]
    anchors.append(((len(source), len(source)), (len(target), len(target))))
    for (s_start, s_end), (t_start, t_end) in anchors:
        gap_s = source[prev_s:s_start]
        gap_t = target[prev_t:t_start]
        if gap_s != gap_t:
            # Drop the characters the gap shares on both ends.
            p, q = _affixes(gap_s, gap_t)
            edits.append(Edit(prev_s + p, gap_s[p : len(gap_s) - q], gap_t[p : len(gap_t) - q]))
        prev_s, prev_t = s_end, t_end
    return edits


def extract_edits(source: str, target: str, config: SegmenterConfig) -> list[Edit]:
    """Extract the canonical minimal edit script turning source into target.

    Returns edits sorted ascending by offset with pairwise non-overlapping
    source spans; empty iff source == target.
    """
    if source == target:
        return []
    source_tokens = segment(source, config)
    target_tokens = segment(target, config)
    pairs = _match_pairs(
        [t.text for t in source_tokens], [t.text for t in target_tokens]
    )
    return _edits_from_alignment(
        source,
        target,
        pairs,
        [(t.start, t.end) for t in source_tokens],
        [(t.start, t.end) for t in target_tokens],
    )


def char_level_edits(source: str, target: str) -> list[Edit]:
    """Edit script under forced character segmentation, whatever config a caller uses elsewhere."""
    if source == target:
        return []
    spans_s = [(i, i + 1) for i in range(len(source))]
    spans_t = [(i, i + 1) for i in range(len(target))]
    pairs = _match_pairs(source, target)
    return _edits_from_alignment(source, target, pairs, spans_s, spans_t)


# The corpus reader that preceded the line walk in re2gec.corpus.json_objects:
# it split the whole decoded text into a list of every line first.


def json_objects(path: str | Path) -> list[tuple[int, dict]]:
    """(line number, JSON object) per non-blank line; CorpusError names any other line."""
    where = repr(str(path))
    text = decode_text(Path(path).read_bytes(), where, CorpusError, universal_newlines=True)
    objects = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        obj = decode_json(line, f"line {line_no}: invalid JSON in {where}", CorpusError)
        if not isinstance(obj, dict):
            raise CorpusError(f"line {line_no}: record must be a JSON object")
        objects.append((line_no, obj))
    return objects
