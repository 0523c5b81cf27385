"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, not from the package
internals: n-grams are tuples of token texts, vectors are plain dicts keyed
by those tuples, ranking is a full scan.  Only the segmentation module is
reused, since token boundaries are part of the shared contract (and are
tested on their own).
"""

from __future__ import annotations

import math

from re2gec.segmentation import SegmenterConfig, segment

CHAR = SegmenterConfig(mode="character")


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
        norm = math.sqrt(sum(w * w for w in vec.values()))
        vectors.append({g: w / norm for g, w in vec.items()} if norm else {})
    return vectors, idf


def query_vector(
    text: str, idf: dict[tuple, float], nmin: int = 2, nmax: int = 3,
    seg: SegmenterConfig = CHAR,
) -> dict[tuple, float]:
    counts = count(ngram_tuples(text, nmin, nmax, seg))
    vec = {g: c * idf[g] for g, c in counts.items() if g in idf}
    norm = math.sqrt(sum(w * w for w in vec.values()))
    return {g: w / norm for g, w in vec.items()} if norm else {}


def cosine(va: dict, vb: dict) -> float:
    return sum(w * vb.get(g, 0.0) for g, w in va.items())


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
