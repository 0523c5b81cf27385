import hashlib
import json
import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from re2gec import retriever
from re2gec.cli import dispatch
from re2gec.corpus import Corpus, SentencePair
from re2gec.errors import RetrievalError
from re2gec.retriever import (
    INDEX_MAGIC,
    NGRAM_JOIN,
    RANKINGS,
    IndexConfig,
    build_index,
    dumps_index,
    load_index,
    loads_index,
    ngram_counts,
    query,
    save_index,
)
from re2gec.segmentation import SegmenterConfig

CFG = IndexConfig()


def gee_record(doc_id: str, explanation: str) -> SentencePair:
    return SentencePair(
        id=doc_id, source=f"原{doc_id}", targets=[f"改{doc_id}"], explanation=explanation
    )


def gee_corpus(texts: dict[str, str]) -> Corpus:
    return Corpus([gee_record(i, t) for i, t in texts.items()])


def to_tuple_vector(index, vec: dict[int, float]) -> dict[tuple, float]:
    by_idx = {idx: g for g, idx in index.vocabulary.items()}
    return {tuple(by_idx[i].split(NGRAM_JOIN)): w for i, w in vec.items()}


TEXTS = {
    "d0": "主谓搭配不当，动词错误",
    "d1": "语序不当，状语位置错误",
    "d2": "成分残缺，缺少宾语",
    "d3": "主谓搭配不当，动词错误",  # duplicate text of d0 on purpose
    "d4": "搭配不当",
}


def test_ngram_counts_matches_oracle():
    for text in TEXTS.values():
        mine = ngram_counts(text, CFG)
        ref = oracles.count(oracles.ngram_tuples(text, 2, 3))
        assert {tuple(k.split(NGRAM_JOIN)): v for k, v in mine.items()} == ref


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="ab \x1f\u3000主谓搭配", max_size=14),
    st.sampled_from(["character", "whitespace"]),
    st.integers(1, 5).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 5))),
)
def test_ngram_counts_equals_oracle_loop(text, mode, ngram_range):
    # Same grams, same counts and the same insertion order, so the index
    # build that flattens them sees the same entry order too.
    cfg = IndexConfig(*ngram_range, segmenter=SegmenterConfig(mode=mode))
    assert list(ngram_counts(text, cfg).items()) == list(oracles.ngram_counts(text, cfg).items())


def test_vocabulary_is_sorted_and_indices_dense():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    grams = list(index.vocabulary)
    assert grams == sorted(grams)
    assert sorted(index.vocabulary.values()) == list(range(len(grams)))


def test_idf_formula_and_df():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    _, oracle_idf = oracles.tfidf_vectors(list(TEXTS.values()))
    n = len(TEXTS)
    for gram, idx in index.vocabulary.items():
        key = tuple(gram.split(NGRAM_JOIN))
        df = index.df[idx]
        assert index.idf[idx] == pytest.approx(math.log((1 + n) / (1 + df)) + 1.0)
        assert index.idf[idx] == pytest.approx(oracle_idf[key], abs=1e-12)


def test_doc_vectors_match_oracle_and_are_unit_norm():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    oracle_vecs, _ = oracles.tfidf_vectors(list(TEXTS.values()))
    for vec, ref in zip(oracles.doc_vectors(index), oracle_vecs):
        norm = math.sqrt(sum(w * w for w in vec.values()))
        assert norm == pytest.approx(1.0, abs=1e-9)
        mine = to_tuple_vector(index, vec)
        assert set(mine) == set(ref)
        for g, w in ref.items():
            assert mine[g] == w


@pytest.mark.parametrize("k", [1, 3, 5])
def test_query_matches_full_scan_oracle(k):
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    queries = list(TEXTS.values()) + ["搭配不当，位置错误", "缺少宾语中心语", "毫无交集的句子"]
    for q in queries:
        got = query(index, q, k=k, theta=0.0)
        ref = oracles.full_scan_topk(list(TEXTS.values()), list(TEXTS.keys()), q, k)
        assert [h.doc_id for h in got.hits] == [doc_id for doc_id, _ in ref]
        for hit, (_, score) in zip(got.hits, ref):
            assert hit.score == pytest.approx(score, abs=1e-9)


def test_query_exclude_ids_matches_oracle():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    got = query(index, TEXTS["d0"], k=3, theta=0.0, exclude_ids={"d0", "d3"})
    ref = oracles.full_scan_topk(
        list(TEXTS.values()), list(TEXTS.keys()), TEXTS["d0"], 3,
        exclude=frozenset({"d0", "d3"}),
    )
    assert [h.doc_id for h in got.hits] == [doc_id for doc_id, _ in ref]
    assert "d0" not in {h.doc_id for h in got.hits}


def test_query_never_returns_zero_scores():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    result = query(index, "毫无交集句子啊", k=5, theta=0.0)
    assert result.hits == ()
    assert result.gate_open is False


def test_duplicate_documents_tie_break_by_id():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    result = query(index, TEXTS["d0"], k=2, theta=0.0)
    assert [h.doc_id for h in result.hits] == ["d0", "d3"]
    assert result.hits[0].score == pytest.approx(result.hits[1].score, abs=1e-12)


def test_gate_uses_best_similarity():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    probe = "搭配不当，位置错误"
    best = query(index, probe, k=3, theta=0.0).hits[0].score
    assert 0.0 < best < 0.99  # partial-overlap probe, never an exact match
    assert query(index, probe, k=3, theta=best - 1e-9).gate_open is True
    assert query(index, probe, k=3, theta=best + 1e-6).gate_open is False


def test_query_validation():
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    with pytest.raises(ValueError, match="k"):
        query(index, "x", k=0, theta=0.5)
    with pytest.raises(ValueError, match="theta"):
        query(index, "x", k=1, theta=1.5)
    with pytest.raises(ValueError, match="theta"):
        query(index, "x", k=1, theta=-0.1)


def test_empty_index_rejected():
    with pytest.raises(RetrievalError, match="empty"):
        build_index(Corpus([]), "explanation", CFG)


def test_missing_field_names_record():
    recs = [gee_record("a", "有解释"), SentencePair(id="b", source="原", targets=["改"])]
    with pytest.raises(RetrievalError, match="record b: missing explanation"):
        build_index(Corpus(recs), "explanation", CFG)


def test_source_field_indexing():
    corpus = Corpus([SentencePair(id=i, source=t, targets=["改"]) for i, t in TEXTS.items()])
    index = build_index(corpus, "source", CFG)
    result = query(index, TEXTS["d2"], k=1, theta=0.0)
    assert result.hits[0].doc_id == "d2"
    assert result.hits[0].score == pytest.approx(1.0, abs=1e-9)


def test_index_config_validation():
    with pytest.raises(ValueError):
        IndexConfig(ngram_min=0)
    with pytest.raises(ValueError):
        IndexConfig(ngram_min=3, ngram_max=2)
    with pytest.raises(ValueError):
        IndexConfig(ranking="pagerank")
    with pytest.raises(ValueError):
        IndexConfig(bm25_k1=-1.0)
    with pytest.raises(ValueError):
        IndexConfig(bm25_b=1.5)


# --- bm25 ---


def test_bm25_scores_match_hand_computation():
    cfg = IndexConfig(ranking="bm25")
    index = build_index(gee_corpus(TEXTS), "explanation", cfg)
    result = query(index, "搭配不当", k=5, theta=0.0)
    assert result.gate_open is True

    # independent computation straight from the okapi formula
    doc_counts = [
        oracles.count(oracles.ngram_tuples(t, 2, 3)) for t in TEXTS.values()
    ]
    n = len(doc_counts)
    lengths = [sum(c.values()) for c in doc_counts]
    avg = sum(lengths) / n
    q_counts = oracles.count(oracles.ngram_tuples("搭配不当", 2, 3))
    expected = {}
    for doc_id, counts, dl in zip(TEXTS, doc_counts, lengths):
        score = 0.0
        for g, qtf in q_counts.items():
            df = sum(1 for c in doc_counts if g in c)
            tf = counts.get(g, 0)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score += qtf * idf * (tf * 2.5) / (tf + 1.5 * (0.25 + 0.75 * dl / avg))
        if score > 0.0:
            expected[doc_id] = score
    got = {h.doc_id: h.score for h in result.hits}
    assert set(got) == set(expected)
    for doc_id, score in expected.items():
        assert got[doc_id] == pytest.approx(score, abs=1e-9)


def test_bm25_gate_open_iff_any_hit():
    cfg = IndexConfig(ranking="bm25")
    index = build_index(gee_corpus(TEXTS), "explanation", cfg)
    assert query(index, "搭配不当", k=3, theta=0.9).gate_open is True
    miss = query(index, "毫无交集句子", k=3, theta=0.0)
    assert miss.hits == () and miss.gate_open is False


def test_bm25_idf_always_positive():
    # a gram present in every doc still gets positive idf under the
    # ln(1 + ...) form, so ubiquitous grams cannot flip scores negative
    texts = {f"d{i}": "同文本" for i in range(6)}
    index = build_index(gee_corpus(texts), "explanation", IndexConfig(ranking="bm25"))
    result = query(index, "同文本", k=6, theta=0.0)
    assert len(result.hits) == 6
    assert all(h.score > 0 for h in result.hits)
    assert [h.doc_id for h in result.hits] == sorted(texts)


# --- embedding ---


def fake_embedder(texts):
    table = {
        "主谓搭配不当，动词错误": [1.0, 0.0, 0.0],
        "语序不当，状语位置错误": [0.0, 2.0, 0.0],
        "成分残缺，缺少宾语": [0.0, 0.0, 1.0],
        "接近第一篇": [0.9, 0.1, 0.0],
    }
    return [table[t] for t in texts]


def test_embedding_ranking_uses_normalized_cosine():
    texts = {
        "d0": "主谓搭配不当，动词错误",
        "d1": "语序不当，状语位置错误",
        "d2": "成分残缺，缺少宾语",
    }
    cfg = IndexConfig(ranking="embedding")
    index = build_index(gee_corpus(texts), "explanation", cfg, embedder=fake_embedder)
    for vec in oracles.doc_vectors(index):
        norm = math.sqrt(sum(w * w for w in vec.values()))
        assert norm == pytest.approx(1.0, abs=1e-9)
    result = query(index, "接近第一篇", k=2, theta=0.6, embedder=fake_embedder)
    assert [h.doc_id for h in result.hits] == ["d0", "d1"]
    expect = 0.9 / math.sqrt(0.81 + 0.01)
    assert result.hits[0].score == pytest.approx(expect, abs=1e-9)
    assert result.gate_open is True


def test_embedding_requires_embedder():
    cfg = IndexConfig(ranking="embedding")
    with pytest.raises(RetrievalError, match="embedder"):
        build_index(gee_corpus(TEXTS), "explanation", cfg)
    index = build_index(
        gee_corpus({"d0": "主谓搭配不当，动词错误"}), "explanation", cfg,
        embedder=fake_embedder,
    )
    with pytest.raises(RetrievalError, match="embedder"):
        query(index, "接近第一篇", k=1, theta=0.0)


def test_embedding_index_records_dimension(monkeypatch):
    texts = {"d0": "主谓搭配不当，动词错误", "d1": "语序不当，状语位置错误"}
    cfg = IndexConfig(ranking="embedding")

    def no_ngrams(text, config):
        raise AssertionError("embedding indexes count no n-grams")

    monkeypatch.setattr(retriever, "ngram_counts", no_ngrams)
    index = loads_index(
        dumps_index(build_index(gee_corpus(texts), "explanation", cfg, embedder=fake_embedder))
    )
    assert index.dim == 3
    assert index.doc_lengths == []
    short = lambda batch: [vec[:2] for vec in fake_embedder(batch)]
    with pytest.raises(RetrievalError, match="2-dimensional vector for an index of dimension 3"):
        query(index, "接近第一篇", k=1, theta=0.0, embedder=short)
    ragged = lambda batch: [[1.0] * (i + 1) for i in range(len(batch))]
    with pytest.raises(RetrievalError, match="different lengths"):
        build_index(gee_corpus(texts), "explanation", cfg, embedder=ragged)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_embeddings_are_rejected(bad):
    texts = {"d0": "主谓搭配不当，动词错误", "d1": "语序不当，状语位置错误"}
    cfg = IndexConfig(ranking="embedding")

    def poisoned(batch):
        vectors = fake_embedder(batch)
        vectors[-1][1] = bad
        return vectors

    with pytest.raises(RetrievalError, match="non-finite value for text 1$"):
        build_index(gee_corpus(texts), "explanation", cfg, embedder=poisoned)
    index = build_index(gee_corpus(texts), "explanation", cfg, embedder=fake_embedder)
    with pytest.raises(RetrievalError, match="non-finite value for text 0$"):
        query(index, "接近第一篇", k=1, theta=0.0, embedder=poisoned)


# --- persistence ---


def test_save_load_round_trip(tmp_path):
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    path = tmp_path / "toy.re2idx"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.vocabulary == index.vocabulary
    assert loaded.idf == index.idf
    assert loaded.df == index.df
    assert loaded.doc_ids == index.doc_ids
    assert oracles.doc_vectors(loaded) == oracles.doc_vectors(index)
    assert loaded.config == index.config
    got = query(loaded, "搭配不当，位置错误", k=3, theta=0.0)
    want = query(index, "搭配不当，位置错误", k=3, theta=0.0)
    assert got == want


def test_bm25_round_trip_keeps_lengths(tmp_path):
    cfg = IndexConfig(ranking="bm25", ngram_min=1, ngram_max=2)
    index = build_index(gee_corpus(TEXTS), "explanation", cfg)
    loaded = loads_index(dumps_index(index))
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.avg_doc_length == pytest.approx(index.avg_doc_length)
    assert loaded.config == cfg
    assert dumps_index(loaded) == dumps_index(index)


def test_serialization_is_byte_deterministic():
    blob_a = dumps_index(build_index(gee_corpus(TEXTS), "explanation", CFG))
    blob_b = dumps_index(build_index(gee_corpus(TEXTS), "explanation", CFG))
    assert blob_a == blob_b
    assert dumps_index(loads_index(blob_a)) == blob_a
    assert blob_a.startswith(INDEX_MAGIC.encode("utf-8"))


def test_loads_rejects_wrong_magic():
    with pytest.raises(RetrievalError, match="not an index file or unsupported version"):
        loads_index(b"RE2IDX 9\n{}\n{}\n{}\n{}\n{}\n")
    with pytest.raises(RetrievalError, match="not an index file or unsupported version"):
        loads_index(b"just some text")


def test_loads_rejects_truncated_payload():
    blob = dumps_index(build_index(gee_corpus(TEXTS), "explanation", CFG))
    truncated = blob[: len(blob) // 2]
    with pytest.raises(RetrievalError):
        loads_index(truncated)


def _parts(blob: bytes) -> tuple[dict, dict]:
    """The JSON header and the writable blocks of an ``RE2IDX 2`` blob."""
    head_len, *block_lens = retriever._LENGTHS.unpack_from(blob, len(retriever._MAGIC_LINE))
    offset = len(retriever._MAGIC_LINE) + retriever._LENGTHS.size
    header = json.loads(blob[offset : offset + head_len])
    offset += head_len
    blocks = {}
    for (name, dtype), size in zip(retriever._BLOCKS, block_lens):
        count = size // np.dtype(dtype).itemsize
        blocks[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).copy()
        offset += size
    return header, blocks


def _assemble(header: dict | bytes, blocks: dict) -> bytes:
    head = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    raw = [blocks[name].astype(dtype).tobytes() for name, dtype in retriever._BLOCKS]
    lengths = retriever._LENGTHS.pack(len(head), *map(len, raw))
    return retriever._MAGIC_LINE + lengths + head + b"".join(raw)


def _corrupted(case: str) -> bytes:
    """A toy index blob with one defect."""
    blob = dumps_index(build_index(gee_corpus(TEXTS), "explanation", CFG))
    if case == "bad magic":
        return b"RE2IDX 9" + blob[len(INDEX_MAGIC):]
    if case == "old format":
        return b'RE2IDX 1\n{"section":"config"}\n'
    if case == "truncated":
        return blob[:-1]
    if case == "trailing bytes":
        return blob + b"\0"
    header, blocks = _parts(blob)
    vocab, ids, indptr = header["vocabulary"], header["doc_ids"], blocks["indptr"]
    if case == "bad header":
        return _assemble(b"{", blocks)
    if case == "block length":
        blocks["idf"] = blocks["idf"][:-1]
    elif case == "non-monotone indptr":
        indptr[1] = indptr[-1]
    elif case == "row out of range":
        blocks["rows"][0] = len(ids)
    elif case == "column out of range":
        header["dim"] += 1
        blocks["indptr"] = np.append(indptr, indptr[-1])
    elif case == "negative df":
        blocks["df"][0] = -1
    elif case == "NaN weight":
        blocks["weights"][0] = np.nan
    elif case == "infinite idf":
        blocks["idf"][0] = np.inf
    elif case == "negative doc length":
        blocks["doc_lengths"][0] = -1000
    elif case == "NaN avg_doc_length":
        header["avg_doc_length"] = math.nan
    elif case == "infinite avg_doc_length":
        header["avg_doc_length"] = math.inf
    elif case == "negative avg_doc_length":
        header["avg_doc_length"] = -1.0
    elif case == "unsorted vocabulary":
        vocab[0], vocab[1] = vocab[1], vocab[0]
    elif case == "duplicate vocabulary":
        vocab[1] = vocab[0]
    elif case == "duplicate doc ids":
        ids[1] = ids[0]
    elif case == "config key missing":
        del header["config"]["bm25_b"]
    elif case == "config key unknown":
        header["config"]["segmenter"]["surprise"] = 1
    elif case != "intact":
        raise AssertionError(case)
    return _assemble(header, blocks)


def test_reassembled_blob_loads():
    # The corruption cases below differ from this one only by their defect.
    index = loads_index(_corrupted("intact"))
    want = build_index(gee_corpus(TEXTS), "explanation", CFG)
    assert query(index, TEXTS["d1"], k=3, theta=0.0) == query(want, TEXTS["d1"], k=3, theta=0.0)


@pytest.mark.parametrize(
    "case, message",
    [
        ("bad magic", "not an index file or unsupported version"),
        ("old format", "old RE2IDX 1 format; rebuild it with build-index"),
        ("truncated", "truncated index file"),
        ("trailing bytes", "1 trailing bytes"),
        ("bad header", "bad index header"),
        ("block length", "block 'idf' has .* bytes but the header counts give"),
        ("non-monotone indptr", "indptr is not monotone"),
        ("row out of range", "doc rows out of range"),
        ("column out of range", "columns but a vocabulary of"),
        ("negative df", "negative document frequencies"),
        ("NaN weight", "non-finite weights"),
        ("infinite idf", "non-finite idf values"),
        ("negative doc length", "negative doc lengths"),
        ("NaN avg_doc_length", "invalid 'avg_doc_length'"),
        ("infinite avg_doc_length", "invalid 'avg_doc_length'"),
        ("negative avg_doc_length", "invalid 'avg_doc_length'"),
        ("unsorted vocabulary", "vocabulary is not sorted"),
        ("duplicate vocabulary", "has duplicates"),
        ("duplicate doc ids", "duplicate doc ids"),
        ("config key missing", r"bad index header: .*missing \['bm25_b'\]"),
        ("config key unknown", r"bad index header: .*unknown \['surprise'\]"),
    ],
)
def test_corrupt_index_is_a_one_line_error(case, message, tmp_path, capsys):
    blob = _corrupted(case)
    with pytest.raises(RetrievalError, match=message):
        loads_index(blob)
    path = tmp_path / "bad.re2idx"
    path.write_bytes(blob)
    code = dispatch(["query", "--index", str(path), "--text", TEXTS["d0"]])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_build_rejects_duplicate_ids():
    recs = [gee_record("a", "文本一二三"), gee_record("a", "文本四五六")]
    with pytest.raises(RetrievalError, match="duplicate"):
        build_index(Corpus(recs), "explanation", CFG)


# --- postings scoring ---


@st.composite
def _retrieval_cases(draw, alphabet="abcd", ngram_ranges=((1, 2), (2, 3))):
    """A small corpus with duplicate texts, ids not in row order, and a query."""
    words = st.text(alphabet=alphabet, min_size=1, max_size=8)
    pool = draw(st.lists(words, min_size=1, max_size=4))
    texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    texts.append(texts[0])
    ids = draw(st.permutations([f"d{i:02d}" for i in range(len(texts))]))
    # "xyz" shares no n-gram with any document: no hits, gate closed.
    query_text = draw(st.one_of(words, st.just("xyz")))
    k = draw(st.integers(1, len(texts) + 3))
    exclude = frozenset(draw(st.lists(st.sampled_from([*ids, "missing"]), max_size=3)))
    nmin, nmax = draw(st.sampled_from(ngram_ranges))
    return texts, ids, query_text, k, exclude, nmin, nmax


def _assert_same_ranking(got, want):
    assert [h.doc_id for h in got.hits] == [doc_id for doc_id, _ in want]
    for hit, (_, score) in zip(got.hits, want):
        assert abs(hit.score - score) <= 1e-9
    # theta 0: every ranking opens the gate iff there is a hit.
    assert got.gate_open is bool(want)


@settings(max_examples=150, deadline=None)
@given(_retrieval_cases())
def test_tfidf_query_equals_full_scan_oracle(case):
    texts, ids, query_text, k, exclude, nmin, nmax = case
    cfg = IndexConfig(ngram_min=nmin, ngram_max=nmax)
    index = build_index(gee_corpus(dict(zip(ids, texts))), "explanation", cfg)
    got = query(index, query_text, k=k, theta=0.0, exclude_ids=exclude)
    want = oracles.full_scan_topk(texts, ids, query_text, k, exclude, nmin, nmax)
    _assert_same_ranking(got, want)


@settings(max_examples=150, deadline=None)
@given(_retrieval_cases(), st.sampled_from([0.0, 1.2]), st.sampled_from([0.0, 0.75, 1.0]))
def test_bm25_query_equals_brute_force_oracle(case, k1, b):
    texts, ids, query_text, k, exclude, nmin, nmax = case
    cfg = IndexConfig(ranking="bm25", ngram_min=nmin, ngram_max=nmax, bm25_k1=k1, bm25_b=b)
    index = build_index(gee_corpus(dict(zip(ids, texts))), "explanation", cfg)
    got = query(index, query_text, k=k, theta=0.0, exclude_ids=exclude)
    want = oracles.bm25_topk(texts, ids, query_text, k, exclude, k1, b, nmin, nmax)
    _assert_same_ranking(got, want)


def test_postings_built_once_under_concurrent_queries(monkeypatch):
    index = build_index(gee_corpus(TEXTS), "explanation", CFG)
    builds = []
    real_build = retriever._build_postings

    def slow_build(idx):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # hold the build open while the other threads arrive
        return real_build(idx)

    monkeypatch.setattr(retriever, "_build_postings", slow_build)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    postings = [None] * n_threads
    results = [None] * n_threads

    def worker(i):
        barrier.wait(timeout=10)
        results[i] = query(index, "搭配不当，位置错误", k=3, theta=0.0)
        postings[i] = index.postings()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert all(p is postings[0] for p in postings)
    assert postings[0] is not None
    assert all(r == results[0] and r.hits for r in results)


def _hash_embedder(dim: int):
    """Deterministic small-integer vectors with some zero components."""

    def embed(texts):
        return [
            [float(b % 5 - 2) for b in hashlib.sha256(t.encode("utf-8")).digest()[:dim]]
            for t in texts
        ]

    return embed


@settings(max_examples=60, deadline=None)
@given(_retrieval_cases(), st.sampled_from(RANKINGS), st.integers(1, 6))
def test_dumps_loads_round_trip(case, ranking, dim):
    texts, ids, query_text, k, exclude, nmin, nmax = case
    embedder = _hash_embedder(dim)
    cfg = IndexConfig(ranking=ranking, ngram_min=nmin, ngram_max=nmax)
    index = build_index(gee_corpus(dict(zip(ids, texts))), "explanation", cfg, embedder)
    blob = dumps_index(index)
    loaded = loads_index(blob)
    for attr in (
        "vocabulary", "idf", "df", "doc_ids", "doc_lengths", "avg_doc_length",
        "config", "dim", "field_name", "corpus_sha256",
    ):
        assert getattr(loaded, attr) == getattr(index, attr), attr
    assert oracles.doc_vectors(loaded) == oracles.doc_vectors(index)
    assert dumps_index(loaded) == blob
    got = query(loaded, query_text, k=k, theta=0.0, exclude_ids=exclude, embedder=embedder)
    want = query(index, query_text, k=k, theta=0.0, exclude_ids=exclude, embedder=embedder)
    assert repr(got) == repr(want)
    for cut in range(len(blob)):
        with pytest.raises(RetrievalError):
            loads_index(blob[:cut])


def _float_embedder(dim: int):
    """Deterministic vectors of inexact floats, with some zero components.

    Some components are so small that their squares underflow to 0, and a
    vector of only those has norm 0 and is dropped like an all-zero one.
    """

    def value(b: int) -> float:
        return 0.0 if b % 4 == 0 else (b - 128) * (1e-170 if b % 3 == 0 else 1 / 3.7)

    def embed(texts):
        digests = [hashlib.sha256(t.encode("utf-8")).digest()[:dim] for t in texts]
        return [[value(b) for b in d] for d in digests]

    return embed


# Spaces and U+3000 split whitespace-mode documents into several tokens, and
# "a" next to "a\x01" is a token that prefixes another with a character below
# NGRAM_JOIN.  Words shorter than ngram_min leave documents without grams.
_BUILD_CASES = _retrieval_cases(
    alphabet="a \u3000\x01\x1f主谓", ngram_ranges=[(1, 1), (1, 2), (2, 3), (1, 5), (3, 5)]
)
# No document has a gram: each is shorter than ngram_min, and in whitespace mode
# the corpus has no token at all.
_NO_GRAMS = ([" \u3000", "\x1f", " \u3000"], ["d01", "d00", "d02"], "a", 1, frozenset(), 3, 5)


@settings(max_examples=300, deadline=None)
@given(
    _BUILD_CASES,
    st.sampled_from(RANKINGS),
    st.sampled_from(["character", "whitespace"]),
    st.integers(0, 12),
)
@example(_NO_GRAMS, "tfidf_cosine", "character", 0)
@example(_NO_GRAMS, "bm25", "whitespace", 0)
def test_build_index_bytes_equal_oracle_build(case, ranking, mode, dim):
    texts, ids, _, _, _, nmin, nmax = case
    corpus = gee_corpus(dict(zip(ids, texts)))
    cfg = IndexConfig(nmin, nmax, ranking, segmenter=SegmenterConfig(mode=mode))
    embedder = _float_embedder(dim)
    got = dumps_index(build_index(corpus, "explanation", cfg, embedder))
    assert got == dumps_index(oracles.build_index(corpus, "explanation", cfg, embedder))


# One token per character, except that "x\x1fy" stays one token: then the
# 1-gram "a\x1fb" and the 2-gram of the tokens "a" and "b" are equal strings.
GLUE_CMD = (
    f"{sys.executable} -u -c \"import re, sys\n"
    "for line in sys.stdin:\n"
    "    print(' '.join(re.findall('[^\\x1f]\\x1f[^\\x1f]|.', line.rstrip('\\n'))))\n"
    "    sys.stdout.flush()\""
)


@pytest.mark.parametrize("ranking", ["tfidf_cosine", "bm25"])
def test_equal_grams_of_two_lengths_share_a_column(ranking):
    seg = SegmenterConfig(mode="external", external_command=GLUE_CMD)
    cfg = IndexConfig(1, 2, ranking, segmenter=seg)
    corpus = gee_corpus({"d0": "a\x1fbab", "d1": "ab\x1fab", "d2": "ba"})
    index = build_index(corpus, "explanation", cfg)
    assert sorted(index.vocabulary) == ["a", "a\x1fb", "a\x1fb\x1fa", "b", "b\x1fa", "b\x1fa\x1fb"]
    assert index.doc_lengths == [5, 5, 3]
    assert dumps_index(index) == dumps_index(oracles.build_index(corpus, "explanation", cfg))


@pytest.mark.parametrize("ranking", RANKINGS)
def test_build_index_bytes_equal_oracle_on_seeded_corpus(ranking):
    # Documents of 40-120 characters have hundreds of entries, where any
    # reordered or pairwise sum of the squares would change the last bits.
    rng = random.Random(7)
    alphabet = "主谓搭配不当动词错误语序状位置成分残缺少宾，。"
    texts = {
        f"d{i:03d}": "".join(rng.choices(alphabet, k=rng.randint(40, 120))) for i in range(200)
    }
    cfg = IndexConfig(1, 3, ranking)
    embedder = _float_embedder(32)
    got = dumps_index(build_index(gee_corpus(texts), "explanation", cfg, embedder))
    assert got == dumps_index(oracles.build_index(gee_corpus(texts), "explanation", cfg, embedder))
