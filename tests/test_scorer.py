import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lcs_len
from re2gec.scorer import (
    DetectionReport,
    EvalReport,
    SentenceScore,
    detection_metrics,
    f_beta,
    rouge_l,
    score_corpus,
    score_sentence,
)

# published-style (precision%, recall%) rows and the F0.5% they round to
F_HALF_ROWS = [
    (64.49, 36.22, 55.78),
    (48.19, 37.14, 45.48),
    (66.33, 42.80, 59.76),
    (45.59, 40.18, 44.39),
]


@pytest.mark.parametrize("p, r, expected", F_HALF_ROWS)
def test_f_half_reproduces_reported_rows(p, r, expected):
    got = f_beta(p / 100.0, r / 100.0, 0.5) * 100.0
    assert round(got, 2) == pytest.approx(expected, abs=0.01)


def test_f_beta_edge_cases():
    assert f_beta(0.0, 0.0, 0.5) == 0.0
    assert f_beta(1.0, 1.0, 0.5) == 1.0
    assert f_beta(0.5, 0.5, 1.0) == pytest.approx(0.5)
    # beta = 1 is the plain harmonic mean
    assert f_beta(0.2, 0.8, 1.0) == pytest.approx(2 * 0.2 * 0.8 / (0.2 + 0.8))
    with pytest.raises(ValueError, match="beta"):
        f_beta(0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="beta"):
        f_beta(0.5, 0.5, -1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_f_beta_monotone_in_each_argument(p, r, delta):
    base = f_beta(p, r, 0.5)
    assert f_beta(min(1.0, p + delta), r, 0.5) >= base - 1e-12
    assert f_beta(p, min(1.0, r + delta), 0.5) >= base - 1e-12
    assert 0.0 <= base <= 1.0


# --- sentence scoring ---


def test_score_sentence_partial_overlap():
    # hyp fixes one of two gold edits: tp=1, fp=0, fn=1
    source = "他昨天去了学校的"
    reference = "她昨天去了学校"   # [0,他,她] and [7,的,""]
    hypothesis = "她昨天去了学校的"  # only [0,他,她]
    s = score_sentence(source, hypothesis, [reference])
    assert (s.tp, s.fp, s.fn) == (1, 0, 1)
    assert s.chosen_reference == 0
    # P=1, R=0.5 -> F0.5 = 1.25*0.5/(0.25+0.5)
    assert f_beta(1.0, 0.5, 0.5) == pytest.approx(0.625 / 0.75)


def test_score_sentence_wrong_edit_counts_fp_and_fn():
    s = score_sentence("abc", "abX", ["Ybc"])
    assert (s.tp, s.fp, s.fn) == (0, 1, 1)


def test_score_sentence_both_unedited_is_perfect():
    s = score_sentence("正确的句子", "正确的句子", ["正确的句子"])
    assert (s.tp, s.fp, s.fn) == (0, 0, 0)


def test_score_sentence_picks_best_reference():
    source = "abcd"
    refs = ["zzcd", "aXcd"]   # hyp matches the second exactly
    s = score_sentence(source, "aXcd", refs)
    assert s.chosen_reference == 1
    assert (s.fp, s.fn) == (0, 0)


def test_score_sentence_tie_keeps_lower_index():
    source = "abcd"
    refs = ["Xbcd", "Ybcd"]  # hyp matches neither; identical (0,1,1) counts
    s = score_sentence(source, "Zbcd", refs)
    assert s.chosen_reference == 0


def test_score_sentence_tie_on_f_prefers_higher_tp():
    # F0.5 = 1.25*tp / (0.25*(tp+fn) + tp+fp), so (tp=1, fp=1, fn=1) and
    # (tp=2, fp=0, fn=10) both score 0.5; the higher-tp reference must win
    source = "abcdefghijklmnopqrstuvwx"
    hypothesis = "XbYdefghijklmnopqrstuvwx"     # edits at 0 and 2
    ref_a = "XbcdZfghijklmnopqrstuvwx"          # shares only the edit at 0
    ref_b = list(source)
    for pos, ch in [(0, "X"), (2, "Y")] + [(i, source[i].upper()) for i in range(4, 24, 2)]:
        ref_b[pos] = ch
    s = score_sentence(source, hypothesis, [ref_a, "".join(ref_b)])
    assert (s.tp, s.fp, s.fn) == (2, 0, 10)
    assert s.chosen_reference == 1


def test_score_sentence_requires_references():
    with pytest.raises(ValueError, match="references"):
        score_sentence("a", "a", [])


# --- corpus scoring ---


def test_score_corpus_micro_average():
    items = [
        ("他昨天去了学校的", "她昨天去了学校的", ["她昨天去了学校"]),  # tp=1 fn=1
        ("abc", "abX", ["Ybc"]),                                      # fp=1 fn=1
        ("好句子", "好句子", ["好句子"]),                               # all zero
    ]
    report = score_corpus(score_sentence(*item) for item in items)
    assert (report.tp, report.fp, report.fn) == (1, 1, 2)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(1 / 3)
    assert report.f_half == pytest.approx(f_beta(0.5, 1 / 3, 0.5))


def test_score_corpus_all_clean_is_perfect():
    report = score_corpus([score_sentence("a", "a", ["a"]), score_sentence("bb", "bb", ["bb"])])
    assert report == EvalReport(0, 0, 0, 1.0, 1.0, 1.0)


def test_from_counts_zero_denominator_convention():
    assert EvalReport.from_counts(0, 0, 5).precision == 1.0
    assert EvalReport.from_counts(0, 5, 0).recall == 1.0
    assert EvalReport.from_counts(0, 0, 0) == EvalReport(0, 0, 0, 1.0, 1.0, 1.0)


# --- rouge ---


def test_rouge_l_frozen_example():
    p, r, f1 = rouge_l("ace", "abcde")
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(0.6)
    assert f1 == pytest.approx(0.75)


def test_rouge_l_identity_and_disjoint():
    assert rouge_l("同一句", "同一句") == (1.0, 1.0, 1.0)
    assert rouge_l("abc", "xyz") == (0.0, 0.0, 0.0)


def test_rouge_l_empty_sides():
    assert rouge_l("", "abc") == (0.0, 0.0, 0.0)
    assert rouge_l("abc", "") == (0.0, 0.0, 0.0)
    assert rouge_l("", "") == (0.0, 0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(
    st.text(st.sampled_from("ab汉字"), max_size=20),
    st.text(st.sampled_from("ab汉字"), max_size=20),
)
def test_rouge_l_matches_oracle_and_swaps(a, b):
    lcs = lcs_len(a, b)
    p, r, f1 = rouge_l(a, b)
    assert p == pytest.approx(lcs / len(a) if a else 0.0)
    assert r == pytest.approx(lcs / len(b) if b else 0.0)
    rp, rr, rf1 = rouge_l(b, a)
    assert (rp, rr) == (r, p)
    assert rf1 == pytest.approx(f1)


def test_rouge_l_seeded_chinese_mutations_match_oracle():
    rng = random.Random(6)
    alphabet = "我们他她的了在是学校图书馆看书昨天去，。"
    for _ in range(400):
        candidate = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        chars = list(candidate)
        for _ in range(rng.randint(0, 6)):
            pos = rng.randint(0, len(chars))
            if chars and rng.random() < 0.5:
                del chars[min(pos, len(chars) - 1)]
            else:
                chars.insert(pos, rng.choice(alphabet))
        reference = "".join(chars)
        lcs = lcs_len(candidate, reference)
        expected = (
            lcs / len(candidate) if candidate else 0.0,
            lcs / len(reference) if reference else 0.0,
            2 * lcs / (len(candidate) + len(reference)) if lcs else 0.0,
        )
        assert rouge_l(candidate, reference) == expected, (candidate, reference)


# --- detection ---


def test_detection_sentence_level_counts():
    items = [
        ("病句一个", "改好句子", ["改好句子"]),        # predicted + gold -> tp
        ("本来正确", "本来正确", ["本来正确"]),        # neither -> ignored
        ("其实正确", "误改了呀", ["其实正确"]),        # predicted only -> fp
        ("还是病句", "还是病句", ["换掉病句"]),        # gold only -> fn
    ]
    r = detection_metrics(items)
    assert r.sentence_precision == pytest.approx(0.5)   # tp=1 fp=1
    assert r.sentence_recall == pytest.approx(0.5)      # tp=1 fn=1
    assert r.sentence_f1 == pytest.approx(0.5)


def test_detection_gold_requires_all_targets_changed():
    # one gold target keeps the source, so the sentence is not gold-erroneous
    r = detection_metrics([("原句", "原句", ["改句", "原句"])])
    assert r.sentence_precision == 1.0
    assert r.sentence_recall == 1.0


def test_detection_position_level_overlap():
    # hyp touches offsets {0}, gold touches {0, 3}: tp=1 fn=1
    items = [("abcd", "Xbcd", ["XbcY"])]
    r = detection_metrics(items)
    assert r.position_precision == pytest.approx(1.0)
    assert r.position_recall == pytest.approx(0.5)
    assert r.position_f1 == pytest.approx(f_beta(1.0, 0.5, 1.0))


def test_detection_position_insertion_counts_single_offset():
    # pure insertion at offset 1 on both sides: exactly one shared position
    r = detection_metrics([("ac", "abc", ["abc"])])
    assert r.position_precision == 1.0
    assert r.position_recall == 1.0


def test_detection_position_picks_max_overlap_target():
    # gold targets touch {0} and {3}; hyp touches {3} -> second target chosen
    items = [("abcd", "abcY", ["Xbcd", "abcZ"])]
    r = detection_metrics(items)
    assert r.position_precision == 1.0
    assert r.position_recall == 1.0


def test_detection_disjoint_positions_score_zero():
    r = detection_metrics([("abcd", "Xbcd", ["abcY"])])
    assert r.position_precision == 0.0
    assert r.position_recall == 0.0
    assert r.position_f1 == 0.0


def test_detection_all_clean_is_vacuously_perfect():
    r = detection_metrics([("好", "好", ["好"])])
    assert r == DetectionReport(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_detection_requires_targets():
    with pytest.raises(ValueError, match="targets"):
        detection_metrics([("a", "a", [])])


def test_detection_report_to_dict_shape():
    d = detection_metrics([("好", "好", ["好"])]).to_dict()
    assert d == {
        "sentence_level": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
        "position_level": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
    }


def test_sentence_score_is_frozen_dataclass():
    s = SentenceScore(1, 2, 3, 0)
    with pytest.raises(AttributeError):
        s.tp = 9
