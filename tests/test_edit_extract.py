import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import re2gec.edit_extract as edit_extract
from oracles import lcs_len, lcs_pairs
from test_segmentation import ECHO_CHARS_CMD
from re2gec.edit_extract import (
    Edit,
    _affixes,
    _lcs_pairs,
    _match_pairs,
    apply_edits,
    char_level_edits,
    extract_edits,
    lcs_length,
)
from re2gec.errors import EditError
from re2gec.segmentation import SegmenterConfig, close_external_segmenters, segment

CHAR = SegmenterConfig(mode="character")
WS = SegmenterConfig(mode="whitespace")


def triples(edits):
    return [list(e) for e in edits]


def assert_canonical_shape(source, edits):
    prev_end = 0
    for e in edits:
        assert e.offset >= prev_end, "edits overlap or are unsorted"
        assert e.original or e.replacement
        assert source[e.offset : e.offset + len(e.original)] == e.original
        prev_end = e.offset + len(e.original)


# --- frozen examples (derived by enumerating minimal scripts + the tie-break) ---


def test_single_char_deletion():
    assert triples(char_level_edits("AXB", "AB")) == [[1, "X", ""]]


def test_swap_produces_canonical_two_edit_script():
    edits = char_level_edits("ab", "ba")
    assert triples(edits) == [[0, "a", ""], [2, "", "a"]]
    assert apply_edits("ab", edits) == "ba"
    # exactly the minimal number of touched characters: 2*len - 2*LCS
    assert sum(len(e.original) for e in edits) == 2 - lcs_len("ab", "ba")
    assert sum(len(e.replacement) for e in edits) == 2 - lcs_len("ab", "ba")


def test_word_replacement_same_edit_in_both_modes():
    for cfg in (CHAR, WS):
        assert triples(extract_edits("the cat sat", "the dog sat", cfg)) == [
            [4, "cat", "dog"]
        ]


def test_whitespace_insertion_keeps_unchanged_separator_out_of_span():
    edits = extract_edits("a c", "a b c", WS)
    assert apply_edits("a c", edits) == "a b c"
    assert len(edits) == 1
    assert " " not in (edits[0].original,)  # span excludes the surviving separator
    assert edits[0].original == ""


@pytest.mark.parametrize(
    "source, target, want",
    [
        ("IWO 语序不当", "IWO 语序不对", [Edit(7, "当", "对")]),
        ("IWO 语序 不当", "IWO语序 不当", [Edit(3, " ", "")]),
        ("主谓 搭配", "主语 搭配 不当", [Edit(1, "谓", "语"), Edit(5, "", " 不当")]),
    ],
    ids=["substitution", "space deleted", "insertion after a space"],
)
def test_external_mode_edits_texts_that_hold_spaces(source, target, want):
    # The child splits characters and drops spaces; the edits keep the source's offsets.
    cfg = SegmenterConfig(mode="external", external_command=ECHO_CHARS_CMD)
    try:
        edits = extract_edits(source, target, cfg)
    finally:
        close_external_segmenters()
    assert edits == want
    assert apply_edits(source, edits) == target


def test_identity_has_no_edits():
    assert extract_edits("同一句", "同一句", CHAR) == []
    assert extract_edits("", "", CHAR) == []


def test_empty_source_and_empty_target():
    assert triples(char_level_edits("", "abc")) == [[0, "", "abc"]]
    assert triples(char_level_edits("abc", "")) == [[0, "abc", ""]]


def test_disjoint_pair_single_replacement():
    assert triples(char_level_edits("aaa", "bbb")) == [[0, "aaa", "bbb"]]


def test_char_level_edits_is_segmenter_independent():
    # same pair, whatever segmenter the pipeline uses elsewhere
    assert triples(char_level_edits("the cat sat", "the dog sat")) == [[4, "cat", "dog"]]


def test_deterministic():
    pairs = [("ab", "ba"), ("abcabc", "cabcab"), ("语序不当", "不当语序")]
    for s, t in pairs:
        assert char_level_edits(s, t) == char_level_edits(s, t)


# --- apply_edits contract ---


def test_apply_rejects_negative_offset():
    # Building an Edit checks nothing; applying one does.
    with pytest.raises(EditError, match="^edit offset must be >= 0, got -1$"):
        apply_edits("ab", [Edit(-1, "", "x")])


def test_edit_is_its_triple():
    edit = Edit(3, "a", "")
    assert edit == (3, "a", "") and (edit.offset, edit.original, edit.replacement) == edit


def test_apply_rejects_overlapping_edits():
    with pytest.raises(EditError, match="overlap"):
        apply_edits("abcd", [Edit(0, "ab", "x"), Edit(1, "bc", "y")])


def test_apply_rejects_out_of_range():
    with pytest.raises(EditError, match="out of range"):
        apply_edits("ab", [Edit(1, "bc", "x")])


def test_apply_rejects_original_mismatch():
    with pytest.raises(EditError, match="original mismatch"):
        apply_edits("abcd", [Edit(0, "zz", "x")])


def test_apply_right_to_left_substitution():
    edits = [Edit(0, "a", "AA"), Edit(2, "c", ""), Edit(4, "", "!")]
    assert apply_edits("abcd", edits) == "AAbd!"


# --- token alignment: one longest common subsequence ---


def assert_lcs_pairs(src_texts, tgt_texts):
    pairs = _match_pairs(src_texts, tgt_texts)
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        assert i0 < i1 and j0 < j1, "pairs must be strictly increasing"
    assert all(src_texts[i] == tgt_texts[j] for i, j in pairs)
    assert len(pairs) == lcs_len(src_texts, tgt_texts)


def test_match_pairs_matches_lcs():
    src = [t.text for t in segment("the cat sat on the mat", WS)]
    tgt = [t.text for t in segment("a cat sat on my mat", WS)]
    assert_lcs_pairs(src, tgt)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(list("abc的了")), max_size=12),
    st.lists(st.sampled_from(list("abc的了")), max_size=12),
)
def test_match_pairs_property(src_texts, tgt_texts):
    src = [t.text for t in segment(" ".join(src_texts), WS)]
    tgt = [t.text for t in segment(" ".join(tgt_texts), WS)]
    assert_lcs_pairs(src, tgt)


# --- the bit-parallel LCS kernel against the full-table oracle ---


@st.composite
def kernel_inputs(draw):
    """Two sequences over one alphabet of 1-5 symbols, as str or token lists.

    Lengths reach 150, so the bit vectors span several 64-bit words, and
    either side may be empty.
    """
    size = draw(st.integers(1, 5))
    tokens = draw(st.sampled_from([list("ab的了字"), ["the", "cat", "sat", "on", "mat"]]))
    alphabet = tokens[:size]
    a = draw(st.lists(st.sampled_from(alphabet), max_size=150))
    b = draw(st.lists(st.sampled_from(alphabet), max_size=150))
    if len(tokens[0]) == 1 and draw(st.booleans()):
        return "".join(a), "".join(b)
    return a, b


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_lcs_kernel_matches_oracle(ab):
    a, b = ab
    assert _lcs_pairs(a, b) == lcs_pairs(a, b)
    assert lcs_length(a, b) == lcs_len(a, b)
    assert lcs_length(b, a) == lcs_len(a, b)


def test_lcs_kernel_edge_cases():
    for a, b in [("", ""), ("", "abc"), ("abc", ""), ([], ["x"]), ("a" * 200, "a" * 130)]:
        assert _lcs_pairs(a, b) == lcs_pairs(a, b)
        assert lcs_length(a, b) == lcs_len(a, b)
    assert lcs_length("a" * 200, "a" * 130) == 130


# --- the kernel shortcuts: halving affixes, and middles that share no symbol ---


@st.composite
def affix_pairs(draw):
    """Two sequences, as str or token lists, around a drawn common prefix and suffix.

    The middles may be empty or hold affix symbols, so the common prefix and
    suffix may run past the drawn ones, and may overlap.
    """
    tokens = draw(st.sampled_from([list("ab的"), ["the", "cat", "sat"]]))
    part = st.lists(st.sampled_from(tokens), max_size=40)
    prefix, suffix = draw(part), draw(part)
    a, b = prefix + draw(part) + suffix, prefix + draw(part) + suffix
    if len(tokens[0]) == 1 and draw(st.booleans()):
        return "".join(a), "".join(b)
    return a, b


@settings(max_examples=300, deadline=None)
@given(affix_pairs())
@example(("abc", "abc"))
@example((["the", "cat"], ["the", "cat"]))
@example(("", "abc"))
@example((["cat"], []))
@example(("aaa", "aa"))
@example(("abab", "ab"))
def test_affixes_match_oracle(ab):
    a, b = ab
    assert _affixes(a, b) == oracles._affixes(a, b)
    assert _affixes(b, a) == oracles._affixes(b, a)


@st.composite
def meeting_middles(draw, shared: int):
    """``(source, target)``: a drawn common prefix and suffix around two middles whose symbol
    sets meet in exactly ``shared`` (0 or 1) symbols.

    Each middle begins and ends with a symbol the other lacks, so the common
    prefix and suffix are exactly the drawn ones.
    """
    affix = st.text(st.sampled_from("ab的了字"), max_size=60)

    def middle(ends: str, inner: str) -> str:
        text = draw(st.text(st.sampled_from(inner), max_size=8))
        if shared:
            cut = draw(st.integers(0, len(text)))
            text = text[:cut] + "z" + text[cut:]
        return draw(st.sampled_from(ends)) + text + draw(st.sampled_from(ends))

    prefix, suffix = draw(affix), draw(affix)
    return prefix + middle("cd", "abcd") + suffix, prefix + middle("ef", "的了ef") + suffix


def assert_middles_meet_in(source, target, shared):
    pre, suf = oracles._affixes(source, target)
    mid_s, mid_t = source[pre : len(source) - suf], target[pre : len(target) - suf]
    assert len(set(mid_s) & set(mid_t)) == shared


@settings(max_examples=300, deadline=None)
@given(meeting_middles(shared=0))
def test_middles_sharing_no_symbol_skip_the_kernel(pair):
    source, target = pair
    assert_middles_meet_in(source, target, 0)
    want = oracles.char_level_edits(source, target)
    assert len(want) == 1  # the two middles, replaced as one edit
    with mock.patch.object(edit_extract, "_lcs_rows", side_effect=AssertionError("kernel ran")):
        assert char_level_edits(source, target) == want
    assert lcs_length(source, target) == lcs_len(source, target)
    assert lcs_length(target, source) == lcs_len(source, target)


@settings(max_examples=300, deadline=None)
@given(meeting_middles(shared=1))
def test_middles_sharing_one_symbol_equal_oracle(pair):
    source, target = pair
    assert_middles_meet_in(source, target, 1)
    assert char_level_edits(source, target) == oracles.char_level_edits(source, target)
    assert lcs_length(source, target) == lcs_len(source, target)
    assert lcs_length(target, source) == lcs_len(source, target)


def test_char_level_edits_seeded_chinese_mutations_match_oracle(monkeypatch):
    rng = random.Random(6)
    alphabet = "我们他她的了在是学校图书馆看书昨天去，。"
    cases = []
    for _ in range(400):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 90)))
        cases.append((source, _mutate(rng, source)))
    got = [char_level_edits(s, t) for s, t in cases]
    monkeypatch.setattr(edit_extract, "_lcs_pairs", lcs_pairs)
    assert got == [char_level_edits(s, t) for s, t in cases]


@st.composite
def char_pairs(draw):
    """A (source, target) pair over 1-5 symbols drawn from ASCII, CJK, a space and U+3000.

    Lengths reach 150, past one 64-bit word, and either side may be empty.
    The target is drawn on its own, equal to the source, or a few edits away.
    """
    pool = st.sampled_from("ab的了字 \u3000")
    alphabet = draw(st.lists(pool, min_size=1, max_size=5, unique=True))
    text = st.text(st.sampled_from(alphabet), max_size=150)
    source = draw(text)
    how = draw(st.sampled_from(("free", "equal", "edited")))
    if how == "free":
        return source, draw(text)
    target = source
    if how == "edited":
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(target)))
            j = draw(st.integers(i, min(len(target), i + 3)))
            piece = draw(st.text(st.sampled_from(alphabet), max_size=3))
            target = target[:i] + piece + target[j:]
    return source, target


def assert_matches_oracle_route(source, target):
    want = oracles.char_level_edits(source, target)
    assert char_level_edits(source, target) == want
    assert extract_edits(source, target, SegmenterConfig()) == want
    assert extract_edits(source, target, WS) == oracles.extract_edits(source, target, WS)


@settings(max_examples=400, deadline=None)
@given(char_pairs())
def test_char_level_edits_equal_oracle_route(pair):
    assert_matches_oracle_route(*pair)


def test_char_level_edits_edge_cases_equal_oracle_route():
    cases = [
        ("", ""), ("", "的了"), ("的了", ""), ("abc", "abc"), ("a", "aaa"), ("aaa", "a"),
        ("a" * 100, "a" * 70), ("ab" * 40, "ba" * 40), ("的 \u3000" * 30, "的\u3000 " * 30),
        ("x" + "的" * 80 + "y", "的" * 80), ("的" * 80, "z" + "的" * 80 + "z"),
    ]
    for source, target in cases:
        assert_matches_oracle_route(source, target)


def test_character_mode_takes_no_gap_trimming(monkeypatch):
    def trimming(*args):
        raise AssertionError("character mode must not anchor and trim gaps")

    monkeypatch.setattr(edit_extract, "_edits_from_alignment", trimming)
    want = [[1, "打饭", ""], [6, "", "打饭"]]
    assert triples(char_level_edits("他打饭在食堂", "他在食堂打饭")) == want
    assert triples(extract_edits("他打饭在食堂", "他在食堂打饭", CHAR)) == want


# --- round-trip and minimality properties ---


@settings(max_examples=200, deadline=None)
@given(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
)
def test_roundtrip_property_character_mode(source, target):
    edits = extract_edits(source, target, CHAR)
    assert apply_edits(source, edits) == target
    assert_canonical_shape(source, edits)
    assert bool(edits) == (source != target)
    # char-mode minimality: touched chars == chars outside an LCS
    lcs = lcs_len(source, target)
    assert sum(len(e.original) for e in edits) == len(source) - lcs
    assert sum(len(e.replacement) for e in edits) == len(target) - lcs


@settings(max_examples=150, deadline=None)
@given(
    st.text(st.sampled_from("ab 的了 "), max_size=30),
    st.text(st.sampled_from("ab 的了 "), max_size=30),
)
def test_roundtrip_property_whitespace_mode(source, target):
    edits = extract_edits(source, target, WS)
    assert apply_edits(source, edits) == target
    assert_canonical_shape(source, edits)


def _mutate(rng: random.Random, text: str) -> str:
    alphabet = "abc一二三 的"
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("insert", "delete", "replace"))
        pos = rng.randint(0, len(text))
        if kind == "insert":
            piece = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            text = text[:pos] + piece + text[pos:]
        elif kind == "delete" and text:
            end = min(len(text), pos + rng.randint(1, 3))
            text = text[:pos] + text[end:]
        elif text:
            end = min(len(text), pos + rng.randint(1, 3))
            piece = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            text = text[:pos] + piece + text[end:]
    return text


def test_roundtrip_seeded_random_mutations_both_modes():
    rng = random.Random(20240814)
    alphabet = "abcde一二三四五 的了呀 "
    for _ in range(500):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        target = _mutate(rng, source)
        for cfg in (CHAR, WS):
            edits = extract_edits(source, target, cfg)
            assert apply_edits(source, edits) == target, (source, target, cfg.mode)
            assert_canonical_shape(source, edits)
