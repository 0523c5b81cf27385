import json
import logging
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from re2gec.corpus import ERROR_TYPES, Edit, SentencePair, json_objects, load_corpus
from re2gec.errors import CorpusError


def _write_lines(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _with_error_types(codes) -> str:
    return json.dumps({"id": "a", "source": "s", "targets": ["t"], "error_types": codes})


def test_error_type_has_exactly_seven_codes():
    assert ERROR_TYPES == ("IWO", "IWC", "CM", "CR", "SC", "ILL", "AM")


@pytest.mark.parametrize("code", ["IWO", "IWC", "CM", "CR", "SC", "ILL", "AM"])
def test_error_type_parse_roundtrip(tmp_path, code):
    # A code loads as the string the file spells.
    rec = load_corpus(_write_lines(tmp_path, [_with_error_types([code, code])])).records[0]
    assert rec.error_types == [code, code]


def test_error_type_parse_rejects_unknown(tmp_path):
    # Codes are case-sensitive; a non-string or unhashable code gets the same one line.
    for code in ["XYZ", "sc", "", 1, 1.5, True, None, [1], {"a": 1}]:
        path = _write_lines(tmp_path, [_with_error_types(["SC", code])])
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value) == f"line 1: unknown error type {code!r}"


def test_load_minimal_record(tmp_path):
    path = _write_lines(
        tmp_path, [json.dumps({"id": "r1", "source": "甲句", "targets": ["乙句"]})]
    )
    corpus = load_corpus(path)
    assert len(corpus) == 1
    rec = corpus.records[0]
    assert (rec.id, rec.source, rec.targets) == ("r1", "甲句", ["乙句"])
    assert rec.error_types == [] and rec.edits is None and rec.explanation is None


def test_load_full_record(tmp_path):
    obj = {
        "id": "r1",
        "source": "abc",
        "targets": ["axc", "abc"],
        "error_types": ["SC", "CM"],
        "edits": [[[1, "b", "x"]], []],
        "explanation": "why",
        "rough_explanation": "rough",
    }
    corpus = load_corpus(_write_lines(tmp_path, [json.dumps(obj)]))
    rec = corpus.records[0]
    assert rec.error_types == ["SC", "CM"]
    assert rec.edits == [[Edit(1, "b", "x")], []]
    assert rec.explanation == "why" and rec.rough_explanation == "rough"


def test_load_reports_malformed_json_line_number(tmp_path):
    path = _write_lines(
        tmp_path,
        [json.dumps({"id": "a", "source": "s", "targets": ["t"]}), "{not json"],
    )
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone cr"])
def test_records_end_at_each_newline_of_text_mode(tmp_path, eol):
    # A corpus reads as a text-mode file does: \r\n and a lone \r end a line too.
    lines = [json.dumps({"id": i, "source": "s", "targets": ["t"]}) for i in "aba"]
    path = tmp_path / "c.jsonl"
    path.write_bytes((eol.join(lines[:2]) + eol).encode("utf-8"))
    assert [rec.id for rec in load_corpus(path)] == ["a", "b"]
    path.write_bytes(eol.join(lines).encode("utf-8"))
    with pytest.raises(CorpusError, match="^line 3: duplicate id 'a'$"):
        load_corpus(path)


def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id": "a", "source": "s", "targets": ["t"]}\n{"id": "\xff"}\n')
    with pytest.raises(CorpusError, match=r"^'.*c\.jsonl': line 2 is not UTF-8 \(invalid start"):
        load_corpus(path)


def test_a_byte_that_is_not_utf8_is_named_before_invalid_json_above_it(tmp_path):
    # The whole file decodes before any line parses, so line 5's byte wins over line 2.
    path = tmp_path / "c.jsonl"
    record = b'{"id": "a", "source": "s", "targets": ["t"]}\n'
    path.write_bytes(record + b"{not json\n" + record * 2 + b'{"id": "\xff"}\n')
    with pytest.raises(CorpusError, match=r"^'.*c\.jsonl': line 5 is not UTF-8 \(invalid start"):
        list(json_objects(path))


# Line bodies: JSON objects whose strings hold characters that str.splitlines()
# would split at, blank and whitespace-only lines, lines that fail to parse,
# and lines that one raw_decode does not read whole, which json.loads must
# read instead: a BOM, JSON whitespace around the object, two values, the
# non-standard constants, nesting past the recursion limit and an integer
# too long for int().
_LINE_CHARS = st.characters() | st.sampled_from("\u2028\u2029\x85\x0b\x0c")
_HANDED_BACK = [
    '\ufeff{"id": "a"}',
    ' {"id": "a"}',
    '{"id": "a"}\t ',
    '\t{"id": "a"} ',
    '{"id": "a"} {"id": "b"}',
    '{"id": "a"}[1]',
    '{"a": NaN, "b": -Infinity, "c": Infinity}',
    '{"a": ' + "[" * 100_000,
    '{"a": ' + "[" * 5_000 + "]" * 5_000 + "}",
    '{"a": ' + "7" * (sys.get_int_max_str_digits() + 1) + "}",
]
_LINE_BODIES = st.one_of(
    st.dictionaries(st.sampled_from(["id", "source"]), st.text(_LINE_CHARS, max_size=6)).map(
        lambda obj: json.dumps(obj, ensure_ascii=False)
    ),
    st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\u2028\u3000"), max_size=3),
    st.sampled_from(["{not json", "[1]", '"text"', *_HANDED_BACK]),
)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.tuples(_LINE_BODIES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
    final_newline=st.booleans(),
)
def test_json_objects_equal_the_split_reference(tmp_path_factory, lines, final_newline):
    text = "".join(body + eol for body, eol in lines)
    if lines and not final_newline:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("lines") / "c.jsonl"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = oracles.json_objects(path)
    except CorpusError as exc:
        with pytest.raises(CorpusError) as info:
            list(json_objects(path))
        assert str(info.value) == str(exc)
    else:
        assert list(json_objects(path)) == want


@pytest.mark.parametrize("body", _HANDED_BACK)
def test_json_objects_equal_the_split_reference_on_each_handed_back_line(tmp_path, body):
    # Each line alone, so a failure on it is not hidden by an earlier line's.
    path = tmp_path / "c.jsonl"
    path.write_bytes(('{"id": "z"}\n' + body + "\n").encode("utf-8"))
    try:
        want = oracles.json_objects(path)
    except CorpusError as exc:
        with pytest.raises(CorpusError) as info:
            list(json_objects(path))
        assert str(info.value) == str(exc)
    else:
        assert list(json_objects(path)) == want


def test_load_rejects_duplicate_id(tmp_path):
    line = json.dumps({"id": "a", "source": "s", "targets": ["t"]})
    with pytest.raises(CorpusError, match="line 2: duplicate id 'a'"):
        load_corpus(_write_lines(tmp_path, [line, line]))


def test_load_rejects_unknown_error_type_with_line(tmp_path):
    obj = {"id": "a", "source": "s", "targets": ["t"], "error_types": ["ZZ"]}
    with pytest.raises(CorpusError, match="line 1: unknown error type 'ZZ'"):
        load_corpus(_write_lines(tmp_path, [json.dumps(obj)]))


def test_load_rejects_empty_targets(tmp_path):
    obj = {"id": "a", "source": "s", "targets": []}
    with pytest.raises(CorpusError, match="targets"):
        load_corpus(_write_lines(tmp_path, [json.dumps(obj)]))


def test_load_rejects_edit_target_mismatch(tmp_path):
    obj = {"id": "bad1", "source": "abc", "targets": ["abd"], "edits": [[[0, "a", "x"]]]}
    with pytest.raises(CorpusError, match="edit/target mismatch id=bad1"):
        load_corpus(_write_lines(tmp_path, [json.dumps(obj)]))


def test_load_rejects_edits_not_parallel_to_targets(tmp_path):
    obj = {"id": "a", "source": "abc", "targets": ["abd"], "edits": [[], []]}
    with pytest.raises(CorpusError, match="2 lists for 1 targets"):
        load_corpus(_write_lines(tmp_path, [json.dumps(obj)]))


def test_unknown_field_strict_vs_lenient(tmp_path, caplog):
    obj = {"id": "a", "source": "s", "targets": ["t"], "mystery": 1}
    path = _write_lines(tmp_path, [json.dumps(obj)])
    with pytest.raises(CorpusError, match="unknown field 'mystery'"):
        load_corpus(path, strict=True)
    with caplog.at_level(logging.WARNING, logger="re2gec.corpus"):
        corpus = load_corpus(path, strict=False)
    assert len(corpus) == 1
    assert any("mystery" in message for message in caplog.messages)


def test_no_error_record_uses_source_as_target(tmp_path):
    obj = {"id": "a", "source": "好句子", "targets": ["好句子"], "edits": [[]]}
    corpus = load_corpus(_write_lines(tmp_path, [json.dumps(obj)]))
    assert corpus.records[0].targets == [corpus.records[0].source]


def test_corpus_get_by_id(mini_gee_corpus):
    assert mini_gee_corpus.get("d1").id == "d1"
    with pytest.raises(CorpusError, match="unknown record id"):
        mini_gee_corpus.get("nope")


def _pair(obj: dict) -> SentencePair:
    """The record that ``load_corpus`` gives for the schema-true JSON object ``obj``."""
    edits = obj.get("edits")
    return SentencePair(
        id=obj["id"],
        source=obj["source"],
        targets=obj["targets"],
        error_types=obj.get("error_types", []),
        edits=None if edits is None else [[Edit(*t) for t in triples] for triples in edits],
        explanation=obj.get("explanation"),
        rough_explanation=obj.get("rough_explanation"),
    )


def _write_objects(path, objects) -> None:
    path.write_text(
        "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects), encoding="utf-8"
    )


def test_dump_load_roundtrip(tmp_path):
    objects = [
        {"id": "a", "source": "abc", "targets": ["axc"], "edits": [[[1, "b", "x"]]]},
        {
            "id": "b",
            "source": "句子",
            "targets": ["句子", "句子呀"],
            "error_types": ["AM"],
            "explanation": "解释",
            "rough_explanation": "粗解",
        },
        {"id": "c", "source": "", "targets": ["x"], "edits": None, "explanation": None},
    ]
    path = tmp_path / "out.jsonl"
    _write_objects(path, objects)
    assert load_corpus(path).records == [_pair(obj) for obj in objects]


# Schema-true JSON objects for the load property; optional fields appear in any order.
_ids = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8)
_texts = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=20
)
_OPTIONAL = {
    "error_types": st.lists(st.sampled_from(ERROR_TYPES), max_size=3),
    "edits": st.none(),
    "explanation": st.none() | _texts,
    "rough_explanation": st.none() | _texts,
}


@st.composite
def _objects(draw):
    obj = {
        "id": draw(_ids),
        "source": draw(_texts),
        "targets": draw(st.lists(_texts, min_size=1, max_size=3)),
    }
    for name in draw(st.lists(st.sampled_from(sorted(_OPTIONAL)), unique=True)):
        obj[name] = draw(_OPTIONAL[name])
    return obj


@settings(max_examples=60, deadline=None)
@given(st.lists(_objects(), max_size=6, unique_by=lambda obj: obj["id"]))
def test_roundtrip_property(tmp_path_factory, objects):
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    _write_objects(path, objects)
    assert load_corpus(path).records == [_pair(obj) for obj in objects]


_VALID_LINE = {"id": "ok", "source": "abcdef", "targets": ["abXdef"], "edits": [[[2, "c", "X"]]]}


def _one_edit(edit, reason, name):
    """A planted violation: a record whose only edit is ``edit``."""
    record = {"id": "a", "source": "abcd", "targets": ["abcd"], "edits": [[edit]]}
    return pytest.param(record, reason, id=name)


@pytest.mark.parametrize(
    "record, reason",
    [
        pytest.param(
            {"id": "a", "source": "s", "targets": []}, "non-empty list", id="targets empty"
        ),
        pytest.param(
            {"id": "a", "source": "ab", "targets": ["ab"], "edits": [[], []]},
            "2 lists for 1 targets",
            id="not parallel",
        ),
        pytest.param(
            {"id": "a", "source": "ab", "targets": ["ab"], "edits": [[[1, "bc", "x"]]]},
            "out of range",
            id="out of range",
        ),
        pytest.param(
            {
                "id": "a",
                "source": "abcd",
                "targets": ["abcd"],
                "edits": [[[0, "ab", "x"], [1, "bc", "y"]]],
            },
            "overlap",
            id="overlapping",
        ),
        pytest.param(
            {"id": "a", "source": "abcd", "targets": ["abcd"], "edits": [[[0, "zz", "x"]]]},
            "original mismatch",
            id="original mismatch",
        ),
        pytest.param(
            {"id": "a", "source": "abcd", "targets": ["abcd"], "edits": [[[0, "a", "x"]]]},
            "rebuild 'xbcd'",
            id="replay mismatch",
        ),
        _one_edit([-1, "a", "b"], "line 2: edit offset must be >= 0, got -1", "negative offset"),
        _one_edit(
            [0, "", ""],
            "line 2: edit must change something: original and replacement both empty",
            "changes nothing",
        ),
        *(
            _one_edit(
                bad, f"line 2: edit must be [offset, original, replacement], got {bad!r}", name
            )
            for bad, name in [
                (["3", "a", "b"], "string offset"),
                ([True, "a", "b"], "boolean offset"),
                ([3, 1, "b"], "integer original"),
                ([3, "a"], "two fields"),
                ("nope", "not a list"),
                ({"offset": 3}, "object"),
            ]
        ),
        pytest.param(
            {"id": "a", "source": "ab", "targets": ["ab"], "edits": {}},
            "line 2: edits must be a list of edit lists",
            id="edits not a list",
        ),
        pytest.param(
            {"id": "a", "source": "ab", "targets": ["ab"], "edits": [[0, "a", "b"]]},
            "line 2: edit must be [offset, original, replacement], got 0",
            id="edit list not nested",
        ),
        pytest.param(
            {"id": "a", "source": "ab", "targets": ["ab"], "edits": [{}]},
            "line 2: edits must be a list of edit lists",
            id="edit list not a list",
        ),
    ],
)
def test_load_corpus_rejects_planted_violation(tmp_path, record, reason):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps(_VALID_LINE) + "\n" + json.dumps(record) + "\n", encoding="utf-8"
    )
    with pytest.raises(CorpusError, match=r"^line 2: ") as info:
        load_corpus(path)
    assert reason in str(info.value)
    assert "\n" not in str(info.value)
    path.write_text(json.dumps(_VALID_LINE) + "\n", encoding="utf-8")
    assert [rec.id for rec in load_corpus(path)] == ["ok"]

