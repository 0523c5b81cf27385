import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from re2gec.corpus import ERROR_TYPES, Edit, SentencePair
from re2gec.errors import ParseError, TemplateError
from re2gec.prompting import (
    CORRECTION_LABELS,
    TemplateSet,
    format_edits,
    load_template,
    load_template_set,
    parse_correction,
    render,
    render_gec_prompt,
    render_gee_prompt,
)

SET = load_template_set("default")


# --- correction prompts ---


def test_with_examples_prompt_golden():
    examples = [("病A", "好A"), ("病B", "好B")]
    prompt = render_gec_prompt("测试句", examples, SET)
    assert prompt == (
        "下面给出中文语法纠错参考示例。\n"
        "原句：病A 纠正后：好A\n"
        "原句：病B 纠正后：好B\n"
        "参考上述纠错示例，请判断下面句子是否有语法错误，如果有请直接进行纠正，如果没有请直接输出原句。\n"
        "测试句"
    )


def test_without_examples_prompt_golden():
    assert render_gec_prompt("测试句", [], SET) == (
        "请判断下面句子是否有语法错误，如果有请直接进行纠正，如果没有请直接输出原句：\n"
        "测试句"
    )


def test_example_block_repeats_in_rank_order():
    for k in range(1, 6):
        examples = [(f"源{i}", f"标{i}") for i in range(k)]
        prompt = render_gec_prompt("输入", examples, SET)
        lines = [ln for ln in prompt.split("\n") if ln.startswith("原句：")]
        assert lines == [f"原句：源{i} 纠正后：标{i}" for i in range(k)]


def test_distinct_example_lists_give_distinct_prompts():
    base = [("甲", "乙"), ("丙", "丁")]
    variants = [
        base[::-1],
        [("甲", "乙")],
        [("甲", "乙"), ("丙", "戊")],
        [],
    ]
    seen = {render_gec_prompt("句", ex, SET) for ex in [base] + variants}
    assert len(seen) == len(variants) + 1


def test_placeholder_value_is_not_rescanned():
    prompt = render_gec_prompt("literal {Input} stays", [], SET)
    assert prompt.endswith("literal {Input} stays")


def test_with_examples_template_must_have_block_line(tmp_path):
    broken = tmp_path / "broken.txt"
    broken.write_text("没有示例块\n{Input}\n", encoding="utf-8")
    with pytest.raises(TemplateError, match="^template broken: no example block line$"):
        TemplateSet(
            gec_with_examples=load_template(broken),
            gec_without_examples=SET.gec_without_examples,
            gee=SET.gee,
            gee_input_only=SET.gee_input_only,
        )


@pytest.mark.parametrize(
    "key, body, name",
    [
        ("gec_without_examples", "{Inputt}\n", "Inputt"),
        ("gec_with_examples", "{Source #i} {Target #i}\n{Input} {Explanation}\n",
         "Explanation"),
        ("gee_input_only", "{Source}\n", "Source"),
        ("gee", "{Source} {Target} {edits} {error type} {rough explanations}\n",
         "rough explanations"),
    ],
    ids=["typo", "unknown name", "name of another template", "near miss"],
)
def test_template_set_with_a_placeholder_no_prompt_binds_is_rejected(
    tmp_path, key, body, name
):
    path = tmp_path / f"{key}.txt"
    path.write_text(body, encoding="utf-8")
    templates = {**SET.__dict__, key: load_template(path)}
    with pytest.raises(TemplateError, match=f"^template {key}: missing placeholder '{name}'$"):
        TemplateSet(**templates)


def test_template_set_allows_optional_and_example_line_names(tmp_path):
    path = tmp_path / "gec_with_examples.txt"
    path.write_text("{Source #i} {Target #i} {Note}\n{Hint?}\n{Input}\n", encoding="utf-8")
    custom = TemplateSet(**{**SET.__dict__, "gec_with_examples": load_template(path)})
    assert render_gec_prompt("句", [("a", "b")], custom) == "a b {Note}\n句"


# --- explanation prompts ---


def full_pair(**overrides) -> SentencePair:
    fields = dict(
        id="r1",
        source="他是一个很好",
        targets=["他是一个很好的人"],
        error_types=["CM"],
        edits=[[Edit(6, "", "的人")]],
        rough_explanation="句末缺少宾语",
    )
    fields.update(overrides)
    return SentencePair(**fields)


def test_format_edits_golden():
    assert format_edits([Edit(24, "the main reason", "")]) == '[24, "the main reason", ""]'
    assert format_edits([Edit(0, "a", "b"), Edit(3, "", "好")]) == '[0, "a", "b"], [3, "", "好"]'
    assert format_edits([]) == ""


def test_gee_with_edits_binds_tail_fields():
    prompt = render_gee_prompt(full_pair(), "with_edits", SET)
    assert prompt.endswith(
        "Source: 他是一个很好\n"
        "Target: 他是一个很好的人\n"
        'Edits: [6, "", "的人"]\n'
        "Error Type: CM\n"
        "Explanation step by step:"
    )
    assert "Rough explanation:" not in prompt


def test_gee_with_rough_explanation_adds_line():
    prompt = render_gee_prompt(full_pair(), "with_rough_explanation", SET)
    assert "Rough explanation: 句末缺少宾语\n" in prompt
    assert prompt.endswith("Explanation step by step:")


def test_gee_legend_lists_all_error_types():
    for body in (SET.gee.body, SET.gee_input_only.body):
        for code in ERROR_TYPES:
            assert code in body


def test_gee_multiple_error_types_joined():
    pair = full_pair(error_types=["CM", "SC"])
    assert "Error Type: CM, SC\n" in render_gee_prompt(pair, "with_edits", SET)


def test_gee_input_only_uses_source_only():
    pair = SentencePair(id="q", source="这句也许有错", targets=[])
    prompt = render_gee_prompt(pair, "input_only", SET)
    assert prompt.endswith("Source: 这句也许有错\nExplanation step by step:")


def test_gee_missing_fields_raise():
    with pytest.raises(TemplateError, match="missing edits"):
        render_gee_prompt(full_pair(edits=None), "with_edits", SET)
    with pytest.raises(TemplateError, match="missing edits"):
        render_gee_prompt(full_pair(edits=[[]]), "with_edits", SET)
    with pytest.raises(TemplateError, match="missing error_types"):
        render_gee_prompt(full_pair(error_types=[]), "with_edits", SET)
    with pytest.raises(TemplateError, match="missing targets"):
        render_gee_prompt(full_pair(targets=[]), "with_edits", SET)
    with pytest.raises(TemplateError, match="missing rough_explanation"):
        render_gee_prompt(full_pair(rough_explanation=""), "with_rough_explanation", SET)
    with pytest.raises(TemplateError, match="variant"):
        render_gee_prompt(full_pair(), "freestyle", SET)


# --- template mechanics ---


def test_comments_and_trailing_blanks_stripped(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# comment\nbody {X}\n# more\nlast\n\n\n", encoding="utf-8")
    template = load_template(path)
    assert template.body == "body {X}\nlast"


def test_optional_placeholder_not_required(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a {Must}\nb {Maybe?}\n", encoding="utf-8")
    template = load_template(path)
    assert render(template, {"Must": "1"}) == "a 1"
    assert render(template, {"Must": "1", "Maybe": "2"}) == "a 1\nb 2"
    with pytest.raises(TemplateError, match="missing placeholder 'Must'"):
        render(template, {"Maybe": "2"})


def test_missing_required_placeholder_raises(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("needs {Thing}\n", encoding="utf-8")
    with pytest.raises(TemplateError, match="missing placeholder 'Thing'"):
        render(load_template(path), {})


def test_load_template_set_from_directory(tmp_path):
    names = {
        "gec_with_examples.txt": "例 原句：{Source #i} 纠正后：{Target #i}\n{Input}\n",
        "gec_without_examples.txt": "裸 {Input}\n",
        "gee.txt": "全 {Source} {Target} {edits} {error type}\n",
        "gee_input_only.txt": "只 {Input}\n",
    }
    for fname, text in names.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    custom = load_template_set(str(tmp_path))
    assert render_gec_prompt("句", [], custom) == "裸 句"
    assert render_gec_prompt("句", [("a", "b")], custom) == "例 原句：a 纠正后：b\n句"


def test_load_template_set_missing():
    with pytest.raises(TemplateError, match="template set not found"):
        load_template_set("no_such_set")


def test_load_template_set_incomplete_dir(tmp_path):
    (tmp_path / "gec_with_examples.txt").write_text("{Input}\n", encoding="utf-8")
    with pytest.raises(TemplateError, match="template file not found"):
        load_template_set(str(tmp_path))


# --- completion parsing ---


def test_parse_correction_strips_labels_and_whitespace():
    assert parse_correction("纠正后：好句子") == "好句子"
    assert parse_correction("  纠正后: 好句子 \n") == "好句子"
    assert parse_correction("好句子") == "好句子"
    assert parse_correction("\n好句子\n") == "好句子"


def test_parse_correction_strips_one_label_only():
    assert parse_correction("纠正后：纠正后：句") == "纠正后：句"


def test_parse_correction_empty_raises():
    with pytest.raises(ParseError, match="empty completion"):
        parse_correction("")
    with pytest.raises(ParseError, match="empty completion"):
        parse_correction("   \n ")
    with pytest.raises(ParseError, match="empty completion"):
        parse_correction(CORRECTION_LABELS[0])


@settings(max_examples=100, deadline=None)
@given(st.text(st.sampled_from("好句子abc "), min_size=1).filter(lambda s: s.strip()))
def test_parse_correction_round_trip_property(text):
    body = text.strip()
    for label in CORRECTION_LABELS:
        assert parse_correction(label + body) == parse_correction(body)
