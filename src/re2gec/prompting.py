"""Prompt template loading, rendering, and completion parsing.

Templates are UTF-8 text files.  Lines starting with ``#`` are comments and
are stripped at load time.  ``{Name}`` marks a required placeholder and
``{Name?}`` an optional one: a line containing an unbound optional
placeholder is elided from the rendered prompt, while an unbound required
placeholder is an error.  A line containing ``{Source #i}`` or
``{Target #i}`` is an example block: it is repeated once per retrieved
example, in rank order.  A ``TemplateSet`` is checked when it is made: a
required placeholder that none of its template's prompts binds, or a
with-examples template with no example block line, fails there, before any
input is rendered.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .corpus import SentencePair
from .errors import ParseError, TemplateError, decode_text

GEE_VARIANTS = ("with_edits", "with_rough_explanation", "input_only")

# Answer labels stripped from completions before returning the correction.
CORRECTION_LABELS = ("纠正后：", "纠正后:")

_PLACEHOLDER = re.compile(r"\{([^{}?]+)(\?)?\}")
_EXAMPLE_MARKS = ("{Source #i}", "{Target #i}")

_TEMPLATE_FILES = {
    "gec_with_examples": "gec_with_examples.txt",
    "gec_without_examples": "gec_without_examples.txt",
    "gee": "gee.txt",
    "gee_input_only": "gee_input_only.txt",
}
# Per template, the names that some prompt of it binds (render_gec_prompt, render_gee_prompt).
_BOUND_NAMES = {
    "gec_with_examples": {"Input"},
    "gec_without_examples": {"Input"},
    "gee": {"Source", "Target", "edits", "error type", "rough explanation"},
    "gee_input_only": {"Input"},
}


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str


@dataclass(frozen=True)
class TemplateSet:
    gec_with_examples: PromptTemplate
    gec_without_examples: PromptTemplate
    gee: PromptTemplate
    gee_input_only: PromptTemplate

    def __post_init__(self):
        """Reject a set that no input could render: checked once, not per prompt."""
        for key, names in _BOUND_NAMES.items():
            render(getattr(self, key), dict.fromkeys(names, ""))
        if not any(map(_is_example_line, self.gec_with_examples.body.split("\n"))):
            raise TemplateError(f"template {self.gec_with_examples.name}: no example block line")


def _is_example_line(line: str) -> bool:
    return any(mark in line for mark in _EXAMPLE_MARKS)


def load_template(path: str | Path) -> PromptTemplate:
    path = Path(path)
    if not path.is_file():
        raise TemplateError(f"template file not found: {path}")
    text = decode_text(
        path.read_bytes(), f"template {path}", TemplateError, universal_newlines=True
    )
    lines = [line for line in text.split("\n") if not line.startswith("#")]
    while lines and not lines[-1]:
        lines.pop()
    return PromptTemplate(name=path.stem, body="\n".join(lines))


def load_template_set(name_or_dir: str = "default") -> TemplateSet:
    """Load the four templates of a set, by packaged set name or directory path."""
    packaged = resources.files("re2gec") / "templates" / name_or_dir
    base = Path(str(packaged)) if packaged.is_dir() else Path(name_or_dir)
    if not base.is_dir():
        raise TemplateError(f"template set not found: {name_or_dir!r}")
    loaded = {key: load_template(base / fname) for key, fname in _TEMPLATE_FILES.items()}
    return TemplateSet(**loaded)


def _render_line(template_name: str, line: str, bindings: dict) -> str | None:
    pieces = []
    last = 0
    for match in _PLACEHOLDER.finditer(line):
        name, optional = match.group(1), match.group(2) is not None
        if name not in bindings:
            if optional:
                return None
            raise TemplateError(f"template {template_name}: missing placeholder {name!r}")
        pieces.append(line[last : match.start()])
        pieces.append(str(bindings[name]))
        last = match.end()
    pieces.append(line[last:])
    return "".join(pieces)


def render(
    template: PromptTemplate,
    bindings: dict,
    examples: Sequence[tuple[str, str]] = (),
) -> str:
    """Render a template against bindings, expanding example block lines."""
    out = []
    for line in template.body.split("\n"):
        if _is_example_line(line):
            for source, target in examples:
                out.append(line.replace("{Source #i}", source).replace("{Target #i}", target))
            continue
        rendered = _render_line(template.name, line, bindings)
        if rendered is not None:
            out.append(rendered)
    return "\n".join(out)


def render_gec_prompt(
    input_text: str,
    examples: Sequence[tuple[str, str]],
    template_set: TemplateSet,
) -> str:
    """Correction prompt: with-examples when examples are given, without otherwise."""
    if not examples:
        return render(template_set.gec_without_examples, {"Input": input_text})
    return render(template_set.gec_with_examples, {"Input": input_text}, examples=examples)


def format_edits(edits) -> str:
    """Edit list as '[offset, "original", "replacement"]' segments."""
    return ", ".join(json.dumps(edit, ensure_ascii=False) for edit in edits)


def render_gee_prompt(pair: SentencePair, variant: str, template_set: TemplateSet) -> str:
    """Explanation-generation prompt for one record, in the requested variant."""
    if variant not in GEE_VARIANTS:
        raise TemplateError(f"unknown explanation prompt variant {variant!r}")
    if variant == "input_only":
        return render(template_set.gee_input_only, {"Input": pair.source})
    if not pair.targets:
        raise TemplateError(f"record {pair.id}: missing targets")
    if not pair.edits or not pair.edits[0]:
        raise TemplateError(f"record {pair.id}: missing edits")
    if not pair.error_types:
        raise TemplateError(f"record {pair.id}: missing error_types")
    bindings = {
        "Source": pair.source,
        "Target": pair.targets[0],
        "edits": format_edits(pair.edits[0]),
        "error type": ", ".join(t.value for t in pair.error_types),
    }
    if variant == "with_rough_explanation":
        if not pair.rough_explanation:
            raise TemplateError(f"record {pair.id}: missing rough_explanation")
        bindings["rough explanation"] = pair.rough_explanation
    return render(template_set.gee, bindings)


def parse_correction(response: str) -> str:
    """Extract the corrected sentence from a completion.

    Trims surrounding whitespace and strips a leading answer label when
    present.  Raises ParseError when nothing remains.
    """
    text = response.strip()
    for label in CORRECTION_LABELS:
        if text.startswith(label):
            text = text[len(label) :].strip()
            break
    if not text:
        raise ParseError("empty completion")
    return text
