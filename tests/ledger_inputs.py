"""Seeded inputs for the output ledger (``tests/test_ledger.py``).

``write_inputs(directory)`` writes every file that the ledger's command lines
read: a train corpus with explanations, a dev corpus, scoring items, edit
pairs, ROUGE lines, and three mock scripts.
- ``explainer.json`` scripts an explanation for each dev input. Half of them
  are near copies of a train explanation, so their gate opens; the rest use
  words no train explanation holds.
- ``corrector.json`` scripts each dev input's reply to the without-examples
  prompt. Most replies are the first target, and some are wrong. Any other
  prompt falls back to its last line, the input.
- ``embed.json`` scripts an 8-bucket character count vector for every text
  that an embedding build or query meets.
- ``big_train.jsonl`` holds ``N_BIG`` explanations, for an index build at
  about the benchmark's scale. They come from their own seeded generator,
  so that no other file depends on them.

The data is small on purpose: a ledger run should add about a second to the
suite.  It is built here, not by ``bench/gen.py``, so that a benchmark
change cannot move a ledger line.  Changing this file moves ledger lines.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from re2gec.corpus import SentencePair
from re2gec.llm_backend import prompt_key
from re2gec.prompting import load_template_set, render_gec_prompt, render_gee_prompt

SEED = 26
N_TRAIN = 40
N_DEV = 12
N_SCORE = 30
N_BIG = 2000

CHARS = (
    "的一是在不了有和人这中大为上个国我以要他时来用们生到作地于出就分对成会可主发年动同工"
    "也能下过子说产种面而方后多定行学法所民得经十三之进着等部度家电力里如水化高自二理起小物"
)
ERROR_PHRASES = (
    "主谓搭配不当", "成分残缺", "成分赘余", "语序不当", "句式杂糅", "不合逻辑", "表意不明",
)
FIXES = ("应当删去", "应当补出", "应当替换为", "应当调换", "应当改为")


def _sentence(rng: random.Random) -> str:
    return "".join(rng.choices(CHARS, k=rng.randint(8, 16)))


def _edited(rng: random.Random, source: str) -> str:
    """``source`` with one substitution, deletion or insertion inside it."""
    at = rng.randint(1, len(source) - 2)
    kind = rng.choice(("sub", "del", "ins"))
    if kind == "sub":
        return source[:at] + rng.choice(CHARS) + source[at + 1:]
    if kind == "del":
        return source[:at] + source[at + 1:]
    return source[:at] + rng.choice(CHARS) + source[at:]


def _explanation(rng: random.Random, words: list[str]) -> str:
    first, second, third = rng.sample(words, 3)
    return (f"{rng.choice(ERROR_PHRASES)}，{first}与{second}不能搭配，"
            f"{rng.choice(FIXES)}{third}使句子通顺")


def _near_copy(rng: random.Random, text: str) -> str:
    chars = list(text)
    chars[rng.randrange(len(chars))] = rng.choice(CHARS)
    return "".join(chars)


def _vector(text: str) -> list[float]:
    return [float(1 + sum(1 for ch in text if ord(ch) % 8 == j)) for j in range(8)]


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_inputs(directory: Path) -> None:
    rng = random.Random(SEED)
    words = ["".join(rng.sample(CHARS, 2)) for _ in range(60)]
    train_words, fresh_words = words[:40], words[40:]

    train = []
    for i in range(N_TRAIN):
        source = _sentence(rng)
        train.append({"id": f"t{i:03d}", "source": source, "targets": [_edited(rng, source)],
                      "explanation": _explanation(rng, train_words)})
    dev, explanations = [], []
    for i in range(N_DEV):
        source = _sentence(rng)
        targets = [_edited(rng, source)] + ([_edited(rng, source)] if i % 3 == 0 else [])
        dev.append({"id": f"d{i:03d}", "source": source, "targets": targets})
        near = i % 2 == 0
        explanations.append(_near_copy(rng, rng.choice(train)["explanation"]) if near
                            else _explanation(rng, fresh_words))
    _write_jsonl(directory / "train.jsonl", train)
    _write_jsonl(directory / "dev.jsonl", dev)

    templates = load_template_set("default")
    explainer, corrector = {}, {}
    for i, (rec, explanation) in enumerate(zip(dev, explanations)):
        pair = SentencePair(id="", source=rec["source"], targets=[rec["source"]])
        explainer[prompt_key(render_gee_prompt(pair, "input_only", templates))] = explanation
        reply = rec["targets"][0] if i % 4 != 3 else _edited(rng, rec["source"])
        corrector[prompt_key(render_gec_prompt(rec["source"], [], templates))] = reply
    texts = [rec["explanation"] for rec in train] + explanations
    embed = {prompt_key(text): _vector(text) for text in texts}
    for name, script in (("explainer", explainer), ("corrector", corrector), ("embed", embed)):
        (directory / f"{name}.json").write_text(
            json.dumps(script, ensure_ascii=False, sort_keys=True), encoding="utf-8"
        )

    score_src, hyps = [], []
    for i in range(N_SCORE):
        source = _sentence(rng)
        targets = [_edited(rng, source) for _ in range(1 + i % 2)]
        score_src.append({"id": f"s{i:03d}", "source": source, "targets": targets})
        hyps.append((targets[0], source, _edited(rng, source))[i % 3])
    _write_jsonl(directory / "score_src.jsonl", score_src)
    _write_lines(directory / "score_hyp.txt", hyps)
    _write_lines(directory / "cand.txt", hyps)
    _write_lines(directory / "ref.txt", [rec["targets"][-1] for rec in score_src])

    pairs = [{"source": rec["source"], "target": rec["targets"][0]} for rec in score_src[:10]]
    spaced = [" ".join(_sentence(rng)[:6]) for _ in range(5)]
    pairs += [{"source": text, "target": _edited(rng, text)} for text in spaced]
    _write_jsonl(directory / "pairs.jsonl", pairs)

    big_rng = random.Random(SEED + 1)
    big_words = ["".join(big_rng.sample(CHARS, 2)) for _ in range(400)]
    big = [{"id": f"b{i:04d}", "source": source, "targets": [_edited(big_rng, source)],
            "explanation": f"{_explanation(big_rng, big_words)}，原句{source}"}
           for i, source in enumerate(_sentence(big_rng) for _ in range(N_BIG))]
    _write_jsonl(directory / "big_train.jsonl", big)
