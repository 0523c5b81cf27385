"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of the seed.  Two kinds of input:

* Explanation corpora shaped like the paper's error explanations: a head
  naming the error type, connective phrases such as "应当……使句子……" that
  every document carries, quoted words, and quoted fragments of the source
  and target sentences (whose characters follow a 1/rank frequency).  The
  shared phrases put every corpus document on the postings lists of every
  query.  Dev inputs come in two designed halves: a *near-copy* explanation
  (a train explanation with its closing phrase swapped) that opens the
  theta = 0.6 gate (best cosine above 0.9), and a *fresh* one quoting words
  no train explanation uses, which keeps it closed (best cosine below 0.5).
* Scoring triples (source, hypothesis, 1-2 targets) whose edit scripts are
  known by construction.  Every sentence is made of distinct characters and
  every inserted character is new to it, with at least one untouched
  character between edits, so the LCS alignment is unique and the scorer's
  edit scripts equal the designed ones.  That gives expected scores that do
  not depend on the scorer itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ERROR_TYPES = {
    "IWO": "语序不当",
    "IWC": "搭配不当",
    "CM": "成分残缺",
    "CR": "成分赘余",
    "SC": "结构混乱",
    "ILL": "不合逻辑",
    "AM": "表意不明",
}

# One body per error type; {a} {b} {c} are quoted words.
_BODIES = {
    "IWO": "句中“{a}”和“{b}”的语序不当，应当把“{b}”放在“{a}”之前，使句子语序合理。",
    "IWC": "句中“{a}”与“{b}”搭配不当，应当将“{a}”改为“{c}”，使句子搭配得当。",
    "CM": "句中“{a}”后面缺少“{b}”，应当在“{a}”之后补充“{b}”，使句子成分完整。",
    "CR": "句中“{a}”和“{b}”语义重复，应当删除“{a}”，使句子简洁明了。",
    "SC": "句中“{a}”和“{b}”两种句式杂糅在一起，应当删除“{c}”，使句子结构清晰。",
    "ILL": "句中“{a}”与“{b}”前后矛盾，应当删去“{c}”，使句子符合逻辑。",
    "AM": "句中“{a}”指代不明，可能指“{b}”也可能指“{c}”，应当改为“{b}”，使句子表意明确。",
}

_CLOSINGS = (
    "修改后句子通顺，意思清楚。",
    "因此需要按照上述方法进行修改。",
    "这样修改以后，句子的表达更加准确。",
    "所以原句属于典型的病句。",
    "按照这种改法，句子就没有语法错误了。",
)

# CJK Unified Ideographs; sentence and word characters are drawn from here.
_CJK_FIRST, _CJK_LAST = 0x4E00, 0x9FA5


def _char_pool(rng: random.Random, size: int) -> list[str]:
    return [chr(c) for c in rng.sample(range(_CJK_FIRST, _CJK_LAST + 1), size)]


def _words(rng: random.Random, chars: list[str], n: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < n:
        word = rng.choice(chars) + rng.choice(chars)
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _explanation(rng: random.Random, words: list[str], source: str, target: str) -> str:
    code = rng.choice(sorted(ERROR_TYPES))
    a, b, c = rng.sample(words, 3)
    start = rng.randrange(len(source) - 10)
    head = (
        f"这个句子存在{ERROR_TYPES[code]}（{code}）的语法错误，"
        f"问题出在“{source[start:start + 10]}”附近。"
    )
    body = _BODIES[code].format(a=a, b=b, c=c)
    return head + body + f"句末应改为“{target[-8:]}”。" + rng.choice(_CLOSINGS)


def _near_copy(rng: random.Random, text: str) -> str:
    """Same head and quoted words, another closing phrase."""
    for closing in _CLOSINGS:
        if text.endswith(closing):
            others = [c for c in _CLOSINGS if c != closing]
            return text[: -len(closing)] + rng.choice(others)
    raise ValueError("explanation has no known closing phrase")


def _zipf_weights(n: int) -> list[float]:
    """Cumulative 1/rank weights: character frequencies in running text."""
    total, cum = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank
        cum.append(total)
    return cum


def _sentence(rng: random.Random, chars: list[str], cum: list[float]) -> str:
    return "".join(rng.choices(chars, cum_weights=cum, k=rng.randint(15, 35)))


@dataclass
class CorrectionSet:
    """A train corpus with explanations and dev inputs with scripted replies."""

    train: list[dict]            # gee corpus records
    dev: list[dict]              # gec corpus records
    explanations: list[str]      # scripted explainer reply per dev input
    corrections: list[str]       # scripted corrector reply per dev input
    near_copy: list[bool]        # designed gate decision per dev input


def correction_set(seed: int, n_train: int, n_dev: int) -> CorrectionSet:
    """Train explanations and a dev set split half near-copy, half fresh."""
    rng = random.Random(seed)
    chars = _char_pool(rng, 3000)
    cum = _zipf_weights(len(chars))
    n_words = max(1000, n_train)
    words = _words(rng, chars, 2 * n_words)
    # Train explanations quote the first half of the words, fresh dev
    # explanations only the second half.
    train_words, fresh_words = words[:n_words], words[n_words:]
    train = []
    for i in range(n_train):
        source = _sentence(rng, chars, cum)
        target = source[:-1] + rng.choice(chars)
        train.append(
            {
                "id": f"t{i:05d}",
                "source": source,
                "targets": [target],
                "explanation": _explanation(rng, train_words, source, target),
            }
        )
    dev, explanations, corrections, near = [], [], [], []
    seen_sources: set[str] = set()
    for i in range(n_dev):
        source = _sentence(rng, chars, cum)
        while source in seen_sources:
            source = _sentence(rng, chars, cum)
        seen_sources.add(source)
        target = source[:-1] + rng.choice(chars)
        is_near = i % 2 == 0
        if is_near:
            explanation = _near_copy(rng, rng.choice(train)["explanation"])
        else:
            explanation = _explanation(rng, fresh_words, source, target)
        dev.append({"id": f"d{i:04d}", "source": source, "targets": [target]})
        explanations.append(explanation)
        corrections.append(target)
        near.append(is_near)
    return CorrectionSet(train, dev, explanations, corrections, near)


@dataclass
class ScoreItem:
    source: str
    hypothesis: str
    targets: list[str]
    hyp_edits: list[tuple[int, str, str]]
    target_edits: list[list[tuple[int, str, str]]]


def _apply(source: str, edits: list[tuple[int, str, str]]) -> str:
    out = source
    for offset, original, replacement in sorted(edits, reverse=True):
        out = out[:offset] + replacement + out[offset + len(original):]
    return out


def _candidate_edits(
    rng: random.Random, source: str, fresh: list[str], n: int
) -> list[tuple[int, str, str]]:
    """Up to n edits on separate slots, with a kept character on each side.

    ``fresh`` supplies characters absent from the source; each is used once.
    """
    edits = []
    taken: set[int] = set()
    for _ in range(n * 4):
        if len(edits) == n:
            break
        kind = rng.choice(("sub", "del", "ins"))
        span = 0 if kind == "ins" else rng.randint(1, 2)
        offset = rng.randint(1, len(source) - span - 1)
        # Guard characters offset-1 and offset+span stay untouched.
        slot = set(range(offset - 1, offset + span + 1))
        if slot & taken:
            continue
        taken |= slot
        original = source[offset: offset + span]
        if kind == "del":
            replacement = ""
        else:
            replacement = "".join(fresh.pop() for _ in range(rng.randint(1, 2)))
        edits.append((offset, original, replacement))
    return sorted(edits)


def score_items(seed: int, n: int) -> list[ScoreItem]:
    """Seeded (source, hypothesis, targets) triples with known edit scripts.

    Sentences hold 20-60 distinct characters and each target 0-3 edits.  The
    hypothesis keeps a random subset of the first target's edits, gets a
    wrong replacement on some of them, and may add a spurious edit.
    """
    rng = random.Random(seed)
    pool = [chr(c) for c in range(_CJK_FIRST, _CJK_FIRST + 3500)]
    items = []
    for _ in range(n):
        chars = rng.sample(pool, 72)
        length = rng.randint(20, 60)
        source, fresh = "".join(chars[:length]), chars[length:]
        cands = _candidate_edits(rng, source, fresh, 4)
        gold = cands[: rng.randint(0, min(3, len(cands)))]
        targets_edits = [gold]
        if rng.random() < 0.5:
            # A second reference: drop one gold edit or use a spare slot.
            alt = list(gold)
            if alt and rng.random() < 0.5:
                alt.pop(rng.randrange(len(alt)))
            elif len(cands) > len(gold):
                alt = sorted(alt + [cands[len(gold)]])
            targets_edits.append(alt)
        hyp = []
        for edit in gold:
            roll = rng.random()
            if roll < 0.6:
                hyp.append(edit)
            elif roll < 0.8 and edit[2] and fresh:
                hyp.append((edit[0], edit[1], fresh.pop()))
        if len(cands) > len(gold) and rng.random() < 0.3:
            hyp.append(cands[-1])
        hyp.sort()
        items.append(
            ScoreItem(
                source=source,
                hypothesis=_apply(source, hyp),
                targets=[_apply(source, e) for e in targets_edits],
                hyp_edits=hyp,
                target_edits=targets_edits,
            )
        )
    return items
