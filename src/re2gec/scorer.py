"""Edit-based correction scoring, ROUGE-L, and error-detection metrics.

Correction quality compares character-level edit scripts (always character
segmentation, independent of whatever segmenter the pipeline used): an edit
counts as a true positive only when its (offset, original, replacement)
triple appears in the reference script.  Each sentence is scored against its
best reference (highest F0.5, ties to higher tp then lower reference index).
``score_sentence`` extracts the edit sets and hands them to ``score_triples``,
which callers that score one set of references many times use directly.
``score_corpus`` micro-averages the tp/fp/fn counts of those sentence scores,
so per-sentence and corpus reports share one scoring pass.

Zero-denominator conventions: a sentence with neither predicted nor gold
edits scores P = R = F = 1; a side with an undefined ratio otherwise scores
0.  Corpus-level precision (recall) is 1.0 when tp+fp (tp+fn) is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .edit_extract import char_level_edits, lcs_length


def f_beta(precision: float, recall: float, beta: float) -> float:
    """Weighted harmonic mean; 0.0 when the denominator is zero."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def _prf(tp: int, fp: int, fn: int, beta: float) -> tuple[float, float, float]:
    """Sentence-level convention: perfect when both sides are empty, else 0 for an undefined side."""
    if tp + fp == 0 and tp + fn == 0:
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, f_beta(p, r, beta)


def edit_triples(source: str, text: str) -> frozenset[tuple[int, str, str]]:
    """(offset, original, replacement) of each character-level edit from source to text."""
    return frozenset(char_level_edits(source, text))


@dataclass(frozen=True)
class SentenceScore:
    tp: int
    fp: int
    fn: int
    chosen_reference: int  # 0-based index of the best-scoring reference


def score_triples(
    hypothesis: frozenset[tuple[int, str, str]],
    references: Sequence[frozenset[tuple[int, str, str]]],
) -> SentenceScore:
    """Score ``edit_triples`` of a hypothesis against those of each reference; keep the best."""
    if not references:
        raise ValueError("references must be non-empty")
    scores = [
        SentenceScore(len(hypothesis & gold), len(hypothesis - gold), len(gold - hypothesis), idx)
        for idx, gold in enumerate(references)
    ]
    # max() keeps the first of equal keys, so ties go to the lower index.
    return max(scores, key=lambda s: (_prf(s.tp, s.fp, s.fn, 0.5)[2], s.tp))


def score_sentence(source: str, hypothesis: str, references: Sequence[str]) -> SentenceScore:
    """Score one hypothesis against its best reference by exact edit-triple overlap."""
    hyp = edit_triples(source, hypothesis)
    return score_triples(hyp, [edit_triples(source, reference) for reference in references])


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_half: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalReport":
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        return cls(tp, fp, fn, precision, recall, f_beta(precision, recall, 0.5))


def score_corpus(scores: Iterable[SentenceScore]) -> EvalReport:
    """Micro-averaged report over the ``score_sentence`` results of a corpus."""
    tp = fp = fn = 0
    for s in scores:
        tp += s.tp
        fp += s.fp
        fn += s.fn
    return EvalReport.from_counts(tp, fp, fn)


def rouge_l(candidate: str, reference: str) -> tuple[float, float, float]:
    """Character-level ROUGE-L (precision, recall, f1); empty sides score 0.

    The LCS length comes from ``lcs_length``: the common prefix and suffix
    count as matched, and the bit-parallel kernel that edit extraction also
    uses runs over the middles alone.  Edit extraction skips the kernel for
    middles that share no symbol; here that check would cost about what the
    short kernel run costs, so there is none.  F1 is computed as
    2*lcs/(len(candidate)+len(reference)), the exact harmonic mean of the two
    length ratios, so desk-check values like 0.75 come out float-exact.
    """
    lcs = lcs_length(candidate, reference)
    precision = lcs / len(candidate) if candidate else 0.0
    recall = lcs / len(reference) if reference else 0.0
    f1 = 2 * lcs / (len(candidate) + len(reference)) if lcs else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class DetectionReport:
    sentence_precision: float
    sentence_recall: float
    sentence_f1: float
    position_precision: float
    position_recall: float
    position_f1: float

    def to_dict(self) -> dict:
        return {
            "sentence_level": {
                "precision": self.sentence_precision,
                "recall": self.sentence_recall,
                "f1": self.sentence_f1,
            },
            "position_level": {
                "precision": self.position_precision,
                "recall": self.position_recall,
                "f1": self.position_f1,
            },
        }


def _edit_positions(source: str, text: str) -> frozenset[int]:
    positions = set()
    for e in char_level_edits(source, text):
        if e.original:
            positions.update(range(e.offset, e.offset + len(e.original)))
        else:
            positions.add(e.offset)
    return frozenset(positions)


def _ratio(numer: int, denom: int) -> float:
    return numer / denom if denom else 1.0


def detection_metrics(
    items: Sequence[tuple[str, str, Sequence[str]]]
) -> DetectionReport:
    """Sentence- and position-level detection scores over (source, hypothesis, gold targets).

    Sentence level treats a sentence as predicted-erroneous iff the hypothesis
    differs from the source, and gold-erroneous iff every gold target differs
    from the source.  Position level compares the character-offset sets touched
    by the hypothesis edits against those of the gold target with the largest
    overlap, micro-averaged over sentences.
    """
    s_tp = s_fp = s_fn = 0
    p_tp = p_fp = p_fn = 0
    for source, hypothesis, targets in items:
        if not targets:
            raise ValueError("gold targets must be non-empty")
        predicted = hypothesis != source
        gold = all(t != source for t in targets)
        if predicted and gold:
            s_tp += 1
        elif predicted:
            s_fp += 1
        elif gold:
            s_fn += 1

        pred_pos = _edit_positions(source, hypothesis)
        # The first target with the largest overlap, as max() keeps the first.
        best_gold = max(
            (_edit_positions(source, t) for t in targets), key=lambda g: len(pred_pos & g)
        )
        p_tp += len(pred_pos & best_gold)
        p_fp += len(pred_pos - best_gold)
        p_fn += len(best_gold - pred_pos)

    sp = _ratio(s_tp, s_tp + s_fp)
    sr = _ratio(s_tp, s_tp + s_fn)
    pp = _ratio(p_tp, p_tp + p_fp)
    pr = _ratio(p_tp, p_tp + p_fn)
    return DetectionReport(
        sentence_precision=sp,
        sentence_recall=sr,
        sentence_f1=f_beta(sp, sr, 1.0),
        position_precision=pp,
        position_recall=pr,
        position_f1=f_beta(pp, pr, 1.0),
    )
