"""Minimal edit scripts between a source sentence and a corrected target.

Alignment is a longest common subsequence with a canonical tie-break
(always match equal symbols at the earliest positions; when skipping,
consume the source side first), so the same input always yields the same
script.  The common prefix and suffix are pinned before the LCS runs.

Character mode (``char_level_edits``, and ``extract_edits`` under a
character segmenter) emits edits straight from the traceback: each gap
between consecutive matched characters is one edit as it stands.  No gap
needs trimming there, since a gap whose two sides began or ended with the
same character would leave a longer common subsequence.

Whitespace and external modes align segmenter tokens.  Matched tokens anchor
the alignment, and the character gaps between consecutive anchors become
edits after trimming the characters the gap shares on both sides (this keeps
unchanged separators out of edit spans).  In every mode each gap between
consecutive matches yields at most one Edit.

LCS lengths come from one bit-parallel kernel, shared with ``scorer.rouge_l``
(Allison & Dix, IPL 1986; Hyyrö, 2004); the traceback reads suffix LCS
lengths off its rows over the reversed sequences by popcount.  The kernel
sees only the middles: ``_affixes`` finds the common prefix and suffix by
halving (slice comparisons, not one element per step), and ``lcs_length``
as well as the alignments count them as matched outright.  Middles that
share no symbol have no match, so ``_lcs_pairs`` returns none without running
the kernel, and such a pair is one edit.

Offsets are 0-based Unicode character offsets into the source sentence, and
``apply_edits(source, extract_edits(source, target, cfg)) == target`` holds
for every segmenter mode.

This module owns ``Edit``: a plain ``(offset, original, replacement)``
tuple, so an edit is already the triple that a corpus file, the
``extract-edits`` output, an explanation prompt and the scorer's edit sets
hold.  Building one checks nothing; ``corpus`` checks each edit a file
holds, and ``apply_edits`` rejects a script that does not fit its source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import EditError

if TYPE_CHECKING:
    from .segmentation import SegmenterConfig


class Edit(NamedTuple):
    """One span substitution: replace source[offset:offset+len(original)] with replacement."""

    offset: int
    original: str
    replacement: str


def _lcs_rows(a: Sequence[str], b: Sequence[str]) -> list[int]:
    """``rows[i]`` has bit j clear iff LCS(a[:i], b[:j + 1]) > LCS(a[:i], b[:j]).

    Hence LCS(a[:i], b[:j]) == j - popcount(rows[i] & (2**j - 1)).  The match
    masks are keyed by symbol, so token lists work as well as strings.
    """
    masks: dict = {}
    for j, symbol in enumerate(b):
        masks[symbol] = masks.get(symbol, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    rows = [v]
    for symbol in a:
        m = masks.get(symbol)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
        rows.append(v)
    return rows


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of a longest common subsequence of a and b.

    The common prefix and suffix belong to every LCS, so they count outright and
    the kernel runs over the middles alone.
    """
    pre, suf = _affixes(a, b)
    mid_b = b[pre : len(b) - suf]
    return pre + suf + len(mid_b) - _lcs_rows(a[pre : len(a) - suf], mid_b)[-1].bit_count()


def _lcs_pairs(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int]]:
    """Matched index pairs of one LCS, canonical under the greedy tie-break.

    Sequences that share no symbol have none, and skip the kernel.
    """
    if set(a).isdisjoint(b):
        return []
    la, lb = len(a), len(b)
    # LCS(a[i:], b[j:]) == n - popcount(rows[la - i] & mask), where n = lb - j, mask = 2**n - 1.
    rows = _lcs_rows(a[::-1], b[::-1])
    pairs = []
    i = j = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            # Matching equal heads is always LCS-optimal.
            pairs.append((i, j))
            i += 1
            j += 1
            continue
        # With n = lb - j: skip a[i] iff LCS(a[i+1:], b[j:]) >= LCS(a[i:], b[j+1:]),
        # that is n - popcount(rows[la-i-1] & mask) >= n - 1 - popcount(rows[la-i] & mask >> 1).
        mask = (1 << (lb - j)) - 1
        if (rows[la - i - 1] & mask).bit_count() <= (rows[la - i] & mask >> 1).bit_count() + 1:
            i += 1
        else:
            j += 1
    return pairs


def _affixes(a: Sequence[str], b: Sequence[str]) -> tuple[int, int]:
    """Lengths of the common prefix and of the common suffix that does not overlap it.

    Each is found by halving: a step compares two slices, not two elements.
    """
    la, lb = len(a), len(b)
    pre, hi = 0, min(la, lb)  # a[:pre] == b[:pre], and no common prefix is longer than hi
    while pre < hi:
        mid = (pre + hi + 1) // 2
        if a[pre:mid] == b[pre:mid]:
            pre = mid
        else:
            hi = mid - 1
    suf, hi = 0, min(la, lb) - pre  # likewise for the suffixes, short of the prefix
    while suf < hi:
        mid = (suf + hi + 1) // 2
        if a[la - mid : la - suf] == b[lb - mid : lb - suf]:
            suf = mid
        else:
            hi = mid - 1
    return pre, suf


def _match_pairs(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int]]:
    """LCS match pairs with common prefix/suffix pinned before the kernel runs."""
    la, lb = len(a), len(b)
    pre, suf = _affixes(a, b)
    pairs = [(i, i) for i in range(pre)]
    pairs.extend((pre + i, pre + j) for i, j in _lcs_pairs(a[pre : la - suf], b[pre : lb - suf]))
    pairs.extend((la - suf + n, lb - suf + n) for n in range(suf))
    return pairs


def _edits_from_alignment(
    source: str,
    target: str,
    pairs: list[tuple[int, int]],
    s_spans: Sequence[tuple[int, int]],
    t_spans: Sequence[tuple[int, int]],
) -> list[Edit]:
    edits = []
    prev_s = prev_t = 0
    anchors = [(s_spans[i], t_spans[j]) for i, j in pairs]
    anchors.append(((len(source), len(source)), (len(target), len(target))))
    for (s_start, s_end), (t_start, t_end) in anchors:
        gap_s = source[prev_s:s_start]
        gap_t = target[prev_t:t_start]
        if gap_s != gap_t:
            # Drop the characters the gap shares on both ends.
            p, q = _affixes(gap_s, gap_t)
            edits.append(Edit(prev_s + p, gap_s[p : len(gap_s) - q], gap_t[p : len(gap_t) - q]))
        prev_s, prev_t = s_end, t_end
    return edits


def extract_edits(source: str, target: str, config: SegmenterConfig) -> list[Edit]:
    """Extract the canonical minimal edit script turning source into target.

    Returns edits sorted ascending by offset with pairwise non-overlapping
    source spans; empty iff source == target.
    """
    if config.mode == "character":
        return char_level_edits(source, target)
    if source == target:
        return []
    from .segmentation import segment  # here: character mode and scoring need no segmenter

    source_tokens = segment(source, config)
    target_tokens = segment(target, config)
    pairs = _match_pairs(
        [t.text for t in source_tokens], [t.text for t in target_tokens]
    )
    return _edits_from_alignment(
        source,
        target,
        pairs,
        [(t.start, t.end) for t in source_tokens],
        [(t.start, t.end) for t in target_tokens],
    )


def char_level_edits(source: str, target: str) -> list[Edit]:
    """Edit script under forced character segmentation, whatever config a caller uses elsewhere.

    One edit per gap between consecutive LCS matches of the text between the
    common prefix and suffix, untrimmed (see the module docstring).
    """
    if source == target:
        return []
    pre, suf = _affixes(source, target)
    a, b = source[pre : len(source) - suf], target[pre : len(target) - suf]
    edits = []
    i = j = 0
    for mi, mj in _lcs_pairs(a, b):
        if mi != i or mj != j:
            edits.append(Edit(pre + i, a[i:mi], b[j:mj]))
        i, j = mi + 1, mj + 1
    if i < len(a) or j < len(b):
        edits.append(Edit(pre + i, a[i:], b[j:]))
    return edits


def apply_edits(source: str, edits: Sequence[Edit]) -> str:
    """Apply a sorted, non-overlapping edit script by right-to-left span substitution."""
    prev_end = 0
    for e in edits:
        if e.offset < 0:
            raise EditError(f"edit offset must be >= 0, got {e.offset}")
        if e.offset < prev_end:
            raise EditError(f"edits overlap or are unsorted at offset {e.offset}")
        end = e.offset + len(e.original)
        if end > len(source):
            raise EditError(
                f"edit out of range: offset {e.offset} + {len(e.original)} > {len(source)}"
            )
        if source[e.offset : end] != e.original:
            raise EditError(
                f"edit original mismatch at offset {e.offset}: "
                f"expected {e.original!r}, found {source[e.offset:end]!r}"
            )
        prev_end = end
    result = source
    for e in reversed(edits):
        end = e.offset + len(e.original)
        result = result[: e.offset] + e.replacement + result[end:]
    return result
