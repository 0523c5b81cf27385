import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from re2gec.errors import SegmentationError
from re2gec.segmentation import (
    SegmenterConfig,
    Token,
    close_external_segmenters,
    segment,
)

# Child process segmenting each line into its characters (space-joined).
ECHO_CHARS_CMD = (
    f"{sys.executable} -u -c \"import sys\n"
    "for line in sys.stdin:\n"
    "    line = line.rstrip('\\n')\n"
    "    print(' '.join(line))\n"
    "    sys.stdout.flush()\""
)
# The same, except that a line holding X hangs the child.
HANG_ON_X_CMD = (
    f"{sys.executable} -u -c \"import sys, time\n"
    "for line in sys.stdin:\n"
    "    if 'X' in line: time.sleep(60)\n"
    "    print(' '.join(line.rstrip('\\n')))\n"
    "    sys.stdout.flush()\""
)


def assert_covering(text: str, tokens: list[Token], separators_allowed: bool):
    prev_end = 0
    for tok in tokens:
        assert tok.start <= tok.end
        assert text[tok.start : tok.end] == tok.text
        assert tok.start >= prev_end
        gap = text[prev_end : tok.start]
        assert separators_allowed or gap == ""
        assert gap.strip() == ""
        prev_end = tok.end
    tail = text[prev_end:]
    assert separators_allowed or tail == ""
    assert tail.strip() == ""


def test_character_mode_one_token_per_char(char_cfg):
    tokens = segment("a b", char_cfg)
    assert tokens == [Token("a", 0, 1), Token(" ", 1, 2), Token("b", 2, 3)]


def test_character_mode_handles_empty(char_cfg):
    assert segment("", char_cfg) == []


def test_whitespace_mode_tokens_and_offsets(ws_cfg):
    tokens = segment("  the cat\tsat ", ws_cfg)
    assert [t.text for t in tokens] == ["the", "cat", "sat"]
    assert [(t.start, t.end) for t in tokens] == [(2, 5), (6, 9), (10, 13)]


def test_config_validation():
    with pytest.raises(ValueError, match="unknown segmenter mode"):
        SegmenterConfig(mode="bytes")
    with pytest.raises(ValueError, match="requires external_command"):
        SegmenterConfig(mode="external")
    with pytest.raises(ValueError, match="only valid in external mode"):
        SegmenterConfig(mode="character", external_command="cat")


@settings(max_examples=100, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=60))
def test_character_mode_covers_any_text(text):
    cfg = SegmenterConfig(mode="character")
    tokens = segment(text, cfg)
    assert len(tokens) == len(text)
    assert_covering(text, tokens, separators_allowed=False)


@settings(max_examples=100, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=60))
def test_whitespace_mode_separator_convention(text):
    cfg = SegmenterConfig(mode="whitespace")
    tokens = segment(text, cfg)
    assert_covering(text, tokens, separators_allowed=True)
    for tok in tokens:
        assert tok.text.strip() == tok.text and tok.text


def test_segment_deterministic(char_cfg, ws_cfg):
    for cfg in (char_cfg, ws_cfg):
        assert segment("同一个 输入", cfg) == segment("同一个 输入", cfg)


@pytest.fixture
def hang_cfg():
    cfg = SegmenterConfig(mode="external", external_command=HANG_ON_X_CMD, external_timeout=0.5)
    yield cfg
    close_external_segmenters()


@pytest.fixture
def ext_cfg():
    cfg = SegmenterConfig(mode="external", external_command=ECHO_CHARS_CMD)
    yield cfg
    close_external_segmenters()


def test_external_mode_character_echo(ext_cfg):
    tokens = segment("病句呀", ext_cfg)
    assert [t.text for t in tokens] == ["病", "句", "呀"]
    assert_covering("病句呀", tokens, separators_allowed=False)


def test_external_mode_drops_spaces_and_keeps_offsets(ext_cfg):
    # The protocol's separator is a space, so the child may drop the line's spaces.
    text = " IWO  语序不当 "
    tokens = segment(text, ext_cfg)
    assert [t.text for t in tokens] == list("IWO语序不当")
    assert [t.start for t in tokens] == [1, 2, 3, 6, 7, 8, 9]
    assert_covering(text, tokens, separators_allowed=True)


def test_external_mode_empty_input(ext_cfg):
    assert segment("", ext_cfg) == []


def _segmenter(cfg):
    from re2gec import segmentation

    return segmentation._external_registry[cfg.external_command, cfg.external_timeout]


def test_external_mode_reuses_one_process(ext_cfg):
    from re2gec import segmentation

    segment("甲", ext_cfg)
    first, pid = dict(segmentation._external_registry), _segmenter(ext_cfg)._proc.pid
    segment("乙", ext_cfg)
    assert dict(segmentation._external_registry) == first
    assert _segmenter(ext_cfg)._proc.pid == pid


def test_external_mode_restarts_its_child_after_a_timeout(hang_cfg):
    # The registry keeps the same segmenter; the segmenter starts a new child.
    assert [t.text for t in segment("甲", hang_cfg)] == ["甲"]
    seg = _segmenter(hang_cfg)
    pid = seg._proc.pid
    with pytest.raises(SegmentationError, match="timed out after 0.5s"):
        segment("甲X", hang_cfg)
    assert [t.text for t in segment("乙丙", hang_cfg)] == ["乙", "丙"]
    assert _segmenter(hang_cfg) is seg
    assert seg._proc.pid != pid


def test_a_line_that_hangs_the_child_costs_only_that_line(hang_cfg):
    # Six lines queue behind the hung one; each waits out its timeout and then
    # gets its tokens from a fresh child.
    segment("预热", hang_cfg)
    texts = ["第X句", *(f"第{i}句" for i in range(1, 7))]
    results = [None] * len(texts)

    def work(i):
        try:
            results[i] = "".join(t.text for t in segment(texts[i], hang_cfg))
        except SegmentationError as exc:
            results[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(texts))]
    threads[0].start()
    time.sleep(0.1)  # the hung line holds the child first
    for t in threads[1:]:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert isinstance(results[0], SegmentationError)
    assert "timed out" in str(results[0])
    assert results[1:] == texts[1:]


def test_external_mode_serializes_concurrent_callers(ext_cfg):
    texts = [f"第{i}句测试" for i in range(24)]
    results = [None] * len(texts)

    def work(i):
        results[i] = "".join(t.text for t in segment(texts[i], ext_cfg))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(texts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == texts


def _reply_cmd(reply: str) -> str:
    """A child answering each line with the Python expression ``reply``."""
    return (
        f"{sys.executable} -u -c \"import sys\n"
        "for line in sys.stdin:\n"
        f"    print({reply})\n"
        "    sys.stdout.flush()\""
    )


def test_external_mode_rejects_non_reconcatenating_output():
    cfg = SegmenterConfig(mode="external", external_command=_reply_cmd("'x y z'"))
    try:
        with pytest.raises(SegmentationError, match="re-concatenate.*abc"):
            segment("abc", cfg)
    finally:
        close_external_segmenters()


def test_external_mode_rejects_a_token_across_a_space():
    # Dropping a space may not join the tokens on either side of it.
    cmd = _reply_cmd("line.rstrip('\\n').replace(' ', '')")
    cfg = SegmenterConfig(mode="external", external_command=cmd)
    try:
        assert [t.text for t in segment("abc", cfg)] == ["abc"]
        with pytest.raises(SegmentationError, match="re-concatenate.*'ab c'"):
            segment("ab c", cfg)
    finally:
        close_external_segmenters()


def test_external_mode_times_out():
    cmd = f"{sys.executable} -u -c \"import time\nwhile True: time.sleep(60)\""
    cfg = SegmenterConfig(
        mode="external", external_command=cmd, external_timeout=0.3
    )
    try:
        with pytest.raises(SegmentationError, match="timed out"):
            segment("abc", cfg)
    finally:
        close_external_segmenters()


def test_external_mode_reports_dead_process():
    cmd = f"{sys.executable} -c \"pass\""
    cfg = SegmenterConfig(mode="external", external_command=cmd, external_timeout=2.0)
    try:
        with pytest.raises(SegmentationError):
            segment("abc", cfg)
    finally:
        close_external_segmenters()
