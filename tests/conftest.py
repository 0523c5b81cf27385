import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from re2gec import Corpus, SentencePair
from re2gec.llm_backend import FALLBACK_KEY, FALLBACK_MODES, prompt_key
from re2gec.segmentation import SegmenterConfig, close_external_segmenters

# Three explanation docs with controlled pairwise overlap; the frozen gate
# fixture queries in test_pipeline/test_acceptance were derived against them.
GEE_DOCS = [
    ("d0", "主谓搭配不当，谓语动词使用错误，应当替换为更合适的动词形式"),
    ("d1", "语序不当，状语位置错误，应当将状语移动到主语之后谓语之前"),
    ("d2", "成分残缺，缺少宾语中心语，应当在句末补出宾语使结构完整"),
]

# Queries stitched from in-vocabulary prefixes of the docs above so that the
# best tf-idf cosine lands just either side of the default 0.6 gate.  The
# expected similarities are frozen from an independent full-scan computation.
Q_LOW = GEE_DOCS[0][1][:22] + GEE_DOCS[1][1][:18] + GEE_DOCS[2][1][:12]
Q_HIGH = GEE_DOCS[0][1][:16] + GEE_DOCS[1][1][:3] + GEE_DOCS[2][1][:6]
Q_LOW_BEST_SIM = 0.590097429837942
Q_HIGH_BEST_SIM = 0.6100182029794584

# Two dev sentences wired to the queries above by the scripted explainer.
INPUT_LOW = "他昨天去学校了的"
INPUT_HIGH = "我很喜欢吃苹果苹果"
TARGET_LOW = "他昨天去学校了"
TARGET_HIGH = "我很喜欢吃苹果"


def script_from_pairs(pairs: dict[str, str], fallback: str = "echo_last_line") -> dict:
    """Build a mock script dict from literal prompt -> response pairs."""
    if fallback not in FALLBACK_MODES:
        raise ValueError(f"unknown fallback mode {fallback!r}")
    script = {prompt_key(prompt): response for prompt, response in pairs.items()}
    script[FALLBACK_KEY] = fallback
    return script


@pytest.fixture
def char_cfg():
    return SegmenterConfig(mode="character")


@pytest.fixture
def ws_cfg():
    return SegmenterConfig(mode="whitespace")


@pytest.fixture
def mini_gee_corpus():
    records = [
        SentencePair(id=doc_id, source=f"原句{i}", targets=[f"改句{i}"], explanation=text)
        for i, (doc_id, text) in enumerate(GEE_DOCS)
    ]
    return Corpus(records=records)


@pytest.fixture
def write_script(tmp_path):
    """Write a mock backend script file from prompt -> response pairs."""

    counter = [0]

    def _write(pairs: dict, fallback: str = "echo_last_line") -> str:
        counter[0] += 1
        path = tmp_path / f"script{counter[0]}.json"
        path.write_text(
            json.dumps(script_from_pairs(pairs, fallback), ensure_ascii=False),
            encoding="utf-8",
        )
        return str(path)

    return _write


@pytest.fixture
def write_corpus(tmp_path):
    counter = [0]

    def _write(records: list[dict], name: str | None = None) -> str:
        counter[0] += 1
        path = tmp_path / (name or f"corpus{counter[0]}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        return str(path)

    return _write


@pytest.fixture(scope="session", autouse=True)
def _cleanup_external_segmenters():
    yield
    close_external_segmenters()
