"""Explanation-driven example retrieval for grammatical error correction.

Instead of retrieving few-shot examples by input-text similarity, this
toolkit retrieves them by the similarity of grammatical-error explanations:
an explainer model describes what is wrong with the input, a TF-IDF index
over reference explanations proposes the nearest annotated examples, and a
similarity gate decides whether the correction prompt carries examples at
all.  Edit extraction, prompt construction, completion backends, fine-tuning
data construction, and edit-overlap evaluation round out the pipeline.
"""

from .corpus import Corpus, ErrorType, SentencePair, dump_corpus, load_corpus
from .edit_extract import Edit, apply_edits, char_level_edits, extract_edits
from .errors import (
    BackendError,
    CorpusError,
    EditError,
    ParseError,
    PipelineError,
    Re2Error,
    RetrievalError,
    SegmentationError,
    TemplateError,
)
from .llm_backend import (
    BackendConfig,
    DecodingParams,
    complete,
    embed,
    prompt_key,
)
from .pipeline import (
    CorrectionOutcome,
    Re2Config,
    SftExample,
    build_sft_data,
    compare_retrievers,
    correct_corpus,
    run_baseline,
    run_re2,
    sweep_threshold,
)
from .prompting import (
    PromptTemplate,
    TemplateSet,
    load_template,
    load_template_set,
    parse_correction,
    render_gec_prompt,
    render_gee_prompt,
)
from .retriever import (
    ExplanationIndex,
    Hit,
    IndexConfig,
    RetrievalResult,
    build_index,
    load_index,
    query,
    save_index,
)
from .scorer import (
    DetectionReport,
    EvalReport,
    SentenceScore,
    detection_metrics,
    f_beta,
    rouge_l,
    score_corpus,
    score_sentence,
)
from .segmentation import SegmenterConfig, Token, segment

__version__ = "0.1.0"
