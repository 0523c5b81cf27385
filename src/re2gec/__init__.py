"""Explanation-driven example retrieval for grammatical error correction.

Instead of retrieving few-shot examples by input-text similarity, this
toolkit retrieves them by the similarity of grammatical-error explanations:
an explainer model describes what is wrong with the input, a TF-IDF index
over reference explanations proposes the nearest annotated examples, and a
similarity gate decides whether the correction prompt carries examples at
all.  Edit extraction, prompt construction, completion backends, fine-tuning
data construction, and edit-overlap evaluation round out the pipeline.
Import each name from its submodule: the package re-exports none.
"""

__version__ = "0.1.0"
