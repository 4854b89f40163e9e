"""Event extraction by generation and contrastive candidate selection.

The pipeline generates trigger candidates with a sequence-to-sequence
backend, re-ranks them with a contrastively trained scorer, selects triggers
by thresholding fused softmax scores, and finally generates and parses
role-tagged argument frames. Inference needs nothing but the input context:
no event-type templates, no schema, no trigger hints.
"""

from .codec import (
    CodecConfig,
    build_argument_prompt,
    build_trigger_prompt,
    encode_argument_target,
    encode_trigger_target,
)
from .events import ArgumentPair, ContextInstance, EventFrame, Trigger, ontology_from_corpus
from .generation import (
    GenerationConfig,
    ScriptedBackend,
    attach_argument_cache,
    frames_from_cache,
    generate_trigger_candidates,
)
from .metrics import evaluate_corpus
from .selector import (
    HashedNgramScorer,
    SelectionConfig,
    SelectorTrainConfig,
    fuse_and_select,
    score_candidates,
    train_selector,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentPair",
    "CodecConfig",
    "ContextInstance",
    "EventFrame",
    "GenerationConfig",
    "HashedNgramScorer",
    "ScriptedBackend",
    "SelectionConfig",
    "SelectorTrainConfig",
    "Trigger",
    "attach_argument_cache",
    "build_argument_prompt",
    "build_trigger_prompt",
    "encode_argument_target",
    "encode_trigger_target",
    "evaluate_corpus",
    "frames_from_cache",
    "fuse_and_select",
    "generate_trigger_candidates",
    "ontology_from_corpus",
    "score_candidates",
    "train_selector",
]
