"""Sequence-to-sequence backend and trigger-candidate generation.

Trigger candidates come from beam search (top-k hypotheses with scores);
argument strings come from greedy decoding. The core stays backend-agnostic:
beam scores are opaque finite reals on a log scale, higher is better. A
deterministic scripted backend stands in for a trained model in tests and
in the synthetic experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import itemgetter

from .codec import (
    CodecConfig,
    build_argument_prompt,
    build_trigger_prompt,
    decode_argument_output,
    decode_trigger_candidate,
)
from .events import ArgumentPair, ContextInstance, EventFrame, Trigger, is_finite_number, is_number, matches_token
from .events import normalize_ws
from .events import MEMO_SIZE, intern_pair, intern_trigger  # the leaf memos, emptied with parse_hypothesis


class BackendError(RuntimeError):
    """A backend call failed; carries the doc id where possible."""


@dataclass(frozen=True)
class GenerationConfig:
    beam_width: int = 10

    def __post_init__(self) -> None:
        if not is_number(self.beam_width, int) or self.beam_width < 1:
            raise ValueError("beam_width must be an integer >= 1")


@dataclass(frozen=True, slots=True)
class TriggerCandidate:
    """One beam hypothesis: raw text, parsed triggers, and its scores.

    rank_score is filled once a selector has scored the candidate.
    """

    raw_text: str
    triggers: tuple[Trigger, ...]
    beam_score: float
    rank_score: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.beam_score):
            raise ValueError("beam score must be finite")
        if self.rank_score is not None and not math.isfinite(self.rank_score):
            raise ValueError("rank score must be finite")
        object.__setattr__(self, "triggers", tuple(self.triggers))

    def trigger_key(self) -> tuple[tuple[str, str], ...]:
        """Parsed trigger multiset, order-insensitive; the dedup key."""
        return tuple(sorted((t.word, t.event_type) for t in self.triggers))


@dataclass(frozen=True, slots=True)
class CandidateList:
    """Candidates of one context, sorted by beam score descending.

    arguments_by_word caches the greedy argument pairs of each trigger word, so that selection
    sweeps never call the backend again; a word whose greedy output held no pair is absent.
    """

    doc_id: str
    context: str
    candidates: tuple[TriggerCandidate, ...]
    arguments_by_word: dict[str, tuple[ArgumentPair, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))

    def with_rank_scores(self, scores: list[float]) -> "CandidateList":
        scored = zip(self.candidates, scores, strict=True)  # one score per candidate, else ValueError
        candidates = tuple(TriggerCandidate(c.raw_text, c.triggers, c.beam_score, s) for c, s in scored)
        return CandidateList(self.doc_id, self.context, candidates, self.arguments_by_word)


def _scored_text(entry: object) -> tuple[str, float]:
    """[text, score] of the backend script or a candidates row: a list or tuple of a string and an is_finite_number."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str)
            and is_finite_number(entry[1])):
        raise ValueError(f"expected a [raw_text, beam_score] array with a finite score, got {entry!r}")
    return entry[0], float(entry[1])


class ScriptedBackend:
    """Deterministic backend driven by an input -> hypotheses script.

    The backend contract, which a real seq2seq model trained elsewhere would
    also meet: generate_topk(input_text, k) returns at most k (text, score)
    hypotheses sorted by score descending, scores finite log-scale reals;
    generate_greedy(input_text) returns one string. Outputs are deterministic.

    Unscripted inputs yield no hypotheses (empty string under greedy). A hypothesis, like a stored
    candidate, is a text and an events.is_finite_number score (_scored_text), else ValueError.
    """

    def __init__(self, script: dict[str, list[tuple[str, float]]] | None = None):
        if not isinstance(script, (dict, type(None))):
            raise TypeError(f"backend script must map inputs to hypothesis lists, got {type(script).__name__}")
        self._script: dict[str, list[tuple[str, float]]] = {}
        for input_text, hypotheses in (script or {}).items():
            try:  # sorted is stable: equal scores keep script order
                if not isinstance(hypotheses, list):
                    raise ValueError(f"expected a list, got {hypotheses!r}")
                self._script[input_text] = sorted(map(_scored_text, hypotheses), key=itemgetter(1), reverse=True)
            except ValueError as exc:
                raise ValueError(f"scripted hypotheses of {input_text!r}: {exc}") from None

    def generate_topk(self, input_text: str, k: int) -> list[tuple[str, float]]:
        return list(self._script.get(input_text, ())[:k])

    def generate_greedy(self, input_text: str) -> str:
        hypotheses = self._script.get(input_text)
        return hypotheses[0][0] if hypotheses else ""


@lru_cache(maxsize=MEMO_SIZE)
def parse_hypothesis(text: str, codec_cfg: CodecConfig) -> tuple[str, tuple[Trigger, ...], tuple[str, ...], bool]:
    """A hypothesis's normalized text, triggers, parse warnings, and whether it is kept: one
    parsing to no triggers is dropped unless it is the explicit empty token (the "no event"
    candidate). Parsed once per distinct text the memo holds."""
    triggers, warnings = decode_trigger_candidate(text, codec_cfg)
    kept = bool(triggers) or matches_token(text, codec_cfg.empty_token)
    return normalize_ws(text), tuple(triggers), tuple(warnings), kept


def clear_memos() -> None:
    """Empty the parse memos: parse_hypothesis, intern_trigger and intern_pair."""
    for memo in (parse_hypothesis, intern_trigger, intern_pair):
        memo.cache_clear()


def generate_trigger_candidates(
    backend: ScriptedBackend,
    instance: ContextInstance,
    cfg: GenerationConfig,
    codec_cfg: CodecConfig,
) -> tuple[CandidateList, list[str]]:
    """Beam-generate and parse trigger candidates for one context.

    Hypotheses are parsed and kept or dropped by parse_hypothesis. Candidates
    with identical parsed trigger multisets are deduplicated keeping the
    highest beam score.
    """
    prompt = build_trigger_prompt(instance.context, codec_cfg)
    try:
        hypotheses = backend.generate_topk(prompt, cfg.beam_width)
    except Exception as exc:
        raise BackendError(f"trigger generation failed for doc {instance.doc_id!r}: {exc}") from exc

    warnings: list[str] = []
    best: dict[tuple, TriggerCandidate] = {}
    for text, score in hypotheses:
        raw_text, triggers, parse_warnings, kept = parse_hypothesis(text, codec_cfg)
        warnings += parse_warnings
        if not kept:
            continue
        candidate = TriggerCandidate(raw_text=raw_text, triggers=triggers, beam_score=float(score))
        key = candidate.trigger_key()
        if key not in best or candidate.beam_score > best[key].beam_score:
            best[key] = candidate
    ordered = sorted(best.values(), key=lambda c: -c.beam_score)[: cfg.beam_width]
    return CandidateList(instance.doc_id, instance.context, tuple(ordered)), warnings


def generate_arguments(
    backend: ScriptedBackend,
    context: str,
    trigger: Trigger,
    codec_cfg: CodecConfig,
) -> tuple[list[ArgumentPair], list[str]]:
    """Greedy argument generation for one trigger; the prompt carries the
    trigger word only, the caller attaches the event type downstream."""
    prompt = build_argument_prompt(context, trigger.word, codec_cfg)
    try:
        text = backend.generate_greedy(prompt)
    except Exception as exc:
        raise BackendError(f"argument generation failed for trigger {trigger.word!r}: {exc}") from exc
    return decode_argument_output(text, codec_cfg)


def attach_argument_cache(
    backend: ScriptedBackend,
    candidate_list: CandidateList,
    codec_cfg: CodecConfig,
) -> tuple[CandidateList, list[str]]:
    """Generate arguments once per distinct candidate trigger word; cache the words that got a pair."""
    warnings: list[str] = []
    args_by_word: dict[str, tuple[ArgumentPair, ...]] = {}
    for candidate in candidate_list.candidates:
        for trigger in candidate.triggers:
            if trigger.word in args_by_word:
                continue
            pairs, arg_warnings = generate_arguments(backend, candidate_list.context, trigger, codec_cfg)
            warnings += arg_warnings
            args_by_word[trigger.word] = tuple(pairs)
    cached = {word: pairs for word, pairs in args_by_word.items() if pairs}
    return replace(candidate_list, arguments_by_word=cached), warnings


def frames_from_cache(candidate_list: CandidateList, triggers: list[Trigger]) -> list[EventFrame]:
    """Assemble event frames for selected triggers using the cached argument
    predictions; the arguments of a trigger word attach to the trigger's
    event type."""
    return [
        EventFrame(trigger, candidate_list.arguments_by_word.get(trigger.word, ()))
        for trigger in triggers
    ]


def candidate_list_to_dict(cl: CandidateList) -> dict:
    """The stored form: each candidate as [raw_text, beam_score] (no parse: the codec redoes it),
    each cached argument as [role, entity]."""
    return {
        "doc_id": cl.doc_id,
        "context": cl.context,
        "candidates": [[c.raw_text, c.beam_score] for c in cl.candidates],
        "arguments": {word: [[p.role, p.entity] for p in pairs] for word, pairs in cl.arguments_by_word.items()},
    }


def _stored_argument(entry: object) -> ArgumentPair:
    """A stored argument, checked: a JSON array of two strings, [role, entity]."""
    if type(entry) is not list or len(entry) != 2 or not all(type(s) is str for s in entry):
        raise ValueError(f"expected a [role, entity] array, got {entry!r}")
    return intern_pair(*entry)


def stored_string(row: dict, key: str) -> str:
    """row[key] of a stored row, which must be a string (doc_id, context)."""
    if not isinstance(row[key], str):
        raise ValueError(f"{key} must be a string, got {row[key]!r}")
    return row[key]


def candidate_list_from_dict(raw: dict, codec_cfg: CodecConfig) -> CandidateList:
    """The inverse of candidate_list_to_dict. Each candidate's triggers are decoded
    from its raw text (parse_hypothesis), stored whitespace-normalized as the decoder
    reads it, so they equal the generated parse."""
    stored = map(_scored_text, raw["candidates"])
    candidates = [TriggerCandidate(text, parse_hypothesis(text, codec_cfg)[1], s) for text, s in stored]
    arguments = {word: tuple(map(_stored_argument, pairs)) for word, pairs in raw.get("arguments", {}).items()}
    return CandidateList(stored_string(raw, "doc_id"), stored_string(raw, "context"), candidates, arguments)
