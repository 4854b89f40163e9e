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

from .codec import (
    CodecConfig,
    build_argument_prompt,
    build_trigger_prompt,
    decode_argument_output,
    decode_trigger_candidate,
)
from .corpus import TrainingPair
from .events import ArgumentPair, ContextInstance, EventFrame, Trigger, is_number, matches_token


class BackendError(RuntimeError):
    """A backend call failed; carries the doc id where possible."""


@dataclass(frozen=True)
class GenerationConfig:
    beam_width: int = 10

    def __post_init__(self) -> None:
        if not is_number(self.beam_width, int) or self.beam_width < 1:
            raise ValueError("beam_width must be an integer >= 1")


@dataclass(frozen=True)
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
        object.__setattr__(self, "triggers", tuple(self.triggers))

    def trigger_key(self) -> tuple[tuple[str, str], ...]:
        """Parsed trigger multiset, order-insensitive; the dedup key."""
        return tuple(sorted((t.word, t.event_type) for t in self.triggers))


@dataclass(frozen=True)
class CandidateList:
    """Candidates of one context, sorted by beam score descending.

    arguments_by_word caches greedy argument predictions per trigger word so
    that selection sweeps never have to call the backend again.
    """

    doc_id: str
    context: str
    candidates: tuple[TriggerCandidate, ...]
    arguments_by_word: dict[str, tuple[ArgumentPair, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))

    def with_rank_scores(self, scores: list[float]) -> "CandidateList":
        if len(scores) != len(self.candidates):
            raise ValueError("one rank score per candidate required")
        candidates = tuple(
            TriggerCandidate(c.raw_text, c.triggers, c.beam_score, s) for c, s in zip(self.candidates, scores)
        )
        return CandidateList(self.doc_id, self.context, candidates, self.arguments_by_word)


class ScriptedBackend:
    """Deterministic backend driven by an input -> hypotheses script.

    The backend contract, which a real seq2seq model would also meet:
    fit(pairs) on the generator training pairs; generate_topk(input_text, k)
    returns at most k (text, score) hypotheses sorted by score descending,
    scores finite log-scale reals; generate_greedy(input_text) returns one
    string. Outputs are deterministic given fixed state.

    Unscripted inputs yield no hypotheses (empty string under greedy).
    fit() memorizes training pairs as scripted entries for inputs that are
    not already scripted; pre-scripted entries are never overridden. A
    script that is not such a map raises TypeError or ValueError.
    """

    def __init__(self, script: dict[str, list[tuple[str, float]]] | None = None):
        if not isinstance(script, (dict, type(None))):
            raise TypeError(f"backend script must map inputs to hypothesis lists, got {type(script).__name__}")
        self._script: dict[str, list[tuple[str, float]]] = {}
        for input_text, hypotheses in (script or {}).items():
            entries = [(t, s) for t, s in hypotheses]
            if not all(isinstance(t, str) and is_number(s) and math.isfinite(s) for t, s in entries):
                raise ValueError(f"scripted hypotheses must be (text, finite score) pairs: {input_text!r}")
            self._script[input_text] = sorted(((t, float(s)) for t, s in entries), key=lambda ts: -ts[1])

    def fit(self, pairs: list[TrainingPair]) -> None:
        memorized: dict[str, list[str]] = {}
        for pair in pairs:
            targets = memorized.setdefault(pair.input, [])
            if pair.target not in targets:
                targets.append(pair.target)
        for input_text, targets in memorized.items():
            if input_text not in self._script:
                self._script[input_text] = [(t, -float(i)) for i, t in enumerate(targets)]

    def generate_topk(self, input_text: str, k: int) -> list[tuple[str, float]]:
        return list(self._script.get(input_text, ())[:k])

    def generate_greedy(self, input_text: str) -> str:
        hypotheses = self._script.get(input_text)
        return hypotheses[0][0] if hypotheses else ""


def generate_trigger_candidates(
    backend: ScriptedBackend,
    instance: ContextInstance,
    cfg: GenerationConfig,
    codec_cfg: CodecConfig,
) -> tuple[CandidateList, list[str]]:
    """Beam-generate and parse trigger candidates for one context.

    Hypotheses parsing to no triggers are dropped unless they are the
    explicit empty token (kept as the "no event" candidate). Candidates with
    identical parsed trigger multisets are deduplicated keeping the highest
    beam score.
    """
    prompt = build_trigger_prompt(instance.context, codec_cfg)
    try:
        hypotheses = backend.generate_topk(prompt, cfg.beam_width)
    except Exception as exc:
        raise BackendError(f"trigger generation failed for doc {instance.doc_id!r}: {exc}") from exc

    warnings: list[str] = []
    best: dict[tuple, TriggerCandidate] = {}
    for text, score in hypotheses:
        triggers, parse_warnings = decode_trigger_candidate(text, codec_cfg)
        warnings.extend(f"doc {instance.doc_id}: {w}" for w in parse_warnings)
        if not triggers and not matches_token(text, codec_cfg.empty_token):
            continue
        candidate = TriggerCandidate(raw_text=" ".join(text.split()), triggers=tuple(triggers), beam_score=float(score))
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
    """Generate and cache arguments for every distinct candidate trigger word."""
    warnings: list[str] = []
    args_by_word: dict[str, tuple[ArgumentPair, ...]] = {}
    for candidate in candidate_list.candidates:
        for trigger in candidate.triggers:
            if trigger.word in args_by_word:
                continue
            pairs, arg_warnings = generate_arguments(
                backend, candidate_list.context, trigger, codec_cfg
            )
            warnings.extend(f"doc {candidate_list.doc_id}: {w}" for w in arg_warnings)
            args_by_word[trigger.word] = tuple(pairs)
    return replace(candidate_list, arguments_by_word=args_by_word), warnings


def frames_from_cache(candidate_list: CandidateList, triggers: list[Trigger]) -> list[EventFrame]:
    """Assemble event frames for selected triggers using the cached argument
    predictions; the arguments of a trigger word attach to the trigger's
    event type."""
    return [
        EventFrame(trigger, candidate_list.arguments_by_word.get(trigger.word, ()))
        for trigger in triggers
    ]


def candidate_list_to_dict(cl: CandidateList) -> dict:
    return {
        "doc_id": cl.doc_id,
        "context": cl.context,
        "candidates": [
            {
                "raw_text": c.raw_text,
                "triggers": [{"word": t.word, "type": t.event_type} for t in c.triggers],
                "beam_score": c.beam_score,
                "rank_score": c.rank_score,
            }
            for c in cl.candidates
        ],
        "arguments": {
            word: [{"role": p.role, "entity": p.entity} for p in pairs]
            for word, pairs in cl.arguments_by_word.items()
        },
    }


def candidate_list_from_dict(raw: dict) -> CandidateList:
    candidates = tuple(
        TriggerCandidate(
            raw_text=c["raw_text"],
            triggers=tuple(Trigger(t["word"], t["type"]) for t in c["triggers"]),
            beam_score=float(c["beam_score"]),
            rank_score=None if c.get("rank_score") is None else float(c["rank_score"]),
        )
        for c in raw["candidates"]
    )
    arguments = {
        word: tuple(ArgumentPair(p["role"], p["entity"]) for p in pairs)
        for word, pairs in raw.get("arguments", {}).items()
    }
    return CandidateList(raw["doc_id"], raw["context"], candidates, arguments)
