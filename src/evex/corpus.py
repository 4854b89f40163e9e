"""Corpus ingestion and (input, target) training-pair construction.

The ingestion format is JSON lines, one context per line:

    {"doc_id": "d1", "context": "He went home .",
     "events": [{"trigger": {"word": "went", "type": "Movement_Transport"},
                 "arguments": [{"role": "Destination", "entity": "home"}]}]}

A missing "events" field means a negative (zero-event) context. Malformed
lines and lines repeating an earlier doc_id are skipped and reported with
their line number, never fatal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .codec import (
    CodecConfig,
    build_argument_prompt,
    build_trigger_prompt,
    encode_argument_target,
    encode_trigger_target,
)
from .events import ArgumentPair, ContextInstance, EventFrame, Ontology, Trigger

TASK_TRIGGER = "trigger"
TASK_ARGUMENT = "argument"


@dataclass(frozen=True)
class TrainingPair:
    input: str
    target: str
    task: str  # TASK_TRIGGER or TASK_ARGUMENT
    doc_id: str

    def __post_init__(self) -> None:
        if self.task not in (TASK_TRIGGER, TASK_ARGUMENT):
            raise ValueError(f"unknown task: {self.task!r}")


@dataclass
class LoadProblem:
    line: int
    message: str


@dataclass
class LoadResult:
    instances: list[ContextInstance]
    problems: list[LoadProblem] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_instances": len(self.instances),
            "problems": [{"line": p.line, "message": p.message} for p in self.problems],
        }


def frame_from_dict(raw: dict) -> EventFrame:
    trig = raw["trigger"]
    trigger = Trigger(word=trig["word"], event_type=trig["type"])
    args = tuple(ArgumentPair(a["role"], a["entity"]) for a in raw.get("arguments", []))
    return EventFrame(trigger, args)


def instance_from_dict(raw: dict) -> ContextInstance:
    frames = tuple(frame_from_dict(e) for e in raw.get("events", []))
    return ContextInstance(doc_id=raw["doc_id"], context=raw["context"], gold_frames=frames)


def frame_to_dict(frame: EventFrame) -> dict:
    return {
        "trigger": {"word": frame.trigger.word, "type": frame.trigger.event_type},
        "arguments": [{"role": a.role, "entity": a.entity} for a in frame.arguments],
    }


def instance_to_dict(instance: ContextInstance) -> dict:
    return {
        "doc_id": instance.doc_id,
        "context": instance.context,
        "events": [frame_to_dict(f) for f in instance.gold_frames],
    }


def load_corpus(path: str | Path) -> LoadResult:
    """Read a JSONL corpus. Returns instances in file order plus a problem
    list (bad lines, repeated doc ids, gold triggers missing from their
    context). Later stages key instances by doc_id, so only the first line
    of a doc_id is kept."""
    path = Path(path)
    result = LoadResult(instances=[])
    first_line: dict[str, int] = {}
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                result.problems.append(LoadProblem(line_no, f"not valid JSON: {exc.msg}"))
                continue
            try:
                instance = instance_from_dict(raw)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                result.problems.append(LoadProblem(line_no, f"malformed instance: {exc}"))
                continue
            if instance.doc_id in first_line:
                result.problems.append(LoadProblem(
                    line_no, f"duplicate doc_id {instance.doc_id!r} (first on line {first_line[instance.doc_id]})"
                ))
                continue
            first_line[instance.doc_id] = line_no
            for violation in instance.trigger_violations():
                result.problems.append(LoadProblem(line_no, violation))
            result.instances.append(instance)
    return result


def write_corpus(instances: list[ContextInstance], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance_to_dict(instance), ensure_ascii=False) + "\n")


# hooks for converting third-party corpus exports into the JSONL schema
# above; no converters ship with the library (source datasets are licensed)
_CONVERTERS: dict[str, object] = {}


def register_converter(format_id: str, fn) -> None:
    """Register a callable(src_path, dst_path) producing the JSONL schema."""
    _CONVERTERS[format_id] = fn


def convert_corpus(format_id: str, src: str | Path, dst: str | Path) -> None:
    if format_id not in _CONVERTERS:
        raise NotImplementedError(
            f"no converter registered for {format_id!r}; use register_converter"
        )
    _CONVERTERS[format_id](Path(src), Path(dst))


def make_training_pairs(
    instance: ContextInstance,
    ontology: Ontology,
    cfg: CodecConfig,
    multi_trigger_target: bool = False,
) -> list[TrainingPair]:
    """Build the generator's training pairs for one context.

    Per event frame: one trigger pair and one argument pair. Zero-event
    contexts yield a single trigger pair with the empty-token target. With
    multi_trigger_target set, one extra trigger pair joins all triggers of
    the context into a single target.
    """
    prompt = build_trigger_prompt(instance.context, cfg)
    if not instance.gold_frames:
        return [TrainingPair(prompt, cfg.empty_token, TASK_TRIGGER, instance.doc_id)]
    pairs: list[TrainingPair] = []
    for frame in instance.gold_frames:
        if frame.trigger.event_type not in ontology:
            raise ValueError(
                f"type not in ontology: {frame.trigger.event_type} (doc {instance.doc_id})"
            )
        pairs.append(
            TrainingPair(prompt, encode_trigger_target([frame], cfg), TASK_TRIGGER, instance.doc_id)
        )
        pairs.append(
            TrainingPair(
                build_argument_prompt(instance.context, frame.trigger.word, cfg),
                encode_argument_target(frame, ontology, cfg),
                TASK_ARGUMENT,
                instance.doc_id,
            )
        )
    if multi_trigger_target:
        pairs.append(
            TrainingPair(
                prompt,
                encode_trigger_target(list(instance.gold_frames), cfg),
                TASK_TRIGGER,
                instance.doc_id,
            )
        )
    return pairs


def make_corpus_pairs(
    instances: list[ContextInstance],
    ontology: Ontology,
    cfg: CodecConfig,
    multi_trigger_target: bool = False,
    include_empty: bool = True,
) -> list[TrainingPair]:
    """Training pairs for a whole corpus. include_empty controls whether
    zero-event contexts contribute their "[none]"-target pair."""
    pairs: list[TrainingPair] = []
    for instance in instances:
        if not instance.gold_frames and not include_empty:
            continue
        pairs.extend(make_training_pairs(instance, ontology, cfg, multi_trigger_target))
    return pairs
