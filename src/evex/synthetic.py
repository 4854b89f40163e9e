"""Deterministic synthetic corpora and scripted backends for them.

Two backend scripts are provided for any generated corpus:

  * an oracle script whose top beam hypotheses are exactly the gold targets
    (plus low-scored junk candidates, so selector training has negatives);
  * a noisy script where the correct trigger is always among the beams but
    a distractor outranks it in a configurable fraction of contexts, which
    is the regime where re-ranking pays off.

Everything is driven by explicit seeds; the same seed reproduces the same
corpus and scripts byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .codec import CodecConfig, build_argument_prompt, build_trigger_prompt, encode_argument_target, encode_trigger_target
from .events import ArgumentPair, ContextInstance, EventFrame, Ontology, Trigger, ontology_from_corpus

TRANSPORT = "Movement_Transport"
DIE = "Life_Die"
ATTACK = "Conflict_Attack"

TRIGGERS = {
    TRANSPORT: ["went", "traveled", "moved", "departed", "returned"],
    DIE: ["killed", "executed", "assassinated", "perished"],
    ATTACK: ["attacked", "bombed", "raided", "ambushed"],
}

SUBJECTS = [
    "the soldier", "the reporter", "a farmer", "the minister", "the rebels",
    "the convoy", "a diplomat", "the militia", "the workers", "an officer",
]
PLACES = [
    "Baghdad", "the village", "Mosul", "the capital", "the border",
    "home", "the airport", "the compound", "Basra", "the market",
]
OBJECTS = [
    "the supplies", "a truck", "the equipment", "the documents",
    "the prisoners", "food aid", "the weapons",
]
FILLERS = [
    "the weather near {place} stayed calm all week .",
    "markets in {place} were quiet on Sunday .",
    "officials in {place} said nothing new .",
    "life in {place} continued as usual .",
]

# never gold anywhere; the noisy backend promotes these
DISTRACTOR_WORDS = [
    "meeting", "statement", "report", "agreement", "ceremony",
    "speech", "interview", "announcement",
]


@dataclass
class SyntheticData:
    train: list[ContextInstance]
    dev: list[ContextInstance]
    test: list[ContextInstance]

    def all_instances(self) -> list[ContextInstance]:
        return self.train + self.dev + self.test


def _event_clause(rng: random.Random, used_triggers: set[str]) -> tuple[str, EventFrame]:
    event_type = rng.choice([TRANSPORT, DIE, ATTACK])
    word = rng.choice([w for w in TRIGGERS[event_type] if w not in used_triggers])
    if event_type == TRANSPORT:
        subj, dst, art = rng.choice(SUBJECTS), rng.choice(PLACES), rng.choice(OBJECTS)
        clause = f"{subj} {word} to {dst} with {art}"
        args = [ArgumentPair("Artifact", art), ArgumentPair("Destination", dst)]
    elif event_type == DIE:
        agent, victim, place = rng.choice(SUBJECTS), rng.choice(SUBJECTS), rng.choice(PLACES)
        clause = f"{agent} {word} {victim} at {place}"
        args = [ArgumentPair("Agent", agent), ArgumentPair("Victim", victim), ArgumentPair("Place", place)]
    else:
        attacker, target, place = rng.choice(SUBJECTS), rng.choice(SUBJECTS), rng.choice(PLACES)
        clause = f"{attacker} {word} {target} near {place}"
        args = [ArgumentPair("Attacker", attacker), ArgumentPair("Target", target), ArgumentPair("Place", place)]
    # a slice of frames carries fewer (or zero) arguments, so encoded targets
    # exercise the unfilled-slot placeholders
    if rng.random() < 0.25:
        args = args[: rng.randrange(len(args))]
    return clause, EventFrame(Trigger(word, event_type), tuple(args))


def _make_instance(rng: random.Random, doc_id: str, multi_event_rate: float, empty_rate: float) -> ContextInstance:
    roll = rng.random()
    if roll < empty_rate:
        context = rng.choice(FILLERS).format(place=rng.choice(PLACES))
        return ContextInstance(doc_id, context, ())
    used: set[str] = set()
    clause, frame = _event_clause(rng, used)
    used.add(frame.trigger.word)
    if roll < empty_rate + multi_event_rate:
        clause2, frame2 = _event_clause(rng, used)
        context = f"{clause} and {clause2} ."
        return ContextInstance(doc_id, context, (frame, frame2))
    return ContextInstance(doc_id, f"{clause} .", (frame,))


def make_synthetic_corpus(
    seed: int = 0,
    n_train: int = 50,
    n_dev: int = 24,
    n_test: int = 24,
    multi_event_rate: float = 0.3,
    empty_rate: float = 0.2,
) -> SyntheticData:
    rng = random.Random(seed)
    seen_contexts: set[str] = set()

    def draw(split: str, n: int) -> list[ContextInstance]:
        out: list[ContextInstance] = []
        for i in range(n):
            for _ in range(200):
                instance = _make_instance(rng, f"syn-{split}-{i:03d}", multi_event_rate, empty_rate)
                if instance.context not in seen_contexts:
                    seen_contexts.add(instance.context)
                    out.append(instance)
                    break
            else:
                raise RuntimeError("could not draw a unique synthetic context")
        return out

    return SyntheticData(draw("train", n_train), draw("dev", n_dev), draw("test", n_test))


def _junk_hypotheses(rng: random.Random, n: int, scores: list[float]) -> list[tuple[str, float]]:
    words = rng.sample(DISTRACTOR_WORDS, n)
    return [
        (f"{word} [{rng.choice([TRANSPORT, DIE, ATTACK])}]", score)
        for word, score in zip(words, scores)
    ]


def oracle_script(
    instances: list[ContextInstance],
    ontology: Ontology,
    cfg: CodecConfig | None = None,
    seed: int = 0,
) -> dict[str, list[tuple[str, float]]]:
    """Backend script whose beams rank the gold targets on top.

    Junk hypotheses sit far below the gold ones; they only exist so the
    selector has negatives to train against.
    """
    cfg = cfg or CodecConfig()
    rng = random.Random(seed)
    script: dict[str, list[tuple[str, float]]] = {}
    for instance in instances:
        hypotheses: list[tuple[str, float]] = []
        if instance.gold_frames:
            for i, frame in enumerate(instance.gold_frames):
                hypotheses.append((encode_trigger_target([frame], cfg), -0.08 - 0.18 * i))
        else:
            hypotheses.append((cfg.empty_token, -0.08))
        hypotheses.extend(_junk_hypotheses(rng, 2, [-7.5, -8.5]))
        script[build_trigger_prompt(instance.context, cfg)] = hypotheses
        for frame in instance.gold_frames:
            prompt = build_argument_prompt(instance.context, frame.trigger.word, cfg)
            script[prompt] = [(encode_argument_target(frame, ontology, cfg), -0.05)]
    return script


def noisy_script(
    instances: list[ContextInstance],
    ontology: Ontology,
    cfg: CodecConfig | None = None,
    seed: int = 0,
    noise_rate: float = 0.5,
) -> dict[str, list[tuple[str, float]]]:
    """Backend script where a distractor outranks the gold trigger in a
    noise_rate fraction of event contexts. Gold targets are always present
    among the beams."""
    cfg = cfg or CodecConfig()
    rng = random.Random(seed)
    script: dict[str, list[tuple[str, float]]] = {}
    for instance in instances:
        hypotheses = []
        if instance.gold_frames:
            for i, frame in enumerate(instance.gold_frames):
                hypotheses.append((encode_trigger_target([frame], cfg), -0.3 - 0.2 * i))
            distractor_score = -0.1 if rng.random() < noise_rate else -0.9
            junk = _junk_hypotheses(rng, 3, [distractor_score, -1.2, -2.0])
            hypotheses.extend(junk)
        else:
            hypotheses.append((cfg.empty_token, -0.1))
            hypotheses.extend(_junk_hypotheses(rng, 2, [-1.4, -2.0]))
        script[build_trigger_prompt(instance.context, cfg)] = hypotheses
        for frame in instance.gold_frames:
            prompt = build_argument_prompt(instance.context, frame.trigger.word, cfg)
            script[prompt] = [(encode_argument_target(frame, ontology, cfg), -0.05)]
    return script


def write_script(script: dict[str, list[tuple[str, float]]], path: str | Path) -> None:
    payload = {k: [[t, s] for t, s in v] for k, v in script.items()}
    Path(path).write_text(json.dumps(payload, sort_keys=True, ensure_ascii=False), encoding="utf-8")


def build_demo_run(run_dir: str | Path, seed: int = 0, noisy: bool = False) -> Path:
    """Write corpus files, a backend script, and a run config into run_dir;
    returns the config path. The CLI can then run any stage against it."""
    from .corpus import write_corpus

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    data = make_synthetic_corpus(seed=seed)
    # scripts stand in for a fully trained generator, so they may encode
    # argument targets for every split, not just train
    ontology = ontology_from_corpus(data.all_instances())
    if noisy:
        script = noisy_script(data.all_instances(), ontology, seed=seed)
    else:
        script = oracle_script(data.all_instances(), ontology, seed=seed)
    write_corpus(data.train, run_dir / "corpus.train.jsonl")
    write_corpus(data.dev, run_dir / "corpus.dev.jsonl")
    write_corpus(data.test, run_dir / "corpus.test.jsonl")
    write_script(script, run_dir / "script.json")
    config = {  # paths resolve against the config file, which lives in run_dir
        "corpus": {split: f"corpus.{split}.jsonl" for split in ("train", "dev", "test")},
        "backend": {"id": "toy", "script": "script.json"},
        "selector_train": {"epochs": 12, "seed": seed},
        "selection": "tune",
    }
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return config_path
