"""Shared generators and independent oracles for the test suite.

The oracles here deliberately reimplement behavior from scratch (pure
python, no calls into the code under test) so the tests cross-check two
routes to the same answer. The one exception, per_cell_report, is the
per-doc library route (one cell, one doc at a time) that the grid sweep,
which scores every cell of a doc in one pass, must agree with.
"""

from __future__ import annotations

import math
import random
import string
import zlib
from collections import Counter

import numpy as np

from evex.events import ArgumentPair, ContextInstance, EventFrame, Ontology, Trigger
from evex.generation import CandidateList, frames_from_cache
from evex.metrics import EvalReport, evaluate_corpus
from evex.selector import SelectionConfig, fuse_and_select

SAFE_CHARS = string.ascii_lowercase + "-'"


def safe_word(rng: random.Random, min_len: int = 2, max_len: int = 8) -> str:
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice(SAFE_CHARS) for _ in range(n)).strip("-'") or "word"


def safe_phrase(rng: random.Random, max_words: int = 3) -> str:
    return " ".join(safe_word(rng) for _ in range(rng.randint(1, max_words)))


def random_type(rng: random.Random) -> str:
    return f"{safe_word(rng).capitalize()}_{safe_word(rng).capitalize()}"


def random_trigger(rng: random.Random) -> Trigger:
    return Trigger(safe_phrase(rng), random_type(rng))


def random_frame(rng: random.Random, max_args: int = 4) -> EventFrame:
    args = tuple(
        ArgumentPair(safe_word(rng).capitalize(), safe_phrase(rng))
        for _ in range(rng.randint(0, max_args))
    )
    return EventFrame(random_trigger(rng), args)


def ontology_covering(frames: list[EventFrame], rng: random.Random) -> Ontology:
    """Ontology listing every role of the frames plus one extra unfilled role
    per type (so encoded targets carry placeholder slots too)."""
    roles_by_type: dict[str, list[str]] = {}
    for frame in frames:
        roles = roles_by_type.setdefault(frame.trigger.event_type, [])
        for pair in frame.arguments:
            if pair.role not in roles:
                roles.append(pair.role)
    for roles in roles_by_type.values():
        extra = safe_word(rng).capitalize()
        if extra not in roles:
            roles.append(extra)
    return Ontology({t: tuple(r) for t, r in roles_by_type.items()})


CORRUPT_PIECES = [
    "<", ">", "</", "[", "]", "[and]", "[none]", "[None]", "<Trigger>",
    "<Agent>", "</Agent>", "lorem", "ipsum dolor", "  ", "a]b[c", "<>",
    "</ >", "[ ]", "x [and]", "[and] y", "<A> fill", "fill </A>",
]


def corrupted_string(rng: random.Random, max_pieces: int = 12) -> str:
    return " ".join(rng.choice(CORRUPT_PIECES) for _ in range(rng.randint(0, max_pieces)))


def oracle_softmax(xs: list[float]) -> list[float]:
    m = max(xs)
    exps = [math.exp(x - m) for x in xs]
    z = sum(exps)
    return [e / z for e in exps]


def oracle_fuse_select(
    rank_scores: list[float], beam_scores: list[float], alpha: float, theta: float
) -> tuple[list[float], set[int]]:
    """Independent fusion + threshold: returns (fused, selected indices)."""
    p = oracle_softmax(rank_scores)
    q = oracle_softmax(beam_scores)
    fused = [alpha * pi + (1 - alpha) * qi for pi, qi in zip(p, q)]
    return fused, {i for i, f in enumerate(fused) if f > theta}


def per_cell_report(dev: list[tuple[ContextInstance, CandidateList]], alpha: float, theta: float) -> EvalReport:
    """The report of one (alpha, theta) cell, one doc at a time: each doc's
    triggers from fuse_and_select over its cached rank scores, their frames
    from the argument cache, and the split counted by evaluate_corpus. The
    oracle of tuning.sweep_selection, which scores all cells of a doc at once."""
    cfg = SelectionConfig(alpha, theta)
    predictions = [
        (instance.doc_id, frames_from_cache(candidates, fuse_and_select(candidates, scorer=None, cfg=cfg)))
        for instance, candidates in dev
    ]
    return evaluate_corpus(predictions, [instance for instance, _ in dev])


def reference_features(scorer, context: str, candidate_text: str, candidate_side: bool = False) -> dict[int, float]:
    """The featurizer as one pass over the whole normalised pair, no memos: each
    hashed n-gram index and its count, in first-appearance order. The candidate
    side leaves out the n-grams that lie wholly inside the normalised
    "context ||" prefix, which every candidate of the context shares."""
    text = " ".join(f"{context} || {candidate_text}".casefold().split())
    prefix = " ".join(f"{context} ||".casefold().split())
    # an n-gram starting at i lies inside the prefix when it ends by the prefix's end
    cut_tokens, cut_chars = (len(prefix.split()), len(prefix)) if candidate_side else (0, 0)
    counts: dict[int, float] = {}
    tokens = text.split()
    for n in scorer.word_ngrams:
        for i in range(len(tokens) - n + 1):
            if i + n > cut_tokens:
                key = f"w{n}:" + " ".join(tokens[i : i + n])
                idx = zlib.crc32(key.encode("utf-8")) % scorer.dim
                counts[idx] = counts.get(idx, 0.0) + 1.0
    for n in scorer.char_ngrams:
        for i in range(len(text) - n + 1):
            if i + n > cut_chars:
                key = f"c{n}:" + text[i : i + n]
                idx = zlib.crc32(key.encode("utf-8")) % scorer.dim
                counts[idx] = counts.get(idx, 0.0) + 1.0
    return counts


def reference_score(scorer, feats: dict[int, float]) -> float:
    """The weights' dot product with an index -> count dict, in its order."""
    idx = np.fromiter(feats.keys(), dtype=np.intp, count=len(feats))
    return float(scorer.weights[idx] @ np.fromiter(feats.values(), dtype=np.float64, count=len(feats)))


def _subtask_items(frames: list[EventFrame], subtask: str) -> list[tuple]:
    items: list[tuple] = []
    for f in frames:
        if subtask == "trig_i":
            items.append((f.trigger.word,))
        elif subtask == "trig_c":
            items.append((f.trigger.word, f.trigger.event_type))
        elif subtask == "arg_i":
            items.extend((a.entity, f.trigger.event_type) for a in f.arguments)
        elif subtask == "arg_c":
            items.extend((a.entity, a.role, f.trigger.event_type) for a in f.arguments)
    return items


def oracle_match(pred: list[EventFrame], gold: list[EventFrame], subtask: str) -> tuple[int, int, int]:
    """Brute-force min-count matcher: greedily pair each prediction with an
    unused equal gold item."""
    pred_items = _subtask_items(pred, subtask)
    gold_items = _subtask_items(gold, subtask)
    used = [False] * len(gold_items)
    n_correct = 0
    for item in pred_items:
        for j, gold_item in enumerate(gold_items):
            if not used[j] and item == gold_item:
                used[j] = True
                n_correct += 1
                break
    return n_correct, len(pred_items), len(gold_items)


def oracle_corpus_counts(
    predictions: dict[str, list[EventFrame]],
    gold: list[ContextInstance],
    subtask: str,
) -> tuple[int, int, int]:
    totals = [0, 0, 0]
    for instance in gold:
        c, p, g = oracle_match(
            predictions.get(instance.doc_id, []), list(instance.gold_frames), subtask
        )
        totals[0] += c
        totals[1] += p
        totals[2] += g
    return tuple(totals)


def random_gold_corpus(rng: random.Random, n: int = 20) -> list[ContextInstance]:
    """Small corpora with overlapping vocabulary, so collisions between
    instances and duplicate keys actually occur."""
    words = [safe_word(rng) for _ in range(6)]
    types = [random_type(rng) for _ in range(3)]
    roles = [safe_word(rng).capitalize() for _ in range(3)]
    entities = [safe_phrase(rng) for _ in range(5)]
    instances = []
    for i in range(n):
        frames = []
        for _ in range(rng.randint(0, 3)):
            args = tuple(
                ArgumentPair(rng.choice(roles), rng.choice(entities))
                for _ in range(rng.randint(0, 3))
            )
            frames.append(EventFrame(Trigger(rng.choice(words), rng.choice(types)), args))
        context = " ".join(words) + " " + " ".join(entities)
        instances.append(ContextInstance(f"doc-{i}", context, tuple(frames)))
    return instances


def random_pred_frames(rng: random.Random, gold: list[ContextInstance]) -> dict[str, list[EventFrame]]:
    """Noisy copies of gold: drops, type flips, duplications, spurious frames."""
    words = [safe_word(rng) for _ in range(4)]
    predictions: dict[str, list[EventFrame]] = {}
    for instance in gold:
        frames: list[EventFrame] = []
        for frame in instance.gold_frames:
            roll = rng.random()
            if roll < 0.2:
                continue  # miss
            if roll < 0.4:  # wrong type, word kept
                frames.append(EventFrame(Trigger(frame.trigger.word, random_type(rng)), frame.arguments))
            elif roll < 0.55:  # role flip on one argument
                args = list(frame.arguments)
                if args:
                    victim = rng.randrange(len(args))
                    args[victim] = ArgumentPair(safe_word(rng).capitalize(), args[victim].entity)
                frames.append(EventFrame(frame.trigger, tuple(args)))
            else:
                frames.append(frame)
            if rng.random() < 0.15:
                frames.append(frames[-1])  # duplicate prediction
        if rng.random() < 0.3:
            frames.append(EventFrame(Trigger(rng.choice(words), random_type(rng))))
        predictions[instance.doc_id] = frames
    return predictions
