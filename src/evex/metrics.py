"""The four extraction F1 metrics with multiset matching.

Subtask keys:
    trigger identification    trigger word
    trigger classification    (trigger word, event type)
    argument identification   (entity, event type)
    argument classification   (entity, role, event type)

Matching is word-level (generated text carries no offsets): per instance,
the correct count for a key is min(pred occurrences, gold occurrences),
summed over keys, then micro-averaged corpus-wide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .events import ContextInstance, EventFrame

TRIG_I = "trig_i"
TRIG_C = "trig_c"
ARG_I = "arg_i"
ARG_C = "arg_c"
SUBTASKS = (TRIG_I, TRIG_C, ARG_I, ARG_C)


def _keys(frames: list[EventFrame], subtask: str) -> list[tuple]:
    keys: list[tuple] = []
    for frame in frames:
        trigger = frame.trigger
        if subtask == TRIG_I:
            keys.append((trigger.word,))
        elif subtask == TRIG_C:
            keys.append((trigger.word, trigger.event_type))
        elif subtask == ARG_I:
            keys.extend((p.entity, trigger.event_type) for p in frame.arguments)
        elif subtask == ARG_C:
            keys.extend((p.entity, p.role, trigger.event_type) for p in frame.arguments)
        else:
            raise ValueError(f"unknown subtask: {subtask!r}")
    return keys


def match_counts(
    pred: list[EventFrame], gold: list[EventFrame], subtask: str
) -> tuple[int, int, int]:
    """(n_correct, n_pred, n_gold) for one instance under multiset matching."""
    pred_keys = Counter(_keys(pred, subtask))
    gold_keys = Counter(_keys(gold, subtask))
    n_correct = sum(min(count, gold_keys[key]) for key, count in pred_keys.items())
    return n_correct, sum(pred_keys.values()), sum(gold_keys.values())


def match_count_matrix(selected: np.ndarray, frames: list[EventFrame], gold: list[EventFrame]) -> np.ndarray:
    """match_counts of many predictions against one gold list: row r of the 0/1
    (rows, frames) matrix `selected` predicts the frames it marks. Returns int64
    (rows, SUBTASKS, 3) counts (n_correct, n_pred, n_gold). Each subtask's keys
    are a run of columns of one (frames, keys) count matrix; the products run in
    float64, exact for these integer counts and, unlike integer matmul, on BLAS."""
    columns: dict[tuple, int] = {}  # (subtask index, key) -> column
    cells, gold_cols, widths, n_gold = [], [], [], []  # cells: (frame, column) per key occurrence
    for k, subtask in enumerate(SUBTASKS):
        start = len(columns)
        for t, frame in enumerate(frames):
            cells += [(t, columns.setdefault((k, key), len(columns))) for key in _keys([frame], subtask)]
        gold_keys = _keys(gold, subtask)
        gold_cols += [columns.setdefault((k, key), len(columns)) for key in gold_keys]
        widths.append(len(columns) - start)
        n_gold.append(len(gold_keys))
    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    counts = np.bincount(rows * len(columns) + cols, minlength=len(frames) * len(columns)).astype(np.float64)
    counts = counts.reshape(len(frames), len(columns))
    gold_counts = np.bincount(np.array(gold_cols, dtype=np.intp), minlength=len(columns))
    by_subtask = np.repeat(np.eye(len(SUBTASKS)), widths, axis=0)  # (keys, SUBTASKS) 0/1
    out = np.empty((len(selected), len(SUBTASKS), 3), dtype=np.int64)
    out[..., 0] = np.minimum(selected @ counts, gold_counts) @ by_subtask
    out[..., 1] = selected @ (counts @ by_subtask)
    out[..., 2] = n_gold
    return out


def f1_from_counts(n_correct: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    if min(n_correct, n_pred, n_gold) < 0:
        raise ValueError("counts must be nonnegative")
    if n_correct > min(n_pred, n_gold):
        raise ValueError("n_correct must not exceed n_pred or n_gold")
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class SubtaskScore:
    n_gold: int
    n_pred: int
    n_correct: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, n_correct: int, n_pred: int, n_gold: int) -> "SubtaskScore":
        precision, recall, f1 = f1_from_counts(n_correct, n_pred, n_gold)
        return cls(n_gold, n_pred, n_correct, precision, recall, f1)


@dataclass(frozen=True)
class EvalReport:
    trig_i: SubtaskScore
    trig_c: SubtaskScore
    arg_i: SubtaskScore
    arg_c: SubtaskScore

    def score(self, subtask: str) -> SubtaskScore:
        return {TRIG_I: self.trig_i, TRIG_C: self.trig_c, ARG_I: self.arg_i, ARG_C: self.arg_c}[
            subtask
        ]

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        lines = []
        labels = {TRIG_I: "Trig-I", TRIG_C: "Trig-C", ARG_I: "Arg-I", ARG_C: "Arg-C"}
        for name in SUBTASKS:
            s = self.score(name)
            lines.append(
                f"{labels[name]}  P: {s.precision:6.2%} ({s.n_correct}/{s.n_pred})"
                f"  R: {s.recall:6.2%} ({s.n_correct}/{s.n_gold})  F1: {s.f1:6.2%}"
            )
        return "\n".join(lines)


def evaluate_corpus(
    predictions: list[tuple[str, list[EventFrame]]],
    gold: list[ContextInstance],
) -> EvalReport:
    """Micro-averaged scores over a corpus.

    Predictions are (doc_id, frames) rows; several rows for one doc_id are
    concatenated. Gold instances without a prediction row count as empty
    predictions; a prediction doc_id absent from gold is an error.
    """
    gold_ids = {instance.doc_id for instance in gold}
    pred_by_doc: dict[str, list[EventFrame]] = {}
    for doc_id, frames in predictions:
        if doc_id not in gold_ids:
            raise ValueError(f"unknown doc_id in predictions: {doc_id!r}")
        pred_by_doc.setdefault(doc_id, []).extend(frames)

    totals = {name: [0, 0, 0] for name in SUBTASKS}  # correct, pred, gold
    for instance in gold:
        pred_frames = pred_by_doc.get(instance.doc_id, [])
        for name in SUBTASKS:
            n_correct, n_pred, n_gold = match_counts(
                pred_frames, list(instance.gold_frames), name
            )
            totals[name][0] += n_correct
            totals[name][1] += n_pred
            totals[name][2] += n_gold

    return EvalReport(
        **{
            name: SubtaskScore.from_counts(*totals[name])
            for name in SUBTASKS
        }
    )
