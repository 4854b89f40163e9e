"""The four extraction F1 metrics with multiset matching.

Subtask keys:
    trigger identification    trigger word
    trigger classification    (trigger word, event type)
    argument identification   (entity, event type)
    argument classification   (entity, role, event type)

Matching is word-level (generated text carries no offsets): per instance,
the correct count for a key is min(pred occurrences, gold occurrences),
summed over keys, then micro-averaged corpus-wide. One function counts this
rule over a list of docs, match_count_matrix: evaluate_corpus calls it once per
corpus with one prediction row, the grid sweep (tuning.sweep_selection) once per
doc with one row per cell; both report the summed counts (EvalReport.from_counts).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .events import ContextInstance, EventFrame

TRIG_I = "trig_i"
TRIG_C = "trig_c"
ARG_I = "arg_i"
ARG_C = "arg_c"
SUBTASKS = (TRIG_I, TRIG_C, ARG_I, ARG_C)


def _frame_keys(frame: EventFrame) -> list[tuple]:
    """Every (subtask index, key) of one frame."""
    word, event_type = frame.trigger.word, frame.trigger.event_type
    return [(0, (word,)), (1, (word, event_type))] + [
        key for p in frame.arguments for key in ((2, (p.entity, event_type)), (3, (p.entity, p.role, event_type)))
    ]


def match_count_matrix(selected: np.ndarray, docs: list[tuple]) -> np.ndarray:
    """The multiset match of many predictions over docs, (frames, gold frames) pairs: row r
    of the 0/1 (rows, frames of all docs in doc order) matrix `selected` predicts the frames it
    marks. Returns int64 (rows, SUBTASKS, 3) counts (n_correct, n_pred, n_gold) summed over the
    docs. Each doc owns its key columns, so keys match only within their doc. Sums are float64."""
    subtask_of, cells, gold_cols = [], [], []  # per column; (frame, column) per predicted key; per gold key
    t = -1  # the last frame index used: frames are numbered across docs, as the columns of `selected`
    for frames, gold in docs:
        columns: dict[tuple, int] = {}  # the doc's (subtask index, key) -> column
        for t, frame in enumerate(frames, t + 1):
            cells += [(t, columns.setdefault(key, len(subtask_of) + len(columns))) for key in _frame_keys(frame)]
        gold_cols += [columns.setdefault(key, len(subtask_of) + len(columns)) for f in gold for key in _frame_keys(f)]
        subtask_of += [k for k, _ in columns]
    frame_of, column_of = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    n_rows, n_cols = len(selected), len(subtask_of)
    slots = (np.arange(n_rows)[:, None] * n_cols + column_of).ravel()  # one bincount slot per (row, column)
    pred = np.bincount(slots, selected[:, frame_of].ravel(), n_rows * n_cols).reshape(n_rows, n_cols)
    gold_counts = np.bincount(np.array(gold_cols, dtype=np.intp), minlength=n_cols)
    by_subtask = np.eye(len(SUBTASKS))[np.array(subtask_of, dtype=np.intp)]  # (columns, SUBTASKS) 0/1
    out = np.empty((n_rows, len(SUBTASKS), 3), dtype=np.int64)
    out[..., 0] = np.minimum(pred, gold_counts) @ by_subtask
    out[..., 1] = pred @ by_subtask
    out[..., 2] = gold_counts @ by_subtask
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


@dataclass(frozen=True)
class EvalReport:
    trig_i: SubtaskScore
    trig_c: SubtaskScore
    arg_i: SubtaskScore
    arg_c: SubtaskScore

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "EvalReport":
        """The report of (SUBTASKS, 3) counts: (n_correct, n_pred, n_gold) per subtask."""
        rows = zip(SUBTASKS, counts.tolist())
        return cls(**{name: SubtaskScore(g, p, c, *f1_from_counts(c, p, g)) for name, (c, p, g) in rows})

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
    """Micro-averaged scores over a corpus, counted in one match_count_matrix call.

    Predictions are (doc_id, frames) rows, at most one per doc_id. Gold
    instances without a prediction row count as empty predictions; a
    prediction doc_id absent from gold, or repeated, is an error.
    """
    gold_ids = {instance.doc_id for instance in gold}
    pred_by_doc: dict[str, list[EventFrame]] = {}
    for doc_id, frames in predictions:
        if doc_id not in gold_ids:
            raise ValueError(f"unknown doc_id in predictions: {doc_id!r}")
        if doc_id in pred_by_doc:
            raise ValueError(f"repeated doc_id in predictions: {doc_id!r}")
        pred_by_doc[doc_id] = frames
    docs = [(pred_by_doc.get(instance.doc_id, []), instance.gold_frames) for instance in gold]
    n_frames = sum(len(frames) for frames, _ in docs)
    return EvalReport.from_counts(match_count_matrix(np.ones((1, n_frames)), docs)[0])
