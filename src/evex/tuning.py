"""Dev-set grid search over the fusion weight and selection threshold.

The search selects with cached candidate scores and cached argument
predictions; it never calls a generation backend. One sweep scores every
cell: it softmaxes the rank and beam scores once per doc and fuses them once
per (doc, alpha). A doc's match counts depend only on which candidates clear
theta, and those kept sets only grow as theta falls, so each doc's counts are
memoised by kept set and summed into integer totals per cell. The reports
equal those of evaluate_selection, the per-cell reference. Ties break toward
the smaller threshold, then the smaller weight.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import ContextInstance
from .generation import CandidateList, frames_from_cache
from .metrics import SUBTASKS, TRIG_C, EvalReport, SubtaskScore, evaluate_corpus, match_counts
from .selector import SelectionConfig, fuse_and_select, selected_triggers, softmax

DEFAULT_ALPHA_GRID = tuple(round(i * 0.1, 1) for i in range(11))  # 0.0 .. 1.0
DEFAULT_THETA_GRID = tuple(round(i * 0.05, 2) for i in range(1, 20))  # 0.05 .. 0.95


@dataclass(frozen=True)
class GridCell:
    alpha: float
    theta: float
    report: EvalReport


@dataclass(frozen=True)
class GridSearchResult:
    alpha: float
    theta: float
    metric: str
    table: tuple[GridCell, ...]

    def best_report(self) -> EvalReport:
        for cell in self.table:
            if cell.alpha == self.alpha and cell.theta == self.theta:
                return cell.report
        raise ValueError("best cell missing from table")


def evaluate_selection(
    dev: list[tuple[ContextInstance, CandidateList]],
    cfg: SelectionConfig,
) -> EvalReport:
    """Select with cached rank scores and score the resulting frames."""
    predictions = []
    for instance, candidates in dev:
        triggers = fuse_and_select(candidates, scorer=None, cfg=cfg)
        predictions.append((instance.doc_id, frames_from_cache(candidates, triggers)))
    return evaluate_corpus(predictions, [instance for instance, _ in dev])


def sweep_selection(
    dev: list[tuple[ContextInstance, CandidateList]],
    cells: list[tuple[float, float]],
) -> list[GridCell]:
    """One GridCell per (alpha, theta) in cells, in their order; each report
    equals evaluate_selection(dev, SelectionConfig(alpha, theta)).

    Doc ids must be unique (load_corpus skips repeats): counts are kept per
    doc, while evaluate_corpus would pool the frames of docs sharing an id.
    """
    columns: dict[float, dict[float, int]] = {}  # alpha -> theta -> its column in totals
    for alpha, theta in cells:
        columns.setdefault(alpha, {}).setdefault(theta, len(columns[alpha]))
    thetas = {alpha: np.array(list(by_theta), dtype=np.float64) for alpha, by_theta in columns.items()}
    # correct/pred/gold counts per (alpha, theta column, subtask)
    totals = {alpha: np.zeros((len(ts), len(SUBTASKS), 3), dtype=np.int64) for alpha, ts in thetas.items()}
    doc_ids: set[str] = set()
    for instance, candidates in dev:
        if instance.doc_id in doc_ids:
            raise ValueError(f"duplicate doc_id in dev set: {instance.doc_id!r}")
        doc_ids.add(instance.doc_id)
        gold = list(instance.gold_frames)
        memo: dict[tuple[int, ...], np.ndarray] = {}

        def counts(kept: tuple[int, ...]) -> np.ndarray:
            if kept not in memo:
                frames = frames_from_cache(candidates, selected_triggers(candidates, kept))
                memo[kept] = np.array([match_counts(frames, gold, name) for name in SUBTASKS])
            return memo[kept]

        if not candidates.candidates:
            for alpha_totals in totals.values():
                alpha_totals += counts(())
            continue
        if any(c.rank_score is None for c in candidates.candidates):
            raise ValueError(f"candidates of doc {candidates.doc_id!r} carry no rank scores")
        p = np.asarray(softmax([c.rank_score for c in candidates.candidates]))
        q = np.asarray(softmax([c.beam_score for c in candidates.candidates]))
        for alpha, alpha_thetas in thetas.items():
            fused = alpha * p + (1.0 - alpha) * q  # fuse_scores, elementwise
            above = fused[:, None] > alpha_thetas[None, :]
            # kept sets are nested in theta, so equal sizes mean equal sets
            _, first, inverse = np.unique(above.sum(axis=0), return_index=True, return_inverse=True)
            by_size = np.stack([counts(tuple(np.flatnonzero(above[:, j]).tolist())) for j in first])
            totals[alpha] += by_size[inverse]

    def report(alpha: float, theta: float) -> EvalReport:
        row = totals[alpha][columns[alpha][theta]]
        return EvalReport(
            **{name: SubtaskScore.from_counts(*map(int, row[k])) for k, name in enumerate(SUBTASKS)}
        )

    return [GridCell(alpha, theta, report(alpha, theta)) for alpha, theta in cells]


def grid_search(
    dev: list[tuple[ContextInstance, CandidateList]],
    alpha_grid: list[float] | tuple[float, ...] = DEFAULT_ALPHA_GRID,
    theta_grid: list[float] | tuple[float, ...] = DEFAULT_THETA_GRID,
    metric: str = TRIG_C,
) -> GridSearchResult:
    if not dev:
        raise ValueError("empty dev set")
    if not alpha_grid or not theta_grid:
        raise ValueError("grids must be nonempty")
    if metric not in SUBTASKS:
        raise ValueError(f"unknown metric: {metric!r}")
    for value in list(alpha_grid) + list(theta_grid):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"grid value outside [0, 1]: {value}")

    table = sweep_selection(
        dev, [(alpha, theta) for theta in sorted(theta_grid) for alpha in sorted(alpha_grid)]
    )
    best = max(table, key=lambda cell: cell.report.score(metric).f1)  # the first of equals
    return GridSearchResult(alpha=best.alpha, theta=best.theta, metric=metric, table=tuple(table))


def write_score_table(cells: list[GridCell] | tuple[GridCell, ...], path: str | Path, comment: str | None = None) -> None:
    """CSV rows (alpha, theta, four F1 columns); optional leading # comment."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["alpha", "theta", "trig_i_f1", "trig_c_f1", "arg_i_f1", "arg_c_f1"])
        for cell in cells:
            writer.writerow(
                [f"{cell.alpha:g}", f"{cell.theta:g}"]
                + [f"{cell.report.score(name).f1:.6f}" for name in SUBTASKS]
            )
