"""Dev-set grid search over the fusion weight and selection threshold.

The search selects with cached candidate scores and cached argument
predictions; it never calls a generation backend. One sweep scores every
cell with a fixed handful of numpy calls per doc, however many cells there
are. Per doc the selection rule (selector.kept_mask) fuses the rank and beam
scores for the column of the cells' alphas and compares them with the column
of their thetas: a (cells, candidates) kept matrix. Its product with the
(candidates, triggers) parse matrix, > 0, is each cell's union of selected
triggers; the frames of the doc's distinct triggers are counted for all cells
in one metrics.match_count_matrix call per doc and added into the integer
totals (one call per split would hold a (cells, key occurrences) weight array
of megabytes). The reports equal those of evaluate_selection, the per-cell
reference. Ties break toward the smaller threshold, then the smaller weight.

The settings rule (checked_grids) is applied by grid_search and at config load.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import replacing
from .events import ContextInstance
from .generation import CandidateList, frames_from_cache
from .metrics import SUBTASKS, TRIG_C, EvalReport, evaluate_corpus, match_count_matrix
from .selector import SelectionConfig, fuse_and_select, kept_mask

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

    Doc ids must be unique (load_corpus skips repeats), as evaluate_corpus
    requires of its prediction rows.
    """
    alpha_column, theta_column = np.array(cells, dtype=np.float64).reshape(-1, 2).T[:, :, None]
    # correct/pred/gold counts per (cell, subtask)
    totals = np.zeros((len(cells), len(SUBTASKS), 3), dtype=np.int64)
    doc_ids: set[str] = set()
    for instance, candidates in dev:
        if instance.doc_id in doc_ids:
            raise ValueError(f"duplicate doc_id in dev set: {instance.doc_id!r}")
        doc_ids.add(instance.doc_id)
        kept = kept_mask(candidates, alpha_column, theta_column)  # (cells, candidates)
        cands = candidates.candidates
        triggers = list(dict.fromkeys(t for c in cands for t in c.triggers))  # distinct, in first-appearance order
        parses = np.array([[t in c.triggers for t in triggers] for c in cands], dtype=np.float64)
        selected = kept @ parses.reshape(len(cands), len(triggers)) > 0  # each cell's union of triggers
        frames = frames_from_cache(candidates, triggers)
        totals += match_count_matrix(selected, [(frames, instance.gold_frames)])
    return [GridCell(alpha, theta, EvalReport.from_counts(row)) for (alpha, theta), row in zip(cells, totals)]


def grid_search(
    dev: list[tuple[ContextInstance, CandidateList]],
    alpha_grid: list[float] | tuple[float, ...] = DEFAULT_ALPHA_GRID,
    theta_grid: list[float] | tuple[float, ...] = DEFAULT_THETA_GRID,
    metric: str = TRIG_C,
) -> GridSearchResult:
    if not dev:
        raise ValueError("empty dev set")
    alpha_grid, theta_grid = checked_grids(alpha_grid, theta_grid, metric)
    table = sweep_selection(
        dev, [(alpha, theta) for theta in sorted(theta_grid) for alpha in sorted(alpha_grid)]
    )
    best = max(table, key=lambda cell: cell.report.score(metric).f1)  # the first of equals
    return GridSearchResult(alpha=best.alpha, theta=best.theta, metric=metric, table=tuple(table))


def checked_grids(
    alpha_grid: Sequence[float], theta_grid: Sequence[float], metric: str
) -> tuple[list[float], list[float]]:
    """The settings rule of a grid search: nonempty grids of values that SelectionConfig
    accepts, a metric in SUBTASKS. Returns the grids as floats."""
    if not alpha_grid or not theta_grid:
        raise ValueError("grids must be nonempty")
    if metric not in SUBTASKS:
        raise ValueError(f"unknown metric: {metric!r}")
    for alpha in alpha_grid:
        SelectionConfig(alpha=alpha)
    for theta in theta_grid:
        SelectionConfig(theta=theta)
    return [float(alpha) for alpha in alpha_grid], [float(theta) for theta in theta_grid]


def write_score_table(cells: list[GridCell] | tuple[GridCell, ...], path: str | Path, comment: str) -> None:
    """A leading # comment, then CSV rows (alpha, theta, four F1 columns)."""
    with replacing(path) as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["alpha", "theta", "trig_i_f1", "trig_c_f1", "arg_i_f1", "arg_c_f1"])
        for cell in cells:
            writer.writerow(
                [f"{cell.alpha:g}", f"{cell.theta:g}"]
                + [f"{cell.report.score(name).f1:.6f}" for name in SUBTASKS]
            )
