"""Dev-set grid search over the fusion weight and selection threshold.

The search selects with cached candidate scores and cached argument
predictions; it never calls a generation backend. One sweep scores every
cell with a fixed handful of numpy calls per doc, however many cells there
are. Per doc one selector.select call, given the column of the cells' alphas
and the column of their thetas, gives a (cells, triggers) matrix of each
cell's selected triggers among the doc's distinct ones; their frames are
counted for all cells in one metrics.match_count_matrix call per doc and
added into the integer totals (one call per split would hold a (cells, key
occurrences) weight array of megabytes). It is the one scorer of a selection (evaluate_selection sweeps
one cell). Ties break toward the smaller threshold, then the smaller weight.

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
from .metrics import SUBTASKS, TRIG_C, EvalReport, match_count_matrix
from .metrics import evaluate_corpus  # noqa: F401  unused here; a benchmark tracer wraps it by this name
from .selector import SelectionConfig, select
from .selector import fuse_and_select  # noqa: F401  unused here; a benchmark tracer wraps it by this name

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
    report: EvalReport  # of the chosen cell
    table: tuple[GridCell, ...]


def evaluate_selection(
    dev: list[tuple[ContextInstance, CandidateList]],
    cfg: SelectionConfig,
) -> EvalReport:
    """Select with cached rank scores and score the resulting frames: the sweep of one cell."""
    return sweep_selection(dev, [(cfg.alpha, cfg.theta)])[0].report


def sweep_selection(
    dev: list[tuple[ContextInstance, CandidateList]],
    cells: list[tuple[float, float]],
) -> list[GridCell]:
    """One GridCell per (alpha, theta) in cells, in their order.

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
        _, triggers, selected = select(candidates, alpha_column, theta_column)  # selected: (cells, triggers)
        totals += match_count_matrix(selected, [(frames_from_cache(candidates, triggers), instance.gold_frames)])
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
    return GridSearchResult(alpha=best.alpha, theta=best.theta, metric=metric, report=best.report, table=tuple(table))


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
