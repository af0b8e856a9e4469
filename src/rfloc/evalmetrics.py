"""Evaluation: per-axis and Euclidean error metrics, multi-run aggregation,
error heatmaps binned by true location, and a k-fold selection harness.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, make_folds
from .errors import ConfigError, DataError, WorkerError

METRIC_NAMES = ("mae_x", "mae_y", "mae_d", "rmse_x", "rmse_y", "rmse_d")
# Largest heatmap grid: 1000 x 1000 cells, a 10 m room at 1 cm resolution,
# hold about 24 MB of counts, sums and values.
MAX_HEATMAP_CELLS = 1_000_000


@dataclass
class MetricsReport:
    """Mean metrics with per-run values and across-run population std."""

    mae_x: float
    mae_y: float
    mae_d: float
    rmse_x: float
    rmse_y: float
    rmse_d: float
    n_runs: int = 1
    per_run: dict = field(default_factory=dict)  # metric -> list of per-run values
    std: dict = field(default_factory=dict)  # metric -> across-run std

    def __post_init__(self):
        if not self.per_run:
            self.per_run = {m: [getattr(self, m)] for m in METRIC_NAMES}
        if not self.std:
            self.std = {m: 0.0 for m in METRIC_NAMES}

    def value(self, metric: str) -> float:
        """The mean value of one of METRIC_NAMES."""
        return getattr(self, metric)


def compute_metrics(preds: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """Single-run metrics of (n, 2) predictions against a Dataset's (n, 2)
    labels.

    mae_d is the mean Euclidean distance error; rmse_d is the root of the
    mean squared distance error, so rmse_d >= mae_d always.
    """
    diff = preds - labels
    sq = diff * diff
    dist_sq = sq.sum(axis=1)
    return MetricsReport(
        mae_x=float(np.abs(diff[:, 0]).mean()),
        mae_y=float(np.abs(diff[:, 1]).mean()),
        mae_d=float(np.sqrt(dist_sq).mean()),
        rmse_x=float(np.sqrt(sq[:, 0].mean())),
        rmse_y=float(np.sqrt(sq[:, 1].mean())),
        rmse_d=float(np.sqrt(dist_sq.mean())),
    )


def aggregate_runs(reports: list[MetricsReport]) -> MetricsReport:
    """Combine one or more single-run reports: per-metric mean and
    population std."""
    per_run = {m: [r.value(m) for r in reports] for m in METRIC_NAMES}
    means = {m: float(np.mean(v)) for m, v in per_run.items()}
    stds = {m: float(np.std(v)) for m, v in per_run.items()}
    return MetricsReport(**means, n_runs=len(reports), per_run=per_run, std=stds)


# ---------------------------------------------------------------- heatmap

@dataclass
class HeatmapGrid:
    """Mean distance error binned by TRUE location. NaN marks empty cells."""

    origin: tuple[float, float]
    cell: float
    values: np.ndarray  # (rows, cols) mean distance error, NaN where empty
    counts: np.ndarray  # (rows, cols) samples per cell


def compute_heatmap(preds: np.ndarray, labels: np.ndarray, cell: float = 1.0) -> HeatmapGrid:
    """Bin samples by true location into cell x cell squares of a grid
    that covers the labels' bounding box; preds and labels are (n, 2).

    The origin is each coordinate's minimum floored to a multiple of cell.
    A grid of more than MAX_HEATMAP_CELLS cells is refused.
    """
    if not (np.isfinite(cell) and cell > 0):
        raise ConfigError(f"cell size must be positive and finite, got {cell}")
    # A tiny cell overflows these to infinity (a grid of -inf rows when the
    # origin overflows too); the size check refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        origin = (
            float(np.floor(labels[:, 0].min() / cell) * cell),
            float(np.floor(labels[:, 1].min() / cell) * cell),
        )
        cols_f = (labels[:, 0] - origin[0]) / cell
        rows_f = (labels[:, 1] - origin[1]) / cell
    n_rows = float(np.floor(rows_f.max())) + 1.0
    n_cols = float(np.floor(cols_f.max())) + 1.0
    if not (math.isfinite(n_rows) and math.isfinite(n_cols)
            and max(n_rows, 1.0) * max(n_cols, 1.0) <= MAX_HEATMAP_CELLS):
        raise ConfigError(
            f"heatmap grid of {abs(n_rows):.3g} x {abs(n_cols):.3g} cells exceeds"
            f" {MAX_HEATMAP_CELLS} cells; use a larger cell size"
        )
    # The origin, floor(min / cell) * cell, can round one ulp above the
    # minimum, which floors that sample's index to -1. Indices are clamped
    # at 0, so every sample lands in a grid of at least one row and column.
    n_rows, n_cols = max(int(n_rows), 1), max(int(n_cols), 1)
    rows = np.maximum(np.floor(rows_f).astype(int), 0)
    cols = np.maximum(np.floor(cols_f).astype(int), 0)
    err = np.sqrt(((preds - labels) ** 2).sum(axis=1))
    counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    sums = np.zeros((n_rows, n_cols), dtype=np.float64)
    np.add.at(counts, (rows, cols), 1)
    np.add.at(sums, (rows, cols), err)
    values = np.full((n_rows, n_cols), np.nan)
    filled = counts > 0
    values[filled] = sums[filled] / counts[filled]
    return HeatmapGrid(origin, float(cell), values, counts)


def write_heatmap_csv(grid: HeatmapGrid, path, receivers=None, run_id: str | None = None) -> None:
    """Rows from the top (largest y) down; empty cells written as the empty
    string sentinel, never as 0."""
    with open(path, "w", newline="") as fh:
        if run_id:
            fh.write(f"# run: {run_id}\n")
        fh.write(f"# origin: {grid.origin[0]!r},{grid.origin[1]!r}\n")
        fh.write(f"# cell: {grid.cell!r}\n")
        if receivers is not None:
            rx = ";".join(f"{float(x)!r},{float(y)!r}" for x, y in receivers)
            fh.write(f"# receivers: {rx}\n")
        for r in range(grid.values.shape[0] - 1, -1, -1):
            cells = [
                "" if grid.counts[r, c] == 0 else repr(float(grid.values[r, c]))
                for c in range(grid.values.shape[1])
            ]
            fh.write(",".join(cells) + "\n")


def write_heatmap_pgm(grid: HeatmapGrid, pgm_path, scale_path) -> None:
    """8-bit binary graymap plus a sidecar describing the value scale.

    Empty cells map to 0; data maps linearly onto 1..255.
    """
    filled = grid.counts > 0
    vmin = float(grid.values[filled].min())
    vmax = float(grid.values[filled].max())
    span = vmax - vmin
    pixels = np.zeros(grid.values.shape, dtype=np.uint8)
    if span > 0:
        scaled = 1 + np.round(254.0 * (grid.values[filled] - vmin) / span)
    else:
        scaled = np.ones(int(filled.sum()))
    pixels[filled] = scaled.astype(np.uint8)
    pixels = pixels[::-1, :]  # top row = largest y, as in the CSV
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    with open(scale_path, "w") as fh:
        fh.write(f"vmin = {vmin!r}\nvmax = {vmax!r}\n")
        fh.write(f"origin = {grid.origin[0]!r},{grid.origin[1]!r}\ncell = {grid.cell!r}\n")
        fh.write("empty_cell_gray = 0\n")


# ---------------------------------------------------------------- selection

_fold_job = None  # set only inside fold workers, by _init_fold_worker


def _init_fold_worker(train_set, recipe, configs, folds) -> None:
    global _fold_job
    _fold_job = (train_set, recipe, configs, folds)


def _score_fold(task) -> float:
    """Validation mae_d of grid entry config_index on one fold."""
    config_index, fold = task
    train_set, recipe, configs, folds = _fold_job
    tr = train_set.subset(folds.train_indices(fold))
    va = train_set.subset(folds.val_indices(fold))
    preds = recipe(tr, va, configs[config_index])
    return compute_metrics(preds, va.labels).mae_d


def cross_validate(
    train_set: Dataset,
    recipe,
    configs: list[dict],
    n_folds: int = 5,
    seed: int = 0,
):
    """Grid selection by k-fold validation distance error.

    recipe(train: Dataset, val: Dataset, config: dict) -> predictions for
    val. Returns (best_config, results) where results is a list of
    {**config, "val_mae_d": score} in grid order. Ties are broken by the
    lexicographically smaller config (sorted key/value pairs).

    The config x fold recipe calls are independent. They run in a fresh
    pool of min(configs x folds, os.cpu_count()) forked processes, and the
    scores come back in grid order, so the results equal a serial run's.
    An exception raised by a recipe call reaches the caller with its type
    and message, the first in grid order, after the pool has shut down. A
    worker that dies (say, killed by the operating system) raises
    WorkerError, also after the shutdown.
    """
    if not train_set.labeled:
        raise DataError("fold selection requires a labeled target CSV")
    folds = make_folds(train_set, n_folds=n_folds, seed=seed)
    # Imported here, not at the top: every CLI verb imports this module, and
    # only cv needs the pool's modules (about 18 ms to import with Python
    # 3.11 on a 2-vCPU Xeon).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tasks = [(ci, fold) for ci in range(len(configs)) for fold in range(n_folds)]
    # Workers are forked, so they inherit the dataset, folds, configs and
    # recipe (closures and lambdas included) instead of receiving them
    # pickled. The method is named because Python 3.14 makes forkserver the
    # Linux default.
    try:
        with ProcessPoolExecutor(
            max_workers=min(len(tasks), os.cpu_count() or 1),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_fold_worker,
            initargs=(train_set, recipe, configs, folds),
        ) as pool:
            scores = list(pool.map(_score_fold, tasks))
    except BrokenProcessPool as e:
        raise WorkerError(f"a fold selection worker process died: {e}") from e
    results = [
        {**config, "val_mae_d": float(np.mean(scores[ci * n_folds : (ci + 1) * n_folds]))}
        for ci, config in enumerate(configs)
    ]

    def sort_key(r):
        return (r["val_mae_d"], tuple(sorted((str(k), repr(r[k])) for k in r if k != "val_mae_d")))
    best = min(results, key=sort_key)
    best_config = {k: v for k, v in best.items() if k != "val_mae_d"}
    return best_config, results
