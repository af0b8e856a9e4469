"""Error metrics, multi-run aggregation, heatmaps, fold selection."""

import concurrent.futures
import multiprocessing
import os
import tempfile

import numpy as np
import pytest

from rfloc.data import Dataset
from rfloc.errors import ConfigError, DataError, WorkerError
from rfloc.evalmetrics import (
    MAX_HEATMAP_CELLS,
    METRIC_NAMES,
    MetricsReport,
    aggregate_runs,
    compute_heatmap,
    compute_metrics,
    cross_validate,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from rfloc.localizer import predict
from rfloc.meanteacher import MeanTeacherConfig, adapt
from util import cross_validate_serial, overall_mae_d


FIXTURE_PREDS = np.array([[3.0, 4.0], [0.0, 0.0]])
FIXTURE_LABELS = np.zeros((2, 2))


def test_metrics_fixture_exact():
    # Errors (3,4) and (0,0): mae_x = 1.5, mae_y = 2.0, distance errors
    # {5, 0} so mae_d = 2.5 and rmse_d = sqrt(25/2) = sqrt(12.5).
    r = compute_metrics(FIXTURE_PREDS, FIXTURE_LABELS)
    assert r.mae_x == 1.5
    assert r.mae_y == 2.0
    assert r.mae_d == 2.5
    assert r.rmse_d == np.sqrt(12.5)
    assert r.rmse_x == np.sqrt(4.5)
    assert r.rmse_y == np.sqrt(8.0)


def test_rmse_dominates_mae():
    gen = np.random.default_rng(0)
    preds = gen.normal(size=(50, 2))
    labels = gen.normal(size=(50, 2))
    r = compute_metrics(preds, labels)
    assert r.rmse_d >= r.mae_d
    assert r.rmse_x >= r.mae_x
    assert r.rmse_y >= r.mae_y


def test_metrics_zero_for_perfect_predictions():
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    r = compute_metrics(p, p.copy())
    assert all(r.value(m) == 0.0 for m in METRIC_NAMES)


def test_single_run_report_defaults():
    r = compute_metrics(FIXTURE_PREDS, FIXTURE_LABELS)
    assert r.n_runs == 1
    assert r.per_run["mae_d"] == [2.5]
    assert r.std["mae_d"] == 0.0


def test_aggregate_population_std():
    r1 = compute_metrics(np.array([[1.0, 0.0]]), np.zeros((1, 2)))  # mae_d 1
    r2 = compute_metrics(np.array([[3.0, 0.0]]), np.zeros((1, 2)))  # mae_d 3
    agg = aggregate_runs([r1, r2])
    assert agg.mae_d == 2.0
    assert agg.std["mae_d"] == 1.0  # population, not sample
    assert agg.per_run["mae_d"] == [1.0, 3.0]
    assert agg.n_runs == 2


# ---------------------------------------------------------------- heatmap

def test_heatmap_weighted_mean_identity():
    gen = np.random.default_rng(3)
    labels = gen.uniform(0, 10, size=(300, 2))
    preds = labels + gen.normal(0, 1.0, size=(300, 2))
    grid = compute_heatmap(preds, labels, cell=1.0)
    mae_d = compute_metrics(preds, labels).mae_d
    assert abs(overall_mae_d(grid) - mae_d) <= 1e-9
    assert grid.counts.sum() == 300


def test_heatmap_bins_by_true_location():
    labels = np.array([[0.5, 0.5], [0.4, 0.6], [2.5, 0.5]])
    preds = labels + np.array([[1.0, 0.0], [0.0, 3.0], [0.0, 0.5]])
    grid = compute_heatmap(preds, labels, cell=1.0)
    assert grid.values.shape == (1, 3)
    assert grid.counts[0, 0] == 2 and grid.counts[0, 2] == 1
    assert grid.values[0, 0] == pytest.approx(2.0)  # (1 + 3) / 2
    assert grid.values[0, 2] == pytest.approx(0.5)
    assert grid.counts[0, 1] == 0 and np.isnan(grid.values[0, 1])


def test_heatmap_bins_the_sample_at_the_smallest_label():
    # floor(6.8 / 0.05) * 0.05 is 6.800000000000001, one ulp above the
    # smallest x: the sample at x = 6.8 floors to column -1 unless clamped.
    labels = np.array([[6.8, 1.0], [7.3, 2.0], [8.0, 3.0]])
    preds = labels + np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    grid = compute_heatmap(preds, labels, cell=0.05)
    assert grid.origin == (6.800000000000001, 1.0)
    assert grid.counts.sum() == 3
    assert grid.counts[0, 0] == 1 and grid.values[0, 0] == 1.0
    assert abs(overall_mae_d(grid) - compute_metrics(preds, labels).mae_d) <= 1e-12
    # All samples on that one coordinate: a grid of one row, not of none.
    flat = np.array([[1.0, 6.8], [2.0, 6.8]])
    grid = compute_heatmap(flat, flat, cell=0.05)
    assert grid.origin == (1.0, 6.800000000000001)
    assert grid.counts.shape[0] == 1 and grid.counts.sum() == 2


def test_heatmap_validation():
    with pytest.raises(ConfigError):
        compute_heatmap(np.zeros((1, 2)), np.zeros((1, 2)), cell=0.0)
    with pytest.raises(ConfigError):
        compute_heatmap(np.zeros((1, 2)), np.zeros((1, 2)), cell=float("nan"))


def test_heatmap_grid_size_is_capped():
    labels = np.array([[0.0, 0.0], [10.0, 10.0]])
    with pytest.raises(ConfigError, match="exceeds"):
        compute_heatmap(labels, labels, cell=1e-4)  # 100,001 x 100,001 cells
    grid = compute_heatmap(labels, labels, cell=0.011)
    assert grid.values.size <= MAX_HEATMAP_CELLS


def test_heatmap_csv_empty_cell_sentinel(tmp_path):
    labels = np.array([[0.5, 0.5], [2.5, 2.5]])
    preds = labels + np.array([[1.0, 0.0], [2.0, 0.0]])
    grid = compute_heatmap(preds, labels, cell=1.0)
    path = tmp_path / "grid.csv"
    write_heatmap_csv(grid, path, receivers=[(0.0, 0.0)], run_id="cafe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# run: cafe"
    assert any(line.startswith("# receivers:") for line in lines)
    data = [line for line in lines if not line.startswith("#")]
    # Top row first (largest y): the (2.5, 2.5) sample with error 2.
    assert data[0] == ",,2.0"
    assert data[2] == "1.0,,"


def test_heatmap_pgm_scale(tmp_path):
    labels = np.array([[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]])
    preds = labels + np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)])
    grid = compute_heatmap(preds, labels, cell=1.0)
    pgm = tmp_path / "g.pgm"
    scale = tmp_path / "g.scale.txt"
    write_heatmap_pgm(grid, pgm, scale)
    raw = pgm.read_bytes()
    header, rest = raw.split(b"255\n", 1)
    assert header == b"P5\n3 1\n"
    assert list(rest) == [1, 128, 255]  # linear 1..255 over [1, 3]
    text = scale.read_text()
    assert "vmin = 1.0" in text and "vmax = 3.0" in text
    assert "empty_cell_gray = 0" in text


def test_heatmap_pgm_constant_value(tmp_path):
    labels = np.array([[0.5, 0.5], [2.5, 0.5]])
    preds = labels + np.array([[1.0, 0.0], [1.0, 0.0]])
    grid = compute_heatmap(preds, labels, cell=1.0)
    write_heatmap_pgm(grid, tmp_path / "c.pgm", tmp_path / "c.scale.txt")
    rest = (tmp_path / "c.pgm").read_bytes().split(b"255\n", 1)[1]
    assert list(rest) == [1, 0, 1]  # filled cells gray 1, empty cell 0


# ---------------------------------------------------------------- selection

def _grid_dataset() -> Dataset:
    gen = np.random.default_rng(6)
    n = 60
    labels = gen.uniform(0, 4, size=(n, 2))
    features = np.tile(labels, 4) + gen.normal(0, 0.01, size=(n, 8))
    return Dataset("grid", features, labels)


def test_cross_validate_picks_better_recipe():
    ds = _grid_dataset()

    def recipe(train, val, config):
        if config["mode"] == "mean":
            center = train.labels.mean(axis=0)
            return np.tile(center, (len(val), 1))
        return np.zeros((len(val), 2))

    best, results = cross_validate(ds, recipe, [{"mode": "mean"}, {"mode": "zeros"}], n_folds=3)
    assert best == {"mode": "mean"}
    assert len(results) == 2
    by_mode = {r["mode"]: r["val_mae_d"] for r in results}
    assert by_mode["mean"] < by_mode["zeros"]


def test_cross_validate_tie_breaks_lexicographically():
    ds = _grid_dataset()

    def recipe(train, val, config):
        return np.zeros((len(val), 2))  # identical score for every config

    best, _ = cross_validate(ds, recipe, [{"alpha": 0.9}, {"alpha": 0.7}], n_folds=2)
    assert best == {"alpha": 0.7}


def test_cross_validate_validation():
    ds = _grid_dataset()
    with pytest.raises(DataError, match="fold selection requires a labeled target CSV"):
        cross_validate(ds.without_labels(), lambda t, v, c: None, [{}])


def test_cross_validate_results_in_grid_order():
    ds = _grid_dataset()

    def recipe(train, val, config):
        return np.full((len(val), 2), config["bias"])

    grid = [{"bias": 2.0}, {"bias": 0.5}, {"bias": 1.0}]
    _, results = cross_validate(ds, recipe, grid, n_folds=2)
    assert [r["bias"] for r in results] == [2.0, 0.5, 1.0]


def _mean_or_zeros(train, val, config):
    if config["mode"] == "mean":
        return np.tile(train.labels.mean(axis=0), (len(val), 1))
    return np.zeros((len(val), 2))


LAMBDA_GRIDS = [
    (_mean_or_zeros, [{"mode": "mean"}, {"mode": "zeros"}], 3),
    (lambda t, v, c: np.zeros((len(v), 2)), [{"alpha": 0.9}, {"alpha": 0.7}], 2),
    (lambda t, v, c: np.full((len(v), 2), c["bias"]), [{"bias": 2.0}, {"bias": 0.5}, {"bias": 1.0}], 2),
]


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("case", range(len(LAMBDA_GRIDS)))
def test_cross_validate_equals_serial_loop(monkeypatch, cpus, case):
    recipe, grid, n_folds = LAMBDA_GRIDS[case]
    ds = _grid_dataset()
    expected = cross_validate_serial(ds, recipe, grid, n_folds=n_folds, seed=3)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cross_validate(ds, recipe, grid, n_folds=n_folds, seed=3) == expected


@pytest.mark.parametrize("cpus", [1, 3])
def test_cross_validate_mtloc_conf_equals_serial_loop(monkeypatch, cpus, source_model, small_target):
    def recipe(train, val, config):
        cfg = MeanTeacherConfig(confidence=True, epochs=1, noise_variance=0.3, **config)
        adapted, _ = adapt(source_model, train.without_labels(), cfg)
        return predict(adapted, val)

    grid = [{"alpha": 0.7, "k": 2}, {"alpha": 0.8, "k": 8}]
    expected = cross_validate_serial(small_target, recipe, grid, n_folds=3)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cross_validate(small_target, recipe, grid, n_folds=3) == expected


class _PoolSizes(concurrent.futures.ProcessPoolExecutor):
    """Records the worker count of every pool cross_validate makes."""

    sizes: list = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.mark.parametrize(
    "cpus, n_configs, n_folds, workers",
    [(1, 3, 2, 1), (None, 3, 2, 1), (8, 1, 2, 2), (8, 2, 3, 6), (2, 2, 3, 2)],
    ids=["one-cpu", "cpu-count-unknown", "two-tasks", "six-tasks", "two-cpus"],
)
def test_cross_validate_worker_count(monkeypatch, tmp_path, cpus, n_configs, n_folds, workers):
    # Each task leaves a file named after the process that ran it.
    def recipe(train, val, config):
        os.close(tempfile.mkstemp(prefix=f"{os.getpid()}-", dir=tmp_path)[0])
        return np.zeros((len(val), 2))

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolSizes)
    _PoolSizes.sizes = []
    grid = [{"i": i} for i in range(n_configs)]
    cross_validate(_grid_dataset(), recipe, grid, n_folds=n_folds)
    assert _PoolSizes.sizes == [workers]
    pids = {int(p.name.split("-")[0]) for p in tmp_path.iterdir()}
    assert os.getpid() not in pids and 1 <= len(pids) <= workers
    assert len(list(tmp_path.iterdir())) == n_configs * n_folds
    assert multiprocessing.active_children() == []


def test_cross_validate_error_leaves_no_workers():
    # The first failing task in grid order raises, as in the serial loop.
    def recipe(train, val, config):
        if config["bad"]:
            raise ConfigError(f"bad config {config['name']}")
        return np.zeros((len(val), 2))

    grid = [{"bad": False, "name": "a"}, {"bad": True, "name": "b"}, {"bad": True, "name": "c"}]
    with pytest.raises(ConfigError, match="bad config b"):
        cross_validate(_grid_dataset(), recipe, grid, n_folds=3)
    assert multiprocessing.active_children() == []


def test_cross_validate_dead_worker_raises_worker_error():
    def recipe(train, val, config):
        if config["die"]:
            os._exit(9)
        return np.zeros((len(val), 2))

    grid = [{"die": False}, {"die": True}]
    with pytest.raises(WorkerError, match="worker process died"):
        cross_validate(_grid_dataset(), recipe, grid, n_folds=2)
    assert multiprocessing.active_children() == []
