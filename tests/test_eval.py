"""Error metrics, heatmaps, fold selection."""

import concurrent.futures
import multiprocessing
import os
import tempfile
import threading

import numpy as np
import pytest

from rfloc import networks
from rfloc.data import Dataset
from rfloc.errors import ConfigError, DataError, WorkerError
from rfloc.evalmetrics import (
    MAX_HEATMAP_CELLS,
    METRIC_NAMES,
    compute_heatmap,
    compute_metrics,
    cross_validate,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from rfloc.localizer import predict
from rfloc.meanteacher import ConfidenceConfig, adapt, first_pass
from util import cross_validate_serial, overall_mae_d


FIXTURE_PREDS = np.array([[3.0, 4.0], [0.0, 0.0]])
FIXTURE_LABELS = np.zeros((2, 2))


def test_metrics_fixture_exact():
    # Errors (3,4) and (0,0): mae_x = 1.5, mae_y = 2.0, distance errors
    # {5, 0} so mae_d = 2.5 and rmse_d = sqrt(25/2) = sqrt(12.5).
    r = compute_metrics(FIXTURE_PREDS, FIXTURE_LABELS)
    assert r["mae_x"] == 1.5
    assert r["mae_y"] == 2.0
    assert r["mae_d"] == 2.5
    assert r["rmse_d"] == np.sqrt(12.5)
    assert r["rmse_x"] == np.sqrt(4.5)
    assert r["rmse_y"] == np.sqrt(8.0)


def test_rmse_dominates_mae():
    gen = np.random.default_rng(0)
    preds = gen.normal(size=(50, 2))
    labels = gen.normal(size=(50, 2))
    r = compute_metrics(preds, labels)
    assert r["rmse_d"] >= r["mae_d"]
    assert r["rmse_x"] >= r["mae_x"]
    assert r["rmse_y"] >= r["mae_y"]


def test_metrics_zero_for_perfect_predictions():
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    r = compute_metrics(p, p.copy())
    assert all(r[m] == 0.0 for m in METRIC_NAMES)


def test_metrics_are_plain_floats_in_metric_names_order():
    r = compute_metrics(FIXTURE_PREDS, FIXTURE_LABELS)
    assert list(r) == list(METRIC_NAMES)
    assert all(type(v) is float for v in r.values())


# ---------------------------------------------------------------- heatmap

def test_heatmap_weighted_mean_identity():
    gen = np.random.default_rng(3)
    labels = gen.uniform(0, 10, size=(300, 2))
    preds = labels + gen.normal(0, 1.0, size=(300, 2))
    grid = compute_heatmap(preds, labels, cell=1.0)
    mae_d = compute_metrics(preds, labels)["mae_d"]
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
    assert abs(overall_mae_d(grid) - compute_metrics(preds, labels)["mae_d"]) <= 1e-12
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

    def recipe(train):
        center = train.labels.mean(axis=0)

        def fit(val, config):
            if config["mode"] == "mean":
                return np.tile(center, (len(val), 1))
            return np.zeros((len(val), 2))

        return fit

    scores = cross_validate(ds, recipe, [{"mode": "mean"}, {"mode": "zeros"}], n_folds=3, seed=0)
    assert len(scores) == 2 and all(type(s) is float for s in scores)
    assert scores[0] < scores[1]


def test_cross_validate_validation():
    ds = _grid_dataset()
    with pytest.raises(DataError, match="fold selection requires a labeled target CSV"):
        cross_validate(ds.without_labels(), lambda t: lambda v, c: None, [{}], n_folds=5, seed=0)


def test_cross_validate_results_in_grid_order():
    ds = _grid_dataset()

    def recipe(train):
        return lambda val, config: np.full((len(val), 2), config["bias"])

    grid = [{"bias": 2.0}, {"bias": 0.5}, {"bias": 1.0}]
    scores = cross_validate(ds, recipe, grid, n_folds=2, seed=0)
    # Each entry's score is the one it gets alone.
    assert scores == [cross_validate(ds, recipe, [c], n_folds=2, seed=0)[0] for c in grid]
    assert len(set(scores)) == 3


def _mean_or_zeros(train):
    center = train.labels.mean(axis=0)

    def fit(val, config):
        if config["mode"] == "mean":
            return np.tile(center, (len(val), 1))
        return np.zeros((len(val), 2))

    return fit


LAMBDA_GRIDS = [
    (_mean_or_zeros, [{"mode": "mean"}, {"mode": "zeros"}], 3),
    (lambda t: lambda v, c: np.zeros((len(v), 2)), [{"alpha": 0.9}, {"alpha": 0.7}], 2),
    (lambda t: lambda v, c: np.full((len(v), 2), c["bias"]),
     [{"bias": 2.0}, {"bias": 0.5}, {"bias": 1.0}], 2),
]


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("case", range(len(LAMBDA_GRIDS)))
def test_cross_validate_equals_serial_loop(monkeypatch, cpus, case):
    recipe, grid, n_folds = LAMBDA_GRIDS[case]
    ds = _grid_dataset()
    expected = cross_validate_serial(ds, recipe, grid, n_folds=n_folds, seed=3)
    monkeypatch.setattr(networks, "THREADS", cpus)
    assert cross_validate(ds, recipe, grid, n_folds=n_folds, seed=3) == expected


@pytest.mark.parametrize("cpus", [1, 3])
def test_cross_validate_mtloc_conf_equals_serial_loop(monkeypatch, cpus, source_model, small_target):
    # The grid varies alpha and k only, so one first-epoch pass per fold
    # serves every entry.
    def recipe(train):
        target = train.without_labels()
        first = first_pass(source_model, target, ConfidenceConfig(noise_variance=0.3))

        def fit(val, config):
            cfg = ConfidenceConfig(epochs=1, noise_variance=0.3, **config)
            adapted, _ = adapt(source_model, target, cfg, first)
            return predict(adapted, val)

        return fit

    grid = [{"alpha": 0.7, "k": 2}, {"alpha": 0.8, "k": 8}]
    expected = cross_validate_serial(small_target, recipe, grid, n_folds=3, seed=0)
    monkeypatch.setattr(networks, "THREADS", cpus)
    assert cross_validate(small_target, recipe, grid, n_folds=3, seed=0) == expected


class _PoolSizes(concurrent.futures.ProcessPoolExecutor):
    """Records the worker count of every pool cross_validate makes."""

    sizes: list = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.mark.parametrize(
    "cpus, n_configs, n_folds, workers, threads",
    [(1, 3, 2, 1, 1), (None, 3, 2, 1, 1), (8, 1, 2, 2, 4), (8, 2, 3, 6, 1), (2, 2, 3, 2, 1),
     (2, 1, 2, 2, 1)],
    ids=["one-cpu", "cpu-count-unknown", "two-tasks", "six-tasks", "two-cpus",
         "two-cpus-two-tasks"],
)
def test_cross_validate_worker_count(
    monkeypatch, tmp_path, cpus, n_configs, n_folds, workers, threads
):
    # Each task leaves a file named after the process that ran it and the
    # THREADS that process's for_blocks uses.
    def fit(val, config):
        prefix = f"{os.getpid()}-{networks.THREADS}-"
        os.close(tempfile.mkstemp(prefix=prefix, dir=tmp_path)[0])
        return np.zeros((len(val), 2))

    if cpus is None:
        # No affinity call and an unknown CPU count: one CPU.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        cpus = networks._cpus()
    monkeypatch.setattr(networks, "THREADS", cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolSizes)
    _PoolSizes.sizes = []
    grid = [{"i": i} for i in range(n_configs)]
    cross_validate(_grid_dataset(), lambda train: fit, grid, n_folds=n_folds, seed=0)
    assert _PoolSizes.sizes == [workers]
    pids = {int(p.name.split("-")[0]) for p in tmp_path.iterdir()}
    assert os.getpid() not in pids and 1 <= len(pids) <= workers
    assert {int(p.name.split("-")[1]) for p in tmp_path.iterdir()} == {threads}
    assert len(list(tmp_path.iterdir())) == n_configs * n_folds
    assert multiprocessing.active_children() == []
    assert networks.THREADS == cpus  # the parent's count is left alone


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_threads_count_the_cpus_this_process_may_run_on(monkeypatch):
    # Under `taskset -c 0` on a 2-CPU host, os.cpu_count() is 2 but the
    # process may run on one CPU; cv would start two workers on it.
    assert networks.THREADS == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert networks._cpus() == 1


def test_cross_validate_error_leaves_no_workers():
    # The first failing task in grid order raises, as in the serial loop.
    def fit(val, config):
        if config["bad"]:
            raise ConfigError(f"bad config {config['name']}")
        return np.zeros((len(val), 2))

    grid = [{"bad": False, "name": "a"}, {"bad": True, "name": "b"}, {"bad": True, "name": "c"}]
    with pytest.raises(ConfigError, match="bad config b"):
        cross_validate(_grid_dataset(), lambda train: fit, grid, n_folds=3, seed=0)
    assert multiprocessing.active_children() == []


def test_cross_validate_per_fold_error_is_raised_before_any_worker(monkeypatch):
    # The second fold's stage fails: the first fold's ran, no pool was made.
    stages = []

    def recipe(train):
        stages.append(len(train))
        if len(stages) == 2:
            raise ConfigError("bad fold")
        return lambda val, config: np.zeros((len(val), 2))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolSizes)
    _PoolSizes.sizes = []
    with pytest.raises(ConfigError, match="bad fold"):
        cross_validate(_grid_dataset(), recipe, [{}, {}], n_folds=3, seed=0)
    assert len(stages) == 2 and _PoolSizes.sizes == []


class _PoolThreads(concurrent.futures.ProcessPoolExecutor):
    """Records the threads alive as each pool is made."""

    counts: list = []

    def __init__(self, *args, **kwargs):
        self.counts.append(threading.active_count())
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("cpus", [1, 4])
def test_cross_validate_forks_from_one_thread(monkeypatch, cpus):
    # Each per-fold stage runs for_blocks, on 4 threads when it may; they
    # are joined before the pool forks its workers.
    threads_per_stage = []

    def recipe(train):
        names = set()

        def block(start, stop):
            names.add(threading.current_thread().name)

        networks.for_blocks(len(train), block, cap=8)
        threads_per_stage.append(len(names))
        return lambda val, config: np.zeros((len(val), 2))

    monkeypatch.setattr(networks, "THREADS", cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolThreads)
    _PoolThreads.counts = []
    cross_validate(_grid_dataset(), recipe, [{}, {}], n_folds=3, seed=0)
    assert threads_per_stage == [cpus] * 3
    assert _PoolThreads.counts == [1]


def test_cross_validate_dead_worker_raises_worker_error():
    def fit(val, config):
        if config["die"]:
            os._exit(9)
        return np.zeros((len(val), 2))

    grid = [{"die": False}, {"die": True}]
    with pytest.raises(WorkerError, match="worker process died"):
        cross_validate(_grid_dataset(), lambda train: fit, grid, n_folds=2, seed=0)
    assert multiprocessing.active_children() == []
