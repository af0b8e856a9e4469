"""Row blocks on threads (networks.row_blocks, networks.for_blocks): the
partition depends on the row count and cap alone, every result is the same
for any THREADS, no thread outlives a call, and a block's exception and
the caller's numpy error state cross between the threads. Importing rfloc
pins BLAS to one thread."""

import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rfloc
from rfloc import cli, meanteacher, networks
from rfloc.artifact import save_model
from rfloc.data import NUM_FEATURES, Dataset, write_csv
from rfloc.errors import NumericalError, ResourceError
from rfloc.localizer import LocalizerModel, compute_source_stats, predict
from rfloc.meanteacher import PseudoLabelSet, _probe, correct_labels
from rfloc.networks import ALIGN_ROWS, PREDICT_BLOCK_ROWS, Localizer, for_blocks, row_blocks
from rfloc.nn import Rng

B = PREDICT_BLOCK_ROWS
THREAD_COUNTS = (1, 2, 3, 8)


def under_each_thread_count(monkeypatch, fn) -> list:
    """fn() with THREADS at each of THREAD_COUNTS; no call may leave a
    thread behind."""
    results = []
    for threads in THREAD_COUNTS:
        monkeypatch.setattr(networks, "THREADS", threads)
        before = threading.active_count()
        results.append(fn())
        assert threading.active_count() == before, threads
    return results


def assert_same_bits(results) -> None:
    first, *rest = results
    for other in rest:
        assert other.shape == first.shape
        assert other.tobytes() == first.tobytes()


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 255, 256, 257, 520, 650, 775, 10_050])
@pytest.mark.parametrize("cap", [1, 8, 142, B])
def test_row_blocks_cover_the_rows_in_near_equal_aligned_blocks(monkeypatch, n, cap):
    def dealt():
        seen = []
        for_blocks(n, lambda start, stop: seen.append((start, stop)), cap)
        return sorted(seen)

    blocks = row_blocks(n, cap)
    # for_blocks runs exactly these blocks under any THREADS.
    assert under_each_thread_count(monkeypatch, dealt) == [blocks] * len(THREAD_COUNTS)
    # Every row once, in order, and no block over the cap.
    assert [row for start, stop in blocks for row in range(start, stop)] == list(range(n))
    sizes = [stop - start for start, stop in blocks]
    assert all(0 < size <= cap for size in sizes)
    # Aligned where the cap holds two alignment units.
    unit = ALIGN_ROWS if cap >= 2 * ALIGN_ROWS else 1
    assert all(stop % unit == 0 for _, stop in blocks[:-1])
    # The fewest aligned blocks that fit the cap, made even when above one;
    # with a cap of 1 each row is its own block, so n rows make n blocks.
    fewest = -(-n // (cap - cap % unit))
    if cap == 1:
        assert len(blocks) == n
    elif fewest > 1:
        assert len(blocks) in (fewest, fewest + 1) and len(blocks) % 2 == 0
    else:
        assert len(blocks) == fewest
    # Near-equal: no block is longer than another by more than one unit,
    # but the last one, which is cut at n.
    if sizes:
        assert max(sizes) - min(sizes[:-1] or sizes) <= unit
        assert sizes[-1] <= max(sizes)


def test_row_blocks_split_acceptance_and_large_target_sizes():
    # Two threads get 336 and 314 of 650 rows; 10,050 rows keep 40 blocks.
    assert [stop - start for start, stop in row_blocks(650)] == [176, 160, 160, 154]
    assert len(row_blocks(10_050)) == 40
    assert row_blocks(B) == [(0, B)]
    assert row_blocks(0) == []


@pytest.mark.parametrize("n", [0, 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("cap", [B, 5])
def test_for_blocks_runs_each_block_once(monkeypatch, n, cap):
    def blocks():
        seen, threads = [], set()

        def work(start, stop):
            seen.append((start, stop))
            threads.add(threading.get_ident())

        for_blocks(n, work, cap)
        assert len(threads) <= networks.THREADS
        return sorted(seen)

    want = row_blocks(n, cap)
    assert under_each_thread_count(monkeypatch, blocks) == [want] * len(THREAD_COUNTS)


def test_for_blocks_raises_a_blocks_exception_after_every_thread_joined(monkeypatch):
    # Block 1 of 4 fails. Its thread runs no further block; every other
    # thread runs all of the blocks dealt to it.
    done = []

    def work(start, stop):
        if start == B:
            raise MemoryError("block failed")
        done.append(start)

    def run():
        done.clear()
        with pytest.raises(MemoryError, match="block failed"):
            for_blocks(4 * B, work)
        return sorted(done)

    ran = {1: [0], 2: [0, 2 * B], 3: [0, 2 * B, 3 * B], 8: [0, 2 * B, 3 * B]}
    assert under_each_thread_count(monkeypatch, run) == [ran[t] for t in THREAD_COUNTS]


@pytest.mark.parametrize("n", [1, B, B + 1, 520, 650, 3 * B + 7, 10_050])
def test_predict_bits_do_not_depend_on_threads(monkeypatch, n):
    net = Localizer.init(Rng(21).stream("init"))
    x = np.random.default_rng(n).normal(size=(n, 8))
    assert_same_bits(under_each_thread_count(monkeypatch, lambda: net.predict(x)))


def test_probe_bits_do_not_depend_on_threads(monkeypatch, source_model):
    for n in (520, 650, 3 * B + 7):
        z = np.random.default_rng(5).normal(size=(n, 8))

        def probe():
            labels, sigma = _probe(source_model.net.predict, z, 0.5, 4, Rng(2), epoch=1)
            return np.hstack([labels, sigma])

        assert_same_bits(under_each_thread_count(monkeypatch, probe))


def test_probe_keeps_its_buffers_in_flight_within_the_cap(monkeypatch):
    # Eight blocks on eight threads, under a cap of two and a half blocks'
    # noise and noisy predictions: two blocks may be in flight at once, and
    # the half block leaves room for what the cap does not count, each
    # pass's noisy input and predict_fn's output. So the peak stays within
    # the cap plus the outputs; uncapped, all eight blocks were in flight,
    # at 3.3 times the cap.
    n_probe = 40
    block_floats = n_probe * B * (NUM_FEATURES + 2)
    cap = 5 * block_floats // 2
    monkeypatch.setattr(networks, "THREADS", 8)
    monkeypatch.setattr(meanteacher, "MAX_PROBE_FLOATS", cap)
    z = np.random.default_rng(3).normal(size=(8 * B, NUM_FEATURES))
    threads = set()

    def predict(v):
        threads.add(threading.get_ident())
        return v[:, :2] * 2.0

    tracemalloc.start()
    try:
        _probe(predict, z, 0.5, n_probe, Rng(0), epoch=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = 2 * len(z) * 2 * 8  # labels and sigma, (n, 2) float64 each
    assert len(threads) == 2
    assert peak <= cap * 8 + outputs, (peak, cap * 8 + outputs)


@pytest.mark.parametrize("uncertain_share", [0.0, 0.3, 1.0])
def test_correct_labels_bits_do_not_depend_on_threads(monkeypatch, uncertain_share):
    # 1000-cell blocks give the 600 uncertain rows of the 0.3 share 75
    # blocks of 8 rows; no uncertain rows give no block at all.
    monkeypatch.setattr(meanteacher, "_BLOCK_CELLS", 1000)
    gen = np.random.default_rng(7)
    features = gen.normal(size=(2000, 8))
    confident = gen.random(2000) >= uncertain_share
    pls = PseudoLabelSet(gen.uniform(0, 10, size=(2000, 2)), confident)
    results = under_each_thread_count(monkeypatch, lambda: correct_labels(pls, features, k=3))
    assert_same_bits(results)
    assert np.array_equal(results[0][confident], pls.labels[confident])


def test_source_stats_bits_do_not_depend_on_threads(monkeypatch):
    net = Localizer.init(Rng(22).stream("init"))
    for n in (520, 650, 3 * B + 7):
        x = np.random.default_rng(8).normal(size=(n, 8))

        def stats():
            s = compute_source_stats(net, x)
            return np.concatenate([s.pred_mean, s.pred_var, s.feat_cov.ravel()])

        assert_same_bits(under_each_thread_count(monkeypatch, stats))


def test_overflow_in_a_threaded_block_warns_nowhere(monkeypatch, source_model):
    # predict runs under _CHECKED, which silences overflow warnings; a
    # block on another thread must run under that state too, or its
    # RuntimeWarning would be raised instead of the NumericalError.
    params = {name: p.value.copy() for name, p in source_model.net.params.items()}
    for name in ("dense1_b", "dense2_w", "dense3_w"):
        params[name] = np.full_like(params[name], 1e300)
    net = source_model.net.clone()
    for name, p in net.params.items():
        p.value = params[name]
    model = LocalizerModel(net, source_model.norm, source_model.source_stats, {})
    x = np.random.default_rng(9).normal(size=(3 * B + 7, 8))

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                predict(model, x)

    under_each_thread_count(monkeypatch, run)


def test_memory_error_in_a_block_thread_exits_6(
    monkeypatch, tmp_path, capsys, source_model, small_target
):
    # The target holds more than one block of rows, so with THREADS = 2 a
    # second thread runs the teacher's pseudo-label pass.
    model, target = tmp_path / "m.model", tmp_path / "target.csv"
    save_model(source_model, model)
    write_csv(Dataset("target", np.vstack([small_target.features] * 3)), target)
    assert len(small_target) * 3 > B
    main_thread = threading.main_thread()
    conv = networks.conv1d_forward

    def conv_failing_off_the_main_thread(*args):
        if threading.current_thread() is not main_thread:
            raise MemoryError
        return conv(*args)

    monkeypatch.setattr(networks, "conv1d_forward", conv_failing_off_the_main_thread)
    monkeypatch.setattr(networks, "THREADS", 2)
    before = threading.active_count()
    args = ["adapt", "--method", "mtloc", "--model", str(model), "--target-csv", str(target),
            "--set", "epochs=1", "--out", str(tmp_path / "a.model")]
    assert cli.main(args) == ResourceError.exit_code == 6
    assert threading.active_count() == before
    err = capsys.readouterr().err
    assert "error: out of memory\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "a.model").exists()


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Imports rfloc alone, then prints each BLAS variable and whether numpy loaded.
_IMPORT_RFLOC = (
    "import os, sys\n"
    "import rfloc\n"
    f"print(*[os.environ.get(v) for v in {BLAS_VARIABLES!r}], 'numpy' in sys.modules)\n"
)


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "3"}])
def test_import_rfloc_pins_blas_without_loading_numpy(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(preset, PYTHONPATH=str(Path(rfloc.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_RFLOC], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    ).stdout.split()
    assert out == [preset.get(v, "1") for v in BLAS_VARIABLES] + ["False"]
