"""Source training, prediction, oracle fine-tuning, artifact round trips."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rfloc
from rfloc import localizer
from rfloc.artifact import DIGEST_BYTES, FORMAT_VERSION, MAGIC, load_model, save_model
from rfloc.data import Dataset
from rfloc.errors import ArtifactError, ConfigError, DataError, NumericalError
from rfloc.localizer import (
    LocalizerModel,
    SourceStats,
    TrainConfig,
    compute_source_stats,
    finetune_oracle,
    predict,
    run_epochs,
    shuffled,
    train_source,
)
from rfloc.networks import FEATURE_DIM
from rfloc.nn import Rng

from util import AdamAllocating

TRIU_SIZE = FEATURE_DIM * (FEATURE_DIM + 1) // 2


# ------------------------------------------------------------ epoch driver

def _two_batches(epoch):
    return [(0, np.array([0, 1])), (2, np.array([2, 3]))]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_run_epochs_non_finite_term_raises_before_update(bad):
    log = []

    def step(epoch, key, idx):
        log.append(("step", epoch, key))
        return {"a": 1.0, "b": bad if (epoch, key) == (1, 2) else 2.0}

    with pytest.raises(NumericalError, match=r"^fitting diverged at epoch 1, batch 1$"):
        run_epochs(3, _two_batches, step, lambda: log.append(("update",)), "fitting")
    assert log == [
        ("step", 0, 0), ("update",), ("step", 0, 2), ("update",),
        ("step", 1, 0), ("update",), ("step", 1, 2),
    ]


def test_run_epochs_stop_ends_training():
    stopped_at = []

    def stop(epoch):
        stopped_at.append(epoch)
        return epoch == 1

    rows = run_epochs(5, _two_batches, lambda e, k, i: {"loss": 1.0}, lambda: None, "t", stop=stop)
    assert [row["epoch"] for row in rows] == [0, 1]
    assert stopped_at == [0, 1]


def test_run_epochs_rows_are_epoch_then_means_then_start_columns():
    def step(epoch, key, idx):
        return {"z_term": float(key + epoch), "a_term": float(idx.sum())}

    rows = run_epochs(
        2, _two_batches, step, lambda: None, "t",
        start=lambda epoch: {"n": epoch * 10, "b_col": None},
    )
    assert [list(row) for row in rows] == [["epoch", "z_term", "a_term", "n", "b_col"]] * 2
    assert rows[1] == {"epoch": 1, "z_term": 2.0, "a_term": 3.0, "n": 10, "b_col": None}
    assert all(type(row["z_term"]) is float for row in rows)
    assert run_epochs(0, _two_batches, step, lambda: None, "t") == []


@pytest.mark.parametrize("batch_size", [1, 7, 32, 100])
@pytest.mark.parametrize("first", [0, 30])  # 30: a held-out split leaves a subset of rows
def test_shuffled_batches_are_slices_of_the_shuffle_stream(batch_size, first):
    rng = Rng(11)
    rows = np.arange(first, 80)
    batches = shuffled(rows, batch_size, rng)
    for epoch in range(3):
        order = rows[rng.stream("shuffle", epoch).permutation(rows.size)]
        got = batches(epoch)
        assert [key for key, _ in got] == list(range(0, rows.size, batch_size))
        for key, idx in got:
            assert np.array_equal(idx, order[key : key + batch_size])
        assert np.array_equal(np.concatenate([idx for _, idx in got]), order)


def test_training_reduces_error(small_source, source_model):
    preds = predict(source_model, small_source)
    mae = np.abs(preds - small_source.labels).mean()
    # Room is 6 x 6; a trained model must beat center-guessing by far.
    assert mae < 1.0


def test_training_is_deterministic(small_source):
    cfg = TrainConfig(epochs=2, seed=3)
    m1 = train_source(small_source, cfg)
    m2 = train_source(small_source, cfg)
    for name in m1.net.params.names():
        assert np.array_equal(m1.net.params[name].value, m2.net.params[name].value)
    m3 = train_source(small_source, TrainConfig(epochs=2, seed=4))
    assert any(
        not np.array_equal(m1.net.params[n].value, m3.net.params[n].value)
        for n in m1.net.params.names()
    )


def test_training_bit_equal_with_allocating_adam(monkeypatch, small_source):
    cfg = TrainConfig(epochs=2, seed=5)
    new = train_source(small_source, cfg)
    monkeypatch.setattr(localizer, "Adam", AdamAllocating)
    old = train_source(small_source, cfg)
    for name, p in new.net.params.items():
        assert np.array_equal(p.value, old.net.params[name].value), name
    assert np.array_equal(new.source_stats.feat_cov, old.source_stats.feat_cov)


def test_training_requires_labels(small_source):
    with pytest.raises(DataError, match="training data has no x,y label columns"):
        train_source(small_source.without_labels(), TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(val_fraction=1.0).validate()


def test_predict_accepts_array_and_dataset(source_model, small_source):
    via_ds = predict(source_model, small_source)
    via_arr = predict(source_model, small_source.features)
    assert np.array_equal(via_ds, via_arr)
    with pytest.raises(ConfigError):
        predict(source_model, np.zeros((3, 4)))


def test_source_stats_attached(source_model, small_source):
    stats = source_model.source_stats
    assert stats is not None
    assert stats.pred_mean.shape == (2,)
    assert stats.feat_cov.shape == (FEATURE_DIM, FEATURE_DIM)
    # Covariance of real features is PSD and symmetric by construction.
    assert np.array_equal(stats.feat_cov, stats.feat_cov.T)


def test_compute_source_stats_matches_numpy(source_model, small_source):
    from rfloc.data import normalize_features

    z = normalize_features(small_source.features, source_model.norm)
    stats = compute_source_stats(source_model.net, z)
    feats, _ = source_model.net.extractor.forward(z)
    preds, _ = source_model.net.regressor.forward(feats)
    assert np.allclose(stats.pred_mean, preds.mean(axis=0))
    assert np.allclose(stats.pred_var, preds.var(axis=0))  # population
    assert np.allclose(stats.feat_cov, np.cov(feats, rowvar=False), atol=1e-10)
    # Exactly symmetric, as an artifact stores only the upper triangle.
    assert np.array_equal(stats.feat_cov, stats.feat_cov.T)


def test_source_stats_validation():
    with pytest.raises(ConfigError):
        SourceStats(np.zeros(2), -np.ones(2), np.eye(FEATURE_DIM))
    with pytest.raises(ConfigError, match="must be"):
        SourceStats(np.zeros(2), np.ones(2), np.eye(FEATURE_DIM - 1))
    # The PSD check reads the upper triangle, the one an artifact stores:
    # symmetrized from it, this matrix has an eigenvalue of -4.
    asym = np.eye(FEATURE_DIM)
    asym[0, 1] = 5.0
    with pytest.raises(ConfigError, match="positive semidefinite"):
        SourceStats(np.zeros(2), np.ones(2), asym)
    notpsd = np.eye(FEATURE_DIM)
    notpsd[0, 0] = -1.0
    with pytest.raises(ConfigError):
        SourceStats(np.zeros(2), np.ones(2), notpsd)


@pytest.mark.parametrize("where", ["pred_mean", "pred_var", "feat_cov"])
def test_source_stats_refuse_non_finite_values(where):
    # Checked before the PSD check, which would report a NaN matrix as
    # not positive semidefinite (eigvalsh raised LinAlgError on one).
    arrays = {"pred_mean": np.zeros(2), "pred_var": np.ones(2), "feat_cov": np.eye(FEATURE_DIM)}
    arrays[where].flat[-1] = np.nan
    with pytest.raises(NumericalError, match="source statistics hold non-finite values"):
        SourceStats(**arrays)


def test_source_stats_refuse_an_asymmetric_covariance():
    # PSD by its upper triangle, which an artifact keeps, but not symmetric:
    # the matrix in memory would differ from the one saved.
    asym = np.eye(FEATURE_DIM)
    asym[1, 0] = 0.5
    with pytest.raises(ConfigError, match="not exactly symmetric"):
        SourceStats(np.zeros(2), np.ones(2), asym)


@pytest.fixture(scope="module")
def eigenbasis():
    q, _ = np.linalg.qr(np.random.default_rng(17).normal(size=(FEATURE_DIM, FEATURE_DIM)))
    return q


def _covariance_with_smallest_eigenvalue(q, f):
    """An exactly symmetric covariance whose smallest eigenvalue is
    f * 1e-8 * scale, scale being its largest magnitude, as SourceStats
    measures it; the other eigenvalues lie in [1, 3]."""
    eig = np.linspace(1.0, 3.0, FEATURE_DIM)
    scale = max(1.0, float(np.abs((q * eig) @ q.T).max()))
    eig[0] = f * 1e-8 * scale
    cov = (q * eig) @ q.T
    cov = (cov + cov.T) / 2.0
    got = np.linalg.eigvalsh(cov)[0] / (1e-8 * max(1.0, float(np.abs(cov).max())))
    assert abs(got - f) < 1e-3  # the construction, not the check under test
    return cov


@pytest.mark.parametrize("f", [0.0, -0.5, -0.99])
def test_source_stats_accept_eigenvalues_just_inside_the_tolerance(eigenbasis, f):
    cov = _covariance_with_smallest_eigenvalue(eigenbasis, f)
    SourceStats(np.zeros(2), np.ones(2), cov)


@pytest.mark.parametrize("f", [-1.01, -2.0, -10.0])
def test_source_stats_refuse_eigenvalues_just_outside_the_tolerance(eigenbasis, f):
    cov = _covariance_with_smallest_eigenvalue(eigenbasis, f)
    given = cov.copy()
    with pytest.raises(ConfigError, match="feature covariance is not positive semidefinite"):
        SourceStats(np.zeros(2), np.ones(2), cov)
    # The diagonal shift of the check is undone on refusal too.
    assert np.array_equal(cov, given) and cov.tobytes() == given.tobytes()


def test_source_stats_keep_a_callers_covariance_bit_for_bit(eigenbasis):
    cov = _covariance_with_smallest_eigenvalue(eigenbasis, -0.5)
    given = cov.copy()
    stats = SourceStats(np.zeros(2), np.ones(2), cov)
    assert stats.feat_cov is cov
    assert cov.tobytes() == given.tobytes()


def test_source_stats_accept_a_read_only_covariance(eigenbasis):
    cov = _covariance_with_smallest_eigenvalue(eigenbasis, 0.0)
    cov.flags.writeable = False
    stats = SourceStats(np.zeros(2), np.ones(2), cov)
    assert stats.feat_cov.tobytes() == cov.tobytes()


def test_model_refuses_non_finite_weights(source_model):
    net = source_model.net.clone()
    net.params["conv1_w"].value[0, 0, 0] = np.inf
    with pytest.raises(NumericalError, match="model parameter 'conv1_w' holds non-finite values"):
        LocalizerModel(net, source_model.norm, source_model.source_stats, {})


def test_predict_refuses_non_finite_output(source_model, small_target):
    net = source_model.net.clone()
    for _, p in net.params.items():
        p.value *= 1e300  # finite weights whose forward pass overflows
    model = LocalizerModel(net, source_model.norm, source_model.source_stats, {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        with pytest.raises(NumericalError, match="predictions are non-finite"):
            predict(model, small_target)


def test_early_stopping_restores_best(small_source):
    # Long schedule with tight patience: runs fewer epochs than requested.
    model = train_source(small_source, TrainConfig(epochs=60, patience=2, seed=0))
    assert model.meta["epochs_run"] <= 60
    assert model.meta["best_val_loss"] is not None


def test_oracle_zero_epochs_identity(source_model, small_target):
    out = finetune_oracle(source_model, small_target, TrainConfig(epochs=0, seed=0))
    for name in source_model.net.params.names():
        assert np.array_equal(
            out.net.params[name].value, source_model.net.params[name].value
        )
    assert out.norm is source_model.norm


def test_oracle_improves_on_target(source_model, small_target):
    before = np.abs(predict(source_model, small_target) - small_target.labels).mean()
    tuned = finetune_oracle(source_model, small_target, TrainConfig(epochs=6, seed=0))
    after = np.abs(predict(tuned, small_target) - small_target.labels).mean()
    assert after < before
    # the original model is untouched
    again = np.abs(predict(source_model, small_target) - small_target.labels).mean()
    assert again == before


def test_oracle_requires_labels(source_model, small_target):
    with pytest.raises(DataError, match="oracle fine-tuning requires x,y labels in the target CSV"):
        finetune_oracle(source_model, small_target.without_labels(), TrainConfig(epochs=1))


# ---------------------------------------------------------------- artifacts

def test_artifact_round_trip_bit_exact(tmp_path, source_model):
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    back = load_model(path)
    for name in source_model.net.params.names():
        assert np.array_equal(back.net.params[name].value, source_model.net.params[name].value)
    assert np.array_equal(back.norm.mean, source_model.norm.mean)
    assert np.array_equal(back.norm.std, source_model.norm.std)
    assert np.array_equal(back.source_stats.feat_cov, source_model.source_stats.feat_cov)
    assert back.meta["kind"] == source_model.meta["kind"]
    x = np.random.default_rng(0).normal(-50, 5, size=(4, 8))
    assert np.array_equal(predict(back, x), predict(source_model, x))


def test_artifact_load_peak_memory(tmp_path, source_model):
    # The file's bytes plus one copy of its arrays, then the covariance
    # mirrored from its triangle and the PSD check's temporaries after the
    # bytes are gone, stay below 2.5 times the bytes of the loaded arrays,
    # the full covariance's included: about 14.3 MB. (A copied payload,
    # kept alive through validation with two covariance-sized temporaries,
    # peaked at 4.8 times.) The bound does not follow the file, which
    # holds only the triangle.
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    s = source_model.source_stats
    arrays = [p.value for _, p in source_model.net.params.items()]
    arrays += [source_model.norm.mean, source_model.norm.std, s.pred_mean, s.pred_var, s.feat_cov]
    loaded = sum(a.nbytes for a in arrays)
    assert loaded > 5_000_000  # dominated by the 768 x 768 feature covariance
    assert path.stat().st_size < 3_500_000  # which the file holds as a triangle
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * loaded, f"peak {peak} bytes for {loaded} bytes of arrays"


# One load_model in a fresh process, printing the rise of its peak RSS in
# bytes. The peak is VmHWM, that of the process's own address space:
# ru_maxrss would start at the pytest process's peak, which Linux carries
# across fork and exec, and a load would not raise it.
_RSS_OF_ONE_LOAD = """
import sys
from rfloc.artifact import load_model

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kib()
load_model(sys.argv[1])
print(1024 * (peak_kib() - before))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_artifact_load_peak_rss_in_a_fresh_process(tmp_path, source_model):
    # tracemalloc (above) does not see the buffers numpy's linalg
    # allocates with malloc, such as the Cholesky PSD check's copy of the
    # covariance and its factor; the process's peak RSS does. One load of
    # this model raised it by 18.3 MB, 3.21 times the 5.7 MB of loaded
    # arrays, in each of 3 runs (2-vCPU Xeon, numpy 2.4); with one more
    # covariance-sized buffer held through the load it read 4.03.
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    s = source_model.source_stats
    arrays = [p.value for _, p in source_model.net.params.items()]
    arrays += [source_model.norm.mean, source_model.norm.std, s.pred_mean, s.pred_var, s.feat_cov]
    loaded = sum(a.nbytes for a in arrays)
    src = str(Path(rfloc.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_OF_ONE_LOAD, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rise = int(proc.stdout)
    assert rise > loaded  # the arrays themselves are resident at the peak
    assert rise < 3.75 * loaded, f"peak RSS rose {rise} bytes for {loaded} bytes of arrays"


def test_artifact_stores_the_covariance_as_its_upper_triangle(tmp_path, source_model):
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    arrays = json.loads(raw[16 : 16 + header_len])["arrays"]
    assert arrays[-1] == {"name": "stats.feat_cov_triu", "shape": [TRIU_SIZE]}
    cov = source_model.source_stats.feat_cov
    triu = np.frombuffer(raw, "<f8", count=TRIU_SIZE, offset=len(raw) - DIGEST_BYTES - 8 * TRIU_SIZE)
    assert np.array_equal(triu, cov[np.triu_indices(FEATURE_DIM)])


def test_artifact_without_source_stats(tmp_path, source_model):
    stripped = LocalizerModel(source_model.net, source_model.norm, None, {"kind": "bare"})
    path = tmp_path / "m.rfm"
    save_model(stripped, path)
    back = load_model(path)
    assert back.source_stats is None


def test_artifact_bad_magic(tmp_path, source_model):
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="magic|not a model"):
        load_model(path)


def test_artifact_unsupported_version(tmp_path, source_model):
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="version"):
        load_model(path)


def test_artifact_payload_byte_flip_detected(tmp_path, source_model):
    # The lowest mantissa bit of the first weight, after the two 8-value
    # norm arrays: every value stays finite.
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    raw[16 + header_len + 2 * 8 * 8] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="checksum mismatch"):
        load_model(path)


def test_artifact_truncation_detected(tmp_path, source_model):
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(ArtifactError):
        load_model(path)


def test_artifact_header_corruption_detected(tmp_path, source_model):
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    raw = bytearray(path.read_bytes())
    # Smash bytes inside the JSON header region.
    raw[20:24] = b"\x00\x01\x02\x03"
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError):
        load_model(path)


def test_artifact_fuzz_raises_only_artifact_error(tmp_path, source_model):
    # Every truncation, and every change of one to three bytes in the
    # magic, version, length and JSON header or anywhere in the file
    # (payload and checksum included), fails with ArtifactError.
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    gen = np.random.default_rng(0)
    bad = tmp_path / "bad.rfm"
    for trial in range(300):
        blob = bytearray(raw)
        if trial % 3 == 0:
            del blob[int(gen.integers(0, len(blob))) :]
        else:
            span = 16 + header_len if trial % 3 == 1 else len(blob)
            for i in gen.choice(span, size=int(gen.integers(1, 4)), replace=False):
                blob[i] ^= int(gen.integers(1, 256))
        bad.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            load_model(bad)


def test_artifact_magic_constant():
    assert MAGIC == b"RFLM"
    assert FORMAT_VERSION == 2
