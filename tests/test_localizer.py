"""Source training, prediction, oracle fine-tuning, artifact round trips."""

import struct
import tracemalloc

import numpy as np
import pytest

from rfloc import localizer
from rfloc.artifact import FORMAT_VERSION, MAGIC, load_model, save_model
from rfloc.data import Dataset
from rfloc.errors import ArtifactError, ConfigError, UsageError
from rfloc.localizer import (
    LocalizerModel,
    SourceStats,
    TrainConfig,
    compute_source_stats,
    finetune_oracle,
    predict,
    train_source,
)
from rfloc.networks import FEATURE_DIM

from util import AdamAllocating


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
    with pytest.raises(UsageError):
        train_source(small_source.without_labels(), TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(loss="huber").validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(val_fraction=1.0).validate()


def test_l2_loss_trains_too(small_source):
    model = train_source(small_source, TrainConfig(loss="l2", epochs=2, seed=0))
    assert model.meta["config"]["loss"] == "l2"
    assert np.isfinite(predict(model, small_source)).all()


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
    assert np.allclose(stats.feat_cov, stats.feat_cov.T)


def test_compute_source_stats_matches_numpy(source_model, small_source):
    from rfloc.data import normalize_features

    z = normalize_features(small_source.features, source_model.norm)
    stats = compute_source_stats(source_model.net, z)
    feats, _ = source_model.net.extractor.forward(z)
    preds, _ = source_model.net.regressor.forward(feats)
    assert np.allclose(stats.pred_mean, preds.mean(axis=0))
    assert np.allclose(stats.pred_var, preds.var(axis=0))  # population
    assert np.allclose(stats.feat_cov, np.cov(feats, rowvar=False), atol=1e-10)


def test_source_stats_validation():
    with pytest.raises(ConfigError):
        SourceStats(np.zeros(2), -np.ones(2), np.eye(FEATURE_DIM))
    asym = np.eye(FEATURE_DIM)
    asym[0, 1] = 5.0
    with pytest.raises(ConfigError):
        SourceStats(np.zeros(2), np.ones(2), asym)
    notpsd = np.eye(FEATURE_DIM)
    notpsd[0, 0] = -1.0
    with pytest.raises(ConfigError):
        SourceStats(np.zeros(2), np.ones(2), notpsd)


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
    with pytest.raises(UsageError):
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
    # The file's bytes plus one copy of its arrays, and the covariance
    # checks' temporaries after the bytes are gone, stay below 2.5 times
    # the file size (a copied payload, kept alive through validation with
    # two covariance-sized temporaries, peaked at 4.8 times).
    path = tmp_path / "m.rfm"
    save_model(source_model, path)
    size = path.stat().st_size
    assert size > 5_000_000  # dominated by the 768 x 768 feature covariance
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size, f"peak {peak} bytes for a {size}-byte file"


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
    # Truncations anywhere and byte flips in the magic, version, length and
    # JSON header either load or fail with ArtifactError, never with an
    # untyped exception.
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
            for i in gen.integers(0, 16 + header_len, size=int(gen.integers(1, 4))):
                blob[i] = int(gen.integers(0, 256))
        bad.write_bytes(bytes(blob))
        try:
            load_model(bad)
        except ArtifactError:
            pass


def test_artifact_magic_constant():
    assert MAGIC == b"RFLM"
    assert FORMAT_VERSION == 1
