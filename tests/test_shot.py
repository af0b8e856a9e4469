"""Hypothesis-transfer adaptation: augmentations, loss terms, frozen regressor."""

import zlib

import numpy as np
import pytest

from rfloc import shot
from rfloc.errors import ArtifactError, ConfigError, UsageError
from rfloc.localizer import LocalizerModel, SourceStats
from rfloc.networks import FEATURE_DIM
from rfloc.nn import ParamSet, Rng, ema_blend
from rfloc.shot import (
    ShotConfig,
    _shot_step,
    augment_strong,
    augment_weak,
    consistency_loss,
    coral_loss,
    pred_stat_loss,
    run_shot,
    teacher_loss,
)

from util import (
    AdamAllocating,
    max_rel_error,
    sampled_central_difference,
    sampled_coords,
    shot_ema_allocating,
)


def zero_stats() -> SourceStats:
    return SourceStats(np.zeros(2), np.zeros(2), np.zeros((FEATURE_DIM, FEATURE_DIM)))


# ------------------------------------------------------------ augmentations

def test_weak_augmentation_statistics():
    z = np.zeros((500, 8))
    out = augment_weak(z, np.random.default_rng(0), noise_std=0.01)
    delta = out - z
    assert abs(delta.mean()) < 1e-3
    assert delta.std() == pytest.approx(0.01, rel=0.05)


def test_strong_augmentation_masks_then_adds_noise():
    z = np.full((400, 8), 5.0)
    # With zero noise the output is exactly z on kept entries and exactly
    # zero on masked ones, which pins the mask-then-noise order.
    out = augment_strong(z, np.random.default_rng(1), mask_prob=0.10, noise_std=0.0)
    masked = out == 0.0
    kept = out == 5.0
    assert (masked | kept).all()
    assert masked.mean() == pytest.approx(0.10, abs=0.02)


def test_strong_augmentation_masked_entries_carry_noise_only():
    z = np.full((200, 8), 5.0)
    gen = np.random.default_rng(2)
    keep = np.random.default_rng(2).random(z.shape) >= 0.10
    out = augment_strong(z, gen, mask_prob=0.10, noise_std=0.05)
    # Masked entries are pure noise, so far below the signal level.
    assert np.abs(out[~keep]).max() < 1.0
    assert np.abs(out[keep] - 5.0).max() < 1.0


# ------------------------------------------------------------ loss terms

def test_consistency_loss_hand_value():
    assert consistency_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 5.0
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert consistency_loss(a, np.zeros((2, 2))) == pytest.approx((1.0 + 4.0) / 2.0)


def test_teacher_loss_hand_value():
    assert teacher_loss(np.array([[3.0, 0.0]]), np.array([[0.0, 4.0]])) == 25.0


def test_pred_stat_loss_hand_value():
    preds = np.array([[0.0, 0.0], [2.0, 2.0]])  # mean (1,1), population var (1,1)
    assert pred_stat_loss(preds, zero_stats()) == pytest.approx(4.0)


def test_coral_loss_hand_value():
    feats = np.zeros((2, FEATURE_DIM))
    feats[0, 0] = 1.0
    feats[1, 0] = -1.0
    # Unbiased covariance has a single entry 2.0 at (0, 0).
    assert coral_loss(feats, zero_stats()) == pytest.approx(4.0)


def test_coral_needs_two_samples():
    with pytest.raises(ConfigError):
        coral_loss(np.zeros((1, FEATURE_DIM)), zero_stats())


def test_all_terms_zero_on_matched_statistics(source_model):
    gen = np.random.default_rng(7)
    feats = gen.normal(size=(16, FEATURE_DIM))
    preds = gen.normal(size=(16, 2))
    fc = feats - feats.mean(axis=0)
    stats = SourceStats(
        preds.mean(axis=0), preds.var(axis=0), fc.T @ fc / (len(feats) - 1)
    )
    assert consistency_loss(preds, preds) == 0.0
    assert teacher_loss(preds, preds) == 0.0
    assert pred_stat_loss(preds, stats) == 0.0
    assert coral_loss(feats, stats) == 0.0


# ------------------------------------------------------------ step gradients

def test_step_gradient_matches_finite_difference(source_model):
    cfg = ShotConfig()
    ext = source_model.net.extractor.clone()
    reg = source_model.net.regressor.clone()
    teacher = ext.clone()
    # Nudge the teacher so its term contributes a nonzero gradient.
    for _, p in teacher.params.items():
        p.value = p.value + 1e-3
    stats = source_model.source_stats
    gen = np.random.default_rng(3)
    z_w = gen.normal(size=(4, 8))
    z_s = gen.normal(size=(4, 8))

    def total() -> float:
        f_w = ext.forward(z_w)[0]
        f_s = ext.forward(z_s)[0]
        y_w = reg.forward(f_w)[0]
        y_s = reg.forward(f_s)[0]
        y_t = reg.forward(teacher.forward(z_w)[0])[0]
        return (
            cfg.lambda_cons * consistency_loss(y_w, y_s)
            + cfg.lambda_teach * teacher_loss(y_s, y_t)
            + cfg.lambda_stat * pred_stat_loss(y_w, stats)
            + cfg.lambda_coral * coral_loss(f_w, stats)
        )

    ext.params.zero_grads()
    terms = _shot_step(ext, reg, teacher, z_w, z_s, stats, cfg, drop_gen=None)
    assert terms["total"] == pytest.approx(total(), rel=1e-12)
    for name, p in ext.params.items():
        coords = sampled_coords(p.value.shape, 6, seed=zlib.crc32(name.encode()))
        fd = sampled_central_difference(total, p.value, coords, eps=1e-6)
        got = np.array([p.grad[c] for c in coords])
        assert max_rel_error(got, fd) < 1e-4, name


def test_step_total_is_weighted_sum(source_model):
    cfg = ShotConfig()
    ext = source_model.net.extractor.clone()
    reg = source_model.net.regressor.clone()
    gen = np.random.default_rng(5)
    z = gen.normal(size=(8, 8))
    terms = _shot_step(ext, reg, ext.clone(), z, z + 0.1, source_model.source_stats, cfg, None)
    expected = (
        cfg.lambda_cons * terms["cons"]
        + cfg.lambda_teach * terms["teach"]
        + cfg.lambda_stat * terms["stat"]
        + cfg.lambda_coral * terms["coral"]
    )
    assert terms["total"] == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ run contracts

def test_regressor_frozen(source_model, small_target):
    before = {
        n: p.value.tobytes() for n, p in source_model.net.regressor.params.items()
    }
    out, _ = run_shot(source_model, small_target.without_labels(), ShotConfig(epochs=2, seed=0))
    for name, p in out.net.regressor.params.items():
        assert p.value.tobytes() == before[name], name
    # ... while the extractor did move.
    moved = any(
        not np.array_equal(out.net.extractor.params[n].value, source_model.net.extractor.params[n].value)
        for n in out.net.extractor.params.names()
    )
    assert moved


def test_zero_lambdas_leave_model_bit_identical(source_model, small_target):
    cfg = ShotConfig(lambda_cons=0.0, lambda_teach=0.0, lambda_stat=0.0, lambda_coral=0.0, epochs=2)
    out, diags = run_shot(source_model, small_target.without_labels(), cfg)
    for name in source_model.net.params.names():
        assert np.array_equal(out.net.params[name].value, source_model.net.params[name].value)
    assert all(d.total == 0.0 for d in diags)


def test_requires_source_statistics(source_model, small_target):
    stripped = LocalizerModel(source_model.net, source_model.norm, None, dict(source_model.meta))
    with pytest.raises(ArtifactError, match="no source statistics"):
        run_shot(stripped, small_target.without_labels(), ShotConfig(epochs=1))


def test_rejects_labeled_target(source_model, small_target):
    with pytest.raises(UsageError):
        run_shot(source_model, small_target, ShotConfig(epochs=1))


def test_teacher_disabled_zeroes_term(source_model, small_target):
    cfg = ShotConfig(use_teacher=False, epochs=1, seed=0)
    out, diags = run_shot(source_model, small_target.without_labels(), cfg)
    assert all(d.teach == 0.0 for d in diags)
    with_teacher, _ = run_shot(
        source_model, small_target.without_labels(), ShotConfig(epochs=1, seed=0)
    )
    assert not all(
        np.array_equal(out.net.params[n].value, with_teacher.net.params[n].value)
        for n in out.net.params.names()
    )


def test_deterministic(source_model, small_target):
    cfg = ShotConfig(epochs=2, seed=4)
    m1, d1 = run_shot(source_model, small_target.without_labels(), cfg)
    m2, d2 = run_shot(source_model, small_target.without_labels(), cfg)
    for name in m1.net.params.names():
        assert np.array_equal(m1.net.params[name].value, m2.net.params[name].value)
    assert [d.total for d in d1] == [d.total for d in d2]


def test_meta_kind(source_model, small_target):
    out, _ = run_shot(source_model, small_target.without_labels(), ShotConfig(epochs=1))
    assert out.meta["kind"] == "shot"


def test_config_validation():
    with pytest.raises(ConfigError):
        ShotConfig(lambda_cons=-0.1).validate()
    with pytest.raises(ConfigError):
        ShotConfig(strong_mask_prob=1.0).validate()
    with pytest.raises(ConfigError):
        ShotConfig(teacher_ema=1.5).validate()
    with pytest.raises(ConfigError):
        ShotConfig(batch_size=0).validate()
    ShotConfig().validate()


@pytest.mark.parametrize("teacher_ema", [0.995, 0.5, 0.3, 0.0, 1.0])
def test_teacher_update_bit_equal_to_old_expression(teacher_ema):
    # For teacher_ema < 0.5, 1 - (1 - teacher_ema) != teacher_ema in
    # general, so both weights must reach the kernel as given.
    gen = np.random.default_rng(8)
    t, s = ParamSet(), ParamSet()
    for name, shape in (("w", (300, 130)), ("b", (7,))):
        t.add(name, gen.normal(size=shape))
        s.add(name, gen.normal(size=shape))
    ref = t.clone()
    for _ in range(3):
        ema_blend(t, s, 1.0 - teacher_ema, teacher_ema)
        shot_ema_allocating(ref, s, teacher_ema)
        for name, p in t.items():
            assert np.array_equal(p.value, ref[name].value)  # 0 ulp


def test_run_shot_bit_equal_with_allocating_oracles(monkeypatch, source_model, small_target):
    cfg = ShotConfig(epochs=2, seed=2, teacher_ema=0.3)
    target = small_target.without_labels()
    new, _ = run_shot(source_model, target, cfg)
    monkeypatch.setattr(shot, "Adam", AdamAllocating)
    monkeypatch.setattr(
        shot, "ema_blend", lambda t, s, w_student, w_teacher: shot_ema_allocating(t, s, w_teacher)
    )
    old, _ = run_shot(source_model, target, cfg)
    for name, p in new.net.params.items():
        assert np.array_equal(p.value, old.net.params[name].value), name
