"""Hypothesis-transfer adaptation: augmentations, loss terms, frozen regressor."""

import dataclasses
import zlib

import numpy as np
import pytest

from rfloc import shot
from rfloc.errors import ConfigError, UsageError
from rfloc.localizer import SourceStats
from rfloc.networks import FEATURE_DIM
from rfloc.nn.params import Param, clone_params, ema_blend
from rfloc.nn.rng import Rng
from rfloc.shot import (
    ShotConfig,
    _shot_step,
    augment_strong,
    augment_weak,
    coral_loss,
    pred_stat_loss,
    run_shot,
    sq_loss,
)

from util import (
    AdamAllocating,
    max_rel_error,
    sampled_central_difference,
    sampled_coords,
    shot_coral_direct,
    shot_ema_allocating,
    zero_grads,
)


def zero_stats() -> SourceStats:
    return SourceStats(np.zeros(2), np.zeros(2), np.zeros((FEATURE_DIM, FEATURE_DIM)))


def cov_norm(stats: SourceStats) -> float:
    """||C||_F^2 of the source covariance, as run_shot passes it to the step."""
    return float(np.vdot(stats.feat_cov, stats.feat_cov))


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
    loss, grad = sq_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]), 1.0)
    assert loss == 5.0
    assert np.array_equal(grad, [[2.0, 4.0]])
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    loss, grad = sq_loss(a, np.zeros((2, 2)), 0.5)
    assert loss == pytest.approx((1.0 + 4.0) / 2.0)
    assert np.array_equal(grad, 0.5 * a)  # weight * (2 / b) * (y - target)


def test_teacher_loss_hand_value():
    assert sq_loss(np.array([[3.0, 0.0]]), np.array([[0.0, 4.0]]), 0.5)[0] == 25.0


def test_pred_stat_loss_hand_value():
    preds = np.array([[0.0, 0.0], [2.0, 2.0]])  # mean (1,1), population var (1,1)
    loss, grad = pred_stat_loss(preds, zero_stats(), 1.0)
    assert loss == pytest.approx(4.0)
    # (2/b) dmu + (4/b) dvar (y - mu) = 1 -/+ 2 per row
    assert np.allclose(grad, [[-1.0, -1.0], [3.0, 3.0]])


def test_coral_loss_hand_value():
    feats = np.zeros((2, FEATURE_DIM))
    feats[0, 0] = 1.0
    feats[1, 0] = -1.0
    # Unbiased covariance has a single entry 2.0 at (0, 0).
    zeros = np.zeros((FEATURE_DIM, FEATURE_DIM))
    assert coral_loss(feats, zeros, 0.0, 1.0)[0] == pytest.approx(4.0)


def test_coral_needs_two_samples(caplog):
    # One row has no covariance: the term and its gradient are skipped.
    zeros = np.zeros((FEATURE_DIM, FEATURE_DIM))
    assert coral_loss(np.zeros((1, FEATURE_DIM)), zeros, 0.0, 1.0) == (0.0, 0.0)
    assert "covariance alignment term skipped" in caplog.text


def test_all_terms_zero_on_matched_statistics(source_model):
    gen = np.random.default_rng(7)
    feats = gen.normal(size=(16, FEATURE_DIM))
    preds = gen.normal(size=(16, 2))
    fc = feats - feats.mean(axis=0)
    stats = SourceStats(
        preds.mean(axis=0), preds.var(axis=0), fc.T @ fc / (len(feats) - 1)
    )
    for loss, grad in (sq_loss(preds, preds, 1.0), pred_stat_loss(preds, stats, 1.0)):
        assert loss == 0.0 and not grad.any()
    assert shot_coral_direct(feats, stats.feat_cov)[0] == 0.0


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
            cfg.lambda_cons * sq_loss(y_w, y_s, 1.0)[0]
            + cfg.lambda_teach * sq_loss(y_s, y_t, 1.0)[0]
            + cfg.lambda_stat * pred_stat_loss(y_w, stats, 1.0)[0]
            + cfg.lambda_coral * shot_coral_direct(f_w, stats.feat_cov)[0]
        )

    zero_grads(ext.params)
    terms = _shot_step(ext, reg, teacher, z_w, z_s, stats, cov_norm(stats), cfg, drop_gen=None)
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
    stats = source_model.source_stats
    terms = _shot_step(ext, reg, ext.clone(), z, z + 0.1, stats, cov_norm(stats), cfg, None)
    expected = (
        cfg.lambda_cons * terms["cons"]
        + cfg.lambda_teach * terms["teach"]
        + cfg.lambda_stat * terms["stat"]
        + cfg.lambda_coral * terms["coral"]
    )
    assert terms["total"] == pytest.approx(expected, rel=1e-12)


class _RecordingExtractor:
    """Wraps an extractor and keeps the features of each forward call and
    the feature gradient of each backward call."""

    def __init__(self, ext):
        self.ext = ext
        self.feats, self.grads = [], []

    def forward(self, z, drop_gen=None):
        f, cache = self.ext.forward(z, drop_gen)
        self.feats.append(f.copy())
        return f, cache

    def backward(self, df, cache):
        self.grads.append(np.array(df, copy=True))
        return self.ext.backward(df, cache)


def _coral_only_step(source_model, z_w, stats):
    """Run _shot_step with only the covariance term switched on (weight 1);
    returns (coral value, weak-view features, weak-view feature gradient)."""
    cfg = ShotConfig(lambda_cons=0.0, lambda_teach=0.0, lambda_stat=0.0, lambda_coral=1.0)
    ext = _RecordingExtractor(source_model.net.extractor.clone())
    reg = source_model.net.regressor.clone()
    teacher = source_model.net.extractor.clone()
    terms = _shot_step(ext, reg, teacher, z_w, z_w + 0.1, stats, cov_norm(stats), cfg, None)
    return terms["coral"], ext.feats[0], ext.grads[0]


@pytest.mark.parametrize("b", [2, 3, 32])
def test_step_coral_matches_direct_oracle(source_model, b):
    stats = source_model.source_stats
    z_w = np.random.default_rng(11 + b).normal(size=(b, 8))
    coral, f_w, grad = _coral_only_step(source_model, z_w, stats)
    want, want_grad = shot_coral_direct(f_w, stats.feat_cov)
    assert want > 0.0
    assert abs(coral - want) <= 1e-12 * want
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def test_step_coral_near_zero_on_matched_statistics(source_model):
    z_w = np.random.default_rng(13).normal(size=(32, 8))
    f_w = source_model.net.extractor.forward(z_w)[0]
    fc = f_w - f_w.mean(axis=0)
    cov = fc.T @ fc / (len(f_w) - 1)
    stats = SourceStats(np.zeros(2), np.zeros(2), cov)
    coral, feats, _ = _coral_only_step(source_model, z_w, stats)
    assert np.array_equal(feats, f_w)
    assert abs(coral) <= 1e-12 * float((cov * cov).sum())


def test_step_uses_given_covariance_norm(source_model):
    # run_shot passes ||C||_F^2 in once per call; the step adds it as given.
    cfg = ShotConfig()
    stats = source_model.source_stats
    z = np.random.default_rng(17).normal(size=(8, 8))
    ext = source_model.net.extractor.clone()
    reg = source_model.net.regressor.clone()
    cov_sq = cov_norm(stats)
    given = _shot_step(ext.clone(), reg, ext, z, z + 0.1, stats, cov_sq, cfg, None)
    shifted = _shot_step(ext.clone(), reg, ext, z, z + 0.1, stats, cov_sq + 1.0, cfg, None)
    assert shifted["coral"] == pytest.approx(given["coral"] + 1.0, rel=1e-12)


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
        for n in out.net.extractor.params
    )
    assert moved


def test_zero_lambdas_leave_model_bit_identical(source_model, small_target):
    cfg = ShotConfig(lambda_cons=0.0, lambda_teach=0.0, lambda_stat=0.0, lambda_coral=0.0, epochs=2)
    out, diags = run_shot(source_model, small_target.without_labels(), cfg)
    for name in source_model.net.params:
        assert np.array_equal(out.net.params[name].value, source_model.net.params[name].value)
    assert all(d["total"] == 0.0 for d in diags)


def test_rejects_labeled_target(source_model, small_target):
    with pytest.raises(UsageError):
        run_shot(source_model, small_target, ShotConfig(epochs=1))


def test_lambda_teach_zero_drops_teacher_term(source_model, small_target):
    # The teacher still runs and its term is still reported, but at weight
    # 0 it moves nothing: a teacher that copies the student each batch
    # (teacher_ema=0) and one that stays the source extractor
    # (teacher_ema=1) leave the same bits.
    target = small_target.without_labels()
    cfg = ShotConfig(lambda_teach=0.0, teacher_ema=0.0, epochs=2, seed=0)
    out, diags = run_shot(source_model, target, cfg)
    frozen, frozen_diags = run_shot(source_model, target, dataclasses.replace(cfg, teacher_ema=1.0))
    for name, p in out.net.params.items():
        assert np.array_equal(p.value, frozen.net.params[name].value), name
    assert [d["total"] for d in diags] == [d["total"] for d in frozen_diags]
    assert all(d["teach"] > 0.0 for d in frozen_diags)
    for d in diags:
        rest = cfg.lambda_cons * d["cons"] + cfg.lambda_stat * d["stat"] + cfg.lambda_coral * d["coral"]
        assert d["total"] == pytest.approx(rest, rel=1e-12)
    # At its default weight the term moves the extractor.
    with_teacher, _ = run_shot(source_model, target, dataclasses.replace(cfg, lambda_teach=0.5))
    assert not all(
        np.array_equal(p.value, with_teacher.net.params[name].value)
        for name, p in out.net.params.items()
    )


def test_deterministic(source_model, small_target):
    cfg = ShotConfig(epochs=2, seed=4)
    m1, d1 = run_shot(source_model, small_target.without_labels(), cfg)
    m2, d2 = run_shot(source_model, small_target.without_labels(), cfg)
    for name in m1.net.params:
        assert np.array_equal(m1.net.params[name].value, m2.net.params[name].value)
    assert [d["total"] for d in d1] == [d["total"] for d in d2]


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
    t, s = {}, {}
    for name, shape in (("w", (300, 130)), ("b", (7,))):
        t[name] = Param(gen.normal(size=shape))
        s[name] = Param(gen.normal(size=shape))
    ref = clone_params(t)
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
