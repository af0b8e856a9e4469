"""Source-free hypothesis-transfer baseline for regression.

Only the feature extractor is trained; the regressor (the source
hypothesis) stays frozen, bit for bit. Each target batch is seen through
two augmented views:

  weak:   input + N(0, 0.01^2)
  strong: random mask (p = 0.10, masked entries zeroed) then + N(0, 0.05^2)

Four losses shape the extractor, weighted by their lambdas:

  consistency  mean ||y_weak - y_strong||^2              (1.0)
  teacher      mean ||y_strong - y_teacher||^2           (0.5)
  pred-stat    ||mu - mu_src||^2 + ||var - var_src||^2   (0.10)
  coral        ||Cov(F) - Cov_src||_F^2                  (0.02)

where the teacher is an EMA copy of the extractor fed the weak view, the
prediction statistics are per-coordinate batch mean/variance of the
weak-view predictions, and the covariance is the unbiased (1/(B-1))
covariance of the weak-view features. The source-side statistics come
from the model artifact; source data itself is never read.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, normalize_features
from .errors import ArtifactError, ConfigError, NumericalError, UsageError
from .localizer import LocalizerModel, SourceStats
from .networks import FeatureExtractor, Localizer, Regressor
from .nn import Adam, Rng, ema_blend

log = logging.getLogger(__name__)


@dataclass
class ShotConfig:
    lambda_cons: float = 1.0
    lambda_teach: float = 0.5
    lambda_stat: float = 0.10
    lambda_coral: float = 0.02
    weak_noise_std: float = 0.01
    strong_mask_prob: float = 0.10
    strong_noise_std: float = 0.05
    use_teacher: bool = True
    teacher_ema: float = 0.995  # coefficient on the teacher (conventional EMA)
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        for name in ("lambda_cons", "lambda_teach", "lambda_stat", "lambda_coral"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")
        if self.weak_noise_std < 0.0 or self.strong_noise_std < 0.0:
            raise ConfigError("augmentation noise std must be non-negative")
        if not 0.0 <= self.strong_mask_prob < 1.0:
            raise ConfigError("mask probability must lie in [0, 1)")
        if not 0.0 <= self.teacher_ema <= 1.0:
            raise ConfigError("teacher EMA coefficient must lie in [0, 1]")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        if self.lr <= 0.0:
            raise ConfigError("learning rate must be positive")


def augment_weak(z: np.ndarray, gen: np.random.Generator, noise_std: float = 0.01) -> np.ndarray:
    return z + gen.normal(0.0, noise_std, size=z.shape)


def augment_strong(
    z: np.ndarray,
    gen: np.random.Generator,
    mask_prob: float = 0.10,
    noise_std: float = 0.05,
) -> np.ndarray:
    """Mask first, then add noise, so masked entries carry noise only."""
    keep = gen.random(z.shape) >= mask_prob
    return z * keep + gen.normal(0.0, noise_std, size=z.shape)


def consistency_loss(pred_weak: np.ndarray, pred_strong: np.ndarray) -> float:
    d = pred_weak - pred_strong
    return float((d * d).sum(axis=1).mean())


def teacher_loss(pred_strong: np.ndarray, pred_teacher: np.ndarray) -> float:
    d = pred_strong - pred_teacher
    return float((d * d).sum(axis=1).mean())


def pred_stat_loss(preds: np.ndarray, stats: SourceStats) -> float:
    dmu = preds.mean(axis=0) - stats.pred_mean
    dvar = preds.var(axis=0) - stats.pred_var
    return float((dmu * dmu).sum() + (dvar * dvar).sum())


def coral_loss(feats: np.ndarray, stats: SourceStats) -> float:
    if len(feats) < 2:
        raise ConfigError("covariance alignment needs at least 2 samples")
    fc = feats - feats.mean(axis=0)
    delta = fc.T @ fc / (len(feats) - 1) - stats.feat_cov
    return float((delta * delta).sum())


def _shot_step(
    student_ext: FeatureExtractor,
    regressor: Regressor,
    teacher_ext: FeatureExtractor | None,
    z_weak: np.ndarray,
    z_strong: np.ndarray,
    stats: SourceStats,
    cfg: ShotConfig,
    drop_gen: np.random.Generator | None = None,
) -> dict:
    """One batch: compute the four terms and accumulate weighted gradients
    into the student extractor. The regressor is evaluated in inference
    mode and its gradients are never touched. Views are taken as given, so
    the mapping from extractor parameters to the total loss is
    deterministic when drop_gen is None."""
    b = len(z_weak)
    f_w, c_w = student_ext.forward(z_weak, drop_gen)
    f_s, c_s = student_ext.forward(z_strong, drop_gen)
    y_w, cr_w = regressor.forward(f_w)
    y_s, cr_s = regressor.forward(f_s)

    d = y_w - y_s
    cons = float((d * d).sum(axis=1).mean())
    dy_w = cfg.lambda_cons * (2.0 / b) * d
    dy_s = -cfg.lambda_cons * (2.0 / b) * d

    if teacher_ext is not None:
        f_t, _ = teacher_ext.forward(z_weak)
        y_t, _ = regressor.forward(f_t)
        dt = y_s - y_t
        teach = float((dt * dt).sum(axis=1).mean())
        dy_s = dy_s + cfg.lambda_teach * (2.0 / b) * dt
    else:
        teach = 0.0

    mu = y_w.mean(axis=0)
    var = y_w.var(axis=0)
    dmu = mu - stats.pred_mean
    dvar = var - stats.pred_var
    stat = float((dmu * dmu).sum() + (dvar * dvar).sum())
    dy_w = dy_w + cfg.lambda_stat * ((2.0 / b) * dmu + (4.0 / b) * dvar * (y_w - mu))

    if b >= 2:
        fc = f_w - f_w.mean(axis=0)
        delta = fc.T @ fc / (b - 1) - stats.feat_cov
        coral = float((delta * delta).sum())
        g = (4.0 / (b - 1)) * (fc @ delta)
        df_w_extra = cfg.lambda_coral * (g - g.mean(axis=0))
    else:
        log.warning("batch of size 1: covariance alignment term skipped")
        coral = 0.0
        df_w_extra = 0.0

    df_w = regressor.backward(dy_w, cr_w, accumulate=False) + df_w_extra
    df_s = regressor.backward(dy_s, cr_s, accumulate=False)
    student_ext.backward(df_w, c_w)
    student_ext.backward(df_s, c_s)
    total = (
        cfg.lambda_cons * cons
        + cfg.lambda_teach * teach
        + cfg.lambda_stat * stat
        + cfg.lambda_coral * coral
    )
    return {"cons": cons, "teach": teach, "stat": stat, "coral": coral, "total": total}


@dataclass
class ShotEpochDiagnostics:
    epoch: int
    cons: float
    teach: float
    stat: float
    coral: float
    total: float


def run_shot(model: LocalizerModel, target: Dataset, cfg: ShotConfig | None = None):
    """Adapt the extractor to unlabeled target data; the regressor is frozen.

    Requires source statistics in the model artifact. Returns
    (adapted model, per-epoch diagnostics).
    """
    cfg = cfg or ShotConfig()
    cfg.validate()
    if model.source_stats is None:
        raise ArtifactError(
            "model artifact carries no source statistics; retrain the source model"
        )
    if target.labeled:
        raise UsageError("adaptation target must be unlabeled; strip labels first")
    stats = model.source_stats
    rng = Rng(cfg.seed)
    student_ext = model.net.extractor.clone()
    regressor = model.net.regressor.clone()
    teacher_ext = student_ext.clone() if cfg.use_teacher else None
    adam = Adam(student_ext.params, lr=cfg.lr)
    z = normalize_features(target.features, model.norm)
    n = len(z)
    diagnostics: list[ShotEpochDiagnostics] = []
    for epoch in range(cfg.epochs):
        order = rng.stream("shuffle", epoch).permutation(n)
        epoch_terms: list[dict] = []
        for bi in range(0, n, cfg.batch_size):
            idx = order[bi : bi + cfg.batch_size]
            zb = z[idx]
            z_w = augment_weak(zb, rng.stream("weak", epoch, bi), cfg.weak_noise_std)
            z_s = augment_strong(
                zb, rng.stream("strong", epoch, bi), cfg.strong_mask_prob, cfg.strong_noise_std
            )
            drop_gen = rng.stream("dropout", epoch, bi)
            terms = _shot_step(student_ext, regressor, teacher_ext, z_w, z_s, stats, cfg, drop_gen)
            if not np.isfinite(terms["total"]):
                raise NumericalError(
                    f"adaptation diverged at epoch {epoch}, batch {bi // cfg.batch_size}"
                )
            adam.step()
            if teacher_ext is not None:
                ema_blend(
                    teacher_ext.params, student_ext.params, 1.0 - cfg.teacher_ema, cfg.teacher_ema
                )
            epoch_terms.append(terms)
        means = {key: float(np.mean([t[key] for t in epoch_terms])) for key in epoch_terms[0]}
        diagnostics.append(ShotEpochDiagnostics(epoch, **means))
    meta = {**model.meta, "kind": "shot", "adapt_config": asdict(cfg)}
    net = Localizer(student_ext, regressor)
    return LocalizerModel(net, model.norm, stats, meta), diagnostics
