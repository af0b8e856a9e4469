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

The coral term and its gradient are computed without forming the 768 x 768
batch covariance: with fc the centred (B, 768) features, C the source
covariance, the B x B Gram matrix G = fc fc^T and one (B, 768) x (768, 768)
product P = fc C per batch,

  coral    = ||G||_F^2 / (B-1)^2 - 2 sum(fc * P) / (B-1) + ||C||_F^2
  gradient = 4/(B-1) (G fc / (B-1) - P), centred over the batch

which is ||Cov(F) - C||_F^2 in exact arithmetic (it differs from the direct
form in the last bits). ||C||_F^2 is computed once per run_shot call.

Each term is one function, sq_loss (consistency and teacher),
pred_stat_loss and coral_loss, returning its value and its lambda times
its gradient; _shot_step calls them and backpropagates the sums.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, normalize_features
from .errors import ConfigError, UsageError
from .localizer import LocalizerModel, Schedule, SourceStats, run_epochs, shuffled
from .networks import FeatureExtractor, Localizer, Regressor
from .nn.adam import Adam
from .nn.params import ema_blend
from .nn.rng import Rng

log = logging.getLogger(__name__)


@dataclass
class ShotConfig(Schedule):
    lambda_cons: float = 1.0
    lambda_teach: float = 0.5
    lambda_stat: float = 0.10
    lambda_coral: float = 0.02
    weak_noise_std: float = 0.01
    strong_mask_prob: float = 0.10
    strong_noise_std: float = 0.05
    teacher_ema: float = 0.995  # coefficient on the teacher (conventional EMA)

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
        super().validate()


def augment_weak(z: np.ndarray, gen: np.random.Generator, noise_std: float) -> np.ndarray:
    return z + gen.normal(0.0, noise_std, size=z.shape)


def augment_strong(
    z: np.ndarray, gen: np.random.Generator, mask_prob: float, noise_std: float
) -> np.ndarray:
    """Mask first, then add noise, so masked entries carry noise only."""
    keep = gen.random(z.shape) >= mask_prob
    return z * keep + gen.normal(0.0, noise_std, size=z.shape)


def sq_loss(y: np.ndarray, target: np.ndarray, weight: float):
    """Batch mean of ||y - target||^2 and weight times its gradient with
    respect to y; the gradient with respect to target is its negation."""
    d = y - target
    return float((d * d).sum(axis=1).mean()), weight * (2.0 / len(y)) * d


def pred_stat_loss(y: np.ndarray, stats: SourceStats, weight: float):
    """||mu - mu_src||^2 + ||var - var_src||^2 over the batch's per-coordinate
    mean and population variance, and weight times its gradient."""
    b = len(y)
    mu = y.mean(axis=0)
    dmu = mu - stats.pred_mean
    dvar = y.var(axis=0) - stats.pred_var
    loss = float((dmu * dmu).sum() + (dvar * dvar).sum())
    return loss, weight * ((2.0 / b) * dmu + (4.0 / b) * dvar * (y - mu))


def coral_loss(feats: np.ndarray, feat_cov: np.ndarray, cov_sq: float, weight: float):
    """||Cov(feats) - feat_cov||_F^2 in its batch-Gram form (see the module
    docstring), cov_sq = ||feat_cov||_F^2, and weight times its gradient.
    A single row has no covariance: the term is skipped and both are 0."""
    b = len(feats)
    if b < 2:
        log.warning("batch of size 1: covariance alignment term skipped")
        return 0.0, 0.0
    s = 1.0 / (b - 1)
    fc = feats - feats.mean(axis=0)
    gram = fc @ fc.T
    proj = fc @ feat_cov
    loss = float(s * s * np.vdot(gram, gram) - 2.0 * s * np.vdot(fc, proj) + cov_sq)
    g = (4.0 * s) * (s * (gram @ fc) - proj)
    return loss, weight * (g - g.mean(axis=0))


def _shot_step(
    student_ext: FeatureExtractor,
    regressor: Regressor,
    teacher_ext: FeatureExtractor,
    z_weak: np.ndarray,
    z_strong: np.ndarray,
    stats: SourceStats,
    cov_sq: float,
    cfg: ShotConfig,
    drop_gen: np.random.Generator | None = None,
) -> dict:
    """One batch: compute the four terms and accumulate weighted gradients
    into the student extractor. The regressor is evaluated in inference
    mode and its gradients are never touched. Views are taken as given, so
    the mapping from extractor parameters to the total loss is
    deterministic when drop_gen is None. cov_sq is ||stats.feat_cov||_F^2."""
    f_w, c_w = student_ext.forward(z_weak, drop_gen)
    f_s, c_s = student_ext.forward(z_strong, drop_gen)
    y_w, cr_w = regressor.forward(f_w)
    y_s, cr_s = regressor.forward(f_s)

    cons, dy_w = sq_loss(y_w, y_s, cfg.lambda_cons)
    y_t, _ = regressor.forward(teacher_ext.forward(z_weak)[0])
    teach, dy_t = sq_loss(y_s, y_t, cfg.lambda_teach)
    dy_s = dy_t - dy_w
    stat, dy_stat = pred_stat_loss(y_w, stats, cfg.lambda_stat)
    dy_w += dy_stat
    coral, df_coral = coral_loss(f_w, stats.feat_cov, cov_sq, cfg.lambda_coral)

    df_w = regressor.backward(dy_w, cr_w, accumulate=False) + df_coral
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


def run_shot(model: LocalizerModel, target: Dataset, cfg: ShotConfig):
    """Adapt the extractor to unlabeled target data; the regressor is frozen.

    The pred-stat and coral terms read the source statistics the model
    carries. Returns (adapted model, per-epoch diagnostics); the
    diagnostics are run_epochs rows {"epoch", "cons", "teach", "stat",
    "coral", "total"} of batch means.
    """
    cfg.validate()
    if target.labeled:
        raise UsageError("adaptation target must be unlabeled; strip labels first")
    stats = model.source_stats
    rng = Rng(cfg.seed)
    student_ext = model.net.extractor.clone()
    regressor = model.net.regressor.clone()
    teacher_ext = student_ext.clone()
    adam = Adam(student_ext.params, lr=cfg.lr)
    z = normalize_features(target.features, model.norm)
    cov_sq = float(np.vdot(stats.feat_cov, stats.feat_cov))

    def step(epoch, bi, idx):
        zb = z[idx]
        z_w = augment_weak(zb, rng.stream("weak", epoch, bi), cfg.weak_noise_std)
        z_s = augment_strong(
            zb, rng.stream("strong", epoch, bi), cfg.strong_mask_prob, cfg.strong_noise_std
        )
        drop_gen = rng.stream("dropout", epoch, bi)
        return _shot_step(
            student_ext, regressor, teacher_ext, z_w, z_s, stats, cov_sq, cfg, drop_gen
        )

    def update():
        adam.step()
        ema_blend(teacher_ext.params, student_ext.params, 1.0 - cfg.teacher_ema, cfg.teacher_ema)

    diagnostics = run_epochs(
        cfg.epochs, shuffled(np.arange(len(z)), cfg.batch_size, rng), step, update, "adaptation"
    )
    net = Localizer(student_ext, regressor)
    return model.adapted(net, kind="shot", adapt_config=asdict(cfg)), diagnostics
