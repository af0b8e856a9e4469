"""Source-free mean-teacher adaptation with optional confidence-gated
pseudo-label correction.

Teacher and student both start from the source localizer. Each epoch the
teacher labels the (unlabeled) target set on clean inputs; the student is
trained to reproduce those labels from Gaussian-noised inputs; after every
batch the teacher follows the student by an exponential moving average.

The EMA deliberately places alpha on the STUDENT:

    teacher <- alpha * student + (1 - alpha) * teacher

which is the reverse of the common convention; with alpha near 1 the
teacher tracks the student almost immediately. Set conventional_ema=True
to put alpha on the teacher instead.

With confidence gating enabled, each sample is probed n_probe times under
input noise; samples whose per-coordinate prediction spread exceeds
mean + c * std of the spreads are deemed uncertain and their pseudo labels
are replaced by an inverse-distance weighted average of the k nearest
confident samples' labels (distances in normalized input space).
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, normalize_features
from .errors import ConfigError, NumericalError, UsageError
from .localizer import LocalizerModel
from .nn import Adam, ParamSet, Rng, ema_blend, l1_loss

log = logging.getLogger(__name__)

DISTANCE_EPS = 1e-8


@dataclass
class MeanTeacherConfig:
    alpha: float = 0.8  # EMA coefficient, applied to the student
    noise_variance: float = 0.1  # variance of input noise (normalized units)
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    confidence: bool = False
    n_probe: int = 10  # probes per sample for the uncertainty estimate
    c_x: float = 8.0  # threshold coefficients: T = mean + c * std of spreads
    c_y: float = 4.0
    k: int = 2  # neighbors for pseudo-label correction
    conventional_ema: bool = False
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.noise_variance < 0.0:
            raise ConfigError("noise variance must be non-negative")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        if self.lr <= 0.0:
            raise ConfigError("learning rate must be positive")
        if self.confidence:
            if self.n_probe < 2:
                raise ConfigError("uncertainty probing needs at least 2 probes")
            if self.c_x < 0.0 or self.c_y < 0.0:
                raise ConfigError("threshold coefficients must be non-negative")
            if self.k < 1:
                raise ConfigError("k must be at least 1")


@dataclass
class PseudoLabelSet:
    """Per-sample pseudo labels with probe spreads and confidence flags."""

    labels: np.ndarray  # (n, 2) teacher predictions on clean inputs
    sigma: np.ndarray  # (n, 2) per-coordinate std over probes
    confident: np.ndarray | None = None  # (n,) bool, set by compute_thresholds


@dataclass
class Thresholds:
    t_x: float
    t_y: float


@dataclass
class EpochDiagnostics:
    epoch: int
    kd_loss: float
    n_uncertain: int | None  # None when confidence gating is off
    t_x: float | None
    t_y: float | None


def _probe(predict_fn, z: np.ndarray, noise_std: float, n_probe: int, rng: Rng, epoch: int):
    """Clean predictions plus per-coordinate spread under input noise.

    Noise comes from per-sample streams, so results do not depend on how
    probing is batched or scheduled.
    """
    if n_probe < 2:
        raise ConfigError("uncertainty probing needs at least 2 probes")
    n, dim = z.shape
    labels = predict_fn(z)
    noise = rng.row_normals(("probe", epoch), n, noise_std, (n_probe, dim))
    preds = np.empty((n_probe, n, 2))
    for p in range(n_probe):
        preds[p] = predict_fn(z + noise[:, p])
    return labels, preds.std(axis=0)


def compute_thresholds(pls: PseudoLabelSet, c_x: float, c_y: float) -> Thresholds:
    """Set confidence flags in place; a sample is uncertain when either
    coordinate's spread exceeds mean + c * std of the spreads."""
    if pls.sigma is None or len(pls.sigma) == 0:
        raise UsageError("cannot compute thresholds from an empty pseudo-label set")
    if c_x < 0.0 or c_y < 0.0:
        raise ConfigError("threshold coefficients must be non-negative")
    mu = pls.sigma.mean(axis=0)
    sd = pls.sigma.std(axis=0)
    t = mu + np.array([c_x, c_y]) * sd
    uncertain = (pls.sigma[:, 0] > t[0]) | (pls.sigma[:, 1] > t[1])
    pls.confident = ~uncertain
    return Thresholds(float(t[0]), float(t[1]))


# Cells per (uncertain rows x confident samples) distance block; bounds the
# memory of label correction independently of the target size.
_BLOCK_CELLS = 1 << 19


def _pairwise_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays, added in the order numpy's
    pairwise summation adds the elements of one row: eight running sums
    combined as ((0+1)+(2+3))+((4+5)+(6+7)), blocks over 128 split in
    halves. So the result is bit-equal to np.stack(terms, -1).sum(-1).
    Accumulates in place into the arrays of terms."""
    n = len(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        acc = _pairwise_sum(terms[:half])
        acc += _pairwise_sum(terms[half:])
        return acc
    if n < 8:
        acc = terms[0]
        for t in terms[1:]:
            acc += t
        return acc
    tail = n - n % 8
    r = terms[:8]
    for i in range(8, tail, 8):
        for j in range(8):
            r[j] += terms[i + j]
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[a] += r[b]
    for t in terms[tail:]:
        r[0] += t
    return r[0]


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row, ordered by
    (distance, index): the first k of a stable argsort, found by partition
    instead of sorting whole rows."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    below = dist < kth
    at = dist == kth
    need = k - below.sum(axis=1)
    # Rows with more ties at the k-th distance than free slots keep the
    # lowest-index ties.
    crowded = np.flatnonzero(at.sum(axis=1) > need)
    if crowded.size:
        at[crowded] &= np.cumsum(at[crowded], axis=1) <= need[crowded, None]
    chosen = np.nonzero(below | at)[1].reshape(len(dist), k)
    order = np.argsort(np.take_along_axis(dist, chosen, axis=1), axis=1, kind="stable")
    return np.take_along_axis(chosen, order, axis=1)


def correct_labels(pls: PseudoLabelSet, features: np.ndarray, k: int) -> PseudoLabelSet:
    """Replace uncertain labels by the inverse-distance weighted average of
    the k nearest confident samples (ties broken by lower sample index).

    features must be the normalized inputs the labels were computed from.
    If there are fewer than k confident samples, all of them are used; if
    there are none, the set is returned unchanged with a warning.

    Uncertain rows are processed in blocks; every distance and sum is
    formed in the same floating-point order as a per-row
    ``sqrt(((conf - x) ** 2).sum(axis=1))``, so the result does not depend
    on the blocking.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if pls.confident is None:
        raise UsageError("confidence flags not set; run compute_thresholds first")
    if len(features) != len(pls.labels):
        raise ConfigError("features and pseudo labels disagree in length")
    if not np.isfinite(features).all():
        raise ConfigError("label correction needs finite features")
    conf_idx = np.flatnonzero(pls.confident)
    unc_idx = np.flatnonzero(~pls.confident)
    if conf_idx.size == 0:
        log.warning("no confident samples; pseudo-label correction skipped")
        return PseudoLabelSet(pls.labels.copy(), pls.sigma.copy(), pls.confident.copy())
    k_eff = min(k, conf_idx.size)
    conf_cols = np.ascontiguousarray(features[conf_idx].T)  # (dim, n_confident)
    conf_labels = pls.labels[conf_idx]
    labels = pls.labels.copy()
    block = max(1, _BLOCK_CELLS // conf_idx.size)
    for start in range(0, unc_idx.size, block):
        rows = unc_idx[start : start + block]
        x = features[rows]
        terms = []
        for d, col in enumerate(conf_cols):
            t = col - x[:, d, None]
            t *= t
            terms.append(t)
        dist = np.sqrt(_pairwise_sum(terms))
        nearest = _nearest(dist, k_eff)
        w = 1.0 / np.maximum(np.take_along_axis(dist, nearest, axis=1), DISTANCE_EPS)
        num = w[:, 0, None] * conf_labels[nearest[:, 0]]
        for j in range(1, k_eff):
            num += w[:, j, None] * conf_labels[nearest[:, j]]
        labels[rows] = num / w.sum(axis=1)[:, None]
    return PseudoLabelSet(labels, pls.sigma.copy(), pls.confident.copy())


def ema_update(teacher: ParamSet, student: ParamSet, alpha: float) -> None:
    """teacher <- alpha * student + (1 - alpha) * teacher, elementwise and
    in place."""
    ema_blend(teacher, student, alpha, 1.0 - alpha)


def adapt(model: LocalizerModel, target: Dataset, cfg: MeanTeacherConfig):
    """Adapt the source localizer to unlabeled target data.

    Returns (student model, per-epoch diagnostics). Source data is never
    touched; only the model artifact and target fingerprints are read.
    """
    cfg.validate()
    if target.labeled:
        raise UsageError("adaptation target must be unlabeled; strip labels first")
    rng = Rng(cfg.seed)
    student = model.net.clone()
    teacher = model.net.clone()
    z = normalize_features(target.features, model.norm)
    n = len(z)
    adam = Adam(student.params, lr=cfg.lr)
    noise_std = float(np.sqrt(cfg.noise_variance))
    ema_alpha = (1.0 - cfg.alpha) if cfg.conventional_ema else cfg.alpha
    diagnostics: list[EpochDiagnostics] = []
    for epoch in range(cfg.epochs):
        if cfg.confidence:
            labels, sigma = _probe(teacher.predict, z, noise_std, cfg.n_probe, rng, epoch)
            pls = PseudoLabelSet(labels, sigma)
            thresholds = compute_thresholds(pls, cfg.c_x, cfg.c_y)
            n_uncertain = int((~pls.confident).sum())
            pls = correct_labels(pls, z, cfg.k)
            pseudo = pls.labels
        else:
            pseudo = teacher.predict(z)
            thresholds = None
            n_uncertain = None
        order = rng.stream("shuffle", epoch).permutation(n)
        batch_losses = []
        for bi in range(0, n, cfg.batch_size):
            idx = order[bi : bi + cfg.batch_size]
            noise = rng.stream("aug", epoch, bi).normal(0.0, noise_std, size=(idx.size, z.shape[1]))
            drop_gen = rng.stream("dropout", epoch, bi)
            preds, cache = student.forward(z[idx] + noise, drop_gen)
            loss, dpred = l1_loss(preds, pseudo[idx])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"adaptation diverged at epoch {epoch}, batch {bi // cfg.batch_size}"
                )
            batch_losses.append(loss)
            student.backward(dpred, cache)
            adam.step()
            ema_update(teacher.params, student.params, ema_alpha)
        diagnostics.append(
            EpochDiagnostics(
                epoch,
                float(np.mean(batch_losses)) if batch_losses else float("nan"),
                n_uncertain,
                thresholds.t_x if thresholds else None,
                thresholds.t_y if thresholds else None,
            )
        )
    meta = {
        **model.meta,
        "kind": "mean-teacher-confidence" if cfg.confidence else "mean-teacher",
        "adapt_config": asdict(cfg),
    }
    return LocalizerModel(student, model.norm, model.source_stats, meta), diagnostics
