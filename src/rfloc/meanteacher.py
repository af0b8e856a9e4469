"""Source-free mean-teacher adaptation, with confidence-gated pseudo-label
correction when the config is a ConfidenceConfig (method mtloc-conf).

Teacher and student both start from the source localizer. Each epoch the
teacher labels the (unlabeled) target set on clean inputs; the student is
trained to reproduce those labels from Gaussian-noised inputs; after every
batch the teacher follows the student by an exponential moving average.

The EMA deliberately places alpha on the STUDENT:

    teacher <- alpha * student + (1 - alpha) * teacher

which is the reverse of the common convention; with alpha near 1 the
teacher tracks the student almost immediately.

With confidence gating, each sample is probed n_probe times under
input noise; samples whose per-coordinate prediction spread exceeds
mean + c * std of the spreads are deemed uncertain and their pseudo labels
are replaced by an inverse-distance weighted average of the k nearest
confident samples' labels (distances in normalized input space).
"""

from __future__ import annotations

import logging
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .data import NUM_FEATURES, Dataset, normalize_features
from .errors import ConfigError, NumericalError, UsageError
from .localizer import LocalizerModel, Schedule, run_epochs, shuffled
from .networks import PREDICT_BLOCK_ROWS, for_blocks
from .nn import Adam, Rng, ema_blend, l1_loss

log = logging.getLogger(__name__)

DISTANCE_EPS = 1e-8

# Probing holds one block's noise and noisy predictions at a time on each
# thread, n_probe * PROBE_BLOCK_FLOATS floats, on only as many threads as
# keep the blocks in flight within this cap. An n_probe whose single block
# exceeds it (above 13,107) is refused.
MAX_PROBE_FLOATS = 1 << 25
# Floats of one probe of the largest block: its noise and its noisy
# predictions.
PROBE_BLOCK_FLOATS = PREDICT_BLOCK_ROWS * (NUM_FEATURES + 2)


@dataclass
class MeanTeacherConfig(Schedule):
    alpha: float = 0.8  # EMA coefficient, applied to the student
    noise_variance: float = 0.1  # variance of input noise (normalized units)

    def validate(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.noise_variance < 0.0:
            raise ConfigError("noise variance must be non-negative")
        super().validate()


@dataclass
class ConfidenceConfig(MeanTeacherConfig):
    """A mean-teacher config whose adapt gates the pseudo labels."""

    n_probe: int = 10  # probes per sample for the uncertainty estimate
    c_x: float = 8.0  # threshold coefficients: T = mean + c * std of spreads
    c_y: float = 4.0
    k: int = 2  # neighbors for pseudo-label correction

    def validate(self) -> None:
        super().validate()
        if self.n_probe < 2:
            raise ConfigError("uncertainty probing needs at least 2 probes")
        if self.c_x < 0.0 or self.c_y < 0.0:
            raise ConfigError("threshold coefficients must be non-negative")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.n_probe * PROBE_BLOCK_FLOATS > MAX_PROBE_FLOATS:
            raise ConfigError(
                f"n_probe={self.n_probe} needs {self.n_probe * PROBE_BLOCK_FLOATS:.3g} floats"
                f" of probe buffers, over the cap of {MAX_PROBE_FLOATS:.3g}; n_probe may be"
                f" at most {MAX_PROBE_FLOATS // PROBE_BLOCK_FLOATS}"
            )


@dataclass
class PseudoLabelSet:
    """Per-sample pseudo labels with their confidence flags, built whole
    from _probe's labels and compute_thresholds' flags."""

    labels: np.ndarray  # (n, 2) teacher predictions on clean inputs
    confident: np.ndarray  # (n,) bool, False where the probe spread is over a threshold


def _probe(predict_fn, z: np.ndarray, noise_std: float, n_probe: int, rng: Rng, epoch: int):
    """Clean predictions plus per-coordinate spread under input noise.

    Noise comes from per-sample streams, so the noise does not depend on
    how probing is batched or scheduled. The noise draws and noisy passes
    run over the blocks row_blocks(n) of at most PREDICT_BLOCK_ROWS rows
    (for_blocks), exactly the blocks predict_fn's in_blocks forms, so each
    noisy pass computes the bits that predict would and only the outputs
    grow with the number of rows. The blocks run on as many threads as
    keep them in flight within MAX_PROBE_FLOATS, at least one; the
    partition does not depend on the thread count, so neither do the
    results.
    """
    n, dim = z.shape
    labels = predict_fn(z)
    sigma = np.empty((n, 2))

    def noisy_passes(start, stop):
        zb = z[start:stop]
        noise = rng.row_normals(("probe", epoch), stop - start, noise_std, (n_probe, dim),
                                offset=start)
        preds = np.empty((n_probe, stop - start, 2))
        for p in range(n_probe):
            preds[p] = predict_fn(zb + noise[:, p])
        del noise  # freed before std's temporaries: a block holds at most its two buffers
        sigma[start:stop] = preds.std(axis=0)

    max_threads = max(1, MAX_PROBE_FLOATS // (n_probe * PROBE_BLOCK_FLOATS))
    for_blocks(n, noisy_passes, max_threads=max_threads)
    return labels, sigma


def compute_thresholds(sigma: np.ndarray, c_x: float, c_y: float):
    """(confident, t_x, t_y) for the (n, 2) per-coordinate probe spreads
    sigma: the thresholds are mean + c * std of the spreads, and a sample
    is confident unless either coordinate's spread exceeds its threshold."""
    t = sigma.mean(axis=0) + np.array([c_x, c_y]) * sigma.std(axis=0)
    if not np.isfinite(t).all():
        raise NumericalError(f"uncertainty thresholds are non-finite ({t[0]}, {t[1]})")
    confident = ~((sigma[:, 0] > t[0]) | (sigma[:, 1] > t[1]))
    return confident, float(t[0]), float(t[1])


# Cells per (uncertain rows x confident samples) distance block; bounds the
# memory of label correction independently of the target size. A block
# array of 2^16 cells (512 KiB) stays in L2. With 2,746 uncertain x 7,304
# confident rows of random features on a 2-vCPU Xeon, correct_labels takes
# a median of 390-410 ms with a 3.3 MB tracemalloc peak; 2^15 and 2^17
# cells took 420-470 and 425-445 ms. Fresh arrays for all eight terms of
# a 2^19-cell block took 600-650 ms and peaked at 43.9 MB.
_BLOCK_CELLS = 1 << 16


def _tree(term, lo: int, width: int, slot: int = 0) -> np.ndarray:
    """Elementwise sum of the equal-shape terms lo, ..., lo + width - 1 as
    a balanced binary tree; width is a power of two. For width 8 this is
    the order numpy's pairwise summation adds the 8 elements of a row,
    ((0+1)+(2+3))+((4+5)+(6+7)), so the result is bit-equal to
    np.stack(terms, -1).sum(-1).

    term(i, s) makes term i, in index order, as entry s of a stack of
    partial sums; the result is entry slot. An entry is added into the one
    below it before another term is made for its slot, so term may write
    every term made for one slot into the same buffer; width 8 uses at
    most four slots."""
    if width == 1:
        return term(lo, slot)
    acc = _tree(term, lo, width // 2, slot)
    acc += _tree(term, lo + width // 2, width // 2, slot + 1)
    return acc


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


def correct_labels(pls: PseudoLabelSet, features: np.ndarray, k: int) -> np.ndarray:
    """The (n, 2) labels with each uncertain one replaced by the
    inverse-distance weighted average of the k nearest confident samples'
    labels (ties broken by lower sample index). pls is not changed.

    features must be the (n, 8) normalized inputs the labels were computed
    from; k is at least 1. If there are fewer than k confident samples,
    all of them are used; if there are none, a copy of the labels is
    returned with a warning.

    Uncertain rows are processed in blocks of at most
    _BLOCK_CELLS // n_confident rows, the rows of each thread's buffers, on
    up to THREADS threads (for_blocks); every distance and sum is formed in
    the same floating-point order as a per-row
    ``sqrt(((conf - x) ** 2).sum(axis=1))``, so the result does not depend
    on the blocking or the thread count.
    """
    if not np.isfinite(features).all():
        raise ConfigError("label correction needs finite features")
    conf_idx = np.flatnonzero(pls.confident)
    unc_idx = np.flatnonzero(~pls.confident)
    if conf_idx.size == 0:
        log.warning("no confident samples; pseudo-label correction skipped")
        return pls.labels.copy()
    k_eff = min(k, conf_idx.size)
    conf_cols = np.ascontiguousarray(features[conf_idx].T)  # (dim, n_confident)
    conf_labels = pls.labels[conf_idx]
    labels = pls.labels.copy()
    block = max(1, min(_BLOCK_CELLS // conf_idx.size, unc_idx.size))
    # Each thread's block buffers, one per slot of _tree's stack, reused
    # by every block it runs: fresh arrays of this size cost page faults on
    # each block.
    scratch = threading.local()

    def correct_block(start, stop):
        rows = unc_idx[start:stop]
        x = features[rows]
        buffers = scratch.__dict__.setdefault("buffers", [])

        def squared_difference(d, slot):
            if slot == len(buffers):
                buffers.append(np.empty((block, conf_idx.size)))
            t = buffers[slot][: len(x)]
            np.subtract(conf_cols[d], x[:, d, None], out=t)
            return np.multiply(t, t, out=t)

        dist = _tree(squared_difference, 0, NUM_FEATURES)
        np.sqrt(dist, out=dist)
        nearest = _nearest(dist, k_eff)
        w = 1.0 / np.maximum(np.take_along_axis(dist, nearest, axis=1), DISTANCE_EPS)
        num = w[:, 0, None] * conf_labels[nearest[:, 0]]
        for j in range(1, k_eff):
            num += w[:, j, None] * conf_labels[nearest[:, j]]
        labels[rows] = num / w.sum(axis=1)[:, None]

    for_blocks(unc_idx.size, correct_block, block)
    return labels


def ema_update(teacher: dict, student: dict, alpha: float) -> None:
    """teacher <- alpha * student + (1 - alpha) * teacher, elementwise and
    in place, over two name -> Param dicts."""
    ema_blend(teacher, student, alpha, 1.0 - alpha)


def adapt(model: LocalizerModel, target: Dataset, cfg: MeanTeacherConfig):
    """Adapt the source localizer to unlabeled target data.

    Pseudo labels are gated exactly when cfg is a ConfidenceConfig.
    Returns (student model, per-epoch diagnostics). The diagnostics are
    run_epochs rows {"epoch", "kd_loss"}, plus "n_uncertain", "t_x" and
    "t_y" when gated. Source data is never touched; only the model
    artifact and target fingerprints are read.
    """
    cfg.validate()
    if target.labeled:
        raise UsageError("adaptation target must be unlabeled; strip labels first")
    rng = Rng(cfg.seed)
    student = model.net.clone()
    teacher = model.net.clone()
    z = normalize_features(target.features, model.norm)
    adam = Adam(student.params, lr=cfg.lr)
    noise_std = float(np.sqrt(cfg.noise_variance))
    gated = isinstance(cfg, ConfidenceConfig)
    pseudo = None

    def start(epoch):
        nonlocal pseudo
        if not gated:
            pseudo = teacher.predict(z)
            return {}
        labels, sigma = _probe(teacher.predict, z, noise_std, cfg.n_probe, rng, epoch)
        confident, t_x, t_y = compute_thresholds(sigma, cfg.c_x, cfg.c_y)
        pseudo = correct_labels(PseudoLabelSet(labels, confident), z, cfg.k)
        n_uncertain = int((~confident).sum())
        return {"n_uncertain": n_uncertain, "t_x": t_x, "t_y": t_y}

    def step(epoch, bi, idx):
        noise = rng.stream("aug", epoch, bi).normal(0.0, noise_std, size=(idx.size, z.shape[1]))
        preds, cache = student.forward(z[idx] + noise, rng.stream("dropout", epoch, bi))
        loss, dpred = l1_loss(preds, pseudo[idx])
        student.backward(dpred, cache)
        return {"kd_loss": loss}

    def update():
        adam.step()
        ema_update(teacher.params, student.params, cfg.alpha)

    diagnostics = run_epochs(
        cfg.epochs, shuffled(np.arange(len(z)), cfg.batch_size, rng), step, update,
        "adaptation", start=start,
    )
    kind = "mean-teacher-confidence" if gated else "mean-teacher"
    return model.adapted(student, kind=kind, adapt_config=asdict(cfg)), diagnostics
