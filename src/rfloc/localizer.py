"""Source training, prediction and oracle fine-tuning of the localizer.

A trained model carries its normalization statistics and summary
statistics of the source domain (prediction mean/variance and feature
covariance) so that source-free adapters never need the source data
itself.

run_epochs is the epoch/batch loop of source training and of every
adapter; each trainer supplies its batches, its per-batch gradient step
and its update, and gets back one dict row of per-epoch means.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, NormStats, fit_normalizer, normalize_features
from .errors import ConfigError, DataError, NumericalError
from .networks import FEATURE_DIM, Localizer, in_blocks
from .nn import Adam, Rng, l1_loss

log = logging.getLogger(__name__)


def check_schedule(cfg) -> None:
    """Check the epochs, batch_size and lr every trainer's config holds."""
    if cfg.epochs < 0:
        raise ConfigError("epochs must be non-negative")
    if cfg.batch_size < 1:
        raise ConfigError("batch size must be at least 1")
    if cfg.lr <= 0.0:
        raise ConfigError("learning rate must be positive")


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    val_fraction: float = 0.1  # slice held out for early stopping
    patience: int = 10  # epochs without improvement before stopping
    seed: int = 0

    def validate(self) -> None:
        check_schedule(self)
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("validation fraction must lie in [0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")


@dataclass
class SourceStats:
    """Source-domain summaries consumed by source-free adapters.

    The covariance must be finite, positive semidefinite within 1e-8 times
    its largest magnitude, and exactly symmetric, checked in that order.
    The PSD check shifts the diagonal of the array it holds in place and
    restores it bit for bit before construction ends, so a caller's
    writeable float64 array is held as given and must not be read by
    another thread meanwhile; a read-only array is copied first.
    """

    pred_mean: np.ndarray  # (2,)
    pred_var: np.ndarray  # (2,), population variance
    feat_cov: np.ndarray  # (768, 768), unbiased covariance, symmetric

    def __post_init__(self):
        self.pred_mean = np.ascontiguousarray(self.pred_mean, dtype=np.float64)
        self.pred_var = np.ascontiguousarray(self.pred_var, dtype=np.float64)
        self.feat_cov = np.ascontiguousarray(self.feat_cov, dtype=np.float64)
        if self.pred_mean.shape != (2,) or self.pred_var.shape != (2,):
            raise ConfigError("prediction stats must be 2-vectors")
        if np.any(self.pred_var < 0):
            raise ConfigError("prediction variances must be non-negative")
        if self.feat_cov.shape != (FEATURE_DIM, FEATURE_DIM):
            raise ConfigError(
                f"feature covariance must be ({FEATURE_DIM}, {FEATURE_DIM}), "
                f"got {self.feat_cov.shape}"
            )
        if not all(np.isfinite(a).all() for a in (self.pred_mean, self.pred_var, self.feat_cov)):
            raise NumericalError("source statistics hold non-finite values")
        if not self.feat_cov.flags.writeable:
            self.feat_cov = self.feat_cov.copy()
        cov = self.feat_cov
        # No eigenvalue below -1e-8 * scale iff the matrix shifted up by
        # that much has a Cholesky factor, which costs half an eigvalsh.
        # The factor of cov.T reads cov's upper triangle, the one an
        # artifact stores.
        scale = max(1.0, float(np.abs(cov).max()))
        diagonal = cov.diagonal().copy()
        np.fill_diagonal(cov, diagonal + 1e-8 * scale)
        try:
            np.linalg.cholesky(cov.T)
        except np.linalg.LinAlgError:
            raise ConfigError("feature covariance is not positive semidefinite") from None
        finally:
            np.fill_diagonal(cov, diagonal)
        # An artifact stores the upper triangle, so only an exactly
        # symmetric matrix is the same in memory and once saved.
        # compute_source_stats (feats.T @ feats) and load_model build one.
        if not np.array_equal(self.feat_cov, self.feat_cov.T):
            raise ConfigError("feature covariance is not exactly symmetric")


@dataclass
class LocalizerModel:
    net: Localizer
    norm: NormStats
    source_stats: SourceStats | None
    meta: dict

    def __post_init__(self):
        # Every trainer returns its model through here, so this one check
        # also covers the last update, which no loss term has seen.
        for name, p in self.net.params.items():
            if not np.isfinite(p.value).all():
                raise NumericalError(f"model parameter {name!r} holds non-finite values")


# Under _CHECKED, numpy's overflow and invalid-value warnings are off: each
# function it wraps checks its non-finite results itself and raises
# NumericalError (compute_source_stats through SourceStats).
_CHECKED = np.errstate(over="ignore", invalid="ignore")


@_CHECKED
def compute_source_stats(net: Localizer, normalized_features: np.ndarray) -> SourceStats:
    # The extractor runs in predict's row blocks, so of its outputs only
    # the (n, 768) features grow with n, and they are centered in place.
    # The regressor stays one pass over all rows: BLAS may pick another
    # kernel for its 64 -> 2 output GEMM on a smaller input, which would
    # change the last bits of the prediction statistics.
    feats = in_blocks(lambda rows: net.extractor.forward(rows)[0], normalized_features)
    preds, _ = net.regressor.forward(feats)
    feats -= feats.mean(axis=0)
    denom = max(len(feats) - 1, 1)
    return SourceStats(
        preds.mean(axis=0),
        preds.var(axis=0),
        feats.T @ feats / denom,
    )


def shuffled(rows: np.ndarray, batch_size: int, rng: Rng):
    """batches(epoch) for run_epochs: rows in the order of the epoch's
    "shuffle" stream, cut into batches keyed by their offset."""

    def batches(epoch: int):
        order = rows[rng.stream("shuffle", epoch).permutation(rows.size)]
        return [(bi, order[bi : bi + batch_size]) for bi in range(0, order.size, batch_size)]

    return batches


@_CHECKED
def run_epochs(epochs, batches, step, update, what, start=None, stop=None) -> list[dict]:
    """The epoch/batch loop every trainer runs; returns one row per epoch.

    batches(epoch) gives the epoch's (key, idx) pairs. step(epoch, key, idx)
    computes one batch's gradients and returns its loss terms; if any term
    is non-finite, NumericalError is raised before update() applies them.
    start(epoch), if given, runs before the batches and returns extra
    columns; stop(epoch), if given, runs after them and ends training when
    true. A row is {"epoch", <batch mean of each term>, <start's columns>}.

    Runs under _CHECKED: each non-finite value reaches a loss term, a
    gradient (Adam checks each) or the final weights (LocalizerModel
    checks them), and raises NumericalError there.
    """
    rows = []
    for epoch in range(epochs):
        extra = start(epoch) if start else {}
        terms = []
        for i, (key, idx) in enumerate(batches(epoch)):
            t = step(epoch, key, idx)
            if not all(math.isfinite(v) for v in t.values()):
                raise NumericalError(f"{what} diverged at epoch {epoch}, batch {i}")
            update()
            terms.append(t)
        means = {k: float(np.mean([t[k] for t in terms])) for k in terms[0]} if terms else {}
        rows.append({"epoch": epoch, **means, **extra})
        if stop and stop(epoch):
            break
    return rows


def _fit(net: Localizer, z: np.ndarray, y: np.ndarray, cfg: TrainConfig, rng: Rng) -> dict:
    """Mini-batch Adam with early stopping on a held-out slice.

    Mutates net in place; returns training metadata. The losses are null
    when no epoch ran or no finite validation loss was seen.
    """
    n = len(z)
    n_val = int(cfg.val_fraction * n)
    perm = rng.stream("valsplit").permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ConfigError("validation fraction leaves no training samples")
    adam = Adam(net.params, lr=cfg.lr)
    best_val, best_params, patience_left = np.inf, None, cfg.patience

    def step(epoch, bi, idx):
        preds, cache = net.forward(z[idx], rng.stream("dropout", epoch, bi))
        loss, dpred = l1_loss(preds, y[idx])
        net.backward(dpred, cache)
        return {"loss": loss}

    def stop(epoch):
        nonlocal best_val, best_params, patience_left
        val_loss = l1_loss(net.predict(z[val_idx]), y[val_idx])[0]
        if val_loss < best_val:
            best_val, best_params, patience_left = val_loss, net.params.clone(), cfg.patience
            return False
        patience_left -= 1
        return patience_left == 0

    rows = run_epochs(
        cfg.epochs, shuffled(train_idx, cfg.batch_size, rng), step, adam.step, "training",
        stop=stop if n_val else None,
    )
    if best_params is not None:
        net.params.copy_values_from(best_params)
    return {
        "epochs_run": len(rows),
        "final_train_loss": rows[-1]["loss"] if rows else None,
        "best_val_loss": float(best_val) if best_params is not None else None,
    }


def train_source(source: Dataset, cfg: TrainConfig | None = None) -> LocalizerModel:
    """Train the localizer from scratch on labeled source data."""
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not source.labeled:
        raise DataError("training data has no x,y label columns")
    rng = Rng(cfg.seed)
    net = Localizer.init(rng.stream("init"))
    norm = fit_normalizer(source)
    z = normalize_features(source.features, norm)
    fit_meta = _fit(net, z, source.labels, cfg, rng)
    stats = compute_source_stats(net, z)
    meta = {"kind": "source", "config": asdict(cfg), **fit_meta}
    return LocalizerModel(net, norm, stats, meta)


@_CHECKED
def predict(model: LocalizerModel, data) -> np.ndarray:
    """Predict positions (meters) for a Dataset or a raw (n, 8) array."""
    features = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(model.norm.mean):
        raise ConfigError(
            f"expected (n, {len(model.norm.mean)}) features, got {features.shape}"
        )
    preds = model.net.predict(normalize_features(features, model.norm))
    if not np.isfinite(preds).all():
        raise NumericalError("the model's predictions are non-finite")
    return preds


def finetune_oracle(
    model: LocalizerModel, labeled_target: Dataset, cfg: TrainConfig | None = None
) -> LocalizerModel:
    """Upper-bound baseline: continue training on labeled target data.

    Keeps the model's normalization; zero epochs returns an identical copy.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not labeled_target.labeled:
        raise DataError("oracle fine-tuning requires x,y labels in the target CSV")
    net = model.net.clone()
    z = normalize_features(labeled_target.features, model.norm)
    fit_meta = _fit(net, z, labeled_target.labels, cfg, Rng(cfg.seed))
    meta = {**model.meta, "kind": "oracle", "oracle_config": asdict(cfg), **fit_meta}
    return LocalizerModel(net, model.norm, model.source_stats, meta)
