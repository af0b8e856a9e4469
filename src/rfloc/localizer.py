"""Source training, prediction and oracle fine-tuning of the localizer.

A trained model carries its normalization statistics and summary
statistics of the source domain (prediction mean/variance and feature
covariance) so that source-free adapters never need the source data
itself.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, NormStats, fit_normalizer, normalize_features
from .errors import ConfigError, NumericalError, UsageError
from .networks import FEATURE_DIM, Localizer, in_blocks
from .nn import Adam, Rng, l1_loss, l2_loss

log = logging.getLogger(__name__)

LOSSES = {"l1": l1_loss, "l2": l2_loss}


@dataclass
class TrainConfig:
    loss: str = "l1"  # "l1" (default) or "l2"
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    val_fraction: float = 0.1  # slice held out for early stopping
    patience: int = 10  # epochs without improvement before stopping
    seed: int = 0

    def validate(self) -> None:
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {sorted(LOSSES)}")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("validation fraction must lie in [0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")


@dataclass
class SourceStats:
    """Source-domain summaries consumed by source-free adapters."""

    pred_mean: np.ndarray  # (2,)
    pred_var: np.ndarray  # (2,), population variance
    feat_cov: np.ndarray  # (768, 768), unbiased covariance

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
        scale = max(1.0, float(np.abs(self.feat_cov).max()))
        asymmetry = self.feat_cov - self.feat_cov.T
        np.abs(asymmetry, out=asymmetry)
        if asymmetry.max() > 1e-8 * scale:
            raise ConfigError("feature covariance is not symmetric")
        del asymmetry  # freed before eigvalsh makes its own copy of the matrix
        min_eig = float(np.linalg.eigvalsh(self.feat_cov).min())
        if min_eig < -1e-8 * scale:
            raise ConfigError(f"feature covariance is not positive semidefinite ({min_eig})")


@dataclass
class LocalizerModel:
    net: Localizer
    norm: NormStats
    source_stats: SourceStats | None
    meta: dict

    def clone(self) -> "LocalizerModel":
        return LocalizerModel(self.net.clone(), self.norm, self.source_stats, dict(self.meta))


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


def _fit(net: Localizer, z: np.ndarray, y: np.ndarray, cfg: TrainConfig, rng: Rng) -> dict:
    """Shared mini-batch Adam loop with early stopping on a held-out slice.

    Mutates net in place; returns training metadata.
    """
    loss_fn = LOSSES[cfg.loss]
    n = len(z)
    n_val = int(cfg.val_fraction * n)
    perm = rng.stream("valsplit").permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ConfigError("validation fraction leaves no training samples")
    adam = Adam(net.params, lr=cfg.lr)
    best_val = np.inf
    best_params = None
    patience_left = cfg.patience
    epochs_run = 0
    last_train_loss = float("nan")
    for epoch in range(cfg.epochs):
        order = train_idx[rng.stream("shuffle", epoch).permutation(train_idx.size)]
        batch_losses = []
        for bi in range(0, order.size, cfg.batch_size):
            idx = order[bi : bi + cfg.batch_size]
            drop_gen = rng.stream("dropout", epoch, bi)
            preds, cache = net.forward(z[idx], drop_gen)
            loss, dpred = loss_fn(preds, y[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"training diverged at epoch {epoch}, batch {bi // cfg.batch_size}")
            batch_losses.append(loss)
            net.backward(dpred, cache)
            adam.step()
        last_train_loss = float(np.mean(batch_losses))
        epochs_run = epoch + 1
        if n_val:
            val_loss = loss_fn(net.predict(z[val_idx]), y[val_idx])[0]
            if val_loss < best_val:
                best_val = val_loss
                best_params = net.params.clone()
                patience_left = cfg.patience
            else:
                patience_left -= 1
                if patience_left == 0:
                    break
    if best_params is not None:
        net.params.copy_values_from(best_params)
    return {
        "epochs_run": epochs_run,
        "final_train_loss": last_train_loss,
        "best_val_loss": float(best_val) if n_val else None,
    }


def train_source(source: Dataset, cfg: TrainConfig | None = None) -> LocalizerModel:
    """Train the localizer from scratch on labeled source data."""
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not source.labeled:
        raise UsageError("source training requires a labeled dataset")
    rng = Rng(cfg.seed)
    net = Localizer.init(rng.stream("init"))
    norm = fit_normalizer(source)
    z = normalize_features(source.features, norm)
    fit_meta = _fit(net, z, source.labels, cfg, rng)
    stats = compute_source_stats(net, z)
    meta = {"kind": "source", "config": asdict(cfg), **fit_meta}
    return LocalizerModel(net, norm, stats, meta)


def predict(model: LocalizerModel, data) -> np.ndarray:
    """Predict positions (meters) for a Dataset or a raw (n, 8) array."""
    features = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(model.norm.mean):
        raise ConfigError(
            f"expected (n, {len(model.norm.mean)}) features, got {features.shape}"
        )
    return model.net.predict(normalize_features(features, model.norm))


def finetune_oracle(
    model: LocalizerModel, labeled_target: Dataset, cfg: TrainConfig | None = None
) -> LocalizerModel:
    """Upper-bound baseline: continue training on labeled target data.

    Keeps the model's normalization; zero epochs returns an identical copy.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not labeled_target.labeled:
        raise UsageError("oracle fine-tuning requires a labeled target dataset")
    net = model.net.clone()
    z = normalize_features(labeled_target.features, model.norm)
    fit_meta = _fit(net, z, labeled_target.labels, cfg, Rng(cfg.seed))
    meta = {**model.meta, "kind": "oracle", "oracle_config": asdict(cfg), **fit_meta}
    return LocalizerModel(net, model.norm, model.source_stats, meta)
