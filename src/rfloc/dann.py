"""Domain-adversarial baseline. Requires access to source data.

Per batch, three parameter groups are updated in fixed order with explicit
gradient arithmetic (no gradient-reversal construct):

  1. regressor by the gradient of the regression loss,
  2. feature extractor by the gradient of (regression loss - discriminator
     loss), assembled as the sum of the regression-path gradient and the
     negated discriminator-path gradient,
  3. discriminator by the gradient of its own loss.

The discriminator loss is the usual cross-entropy
  -(1/B) sum [ log D(F_source) + log(1 - D(F_target)) ]
with log arguments clamped at 1e-12. disc_loss gives it and its gradients,
for both the extractor's and the discriminator's pass; the regression loss
is nn.l1_loss. When the two domains have different sizes, the smaller one
is cycled within each epoch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, normalize_features
from .errors import DataError, ResourceError
from .localizer import LocalizerModel, Schedule, run_epochs
from .networks import Discriminator
from .nn.adam import Adam
from .nn.layers import l1_loss
from .nn.rng import Rng

LOG_CLAMP = 1e-12


@dataclass
class DannConfig(Schedule):
    """DANN reads the schedule alone."""


def disc_loss(p_s: np.ndarray, p_t: np.ndarray):
    """The discriminator's cross-entropy on equal-size batches of its
    source and target probabilities, plus its gradients w.r.t. both."""
    b = len(p_s)
    ps_c = np.maximum(p_s, LOG_CLAMP)
    qt_c = np.maximum(1.0 - p_t, LOG_CLAMP)
    loss = float(-(np.log(ps_c) + np.log(qt_c)).mean())
    dp_s = np.where(p_s > LOG_CLAMP, -1.0 / (b * ps_c), 0.0)
    dp_t = np.where(1.0 - p_t > LOG_CLAMP, 1.0 / (b * qt_c), 0.0)
    return loss, dp_s, dp_t


def cycled(n_s: int, n_t: int, batch_size: int, rng: Rng):
    """batches(epoch) for run_epochs over both domains: max(n_s, n_t) //
    batch_size batches (at least one), keyed by their index, each an
    (idx_s, idx_t) pair of batch_size rows taken in the epoch's shuffled
    order of each domain; the smaller domain is cycled."""
    n_batches = max(max(n_s, n_t) // batch_size, 1)
    # Sized before np.arange builds it: near 2**63 bytes numpy raises
    # ValueError rather than MemoryError, and no machine has 2**62 bytes.
    if n_batches * batch_size * np.dtype(np.intp).itemsize > 2**62:
        raise ResourceError(f"a batch layout of {n_batches} x {batch_size} rows is too large")
    take = np.arange(n_batches * batch_size).reshape(n_batches, batch_size)

    def batches(epoch: int):
        order_s = rng.stream("shuffle_s", epoch).permutation(n_s)
        order_t = rng.stream("shuffle_t", epoch).permutation(n_t)
        return [(bi, (order_s[t % n_s], order_t[t % n_t])) for bi, t in enumerate(take)]

    return batches


def run_dann(source_model: LocalizerModel, source: Dataset, target: Dataset, cfg: DannConfig):
    """Adversarial adaptation starting from the source localizer.

    Returns (adapted model, per-epoch diagnostics); the diagnostics are
    run_epochs rows {"epoch", "reg_loss", "disc_loss", "feat_loss"}, with
    feat_loss = reg_loss - disc_loss.

    The regressor and extractor Adam steps (1 and 2) run inside the batch
    step, before run_epochs checks its loss terms. A NaN regression loss
    therefore comes with NaN gradients, which Adam refuses with a
    NumericalError naming the parameter (exit 4) before run_epochs sees
    the loss. An infinite one can have finite gradients (l1_loss's are
    signs); then both steps apply, and run_epochs raises its NumericalError
    naming the epoch and batch before step 3's update.
    """
    cfg.validate()
    if not source.labeled:
        raise DataError("adversarial adaptation needs labeled source data")
    rng = Rng(cfg.seed)
    net = source_model.net.clone()
    disc = Discriminator(init_gen=rng.stream("disc_init"))
    adam_r = Adam(net.regressor.params, lr=cfg.lr)
    adam_f = Adam(net.extractor.params, lr=cfg.lr)
    adam_d = Adam(disc.params, lr=cfg.lr)
    z_s = normalize_features(source.features, source_model.norm)
    y_s = source.labels
    z_t = normalize_features(target.features, source_model.norm)

    def step(epoch, bi, idx):
        # Steps 1 and 2 apply their updates here, since the passes after
        # them read the updated parameters; update() runs step 3's.
        xs, ys, xt = z_s[idx[0]], y_s[idx[0]], z_t[idx[1]]

        # 1. regressor step: gradient of the regression loss only.
        preds, (c_ext, c_reg) = net.forward(xs, rng.stream("drop_r", epoch, bi))
        loss_r, dpred = l1_loss(preds, ys)
        net.regressor.backward(dpred, c_reg)
        adam_r.step()

        # 2. extractor step: gradient of (regression loss - discriminator loss),
        # both paths evaluated on the same source features.
        gen_f = rng.stream("drop_f", epoch, bi)
        f_s, c_ext = net.extractor.forward(xs, gen_f)
        preds, c_reg = net.regressor.forward(f_s, gen_f)
        _, dpred = l1_loss(preds, ys)
        dfeat_reg = net.regressor.backward(dpred, c_reg, accumulate=False)
        net.extractor.backward(dfeat_reg, c_ext)
        f_t, c_t = net.extractor.forward(xt, rng.stream("drop_ft", epoch, bi))
        p_s, cd_s = disc.forward(f_s)
        p_t, cd_t = disc.forward(f_t)
        _, dp_s, dp_t = disc_loss(p_s, p_t)
        df_s = disc.backward(dp_s, cd_s, accumulate=False)
        df_t = disc.backward(dp_t, cd_t, accumulate=False)
        net.extractor.backward(-df_s, c_ext)
        net.extractor.backward(-df_t, c_t)
        adam_f.step()

        # 3. discriminator gradients on freshly extracted features.
        f_s2, _ = net.extractor.forward(xs, rng.stream("drop_ds", epoch, bi))
        f_t2, _ = net.extractor.forward(xt, rng.stream("drop_dt", epoch, bi))
        p_s2, cd_s2 = disc.forward(f_s2)
        p_t2, cd_t2 = disc.forward(f_t2)
        loss_d2, dp_s2, dp_t2 = disc_loss(p_s2, p_t2)
        disc.backward(dp_s2, cd_s2)
        disc.backward(dp_t2, cd_t2)
        return {"reg_loss": loss_r, "disc_loss": loss_d2}

    batches = cycled(len(z_s), len(z_t), cfg.batch_size, rng)
    diagnostics = run_epochs(cfg.epochs, batches, step, adam_d.step, "adaptation")
    for row in diagnostics:
        row["feat_loss"] = row["reg_loss"] - row["disc_loss"]
    return source_model.adapted(net, kind="dann", adapt_config=asdict(cfg)), diagnostics
