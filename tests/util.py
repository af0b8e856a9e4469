"""Finite-difference helpers and brute-force oracles used across tests."""

import csv
import hashlib
import math

import numpy as np

from rfloc.data import FEATURE_COLUMNS, LABEL_COLUMNS, make_folds
from rfloc.errors import DataError, NumericalError
from rfloc.evalmetrics import compute_metrics
from rfloc.networks import (
    CONV1_FILTERS,
    CONV2_FILTERS,
    DROPOUT_RATE,
    FEATURE_DIM,
    HIDDEN1,
    HIDDEN2,
    IN_CHANNELS,
    KERNEL_SIZE,
    SIGMOID_CLIP,
)
from rfloc.nn.layers import (
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    glorot_uniform,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)
from rfloc.nn.params import Param
from rfloc.nn.rng import Rng, _fold, _key_words, _splitmix64


def central_difference(scalar_fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Numerical gradient of scalar_fn with respect to array, elementwise."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        hi = scalar_fn()
        array[idx] = orig - eps
        lo = scalar_fn()
        array[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad


def sampled_coords(shape, n: int, seed: int):
    """Up to n random (unraveled) indices into an array of the given shape."""
    size = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    picks = rng.choice(size, size=min(n, size), replace=False)
    return [np.unravel_index(int(p), shape) for p in picks]


def sampled_central_difference(scalar_fn, array: np.ndarray, coords, eps: float = 1e-6):
    """Numerical gradient at selected coordinates only. Returns list of values."""
    out = []
    for idx in coords:
        orig = array[idx]
        array[idx] = orig + eps
        hi = scalar_fn()
        array[idx] = orig - eps
        lo = scalar_fn()
        array[idx] = orig
        out.append((hi - lo) / (2.0 * eps))
    return out


def max_rel_error(analytic, numeric, floor: float = 1e-8) -> float:
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / scale).max())


def zero_grads(params: dict) -> None:
    for p in params.values():
        p.grad[...] = 0.0


def total_size(params: dict) -> int:
    return sum(p.value.size for p in params.values())


def overall_mae_d(grid) -> float:
    """A heatmap's count-weighted mean of cell values; equals mae_d of the
    samples binned into it."""
    filled = grid.counts > 0
    return float((grid.values[filled] * grid.counts[filled]).sum() / grid.counts[filled].sum())


def resealed(body: bytes) -> bytes:
    """An artifact's bytes before its sha256 trailer, with a fresh trailer,
    so that an edited file reaches the checks behind the checksum."""
    return body + hashlib.sha256(body).digest()


def conv1d_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct loop valid cross-correlation; oracle for conv1d_forward."""
    n, length, in_ch = x.shape
    out_ch, _, k = w.shape
    out_len = length - k + 1
    out = np.zeros((n, out_len, out_ch))
    for s in range(n):
        for i in range(out_len):
            for o in range(out_ch):
                acc = 0.0
                for c in range(in_ch):
                    for j in range(k):
                        acc += x[s, i + j, c] * w[o, c, j]
                out[s, i, o] = acc + b[o]
    return out


def conv1d_backward_loops(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of conv1d_loops, one (position, tap, filter) at a time with
    elementwise products; returns (dx, dw, db)."""
    out_ch, _, k = w.shape
    out_len = x.shape[1] - k + 1
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    db = np.zeros(out_ch)
    for i in range(out_len):
        for o in range(out_ch):
            g = dy[:, i, o]
            db[o] += g.sum()
            for j in range(k):
                dw[o, :, j] += (g[:, None] * x[:, i + j, :]).sum(axis=0)
                dx[:, i + j, :] += g[:, None] * w[o, :, j]
    return dx, dw, db


def probe_whole_set(predict_fn, z, noise_std, n_probe, rng, epoch):
    """Uncertainty probing as it ran before its noisy passes were blocked:
    all of the noise drawn at once, each pass over every row, and one
    spread over the whole (n_probe, n, 2) array."""
    n, dim = z.shape
    labels = predict_fn(z)
    noise = rng.row_normals(("probe", epoch), n, noise_std, (n_probe, dim))
    preds = np.empty((n_probe, n, 2))
    for p in range(n_probe):
        preds[p] = predict_fn(z + noise[:, p])
    return labels, preds.std(axis=0)


def write_csv_rowwise(dataset, path, run_id=None):
    """The dataset writer before it was chunked: one csv.writer row per
    sample, each value converted from its numpy scalar."""
    with open(path, "w", newline="") as fh:
        if run_id:
            fh.write(f"# run: {run_id}\n")
        writer = csv.writer(fh)
        header = list(FEATURE_COLUMNS) + (list(LABEL_COLUMNS) if dataset.labeled else [])
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.features[i]]
            if dataset.labeled:
                row += [repr(float(v)) for v in dataset.labels[i]]
            writer.writerow(row)


def row_normals_rowwise(rng: Rng, tags, n, scale, shape, offset=0):
    """Rng.row_normals before its keys were derived as arrays: each row's
    Philox key folded from the tag prefix in Python ints."""
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]
    prefix = _fold(_splitmix64(rng.seed), tags)
    out = np.empty((n, *shape))
    for i in range(n):
        key = np.array(_key_words(_fold(prefix, (offset + i,))), dtype=np.uint64)
        state["state"] = {"counter": counter, "key": key}
        bits.state = state
        out[i] = gen.normal(0.0, scale, shape)
    return out


def correct_labels_per_row(labels, confident, features, k, eps=1e-8):
    """The per-row loop label correction used before it was vectorized:
    one distance vector and one stable argsort per uncertain sample."""
    conf_idx = np.flatnonzero(confident)
    labels = labels.copy()
    if conf_idx.size == 0:
        return labels
    k_eff = min(k, conf_idx.size)
    conf_feats = features[conf_idx]
    conf_labels = labels[conf_idx]
    for i in np.flatnonzero(~confident):
        diff = conf_feats - features[i]
        dist = np.sqrt((diff * diff).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:k_eff]
        w = 1.0 / np.maximum(dist[nearest], eps)
        labels[i] = (w[:, None] * conf_labels[nearest]).sum(axis=0) / w.sum()
    return labels


def correct_labels_bruteforce(labels, sigma, confident, features, k, eps=1e-8):
    """Direct reimplementation of uncertain-label correction: full distance
    matrix, explicit sort with index tie-break, direct weighted average."""
    labels = labels.copy()
    conf_idx = [int(j) for j in np.flatnonzero(confident)]
    if not conf_idx:
        return labels
    k_eff = min(k, len(conf_idx))
    for i in np.flatnonzero(~confident):
        scored = []
        for j in conf_idx:
            diff = features[j] - features[i]
            d = np.sqrt((diff * diff).sum())
            scored.append((d, j))
        scored.sort(key=lambda t: (t[0], t[1]))
        chosen = scored[:k_eff]
        w = np.array([1.0 / max(d, eps) for d, _ in chosen])
        pts = np.array([labels[j] for _, j in chosen])
        labels[i] = (w[:, None] * pts).sum(axis=0) / w.sum()
    return labels


def cross_validate_serial(train_set, recipe, configs, n_folds, seed):
    """The one-process config x fold loop that cross_validate ran before
    its fold pool, with both recipe stages run for every entry and fold:
    the oracle its scores must equal exactly."""
    if not train_set.labeled:
        raise DataError("fold selection requires a labeled target CSV")
    folds = make_folds(train_set, n_folds, seed)
    scores = []
    for config in configs:
        fold_scores = []
        for fold in range(n_folds):
            tr = train_set.subset(np.flatnonzero(folds != fold))
            va = train_set.subset(np.flatnonzero(folds == fold))
            preds = recipe(tr)(va, config)
            fold_scores.append(compute_metrics(preds, va.labels)["mae_d"])
        scores.append(float(np.mean(fold_scores)))
    return scores


class AdamAllocating:
    """The whole-array form of the folded Adam step: unnormalized moments
    m = b1*m + g and v = b2*v + g*g, and value -= lr_t*m / (sqrt(v) + eps_t)
    with the (1-b) factors and bias corrections folded into lr_t and eps_t.
    The oracle the blocked in-place step must equal bit for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.value) for name, p in params.items()}

    def step(self):
        for name, p in self.params.items():
            if not np.all(np.isfinite(p.grad)):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        s = math.sqrt((1.0 - b2) / (1.0 - b2**self.t))
        lr_t = self.lr * (1.0 - b1) / (1.0 - b1**self.t) / s
        eps_t = self.eps / s
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += g
            v *= b2
            v += g * g
            p.value -= lr_t * m / (np.sqrt(v) + eps_t)
            p.grad[...] = 0.0


class AdamTextbook(AdamAllocating):
    """Kingma & Ba's Adam as printed: normalized moments and explicit bias
    corrections, value -= lr*(m/bc1) / (sqrt(v/bc2) + eps)."""

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.grad[...] = 0.0


def ema_update_allocating(teacher, student, alpha):
    """The mean-teacher EMA as it was before it ran in place: each teacher
    value rebound to alpha * student + (1 - alpha) * teacher."""
    for name, t in teacher.items():
        t.value = alpha * student[name].value + (1.0 - alpha) * t.value


def shot_ema_allocating(teacher, student, teacher_ema):
    """SHOT's inline teacher update before it ran in place:
    teacher_ema * teacher + (1 - teacher_ema) * student."""
    for name, t in teacher.items():
        t.value = teacher_ema * t.value + (1.0 - teacher_ema) * student[name].value


def conv1d_dx_strided(dy, w, x_shape):
    """conv1d_backward's dx as it was computed before its taps were made
    contiguous: the batched product with the strided slice w[:, :, j]."""
    k = w.shape[2]
    out_len = x_shape[1] - k + 1
    dx = np.zeros(x_shape)
    for j in range(k):
        dx[:, j : j + out_len, :] += dy @ w[:, :, j]
    return dx


def shot_coral_direct(f_w, feat_cov):
    """SHOT's covariance-alignment term as _shot_step computed it before
    its batch-Gram form: the full difference delta = fc.T @ fc / (b-1) - C.
    Returns (||delta||_F^2, 4/(b-1) * fc @ delta centred over the batch)."""
    b = len(f_w)
    fc = f_w - f_w.mean(axis=0)
    delta = fc.T @ fc / (b - 1) - feat_cov
    g = (4.0 / (b - 1)) * (fc @ delta)
    return float((delta * delta).sum()), g - g.mean(axis=0)


def relu(x):
    """ReLU as the unrolled networks below apply it: a new array."""
    return np.maximum(x, 0.0)


# The networks as they were written before they became layer lists: init,
# forward and backward unrolled by hand over a name -> Param dict. The oracle the
# Sequential networks must equal bit for bit.

def extractor_init_unrolled(gen):
    p = {}
    p["conv1_w"] = Param(glorot_uniform(gen, (CONV1_FILTERS, IN_CHANNELS, KERNEL_SIZE),
                                        fan_in=IN_CHANNELS * KERNEL_SIZE,
                                        fan_out=CONV1_FILTERS * KERNEL_SIZE))
    p["conv1_b"] = Param(np.zeros(CONV1_FILTERS))
    p["conv2_w"] = Param(glorot_uniform(gen, (CONV2_FILTERS, CONV1_FILTERS, KERNEL_SIZE),
                                        fan_in=CONV1_FILTERS * KERNEL_SIZE,
                                        fan_out=CONV2_FILTERS * KERNEL_SIZE))
    p["conv2_b"] = Param(np.zeros(CONV2_FILTERS))
    return p


def extractor_forward_unrolled(p, x, drop_gen=None):
    a0 = x[:, :, None]
    z1 = conv1d_forward(a0, p["conv1_w"].value, p["conv1_b"].value)
    r1 = relu(z1)
    d1, m1 = dropout_forward(r1, DROPOUT_RATE, drop_gen)
    z2 = conv1d_forward(d1, p["conv2_w"].value, p["conv2_b"].value)
    r2 = relu(z2)
    d2, m2 = dropout_forward(r2, DROPOUT_RATE, drop_gen)
    feats = d2.reshape(x.shape[0], FEATURE_DIM)
    cache = {"a0": a0, "z1": z1, "m1": m1, "d1": d1, "z2": z2, "m2": m2, "shape2": d2.shape}
    return feats, cache


def extractor_backward_unrolled(p, dfeats, cache, accumulate=True):
    dd2 = dfeats.reshape(cache["shape2"])
    dr2 = dropout_backward(dd2, cache["m2"])
    dz2 = relu_backward(dr2, cache["z2"])
    dd1, dw2, db2 = conv1d_backward(dz2, cache["d1"], p["conv2_w"].value)
    dr1 = dropout_backward(dd1, cache["m1"])
    dz1 = relu_backward(dr1, cache["z1"])
    da0, dw1, db1 = conv1d_backward(dz1, cache["a0"], p["conv1_w"].value)
    if accumulate:
        p["conv2_w"].grad += dw2
        p["conv2_b"].grad += db2
        p["conv1_w"].grad += dw1
        p["conv1_b"].grad += db1
    return da0[:, :, 0]


def dense_head_init_unrolled(gen, prefix, n_out):
    p = {}
    p[f"{prefix}1_w"] = Param(glorot_uniform(gen, (FEATURE_DIM, HIDDEN1), FEATURE_DIM, HIDDEN1))
    p[f"{prefix}1_b"] = Param(np.zeros(HIDDEN1))
    p[f"{prefix}2_w"] = Param(glorot_uniform(gen, (HIDDEN1, HIDDEN2), HIDDEN1, HIDDEN2))
    p[f"{prefix}2_b"] = Param(np.zeros(HIDDEN2))
    p[f"{prefix}3_w"] = Param(glorot_uniform(gen, (HIDDEN2, n_out), HIDDEN2, n_out))
    p[f"{prefix}3_b"] = Param(np.zeros(n_out))
    return p


def regressor_forward_unrolled(p, feats, drop_gen=None):
    z1 = dense_forward(feats, p["dense1_w"].value, p["dense1_b"].value)
    r1 = relu(z1)
    d1, m1 = dropout_forward(r1, DROPOUT_RATE, drop_gen)
    z2 = dense_forward(d1, p["dense2_w"].value, p["dense2_b"].value)
    r2 = relu(z2)
    out = dense_forward(r2, p["dense3_w"].value, p["dense3_b"].value)
    cache = {"feats": feats, "z1": z1, "m1": m1, "d1": d1, "z2": z2, "r2": r2}
    return out, cache


def regressor_backward_unrolled(p, dout, cache, accumulate=True):
    dr2, dw3, db3 = dense_backward(dout, cache["r2"], p["dense3_w"].value)
    dz2 = relu_backward(dr2, cache["z2"])
    dd1, dw2, db2 = dense_backward(dz2, cache["d1"], p["dense2_w"].value)
    dr1 = dropout_backward(dd1, cache["m1"])
    dz1 = relu_backward(dr1, cache["z1"])
    dfeats, dw1, db1 = dense_backward(dz1, cache["feats"], p["dense1_w"].value)
    if accumulate:
        p["dense3_w"].grad += dw3
        p["dense3_b"].grad += db3
        p["dense2_w"].grad += dw2
        p["dense2_b"].grad += db2
        p["dense1_w"].grad += dw1
        p["dense1_b"].grad += db1
    return dfeats


def discriminator_forward_unrolled(p, feats):
    z1 = dense_forward(feats, p["disc1_w"].value, p["disc1_b"].value)
    r1 = relu(z1)
    z2 = dense_forward(r1, p["disc2_w"].value, p["disc2_b"].value)
    r2 = relu(z2)
    z3 = dense_forward(r2, p["disc3_w"].value, p["disc3_b"].value)
    prob = np.clip(sigmoid(z3), SIGMOID_CLIP, 1.0 - SIGMOID_CLIP)
    cache = {"feats": feats, "z1": z1, "r1": r1, "z2": z2, "r2": r2, "prob": prob}
    return prob, cache


def discriminator_backward_unrolled(p, dprob, cache, accumulate=True):
    dz3 = sigmoid_backward(dprob, cache["prob"])
    dr2, dw3, db3 = dense_backward(dz3, cache["r2"], p["disc3_w"].value)
    dz2 = relu_backward(dr2, cache["z2"])
    dr1, dw2, db2 = dense_backward(dz2, cache["r1"], p["disc2_w"].value)
    dz1 = relu_backward(dr1, cache["z1"])
    dfeats, dw1, db1 = dense_backward(dz1, cache["feats"], p["disc1_w"].value)
    if accumulate:
        p["disc3_w"].grad += dw3
        p["disc3_b"].grad += db3
        p["disc2_w"].grad += dw2
        p["disc2_b"].grad += db2
        p["disc1_w"].grad += dw1
        p["disc1_b"].grad += db1
    return dfeats
