"""Finite-difference helpers and brute-force oracles used across tests."""

import numpy as np

from rfloc.data import make_folds
from rfloc.errors import ConfigError, DataError, NumericalError
from rfloc.evalmetrics import compute_metrics


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


def cross_validate_serial(train_set, recipe, configs, n_folds=5, seed=0):
    """The one-process config x fold loop that cross_validate ran before
    its fold pool; the oracle the pooled results must equal exactly."""
    if not configs:
        raise ConfigError("empty config grid")
    if not train_set.labeled:
        raise DataError("fold selection needs a labeled dataset")
    folds = make_folds(train_set, n_folds=n_folds, seed=seed)
    results = []
    for config in configs:
        fold_scores = []
        for fold in range(n_folds):
            tr = train_set.subset(folds.train_indices(fold))
            va = train_set.subset(folds.val_indices(fold))
            preds = recipe(tr, va, config)
            fold_scores.append(compute_metrics(preds, va.labels).mae_d)
        results.append({**config, "val_mae_d": float(np.mean(fold_scores))})

    def sort_key(r):
        return (r["val_mae_d"], tuple(sorted((str(k), repr(r[k])) for k in r if k != "val_mae_d")))
    best = min(results, key=sort_key)
    best_config = {k: v for k, v in best.items() if k != "val_mae_d"}
    return best_config, results


class AdamAllocating:
    """The whole-array Adam step the optimizer ran before its in-place,
    blocked update; the oracle the blocked step must equal bit for bit."""

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
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
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
