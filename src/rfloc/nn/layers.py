"""Dense / 1-D convolution / activation primitives with handwritten
reverse-mode gradients. All arrays are float64.

Forward functions return plain arrays; the matching backward takes the
original inputs it needs. Composition and gradient accumulation live in
the layer objects and the `Sequential` of `rfloc.networks`, not here.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, UsageError


def glorot_uniform(gen: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------- dense

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ConfigError(f"dense: input {x.shape} incompatible with weights {w.shape}")
    if b.shape != (w.shape[1],):
        raise ConfigError(f"dense: bias {b.shape} incompatible with weights {w.shape}")
    y = x @ w
    y += b  # in place: no second (batch, n_out) array, the same bits
    return y


def dense_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Returns (dx, dw, db)."""
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


# ---------------------------------------------------------------- conv1d

def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(batch * out_len, in_ch * k) matrix of input windows, out_len =
    length - k + 1; column c * k + j holds x[n, i + j, c], matching
    w.reshape(out_ch, in_ch * k). Lowering the conv to one GEMM over this
    matrix is the im2col scheme of Chellapilla et al. (2006)."""
    n, length, in_ch = x.shape
    out_len = length - k + 1
    win = np.stack([x[:, j : j + out_len, :] for j in range(k)], axis=3)
    return win.reshape(n * out_len, in_ch * k)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid cross-correlation, stride 1.

    x: (batch, length, in_ch), w: (out_ch, in_ch, k), b: (out_ch,).
    out[n, i, o] = b[o] + sum_{j, c} x[n, i + j, c] * w[o, c, j]
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ConfigError("conv1d expects x (batch, length, in_ch) and w (out_ch, in_ch, k)")
    out_ch, in_ch, k = w.shape
    if x.shape[2] != in_ch:
        raise ConfigError(f"conv1d: {x.shape[2]} input channels, weights expect {in_ch}")
    if x.shape[1] < k:
        raise ConfigError(f"conv1d: input length {x.shape[1]} shorter than kernel {k}")
    if b.shape != (out_ch,):
        raise ConfigError(f"conv1d: bias {b.shape} incompatible with weights {w.shape}")
    out = _im2col(x, k) @ w.reshape(out_ch, in_ch * k).T
    out += b
    return out.reshape(x.shape[0], x.shape[1] - k + 1, out_ch)


def conv1d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Returns (dx, dw, db) for conv1d_forward."""
    out_ch, in_ch, k = w.shape
    out_len = x.shape[1] - k + 1
    dw = (dy.reshape(-1, out_ch).T @ _im2col(x, k)).reshape(w.shape)
    db = dy.sum(axis=(0, 1))
    dx = np.zeros_like(x)
    for j in range(k):
        # A contiguous copy of the tap: numpy's batched matmul is slow on the
        # strided w[:, :, j] and gives the same bits on the copy.
        dx[:, j : j + out_len, :] += dy @ np.ascontiguousarray(w[:, :, j])
    return dx, dw, db


# ---------------------------------------------------------------- activations

def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Two-branch form avoids overflow in exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y is the forward output."""
    return dy * y * (1.0 - y)


# ---------------------------------------------------------------- dropout

def dropout_forward(x: np.ndarray, rate: float, gen: np.random.Generator | None, training: bool):
    """Inverted dropout (Srivastava et al., JMLR 2014). Returns (out, mask);
    mask is None when inert.

    Kept units are scaled by 1/(1-rate) so inference needs no rescaling.
    The mask costs half a Philox word per unit: each raw 64-bit word of
    gen's bit generator gives two 32-bit lanes, low half first, and unit i
    (in C order) is kept iff lane i >= round(rate * 2**32), capped at
    2**32 - 1. The keep probability is within 2**-32 of 1 - rate.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if gen is None:
        raise UsageError("training-mode dropout needs a random generator")
    threshold = np.uint32(min(round(rate * 2.0**32), 2**32 - 1))
    words = gen.bit_generator.random_raw((x.size + 1) // 2)
    lanes = words.astype("<u8", copy=False).view("<u4")[: x.size].reshape(x.shape)
    # keep * (1/(1-rate)) gives the same float64 values as keep / (1-rate),
    # without a division per unit.
    mask = np.multiply(lanes >= threshold, 1.0 / (1.0 - rate))
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return dy if mask is None else dy * mask


# ---------------------------------------------------------------- losses

def l1_loss(pred: np.ndarray, target: np.ndarray):
    """Mean over the batch of summed absolute coordinate errors.

    Returns (loss, dloss/dpred). Subgradient at zero error is 0.
    """
    if pred.shape != target.shape:
        raise ConfigError(f"loss: prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    loss = float(np.abs(diff).sum(axis=1).mean())
    grad = np.sign(diff) / pred.shape[0]
    return loss, grad
