"""Network blocks: convolutional feature extractor, coordinate regressor,
and the domain discriminator used by the adversarial baseline.

Input is one 8-value received-power fingerprint per sample (4 receivers x
2 polarizations), treated as a length-8 single-channel sequence. Backward
passes are written explicitly against forward caches and accumulate (+=)
into the parameter gradients, so several loss paths can share one step.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, UsageError
from .nn import (
    ParamSet,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    glorot_uniform,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)

INPUT_LEN = 8
IN_CHANNELS = 1
KERNEL_SIZE = 2
CONV1_FILTERS = 64
CONV2_FILTERS = 128
DROPOUT_RATE = 0.2
# Two valid k=2 convolutions shrink the length 8 -> 7 -> 6 before flatten.
FEATURE_DIM = (INPUT_LEN - 2 * (KERNEL_SIZE - 1)) * CONV2_FILTERS
HIDDEN1 = 128
HIDDEN2 = 64
OUTPUT_DIM = 2
SIGMOID_CLIP = 1e-12
# Rows per inference block. At 256 rows conv2's im2col matrix and its
# output are about 1.5 MB each, near L2 size; 128 rows measured the same,
# 512 rows slower on 650-row inputs.
PREDICT_BLOCK_ROWS = 256


def in_blocks(fn, x: np.ndarray) -> np.ndarray:
    """fn(x) computed over blocks of PREDICT_BLOCK_ROWS rows.

    fn must map each row on its own, so that its outputs for a block are
    the rows of its output for the whole input. The blocks' outputs are
    written into one preallocated array, so the intermediates of fn stay
    cache-sized and only the output grows with the number of rows. Inputs
    of at most one block, and inputs that are not 2-D (which fn rejects),
    take a single call.
    """
    b = PREDICT_BLOCK_ROWS
    if x.ndim != 2 or len(x) <= b:
        return fn(x)
    first = fn(x[:b])
    out = np.empty((len(x),) + first.shape[1:], dtype=first.dtype)
    out[:b] = first
    for i in range(b, len(x), b):
        out[i : i + b] = fn(x[i : i + b])
    return out


def _check_param_shapes(params: ParamSet, expected: dict[str, tuple]) -> None:
    if params.names() != list(expected):
        raise ConfigError(
            f"parameter names {params.names()} do not match expected {list(expected)}"
        )
    for name, shape in expected.items():
        if params[name].value.shape != shape:
            raise ConfigError(
                f"parameter {name!r} has shape {params[name].value.shape}, expected {shape}"
            )


class FeatureExtractor:
    """Conv1d(64, k=2) + ReLU + Dropout, Conv1d(128, k=2) + ReLU + Dropout, flatten."""

    SHAPES = {
        "conv1_w": (CONV1_FILTERS, IN_CHANNELS, KERNEL_SIZE),
        "conv1_b": (CONV1_FILTERS,),
        "conv2_w": (CONV2_FILTERS, CONV1_FILTERS, KERNEL_SIZE),
        "conv2_b": (CONV2_FILTERS,),
    }

    def __init__(self, params: ParamSet | None = None, init_gen: np.random.Generator | None = None):
        if params is None:
            if init_gen is None:
                raise ConfigError("need either existing parameters or an init generator")
            params = ParamSet()
            params.add(
                "conv1_w",
                glorot_uniform(
                    init_gen,
                    self.SHAPES["conv1_w"],
                    fan_in=IN_CHANNELS * KERNEL_SIZE,
                    fan_out=CONV1_FILTERS * KERNEL_SIZE,
                ),
            )
            params.add("conv1_b", np.zeros(CONV1_FILTERS))
            params.add(
                "conv2_w",
                glorot_uniform(
                    init_gen,
                    self.SHAPES["conv2_w"],
                    fan_in=CONV1_FILTERS * KERNEL_SIZE,
                    fan_out=CONV2_FILTERS * KERNEL_SIZE,
                ),
            )
            params.add("conv2_b", np.zeros(CONV2_FILTERS))
        else:
            _check_param_shapes(params, self.SHAPES)
        self.params = params

    def forward(self, x: np.ndarray, drop_gen: np.random.Generator | None = None):
        """x: (batch, 8). Returns (features (batch, 768), cache).

        Dropout is active iff drop_gen is given; None means inference.
        """
        if x.ndim != 2 or x.shape[1] != INPUT_LEN:
            raise ConfigError(f"expected input of shape (batch, {INPUT_LEN}), got {x.shape}")
        training = drop_gen is not None
        p = self.params
        a0 = x[:, :, None]
        z1 = conv1d_forward(a0, p["conv1_w"].value, p["conv1_b"].value)
        r1 = relu(z1)
        d1, m1 = dropout_forward(r1, DROPOUT_RATE, drop_gen, training)
        z2 = conv1d_forward(d1, p["conv2_w"].value, p["conv2_b"].value)
        r2 = relu(z2)
        d2, m2 = dropout_forward(r2, DROPOUT_RATE, drop_gen, training)
        feats = d2.reshape(x.shape[0], FEATURE_DIM)
        cache = {"a0": a0, "z1": z1, "m1": m1, "d1": d1, "z2": z2, "m2": m2, "shape2": d2.shape}
        return feats, cache

    def backward(self, dfeats: np.ndarray, cache: dict, accumulate: bool = True) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. the input, accumulating parameter grads."""
        if cache is None:
            raise UsageError("backward requires the cache of a matching forward pass")
        p = self.params
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

    def clone(self) -> "FeatureExtractor":
        return FeatureExtractor(self.params.clone())


class Regressor:
    """Dense(128) + ReLU + Dropout, Dense(64) + ReLU, Dense(2)."""

    SHAPES = {
        "dense1_w": (FEATURE_DIM, HIDDEN1),
        "dense1_b": (HIDDEN1,),
        "dense2_w": (HIDDEN1, HIDDEN2),
        "dense2_b": (HIDDEN2,),
        "dense3_w": (HIDDEN2, OUTPUT_DIM),
        "dense3_b": (OUTPUT_DIM,),
    }

    def __init__(self, params: ParamSet | None = None, init_gen: np.random.Generator | None = None):
        if params is None:
            if init_gen is None:
                raise ConfigError("need either existing parameters or an init generator")
            params = ParamSet()
            params.add("dense1_w", glorot_uniform(init_gen, (FEATURE_DIM, HIDDEN1), FEATURE_DIM, HIDDEN1))
            params.add("dense1_b", np.zeros(HIDDEN1))
            params.add("dense2_w", glorot_uniform(init_gen, (HIDDEN1, HIDDEN2), HIDDEN1, HIDDEN2))
            params.add("dense2_b", np.zeros(HIDDEN2))
            params.add("dense3_w", glorot_uniform(init_gen, (HIDDEN2, OUTPUT_DIM), HIDDEN2, OUTPUT_DIM))
            params.add("dense3_b", np.zeros(OUTPUT_DIM))
        else:
            _check_param_shapes(params, self.SHAPES)
        self.params = params

    def forward(self, feats: np.ndarray, drop_gen: np.random.Generator | None = None):
        if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
            raise ConfigError(f"expected features of shape (batch, {FEATURE_DIM}), got {feats.shape}")
        training = drop_gen is not None
        p = self.params
        z1 = dense_forward(feats, p["dense1_w"].value, p["dense1_b"].value)
        r1 = relu(z1)
        d1, m1 = dropout_forward(r1, DROPOUT_RATE, drop_gen, training)
        z2 = dense_forward(d1, p["dense2_w"].value, p["dense2_b"].value)
        r2 = relu(z2)
        out = dense_forward(r2, p["dense3_w"].value, p["dense3_b"].value)
        cache = {"feats": feats, "z1": z1, "m1": m1, "d1": d1, "z2": z2, "r2": r2}
        return out, cache

    def backward(self, dout: np.ndarray, cache: dict, accumulate: bool = True) -> np.ndarray:
        if cache is None:
            raise UsageError("backward requires the cache of a matching forward pass")
        p = self.params
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

    def clone(self) -> "Regressor":
        return Regressor(self.params.clone())


class Discriminator:
    """Dense(128) + ReLU, Dense(64) + ReLU, Dense(1) + sigmoid.

    The sigmoid output is clipped into (0, 1) so downstream logs stay finite.
    """

    SHAPES = {
        "disc1_w": (FEATURE_DIM, HIDDEN1),
        "disc1_b": (HIDDEN1,),
        "disc2_w": (HIDDEN1, HIDDEN2),
        "disc2_b": (HIDDEN2,),
        "disc3_w": (HIDDEN2, 1),
        "disc3_b": (1,),
    }

    def __init__(self, params: ParamSet | None = None, init_gen: np.random.Generator | None = None):
        if params is None:
            if init_gen is None:
                raise ConfigError("need either existing parameters or an init generator")
            params = ParamSet()
            params.add("disc1_w", glorot_uniform(init_gen, (FEATURE_DIM, HIDDEN1), FEATURE_DIM, HIDDEN1))
            params.add("disc1_b", np.zeros(HIDDEN1))
            params.add("disc2_w", glorot_uniform(init_gen, (HIDDEN1, HIDDEN2), HIDDEN1, HIDDEN2))
            params.add("disc2_b", np.zeros(HIDDEN2))
            params.add("disc3_w", glorot_uniform(init_gen, (HIDDEN2, 1), HIDDEN2, 1))
            params.add("disc3_b", np.zeros(1))
        else:
            _check_param_shapes(params, self.SHAPES)
        self.params = params

    def forward(self, feats: np.ndarray):
        if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
            raise ConfigError(f"expected features of shape (batch, {FEATURE_DIM}), got {feats.shape}")
        p = self.params
        z1 = dense_forward(feats, p["disc1_w"].value, p["disc1_b"].value)
        r1 = relu(z1)
        z2 = dense_forward(r1, p["disc2_w"].value, p["disc2_b"].value)
        r2 = relu(z2)
        z3 = dense_forward(r2, p["disc3_w"].value, p["disc3_b"].value)
        prob = np.clip(sigmoid(z3), SIGMOID_CLIP, 1.0 - SIGMOID_CLIP)
        cache = {"feats": feats, "z1": z1, "r1": r1, "z2": z2, "r2": r2, "prob": prob}
        return prob, cache

    def backward(self, dprob: np.ndarray, cache: dict, accumulate: bool = True) -> np.ndarray:
        if cache is None:
            raise UsageError("backward requires the cache of a matching forward pass")
        p = self.params
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


class Localizer:
    """Feature extractor + regressor, trained and stepped as one network."""

    def __init__(self, extractor: FeatureExtractor, regressor: Regressor):
        self.extractor = extractor
        self.regressor = regressor
        self.params = ParamSet.union(extractor.params, regressor.params)

    @classmethod
    def init(cls, init_gen: np.random.Generator) -> "Localizer":
        return cls(FeatureExtractor(init_gen=init_gen), Regressor(init_gen=init_gen))

    def forward(self, x: np.ndarray, drop_gen: np.random.Generator | None = None):
        feats, c_ext = self.extractor.forward(x, drop_gen)
        preds, c_reg = self.regressor.forward(feats, drop_gen)
        return preds, (c_ext, c_reg)

    def backward(self, dpreds: np.ndarray, cache) -> np.ndarray:
        if cache is None:
            raise UsageError("backward requires the cache of a matching forward pass")
        c_ext, c_reg = cache
        dfeats = self.regressor.backward(dpreds, c_reg)
        return self.extractor.backward(dfeats, c_ext)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference pass: dropout inert.

        Runs forward over blocks of PREDICT_BLOCK_ROWS rows (in_blocks),
        so the conv and dense intermediates stay cache-sized and memory
        does not grow with the number of rows.
        """
        return in_blocks(lambda rows: self.forward(rows)[0], x)

    def clone(self) -> "Localizer":
        return Localizer(self.extractor.clone(), self.regressor.clone())
