"""Network blocks: convolutional feature extractor, coordinate regressor,
and the domain discriminator used by the adversarial baseline.

Input is one 8-value received-power fingerprint per sample (4 receivers x
2 polarizations), treated as a length-8 single-channel sequence. Each
network is a :class:`Sequential` over a tuple of layers and one named
:class:`ParamSet`. Backward passes run the layers in reverse against the
forward caches and accumulate (+=) into the parameter gradients, so
several loss paths can share one step. The networks trust their callers:
``Sequential`` checks parameter shapes once, at construction, and a
forward pass takes its inputs unchecked.

The layer kernels (``conv1d_forward``, ``dense_forward``,
``dropout_forward`` and their backwards) are looked up as globals of this
module at call time, and ``FeatureExtractor``, ``Regressor`` and
``Discriminator`` each bind ``forward`` and ``backward`` in their own class
body. The benchmark tracer times layers by patching exactly these names,
so binding the kernels elsewhere or inheriting the two methods would hide
them from it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .nn import (
    ParamSet,
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
    of at most one block take a single call.
    """
    b = PREDICT_BLOCK_ROWS
    if len(x) <= b:
        return fn(x)
    first = fn(x[:b])
    out = np.empty((len(x),) + first.shape[1:], dtype=first.dtype)
    out[:b] = first
    for i in range(b, len(x), b):
        out[i : i + b] = fn(x[i : i + b])
    return out


# ---------------------------------------------------------------- layers
#
# A layer holds only its configuration. forward(values, x, drop_gen)
# returns (output, cache) and backward(values, dy, cache) returns
# (dx, gradients), where values and gradients follow the order of the
# layer's shapes.

class Layer:
    shapes: dict[str, tuple] = {}

    def init(self, gen: np.random.Generator) -> list[np.ndarray]:
        return []


class Dense(Layer):
    def __init__(self, name: str, n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        self.shapes = {f"{name}_w": (n_in, n_out), f"{name}_b": (n_out,)}

    def init(self, gen):
        w = glorot_uniform(gen, (self.n_in, self.n_out), self.n_in, self.n_out)
        return [w, np.zeros(self.n_out)]

    def forward(self, values, x, drop_gen):
        return dense_forward(x, *values), x

    def backward(self, values, dy, x):
        dx, dw, db = dense_backward(dy, x, values[0])
        return dx, (dw, db)


class Conv1D(Layer):
    """Valid stride-1 convolution over (batch, length, channels)."""

    def __init__(self, name: str, in_ch: int, out_ch: int):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.shapes = {f"{name}_w": (out_ch, in_ch, KERNEL_SIZE), f"{name}_b": (out_ch,)}

    def init(self, gen):
        w = glorot_uniform(
            gen,
            (self.out_ch, self.in_ch, KERNEL_SIZE),
            fan_in=self.in_ch * KERNEL_SIZE,
            fan_out=self.out_ch * KERNEL_SIZE,
        )
        return [w, np.zeros(self.out_ch)]

    def forward(self, values, x, drop_gen):
        return conv1d_forward(x, *values), x

    def backward(self, values, dy, x):
        dx, dw, db = conv1d_backward(dy, x, values[0])
        return dx, (dw, db)


class ReLU(Layer):
    """In place: every ReLU's input is a fresh conv or dense output that
    nothing else holds, and relu_backward's mask x > 0 is the same on
    max(x, 0)."""

    def forward(self, values, x, drop_gen):
        return np.maximum(x, 0.0, out=x), x

    def backward(self, values, dy, x):
        return relu_backward(dy, x), ()


class Dropout(Layer):
    """Active iff the forward pass is given a generator."""

    def forward(self, values, x, drop_gen):
        return dropout_forward(x, DROPOUT_RATE, drop_gen)

    def backward(self, values, dy, mask):
        return dropout_backward(dy, mask), ()


class ClippedSigmoid(Layer):
    """Sigmoid clipped into (0, 1), so downstream logs stay finite."""

    def forward(self, values, x, drop_gen):
        prob = np.clip(sigmoid(x), SIGMOID_CLIP, 1.0 - SIGMOID_CLIP)
        return prob, prob

    def backward(self, values, dy, prob):
        return sigmoid_backward(dy, prob), ()


class Reshape(Layer):
    """Each row reshaped to `shape`; the batch axis is kept."""

    def __init__(self, *shape: int):
        self.shape = shape

    def forward(self, values, x, drop_gen):
        return x.reshape((len(x),) + self.shape), x.shape

    def backward(self, values, dy, in_shape):
        return dy.reshape(in_shape), ()


# ---------------------------------------------------------------- networks

class Sequential:
    """LAYERS run in order over one ParamSet on a batch of rows.

    SHAPES, the parameter names and shapes in ParamSet order, is derived
    from LAYERS for each subclass. The network is built from given params,
    whose names are SHAPES' in that order, or else initialized from
    init_gen; either way each parameter's shape is checked here.
    """

    LAYERS: tuple[Layer, ...] = ()
    SHAPES: dict[str, tuple] = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.SHAPES = {name: shape for layer in cls.LAYERS for name, shape in layer.shapes.items()}

    def __init__(self, params: ParamSet | None = None, init_gen: np.random.Generator | None = None):
        if params is None:
            params = ParamSet()
            for layer in self.LAYERS:
                for name, value in zip(layer.shapes, layer.init(init_gen)):
                    params.add(name, value)
        for name, shape in self.SHAPES.items():
            if params[name].value.shape != shape:
                raise ConfigError(
                    f"parameter {name!r} has shape {params[name].value.shape}, expected {shape}"
                )
        self.params = params
        self._layer_params = [tuple(params[n] for n in layer.shapes) for layer in self.LAYERS]

    def forward(self, x: np.ndarray, drop_gen: np.random.Generator | None = None):
        """Returns (output, cache). Dropout is active iff drop_gen is
        given; None means inference."""
        cache = []
        for layer, ps in zip(self.LAYERS, self._layer_params):
            x, c = layer.forward([p.value for p in ps], x, drop_gen)
            cache.append(c)
        return x, cache

    def backward(self, dy: np.ndarray, cache, accumulate: bool = True) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. the input; parameter gradients
        are added to the grads when accumulate is true."""
        for i in reversed(range(len(self.LAYERS))):
            ps = self._layer_params[i]
            dy, grads = self.LAYERS[i].backward([p.value for p in ps], dy, cache[i])
            if accumulate:
                for p, g in zip(ps, grads):
                    p.grad += g
        return dy

    def clone(self):
        return type(self)(self.params.clone())


class FeatureExtractor(Sequential):
    """Conv1d(64, k=2) + ReLU + Dropout, Conv1d(128, k=2) + ReLU + Dropout,
    flatten: (batch, 8) -> (batch, 768)."""

    LAYERS = (
        Reshape(INPUT_LEN, IN_CHANNELS),
        Conv1D("conv1", IN_CHANNELS, CONV1_FILTERS), ReLU(), Dropout(),
        Conv1D("conv2", CONV1_FILTERS, CONV2_FILTERS), ReLU(), Dropout(),
        Reshape(FEATURE_DIM),
    )
    # Bound in each class body for the tracer (see the module docstring).
    forward = Sequential.forward
    backward = Sequential.backward


class Regressor(Sequential):
    """Dense(128) + ReLU + Dropout, Dense(64) + ReLU, Dense(2)."""

    LAYERS = (
        Dense("dense1", FEATURE_DIM, HIDDEN1), ReLU(), Dropout(),
        Dense("dense2", HIDDEN1, HIDDEN2), ReLU(),
        Dense("dense3", HIDDEN2, OUTPUT_DIM),
    )
    forward = Sequential.forward
    backward = Sequential.backward


class Discriminator(Sequential):
    """Dense(128) + ReLU, Dense(64) + ReLU, Dense(1) + clipped sigmoid:
    (batch, 768) features -> (batch, 1) source probabilities."""

    LAYERS = (
        Dense("disc1", FEATURE_DIM, HIDDEN1), ReLU(),
        Dense("disc2", HIDDEN1, HIDDEN2), ReLU(),
        Dense("disc3", HIDDEN2, 1), ClippedSigmoid(),
    )
    forward = Sequential.forward
    backward = Sequential.backward


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
