"""Network blocks: convolutional feature extractor, coordinate regressor,
and the domain discriminator used by the adversarial baseline.

Input is one 8-value received-power fingerprint per sample (4 receivers x
2 polarizations), treated as a length-8 single-channel sequence. Each
network is a :class:`Sequential` over a tuple of layers and one
name -> :class:`Param` dict. Backward passes run the layers in reverse against the
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

Bulk passes (``predict``, the source-statistics extractor pass, probing,
label correction) split their rows with :func:`row_blocks`, a function of
the row count and the block cap alone, and run the blocks on threads with
:func:`for_blocks`. Each block is computed as it would be alone, so the
results do not depend on the thread count; they do depend on the
partition, since OpenBLAS may give a row other last bits in a block of
another size.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import ConfigError
from .nn.layers import (
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
from .nn.params import Param, clone_params

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
# The cap on rows per inference block. At 256 rows conv2's im2col matrix
# and its output are about 1.5 MB each, near L2 size; 128 rows measured the
# same, 512 rows slower on 650-row inputs.
PREDICT_BLOCK_ROWS = 256
# Every block boundary but the last falls on a multiple of this many rows
# (when the cap holds at least two such units).
ALIGN_ROWS = 16


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# Threads for_blocks runs its blocks on: the CPUs this process may run on.
# cross_validate splits them among its fold workers.
THREADS = _cpus()


def row_blocks(n: int, cap: int = PREDICT_BLOCK_ROWS) -> list[tuple[int, int]]:
    """The (start, stop) blocks that cover rows 0..n in order, none longer
    than cap rows: the fewest blocks that fit the cap, rounded up to an
    even count so that two threads get near-equal shares, and made
    near-equal. With cap >= 2 * ALIGN_ROWS every boundary but n lies on a
    multiple of ALIGN_ROWS, and the blocks differ by at most one such unit
    (the last one may be cut shorter at n). The count is even whenever it
    is above one, but for cap 1, where n rows make n blocks. 650 rows make
    blocks of 176, 160, 160 and 154; 10,050 rows make 40 blocks of 256 or
    240 rows, the last of 226. The partition never depends on THREADS.
    """
    unit = ALIGN_ROWS if cap >= 2 * ALIGN_ROWS else 1
    units = -(-n // unit)
    count = -(-units // (cap // unit))
    if count > 1:
        count = min(count + count % 2, units)
    size, extra = divmod(units, max(count, 1))  # the first `extra` blocks get one unit more
    stops = [min(n, unit * (i * size + min(i, extra))) for i in range(1, count + 1)]
    return list(zip([0] + stops[:-1], stops))


def for_blocks(n: int, work, cap: int = PREDICT_BLOCK_ROWS, max_threads: int = 0) -> None:
    """work(start, stop) over the blocks row_blocks(n, cap) of n rows.

    The blocks are dealt round-robin to up to THREADS threads (and to no
    more than max_threads, if positive), the caller's own thread included,
    so that many blocks at most are in flight at once. work must touch
    only its own rows of any shared output. Each thread runs under the
    caller's numpy error state, and BLAS runs on one thread inside each
    (rfloc/__init__.py), so every block is computed as it would be alone
    and the results do not depend on the thread count. The threads are
    joined before this returns, so none outlives the call (cv forks its
    workers from a single-threaded process); then the first exception, in
    thread order, is raised. Zero rows do no work.
    """
    blocks = row_blocks(n, cap)
    share = max(1, min(THREADS, max_threads or THREADS, len(blocks)))
    errstate = np.geterr()
    errors = [None] * share

    def run(t):
        try:
            with np.errstate(**errstate):
                for start, stop in blocks[t::share]:
                    work(start, stop)
        except BaseException as e:  # re-raised in the caller, after the joins
            errors[t] = e

    threads = [threading.Thread(target=run, args=(t,)) for t in range(1, share)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for e in errors:
        if e is not None:
            raise e


def in_blocks(fn, x: np.ndarray, row_shape: tuple) -> np.ndarray:
    """fn(x) computed over the blocks row_blocks(len(x)) (for_blocks).

    fn must map each row on its own to a float64 row of row_shape, so that
    its outputs for a block are the rows of its output for the whole
    input. The blocks' outputs are written into one preallocated array, so
    the intermediates of fn stay cache-sized and only the output grows
    with the number of rows.
    """
    out = np.empty((len(x), *row_shape))

    def block(start, stop):
        out[start:stop] = fn(x[start:stop])

    for_blocks(len(x), block)
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
    """LAYERS run in order over one name -> Param dict on a batch of rows.

    SHAPES, the parameter names and shapes in dict order, is derived
    from LAYERS for each subclass. The network is built from given params,
    whose names are SHAPES' in that order, or else initialized from
    init_gen; either way each parameter's shape is checked here.
    """

    LAYERS: tuple[Layer, ...] = ()
    SHAPES: dict[str, tuple] = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.SHAPES = {name: shape for layer in cls.LAYERS for name, shape in layer.shapes.items()}

    def __init__(self, params: dict | None = None, init_gen: np.random.Generator | None = None):
        if params is None:
            params = {name: Param(value) for layer in self.LAYERS
                      for name, value in zip(layer.shapes, layer.init(init_gen))}
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
        return type(self)(clone_params(self.params))


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
    """Feature extractor + regressor, trained and stepped as one network.

    params is the union of the two networks' dicts and shares their Param
    objects, so a step through it is visible to both."""

    def __init__(self, extractor: FeatureExtractor, regressor: Regressor):
        self.extractor = extractor
        self.regressor = regressor
        self.params = {**extractor.params, **regressor.params}

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

        Runs forward over blocks of at most PREDICT_BLOCK_ROWS rows
        (in_blocks), on up to THREADS threads, so the conv and dense
        intermediates stay cache-sized and memory does not grow with the
        number of rows.
        """
        return in_blocks(lambda rows: self.forward(rows)[0], x, (OUTPUT_DIM,))

    def clone(self) -> "Localizer":
        return Localizer(self.extractor.clone(), self.regressor.clone())
