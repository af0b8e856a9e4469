"""Layer forward/backward contracts against finite differences and loops."""

import math

import numpy as np
import pytest

from rfloc.nn import Rng, layers

from util import (
    central_difference,
    conv1d_backward_loops,
    conv1d_dx_strided,
    conv1d_loops,
    max_rel_error,
)

TOL = 1e-6


def test_dense_forward_values(gen):
    x = gen.normal(size=(3, 4))
    w = gen.normal(size=(4, 2))
    b = gen.normal(size=2)
    out = layers.dense_forward(x, w, b)
    assert np.allclose(out, x @ w + b)


def test_dense_backward_matches_fd(gen):
    x = gen.normal(size=(3, 4))
    w = gen.normal(size=(4, 2))
    b = gen.normal(size=2)
    dy = gen.normal(size=(3, 2))

    def loss():
        return float((layers.dense_forward(x, w, b) * dy).sum())

    dx, dw, db = layers.dense_backward(dy, x, w)
    assert max_rel_error(dx, central_difference(loss, x)) < TOL
    assert max_rel_error(dw, central_difference(loss, w)) < TOL
    assert max_rel_error(db, central_difference(loss, b)) < TOL


def test_conv1d_matches_loop_oracle(gen):
    x = gen.normal(size=(4, 8, 1))
    w = gen.normal(size=(5, 1, 2))
    b = gen.normal(size=5)
    out = layers.conv1d_forward(x, w, b)
    assert out.shape == (4, 7, 5)
    assert np.allclose(out, conv1d_loops(x, w, b), atol=1e-12)


def test_conv1d_multichannel_matches_loop_oracle(gen):
    x = gen.normal(size=(2, 7, 64))
    w = gen.normal(size=(16, 64, 2))
    b = gen.normal(size=16)
    assert np.allclose(
        layers.conv1d_forward(x, w, b), conv1d_loops(x, w, b), atol=1e-11
    )


def test_conv1d_backward_matches_fd(gen):
    x = gen.normal(size=(3, 6, 2))
    w = gen.normal(size=(4, 2, 2))
    b = gen.normal(size=4)
    dy = gen.normal(size=(3, 5, 4))

    def loss():
        return float((layers.conv1d_forward(x, w, b) * dy).sum())

    dx, dw, db = layers.conv1d_backward(dy, x, w)
    assert max_rel_error(dx, central_difference(loss, x)) < TOL
    assert max_rel_error(dw, central_difference(loss, w)) < TOL
    assert max_rel_error(db, central_difference(loss, b)) < TOL


@pytest.mark.parametrize("batch", [1, 32, 257])
@pytest.mark.parametrize(
    "length, in_ch, out_ch", [(8, 1, 64), (7, 64, 128)], ids=["conv1", "conv2"]
)
def test_conv1d_gradients_match_loop_oracle(gen, batch, length, in_ch, out_ch):
    x = gen.normal(size=(batch, length, in_ch))
    w = gen.normal(size=(out_ch, in_ch, 2))
    b = gen.normal(size=out_ch)
    out = layers.conv1d_forward(x, w, b)
    dy = gen.normal(size=out.shape)
    for got, want in zip(layers.conv1d_backward(dy, x, w), conv1d_backward_loops(dy, x, w)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("batch", [1, 32, 257])
@pytest.mark.parametrize(
    "length, in_ch, out_ch", [(8, 1, 64), (7, 64, 128)], ids=["conv1", "conv2"]
)
def test_conv1d_dx_bit_equal_to_strided_taps(gen, batch, length, in_ch, out_ch):
    x = gen.normal(size=(batch, length, in_ch))
    w = gen.normal(size=(out_ch, in_ch, 2))
    dy = gen.normal(size=(batch, length - 1, out_ch))
    dx, _, _ = layers.conv1d_backward(dy, x, w)
    assert np.array_equal(dx, conv1d_dx_strided(dy, w, x.shape))  # 0 ulp


def test_relu_backward(gen):
    x = gen.normal(size=(5, 7))
    dy = gen.normal(size=(5, 7))
    dx = layers.relu_backward(dy, x)
    assert np.array_equal(dx, dy * (x > 0))


def test_sigmoid_stable_and_backward():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    y = layers.sigmoid(x)
    assert np.isfinite(y).all()
    assert y[0] >= 0.0 and y[-1] <= 1.0
    assert abs(y[2] - 0.5) < 1e-15
    dy = np.ones_like(x)
    dx = layers.sigmoid_backward(dy, y)
    assert np.allclose(dx, y * (1 - y))


def test_dropout_training_statistics(gen):
    x = np.ones((200, 50))
    out, mask = layers.dropout_forward(x, 0.2, gen=gen)
    kept = out != 0
    # Inverted dropout: survivors are scaled by 1/(1-rate).
    assert np.allclose(out[kept], 1.0 / 0.8)
    assert abs(kept.mean() - 0.8) < 0.01
    assert mask is not None


def test_dropout_inference_identity():
    x = np.arange(12.0).reshape(3, 4)
    out, mask = layers.dropout_forward(x, 0.2, None)
    assert np.array_equal(out, x)
    assert mask is None


def test_dropout_zero_rate(gen):
    x = np.ones((4, 4))
    out, mask = layers.dropout_forward(x, 0.0, gen=gen)
    assert np.array_equal(out, x)


@pytest.mark.parametrize("rate", [0.2, 0.5])
def test_dropout_keep_rate(rate):
    x = np.ones((1000, 1000))
    out, mask = layers.dropout_forward(x, rate, Rng(3).stream("dropout", 0, 0))
    kept = mask != 0
    # Five binomial standard deviations of the mean of 10**6 units.
    assert abs(kept.mean() - (1.0 - rate)) < 5.0 * np.sqrt(rate * (1.0 - rate) / x.size)
    assert np.array_equal(np.unique(mask), [0.0, 1.0 / (1.0 - rate)])
    assert np.array_equal(out, mask)


class _RawWords:
    """Stands in for a Generator: its bit generator hands out given words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.bit_generator = self

    def random_raw(self, n):
        assert n == self.words.size
        return self.words


def _pack(lanes):
    """64-bit words holding the 32-bit lanes low half first."""
    lanes = [int(v) for v in lanes] + [0] * (len(lanes) % 2)
    return [lo | (hi << 32) for lo, hi in zip(lanes[::2], lanes[1::2])]


@pytest.mark.parametrize(
    "rate", [1e-12, 0.1, 0.2, 1.0 / 3.0, 0.5, 0.999999, 1.0 - 2.0**-33, 1.0 - 2.0**-34]
)
def test_dropout_threshold_within_one_lane_of_rate(rate):
    # A keep probability within 2**-32 of 1 - rate means the integer
    # threshold T lies in [edge - 1, edge + 1], edge = rate * 2**32: lane
    # ceil(edge - 1) - 1 is dropped and lane floor(edge + 1) is kept.
    edge = rate * 2.0**32
    dropped = [v for v in (0, math.ceil(edge - 1.0) - 1) if 0 <= v < math.ceil(edge - 1.0)]
    kept = [v for v in (math.floor(edge + 1.0), 2**32 - 1) if math.floor(edge + 1.0) <= v < 2**32]
    lanes = dropped + kept
    _, mask = layers.dropout_forward(
        np.ones(len(lanes)), rate, _RawWords(_pack(lanes))
    )
    assert np.array_equal(mask != 0, [False] * len(dropped) + [True] * len(kept))


def test_dropout_rate_next_to_one_does_not_overflow():
    rate = 1.0 - 2.0**-34
    lanes = [0, 2**32 - 2, 2**32 - 1]
    out, mask = layers.dropout_forward(
        np.ones(3), rate, _RawWords(_pack(lanes))
    )
    # The threshold saturates at the largest lane: only it is kept.
    assert np.array_equal(mask, [0.0, 0.0, 1.0 / (1.0 - rate)])
    out, mask = layers.dropout_forward(
        np.ones((64, 64)), rate, Rng(0).stream("dropout", 0, 0)
    )
    assert np.isfinite(out).all() and np.isfinite(mask).all()


def test_dropout_same_key_same_mask():
    x = np.ones((32, 768))
    _, a = layers.dropout_forward(x, 0.2, Rng(9).stream("dropout", 4, 2))
    _, b = layers.dropout_forward(x, 0.2, Rng(9).stream("dropout", 4, 2))
    _, c = layers.dropout_forward(x, 0.2, Rng(9).stream("dropout", 4, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_pinned_mask_and_lane_order():
    # Unit 2i takes the low half of raw word i and unit 2i+1 the high half;
    # the high-half-first order would give 0 0 1 1 0 1 0 0 1 0 0 1 1 0 1.
    gen = Rng(0).stream("dropout", 0, 0)
    _, mask = layers.dropout_forward(np.ones((3, 5)), 0.5, gen)
    pinned = [[0, 0, 1, 1, 1], [0, 0, 0, 0, 1], [1, 0, 0, 1, 0]]
    assert np.array_equal(mask != 0, np.array(pinned, dtype=bool))
    words = Rng(0).stream("dropout", 0, 0).bit_generator.random_raw(8)
    lanes = [int(w) >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)]
    assert np.array_equal(mask.ravel() != 0, np.array(lanes[:15]) >= 2**31)


def test_l1_loss_value_and_gradient(gen):
    pred = np.array([[1.0, 2.0], [3.0, 5.0]])
    target = np.array([[0.0, 4.0], [3.0, 1.0]])
    loss, dpred = layers.l1_loss(pred, target)
    # Rows contribute |1|+|‑2| = 3 and |0|+|4| = 4; batch mean 3.5.
    assert loss == pytest.approx(3.5)
    assert np.array_equal(dpred, np.array([[0.5, -0.5], [0.0, 0.5]]))

    pred = gen.normal(size=(4, 2))
    target = gen.normal(size=(4, 2))

    def loss_fn():
        return layers.l1_loss(pred, target)[0]

    _, dpred = layers.l1_loss(pred, target)
    assert max_rel_error(dpred, central_difference(loss_fn, pred)) < 1e-5


def test_glorot_uniform_bounds(gen):
    w = layers.glorot_uniform(gen, (100, 80), fan_in=100, fan_out=80)
    limit = np.sqrt(6.0 / 180.0)
    assert w.shape == (100, 80)
    assert (np.abs(w) <= limit).all()
    assert abs(w.mean()) < 0.01
