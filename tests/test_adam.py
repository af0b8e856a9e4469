"""Optimizer contract: hand recurrence, zero-grad no-op, failure modes,
bit-equality of the blocked in-place step with the whole-array folded one,
and agreement of the folded step with the textbook expression."""

import numpy as np
import pytest

from rfloc.errors import NumericalError
from rfloc.nn.adam import BETA1, BETA2, Adam
from rfloc.nn.params import BLOCK_ELEMENTS, Param, clone_params

from util import AdamAllocating, AdamTextbook


def make_params(values):
    return {f"p{i}": Param(np.asarray(v, dtype=float)) for i, v in enumerate(values)}


def test_matches_hand_recurrence():
    ps = make_params([np.array([1.0, -2.0])])
    opt = Adam(ps, lr=0.01)  # beta1 0.9, beta2 0.999, eps 1e-8
    theta = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    rng = np.random.default_rng(0)
    for t in range(1, 6):
        g = rng.normal(size=2)
        ps["p0"].grad[...] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        theta = theta - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(ps["p0"].value, theta, atol=1e-14)


def test_zero_gradient_is_bitwise_noop():
    start = np.array([0.5, -0.25, 3.0])
    ps = make_params([start.copy()])
    opt = Adam(ps, lr=1e-3)
    for _ in range(3):
        opt.step()  # grads are zero
    assert np.array_equal(ps["p0"].value, start)


def test_gradients_cleared_after_step():
    ps = make_params([np.ones(3)])
    opt = Adam(ps)
    ps["p0"].grad[...] = 1.0
    opt.step()
    assert np.array_equal(ps["p0"].grad, np.zeros(3))


def test_step_counter_monotonic():
    ps = make_params([np.ones(2)])
    opt = Adam(ps)
    assert opt.t == 0
    opt.step()
    opt.step()
    assert opt.t == 2


def test_nonfinite_gradient_aborts_with_param_name():
    ps = make_params([np.ones(2), np.ones(2)])
    opt = Adam(ps)
    ps["p1"].grad[...] = np.array([0.0, np.nan])
    with pytest.raises(NumericalError, match="p1"):
        opt.step()


def test_descends_quadratic():
    ps = make_params([np.array([5.0])])
    opt = Adam(ps, lr=0.1)
    for _ in range(500):
        ps["p0"].grad[...] = 2.0 * ps["p0"].value  # d/dx of x^2
        opt.step()
    assert abs(ps["p0"].value[0]) < 1e-2


def test_shared_params_update_once_through_union():
    # Localizer.params is such a union of its two networks' dicts.
    a = {"w": Param(np.ones(2))}
    b = {**a, "v": Param(np.zeros(1))}
    opt = Adam(b, lr=0.1)
    a["w"].grad[...] = 1.0
    opt.step()
    # The union shares the same Param object; both dicts see the update.
    assert np.array_equal(a["w"].value, b["w"].value)
    assert not np.array_equal(a["w"].value, np.ones(2))


def test_nonfinite_gradient_leaves_every_parameter_unchanged():
    # p0 comes first; the NaN in p1's gradient must stop the step before
    # p0, any moment or the step count moves.
    ps = make_params([np.array([1.0, -2.0, 3.0]), np.ones(2)])
    opt = Adam(ps, lr=0.1)
    ps["p0"].grad[...] = 1.0
    ps["p1"].grad[...] = 1.0
    opt.step()
    before = {n: p.value.copy() for n, p in ps.items()}
    moments = {n: (opt._m[n].copy(), opt._v[n].copy()) for n in ps}
    ps["p0"].grad[...] = 0.5
    ps["p1"].grad[...] = np.array([0.0, np.nan])
    with pytest.raises(NumericalError, match="'p1'"):
        opt.step()
    assert opt.t == 1
    for n, p in ps.items():
        assert np.array_equal(p.value, before[n])
        assert np.array_equal(opt._m[n], moments[n][0])
        assert np.array_equal(opt._v[n], moments[n][1])
    assert np.array_equal(ps["p0"].grad, np.full(3, 0.5))


# Shapes for the oracle comparison: more than one block and not a multiple
# of it (2-D and 1-D), dense1 of the localizer, 1-element biases and a
# scalar.
_ORACLE_SHAPES = [(300, 130), (BLOCK_ELEMENTS + 7_232,), (768, 128), (1,), (1,), ()]


def _random_set(gen, shapes):
    return make_params([gen.normal(size=s) for s in shapes])


@pytest.mark.parametrize("lr", [1e-3, 0.05])
def test_step_bit_equal_to_allocating_oracle(lr):
    assert 300 * 130 > BLOCK_ELEMENTS and (300 * 130) % BLOCK_ELEMENTS
    gen = np.random.default_rng(7)
    ps = _random_set(gen, _ORACLE_SHAPES)
    ref = clone_params(ps)
    opt, oracle = Adam(ps, lr=lr), AdamAllocating(ref, lr=lr)
    for _ in range(20):
        for name, p in ps.items():
            # Gradients over many magnitudes, some exactly zero.
            g = gen.normal(size=p.value.shape) * 10.0 ** gen.uniform(-8, 2, size=p.value.shape)
            g[gen.random(size=g.shape) < 0.05] = 0.0
            p.grad[...] = g
            ref[name].grad[...] = g
        opt.step()
        oracle.step()
        for name, p in ps.items():
            assert np.array_equal(p.value, ref[name].value), name  # 0 ulp
            assert np.array_equal(opt._m[name], oracle._m[name]), name
            assert np.array_equal(opt._v[name], oracle._v[name]), name
            assert not p.grad.any()


# Largest deviation of the folded step from the textbook expression after
# 200 steps, relative to max(|value|, 1), measured on _ORACLE_SHAPES with
# the gradients below: 2.2e-15 at lr=0.05 and 5.6e-16 at lr=1e-3 over
# seeds 0-5 (about 10 ulp). The tolerance leaves a factor of 4.5.
_TEXTBOOK_TOL = 1e-14


@pytest.mark.parametrize("lr", [1e-3, 0.05])
def test_folded_step_tracks_textbook_adam(lr):
    gen = np.random.default_rng(11)
    ps = _random_set(gen, _ORACLE_SHAPES)
    ref = clone_params(ps)
    opt, textbook = Adam(ps, lr=lr), AdamTextbook(ref, lr=lr)
    for _ in range(200):
        for name, p in ps.items():
            g = gen.normal(size=p.value.shape) * 10.0 ** gen.uniform(-8, 2, size=p.value.shape)
            g[gen.random(size=g.shape) < 0.05] = 0.0
            p.grad[...] = g
            ref[name].grad[...] = g
        opt.step()
        textbook.step()
        for name, p in ps.items():
            want = ref[name].value
            err = np.abs(p.value - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= _TEXTBOOK_TOL, name
    # The kept moments are the textbook ones without their (1-b) factors
    # (measured: within 2.5e-15 of the largest entry).
    for name in ps:
        for kept, want, beta in (
            (opt._m[name], textbook._m[name], BETA1),
            (opt._v[name], textbook._v[name], BETA2),
        ):
            err = np.abs((1.0 - beta) * kept - want).max()
            assert err <= _TEXTBOOK_TOL * np.abs(want).max(), name


@pytest.mark.parametrize(
    "base_shape, view",
    [
        ((4, 12), lambda a: a[:, ::2]),
        ((6, 4), lambda a: a.T),
        ((300, 260), lambda a: a[:, 1::2]),  # more than one block
    ],
    ids=["strided-small", "transposed", "strided-blocked"],
)
def test_noncontiguous_value_is_updated_in_place(base_shape, view):
    gen = np.random.default_rng(3)
    base = gen.normal(size=base_shape)
    untouched = base.copy()
    value = view(base)
    assert not value.flags.c_contiguous
    ps = make_params([np.zeros(value.shape)])
    ps["p0"].value = value
    ref = make_params([value.copy()])
    opt, oracle = Adam(ps, lr=0.01), AdamAllocating(ref, lr=0.01)
    for _ in range(3):
        g = gen.normal(size=value.shape)
        ps["p0"].grad[...] = g
        ref["p0"].grad[...] = g
        opt.step()
        oracle.step()
    assert ps["p0"].value is value
    assert np.array_equal(view(base), ref["p0"].value)
    assert not np.array_equal(view(base), view(untouched))
    # Elements of base outside the view are left alone.
    outside = np.ones(base_shape, dtype=bool)
    view(outside)[...] = False
    assert np.array_equal(base[outside], untouched[outside])
