"""Adversarial adaptation baseline."""

import numpy as np
import pytest

from rfloc.dann import DannConfig, cycled, disc_loss, run_dann
from rfloc.errors import ConfigError, DataError, ResourceError
from rfloc.nn import Rng

from util import max_rel_error


def test_disc_loss_at_half_is_two_log_two():
    # A discriminator emitting exactly 0.5 everywhere scores
    # -(log 0.5 + log 0.5) = 2 log 2 regardless of batch size.
    loss, dp_s, dp_t = disc_loss(np.full((7, 1), 0.5), np.full((7, 1), 0.5))
    assert loss == pytest.approx(2.0 * np.log(2.0), abs=1e-15)
    assert np.allclose(dp_s, -2.0 / 7.0)
    assert np.allclose(dp_t, 2.0 / 7.0)


def test_disc_loss_hand_value():
    p_s = np.array([[0.9], [0.5]])
    p_t = np.array([[0.2], [0.5]])
    expected = -(np.log(0.9) + np.log(0.5) + np.log(0.8) + np.log(0.5)) / 2.0
    loss, _, _ = disc_loss(p_s, p_t)
    assert loss == pytest.approx(expected, abs=1e-15)


def test_disc_loss_gradient_matches_finite_difference():
    gen = np.random.default_rng(0)
    p_s = gen.uniform(0.05, 0.95, size=(6, 1))
    p_t = gen.uniform(0.05, 0.95, size=(6, 1))
    _, dp_s, dp_t = disc_loss(p_s, p_t)
    eps = 1e-7
    for arr, grad in ((p_s, dp_s), (p_t, dp_t)):
        fd = np.zeros_like(arr)
        for i in range(len(arr)):
            hi, lo = arr.copy(), arr.copy()
            hi[i] += eps
            lo[i] -= eps
            fd[i] = (
                disc_loss(hi if arr is p_s else p_s, hi if arr is p_t else p_t)[0]
                - disc_loss(lo if arr is p_s else p_s, lo if arr is p_t else p_t)[0]
            ) / (2 * eps)
        assert max_rel_error(grad, fd) < 1e-6


def test_disc_loss_clamps_extreme_probabilities():
    loss, dp_s, dp_t = disc_loss(np.array([[0.0]]), np.array([[1.0]]))
    assert np.isfinite(loss)
    assert dp_s[0, 0] == 0.0 and dp_t[0, 0] == 0.0


def test_run_requires_labeled_source(source_model, small_source, small_target):
    with pytest.raises(DataError, match="adversarial adaptation needs labeled source data"):
        run_dann(source_model, small_source.without_labels(), small_target, DannConfig(epochs=1))


def test_feat_loss_is_reg_minus_disc(source_model, small_source, small_target):
    _, diags = run_dann(source_model, small_source, small_target, DannConfig(epochs=2, seed=0))
    for d in diags:
        assert abs(d["feat_loss"] - (d["reg_loss"] - d["disc_loss"])) <= 1e-10


def test_identical_domains_keep_disc_near_chance(source_model, small_source):
    # When source and target are the same dataset the discriminator cannot
    # separate them; its loss should hover near 2 log 2.
    _, diags = run_dann(source_model, small_source, small_source, DannConfig(epochs=6, seed=0))
    tail = [d["disc_loss"] for d in diags[-3:]]
    for v in tail:
        assert abs(v - 2.0 * np.log(2.0)) < 0.3


@pytest.mark.parametrize("n_s, n_t", [(70, 25), (25, 70), (10, 7), (64, 64)])
def test_cycled_layout_wraps_the_smaller_domain(n_s, n_t):
    rng = Rng(2)
    b = 32
    batches = cycled(n_s, n_t, b, rng)
    n_batches = max(max(n_s, n_t) // b, 1)
    for epoch in range(2):
        order_s = rng.stream("shuffle_s", epoch).permutation(n_s)
        order_t = rng.stream("shuffle_t", epoch).permutation(n_t)
        got = batches(epoch)
        assert [key for key, _ in got] == list(range(n_batches))  # keys are batch indices
        for bi, (idx_s, idx_t) in got:
            pos = np.arange(bi * b, (bi + 1) * b)
            assert np.array_equal(idx_s, order_s[pos % n_s])
            assert np.array_equal(idx_t, order_t[pos % n_t])
        # The smaller domain restarts its shuffled order when it runs out:
        # its row sequence over the epoch has period n_small.
        n_small = min(n_s, n_t)
        seen = np.concatenate([pair[0 if n_s <= n_t else 1] for _, pair in got])
        assert seen.size == n_batches * b
        assert np.array_equal(seen[n_small:], seen[: seen.size - n_small])
        assert set(seen) == set(range(n_small))


@pytest.mark.parametrize("batch_size", [2**60, 2**63])
def test_cycled_refuses_a_layout_numpy_cannot_index(batch_size):
    with pytest.raises(ResourceError, match="too large"):
        cycled(70, 25, batch_size, Rng(2))


def test_unequal_sizes_cycled(source_model, small_source, small_target):
    short = small_target.subset(np.arange(40))
    model, diags = run_dann(source_model, small_source, short, DannConfig(epochs=1, seed=0))
    assert len(diags) == 1
    assert np.isfinite(diags[0]["disc_loss"])
    assert model.meta["kind"] == "dann"


def test_deterministic(source_model, small_source, small_target):
    cfg = DannConfig(epochs=2, seed=3)
    m1, d1 = run_dann(source_model, small_source, small_target, cfg)
    m2, d2 = run_dann(source_model, small_source, small_target, cfg)
    for name in m1.net.params.names():
        assert np.array_equal(m1.net.params[name].value, m2.net.params[name].value)
    assert [d["disc_loss"] for d in d1] == [d["disc_loss"] for d in d2]


def test_source_model_untouched(source_model, small_source, small_target):
    before = {n: source_model.net.params[n].value.copy() for n in source_model.net.params.names()}
    run_dann(source_model, small_source, small_target, DannConfig(epochs=1, seed=0))
    for name, v in before.items():
        assert np.array_equal(source_model.net.params[name].value, v)


def test_config_validation():
    with pytest.raises(ConfigError):
        DannConfig(epochs=-1).validate()
    with pytest.raises(ConfigError):
        DannConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        DannConfig(lr=0.0).validate()
