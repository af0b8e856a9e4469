"""Network architecture contracts: shapes, parameter count, gradients."""

import tracemalloc
import zlib

import numpy as np
import pytest

from rfloc import networks
from rfloc.data import NormStats
from rfloc.errors import ConfigError
from rfloc.localizer import LocalizerModel, compute_source_stats, predict
from rfloc.networks import (
    FEATURE_DIM,
    PREDICT_BLOCK_ROWS,
    Discriminator,
    FeatureExtractor,
    Localizer,
    Regressor,
    row_blocks,
)
from rfloc.nn import Param, Rng, clone_params, l1_loss

from util import (
    dense_head_init_unrolled,
    discriminator_backward_unrolled,
    discriminator_forward_unrolled,
    extractor_backward_unrolled,
    extractor_forward_unrolled,
    extractor_init_unrolled,
    max_rel_error,
    regressor_backward_unrolled,
    regressor_forward_unrolled,
    sampled_central_difference,
    sampled_coords,
    total_size,
    zero_grads,
)


def test_total_parameter_count():
    net = Localizer.init(Rng(0).stream("init"))
    assert total_size(net.params) == 123522


def test_component_parameter_counts():
    ext = FeatureExtractor(init_gen=Rng(0).stream("a"))
    reg = Regressor(init_gen=Rng(0).stream("b"))
    disc = Discriminator(init_gen=Rng(0).stream("c"))
    # conv1: 64*1*2+64; conv2: 128*64*2+128
    assert total_size(ext.params) == 192 + 16512
    # dense 768->128->64->2 with biases
    assert total_size(reg.params) == 98432 + 8256 + 130
    # dense 768->128->64->1 with biases
    assert total_size(disc.params) == 98432 + 8256 + 65


def test_feature_and_output_shapes():
    net = Localizer.init(Rng(1).stream("init"))
    x = np.random.default_rng(0).normal(size=(5, 8))
    feats, _ = net.extractor.forward(x)
    assert feats.shape == (5, FEATURE_DIM)
    preds = net.predict(x)
    assert preds.shape == (5, 2)


def test_discriminator_output_clipped():
    disc = Discriminator(init_gen=Rng(2).stream("init"))
    x = np.random.default_rng(0).normal(size=(7, FEATURE_DIM)) * 50
    p, _ = disc.forward(x)
    assert p.shape == (7, 1)
    assert (p >= 1e-12).all() and (p <= 1.0 - 1e-12).all()


def test_inference_is_pure():
    net = Localizer.init(Rng(3).stream("init"))
    x = np.random.default_rng(0).normal(size=(4, 8))
    a = net.predict(x)
    b = net.predict(x)
    assert np.array_equal(a, b)


def test_batch_size_invariance():
    # Row i of a batched prediction equals predicting row i alone.
    net = Localizer.init(Rng(4).stream("init"))
    x = np.random.default_rng(1).normal(size=(6, 8))
    batched = net.predict(x)
    single = np.vstack([net.predict(x[i : i + 1]) for i in range(6)])
    assert np.allclose(batched, single, atol=1e-12)


B = PREDICT_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, B - 1, B])
def test_predict_up_to_one_block_is_one_forward(n):
    net = Localizer.init(Rng(11).stream("init"))
    x = np.random.default_rng(6).normal(size=(n, 8))
    preds = net.predict(x)
    assert preds.shape == (n, 2)
    assert np.array_equal(preds, net.forward(x)[0])


def test_predict_blocks_are_independent():
    # Each block of a long input is predicted exactly as if it came alone.
    net = Localizer.init(Rng(12).stream("init"))
    x = np.random.default_rng(7).normal(size=(3 * B + 7, 8))
    preds = net.predict(x)
    for a, b in row_blocks(len(x)):
        assert np.array_equal(preds[a:b], net.predict(x[a:b])), a


@pytest.mark.parametrize("n", [B + 1, 3 * B + 7])
def test_blocked_predict_close_to_one_forward(n):
    net = Localizer.init(Rng(13).stream("init"))
    x = np.random.default_rng(8).normal(size=(n, 8))
    preds = net.predict(x)
    assert preds.shape == (n, 2)
    assert np.allclose(preds, net.forward(x)[0], rtol=0.0, atol=1e-12)


def test_predict_memory_does_not_grow_with_rows(monkeypatch):
    # One unblocked forward over 20,000 rows peaks near 430 MB; blocked,
    # the peak is a few block-sized intermediates per thread.
    net = Localizer.init(Rng(14).stream("init"))
    x = np.random.default_rng(9).normal(size=(20_000, 8))

    def peak(threads):
        monkeypatch.setattr(networks, "THREADS", threads)
        tracemalloc.start()
        try:
            net.predict(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    threads = networks.THREADS
    one = peak(1)
    assert one < 32 * 2**20, one
    # Each thread holds one block's intermediates at a time.
    assert peak(threads) <= threads * one


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7, 10_050])
def test_predict_is_the_unrolled_forward_block_by_block(n):
    # The blocked inference pass (bias and ReLU in place) gives the
    # reference forward's bits, block for block.
    net = Localizer.init(Rng(15).stream("init"))
    x = np.random.default_rng(10).normal(size=(n, 8))
    p = net.params
    ref = np.vstack([
        regressor_forward_unrolled(p, extractor_forward_unrolled(p, x[a:b])[0])[0]
        for a, b in row_blocks(n)
    ])
    assert same_bits(net.predict(x), ref)


def test_forward_only_passes_leave_their_input_unchanged():
    net = Localizer.init(Rng(16).stream("init"))
    for n in (B - 1, 3 * B + 7):
        x = np.random.default_rng(n).normal(size=(n, 8))
        before = x.tobytes()
        net.predict(x)
        assert x.tobytes() == before
        compute_source_stats(net, x)
        assert x.tobytes() == before


def test_networks_predicting_in_alternation_match_each_alone():
    # Short and long inputs, so block sizes change between calls too.
    nets = [Localizer.init(Rng(seed).stream("init")) for seed in (17, 18)]
    x = np.random.default_rng(11).normal(size=(3 * B + 7, 8))
    inputs = (x, x[: B - 1], x[:1])
    alone = [[net.predict(rows) for rows in inputs] for net in nets]
    for _ in range(2):
        for rows, *refs in zip(inputs, *alone):
            for net, ref in zip(nets, refs):
                assert same_bits(net.predict(rows), ref)


def test_source_stats_memory_is_features_plus_one_regressor_pass(monkeypatch):
    # At 20,000 rows the (n, 768) features take 117 MiB and one regressor
    # pass about 60 MiB; an unblocked extractor pass peaked near 430 MiB.
    net = Localizer.init(Rng(14).stream("init"))
    x = np.random.default_rng(9).normal(size=(20_000, 8))

    def peak(threads):
        monkeypatch.setattr(networks, "THREADS", threads)
        tracemalloc.start()
        try:
            stats = compute_source_stats(net, x)
            assert stats.feat_cov.shape == (FEATURE_DIM, FEATURE_DIM)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    threads = networks.THREADS
    one = peak(1)
    assert one < 224 * 2**20, one
    # The extractor's blocks add one block's intermediates per thread.
    assert peak(threads) <= threads * one


def test_localizer_gradient_matches_fd():
    net = Localizer.init(Rng(5).stream("init"))
    gen = np.random.default_rng(2)
    x = gen.normal(size=(3, 8))
    target = gen.normal(size=(3, 2)) * 3

    def loss_fn():
        preds = net.predict(x)
        return float(((preds - target) ** 2).sum())

    preds, cache = net.forward(x, drop_gen=None)
    dpred = 2.0 * (preds - target)
    zero_grads(net.params)
    net.backward(dpred, cache)
    for name, p in net.params.items():
        coords = sampled_coords(p.value.shape, 6, seed=zlib.crc32(name.encode()))
        numeric = sampled_central_difference(loss_fn, p.value, coords)
        analytic = [p.grad[idx] for idx in coords]
        assert max_rel_error(analytic, numeric) < 1e-5, name


def test_forward_rejects_bad_input_shape():
    # The network takes its input unchecked; localizer.predict, the entry
    # point for outside features, checks their width.
    net = Localizer.init(Rng(7).stream("init"))
    stats = compute_source_stats(net, np.random.default_rng(7).normal(size=(10, 8)))
    model = LocalizerModel(net, NormStats(np.zeros(8), np.ones(8)), stats, {})
    with pytest.raises(ConfigError, match=r"expected \(n, 8\) features, got \(3, 5\)"):
        predict(model, np.zeros((3, 5)))


def test_clone_detaches_parameters():
    net = Localizer.init(Rng(8).stream("init"))
    twin = net.clone()
    x = np.random.default_rng(3).normal(size=(2, 8))
    assert np.array_equal(net.predict(x), twin.predict(x))
    twin.params["dense3_w"].value[...] += 1.0
    assert not np.array_equal(net.predict(x), twin.predict(x))
    assert np.array_equal(
        net.params["dense3_w"].grad, np.zeros_like(net.params["dense3_w"].grad)
    )


def test_dropout_only_active_in_training():
    net = Localizer.init(Rng(9).stream("init"))
    x = np.random.default_rng(4).normal(size=(4, 8))
    preds_train_a, _ = net.forward(x, Rng(0).stream("d"))
    preds_train_b, _ = net.forward(x, Rng(1).stream("d"))
    assert not np.array_equal(preds_train_a, preds_train_b)  # masks differ
    assert np.array_equal(net.predict(x), net.predict(x))


def test_training_reduces_loss_on_memorized_sample():
    # One sample, many steps: the network must be able to memorize it.
    from rfloc.nn import Adam

    net = Localizer.init(Rng(10).stream("init"))
    x = np.random.default_rng(5).normal(size=(1, 8))
    y = np.array([[2.0, 3.0]])
    adam = Adam(net.params, lr=1e-4)
    losses = []
    for _ in range(2000):
        preds, cache = net.forward(x, drop_gen=None)
        loss, dpred = l1_loss(preds, y)
        losses.append(loss)
        net.backward(dpred, cache)
        adam.step()
    assert min(losses[-100:]) < 1e-3
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------- unrolled oracle

# (network, oracle init, oracle forward, oracle backward, input width,
# whether forward takes a dropout generator)
ORACLES = {
    "extractor": (FeatureExtractor, extractor_init_unrolled, extractor_forward_unrolled,
                  extractor_backward_unrolled, 8, True),
    "regressor": (Regressor, lambda g: dense_head_init_unrolled(g, "dense", 2),
                  regressor_forward_unrolled, regressor_backward_unrolled, FEATURE_DIM, True),
    "discriminator": (Discriminator, lambda g: dense_head_init_unrolled(g, "disc", 1),
                      discriminator_forward_unrolled, discriminator_backward_unrolled,
                      FEATURE_DIM, False),
}


def same_bits(a, b):
    bits = [np.ascontiguousarray(v).tobytes() for v in (a, b)]
    return a.shape == b.shape and bits[0] == bits[1]


@pytest.mark.parametrize("kind", list(ORACLES))
def test_init_matches_unrolled_oracle(kind):
    cls, init, *_ = ORACLES[kind]
    net = cls(init_gen=Rng(20).stream("init"))
    ref = init(Rng(20).stream("init"))
    assert list(net.params) == list(ref) == list(cls.SHAPES)
    for name, p in ref.items():
        assert same_bits(net.params[name].value, p.value), name


@pytest.mark.parametrize("accumulate", [True, False])
@pytest.mark.parametrize("batch", [1, 32, 257])
@pytest.mark.parametrize(
    "kind, dropout",
    [(kind, dropout) for kind in ORACLES for dropout in (False, True)
     if ORACLES[kind][5] or not dropout],
)
def test_forward_backward_match_unrolled_oracle(kind, dropout, batch, accumulate):
    cls, _, ref_forward, ref_backward, width, takes_gen = ORACLES[kind]
    gen = np.random.default_rng(batch)
    net = cls(init_gen=Rng(21).stream("init"))
    ref = clone_params(net.params)
    for name, p in net.params.items():
        # Equal nonzero starting grads, so accumulation must add to them.
        p.grad[...] = gen.normal(size=p.grad.shape)
        ref[name].grad[...] = p.grad
    x = gen.normal(size=(batch, width))
    drop = (Rng(22).stream("drop"), Rng(22).stream("drop")) if dropout else (None, None)
    if takes_gen:
        out, cache = net.forward(x, drop[0])
        ref_out, ref_cache = ref_forward(ref, x, drop[1])
    else:
        out, cache = net.forward(x)
        ref_out, ref_cache = ref_forward(ref, x)
    assert same_bits(out, ref_out)
    if dropout:
        # Philox's state holds small arrays, which repr prints in full.
        assert repr(drop[0].bit_generator.state) == repr(drop[1].bit_generator.state)
    dy = gen.normal(size=out.shape)
    dx = net.backward(dy, cache, accumulate=accumulate)
    ref_dx = ref_backward(ref, dy, ref_cache, accumulate=accumulate)
    assert same_bits(dx, ref_dx)
    for name, p in ref.items():
        assert same_bits(net.params[name].grad, p.grad), name


# ---------------------------------------------------------------- parameter checks

def _params_like(shapes: dict) -> dict:
    return {name: Param(np.zeros(shape)) for name, shape in shapes.items()}


@pytest.mark.parametrize("cls", [FeatureExtractor, Regressor, Discriminator])
def test_constructor_rejects_mismatched_params(cls):
    shapes = dict(cls.SHAPES)
    names = list(shapes)
    cls(_params_like(shapes))  # the expected set is accepted
    # Names come from SHAPES wherever a network is built (load_model,
    # clone); the shapes come from the outside and are checked.
    reshaped = {**shapes, names[-2]: shapes[names[-2]] + (1,)}
    with pytest.raises(ConfigError, match=f"parameter {names[-2]!r} has shape"):
        cls(_params_like(reshaped))
