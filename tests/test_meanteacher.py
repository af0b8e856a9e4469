"""Mean-teacher adaptation: probing, thresholds, label correction, EMA."""

import tracemalloc

import numpy as np
import pytest

from rfloc import meanteacher
from rfloc.data import NUM_FEATURES, normalize_features
from rfloc.errors import ConfigError, NumericalError, UsageError
from rfloc.meanteacher import (
    MAX_PROBE_FLOATS,
    MeanTeacherConfig,
    PseudoLabelSet,
    _probe,
    _tree,
    adapt,
    compute_thresholds,
    correct_labels,
    ema_update,
)
from rfloc.networks import PREDICT_BLOCK_ROWS
from rfloc.nn import ParamSet, Rng

from util import (
    AdamAllocating,
    correct_labels_bruteforce,
    correct_labels_per_row,
    ema_update_allocating,
    probe_whole_set,
)


def unit_row(value: float) -> np.ndarray:
    # A point `value` away from the origin along a fixed unit direction.
    return np.full(8, value / np.sqrt(8.0))


# ---------------------------------------------------------------- probing

def probe_model(model, target, noise_variance):
    # As adapt probes its teacher: on the normalized target features.
    z = normalize_features(target.features, model.norm)
    n_probe = MeanTeacherConfig().n_probe
    return _probe(model.net.predict, z, float(np.sqrt(noise_variance)), n_probe, Rng(0), epoch=0)


def test_probe_zero_noise_zero_sigma(source_model, small_target):
    _, sigma = probe_model(source_model, small_target, 0.0)
    assert np.allclose(sigma, 0.0)


def test_probe_labels_are_clean_predictions(source_model, small_target):
    from rfloc.localizer import predict

    labels, _ = probe_model(source_model, small_target, 0.1)
    assert np.array_equal(labels, predict(source_model, small_target))


def test_probe_linear_map_sigma():
    # For f(z) = z W, the prediction spread under N(0, s^2) input noise is
    # exactly s * ||W[:, j]|| per coordinate; Monte Carlo at 10000 probes
    # must land within 10%.
    gen = np.random.default_rng(0)
    w = gen.normal(size=(8, 2))
    z = gen.normal(size=(5, 8))
    noise_std = 0.3
    _, sigma = _probe(lambda v: v @ w, z, noise_std, 10000, Rng(0), epoch=0)
    expected = noise_std * np.linalg.norm(w, axis=0)
    assert np.abs(sigma - expected).max() / expected.min() < 0.1


def test_probe_deterministic_per_sample():
    w = np.eye(8)[:, :2]
    z = np.zeros((3, 8))
    _, s1 = _probe(lambda v: v @ w, z, 0.5, 10, Rng(9), epoch=2)
    _, s2 = _probe(lambda v: v @ w, z, 0.5, 10, Rng(9), epoch=2)
    assert np.array_equal(s1, s2)
    _, s3 = _probe(lambda v: v @ w, z, 0.5, 10, Rng(9), epoch=3)
    assert not np.array_equal(s1, s3)


def test_probe_noise_matches_per_sample_streams():
    z = np.random.default_rng(1).normal(size=(4, 8))
    seen = []

    def record(v):
        seen.append(v.copy())
        return v[:, :2]

    _probe(record, z, 0.5, 3, Rng(9), epoch=2)
    rng = Rng(9)
    noise = np.stack([rng.stream("probe", 2, i).normal(0.0, 0.5, size=(3, 8)) for i in range(4)])
    assert np.array_equal(seen[0], z)
    for p in range(3):
        assert np.array_equal(seen[1 + p], z + noise[:, p]), p


@pytest.mark.parametrize("n_probe", [2, 10])
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 700, 1029])
def test_blocked_probe_matches_whole_set_oracle_bitwise(source_model, rows, n_probe):
    z = np.random.default_rng(rows).normal(size=(rows, 8))
    predict = source_model.net.predict
    labels, sigma = _probe(predict, z, 0.5, n_probe, Rng(4), epoch=3)
    want_labels, want_sigma = probe_whole_set(predict, z, 0.5, n_probe, Rng(4), epoch=3)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(sigma, want_sigma)
    assert sigma.min() > 0.0


def test_probe_passes_run_on_the_blocks_of_in_blocks():
    # So every forward call computes exactly the block predict would.
    sizes = []

    def record(v):
        sizes.append(len(v))
        return v[:, :2]

    _probe(record, np.zeros((700, 8)), 0.1, 3, Rng(0), 0)
    b = PREDICT_BLOCK_ROWS
    assert sizes == [700] + [b] * 3 + [b] * 3 + [700 - 2 * b] * 3


def test_probe_memory_grows_only_by_its_outputs(source_model):
    # Noise and noisy predictions are held one block at a time. Drawing all
    # of the noise at once (6000 more rows x 4 probes x 8 floats) and
    # predicting each pass over every row grew the peak by 2.5 MB.
    def peak(rows):
        z = np.random.default_rng(rows).normal(size=(rows, 8))
        tracemalloc.start()
        try:
            _probe(source_model.net.predict, z, 0.5, 4, Rng(0), epoch=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    outputs = (8000 - 2000) * 2 * 2 * 8  # labels and sigma, (n, 2) float64 each
    assert peak(8000) - peak(2000) <= outputs + 64 * 1024


# ---------------------------------------------------------------- thresholds

def test_thresholds_hand_case():
    # Spreads {1, 1, 1, 3}: mean 1.5, population std sqrt(0.75) = 0.866...
    # With c = 1 the threshold is 2.366; only the 3 is flagged.
    sigma = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
    pls = PseudoLabelSet(np.zeros((4, 2)), sigma)
    t_x, t_y = compute_thresholds(pls, 1.0, 1.0)
    expected = 1.5 + np.sqrt(0.75)
    assert t_x == pytest.approx(expected)
    assert t_y == pytest.approx(expected)
    assert pls.confident.tolist() == [True, True, True, False]


def test_thresholds_flag_either_coordinate():
    sigma = np.array([[0.1, 5.0], [0.1, 0.1], [5.0, 0.1], [0.1, 0.1]])
    pls = PseudoLabelSet(np.zeros((4, 2)), sigma)
    compute_thresholds(pls, 0.5, 0.5)
    # Samples 0 and 2 are extreme in one coordinate each.
    assert pls.confident.tolist() == [False, True, False, True]


def test_thresholds_c_zero_flags_above_mean():
    sigma = np.array([[1.0, 1.0], [2.0, 2.0]])
    pls = PseudoLabelSet(np.zeros((2, 2)), sigma)
    t_x, _ = compute_thresholds(pls, 0.0, 0.0)
    assert t_x == pytest.approx(1.5)
    assert pls.confident.tolist() == [True, False]


def test_thresholds_refuse_non_finite_spreads():
    # Overflowed probes give infinite spreads, whose std is NaN; every
    # comparison with a NaN threshold is false, so no row was flagged.
    sigma = np.array([[np.inf, 1.0], [1.0, 1.0]])
    pls = PseudoLabelSet(np.zeros((2, 2)), sigma)
    with pytest.raises(NumericalError, match="uncertainty thresholds are non-finite"):
        with np.errstate(invalid="ignore"):
            compute_thresholds(pls, 1.0, 1.0)


# ---------------------------------------------------------------- correction

def test_correction_hand_case_inverse_distance():
    # Uncertain sample sits 1 m from label (0,0) and 3 m from (2,2) in
    # normalized input space: correction = (1*(0,0) + 1/3*(2,2)) / (4/3).
    features = np.stack([unit_row(0.0), unit_row(4.0), unit_row(1.0)])
    labels = np.array([[0.0, 0.0], [2.0, 2.0], [50.0, 50.0]])
    pls = PseudoLabelSet(labels, np.zeros((3, 2)), np.array([True, True, False]))
    out = correct_labels(pls, features, k=2)
    assert np.allclose(out.labels[2], [0.5, 0.5])
    assert np.array_equal(out.labels[:2], labels[:2])  # confident untouched


def test_correction_k1_uses_nearest():
    features = np.stack([unit_row(0.0), unit_row(4.0), unit_row(3.0)])
    labels = np.array([[1.0, 5.0], [9.0, 9.0], [0.0, 0.0]])
    pls = PseudoLabelSet(labels, np.zeros((3, 2)), np.array([True, True, False]))
    out = correct_labels(pls, features, k=1)
    assert np.array_equal(out.labels[2], [9.0, 9.0])


def test_correction_tie_broken_by_lower_index():
    # Two confident samples equidistant from the uncertain one.
    features = np.stack([unit_row(-1.0), unit_row(1.0), unit_row(0.0)])
    labels = np.array([[3.0, 3.0], [7.0, 7.0], [0.0, 0.0]])
    pls = PseudoLabelSet(labels, np.zeros((3, 2)), np.array([True, True, False]))
    out = correct_labels(pls, features, k=1)
    assert np.array_equal(out.labels[2], [3.0, 3.0])


def test_correction_zero_distance_floored():
    features = np.stack([unit_row(0.0), unit_row(2.0), unit_row(0.0)])
    labels = np.array([[1.0, 2.0], [9.0, 9.0], [0.0, 0.0]])
    pls = PseudoLabelSet(labels, np.zeros((3, 2)), np.array([True, True, False]))
    out = correct_labels(pls, features, k=2)
    assert np.isfinite(out.labels).all()
    # The co-located confident sample dominates the weighted average.
    assert np.allclose(out.labels[2], [1.0, 2.0], atol=1e-6)


def test_correction_k_exceeding_confident_degrades():
    features = np.stack([unit_row(0.0), unit_row(1.0), unit_row(0.4)])
    labels = np.array([[0.0, 0.0], [4.0, 4.0], [99.0, 99.0]])
    pls = PseudoLabelSet(labels, np.zeros((3, 2)), np.array([True, True, False]))
    out5 = correct_labels(pls, features, k=5)
    out2 = correct_labels(pls, features, k=2)
    assert np.array_equal(out5.labels, out2.labels)


def test_correction_result_in_convex_hull_of_confident():
    gen = np.random.default_rng(4)
    features = gen.normal(size=(30, 8))
    labels = gen.uniform(0, 10, size=(30, 2))
    confident = gen.random(30) > 0.4
    confident[:2] = True  # ensure some anchors
    pls = PseudoLabelSet(labels.copy(), np.zeros((30, 2)), confident)
    out = correct_labels(pls, features, k=3)
    lo = labels[confident].min(axis=0)
    hi = labels[confident].max(axis=0)
    for i in np.flatnonzero(~confident):
        assert (out.labels[i] >= lo - 1e-12).all()
        assert (out.labels[i] <= hi + 1e-12).all()


def test_correction_no_confident_warns_and_keeps(caplog):
    pls = PseudoLabelSet(
        np.array([[1.0, 1.0], [2.0, 2.0]]),
        np.zeros((2, 2)),
        np.array([False, False]),
    )
    with caplog.at_level("WARNING"):
        out = correct_labels(pls, np.zeros((2, 8)), k=2)
    assert np.array_equal(out.labels, pls.labels)
    assert any("confident" in r.message for r in caplog.records)


def test_correction_matches_bruteforce_bitwise():
    gen = np.random.default_rng(11)
    for k in (1, 2, 3):
        features = gen.normal(size=(40, 8))
        labels = gen.uniform(0, 10, size=(40, 2))
        confident = gen.random(40) > 0.35
        confident[0] = True
        pls = PseudoLabelSet(labels.copy(), np.zeros((40, 2)), confident.copy())
        out = correct_labels(pls, features, k=k)
        oracle = correct_labels_bruteforce(labels, None, confident, features, k)
        assert np.array_equal(out.labels, oracle)


def test_correction_k8_with_ties_matches_oracles_bitwise(monkeypatch):
    # Rounded features with duplicated rows put many confident samples at
    # exactly the k-th distance, so the lower-index tie-break decides.
    gen = np.random.default_rng(21)
    features = np.round(gen.normal(size=(300, 8)), 1)
    features[100:200] = features[gen.integers(0, 100, size=100)]
    features[200:230] = np.round(features[200:230])
    labels = gen.uniform(0, 10, size=(300, 2))
    confident = gen.random(300) > 0.3
    per_row = correct_labels_per_row(labels, confident, features, 8)
    assert np.array_equal(
        per_row, correct_labels_bruteforce(labels, None, confident, features, 8)
    )
    for block_cells in (1, 1000, meanteacher._BLOCK_CELLS):
        monkeypatch.setattr(meanteacher, "_BLOCK_CELLS", block_cells)
        pls = PseudoLabelSet(labels.copy(), np.zeros((300, 2)), confident.copy())
        assert np.array_equal(correct_labels(pls, features, k=8).labels, per_row)


def test_correction_k1_with_ties_matches_oracles_bitwise(monkeypatch):
    # Duplicated confident rows put two or more candidates at exactly the
    # nearest distance (0 for uncertain copies), so the lowest index wins.
    gen = np.random.default_rng(22)
    features = np.round(gen.normal(size=(400, 8)))
    features[200:] = features[gen.integers(0, 200, size=200)]
    labels = gen.uniform(0, 10, size=(400, 2))
    confident = gen.random(400) > 0.3
    per_row = correct_labels_per_row(labels, confident, features, 1)
    assert np.array_equal(
        per_row, correct_labels_bruteforce(labels, None, confident, features, 1)
    )
    for block_cells in (1, 1000, meanteacher._BLOCK_CELLS):
        monkeypatch.setattr(meanteacher, "_BLOCK_CELLS", block_cells)
        pls = PseudoLabelSet(labels.copy(), np.zeros((400, 2)), confident.copy())
        assert np.array_equal(correct_labels(pls, features, k=1).labels, per_row)


def test_correction_memory_is_bounded_by_the_block():
    # 10,050 rows, about 30% uncertain (the large-target share). With all
    # eight squared-difference terms of a 2^19-cell block alive, the peak
    # was 43.8 MB; one buffer per stack slot of 2^16 cells needs about 3 MB.
    gen = np.random.default_rng(3)
    features = gen.normal(size=(10050, 8))
    pls = PseudoLabelSet(
        gen.uniform(0, 10, size=(10050, 2)), np.zeros((10050, 2)), gen.random(10050) > 0.3
    )
    tracemalloc.start()
    try:
        correct_labels(pls, features, k=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_tree_sum_matches_numpy_row_sum():
    # Every term made for one slot is written into the same buffer, as
    # correct_labels does; a slot reused while its entry is still to be
    # added would change the sum.
    gen = np.random.default_rng(8)
    a = gen.random((50, NUM_FEATURES)) * 10.0 ** gen.uniform(-6, 6, size=(50, NUM_FEATURES))
    buffers = {}
    order = []

    def term(i, slot):
        order.append(i)
        buf = buffers.setdefault(slot, np.empty(50))
        buf[...] = a[:, i]
        return buf

    assert np.array_equal(_tree(term, 0, NUM_FEATURES), a.sum(axis=1))
    assert order == list(range(NUM_FEATURES))
    assert len(buffers) <= 4


def test_correction_rejects_nonfinite_features():
    features = np.zeros((3, 8))
    features[1, 2] = np.nan
    pls = PseudoLabelSet(np.zeros((3, 2)), np.zeros((3, 2)), np.array([True, True, False]))
    with pytest.raises(ConfigError):
        correct_labels(pls, features, k=1)


# ---------------------------------------------------------------- EMA

def make_pair(values_t, values_s):
    t, s = ParamSet(), ParamSet()
    for i, (vt, vs) in enumerate(zip(values_t, values_s)):
        t.add(f"p{i}", np.asarray(vt, dtype=float))
        s.add(f"p{i}", np.asarray(vs, dtype=float))
    return t, s


def test_ema_hand_case():
    t, s = make_pair([np.array([1.0, 2.0])], [np.array([3.0, 6.0])])
    ema_update(t, s, alpha=0.7)
    assert np.array_equal(t["p0"].value, 0.7 * np.array([3.0, 6.0]) + 0.3 * np.array([1.0, 2.0]))
    assert np.array_equal(s["p0"].value, np.array([3.0, 6.0]))  # student untouched


def test_ema_alpha_one_copies_student():
    t, s = make_pair([np.ones(4)], [np.full(4, 9.0)])
    ema_update(t, s, alpha=1.0)
    assert np.array_equal(t["p0"].value, s["p0"].value)


def test_ema_exact_expression_many_batches():
    gen = np.random.default_rng(0)
    t, s = make_pair([gen.normal(size=(3, 3))], [gen.normal(size=(3, 3))])
    expected = t["p0"].value.copy()
    for _ in range(10):
        s["p0"].value = gen.normal(size=(3, 3))
        ema_update(t, s, alpha=0.8)
        expected = 0.8 * s["p0"].value + (1.0 - 0.8) * expected
        assert np.array_equal(t["p0"].value, expected)  # 0 ulp


@pytest.mark.parametrize("alpha", [0.8, 0.3, 0.005, 1.0])
def test_ema_in_place_bit_equal_to_allocating_oracle(alpha):
    # One parameter spans several blocks of the in-place update.
    gen = np.random.default_rng(5)
    shapes = [(300, 130), (64, 1, 2), (1,), ()]
    t, s = make_pair([gen.normal(size=sh) for sh in shapes], [gen.normal(size=sh) for sh in shapes])
    ref = t.clone()
    arrays = {n: p.value for n, p in t.items()}
    for _ in range(5):
        for _, p in s.items():
            p.value = gen.normal(size=p.value.shape)
        ema_update(t, s, alpha)
        ema_update_allocating(ref, s, alpha)
        for n, p in t.items():
            assert p.value is arrays[n]  # updated in place
            assert np.array_equal(p.value, ref[n].value)  # 0 ulp


def test_ema_teacher_and_student_the_same_set():
    gen = np.random.default_rng(6)
    ps, _ = make_pair([gen.normal(size=(300, 130)), gen.normal(size=3)], [np.zeros(1)] * 2)
    before = {n: p.value.copy() for n, p in ps.items()}
    ema_update(ps, ps, 0.7)
    for n, p in ps.items():
        assert np.array_equal(p.value, 0.7 * before[n] + (1.0 - 0.7) * before[n])


# ---------------------------------------------------------------- adapt

def test_adapt_rejects_labeled_target(source_model, small_target):
    with pytest.raises(UsageError):
        adapt(source_model, small_target, MeanTeacherConfig(epochs=1))


def test_adapt_deterministic(source_model, small_target):
    cfg = MeanTeacherConfig(alpha=0.7, epochs=2, seed=5)
    m1, d1 = adapt(source_model, small_target.without_labels(), cfg)
    m2, d2 = adapt(source_model, small_target.without_labels(), cfg)
    for name in m1.net.params.names():
        assert np.array_equal(m1.net.params[name].value, m2.net.params[name].value)
    assert [e["kd_loss"] for e in d1] == [e["kd_loss"] for e in d2]


def test_adapt_ignores_confidence_knobs_when_off(source_model, small_target):
    base = MeanTeacherConfig(alpha=0.7, epochs=1, seed=0, confidence=False, c_x=8.0, c_y=4.0, k=2)
    tweaked = MeanTeacherConfig(alpha=0.7, epochs=1, seed=0, confidence=False, c_x=0.1, c_y=0.1, k=9)
    m1, _ = adapt(source_model, small_target.without_labels(), base)
    m2, _ = adapt(source_model, small_target.without_labels(), tweaked)
    for name in m1.net.params.names():
        assert np.array_equal(m1.net.params[name].value, m2.net.params[name].value)


def test_adapt_diagnostics_shape(source_model, small_target):
    _, diags = adapt(
        source_model,
        small_target.without_labels(),
        MeanTeacherConfig(alpha=0.8, confidence=True, c_x=1.0, c_y=1.0, epochs=3, seed=0),
    )
    assert [d["epoch"] for d in diags] == [0, 1, 2]
    assert all(np.isfinite(d["kd_loss"]) for d in diags)
    assert all(d["n_uncertain"] is not None and d["t_x"] is not None for d in diags)
    _, plain = adapt(
        source_model, small_target.without_labels(), MeanTeacherConfig(epochs=1, seed=0)
    )
    assert plain[0]["n_uncertain"] is None and plain[0]["t_x"] is None


def test_adapt_zero_epochs_identity(source_model, small_target):
    out, diags = adapt(source_model, small_target.without_labels(), MeanTeacherConfig(epochs=0))
    assert diags == []
    for name in source_model.net.params.names():
        assert np.array_equal(
            out.net.params[name].value, source_model.net.params[name].value
        )


def test_adapt_meta_kinds(source_model, small_target):
    plain, _ = adapt(source_model, small_target.without_labels(), MeanTeacherConfig(epochs=1))
    conf, _ = adapt(
        source_model,
        small_target.without_labels(),
        MeanTeacherConfig(epochs=1, confidence=True, c_x=1.0, c_y=1.0),
    )
    assert plain.meta["kind"] == "mean-teacher"
    assert conf.meta["kind"] == "mean-teacher-confidence"


def test_adapt_source_model_untouched(source_model, small_target):
    before = {n: source_model.net.params[n].value.copy() for n in source_model.net.params.names()}
    adapt(source_model, small_target.without_labels(), MeanTeacherConfig(epochs=1, seed=0))
    for name, v in before.items():
        assert np.array_equal(source_model.net.params[name].value, v)


def test_config_validation():
    with pytest.raises(ConfigError):
        MeanTeacherConfig(alpha=0.0).validate()
    with pytest.raises(ConfigError):
        MeanTeacherConfig(alpha=1.2).validate()
    with pytest.raises(ConfigError):
        MeanTeacherConfig(noise_variance=-0.1).validate()
    # The probe count, threshold coefficients and k are checked here
    # only; _probe, compute_thresholds and correct_labels trust them.
    with pytest.raises(ConfigError, match="at least 2 probes"):
        MeanTeacherConfig(confidence=True, n_probe=1).validate()
    for c in ({"c_x": -1.0}, {"c_y": -1.0}):
        with pytest.raises(ConfigError, match="threshold coefficients"):
            MeanTeacherConfig(confidence=True, **c).validate()
    with pytest.raises(ConfigError, match="k must be at least 1"):
        MeanTeacherConfig(confidence=True, k=0).validate()
    MeanTeacherConfig(alpha=1.0).validate()  # boundary allowed


def test_config_caps_the_probe_buffers():
    # One block's noise and noisy predictions: rows x n_probe x (8 + 2).
    largest = MAX_PROBE_FLOATS // (PREDICT_BLOCK_ROWS * 10)
    MeanTeacherConfig(confidence=True, n_probe=largest).validate()
    with pytest.raises(ConfigError, match=f"n_probe may be at most {largest}"):
        MeanTeacherConfig(confidence=True, n_probe=largest + 1).validate()
    MeanTeacherConfig(confidence=False, n_probe=10**9).validate()  # probing off


@pytest.mark.parametrize("confidence", [False, True], ids=["mtloc", "mtloc-conf"])
def test_adapt_bit_equal_with_allocating_oracles(monkeypatch, source_model, small_target, confidence):
    cfg = dict(alpha=0.8, epochs=2, seed=4, confidence=confidence, c_x=1.0, c_y=1.0)
    target = small_target.without_labels()
    new, _ = adapt(source_model, target, MeanTeacherConfig(**cfg))
    monkeypatch.setattr(meanteacher, "Adam", AdamAllocating)
    monkeypatch.setattr(meanteacher, "ema_update", ema_update_allocating)
    old, _ = adapt(source_model, target, MeanTeacherConfig(**cfg))
    for name, p in new.net.params.items():
        assert np.array_equal(p.value, old.net.params[name].value), name
