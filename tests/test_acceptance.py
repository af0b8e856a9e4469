"""Acceptance gate. Each test checks one release criterion end to end and
prints a single verdict line that bypasses pytest's output capture."""

import hashlib
import time
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import rfloc.meanteacher as meanteacher
from rfloc.artifact import load_model
from rfloc.cli import main, read_manifest
from rfloc.dann import disc_loss
from rfloc.data import load_csv
from rfloc.evalmetrics import compute_heatmap, compute_metrics
from rfloc.localizer import SourceStats, TrainConfig, predict, train_source
from rfloc.meanteacher import (
    ConfidenceConfig,
    MeanTeacherConfig,
    PseudoLabelSet,
    adapt,
    correct_labels,
)
from rfloc.networks import FEATURE_DIM, Discriminator, Localizer
from rfloc.nn.layers import l1_loss
from rfloc.shot import ShotConfig, _shot_step, pred_stat_loss, run_shot, sq_loss
from rfloc.synthetic import SynthConfig, generate_synthetic

from util import (
    correct_labels_bruteforce,
    max_rel_error,
    overall_mae_d,
    sampled_central_difference,
    sampled_coords,
    shot_coral_direct,
    zero_grads,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def verdict(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def _coords(arr: np.ndarray, n: int, trial: int, name: str):
    return sampled_coords(arr.shape, n, seed=trial * 100003 + zlib.crc32(name.encode()))


# ------------------------------------------------------------ 1. gradients

def _fd_localizer(trial: int) -> float:
    gen = np.random.default_rng(trial)
    net = Localizer.init(gen)
    x = gen.normal(size=(4, 8))
    y = gen.uniform(0.0, 10.0, size=(4, 2))

    def loss() -> float:
        return l1_loss(net.forward(x)[0], y)[0]

    zero_grads(net.params)
    preds, cache = net.forward(x)
    _, dpred = l1_loss(preds, y)
    net.backward(dpred, cache)
    worst = 0.0
    for name, p in net.params.items():
        coords = _coords(p.value, 3, trial, name)
        fd = sampled_central_difference(loss, p.value, coords, eps=1e-6)
        got = [p.grad[c] for c in coords]
        worst = max(worst, max_rel_error(got, fd))
    return worst


def _fd_disc_path(trial: int) -> float:
    # Extractor gradient of (regression loss - discriminator loss), the
    # adversarial objective assembled by explicit arithmetic.
    gen = np.random.default_rng(10000 + trial)
    net = Localizer.init(gen)
    disc = Discriminator(init_gen=gen)
    ext, reg = net.extractor, net.regressor
    xs = gen.normal(size=(4, 8))
    ys = gen.uniform(0.0, 10.0, size=(4, 2))
    xt = gen.normal(size=(4, 8))

    def loss() -> float:
        f_s = ext.forward(xs)[0]
        f_t = ext.forward(xt)[0]
        return l1_loss(reg.forward(f_s)[0], ys)[0] - disc_loss(
            disc.forward(f_s)[0], disc.forward(f_t)[0]
        )[0]

    zero_grads(ext.params)
    f_s, c_s = ext.forward(xs)
    preds, c_r = reg.forward(f_s)
    _, dpred = l1_loss(preds, ys)
    ext.backward(reg.backward(dpred, c_r, accumulate=False), c_s)
    f_t, c_t = ext.forward(xt)
    p_s, cd_s = disc.forward(f_s)
    p_t, cd_t = disc.forward(f_t)
    _, dp_s, dp_t = disc_loss(p_s, p_t)
    ext.backward(-disc.backward(dp_s, cd_s, accumulate=False), c_s)
    ext.backward(-disc.backward(dp_t, cd_t, accumulate=False), c_t)
    worst = 0.0
    for name, p in ext.params.items():
        coords = _coords(p.value, 3, trial, name)
        fd = sampled_central_difference(loss, p.value, coords, eps=1e-6)
        got = [p.grad[c] for c in coords]
        worst = max(worst, max_rel_error(got, fd))
    return worst


def _fd_shot_total(trial: int) -> float:
    gen = np.random.default_rng(20000 + trial)
    net = Localizer.init(gen)
    ext, reg = net.extractor, net.regressor
    teacher = ext.clone()
    for _, p in teacher.params.items():
        p.value = p.value + 1e-3
    stats = SourceStats(
        gen.uniform(2.0, 8.0, size=2),
        gen.uniform(0.5, 2.0, size=2),
        np.diag(gen.uniform(0.1, 1.0, size=FEATURE_DIM)),
    )
    cfg = ShotConfig()
    z_w = gen.normal(size=(4, 8))
    z_s = gen.normal(size=(4, 8))

    def loss() -> float:
        f_w = ext.forward(z_w)[0]
        f_s = ext.forward(z_s)[0]
        y_w = reg.forward(f_w)[0]
        y_s = reg.forward(f_s)[0]
        y_t = reg.forward(teacher.forward(z_w)[0])[0]
        # CORAL in its direct form, the oracle of the step's batch-Gram form.
        return (
            cfg.lambda_cons * sq_loss(y_w, y_s, 1.0)[0]
            + cfg.lambda_teach * sq_loss(y_s, y_t, 1.0)[0]
            + cfg.lambda_stat * pred_stat_loss(y_w, stats, 1.0)[0]
            + cfg.lambda_coral * shot_coral_direct(f_w, stats.feat_cov)[0]
        )

    zero_grads(ext.params)
    cov_sq = float(np.vdot(stats.feat_cov, stats.feat_cov))
    _shot_step(ext, reg, teacher, z_w, z_s, stats, cov_sq, cfg, drop_gen=None)
    worst = 0.0
    for name, p in ext.params.items():
        coords = _coords(p.value, 3, trial, name)
        fd = sampled_central_difference(loss, p.value, coords, eps=1e-6)
        got = [p.grad[c] for c in coords]
        worst = max(worst, max_rel_error(got, fd))
    return worst


def test_gradient_fidelity(capsys):
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        worst = max(worst, _fd_localizer(trial), _fd_disc_path(trial), _fd_shot_total(trial))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    verdict(
        capsys,
        f"acceptance 1/8 gradient fidelity          "
        f"{'PASS' if ok else 'FAIL'}  max rel err {worst:.2e} (< 1e-4), "
        f"{elapsed:.1f} s (< 30 s)",
    )
    assert worst < 1e-4
    assert elapsed < 30.0


# ------------------------------------------------------------ 2. adaptation gain

def test_adaptation_gain_synthetic(capsys):
    start = time.perf_counter()
    source = generate_synthetic(SynthConfig(seed=0, name="source"))
    target = generate_synthetic(
        SynthConfig(
            seed=1,
            name="target",
            rx=((1.5, 1.5), (1.5, 8.5), (8.5, 8.5), (8.5, 1.5)),
            shadowing_std_db=8.0,
            ref_power_dbm=-38.0,
        )
    )
    model = train_source(source, TrainConfig(epochs=40, seed=0))
    in_domain = compute_metrics(predict(model, source), source.labels)["mae_d"]
    base = compute_metrics(predict(model, target), target.labels)["mae_d"]
    unlabeled = target.without_labels()
    plain, conf = [], []
    for seed in range(5):
        m, _ = adapt(
            model,
            unlabeled,
            MeanTeacherConfig(alpha=0.7, epochs=5, noise_variance=0.3, seed=seed),
        )
        plain.append(compute_metrics(predict(m, target), target.labels)["mae_d"])
        m, _ = adapt(
            model,
            unlabeled,
            ConfidenceConfig(
                alpha=0.8, c_x=1.0, c_y=1.0, k=8, epochs=5, noise_variance=0.3, seed=seed
            ),
        )
        conf.append(compute_metrics(predict(m, target), target.labels)["mae_d"])
    plain_mean, plain_std = float(np.mean(plain)), float(np.std(plain))
    conf_mean, conf_std = float(np.mean(conf)), float(np.std(conf))
    elapsed = time.perf_counter() - start
    ok = (
        base >= 3.0 * in_domain
        and plain_mean <= 0.70 * base
        and conf_mean <= plain_mean
        and conf_std < plain_std
        and elapsed < 600.0
    )
    verdict(
        capsys,
        f"acceptance 2/8 adaptation gain            "
        f"{'PASS' if ok else 'FAIL'}  in-domain {in_domain:.2f}, shifted {base:.2f} "
        f"({base / in_domain:.1f}x >= 3x), plain {plain_mean:.2f}+/-{plain_std:.2f} "
        f"({100 * (1 - plain_mean / base):.0f}% >= 30%), "
        f"conf {conf_mean:.2f}+/-{conf_std:.2f}, {elapsed:.0f} s (< 600 s)",
    )
    assert base >= 3.0 * in_domain
    assert plain_mean <= 0.70 * base
    assert conf_mean <= plain_mean
    assert conf_std < plain_std
    assert elapsed < 600.0


# ------------------------------------------------------------ 3. correction oracle

def test_label_correction_matches_bruteforce(capsys):
    gen = np.random.default_rng(2025)
    features = gen.normal(size=(100, 8))
    labels = gen.uniform(0.0, 10.0, size=(100, 2))
    confident = gen.random(100) > 0.4
    confident[0] = True
    ok = True
    for k in (1, 2, 3):
        pls = PseudoLabelSet(labels.copy(), confident.copy())
        out = correct_labels(pls, features, k=k)
        oracle = correct_labels_bruteforce(labels, None, confident, features, k)
        ok = ok and np.array_equal(out, oracle)
    verdict(
        capsys,
        f"acceptance 3/8 correction oracle          "
        f"{'PASS' if ok else 'FAIL'}  bit-equal on 100 samples, k in {{1,2,3}}",
    )
    assert ok


# ------------------------------------------------------------ 4. EMA exactness

def test_ema_exactness_during_adaptation(capsys, monkeypatch, source_model, small_target):
    records = []
    orig = meanteacher.ema_update

    def spy(teacher, student, alpha):
        prev = {n: p.value.copy() for n, p in teacher.items()}
        orig(teacher, student, alpha)
        records.append(
            (
                alpha,
                prev,
                {n: p.value.copy() for n, p in student.items()},
                {n: p.value.copy() for n, p in teacher.items()},
            )
        )

    monkeypatch.setattr(meanteacher, "ema_update", spy)
    checked, exact = 0, True
    for alpha in (0.7, 0.8, 1.0):
        records.clear()
        adapt(
            source_model,
            small_target.without_labels(),
            MeanTeacherConfig(alpha=alpha, epochs=2, seed=0),
        )
        assert len(records) >= 10
        for a, prev, student, after in records[:10]:
            assert a == alpha
            for name in prev:
                expected = a * student[name] + (1.0 - a) * prev[name]
                if not np.array_equal(after[name], expected):  # 0 ulp
                    exact = False
            checked += 1
    verdict(
        capsys,
        f"acceptance 4/8 teacher EMA exactness      "
        f"{'PASS' if exact else 'FAIL'}  0 ulp over {checked} recorded batches, "
        f"alpha in {{0.7, 0.8, 1.0}}",
    )
    assert exact


# ------------------------------------------------------------ 5. metric hand-checks

def test_metric_hand_checks(capsys):
    r = compute_metrics(np.array([[3.0, 4.0], [0.0, 0.0]]), np.zeros((2, 2)))
    exact = (
        r["mae_x"] == 1.5
        and r["mae_y"] == 2.0
        and r["mae_d"] == 2.5
        and r["rmse_d"] == np.sqrt(12.5)
    )
    gen = np.random.default_rng(1)
    labels = gen.uniform(0.0, 10.0, size=(400, 2))
    preds = labels + gen.normal(0.0, 1.5, size=(400, 2))
    grid = compute_heatmap(preds, labels, cell=1.0)
    gap = abs(overall_mae_d(grid) - compute_metrics(preds, labels)["mae_d"])
    ok = exact and gap <= 1e-9
    verdict(
        capsys,
        f"acceptance 5/8 metric hand-checks         "
        f"{'PASS' if ok else 'FAIL'}  fixture exact, heatmap gap {gap:.1e} (<= 1e-9)",
    )
    assert exact
    assert gap <= 1e-9


# ------------------------------------------------------------ 6. frozen hypothesis

def _param_hash(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(params[name].value.tobytes())
    return h.hexdigest()


def test_frozen_hypothesis_contracts(capsys, source_model, small_target):
    before = _param_hash(source_model.net.regressor.params)
    adapted, _ = run_shot(source_model, small_target.without_labels(), ShotConfig(epochs=2, seed=0))
    frozen = _param_hash(adapted.net.regressor.params) == before

    gen = np.random.default_rng(7)
    feats = gen.normal(size=(16, FEATURE_DIM))
    preds = gen.normal(size=(16, 2))
    fc = feats - feats.mean(axis=0)
    stats = SourceStats(preds.mean(axis=0), preds.var(axis=0), fc.T @ fc / 15)
    zeros = (
        sq_loss(preds, preds, 1.0)[0] == 0.0
        and pred_stat_loss(preds, stats, 1.0)[0] == 0.0
        and shot_coral_direct(feats, stats.feat_cov)[0] == 0.0
    )

    idle, _ = run_shot(
        source_model,
        small_target.without_labels(),
        ShotConfig(lambda_cons=0.0, lambda_teach=0.0, lambda_stat=0.0, lambda_coral=0.0, epochs=2),
    )
    identical = _param_hash(idle.net.params) == _param_hash(source_model.net.params)
    ok = frozen and zeros and identical
    verdict(
        capsys,
        f"acceptance 6/8 frozen-hypothesis contracts "
        f"{'PASS' if ok else 'FAIL'}  regressor hash unchanged: {frozen}, "
        f"matched-stats losses zero: {zeros}, zero-weight run identical: {identical}",
    )
    assert frozen and zeros and identical


# ------------------------------------------------------------ 7. published data (advisory)

def test_published_dataset_advisory(capsys):
    square = FIXTURE_DIR / "inlan_square.csv"
    cross = FIXTURE_DIR / "inlan_cross.csv"
    if not (square.exists() and cross.exists()):
        verdict(
            capsys,
            "acceptance 7/8 published-data check       "
            "SKIP  optional fixtures tests/fixtures/inlan_{square,cross}.csv not present",
        )
        pytest.skip("published measurement CSVs not present")
    source = load_csv(square)
    target = load_csv(cross)
    model = train_source(source, TrainConfig(seed=0))
    base = compute_metrics(predict(model, target), target.labels)["mae_d"]
    adapted, _ = adapt(
        model,
        target.without_labels(),
        ConfidenceConfig(alpha=0.8, c_x=8.0, c_y=4.0, k=2, seed=0),
    )
    mae = compute_metrics(predict(adapted, target), target.labels)["mae_d"]
    good = mae <= 6.5 and mae <= 0.25 * base
    verdict(
        capsys,
        f"acceptance 7/8 published-data check       "
        f"{'PASS' if good else 'WARN'}  adapted {mae:.2f} m (target <= 6.5 and "
        f">= 75% below source-only {base:.2f} m); advisory only",
    )
    if not good:
        warnings.warn(
            f"published-data advisory missed: adapted {mae:.2f} m vs source-only {base:.2f} m"
        )


# ------------------------------------------------------------ 8. manifest replay

def test_manifest_replay_determinism(capsys, tmp_path):
    data = tmp_path / "data"
    scenario = [
        "--set", "room=6,6",
        "--set", "source_rx=3,0.5;0.5,3;3,5.5;5.5,3",
        "--set", "target_rx=1,1;1,5;5,5;5,1",
    ]
    assert main(["gen-synth", "--out-dir", str(data)] + scenario) == 0
    model = tmp_path / "m.model"
    assert main(
        ["train", "--source-csv", str(data / "source.csv"), "--set", "epochs=4", "--out", str(model)]
    ) == 0
    adapted = tmp_path / "a.model"
    assert main(
        [
            "adapt", "--method", "mtloc-conf",
            "--model", str(model),
            "--target-csv", str(data / "target.csv"),
            "--set", "epochs=1", "--set", "c_x=1.0", "--set", "c_y=1.0",
            "--out", str(adapted),
            "--diagnostics", str(tmp_path / "a.diag.csv"),
        ]
    ) == 0
    identical = True
    for manifest, outputs in (
        (data / "manifest.txt", ["source.csv", "target.csv"]),
        (str(model) + ".manifest", ["m.model"]),
        (str(adapted) + ".manifest", ["a.model", "a.diag.csv"]),
    ):
        redo = tmp_path / ("redo_" + Path(manifest).stem)
        assert main(["replay", "--manifest", str(manifest), "--out-dir", str(redo)]) == 0
        man = read_manifest(manifest)
        for name in outputs:
            src = data / name if (data / name).exists() else tmp_path / name
            identical = identical and (redo / name).read_bytes() == src.read_bytes()
        identical = identical and read_manifest(redo / Path(manifest).name)["run_id"] == man["run_id"]
    verdict(
        capsys,
        f"acceptance 8/8 manifest replay            "
        f"{'PASS' if identical else 'FAIL'}  gen-synth, train, adapt artifacts byte-identical",
    )
    assert identical
    # The replayed artifacts load and predict like the originals.
    a = load_model(adapted)
    b = load_model(tmp_path / "redo_a.model" / "a.model")
    for name in a.net.params:
        assert np.array_equal(a.net.params[name].value, b.net.params[name].value)
