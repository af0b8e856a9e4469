"""Synthetic generator: physics hand-checks, determinism, domain shift."""

import dataclasses
import re

import numpy as np
import pytest

from rfloc import synthetic
from rfloc.errors import ConfigError
from rfloc.nn import Rng
from rfloc.synthetic import SynthConfig, generate_synthetic, trajectory


def test_path_loss_hand_value():
    # P0 -30, exponent 2: at 10 m the reading is -30 - 20*log10(10) = -50.
    cfg = SynthConfig(
        room=(21.0, 1.0),
        tx=(0.5, 0.5),
        rx=((10.5, 0.5), (0.5, 0.0), (21.0, 0.5), (10.5, 1.0)),
        shadowing_std_db=0.0,
        pol_gain_db=(0.0, 0.0),
        line_spacing=1.0,
        speed=1.0,
        sample_interval=1.0,
    )
    ds = generate_synthetic(cfg)
    # First trajectory point is (0.5, 0.5), exactly 10 m from receiver 1.
    assert np.allclose(ds.labels[0], [0.5, 0.5])
    assert ds.features[0, 0] == pytest.approx(-50.0)
    assert ds.features[0, 1] == pytest.approx(-50.0)


def test_polarization_gain_offset():
    cfg = SynthConfig(shadowing_std_db=0.0, pol_gain_db=(0.0, -1.5))
    ds = generate_synthetic(cfg)
    x_pol = ds.features[:, 0::2]
    y_pol = ds.features[:, 1::2]
    assert np.allclose(y_pol - x_pol, -1.5)


def test_distance_floor_keeps_readings_finite():
    # Receiver sits exactly on a trajectory point; the floor caps the power.
    cfg = SynthConfig(shadowing_std_db=0.0, rx=((0.5, 0.5), (0.5, 6.0), (5.0, 9.5), (9.5, 6.2)))
    ds = generate_synthetic(cfg)
    assert np.isfinite(ds.features).all()
    # At the floor distance 0.1 m: -30 - 20*log10(0.1) = -10 dBm.
    assert ds.features.max() == pytest.approx(-10.0)


def test_determinism_and_seed_sensitivity():
    a = generate_synthetic(SynthConfig(seed=5))
    b = generate_synthetic(SynthConfig(seed=5))
    c = generate_synthetic(SynthConfig(seed=6))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)
    assert np.array_equal(a.labels, c.labels)  # trajectory is seed-free


def test_receiver_layout_shifts_features():
    a = generate_synthetic(SynthConfig(shadowing_std_db=0.0))
    b = generate_synthetic(
        SynthConfig(
            shadowing_std_db=0.0,
            rx=((1.5, 1.5), (1.5, 8.5), (8.5, 8.5), (8.5, 1.5)),
        )
    )
    assert np.array_equal(a.labels, b.labels)
    gap = np.abs(a.features - b.features).mean()
    assert gap > 1.0  # clearly shifted readings for identical positions


def test_trajectory_serpentine_structure():
    cfg = SynthConfig(room=(3.0, 2.0), line_spacing=1.0, speed=1.0, sample_interval=0.5)
    pts = trajectory(cfg)
    xs = np.unique(pts[:, 0])
    assert np.allclose(xs, [0.5, 1.5, 2.5])
    line0 = pts[pts[:, 0] == 0.5][:, 1]
    line1 = pts[pts[:, 0] == 1.5][:, 1]
    assert np.all(np.diff(line0) > 0)  # upward sweep
    assert np.all(np.diff(line1) < 0)  # next line comes back down
    assert pts[:, 1].min() >= 0.0 and pts[:, 1].max() <= 2.0


def test_sample_count_scales_with_interval():
    slow = generate_synthetic(SynthConfig(sample_interval=0.5, shadowing_std_db=0.0))
    fast = generate_synthetic(SynthConfig(sample_interval=0.25, shadowing_std_db=0.0))
    assert len(fast) > 1.8 * len(slow)


def test_empty_trajectory_rejected():
    with pytest.raises(ConfigError, match="the trajectory is empty"):
        trajectory(SynthConfig(room=(0.4, 10.0), line_spacing=1.0))


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(rx=((1, 1), (2, 2))).validate()
    with pytest.raises(ConfigError):
        SynthConfig(rx=((1, 1), (1, 1), (2, 2), (3, 3))).validate()
    with pytest.raises(ConfigError):
        SynthConfig(shadowing_std_db=-1.0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(path_loss_exponent=0.0).validate()


def test_shadowing_statistics():
    quiet = generate_synthetic(SynthConfig(shadowing_std_db=0.0))
    noisy = generate_synthetic(SynthConfig(shadowing_std_db=2.0))
    resid = noisy.features - quiet.features
    assert abs(resid.std() - 2.0) < 0.1
    assert abs(resid.mean()) < 0.1


def test_shadowing_draws_match_per_sample_streams():
    cfg = SynthConfig(shadowing_std_db=2.0, seed=4)
    noisy = generate_synthetic(cfg).features
    quiet = generate_synthetic(dataclasses.replace(cfg, shadowing_std_db=0.0)).features
    rng = Rng(4)
    noise = np.stack(
        [rng.stream("shadow", i).normal(0.0, 2.0, size=8) for i in range(len(noisy))]
    )
    assert np.array_equal(noisy, quiet + noise)


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"room": (10.0, 10.0), "line_spacing": 0.3},
        {"room": (7.3, 2.9), "speed": 0.17, "sample_interval": 0.33},
        {"room": (1.0, 1.0), "line_spacing": 1.0, "speed": 1.0, "sample_interval": 1.0},
        {"room": (3.0, 50.0), "line_spacing": 0.7, "speed": 0.11, "sample_interval": 0.032},
        {"room": (0.4, 0.4)},
    ],
)
def test_trajectory_rows_equals_the_built_length(changes):
    cfg = dataclasses.replace(SynthConfig(), **changes)
    rows = cfg.trajectory_rows()
    if rows == 0:
        with pytest.raises(ConfigError, match="empty"):
            trajectory(cfg)
    else:
        assert len(trajectory(cfg)) == rows


@pytest.mark.parametrize(
    "changes, rows",
    [
        ({"room": (1e15, 1e15)}, "7.14e+30"),
        ({"speed": 1e-308}, "inf"),
        ({"line_spacing": 1e-308}, "inf"),
        ({"speed": 1e-200, "sample_interval": 1e-200}, "inf"),  # the step underflows to 0
        ({"room": (0.4, 10.0), "speed": 1e-308}, "nan"),  # 0 lines x inf rows
    ],
)
def test_validate_refuses_a_trajectory_over_the_cap(changes, rows):
    cfg = dataclasses.replace(SynthConfig(), **changes)
    message = f"would have {rows} rows, over the cap of 3355443"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.validate()
    with pytest.raises(ConfigError):
        generate_synthetic(cfg)


def test_trajectory_cap_boundary(monkeypatch):
    cfg = SynthConfig()
    rows = len(trajectory(cfg))
    monkeypatch.setattr(synthetic, "MAX_SYNTH_ROWS", rows)
    cfg.validate()
    monkeypatch.setattr(synthetic, "MAX_SYNTH_ROWS", rows - 1)
    with pytest.raises(ConfigError, match="over the cap"):
        cfg.validate()


@pytest.mark.parametrize(
    "changes",
    [
        {"room": (5.0,)},
        {"room": ()},
        {"tx": (1.0, 2.0, 3.0)},
        {"rx": ((5.0, 1.0), (0.5, 6.0), (5.0, 9.5), (9.5,))},
    ],
)
def test_validate_refuses_malformed_positions(changes):
    with pytest.raises(ConfigError, match="two values"):
        dataclasses.replace(SynthConfig(), **changes).validate()
