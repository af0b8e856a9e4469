"""Synthetic fingerprint generation with a log-distance path-loss model.

A tag is driven along parallel straight lines across the room; at each
sample point every receiver/polarization channel reads

    P = P0 - 10 n log10(d) + polarization_gain + shadowing

with d the tag-receiver distance in meters (floored at 0.1 m so readings
stay finite next to a receiver) and shadowing ~ N(0, std^2) drawn
independently per channel from a per-sample random stream. Two configs
that differ in receiver layout yield genuinely shifted feature
distributions, which is the domain-shift scenario used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError
from .nn import Rng

DISTANCE_FLOOR = 0.1


@dataclass
class SynthConfig:
    room: tuple[float, float] = (10.0, 10.0)  # width, height in meters
    tx: tuple[float, float] = (5.0, 5.0)
    rx: tuple[tuple[float, float], ...] = (
        (5.0, 1.0),
        (0.5, 6.0),
        (5.0, 9.5),
        (9.5, 6.2),
    )
    path_loss_exponent: float = 2.0
    ref_power_dbm: float = -30.0
    shadowing_std_db: float = 0.5
    pol_gain_db: tuple[float, float] = (0.0, -1.5)
    line_spacing: float = 1.0  # meters between trajectory lines
    speed: float = 0.28  # m/s
    sample_interval: float = 0.5  # s between readings
    seed: int = 0
    name: str = "synthetic"

    def validate(self) -> None:
        if self.room[0] <= 0 or self.room[1] <= 0:
            raise ConfigError(f"room extents must be positive, got {self.room}")
        if len(self.rx) != 4:
            raise ConfigError(f"exactly 4 receivers required, got {len(self.rx)}")
        if len(set(self.rx)) != 4:
            raise ConfigError("receiver positions must be distinct")
        if self.path_loss_exponent <= 0:
            raise ConfigError("path-loss exponent must be positive")
        if self.shadowing_std_db < 0:
            raise ConfigError("shadowing std must be non-negative")
        if len(self.pol_gain_db) != 2:
            raise ConfigError("one gain offset per polarization required")
        if self.line_spacing <= 0 or self.speed <= 0 or self.sample_interval <= 0:
            raise ConfigError("trajectory spacing, speed and interval must be positive")


def trajectory(cfg: SynthConfig) -> np.ndarray:
    """Sample points of a serpentine sweep: vertical lines spaced
    line_spacing apart, traversed in alternating direction at constant
    speed, one reading every sample_interval seconds."""
    cfg.validate()
    width, height = cfg.room
    inset = cfg.line_spacing / 2.0
    step = cfg.speed * cfg.sample_interval
    xs = np.arange(inset, width - inset + 1e-9, cfg.line_spacing)
    ys = np.arange(inset, height - inset + 1e-9, step)
    if xs.size == 0 or ys.size == 0:
        raise DataError("trajectory is empty; room too small for the requested spacing")
    points = []
    for i, x in enumerate(xs):
        line_y = ys if i % 2 == 0 else ys[::-1]
        points.append(np.column_stack([np.full(line_y.size, x), line_y]))
    return np.concatenate(points, axis=0)


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Deterministic labeled dataset for one room/receiver configuration."""
    points = trajectory(cfg)
    rx = np.asarray(cfg.rx, dtype=np.float64)
    dists = np.sqrt(((points[:, None, :] - rx[None, :, :]) ** 2).sum(axis=2))
    dists = np.maximum(dists, DISTANCE_FLOOR)
    base = cfg.ref_power_dbm - 10.0 * cfg.path_loss_exponent * np.log10(dists)
    gains = np.asarray(cfg.pol_gain_db, dtype=np.float64)
    # Channel order: r1x, r1y, r2x, r2y, ... (receiver-major, polarization-minor).
    features = np.repeat(base, 2, axis=1) + np.tile(gains, len(cfg.rx))
    if cfg.shadowing_std_db > 0:
        noise = Rng(cfg.seed).row_normals(
            ("shadow",), len(points), cfg.shadowing_std_db, (features.shape[1],)
        )
        features = features + noise
    return Dataset(cfg.name, features, points.copy())
