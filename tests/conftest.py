"""Shared fixtures.

rfloc is imported before numpy anywhere else so its single-threaded BLAS
pinning takes effect for the whole test session (bit-reproducibility).
"""

import rfloc  # noqa: F401  (must precede numpy import)

import numpy as np
import pytest

from rfloc.localizer import TrainConfig, train_source
from rfloc.synthetic import SynthConfig, generate_synthetic

TARGET_RX = ((1.5, 1.5), (1.5, 8.5), (8.5, 8.5), (8.5, 1.5))


def small_source_config(seed: int = 0) -> SynthConfig:
    # 6 x 6 room keeps the trajectory short (fast tests).
    return SynthConfig(
        room=(6.0, 6.0),
        rx=((3.0, 0.5), (0.5, 3.0), (3.0, 5.5), (5.5, 3.0)),
        seed=seed,
        name="source",
    )


def small_target_config(seed: int = 1) -> SynthConfig:
    return SynthConfig(
        room=(6.0, 6.0),
        rx=((1.0, 1.0), (1.0, 5.0), (5.0, 5.0), (5.0, 1.0)),
        shadowing_std_db=4.0,
        ref_power_dbm=-36.0,
        seed=seed,
        name="target",
    )


@pytest.fixture(scope="session")
def small_source():
    return generate_synthetic(small_source_config())


@pytest.fixture(scope="session")
def small_target():
    return generate_synthetic(small_target_config())


@pytest.fixture(scope="session")
def source_model(small_source):
    """A modestly trained localizer shared by adaptation tests."""
    return train_source(small_source, TrainConfig(epochs=8, seed=0))


@pytest.fixture()
def gen():
    return np.random.default_rng(1234)
