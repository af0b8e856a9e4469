"""Minimal float64 neural-network kernel: named parameters, handwritten
layer gradients, Adam, and counter-based random streams.

There is no autodiff graph. The networks (`rfloc.networks`) run their
layers' handwritten backward passes in reverse order against the forward
caches, which keeps the arithmetic auditable and bit-reproducible.
"""

from .rng import Rng
from .params import Param, clone_params, ema_blend
from .adam import Adam
from .layers import (
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    glorot_uniform,
    l1_loss,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)

__all__ = [
    "Adam",
    "Param",
    "Rng",
    "clone_params",
    "conv1d_backward",
    "conv1d_forward",
    "dense_backward",
    "dense_forward",
    "dropout_backward",
    "dropout_forward",
    "ema_blend",
    "glorot_uniform",
    "l1_loss",
    "relu_backward",
    "sigmoid",
    "sigmoid_backward",
]
