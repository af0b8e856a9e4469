"""Adam optimizer over a ParamSet, with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericalError
from .params import ParamSet, row_blocks, scratch_for, scratch_like


class Adam:
    def __init__(
        self,
        params: ParamSet,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.value) for name, p in params.items()}
        self._scratch = (scratch_for(params), scratch_for(params))

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then zero them.

        Every gradient is checked before any value changes, so a step that
        raises leaves the parameters, moments and step count as they were.
        The update runs in place, block by block; each element goes through
        the same operations in the same order as the textbook expressions
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
        value -= lr*(m/bc1) / (sqrt(v/bc2) + eps), so the result is bit-equal
        to evaluating them whole.
        """
        for name, p in self.params.items():
            if not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        buf_a, buf_b = self._scratch
        for name, p in self.params.items():
            m, v, value, grad = self._m[name], self._v[name], p.value, p.grad
            for rows in row_blocks(value.shape):
                g, mb, vb, pb = grad[rows], m[rows], v[rows], value[rows]
                a, b = scratch_like(buf_a, g), scratch_like(buf_b, g)
                mb *= b1
                np.multiply(g, 1.0 - b1, out=a)
                mb += a
                vb *= b2
                np.multiply(g, g, out=a)
                a *= 1.0 - b2
                vb += a
                np.divide(mb, bc1, out=a)
                a *= self.lr
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                pb -= a
                g[...] = 0.0
