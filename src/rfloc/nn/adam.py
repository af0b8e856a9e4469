"""Adam optimizer over a ParamSet, with bias correction folded into two
per-step scalars. beta1, beta2 and eps are fixed at Kingma & Ba's defaults
(arXiv 1412.6980); only the learning rate is a parameter."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError
from .params import ParamSet, row_blocks, scratch_for, scratch_like


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: ParamSet, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.value) for name, p in params.items()}
        self._scratch = (scratch_for(params), scratch_for(params))

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then zero them.

        Every gradient is checked before any value changes, so a step that
        raises leaves the parameters, moments and step count as they were.

        The moments are kept unnormalized, m = b1*m + g and v = b2*v + g*g
        (the textbook moments times 1/(1-b1) and 1/(1-b2)). The (1-b)
        factors and both bias corrections fold into two per-step scalars,
        so the update is value -= lr_t*m / (sqrt(v) + eps_t) with
        s = sqrt((1-b2)/(1-b2**t)), lr_t = lr*(1-b1)/(1-b1**t)/s and
        eps_t = eps/s. In exact arithmetic this is Kingma & Ba's step
        lr*m_hat / (sqrt(v_hat) + eps); in float64 it differs from that
        expression in the last bits. The update runs in place, block by
        block, with the same operations per element as evaluating
        lr_t*m / (sqrt(v) + eps_t) on whole arrays.
        """
        for name, p in self.params.items():
            if not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        b1, b2 = BETA1, BETA2
        s = math.sqrt((1.0 - b2) / (1.0 - b2**self.t))
        lr_t = self.lr * (1.0 - b1) / (1.0 - b1**self.t) / s
        eps_t = EPS / s
        buf_a, buf_b = self._scratch
        for name, p in self.params.items():
            m, v, value, grad = self._m[name], self._v[name], p.value, p.grad
            for rows in row_blocks(value.shape):
                g, mb, vb, pb = grad[rows], m[rows], v[rows], value[rows]
                a, b = scratch_like(buf_a, g), scratch_like(buf_b, g)
                mb *= b1
                mb += g
                np.multiply(g, g, out=a)
                vb *= b2
                vb += a
                np.sqrt(vb, out=a)
                a += eps_t
                np.multiply(mb, lr_t, out=b)
                b /= a
                pb -= b
                g[...] = 0.0
