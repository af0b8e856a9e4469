"""Trainable parameters with explicit gradient buffers, and the blocked
in-place updates over name -> Param dicts of them.

Several dicts may share the same Param objects (a network's dict is the
union of its parts'); an update through one is then visible through the
others."""

from __future__ import annotations

import functools
import math

import numpy as np

# Elements per block of the in-place elementwise updates (the Adam step
# and the teacher EMA), so that a block's operands and scratch stay in L2.
# On the localizer (123,522 parameters, 2-vCPU Xeon, warm loop) one Adam
# step took 1.77 / 1.47 / 1.33 / 1.31 ms at blocks of 4k / 8k / 16k / 32k
# elements and 1.35 ms unblocked (medians of 3 rounds).
BLOCK_ELEMENTS = 1 << 15


class Param:
    """One trainable array plus its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def clone_params(params: dict[str, Param]) -> dict[str, Param]:
    """Deep copy of the values, with fresh zero gradients."""
    return {name: Param(p.value.copy()) for name, p in params.items()}


# Cached: the optimizer and the EMA ask for the same few parameter shapes
# every batch, and building the slices costs about 2 us a call.
@functools.lru_cache(maxsize=256)
def update_blocks(shape: tuple[int, ...]) -> tuple:
    """Indices that split an array of this shape along its first axis
    into blocks of about BLOCK_ELEMENTS elements (at least one row each).

    Indexing with them gives views whatever the array's strides, so an
    update through them lands in the array itself; a reshape(-1) of a
    non-contiguous array would silently update a copy.
    """
    row = math.prod(shape[1:])
    step = max(1, BLOCK_ELEMENTS // max(row, 1))
    return tuple(slice(i, i + step) for i in range(0, shape[0], step))


def scratch_for(params: dict[str, Param]) -> np.ndarray:
    """A 1-D scratch vector large enough for any block of these parameters
    (sized by the largest one; a block uses its leading part)."""
    return np.empty(max((p.value.size for p in params.values()), default=0))


def scratch_like(buf: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The leading block.size elements of the 1-D buf, shaped like block."""
    return buf[: block.size].reshape(block.shape)


def ema_blend(teacher: dict, student: dict, student_weight: float, teacher_weight: float) -> None:
    """teacher <- student_weight * student + teacher_weight * teacher,
    elementwise and in place.

    The two name -> Param dicts are clones of one network's parameters.
    Both weights are given: deriving one as 1 - the other is not exact in
    floating point. The student term is formed before the teacher is
    scaled, so teacher and student may be the same dict.
    """
    buf = scratch_for(teacher)
    for name, t in teacher.items():
        s = student[name].value
        for rows in update_blocks(t.value.shape):
            tb = t.value[rows]
            term = scratch_like(buf, tb)
            np.multiply(s[rows], student_weight, out=term)
            np.multiply(tb, teacher_weight, out=tb)
            tb += term
