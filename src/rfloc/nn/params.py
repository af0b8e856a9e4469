"""Named parameter collections with explicit gradient buffers, and the
blocked in-place updates over them."""

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


class ParamSet:
    """Ordered name -> Param mapping.

    Different sets may share the same Param objects (see :meth:`union`);
    an optimizer step through one set is then visible through the other.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray) -> Param:
        p = Param(value)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def clone(self) -> "ParamSet":
        """Deep copy of values; fresh zero gradients."""
        out = ParamSet()
        for name, p in self._params.items():
            out.add(name, p.value.copy())
        return out

    def copy_values_from(self, other: "ParamSet") -> None:
        """Copy other's values in; other is a clone of this set."""
        for name, p in self._params.items():
            p.value = other[name].value.copy()

    @staticmethod
    def union(*sets: "ParamSet") -> "ParamSet":
        """A view over several sets, whose names are disjoint, sharing the
        underlying Param objects."""
        out = ParamSet()
        for s in sets:
            out._params.update(s.items())
        return out


# Cached: the optimizer and the EMA ask for the same few parameter shapes
# every batch, and building the slices costs about 2 us a call.
@functools.lru_cache(maxsize=256)
def row_blocks(shape: tuple[int, ...]) -> tuple:
    """Indices that split an array of this shape along its first axis
    into blocks of about BLOCK_ELEMENTS elements (at least one row each).

    Indexing with them gives views whatever the array's strides, so an
    update through them lands in the array itself; a reshape(-1) of a
    non-contiguous array would silently update a copy.
    """
    row = math.prod(shape[1:])
    step = max(1, BLOCK_ELEMENTS // max(row, 1))
    return tuple(slice(i, i + step) for i in range(0, shape[0], step))


def scratch_for(params: ParamSet) -> np.ndarray:
    """A 1-D scratch vector large enough for any block of these parameters
    (sized by the largest one; a block uses its leading part)."""
    return np.empty(max((p.value.size for _, p in params.items()), default=0))


def scratch_like(buf: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The leading block.size elements of the 1-D buf, shaped like block."""
    return buf[: block.size].reshape(block.shape)


def ema_blend(
    teacher: ParamSet, student: ParamSet, student_weight: float, teacher_weight: float
) -> None:
    """teacher <- student_weight * student + teacher_weight * teacher,
    elementwise and in place.

    The two sets are clones of one network. Both weights are given:
    deriving one as 1 - the other is not exact in floating point. The
    student term is formed before the teacher is scaled, so teacher and
    student may be the same set.
    """
    buf = scratch_for(teacher)
    for name, t in teacher.items():
        s = student[name].value
        for rows in row_blocks(t.value.shape):
            tb = t.value[rows]
            term = scratch_like(buf, tb)
            np.multiply(s[rows], student_weight, out=term)
            np.multiply(tb, teacher_weight, out=tb)
            tb += term
