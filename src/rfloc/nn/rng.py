"""Counter-based random streams.

Every consumer of randomness derives an independent Philox stream from one
run seed plus a tag tuple (for example ``("probe", epoch, sample_index)``).
Draws therefore do not depend on how many other streams were consumed or in
which order, which is what makes training and probing schedule-independent
and bit-reproducible across platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _tag_word(tag) -> int:
    if isinstance(tag, str):
        # Stable across processes, unlike the builtin hash().
        return int.from_bytes(
            hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "little"
        )
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    raise TypeError(f"stream tags must be str or int, got {type(tag).__name__}")


def _fold(k: int, tags) -> int:
    for tag in tags:
        k = _splitmix64(k ^ _tag_word(tag))
    return k


def _key_words(k: int) -> tuple[int, int]:
    """(low, high) 64-bit words of the Philox key for a folded tag chain."""
    return _splitmix64(k ^ 0xA5A5A5A5A5A5A5A5), k


class Rng:
    """Deterministic factory of independent random streams for one seed."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64

    def key(self, *tags) -> int:
        """The 128-bit Philox key of the stream keyed by (seed, tags)."""
        low, high = _key_words(_fold(_splitmix64(self.seed), tags))
        return (high << 64) | low

    def stream(self, *tags) -> np.random.Generator:
        """Return a fresh generator keyed by (seed, tags).

        The same (seed, tags) always yields the same draw sequence.
        """
        return np.random.Generator(np.random.Philox(key=self.key(*tags)))

    def row_normals(
        self, tags: tuple, n: int, scale: float, shape: tuple, offset: int = 0
    ) -> np.ndarray:
        """Row i is ``self.stream(*tags, offset + i).normal(0.0, scale,
        shape)``, bit for bit, for i in range(n); the result has shape
        (n, *shape). So rows drawn in blocks, each with its first row as
        offset, equal the rows of one draw.

        One Philox is re-keyed per row, with the zero counter and empty
        buffer of a new one, instead of building a generator per row; the
        tag prefix is folded once.
        """
        bits = np.random.Philox(key=0)
        gen = np.random.Generator(bits)
        state = bits.state
        counter = state["state"]["counter"]
        prefix = _fold(_splitmix64(self.seed), tags)
        out = np.empty((n, *shape))
        for i in range(n):
            key = np.array(_key_words(_fold(prefix, (offset + i,))), dtype=np.uint64)
            state["state"] = {"counter": counter, "key": key}
            bits.state = state
            out[i] = gen.normal(0.0, scale, shape)
        return out
