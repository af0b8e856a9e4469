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
_KEY_LOW_MIX = 0xA5A5A5A5A5A5A5A5
# Rows whose Philox keys row_normals derives at once (16 KiB of keys).
KEY_CHUNK_ROWS = 1024


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """_splitmix64 of every element of a uint64 array, bit for bit: uint64
    array arithmetic wraps modulo 2^64 as the masks above do."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _tag_word(tag) -> int:
    """The 64-bit word of a str or int tag."""
    if isinstance(tag, str):
        # Stable across processes, unlike the builtin hash().
        return int.from_bytes(
            hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "little"
        )
    return int(tag) & _MASK64


def _fold(k: int, tags) -> int:
    for tag in tags:
        k = _splitmix64(k ^ _tag_word(tag))
    return k


def _key_words(k: int) -> tuple[int, int]:
    """(low, high) 64-bit words of the Philox key for a folded tag chain."""
    return _splitmix64(k ^ _KEY_LOW_MIX), k


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
        tag prefix is folded once, and the row keys are derived as uint64
        arrays, KEY_CHUNK_ROWS rows at a time.
        """
        bits = np.random.Philox(key=0)
        gen = np.random.Generator(bits)
        state = bits.state
        counter = state["state"]["counter"]
        prefix = np.uint64(_fold(_splitmix64(self.seed), tags))
        out = np.empty((n, *shape))
        for start in range(0, n, KEY_CHUNK_ROWS):
            rows = min(KEY_CHUNK_ROWS, n - start)
            # Row i's key is _key_words(_fold(prefix, (offset + i,))).
            row_tags = np.arange(rows, dtype=np.uint64) + np.uint64((offset + start) & _MASK64)
            keys = np.empty((rows, 2), dtype=np.uint64)
            keys[:, 1] = _splitmix64_array(prefix ^ row_tags)
            keys[:, 0] = _splitmix64_array(keys[:, 1] ^ np.uint64(_KEY_LOW_MIX))
            for i, key in enumerate(keys, start):
                state["state"] = {"counter": counter, "key": key}
                bits.state = state
                out[i] = gen.normal(0.0, scale, shape)
        return out
