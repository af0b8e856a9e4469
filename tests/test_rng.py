"""Counter-based RNG streams: determinism and independence."""

import tracemalloc

import numpy as np
import pytest

from rfloc.nn.rng import KEY_CHUNK_ROWS, Rng, _splitmix64, _splitmix64_array
from util import row_normals_rowwise


def test_same_tags_same_stream():
    a = Rng(7).stream("aug", 3, 11).normal(size=10)
    b = Rng(7).stream("aug", 3, 11).normal(size=10)
    assert np.array_equal(a, b)


def test_different_tags_differ():
    base = Rng(7)
    a = base.stream("aug", 3, 11).normal(size=10)
    b = base.stream("aug", 3, 12).normal(size=10)
    c = base.stream("dropout", 3, 11).normal(size=10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_different_seeds_differ():
    a = Rng(0).stream("x").normal(size=10)
    b = Rng(1).stream("x").normal(size=10)
    assert not np.array_equal(a, b)


def test_stream_independent_of_draw_order():
    # Drawing from one stream must not perturb another: streams are keyed
    # by tags alone, not by how much randomness was consumed before.
    rng = Rng(42)
    first = rng.stream("a", 0)
    first.normal(size=1000)
    fresh = rng.stream("b", 0).normal(size=5)
    again = Rng(42).stream("b", 0).normal(size=5)
    assert np.array_equal(fresh, again)


def test_string_and_int_tags_mix():
    rng = Rng(3)
    v1 = rng.stream("probe", 0, 1).integers(0, 1 << 30)
    v2 = rng.stream("probe", 1, 0).integers(0, 1 << 30)
    assert v1 != v2


def test_stream_statistics():
    # Uniformity smoke check: mean of many draws approaches 0.5.
    u = Rng(5).stream("u").random(200_000)
    assert abs(u.mean() - 0.5) < 5e-3


def test_key_is_pinned():
    # Changing the key derivation would silently change every artifact.
    assert Rng(5).key("probe", 0, 3) == (320261264701941647 << 64) | 8431705343144053722
    gen = np.random.Generator(np.random.Philox(key=Rng(5).key("probe", 0, 3)))
    assert np.array_equal(gen.normal(size=6), Rng(5).stream("probe", 0, 3).normal(size=6))


@pytest.mark.parametrize("seed", [0, 9, (1 << 64) + 3])
@pytest.mark.parametrize(
    "tags, n, shape",
    [
        (("probe", 4), 0, (10, 8)),
        (("probe", 4), 1, (10, 8)),
        (("probe", 0), 33, (3, 8)),
        (("shadow",), 57, (8,)),
        ((), 5, (2, 3, 2)),
    ],
)
def test_row_normals_match_per_row_streams(seed, tags, n, shape):
    rng = Rng(seed)
    rows = rng.row_normals(tags, n, 0.7, shape)
    assert rows.shape == (n, *shape)
    for i in range(n):
        assert np.array_equal(rows[i], rng.stream(*tags, i).normal(0.0, 0.7, size=shape)), i


@pytest.mark.parametrize("offset, n", [(0, 5), (3, 7), (256, 1), (255, 300), (1000, 29)])
def test_row_normals_offset_rows_are_a_slice_of_the_unblocked_draw(offset, n):
    rng = Rng(11)
    whole = rng.row_normals(("probe", 2), offset + n, 0.3, (4, 8))
    rows = rng.row_normals(("probe", 2), n, 0.3, (4, 8), offset=offset)
    assert np.array_equal(rows, whole[offset:])


def test_row_normals_in_blocks_equal_one_draw():
    rng = Rng(12)
    whole = rng.row_normals(("probe", 0), 1029, 0.5, (10, 8))
    blocks = [rng.row_normals(("probe", 0), min(256, 1029 - s), 0.5, (10, 8), offset=s)
              for s in range(0, 1029, 256)]
    assert np.array_equal(np.concatenate(blocks), whole)


@pytest.mark.parametrize("offset", [0, 255, (1 << 32) + 5, 1 << 63, (1 << 64) - 2])
def test_row_normals_keys_equal_per_row_streams_across_key_chunks(offset):
    # The rows straddle two key chunks, and the last offset wraps the row
    # tag past 2^64 as int tags do.
    rng = Rng(21)
    n = KEY_CHUNK_ROWS + 3
    rows = rng.row_normals(("probe", 3), n, 0.5, (2,), offset=offset)
    assert rows.tobytes() == row_normals_rowwise(rng, ("probe", 3), n, 0.5, (2,), offset).tobytes()
    for i in range(n):
        expected = rng.stream("probe", 3, offset + i).normal(0.0, 0.5, size=(2,))
        assert np.array_equal(rows[i], expected), i


def test_row_normals_blocks_that_cross_key_chunks_equal_one_draw():
    rng = Rng(13)
    n = 2 * KEY_CHUNK_ROWS + 11
    whole = rng.row_normals(("shadow",), n, 2.0, (8,))
    starts = [0, KEY_CHUNK_ROWS - 5, KEY_CHUNK_ROWS + 7, n]
    blocks = [rng.row_normals(("shadow",), b - a, 2.0, (8,), offset=a)
              for a, b in zip(starts, starts[1:])]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_splitmix64_array_equals_the_int_form():
    words = [0, 1, 255, (1 << 32) + 5, (1 << 63), (1 << 64) - 1, 0x9E3779B97F4A7C15]
    words += np.random.default_rng(0).integers(0, 1 << 63, 50, dtype=np.uint64).tolist()
    mixed = _splitmix64_array(np.array(words, dtype=np.uint64))
    assert mixed.tolist() == [_splitmix64(w) for w in words]


def test_row_normals_memory_grows_only_by_its_output():
    # Keys derived a chunk at a time peaked 67 KiB beyond the 20,000-row
    # output; deriving all 20,000 keys at once peaked 625 KiB beyond it.
    rng = Rng(2)
    n = 20_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rng.row_normals(("shadow",), n, 1.0, (1,))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - n * 8 < 128 * 1024
