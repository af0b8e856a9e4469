"""Counter-based RNG streams: determinism and independence."""

import numpy as np
import pytest

from rfloc.nn import Rng


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
