import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvae.seeding import content_key, derive_rng, per_row_normal, tag


def test_derive_rng_deterministic():
    a = derive_rng(1, 2, 3).standard_normal(5)
    b = derive_rng(1, 2, 3).standard_normal(5)
    c = derive_rng(1, 2, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tag_stable_and_distinct():
    assert tag("batch") == tag("batch")
    assert tag("batch") != tag("step_noise")


def test_content_key_equal_content_pairs_distinct_and_nonzero():
    rows = [np.arange(4.0), np.arange(4.0, 8.0), np.zeros(4), -np.ones(4)]
    same = [content_key(r, r) for r in rows]
    assert all(k != 0 for k in same)
    assert len(set(same)) == len(rows)
    x, y = rows[:2]
    # ordered: position and length are part of the key
    assert content_key(x, y) != content_key(y, x)
    assert content_key(x) != content_key(x, x)
    assert content_key(np.arange(8.0)) != content_key(x, y)


def test_per_row_normal_keyed_by_content_not_position():
    rows = [(np.array([float(i)]),) for i in range(6)]
    block = per_row_normal(7, "s", rows, (3,))
    flipped = per_row_normal(7, "s", rows[::-1], (3,))
    assert np.array_equal(block[::-1], flipped)
    other_stream = per_row_normal(7, "t", rows, (3,))
    assert not np.array_equal(block, other_stream)
    other_seed = per_row_normal(8, "s", rows, (3,))
    assert not np.array_equal(block, other_seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 6),
       st.integers(1, 12).flatmap(lambda s: st.tuples(st.integers(1, s), st.just(s))))
@example(seed=3, latent=3, counts=(3, 8))  # S' * L = 9, odd
def test_per_row_normal_prefix_property(seed, latent, counts):
    # the first S' of S draws per row are the S'-draw block, so a mixture's
    # S/M draws per row are the first S/M of that row's marginal draws
    shorter, draws = counts
    rows = [(np.array([2.5, -1.0]),), (np.array([0.0, 7.0]),)]
    short = per_row_normal(seed, "s", rows, (shorter, latent))
    long = per_row_normal(seed, "s", rows, (draws, latent))
    assert np.array_equal(long[:, :shorter], short)
    flat = per_row_normal(seed, "s", rows, (shorter * latent,))
    assert np.array_equal(flat.reshape(short.shape), short)


def test_per_row_normal_moments():
    rows = [(np.array([float(i), float(i * i)]),) for i in range(200)]
    z = per_row_normal(0, "m", rows, (50,))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02
    assert abs((z ** 4).mean() - 3.0) < 0.15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 8))
def test_per_row_normal_shapes(seed, k):
    rows = [(np.zeros(2),), (np.ones(2),)]
    out = per_row_normal(seed, "q", rows, (k, 3))
    assert out.shape == (2, k, 3)
    assert np.isfinite(out).all()
