import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvae.models import ModalitySpec, build_model
from cmvae.seeding import derive_rng, per_row_normal, row_keys, tag


def test_derive_rng_deterministic():
    a = derive_rng(1, 2, 3).standard_normal(5)
    b = derive_rng(1, 2, 3).standard_normal(5)
    c = derive_rng(1, 2, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tag_stable_and_distinct():
    assert tag("batch") == tag("batch")
    assert tag("batch") != tag("step_noise")


def test_row_keys_equal_content_pairs_distinct_and_nonzero():
    rows = [np.arange(4.0), np.arange(4.0, 8.0), np.zeros(4), -np.ones(4)]
    same = row_keys(np.stack([np.concatenate([r, r]) for r in rows]))
    assert same.dtype == np.uint64 and same.shape == (4,)
    assert np.all(same != 0)
    assert len(set(same.tolist())) == len(rows)
    x, y = rows[:2]
    # ordered: each word is tagged with its position, and the width is folded in
    assert row_keys(np.concatenate([x, y])[None]) != row_keys(np.concatenate([y, x])[None])
    assert row_keys(x[None]) != row_keys(np.concatenate([x, x])[None])
    assert row_keys(np.zeros((1, 1))) != row_keys(np.zeros((1, 2)))


floats = st.floats(allow_nan=False, width=64)


def neighbours(row: np.ndarray) -> list[np.ndarray]:
    """The row, one-ulp steps of each entry, and each zero with its sign flipped."""
    out = [row]
    for j in range(row.size):
        flips = [-row[j]] if row[j] == 0 else []
        with np.errstate(over="ignore"):  # the largest finite value steps to inf
            ulps = [np.nextafter(row[j], np.inf), np.nextafter(row[j], -np.inf)]
        for step in ulps + flips:
            other = row.copy()
            other[j] = step
            out.append(other)
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(st.lists(floats, min_size=w, max_size=w),
                                                     min_size=1, max_size=6)))
@example(rows=[[0.0, 0.0], [1.0, -0.0]])
def test_row_keys_no_collisions_among_neighbours(rows):
    base = [np.array(r, dtype=np.float64) for r in rows]
    cands = [n for r in base for n in neighbours(r)]
    distinct = {c.tobytes(): c for c in cands}  # -x == x only for x == 0, whose words differ
    keys = row_keys(np.stack(list(distinct.values())))
    assert len(set(keys.tolist())) == len(distinct)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(floats, min_size=3, max_size=3), min_size=2, max_size=8, unique_by=tuple))
def test_row_keys_concatenation_order_and_repeats(rows):
    rows = np.array(rows, dtype=np.float64)
    a, b = rows[:-1], rows[1:]
    ab = row_keys(np.concatenate([a, b], axis=1))
    ba = row_keys(np.concatenate([b, a], axis=1))
    assert np.all(ab != ba)
    doubled = row_keys(np.concatenate([rows, rows], axis=1))
    assert np.all(doubled != 0)
    assert len(set(doubled.tolist())) == len(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**62), st.integers(2, 10), st.integers(1, 4), st.randoms(use_true_random=False))
def test_row_keys_and_noise_follow_batch_permutation(seed, n, width, rnd):
    rows = derive_rng(seed, 1).standard_normal((n, width))
    perm = np.array(rnd.sample(range(n), n))
    assert np.array_equal(row_keys(rows[perm]), row_keys(rows)[perm])
    block = per_row_normal(seed, "s", rows, (3,))
    assert np.array_equal(per_row_normal(seed, "s", rows[perm], (3,)), block[perm])


@pytest.mark.parametrize("joint_kind", ["poe", "moe"])
def test_pair_noise_invariant_to_modality_list_order(joint_kind):
    # PoE keys on the pair's rows concatenated in canonical name order, MoE on each modality's row
    mods = [ModalitySpec("m1", 3, "gaussian"), ModalitySpec("m2", 2, "gaussian")]
    fwd = build_model(mods, latent_dim=2, hidden_dim=4, joint_kind=joint_kind, seed=1)
    rev = build_model(list(reversed(mods)), latent_dim=2, hidden_dim=4, joint_kind=joint_kind, seed=1)
    for k in fwd.params:
        rev.params[k].value = fwd.params[k].value.copy()
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    z_fwd, _ = fwd.joint_posterior_samples({"m1": x, "m2": y}, 4, seed=9)
    z_rev, _ = rev.joint_posterior_samples({"m2": y, "m1": x}, 4, seed=9)
    assert np.array_equal(z_fwd.value, z_rev.value)
    # untrained heads are N(0, I): the PoE of two with the prior is N(0, I / 3), and each
    # mixture component's draws are its noise
    if joint_kind == "poe":
        noise = per_row_normal(9, "joint_posterior", np.concatenate([x, y], axis=1), (4, 2))
        assert np.array_equal(z_fwd.value, np.exp(-0.5 * np.log(3.0)) * noise)
    else:
        noise = [per_row_normal(9, f"joint_posterior.{m}", obs, (2, 2)) for m, obs in (("m1", x), ("m2", y))]
        assert np.array_equal(z_fwd.value, np.concatenate(noise, axis=1))


def test_per_row_normal_keyed_by_content_not_position():
    rows = np.arange(6.0)[:, None]
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
    rows = np.array([[2.5, -1.0], [0.0, 7.0]])
    short = per_row_normal(seed, "s", rows, (shorter, latent))
    long = per_row_normal(seed, "s", rows, (draws, latent))
    assert np.array_equal(long[:, :shorter], short)
    flat = per_row_normal(seed, "s", rows, (shorter * latent,))
    assert np.array_equal(flat.reshape(short.shape), short)


def test_per_row_normal_moments():
    i = np.arange(200.0)
    z = per_row_normal(0, "m", np.stack([i, i * i], axis=1), (50,))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02
    assert abs((z ** 4).mean() - 3.0) < 0.15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**62), st.integers(1, 8))
def test_per_row_normal_shapes(seed, k):
    rows = np.array([np.zeros(2), np.ones(2)])
    out = per_row_normal(seed, "q", rows, (k, 3))
    assert out.shape == (2, k, 3)
    assert np.isfinite(out).all()
