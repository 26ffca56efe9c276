import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvae.data import (
    FactorSpec,
    UnimodalData,
    generate_unimodal,
    make_related_dataset,
    mixing_maps,
    pair_random,
    pair_related,
    subset,
)
from cmvae.evaluation import OracleClassifier


SPEC = FactorSpec()  # C=5, two 16-dim gaussian modalities, private 3, noise 0.1


def test_spec_validation():
    with pytest.raises(ValueError):
        FactorSpec(num_classes=1)
    with pytest.raises(ValueError):
        FactorSpec(obs_dims=(16,))


def test_mixing_maps_rank_and_determinism():
    maps = mixing_maps(SPEC)
    again = mixing_maps(SPEC)
    for name in SPEC.modality_names:
        shared, private = maps[name]
        assert shared.shape == (16, 5) and private.shape == (16, 3)
        assert np.linalg.matrix_rank(shared) == 5
        assert np.array_equal(shared, again[name][0])


def test_spec_rejects_obs_dim_below_num_classes():
    # A shared map narrower than the class count cannot have full rank.
    with pytest.raises(ValueError, match="must be >= num_classes 5"):
        FactorSpec(num_classes=5, obs_dims=(3, 3), private_dims=(0, 0))
    with pytest.raises(ValueError, match="must be >= num_classes 5"):
        FactorSpec(num_classes=5, obs_dims=(16, 4))
    FactorSpec(num_classes=5, obs_dims=(5, 5))


def test_generate_balanced_and_deterministic():
    data = generate_unimodal(SPEC, 103, "m1", seed=5)
    counts = np.bincount(data.labels, minlength=5)
    assert counts.max() - counts.min() <= 1
    again = generate_unimodal(SPEC, 103, "m1", seed=5)
    assert np.array_equal(data.observations, again.observations)
    other = generate_unimodal(SPEC, 103, "m1", seed=6)
    assert not np.array_equal(data.observations, other.observations)


def test_generate_requires_enough_items():
    with pytest.raises(ValueError):
        generate_unimodal(SPEC, 3, "m1", seed=0)


def test_noiseless_private_free_generation_collapses_to_class_atoms():
    spec = FactorSpec(obs_dims=(8, 8), private_dims=(0, 0), noise_scale=0.0)
    data = generate_unimodal(spec, 50, "m1", seed=1)
    uniq = np.unique(np.round(data.observations, 12), axis=0)
    assert uniq.shape[0] == 5


def test_bernoulli_observations_live_in_unit_interval():
    spec = FactorSpec(likelihoods=("bernoulli", "bernoulli"))
    data = generate_unimodal(spec, 60, "m1", seed=2)
    assert data.observations.min() >= 0.0 and data.observations.max() <= 1.0


def test_bayes_oracle_accuracy_at_default_noise():
    for likelihoods in (("gaussian", "gaussian"), ("bernoulli", "bernoulli")):
        spec = FactorSpec(likelihoods=likelihoods)
        data = generate_unimodal(spec, 500, "m1", seed=3)
        oracle = OracleClassifier.for_modality(spec, "m1")
        acc = np.mean(oracle.classify(data.observations) == data.labels)
        assert acc >= 0.99


def test_pair_related_all_related_and_counts():
    x = generate_unimodal(SPEC, 40, "m1", seed=4)
    y = generate_unimodal(SPEC, 40, "m2", seed=5)
    ds = pair_related(SPEC, x, y, pairs_per_instance=30, seed=6)
    assert len(ds) == 30 * 40
    assert ds.related.all()
    labels = ds.pair_labels()
    assert np.array_equal(labels["m1"], labels["m2"])


def test_pair_related_missing_class_errors():
    x = generate_unimodal(SPEC, 40, "m1", seed=4)
    y = generate_unimodal(SPEC, 40, "m2", seed=5)
    from cmvae.data import UnimodalData
    mask = y.labels != 3
    y_missing = UnimodalData("m2", y.observations[mask], y.labels[mask])
    with pytest.raises(ValueError, match="class 3 present in 'm1' but absent in 'm2'"):
        pair_related(SPEC, x, y_missing, pairs_per_instance=2, seed=0)


def test_pair_related_rejects_pools_out_of_spec_order():
    # swapped, every flag would be computed across the wrong pools: 0.14 of them read 1
    x = generate_unimodal(SPEC, 50, "m1", seed=1)
    y = generate_unimodal(SPEC, 50, "m2", seed=2)
    with pytest.raises(ValueError, match=r"spec's order \('m1', 'm2'\), got \('m2', 'm1'\)"):
        pair_related(SPEC, y, x, pairs_per_instance=1, seed=3)


def test_pair_random_rejects_pools_out_of_spec_order():
    # swapped, the 60-row m2 pool's indices overran the 50-row m1 pool: an IndexError
    x = generate_unimodal(SPEC, 50, "m1", seed=1)
    y = generate_unimodal(SPEC, 60, "m2", seed=2)
    with pytest.raises(ValueError, match=r"spec's order \('m1', 'm2'\), got \('m2', 'm1'\)"):
        pair_random(SPEC, y, x, seed=3)


def labelled(modality, labels):
    labels = np.asarray(labels, dtype=np.int64)
    return UnimodalData(modality, np.arange(float(labels.size))[:, None], labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda c: st.tuples(
           st.lists(st.integers(0, c - 1), min_size=1, max_size=30),
           st.lists(st.integers(0, c - 1), min_size=0, max_size=30), st.just(c))),
       st.integers(1, 5), st.integers(0, 2**32))
def test_pair_related_same_class_distinct_and_deterministic(labels, ppi, seed):
    x_labels, extra, num_classes = labels
    x = labelled("m1", x_labels)
    y = labelled("m2", list(range(num_classes)) + extra)  # every class has a pool
    ds = pair_related(SPEC, x, y, pairs_per_instance=ppi, seed=seed)
    assert np.array_equal(ds.pairs[:, 0], np.repeat(np.arange(x.labels.size), ppi))
    partners = ds.pairs[:, 1].reshape(-1, ppi)
    assert np.array_equal(y.labels[partners], np.repeat(x.labels[:, None], ppi, axis=1))
    for c in np.unique(x.labels):
        if np.count_nonzero(y.labels == c) >= ppi:
            rows = partners[x.labels == c]
            assert all(len(set(r.tolist())) == ppi for r in rows)  # an item's partners are distinct
    again = pair_related(SPEC, x, y, pairs_per_instance=ppi, seed=seed)
    assert np.array_equal(again.pairs, ds.pairs)


def test_pair_related_draws_iid_per_item():
    # one partner per item from an equal-sized pool: an iid uniform draw
    # leaves about 1/e of the pool unpaired (sd about 0.011 here)
    n = 2000
    x, y = labelled("m1", np.zeros(n)), labelled("m2", np.zeros(n))
    partners = pair_related(SPEC, x, y, pairs_per_instance=1, seed=0).pairs[:, 1]
    unused = 1.0 - np.unique(partners).size / n
    assert abs(unused - math.exp(-1.0)) < 0.04, unused


def test_pair_related_uniform_per_position():
    # over many seeds, each partner slot takes each pool row equally often,
    # both drawing without replacement (ppi <= pool) and with it (ppi > pool):
    # chi-square with pool - 1 = 4 degrees of freedom
    x, y, seeds = labelled("m1", [0, 0]), labelled("m2", [1, 0, 0, 0, 1, 0, 0]), 2000
    pool = np.flatnonzero(y.labels == 0)
    for ppi in (3, 7):
        draws = np.stack([pair_related(SPEC, x, y, pairs_per_instance=ppi, seed=s).pairs[:, 1]
                          for s in range(seeds)])
        for slot in range(draws.shape[1]):
            counts = np.bincount(draws[:, slot], minlength=y.labels.size)
            assert counts[[0, 4]].sum() == 0
            expect = seeds / pool.size
            chi2 = float(((counts[pool] - expect) ** 2 / expect).sum())
            assert chi2 < 23.5, (ppi, slot, counts)  # p = 1e-4 at 4 dof


def test_pair_related_seed_changes_the_pairing():
    x = generate_unimodal(SPEC, 40, "m1", seed=4)
    y = generate_unimodal(SPEC, 40, "m2", seed=5)
    a = pair_related(SPEC, x, y, pairs_per_instance=3, seed=0).pairs
    b = pair_related(SPEC, x, y, pairs_per_instance=3, seed=1).pairs
    assert not np.array_equal(a, b)


def test_pair_related_perfect_matching_case():
    spec = FactorSpec(num_classes=5, obs_dims=(8, 8), private_dims=(0, 0))
    x = generate_unimodal(spec, 5, "m1", seed=1)
    y = generate_unimodal(spec, 5, "m2", seed=2)
    ds = pair_related(spec, x, y, pairs_per_instance=1, seed=3)
    assert len(ds) == 5
    assert sorted(ds.pairs[:, 1].tolist()) == [0, 1, 2, 3, 4]


def test_pair_random_related_fraction():
    for c, n in ((2, 4000), (10, 10000)):
        spec = FactorSpec(num_classes=c, obs_dims=(max(c, 8), max(c, 8)), private_dims=(1, 1))
        x = generate_unimodal(spec, n, "m1", seed=7)
        y = generate_unimodal(spec, n, "m2", seed=8)
        ds = pair_random(spec, x, y, seed=9)
        frac = ds.related.mean()
        ci = 4 * math.sqrt((1 / c) * (1 - 1 / c) / n)
        assert abs(frac - 1 / c) < ci


def test_pair_random_deterministic():
    x = generate_unimodal(SPEC, 30, "m1", seed=1)
    y = generate_unimodal(SPEC, 30, "m2", seed=2)
    a = pair_random(SPEC, x, y, seed=3)
    b = pair_random(SPEC, x, y, seed=3)
    assert np.array_equal(a.pairs, b.pairs)


def test_subset_identity_at_100():
    ds = make_related_dataset(SPEC, 60, seed=11, pairs_per_instance=2)
    same = subset(ds, 100.0, seed=99)
    assert np.array_equal(same.pairs, ds.pairs)
    assert np.array_equal(same.observations["m1"], ds.observations["m1"])


def test_subset_stratified_and_related():
    ds = make_related_dataset(SPEC, 200, seed=12, pairs_per_instance=1)
    small = subset(ds, 20.0, seed=13)
    for name in ("m1", "m2"):
        counts = np.bincount(small.labels[name], minlength=5)
        assert counts.max() - counts.min() <= 1
        assert len(small.labels[name]) == 40
    assert small.related.all()


def test_subset_bounds():
    ds = make_related_dataset(SPEC, 60, seed=14)
    with pytest.raises(ValueError):
        subset(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        subset(ds, 1.0, seed=0)  # under one item per class


def test_relatedness_flag_definition_holds_everywhere():
    ds = make_related_dataset(SPEC, 50, seed=15, pairs_per_instance=3)
    labels = ds.pair_labels()
    assert np.array_equal(ds.related.astype(bool), labels["m1"] == labels["m2"])
    x = generate_unimodal(SPEC, 50, "m1", seed=16)
    y = generate_unimodal(SPEC, 50, "m2", seed=17)
    mixed = pair_random(SPEC, x, y, seed=18)
    lab = mixed.pair_labels()
    assert np.array_equal(mixed.related.astype(bool), lab["m1"] == lab["m2"])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generation_pure_in_seed(seed):
    a = generate_unimodal(SPEC, 25, "m2", seed=seed)
    b = generate_unimodal(SPEC, 25, "m2", seed=seed)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.labels, b.labels)
