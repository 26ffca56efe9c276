import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvae.data import (
    DegenerateMapError,
    FactorSpec,
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


def test_mixing_maps_degenerate_errors_after_retries():
    bad = FactorSpec(num_classes=5, obs_dims=(3, 3), private_dims=(0, 0))
    with pytest.raises(DegenerateMapError):
        mixing_maps(bad)


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
    with pytest.raises(ValueError):
        pair_related(SPEC, x, y_missing, pairs_per_instance=2, seed=0)


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
