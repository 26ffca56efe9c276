import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvae.bounds import (bound_from_log_weights, iwae, joint_log_weights, mixture_joint_log_weights,
                          unimodal_draws, unimodal_marginal)
from cmvae.data import FactorSpec, generate_unimodal, make_related_dataset, pair_random
from cmvae.evaluation import AnalyticLinearModel, LinearGaussianOracle
from cmvae.models import ModalitySpec, MultimodalModel, build_model
from cmvae.relatedness import (
    PropagationConfig,
    carve_pipeline_datasets,
    estimate_threshold,
    merge_predicted,
    pmi,
    precision_recall_f1,
    propagate,
    score_dataset,
)


def bivariate_oracle(a=2.0, noise=1.0):
    mat = np.array([[a]])
    return LinearGaussianOracle(loadings={"m1": mat, "m2": mat}, noise_var=noise)


def test_pmi_exact_zero_for_factorized_constant_weights():
    oracle = LinearGaussianOracle(loadings={"m1": np.zeros((2, 1)), "m2": np.zeros((2, 1))},
                                  noise_var=1.5)
    model = AnalyticLinearModel(oracle)  # exact posterior == prior, weights constant
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal((40, 2))
    vals = pmi(model, x, y, 8, seed=3)
    # constant weights: zero up to float associativity across the three terms
    assert np.abs(vals).max() < 1e-12


def test_pmi_factorized_monte_carlo_small():
    oracle = LinearGaussianOracle(loadings={"m1": np.zeros((2, 1)), "m2": np.zeros((2, 1))},
                                  noise_var=1.5)
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.3)  # non-constant weights
    rng = np.random.default_rng(1)
    x = np.sqrt(1.5) * rng.standard_normal((300, 2))
    y = np.sqrt(1.5) * rng.standard_normal((300, 2))
    vals = pmi(model, x, y, 30, seed=5)
    assert abs(vals.mean()) < 0.05


def test_pmi_bivariate_correlation_value():
    model = AnalyticLinearModel(bivariate_oracle())
    val = pmi(model, np.zeros((1, 1)), np.zeros((1, 1)), 30, seed=7)[0]
    # exact encoders give constant weights: the estimate is exact
    assert val == pytest.approx(-0.5 * math.log(1 - 0.8 ** 2), abs=1e-9)
    assert val == pytest.approx(0.510826, abs=5e-7)


def test_pmi_symmetric_with_exact_encoders():
    model = AnalyticLinearModel(bivariate_oracle())
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 1))
    y = rng.standard_normal((20, 1))
    fwd = pmi(model, x, y, 16, seed=9)
    swapped = pmi(model, y, x, 16, seed=9)
    assert np.allclose(fwd, swapped, atol=1e-9)


LIKELIHOOD_PAIRS = [("gaussian", "gaussian"), ("bernoulli", "bernoulli"), ("bernoulli", "gaussian")]


def perturbed_model(likelihoods, joint_kind="moe", seed=1):
    """A small model moved away from its initialisation, so no term is constant."""
    mods = [ModalitySpec("m1", 5, likelihoods[0]), ModalitySpec("m2", 4, likelihoods[1])]
    model = build_model(mods, latent_dim=3, hidden_dim=8, joint_kind=joint_kind, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.value = p.value + 0.3 * rng.standard_normal(p.value.shape)
    return model


def random_pairs(model, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(size=(n, m.obs_dim)) if m.likelihood == "bernoulli"
            else rng.standard_normal((n, m.obs_dim)) for m in model.modalities]


@pytest.mark.parametrize("likelihoods", LIKELIHOOD_PAIRS)
def test_moe_pmi_terms_match_separate_estimators(likelihoods):
    model = perturbed_model(likelihoods)
    x, y = random_pairs(model, 9, seed=2)
    names = ("m1", "m2")
    obs = dict(zip(names, (x, y)))
    draws = {n: unimodal_draws(model, n, obs[n], 6, seed=3) for n in obs}
    log_w = mixture_joint_log_weights(model, obs, draws)
    assert np.array_equal(log_w.value, joint_log_weights(model, obs, 6, seed=3).value)
    joint = bound_from_log_weights(log_w, "iwae").value
    alone = iwae(model, x, y, 6, seed=3).value
    np.testing.assert_allclose(joint, alone, rtol=1e-12, atol=0)
    marginals = [unimodal_marginal(model, n, obs[n], 6, seed=3).value for n in names]
    for n, marginal in zip(names, marginals):
        assert np.array_equal(unimodal_marginal(model, n, obs[n], 6, 3, draws[n]).value, marginal)
    with pytest.raises(ValueError, match="do not match"):
        unimodal_marginal(model, names[0], x, 4, 3, draws[names[0]])
    with pytest.raises(ValueError, match="do not match"):
        unimodal_marginal(model, names[0], x[:5], 6, 3, draws[names[0]])
    np.testing.assert_allclose(pmi(model, x, y, 6, seed=3), alone - marginals[0] - marginals[1],
                               rtol=0, atol=1e-12 * np.abs(alone).max())
    with pytest.raises(ValueError, match="divisible by 2"):
        pmi(model, x, y, 5, seed=3)
    three = build_model(model.modalities + [ModalitySpec("m3", 2, "gaussian")], latent_dim=3,
                        hidden_dim=8, joint_kind="moe", seed=1)
    with pytest.raises(ValueError, match="two-modality"):
        pmi(three, x, y, 6, seed=3)


@pytest.mark.parametrize("joint_kind", ["moe", "poe"])
def test_score_dataset_independent_of_chunk_and_pair_order(joint_kind):
    spec = FactorSpec(num_classes=3, obs_dims=(5, 4), private_dims=(1, 1),
                      likelihoods=("bernoulli", "gaussian"))
    # 48 pairs, so no chunk of 7 holds one row: numpy hands a one-row product
    # to BLAS gemv, which rounds differently from the gemm of larger chunks
    mixed = pair_random(spec, generate_unimodal(spec, 48, "m1", 1),
                        generate_unimodal(spec, 48, "m2", 2), seed=3)
    model = perturbed_model(spec.likelihoods, joint_kind)
    scores = score_dataset(model, mixed, 6, seed=4)
    assert np.array_equal(score_dataset(model, mixed, 6, seed=4, chunk=7), scores)
    perm = np.random.default_rng(5).permutation(len(mixed))
    shuffled = replace(mixed, pairs=mixed.pairs[perm], related=mixed.related[perm])
    assert np.array_equal(score_dataset(model, shuffled, 6, seed=4, chunk=7), scores[perm])


def test_fresh_moe_with_zeroed_decoders_scores_zero_pmi():
    mods = [ModalitySpec("m1", 5, "bernoulli"), ModalitySpec("m2", 4, "gaussian")]
    model = build_model(mods, latent_dim=3, hidden_dim=8, joint_kind="moe", seed=5)
    x, y = random_pairs(model, 12, seed=6)
    for name, obs in (("m1", x), ("m2", y)):
        q = model.encode_unimodal(name, obs)  # zero heads: q is the prior
        assert not q.mean.value.any() and not q.log_var.value.any()
    for k, p in model.params.items():
        if k.startswith("dec."):
            p.value = np.zeros_like(p.value)
    assert np.abs(pmi(model, x, y, 30, seed=7)).max() < 1e-12


def test_moe_scoring_decodes_3k_rows_per_pair(monkeypatch):
    rows = []
    decode = MultimodalModel.decode

    def counting_decode(self, name, z):
        rows.append(int(np.prod(z.shape[:-1])))
        return decode(self, name, z)

    monkeypatch.setattr(MultimodalModel, "decode", counting_decode)
    spec = FactorSpec(num_classes=3, obs_dims=(5, 4), private_dims=(1, 1))
    mixed = pair_random(spec, generate_unimodal(spec, 20, "m1", 1),
                        generate_unimodal(spec, 20, "m2", 2), seed=3)
    score_dataset(perturbed_model(spec.likelihoods), mixed, 30, seed=4, chunk=8)
    assert sum(rows) == 3 * 30 * len(mixed)


def test_estimate_threshold_separable_case():
    scores = np.array([2.0, 3.0, -1.0, 0.0])
    truth = np.array([1, 1, 0, 0])
    thr = estimate_threshold(scores, truth)
    assert thr == pytest.approx(1.0)
    _, _, f1 = precision_recall_f1(scores > thr, truth.astype(bool))
    assert f1 == 1.0


def test_estimate_threshold_interleaved_sweep_matches_bruteforce():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(40)
    truth = rng.integers(0, 2, size=40).astype(bool)
    if truth.all() or (~truth).all():
        truth[0] = ~truth[0]
    thr = estimate_threshold(scores, truth)

    def f1_at(t):
        return precision_recall_f1(scores > t, truth)[2]

    # brute force over a fine grid plus the candidate boundaries
    grid = np.concatenate([np.linspace(scores.min() - 1, scores.max() + 1, 4001)])
    best = max(f1_at(t) for t in grid)
    assert f1_at(thr) == pytest.approx(best, abs=1e-12)
    assert best < 1.0


def test_estimate_threshold_degenerate_inputs():
    with pytest.raises(ValueError):
        estimate_threshold(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        estimate_threshold(np.array([5.0, 5.0, 5.0]), np.array([1, 0, 1]))


def test_estimate_threshold_tie_prefers_larger():
    # both boundaries reach F1 = 1; the larger midpoint must win
    scores = np.array([10.0, 0.0, 0.0, -10.0])
    truth = np.array([1, 1, 0, 0])
    # scores 0.0 appear in both classes: end F1 < 1, interleaved; use distinct
    scores = np.array([10.0, 4.0, 2.0, -10.0])
    thr = estimate_threshold(scores, truth)
    assert thr == pytest.approx(3.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5000, 5000).map(lambda k: k / 100.0), min_size=4, max_size=24),
       st.floats(0.5, 3.0, allow_subnormal=False), st.floats(-5, 5, allow_subnormal=False))
def test_threshold_invariant_to_monotone_transform(raw, a, b):
    # rank statistic: the induced prediction set survives any well-scaled
    # strictly increasing affine transform of the scores
    scores = np.asarray(raw)
    truth = (np.arange(len(scores)) % 2).astype(bool)
    transformed = a * scores + b
    if np.unique(scores).size < 2 or np.unique(transformed).size != np.unique(scores).size:
        return
    thr = estimate_threshold(scores, truth)
    scaled = estimate_threshold(transformed, truth)
    assert np.array_equal(transformed > scaled, scores > thr)


def exhaustive_threshold(scores, truth, rule):
    """Reference sweep: score every candidate boundary, keep the last best."""
    uniq = np.unique(scores)
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    candidates = np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])
    best_stat, best_t = -np.inf, None
    for t in candidates:
        pred = scores > t
        if rule == "max-accuracy":
            stat = float(np.mean(pred == truth))
        else:
            stat = precision_recall_f1(pred, truth)[2]
        if stat >= best_stat:
            best_stat, best_t = stat, float(t)
    return best_t


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.booleans()), min_size=2, max_size=40),
       st.sampled_from([(0.0, 1.0), (0.0, 0.37), (0.0, 1e-300), (1.0, float(np.spacing(1.0)))]),
       st.sampled_from(["max-f1", "max-accuracy"]))
@example(items=[(4, False), (5, True)], grid=(1.0, float(np.spacing(1.0))), rule="max-accuracy")
def test_threshold_matches_exhaustive_sweep(items, grid, rule):
    # small integer steps make ties within and across classes common; steps of
    # one ulp make midpoints round onto a score
    offset, step = grid
    scores = offset + np.array([k for k, _ in items], dtype=np.float64) * step
    truth = np.array([r for _, r in items])
    if truth.all() or (~truth).all() or np.unique(scores).size < 2:
        return
    assert estimate_threshold(scores, truth, rule) == exhaustive_threshold(scores, truth, rule)


def test_precision_recall_f1_conventions():
    truth = np.array([1, 0, 1, 0], dtype=bool)
    p, r, f1 = precision_recall_f1(np.zeros(4, dtype=bool), truth)
    assert (p, r, f1) == (0.0, 0.0, 0.0)
    p, r, f1 = precision_recall_f1(np.ones(4, dtype=bool), truth)
    assert r == 1.0 and p == 0.5 and f1 == pytest.approx(2 * 0.5 / 1.5)
    p, r, f1 = precision_recall_f1(truth, truth)
    assert f1 == 1.0


def test_propagate_threshold_extremes():
    model = AnalyticLinearModel(bivariate_oracle())
    spec = FactorSpec(num_classes=2, obs_dims=(8, 8), private_dims=(1, 1))
    ds = make_related_dataset(spec, 24, seed=4)
    with pytest.raises(ValueError):
        propagate(model, ds, math.inf, 4, seed=0)


def test_propagate_low_threshold_full_recall():
    spec = FactorSpec(num_classes=2, obs_dims=(2, 2), private_dims=(0, 0))
    from cmvae.data import generate_unimodal, pair_random
    x = generate_unimodal(spec, 60, "m1", seed=5)
    y = generate_unimodal(spec, 60, "m2", seed=6)
    mixed = pair_random(spec, x, y, seed=7)
    oracle = LinearGaussianOracle(loadings={"m1": np.zeros((2, 1)), "m2": np.zeros((2, 1))},
                                  noise_var=1.0)
    model = AnalyticLinearModel(oracle, scale=0.9)
    pred, q = propagate(model, mixed, -1e12, 4, seed=8)
    assert q["recall"] == 1.0
    assert q["precision"] == pytest.approx(mixed.related.mean())


def test_carve_pipeline_shapes_and_purity():
    spec = FactorSpec()
    full = make_related_dataset(spec, 200, seed=9)
    small, small_mixed, full_mixed = carve_pipeline_datasets(full, 10.0, seed=10)
    assert len(small.observations["m1"]) == 20
    assert small.related.all()
    assert len(full_mixed.observations["m1"]) == 180
    # mixed sets keep truthful flags
    lab = small_mixed.pair_labels()
    assert np.array_equal(small_mixed.related.astype(bool), lab["m1"] == lab["m2"])
    again = carve_pipeline_datasets(full, 10.0, seed=10)
    assert np.array_equal(again[2].pairs, full_mixed.pairs)


def test_merge_predicted_combines_pools():
    spec = FactorSpec()
    full = make_related_dataset(spec, 100, seed=11)
    small, small_mixed, full_mixed = carve_pipeline_datasets(full, 20.0, seed=12)
    predicted = np.zeros(len(full_mixed), dtype=np.uint8)
    predicted[:5] = 1
    merged = merge_predicted(small, full_mixed, predicted)
    assert len(merged) == len(small) + 5
    names = spec.modality_names
    obs = merged.pair_observations()
    tail = obs[names[0]][-5:]
    expect = full_mixed.pair_observations()[names[0]][:5]
    assert np.array_equal(tail, expect)


def test_propagation_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(pretrain_percent=0.0)
    with pytest.raises(ValueError):
        PropagationConfig(pmi_num_samples=0)
    with pytest.raises(ValueError):
        PropagationConfig(threshold_rule="best-guess")
