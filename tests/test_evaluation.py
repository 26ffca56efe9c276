import math
from dataclasses import replace

import numpy as np
import pytest

from cmvae.autodiff import Tensor
from cmvae.data import FactorSpec, make_related_dataset
from cmvae.evaluation import (
    AnalyticLinearModel,
    LinearGaussianOracle,
    OracleClassifier,
    cross_coherence,
    joint_coherence,
    latent_accuracy,
    linear_probe_accuracy,
    make_oracle,
    oracle_classifiers,
    synergy_coherence,
)
from cmvae.models import ModalitySpec, build_model

SPEC = FactorSpec()


def test_oracle_requires_orthogonal_columns():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        LinearGaussianOracle(loadings={"m1": bad, "m2": bad}, noise_var=1.0)


def test_oracle_rejects_non_positive_definite():
    a = np.array([[1.0], [0.0]])
    for noise_var in (math.nan, 0.0, -0.5):  # the joint covariance is positive definite iff noise_var > 0
        with pytest.raises(ValueError, match="noise_var"):
            LinearGaussianOracle(loadings={"m1": a, "m2": a}, noise_var=noise_var)


def test_exact_logp_factorized_limit():
    # zero loadings: joint density is the product of the marginals
    z = np.zeros((2, 1))
    oracle = LinearGaussianOracle(loadings={"m1": z[:1] * 0.0, "m2": z[:1] * 0.0},
                                  noise_var=2.0)
    oracle = LinearGaussianOracle(loadings={"m1": np.zeros((2, 1)), "m2": np.zeros((2, 1))},
                                  noise_var=2.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 2))
    y = rng.standard_normal((5, 2))
    joint = oracle.exact_logp({"m1": x, "m2": y})
    split = oracle.exact_marginal_logp("m1", x) + oracle.exact_marginal_logp("m2", y)
    assert np.allclose(joint, split, atol=1e-12)


def test_exact_logp_1d_marginal_value():
    a = np.array([[1.0]])
    oracle = LinearGaussianOracle(loadings={"m1": a, "m2": a}, noise_var=1.0)
    # marginal N(0, 2) at the origin
    expect = -0.5 * math.log(2 * math.pi * 2.0)
    assert oracle.exact_marginal_logp("m1", np.zeros((1, 1)))[0] == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(-1.265512, abs=5e-7)


def test_exact_pmi_matches_correlation_formula():
    # loadings a=2, noise 1 -> corr rho = a^2/(a^2+1) = 0.8 in 1-D
    a = np.array([[2.0]])
    oracle = LinearGaussianOracle(loadings={"m1": a, "m2": a}, noise_var=1.0)
    rho = 4.0 / 5.0
    expect = -0.5 * math.log(1 - rho ** 2)
    got = oracle.exact_pmi({"m1": np.zeros((1, 1)), "m2": np.zeros((1, 1))})[0]
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.510826, abs=5e-7)


def test_exact_logp_integrates_to_one_2d():
    a = np.array([[2.0]])
    oracle = LinearGaussianOracle(loadings={"m1": a, "m2": a}, noise_var=1.0)
    grid = np.linspace(-14.0, 14.0, 561)
    xs, ys = np.meshgrid(grid, grid)
    dens = np.exp(oracle.exact_logp({"m1": xs.reshape(-1, 1), "m2": ys.reshape(-1, 1)})).reshape(xs.shape)
    h = grid[1] - grid[0]
    assert dens.sum() * h * h == pytest.approx(1.0, abs=1e-3)


def test_analytic_model_posterior_matches_conditional_mean():
    oracle = make_oracle(obs_dims=(3, 3), latent_dim=1, noise_var=0.5, loading_scale=1.5, seed=4)
    model = AnalyticLinearModel(oracle)
    pairs = oracle.sample_pairs(400, seed=5)
    names = oracle.names
    # single-draw cross generation scatters around the closed-form conditional mean
    gen = model_cross(model, names[0], names[1], pairs[names[0]], seed=3)
    mean_x, var = oracle.posterior({names[0]: pairs[names[0]]})
    expect = mean_x @ oracle.loadings[names[1]].T
    resid = gen - expect
    # per-item deviation is A sigma_post eps + decode mean only; bound by 6 sigma
    sigma = np.sqrt(var[0]) * np.abs(oracle.loadings[names[1]]).max()
    assert np.abs(resid).max() < 6 * sigma + 1e-9
    assert abs(resid.mean()) < 0.05


def model_cross(model, source, target, obs, seed):
    from cmvae.models import MultimodalModel
    return MultimodalModel.cross_generate(model, source, target, obs, seed)


def test_linear_probe_perfectly_clustered():
    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(4), 30)
    z = np.eye(4)[labels] * 10 + 0.01 * rng.standard_normal((120, 4))
    assert linear_probe_accuracy(z, labels, 4) == 100.0


def test_linear_probe_pure_noise_near_chance():
    rng = np.random.default_rng(2)
    labels = np.repeat(np.arange(5), 200)
    z = rng.standard_normal((1000, 8))
    acc = linear_probe_accuracy(z, labels, 5)
    assert abs(acc - 20.0) < 10.0


def test_linear_probe_single_class_errors():
    with pytest.raises(ValueError):
        linear_probe_accuracy(np.zeros((10, 2)), np.zeros(10, dtype=int), 3)


def fixed_class_model():
    """Decoders emit one fixed class prototype per modality, ignoring z."""
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, latent_dim=4, hidden_dim=8, joint_kind="poe", seed=0)
    from cmvae.data import mixing_maps
    maps = mixing_maps(SPEC)
    for name in ("m1", "m2"):
        proto = maps[name][0][:, 0]  # class-0 mean
        model.params[f"dec.{name}.w_out"].value = np.zeros((8, 16))
        model.params[f"dec.{name}.b_out"].value = proto.copy()
    return model


def test_joint_coherence_fixed_prototype_is_100():
    model = fixed_class_model()
    oracles = oracle_classifiers(SPEC)
    assert joint_coherence(model, 64, oracles, seed=3) == 100.0


def test_joint_coherence_untrained_near_independent_agreement():
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, latent_dim=8, joint_kind="moe", seed=5)
    oracles = oracle_classifiers(SPEC)
    n = 3000
    gen = model.joint_generate(n, seed=7)
    a = oracles["m1"].classify(gen["m1"])
    b = oracles["m2"].classify(gen["m2"])
    agree = np.mean(a == b)
    pa = np.bincount(a, minlength=5) / n
    pb = np.bincount(b, minlength=5) / n
    independent = float(np.sum(pa * pb))
    assert abs(agree - independent) < 4 * math.sqrt(independent * (1 - independent) / n) + 0.01
    coh = joint_coherence(model, n, oracles, seed=7)
    assert coh == pytest.approx(100.0 * agree, abs=1e-9)


def test_cross_coherence_chance_for_untrained():
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, latent_dim=8, joint_kind="moe", seed=6)
    ds = make_related_dataset(SPEC, 500, seed=8)
    oracles = oracle_classifiers(SPEC)
    out = cross_coherence(model, ds, oracles, seed=9)
    for v in out.values():
        assert abs(v - 20.0) < 12.0  # near 1/C with slack for label imbalance


def test_synergy_unsupported_for_moe():
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, joint_kind="moe", seed=0)
    ds = make_related_dataset(SPEC, 30, seed=10)
    assert math.isnan(synergy_coherence(model, ds, oracle_classifiers(SPEC), seed=0))


def test_synergy_perfect_for_prototype_model_on_class0_pairs():
    model = fixed_class_model()
    ds = make_related_dataset(SPEC, 50, seed=11)
    rows = np.flatnonzero(ds.pair_labels()["m1"] == 0)
    class0 = replace(ds, pairs=ds.pairs[rows], related=ds.related[rows])
    val = synergy_coherence(model, class0, oracle_classifiers(SPEC), seed=12)
    assert val == 100.0


def test_synergy_untrained_near_squared_chance():
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, latent_dim=8, joint_kind="poe", seed=13)
    ds = make_related_dataset(SPEC, 1500, seed=14)
    val = synergy_coherence(model, ds, oracle_classifiers(SPEC), seed=15)
    assert val < 15.0  # (1/C)^2 = 4% plus sampling slack


def test_latent_accuracy_moe_reports_both_sources():
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, latent_dim=8, joint_kind="moe", seed=16)
    ds = make_related_dataset(SPEC, 120, seed=17)
    out = latent_accuracy(model, ds, seed=18)
    assert set(out) == {"m1", "m2"}
    for v in out.values():
        assert 0.0 <= v <= 100.0


def test_metrics_pure_no_parameter_mutation():
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, latent_dim=8, joint_kind="poe", seed=19)
    snapshot = {k: p.value.copy() for k, p in model.params.items()}
    ds = make_related_dataset(SPEC, 60, seed=20)
    oracles = oracle_classifiers(SPEC)
    latent_accuracy(model, ds, seed=1)
    joint_coherence(model, 40, oracles, seed=2)
    cross_coherence(model, ds, oracles, seed=3)
    synergy_coherence(model, ds, oracles, seed=4)
    for k, v in snapshot.items():
        assert np.array_equal(v, model.params[k].value)
