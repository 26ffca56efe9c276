import numpy as np
import pytest

from cmvae.autodiff import Tensor, backward
from cmvae.bounds import (
    bound_from_log_weights,
    joint_bound,
    joint_log_weight_blocks,
    joint_log_weights,
    unimodal_draws,
    unimodal_marginal,
)
from cmvae.evaluation import AnalyticLinearModel, LinearGaussianOracle, make_oracle
from cmvae.models import ModalitySpec, UnknownModalityError, build_model
from gradcheck import finite_difference_check


@pytest.fixture(scope="module")
def oracle():
    return make_oracle(obs_dims=(2, 2), latent_dim=1, noise_var=1.0, loading_scale=2.0, seed=0)


@pytest.fixture(scope="module")
def oracle_pairs(oracle):
    return oracle.sample_pairs(200, seed=11)


def test_joint_bound_validation():
    mods = [ModalitySpec("m1", 2, "gaussian"), ModalitySpec("m2", 2, "gaussian")]
    model = build_model(mods, latent_dim=1, hidden_dim=4, joint_kind="poe", seed=0)
    obs = {"m1": np.zeros((2, 2)), "m2": np.zeros((2, 2))}
    with pytest.raises(ValueError, match="unknown estimator kind 'evidence'"):
        joint_bound(model, obs, "evidence", 3, seed=0)
    with pytest.raises(ValueError, match="num_samples must be >= 1"):
        joint_bound(model, obs, "elbo", 0, seed=0)


def test_exact_posterior_bounds_are_exact(oracle, oracle_pairs):
    model = AnalyticLinearModel(oracle)
    exact = oracle.exact_logp(oracle_pairs)
    for kind in ("elbo", "iwae", "cubo"):
        est = joint_bound(model, oracle_pairs, kind, 8, seed=5).value
        assert np.abs(est - exact).max() < 1e-9


def test_unit_model_elbo_constant():
    # at init both mixture components are N(0, I), so q = prior exactly;
    # decoders that ignore z with unit-Gaussian likelihoods at the origin
    # leave two standard-normal log-densities and a vanishing KL term
    mods = [ModalitySpec("m1", 1, "gaussian"), ModalitySpec("m2", 1, "gaussian")]
    model = build_model(mods, latent_dim=1, hidden_dim=4, joint_kind="moe", seed=0)
    for k, p in model.params.items():
        if k.startswith("dec."):
            p.value = np.zeros_like(p.value)
    val = joint_bound(model, {"m1": np.zeros((1, 1)), "m2": np.zeros((1, 1))}, "elbo", 4, seed=1).value[0]
    assert val == pytest.approx(-1.837877, abs=1e-6)


def test_k1_reductions_agree():
    mods = [ModalitySpec("m1", 3, "bernoulli"), ModalitySpec("m2", 3, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=8, joint_kind="poe", seed=1)
    rng = np.random.default_rng(0)
    obs = {"m1": rng.uniform(size=(6, 3)), "m2": rng.standard_normal((6, 3))}
    e, i, c = (joint_bound(model, obs, kind, 1, seed=7).value for kind in ("elbo", "iwae", "cubo"))
    assert np.array_equal(e, i)
    assert np.allclose(c, e, atol=1e-12)


def test_elbo_below_oracle_logp(oracle, oracle_pairs):
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.7)
    est = joint_bound(model, oracle_pairs, "elbo", 30, seed=3).value
    exact = oracle.exact_logp(oracle_pairs)
    diff = exact - est
    assert diff.mean() > 3 * diff.std(ddof=1) / np.sqrt(len(diff))


def test_sandwich_ordering(oracle, oracle_pairs):
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.7)
    exact = oracle.exact_logp(oracle_pairs)
    e, i, c = (joint_bound(model, oracle_pairs, kind, 30, seed=5).value for kind in ("elbo", "iwae", "cubo"))
    for low, high in ((e, i), (i, exact), (exact, c)):
        diff = high - low
        assert diff.mean() > 3 * diff.std(ddof=1) / np.sqrt(len(diff))


def test_iwae_nondecreasing_in_k(oracle, oracle_pairs):
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.7)
    means, ses = [], []
    for k in (1, 5, 30):
        est = joint_bound(model, oracle_pairs, "iwae", k, seed=9).value
        means.append(est.mean())
        ses.append(est.std(ddof=1) / np.sqrt(len(est)))
    assert means[1] >= means[0] - 3 * (ses[0] + ses[1])
    assert means[2] >= means[1] - 3 * (ses[1] + ses[2])
    # and the trend is genuinely upward on this testbed
    assert means[2] > means[0]


def test_batch_permutation_invariance():
    mods = [ModalitySpec("m1", 3, "bernoulli"), ModalitySpec("m2", 3, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=8, joint_kind="moe", seed=2)
    rng = np.random.default_rng(1)
    obs = {"m1": rng.uniform(size=(8, 3)), "m2": rng.standard_normal((8, 3))}
    perm = rng.permutation(8)
    base = joint_bound(model, obs, "iwae", 4, seed=13).value
    shuffled = joint_bound(model, {n: v[perm] for n, v in obs.items()}, "iwae", 4, seed=13).value
    assert np.array_equal(base[perm], shuffled)


def test_deterministic_under_seed():
    mods = [ModalitySpec("m1", 3, "bernoulli"), ModalitySpec("m2", 3, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=8, joint_kind="moe", seed=2)
    rng = np.random.default_rng(2)
    obs = {"m1": rng.uniform(size=(5, 3)), "m2": rng.standard_normal((5, 3))}
    assert np.array_equal(joint_bound(model, obs, "iwae", 4, seed=21).value,
                          joint_bound(model, obs, "iwae", 4, seed=21).value)
    assert not np.array_equal(joint_bound(model, obs, "iwae", 4, seed=21).value,
                              joint_bound(model, obs, "iwae", 4, seed=22).value)


def test_estimator_gradients_match_finite_differences():
    mods = [ModalitySpec("m1", 2, "bernoulli"), ModalitySpec("m2", 2, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=4, joint_kind="moe", seed=3)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 0.8, size=(3, 2))
    y = rng.standard_normal((3, 2))
    for kind in ("elbo", "iwae", "cubo"):
        def f(params, kind=kind):
            return joint_bound(model, {"m1": x, "m2": y}, kind, 4, seed=17).mean()

        assert finite_difference_check(f, model.params) < 1e-5, kind


def test_unimodal_marginal_oracle_value(oracle):
    # 1-D marginal with unit loading and unit noise: N(0, 2), exact at origin
    a = np.array([[1.0]])
    simple = LinearGaussianOracle(loadings={"m1": a, "m2": a}, noise_var=1.0)
    model = AnalyticLinearModel(simple)
    est = unimodal_marginal(unimodal_draws(model, "m1", np.zeros((1, 1)), 8, seed=5)).value[0]
    expect = -0.5 * np.log(2 * np.pi * 2.0)
    assert est == pytest.approx(expect, abs=1e-9)  # exact proposal -> zero variance
    assert est == pytest.approx(-1.265512, abs=5e-7)


def test_unimodal_marginal_decoder_ignoring_z():
    mods = [ModalitySpec("m1", 2, "gaussian"), ModalitySpec("m2", 2, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=4, joint_kind="poe", seed=4)
    for k, p in model.params.items():
        if k.startswith("dec."):
            p.value = np.zeros_like(p.value)
    obs = np.array([[0.3, -0.2]])
    for k in (1, 7):
        est = unimodal_marginal(unimodal_draws(model, "m1", obs, k, seed=3)).value[0]
        expect = np.sum(-0.5 * (np.log(2 * np.pi) + obs ** 2))
        assert est == pytest.approx(expect, abs=1e-12)


def test_unimodal_marginal_k_ordering(oracle, oracle_pairs):
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.7)
    one, thirty = (unimodal_marginal(unimodal_draws(model, "m1", oracle_pairs["m1"], k, seed=19)).value.mean()
                   for k in (1, 30))
    assert thirty >= one


def test_unimodal_marginal_unknown_modality(oracle):
    model = AnalyticLinearModel(oracle)
    with pytest.raises(KeyError):
        unimodal_draws(model, "m3", np.zeros((1, 2)), 2, seed=0)


def test_unknown_modality_on_trained_model():
    mods = [ModalitySpec("m1", 2, "gaussian"), ModalitySpec("m2", 2, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=4, joint_kind="poe", seed=4)
    with pytest.raises(UnknownModalityError):
        unimodal_draws(model, "m9", np.zeros((1, 2)), 2, seed=0)


def test_bound_from_log_weights_shapes():
    log_w = Tensor.const(np.zeros((4, 3)))
    for kind in ("elbo", "iwae", "cubo"):
        out = bound_from_log_weights(log_w, kind)
        assert out.shape == (4,)
        assert np.allclose(out.value, 0.0)
    with pytest.raises(ValueError):
        bound_from_log_weights(log_w, "nope")


# -- the shipped mixture posterior against the exact oracle ----------------------------


def moe_oracle_pairs(seed, items=400):
    oracle = make_oracle(obs_dims=(4, 4), latent_dim=2, noise_var=1.0, loading_scale=2.0, seed=seed)
    return oracle, oracle.sample_pairs(items, seed + 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_moe_sandwich_resolves_against_exact(seed):
    # The exact unimodal posteriors, perturbed and mixed by
    # MultimodalModel.joint_posterior_samples: ELBO < IWAE < exact < CUBO,
    # each paired gap beyond three standard errors.
    oracle, obs = moe_oracle_pairs(seed)
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.7, joint_kind="moe")
    elbo, iwae, cubo = (joint_bound(model, obs, kind, 30, seed).value for kind in ("elbo", "iwae", "cubo"))
    chain = [elbo, iwae, oracle.exact_logp(obs), cubo]
    for low, high in zip(chain, chain[1:]):
        diff = high - low
        assert diff.mean() > 3 * diff.std(ddof=1) / np.sqrt(len(diff))


def test_moe_pairs_path_equals_gathered_rows():
    oracle, obs = moe_oracle_pairs(0, items=40)
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.7, joint_kind="moe")
    rng = np.random.default_rng(3)
    pairs = {"m1": rng.integers(0, 40, 90), "m2": rng.integers(0, 40, 90)}  # rows repeat
    blocks = joint_log_weight_blocks(model, obs, 30, 5, pairs)
    via_pairs = np.concatenate([w.value for w in blocks.values()], axis=1)
    direct = joint_log_weights(model, {n: obs[n][rows] for n, rows in pairs.items()}, 30, 5).value
    assert via_pairs.shape == (90, 30)
    np.testing.assert_allclose(via_pairs, direct, rtol=0, atol=1e-12)


def test_mixture_blocks_are_the_joint_log_weights_columns():
    # At the shipped 16/16 dimensions, the blocks in name order are the
    # joint posterior's log weights bit for bit, and block m alone is the
    # same graph whichever other blocks are computed beside it.
    mods = [ModalitySpec("m1", 16, "gaussian"), ModalitySpec("m2", 16, "gaussian")]
    model = build_model(mods, latent_dim=8, hidden_dim=64, joint_kind="moe", seed=0)
    rng = np.random.default_rng(0)
    for p in model.params.values():
        p.value = p.value + 0.1 * rng.standard_normal(p.value.shape)
    obs = {n: rng.standard_normal((64, 16)) for n in ("m1", "m2")}
    blocks = joint_log_weight_blocks(model, obs, 30, 5)
    assert list(blocks) == ["m1", "m2"] and blocks["m1"].shape == (64, 15)
    whole = joint_log_weights(model, obs, 30, 5).value
    assert np.array_equal(np.concatenate([w.value for w in blocks.values()], axis=1), whole)
    pairs = {"m1": rng.integers(0, 64, 200), "m2": rng.integers(0, 64, 200)}
    paired = joint_log_weight_blocks(model, obs, 30, 5, pairs)
    (alone,) = joint_log_weight_blocks(model, obs, 30, 5, pairs, names=["m2"]).values()
    grads = [backward(w.sum(), model.params) for w in (alone, paired["m2"])]
    assert np.array_equal(alone.value, paired["m2"].value)
    for k in model.params:
        assert np.array_equal(grads[0][k], grads[1][k]), k


def test_other_posteriors_are_one_block():
    mods = [ModalitySpec("m1", 3, "gaussian"), ModalitySpec("m2", 3, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=4, joint_kind="poe", seed=0)
    obs = {n: np.random.default_rng(1).standard_normal((5, 3)) for n in ("m1", "m2")}
    (name, block), = joint_log_weight_blocks(model, obs, 6, 2).items()
    assert name == "joint" and np.array_equal(block.value, joint_log_weights(model, obs, 6, 2).value)
