import numpy as np
import pytest

from cmvae.autodiff import Tensor
from cmvae.distributions import DiagonalGaussian, gaussian_product
from cmvae.evaluation import AnalyticLinearModel, make_oracle
from cmvae.models import ModalitySpec, MultimodalModel, UnknownModalityError, build_model
from cmvae.seeding import per_row_normal


def two_modality_model(joint_kind="moe", seed=0, obs_dim=6, latent_dim=4, hidden=16):
    mods = [ModalitySpec("m1", obs_dim, "bernoulli"), ModalitySpec("m2", obs_dim, "gaussian")]
    return build_model(mods, latent_dim=latent_dim, hidden_dim=hidden, num_hidden=2,
                       joint_kind=joint_kind, seed=seed)


def test_modality_spec_validation():
    with pytest.raises(ValueError):
        ModalitySpec("m", 0)
    with pytest.raises(ValueError):
        ModalitySpec("m", 4, "poisson")
    with pytest.raises(ValueError):
        MultimodalModel([ModalitySpec("a", 2), ModalitySpec("a", 2)], joint_kind="moe")


@pytest.mark.parametrize("names", [("m1",), ("m1", "m2", "m3"), ("m1", "m1")])
def test_model_needs_two_distinctly_named_modalities(names):
    # the pair estimators, the objective and PMI then need no count check of their own
    mods = [ModalitySpec(name, 2, "gaussian") for name in names]
    oracle = make_oracle(obs_dims=(2,) * len(names), names=names)  # duplicate names collapse to one
    for build in (lambda: build_model(mods, latent_dim=3, hidden_dim=8, joint_kind="moe", seed=1),
                  lambda: MultimodalModel(mods, joint_kind="poe"),
                  lambda: AnalyticLinearModel(oracle, joint_kind="moe")):
        with pytest.raises(ValueError, match="two distinctly named modalities"):
            build()


def test_trained_model_joint_posterior_is_poe_or_moe():
    mods = [ModalitySpec("m1", 6), ModalitySpec("m2", 6)]
    with pytest.raises(ValueError, match="joint_kind"):
        build_model(mods, joint_kind="explicit")
    obs = {"m1": np.zeros((2, 6)), "m2": np.zeros((2, 6))}
    # a MultimodalModel that does not override encode_joint has no explicit joint posterior
    bare = MultimodalModel(mods, joint_kind="explicit", params=two_modality_model().params)
    for model in (bare, two_modality_model(joint_kind="moe")):
        with pytest.raises(ValueError, match="product of experts"):
            model.encode_joint(obs)
    with pytest.raises(ValueError, match="product of experts"):
        bare.joint_posterior_samples(obs, 2, seed=0)


def test_default_encoder_heads_give_standard_normal():
    model = two_modality_model()
    rng = np.random.default_rng(0)
    q = model.encode_unimodal("m1", rng.uniform(size=(9, 6)))
    assert np.array_equal(q.mean.value, np.zeros((9, 4)))
    assert np.array_equal(q.log_var.value, np.zeros((9, 4)))


def test_unknown_modality_raises():
    model = two_modality_model()
    with pytest.raises(UnknownModalityError):
        model.encode_unimodal("nope", np.zeros((1, 6)))
    with pytest.raises(ValueError):
        model.cross_generate("m1", "m1", np.zeros((1, 6)), seed=0)


def test_encode_batch_permutation_equivariant():
    model = two_modality_model(seed=3)
    # move heads off zero so the test is non-trivial
    rng = np.random.default_rng(1)
    for k, p in model.params.items():
        if "enc" in k and ("w_mean" in k or "w_lv" in k):
            p.value = rng.standard_normal(p.value.shape) * 0.3
    obs = rng.uniform(size=(8, 6))
    perm = rng.permutation(8)
    q_all = model.encode_unimodal("m1", obs)
    q_perm = model.encode_unimodal("m1", obs[perm])
    assert np.array_equal(q_all.mean.value[perm], q_perm.mean.value)
    assert np.array_equal(q_all.log_var.value[perm], q_perm.log_var.value)


def test_poe_joint_posterior_matches_gaussian_product_oracle():
    model = two_modality_model(joint_kind="poe", seed=5)
    rng = np.random.default_rng(2)
    for k, p in model.params.items():
        if "enc" in k and "w_" in k:
            p.value = rng.standard_normal(p.value.shape) * 0.2
    obs = {"m1": rng.uniform(size=(3, 6)), "m2": rng.standard_normal((3, 6))}
    q = model.encode_joint(obs)
    prior = DiagonalGaussian(mean=Tensor.const(np.zeros(4)), log_var=Tensor.const(np.zeros(4)))
    expect = gaussian_product(
        [model.encode_unimodal("m1", obs["m1"]), model.encode_unimodal("m2", obs["m2"]), prior])
    assert np.allclose(q.mean.value, expect.mean.value)
    assert np.allclose(q.log_var.value, expect.log_var.value)


def test_poe_precision_dominates_components():
    model = two_modality_model(joint_kind="poe", seed=5)
    rng = np.random.default_rng(2)
    for k, p in model.params.items():
        if "enc" in k and "w_" in k:
            p.value = rng.standard_normal(p.value.shape) * 0.2
    obs = {"m1": rng.uniform(size=(4, 6)), "m2": rng.standard_normal((4, 6))}
    joint = model.encode_joint(obs)
    joint_precision = np.exp(-joint.log_var.value)
    for name in ("m1", "m2"):
        comp = model.encode_unimodal(name, obs[name])
        assert np.all(joint_precision >= np.exp(-comp.log_var.value) - 1e-12)


def test_moe_requires_divisible_sample_count():
    model = two_modality_model(joint_kind="moe")
    obs = {"m1": np.zeros((2, 6)), "m2": np.zeros((2, 6))}
    with pytest.raises(ValueError):
        model.joint_posterior_samples(obs, 3, seed=0)


def test_moe_stratified_halves():
    model = two_modality_model(joint_kind="moe", seed=7)
    rng = np.random.default_rng(3)
    for k, p in model.params.items():
        if "enc.m1.w_mean" in k:
            p.value = np.full(p.value.shape, 0.0)
        if "enc.m1.b_mean" in k:
            p.value = np.full(p.value.shape, 50.0)   # component 1 far away
        if "enc.m2.b_mean" in k:
            p.value = np.full(p.value.shape, -50.0)  # component 2 far away
    obs = {"m1": rng.uniform(size=(5, 6)), "m2": rng.standard_normal((5, 6))}
    z, _ = model.joint_posterior_samples(obs, 8, seed=1)
    near_plus = (z.value > 25).all(axis=2)
    near_minus = (z.value < -25).all(axis=2)
    # exactly half the draws from each unimodal posterior, in canonical order
    assert near_plus[:, :4].all() and near_minus[:, 4:].all()


def test_moe_mixture_log_density_of_identical_components():
    model = two_modality_model(joint_kind="moe", seed=9)
    rng = np.random.default_rng(4)
    obs = {"m1": rng.uniform(size=(3, 6)), "m2": rng.standard_normal((3, 6))}
    # default init: both posteriors are exactly N(0, I)
    z, log_q = model.joint_posterior_samples(obs, 6, seed=2)
    expect = -0.5 * (np.log(2 * np.pi) + z.value ** 2).sum(axis=2)
    assert np.allclose(log_q.value, expect, atol=1e-12)


def test_explicit_joint_log_density_matches_encoder_output():
    oracle = make_oracle(obs_dims=(3, 2), latent_dim=2, seed=11)
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.7)
    obs = oracle.sample_pairs(4, seed=5)
    z, log_q = model.joint_posterior_samples(obs, 3, seed=4)
    q = model.encode_joint(obs)
    for s in range(3):
        direct = DiagonalGaussian(
            mean=Tensor.const(q.mean.value),
            log_var=Tensor.const(q.log_var.value)).log_prob(z.value[:, s, :])
        assert np.allclose(direct.value, log_q.value[:, s], atol=1e-12)


def test_decode_factorizes_across_modalities():
    model = two_modality_model(seed=13)
    rng = np.random.default_rng(6)
    z = Tensor.const(rng.standard_normal((5, 4)))
    liks = model.decode_all(z)
    x = rng.uniform(size=(5, 6))
    y = rng.standard_normal((5, 6))
    total = liks["m1"].log_prob(x).value + liks["m2"].log_prob(y).value
    again = model.decode_all(z)
    assert np.array_equal(again["m1"].log_prob(x).value + again["m2"].log_prob(y).value, total)


def test_joint_generate_empty_and_deterministic():
    model = two_modality_model(seed=15)
    empty = model.joint_generate(0, seed=9)
    assert empty["m1"].shape == (0, 6) and empty["m2"].shape == (0, 6)
    a = model.joint_generate(7, seed=9)
    b = model.joint_generate(7, seed=9)
    assert np.array_equal(a["m1"], b["m1"]) and np.array_equal(a["m2"], b["m2"])
    c = model.joint_generate(7, seed=10)
    assert not np.array_equal(a["m1"], c["m1"])


def test_cross_generate_deterministic_under_seed():
    model = two_modality_model(seed=17)
    rng = np.random.default_rng(8)
    obs = rng.uniform(size=(6, 6))
    a = model.cross_generate("m1", "m2", obs, seed=3)
    b = model.cross_generate("m1", "m2", obs, seed=3)
    assert np.array_equal(a, b)


def test_gaussian_decoder_log_var_floor():
    model = two_modality_model(seed=19)
    model.params["dec.m2.log_var"].value = np.full(6, -20.0)
    lik = model.decode("m2", Tensor.const(np.zeros((1, 4))))
    assert np.all(lik.log_var.value == -6.0)


def test_modality_order_is_canonical():
    mods = [ModalitySpec("zebra", 3), ModalitySpec("ant", 4)]
    model = build_model(mods, joint_kind="moe", seed=0)
    assert [m.name for m in model.modalities] == ["ant", "zebra"]


def test_frozen_view_shares_values_and_records_no_graph():
    from cmvae.bounds import joint_bound
    model = two_modality_model(seed=21)
    rng = np.random.default_rng(9)
    for p in model.params.values():
        p.value = p.value + 0.2 * rng.standard_normal(p.value.shape)
    obs = {"m1": rng.uniform(size=(5, 6)), "m2": rng.standard_normal((5, 6))}
    frozen = model.frozen()
    assert all(frozen.params[k].value is p.value for k, p in model.params.items())
    est = joint_bound(frozen, obs, "iwae", 4, seed=2)
    assert not est.requires_grad
    assert np.array_equal(est.value, joint_bound(model, obs, "iwae", 4, seed=2).value)


def test_moe_draws_keyed_per_modality_row():
    mods = [ModalitySpec("m1", 3, "gaussian"), ModalitySpec("m2", 3, "gaussian")]
    model = build_model(mods, latent_dim=2, hidden_dim=4, joint_kind="moe", seed=0)
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    # untrained posteriors are N(0, I), so the draws are the raw noise
    z, _ = model.joint_posterior_samples({"m1": x, "m2": x}, 6, seed=3)
    assert not np.array_equal(z.value[:, :3], z.value[:, 3:])  # equal rows, distinct streams
    z2, _ = model.joint_posterior_samples({"m1": x, "m2": y}, 6, seed=3)
    assert np.array_equal(z2.value[:, :3], z.value[:, :3])  # a row's draws ignore its partner
    expect = per_row_normal(3, "joint_posterior.m2", y, (3, 2))
    assert np.array_equal(z2.value[:, 3:], expect)
