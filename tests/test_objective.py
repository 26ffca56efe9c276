import math

import numpy as np
import pytest

from cmvae.autodiff import Tensor, backward
from cmvae import bounds, distributions, objective, relatedness
from cmvae.data import FactorSpec, generate_unimodal
from cmvae.models import ModalitySpec, build_model
from cmvae.objective import ObjectiveConfig, draw_negatives, final_objective
from gradcheck import finite_difference_check


def toy_model(joint_kind="moe", seed=0, obs_dim=4, m=2):
    mods = [ModalitySpec(f"m{i+1}", obs_dim, "gaussian") for i in range(m)]
    return build_model(mods, latent_dim=2, hidden_dim=8, joint_kind=joint_kind, seed=seed)


class ConstantEstimateModel:
    """Joint-bound stub whose log weights are a fixed constant."""

    joint_kind = "explicit"

    def __init__(self, value, obs_dim=4, m=2):
        self.value = value
        self.modalities = [ModalitySpec(f"m{i+1}", obs_dim, "gaussian") for i in range(m)]
        self.latent_dim = 1

    def modality(self, name):
        for spec in self.modalities:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def joint_posterior_samples(self, obs, num_samples, seed):
        batch = np.atleast_2d(np.asarray(obs[self.modalities[0].name])).shape[0]
        z = Tensor.const(np.zeros((batch, num_samples, 1)))
        return z, Tensor.const(np.zeros((batch, num_samples)))

    def decode_all(self, z):
        share = self.value / len(self.modalities)
        return {m.name: _ConstLik(share, z.shape[:2]) for m in self.modalities}


class _ConstLik:
    """Each modality contributes an equal share of the pinned total weight."""

    def __init__(self, share, shape):
        self.share = share
        self.shape = shape

    def log_prob(self, obs):
        batch, k = self.shape
        return Tensor.const(np.full((batch, k), self.share))


def const_model_obs(value, batch, m=2, obs_dim=4):
    model = ConstantEstimateModel(value, obs_dim=obs_dim, m=m)
    rng = np.random.default_rng(0)
    obs = {spec.name: rng.standard_normal((batch, obs_dim)) for spec in model.modalities}
    return model, obs


def patched_const_model(value, batch, m=2, obs_dim=4):
    """Constant model whose weights equal `value` exactly (prior canceled)."""
    model, obs = const_model_obs(value, batch, m, obs_dim)

    class _Z(ConstantEstimateModel):
        def joint_posterior_samples(self, o, num_samples, seed):
            b = np.atleast_2d(np.asarray(o[self.modalities[0].name])).shape[0]
            z = Tensor.const(np.zeros((b, num_samples, 1)))
            # log q = log p(z) makes the prior cancel; decoders supply `value`
            from cmvae.distributions import standard_normal_log_prob
            log_p = standard_normal_log_prob(z)
            return z, log_p

    patched = _Z(value, obs_dim=obs_dim, m=m)
    return patched, obs


def test_config_validation():
    for bad in ({"gamma": 0.5}, {"gamma": math.inf}, {"gamma": math.nan}, {"variant": "cZ"},
                {"num_negatives": 0}, {"num_samples": 0},
                {"variant": "baseline", "gamma": math.inf}, {"variant": "cC", "gamma": -math.inf}):
        with pytest.raises(ValueError):
            ObjectiveConfig(**bad)
    ObjectiveConfig(variant="baseline", num_negatives=0)  # the baseline draws no negatives
    assert ObjectiveConfig.for_variant("cC", 1.5, 3, 4) == ObjectiveConfig("cC", 1.5, 3, 4)


def test_draw_negatives_excludes_anchor_and_is_deterministic():
    negs = draw_negatives(8, ["m1", "m2"], 5, seed=3)
    again = draw_negatives(8, ["m1", "m2"], 5, seed=3)
    for name in ("m1", "m2"):
        block = negs[name]
        assert block.shape == (8, 5)
        for i in range(8):
            assert i not in block[i]
            assert len(set(block[i])) == 5
        assert np.array_equal(block, again[name])


def test_draw_negatives_forced_by_exclusion():
    negs = draw_negatives(6, ["m1", "m2"], 5, seed=1)
    for name in ("m1", "m2"):
        for i in range(6):
            assert sorted(negs[name][i]) == sorted(set(range(6)) - {i})


def test_draw_negatives_uniform_per_position():
    # over many seeds, each (anchor, position) slot takes each other batch
    # index equally often: chi-square with B - 2 = 4 degrees of freedom
    batch, n_neg, seeds = 6, 3, 3000
    blocks = [draw_negatives(batch, ["m1", "m2"], n_neg, seed) for seed in range(seeds)]
    for name in ("m1", "m2"):
        draws = np.stack([b[name] for b in blocks])  # (seeds, B, N)
        for i in range(batch):
            for k in range(n_neg):
                counts = np.bincount(draws[:, i, k], minlength=batch)
                assert counts[i] == 0
                others = np.delete(counts, i)
                expect = seeds / (batch - 1)
                chi2 = float(((others - expect) ** 2 / expect).sum())
                assert chi2 < 23.5, (name, i, k, counts)  # p = 1e-4 at 4 dof


def test_draw_negatives_batch_too_small():
    with pytest.raises(ValueError):
        draw_negatives(5, ["m1", "m2"], 5, seed=0)


def test_negative_class_collision_rate_matches_chance():
    spec = FactorSpec(num_classes=5, obs_dims=(8, 8), private_dims=(1, 1),
                      likelihoods=("gaussian", "gaussian"))
    data = generate_unimodal(spec, 400, "m1", seed=0)
    negs = draw_negatives(400, ["m1"], 5, seed=9)
    anchor = data.labels[:, None]
    hit = data.labels[negs["m1"]] == anchor
    rate = hit.mean()
    n = hit.size
    ci = 3 * math.sqrt(0.2 * 0.8 / n)
    assert abs(rate - 0.2) < ci + 0.01


def test_final_objective_algebraic_identity():
    # all estimates equal e: loss = (1 - gamma) e + ln N
    model, obs = patched_const_model(-10.0, batch=8)
    cfg = ObjectiveConfig.for_variant("cI", gamma=2.0, num_negatives=5, num_samples=3)
    loss, term1, term2, _ = final_objective(model, obs, cfg, seed=4)
    assert float(loss.value) == pytest.approx(10.0 + math.log(5.0), abs=1e-9)
    assert float(loss.value) == pytest.approx(11.609438, abs=1e-6)
    assert term1 == pytest.approx(-10.0, abs=1e-9)
    assert term2 == pytest.approx(-10.0 + math.log(5.0), abs=1e-9)


def test_final_objective_baseline_sentinel():
    # the baseline is the plain ELBO: gamma and num_negatives do not enter it
    model, obs = patched_const_model(-7.5, batch=6)
    for gamma, n_neg in ((2.0, 5), (64.0, 0)):
        cfg = ObjectiveConfig.for_variant("baseline", gamma, n_neg, num_samples=3)
        loss, term1, term2, _ = final_objective(model, obs, cfg, seed=1)
        assert float(loss.value) == pytest.approx(7.5, abs=1e-9)
        assert term1 == pytest.approx(-7.5, abs=1e-9) and math.isnan(term2)


def test_final_objective_gamma_one_is_plain_contrastive():
    model = toy_model(seed=2)
    rng = np.random.default_rng(5)
    obs = {"m1": rng.standard_normal((7, 4)), "m2": rng.standard_normal((7, 4))}
    cfg1 = ObjectiveConfig.for_variant("cI", gamma=1.0, num_samples=4)
    loss, term1, term2, _ = final_objective(model, obs, cfg1, seed=8)
    assert float(loss.value) == pytest.approx(term2 - term1, abs=1e-9)


def test_final_objective_affine_shift_equivariance():
    # adding c to every estimate changes the loss by exactly (1 - gamma) c
    gamma, c = 2.0, 3.25
    a, obs = patched_const_model(-4.0, batch=7)
    b, _ = patched_const_model(-4.0 + c, batch=7)
    cfg = ObjectiveConfig.for_variant("cI", gamma=gamma, num_negatives=5, num_samples=2)
    la, _, _, _ = final_objective(a, obs, cfg, seed=3)
    lb, _, _, _ = final_objective(b, obs, cfg, seed=3)
    assert float(lb.value) - float(la.value) == pytest.approx((1 - gamma) * c, abs=1e-9)


def test_final_objective_batch_must_exceed_negatives():
    model = toy_model()
    rng = np.random.default_rng(0)
    obs = {"m1": rng.standard_normal((5, 4)), "m2": rng.standard_normal((5, 4))}
    cfg = ObjectiveConfig.for_variant("cI", num_negatives=5, num_samples=2)
    with pytest.raises(ValueError):
        final_objective(model, obs, cfg, seed=0)


def test_modality_swap_invariance_bit_exact():
    mods = [ModalitySpec("m1", 4, "gaussian"), ModalitySpec("m2", 4, "gaussian")]
    fwd = build_model(mods, latent_dim=2, hidden_dim=8, joint_kind="moe", seed=6)
    rev = build_model(list(reversed(mods)), latent_dim=2, hidden_dim=8, joint_kind="moe", seed=6)
    for k in fwd.params:
        rev.params[k].value = fwd.params[k].value.copy()
    rng = np.random.default_rng(7)
    obs = {"m1": rng.standard_normal((7, 4)), "m2": rng.standard_normal((7, 4))}
    cfg = ObjectiveConfig.for_variant("cI", num_samples=4)
    la, t1a, t2a, _ = final_objective(fwd, obs, cfg, seed=11)
    lb, t1b, t2b, _ = final_objective(rev, obs, cfg, seed=11)
    assert float(la.value) == float(lb.value)
    assert t1a == t1b and t2a == t2b


def perturbed_model(joint_kind="moe", likelihoods=("gaussian", "bernoulli"), seed=0, obs_dim=3):
    """Small model with every parameter moved off its initial value, so the
    unimodal posteriors differ between rows and modalities."""
    mods = [ModalitySpec(f"m{i+1}", obs_dim, lik) for i, lik in enumerate(likelihoods)]
    model = build_model(mods, latent_dim=2, hidden_dim=5, joint_kind=joint_kind, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for p in model.params.values():
        p.value = p.value + 0.4 * rng.standard_normal(p.value.shape)
    return model


def pair_batch(model, batch, seed):
    rng = np.random.default_rng(seed)
    return {m.name: (rng.uniform(size=(batch, m.obs_dim)) if m.likelihood == "bernoulli"
                     else rng.standard_normal((batch, m.obs_dim))) for m in model.modalities}


def per_direction_objective(model, obs, cfg, seed):
    """Reference loss: the positive batch plus one joint_bound call per
    direction over repeated and gathered pair rows."""
    names = [m.name for m in model.modalities]
    batch_size = obs[names[0]].shape[0]
    n_neg = cfg.num_negatives
    negatives = draw_negatives(batch_size, names, n_neg, seed)
    pos = bounds.joint_bound(model, obs, "iwae", cfg.num_samples, seed)
    lse = []
    for replaced in names:
        kept = names[0] if replaced == names[1] else names[1]
        rows = {kept: np.repeat(obs[kept], n_neg, axis=0),
                replaced: obs[replaced][negatives[replaced].reshape(-1)]}
        est = bounds.joint_bound(model, rows, {"cI": "iwae", "cC": "cubo"}[cfg.variant],
                                 cfg.num_samples, seed)
        lse.append(est.reshape(batch_size, n_neg).logsumexp(axis=1))
    contrast = 0.5 * (lse[0] + lse[1])
    return (-cfg.gamma * pos + contrast).mean(), float(pos.mean().value), float(contrast.mean().value)


@pytest.mark.parametrize("likelihoods", [("gaussian", "gaussian"), ("bernoulli", "bernoulli"),
                                         ("bernoulli", "gaussian")])
@pytest.mark.parametrize("kind", ["iwae", "cubo"])
def test_moe_pair_matrix_matches_direct_bound(likelihoods, kind):
    model = perturbed_model(likelihoods=likelihoods, seed=4)
    obs = pair_batch(model, 5, seed=5)
    rows, cols = np.divmod(np.arange(25), 5)
    log_w = bounds.joint_log_weights(model, obs, 6, seed=9, pairs={"m1": rows, "m2": cols})
    matrix = bounds.bound_from_log_weights(log_w, kind).value
    for p, (i, j) in enumerate(zip(rows, cols)):
        direct = bounds.joint_bound(model, {"m1": obs["m1"][i:i + 1], "m2": obs["m2"][j:j + 1]},
                                    kind, 6, seed=9).value[0]
        assert matrix[p] == pytest.approx(direct, rel=1e-12, abs=0.0)
    # the positives are the plain batch bound
    diag = bounds.joint_bound(model, obs, kind, 6, seed=9).value
    np.testing.assert_allclose(matrix[rows == cols], diag, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("joint_kind", ["moe", "poe"])
@pytest.mark.parametrize("variant", ["cI", "cC"])
def test_final_objective_matches_per_direction_scoring(joint_kind, variant):
    model = perturbed_model(joint_kind=joint_kind, seed=6)
    obs = pair_batch(model, 7, seed=7)
    cfg = ObjectiveConfig.for_variant(variant, num_negatives=3, num_samples=4)
    loss, term1, term2, _ = final_objective(model, obs, cfg, seed=12)
    grads = backward(loss, model.params)
    ref_loss, ref1, ref2 = per_direction_objective(model, obs, cfg, seed=12)
    ref_grads = backward(ref_loss, model.params)
    assert float(loss.value) == pytest.approx(float(ref_loss.value), rel=1e-12, abs=0.0)
    assert term1 == pytest.approx(ref1, rel=1e-12) and term2 == pytest.approx(ref2, rel=1e-12)
    for k in grads:
        np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-9, atol=1e-12, err_msg=k)


def test_final_objective_moe_gradients_match_finite_differences():
    model = perturbed_model(likelihoods=("bernoulli", "gaussian"), seed=10, obs_dim=2)
    obs = pair_batch(model, 4, seed=10)
    obs["m1"] = 0.2 + 0.6 * obs["m1"]
    cfg = ObjectiveConfig.for_variant("cI", num_negatives=2, num_samples=4)
    assert finite_difference_check(lambda params: final_objective(model, obs, cfg, seed=5)[0],
                                   model.params) < 1e-5


def test_moe_objective_scores_own_terms_once_per_row(monkeypatch):
    # Per row and own slot, the modality's own likelihood and mixture
    # component: 4 * batch * s/2 rows.  The cross terms, the other
    # modality's two, come as one matrix each over every row against every
    # draw of the block, batch x batch * s/2 entries, from which the pairs'
    # entries are gathered.  Scoring all four per pair would take
    # 4 * batch * (1 + 2 * n_neg) * s rows.
    rows, matrices = [], []

    def counting(fn, into):
        def wrapped(*args):
            out = fn(*args)
            into.append(out.value.shape)
            return out
        return wrapped

    monkeypatch.setattr(distributions, "gaussian_log_prob", counting(distributions.gaussian_log_prob, rows))
    monkeypatch.setattr(distributions.FactorBernoulli, "log_prob",
                        counting(distributions.FactorBernoulli.log_prob, rows))
    monkeypatch.setattr(bounds, "pairwise_log_prob", counting(bounds.pairwise_log_prob, matrices))
    model = perturbed_model(likelihoods=("gaussian", "bernoulli"), seed=4)
    batch, n_neg, s = 8, 3, 4
    obs = pair_batch(model, batch, seed=5)
    cfg = ObjectiveConfig.for_variant("cI", num_negatives=n_neg, num_samples=s)
    final_objective(model, obs, cfg, seed=1)
    assert sum(np.prod(shape) for shape in rows) == 4 * batch * s // 2
    assert sorted(matrices) == 2 * [(batch, batch * s // 2)] + 2 * [(batch * s // 2, batch)]


@pytest.mark.parametrize("likelihoods", [("gaussian", "gaussian"), ("bernoulli", "bernoulli"),
                                         ("bernoulli", "gaussian")])
def test_moe_pair_log_weights_match_gathered_rows(likelihoods, monkeypatch):
    model = perturbed_model(likelihoods=likelihoods, seed=11)
    obs = pair_batch(model, 6, seed=12)
    rng = np.random.default_rng(13)
    pairs = {"m1": rng.integers(0, 6, 40), "m2": rng.integers(0, 6, 40)}  # rows and pairs repeat
    gathered = {n: obs[n][rows] for n, rows in pairs.items()}
    ref = bounds.joint_log_weights(model, gathered, 6, seed=14).value
    log_w = bounds.joint_log_weights(model, obs, 6, seed=14, pairs=pairs).value
    np.testing.assert_allclose(log_w, ref, rtol=1e-12, atol=0)
    # draws with more than S/M per row, as PMI scoring makes them, give up their first S/M
    draws = {n: bounds.unimodal_draws(model, n, obs[n], 6, seed=14) for n in obs}
    np.testing.assert_allclose(bounds.mixture_joint_log_weights(model, obs, draws, 6, pairs).value,
                               ref, rtol=1e-12, atol=0)
    short = {n: bounds.unimodal_draws(model, n, obs[n], 2, seed=14) for n in obs}
    with pytest.raises(ValueError, match="need 3"):
        bounds.mixture_joint_log_weights(model, obs, short, 6, pairs)
    encoded = []  # an uneven split fails before any row is encoded
    monkeypatch.setattr(model, "encode_unimodal", lambda *args: encoded.append(args))
    with pytest.raises(ValueError, match="divisible by 2"):
        bounds.joint_log_weights(model, obs, 5, seed=14, pairs=pairs)
    assert encoded == []


def test_pmi_and_objective_reach_the_one_mixture_path(monkeypatch):
    calls = []
    original = bounds.mixture_block

    def spy(model, obs, q, name, own, per, pairs=None):
        calls.append((name, pairs is not None))
        return original(model, obs, q, name, own, per, pairs)

    monkeypatch.setattr(bounds, "mixture_block", spy)
    model = perturbed_model(seed=2)
    obs = pair_batch(model, 6, seed=3)
    final_objective(model, obs, ObjectiveConfig.for_variant("cI", num_negatives=2, num_samples=4), 1)
    relatedness.pmi(model, obs, 4, seed=1)
    assert calls == [("m1", True), ("m2", True), ("m1", False), ("m2", False)]


def test_all_in_batch_negatives(monkeypatch):
    # num_negatives = batch - 1: each anchor meets every other row once, in
    # each direction, and the loss is the per-direction one.
    scored = []

    def spy(model, obs, num_samples, seed, pairs=None, names=None):
        scored.append(pairs)
        return bounds.joint_log_weight_blocks(model, obs, num_samples, seed, pairs, names)

    monkeypatch.setattr(objective, "joint_log_weight_blocks", spy)
    model = perturbed_model(seed=14)
    batch = 6
    obs = pair_batch(model, batch, seed=15)
    cfg = ObjectiveConfig.for_variant("cC", num_negatives=batch - 1, num_samples=4)
    loss, term1, term2, _ = final_objective(model, obs, cfg, seed=16)
    (pairs,) = scored
    anchors = np.arange(batch)
    n = batch * (batch - 1)
    for i, (replaced, kept) in enumerate((("m1", "m2"), ("m2", "m1"))):  # m1's row replaced first
        block = slice(batch + i * n, batch + (i + 1) * n)
        assert np.array_equal(pairs[kept][block], np.repeat(anchors, batch - 1))
        for anchor, rows in enumerate(pairs[replaced][block].reshape(batch, batch - 1)):
            assert sorted(rows) == [j for j in anchors if j != anchor]
    ref_loss, ref1, ref2 = per_direction_objective(model, obs, cfg, seed=16)
    assert float(loss.value) == pytest.approx(float(ref_loss.value), rel=1e-12, abs=0.0)
    assert term1 == pytest.approx(ref1, rel=1e-12) and term2 == pytest.approx(ref2, rel=1e-12)
    tiny = perturbed_model(likelihoods=("bernoulli", "gaussian"), seed=17, obs_dim=2)
    tiny_obs = pair_batch(tiny, 3, seed=17)
    tiny_obs["m1"] = 0.2 + 0.6 * tiny_obs["m1"]
    tiny_cfg = ObjectiveConfig.for_variant("cI", num_negatives=2, num_samples=4)
    assert finite_difference_check(lambda params: final_objective(tiny, tiny_obs, tiny_cfg, seed=18)[0],
                                   tiny.params) < 1e-5
