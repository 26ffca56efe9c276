import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvae.autodiff import ShapeMismatchError, Tensor, backward
from cmvae.distributions import (
    LOGIT_CLAMP,
    DiagonalGaussian,
    FactorBernoulli,
    gaussian_log_prob,
    gaussian_product,
    pairwise_log_prob,
    rsample,
    standard_normal_log_prob,
)
from gradcheck import finite_difference_check


def gauss(mean, log_var):
    return DiagonalGaussian(mean=Tensor.const(np.atleast_1d(np.asarray(mean, dtype=float))),
                            log_var=Tensor.const(np.atleast_1d(np.asarray(log_var, dtype=float))))


def test_standard_normal_at_zero():
    assert gauss(0.0, 0.0).log_prob(np.array([0.0])).value == pytest.approx(-0.918939, abs=1e-6)


def test_unit_gaussian_at_one():
    assert gauss(0.0, 0.0).log_prob(np.array([1.0])).value == pytest.approx(-1.418939, abs=1e-6)


def test_variance_four_at_zero():
    # direct formula: -0.5 ln(2 pi) - 0.5 ln 4
    expect = -0.5 * math.log(2 * math.pi) - 0.5 * math.log(4.0)
    got = gauss(0.0, math.log(4.0)).log_prob(np.array([0.0])).value
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(-1.612086, abs=5e-7)


def test_log_prob_dimension_mismatch():
    with pytest.raises(ShapeMismatchError):
        gauss([0.0, 0.0], [0.0, 0.0]).log_prob(np.zeros(3))


def test_density_integrates_to_one_1d():
    d = gauss(0.3, math.log(0.7))
    xs = np.linspace(-12, 12, 20001)
    dens = np.exp(np.array([d.log_prob(np.array([x])).value for x in xs[::10]]))
    total = np.trapezoid(dens, xs[::10])
    assert total == pytest.approx(1.0, abs=1e-3)


def test_rsample_deterministic_cases():
    assert rsample(gauss(5.0, 0.0), np.array([0.0])).value[0] == 5.0
    assert rsample(gauss(0.0, 2.0 * math.log(2.0)), np.array([1.0])).value[0] == pytest.approx(2.0)


def test_rsample_gradient_paths():
    mean = Tensor.param(np.array([1.0]))
    log_var = Tensor.param(np.array([0.4]))
    eps = 0.7
    z = rsample(DiagonalGaussian(mean=mean, log_var=log_var), np.array([eps]))
    grads = backward(z.sum(), {"mean": mean, "log_var": log_var})
    assert grads["mean"][0] == pytest.approx(1.0)
    assert grads["log_var"][0] == pytest.approx(0.5 * math.exp(0.5 * 0.4) * eps)


dyadic = st.integers(min_value=-(1 << 20), max_value=1 << 20).map(lambda k: k / 1024.0)


@settings(max_examples=100, deadline=None)
@given(mean=dyadic, eps=dyadic)
def test_rsample_antithetic_exact_unit_scale(mean, eps):
    # dyadic lattice + unit scale keeps every operation exact in f64
    d = gauss(mean, 0.0)
    plus = rsample(d, np.array([eps])).value[0]
    minus = rsample(d, np.array([-eps])).value[0]
    assert (plus + minus) / 2.0 == mean


@settings(max_examples=100, deadline=None)
@given(log_var=st.floats(-6, 6), eps=st.floats(-20, 20, allow_nan=False))
def test_rsample_antithetic_exact_zero_mean(log_var, eps):
    # scaling is sign-symmetric, so the draws cancel exactly at mean zero
    d = gauss(0.0, log_var)
    plus = rsample(d, np.array([eps])).value[0]
    minus = rsample(d, np.array([-eps])).value[0]
    assert (plus + minus) / 2.0 == 0.0


def test_gaussian_product_closed_form():
    combined = gaussian_product([gauss(1.0, 0.0), gauss(3.0, 0.0), gauss(0.0, 0.0)])
    assert combined.mean.value[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert math.exp(combined.log_var.value[0]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_gaussian_product_single_component_identity():
    single = gaussian_product([gauss(0.7, -0.3)])
    assert single.mean.value[0] == pytest.approx(0.7, abs=1e-12)
    assert single.log_var.value[0] == pytest.approx(-0.3, abs=1e-12)


def test_gaussian_product_vague_component_vanishes():
    vague = gauss(1.0, math.log(1e8))
    combined = gaussian_product([vague, gauss(0.0, 0.0)])
    assert combined.mean.value[0] == pytest.approx(0.0, abs=1e-6)
    assert math.exp(combined.log_var.value[0]) == pytest.approx(1.0, abs=1e-6)


def test_gaussian_product_empty_without_prior_errors():
    with pytest.raises(ValueError):
        gaussian_product([])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-2, 2)), min_size=2, max_size=4),
       st.booleans())
def test_gaussian_product_commutative_associative(params, prior):
    comps = [gauss(m, lv) for m, lv in params] + ([gauss(0.0, 0.0)] if prior else [])
    a = gaussian_product(comps)
    b = gaussian_product(list(reversed(comps)))
    assert a.mean.value[0] == pytest.approx(b.mean.value[0], abs=1e-12)
    assert a.log_var.value[0] == pytest.approx(b.log_var.value[0], abs=1e-12)
    # associativity via nesting: product(product(first two), rest)
    if len(comps) > 2:
        head = gaussian_product(comps[:2])
        nested = gaussian_product([head] + comps[2:])
        assert nested.mean.value[0] == pytest.approx(a.mean.value[0], abs=1e-12)
        assert nested.log_var.value[0] == pytest.approx(a.log_var.value[0], abs=1e-12)


def test_bernoulli_log_prob_matches_direct_formula():
    logits = np.array([0.5, -1.2, 3.0])
    targets = np.array([1.0, 0.0, 0.25])
    d = FactorBernoulli(logits=Tensor.const(logits))
    p = 1.0 / (1.0 + np.exp(-logits))
    expect = np.sum(targets * np.log(p) + (1 - targets) * np.log1p(-p))
    assert d.log_prob(targets).value == pytest.approx(expect, abs=1e-12)


def test_bernoulli_probabilities_strictly_inside_unit_interval():
    d = FactorBernoulli(logits=Tensor.const(np.array([-1e9, 0.0, 1e9])))
    probs = d.mean.value
    assert 0.0 < probs[0] < 1.0 and 0.0 < probs[2] < 1.0
    assert probs[1] == pytest.approx(0.5)


def test_bernoulli_gradient_bounded_by_clamp():
    logits = Tensor.param(np.array([100.0]))
    d = FactorBernoulli(logits=logits)
    grad = backward(d.log_prob(np.array([0.0])).sum(), {"logits": logits})["logits"]
    assert grad[0] == 0.0  # outside the clamp window


def test_standard_normal_log_prob_gradient():
    z = Tensor.param(np.array([1.5, -0.5]))
    grad = backward(standard_normal_log_prob(z).sum(), {"z": z})["z"]
    assert np.allclose(grad, -z.value)


def test_gaussian_log_prob_gradients_vs_finite_difference():
    rng = np.random.default_rng(1)
    mean = Tensor.param(rng.standard_normal(4))
    log_var = Tensor.param(rng.standard_normal(4) * 0.3)
    v = rng.standard_normal(4)

    def f():
        return gaussian_log_prob(DiagonalGaussian(mean=mean, log_var=log_var), v).sum()

    grads = backward(f(), {"mean": mean, "log_var": log_var})
    for p, g in ((mean, grads["mean"]), (log_var, grads["log_var"])):
        for i in range(4):
            keep = p.value[i]
            p.value[i] = keep + 1e-6
            hi = f().value
            p.value[i] = keep - 1e-6
            lo = f().value
            p.value[i] = keep
            assert (hi - lo) / 2e-6 == pytest.approx(g[i], rel=1e-5, abs=1e-8)


def near_pairs(scale, shared, rows=6, comps=5, dim=16, seed=0):
    """Values at `scale` from zero, spread by about 1, and means within 1e-2 of the
    first `comps` values: the expanded square cancels most on the near pairs."""
    rng = np.random.default_rng(seed)
    offset = scale * rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
    values = offset + rng.standard_normal((rows, dim))
    mean = values[:comps] + 1e-2 * rng.standard_normal((comps, dim))
    log_var = 0.5 * rng.standard_normal(dim if shared else (comps, dim))
    return values, mean, log_var


@pytest.mark.parametrize("shared", [True, False], ids=["shared-log-var", "per-row-log-var"])
@pytest.mark.parametrize("scale", [0.0, 1.0, 1e2, 1e4])
def test_pairwise_gaussian_matches_log_prob_on_broadcast_pairs(scale, shared):
    values, mean, log_var = near_pairs(scale, shared)
    d = DiagonalGaussian(mean=Tensor.const(mean), log_var=Tensor.const(log_var))
    got = pairwise_log_prob(d, values).value
    ref = gaussian_log_prob(DiagonalGaussian(mean=Tensor.const(mean[None]),
                                             log_var=Tensor.const(log_var if shared else log_var[None])),
                            values[:, None, :]).value
    assert got.shape == (6, 5)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_pairwise_log_prob_reads_leading_axes_row_major():
    rng = np.random.default_rng(1)
    mean, log_var = rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 2, 4))
    values = rng.standard_normal((2, 5, 4))
    got = pairwise_log_prob(DiagonalGaussian(mean=Tensor.const(mean), log_var=Tensor.const(log_var)),
                            values).value
    flat = pairwise_log_prob(DiagonalGaussian(mean=Tensor.const(mean.reshape(6, 4)),
                                              log_var=Tensor.const(log_var.reshape(6, 4))),
                             values.reshape(10, 4)).value
    assert got.shape == (10, 6) and np.array_equal(got, flat)
    with pytest.raises(ShapeMismatchError):
        pairwise_log_prob(gauss([0.0, 0.0], [0.0, 0.0]), np.zeros((2, 3)))


def test_pairwise_bernoulli_matches_log_prob_on_broadcast_pairs():
    rng = np.random.default_rng(2)
    logits = rng.uniform(-20.0, 20.0, (5, 16))  # some beyond the clamp
    targets = rng.uniform(size=(6, 16))
    got = pairwise_log_prob(FactorBernoulli(logits=Tensor.const(logits)), targets).value
    ref = FactorBernoulli(logits=Tensor.const(logits[None])).log_prob(targets[:, None, :]).value
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="constant targets"):
        pairwise_log_prob(FactorBernoulli(logits=Tensor.const(logits)), Tensor.param(targets))


@pytest.mark.parametrize("shared", [True, False], ids=["shared-log-var", "per-row-log-var"])
def test_pairwise_gaussian_gradients_match_finite_differences(shared):
    # the values carry a gradient too, as the draws z do
    values, mean, log_var = near_pairs(0.0, shared, rows=4, comps=3, dim=3, seed=3)
    weights = np.random.default_rng(4).standard_normal((4, 3))
    params = {"values": Tensor.param(values), "mean": Tensor.param(mean),
              "log_var": Tensor.param(log_var)}

    def f(p):
        d = DiagonalGaussian(mean=p["mean"], log_var=p["log_var"])
        return (pairwise_log_prob(d, p["values"]) * weights).sum()

    assert finite_difference_check(f, params) < 1e-6


def test_pairwise_bernoulli_gradient_matches_finite_differences_and_stops_at_clamp():
    rng = np.random.default_rng(5)
    logits = rng.uniform(-3.0, 3.0, (3, 4))
    logits[0, 1], logits[2, 3] = 17.0, -16.0
    targets = rng.uniform(size=(4, 4))
    weights = rng.standard_normal((4, 3))
    params = {"logits": Tensor.param(logits)}

    def f(p):
        return (pairwise_log_prob(FactorBernoulli(logits=p["logits"]), targets) * weights).sum()

    assert finite_difference_check(f, params) < 1e-6
    grad = backward(f(params), params)["logits"]
    outside = np.abs(logits) >= LOGIT_CLAMP
    assert outside.sum() == 2 and np.all(grad[outside] == 0.0) and np.all(grad[~outside] != 0.0)
