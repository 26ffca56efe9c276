import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvae.autodiff import (
    ShapeMismatchError,
    Tensor,
    affine,
    backward,
    concat,
)
from gradcheck import finite_difference_check


def logsumexp(values) -> Tensor:
    return Tensor.const(values).logsumexp(axis=0)


def test_affine_1x1():
    w = Tensor.param(np.array([[2.0]]))
    b = Tensor.param(np.array([1.0]))
    out = affine(np.array([[3.0]]), w, b)
    assert out.value[0, 0] == 7.0


def test_exp_log_inverse():
    for x in (0.01, 1.0, 3.5, 100.0):
        t = Tensor.const(np.array([x]))
        back = t.log().exp().value[0]
        assert abs(back - x) / x < 1e-12


def test_sum_gradient_all_ones():
    x = Tensor.param(np.ones(4))
    loss = x.sum()
    assert loss.value == 4.0
    assert np.array_equal(backward(loss, {"x": x})["x"], np.ones(4))


def test_shape_mismatch_names_both_shapes():
    a = Tensor.const(np.zeros((2, 3)))
    b = Tensor.const(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatchError) as err:
        _ = a + b
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(ShapeMismatchError):
        affine(a, b, Tensor.const(np.zeros(5)))


def test_logsumexp_equal_entries():
    assert logsumexp([0.0, 0.0, 0.0]).value == pytest.approx(math.log(3.0), abs=1e-12)


def test_logsumexp_overflow_safe():
    v = logsumexp([1000.0, 1000.0]).value
    assert v == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)
    big = logsumexp([1e6, -1e6, 5.0]).value
    assert np.isfinite(big) and big == pytest.approx(1e6, abs=1e-6)


def test_logsumexp_value_against_extended_precision():
    # independent oracle: direct summation at 50-digit precision
    with mpmath.workdps(50):
        expect = float(mpmath.log(mpmath.fsum([mpmath.e ** k for k in (1, 2, 3)])))
    assert logsumexp([1.0, 2.0, 3.0]).value == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(3.407606, abs=5e-7)


def test_logsumexp_empty_vector_errors():
    with pytest.raises(ValueError):
        logsumexp([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=12))
def test_logsumexp_minus_max_bounds(values):
    out = logsumexp(values).value - max(values)
    assert -1e-9 <= out <= math.log(len(values)) + 1e-9


def test_logsumexp_gradient_is_softmax():
    x = Tensor.param(np.array([1.0, 2.0, 3.0]))
    grad = backward(x.logsumexp(axis=0), {"x": x})["x"]
    soft = np.exp(x.value - x.value.max())
    soft /= soft.sum()
    assert np.allclose(grad, soft, atol=1e-12)


def test_backward_square():
    x = Tensor.param(3.0)
    assert backward(x * x, {"x": x})["x"] == pytest.approx(6.0)


def test_backward_logsumexp_symmetry():
    x = Tensor.param(0.0)
    both = concat([x.reshape(1), Tensor.const([0.0])], axis=0)
    assert backward(both.logsumexp(axis=0), {"x": x})["x"] == pytest.approx(0.5)


def test_backward_unreachable_param_zero_grad():
    x = Tensor.param(np.array([2.0]))
    unused = Tensor.param(np.array([5.0]))
    grads = backward((x * x).sum(), {"x": x, "unused": unused})
    assert grads["x"][0] == pytest.approx(4.0)
    assert np.array_equal(grads["unused"], np.zeros(1))


def test_backward_keys_gradients_by_the_callers_keys_and_stores_nothing():
    a = Tensor.param(np.ones(3))
    b = Tensor.param(np.full(3, 2.0))
    loss = a.sum() + (b * b).sum()
    grads = backward(loss, {"a": a, "b": b})
    assert np.array_equal(grads["a"], np.ones(3)) and np.array_equal(grads["b"], np.full(3, 4.0))
    again = backward(loss, {"a": a, "b": b})  # nothing accumulates between calls
    assert all(np.array_equal(grads[k], again[k]) for k in grads)
    with pytest.raises(AttributeError):
        a.grad = np.zeros(3)  # a Tensor has no gradient slot


def test_backward_rejects_nonscalar():
    x = Tensor.param(np.ones(3))
    with pytest.raises(ValueError):
        backward(x * 2.0, {"x": x})


def test_backward_visits_shared_subgraph_once():
    x = Tensor.param(2.0)
    y = x * x        # used twice below
    loss = y * y     # x^4 -> grad 4 x^3 = 32
    assert backward(loss, {"x": x})["x"] == pytest.approx(32.0)


def test_three_layer_perceptron_grads_match_finite_differences():
    rng = np.random.default_rng(7)
    params = {
        "w0": Tensor.param(rng.standard_normal((4, 5)) / 2.0),
        "b0": Tensor.param(rng.standard_normal(5) / 2.0),
        "w1": Tensor.param(rng.standard_normal((5, 5)) / 2.0),
        "b1": Tensor.param(rng.standard_normal(5) / 2.0),
        "w2": Tensor.param(rng.standard_normal((5, 1)) / 2.0),
        "b2": Tensor.param(rng.standard_normal(1) / 2.0),
    }
    x = rng.standard_normal((6, 4))

    def f(p):
        h = affine(x, p["w0"], p["b0"]).tanh()
        h = affine(h, p["w1"], p["b1"]).tanh()
        out = affine(h, p["w2"], p["b2"])
        return (out * out).mean()

    assert finite_difference_check(f, params) < 1e-5


def test_finite_difference_simple_quadratic():
    p = {"p": Tensor.param(np.array([1.0]))}

    def f(params):
        return (params["p"] * params["p"]).sum()

    assert finite_difference_check(f, p) < 1e-8


def test_finite_difference_constant_function_zero_error():
    p = {"p": Tensor.param(np.array([1.0, -2.0]))}

    def f(params):
        return params["p"].sum() * 0.0

    assert finite_difference_check(f, p) == 0.0


def test_finite_difference_nonfinite_errors():
    p = {"p": Tensor.param(np.array([0.0]))}

    def f(params):
        return params["p"].log().sum()  # -inf at 0

    with np.errstate(divide="ignore"), pytest.raises(FloatingPointError):
        finite_difference_check(f, p)


def test_rerun_bit_identical():
    rng = np.random.default_rng(3)
    w = Tensor.param(rng.standard_normal((8, 8)))
    x = rng.standard_normal((16, 8))

    def once():
        out = affine(x, w, Tensor.const(np.zeros(8))).tanh().sum()
        return out.value.copy(), backward(out, {"w": w})["w"]

    v1, g1 = once()
    v2, g2 = once()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_broadcast_bias_gradient():
    b = Tensor.param(np.zeros(3))
    x = Tensor.const(np.ones((5, 3)))
    assert np.array_equal(backward(((x + b) * 2.0).sum(), {"b": b})["b"], np.full(3, 10.0))


def test_getitem_slice_gradient():
    x = Tensor.param(np.arange(6.0))
    grad = backward((x[2:4] * 3.0).sum(), {"x": x})["x"]
    expect = np.zeros(6)
    expect[2:4] = 3.0
    assert np.array_equal(grad, expect)


def test_getitem_repeated_indices_accumulate_gradient():
    x = Tensor.param(np.arange(3.0))
    assert np.array_equal(backward(x[[0, 0, 2]].sum(), {"x": x})["x"], [2.0, 0.0, 1.0])
    y = Tensor.param(np.zeros((2, 3)))
    rows, cols = np.array([[1, 1], [0, 1]]), np.arange(2)
    grad = backward((y[rows, cols] * np.array([[1.0, 2.0], [4.0, 8.0]])).sum(), {"y": y})["y"]
    assert np.array_equal(grad, [[4.0, 0.0, 0.0], [1.0, 10.0, 0.0]])


def test_concat_gradient_splits():
    a = Tensor.param(np.ones(2))
    b = Tensor.param(np.ones(3))
    grads = backward((concat([a, b], axis=0) * np.arange(5.0)).sum(), {"a": a, "b": b})
    assert np.array_equal(grads["a"], [0.0, 1.0])
    assert np.array_equal(grads["b"], [2.0, 3.0, 4.0])


def explicit_scatter(shape, idx, g):
    """The gather adjoint as a loop: each gathered entry adds its g to its source entry."""
    source = np.arange(math.prod(shape)).reshape(shape)[idx]
    out = np.zeros(math.prod(shape))
    for s, v in zip(source.reshape(-1), g.reshape(-1)):
        out[s] += v
    return out.reshape(shape)


_rng = np.random.default_rng(11)


@pytest.mark.parametrize("shape, idx", [
    ((64, 15), np.concatenate([np.arange(64), _rng.integers(64, size=640)])),  # repeated rows
    ((64, 960), (_rng.integers(64, size=(704, 1)), _rng.integers(960, size=(704, 15)))),
    ((4, 3), [3, 0, 3, -1]),
    ((4, 3, 2), (1, np.array([[0, 2], [2, 2]]))),
], ids=["leading-axis", "two-axis", "list", "int-and-array"])
def test_gather_adjoint_matches_an_explicit_loop(shape, idx):
    rng = np.random.default_rng(5)
    x = Tensor.param(rng.standard_normal(shape))
    gathered = x[idx]
    g = rng.standard_normal(gathered.shape)
    grad = backward((gathered * g).sum(), {"x": x})["x"]
    assert np.array_equal(grad, explicit_scatter(shape, idx, g))


@pytest.mark.parametrize("idx", [(slice(None), np.array([0, 0])), np.array([True, False, True]),
                                 (np.array([0, 1]), Ellipsis)], ids=["slice-and-array", "mask", "ellipsis"])
def test_gather_rejects_other_indices_when_recorded(idx):
    x = Tensor.param(np.ones((3, 3)))
    with pytest.raises(IndexError, match="integer indices over the leading axes"):
        x[idx]
