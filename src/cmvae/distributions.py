"""Diagonal Gaussian and factorized Bernoulli families.

Both are thin dataclasses over Tensors so that log-densities and
reparameterized samples stay differentiable.  Parameters may carry a
leading batch axis; log-densities reduce over the trailing event axis
only.  All functions are pure and safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatchError, Tensor, _unbroadcast, _unbroadcast_product

LOG_2PI = float(np.log(2.0 * np.pi))
LOGIT_CLAMP = 15.0  # keeps Bernoulli probabilities strictly inside (0, 1)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor.const(x)


@dataclass(frozen=True)
class DiagonalGaussian:
    """Mean / log-variance parameterization of an axis-aligned Gaussian."""

    mean: Tensor
    log_var: Tensor

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def log_prob(self, value) -> Tensor:
        return gaussian_log_prob(self, value)

    def rsample(self, noise) -> Tensor:
        return rsample(self, noise)

    def per_row(self) -> "DiagonalGaussian":
        """(B, L) parameters viewed as (B, 1, L), to broadcast over S draws per row."""
        rows, dim = self.mean.shape
        return DiagonalGaussian(mean=self.mean.reshape(rows, 1, dim),
                                log_var=self.log_var.reshape(rows, 1, dim))


@dataclass(frozen=True)
class FactorBernoulli:
    """Independent Bernoulli per coordinate, parameterized by logits."""

    logits: Tensor

    @property
    def dim(self) -> int:
        return self.logits.shape[-1]

    @property
    def mean(self) -> Tensor:
        """Success probabilities as a constant: no path differentiates them."""
        lo = np.clip(self.logits.value, -LOGIT_CLAMP, LOGIT_CLAMP)
        return Tensor.const(1.0 / (1.0 + np.exp(-lo)))

    def log_prob(self, value) -> Tensor:
        """Sum of per-coordinate Bernoulli log-likelihoods.

        Accepts targets in [0, 1] (cross-entropy form).  Logits are clamped
        to +-15 first, which bounds both the density and its gradient.
        Fused single-op evaluation; targets must be constants.
        """
        v = _as_tensor(value)
        if v.requires_grad:
            raise ValueError("bernoulli log_prob expects constant targets")
        if v.shape[-1] != self.dim:
            raise ShapeMismatchError("bernoulli_log_prob", v.shape, self.logits.shape)
        raw = self.logits.value
        lo = np.clip(raw, -LOGIT_CLAMP, LOGIT_CLAMP)
        vv = v.value
        val = (vv * lo - np.logaddexp(0.0, lo)).sum(axis=-1)
        logits = self.logits

        def vjp(g):
            sig = 1.0 / (1.0 + np.exp(-lo))
            inside = (np.abs(raw) < LOGIT_CLAMP).astype(np.float64)
            return _unbroadcast(g[..., None] * (vv - sig) * inside, raw.shape)

        return Tensor(val, parents=((logits, vjp),))


def gaussian_log_prob(d: DiagonalGaussian, value) -> Tensor:
    """log N(value; mean, diag exp(log_var)), reduced over the event axis.

    Fused into a single graph node with analytic adjoints for the value,
    the mean, and the log-variance.
    """
    v = _as_tensor(value)
    if v.shape[-1] != d.mean.shape[-1]:
        raise ShapeMismatchError("gaussian_log_prob", v.shape, d.mean.shape)
    mean, log_var = d.mean, d.log_var
    try:
        diff = v.value - mean.value
    except ValueError:
        raise ShapeMismatchError("gaussian_log_prob", v.shape, mean.shape) from None
    inv_var = np.exp(-log_var.value)
    dp = diff * inv_var
    const = np.broadcast_to(LOG_2PI + log_var.value, log_var.shape[:-1] + dp.shape[-1:])
    val = -0.5 * (const.sum(axis=-1) + np.einsum("...d,...d->...", diff, dp))

    def vjp_value(g):
        return -_unbroadcast_product(v.value.shape, g[..., None], dp)

    def vjp_mean(g):
        return _unbroadcast_product(mean.value.shape, g[..., None], dp)

    def vjp_log_var(g):
        shape, g = log_var.value.shape, g[..., None]
        return 0.5 * (_unbroadcast_product(shape, g, diff, dp)
                      - _unbroadcast_product(shape, g, np.ones(dp.shape[-1:])))

    return Tensor(val, parents=((v, vjp_value), (mean, vjp_mean), (log_var, vjp_log_var)))


def pairwise_log_prob(d: DiagonalGaussian | FactorBernoulli, values) -> Tensor:
    """Log density of every row of `values` under every one of d's distributions, shape (R, C).

    Leading axes are flattened row-major: d's into C distributions, values'
    into R rows; a Gaussian log-variance of shape (D,) is shared.  Entries
    are matrix products, as in InfoNCE/CLIP's logit matrix.  A Bernoulli
    density is linear in v; a Gaussian's (v - mean)^2 / var expands into
    three products, after v and mean are centred on the column mean of
    `values`, so it cancels only as far as the values spread, not as far
    as they lie from zero.  One graph node with analytic adjoints; only a
    Gaussian's values may carry a gradient.
    """
    v = _as_tensor(values)
    if v.shape[-1] != d.dim:
        raise ShapeMismatchError("pairwise_log_prob", v.shape, (d.dim,))
    vv = v.value.reshape(-1, d.dim)
    if isinstance(d, FactorBernoulli):
        if v.requires_grad:
            raise ValueError("bernoulli log_prob expects constant targets")
        raw = d.logits.value.reshape(-1, d.dim)
        lo = np.clip(raw, -LOGIT_CLAMP, LOGIT_CLAMP)

        def vjp_logits(g):
            sig = 1.0 / (1.0 + np.exp(-lo))
            inside = (np.abs(raw) < LOGIT_CLAMP).astype(np.float64)
            return ((g.T @ vv - g.sum(axis=0)[:, None] * sig) * inside).reshape(d.logits.shape)

        return Tensor(vv @ lo.T - np.logaddexp(0.0, lo).sum(axis=-1), parents=((d.logits, vjp_logits),))
    mean, log_var = d.mean, d.log_var
    if log_var.ndim != 1 and log_var.shape != mean.shape:
        raise ShapeMismatchError("pairwise_log_prob", log_var.shape, mean.shape)
    centre = vv.mean(axis=0)  # free: every term and adjoint depends on v - mean only
    x, m = vv - centre, mean.value.reshape(-1, d.dim) - centre
    lv = log_var.value.reshape(-1, d.dim) if log_var.ndim > 1 else log_var.value
    a = np.broadcast_to(np.exp(-lv), m.shape)
    am = a * m
    const = (LOG_2PI + lv).sum(axis=-1) + (am * m).sum(axis=-1)

    def vjp_value(g):
        return (g @ am - x * (g @ a)).reshape(v.shape)

    def vjp_mean(g):
        return (a * (g.T @ x - g.sum(axis=0)[:, None] * m)).reshape(mean.shape)

    def vjp_log_var(g):
        cols = g.sum(axis=0)[:, None]
        sq = g.T @ (x * x) - 2.0 * m * (g.T @ x) + cols * m * m  # sum_r g_rc (x_r - m_c)^2
        grad = 0.5 * (a * sq - cols)
        return grad.reshape(log_var.shape) if log_var.ndim > 1 else grad.sum(axis=0)

    return Tensor(x @ am.T - 0.5 * ((x * x) @ a.T + const),
                  parents=((v, vjp_value), (mean, vjp_mean), (log_var, vjp_log_var)))


def standard_normal_log_prob(value) -> Tensor:
    v = _as_tensor(value)
    val = (-0.5 * (LOG_2PI + v.value * v.value)).sum(axis=-1)

    def vjp(g):
        return -g[..., None] * v.value

    return Tensor(val, parents=((v, vjp),))


def rsample(d: DiagonalGaussian, noise) -> Tensor:
    """Reparameterized draw mean + exp(log_var / 2) * noise.

    The standard-normal noise is supplied by the caller so that sampling
    stays deterministic under the caller's seed discipline.
    """
    eps = _as_tensor(noise)
    return d.mean + (0.5 * d.log_var).exp() * eps


def mixture_log_density(log_densities: list[Tensor]) -> Tensor:
    """Equal-weight mixture density log(1/M sum_k q_k), from each component's log q_k."""
    acc = log_densities[0]
    for term in log_densities[1:]:
        m = Tensor.const(np.maximum(acc.value, term.value))
        acc = ((acc - m).exp() + (term - m).exp()).log() + m
    return acc - float(np.log(len(log_densities)))


def gaussian_product(components: list[DiagonalGaussian]) -> DiagonalGaussian:
    """Precision-weighted product of diagonal Gaussians.

    lambda = sum_i lambda_i, mean = sum_i lambda_i mean_i / lambda, over
    exactly the components given; a prior is one more component.
    """
    if not components:
        raise ValueError("gaussian_product of no components")
    precisions = [(-c.log_var).exp() for c in components]
    total, weighted = precisions[0], components[0].mean * precisions[0]
    for c, lam in zip(components[1:], precisions[1:]):
        total = total + lam
        weighted = weighted + c.mean * lam
    return DiagonalGaussian(mean=weighted / total, log_var=-total.log())
