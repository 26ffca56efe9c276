"""Estimators of the log joint marginal likelihood.

Three interchangeable approximations: the single/multi-sample ELBO, the
importance-weighted K-sample lower bound (IWAE), and a chi-square-style
upper-bound estimator (CUBO) computed as half the log of the mean squared
importance weight.  The CUBO form here keeps the expectation outside the
log of the sample average, which is a biased estimate of the true
chi-square bound; the bias vanishes as K grows.

All estimators return per-item values; batch reductions belong to the
objective layer.  Per-item sampling noise is keyed on item content, so
estimates are deterministic under a fixed seed and invariant to batch
permutation.  The mixture posterior keys each draw on the one modality row
it comes from, so scoring pair (x_i, y_j) out of a batch through `pairs`
gives the same estimate as scoring it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .distributions import sample_per_row, standard_normal_log_prob
from .seeding import per_row_normal

ESTIMATOR_KINDS = ("elbo", "iwae", "cubo")


@dataclass(frozen=True)
class EstimatorSpec:
    kind: str
    num_samples: int = 30

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"estimator kind must be one of {ESTIMATOR_KINDS}")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


def joint_log_weights(model, obs_by_modality: dict, num_samples: int, seed: int,
                      pairs: dict | None = None) -> Tensor:
    """Log importance weights log p(z, obs) - log q(z | obs), shape (P, K).

    Pair p is row pairs[m][p] of every modality m; without `pairs`, P = B
    and pair p is row p of every modality.  The mixture posterior draws and
    decodes each modality row's samples once, however many pairs use the
    row, and gathers the prior, the likelihoods and its mixture density per
    pair (see MultimodalModel.joint_posterior_samples).  Other posteriors
    condition on the whole pair, so the pair rows are gathered and scored
    as a batch.

    Modalities are folded in sorted-name order so the result is bit-stable
    under relabeling of the modality list.
    """
    obs = {n: np.atleast_2d(np.asarray(v, dtype=np.float64)) for n, v in obs_by_modality.items()}
    shared = pairs is not None and getattr(model, "joint_kind", None) == "moe"
    if shared:
        z, log_q = model.joint_posterior_samples(obs, num_samples, seed, pairs)
    if pairs is not None:
        obs = {n: obs[n][rows] for n, rows in pairs.items()}
    if not shared:
        z, log_q = model.joint_posterior_samples(obs, num_samples, seed)
    log_p = standard_normal_log_prob(z)
    liks = model.decode_all(z)
    if shared:
        log_p = model.pair_draws(log_p, pairs)
        liks = {n: lik.map_rows(lambda t: model.pair_draws(t, pairs)) for n, lik in liks.items()}
    for name in sorted(liks):
        log_p = log_p + liks[name].log_prob(obs[name][:, None, :])
    return log_p - log_q


def bound_from_log_weights(log_w: Tensor, kind: str) -> Tensor:
    """Reduce (B, K) log weights to a per-item bound estimate (B,)."""
    k = log_w.shape[-1]
    if kind == "elbo":
        return log_w.mean(axis=-1)
    if kind == "iwae":
        return log_w.logsumexp(axis=-1) - float(np.log(k))
    if kind == "cubo":
        return 0.5 * ((2.0 * log_w).logsumexp(axis=-1) - float(np.log(k)))
    raise ValueError(f"unknown estimator kind {kind!r}")


def joint_bound(model, obs_by_modality: dict, spec: EstimatorSpec, seed: int) -> Tensor:
    return bound_from_log_weights(
        joint_log_weights(model, obs_by_modality, spec.num_samples, seed), spec.kind)


def _pair_obs(model, x, y) -> dict:
    names = [m.name for m in model.modalities]
    if len(names) != 2:
        raise ValueError("x/y form requires a two-modality model")
    return {names[0]: x, names[1]: y}


def elbo(model, x, y, num_samples: int, seed: int) -> Tensor:
    """Per-item multi-sample ELBO, (1/S) sum_s [log p(z_s, x, y) - log q(z_s | x, y)]."""
    return joint_bound(model, _pair_obs(model, x, y), EstimatorSpec("elbo", num_samples), seed)


def iwae(model, x, y, num_samples: int, seed: int) -> Tensor:
    """Per-item K-sample importance-weighted bound, logsumexp_k(log w_k) - log K."""
    return joint_bound(model, _pair_obs(model, x, y), EstimatorSpec("iwae", num_samples), seed)


def cubo(model, x, y, num_samples: int, seed: int) -> Tensor:
    """Per-item upper-bound estimate, (logsumexp_k(2 log w_k) - log K) / 2."""
    return joint_bound(model, _pair_obs(model, x, y), EstimatorSpec("cubo", num_samples), seed)


def unimodal_marginal(model, name: str, obs, num_samples: int, seed: int) -> Tensor:
    """IWAE estimate of one modality's marginal log-likelihood.

    Uses the unimodal encoder as the proposal and only that modality's
    decoder likelihood in the weights.
    """
    model.modality(name)  # raises UnknownModalityError for bad names
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    q = model.encode_unimodal(name, obs)
    noise = per_row_normal(seed, f"unimodal_marginal.{name}", [(r,) for r in obs],
                           (num_samples, model.latent_dim))
    z, log_q = sample_per_row(q, noise)
    log_w = standard_normal_log_prob(z) + model.decode(name, z).log_prob(obs[:, None, :]) - log_q
    return bound_from_log_weights(log_w, "iwae")
