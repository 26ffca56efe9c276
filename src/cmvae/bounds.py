"""Estimators of the log joint marginal likelihood.

Observations travel as a dict keyed by modality name, name -> (B, D)
rows, with row b of every modality forming item b; no estimator binds
arrays to modalities by position.  `joint_bound(model, obs, kind, K,
seed)` reduces K importance weights per item to one of three
interchangeable estimates: the multi-sample ELBO, the importance-weighted
K-sample lower bound (IWAE), and a chi-square-style upper-bound estimator
(CUBO) computed as half the log of the mean squared importance weight.
The CUBO form here keeps the expectation outside the log of the sample
average, which is a biased estimate of the true chi-square bound; the
bias vanishes as K grows.  `unimodal_marginal` is the IWAE of one
modality alone, from that modality's `unimodal_draws`.

All estimators return per-item values; batch reductions belong to the
objective layer.  Per-item sampling noise is keyed on item content, so
estimates are deterministic under a fixed seed and invariant to batch
permutation up to BLAS rounding (a matrix product may round the last bits
of a row differently at another number of rows).  The mixture posterior
keys each draw on the one modality row it comes from, so scoring pair
(x_i, y_j) out of a batch through joint_log_weight_blocks' `pairs` gives
the same estimate as scoring it alone.  There, every term that depends on
one row only (its draws, the prior, that modality's likelihood and its
mixture component) is evaluated once per row; each pair gathers its cross
terms from matrix products over all in-batch row pairs
(distributions.pairwise_log_prob).  Without `pairs`, as in PMI scoring,
only their diagonal is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .distributions import (DiagonalGaussian, mixture_log_density, pairwise_log_prob,
                            standard_normal_log_prob)
from .models import mixture_split
from .seeding import per_row_normal


def joint_log_weights(model, obs_by_modality: dict, num_samples: int, seed: int) -> Tensor:
    """Log importance weights log p(z, obs) - log q(z | obs), shape (B, K); item b is row b of every modality.

    Modalities are folded in sorted-name order so the result is bit-stable
    under relabeling of the modality list.
    """
    obs = {n: np.atleast_2d(np.asarray(v, dtype=np.float64)) for n, v in obs_by_modality.items()}
    z, log_q = model.joint_posterior_samples(obs, num_samples, seed)
    log_p = standard_normal_log_prob(z)
    liks = model.decode_all(z)
    for name in sorted(liks):
        log_p = log_p + liks[name].log_prob(obs[name][:, None, :])
    return log_p - log_q


def joint_log_weight_blocks(model, obs_by_modality: dict, num_samples: int, seed: int,
                            pairs: dict | None = None, names=None, draws=None) -> dict[str, Tensor]:
    """Log weights of pairs as column blocks by name, each its own graph but for the encoders.

    Pair p is row pairs[m][p] of every modality m (row p without `pairs`).
    A mixture posterior's weights split into one block per modality m, the
    (P, S/M) weights at the S/M draws from each pair's row of m; block m
    decodes only those draws, so the blocks share only the two encoders'
    outputs.  `names` picks the blocks to compute (default: all).  draws[m],
    if given, holds at least S/M unimodal_draws per row of m made with
    `seed`, whose first S/M block m scores.  All blocks in name order are
    joint_log_weights of the gathered pair rows up to rounding, bit for bit
    without `pairs`.  Any other posterior is one block, named "joint", of
    the gathered pair rows.
    """
    obs = {m.name: np.atleast_2d(np.asarray(obs_by_modality[m.name], dtype=np.float64))
           for m in model.modalities}
    if model.joint_kind != "moe":
        if pairs is not None:
            obs = {n: obs[n][rows] for n, rows in pairs.items()}
        return {"joint": joint_log_weights(model, obs, num_samples, seed)}
    per = mixture_split(num_samples)
    q = ({n: draws[n].q for n in obs} if draws else
         {n: model.encode_unimodal(n, v).per_row() for n, v in obs.items()})
    blocks = {}
    for n in names or sorted(q):
        own = draws[n] if draws else unimodal_draws(model, n, obs[n], per, seed, q[n])
        blocks[n] = mixture_block(model, obs, q, n, own, per, pairs)
    return blocks


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


def joint_bound(model, obs_by_modality: dict, kind: str, num_samples: int, seed: int) -> Tensor:
    """Per-item `kind` estimate ("elbo", "iwae" or "cubo") from num_samples draws per item."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    return bound_from_log_weights(joint_log_weights(model, obs_by_modality, num_samples, seed), kind)


@dataclass(frozen=True)
class UnimodalDraws:
    """S draws per row from one modality's unimodal posterior, with the parts of their log weights.

    Noise is keyed on each row alone under the mixture posterior's stream
    "joint_posterior.<name>".  per_row_normal is counter-based, so the
    first S/M draws of a row are exactly the ones a mixture posterior over
    M modalities takes from it (MultimodalModel.joint_posterior_samples),
    and joint_log_weight_blocks scores the joint from them (`draws`).
    """

    q: DiagonalGaussian  # per-row parameters viewed as (B, 1, L)
    z: Tensor  # (B, S, L)
    log_prior: Tensor  # log p(z), (B, S)
    log_lik: Tensor  # log p(obs | z) under this modality's own decoder, (B, S)
    log_q: Tensor  # log q(z | obs), (B, S)


def unimodal_draws(model, name: str, obs, num_samples: int, seed: int,
                   q: DiagonalGaussian | None = None) -> UnimodalDraws:
    """Draws from `name`'s posterior at `obs`; `q`, if given, is that posterior, already encoded."""
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    q = model.encode_unimodal(name, obs).per_row() if q is None else q
    noise = per_row_normal(seed, f"joint_posterior.{name}", obs, (num_samples, model.latent_dim))
    z = q.rsample(noise)
    return UnimodalDraws(q=q, z=z, log_prior=standard_normal_log_prob(z),
                         log_lik=model.decode(name, z).log_prob(obs[:, None, :]),
                         log_q=q.log_prob(z))


def unimodal_marginal(draws: UnimodalDraws) -> Tensor:
    """IWAE estimate of one modality's marginal log-likelihood from its unimodal_draws.

    The unimodal encoder is the proposal, and only that modality's decoder
    likelihood enters the weights.
    """
    return bound_from_log_weights(draws.log_prior + draws.log_lik - draws.log_q, "iwae")


def mixture_block(model, obs: dict, q: dict, name: str, own: UnimodalDraws, per: int,
                  pairs: dict | None = None) -> Tensor:
    """The (P, S/M) mixture log weights at the first `per` of `own`, the draws from modality `name`.

    Block m of a pair's S slots is the first S/M draws of its row of m
    (stratified sampling, as in MultimodalModel.joint_posterior_samples).
    There the prior, m's likelihood and m's mixture component depend on
    the row alone, so they are read from `own` and gathered per pair.  A
    cross term (another modality's likelihood, or its component q[k]) is
    one pairwise_log_prob matrix of all rows by all draws of the block,
    whose P x S/M pair entries are gathered; without `pairs`, only its
    diagonal is evaluated.  Terms are added as in joint_log_weights.
    """
    if own.z.shape[1] < per:
        raise ValueError(f"{own.z.shape[1]} draws per row of {name!r}, need {per}")
    head = own.z[:, :per]
    if pairs is not None:
        rows = {n: np.asarray(pairs[n]) for n in obs}
        slots = rows[name][:, None] * per + np.arange(per)  # row-major (row, draw) of the block

    def at(t):  # per-row quantity of this block's modality -> per-pair
        return t if pairs is None else t[rows[name]]

    def cross_lik(target):  # target's likelihood at the block's draws, (P, S/M)
        lik = model.decode(target, head)
        return (lik.log_prob(obs[target][:, None, :]) if pairs is None
                else pairwise_log_prob(lik, obs[target])[rows[target][:, None], slots])

    def cross_q(k):  # k's mixture component at the block's draws, (P, S/M)
        return (q[k].log_prob(head) if pairs is None
                else pairwise_log_prob(q[k], head)[slots, rows[k][:, None]])

    log_p = at(own.log_prior[:, :per])
    for target in sorted(obs):
        log_p = log_p + (at(own.log_lik[:, :per]) if target == name else cross_lik(target))
    return log_p - mixture_log_density([at(own.log_q[:, :per]) if k == name else cross_q(k)
                                        for k in sorted(obs)])
