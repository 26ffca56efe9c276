"""Contrastive training objective over related/unrelated multimodal pairs.

The loss pushes the estimated joint likelihood of a related pair above the
likelihoods of pairs formed with within-batch negatives, with the positive
term upweighted by gamma (> 1) to keep the likelihood-minimizing pull of
the negative term from collapsing the generative model.  The baseline
trains on the plain ELBO and ignores gamma and num_negatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_from_log_weights, joint_bound, joint_log_weights
from .seeding import derive_rng, tag

VARIANTS = ("baseline", "cI", "cC")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Loss weighting and sample count; the variant fixes the estimators, of num_samples draws each.

    "baseline" trains on the ELBO; "cI" and "cC" score the positives with IWAE, the negatives with IWAE and CUBO.
    """

    variant: str = "cI"
    gamma: float = 2.0
    num_negatives: int = 5
    num_samples: int = 30

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma!r}")
        if self.variant != "baseline" and self.num_negatives < 1:
            raise ValueError("num_negatives must be >= 1")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")

    @staticmethod
    def for_variant(variant: str, gamma: float = 2.0, num_negatives: int = 5,
                    num_samples: int = 30) -> "ObjectiveConfig":
        return ObjectiveConfig(variant, gamma, num_negatives, num_samples)


def draw_negatives(batch_size: int, modality_names: list[str], num_negatives: int,
                   seed: int) -> dict[str, np.ndarray]:
    """Uniform without-replacement draws of other batch items, per anchor.

    Returns one (B, N) block of batch indices per modality: each anchor's
    row of a (B, B) matrix of uniform keys, with its own entry masked
    above every key, is stably argsorted and its first N kept.  So an
    anchor's own index never appears among its negatives.
    """
    if batch_size < num_negatives + 1:
        raise ValueError(
            f"batch of {batch_size} cannot supply {num_negatives} negatives per anchor")
    indices = {}
    for name in sorted(modality_names):
        keys = derive_rng(seed, tag(f"negatives.{name}")).random((batch_size, batch_size))
        np.fill_diagonal(keys, 2.0)
        indices[name] = np.argsort(keys, axis=1, kind="stable")[:, :num_negatives]
    return indices


def final_objective(model, batch: dict[str, np.ndarray], cfg: ObjectiveConfig, seed: int):
    """Batch-mean training loss for a two-modality model.

    Returns (loss, term1, term2): the differentiable scalar loss, the mean
    positive-pair estimate, and the mean symmetrized negative log-sum-exp.
    In baseline mode the loss is -mean ELBO and term2 is NaN.

    The B positives and the 2BN negative pairs are scored by one
    joint_log_weights call over index arrays into the batch rows, so each
    modality row is encoded, sampled and decoded once.
    """
    names = [m.name for m in model.modalities]
    obs = {n: np.atleast_2d(np.asarray(batch[n], dtype=np.float64)) for n in names}
    batch_size = obs[names[0]].shape[0]

    if cfg.variant == "baseline":
        pos = joint_bound(model, obs, "elbo", cfg.num_samples, seed)
        return -pos.mean(), float(pos.mean().value), math.nan

    n_neg = cfg.num_negatives
    negatives = draw_negatives(batch_size, names, n_neg, seed)

    # One direction per modality: that modality's row is replaced by each
    # of the anchor's negatives while the other modality keeps the anchor.
    anchors = np.arange(batch_size)
    kept = np.repeat(anchors, n_neg)
    a, b = names
    pairs = {a: np.concatenate([anchors, negatives[a].reshape(-1), kept]),
             b: np.concatenate([anchors, kept, negatives[b].reshape(-1)])}
    log_w = joint_log_weights(model, obs, cfg.num_samples, seed, pairs)
    pos = bound_from_log_weights(log_w[:batch_size], "iwae")
    est = bound_from_log_weights(log_w[batch_size:], "cubo" if cfg.variant == "cC" else "iwae")
    lse = est.reshape(2, batch_size, n_neg).logsumexp(axis=2)

    contrast = 0.5 * (lse[0] + lse[1])
    loss = (-cfg.gamma * pos + contrast).mean()
    return loss, float(pos.mean().value), float(contrast.mean().value)
