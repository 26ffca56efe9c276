"""Contrastive training objective over related/unrelated multimodal pairs.

The loss pushes the estimated joint likelihood of a related pair above the
likelihoods of pairs formed with within-batch negatives, with the positive
term upweighted by gamma (> 1) to keep the likelihood-minimizing pull of
the negative term from collapsing the generative model.  gamma = +inf is
the baseline sentinel: plain ELBO training, no negatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import EstimatorSpec, bound_from_log_weights, joint_bound, joint_log_weights
from .seeding import derive_rng, tag

VARIANTS = ("baseline", "cI", "cC")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Loss weighting and estimator choices.

    variant "cI" scores negatives with IWAE, "cC" with CUBO; both keep IWAE
    for the positive term.  "baseline" trains on the plain ELBO.
    """

    variant: str = "cI"
    gamma: float = 2.0
    num_negatives: int = 5
    term1: EstimatorSpec = field(default_factory=lambda: EstimatorSpec("iwae", 30))
    term2: EstimatorSpec | None = field(default_factory=lambda: EstimatorSpec("iwae", 30))

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "baseline":
            if not math.isinf(self.gamma):
                raise ValueError("baseline mode uses the gamma = +inf sentinel")
        else:
            if not self.gamma >= 1.0:
                raise ValueError("gamma must be >= 1")
            if self.num_negatives < 1:
                raise ValueError("num_negatives must be >= 1")
            expected = {"cI": "iwae", "cC": "cubo"}[self.variant]
            if self.term1.kind != "iwae":
                raise ValueError(f"{self.variant} scores the positive term with iwae")
            if self.term2 is None or self.term2.kind != expected:
                raise ValueError(f"{self.variant} scores negatives with {expected}")

    @staticmethod
    def for_variant(variant: str, gamma: float = 2.0, num_negatives: int = 5,
                    num_samples: int = 30) -> "ObjectiveConfig":
        if variant == "baseline":
            return ObjectiveConfig(variant="baseline", gamma=math.inf,
                                   num_negatives=num_negatives,
                                   term1=EstimatorSpec("elbo", num_samples), term2=None)
        term2_kind = {"cI": "iwae", "cC": "cubo"}[variant]
        return ObjectiveConfig(variant=variant, gamma=gamma, num_negatives=num_negatives,
                               term1=EstimatorSpec("iwae", num_samples),
                               term2=EstimatorSpec(term2_kind, num_samples))


@dataclass(frozen=True)
class NegativeSet:
    """Per-anchor replacement indices, one (B, N) block per non-anchor modality.

    Indices address the surrounding batch; an anchor's own partner index
    never appears among its negatives.
    """

    indices: dict[str, np.ndarray]

    @property
    def num_negatives(self) -> int:
        return next(iter(self.indices.values())).shape[1]


def draw_negatives(batch_size: int, modality_names: list[str], num_negatives: int,
                   seed: int) -> NegativeSet:
    """Uniform without-replacement draws of other batch items, per anchor."""
    if batch_size < num_negatives + 1:
        raise ValueError(
            f"batch of {batch_size} cannot supply {num_negatives} negatives per anchor")
    indices = {}
    for name in sorted(modality_names):
        rng = derive_rng(seed, tag(f"negatives.{name}"))
        block = np.empty((batch_size, num_negatives), dtype=np.int64)
        for i in range(batch_size):
            pool = np.delete(np.arange(batch_size), i)
            block[i] = rng.choice(pool, size=num_negatives, replace=False)
        indices[name] = block
    return NegativeSet(indices=indices)


def final_objective(model, batch: dict[str, np.ndarray], cfg: ObjectiveConfig,
                    seed: int, negatives: NegativeSet | None = None):
    """Batch-mean training loss for a two-modality model.

    Returns (loss, term1, term2): the differentiable scalar loss, the mean
    positive-pair estimate, and the mean symmetrized negative log-sum-exp.
    In baseline mode the loss is -mean ELBO and term2 is NaN.

    The B positives and the 2BN negative pairs are scored by one
    joint_log_weights call over index arrays into the batch rows (two
    when the terms use different sample counts), so each modality row is
    encoded, sampled and decoded once per call.
    """
    names = [m.name for m in model.modalities]
    if len(names) != 2:
        raise ValueError("final_objective covers two modalities")
    obs = {n: np.atleast_2d(np.asarray(batch[n], dtype=np.float64)) for n in names}
    batch_size = obs[names[0]].shape[0]

    if cfg.variant == "baseline":
        pos = joint_bound(model, obs, cfg.term1, seed)
        return -pos.mean(), float(pos.mean().value), math.nan

    n_neg = cfg.num_negatives
    if batch_size <= n_neg:
        raise ValueError(f"batch size {batch_size} must exceed num_negatives {n_neg}")
    if negatives is None:
        negatives = draw_negatives(batch_size, names, n_neg, seed)

    # One direction per modality: that modality's row is replaced by each
    # of the anchor's negatives while the other modality keeps the anchor.
    anchors = np.arange(batch_size)
    kept = np.repeat(anchors, n_neg)
    a, b = names
    neg_pairs = {a: np.concatenate([negatives.indices[a].reshape(-1), kept]),
                 b: np.concatenate([kept, negatives.indices[b].reshape(-1)])}
    if cfg.term1.num_samples == cfg.term2.num_samples:
        pairs = {n: np.concatenate([anchors, rows]) for n, rows in neg_pairs.items()}
        log_w = joint_log_weights(model, obs, cfg.term1.num_samples, seed, pairs)
        pos_w, neg_w = log_w[:batch_size], log_w[batch_size:]
    else:
        pos_w = joint_log_weights(model, obs, cfg.term1.num_samples, seed)
        neg_w = joint_log_weights(model, obs, cfg.term2.num_samples, seed, neg_pairs)
    pos = bound_from_log_weights(pos_w, cfg.term1.kind)
    est = bound_from_log_weights(neg_w, cfg.term2.kind)
    lse = est.reshape(2, batch_size, n_neg).logsumexp(axis=2)

    contrast = 0.5 * (lse[0] + lse[1])
    loss = (-cfg.gamma * pos + contrast).mean()
    return loss, float(pos.mean().value), float(contrast.mean().value)
