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
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, backward
from .bounds import bound_from_log_weights, joint_log_weight_blocks
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


class Objective(NamedTuple):
    """final_objective's value: the loss, its two terms, and the log-weight blocks computed here.

    blocks maps each block's name to (its log weights, their columns of
    dL/d log_w), in name order.  `loss` has those blocks as its parents,
    each passed its columns, so backward(loss, params) differentiates it
    in one pass; training takes one backward per block instead.
    """

    loss: Tensor
    term1: float
    term2: float
    blocks: dict[str, tuple[Tensor, np.ndarray]]


def log_weight_rows(cfg: ObjectiveConfig, batch_size: int) -> int:
    """Rows of the objective's log weights for a batch: its positives, and 2N negatives per anchor."""
    return batch_size if cfg.variant == "baseline" else batch_size * (1 + 2 * cfg.num_negatives)


def log_weight_blocks(model, batch: dict[str, np.ndarray], cfg: ObjectiveConfig, seed: int,
                      names=None) -> dict[str, Tensor]:
    """The joint_log_weight_blocks, picked by `names`, that final_objective reduces.

    Rows are the B positives and then, in contrastive variants, the 2BN
    negative pairs, scored over index arrays into the batch rows so that
    each modality row is encoded, sampled and decoded once.
    """
    a, b = (m.name for m in model.modalities)
    obs = {n: np.atleast_2d(np.asarray(batch[n], dtype=np.float64)) for n in (a, b)}
    pairs = None
    if cfg.variant != "baseline":
        batch_size, n_neg = obs[a].shape[0], cfg.num_negatives
        negatives = draw_negatives(batch_size, [a, b], n_neg, seed)
        # One direction per modality: that modality's row is replaced by each
        # of the anchor's negatives while the other modality keeps the anchor.
        anchors = np.arange(batch_size)
        kept = np.repeat(anchors, n_neg)
        pairs = {a: np.concatenate([anchors, negatives[a].reshape(-1), kept]),
                 b: np.concatenate([anchors, kept, negatives[b].reshape(-1)])}
    return joint_log_weight_blocks(model, obs, cfg.num_samples, seed, pairs, names)


def final_objective(model, batch: dict[str, np.ndarray], cfg: ObjectiveConfig, seed: int,
                    remote=None) -> Objective:
    """Batch-mean training loss for a two-modality model.

    term1 is the mean positive-pair estimate and term2 the mean symmetrized
    negative log-sum-exp.  In baseline mode the loss is -mean ELBO and term2
    is NaN.  The loss is computed once, from the values of the
    log_weight_blocks held as a leaf, whose gradient then seeds each block.

    `remote` stands for a peer (see peers) that computes a mixture's last
    block: only the first is computed here.  The head of remote.values
    holds the last block's values once remote.wait() returns, and then
    takes its columns of dL/d log_w before remote.send().
    """
    first = [model.modalities[0].name] if remote is not None else None
    blocks = log_weight_blocks(model, batch, cfg, seed, first)
    values = [w.value for w in blocks.values()]
    if remote is not None:
        remote.wait()
        values.append(remote.values[:values[0].size].reshape(values[0].shape))
    log_w = Tensor.param(np.concatenate(values, axis=1))
    loss, term1, term2 = _loss(log_w, np.atleast_2d(batch[model.modalities[0].name]).shape[0], cfg)
    grad = backward(loss, {"log_w": log_w})["log_w"]
    seeds = np.split(grad, np.cumsum([v.shape[1] for v in values])[:-1], axis=1)
    if remote is not None:
        remote.values[:seeds[-1].size].reshape(seeds[-1].shape)[...] = seeds[-1]
        remote.send()
    own = {n: (w, s) for (n, w), s in zip(blocks.items(), seeds)}
    fused = Tensor(loss.value, parents=tuple((w, lambda g, s=s: g * s) for w, s in own.values()))
    return Objective(fused, term1, term2, own)


def _loss(log_w: Tensor, batch_size: int, cfg: ObjectiveConfig):
    """(loss, term1, term2) from the (P, K) log weights of log_weight_blocks."""
    if cfg.variant == "baseline":
        pos = bound_from_log_weights(log_w, "elbo")
        return -pos.mean(), float(pos.mean().value), math.nan
    pos = bound_from_log_weights(log_w[:batch_size], "iwae")
    est = bound_from_log_weights(log_w[batch_size:], "cubo" if cfg.variant == "cC" else "iwae")
    lse = est.reshape(2, batch_size, cfg.num_negatives).logsumexp(axis=2)
    contrast = 0.5 * (lse[0] + lse[1])
    loss = (-cfg.gamma * pos + contrast).mean()
    return loss, float(pos.mean().value), float(contrast.mean().value)
