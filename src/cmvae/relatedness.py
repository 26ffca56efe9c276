"""Relatedness scoring and label propagation.

A trained model scores a pair by pointwise mutual information,
iwae(x, y) - marginal(x) - marginal(y).  Every term keys its noise on item
content, so a pair's score does not depend on its chunk or batch; a
mixture model's three terms share one draw block per modality row.  A
threshold fitted on a small mixed set with known relatedness then flags
related pairs in the unlabeled remainder; the flagged pairs rejoin the
training set for a continuation run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (bound_from_log_weights, iwae, mixture_joint_log_weights, unimodal_draws,
                     unimodal_marginal)
from .data import PairedDataset, UnimodalData, pair_random, subset
from .models import MultimodalModel

THRESHOLD_RULES = ("max-f1", "max-accuracy")


@dataclass(frozen=True)
class PropagationConfig:
    pretrain_percent: float = 10.0
    pmi_num_samples: int = 30
    threshold_rule: str = "max-f1"
    continue_training: bool = True

    def __post_init__(self):
        if not 0.0 < self.pretrain_percent <= 100.0:
            raise ValueError("pretrain_percent must lie in (0, 100]")
        if self.pmi_num_samples < 1:
            raise ValueError("pmi_num_samples must be >= 1")
        if self.threshold_rule not in THRESHOLD_RULES:
            raise ValueError(f"threshold_rule must be one of {THRESHOLD_RULES}")


@dataclass(frozen=True)
class PropagationReport:
    threshold: float
    predicted: np.ndarray  # uint8 flags over the scored pairs
    precision: float
    recall: float
    f1: float
    metrics_before: dict
    metrics_after: dict

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "n_predicted": int(self.predicted.sum()),
            "metrics_before": self.metrics_before,
            "metrics_after": self.metrics_after,
        }


def pmi(model, x, y, num_samples: int, seed: int) -> np.ndarray:
    """Per-item pointwise mutual information estimate (detached values).

    A mixture model draws each modality row once: its unimodal marginal
    uses all S draws, and the joint uses the first S/M of every modality's
    draws, which are the mixture posterior's own (see UnimodalDraws).
    Other models compose three estimates that share one seed.
    """
    names = [m.name for m in model.modalities]
    if len(names) != 2:
        raise ValueError("pmi scores pairs of a two-modality model")
    obs = dict(zip(names, (x, y)))
    if getattr(model, "joint_kind", None) == "moe":
        draws = {n: unimodal_draws(model, n, obs[n], num_samples, seed) for n in names}
        joint = bound_from_log_weights(mixture_joint_log_weights(model, obs, draws), "iwae")
    else:
        draws = dict.fromkeys(names)
        joint = iwae(model, x, y, num_samples, seed)
    mx, my = (unimodal_marginal(model, n, obs[n], num_samples, seed, draws[n]).value for n in names)
    return joint.value - mx - my


def score_dataset(model, ds: PairedDataset, num_samples: int, seed: int,
                  chunk: int = 128) -> np.ndarray:
    """PMI for every pair in the dataset, evaluated in fixed-size chunks.

    A trained model is scored through its frozen view and in chunks of
    128, so each chunk's temporaries (2 MB per hidden layer at K=30) are
    freed as they die and reused from the heap by the next chunk instead
    of being mapped and faulted in again.
    """
    if isinstance(model, MultimodalModel):
        model = model.frozen()
    names = list(ds.spec.modality_names)
    out = np.empty(len(ds), dtype=np.float64)
    for start in range(0, len(ds), chunk):
        rows = np.arange(start, min(start + chunk, len(ds)))
        obs = ds.pair_observations(rows)
        out[rows] = pmi(model, obs[names[0]], obs[names[1]], num_samples, seed)
    return out


def estimate_threshold(scores: np.ndarray, truth: np.ndarray, rule: str = "max-f1") -> float:
    """Best decision boundary between adjacent scores.

    Candidates are the midpoints of consecutive distinct sorted scores plus
    one boundary below and above everything; the candidate maximizing the
    rule's statistic wins, with ties broken toward the larger threshold
    (favoring precision).  Items score as related when strictly above the
    threshold.  Raises on single-class truth or on all-equal scores (no
    boundary separates anything).  Counts above every candidate come from
    binary searches of the sorted scores, O(n log n) in all.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    if truth.all() or (~truth).all():
        raise ValueError("threshold estimation needs both classes present")
    uniq = np.unique(scores)
    if uniq.size == 1:
        raise ValueError("all scores are equal; no threshold separates the classes")
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    candidates = np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])
    n, n_true = len(scores), int(truth.sum())
    n_pred = n - np.searchsorted(np.sort(scores), candidates, side="right")
    tp = n_true - np.searchsorted(np.sort(scores[truth]), candidates, side="right")
    tp = tp.astype(np.float64)
    if rule == "max-accuracy":
        stat = (tp + (n - n_true) - (n_pred - tp)) / n
    else:  # same operation order as precision_recall_f1
        precision = np.divide(tp, n_pred, out=np.zeros_like(tp), where=n_pred > 0)
        recall = tp / n_true
        stat = np.divide(2 * precision * recall, precision + recall,
                         out=np.zeros_like(tp), where=precision + recall > 0)
    best = len(stat) - 1 - int(np.argmax(stat[::-1]))  # last maximum: the larger threshold
    return float(candidates[best])


def precision_recall_f1(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """Empty predictions score precision 0 by convention."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    tp = float(np.sum(pred & truth))
    precision = tp / pred.sum() if pred.sum() else 0.0
    recall = tp / truth.sum() if truth.sum() else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def propagate(model, mixed: PairedDataset, threshold: float, num_samples: int,
              seed: int) -> tuple[np.ndarray, dict]:
    """Flag pairs with PMI above the threshold; report quality vs. ground truth.

    Truth flags are consulted for scoring only, never for prediction.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    scores = score_dataset(model, mixed, num_samples, seed)
    predicted = (scores > threshold).astype(np.uint8)
    precision, recall, f1 = precision_recall_f1(predicted, mixed.related)
    return predicted, {"precision": precision, "recall": recall, "f1": f1,
                       "threshold": float(threshold)}


def carve_pipeline_datasets(full_related: PairedDataset, pretrain_percent: float,
                            seed: int) -> tuple[PairedDataset, PairedDataset, PairedDataset]:
    """Split per the propagation protocol.

    Returns (small_related, small_mixed, full_mixed): the pretraining set
    carved by class-stratified pool subsetting, a random re-pairing of the
    pretraining pools for threshold fitting, and the remaining items
    randomly mixed for propagation.
    """
    small_related = subset(full_related, pretrain_percent, seed=seed)
    names = full_related.spec.modality_names

    small_parts, rest_parts = [], []
    for name in names:
        kept_obs = small_related.observations[name]
        pool_obs = full_related.observations[name]
        kept = _index_of_rows(pool_obs, kept_obs)
        rest = np.setdiff1d(np.arange(len(pool_obs)), kept)
        small_parts.append(UnimodalData(name, kept_obs, small_related.labels[name]))
        rest_parts.append(UnimodalData(name, pool_obs[rest], full_related.labels[name][rest]))

    small_mixed = pair_random(full_related.spec, small_parts[0], small_parts[1], seed=seed + 1)
    full_mixed = pair_random(full_related.spec, rest_parts[0], rest_parts[1], seed=seed + 2)
    return small_related, small_mixed, full_mixed


def _index_of_rows(pool: np.ndarray, rows: np.ndarray) -> np.ndarray:
    lookup = {r.tobytes(): i for i, r in enumerate(pool)}
    return np.array([lookup[r.tobytes()] for r in rows], dtype=np.int64)


def merge_predicted(small_related: PairedDataset, mixed: PairedDataset,
                    predicted: np.ndarray) -> PairedDataset:
    """Union of the pretraining pairs and the predicted-related mixed pairs."""
    spec = small_related.spec
    names = spec.modality_names
    observations, labels, offsets = {}, {}, {}
    for name in names:
        observations[name] = np.concatenate([small_related.observations[name],
                                             mixed.observations[name]])
        labels[name] = np.concatenate([small_related.labels[name], mixed.labels[name]])
        offsets[name] = len(small_related.observations[name])
    keep = np.flatnonzero(predicted)
    shifted = mixed.pairs[keep] + np.array([offsets[n] for n in names])[None, :]
    pairs = np.concatenate([small_related.pairs, shifted])
    related = np.concatenate([small_related.related, mixed.related[keep]])
    return PairedDataset(spec=spec, observations=observations, labels=labels,
                         pairs=pairs, related=related,
                         pairs_per_instance=small_related.pairs_per_instance,
                         pair_seed=small_related.pair_seed)
