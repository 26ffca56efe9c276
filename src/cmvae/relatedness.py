"""Relatedness scoring and label propagation.

A trained model scores a pair by pointwise mutual information, the joint
IWAE of its observations minus each modality's unimodal marginal, with
the observations keyed by modality name (see bounds).  Every term keys
its noise on item content, so a pair's score does not depend on its chunk
or batch up to BLAS rounding (a matrix product may round the last bits of
a row differently at another number of rows); a mixture model's three
terms share one draw block per modality row.  A threshold fitted on a small
mixed set with known relatedness then flags related pairs in the
unlabeled remainder; the flagged pairs rejoin the training set for a
continuation run.

A scoring pass runs in fixed chunks of pairs (`map_chunks`).  A long one
deals its chunks into contiguous shares, one per usable CPU, and scores
every share but the first in a forked peer (see peers) while the caller
scores the first.  Each chunk holds the same rows for any number of
shares, so the scores are the same bits whichever process computed them.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import concat
from .bounds import bound_from_log_weights, joint_log_weight_blocks, unimodal_draws, unimodal_marginal
from .data import PairedDataset, random_pairs, subset, subset_rows
from .peers import Peer, usable_cpus

THRESHOLD_RULES = ("max-f1", "max-accuracy")

# Pairs per chunk of a scoring pass.  At K=30 a chunk's temporaries take
# 1 MB per hidden layer; they die with the chunk and the next one reuses
# them from the heap.  Larger ones can cross glibc's dynamic mmap
# threshold, which earlier work in the process sets, and then every chunk
# maps and faults them in afresh.  A chunk is also the unit a pass deals
# to forked peers (`map_chunks`); its rows, and so its scores' bits, do
# not depend on the number of peers.
CHUNK_PAIRS = 64

# Chunks a share needs to pay for its peer.  Starting a forked peer and
# collecting its values took 2.1-2.3 ms for a share with no work on a
# 2-vCPU host, a quarter of a 64-pair chunk at K=30 (8.2 ms in one
# process); first-touch copy-on-write faults come on top.  A 640-pair pass
# (two shares of 5 chunks) took 62 ms, against 82 ms in one process.  A
# 256-pair pass (4 chunks) stays in the caller.
SHARE_MIN_CHUNKS = 5


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


def pmi(model, obs_by_modality: dict, num_samples: int, seed: int) -> np.ndarray:
    """Per-item pointwise mutual information estimate (detached values).

    Each modality's rows are drawn once, and its unimodal marginal uses all
    S draws.  The joint's log weights come from joint_log_weight_blocks: a
    mixture model's use the first S/M of every modality's draws, which are
    the mixture posterior's own (see UnimodalDraws); other models draw the
    joint apart, at the same seed.
    """
    names = [m.name for m in model.modalities]
    draws = {n: unimodal_draws(model, n, obs_by_modality[n], num_samples, seed) for n in names}
    blocks = joint_log_weight_blocks(model, obs_by_modality, num_samples, seed, draws=draws)
    joint = bound_from_log_weights(concat(list(blocks.values()), axis=1), "iwae")
    mx, my = (unimodal_marginal(draws[n]).value for n in names)
    return joint.value - mx - my


def share_count(num_chunks: int, cpus: int) -> int:
    """Shares of a pass of `num_chunks` chunks on `cpus` CPUs: one per CPU,
    while each share keeps at least SHARE_MIN_CHUNKS chunks."""
    return max(1, min(cpus, num_chunks // SHARE_MIN_CHUNKS))


def map_chunks(fn, n: int, chunk: int = CHUNK_PAIRS) -> np.ndarray:
    """The f64 values fn(start, stop) for rows start..stop-1 of every chunk of range(n), in order.

    The chunks are dealt into `share_count` contiguous shares.  Shares
    after the first run in forked peers, which inherit `fn` and return
    their values; the caller runs the first share meanwhile, and any share
    whose peer cannot start after it.  A chunk that raises in a peer raises
    the same exception here, and every peer has exited when this returns
    or raises.
    """
    out = np.empty(n, dtype=np.float64)
    num_chunks = -(-n // chunk)
    shares = share_count(num_chunks, usable_cpus())
    edges = [chunk * (num_chunks * i // shares) for i in range(shares)] + [n]
    cpus = sorted(os.sched_getaffinity(0)) if shares > 1 else []
    peers = {}
    try:
        for cpu, lo, hi in zip(cpus[1:], edges[1:-1], edges[2:]):
            def body(peer, lo=lo, hi=hi):
                _fill(fn, chunk, lo, hi, peer.values)
                peer.send()

            with contextlib.suppress(OSError):  # no peer: the caller scores the share, with the same bits
                peers[lo] = Peer(hi - lo, cpu, body)
        for lo, hi in zip(edges, edges[1:]):
            if lo not in peers:
                _fill(fn, chunk, lo, hi, out[lo:hi])
        for lo, peer in peers.items():
            peer.wait()
            out[lo:lo + peer.values.size] = peer.values
    finally:
        for peer in reversed(peers.values()):  # each restores the affinity set it started from
            peer.stop()
    return out


def _fill(fn, chunk: int, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Write fn's values for rows lo..hi-1 into out[:hi - lo], chunk by chunk.

    A trailing single row joins the chunk before it: numpy hands a one-row
    product to BLAS gemv, which rounds differently from gemm.
    """
    start = lo
    while start < hi:
        stop = hi if hi - start <= chunk + 1 else start + chunk
        out[start - lo:stop - lo] = fn(start, stop)
        start = stop
    return out


def score_dataset(model, ds: PairedDataset, num_samples: int, seed: int,
                  chunk: int = CHUNK_PAIRS) -> np.ndarray:
    """PMI for every pair in the dataset, evaluated in fixed-size chunks.

    The model is scored through its frozen view, so each chunk's
    temporaries are freed as they die.  A pair's score does not depend on
    the chunk size up to BLAS rounding, nor on the number of worker
    processes (`map_chunks`) at all.
    """
    model = model.frozen()

    def score(start, stop):
        return pmi(model, ds.pair_observations(np.arange(start, stop)), num_samples, seed)

    return map_chunks(score, len(ds), chunk)


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
    """Split per the propagation protocol into three pair lists over full_related's own pools.

    Returns (small_related, small_mixed, full_mixed): the pool rows that
    subset keeps (subset_rows), paired as subset pairs them and at random
    for threshold fitting, and the remaining rows paired at random for
    propagation.  Kept and remaining rows partition each pool.
    """
    names = full_related.spec.modality_names
    kept = subset_rows(full_related, pretrain_percent, seed)
    rest = {n: np.setdiff1d(np.arange(len(full_related.labels[n])), rows) for n, rows in kept.items()}

    def over_pools(rows, local, pairs_per_instance, pair_seed):  # local: positions in each modality's rows
        pairs = np.stack([rows[n][local[:, m]] for m, n in enumerate(names)], axis=1)
        return full_related.with_pairs(pairs, pairs_per_instance, pair_seed)

    small = subset(full_related, pretrain_percent, seed)  # pairs positions in kept's rows
    return (over_pools(kept, small.pairs, small.pairs_per_instance, small.pair_seed),
            over_pools(kept, random_pairs(*(len(kept[n]) for n in names), seed + 1), 1, seed + 1),
            over_pools(rest, random_pairs(*(len(rest[n]) for n in names), seed + 2), 1, seed + 2))


def merge_predicted(small_related: PairedDataset, mixed: PairedDataset,
                    predicted: np.ndarray) -> PairedDataset:
    """The pretraining pairs plus the mixed pairs flagged in `predicted`, over the pools both share."""
    if any(small_related.observations[n] is not mixed.observations[n] for n in mixed.spec.modality_names):
        raise ValueError("merge_predicted needs two datasets over the same pools")
    keep = np.flatnonzero(predicted)
    return replace(small_related, pairs=np.concatenate([small_related.pairs, mixed.pairs[keep]]),
                   related=np.concatenate([small_related.related, mixed.related[keep]]))
