"""The three benchmark workloads: inputs made from a seed, and one repetition.

Each workload is a closed loop with one caller: a repetition is a fixed
sequence of `cmvae` public calls, each starting when the previous returns.
The seed sets `dataset.seed`, `model.init_seed` and `seed` of the run
config; the program receives only that config and the generated data.
All workloads use the mixture-of-experts joint posterior, as every shipped
config does.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass

from cmvae import data, relatedness, training
from cmvae.objective import ObjectiveConfig

import spans

PMI_SAMPLES = 30  # relatedness scoring K: `PropagationConfig` default and the north-star K
HELDOUT_PAIRS = 2048  # propagate's held-out score pass
F1_PAIRS = 1024  # each of the threshold and propagation sets of `training_f1`


@dataclass(frozen=True)
class Spec:
    """Shapes of one workload.

    `pipeline` workloads call `training.run_pipeline` and then score a
    held-out mixed set; the others call `training.train`, evaluating every
    `eval_every` steps when that is positive.
    """

    name: str
    variant: str
    num_samples: int
    batch_size: int
    steps: int
    eval_every: int
    items: int
    pipeline: bool = False


SPECS = {
    # North-star default: moe cI, B=64, K=30, N=5, hidden 64.  Each step
    # scores 1 + 2N = 11 joint-bound rows per pair, the cost that the
    # decode-once in-batch rewrite targets.
    "train-contrastive": Spec("train-contrastive", "cI", 30, 64, steps=5, eval_every=0, items=2000),
    # Same model and shapes on the plain ELBO, which bypasses negatives;
    # the evaluation and checkpoint after 40 steps take about a tenth of
    # the train call.
    "train-baseline": Spec("train-baseline", "baseline", 30, 64, steps=40, eval_every=40, items=2000),
    # Shipped label-propagation settings (cI, K=10, B=48, PMI K=30).  With
    # 8000 items and 5 steps, PMI scoring and the threshold took 70-74% of
    # run_pipeline in traced runs and the two train calls 19-22%.
    "propagate": Spec("propagate", "cI", 10, 48, steps=5, eval_every=0, items=8000, pipeline=True),
}


@dataclass
class Inputs:
    cfg: training.RunConfig
    train_set: data.PairedDataset | None  # training workloads
    heldout_set: data.PairedDataset | None  # pipeline workloads


@dataclass
class Outcome:
    """What one repetition measured and returned."""

    train_pairs_per_s: float  # over every train call of the repetition
    pipeline_s: float
    score_pairs_per_s: float
    heldout_iwae: float
    f1: float | None  # from `run_pipeline`; `training_f1` gives it for the training workloads
    digest: str  # of the final parameters
    model: object


def run_config(spec: Spec, seed: int, output_dir: str) -> training.RunConfig:
    return training.RunConfig(
        run_id=spec.name,
        seed=seed,
        dataset=training.DatasetConfig(items_per_modality=spec.items, seed=seed),
        model=training.ModelConfig(joint_kind="moe", init_seed=seed),
        objective=ObjectiveConfig.for_variant(spec.variant, num_samples=spec.num_samples),
        optimizer=training.OptimizerConfig(steps=spec.steps, batch_size=spec.batch_size),
        eval_every=spec.eval_every,
        output_dir=output_dir,
    )


def mixed_set(factors, pairs: int, seed: int) -> data.PairedDataset:
    """Fresh pools of both modalities, randomly re-paired (about 1 in 5 related)."""
    a, b = factors.modality_names
    x = data.generate_unimodal(factors, pairs, a, seed)
    y = data.generate_unimodal(factors, pairs, b, seed + 1)
    return data.pair_random(factors, x, y, seed=seed + 2)


def make_inputs(spec: Spec, seed: int, output_dir: str) -> Inputs:
    """Config and data for one run; the timed set-up."""
    cfg = run_config(spec, seed, output_dir)
    if spec.pipeline:
        return Inputs(cfg, None, mixed_set(cfg.dataset.factors, HELDOUT_PAIRS, seed + 2_000_003))
    return Inputs(cfg, training.build_dataset(cfg), None)


def param_digest(model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].value.tobytes())
    return h.hexdigest()


def run_once(spec: Spec, inputs: Inputs, tracer: spans.Tracer) -> Outcome:
    """One repetition in a fresh output directory; raises on invalid output.

    `tracer` must be installed and wrap `training.train`: its spans time
    the train calls, which `run_pipeline` makes internally.

    On the training workloads the repetition is `train` and then the
    held-out IWAE pass, whose throughput is the workload's
    `score_pairs_per_s`; on propagate it is `run_pipeline` and then the
    held-out PMI score pass, with the held-out IWAE untimed.
    """
    cfg = inputs.cfg
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    os.makedirs(cfg.output_dir)
    clock = time.perf_counter
    first_span = len(tracer.spans)
    t0 = clock()
    if spec.pipeline:
        report, info = training.run_pipeline(cfg, relatedness.PropagationConfig(pmi_num_samples=PMI_SAMPLES))
        t1 = clock()
        if info.get("stage") != "done":
            raise RuntimeError(f"pipeline stopped at stage {info.get('stage')!r}")
        model, f1 = info["state"].model, report.f1
        scores = relatedness.score_dataset(model, inputs.heldout_set, PMI_SAMPLES, cfg.seed + 41)
        score_pairs_per_s = len(inputs.heldout_set) / (clock() - t1)
        pipeline_s = t1 - t0
        heldout = training.mean_heldout_loglik(model, cfg)
        if not math.isfinite(scores.sum()):
            raise FloatingPointError(f"{spec.name}: held-out PMI scores are not finite")
    else:
        model = training.train(cfg, dataset=inputs.train_set, evaluate=spec.eval_every > 0).model
        t1 = clock()
        heldout = training.mean_heldout_loglik(model, cfg)
        t2 = clock()
        f1, score_pairs_per_s, pipeline_s = None, cfg.eval_items / (t2 - t1), t2 - t0
    train_spans = [s for s in tracer.spans[first_span:] if s.name == "training.train"]
    if not train_spans:
        raise RuntimeError("no train call was observed")
    if not math.isfinite(heldout):
        raise FloatingPointError(f"{spec.name}: heldout_iwae is not finite")
    if f1 is not None:
        check_f1(spec.name, f1)
    return Outcome(
        train_pairs_per_s=sum(s.count for s in train_spans) / sum(s.end - s.start for s in train_spans),
        pipeline_s=pipeline_s,
        score_pairs_per_s=score_pairs_per_s,
        heldout_iwae=heldout,
        f1=f1,
        digest=param_digest(model),
        model=model,
    )


def training_f1(model, cfg: training.RunConfig) -> float:
    """F1 of PMI label propagation with a trained model, for the training workloads.

    Fits a threshold on one fresh mixed set and propagates to another.  It
    runs once per model outside the timed repetitions, because timing the
    training workloads' read path is not their purpose.
    """
    factors = cfg.dataset.factors
    fit = mixed_set(factors, F1_PAIRS, cfg.seed + 1_000_003)
    scores = relatedness.score_dataset(model, fit, PMI_SAMPLES, cfg.seed + 31)
    threshold = relatedness.estimate_threshold(scores, fit.related)
    heldout = mixed_set(factors, F1_PAIRS, cfg.seed + 2_000_003)
    _, quality = relatedness.propagate(model, heldout, threshold, PMI_SAMPLES, cfg.seed + 37)
    check_f1(cfg.run_id, quality["f1"])
    return quality["f1"]


def check_f1(name: str, f1: float) -> None:
    if not 0.0 <= f1 <= 1.0:
        raise ValueError(f"{name}: f1 {f1} outside [0, 1]")
