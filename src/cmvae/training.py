"""Training loop, configuration, checkpoints, and the experiment drivers.

Every run is reproducible from its config alone: batch selection and
estimator noise are derived from (seed, step), never from accumulated RNG
state, so restoring a checkpoint and continuing is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import evaluation, relatedness
from .autodiff import Tensor, backward, zero_grads
from .bounds import EstimatorSpec, iwae
from .data import (FactorSpec, PairedDataset, generate_unimodal, make_related_dataset, pair_random,
                   pair_related, subset)
from .models import MultimodalModel, ModalitySpec, build_model
from .objective import ObjectiveConfig, final_objective
from .seeding import derive_rng, tag

CHECKPOINT_MAGIC = b"CMVAE"
CHECKPOINT_VERSION = 2  # v2 adds a dtype code per entry; v1 stored everything as f8
_CHECKPOINT_DTYPES = {b"f": "<f8", b"i": "<i8"}
METRICS_SCHEMA = "# cmvae-metrics-v1"
TRAINLOG_SCHEMA = "# cmvae-trainlog-v1"
SWEEP_SCHEMA = "# cmvae-sweep-v1"


class ConfigError(ValueError):
    """A config that cannot run, such as a batch too small for its negatives."""


class NumericalAbort(RuntimeError):
    """Loss, gradients or parameters went non-finite; carries the last good checkpoint path."""

    def __init__(self, step: int, checkpoint_path: str | None):
        super().__init__(f"non-finite loss, gradient or parameter at step {step}")
        self.step = step
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    steps: int = 5000
    batch_size: int = 64


@dataclass(frozen=True)
class DatasetConfig:
    factors: FactorSpec = field(default_factory=FactorSpec)
    items_per_modality: int = 2000
    pairs_per_instance: int = 1
    percent: float = 100.0
    seed: int = 0


@dataclass(frozen=True)
class ModelConfig:
    joint_kind: str = "moe"
    latent_dim: int = 8
    hidden_dim: int = 64
    num_hidden: int = 2
    init_seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    run_id: str = "run"
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    objective: ObjectiveConfig = field(default_factory=lambda: ObjectiveConfig.for_variant("cI"))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    eval_every: int = 500
    eval_items: int = 256
    output_dir: str = "runs/run"

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["objective"]["gamma"] = "inf" if math.isinf(self.objective.gamma) else self.objective.gamma
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "RunConfig":
        d = dict(d)
        ds = dict(d.get("dataset", {}))
        if "factors" in ds:
            fs = dict(ds["factors"])
            for key in ("modality_names", "obs_dims", "private_dims", "likelihoods"):
                if key in fs:
                    fs[key] = tuple(fs[key])
            ds["factors"] = FactorSpec(**fs)
        d["dataset"] = DatasetConfig(**ds)
        d["model"] = ModelConfig(**d.get("model", {}))
        obj = dict(d.get("objective", {}))
        if obj:
            if obj.get("gamma") == "inf":
                obj["gamma"] = math.inf
            for term in ("term1", "term2"):
                if obj.get(term) is not None:
                    obj[term] = EstimatorSpec(**obj[term])
            d["objective"] = ObjectiveConfig(**obj)
        else:
            d["objective"] = ObjectiveConfig.for_variant("cI")
        d["optimizer"] = OptimizerConfig(**d.get("optimizer", {}))
        return RunConfig(**d)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path) as fh:
            return RunConfig.from_json_dict(json.load(fh))


def config_for_variant(base: RunConfig, variant: str, num_samples: int | None = None) -> RunConfig:
    k = num_samples if num_samples is not None else base.objective.term1.num_samples
    gamma = base.objective.gamma if variant != "baseline" and math.isfinite(base.objective.gamma) else 2.0
    obj = ObjectiveConfig.for_variant(variant, gamma=gamma,
                                      num_negatives=base.objective.num_negatives,
                                      num_samples=k)
    return replace(base, objective=obj)


# -- optimizer -----------------------------------------------------------------------


class Adam:
    """Adaptive-moment gradient descent over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], cfg: OptimizerConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in sorted(params.items())}
        self.v = {k: np.zeros_like(p.value) for k, p in sorted(params.items())}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        c = self.cfg
        self.t += 1
        for k in sorted(self.params):
            g = grads[k]
            self.m[k] = c.beta1 * self.m[k] + (1 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1 - c.beta2) * g * g
            m_hat = self.m[k] / (1 - c.beta1 ** self.t)
            v_hat = self.v[k] / (1 - c.beta2 ** self.t)
            self.params[k].value = self.params[k].value - c.learning_rate * m_hat / (np.sqrt(v_hat) + c.epsilon)


@dataclass
class TrainState:
    step: int
    model: MultimodalModel
    optimizer: Adam
    seed: int


# -- checkpoint format ----------------------------------------------------------------


def save_checkpoint(state: TrainState, path: str) -> None:
    """Versioned name-table header followed by flat little-endian arrays.

    Counters are int64 so that any seed restores exactly.  The file is
    written beside its destination and renamed over it, so a crash never
    leaves a partial checkpoint under `path`.
    """
    entries: list[tuple[str, np.ndarray]] = []
    for k in sorted(state.model.params):
        entries.append((k, state.model.params[k].value))
    for k in sorted(state.optimizer.m):
        entries.append((f"adam.m.{k}", state.optimizer.m[k]))
        entries.append((f"adam.v.{k}", state.optimizer.v[k]))
    entries.append(("trainer.adam_t", np.asarray(state.optimizer.t, dtype=np.int64)))
    entries.append(("trainer.step", np.asarray(state.step, dtype=np.int64)))
    entries.append(("trainer.seed", np.asarray(state.seed, dtype=np.int64)))

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
        for name, arr in entries:
            encoded = name.encode()
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(_dtype_code(arr))
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype=_CHECKPOINT_DTYPES[_dtype_code(arr)]).tobytes())
    os.replace(tmp, path)


def _dtype_code(arr: np.ndarray) -> bytes:
    return b"i" if arr.dtype.kind == "i" else b"f"


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        def take(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"{path}: checkpoint file is truncated")
            return data

        if take(5) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a CMVAE checkpoint")
        version, count = struct.unpack("<II", take(8))
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        table = []
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            try:
                name = take(name_len).decode()
            except UnicodeDecodeError:
                raise ValueError(f"{path}: corrupt checkpoint name table") from None
            code = take(1) if version > 1 else b"f"
            if code not in _CHECKPOINT_DTYPES:
                raise ValueError(f"{path}: unknown dtype code {code!r} for {name!r}")
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            table.append((name, _CHECKPOINT_DTYPES[code], shape))
        out = {}
        for name, dtype, shape in table:
            n = int(np.prod(shape))
            out[name] = np.frombuffer(take(8 * n), dtype=dtype).reshape(shape).copy()
    return out


def restore_state(cfg: RunConfig, path: str) -> TrainState:
    """Training state saved at `path`, for the model that `cfg` describes.

    Raises ValueError naming the path if the file is not a readable
    checkpoint or was written for a different model.
    """
    arrays = read_checkpoint(path)
    model = build_model_from_config(cfg)
    shapes = {k: p.value.shape for k, p in model.params.items()}
    shapes.update({f"adam.{m}.{k}": shape for k, shape in list(shapes.items()) for m in "mv"})
    shapes.update({f"trainer.{k}": () for k in ("adam_t", "step", "seed")})
    for k, shape in shapes.items():
        if k not in arrays:
            raise ValueError(f"{path}: checkpoint has no entry {k!r}")
        if arrays[k].shape != shape:
            raise ValueError(f"{path}: entry {k!r} has shape {arrays[k].shape}, the config expects {shape}")
    for k in model.params:
        model.params[k] = Tensor.param(arrays[k].copy(), name=k)
    opt = Adam(model.params, cfg.optimizer)
    for k in opt.m:
        opt.m[k] = arrays[f"adam.m.{k}"].copy()
        opt.v[k] = arrays[f"adam.v.{k}"].copy()
    opt.t = int(arrays["trainer.adam_t"])
    return TrainState(step=int(arrays["trainer.step"]), model=model, optimizer=opt,
                      seed=int(arrays["trainer.seed"]))


# -- dataset / model assembly -----------------------------------------------------------


def build_dataset(cfg: RunConfig) -> PairedDataset:
    ds = make_related_dataset(cfg.dataset.factors, cfg.dataset.items_per_modality,
                              cfg.dataset.seed, cfg.dataset.pairs_per_instance)
    if cfg.dataset.percent < 100.0:
        ds = subset(ds, cfg.dataset.percent, seed=cfg.dataset.seed)
    return ds


def build_model_from_config(cfg: RunConfig) -> MultimodalModel:
    f = cfg.dataset.factors
    modalities = [ModalitySpec(name, f.obs_dims[i], f.likelihoods[i])
                  for i, name in enumerate(f.modality_names)]
    return build_model(modalities, latent_dim=cfg.model.latent_dim,
                       hidden_dim=cfg.model.hidden_dim, num_hidden=cfg.model.num_hidden,
                       joint_kind=cfg.model.joint_kind, seed=cfg.model.init_seed)


def _cell(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def csv_line(cells) -> str:
    """One CSV line: floats as their repr (NaN blank), anything else as str."""
    return ",".join(_cell(c) for c in cells) + "\n"


@dataclass(frozen=True)
class HeldOut:
    """Held-out related and randomly-mixed sets with the oracle classifiers, for metric rows."""

    related: PairedDataset
    mixed: PairedDataset
    oracles: dict[str, evaluation.OracleClassifier]


def heldout_sets(cfg: RunConfig) -> HeldOut:
    """Build a run's held-out sets; its evaluations share them, so every array is read-only."""
    f, n, seed = cfg.dataset.factors, cfg.eval_items, cfg.dataset.seed + 7919
    x = generate_unimodal(f, n, f.modality_names[0], seed)
    y = generate_unimodal(f, n, f.modality_names[1], seed + 1)
    out = HeldOut(related=pair_related(f, x, y, pairs_per_instance=1, seed=seed),
                  mixed=pair_random(f, x, y, seed=seed + 2),
                  oracles=evaluation.oracle_classifiers(f))
    arrays = [o for c in out.oracles.values() for o in (c.class_means, c.precision)]
    for ds in (out.related, out.mixed):
        arrays += [*ds.observations.values(), *ds.labels.values(), ds.pairs, ds.related]
    for arr in arrays:
        arr.flags.writeable = False
    return out


def evaluate_model(model, cfg: RunConfig, step: int, heldout: HeldOut | None = None) -> dict:
    """One metrics row: accuracies, coherences, and PMI separation.

    `heldout` defaults to heldout_sets(cfg); a run that evaluates more than
    once builds it once and passes it.
    """
    model = model.frozen()
    heldout = heldout or heldout_sets(cfg)
    related, mixed, oracles = heldout.related, heldout.mixed, heldout.oracles
    names = list(cfg.dataset.factors.modality_names)
    seed = cfg.seed + 104729

    acc = evaluation.latent_accuracy(model, related, seed=seed)
    cross = evaluation.cross_coherence(model, related, oracles, seed=seed)
    joint = evaluation.joint_coherence(model, cfg.eval_items, oracles, seed=seed)
    if model.joint_kind == "moe":
        synergy = math.nan
    else:
        synergy = evaluation.synergy_coherence(model, related, oracles, seed=seed)

    scores = relatedness.score_dataset(model, mixed, cfg.objective.term1.num_samples, seed)
    rel = mixed.related.astype(bool)
    mean_rel = float(scores[rel].mean()) if rel.any() else math.nan
    mean_unrel = float(scores[~rel].mean()) if (~rel).any() else math.nan

    return {
        "run_id": cfg.run_id,
        "step": step,
        "latent_acc_m1": acc[names[0]],
        "latent_acc_m2": acc[names[1]],
        "joint_coh": joint,
        "cross_coh_12": cross[f"{names[0]}->{names[1]}"],
        "cross_coh_21": cross[f"{names[1]}->{names[0]}"],
        "synergy_coh": synergy,
        "mean_pmi_related": mean_rel,
        "mean_pmi_unrelated": mean_unrel,
    }


METRICS_COLUMNS = ["run_id", "step", "latent_acc_m1", "latent_acc_m2", "joint_coh",
                   "cross_coh_12", "cross_coh_21", "synergy_coh",
                   "mean_pmi_related", "mean_pmi_unrelated"]


def _append_metrics_row(path: str, row: dict) -> None:
    new = not os.path.exists(path)
    with open(path, "a") as fh:
        if new:
            fh.write(METRICS_SCHEMA + "\n")
            fh.write(csv_line(METRICS_COLUMNS))
        fh.write(csv_line(row[c] for c in METRICS_COLUMNS))


# -- training loop -------------------------------------------------------------------------


def train(cfg: RunConfig, dataset: PairedDataset | None = None,
          state: TrainState | None = None, extra_steps: int | None = None,
          evaluate: bool = True) -> TrainState:
    """Minimize the configured objective; write train/metrics CSVs and checkpoints.

    Passing an existing state continues training on (possibly) a new
    dataset; extra_steps then bounds the continuation rather than the
    config's step budget.
    """
    ds = dataset if dataset is not None else build_dataset(cfg)
    check_config(cfg, len(ds))
    heldout = heldout_sets(cfg) if evaluate else None
    os.makedirs(cfg.output_dir, exist_ok=True)
    if state is None:
        model = build_model_from_config(cfg)
        state = TrainState(step=0, model=model, optimizer=Adam(model.params, cfg.optimizer),
                           seed=cfg.seed)
    model, opt = state.model, state.optimizer

    num_pairs = len(ds)
    batch_size = min(cfg.optimizer.batch_size, num_pairs)
    steps = extra_steps if extra_steps is not None else cfg.optimizer.steps
    first, last = state.step, state.step + steps

    log_path = os.path.join(cfg.output_dir, f"{cfg.run_id}.train.csv")
    metrics_path = os.path.join(cfg.output_dir, f"{cfg.run_id}.metrics.csv")
    ckpt_path = os.path.join(cfg.output_dir, f"{cfg.run_id}.ckpt")
    last_good: str | None = os.path.join(cfg.output_dir, f"{cfg.run_id}.step{first}.ckpt")
    save_checkpoint(state, last_good)

    log_new = not os.path.exists(log_path)
    with open(log_path, "a") as log:
        if log_new:
            log.write(TRAINLOG_SCHEMA + "\n")
            log.write("step,loss,term1,term2\n")
        for step in range(first, last):
            batch_rows = derive_rng(state.seed, tag("batch"), step).choice(
                num_pairs, size=batch_size, replace=False)
            obs = ds.pair_observations(batch_rows)
            step_seed = int(derive_rng(state.seed, tag("step_noise"), step).integers(1 << 62))
            zero_grads(model.params)
            loss, term1, term2 = final_objective(model, obs, cfg.objective, step_seed)
            if not np.isfinite(loss.value):
                raise NumericalAbort(step, last_good)
            grads = backward(loss, model.params)
            if not _all_finite(grads.values()):
                raise NumericalAbort(step, last_good)
            opt.step(grads)
            state.step = step + 1
            log.write(csv_line([step, float(loss.value), term1, term2]))

            if cfg.eval_every and state.step % cfg.eval_every == 0:
                if not _all_finite(p.value for p in model.params.values()):
                    raise NumericalAbort(step, last_good)
                save_checkpoint(state, ckpt_path)
                last_good = ckpt_path
                if evaluate:
                    _append_metrics_row(metrics_path, evaluate_model(model, cfg, state.step, heldout))

    save_checkpoint(state, ckpt_path)
    if evaluate and (cfg.eval_every == 0 or state.step % cfg.eval_every != 0 or steps == 0):
        _append_metrics_row(metrics_path, evaluate_model(model, cfg, state.step, heldout))
    return state


def check_config(cfg: RunConfig, num_pairs: int, pmi_num_samples: int | None = None) -> None:
    """Raise ConfigError for a run that would fail after its first file is written.

    train's batch from `num_pairs` pairs must supply the negatives, and a
    mixture posterior must split every sample count evenly across the
    modalities: the objective's estimators and, for a propagation run,
    `pmi_num_samples`.
    """
    batch = min(cfg.optimizer.batch_size, num_pairs)
    n_neg = cfg.objective.num_negatives
    if cfg.objective.variant != "baseline" and batch <= n_neg:
        raise ConfigError(f"run {cfg.run_id!r}: a batch of {batch} pairs (batch_size "
                             f"{cfg.optimizer.batch_size}, {num_pairs} pairs of data) must "
                             f"exceed num_negatives {n_neg}")
    if cfg.model.joint_kind != "moe":
        return
    m = len(cfg.dataset.factors.modality_names)
    counts = {"objective.term1": cfg.objective.term1.num_samples}
    if cfg.objective.term2 is not None:
        counts["objective.term2"] = cfg.objective.term2.num_samples
    if pmi_num_samples is not None:
        counts["pmi_num_samples"] = pmi_num_samples
    for where, k in counts.items():
        if k % m != 0:
            raise ConfigError(f"run {cfg.run_id!r}: the mixture posterior splits samples evenly "
                              f"across {m} modalities, but {where} has num_samples {k}")


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def mean_heldout_loglik(model, cfg: RunConfig, num_samples: int = 30,
                        heldout: HeldOut | None = None) -> float:
    """IWAE estimate of the joint log-likelihood on held-out related pairs."""
    related = (heldout or heldout_sets(cfg)).related
    names = list(related.spec.modality_names)
    obs = related.pair_observations()
    vals = iwae(model.frozen(), obs[names[0]], obs[names[1]], num_samples, cfg.seed + 13).value
    return float(vals.mean())


# -- experiment drivers -----------------------------------------------------------------------


def sweep_gamma(cfg: RunConfig, gammas: list[float], out_path: str) -> list[dict]:
    """Full train + eval per gamma with shared seeds; long-format CSV."""
    runs = (({"gamma": float(gamma)},
             replace(cfg, run_id=f"{cfg.run_id}-g{gamma}",
                     objective=replace(cfg.objective, gamma=float(gamma)),
                     output_dir=os.path.join(cfg.output_dir, f"gamma={gamma}")))
            for gamma in gammas)
    return _sweep(out_path, ["gamma"], runs, heldout=True)


def sweep_data_fraction(cfg: RunConfig, percents: list[float], variants: list[str],
                        out_path: str, seeds: list[int] | None = None) -> list[dict]:
    """Cross product of variants x percents x paired seeds; long-format CSV."""
    seeds = seeds if seeds is not None else [cfg.seed]
    runs = (({"variant": variant, "percent": float(percent), "seed": seed},
             replace(config_for_variant(cfg, variant),
                     run_id=f"{cfg.run_id}-{variant}-p{percent}-s{seed}",
                     seed=seed,
                     dataset=replace(cfg.dataset, percent=float(percent), seed=seed),
                     model=replace(cfg.model, init_seed=seed),
                     output_dir=os.path.join(cfg.output_dir, f"{variant}-p{percent}-s{seed}")))
            for variant in variants for percent in percents for seed in seeds)
    return _sweep(out_path, ["variant", "percent", "seed"], runs)


def _sweep(out_path: str, keys: list[str], runs, heldout: bool = False) -> list[dict]:
    """Train each (key values, config) run from scratch, then write one metrics row per run.

    Every run's dataset is built and checked before the first file is written.
    """
    runs = [(key_values, rcfg, build_dataset(rcfg)) for key_values, rcfg in runs]
    for _, rcfg, ds in runs:
        check_config(rcfg, len(ds))
    columns = keys + METRICS_COLUMNS[1:] + (["mean_test_loglik"] if heldout else [])
    rows = []
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(SWEEP_SCHEMA + "\n")
        fh.write(csv_line(columns))
        for key_values, rcfg, ds in runs:
            state = train(rcfg, dataset=ds, evaluate=False)
            sets = heldout_sets(rcfg)
            row = evaluate_model(state.model, rcfg, state.step, sets)
            row.update(key_values)
            if heldout:
                row["mean_test_loglik"] = mean_heldout_loglik(state.model, rcfg, heldout=sets)
            rows.append(row)
            fh.write(csv_line(row[c] for c in columns))
    return rows


def run_pipeline(cfg: RunConfig, pcfg: relatedness.PropagationConfig) -> tuple[relatedness.PropagationReport, dict]:
    """Pretrain on the small related split, fit a PMI threshold, propagate,
    continue training on the union, and report before/after metrics."""
    stage = "carve"
    try:
        full_related = build_dataset(replace(cfg, dataset=replace(cfg.dataset, percent=100.0)))
        small_related, small_mixed, full_mixed = relatedness.carve_pipeline_datasets(
            full_related, pcfg.pretrain_percent, seed=cfg.seed)
        check_config(cfg, len(small_related), pcfg.pmi_num_samples)

        stage = "pretrain"
        state = train(cfg, dataset=small_related, evaluate=False)
        heldout = heldout_sets(cfg)
        before = evaluate_model(state.model, cfg, state.step, heldout)

        if pcfg.pretrain_percent >= 100.0 or len(full_mixed) == 0:
            report = relatedness.PropagationReport(
                threshold=math.nan, predicted=np.zeros(0, dtype=np.uint8),
                precision=math.nan, recall=math.nan, f1=math.nan,
                metrics_before=before, metrics_after=before)
            return report, {"stage": "empty-remainder"}

        stage = "threshold"
        scores = relatedness.score_dataset(state.model, small_mixed,
                                           pcfg.pmi_num_samples, cfg.seed + 31)
        threshold = relatedness.estimate_threshold(scores, small_mixed.related,
                                                   rule=pcfg.threshold_rule)

        stage = "propagate"
        predicted, quality = relatedness.propagate(state.model, full_mixed, threshold,
                                                   pcfg.pmi_num_samples, cfg.seed + 37)

        after = before
        if pcfg.continue_training:
            stage = "continue"
            merged = relatedness.merge_predicted(small_related, full_mixed, predicted)
            state = train(cfg, dataset=merged, state=state,
                          extra_steps=cfg.optimizer.steps, evaluate=False)
            after = evaluate_model(state.model, cfg, state.step, heldout)

        report = relatedness.PropagationReport(
            threshold=quality["threshold"], predicted=predicted,
            precision=quality["precision"], recall=quality["recall"], f1=quality["f1"],
            metrics_before=before, metrics_after=after)
        return report, {"stage": "done", "state": state}
    except (NumericalAbort, ConfigError):
        raise
    except Exception as exc:
        raise RuntimeError(f"propagation pipeline failed at stage {stage!r}: {exc}") from exc
