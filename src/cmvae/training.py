"""Training loop, configuration, checkpoints, and the experiment drivers.

Every run is reproducible from its config alone: batch selection and
estimator noise are derived from (seed, step), never from accumulated RNG
state, so restoring a checkpoint and continuing is bit-identical to an
uninterrupted run.

A step's gradient, the objective's only one, is a sum of per-block
gradients (block_gradient): the loss is computed once from the log
weights' values (objective.final_objective), and one backward per
log-weight block, one block per modality for a mixture posterior, starts
from that block's columns of dL/d log_w; the block gradients are summed in
name order.  So a train call of at least
HELPER_MIN_STEPS steps on a mixture model, where the fork rules of
`peers.usable_cpus` allow it, starts one helper peer before its first step
that computes the second block of every step on another CPU, with the
same bits as one process; a call whose fork fails trains in one process,
with the same bits again.  The helper derives the same batch and noise
from (seed, step); the block's values and seed, then the flat gradient,
travel through the peer's shared values, and both processes run the same
Adam update, so no parameter is shipped.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import evaluation, relatedness
from .autodiff import Tensor, backward
from .bounds import joint_bound
from .data import (FactorSpec, PairedDataset, generate_unimodal, make_related_dataset, pair_related,
                   random_pairs, subset)
from .models import TRAINED_JOINT_KINDS, MultimodalModel, ModalitySpec, build_model, mixture_split
from .objective import ObjectiveConfig, final_objective, log_weight_blocks, log_weight_rows
from .peers import Peer, usable_cpus
from .seeding import derive_rng, tag

CHECKPOINT_MAGIC = b"CMVAE"
CHECKPOINT_VERSION = 2  # v2 adds a dtype code per entry; v1 stored everything as f8
_CHECKPOINT_DTYPES = {b"f": "<f8", b"i": "<i8"}
METRICS_SCHEMA = "# cmvae-metrics-v2"  # v2 names each per-modality column by its modality
TRAINLOG_SCHEMA = "# cmvae-trainlog-v1"
SWEEP_SCHEMA = "# cmvae-sweep-v1"
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
_JSON_KINDS = {tuple: "a list", float: "a number", int: "an integer", str: "a string"}  # else an object


class ConfigError(ValueError):
    """A config that cannot run, such as a batch too small for its negatives."""


class NumericalAbort(RuntimeError):
    """Loss, gradients or parameters went non-finite; carries the last good checkpoint path."""

    def __init__(self, step: int, checkpoint_path: str | None):
        super().__init__(f"non-finite loss, gradient or parameter at step {step}")
        self.step = step
        self.checkpoint_path = checkpoint_path


def _check_at_least(cfg, **lows) -> None:
    for key, low in lows.items():
        if getattr(cfg, key) < low:
            raise ValueError(f"{key} must be >= {low}, got {getattr(cfg, key)!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    steps: int = 5000
    batch_size: int = 64

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        _check_at_least(self, steps=0, batch_size=1)


@dataclass(frozen=True)
class DatasetConfig:
    factors: FactorSpec = field(default_factory=FactorSpec)
    items_per_modality: int = 2000
    pairs_per_instance: int = 1
    percent: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.percent <= 100.0:
            raise ValueError(f"percent must lie in (0, 100], got {self.percent!r}")
        _check_at_least(self, pairs_per_instance=1)
        if self.factors.noise_scale == 0.0:  # FactorSpec allows it: noiseless generation is well defined
            raise ValueError("noise_scale must be > 0 in a run, whose oracle classifiers invert "
                             "the noise covariance")


@dataclass(frozen=True)
class ModelConfig:
    joint_kind: str = "moe"
    latent_dim: int = 8
    hidden_dim: int = 64
    num_hidden: int = 2
    init_seed: int = 0

    def __post_init__(self):
        if self.joint_kind not in TRAINED_JOINT_KINDS:
            raise ValueError(f"joint_kind must be one of {TRAINED_JOINT_KINDS}, got {self.joint_kind!r}")
        _check_at_least(self, latent_dim=1, hidden_dim=1, num_hidden=0)


@dataclass(frozen=True)
class RunConfig:
    """One run.  Its JSON file holds these keys; a missing key takes its default, an unknown one is an error.
    Each key's JSON type is its default's: an object for a section, a list for a tuple, any number for a
    float (stored as a float), an integer (not true or false) for an int, and a string for a str.

    Top level: run_id, seed, eval_every, eval_items, output_dir, and the sections
    dataset: factors, items_per_modality, pairs_per_instance, percent, seed;
    dataset.factors: num_classes, modality_names, obs_dims, private_dims, likelihoods, noise_scale, map_seed;
    model: joint_kind, latent_dim, hidden_dim, num_hidden, init_seed;
    objective: variant, gamma, num_negatives, num_samples; optimizer: learning_rate, steps, batch_size.
    """

    run_id: str = "run"
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    eval_every: int = 500
    eval_items: int = 256
    output_dir: str = "runs/run"

    def __post_init__(self):
        _check_at_least(self, eval_every=0)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path) as fh:
            return _from_json(RunConfig(), json.load(fh), "")


def _from_json(default, value, key: str):
    """`value`, parsed from JSON, with the type of `default`: the default of the field at dotted `key`."""
    if is_dataclass(default) and type(value) is dict:
        keys = {name: f"{key}.{name}" if key else name for name in value}
        unknown = sorted(set(value) - {f.name for f in fields(default)})
        if unknown:
            raise ValueError(f"unknown key {keys[unknown[0]]}")
        return type(default)(**{name: _from_json(getattr(default, name), v, keys[name])
                                for name, v in value.items()})
    if type(default) is tuple and type(value) is list:
        return tuple(_from_json(default[0], v, key) for v in value)
    if type(default) is float and type(value) is int:
        return float(value)
    if type(value) is not type(default):
        kind = _JSON_KINDS.get(type(default), "an object")
        raise ValueError(f"{key or 'the config'} must be {kind}, got {value!r}")
    return value


# -- optimizer -----------------------------------------------------------------------


class Adam:
    """Adaptive-moment gradient descent over a named parameter dict.

    Parameters, moments and gradients are flat vectors over the parameters
    in sorted-name order; `m` and `v` hold per-name views of the moments,
    and each step gives every parameter a view of a new flat vector.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimizerConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.names = sorted(params)
        size = sum(params[k].value.size for k in self.names)
        self._m, self._v = np.zeros(size), np.zeros(size)
        self.m, self.v = self.views(self._m), self.views(self._v)

    def flatten(self, arrays: dict[str, np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        return np.concatenate([arrays[k].reshape(-1) for k in self.names], out=out)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        out, start = {}, 0
        for k in self.names:
            shape = self.params[k].value.shape
            stop = start + math.prod(shape)
            out[k] = flat[start:stop].reshape(shape)
            start = stop
        return out

    def step(self, g: np.ndarray) -> None:
        """One update from the flat gradient (see `flatten`)."""
        b1, b2, lr = ADAM_BETA1, ADAM_BETA2, self.cfg.learning_rate
        self.t += 1
        self._m *= b1
        self._m += (1 - b1) * g
        self._v *= b2
        self._v += (1 - b2) * g * g
        step = self._m / (1 - b1 ** self.t)
        step *= lr
        denom = np.sqrt(self._v / (1 - b2 ** self.t))
        denom += ADAM_EPSILON
        step /= denom
        flat = self.flatten({k: p.value for k, p in self.params.items()})
        flat -= step
        for k, view in self.views(flat).items():
            self.params[k].value = view


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
        model.params[k] = Tensor.param(arrays[k].copy())
    opt = Adam(model.params, cfg.optimizer)
    for k in opt.names:
        opt.m[k][...] = arrays[f"adam.m.{k}"]
        opt.v[k][...] = arrays[f"adam.v.{k}"]
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


def _heldout_related(cfg: RunConfig) -> PairedDataset:
    """A run's held-out related pairs: each item of a fresh first-modality pool with one partner.

    heldout_sets re-pairs the same pools at random for its mixed set.
    Raises ConfigError when `cfg.eval_items` items cannot make them.
    """
    f, n, seed = cfg.dataset.factors, cfg.eval_items, cfg.dataset.seed + 7919
    try:
        x = generate_unimodal(f, n, f.modality_names[0], seed)
        y = generate_unimodal(f, n, f.modality_names[1], seed + 1)
        return pair_related(f, x, y, pairs_per_instance=1, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"run {cfg.run_id!r}: no held-out sets from eval_items {n}: {exc}") from exc


def heldout_sets(cfg: RunConfig) -> HeldOut:
    """Build a run's held-out sets; its evaluations share them, so every array is read-only.

    Raises ConfigError when `cfg.eval_items` items cannot make them.
    """
    related = _heldout_related(cfg)
    mixed_seed = related.pair_seed + 2
    mixed = related.with_pairs(random_pairs(len(related), len(related), mixed_seed), 1, mixed_seed)
    out = HeldOut(related=related, mixed=mixed, oracles=evaluation.oracle_classifiers(cfg.dataset.factors))
    arrays = [o for c in out.oracles.values() for o in (c.class_means, c.precision)]
    for ds in (out.related, out.mixed):
        arrays += [*ds.observations.values(), *ds.labels.values(), ds.pairs, ds.related]
    for arr in arrays:
        arr.flags.writeable = False
    return out


def evaluate_model(model, cfg: RunConfig, step: int, heldout: HeldOut | None = None) -> dict:
    """One metrics row, keyed by metrics_columns: accuracies, coherences, and PMI separation.

    `heldout` defaults to heldout_sets(cfg); a run that evaluates more than
    once builds it once and passes it.
    """
    model = model.frozen()
    heldout = heldout or heldout_sets(cfg)
    related, mixed, oracles = heldout.related, heldout.mixed, heldout.oracles
    a, b = names = cfg.dataset.factors.modality_names
    seed = cfg.seed + 104729

    acc = evaluation.latent_accuracy(model, related, seed=seed)
    cross = evaluation.cross_coherence(model, related, oracles, seed=seed)
    joint = evaluation.joint_coherence(model, cfg.eval_items, oracles, seed=seed)
    synergy = evaluation.synergy_coherence(model, related, oracles, seed=seed)

    scores = relatedness.score_dataset(model, mixed, cfg.objective.num_samples, seed)
    rel = mixed.related.astype(bool)
    mean_rel = float(scores[rel].mean()) if rel.any() else math.nan
    mean_unrel = float(scores[~rel].mean()) if (~rel).any() else math.nan

    return dict(zip(metrics_columns(names), [
        cfg.run_id, step, acc[a], acc[b], joint, cross[f"{a}->{b}"], cross[f"{b}->{a}"], synergy,
        mean_rel, mean_unrel]))


def metrics_columns(modality_names) -> list[str]:
    """The columns of a metrics row; each per-modality column names its modality."""
    a, b = modality_names
    return ["run_id", "step", f"latent_acc_{a}", f"latent_acc_{b}", "joint_coh",
            f"cross_coh_{a}_to_{b}", f"cross_coh_{b}_to_{a}", "synergy_coh",
            "mean_pmi_related", "mean_pmi_unrelated"]


def _append_metrics_row(path: str, row: dict) -> None:
    new = not os.path.exists(path)
    with open(path, "a") as fh:
        if new:
            fh.write(METRICS_SCHEMA + "\n")
            fh.write(csv_line(row))
        fh.write(csv_line(row.values()))


# -- training loop -------------------------------------------------------------------------


# Steps a train call needs to pay for its helper: the fewest at which the
# helper won on every step shape measured.  Warm calls on a 2-vCPU host with
# one BLAS thread, alternating with and without the helper in one process,
# bit-identical; one process's time over the helper's (the 4-step column was
# taken apart, with the call's checkpoint writes inside the timing):
#
#   shape                       1 step  2 steps  3 steps  4 steps     5 steps
#   cI, B=64, K=30 (default)    1.13x   1.19x    1.20x    0.89-0.91x  1.32-1.39x (26/26 won)
#   cI, B=48, K=10 (propagate)  0.54x   0.84x    0.89x    0.74-0.92x  1.13x (11/11 won)
#   baseline, B=64, K=30        0.97x   1.10x    1.3x     0.89-0.92x  1.29-1.43x
#
# The fixed cost is the fork (3.4 ms) and first-touch copy-on-write faults,
# about 2.6 us each: about 3000 in the caller's step 0, 2100 in its step 1
# and 5400 in the helper.  So a default cI step 0 takes about 27 ms, against
# 26 ms for a step in one process and 15 ms for a steady step with the helper.
HELPER_MIN_STEPS = 5


def train(cfg: RunConfig, dataset: PairedDataset | None = None,
          state: TrainState | None = None, evaluate: bool = True) -> TrainState:
    """Minimize the configured objective; write train/metrics CSVs and checkpoints.

    Runs cfg.optimizer.steps steps.  Passing an existing state continues
    training from its step on (possibly) a new dataset.  A call of at least
    HELPER_MIN_STEPS steps on a mixture model computes the second
    log-weight block of each step in a forked helper (see the module
    docstring); it has exited when this returns or raises.
    """
    try:
        ds = dataset if dataset is not None else build_dataset(cfg)
        heldout = heldout_sets(cfg) if evaluate else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    check_config(cfg, len(ds))
    os.makedirs(cfg.output_dir, exist_ok=True)
    if state is None:
        model = build_model_from_config(cfg)
        state = TrainState(step=0, model=model, optimizer=Adam(model.params, cfg.optimizer),
                           seed=cfg.seed)
    model, opt = state.model, state.optimizer

    batch_size = min(cfg.optimizer.batch_size, len(ds))
    steps = cfg.optimizer.steps
    first, last = state.step, state.step + steps

    log_path = os.path.join(cfg.output_dir, f"{cfg.run_id}.train.csv")
    metrics_path = os.path.join(cfg.output_dir, f"{cfg.run_id}.metrics.csv")
    ckpt_path = os.path.join(cfg.output_dir, f"{cfg.run_id}.ckpt")
    last_good: str | None = os.path.join(cfg.output_dir, f"{cfg.run_id}.step{first}.ckpt")
    save_checkpoint(state, last_good)

    def batch(step):
        return _step_batch(ds, state.seed, step, batch_size)

    helper = None
    log_new = not os.path.exists(log_path)
    try:
        if model.joint_kind == "moe" and steps >= HELPER_MIN_STEPS and usable_cpus() >= 2:
            rows = log_weight_rows(cfg.objective, batch_size) * mixture_split(cfg.objective.num_samples)
            with contextlib.suppress(OSError):  # no helper: one process trains the same bits
                helper = Peer(rows + opt._m.size, sorted(os.sched_getaffinity(0))[1],
                              lambda peer: _helper_steps(peer, rows, model, opt, cfg, range(first, last), batch))
        with open(log_path, "a") as log:
            if log_new:
                log.write(TRAINLOG_SCHEMA + "\n")
                log.write("step,loss,term1,term2\n")
            for step in range(first, last):
                obs, step_seed = batch(step)
                loss, term1, term2, blocks = final_objective(model, obs, cfg.objective, step_seed, helper)
                if not np.isfinite(loss):
                    raise NumericalAbort(step, last_good)
                grad = opt.flatten(block_gradient(blocks.values(), opt.params))
                if helper is not None:  # plus the helper's block gradient, in name order
                    helper.wait()
                    grad = np.add(grad, helper.values[rows:], out=helper.values[rows:])
                if not np.isfinite(grad).all():
                    raise NumericalAbort(step, last_good)
                if helper is not None:
                    helper.send()  # the helper makes the same update
                opt.step(grad)
                state.step = step + 1
                log.write(csv_line([step, loss, term1, term2]))

                if cfg.eval_every and state.step % cfg.eval_every == 0:
                    if not _all_finite(p.value for p in model.params.values()):
                        raise NumericalAbort(step, last_good)
                    save_checkpoint(state, ckpt_path)
                    last_good = ckpt_path
                    if evaluate:
                        _append_metrics_row(metrics_path, evaluate_model(model, cfg, state.step, heldout))
    finally:
        if helper is not None:
            helper.stop()

    save_checkpoint(state, ckpt_path)
    if evaluate and (cfg.eval_every == 0 or state.step % cfg.eval_every != 0 or steps == 0):
        _append_metrics_row(metrics_path, evaluate_model(model, cfg, state.step, heldout))
    return state


def _step_batch(ds: PairedDataset, seed: int, step: int, batch_size: int):
    """A step's batch observations and noise seed, from (seed, step) alone."""
    rows = derive_rng(seed, tag("batch"), step).choice(len(ds), size=batch_size, replace=False)
    return ds.pair_observations(rows), int(derive_rng(seed, tag("step_noise"), step).integers(1 << 62))


def block_gradient(blocks, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """The gradient over `params` of (block, its columns of dL/d log_w) pairs in name order, as
    final_objective returns them: one backward per block, from its columns, summed in order."""
    total = None
    for w, seed in blocks:
        grads = backward((w * Tensor.const(seed)).sum(), params)
        total = grads if total is None else {k: total[k] + g for k, g in grads.items()}
    return total


def _helper_steps(peer: Peer, rows: int, model, opt: Adam, cfg: RunConfig, steps, batch) -> None:
    """The helper's side of train: the last log-weight block and the Adam update of each step."""
    last = [model.modalities[-1].name]
    block, grad = peer.values[:rows], peer.values[rows:]  # the block's values, then its seed; the flat gradient
    for step in steps:
        obs, step_seed = batch(step)
        (w,) = log_weight_blocks(model, obs, cfg.objective, step_seed, last).values()
        block[...] = w.value.reshape(-1)
        peer.send()
        peer.wait()
        opt.flatten(block_gradient([(w, block.reshape(w.shape))], opt.params), out=grad)
        peer.send()
        peer.wait()
        opt.step(grad)


def check_config(cfg: RunConfig, num_pairs: int, pmi_num_samples: int | None = None) -> None:
    """Raise ConfigError for a run that would fail after its first file is written.

    train's batch from `num_pairs` pairs must supply the negatives, and a
    mixture posterior must split every sample count evenly across the
    modalities: the objective's and, for a propagation run,
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
    for where, k in (("objective", cfg.objective.num_samples), ("pmi_num_samples", pmi_num_samples)):
        try:
            if k is not None:
                mixture_split(k)
        except ValueError as exc:
            raise ConfigError(f"run {cfg.run_id!r}: {exc}; {where} has num_samples {k}") from None


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def mean_heldout_loglik(model, cfg: RunConfig, heldout: HeldOut | None = None) -> float:
    """IWAE estimate, K=30, of the joint log-likelihood on held-out related pairs, chunked like score_dataset.

    Without `heldout`, only the run's held-out related pairs are built.
    """
    related = heldout.related if heldout else _heldout_related(cfg)
    obs = related.pair_observations()
    frozen = model.frozen()

    def score(start, stop):
        rows = {n: v[start:stop] for n, v in obs.items()}
        return joint_bound(frozen, rows, "iwae", 30, cfg.seed + 13).value

    return float(relatedness.map_chunks(score, len(related)).mean())


# -- experiment drivers -----------------------------------------------------------------------


def sweep_gamma(cfg: RunConfig, gammas: list[float], out_path: str) -> list[dict]:
    """Full train + eval per gamma with shared seeds; long-format CSV."""
    if cfg.objective.variant == "baseline":
        raise ConfigError(f"run {cfg.run_id!r}: the baseline loss does not use gamma")
    runs = (({"gamma": float(gamma)},
             replace(cfg, run_id=f"{cfg.run_id}-g{gamma}",
                     objective=replace(cfg.objective, gamma=float(gamma)),
                     output_dir=os.path.join(cfg.output_dir, f"gamma={gamma}")))
            for gamma in gammas)
    return _sweep(out_path, ["gamma"], runs, cfg.dataset.factors.modality_names, heldout=True)


def sweep_data_fraction(cfg: RunConfig, percents: list[float], variants: list[str],
                        out_path: str, seeds: list[int] | None = None) -> list[dict]:
    """Cross product of variants x percents x paired seeds; long-format CSV."""
    seeds = seeds if seeds is not None else [cfg.seed]
    runs = (({"variant": variant, "percent": float(percent), "seed": seed},
             data_fraction_config(cfg, variant, percent, seed,
                                  os.path.join(cfg.output_dir, f"{variant}-p{percent}-s{seed}")))
            for variant in variants for percent in percents for seed in seeds)
    return _sweep(out_path, ["variant", "percent", "seed"], runs, cfg.dataset.factors.modality_names)


def data_fraction_config(cfg: RunConfig, variant: str, percent: float, seed: int,
                         output_dir: str) -> RunConfig:
    """`cfg` for one (variant, percent, seed) run; the seed sets the run, dataset and model-init seeds."""
    return replace(cfg, objective=replace(cfg.objective, variant=variant),
                   run_id=f"{cfg.run_id}-{variant}-p{percent}-s{seed}", seed=seed,
                   dataset=replace(cfg.dataset, percent=float(percent), seed=seed),
                   model=replace(cfg.model, init_seed=seed), output_dir=output_dir)


def _sweep(out_path: str, keys: list[str], runs, names, heldout: bool = False) -> list[dict]:
    """Train each (key values, config) run from scratch, then write one metrics row per run.

    The runs are over modalities `names`, which name the metric columns.

    Every run's config, dataset and held-out sets are built and checked before the first
    file is written.
    """
    try:
        runs = [(key_values, rcfg, build_dataset(rcfg)) for key_values, rcfg in runs]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for _, rcfg, ds in runs:
        check_config(rcfg, len(ds))
    runs = [(key_values, rcfg, ds, heldout_sets(rcfg)) for key_values, rcfg, ds in runs]
    columns = keys + metrics_columns(names)[1:] + (["mean_test_loglik"] if heldout else [])
    rows = []
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(SWEEP_SCHEMA + "\n")
        fh.write(csv_line(columns))
        for key_values, rcfg, ds, sets in runs:
            state = train(rcfg, dataset=ds, evaluate=False)
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
        try:
            full_related = build_dataset(replace(cfg, dataset=replace(cfg.dataset, percent=100.0)))
            small_related, small_mixed, full_mixed = relatedness.carve_pipeline_datasets(
                full_related, pcfg.pretrain_percent, seed=cfg.seed)
        except ValueError as exc:
            raise ConfigError(f"run {cfg.run_id!r} at pretrain_percent {pcfg.pretrain_percent:g}: "
                              f"{exc}") from exc
        check_config(cfg, len(small_related), pcfg.pmi_num_samples)
        heldout = heldout_sets(cfg)

        stage = "pretrain"
        state = train(cfg, dataset=small_related, evaluate=False)
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
            state = train(cfg, dataset=merged, state=state, evaluate=False)
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
