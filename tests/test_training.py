import errno
import hashlib
import importlib.util
import json
import math
import os
import signal
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvae.bounds import bound_from_log_weights, joint_bound, joint_log_weights
from cmvae.data import FactorSpec, generate_unimodal, pair_random
from cmvae import evaluation, relatedness, training
from cmvae.evaluation import make_oracle
from cmvae.models import ModalitySpec, build_model
from cmvae.objective import ObjectiveConfig, final_objective
from cmvae.peers import PeerError
from cmvae.training import (
    Adam,
    ConfigError,
    DatasetConfig,
    ModelConfig,
    NumericalAbort,
    OptimizerConfig,
    RunConfig,
    build_dataset,
    build_model_from_config,
    check_config,
    evaluate_model,
    heldout_sets,
    mean_heldout_loglik,
    read_checkpoint,
    restore_state,
    run_pipeline,
    save_checkpoint,
    train,
    TrainState,
    block_gradient,
)
from cmvae.autodiff import Tensor
from cmvae.relatedness import PropagationConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = FactorSpec(num_classes=3, obs_dims=(6, 6), private_dims=(1, 1))


def tiny_config(out, variant="cI", steps=5, seed=0, **kw):
    return RunConfig(
        run_id="t", seed=seed,
        dataset=DatasetConfig(factors=TINY, items_per_modality=60, seed=seed,
                              pairs_per_instance=1),
        model=ModelConfig(joint_kind="moe", latent_dim=3, hidden_dim=8, init_seed=seed),
        objective=ObjectiveConfig.for_variant(variant, num_samples=4),
        optimizer=OptimizerConfig(steps=steps, batch_size=12),
        eval_every=0, eval_items=24, output_dir=str(out), **kw,
    )


def test_adam_matches_reference_update():
    # one step against the textbook update rule
    p = {"w": Tensor.param(np.array([1.0, -2.0]))}
    opt = Adam(p, OptimizerConfig(learning_rate=0.1))
    g = {"w": np.array([0.5, -1.5])}
    opt.step(opt.flatten(g))
    m_hat = (0.1 * g["w"]) / (1 - 0.9)
    v_hat = (0.001 * g["w"] ** 2) / (1 - 0.999)
    expect = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p["w"].value, expect, atol=1e-12)


def test_flat_adam_matches_the_per_parameter_update_bit_for_bit():
    rng = np.random.default_rng(0)
    shapes = {"b": (3,), "a": (2, 4), "c": ()}
    params = {k: Tensor.param(rng.standard_normal(shape)) for k, shape in shapes.items()}
    ref = {k: p.value for k, p in params.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    opt = Adam(params, OptimizerConfig(learning_rate=0.01))
    for t in range(1, 4):
        grads = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
        opt.step(opt.flatten(grads))
        for k, g in grads.items():  # the update as written per parameter
            m[k] = 0.9 * m[k] + (1 - 0.9) * g
            v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
            m_hat, v_hat = m[k] / (1 - 0.9 ** t), v[k] / (1 - 0.999 ** t)
            ref[k] = ref[k] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for k in shapes:
            assert np.array_equal(params[k].value, ref[k]) and params[k].value.shape == shapes[k], k
            assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), k


# sha256 over the default model's parameters, by name in sorted order: name, shape, f64 bytes
DEFAULT_INIT_SHA256 = "c4f7b28ac2001d3c74a7d0025df1e90787e87e259a277b9a09bdcb02e22fbdc1"


@pytest.mark.parametrize("joint_kind", ["moe", "poe"])
def test_default_model_initialisation_is_golden(joint_kind):
    model = build_model_from_config(RunConfig(model=ModelConfig(joint_kind=joint_kind)))
    digest = hashlib.sha256()
    for name in sorted(model.params):
        value = model.params[name].value
        digest.update(f"{name}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    assert digest.hexdigest() == DEFAULT_INIT_SHA256


def test_config_json_roundtrip(tmp_path):
    path = str(tmp_path / "cfg.json")
    for variant in ("cI", "cC"):
        cfg = tiny_config(tmp_path / "runs", variant=variant)
        cfg.save(path)
        assert RunConfig.load(path) == cfg, variant


def test_config_roundtrip_preserves_baseline_sentinel(tmp_path):
    # the baseline is marked by its variant name alone, so its file is strict JSON
    cfg = tiny_config(tmp_path / "runs", variant="baseline")
    path = str(tmp_path / "cfg.json")
    cfg.save(path)
    with open(path) as fh:
        raw = json.load(fh, parse_constant=lambda name: pytest.fail(f"non-standard JSON constant {name}"))
    assert raw["objective"]["variant"] == "baseline"
    back = RunConfig.load(path)
    assert back.objective.variant == "baseline"
    assert back == cfg


def test_shipped_script_configs_load_back(tmp_path, monkeypatch):
    # every config the scripts write loads back equal and passes check_config
    def script(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    saved, real_save = [], RunConfig.save
    monkeypatch.setattr(RunConfig, "save", lambda self, path: saved.append((self, path)) or real_save(self, path))
    for variant in ("baseline", "cI", "cC"):
        monkeypatch.setattr(sys, "argv", ["make_default_config.py", str(tmp_path / f"{variant}.json"),
                                          "--variant", variant])
        script("make_default_config").main()
    for name in ("run_data_efficiency", "run_label_propagation"):
        script(name).build_default(str(tmp_path / f"{name}.json"))
    assert [cfg.objective.variant for cfg, _ in saved] == ["baseline", "cI", "cC", "cI", "cI"]
    for cfg, path in saved:
        back = RunConfig.load(path)
        assert back == cfg, path
        check_config(back, back.dataset.items_per_modality, PropagationConfig().pmi_num_samples)


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    model = build_model_from_config(cfg)
    state = TrainState(step=3, model=model, optimizer=Adam(model.params, cfg.optimizer),
                       seed=cfg.seed)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(state, path)
    with open(path, "rb") as fh:
        assert fh.read(5) == b"CMVAE"
    arrays = read_checkpoint(path)
    for k, p in model.params.items():
        assert np.array_equal(arrays[k], p.value)
    restored = restore_state(cfg, path)
    assert restored.step == 3
    for k in model.params:
        assert np.array_equal(restored.model.params[k].value, model.params[k].value)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-(2 ** 63), 2 ** 63 - 1), step=st.integers(0, 2 ** 63 - 1),
       adam_t=st.integers(0, 2 ** 63 - 1))
@example(seed=2 ** 60 + 1, step=2 ** 53 + 1, adam_t=2 ** 53 + 1)
def test_checkpoint_integers_roundtrip_exactly(seed, step, adam_t):
    cfg = tiny_config("unused")
    model = build_model_from_config(cfg)
    opt = Adam(model.params, cfg.optimizer)
    opt.t = adam_t
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ckpt")
        save_checkpoint(TrainState(step=step, model=model, optimizer=opt, seed=seed), path)
        restored = restore_state(cfg, path)
    assert (restored.seed, restored.step, restored.optimizer.t) == (seed, step, adam_t)


def _write_v1_checkpoint(path, arrays):
    """The version-1 layout: every entry stored as little-endian f8."""
    with open(path, "wb") as fh:
        fh.write(b"CMVAE" + struct.pack("<II", 1, len(arrays)))
        for name, arr in arrays.items():
            fh.write(struct.pack("<I", len(name)) + name.encode())
            fh.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def test_reads_version1_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    model = build_model_from_config(cfg)
    opt = Adam(model.params, cfg.optimizer)
    arrays = {k: p.value for k, p in sorted(model.params.items())}
    for k in sorted(opt.m):
        arrays[f"adam.m.{k}"] = opt.m[k] + 0.5
        arrays[f"adam.v.{k}"] = opt.v[k] + 0.25
    arrays.update({"trainer.adam_t": np.asarray(7.0), "trainer.step": np.asarray(7.0),
                   "trainer.seed": np.asarray(12345.0)})
    path = str(tmp_path / "v1.ckpt")
    _write_v1_checkpoint(path, arrays)
    restored = restore_state(cfg, path)
    assert (restored.seed, restored.step, restored.optimizer.t) == (12345, 7, 7)
    for k, p in model.params.items():
        assert np.array_equal(restored.model.params[k].value, p.value)
        assert np.array_equal(restored.optimizer.m[k], opt.m[k] + 0.5)


def test_truncated_checkpoint_is_reported(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    model = build_model_from_config(cfg)
    state = TrainState(step=3, model=model, optimizer=Adam(model.params, cfg.optimizer), seed=1)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(state, path)
    data = Path(path).read_bytes()
    # inside the magic/version header, inside the name table, inside the arrays
    for keep in (3, 9, 13 + 6, len(data) - 3):
        cut = str(tmp_path / f"cut{keep}.ckpt")
        with open(cut, "wb") as fh:
            fh.write(data[:keep])
        with pytest.raises(ValueError, match="truncated") as err:
            read_checkpoint(cut)
        assert cut in str(err.value)


def test_checkpoint_write_replaces_atomically(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "runs")
    model = build_model_from_config(cfg)
    state = TrainState(step=3, model=model, optimizer=Adam(model.params, cfg.optimizer), seed=1)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(state, path)
    before = Path(path).read_bytes()

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(training.os, "replace", failing_replace)
    state.step = 4
    with pytest.raises(OSError):
        save_checkpoint(state, path)
    assert Path(path).read_bytes() == before


def test_zero_steps_writes_initial_checkpoint_only(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=0)
    state = train(cfg, evaluate=False)
    assert state.step == 0
    assert os.path.exists(os.path.join(cfg.output_dir, "t.step0.ckpt"))
    log = Path(cfg.output_dir, "t.train.csv").read_text().splitlines()
    assert log[0].startswith("#") and len(log) == 2  # schema + header, no rows


def test_training_runs_deterministically(tmp_path):
    cfg_a = tiny_config(tmp_path / "a", steps=6)
    cfg_b = tiny_config(tmp_path / "b", steps=6)
    train(cfg_a, evaluate=False)
    train(cfg_b, evaluate=False)
    a = Path(cfg_a.output_dir, "t.train.csv").read_text()
    b = Path(cfg_b.output_dir, "t.train.csv").read_text()
    assert a.replace(str(cfg_a.output_dir), "") == b.replace(str(cfg_b.output_dir), "")


def test_train_releases_gradients_and_ignores_stale_ones(tmp_path):
    # gradients are only backward's return value: no Tensor keeps one, so a
    # model that went through an earlier backward pass trains like a fresh one
    cfg = tiny_config(tmp_path / "a", steps=3)
    state = train(cfg, evaluate=False)
    assert not any(hasattr(p, "grad") for p in state.model.params.values())
    model = build_model_from_config(cfg)
    obs = build_dataset(cfg).pair_observations(np.arange(12))
    block_gradient(final_objective(model, obs, cfg.objective, 1).blocks.values(), model.params)
    stale = TrainState(step=0, model=model, optimizer=Adam(model.params, cfg.optimizer), seed=cfg.seed)
    train(replace(cfg, output_dir=str(tmp_path / "b")), state=stale, evaluate=False)
    for k, p in state.model.params.items():
        assert np.array_equal(stale.model.params[k].value, p.value), k


def test_quality_script_smoke(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the spawned workers import run_cell by module name
    quality = importlib.import_module("quality")
    cfg = tiny_config(tmp_path, steps=2)
    cells = quality.measure(cfg, cfg)
    assert sorted(cells) == ["data/baseline/p10", "data/baseline/p100", "data/cC/p10", "data/cC/p100",
                             "data/cI/p10", "data/cI/p100", "propagate/baseline/p10", "propagate/cI/p10"]
    assert {"f1", "precision", "recall"} <= set(cells["propagate/cI/p10"])
    for metrics in cells.values():
        assert {"pmi_gap", "joint_coh", "cross_coh_m1_to_m2", "cross_coh_m2_to_m1", "latent_acc_m1",
                "latent_acc_m2", "heldout_iwae"} <= set(metrics)
        assert all(len(m["values"]) == len(quality.SEEDS) for m in metrics.values())
    assert not os.listdir(tmp_path)  # runs write only to scratch directories


def test_checkpoint_restore_equals_uninterrupted(tmp_path):
    restore_equals_uninterrupted(tmp_path)


def restore_equals_uninterrupted(tmp_path):
    # train 8 == train 4, checkpoint, restore, 4 more (bit-identical)
    cfg_full = tiny_config(tmp_path / "full", steps=8)
    full = train(cfg_full, evaluate=False)

    cfg_half = tiny_config(tmp_path / "half", steps=4)
    half = train(cfg_half, evaluate=False)
    ckpt = os.path.join(cfg_half.output_dir, "t.ckpt")
    restored = restore_state(cfg_half, ckpt)
    assert restored.step == 4
    ds = build_dataset(cfg_half)
    resumed = train(cfg_half, dataset=ds, state=restored, evaluate=False)  # 4 more steps
    assert resumed.step == 8
    for k in full.model.params:
        assert np.array_equal(full.model.params[k].value, resumed.model.params[k].value), k
    assert np.array_equal(
        np.concatenate([full.optimizer.m[k].ravel() for k in sorted(full.optimizer.m)]),
        np.concatenate([resumed.optimizer.m[k].ravel() for k in sorted(resumed.optimizer.m)]))


forked_helper = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                   reason="the training helper is forked on Linux only")


@pytest.fixture
def helper_forks(monkeypatch, helpers):
    """As `helpers`, with every train call forking its helper."""
    monkeypatch.setattr(training, "HELPER_MIN_STEPS", 1)
    return helpers


def trained_files_and_params(cfg):
    model = train(cfg).model
    files = [Path(cfg.output_dir, f"t.{kind}.csv").read_text() for kind in ("train", "metrics")]
    return files, {k: p.value for k, p in model.params.items()}


def assert_same_run(a, b):
    assert a[0] == b[0]
    for k, value in a[1].items():
        assert np.array_equal(b[1][k], value), k


@forked_helper
@pytest.mark.parametrize("variant", ["baseline", "cI", "cC"])
def test_helper_trains_the_bits_of_one_process(tmp_path, monkeypatch, helpers, all_reaped, variant):
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = replace(tiny_config(tmp_path / str(cpus), variant=variant, steps=training.HELPER_MIN_STEPS),
                      eval_every=2)
        runs[cpus] = trained_files_and_params(cfg)
        assert len(helpers) == cpus - 1 and all_reaped(helpers)
    assert_same_run(runs[1], runs[2])


@forked_helper
def test_calls_of_helper_min_steps_and_more_fork_one_helper(tmp_path, helpers, all_reaped):
    gate = training.HELPER_MIN_STEPS
    train(tiny_config(tmp_path / "short", steps=gate - 1), evaluate=False)
    assert helpers == []
    train(tiny_config(tmp_path / "long", steps=gate), evaluate=False)
    assert len(helpers) == 1 and all_reaped(helpers)


@forked_helper
def test_a_failed_fork_trains_in_one_process_and_leaves_nothing_open(tmp_path, monkeypatch, helpers, all_reaped):
    def fds():
        return sorted(os.listdir(f"/proc/{os.getpid()}/fd"))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = trained_files_and_params(tiny_config(tmp_path / "one", steps=training.HELPER_MIN_STEPS))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    before = fds()
    two = trained_files_and_params(tiny_config(tmp_path / "two", steps=training.HELPER_MIN_STEPS))
    assert fds() == before
    assert forks == [1] and helpers == [] and all_reaped(helpers)
    assert_same_run(one, two)


@forked_helper
def test_peers_that_the_kernel_reaps_stop_cleanly(tmp_path, monkeypatch, helpers, all_reaped):
    # With SIGCHLD ignored, as a parent process or an embedding program may
    # leave it, the kernel reaps each peer itself and waitpid finds no child.
    spec = FactorSpec(num_classes=3, obs_dims=(5, 4), private_dims=(1, 1))
    pools = [generate_unimodal(spec, 115, name, seed) for name, seed in (("m1", 1), ("m2", 2))]
    mixed = pair_random(spec, *pools, seed=3)
    model = build_model([ModalitySpec("m1", 5, "bernoulli"), ModalitySpec("m2", 4, "bernoulli")],
                        latent_dim=2, hidden_dim=8, seed=0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = relatedness.score_dataset(model, mixed, 6, seed=4, chunk=7)
    normal = train(tiny_config(tmp_path / "one", steps=6), evaluate=False).model.params
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pins, real_pin = [], os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, s: pins.append(set(s)) or real_pin(pid, s))
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        scores = relatedness.score_dataset(model, mixed, 6, seed=4, chunk=7)
        assert pins == [{0}, {0, 1}]  # pinned while the peer ran, then given back
        cfg = tiny_config(tmp_path / "two", steps=6)
        params = {k: p.value for k, p in train(cfg, evaluate=False).model.params.items()}
        assert pins[2:] == [{0}, {0, 1}]
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert np.array_equal(scores, one)
    saved = read_checkpoint(os.path.join(cfg.output_dir, "t.ckpt"))
    for k, p in normal.items():
        assert np.array_equal(params[k], p.value) and np.array_equal(saved[k], p.value), k
    assert len(helpers) == 2 and all_reaped(helpers)


@forked_helper
def test_checkpoint_restore_equals_uninterrupted_with_the_helper(tmp_path, helper_forks, all_reaped):
    restore_equals_uninterrupted(tmp_path)
    assert len(helper_forks) == 3 and all_reaped(helper_forks)


@forked_helper
def test_numerical_abort_leaves_no_helper(tmp_path, helper_forks, all_reaped):
    cfg = tiny_config(tmp_path / "runs", steps=4)
    model = build_model_from_config(cfg)
    model.params["dec.m1.b_out"].value = np.full_like(model.params["dec.m1.b_out"].value, np.nan)
    state = TrainState(step=0, model=model, optimizer=Adam(model.params, cfg.optimizer), seed=cfg.seed)
    with pytest.raises(NumericalAbort):
        train(cfg, state=state, evaluate=False)
    assert len(helper_forks) == 1 and all_reaped(helper_forks)


@forked_helper
@pytest.mark.parametrize("how", ["raises", "dies"])
def test_a_failing_helper_fails_the_call_and_leaves_no_child(tmp_path, monkeypatch, helper_forks, all_reaped, how):
    caller = os.getpid()
    real = training.log_weight_blocks  # only the helper computes its block through this name

    def failing(*args):
        if os.getpid() != caller and how == "raises":
            raise ZeroDivisionError("in the helper")
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(training, "log_weight_blocks", failing)
    expected = (ZeroDivisionError, "in the helper") if how == "raises" else (PeerError, "exited")
    with pytest.raises(expected[0], match=expected[1]):
        train(tiny_config(tmp_path / "runs", steps=4), evaluate=False)
    assert len(helper_forks) == 1 and all_reaped(helper_forks)


def test_nonfinite_loss_aborts_with_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=4)
    ds = build_dataset(cfg)
    model = build_model_from_config(cfg)
    model.params["dec.m1.b_out"].value = np.full_like(
        model.params["dec.m1.b_out"].value, np.nan)
    state = TrainState(step=0, model=model,
                       optimizer=Adam(model.params, cfg.optimizer), seed=cfg.seed)
    with pytest.raises(NumericalAbort) as err:
        train(cfg, dataset=ds, state=state, evaluate=False)
    assert err.value.checkpoint_path and os.path.exists(err.value.checkpoint_path)


def test_nonfinite_gradient_aborts_before_update(tmp_path, monkeypatch):
    # a finite loss with NaN gradients must neither update nor become last_good
    cfg = replace(tiny_config(tmp_path / "runs", steps=4), eval_every=1)
    real_backward = training.backward

    def nan_backward(loss, params):
        return {k: np.full_like(g, np.nan) for k, g in real_backward(loss, params).items()}

    monkeypatch.setattr(training, "backward", nan_backward)
    with pytest.raises(NumericalAbort) as err:
        train(cfg, evaluate=False)
    assert err.value.step == 0
    arrays = read_checkpoint(err.value.checkpoint_path)
    assert all(np.isfinite(a).all() for a in arrays.values())


def test_nonfinite_parameters_never_become_last_good(tmp_path, monkeypatch):
    # the state turns non-finite on the last step, which is also a checkpoint step
    cfg = replace(tiny_config(tmp_path / "runs", steps=4), eval_every=2)
    real_step = Adam.step

    def poisoning_step(self, grads):
        real_step(self, grads)
        if self.t == 4:
            self.params["dec.m1.b_out"].value = np.full_like(self.params["dec.m1.b_out"].value, np.inf)

    monkeypatch.setattr(Adam, "step", poisoning_step)
    with pytest.raises(NumericalAbort) as err:
        train(cfg, evaluate=False)
    arrays = read_checkpoint(err.value.checkpoint_path)
    assert int(arrays["trainer.step"]) == 2
    assert all(np.isfinite(a).all() for a in arrays.values())


def test_train_loss_decreases_on_tiny_problem(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=120, variant="baseline")
    train(cfg, evaluate=False)
    rows = [line.split(",") for line in
            Path(cfg.output_dir, "t.train.csv").read_text().splitlines()[2:]]
    first = np.mean([float(r[1]) for r in rows[:10]])
    last = np.mean([float(r[1]) for r in rows[-10:]])
    assert last < first


def train_on_linear_oracle(joint_kind: str, seed: int = 0):
    """Held-out (exact - IWAE, exact - ELBO, exact - CUBO) in nats, K=1000 on 1000 pairs,
    after 400 ELBO steps (B=64, K=10, Adam at lr 0.02) of a linear model on 2000 pairs of a
    4+4-dim, 2-latent linear-Gaussian oracle, and the largest parameter move of the first
    Adam step."""
    oracle = make_oracle(obs_dims=(4, 4), latent_dim=2, noise_var=1.0, loading_scale=2.0, seed=seed)
    names = oracle.names
    data = oracle.sample_pairs(2000, seed)
    model = build_model([ModalitySpec(n, 4, "gaussian") for n in names], latent_dim=2, num_hidden=0,
                        joint_kind=joint_kind, seed=seed)
    adam = Adam(model.params, OptimizerConfig(learning_rate=0.02))
    objective = ObjectiveConfig.for_variant("baseline", num_samples=10)
    rng = np.random.default_rng(seed)
    for step in range(400):
        rows = rng.choice(2000, 64, replace=False)
        blocks = final_objective(model, {n: data[n][rows] for n in names}, objective, seed=step).blocks
        before = {k: p.value for k, p in model.params.items()}
        adam.step(adam.flatten(block_gradient(blocks.values(), model.params)))
        if step == 0:
            first_move = max(np.abs(p.value - before[k]).max() for k, p in model.params.items())
    test = oracle.sample_pairs(1000, seed + 1000)
    frozen = model.frozen()
    log_w = [joint_log_weights(frozen, {n: test[n][i:i + 100] for n in names}, 1000, seed)
             for i in range(0, 1000, 100)]
    exact = oracle.exact_logp(test).mean()
    return tuple(exact - np.concatenate([bound_from_log_weights(w, kind).value for w in log_w]).mean()
                 for kind in ("iwae", "elbo", "cubo")) + (first_move,)


def test_linear_poe_trains_to_the_exact_likelihood():
    # A linear PoE can represent both the oracle's generative model and its exact
    # posterior, so at the optimum the ELBO equals the exact log-likelihood.  Over data
    # and batch seeds 0-4 the gaps read 0.018-0.037 (IWAE) and 0.032-0.051 (ELBO).
    iwae_gap, elbo_gap, cubo_gap, first_move = train_on_linear_oracle("poe")
    assert abs(iwae_gap) < 0.05 and abs(elbo_gap) < 0.07
    # From the same weights, a tight posterior puts CUBO just above IWAE: CUBO - IWAE
    # reads 0.009-0.018 over seeds 0-4, and CUBO stays 0.0007-0.023 below the exact value.
    assert 0 <= iwae_gap - cubo_gap < 0.03
    # Adam's bias-corrected first step moves every parameter by lr at most; at 400 steps
    # the gaps alone do not tell an uncorrected Adam (3.2 lr at step 1) from seed noise
    assert 0.02 * (1 - 1e-6) < first_move <= 0.02


def test_linear_moe_trains_near_the_exact_likelihood():
    # A mixture of two unimodal posteriors cannot equal the Gaussian joint posterior, so
    # the gap is bounded from above only: 0.074-0.118 over data and batch seeds 0-4.
    iwae_gap, _, cubo_gap, _ = train_on_linear_oracle("moe")
    assert iwae_gap < 0.15
    # The mixture's looser posterior spreads the weights: CUBO - IWAE reads 0.17-0.22
    # over seeds 0-4, an order of magnitude above the PoE's.
    assert iwae_gap - cubo_gap > 0.12


def test_metrics_csv_schema(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=2)
    train(cfg, evaluate=True)
    path = os.path.join(cfg.output_dir, "t.metrics.csv")
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# cmvae-metrics-v2"
    header = lines[1].split(",")
    assert header == ["run_id", "step", "latent_acc_m1", "latent_acc_m2", "joint_coh",
                      "cross_coh_m1_to_m2", "cross_coh_m2_to_m1", "synergy_coh",
                      "mean_pmi_related", "mean_pmi_unrelated"]
    row = lines[2].split(",")
    assert row[0] == "t" and row[1] == "2"
    assert row[7] == ""  # synergy blank for mixture models


def test_heldout_loglik_finite(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=2)
    state = train(cfg, evaluate=False)
    val = mean_heldout_loglik(state.model, cfg)
    assert np.isfinite(val)


def test_heldout_loglik_builds_only_the_related_pairs(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "runs")
    model = build_model_from_config(cfg)
    shared = mean_heldout_loglik(model, cfg, heldout=heldout_sets(cfg))
    monkeypatch.setattr(training, "heldout_sets", lambda c: pytest.fail("built the mixed set and oracles"))
    assert mean_heldout_loglik(model, cfg) == shared


def test_heldout_loglik_scored_in_chunks_like_score_dataset(tmp_path, monkeypatch):
    # One held-out batch of eval_items x K rows per hidden layer can cross
    # glibc's mmap threshold; chunks of CHUNK_PAIRS stay reusable heap.
    cfg = replace(tiny_config(tmp_path / "runs", steps=2), eval_items=150)
    model = train(cfg, evaluate=False).model
    sets = heldout_sets(cfg)
    obs = sets.related.pair_observations()
    whole = training.joint_bound(model.frozen(), obs, "iwae", 30, cfg.seed + 13).value.mean()
    rows = []
    joint_bound = training.joint_bound

    def counting(model, obs, kind, num_samples, seed):
        rows.append(len(obs["m1"]))
        return joint_bound(model, obs, kind, num_samples, seed)

    monkeypatch.setattr(training, "joint_bound", counting)
    assert mean_heldout_loglik(model, cfg, heldout=sets) == pytest.approx(whole, rel=1e-12)
    assert rows == [relatedness.CHUNK_PAIRS] * 2 + [150 - 2 * relatedness.CHUNK_PAIRS]


def unsorted_config(out, obs_dims=(6, 6), **kw):
    """tiny_config over modalities listed as ("b", "a"), against the model's sorted order."""
    cfg = tiny_config(out, **kw)
    spec = replace(TINY, obs_dims=obs_dims, modality_names=("b", "a"))
    return replace(cfg, dataset=replace(cfg.dataset, factors=spec))


def test_unsorted_modality_names_reach_their_own_networks(tmp_path):
    # Equal dims would let a swapped binding of rows to modalities pass unnoticed.
    cfg = unsorted_config(tmp_path / "runs")
    model = build_model_from_config(cfg)
    rng = np.random.default_rng(3)
    for p in model.params.values():
        p.value = p.value + 0.3 * rng.standard_normal(p.value.shape)
    sets = heldout_sets(cfg)
    obs = sets.related.pair_observations()
    assert [m.name for m in model.modalities] == ["a", "b"] and list(obs) == ["b", "a"]
    assert (mean_heldout_loglik(model, cfg, heldout=sets)
            == joint_bound(model.frozen(), obs, "iwae", 30, cfg.seed + 13).value.mean())
    np.testing.assert_array_equal(relatedness.score_dataset(model, sets.mixed, 4, seed=5),
                                  relatedness.pmi(model, sets.mixed.pair_observations(), 4, seed=5))


def test_unsorted_modality_names_of_unequal_dims_train_and_evaluate(tmp_path):
    cfg = unsorted_config(tmp_path / "runs", obs_dims=(16, 12), steps=2)
    train(cfg, evaluate=True)
    lines = Path(cfg.output_dir, "t.metrics.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[2].startswith("t,2,")


def test_metric_columns_name_their_modalities(tmp_path):
    cfg = unsorted_config(tmp_path / "runs", obs_dims=(16, 12), steps=2)
    model = train(cfg).model
    header, row = (line.split(",") for line in
                   Path(cfg.output_dir, "t.metrics.csv").read_text().splitlines()[1:])
    assert header == ["run_id", "step", "latent_acc_b", "latent_acc_a", "joint_coh", "cross_coh_b_to_a",
                      "cross_coh_a_to_b", "synergy_coh", "mean_pmi_related", "mean_pmi_unrelated"]
    related = heldout_sets(cfg).related
    acc = evaluation.latent_accuracy(model.frozen(), related, seed=cfg.seed + 104729)
    assert [float(row[2]), float(row[3])] == [acc["b"], acc["a"]]


def test_pipeline_full_percent_short_circuits(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=3)
    report, info = run_pipeline(cfg, PropagationConfig(pretrain_percent=100.0,
                                                       pmi_num_samples=4))
    assert info["stage"] == "empty-remainder"
    assert math.isnan(report.f1)
    assert report.metrics_after == report.metrics_before


def test_pipeline_stage_tagging(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "runs", steps=3)

    def failing_threshold(*args, **kwargs):
        raise ValueError("no boundary")

    monkeypatch.setattr(relatedness, "estimate_threshold", failing_threshold)
    with pytest.raises(RuntimeError) as err:
        run_pipeline(cfg, PropagationConfig(pretrain_percent=10.0, pmi_num_samples=4))
    assert "stage 'threshold'" in str(err.value) and "no boundary" in str(err.value)


@pytest.mark.parametrize("field", ["pmi", "objective"])
def test_uneven_mixture_sample_count_rejected_before_writing(tmp_path, field):
    cfg = tiny_config(tmp_path / "runs", steps=3)
    pcfg = PropagationConfig(pretrain_percent=10.0, pmi_num_samples=3 if field == "pmi" else 4)
    if field == "objective":
        cfg = replace(cfg, objective=ObjectiveConfig.for_variant("cI", num_samples=5))
    with pytest.raises(ConfigError, match="num_samples [35]$"):
        run_pipeline(cfg, pcfg)
    assert not os.path.exists(cfg.output_dir)
    if field == "objective":
        with pytest.raises(ConfigError):
            train(cfg)
        assert not os.path.exists(cfg.output_dir)
        poe = replace(cfg, model=replace(cfg.model, joint_kind="poe"))
        check_config(poe, 60, pmi_num_samples=3)  # one joint posterior: any count splits


def test_pipeline_smoke_end_to_end(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=25)
    report, info = run_pipeline(cfg, PropagationConfig(pretrain_percent=30.0,
                                                       pmi_num_samples=4))
    assert info["stage"] == "done"
    assert 0.0 <= report.f1 <= 1.0
    assert math.isfinite(report.threshold)
    d = report.to_json_dict()
    json.dumps(d)  # serializable
    assert set(d) == {"threshold", "precision", "recall", "f1", "n_predicted",
                      "metrics_before", "metrics_after"}


def test_heldout_sets_built_once_per_run_read_only_and_unchanged(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "runs", steps=4)
    cfg = replace(cfg, eval_every=2)
    model = build_model_from_config(cfg)
    heldout = heldout_sets(cfg)

    def outputs(sets):
        row = evaluate_model(model, cfg, 0, sets)
        return (training.csv_line(row.values()),
                mean_heldout_loglik(model, cfg, heldout=sets))

    assert outputs(heldout) == outputs(None)  # shared sets score as a fresh build
    for arr in (heldout.related.observations["m1"], heldout.related.labels["m2"],
                heldout.related.pairs, heldout.mixed.pairs, heldout.mixed.related,
                heldout.oracles["m1"].precision, heldout.oracles["m2"].class_means):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    built = []
    monkeypatch.setattr(training, "heldout_sets", lambda c: built.append(c) or heldout)
    train(cfg)  # evaluates at steps 2 and 4
    with open(os.path.join(cfg.output_dir, f"{cfg.run_id}.metrics.csv")) as fh:
        assert len(built) == 1 and len(fh.readlines()) == 2 + 2  # schema, header, two rows
    run_pipeline(replace(cfg, output_dir=str(tmp_path / "pipe")), PropagationConfig(pretrain_percent=50.0))
    assert len(built) == 2  # one build serves the before and after rows
