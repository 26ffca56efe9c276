import json
import math
import os
import struct
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvae.data import FactorSpec
from cmvae import relatedness, training
from cmvae.objective import ObjectiveConfig
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
)
from cmvae.autodiff import Tensor
from cmvae.relatedness import PropagationConfig

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
    p = {"w": Tensor.param(np.array([1.0, -2.0]), name="w")}
    opt = Adam(p, OptimizerConfig(learning_rate=0.1))
    g = {"w": np.array([0.5, -1.5])}
    opt.step(g)
    m_hat = (0.1 * g["w"]) / (1 - 0.9)
    v_hat = (0.001 * g["w"] ** 2) / (1 - 0.999)
    expect = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p["w"].value, expect, atol=1e-12)


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    path = str(tmp_path / "cfg.json")
    cfg.save(path)
    back = RunConfig.load(path)
    assert back == cfg


def test_config_roundtrip_preserves_baseline_sentinel(tmp_path):
    cfg = tiny_config(tmp_path / "runs", variant="baseline")
    path = str(tmp_path / "cfg.json")
    cfg.save(path)
    back = RunConfig.load(path)
    assert math.isinf(back.objective.gamma)
    assert back == cfg


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
    data = open(path, "rb").read()
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
    before = open(path, "rb").read()

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(training.os, "replace", failing_replace)
    state.step = 4
    with pytest.raises(OSError):
        save_checkpoint(state, path)
    assert open(path, "rb").read() == before


def test_zero_steps_writes_initial_checkpoint_only(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=0)
    state = train(cfg, evaluate=False)
    assert state.step == 0
    assert os.path.exists(os.path.join(cfg.output_dir, "t.step0.ckpt"))
    log = open(os.path.join(cfg.output_dir, "t.train.csv")).read().splitlines()
    assert log[0].startswith("#") and len(log) == 2  # schema + header, no rows


def test_training_runs_deterministically(tmp_path):
    cfg_a = tiny_config(tmp_path / "a", steps=6)
    cfg_b = tiny_config(tmp_path / "b", steps=6)
    train(cfg_a, evaluate=False)
    train(cfg_b, evaluate=False)
    a = open(os.path.join(cfg_a.output_dir, "t.train.csv")).read()
    b = open(os.path.join(cfg_b.output_dir, "t.train.csv")).read()
    assert a.replace(str(cfg_a.output_dir), "") == b.replace(str(cfg_b.output_dir), "")


def test_checkpoint_restore_equals_uninterrupted(tmp_path):
    # train 8 == train 4, checkpoint, restore, 4 more (bit-identical)
    cfg_full = tiny_config(tmp_path / "full", steps=8)
    full = train(cfg_full, evaluate=False)

    cfg_half = tiny_config(tmp_path / "half", steps=4)
    half = train(cfg_half, evaluate=False)
    ckpt = os.path.join(cfg_half.output_dir, "t.ckpt")
    restored = restore_state(cfg_half, ckpt)
    assert restored.step == 4
    ds = build_dataset(cfg_half)
    resumed = train(cfg_half, dataset=ds, state=restored, extra_steps=4, evaluate=False)
    assert resumed.step == 8
    for k in full.model.params:
        assert np.array_equal(full.model.params[k].value, resumed.model.params[k].value), k
    assert np.array_equal(
        np.concatenate([full.optimizer.m[k].ravel() for k in sorted(full.optimizer.m)]),
        np.concatenate([resumed.optimizer.m[k].ravel() for k in sorted(resumed.optimizer.m)]))


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
            open(os.path.join(cfg.output_dir, "t.train.csv")).read().splitlines()[2:]]
    first = np.mean([float(r[1]) for r in rows[:10]])
    last = np.mean([float(r[1]) for r in rows[-10:]])
    assert last < first


def test_metrics_csv_schema(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=2)
    train(cfg, evaluate=True)
    path = os.path.join(cfg.output_dir, "t.metrics.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == "# cmvae-metrics-v1"
    header = lines[1].split(",")
    assert header == ["run_id", "step", "latent_acc_m1", "latent_acc_m2", "joint_coh",
                      "cross_coh_12", "cross_coh_21", "synergy_coh",
                      "mean_pmi_related", "mean_pmi_unrelated"]
    row = lines[2].split(",")
    assert row[0] == "t" and row[1] == "2"
    assert row[7] == ""  # synergy blank for mixture models


def test_heldout_loglik_finite(tmp_path):
    cfg = tiny_config(tmp_path / "runs", steps=2)
    state = train(cfg, evaluate=False)
    val = mean_heldout_loglik(state.model, cfg, num_samples=4)
    assert np.isfinite(val)


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
        return (training.csv_line(row[c] for c in training.METRICS_COLUMNS),
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
