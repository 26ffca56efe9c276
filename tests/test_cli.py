import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from cmvae.cli import main
from cmvae.data import FactorSpec
from cmvae.objective import ObjectiveConfig
from cmvae.training import DatasetConfig, ModelConfig, OptimizerConfig, RunConfig


def tiny_config_file(tmp_path, steps=3, variant="cI", run_id="t", eval_every=0):
    os.makedirs(tmp_path, exist_ok=True)
    cfg = RunConfig(
        run_id=run_id, seed=0,
        dataset=DatasetConfig(factors=FactorSpec(num_classes=3, obs_dims=(6, 6),
                                                 private_dims=(1, 1)),
                              items_per_modality=48, seed=0, pairs_per_instance=1),
        model=ModelConfig(joint_kind="moe", latent_dim=3, hidden_dim=8, init_seed=0),
        objective=ObjectiveConfig.for_variant(variant, num_samples=4),
        optimizer=OptimizerConfig(steps=steps, batch_size=12),
        eval_every=eval_every, eval_items=24,
        output_dir=str(tmp_path / "out"),
    )
    path = str(tmp_path / "config.json")
    cfg.save(path)
    return cfg, path


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{ not json")
    assert main(["train", "--config", path]) == 2


def test_invalid_field_exits_2(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"optimizer": {"steps": "many"}, "nonsense": 1}, fh)
    assert main(["train", "--config", path]) == 2


def test_train_and_eval_roundtrip(tmp_path, capsys):
    cfg, path = tiny_config_file(tmp_path, steps=4)
    assert main(["train", "--config", path]) == 0
    ckpt = os.path.join(cfg.output_dir, "t.ckpt")
    assert os.path.exists(ckpt)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["step"] == 4
    assert payload["synergy_coh"] is None  # mixture model


def test_env_seed_override(tmp_path, monkeypatch):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    monkeypatch.setenv("CMVAE_SEED", "123")
    assert main(["train", "--config", path]) == 0
    ckpt = os.path.join(cfg.output_dir, "t.ckpt")
    from cmvae.training import read_checkpoint
    assert int(read_checkpoint(ckpt)["trainer.seed"]) == 123
    monkeypatch.setenv("CMVAE_SEED", "not-a-number")
    assert main(["train", "--config", path]) == 2


def test_train_twice_byte_identical_csv(tmp_path):
    cfg_a, path_a = tiny_config_file(tmp_path / "a", steps=5)
    cfg_b, path_b = tiny_config_file(tmp_path / "b", steps=5)
    assert main(["train", "--config", path_a]) == 0
    assert main(["train", "--config", path_b]) == 0
    a = open(os.path.join(cfg_a.output_dir, "t.train.csv"), "rb").read()
    b = open(os.path.join(cfg_b.output_dir, "t.train.csv"), "rb").read()
    assert a == b
    ma = open(os.path.join(cfg_a.output_dir, "t.metrics.csv"), "rb").read()
    mb = open(os.path.join(cfg_b.output_dir, "t.metrics.csv"), "rb").read()
    assert ma == mb


def test_sweep_gamma_csv(tmp_path):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    assert main(["sweep-gamma", "--config", path, "--gammas", "1,2"]) == 0
    out = os.path.join(cfg.output_dir, "t.gamma_sweep.csv")
    lines = open(out).read().splitlines()
    assert lines[0] == "# cmvae-sweep-v1"
    assert lines[1].startswith("gamma,step,")
    assert lines[1].endswith(",mean_test_loglik")
    assert len(lines) == 4
    assert main(["sweep-gamma", "--config", path, "--gammas", "0.5"]) == 2


def test_sweep_data_csv(tmp_path):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    assert main(["sweep-data", "--config", path, "--percents", "50,100",
                 "--variants", "baseline,cI", "--seeds", "0"]) == 0
    out = os.path.join(cfg.output_dir, "t.data_sweep.csv")
    lines = open(out).read().splitlines()
    assert lines[1].startswith("variant,percent,seed,step,")
    assert len(lines) == 2 + 4  # schema + header + 2x2 rows
    assert main(["sweep-data", "--config", path, "--percents", "0",
                 "--variants", "cI"]) == 2
    assert main(["sweep-data", "--config", path, "--percents", "50",
                 "--variants", "cZ"]) == 2
    assert main(["sweep-data", "--config", path, "--percents", "150",
                 "--variants", "cI"]) == 2


def test_batch_not_exceeding_negatives_fails_before_writing(tmp_path, capsys):
    # 10% of 48 items leaves 5 pairs: a batch of 5 cannot supply 5 negatives
    cfg, path = tiny_config_file(tmp_path, steps=2)
    capsys.readouterr()
    assert main(["sweep-data", "--config", path, "--percents", "100,10",
                 "--variants", "cI"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "num_negatives 5" in err
    assert err.count("\n") == 1
    assert not os.path.exists(cfg.output_dir)
    # the baseline draws no negatives, so the same subset trains
    assert main(["sweep-data", "--config", path, "--percents", "10",
                 "--variants", "baseline"]) == 0
    _, small = tiny_config_file(tmp_path / "small", steps=2)
    with open(small) as fh:
        raw = json.load(fh)
    raw["optimizer"]["batch_size"] = 5
    with open(small, "w") as fh:
        json.dump(raw, fh)
    assert main(["train", "--config", small]) == 2
    assert not os.path.exists(raw["output_dir"])


def test_uneven_mixture_sample_count_fails_before_writing(tmp_path, capsys):
    # the mixture posterior splits every sample count across 2 modalities
    cfg, path = tiny_config_file(tmp_path, steps=2)
    capsys.readouterr()
    assert main(["propagate", "--config", path, "--pretrain-percent", "50",
                 "--pmi-samples", "31"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "pmi_num_samples has num_samples 31" in err
    assert err.count("\n") == 1
    assert not os.path.exists(cfg.output_dir)
    _, odd = tiny_config_file(tmp_path / "odd", steps=2)
    with open(odd) as fh:
        raw = json.load(fh)
    raw["objective"]["num_samples"] = 5
    with open(odd, "w") as fh:
        json.dump(raw, fh)
    for argv in (["train"], ["sweep-gamma", "--gammas", "2"],
                 ["sweep-data", "--percents", "100", "--variants", "cI"],
                 ["propagate", "--pretrain-percent", "50"]):
        assert main(argv + ["--config", odd]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "num_samples 5" in err and err.count("\n") == 1
        assert not os.path.exists(raw["output_dir"]), argv


def test_eval_reports_unreadable_checkpoint(tmp_path, capsys):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    assert main(["train", "--config", path]) == 0
    data = open(os.path.join(cfg.output_dir, "t.ckpt"), "rb").read()
    foreign = np.random.default_rng(0).bytes(len(data))
    other_cfg, other_path = tiny_config_file(tmp_path / "other", steps=0)
    with open(other_path) as fh:
        raw = json.load(fh)
    raw["model"]["hidden_dim"] = 5
    with open(other_path, "w") as fh:
        json.dump(raw, fh)
    cases = {"cut.ckpt": data[:-3], "head.ckpt": data[:9], "foreign.ckpt": foreign}
    for name, content in cases.items():
        with open(tmp_path / name, "wb") as fh:
            fh.write(content)
    checks = [(str(tmp_path / name), path) for name in cases]
    checks += [(str(tmp_path / "absent.ckpt"), path),
               (os.path.join(cfg.output_dir, "t.ckpt"), other_path)]  # saved for another model
    capsys.readouterr()
    for ckpt, config in checks:
        assert main(["eval", "--checkpoint", ckpt, "--config", config]) == 4, ckpt
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and ckpt in err, err
        assert err.count("\n") == 1, err


def test_propagate_writes_report(tmp_path):
    cfg, path = tiny_config_file(tmp_path, steps=20)
    assert main(["propagate", "--config", path, "--pretrain-percent", "30",
                 "--variant", "cI", "--pmi-samples", "4"]) == 0
    report_path = os.path.join(cfg.output_dir, "t.propagation.json")
    report = json.load(open(report_path))
    assert set(report) == {"threshold", "precision", "recall", "f1", "n_predicted",
                           "metrics_before", "metrics_after"}
    csv_path = os.path.join(cfg.output_dir, "t.propagation.csv")
    lines = open(csv_path).read().splitlines()
    assert lines[1].startswith("phase,run_id,")
    assert lines[2].startswith("before,") and lines[3].startswith("after,")


def test_unsorted_modality_names_train_eval_and_propagate(tmp_path):
    # The model orders modalities by name; unequal dims fail loudly if rows reach
    # the other modality's networks.
    cfg, path = tiny_config_file(tmp_path, steps=20)
    with open(path) as fh:
        doc = json.load(fh)
    doc["dataset"]["factors"].update(modality_names=["b", "a"], obs_dims=[16, 12])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["train", "--config", path]) == 0
    assert main(["eval", "--checkpoint", os.path.join(cfg.output_dir, "t.ckpt"), "--config", path]) == 0
    assert main(["propagate", "--config", path, "--pretrain-percent", "30",
                 "--variant", "cI", "--pmi-samples", "4"]) == 0


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--items", "200", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


ORACLE_CHECK_STDOUT = """\
[PASS] exact-posterior tightness (|bound - exact| < 1e-9)
[PASS] sandwich elbo < iwae (gap 1.6892 > 3*SE 0.1329)
[PASS] sandwich iwae < exact (gap 0.5593 > 3*SE 0.1566)
[PASS] sandwich exact < cubo (gap 0.3619 > 3*SE 0.2078)
[PASS] iwae monotone over K=1,5,30 (-9.0240 <= -7.9087 <= -7.3361)
"""


def test_oracle_check_default_stdout_is_golden(capsys):
    assert main(["oracle-check"]) == 0
    assert capsys.readouterr().out == ORACLE_CHECK_STDOUT


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "cmvae.cli", "oracle-check",
                           "--items", "50"], capture_output=True, text=True)
    assert proc.returncode in (0, 1)
    assert "sandwich" in proc.stdout



# case: (variant, objective keys to overwrite, argv, a word the error names)
BAD_OBJECTIVE_INPUT = {
    "cI-gamma-inf": ("cI", {"gamma": float("inf")}, ["train"], "gamma"),  # JSON literal Infinity
    "cC-gamma-inf": ("cC", {"gamma": float("inf")}, ["train"], "gamma"),
    "sweep-gammas-inf": ("cI", {}, ["sweep-gamma", "--gammas", "2,inf"], "gamma"),
    "sweep-gammas-nan": ("cI", {}, ["sweep-gamma", "--gammas", "nan"], "gamma"),
    "sweep-gamma-baseline": ("baseline", {}, ["sweep-gamma", "--gammas", "1,2"], "baseline"),
    "gammas-not-numeric": ("cI", {}, ["sweep-gamma", "--gammas", "2,x"], "--gammas"),
    "percents-not-numeric": ("cI", {}, ["sweep-data", "--percents", "50,half"], "--percents"),
    "seeds-not-numeric": ("cI", {}, ["sweep-data", "--seeds", "0,1.5"], "--seeds"),
}


@pytest.mark.parametrize("case", sorted(BAD_OBJECTIVE_INPUT))
def test_bad_objective_input_exits_2_before_writing(tmp_path, capsys, case):
    variant, objective, argv, word = BAD_OBJECTIVE_INPUT[case]
    cfg, path = tiny_config_file(tmp_path, steps=2, variant=variant)
    with open(path) as fh:
        raw = json.load(fh)
    raw["objective"].update(objective)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(argv + ["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and word in err and err.count("\n") == 1, err
    assert not os.path.exists(cfg.output_dir)


@pytest.mark.parametrize("case", ["terms", "adam", "baseline-gamma-inf"])
def test_parent_format_config_exits_2_naming_the_file(tmp_path, capsys, case):
    # the earlier format: per-term estimator specs, Adam's constants as
    # optimizer fields, and the baseline's gamma as the string "inf"
    cfg, path = tiny_config_file(tmp_path, steps=2)
    with open(path) as fh:
        raw = json.load(fh)
    if case == "terms":
        del raw["objective"]["num_samples"]
        raw["objective"].update(term1={"kind": "iwae", "num_samples": 4},
                                term2={"kind": "iwae", "num_samples": 4})
    elif case == "adam":
        raw["optimizer"].update(beta1=0.9, beta2=0.999, epsilon=1e-8)
    else:
        raw["objective"].update(variant="baseline", gamma="inf")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid config {path}: ") and err.count("\n") == 1, err
    assert not os.path.exists(cfg.output_dir)


@pytest.mark.parametrize("field,value,word", [("percent", 1.0, "subset of 0 items"),
                                              ("eval_items", 0, "balanced classes")])
def test_train_unbuildable_dataset_exits_2_before_writing(tmp_path, capsys, field, value, word):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    with open(path) as fh:
        raw = json.load(fh)
    (raw["dataset"] if field == "percent" else raw)[field] = value
    with open(path, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and word in err and err.count("\n") == 1, err
    assert not os.path.exists(cfg.output_dir)


@pytest.mark.parametrize("argv,eval_items,word", [
    (["propagate", "--pretrain-percent", "0.01"], 24, "subset of 0 items"),
    (["propagate", "--pretrain-percent", "30"], 0, "eval_items 0"),
    (["sweep-gamma", "--gammas", "2"], 0, "eval_items 0"),
])
def test_unbuildable_split_or_heldout_exits_2_before_writing(tmp_path, capsys, argv, eval_items, word):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    with open(path) as fh:
        raw = json.load(fh)
    raw["eval_items"] = eval_items
    with open(path, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and word in err and err.count("\n") == 1, err
    assert not os.path.exists(cfg.output_dir)


def test_eval_without_heldout_sets_exits_2(tmp_path, capsys):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    assert main(["train", "--config", path]) == 0
    with open(path) as fh:
        raw = json.load(fh)
    raw["eval_items"] = 0
    bad = str(tmp_path / "no_heldout.json")
    with open(bad, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", os.path.join(cfg.output_dir, "t.ckpt"), "--config", bad]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "eval_items 0" in err, err
    assert err.count("\n") == 1


@pytest.mark.parametrize("items", [1, 0, -3])
def test_oracle_check_with_fewer_than_two_items_exits_2(capsys, items):
    assert main(["oracle-check", "--items", str(items)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: --items must be at least 2, got {items}\n"


# case: (edits merged into the tiny config, a word the error names)
BAD_CONFIG_FIELD = {
    "joint-kind": ({"model": {"joint_kind": "bogus"}}, "joint_kind"),
    "likelihood": ({"dataset": {"factors": {"likelihoods": ["foo", "gaussian"]}}}, "likelihoods"),
    "single-modality": ({"dataset": {"factors": {"modality_names": ["m1"], "obs_dims": [6],
                                                 "private_dims": [1], "likelihoods": ["gaussian"]}}},
                        "modality names"),
    "latent-dim-0": ({"model": {"latent_dim": 0}}, "latent_dim"),
    "hidden-dim-0": ({"model": {"hidden_dim": 0}}, "hidden_dim"),
    "num-hidden-negative": ({"model": {"num_hidden": -1}}, "num_hidden"),
    "obs-dim-0": ({"dataset": {"factors": {"obs_dims": [0, 6]}}}, "obs_dims"),
    "obs-dim-below-classes": ({"dataset": {"factors": {"obs_dims": [6, 2]}}}, "obs_dims"),
    "steps-negative": ({"optimizer": {"steps": -3}}, "steps"),
    "batch-size-0-baseline": ({"optimizer": {"batch_size": 0}, "objective": {"variant": "baseline"}},
                              "batch_size"),
    "learning-rate-nan": ({"optimizer": {"learning_rate": float("nan")}}, "learning_rate"),  # JSON NaN
    "learning-rate-0": ({"optimizer": {"learning_rate": 0.0}}, "learning_rate"),
    "eval-every-negative": ({"eval_every": -1}, "eval_every"),
    "joint-kind-explicit": ({"model": {"joint_kind": "explicit"}}, "joint_kind"),
    "noise-scale-nan": ({"dataset": {"factors": {"noise_scale": float("nan")}}}, "noise_scale"),
    "noise-scale-negative": ({"dataset": {"factors": {"noise_scale": -0.1}}}, "noise_scale"),
    "noise-scale-0": ({"dataset": {"factors": {"noise_scale": 0.0}}}, "noise_scale"),
    "private-dim-negative": ({"dataset": {"factors": {"private_dims": [-1, 1]}}}, "private_dims"),
    "private-dim-fractional": ({"dataset": {"factors": {"private_dims": [1.5, 1]}}}, "private_dims"),
    "obs-dim-fractional": ({"dataset": {"factors": {"obs_dims": [6.5, 6]}}}, "obs_dims"),
    "num-classes-fractional": ({"dataset": {"factors": {"num_classes": 3.5}}}, "num_classes"),
    "pairs-per-instance-0-baseline": ({"dataset": {"pairs_per_instance": 0}, "objective": {"variant": "baseline"}},
                                      "pairs_per_instance"),
    "pairs-per-instance-negative": ({"dataset": {"pairs_per_instance": -1}}, "pairs_per_instance"),
}


def _merge(raw: dict, edits: dict) -> None:
    for key, value in edits.items():
        if isinstance(value, dict):
            _merge(raw[key], value)
        else:
            raw[key] = value


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FIELD))
def test_bad_config_field_exits_2_before_writing(tmp_path, capsys, case):
    edits, word = BAD_CONFIG_FIELD[case]
    cfg, path = tiny_config_file(tmp_path, steps=2)
    with open(path) as fh:
        raw = json.load(fh)
    _merge(raw, edits)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config") and word in err and err.count("\n") == 1, err
    assert not os.path.exists(cfg.output_dir)


def _leaves(tree: dict, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _wrong_json(default) -> list:
    """JSON values of another type than `default`'s; for a list, a wrong first element alone."""
    if isinstance(default, tuple):
        return [[v] for v in _wrong_json(default[0])]
    return {int: [1.5, True, 2.0], float: ["1"], str: [3]}[type(default)]


WRONG_JSON_TYPE = [(key, wrong) for key, default in _leaves(asdict(RunConfig()))
                   for wrong in _wrong_json(default)]


@pytest.mark.parametrize("key,wrong", WRONG_JSON_TYPE, ids=[f"{k}={w!r}" for k, w in WRONG_JSON_TYPE])
def test_wrong_json_type_exits_2_before_writing(tmp_path, monkeypatch, capsys, key, wrong):
    # every leaf field of the config, so a new field is covered too
    monkeypatch.chdir(tmp_path)  # a relative output_dir would land here
    _, path = tiny_config_file(tmp_path, steps=2)
    with open(path) as fh:
        raw = json.load(fh)
    *sections, name = key.split(".")
    owner = raw
    for section in sections:
        owner = owner[section]
    owner[name] = wrong + owner[name][1:] if isinstance(wrong, list) else wrong
    with open(path, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid config {path}: {key} must be ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("edits,message", [
    ({"dataset": {"factors": {"obs_dim": [6, 6]}}}, "unknown key dataset.factors.obs_dim"),
    ({"optimizer": {"beta1": 0.9}}, "unknown key optimizer.beta1"),
    ({"model": [3]}, "model must be an object, got [3]"),
    ({"dataset": {"factors": "default"}}, "dataset.factors must be an object"),
    ({"dataset": {"factors": {"obs_dims": 6}}}, "dataset.factors.obs_dims must be a list, got 6"),
])
def test_unknown_key_or_non_object_section_is_named(tmp_path, capsys, edits, message):
    cfg, path = tiny_config_file(tmp_path, steps=2)
    with open(path) as fh:
        raw = json.load(fh)
    _merge(raw, edits)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid config {path}: {message}") and err.count("\n") == 1, err
    assert not os.path.exists(cfg.output_dir)


def test_propagate_trains_the_configs_variant_by_default(tmp_path):
    cfg, path = tiny_config_file(tmp_path, steps=4, variant="baseline")
    assert main(["propagate", "--config", path, "--pmi-samples", "4", "--pretrain-percent", "50"]) == 0
    with open(os.path.join(cfg.output_dir, "t.train.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "step,loss,term1,term2" and len(lines) > 2
    assert all(line.split(",")[3] == "" for line in lines[2:])  # the baseline has no contrastive term
