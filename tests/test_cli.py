import json
import os
import subprocess
import sys

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
    for term in ("term1", "term2"):
        raw["objective"][term]["num_samples"] = 5
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


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--items", "200", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "cmvae.cli", "oracle-check",
                           "--items", "50"], capture_output=True, text=True)
    assert proc.returncode in (0, 1)
    assert "sandwich" in proc.stdout
