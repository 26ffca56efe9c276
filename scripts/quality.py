#!/usr/bin/env python3
"""Quality gate: what the model learns at the shipped training budgets, over seeds.

    PYTHONPATH=src python3 scripts/quality.py [--out QUALITY.json]

Runs the paper's two experiments at the configs the shipped scripts write:
- data efficiency (`run_data_efficiency.build_default`): baseline, cI and
  cC trained on 10% and 100% of the data;
- label propagation (`run_label_propagation.build_default`): `run_pipeline`
  for baseline and cI at 10% pretraining.
Each cell runs once per seed in SEEDS; the seed sets the run, dataset and
model-init seeds, as `cmvae sweep-data` does.  The JSON holds the measured
revision (see `git_revision`) and, per cell, each metric's per-seed values,
median and interquartile range.  The PMI gap is mean PMI of related minus
unrelated held-out pairs; propagation cells report the metrics after
continued training.  Two worker processes,
each pinned to one CPU with BLAS on one thread, run the cells; the full
run took 252-258 s (about 4.3 minutes) on 2 vCPUs.  The pinning needs Linux.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import importlib.util
import json
import multiprocessing
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

from cmvae import relatedness, training

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_VARIANTS, DATA_PERCENTS = ("baseline", "cI", "cC"), (10.0, 100.0)
PIPELINE_VARIANTS, PIPELINE_PERCENT = ("baseline", "cI"), 10.0
SEEDS = range(5)
WORKERS = min(2, os.cpu_count() or 1)


def shipped_config(script: str) -> training.RunConfig:
    """The config that scripts/<script>.py's build_default writes."""
    spec = importlib.util.spec_from_file_location(script, os.path.join(HERE, f"{script}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        module.build_default(path)
        return training.RunConfig.load(path)


def _row_metrics(row: dict) -> dict:
    keys = [k for k in row if k.startswith(("latent_acc_", "cross_coh_"))] + ["joint_coh"]
    return {"pmi_gap": row["mean_pmi_related"] - row["mean_pmi_unrelated"], **{k: row[k] for k in keys}}


def _pin_worker(taken, cpus: list[int]) -> None:
    """Pool initializer: bind this worker to the next CPU of `cpus`, so that it forks no
    scoring or training peer (`peers.usable_cpus`) to compete with the others."""
    with taken.get_lock():
        cpu = cpus[taken.value % len(cpus)]
        taken.value += 1
    os.sched_setaffinity(0, {cpu})


def run_cell(task) -> dict:
    """Metrics of one (experiment, variant, percent, seed) run in a scratch output directory."""
    experiment, cfg, variant, percent, seed = task
    with tempfile.TemporaryDirectory() as out:
        if experiment == "data":
            rcfg = training.data_fraction_config(cfg, variant, percent, seed, out)
            state = training.train(rcfg, evaluate=False)
            metrics = _row_metrics(training.evaluate_model(state.model, rcfg, state.step))
        else:
            rcfg = training.data_fraction_config(cfg, variant, 100.0, seed, out)
            report, info = training.run_pipeline(rcfg, relatedness.PropagationConfig(pretrain_percent=percent))
            state = info["state"]
            metrics = {"f1": report.f1, "precision": report.precision, "recall": report.recall,
                       **_row_metrics(report.metrics_after)}
        metrics["heldout_iwae"] = training.mean_heldout_loglik(state.model, rcfg)
    return metrics


def _spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "iqr": q[2] - q[0],
            "values": values}


def measure(data_cfg: training.RunConfig, pipeline_cfg: training.RunConfig) -> dict:
    """Per-cell spreads of every metric, keyed "data/<variant>/p<percent>" and "propagate/<variant>/p<percent>"."""
    cells = [("data", data_cfg, v, p) for v in DATA_VARIANTS for p in DATA_PERCENTS]
    cells += [("propagate", pipeline_cfg, v, PIPELINE_PERCENT) for v in PIPELINE_VARIANTS]
    tasks = [cell + (seed,) for cell in cells for seed in SEEDS]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context, initializer=_pin_worker,
                             initargs=(context.Value("i", 0), sorted(os.sched_getaffinity(0)))) as pool:
        results = list(pool.map(run_cell, tasks))
    out = {}
    for i, (experiment, _, variant, percent) in enumerate(cells):
        runs = results[i * len(SEEDS):(i + 1) * len(SEEDS)]
        out[f"{experiment}/{variant}/p{percent:g}"] = {k: _spread([r[k] for r in runs]) for k in runs[0]}
    return out


def git_revision() -> str | None:
    """The checkout that the imported cmvae package comes from: HEAD's hash, or
    "<HEAD>+diff.<sha256 of `git diff HEAD` over src/ and scripts/, 16 hex>"
    when tracked files there differ from HEAD (untracked files are not
    covered).  None outside a checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=os.path.dirname(os.path.abspath(training.__file__)),
                              capture_output=True, check=True).stdout
    try:
        head = git("rev-parse", "HEAD").decode().strip()
        diff = git("diff", "--binary", "HEAD", "--", ":/src", ":/scripts")
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{head}+diff.{hashlib.sha256(diff).hexdigest()[:16]}" if diff else head


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="QUALITY.json")
    args = parser.parse_args(argv)
    cells = measure(shipped_config("run_data_efficiency"), shipped_config("run_label_propagation"))
    with open(args.out, "w") as fh:
        json.dump({"revision": git_revision(), "seeds": list(SEEDS), "cells": cells}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    for name, metrics in cells.items():
        print(name, "  ".join(f"{k} {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
                              for k, m in sorted(metrics.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
