#!/usr/bin/env python3
"""Benchmark for cmvae: three moe workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced and traced

With one workload, the last stdout line is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics for
`--trace 0`, the per-layer metrics for `--trace 1`.  Without `--workload`
it runs every workload both ways and prints each metric by name and unit,
`failed_frac`, and a comparison with reference step times.

Each workload runs in its own subprocess (perfbench/worker.py) with the BLAS
thread variables pinned before numpy is imported.  Full results and traced
spans are written to `.bench_out/`.  This file imports no numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-contrastive", "train-baseline", "propagate")
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ".bench_out"
WORKER_TIMEOUT_S = 170
# Reference figures (2 cores, pinned BLAS threads) for the derived report;
# a sanity check only, never a gate.
REFERENCE = {
    "contrastive_ms_per_step": (150.0, 175.0),
    "baseline_ms_per_step": (14.0, 17.0),
    "score_pairs_per_s": (4400.0, 4900.0),
}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a pinned subprocess and return its full result."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds),
           str(trace), OUT_DIR]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-trace{trace}-seed{seed}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(seed: int, seconds: float) -> int:
    results = {(w, t): run_worker(w, seed, seconds, t) for w in WORKLOADS for t in (0, 1)}
    for (workload, trace), result in results.items():
        print(f"== {workload} ({'traced' if trace else 'untraced'}, seed {seed})")
        for name, m in result["metrics"].items():
            print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'failed_frac':45s} {result['failed'] / result['attempted']:14.6g} 1"
              f"  ({result['failed']} of {result['attempted']} calls and checks)")
        for label in result["failed_checks"]:
            print(f"  FAILED: {label}")
    print(derived_report(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def derived_report(results: dict) -> str:
    """Contrastive/baseline cost ratio and wasted-work counts beside the reference figures."""
    def e2e(w, name):
        return results[(w, 0)]["metrics"][name]["value"]

    def layer(w, name):
        return results[(w, 1)]["metrics"][name]["value"]

    batch = 64  # both training workloads
    c_ms = 1e3 * batch / e2e("train-contrastive", "train_pairs_per_s")
    b_ms = 1e3 * batch / e2e("train-baseline", "train_pairs_per_s")
    lines = [
        "== derived (not gated)",
        f"  train_pairs_per_s baseline/contrastive   {c_ms / b_ms:8.2f}x",
        f"  contrastive ms/step {c_ms:8.1f}   reference {REFERENCE['contrastive_ms_per_step']}",
        f"  baseline ms/step    {b_ms:8.1f}   reference {REFERENCE['baseline_ms_per_step']}"
        " (includes evaluation every 40 steps)",
        f"  score_pairs_per_s (propagate) {e2e('propagate', 'score_pairs_per_s'):8.0f}"
        f"   reference {REFERENCE['score_pairs_per_s']}",
    ]
    for w in ("train-contrastive", "train-baseline"):
        lines.append(f"  {w}: joint_rows_per_pair {layer(w, 'objective.joint_rows_per_pair'):.1f}, "
                     f"decode_rows_per_pair {layer(w, 'objective.decode_rows_per_pair'):.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cmvae", "__init__.py")):
        print("run.py: no src/cmvae here; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open("BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        result = run_worker(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"env": result["env"], "medians": result["detail"]["medians"],
                          "host_factor": result["detail"]["host_factor"],
                          "failed_checks": result["failed_checks"]}))
        print(contract_line(result))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
