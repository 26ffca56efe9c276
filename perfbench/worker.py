"""Run one workload in this process; print the result as the last stdout line.

run.py starts this file with the BLAS thread variables pinned and `src` on
PYTHONPATH, so numpy reads the pins when it is first imported here.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

An untraced run (TRACE 0) reports the end-to-end metrics; a traced run
(TRACE 1) alternates untraced and traced repetitions and reports the
per-layer metrics and the tracing overhead.

Every timing is the median of the run's samples, of its set-ups or of its
untraced repetitions, rescaled to a reference host speed (see
`calibration_s`).  Every raw sample is kept in the result's `detail`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
from cmvae import cli

import metrics
import spans
import workloads

MIN_ROUNDS = 3
SETUPS_PER_ROUND = 3
CALIBRATION_SHARE = 0.05  # of each round's time spent in `calibration_s`
REFERENCE_CALIBRATION_S = 0.006  # median of `calibration_s` on the 2-core VM the bounds were set on
SELF_TIME_SLACK_S = 1e-9  # float rounding of summed perf_counter differences
NOT_MEASURED = [
    "hardware performance counters",
    "cache misses",
    "whole-machine tracing",
    "load from other processes on the host",
]


class Run:
    """Counts timed calls and correctness checks; keeps each check's label."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)


def environment(seed: int) -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    src = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join("src", "cmvae")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(root, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    git_rev = None
    if os.path.isdir(".git"):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                     timeout=10).stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "not_measured": NOT_MEASURED,
    }


_CAL_RNG = np.random.default_rng(0)
_CAL_A, _CAL_W, _CAL_V = (_CAL_RNG.standard_normal((640, 64)), 0.1 * _CAL_RNG.standard_normal((64, 64)),
                          _CAL_RNG.standard_normal(64))


def calibration_s() -> float:
    """Wall time of a fixed numpy loop that calls no `cmvae` code.

    On a shared host the speed of all code drifts, by up to 2x over
    minutes.  The median of this loop over a run measures that drift, and
    the gated timings are rescaled by it; a change to `cmvae` cannot move it.
    """
    start = time.perf_counter()
    for _ in range(10):
        h = np.tanh(_CAL_A @ _CAL_W)
        float(np.log1p(np.exp(-np.abs(h))).sum() + ((1.0 - h * h) @ _CAL_W.T).sum())
        x = _CAL_V
        for _ in range(100):
            x = np.maximum(x * 0.5 + 1.0, 0.0)
    return time.perf_counter() - start


def repeat(run: Run, spec, inputs, traced: bool, reference):
    """One timed repetition; returns (outcome, wall seconds, tracer) or None if it failed."""
    tracer = spans.Tracer(spans.LAYER_TARGETS if traced else spans.TRAIN_ONLY)
    start = time.perf_counter()
    try:
        with tracer:
            outcome = workloads.run_once(spec, inputs, tracer)
    except Exception:  # a failed call is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        run.check(f"{'traced' if traced else 'untraced'} repetition returned", False)
        return None
    wall = time.perf_counter() - start
    run.check("repetition returned", True)
    run.check("wrappers removed", not tracer.patches and not tracer.installed_bindings())
    if reference is not None:
        run.check("parameter digest repeats bit for bit", outcome.digest == reference.digest)
        run.check("heldout_iwae repeats bit for bit", outcome.heldout_iwae == reference.heldout_iwae)
        if reference.f1 is not None:
            run.check("propagate_f1 repeats bit for bit", outcome.f1 == reference.f1)
    return outcome, wall, tracer


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, out_dir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    spec = workloads.SPECS[name]
    run_dir = os.path.join(out_dir, f"run-{name}-{os.getpid()}")
    run = Run()

    with contextlib.redirect_stdout(io.StringIO()):
        run.check("oracle-check sandwich", cli.main(["oracle-check"]) == 0)

    setup_s: list[float] = []
    calibration: list[float] = []

    def set_up():
        for _ in range(SETUPS_PER_ROUND):
            start = time.perf_counter()
            inputs = workloads.make_inputs(spec, seed, run_dir)
            setup_s.append(time.perf_counter() - start)
        return inputs

    # Each round sets up afresh and then repeats the workload, so set-up
    # samples are spread over the run like the repetitions are.
    try:
        inputs = set_up()
        warm = repeat(run, spec, inputs, traced=False, reference=None)
        if warm is None:
            raise SystemExit("warm-up repetition failed")
        reference = warm[0]
        untraced, traced = [], []
        start = time.perf_counter()
        last_s, rounds = 0.0, 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start + last_s <= seconds:
            t0, rounds = time.perf_counter(), rounds + 1
            inputs = set_up()
            for is_traced in ((False, True) if trace else (False,)):
                result = repeat(run, spec, inputs, is_traced, reference)
                if result is not None:
                    (traced if is_traced else untraced).append(result)
            round_s, spent = time.perf_counter() - t0, 0.0
            while spent < CALIBRATION_SHARE * round_s:
                calibration.append(calibration_s())
                spent += calibration[-1]
            last_s = time.perf_counter() - t0
        measured_s = time.perf_counter() - start
        if not untraced or (trace and not traced):
            raise SystemExit("no repetition succeeded")
        f1 = reference.f1
        if f1 is None:  # training workloads: once per run, untimed
            f1 = workloads.training_f1(reference.model, inputs.cfg)
            last_f1 = workloads.training_f1(untraced[-1][0].model, inputs.cfg)
            run.check("propagate_f1 repeats bit for bit", last_f1 == f1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = {"setup_s": setup_s,
               "pipeline_s": [o.pipeline_s for o, _, _ in untraced],
               "train_pairs_per_s": [o.train_pairs_per_s for o, _, _ in untraced],
               "score_pairs_per_s": [o.score_pairs_per_s for o, _, _ in untraced]}
    medians = {k: statistics.median(v) for k, v in samples.items()}
    # > 1 on a host slower than the reference: times shrink and rates grow by it.
    host_factor = statistics.median(calibration) / REFERENCE_CALIBRATION_S
    at_reference = {k: v * host_factor if k.endswith("_per_s") else v / host_factor
                    for k, v in medians.items()}
    detail = {"measured_s": measured_s, "medians": medians, "host_factor": host_factor,
              "samples": dict(samples, calibration_s=calibration)}
    if trace:
        per_rep = [metrics.layer_values(spans.aggregate(t.spans)) for _, _, t in traced]
        values = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
        values[metrics.OVERHEAD] = (statistics.median(w for _, w, _ in traced)
                                    / statistics.median(w for _, w, _ in untraced) - 1.0)
        for _, _, tracer in traced:
            totals = spans.aggregate(tracer.spans)
            run.check("self time within busy time",
                      all(t.self_s <= t.busy_s + SELF_TIME_SLACK_S for t in totals.values()))
            missing = metrics.unexercised(name, totals)
            run.check(f"mapped layers called ({', '.join(missing) or 'all'})", not missing)
        units = metrics.PER_LAYER_UNITS
        with open(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"), "w") as fh:
            json.dump([spans.spans_to_json(t.spans, t.spans[0].start) for _, _, t in traced], fh)
    else:
        values = dict(at_reference, heldout_iwae_nll=-reference.heldout_iwae, propagate_f1=f1,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = metrics.END_TO_END

    result = {
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k][0]} for k in units},
        "failed_checks": sorted(set(run.failed)),
        "detail": detail,
        "env": environment(seed),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
