"""Command-line entry points.

Subcommands: train, eval, sweep-gamma, sweep-data, propagate, oracle-check.
Configs are JSON files (see RunConfig); the CMVAE_SEED environment variable
overrides the config seed, and propagate's --variant, when given, the
config's objective variant.  Exit codes: 0 success, 1 a failed oracle-check,
2 config error, 3 numerical abort, 4 unreadable checkpoint (missing,
truncated, not a checkpoint, or saved for a different model).  Codes 2-4
print one line to stderr.  A config error is reported before any file is
written: a config or sweep value RunConfig rejects (such as a value whose
JSON type is not its field's, a fractional or boolean steps, a gamma not
finite and >= 1, an obs_dim below num_classes, or a joint_kind other than
"poe" and "moe"), a non-numeric list entry, sweep-gamma on a baseline
config, a run that cannot start (see training.check_config), a dataset,
propagation split or held-out set that its item counts cannot build (such
as a --pretrain-percent too small to cover every class, or eval_items
below the class count), or oracle-check --items below 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import bounds, evaluation, objective, relatedness, training
from .training import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECKPOINT = 4


class CheckpointError(ValueError):
    pass


def _load_config(path: str) -> training.RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = training.RunConfig.load(path)
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    env_seed = os.environ.get("CMVAE_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError as exc:
            raise ConfigError(f"CMVAE_SEED must be an integer, got {env_seed!r}") from exc
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    state = training.train(cfg)
    print(f"trained {cfg.run_id} for {state.step} steps; "
          f"outputs in {cfg.output_dir}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    try:
        state = training.restore_state(cfg, args.checkpoint)
    except OSError as exc:
        raise CheckpointError(f"{args.checkpoint}: {exc.strerror}") from exc
    except ValueError as exc:  # the reader's messages name the path
        raise CheckpointError(str(exc)) from exc
    row = training.evaluate_model(state.model, cfg, state.step)
    print(json.dumps(_json_safe(row), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sweep_gamma(args) -> int:
    cfg = _load_config(args.config)
    gammas = _numbers(args.gammas, float, "--gammas")
    out = os.path.join(cfg.output_dir, f"{cfg.run_id}.gamma_sweep.csv")
    training.sweep_gamma(cfg, gammas, out)
    print(f"gamma sweep written to {out}")
    return EXIT_OK


def _cmd_sweep_data(args) -> int:
    cfg = _load_config(args.config)
    percents = _numbers(args.percents, float, "--percents")
    seeds = _numbers(args.seeds, int, "--seeds") if args.seeds else None
    out = os.path.join(cfg.output_dir, f"{cfg.run_id}.data_sweep.csv")
    training.sweep_data_fraction(cfg, percents, args.variants.split(","), out, seeds=seeds)
    print(f"data-fraction sweep written to {out}")
    return EXIT_OK


def _numbers(text: str, kind, flag: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _cmd_propagate(args) -> int:
    cfg = _load_config(args.config)
    if args.variant is not None:
        cfg = replace(cfg, objective=replace(cfg.objective, variant=args.variant))
    try:
        pcfg = relatedness.PropagationConfig(
            pretrain_percent=args.pretrain_percent,
            pmi_num_samples=args.pmi_samples,
            threshold_rule=args.threshold_rule,
            continue_training=not args.no_continue)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report, _ = training.run_pipeline(cfg, pcfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, f"{cfg.run_id}.propagation.json")
    with open(out, "w") as fh:
        json.dump(_json_safe(report.to_json_dict()), fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_out = os.path.join(cfg.output_dir, f"{cfg.run_id}.propagation.csv")
    with open(csv_out, "w") as fh:
        fh.write(training.METRICS_SCHEMA + "\n")
        fh.write(training.csv_line(["phase", *report.metrics_before]))
        for phase, row in (("before", report.metrics_before), ("after", report.metrics_after)):
            fh.write(training.csv_line([phase, *row.values()]))
    print(f"propagation report written to {out}")
    return EXIT_OK


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _cmd_oracle_check(args) -> int:
    """Sandwich / tightness / monotonicity checks on the analytic testbed."""
    if args.items < 2:  # a paired standard error needs two items
        raise ConfigError(f"--items must be at least 2, got {args.items}")
    oracle = evaluation.make_oracle(obs_dims=(2, 2), latent_dim=1, noise_var=1.0,
                                    loading_scale=2.0, seed=args.seed)
    pairs = oracle.sample_pairs(args.items, args.seed + 1)
    exact = oracle.exact_logp(pairs)

    exact_model = evaluation.AnalyticLinearModel(oracle)
    tight = [bounds.joint_bound(exact_model, pairs, kind, 8, args.seed).value for kind in ("elbo", "cubo")]
    ok_tight = all(np.abs(t - exact).max() < 1e-9 for t in tight)
    _report("exact-posterior tightness (|bound - exact| < 1e-9)", ok_tight)

    model = evaluation.AnalyticLinearModel(oracle, scale=0.9, shift=0.7)
    est = {kind: bounds.joint_bound(model, pairs, kind, 30, args.seed).value
           for kind in ("elbo", "iwae", "cubo")}
    order = [("elbo", est["elbo"], est["iwae"], "iwae"),
             ("iwae", est["iwae"], exact, "exact"),
             ("exact", exact, est["cubo"], "cubo")]
    all_ok = True
    for low_name, low, high, high_name in order:
        diff = high - low  # paired per item
        gap = diff.mean()
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        ok = gap > 3 * se
        all_ok &= ok
        _report(f"sandwich {low_name} < {high_name} (gap {gap:.4f} > 3*SE {3*se:.4f})", ok)

    means = [bounds.joint_bound(model, pairs, "iwae", k, args.seed).value.mean() for k in (1, 5, 30)]
    mono = all(means[i + 1] >= means[i] - 1e-12 for i in range(2))
    _report(f"iwae monotone over K=1,5,30 ({means[0]:.4f} <= {means[1]:.4f} <= {means[2]:.4f})", mono)
    return EXIT_OK if (ok_tight and all_ok and mono) else 1


def _report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cmvae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-gamma", help="train+eval across gamma values")
    p.add_argument("--config", required=True)
    p.add_argument("--gammas", default="1,1.1,2,8,64")
    p.set_defaults(func=_cmd_sweep_gamma)

    p = sub.add_parser("sweep-data", help="variants x data fractions sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--percents", default="10,20,50,100")
    p.add_argument("--variants", default="baseline,cI,cC")
    p.add_argument("--seeds", default="")
    p.set_defaults(func=_cmd_sweep_data)

    p = sub.add_parser("propagate", help="PMI label propagation pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--pretrain-percent", type=float, default=10.0)
    p.add_argument("--variant", choices=objective.VARIANTS, help="default: the config's variant")
    p.add_argument("--pmi-samples", type=int, default=30)
    p.add_argument("--threshold-rule", default="max-f1", choices=relatedness.THRESHOLD_RULES)
    p.add_argument("--no-continue", action="store_true")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("oracle-check", help="run the estimator sandwich suite")
    p.add_argument("--items", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except training.NumericalAbort as exc:
        print(f"numerical abort: {exc}; last good checkpoint: {exc.checkpoint_path}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
