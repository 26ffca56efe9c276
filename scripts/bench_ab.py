#!/usr/bin/env python3
"""A/B benchmark of two checkouts on one workload, in alternating pairs of untraced runs.

    python3 scripts/bench_ab.py --parent DIR --change DIR --workload W --seeds 0-9 \
        [--json PATH] [--claim METRIC]

For each seed, both trees run `perfbench/run.py --workload W --seed N
--trace 0` from their own root, one after the other: the parent first in
even pairs and the change first in odd ones, so a drift in host speed
falls on both alike.  Runs last as long as BENCHMARK.json says.  The last
stdout line of a run is its result, to which the run's `host_factor` (the
host's calibration time over the reference's) and its raw `medians` (the
timing metrics before rescaling by host_factor), both from the line
before, are added; each goes to stderr as it arrives.

The summary gives, for each end-to-end metric in the change tree's
BENCHMARK.json, the median and quartiles of each tree, the ratio of the
medians, the per-pair ratios change/parent, how many pairs the change won
in the metric's `better` direction, and the gap between the medians
beside the parent's interquartile range, and a no-regression verdict
against the metric's relative `bound` (see `verdict`).  A timing metric
also gets the same statistics of the raw medians, which host_factor's
rescaling does not move: each tree's median and their ratio, the per-pair
ratios and wins, and the gap beside the parent's IQR.  Then come each
tree's median and quartiles of `host_factor` and its value per pair, since
a run on a briefly faster host reads faster after rescaling; the summary
names every run that reported `failed` > 0.  `--claim METRIC` adds the
verdict on a claimed gain in METRIC ("claim met" or "claim not met", see
`claim`), judged on the rescaled values and, for a timing metric, again on
the raw medians.
`--json PATH` writes the same summary, with each pair's values and any
claim, under the workload's name in the JSON object at PATH, keeping what
the file holds for other workloads.  This file imports no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """'0-9', '3' or '0-2,7' -> the listed seeds in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_tree(tree: str, workload: str, seed: int) -> str:
    """The result line of one untraced run.py call in `tree`, with its host_factor and raw medians."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: run.py exited with code {proc.returncode} at seed {seed}")
    detail = json.loads(lines[-2])
    return json.dumps({**json.loads(lines[-1]), "host_factor": detail["host_factor"],
                       "medians": detail["medians"]})


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _spread(values: list[float]) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def verdict(par: list[float], chg: list[float], direction: str, bound: float) -> str:
    """No-regression verdict of the change's runs against the parent's, for a relative `bound`.

    "within bound" when every change run beats every parent run; else "worse
    beyond bound" when the change's median is worse than the parent's by more
    than bound x |parent median|; else "unresolved" when the parent's IQR is
    wider than that, since its own spread then hides a regression of that size;
    else "within bound".
    """
    sign = 1 if direction == "higher" else -1
    if all(sign * (c - p) > 0 for c in chg for p in par):
        return "within bound"
    mp, (q1, q3) = statistics.median(par), _quartiles(par)
    if sign * (mp - statistics.median(chg)) > bound * abs(mp):
        return "worse beyond bound"
    return "unresolved" if q3 - q1 > bound * abs(mp) else "within bound"


def claim(metric: dict, pairs: int) -> dict:
    """Verdict on a claimed gain from one metric's summary over `pairs` pairs.

    The claim is met when the change wins at least nine tenths of all
    pairs (a tie is a win for neither side) and its median is better than
    the parent's by more than the parent's interquartile range.
    """
    sign = 1 if metric["better"] == "higher" else -1
    needed = math.ceil(9 * pairs / 10)
    by_wins = metric["wins"] >= needed
    by_spread = sign * metric["median_gap"] > metric["parent_iqr"]
    return {"met": by_wins and by_spread, "wins": metric["wins"], "wins_needed": needed,
            "median_gap": metric["median_gap"], "parent_iqr": metric["parent_iqr"],
            "gap_beyond_iqr": by_spread}


def _compare(par: list[float], chg: list[float], direction: str) -> dict:
    """Spread, ratios, wins and gap of the change's values against the parent's, pair by pair."""
    sp, sc = _spread(par), _spread(chg)
    mp, mc = sp["median"], sc["median"]
    ratios = [c / p if p else float("nan") for p, c in zip(par, chg)]
    return {"better": direction, "parent": sp, "change": sc,
            "ratio_of_medians": mc / mp if mp else float("nan"),
            "median_ratio": statistics.median(ratios), "ratios": ratios,
            "wins": sum(c > p if direction == "higher" else c < p for p, c in zip(par, chg)),
            "ties": sum(c == p for p, c in zip(par, chg)),
            "median_gap": mc - mp, "parent_iqr": sp["q3"] - sp["q1"]}


def summary(pairs: list[tuple[str, str]], better: dict[str, str],
            bounds: dict[str, float] | None = None, claimed: str | None = None) -> dict:
    """Per-metric statistics of (parent, change) result lines.

    `better` maps metric -> 'higher'/'lower'; a metric named in `bounds`
    also gets its bound and verdict, a metric found in every run's raw
    `medians` a "raw" entry with the same statistics (see `_compare`) of
    those, and the metric `claimed` a "claim" entry (see `claim`), in its
    raw entry too when it has one.
    """
    results = [(json.loads(p), json.loads(c)) for p, c in pairs]
    metrics = {}
    for name, direction in better.items():
        par = [p["metrics"][name]["value"] for p, _ in results]
        chg = [c["metrics"][name]["value"] for _, c in results]
        metrics[name] = {"unit": results[0][1]["metrics"][name]["unit"], **_compare(par, chg, direction)}
        if bounds and name in bounds:
            metrics[name].update(bound=bounds[name], verdict=verdict(par, chg, direction, bounds[name]))
        if all(name in r.get("medians", {}) for pair in results for r in pair):
            raw_par = [p["medians"][name] for p, _ in results]
            raw_chg = [c["medians"][name] for _, c in results]
            metrics[name]["raw"] = _compare(raw_par, raw_chg, direction)
        if name == claimed:
            metrics[name]["claim"] = claim(metrics[name], len(results))
            if "raw" in metrics[name]:
                metrics[name]["raw"]["claim"] = claim(metrics[name]["raw"], len(results))
    failed = [{"pair": i, "tree": tree, "failed": r["failed"], "attempted": r["attempted"]}
              for i, (p, c) in enumerate(results)
              for tree, r in (("parent", p), ("change", c)) if r["failed"] > 0]
    host = {tree: _spread([pair[i]["host_factor"] for pair in results])
            for i, tree in enumerate(("parent", "change"))}
    return {"pairs": len(results), "metrics": metrics, "host_factor": host, "failed_runs": failed}


def _wins_line(m: dict, n: int) -> str:
    return (f"median ratio {m['median_ratio']:.4f}, change wins {m['wins']}/{n}"
            f" ({m['ties']} ties); median gap {m['median_gap']:.6g}, parent IQR {m['parent_iqr']:.6g}")


def _claim_line(c: dict, n: int) -> str:
    return (f"claim {'met' if c['met'] else 'not met'}: change wins {c['wins']}/{n}"
            f" (needs {c['wins_needed']}), median gap {c['median_gap']:.6g}"
            f" {'beyond' if c['gap_beyond_iqr'] else 'inside'} parent IQR {c['parent_iqr']:.6g}")


def summarize(pairs: list[tuple[str, str]], better: dict[str, str],
              bounds: dict[str, float] | None = None, claimed: str | None = None) -> list[str]:
    """Report lines for (parent, change) result lines; the arguments are summary's."""
    s = summary(pairs, better, bounds, claimed)
    n = s["pairs"]
    lines = [f"{n} pairs, change/parent"]
    for name, m in s["metrics"].items():
        par, chg = m["parent"], m["change"]
        lines.append(f"{name} [{m['unit']}], {m['better']} is better")
        lines.append(f"  parent {par['median']:.6g} [{par['q1']:.6g}, {par['q3']:.6g}]"
                     f"  change {chg['median']:.6g} [{chg['q1']:.6g}, {chg['q3']:.6g}]"
                     f"  ratio of medians {m['ratio_of_medians']:.4f}")
        lines.append("  " + _wins_line(m, n))
        lines.append("  ratios " + " ".join(f"{r:.3f}" for r in m["ratios"]))
        raw = m.get("raw")
        if raw:
            lines.append(f"  raw medians, not rescaled: parent {raw['parent']['median']:.6g}"
                         f"  change {raw['change']['median']:.6g}"
                         f"  ratio of medians {raw['ratio_of_medians']:.4f}")
            lines.append("  raw " + _wins_line(raw, n))
        if "verdict" in m:
            lines.append(f"  verdict: {m['verdict']} (bound {m['bound']:g})")
        if "claim" in m:
            lines.append("  " + _claim_line(m["claim"], n))
        if raw and "claim" in raw:
            lines.append("  raw " + _claim_line(raw["claim"], n))
    par, chg = s["host_factor"]["parent"], s["host_factor"]["change"]
    lines.append("host_factor, > 1 on a host slower than the reference")
    lines.append(f"  parent {par['median']:.4g} [{par['q1']:.4g}, {par['q3']:.4g}]"
                 f"  change {chg['median']:.4g} [{chg['q1']:.4g}, {chg['q3']:.4g}]")
    lines.append("  per pair " + " ".join(f"{p:.3f}/{c:.3f}" for p, c in zip(par["values"], chg["values"])))
    for f in s["failed_runs"]:
        lines.append(f"FAILED: pair {f['pair']}, {f['tree']}: {f['failed']} of {f['attempted']} "
                     "calls and checks")
    return lines


def write_json(path: str, workload: str, seeds: list[int], result: dict) -> None:
    """Set `workload`'s entry of the JSON object at `path`, keeping the other workloads' entries."""
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc[workload] = {"seeds": seeds, **result}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the summary, with every pair's values, under the "
                             "workload's key of the JSON object at PATH")
    parser.add_argument("--claim", metavar="METRIC",
                        help="also report whether the change's gain in METRIC meets the claim rule")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric of {sorted(better)}")
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        line = {}
        for label in order:
            line[label] = run_tree(trees[label], args.workload, seed)
            print(f"seed {seed} {label}: {line[label]}", file=sys.stderr, flush=True)
        pairs.append((line["parent"], line["change"]))
    print("\n".join(summarize(pairs, better, bounds, args.claim)))
    if args.json:
        write_json(args.json, args.workload, parse_seeds(args.seeds),
                   summary(pairs, better, bounds, args.claim))
    return 0


if __name__ == "__main__":
    sys.exit(main())
