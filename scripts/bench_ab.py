#!/usr/bin/env python3
"""A/B benchmark of two checkouts on one workload, in alternating pairs of untraced runs.

    python3 scripts/bench_ab.py --parent DIR --change DIR --workload W --seeds 0-9

For each seed, both trees run `perfbench/run.py --workload W --seed N
--trace 0` from their own root, one after the other: the parent first in
even pairs and the change first in odd ones, so a drift in host speed
falls on both alike.  Runs last as long as BENCHMARK.json says.  The last
stdout line of a run is its result; each goes to stderr as it arrives.

The summary gives, for each end-to-end metric in the change tree's
BENCHMARK.json, the median and quartiles of each tree, the ratio of the
medians, the per-pair ratios change/parent, how many pairs the change won
in the metric's `better` direction, and the gap between the medians
beside the parent's interquartile range; it names every run that reported
`failed` > 0.  This file imports no numpy.
"""

from __future__ import annotations

import argparse
import json
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
    """The result line of one untraced run.py call in `tree`."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited with code {proc.returncode} at seed {seed}")
    return lines[-1]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs: list[tuple[str, str]], better: dict[str, str]) -> list[str]:
    """Report lines for (parent, change) result lines; `better` maps metric -> 'higher'/'lower'."""
    results = [(json.loads(p), json.loads(c)) for p, c in pairs]
    n = len(results)
    lines = [f"{n} pairs, change/parent"]
    for name, direction in better.items():
        par = [p["metrics"][name]["value"] for p, _ in results]
        chg = [c["metrics"][name]["value"] for _, c in results]
        unit = results[0][1]["metrics"][name]["unit"]
        ratios = [c / p if p else float("nan") for p, c in zip(par, chg)]
        wins = sum(c > p if direction == "higher" else c < p for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        (p1, p3), (c1, c3) = _quartiles(par), _quartiles(chg)
        mp, mc = statistics.median(par), statistics.median(chg)
        lines.append(f"{name} [{unit}], {direction} is better")
        lines.append(f"  parent {mp:.6g} [{p1:.6g}, {p3:.6g}]  change {mc:.6g} [{c1:.6g}, {c3:.6g}]"
                     f"  ratio of medians {mc / mp if mp else float('nan'):.4f}")
        lines.append(f"  median ratio {statistics.median(ratios):.4f}, change wins {wins}/{n}"
                     f" ({ties} ties); median gap {mc - mp:.6g}, parent IQR {p3 - p1:.6g}")
        lines.append("  ratios " + " ".join(f"{r:.3f}" for r in ratios))
    for i, (p, c) in enumerate(results):
        for tree, r in (("parent", p), ("change", c)):
            if r["failed"] > 0:
                lines.append(f"FAILED: pair {i}, {tree}: {r['failed']} of {r['attempted']} "
                             "calls and checks")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        line = {}
        for label in order:
            line[label] = run_tree(trees[label], args.workload, seed)
            print(f"seed {seed} {label}: {line[label]}", file=sys.stderr, flush=True)
        pairs.append((line["parent"], line["change"]))
    print("\n".join(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
