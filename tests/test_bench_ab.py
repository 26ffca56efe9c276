import ast
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def result_line(rate, nll, failed=0, host_factor=1.5):
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "train_pairs_per_s": {"value": rate, "unit": "pairs/s"},
        "heldout_iwae_nll": {"value": nll, "unit": "nats"}}, "host_factor": host_factor})


def test_summary_reports_medians_ratios_wins_and_failures():
    pairs = [(result_line(100.0, 5.0), result_line(130.0, 5.0)),
             (result_line(110.0, 5.0), result_line(121.0, 5.0)),
             (result_line(120.0, 5.0), result_line(114.0, 5.0, failed=2))]
    lines = bench_ab.summarize(pairs, {"train_pairs_per_s": "higher", "heldout_iwae_nll": "lower"})
    text = "\n".join(lines)
    assert lines[0] == "3 pairs, change/parent"
    assert "train_pairs_per_s [pairs/s], higher is better" in text
    assert "  parent 110 [105, 115]  change 121 [117.5, 125.5]  ratio of medians 1.1000" in text
    assert "median ratio 1.1000, change wins 2/3 (0 ties); median gap 11, parent IQR 10" in text
    assert "  ratios 1.300 1.100 0.950" in text
    assert "change wins 0/3 (3 ties)" in text  # equal nll is no win in either direction
    assert lines[-1] == "FAILED: pair 2, change: 2 of 10 calls and checks"
    assert sum(line.startswith("FAILED") for line in lines) == 1


def test_lower_is_better_counts_decreases_as_wins():
    pairs = [(result_line(1.0, 5.0), result_line(1.0, 4.0)),
             (result_line(1.0, 5.0), result_line(1.0, 6.0))]
    text = "\n".join(bench_ab.summarize(pairs, {"heldout_iwae_nll": "lower"}))
    assert "change wins 1/2 (0 ties)" in text


def test_seed_ranges_and_no_numpy_import():
    assert bench_ab.parse_seeds("0-3") == [0, 1, 2, 3]
    assert bench_ab.parse_seeds("4") == [4]
    assert bench_ab.parse_seeds("0-1,7") == [0, 1, 7]
    imported = set()
    for node in ast.walk(ast.parse(SCRIPT.read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "numpy" not in imported


def test_json_summary_and_file_keep_every_workload(tmp_path):
    pairs = [(result_line(100.0, 5.0), result_line(130.0, 5.0)),
             (result_line(110.0, 5.0), result_line(121.0, 5.0)),
             (result_line(120.0, 5.0), result_line(114.0, 5.0, failed=2))]
    summary = bench_ab.summary(pairs, {"train_pairs_per_s": "higher"})
    rate = summary["metrics"]["train_pairs_per_s"]
    assert summary["pairs"] == 3 and rate["unit"] == "pairs/s" and rate["better"] == "higher"
    assert rate["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0, "values": [100.0, 110.0, 120.0]}
    assert rate["change"] == {"median": 121.0, "q1": 117.5, "q3": 125.5, "values": [130.0, 121.0, 114.0]}
    assert rate["ratio_of_medians"] == 1.1 and rate["median_ratio"] == 1.1
    assert (rate["wins"], rate["ties"], rate["median_gap"], rate["parent_iqr"]) == (2, 0, 11.0, 10.0)
    assert summary["failed_runs"] == [{"pair": 2, "tree": "change", "failed": 2, "attempted": 10}]
    path = tmp_path / "BENCH.json"
    bench_ab.write_json(str(path), "train-contrastive", [0, 1, 2], summary)
    bench_ab.write_json(str(path), "propagate", [3], bench_ab.summary(pairs[:1], {"heldout_iwae_nll": "lower"}))
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["propagate", "train-contrastive"]
    assert doc["train-contrastive"] == {"seeds": [0, 1, 2], **summary}
    assert doc["propagate"]["metrics"]["heldout_iwae_nll"]["ties"] == 1


def test_host_factor_of_each_run_is_kept_and_summarised(tmp_path):
    # run.py prints a detail line with host_factor, then the result line
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"pipeline_s": {"value": 0.6, "unit": "s"}}}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('{\"medians\": {\"pipeline_s\": 0.5}, \"host_factor\": 1.25, \"failed_checks\": []}')\n"
        f"print({json.dumps(result)!r})\n")
    assert json.loads(bench_ab.run_tree(str(tmp_path), "propagate", 0)) == {
        **result, "host_factor": 1.25, "medians": {"pipeline_s": 0.5}}
    pairs = [(result_line(100.0, 5.0, host_factor=h), result_line(100.0, 5.0, host_factor=c))
             for h, c in ((1.6, 1.16), (1.7, 1.28), (1.5, 1.62))]
    host = bench_ab.summary(pairs, {"train_pairs_per_s": "higher"})["host_factor"]
    assert host["parent"] == {"median": 1.6, "q1": 1.55, "q3": 1.65, "values": [1.6, 1.7, 1.5]}
    assert host["change"]["median"] == 1.28 and host["change"]["values"] == [1.16, 1.28, 1.62]
    lines = bench_ab.summarize(pairs, {"train_pairs_per_s": "higher"})
    assert lines[-3:] == ["host_factor, > 1 on a host slower than the reference",
                          "  parent 1.6 [1.55, 1.65]  change 1.28 [1.22, 1.45]",
                          "  per pair 1.600/1.160 1.700/1.280 1.500/1.620"]


def test_verdict_against_the_bound():
    # bound 0.25: parent runs at 100, 110, 120 (median 110, IQR 10)
    bounds = {"train_pairs_per_s": 0.25}
    better = {"train_pairs_per_s": "higher"}

    def run(change_rates, parent_rates=(100.0, 110.0, 120.0)):
        pairs = [(result_line(p, 5.0), result_line(c, 5.0)) for p, c in zip(parent_rates, change_rates)]
        return (bench_ab.summary(pairs, better, bounds)["metrics"]["train_pairs_per_s"]["verdict"],
                bench_ab.summarize(pairs, better, bounds))

    verdict, lines = run([95.0, 105.0, 125.0])  # 4.5% slower in the median
    assert verdict == "within bound" and "  verdict: within bound (bound 0.25)" in lines
    verdict, lines = run([70.0, 80.0, 90.0])  # 27% slower, beyond 25%
    assert verdict == "worse beyond bound" and "  verdict: worse beyond bound (bound 0.25)" in lines
    verdict, lines = run([100.0, 100.0, 100.0], parent_rates=(40.0, 110.0, 200.0))  # IQR 80 > 27.5
    assert verdict == "unresolved" and "  verdict: unresolved (bound 0.25)" in lines
    verdict, _ = run([201.0, 202.0, 203.0], parent_rates=(40.0, 110.0, 200.0))  # every change run wins
    assert verdict == "within bound"
    # a lower-is-better metric that rose beyond its bound
    nll = bench_ab.summary([(result_line(1.0, 5.0), result_line(1.0, 6.5))],
                           {"heldout_iwae_nll": "lower"}, {"heldout_iwae_nll": 0.2})
    assert nll["metrics"]["heldout_iwae_nll"]["verdict"] == "worse beyond bound"
    assert nll["metrics"]["heldout_iwae_nll"]["bound"] == 0.2


def claim_of(parent_values, change_values, better="lower", metric="pipeline_s"):
    pairs = [(json.dumps({"failed": 0, "metrics": {metric: {"value": p, "unit": "u"}}, "host_factor": 1.5}),
              json.dumps({"failed": 0, "metrics": {metric: {"value": c, "unit": "u"}}, "host_factor": 1.5}))
             for p, c in zip(parent_values, change_values)]
    lines = bench_ab.summarize(pairs, {metric: better}, claimed=metric)
    return bench_ab.summary(pairs, {metric: better}, claimed=metric)["metrics"][metric]["claim"], lines


def test_claim_met_needs_nine_tenths_of_the_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [0.90, 0.91, 0.92, 0.93, 0.94, 0.92, 0.91, 0.93, 0.92, 0.92]
    change = [0.62, 0.63, 0.64, 0.61, 0.63, 0.95, 0.62, 0.64, 0.63, 0.62]  # one loss in ten
    c, lines = claim_of(parent, change)
    assert c["met"] and (c["wins"], c["wins_needed"]) == (9, 9) and c["gap_beyond_iqr"]
    assert any(line.startswith("  claim met: change wins 9/10 (needs 9)") for line in lines)


def test_claim_not_met_on_wins():
    parent = [0.90, 0.91, 0.92, 0.93, 0.94, 0.92, 0.91, 0.93, 0.92, 0.92]
    change = [0.62, 0.63, 0.64, 0.61, 0.95, 0.95, 0.62, 0.64, 0.63, 0.92]  # 7 wins, 1 tie
    c, lines = claim_of(parent, change)
    assert not c["met"] and c["wins"] == 7 and c["gap_beyond_iqr"]
    assert any(line.startswith("  claim not met: change wins 7/10 (needs 9)") for line in lines)


def test_claim_not_met_inside_the_parent_spread():
    # a score_pairs_per_s rise of 10419 -> 11264 (+8%) that stays inside the parent's IQR
    parent = [9000.0, 9500.0, 10000.0, 10300.0, 10400.0, 10438.0, 10600.0, 11500.0, 12000.0, 12500.0]
    change = [9100.0, 9600.0, 10200.0, 11200.0, 11250.0, 11278.0, 11300.0, 11600.0, 12100.0, 12600.0]
    c, lines = claim_of(parent, change, better="higher", metric="score_pairs_per_s")
    assert c["wins"] == 10 and c["median_gap"] == 11264.0 - 10419.0
    assert not c["met"] and not c["gap_beyond_iqr"] and c["parent_iqr"] > c["median_gap"]
    assert any(line.startswith("  claim not met: change wins 10/10 (needs 9), median gap 845 inside")
               for line in lines)


def test_raw_medians_ratio_is_reported_for_timing_metrics_only():
    # rescaled rates read 10% faster only because the change ran at a larger host_factor;
    # the raw medians show the trees equal
    def line(rate, host_factor):
        return json.dumps({"failed": 0, "host_factor": host_factor, "medians": {"train_pairs_per_s": 100.0},
                           "metrics": {"train_pairs_per_s": {"value": rate, "unit": "pairs/s"},
                                       "heldout_iwae_nll": {"value": 5.0, "unit": "nats"}}})

    pairs = [(line(150.0, 1.5), line(165.0, 1.65)), (line(160.0, 1.6), line(176.0, 1.76))]
    better = {"train_pairs_per_s": "higher", "heldout_iwae_nll": "lower"}
    bounds = {"train_pairs_per_s": 0.25, "heldout_iwae_nll": 0.2}
    metrics = bench_ab.summary(pairs, better, bounds)["metrics"]
    rate = metrics["train_pairs_per_s"]
    assert rate["ratio_of_medians"] > 1.09
    raw = rate["raw"]
    assert (raw["parent"]["median"], raw["change"]["median"], raw["ratio_of_medians"]) == (100.0, 100.0, 1.0)
    assert (raw["wins"], raw["ties"], raw["median_gap"], raw["ratios"]) == (0, 2, 0.0, [1.0, 1.0])
    assert "raw" not in metrics["heldout_iwae_nll"]
    lines = bench_ab.summarize(pairs, better, bounds)
    at = lines.index("  raw medians, not rescaled: parent 100  change 100  ratio of medians 1.0000")
    assert lines[at + 1] == "  raw median ratio 1.0000, change wins 0/2 (2 ties); median gap 0, parent IQR 0"
    assert lines[at + 2] == "  verdict: within bound (bound 0.25)"
    assert sum("raw medians" in line for line in lines) == 1


def test_claim_is_judged_on_raw_medians_too():
    # every change run sat at a larger host_factor: the rescaled rates read 10-18% faster,
    # while the raw medians lose three pairs of ten
    def line(rate, raw, host_factor):
        return json.dumps({"failed": 0, "host_factor": host_factor, "medians": {"train_pairs_per_s": raw},
                           "metrics": {"train_pairs_per_s": {"value": rate, "unit": "pairs/s"}}})

    parent_raw = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    change_raw = [104.0, 105.0, 97.0, 106.0, 96.0, 104.0, 98.0, 105.0, 104.0, 106.0]
    pairs = [(line(r * 1.5, r, 1.5), line(c * 1.7, c, 1.7)) for r, c in zip(parent_raw, change_raw)]
    better = {"train_pairs_per_s": "higher"}
    rate = bench_ab.summary(pairs, better, claimed="train_pairs_per_s")["metrics"]["train_pairs_per_s"]
    assert rate["claim"]["met"] and rate["claim"]["wins"] == 10
    raw = rate["raw"]["claim"]
    assert not raw["met"] and (raw["wins"], raw["wins_needed"]) == (7, 9) and raw["gap_beyond_iqr"]
    lines = bench_ab.summarize(pairs, better, claimed="train_pairs_per_s")
    at = [i for i, text in enumerate(lines) if "claim" in text]
    assert [lines[i].split(":")[0] for i in at] == ["  claim met", "  raw claim not met"]
    assert lines[at[1]].startswith("  raw claim not met: change wins 7/10 (needs 9), median gap 4 beyond")
