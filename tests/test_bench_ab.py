import ast
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def result_line(rate, nll, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "train_pairs_per_s": {"value": rate, "unit": "pairs/s"},
        "heldout_iwae_nll": {"value": nll, "unit": "nats"}}})


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
