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
