"""Metric tables: what each run reports, and on which workload each
per-layer number should move an end-to-end number.

`BENCHMARK.json` lists the same names; `test_spans.py` checks that the two
agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import LayerTotals

WORKLOADS = ("train-contrastive", "train-baseline", "propagate")
TRAINING = WORKLOADS[:2]

# name -> (unit, better); reported by every untraced run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_pairs_per_s": ("pairs/s", "higher"),
    "heldout_iwae_nll": ("nats", "lower"),
    "pipeline_s": ("s", "lower"),
    "score_pairs_per_s": ("pairs/s", "higher"),
    "propagate_f1": ("1", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer number: `field` of the totals of span `span` per repetition.

    `on` names the workloads where the number should move an end-to-end
    metric (README.md says which); the layer must be called there.
    """

    span: str
    field: str
    on: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.span}.{self.field}"

    @property
    def unit(self) -> str:
        return {"ms": "ms", "self_ms": "ms", "calls": "count", "rows": "rows", "bytes": "bytes",
                "n": "items"}[self.field]

    def value(self, totals: dict[str, LayerTotals]) -> float:
        t = totals.get(self.span, LayerTotals())
        return {"ms": t.busy_s * 1e3, "self_ms": t.self_s * 1e3, "calls": t.calls,
                "rows": t.count, "bytes": t.count, "n": t.count}[self.field]


_C, _B, _P = ("train-contrastive",), ("train-baseline",), ("propagate",)

PER_LAYER = (
    LayerMetric("seeding.per_row_normal", "ms", _C + _P),
    LayerMetric("seeding.per_row_normal", "rows", _C + _P),
    LayerMetric("models.decode", "ms", _C),
    LayerMetric("models.decode", "rows", _C),
    LayerMetric("models.encode", "ms", _C),
    LayerMetric("models.encode", "rows", _C),
    LayerMetric("models.joint_posterior_samples", "self_ms", _C),
    LayerMetric("models.joint_posterior_samples", "rows", _C),
    LayerMetric("distributions.log_prob", "ms", _C),
    LayerMetric("bounds.joint_log_weights", "self_ms", _C),
    LayerMetric("bounds.joint_log_weights", "rows", _C),
    LayerMetric("bounds.bound_from_log_weights", "ms", _C),
    LayerMetric("bounds.unimodal_marginal", "self_ms", _P),
    LayerMetric("bounds.unimodal_marginal", "rows", _P),
    LayerMetric("relatedness.pmi", "calls", _P),
    LayerMetric("relatedness.score_dataset", "ms", _P),
    LayerMetric("relatedness.score_dataset", "rows", _P),
    LayerMetric("objective.final_objective", "ms", _C),
    LayerMetric("objective.draw_negatives", "ms", _C),
    LayerMetric("autodiff.backward", "ms", TRAINING),
    LayerMetric("training.Adam.step", "ms", _B),
    LayerMetric("training.save_checkpoint", "ms", _B),
    LayerMetric("training.save_checkpoint", "bytes", _B),
    LayerMetric("training.save_checkpoint", "calls", _B),
    LayerMetric("training.evaluate_model", "ms", _B),
    LayerMetric("training.evaluate_model", "calls", _B),
    LayerMetric("evaluation.oracle_classifiers", "ms", _B),
    LayerMetric("evaluation.oracle_classifiers", "calls", _B),
    LayerMetric("evaluation.metrics", "ms", _B),
    LayerMetric("data.generate_unimodal", "ms", _B),
    LayerMetric("data.generate_unimodal", "calls", _B),
    LayerMetric("relatedness.estimate_threshold", "ms", _P),
    LayerMetric("relatedness.estimate_threshold", "n", _P),
    LayerMetric("relatedness.carve_pipeline_datasets", "ms", _P),
    LayerMetric("relatedness.merge_predicted", "ms", _P),
    LayerMetric("data.pair_observations", "ms", WORKLOADS),  # a control: small everywhere
    LayerMetric("data.pair_observations", "rows", WORKLOADS),
)

# Wasted work per trained pair, counted under `objective.final_objective`
# only; both fall when negatives stop being re-encoded and re-decoded.
RATIOS = {
    "objective.joint_rows_per_pair": "bounds.joint_log_weights",
    "objective.decode_rows_per_pair": "models.decode",
}
OVERHEAD = "trace.overhead_frac"

# name -> (unit, better) for every per-layer metric of a traced run.
PER_LAYER_UNITS = {
    **{m.name: (m.unit, "lower") for m in PER_LAYER},
    **{name: ("rows/pair", "lower") for name in RATIOS},
    OVERHEAD: ("1", "lower"),
}


def layer_values(totals: dict[str, LayerTotals]) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, for one repetition."""
    out = {m.name: m.value(totals) for m in PER_LAYER}
    pairs = totals.get("objective.final_objective", LayerTotals()).count
    for name, span in RATIOS.items():
        rows = totals.get(span, LayerTotals()).count_in_objective
        out[name] = rows / pairs if pairs else 0.0
    return out


def unexercised(workload: str, totals: dict[str, LayerTotals]) -> list[str]:
    """Per-layer metrics mapped to `workload` whose layer was never called there."""
    spans_needed = {m.span for m in PER_LAYER if workload in m.on}
    return sorted(s for s in spans_needed if totals.get(s, LayerTotals()).calls == 0)
