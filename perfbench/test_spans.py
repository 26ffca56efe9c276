"""Self-test of the benchmark's tracing, on small versions of the workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cmvae import autodiff, bounds, evaluation, models, objective, seeding, training  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "train-contrastive": dict(steps=2, items=200),
    "train-baseline": dict(steps=2, eval_every=1, items=200),
    "propagate": dict(steps=2, items=300),
}


def small_rep(name: str, traced: bool, out_dir: str, monkeypatch):
    monkeypatch.setattr(workloads, "HELDOUT_PAIRS", 64)
    monkeypatch.setattr(workloads, "F1_PAIRS", 64)
    spec = replace(workloads.SPECS[name], **SMALL[name])
    inputs = workloads.make_inputs(spec, seed=3, output_dir=out_dir)
    tracer = spans.Tracer(spans.LAYER_TARGETS if traced else spans.TRAIN_ONLY)
    with tracer:
        outcome = workloads.run_once(spec, inputs, tracer)
        if outcome.f1 is None:
            outcome.f1 = workloads.training_f1(outcome.model, inputs.cfg)
    return outcome, tracer


@pytest.fixture(scope="module", params=metrics.WORKLOADS)
def reps(request, tmp_path_factory):
    out = str(tmp_path_factory.mktemp(request.param))
    with pytest.MonkeyPatch.context() as mp:
        return (request.param, small_rep(request.param, False, out, mp),
                small_rep(request.param, True, out, mp))


def test_traced_run_returns_what_untraced_returns(reps):
    _, (plain, _), (traced, _) = reps
    assert traced.digest == plain.digest
    assert traced.heldout_iwae == plain.heldout_iwae
    assert traced.f1 == plain.f1


def test_every_mapped_layer_is_called(reps):
    name, _, (_, tracer) = reps
    totals = spans.aggregate(tracer.spans)
    assert metrics.unexercised(name, totals) == []
    values = metrics.layer_values(totals)
    for m in metrics.PER_LAYER:
        if name in m.on:
            assert values[m.name] > 0, m.name


def test_self_time_within_busy_time(reps):
    _, _, (_, tracer) = reps
    for name, t in spans.aggregate(tracer.spans).items():
        assert 0.0 <= t.self_s <= t.busy_s + 1e-9, name


def test_wrappers_removed_after_run(reps):
    _, (_, plain_tracer), (_, tracer) = reps
    for t in (plain_tracer, tracer):
        assert not t.patches and t.installed_bindings() == []
    assert bounds.per_row_normal is seeding.per_row_normal
    assert training.backward is autodiff.backward
    assert training.final_objective is objective.final_objective


def test_names_bound_by_import_are_wrapped():
    with spans.Tracer() as tracer:
        for module in (bounds, models, evaluation):
            assert module.per_row_normal.__cmvae_tracer__ is tracer
        assert training.backward.__cmvae_tracer__ is tracer
        assert training.final_objective.__cmvae_tracer__ is tracer
        assert bounds.standard_normal_log_prob.__cmvae_tracer__ is tracer
        assert training.evaluate_model.__cmvae_tracer__ is tracer
        assert models.MultimodalModel.decode.__cmvae_tracer__ is tracer
    assert tracer.installed_bindings() == []


def test_spans_carry_step_and_chunk_ids(reps):
    name, _, (_, tracer) = reps
    steps = SMALL[name]["steps"]
    objective_steps = [s.step for s in tracer.spans if s.name == "objective.final_objective"]
    per_train = 2 if workloads.SPECS[name].pipeline else 1  # pretrain and continuation
    assert objective_steps == list(range(steps)) * per_train
    for s in tracer.spans:
        if s.name == "relatedness.pmi":
            assert s.chunk is not None and s.chunk >= 0
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end


def test_aggregate_busy_and_self_time():
    mk = spans.Span
    recorded = [mk("a", -1, None, None, 0.0, 10.0), mk("b", 0, None, None, 1.0, 4.0),
                mk("a", 1, None, None, 2.0, 3.0), mk("b", 0, None, None, 5.0, 6.0, count=7)]
    totals = spans.aggregate(recorded)
    assert totals["a"].calls == 2 and totals["a"].busy_s == 10.0  # nested "a" not counted twice
    assert totals["a"].self_s == pytest.approx(6.0 + 1.0)
    assert totals["b"].busy_s == 4.0 and totals["b"].self_s == pytest.approx(3.0)
    assert totals["b"].count == 7


def test_benchmark_json_matches_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS) == list(run.WORKLOADS)
    assert list(workloads.SPECS) == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == metrics.PER_LAYER_UNITS
