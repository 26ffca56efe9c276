"""Span tracing of `cmvae` layers from outside the package.

A `Tracer` replaces each target function or method with a wrapper that
records a span (name, start, end, parent span, training step, scoring chunk,
work count) and calls the original.  Callers that bound a function by their
own import (`from .seeding import per_row_normal`) hold a separate name, so
the wrapper is installed under every `cmvae` module name that refers to the
original object.  Spans stay in memory; `aggregate` reduces them to
per-layer totals after the traced call returns.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable: `owner` is a module path, `attr` a dotted path in it."""

    owner: str
    attr: str
    name: str
    count: Callable | None = None  # (bound arguments, result) -> work count


@dataclass
class Span:
    name: str
    parent: int
    step: int | None
    chunk: int | None
    start: float = 0.0
    end: float = 0.0
    count: float = 0.0


def _rows(arr) -> int:
    shape = arr.shape
    return int(math.prod(shape[:-1])) if len(shape) > 1 else int(shape[0])


def _train_pairs(a, result) -> int:
    cfg, ds = a["cfg"], a.get("dataset")
    steps = a.get("extra_steps")
    steps = cfg.optimizer.steps if steps is None else steps
    pool = len(ds) if ds is not None else cfg.optimizer.batch_size
    return steps * min(cfg.optimizer.batch_size, pool)


def _selected_rows(a, result) -> int:
    rows = a.get("rows")
    return len(a["self"].pairs) if rows is None else len(rows)


# The `cmvae` layers.  `cli` and `__init__` do no work of their own.
LAYER_TARGETS = (
    Target("cmvae.data", "generate_unimodal", "data.generate_unimodal"),
    Target("cmvae.data", "PairedDataset.pair_observations", "data.pair_observations", _selected_rows),
    Target("cmvae.seeding", "per_row_normal", "seeding.per_row_normal", lambda a, r: len(a["rows"])),
    Target("cmvae.models", "MultimodalModel.encode_unimodal", "models.encode",
           lambda a, r: _rows(r.mean.value)),
    Target("cmvae.models", "MultimodalModel.joint_posterior_samples", "models.joint_posterior_samples",
           lambda a, r: r[0].shape[0]),
    Target("cmvae.models", "MultimodalModel.decode", "models.decode", lambda a, r: _rows(a["z"].value)),
    Target("cmvae.distributions", "gaussian_log_prob", "distributions.log_prob"),
    Target("cmvae.distributions", "standard_normal_log_prob", "distributions.log_prob"),
    Target("cmvae.distributions", "FactorBernoulli.log_prob", "distributions.log_prob"),
    Target("cmvae.bounds", "joint_log_weights", "bounds.joint_log_weights", lambda a, r: r.shape[0]),
    Target("cmvae.bounds", "bound_from_log_weights", "bounds.bound_from_log_weights"),
    Target("cmvae.bounds", "unimodal_marginal", "bounds.unimodal_marginal", lambda a, r: r.shape[0]),
    Target("cmvae.objective", "final_objective", "objective.final_objective",
           lambda a, r: _rows(next(iter(a["batch"].values())))),
    Target("cmvae.objective", "draw_negatives", "objective.draw_negatives"),
    Target("cmvae.autodiff", "backward", "autodiff.backward"),
    Target("cmvae.training", "train", "training.train", _train_pairs),
    Target("cmvae.training", "Adam.step", "training.Adam.step"),
    Target("cmvae.training", "save_checkpoint", "training.save_checkpoint",
           lambda a, r: os.path.getsize(a["path"])),
    Target("cmvae.training", "evaluate_model", "training.evaluate_model"),
    Target("cmvae.training", "mean_heldout_loglik", "training.mean_heldout_loglik"),
    Target("cmvae.training", "run_pipeline", "training.run_pipeline"),
    Target("cmvae.evaluation", "oracle_classifiers", "evaluation.oracle_classifiers"),
    Target("cmvae.evaluation", "latent_accuracy", "evaluation.metrics"),
    Target("cmvae.evaluation", "cross_coherence", "evaluation.metrics"),
    Target("cmvae.evaluation", "joint_coherence", "evaluation.metrics"),
    Target("cmvae.evaluation", "synergy_coherence", "evaluation.metrics"),
    Target("cmvae.relatedness", "pmi", "relatedness.pmi"),
    Target("cmvae.relatedness", "score_dataset", "relatedness.score_dataset", lambda a, r: len(a["ds"])),
    Target("cmvae.relatedness", "estimate_threshold", "relatedness.estimate_threshold",
           lambda a, r: len(a["scores"])),
    Target("cmvae.relatedness", "propagate", "relatedness.propagate"),
    Target("cmvae.relatedness", "carve_pipeline_datasets", "relatedness.carve_pipeline_datasets"),
    Target("cmvae.relatedness", "merge_predicted", "relatedness.merge_predicted"),
)

# Untraced runs wrap only `train`, whose spans give `train_pairs_per_s`
# inside `run_pipeline`; two wrapped calls per repetition cost microseconds.
TRAIN_ONLY = tuple(t for t in LAYER_TARGETS if t.name == "training.train")

# A span of a scope name opens a fresh step (chunk) numbering; each span of
# a tick name advances it.  Spans record the number current at their start.
_SCOPES = {"training.train": "step", "relatedness.score_dataset": "chunk"}
_TICKS = {"objective.final_objective": "step", "relatedness.pmi": "chunk"}


def _resolve(target: Target):
    owner = sys.modules[target.owner]
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Installs span-recording wrappers for `targets`; use as a context manager."""

    def __init__(self, targets=LAYER_TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._ids = {"step": None, "chunk": None}

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cmvae" or n.startswith("cmvae."))]
        for target in self.targets:
            owner, leaf = _resolve(target)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(target, original)
            self._patch(owner, leaf, original, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:  # names bound by `from ... import`
                for attr, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def installed_bindings(self) -> list[str]:
        """Names that still refer to a wrapper of this tracer (empty after uninstall)."""
        leftovers = []
        for module in [m for n, m in sys.modules.items() if n == "cmvae" or n.startswith("cmvae.")]:
            for attr, value in vars(module).items():
                candidates = [(attr, value)]
                if isinstance(value, type):
                    candidates += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
                for name, obj in candidates:
                    if callable(obj) and getattr(obj, "__cmvae_tracer__", None) is self:
                        leftovers.append(f"{module.__name__}.{name}")
        return leftovers

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, original):
        tracer, name = self, target.name
        signature = inspect.signature(original) if target.count else None
        scope, tick = _SCOPES.get(name), _TICKS.get(name)

        def wrapper(*args, **kwargs):
            if scope:
                saved = tracer._ids[scope]
                tracer._ids[scope] = -1
            if tick:
                current = tracer._ids[tick]
                tracer._ids[tick] = 0 if current is None else current + 1
            span = Span(name, tracer._stack[-1] if tracer._stack else -1,
                        tracer._ids["step"], tracer._ids["chunk"])
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if scope:
                    tracer._ids[scope] = saved
            if signature is not None:
                span.count = target.count(signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__cmvae_tracer__ = tracer
        return wrapper


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    count: float = 0.0
    count_in_objective: float = 0.0


def aggregate(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-name totals over `spans`.

    Busy time sums the spans of a name that have no ancestor of the same
    name; self time is a span's duration minus its direct children's.
    `count_in_objective` sums the work counts of spans that descend from
    `objective.final_objective`, the per-step training loss.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    ancestors: list[frozenset] = [frozenset()] * len(spans)
    out: dict[str, LayerTotals] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            ancestors[i] = ancestors[span.parent] | {spans[span.parent].name}
        t = out.setdefault(span.name, LayerTotals())
        dur = span.end - span.start
        t.calls += 1
        if span.name not in ancestors[i]:
            t.busy_s += dur
        t.self_s += dur - child_s[i]
        t.count += span.count
        if "objective.final_objective" in ancestors[i]:
            t.count_in_objective += span.count
    return out


def spans_to_json(spans: list[Span], origin: float) -> list[dict]:
    return [{"name": s.name, "parent": s.parent, "step": s.step, "chunk": s.chunk,
             "start_ms": (s.start - origin) * 1e3, "end_ms": (s.end - origin) * 1e3,
             "count": s.count} for s in spans]
