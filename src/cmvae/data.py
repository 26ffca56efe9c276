"""Synthetic multimodal data with a known shared factor.

Generation model per modality m:

    u = S_m . onehot(c) + P_m . s_p + noise,   noise ~ N(0, noise_scale^2)
    obs = clamp01(sigmoid(u))   for bernoulli modalities
    obs = u                     for gaussian modalities

where c is the class (the factor shared across modalities), s_p ~ N(0, I)
are private factors, and the mixing maps (S_m, P_m) are fixed by the
dataset seed.  Two items from different modalities are *related* (r = 1)
exactly when their classes match.  Class labels ride along for oracle
evaluation only; nothing downstream may predict from them.

Generation, pairing and subsetting are pure functions of (spec, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import LIKELIHOODS
from .seeding import derive_rng, tag


@dataclass(frozen=True)
class FactorSpec:
    num_classes: int = 5
    modality_names: tuple = ("m1", "m2")
    obs_dims: tuple = (16, 16)
    private_dims: tuple = (3, 3)
    likelihoods: tuple = ("gaussian", "gaussian")
    noise_scale: float = 0.1
    map_seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if len(set(self.modality_names)) != 2:
            raise ValueError(f"need two distinct modality names, got {self.modality_names!r}")
        if not (len(self.obs_dims) == len(self.private_dims) == len(self.likelihoods) == 2):
            raise ValueError("per-modality fields must have equal lengths")
        if min(self.obs_dims) < self.num_classes:  # the shared map must have full rank
            raise ValueError(f"obs_dims {self.obs_dims!r} must be >= num_classes {self.num_classes}")
        if min(self.private_dims) < 0:
            raise ValueError(f"private_dims {self.private_dims!r} must be >= 0")
        if not set(self.likelihoods) <= set(LIKELIHOODS):
            raise ValueError(f"likelihoods must be among {LIKELIHOODS}, got {self.likelihoods!r}")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale!r}")

    def modality_index(self, name: str) -> int:
        return self.modality_names.index(name)


def mixing_maps(spec: FactorSpec) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-modality (shared, private) mixing maps, deterministic in spec.map_seed.

    Each shared map is a Gaussian (obs_dim, num_classes) matrix with
    obs_dim >= num_classes (FactorSpec), so it has full rank almost surely.
    """
    maps = {}
    for m, name in enumerate(spec.modality_names):
        d, p = spec.obs_dims[m], spec.private_dims[m]
        rng = derive_rng(spec.map_seed, tag(f"mixing.{name}"))
        shared = rng.standard_normal((d, spec.num_classes))
        maps[name] = (shared, rng.standard_normal((d, p)) if p else np.zeros((d, 0)))
    return maps


@dataclass(frozen=True)
class UnimodalData:
    modality: str
    observations: np.ndarray  # (n, obs_dim)
    labels: np.ndarray        # (n,) int class ids


def generate_unimodal(spec: FactorSpec, n: int, modality: str, seed: int) -> UnimodalData:
    """Draw n observations with balanced classes; bit-identical under one seed."""
    if n < spec.num_classes:
        raise ValueError(f"need at least {spec.num_classes} items for balanced classes")
    m = spec.modality_index(modality)
    shared, private = mixing_maps(spec)[modality]
    rng = derive_rng(seed, tag(f"generate.{modality}"))
    labels = rng.permutation(np.arange(n) % spec.num_classes)
    onehot = np.eye(spec.num_classes)[labels]
    s_p = rng.standard_normal((n, spec.private_dims[m]))
    noise = spec.noise_scale * rng.standard_normal((n, spec.obs_dims[m]))
    u = onehot @ shared.T + s_p @ private.T + noise
    if spec.likelihoods[m] == "bernoulli":
        obs = np.clip(1.0 / (1.0 + np.exp(-u)), 0.0, 1.0)
    else:
        obs = u
    return UnimodalData(modality=modality, observations=obs, labels=labels)


@dataclass(frozen=True)
class PairedDataset:
    """Pools per modality plus an index list of pairs with relatedness flags.

    A pool may hold rows that no pair uses, as in the three sets of
    relatedness.carve_pipeline_datasets, which pair rows of one shared pool.
    """

    spec: FactorSpec
    observations: dict[str, np.ndarray]
    labels: dict[str, np.ndarray]
    pairs: np.ndarray        # (P, M) indices into the per-modality pools
    related: np.ndarray      # (P,) uint8, 1 iff all classes in the pair match
    pairs_per_instance: int = 1
    pair_seed: int = 0

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @property
    def modality_names(self) -> tuple:
        return self.spec.modality_names

    def pair_observations(self, rows=None) -> dict[str, np.ndarray]:
        """Observation arrays aligned with (a slice of) the pair list."""
        sel = self.pairs if rows is None else self.pairs[rows]
        return {name: self.observations[name][sel[:, m]]
                for m, name in enumerate(self.spec.modality_names)}

    def pair_labels(self) -> dict[str, np.ndarray]:
        return {name: self.labels[name][self.pairs[:, m]]
                for m, name in enumerate(self.spec.modality_names)}

    def with_pairs(self, pairs: np.ndarray, pairs_per_instance: int, pair_seed: int) -> PairedDataset:
        """The same pools under another pair list, each pair related iff its classes match."""
        a, b = self.spec.modality_names
        related = (self.labels[a][pairs[:, 0]] == self.labels[b][pairs[:, 1]]).astype(np.uint8)
        return replace(self, pairs=pairs, related=related, pairs_per_instance=pairs_per_instance,
                       pair_seed=pair_seed)


def _pools(spec: FactorSpec, x: UnimodalData, y: UnimodalData) -> PairedDataset:
    """x and y as the pools of a dataset with no pairs; pair column m reads modality m of spec."""
    if (x.modality, y.modality) != tuple(spec.modality_names):
        raise ValueError(f"pair the modalities in the spec's order {tuple(spec.modality_names)!r}, "
                         f"got ({x.modality!r}, {y.modality!r})")
    return PairedDataset(spec, {x.modality: x.observations, y.modality: y.observations},
                         {x.modality: x.labels, y.modality: y.labels}, np.zeros((0, 2), dtype=np.int64),
                         np.zeros(0, dtype=np.uint8))


def pair_related(spec: FactorSpec, x: UnimodalData, y: UnimodalData,
                 pairs_per_instance: int = 30, seed: int = 0) -> PairedDataset:
    """Pair every first-modality item with same-class partners (all r = 1).

    Each item draws its partners iid from its class's pool in `y`: without
    replacement when 1 < pairs_per_instance <= pool size, else with it.  At
    one partner each, about 1/e of a pool stays unpaired; pairing every pool
    row evenly instead lowered held-out IWAE at 10% data by 6-23 nats.
    """
    pools = _pools(spec, x, y)
    rng = derive_rng(seed, tag("pair_related"))
    partners = np.empty((len(x.labels), pairs_per_instance), dtype=np.int64)
    for c in np.unique(x.labels):
        pool = np.flatnonzero(y.labels == c)
        if pool.size == 0:
            raise ValueError(f"class {c} present in {x.modality!r} but absent in {y.modality!r}")
        items = np.flatnonzero(x.labels == c)
        if 1 < pairs_per_instance <= pool.size:
            picks = np.argsort(rng.random((items.size, pool.size)), axis=1)[:, :pairs_per_instance]
        else:
            picks = rng.integers(pool.size, size=(items.size, pairs_per_instance))
        partners[items] = pool[picks]
    pairs = np.stack([np.repeat(np.arange(len(x.labels)), pairs_per_instance), partners.reshape(-1)], axis=1)
    return pools.with_pairs(pairs, pairs_per_instance, seed)


def pair_random(spec: FactorSpec, x: UnimodalData, y: UnimodalData, seed: int = 0) -> PairedDataset:
    """Uniform random pairing; relatedness recorded from the true labels."""
    return _pools(spec, x, y).with_pairs(random_pairs(len(x.labels), len(y.labels), seed), 1, seed)


def random_pairs(num_x: int, num_y: int, seed: int) -> np.ndarray:
    """(num_x, 2) index pairs of every x item with a uniformly drawn y item."""
    partners = derive_rng(seed, tag("pair_random")).integers(0, num_y, size=num_x)
    return np.stack([np.arange(num_x), partners], axis=1)


def subset_rows(ds: PairedDataset, percent: float, seed: int = 0) -> dict[str, np.ndarray]:
    """The sorted rows of each pool that `subset` keeps: a class-stratified `percent` of it."""
    if not 0.0 < percent <= 100.0:
        raise ValueError("percent must lie in (0, 100]")
    rows = {}
    for name in ds.spec.modality_names:
        labels = ds.labels[name]
        keep_n = int(round(len(labels) * percent / 100.0))
        if keep_n < ds.spec.num_classes:
            raise ValueError(f"subset of {keep_n} items cannot cover {ds.spec.num_classes} classes")
        rows[name] = _stratified_choice(labels, keep_n, derive_rng(seed, tag(f"subset.{name}")))
    return rows


def subset(ds: PairedDataset, percent: float, seed: int = 0) -> PairedDataset:
    """Class-stratified subsample of each unimodal pool (subset_rows), then re-pair related.

    Taking the pools first (rather than subsampling pairs) preserves the
    requisite amount of related structure at every fraction; 100 percent
    reproduces the original pairing.
    """
    parts = [UnimodalData(name, ds.observations[name][rows], ds.labels[name][rows])
             for name, rows in subset_rows(ds, percent, seed).items()]
    return pair_related(ds.spec, *parts, pairs_per_instance=ds.pairs_per_instance, seed=ds.pair_seed)


def _stratified_choice(labels: np.ndarray, keep_n: int, rng) -> np.ndarray:
    """Pick keep_n indices with per-class counts balanced to within one item."""
    if keep_n >= len(labels):
        return np.arange(len(labels))
    classes = np.unique(labels)
    base, extra = divmod(keep_n, len(classes))
    counts = {int(c): base + (1 if i < extra else 0) for i, c in enumerate(rng.permutation(classes))}
    chosen = []
    for c in classes:
        pool = np.flatnonzero(labels == c)
        take = min(counts[int(c)], pool.size)
        chosen.append(rng.choice(pool, size=take, replace=False))
    return np.sort(np.concatenate(chosen))


def make_related_dataset(spec: FactorSpec, items_per_modality: int, seed: int,
                         pairs_per_instance: int = 1) -> PairedDataset:
    """Convenience: draw both pools and pair them same-class (all r = 1)."""
    x = generate_unimodal(spec, items_per_modality, spec.modality_names[0], seed)
    y = generate_unimodal(spec, items_per_modality, spec.modality_names[1],
                          derive_rng(seed, tag("second_pool")).integers(1 << 62))
    return pair_related(spec, x, y, pairs_per_instance=pairs_per_instance, seed=seed)
