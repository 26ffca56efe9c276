"""Multimodal generative models: per-modality MLP encoders/decoders and the
three joint-posterior constructions (explicit joint encoder, product of
experts, mixture of experts).

Parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint writer can treat the model generically.  Evaluation paths are
pure functions of (parameters, inputs, seed); training mutates parameters
from a single thread only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, affine, concat
from .distributions import DiagonalGaussian, FactorBernoulli, gaussian_product, sample_per_row
from .seeding import derive_rng, per_row_normal, tag

JOINT_KINDS = ("explicit", "poe", "moe")
LIKELIHOODS = ("bernoulli", "gaussian")
GAUSSIAN_LOG_VAR_FLOOR = -6.0


class UnknownModalityError(KeyError):
    pass


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    obs_dim: int
    likelihood: str = "bernoulli"

    def __post_init__(self):
        if self.obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {self.obs_dim}")
        if self.likelihood not in LIKELIHOODS:
            raise ValueError(f"likelihood must be one of {LIKELIHOODS}")


@dataclass
class MultimodalModel:
    """Encoders Phi, decoders Theta and the joint-posterior rule.

    joint_kind "explicit" adds a joint encoder over concatenated
    observations; "poe" multiplies the unimodal posteriors with the
    standard prior; "moe" mixes them with equal weights.
    """

    modalities: list[ModalitySpec]
    latent_dim: int = 8
    hidden_dim: int = 64
    num_hidden: int = 2
    joint_kind: str = "moe"
    params: dict[str, Tensor] = field(default_factory=dict)

    def __post_init__(self):
        if self.joint_kind not in JOINT_KINDS:
            raise ValueError(f"joint_kind must be one of {JOINT_KINDS}")
        names = [m.name for m in self.modalities]
        if len(set(names)) != len(names):
            raise ValueError("modality names must be unique")
        # Canonical name order makes every reduction over modalities
        # independent of how the list was written down.
        self.modalities = sorted(self.modalities, key=lambda m: m.name)

    # -- parameter bookkeeping -------------------------------------------------

    @property
    def num_modalities(self) -> int:
        return len(self.modalities)

    def modality(self, name: str) -> ModalitySpec:
        for m in self.modalities:
            if m.name == name:
                return m
        raise UnknownModalityError(name)

    def frozen(self) -> "MultimodalModel":
        """The same model over constant views of its parameter arrays.

        Evaluating through it records no graph, so each intermediate is
        freed as soon as it is used; for passes that only need values.
        """
        return replace(self, params={k: Tensor.const(p.value) for k, p in self.params.items()})

    # -- encoding ----------------------------------------------------------------

    def _mlp_gaussian_head(self, prefix: str, x: np.ndarray) -> DiagonalGaussian:
        h: Tensor | np.ndarray = x
        for i in range(self.num_hidden):
            h = affine(h, self.params[f"{prefix}.w{i}"], self.params[f"{prefix}.b{i}"]).tanh()
        mean = affine(h, self.params[f"{prefix}.w_mean"], self.params[f"{prefix}.b_mean"])
        log_var = affine(h, self.params[f"{prefix}.w_lv"], self.params[f"{prefix}.b_lv"])
        return DiagonalGaussian(mean=mean, log_var=log_var)

    def encode_unimodal(self, name: str, obs: np.ndarray) -> DiagonalGaussian:
        spec = self.modality(name)
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if obs.shape[-1] != spec.obs_dim:
            raise ValueError(f"modality {name!r} expects dim {spec.obs_dim}, got {obs.shape[-1]}")
        return self._mlp_gaussian_head(f"enc.{name}", obs)

    def encode_joint(self, obs_by_modality: dict[str, np.ndarray]) -> DiagonalGaussian:
        """Posterior parameters for explicit-joint and PoE models.

        MoE has no single Gaussian joint posterior; use
        joint_posterior_samples instead.
        """
        if self.joint_kind == "explicit":
            xs = [np.atleast_2d(np.asarray(obs_by_modality[m.name], dtype=np.float64))
                  for m in self.modalities]
            return self._mlp_gaussian_head("enc.joint", np.concatenate(xs, axis=-1))
        if self.joint_kind == "poe":
            comps = [self.encode_unimodal(m.name, obs_by_modality[m.name]) for m in self.modalities]
            return gaussian_product(comps, include_standard_prior=True)
        raise ValueError("mixture posterior has no closed Gaussian form")

    # -- joint posterior sampling ---------------------------------------------------

    def joint_posterior_samples(self, obs_by_modality: dict[str, np.ndarray],
                                num_samples: int, seed: int, pairs: dict | None = None):
        """Draw z from q(z | all modalities) and report log q at each draw.

        Returns (z, log_q), shapes (B, S, L) and (P, S).  Pair p is row
        pairs[m][p] of every modality m; without `pairs`, P = B and pair p
        is row p of every modality.

        Explicit and PoE posteriors condition on the whole pair: they take
        no `pairs`, and noise is keyed on the pair's rows.

        The mixture posterior draws per modality row: row r of z holds, for
        each modality m in name order, S/M stratified draws from
        q(z | obs_m[r]), with noise keyed on that row alone under the
        stream "joint_posterior.<m>".  Pair p's draws are pair_draws(z, pairs)[p]
        and log_q[p] is its equal-weight mixture density at them, so every
        pair that shares a row shares (and need not redraw) its draws.
        num_samples must divide evenly across modalities.
        """
        if self.joint_kind in ("explicit", "poe"):
            if pairs is not None:
                raise ValueError(f"{self.joint_kind} posterior draws per pair; gather the pair rows instead")
            first = np.atleast_2d(np.asarray(obs_by_modality[self.modalities[0].name]))
            rows = [tuple(np.atleast_2d(np.asarray(obs_by_modality[m.name]))[i]
                          for m in self.modalities) for i in range(first.shape[0])]
            noise = per_row_normal(seed, "joint_posterior", rows, (num_samples, self.latent_dim))
            return sample_per_row(self.encode_joint(obs_by_modality), noise)

        m = self.num_modalities
        if num_samples % m != 0:
            raise ValueError(f"mixture posterior needs num_samples divisible by {m}, got {num_samples}")
        per = num_samples // m
        comps, draws = [], []
        for spec in self.modalities:
            obs = np.atleast_2d(np.asarray(obs_by_modality[spec.name], dtype=np.float64))
            q = self.encode_unimodal(spec.name, obs).per_row()
            noise = per_row_normal(seed, f"joint_posterior.{spec.name}", [(r,) for r in obs],
                                   (per, self.latent_dim))
            comps.append(q)
            draws.append(q.rsample(noise))
        if pairs is None:
            return self.mixture_samples(comps, draws)
        z = concat(draws, axis=1)
        pair_comps = [q.map_rows(lambda t, rows=pairs[spec.name]: t[np.asarray(rows)])
                      for q, spec in zip(comps, self.modalities)]
        return z, _mixture_log_prob(pair_comps, self.pair_draws(z, pairs))

    def mixture_samples(self, comps: list[DiagonalGaussian], draws: list[Tensor]) -> tuple[Tensor, Tensor]:
        """The mixture posterior's draw grid z (B, S, L) and log q(z), pair p being row p of each modality.

        comps[m] and its S/M draws per row, draws[m] (B, S/M, L), belong to
        self.modalities[m] (name order); z holds the draws block by block.
        """
        z = concat(draws, axis=1)
        return z, _mixture_log_prob(comps, z)

    def pair_draws(self, t: Tensor, pairs: dict) -> Tensor:
        """Per-pair view (P, S, ...) of a quantity t (B, S, ...) on the mixture's draw grid.

        Slot block m (S/M slots, modalities in name order) of pair p is
        block m of row pairs[m][p].
        """
        b, s = t.shape[:2]
        m = self.num_modalities
        rows = np.stack([np.asarray(pairs[spec.name]) for spec in self.modalities], axis=1)
        grid = t.reshape((b, m, s // m) + t.shape[2:])
        return grid[rows, np.arange(m)].reshape((rows.shape[0], s) + t.shape[2:])

    # -- decoding ---------------------------------------------------------------------

    def decode(self, name: str, z: Tensor):
        spec = self.modality(name)
        h = z
        prefix = f"dec.{name}"
        flat = h.reshape(-1, self.latent_dim) if h.ndim == 3 else h
        out_shape = h.shape[:-1] + (spec.obs_dim,)
        for i in range(self.num_hidden):
            flat = affine(flat, self.params[f"{prefix}.w{i}"], self.params[f"{prefix}.b{i}"]).tanh()
        out = affine(flat, self.params[f"{prefix}.w_out"], self.params[f"{prefix}.b_out"])
        out = out.reshape(out_shape)
        if spec.likelihood == "bernoulli":
            return FactorBernoulli(logits=out)
        log_var = self.params[f"{prefix}.log_var"].floor_at(GAUSSIAN_LOG_VAR_FLOOR)
        return DiagonalGaussian(mean=out, log_var=log_var)

    def decode_all(self, z: Tensor) -> dict:
        """Likelihood parameters for every modality; conditionally independent given z."""
        return {m.name: self.decode(m.name, z) for m in self.modalities}

    # -- generation ---------------------------------------------------------------------

    def joint_generate(self, n: int, seed: int) -> dict[str, np.ndarray]:
        """Sample z from the prior and emit each modality's likelihood mean."""
        z = derive_rng(seed, tag("joint_generate")).standard_normal((n, self.latent_dim))
        if n == 0:
            return {m.name: np.zeros((0, m.obs_dim)) for m in self.modalities}
        out = {}
        for m in self.modalities:
            out[m.name] = self.decode(m.name, Tensor.const(z)).mean.value
        return out

    def cross_generate(self, source: str, target: str, obs: np.ndarray, seed: int) -> np.ndarray:
        """Generate the target modality from one posterior draw given the source."""
        if source == target:
            raise ValueError("cross generation needs distinct source and target")
        self.modality(target)
        q = self.encode_unimodal(source, obs)
        obs2 = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        noise = per_row_normal(seed, "cross_generate", [(r,) for r in obs2],
                               (self.latent_dim,))
        z = q.rsample(Tensor.const(noise))
        return self.decode(target, z).mean.value


def _mixture_log_prob(comps: list[DiagonalGaussian], z: Tensor) -> Tensor:
    """Equal-weight Gaussian mixture density, log(1/M sum_k q_k(z)), per-row components."""
    log_m = float(np.log(len(comps)))
    acc = None
    for q in comps:
        term = q.log_prob(z)
        acc = term if acc is None else _logaddexp(acc, term)
    return acc - log_m


def _logaddexp(a: Tensor, b: Tensor) -> Tensor:
    m = Tensor.const(np.maximum(a.value, b.value))
    return ((a - m).exp() + (b - m).exp()).log() + m


def init_params(modalities: list[ModalitySpec], latent_dim: int, hidden_dim: int,
                num_hidden: int, joint_kind: str, seed: int) -> dict[str, Tensor]:
    """Fresh parameter dict.

    Hidden layers get fan-in-scaled random weights.  Encoder mean/log-var
    heads start at exactly zero, so every untrained posterior is N(0, I);
    decoder output layers get small random weights so untrained generations
    still vary with z.
    """
    rng = derive_rng(seed, tag("init"))
    params: dict[str, Tensor] = {}

    def hidden_stack(prefix: str, in_dim: int):
        d = in_dim
        for i in range(num_hidden):
            w = rng.standard_normal((d, hidden_dim)) / np.sqrt(d)
            params[f"{prefix}.w{i}"] = Tensor.param(w, name=f"{prefix}.w{i}")
            params[f"{prefix}.b{i}"] = Tensor.param(np.zeros(hidden_dim), name=f"{prefix}.b{i}")
            d = hidden_dim
        return d

    def encoder(prefix: str, in_dim: int):
        d = hidden_stack(prefix, in_dim)
        for head in ("mean", "lv"):
            params[f"{prefix}.w_{head}"] = Tensor.param(np.zeros((d, latent_dim)), name=f"{prefix}.w_{head}")
            params[f"{prefix}.b_{head}"] = Tensor.param(np.zeros(latent_dim), name=f"{prefix}.b_{head}")

    def decoder(prefix: str, spec: ModalitySpec):
        d = hidden_stack(prefix, latent_dim)
        w = 0.05 * rng.standard_normal((d, spec.obs_dim))
        params[f"{prefix}.w_out"] = Tensor.param(w, name=f"{prefix}.w_out")
        params[f"{prefix}.b_out"] = Tensor.param(np.zeros(spec.obs_dim), name=f"{prefix}.b_out")
        if spec.likelihood == "gaussian":
            params[f"{prefix}.log_var"] = Tensor.param(np.zeros(spec.obs_dim), name=f"{prefix}.log_var")

    for m in modalities:
        encoder(f"enc.{m.name}", m.obs_dim)
        decoder(f"dec.{m.name}", m)
    if joint_kind == "explicit":
        encoder("enc.joint", sum(m.obs_dim for m in modalities))
    return params


def build_model(modalities: list[ModalitySpec], latent_dim: int = 8, hidden_dim: int = 64,
                num_hidden: int = 2, joint_kind: str = "moe", seed: int = 0) -> MultimodalModel:
    params = init_params(modalities, latent_dim, hidden_dim, num_hidden, joint_kind, seed)
    return MultimodalModel(modalities=modalities, latent_dim=latent_dim, hidden_dim=hidden_dim,
                           num_hidden=num_hidden, joint_kind=joint_kind, params=params)
