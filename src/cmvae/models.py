"""Multimodal generative models: per-modality MLP encoders/decoders and a
joint posterior that is a rule over the unimodal encoders, a product of
experts (MVAE) or a mixture of experts (MMVAE).

Parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint writer can treat the model generically.  Evaluation paths are
pure functions of (parameters, inputs, seed); training mutates parameters
from a single thread only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, affine, concat
from .distributions import DiagonalGaussian, FactorBernoulli, gaussian_product, mixture_log_density
from .seeding import derive_rng, per_row_normal, tag

TRAINED_JOINT_KINDS = ("poe", "moe")
JOINT_KINDS = ("explicit",) + TRAINED_JOINT_KINDS
LIKELIHOODS = ("bernoulli", "gaussian")
GAUSSIAN_LOG_VAR_FLOOR = -6.0


class UnknownModalityError(KeyError):
    pass


def mixture_split(num_samples: int) -> int:
    """Draws per modality when the mixture posterior splits num_samples evenly over its two modalities."""
    if num_samples % 2:
        raise ValueError(f"mixture posterior needs num_samples divisible by 2, got {num_samples}")
    return num_samples // 2


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
    """Encoders Phi, decoders Theta and the joint-posterior rule, over two named modalities.

    joint_kind "poe" multiplies the unimodal posteriors with the standard
    prior; "moe" mixes them with equal weights.  "explicit" is for a
    subclass that overrides encode_joint with its own joint posterior, such
    as evaluation.AnalyticLinearModel; build_model rejects it.
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
        if not len(set(names)) == len(names) == 2:
            raise ValueError(f"a model needs two distinctly named modalities, got {names}")
        # Canonical name order makes every reduction over modalities
        # independent of how the list was written down.
        self.modalities = sorted(self.modalities, key=lambda m: m.name)

    # -- parameter bookkeeping -------------------------------------------------

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
        view = copy.copy(self)
        view.params = {k: Tensor.const(p.value) for k, p in self.params.items()}
        return view

    # -- encoding ----------------------------------------------------------------

    def encode_unimodal(self, name: str, obs: np.ndarray) -> DiagonalGaussian:
        spec = self.modality(name)
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if obs.shape[-1] != spec.obs_dim:
            raise ValueError(f"modality {name!r} expects dim {spec.obs_dim}, got {obs.shape[-1]}")
        prefix = f"enc.{name}"
        h: Tensor | np.ndarray = obs
        for i in range(self.num_hidden):
            h = affine(h, self.params[f"{prefix}.w{i}"], self.params[f"{prefix}.b{i}"]).tanh()
        mean = affine(h, self.params[f"{prefix}.w_mean"], self.params[f"{prefix}.b_mean"])
        log_var = affine(h, self.params[f"{prefix}.w_lv"], self.params[f"{prefix}.b_lv"])
        return DiagonalGaussian(mean=mean, log_var=log_var)

    def encode_joint(self, obs_by_modality: dict[str, np.ndarray]) -> DiagonalGaussian:
        """The PoE posterior: the unimodal posteriors times the N(0, I) prior.

        MoE has no single Gaussian joint posterior; use
        joint_posterior_samples instead.  An "explicit" model overrides this.
        """
        if self.joint_kind != "poe":
            raise ValueError(f"joint_kind {self.joint_kind!r} has no Gaussian joint posterior "
                             "here: this model builds only the product of experts")
        zero = Tensor.const(np.zeros(self.latent_dim))
        comps = [self.encode_unimodal(m.name, obs_by_modality[m.name]) for m in self.modalities]
        return gaussian_product(comps + [DiagonalGaussian(mean=zero, log_var=zero)])

    # -- joint posterior sampling ---------------------------------------------------

    def joint_posterior_samples(self, obs_by_modality: dict[str, np.ndarray],
                                num_samples: int, seed: int):
        """Draw z from q(z | all modalities) and report log q at each draw.

        Returns (z, log_q), shapes (B, S, L) and (B, S); pair p is row p of
        every modality.

        Explicit and PoE posteriors condition on the whole pair, and noise
        is keyed on the pair's modality rows, concatenated in name order.

        The mixture posterior draws per modality row: row p of z holds, for
        each modality m in name order, S/M stratified draws from
        q(z | obs_m[p]), with noise keyed on that row alone under the
        stream "joint_posterior.<m>", and log_q[p] is the equal-weight
        mixture density at them.  Pairs that share a row share its draws;
        bounds.mixture_joint_log_weights scores many pairs from one draw per
        row.  num_samples must split evenly (mixture_split).
        """
        if self.joint_kind in ("explicit", "poe"):
            rows = np.concatenate([np.atleast_2d(obs_by_modality[m.name]) for m in self.modalities], axis=1)
            noise = per_row_normal(seed, "joint_posterior", rows, (num_samples, self.latent_dim))
            q = self.encode_joint(obs_by_modality).per_row()
            z = q.rsample(noise)
            return z, q.log_prob(z)

        per = mixture_split(num_samples)
        comps, draws = [], []
        for spec in self.modalities:
            obs = np.atleast_2d(np.asarray(obs_by_modality[spec.name], dtype=np.float64))
            q = self.encode_unimodal(spec.name, obs).per_row()
            noise = per_row_normal(seed, f"joint_posterior.{spec.name}", obs, (per, self.latent_dim))
            comps.append(q)
            draws.append(q.rsample(noise))
        z = concat(draws, axis=1)
        return z, mixture_log_density([q.log_prob(z) for q in comps])

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
        noise = per_row_normal(seed, "cross_generate", np.atleast_2d(obs), (self.latent_dim,))
        z = q.rsample(Tensor.const(noise))
        return self.decode(target, z).mean.value


def init_params(modalities: list[ModalitySpec], latent_dim: int, hidden_dim: int,
                num_hidden: int, seed: int) -> dict[str, Tensor]:
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
            params[f"{prefix}.w{i}"] = Tensor.param(w)
            params[f"{prefix}.b{i}"] = Tensor.param(np.zeros(hidden_dim))
            d = hidden_dim
        return d

    def encoder(prefix: str, in_dim: int):
        d = hidden_stack(prefix, in_dim)
        for head in ("mean", "lv"):
            params[f"{prefix}.w_{head}"] = Tensor.param(np.zeros((d, latent_dim)))
            params[f"{prefix}.b_{head}"] = Tensor.param(np.zeros(latent_dim))

    def decoder(prefix: str, spec: ModalitySpec):
        d = hidden_stack(prefix, latent_dim)
        w = 0.05 * rng.standard_normal((d, spec.obs_dim))
        params[f"{prefix}.w_out"] = Tensor.param(w)
        params[f"{prefix}.b_out"] = Tensor.param(np.zeros(spec.obs_dim))
        if spec.likelihood == "gaussian":
            params[f"{prefix}.log_var"] = Tensor.param(np.zeros(spec.obs_dim))

    for m in modalities:
        encoder(f"enc.{m.name}", m.obs_dim)
        decoder(f"dec.{m.name}", m)
    return params


def build_model(modalities: list[ModalitySpec], latent_dim: int = 8, hidden_dim: int = 64,
                num_hidden: int = 2, joint_kind: str = "moe", seed: int = 0) -> MultimodalModel:
    """A trained model's fresh parameters; its joint posterior is "poe" or "moe"."""
    if joint_kind not in TRAINED_JOINT_KINDS:
        raise ValueError(f"joint_kind must be one of {TRAINED_JOINT_KINDS}, got {joint_kind!r}")
    params = init_params(modalities, latent_dim, hidden_dim, num_hidden, seed)
    return MultimodalModel(modalities=modalities, latent_dim=latent_dim, hidden_dim=hidden_dim,
                           num_hidden=num_hidden, joint_kind=joint_kind, params=params)
