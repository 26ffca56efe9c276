"""Evaluation: oracle classifiers, the exact linear-Gaussian testbed, and
the four coherence/accuracy metrics.

The Bayes classifier is derived in closed form from the synthetic
generator's mixing maps, so classifier error never confounds coherence
numbers.  The linear-Gaussian oracle provides exact joint and marginal
log-likelihoods for sandwich-testing the bound estimators, and
AnalyticLinearModel, a MultimodalModel built on its exact posteriors and
likelihoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine
from .data import mixing_maps
from .distributions import DiagonalGaussian
from .models import ModalitySpec, MultimodalModel
from .seeding import derive_rng, per_row_normal, tag


# -- Bayes oracle for the synthetic generator ------------------------------------


@dataclass(frozen=True)
class OracleClassifier:
    """Exact Bayes rule for one modality of the shared-factor generator.

    Class-conditional pre-activations are Gaussian with mean = shared-map
    column and covariance P P^T + noise^2 I; for bernoulli modalities the
    logit transform recovers the pre-activation exactly, so the rule is the
    linear discriminant in logit space.
    """

    class_means: np.ndarray      # (C, obs_dim)
    precision: np.ndarray        # (obs_dim, obs_dim)
    bernoulli: bool

    @staticmethod
    def for_modality(spec, modality: str) -> "OracleClassifier":
        m = spec.modality_index(modality)
        shared, private = mixing_maps(spec)[modality]
        cov = private @ private.T + (spec.noise_scale ** 2) * np.eye(spec.obs_dims[m])
        return OracleClassifier(class_means=shared.T,
                                precision=np.linalg.inv(cov),
                                bernoulli=spec.likelihoods[m] == "bernoulli")

    def scores(self, obs: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if self.bernoulli:
            x = np.clip(x, 1e-12, 1.0 - 1e-12)
            x = np.log(x) - np.log1p(-x)
        diff = x[:, None, :] - self.class_means[None, :, :]
        return -0.5 * np.einsum("ncd,de,nce->nc", diff, self.precision, diff)

    def classify(self, obs: np.ndarray) -> np.ndarray:
        return np.argmax(self.scores(obs), axis=1)


def oracle_classifiers(spec) -> dict[str, OracleClassifier]:
    return {name: OracleClassifier.for_modality(spec, name) for name in spec.modality_names}


# -- linear-Gaussian exact-likelihood oracle ---------------------------------------


@dataclass(frozen=True)
class LinearGaussianOracle:
    """z ~ N(0, I); per modality, obs = A z + noise with shared noise variance.

    Loading matrices must have mutually orthogonal columns (A^T A diagonal)
    so the exact posteriors stay axis-aligned and representable by the
    diagonal-Gaussian machinery.
    """

    loadings: dict[str, np.ndarray]  # name -> (obs_dim, latent_dim)
    noise_var: float

    def __post_init__(self):
        for name, a in self.loadings.items():
            gram = a.T @ a
            if not np.allclose(gram, np.diag(np.diag(gram)), atol=1e-10):
                raise ValueError(f"loading matrix for {name!r} must have orthogonal columns")
        if not self.noise_var > 0:  # so the joint covariance is positive definite; posterior() divides by it
            raise ValueError(f"noise_var must be > 0, got {self.noise_var!r}")

    @property
    def latent_dim(self) -> int:
        return next(iter(self.loadings.values())).shape[1]

    @property
    def names(self) -> list[str]:
        return sorted(self.loadings)

    def joint_covariance(self) -> np.ndarray:
        mats = [self.loadings[n] for n in self.names]
        stacked = np.vstack(mats)
        dim = stacked.shape[0]
        return stacked @ stacked.T + self.noise_var * np.eye(dim)

    def marginal_covariance(self, name: str) -> np.ndarray:
        a = self.loadings[name]
        return a @ a.T + self.noise_var * np.eye(a.shape[0])

    def exact_logp(self, obs_by_name: dict[str, np.ndarray]) -> np.ndarray:
        """Closed-form joint log-density, per row."""
        joint = np.concatenate([np.atleast_2d(obs_by_name[n]) for n in self.names], axis=1)
        return _gaussian_logpdf(joint, self.joint_covariance())

    def exact_marginal_logp(self, name: str, obs: np.ndarray) -> np.ndarray:
        return _gaussian_logpdf(np.atleast_2d(obs), self.marginal_covariance(name))

    def exact_pmi(self, obs_by_name: dict[str, np.ndarray]) -> np.ndarray:
        out = self.exact_logp(obs_by_name)
        for name in self.names:
            out = out - self.exact_marginal_logp(name, obs_by_name[name])
        return out

    def posterior(self, obs_by_name: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Exact p(z | given modalities): (mean (B, L), var (L,)), diagonal."""
        precision = np.ones(self.latent_dim)
        rhs = 0.0
        for name, obs in obs_by_name.items():
            a = self.loadings[name]
            precision = precision + np.diag(a.T @ a) / self.noise_var
            rhs = rhs + np.atleast_2d(obs) @ a / self.noise_var
        var = 1.0 / precision
        return rhs * var, var

    def sample_pairs(self, n: int, seed: int) -> dict[str, np.ndarray]:
        rng = derive_rng(seed, tag("oracle_pairs"))
        z = rng.standard_normal((n, self.latent_dim))
        out = {}
        for name in self.names:
            a = self.loadings[name]
            out[name] = z @ a.T + np.sqrt(self.noise_var) * rng.standard_normal((n, a.shape[0]))
        return out


def _gaussian_logpdf(rows: np.ndarray, cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    white = np.linalg.solve(chol, rows.T).T
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (dim * np.log(2.0 * np.pi) + log_det + np.sum(white * white, axis=1))


class AnalyticLinearModel(MultimodalModel):
    """A MultimodalModel with the oracle's exact posteriors and likelihoods.

    Optional perturbation widens the posterior scale and shifts its mean,
    turning the estimator identities into strict inequalities for the
    sandwich tests.  joint_kind "explicit" uses the exact joint posterior;
    "poe" and "moe" combine the unimodal posteriors as a trained model
    does, so the shipped joint-posterior code runs against exact values.
    """

    def __init__(self, oracle: LinearGaussianOracle, scale: float = 1.0, shift: float = 0.0,
                 joint_kind: str = "explicit"):
        super().__init__(modalities=[ModalitySpec(name, oracle.loadings[name].shape[0], "gaussian")
                                     for name in oracle.names],
                         latent_dim=oracle.latent_dim, joint_kind=joint_kind)
        self.oracle = oracle
        self.scale = scale
        self.shift = shift

    def _posterior(self, obs_by_name: dict) -> DiagonalGaussian:
        mean, var = self.oracle.posterior(obs_by_name)
        mean = mean + self.shift
        log_var = np.broadcast_to(np.log(var * self.scale ** 2), mean.shape)
        return DiagonalGaussian(mean=Tensor.const(mean), log_var=Tensor.const(log_var.copy()))

    def encode_unimodal(self, name: str, obs) -> DiagonalGaussian:
        return self._posterior({name: obs})

    def encode_joint(self, obs_by_modality: dict) -> DiagonalGaussian:
        if self.joint_kind != "explicit":
            return super().encode_joint(obs_by_modality)
        return self._posterior({m.name: obs_by_modality[m.name] for m in self.modalities})

    def decode(self, name: str, z: Tensor):
        a = self.oracle.loadings[name]
        flat = z.reshape(-1, self.latent_dim) if z.ndim == 3 else z
        mean = affine(flat, Tensor.const(a.T), Tensor.const(np.zeros(a.shape[0])))
        mean = mean.reshape(z.shape[:-1] + (a.shape[0],))
        log_var = Tensor.const(np.full(a.shape[0], np.log(self.oracle.noise_var)))
        return DiagonalGaussian(mean=mean, log_var=log_var)


def make_oracle(obs_dims=(2, 2), latent_dim: int = 1, noise_var: float = 1.0,
                loading_scale: float = 2.0, names=("m1", "m2"), seed: int = 0) -> LinearGaussianOracle:
    """Oracle with orthogonal-column loadings of a controlled scale."""
    rng = derive_rng(seed, tag("oracle_loadings"))
    loadings = {}
    for name, d in zip(names, obs_dims):
        raw = rng.standard_normal((d, latent_dim))
        q, _ = np.linalg.qr(raw)
        loadings[name] = loading_scale * q[:, :latent_dim]
    return LinearGaussianOracle(loadings=loadings, noise_var=noise_var)


# -- the four metrics ---------------------------------------------------------------


def _ridge_fit_predict(train_z, train_y, test_z, num_classes: int, ridge: float = 1e-3):
    x = np.concatenate([train_z, np.ones((len(train_z), 1))], axis=1)
    targets = np.eye(num_classes)[train_y]
    gram = x.T @ x + ridge * np.eye(x.shape[1])
    w = np.linalg.solve(gram, x.T @ targets)
    xt = np.concatenate([test_z, np.ones((len(test_z), 1))], axis=1)
    return np.argmax(xt @ w, axis=1)


def linear_probe_accuracy(z: np.ndarray, labels: np.ndarray, num_classes: int,
                          split_seed: int = 41, ridge: float = 1e-3) -> float:
    """Held-out accuracy of a ridge-regularized linear classifier (80/20 split)."""
    if len(np.unique(labels)) < 2:
        raise ValueError("latent accuracy needs at least two classes present")
    n = len(labels)
    perm = derive_rng(split_seed, tag("probe_split")).permutation(n)
    cut = max(1, int(0.8 * n))
    tr, te = perm[:cut], perm[cut:]
    pred = _ridge_fit_predict(z[tr], labels[tr], z[te], num_classes, ridge)
    return 100.0 * float(np.mean(pred == labels[te]))


def latent_accuracy(model, ds, seed: int = 0) -> dict[str, float]:
    """Linear separability of the shared factor in posterior samples.

    Mixture models report one accuracy per unimodal encoder; other joint
    kinds draw from the single joint posterior and report that value under
    every modality name.
    """
    obs = ds.pair_observations()
    labels_by = ds.pair_labels()
    names = list(ds.spec.modality_names)
    truth = labels_by[names[0]]
    out = {}
    if model.joint_kind == "moe":
        for name in names:
            q = model.encode_unimodal(name, obs[name])
            noise = per_row_normal(seed, f"latent_acc.{name}", obs[name], (model.latent_dim,))
            z = q.rsample(Tensor.const(noise)).value
            out[name] = linear_probe_accuracy(z, labels_by[name], ds.spec.num_classes)
    else:
        z, _ = model.joint_posterior_samples(obs, 1, seed)
        acc = linear_probe_accuracy(z.value[:, 0, :], truth, ds.spec.num_classes)
        for name in names:
            out[name] = acc
    return out


def joint_coherence(model, n: int, oracles: dict[str, OracleClassifier], seed: int = 0) -> float:
    """Class agreement between modalities generated from one prior draw."""
    gen = model.joint_generate(n, seed)
    names = sorted(gen)
    a = oracles[names[0]].classify(gen[names[0]])
    b = oracles[names[1]].classify(gen[names[1]])
    return 100.0 * float(np.mean(a == b))


def cross_coherence(model, ds, oracles: dict[str, OracleClassifier], seed: int = 0) -> dict[str, float]:
    """Per-direction class preservation of cross-modal generation."""
    obs = ds.pair_observations()
    labels_by = ds.pair_labels()
    names = list(ds.spec.modality_names)
    out = {}
    for source, target in ((names[0], names[1]), (names[1], names[0])):
        gen = model.cross_generate(source, target, obs[source], seed)
        pred = oracles[target].classify(gen)
        out[f"{source}->{target}"] = 100.0 * float(np.mean(pred == labels_by[source]))
    return out


def synergy_coherence(model, ds, oracles: dict[str, OracleClassifier], seed: int = 0) -> float:
    """Both decoded classes match the truth, from a joint-posterior draw.

    Mixture-posterior models never sample an explicit joint posterior, so
    the quantity is undefined for them: NaN.
    """
    if model.joint_kind == "moe":
        return math.nan
    obs = ds.pair_observations()
    labels_by = ds.pair_labels()
    names = list(ds.spec.modality_names)
    truth = labels_by[names[0]]
    z, _ = model.joint_posterior_samples(obs, 1, seed)
    flat = z.reshape(z.shape[0], z.shape[2])
    ok = np.ones(len(truth), dtype=bool)
    for name in names:
        pred = oracles[name].classify(model.decode(name, flat).mean.value)
        ok &= pred == truth
    return 100.0 * float(np.mean(ok))
