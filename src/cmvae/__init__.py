"""Contrastive multimodal VAE toolkit.

Trains multimodal generative models on the distinction between related and
unrelated cross-modality pairs, estimates joint likelihoods with
ELBO/IWAE/CUBO bounds, and propagates relatedness labels by thresholding
pointwise mutual information.
"""

from .autodiff import Tensor, backward
from .bounds import joint_bound, unimodal_marginal
from .data import FactorSpec, PairedDataset, generate_unimodal, pair_random, pair_related, subset
from .distributions import DiagonalGaussian, FactorBernoulli, gaussian_log_prob, gaussian_product, rsample
from .models import ModalitySpec, MultimodalModel, build_model
from .objective import ObjectiveConfig, draw_negatives, final_objective
from .relatedness import PropagationConfig, PropagationReport, estimate_threshold, pmi, propagate
from .training import RunConfig, TrainState, run_pipeline, train

__all__ = [
    "Tensor", "backward",
    "joint_bound", "unimodal_marginal",
    "FactorSpec", "PairedDataset", "generate_unimodal", "pair_related", "pair_random", "subset",
    "DiagonalGaussian", "FactorBernoulli", "gaussian_log_prob", "gaussian_product", "rsample",
    "ModalitySpec", "MultimodalModel", "build_model",
    "ObjectiveConfig", "draw_negatives", "final_objective",
    "PropagationConfig", "PropagationReport", "pmi", "estimate_threshold", "propagate",
    "RunConfig", "TrainState", "train", "run_pipeline",
]

__version__ = "0.1.0"
