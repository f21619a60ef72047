"""Additive Gaussian-process regression with coupled sparse variational
posteriors.

The package fits models of the form y = sum_c f_c(x) + noise, where each
f_c is a GP over a small group of input columns. The variational posterior
keeps the prior precision plus a learned low-rank term, which carries the
between-component couplings the additive likelihood induces while keeping
evaluation cost at a handful of small factorizations. A dense reference
implementation, exact conjugate oracles, an ANOVA-style decomposition
kernel, and a CLI (``addgp``) round it out.
"""

from . import data, exact, full, io, kernels, likelihoods, linalg, model, sparse
from .errors import (
    BlasThreadsError,
    CapExceeded,
    DataError,
    DimensionMismatch,
    DomainError,
    InvalidRank,
    ModelFormatError,
    NotPositiveDefinite,
)
from .exact import dense_gaussian_kl, exact_component_posterior, exact_sum_posterior
from .full import FullModel
from .io import Rescale, SavedModel, load_model, save_model
from .kernels import (
    Constant,
    KernelParams,
    Product,
    SquaredExp,
    Sum,
    ZeroMeanSE,
    build_anova_kernel,
    se_double_integral,
    se_mean_embedding,
)
from .likelihoods import Gaussian, Poisson
from .model import (
    COUPLED,
    FULL,
    MEAN_FIELD,
    ComponentSpec,
    Dataset,
    FullVariationalState,
    PredictorMarginals,
    VariationalState,
    anova_specs,
    init_state,
)
from .optimize import TrainConfig, TrainResult
from .sparse import SparseModel

__version__ = "0.1.0"
