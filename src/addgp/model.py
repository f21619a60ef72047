"""Shared data model: datasets, additive components, variational states.

A model is a list of components, each owning a kernel, the global input
columns it looks at, and its inducing inputs in the projected space (for
the dense model, its projected training inputs, so M = N). States carry
the posterior parameters: the mean coefficients ``alpha``, with
q(U) = N(K_UU alpha, Sigma_U), and either the coupling factor ``B``
(sparse) or the per-datum coupling diagonal ``lambda`` (dense). Block
layout is component-major throughout: entries ``c*M:(c+1)*M`` of alpha,
and the same rows of B, belong to component c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as _kernels
from .errors import DataError, DimensionMismatch, InvalidRank

COUPLED = "coupled"
MEAN_FIELD = "meanfield"
FULL = "full"

STRUCTURES = (COUPLED, MEAN_FIELD)


@dataclass
class Dataset:
    """Supervised regression data; X is (N, D), Y is (N,)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.asarray(self.Y, dtype=float).ravel()
        if self.X.shape[0] != self.Y.shape[0]:
            raise DimensionMismatch(
                f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}"
            )
        if self.X.shape[0] == 0:
            raise DimensionMismatch("dataset is empty")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise DataError("dataset contains NaN or infinite entries")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


@dataclass
class ComponentSpec:
    """One additive component: a kernel over selected input columns plus
    its inducing inputs (in the projected space of those columns). The
    kernel's own active dims index the projected columns."""

    kernel: _kernels.Kernel
    active_dims: tuple
    Z: np.ndarray

    def __post_init__(self):
        self.active_dims = tuple(int(d) for d in self.active_dims)
        self.Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        if self.Z.shape[1] != len(self.active_dims):
            raise DimensionMismatch(
                f"Z has {self.Z.shape[1]} columns for {len(self.active_dims)} "
                "active dims"
            )
        if self.m < 1:
            raise DimensionMismatch("component has no inducing points")
        if not np.all(np.isfinite(self.Z)):
            raise DataError("inducing inputs contain NaN or infinite entries")
        if any(not 0 <= d < len(self.active_dims) for d in self.kernel.active_dims):
            raise DimensionMismatch(
                f"kernel reads local columns {self.kernel.active_dims} of "
                f"{len(self.active_dims)} projected columns"
            )

    @property
    def m(self):
        return self.Z.shape[0]

    def project(self, X):
        """Select this component's columns from a full-width input array."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if any(not 0 <= j < X.shape[1] for j in self.active_dims):
            raise DimensionMismatch(f"reads input columns {self.active_dims} of {X.shape[1]}")
        return X[:, list(self.active_dims)]


@dataclass
class VariationalState:
    """Posterior parameters of the sparse model.

    ``alpha`` has length M*C; ``B`` is (M*C, R) and adds the low-rank term
    ``B B^T`` to the prior precision of the inducing variables. Under the
    mean-field structure R equals M*C and only the diagonal M x M blocks
    are parameters: the bound and training read and move nothing else,
    and the read paths split B into those blocks when it is zero
    elsewhere.
    """

    alpha: np.ndarray
    B: np.ndarray
    structure: str = COUPLED

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).ravel()
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if self.B.shape[0] != self.alpha.shape[0]:
            raise DimensionMismatch(
                f"B has {self.B.shape[0]} rows but alpha has {len(self.alpha)}"
            )
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")

    @property
    def r(self):
        return self.B.shape[1]


@dataclass
class FullVariationalState:
    """Posterior parameters of the dense model: alpha (N*C) and the
    per-datum coupling diagonal lambda (N)."""

    alpha: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).ravel()
        self.lam = np.asarray(self.lam, dtype=float).ravel()
        if len(self.alpha) % len(self.lam):
            raise DimensionMismatch(
                f"alpha length {len(self.alpha)} is not a multiple of "
                f"lambda length {len(self.lam)}"
            )


@dataclass
class PredictorMarginals:
    """Gaussian marginals of the summed predictor at a set of points, plus
    optional per-component marginals as (mean, variance) pairs."""

    mu_sum: np.ndarray
    var_sum: np.ndarray
    per_component: list = None


def mean_field_mask(m, c):
    """Boolean (M*C, M*C) mask of the entries a block-diagonal B may use."""
    return np.kron(np.eye(c, dtype=bool), np.ones((m, m), dtype=bool))


def check_mean_field(B, m, c):
    """Raise unless B has the mean-field layout: (M*C, M*C) and zero off its
    diagonal M x M blocks, which are all that the bound, its gradients and
    the marginals read."""
    B = np.asarray(B)
    if B.shape != (m * c, m * c):
        raise InvalidRank(f"mean-field B must be ({m * c}, {m * c}), got {B.shape}")
    if B[~mean_field_mask(m, c)].any():
        raise DimensionMismatch(
            f"mean-field B has nonzero entries off its diagonal {m} x {m} blocks"
        )


def init_state(specs, structure=COUPLED, r=None):
    """Prior-matching start: alpha = 0 and a zero coupling, so the posterior
    equals the prior and the KL term is exactly zero.

    ``r`` defaults to M for the coupled structure; the mean-field structure
    always uses R = M*C (block-diagonal layout). Dense specs have Z = X, so M = N.
    """
    m = specs[0].m
    c = len(specs)
    if structure == FULL:
        return FullVariationalState(alpha=np.zeros(m * c), lam=np.zeros(m))
    if structure == MEAN_FIELD:
        if r is not None and r != m * c:
            raise InvalidRank("mean-field structure requires R == M*C")
        r = m * c
    else:
        r = m if r is None else int(r)
        if r < 1:
            raise InvalidRank(f"coupling rank must be >= 1, got {r}")
    return VariationalState(
        alpha=np.zeros(m * c), B=np.zeros((m * c, r)), structure=structure
    )


def inducing_grid(m, active_dims):
    """Regularly spaced inducing inputs for a component.

    One dimension: m points on [0, 1]. Two dimensions: the smallest g x g
    product grid with g*g >= m, truncated to the first m points in
    row-major order (g*g == m gives the exact grid).
    """
    nd = len(active_dims)
    if nd == 1:
        return np.linspace(0.0, 1.0, m)[:, None]
    if nd == 2:
        g = int(np.ceil(np.sqrt(m)))
        axis = np.linspace(0.0, 1.0, g)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        return pts[:m]
    raise DimensionMismatch(
        f"regular inducing grids support 1 or 2 dims, got {nd}"
    )


def anova_specs(g_params, sigma0, m=16, ndim=6, learn_sigma0=True):
    """Component specs for the additive main-effects-plus-interaction model
    on the unit box, with regularly spaced inducing grids (shared size m)."""
    comps = _kernels.build_anova_kernel(
        g_params, sigma0, ndim=ndim, learn_sigma0=learn_sigma0
    )
    specs = []
    for kern, dims in comps:
        specs.append(
            ComponentSpec(kernel=kern, active_dims=dims, Z=inducing_grid(m, dims))
        )
    return specs
