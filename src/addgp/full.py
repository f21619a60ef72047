"""Dense variational inference for additive predictors.

The posterior over the stacked component values F = (f_1, ..., f_C) at the
N training inputs keeps the prior-precision-plus-low-rank form

    Sigma_F^{-1} = K_FF^{-1} + (1_C (x) Lambda)(1_C (x) Lambda)^T,

with Lambda = diag(lambda), lambda in R^N unconstrained, and the mean
parameterized as K_FF alpha. This is the sparse coupled posterior with
inducing inputs Z_c = X and the tied diagonal B_c = Lambda for every c (the
per-datum-precision form of Opper & Archambeau 2009), so marginals,
prediction, decomposition, the bound and its gradients, and training are
the sparse module's (``sparse.Posterior``, ``sparse.AdditiveModel``). With
that coupling the capacitance is the N x N matrix

    A = I + Lambda (sum_c K_c) Lambda,

so one O(N^3) factorization per evaluation covers any number of components.
What stays here is the dense model's data: Z_c = X in its specs (M = N),
the Grams there, one cached stack rewritten in place (they are also its cross
blocks, so the hyperparameter gradient needs one kernel evaluation per
component; an SE leaf builds its Gram in its slot), five N x N buffers that
the bound writes over, the size cap (N <= 5000) and the start off lambda = 0.
Stack and buffers are allocated once, so a warm evaluation maps little new
memory. This is the reference implementation: cubic in N by design.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import model as _model
from . import sparse as _sparse
from .errors import CapExceeded, DimensionMismatch
# importable by name for instrumentation that wraps the linear algebra per module
from .linalg import cholesky, logdet_from_chol, solve_from_chol, tri_solve  # noqa: F401

N_CAP = 5000
N_WARN = 2000


class FullModel(_sparse.AdditiveModel):
    """Additive model with the dense coupled posterior.

    Parameters live in ``self.state`` (a FullVariationalState); kernels and
    the likelihood own their hyperparameters. ``specs`` provide kernels and
    active dims; ``self.specs`` keeps them with the training inputs as Z.
    """

    coupling = "lam"

    def __init__(self, specs, likelihood, dataset, state=None):
        if dataset.n > N_CAP:
            raise CapExceeded(
                f"dense model is O(N^3) and capped at N={N_CAP}; "
                f"got N={dataset.n}. Use the sparse model instead."
            )
        if dataset.n > N_WARN:
            warnings.warn(
                f"dense model with N={dataset.n} will be slow; the sparse "
                "model scales much better",
                RuntimeWarning,
                stacklevel=2,
            )
        super().__init__(specs, likelihood, dataset, state, _model.FULL)
        if len(self.state.lam) != self.n:
            raise DimensionMismatch(f"lambda has length {len(self.state.lam)}, expected {self.n}")
        self._cache = np.empty((self.c, self.n, self.n)), np.empty((self.n, self.n))
        self._work = (*np.empty((4, self.n, self.n)), np.empty((self.n, self.n + 1)))

    def _with_inducing(self, spec, xp):
        """Z_c = X: the spec with its projected training inputs as Z."""
        return _model.ComponentSpec(kernel=spec.kernel, active_dims=spec.active_dims, Z=xp)

    def _prior_blocks(self, pullbacks=False):
        """(C, N, N) Grams at the training inputs, written into the cached stack
        and re-keyed, their sum Ksum, and rows that give the summed prior
        diagonal (no cross block): the Grams are the cross blocks, so one kernel
        evaluation serves all and a pullback takes their one weight and the
        diagonal's (``Posterior.kernel_weights``)."""
        key, self._cache_key = self._hyper_key(), None  # stale while written
        karr, ksum = self._cache[:2]
        pbs = []
        for ci, (s, xp) in enumerate(zip(self.specs, self._xp)):
            karr[ci], _, pb = s.kernel.cross_with_pullback(xp, out=karr[ci])
            if pullbacks:  # a pullback keeps its kernel's blocks alive
                pbs.append(lambda gk, gf, gs, pb=pb: pb(gf, gs))
        np.sum(karr, axis=0, out=ksum)
        d0 = np.diagonal(karr, axis1=1, axis2=2).sum(axis=0)
        self._cache, self._cache_key = (karr, ksum, lambda rows: (None, d0[rows], [])), key
        return karr, ksum, lambda rows: (None, d0[rows], pbs)

    def _row_slices(self):
        """All N rows in one block: Gram and row weights meet in one pullback."""
        return [slice(0, self.n)]

    # -- training hooks ------------------------------------------------------

    def _perturb_start(self, seed, restart=False):
        """Nudge lambda off the exact-zero saddle (the bound is even in
        lambda, so the gradient vanishes identically there); restarts draw
        it at random."""
        if not np.any(self.state.lam):
            if restart:
                rng = np.random.default_rng(seed)
                self.state.lam[...] = rng.normal(0.0, 1.0 / np.sqrt(self.n), self.n)
            else:
                self.state.lam[...] = 1e-2


def predict_marginals(specs, alpha, lam, Xq, include_components=False):
    """Predictive marginals of the dense model at query points; ``specs``
    must carry the projected training inputs as Z (``FullModel.specs``)."""
    return _sparse.predict_marginals(specs, alpha, lam, Xq, include_components)


def decompose(specs, alpha, lam, grids):
    """Per-component effects of a dense model on per-component grids, as
    (grid, mean, variance) triples; ``specs`` as for ``predict_marginals``."""
    return _sparse.decompose(specs, alpha, lam, grids)
