"""Shared builders for the test suite.

Random instances are always drawn from an explicitly seeded generator so
every failure is reproducible. Dense reference quantities are assembled
from stacked blocks with plain numpy solves; in particular the posterior
covariance uses the downdate form

    Sigma = K - K B (I + B^T K B)^{-1} B^T K

rather than inverting K^{-1} + B B^T directly, which loses eight digits
on badly conditioned kernel matrices and would test the oracle instead of
the code.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from addgp import ComponentSpec, Dataset, FullModel, Gaussian, KernelParams, SquaredExp
from addgp import anova_specs
from addgp.data import sample_friedman
from addgp.model import init_state


def make_specs(rng, c, m, d=1, ls_range=(0.1, 0.35), X=None, grid_z=False):
    """Random squared-exponential components on shared columns 0..d-1.

    When ``X`` is given the inducing inputs are copies of it (the dense
    parameterization); otherwise each component gets its own random Z,
    either uniform or, with ``grid_z``, jittered grid points. The grid
    keeps inducing points separated so the prior Gram matrices stay well
    conditioned; dense reference computations need that to hit 1e-8.
    """
    specs = []
    for _ in range(c):
        kern = SquaredExp(
            KernelParams(
                np.log(rng.uniform(0.5, 2.0)),
                np.log(rng.uniform(*ls_range, size=d)),
            ),
            active_dims=tuple(range(d)),
        )
        if X is not None:
            Z = X.copy()
        elif grid_z:
            Z = (np.arange(m)[:, None] + rng.uniform(0.1, 0.9, size=(m, d))) / m
        else:
            Z = rng.uniform(0.0, 1.0, size=(m, d))
        specs.append(ComponentSpec(kern, tuple(range(d)), Z))
    return specs


def random_sparse_state(rng, specs, r=None, scale=0.7):
    """A generic (non-degenerate) coupled state for the given components."""
    state = init_state(specs, r=r)
    mc = len(state.alpha)
    state.alpha = rng.normal(size=mc)
    state.B = rng.normal(size=(mc, state.r)) * scale
    return state


def gaussian_dataset(rng, n, d=1, noise_sd=0.7):
    X = rng.uniform(0.0, 1.0, size=(n, d))
    Y = rng.normal(0.0, 1.0, size=n) + rng.normal(0.0, noise_sd, size=n)
    return Dataset(X, Y)


def dense_blocks(specs, X=None):
    """Stacked dense prior pieces: block-diagonal K over inducing variables
    and, when X is given, the cross matrix F with F[:, block_c] = K_c(X, Z_c)."""
    c = len(specs)
    m = specs[0].m
    K = np.zeros((m * c, m * c))
    for ci, s in enumerate(specs):
        K[ci * m : (ci + 1) * m, ci * m : (ci + 1) * m] = s.kernel.eval(s.Z)
    if X is None:
        return K
    F = np.zeros((X.shape[0], m * c))
    for ci, s in enumerate(specs):
        F[:, ci * m : (ci + 1) * m] = s.kernel.eval(s.project(X), s.Z)
    return K, F


def woodbury_cov(K, B):
    """Sigma = (K^{-1} + B B^T)^{-1} without forming K^{-1}."""
    r = B.shape[1]
    KB = K @ B
    inner = np.eye(r) + B.T @ KB
    return K - KB @ np.linalg.solve(inner, KB.T)


def central_diff(fun, x0, eps=1e-6):
    """Dense central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    g = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        g[i] = (fun(xp) - fun(xm)) / (2.0 * eps)
    return g


def conjugate_instance(seed, n, c, d=3, ls_range=(0.2, 0.5), noise=(0.3, 0.8)):
    """A Gaussian-noise instance with the dense parameterization (Z == X)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    specs = make_specs(rng, c, n, d=d, ls_range=ls_range, X=X)
    sigma2 = float(rng.uniform(*noise))
    Y = rng.normal(0.0, 1.0, size=n) + rng.normal(0.0, np.sqrt(sigma2), size=n)
    return specs, Dataset(X, Y), sigma2, Gaussian(np.log(sigma2))


def dense_friedman_model(n, seed=3):
    """A dense model as the CLI builds one for ``sample_friedman(n, seed=0)``:
    anova components (m = 16, C = 7) and a generic state drawn from ``seed``."""
    X, Y = sample_friedman(n, seed=0)
    var0, sigma0 = max(float(np.var(Y)) / 7, 1e-2), max(float(np.var(Y)), 1e-2)
    g = [KernelParams(np.log(var0), np.array([np.log(0.3)])) for _ in range(8)]
    model = FullModel(anova_specs(g, sigma0, m=16, ndim=6), Gaussian(0.0), Dataset(X, Y))
    rng = np.random.default_rng(seed)
    model.state.alpha = rng.normal(size=model.c * n) * 0.05
    model.state.lam = rng.normal(size=n) * 0.5 + 1.0
    return model


def run_fresh(snippet, timeout=300):
    """Run ``snippet`` in a fresh interpreter, with the package and this
    module importable and every OpenBLAS copy pinned to one thread (started
    with one by the environment, then checked by ``linalg.blas_threads``), and
    return the JSON it prints on its last line of output. For counts that
    depend on the state of the process, such as page faults, which an earlier
    test would change."""
    here = Path(__file__).resolve().parent
    dirs = (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH"))
    path = os.pathsep.join(d for d in dirs if d)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    code = "from addgp.linalg import blas_threads\nwith blas_threads(1):\n"
    code += textwrap.indent(textwrap.dedent(snippet), "    ")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode:
        raise RuntimeError(f"snippet failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])
