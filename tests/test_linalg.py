"""Factorization helpers against plain numpy/scipy references."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from addgp import DimensionMismatch, NotPositiveDefinite
from addgp.linalg import (
    cholesky,
    inverse_from_tri_inverse,
    logdet_from_chol,
    solve_from_chol,
    sym_square,
    tri_inverse,
    tri_mul,
    tri_solve,
)


def _spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = np.linspace(1.0, cond, n)
    return (q * eig) @ q.T


def test_cholesky_reconstructs():
    rng = np.random.default_rng(0)
    a = _spd(rng, 8)
    L = cholesky(a)
    assert np.allclose(L @ L.T, a, atol=1e-12)
    assert np.allclose(np.triu(L, 1), 0.0)


def test_cholesky_rejects_indefinite():
    a = np.diag([1.0, -0.5, 2.0])
    with pytest.raises(NotPositiveDefinite):
        cholesky(a)


def test_cholesky_rejects_non_finite():
    # LAPACK would factor these silently; the wrapper must refuse
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([np.inf, 1.0]))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([np.nan, 1.0]))


def test_tri_solve_matches_numpy():
    rng = np.random.default_rng(1)
    a = _spd(rng, 6)
    L = cholesky(a)
    rhs = rng.normal(size=(6, 3))
    assert np.allclose(tri_solve(L, rhs), np.linalg.solve(L, rhs), atol=1e-12)
    assert np.allclose(
        tri_solve(L, rhs, transpose=True), np.linalg.solve(L.T, rhs), atol=1e-12
    )


def test_solve_from_chol_matches_direct_solve():
    rng = np.random.default_rng(2)
    a = _spd(rng, 7)
    rhs = rng.normal(size=(7, 2))
    L = cholesky(a)
    assert np.allclose(solve_from_chol(L, rhs), np.linalg.solve(a, rhs), atol=1e-10)


def test_logdet_from_chol_matches_slogdet():
    rng = np.random.default_rng(3)
    a = _spd(rng, 9, cond=50.0)
    L = cholesky(a)
    sign, ref = np.linalg.slogdet(a)
    assert sign == 1.0
    assert abs(logdet_from_chol(L) - ref) < 1e-10


@pytest.mark.parametrize("n", [1, 16, 112, 500])
def test_tri_inverse_matches_solves(n):
    rng = np.random.default_rng(n)
    L = cholesky(_spd(rng, n, cond=1e3))
    linv = tri_inverse(L)
    ref = tri_solve(L, np.eye(n))
    assert np.array_equal(linv, np.tril(linv))
    assert np.max(np.abs(linv - ref)) <= 1e-12 * np.max(np.abs(ref))
    p = inverse_from_tri_inverse(linv)
    ref = solve_from_chol(L, np.eye(n))
    assert np.array_equal(p, p.T)
    assert np.max(np.abs(p - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_tri_inverse_rejects_singular_factor():
    with pytest.raises(NotPositiveDefinite):
        tri_inverse(np.diag([1.0, 0.0, 2.0]))


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


@pytest.mark.parametrize("n", [1, 16, 500])
def test_tri_mul_matches_numpy(n):
    # either triangle, the factor in C or Fortran order (the two ways it is
    # handed to BLAS) and the other operand in either order; the triangle
    # not named is never read
    rng = np.random.default_rng(n)
    x = rng.normal(size=(7, n))
    for lower in (True, False):
        full = rng.normal(size=(n, n))
        ref = x @ (np.tril(full) if lower else np.triu(full))
        for tri in (full, np.asfortranarray(full)):
            for xs in (x, np.asfortranarray(x)):
                got = tri_mul(xs, tri, lower=lower)
                assert got.shape == ref.shape
                assert _rel_err(got, ref) <= 1e-12


@pytest.mark.parametrize("n", [1, 16, 500])
def test_sym_square_matches_numpy(n):
    rng = np.random.default_rng(n + 1)
    a = rng.normal(size=(n, n + 3))
    for arr in (a, np.asfortranarray(a)):
        got = sym_square(arr)
        assert np.array_equal(got, got.T)
        assert _rel_err(got, a @ a.T) <= 1e-12


@pytest.mark.parametrize("n", [1, 37, 300])
def test_symmetrizing_helpers_copy_the_triangle_in_place(n):
    # bit for bit and in the memory order of the triangle plus its
    # transpose, and at n = 300 no more than a tenth of an n x n array
    # allocated beyond the result
    rng = np.random.default_rng(n + 2)
    a = rng.normal(size=(n, n + 3))
    a[n // 2] = 0.0
    linv = tri_inverse(cholesky(_spd(rng, n)))
    c = blas.dsyrk(1.0, a.T, trans=1)
    p, _ = lapack.dlauum(linv.T, lower=0)
    for f, x, tri in ((sym_square, a, c), (inverse_from_tri_inverse, linv, p)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = f(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ref = tri + np.triu(tri, 1).T
        assert got.tobytes("A") == ref.tobytes("A"), f.__name__
        assert got.flags.f_contiguous == ref.flags.f_contiguous, f.__name__
        if n == 300:
            assert peak <= 1.1 * 8 * n * n, (f.__name__, peak / (8 * n * n))


@pytest.mark.parametrize("n", [1, 37, 300])
def test_in_place_forms_write_over_their_buffers_to_the_same_bits(n):
    # A, then L, then L^{-1} in one buffer, as the dense bound takes them,
    # and each result the bits of the copying form
    rng = np.random.default_rng(n + 3)
    a = _spd(rng, n)
    L = cholesky(a)
    linv = tri_inverse(L)
    buf = np.asfortranarray(a)
    got = buf
    for step, ref in ((cholesky, L), (tri_inverse, linv)):
        got = step(got, overwrite=True)
        assert np.shares_memory(got, buf) and got.tobytes("A") == ref.tobytes("A")
    out = np.empty((n, n))
    assert np.shares_memory(sym_square(got, out=out), out)
    assert np.array_equal(out, sym_square(got))
    x = rng.normal(size=(n + 2, n))
    for tri, lower in ((linv, True), (linv.T, False)):
        ref, y = tri_mul(x, tri, lower), np.empty_like(x)
        assert np.shares_memory(tri_mul(x, tri, lower, out=y), y) and np.array_equal(y, ref)
        assert np.shares_memory(tri_mul(y, tri, lower, out=y), y)
        assert np.array_equal(y, tri_mul(ref, tri, lower))


def test_blas_helpers_reject_bad_shapes():
    with pytest.raises(DimensionMismatch):
        tri_mul(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        tri_mul(np.ones((2, 4)), np.ones((3, 3)))
    with pytest.raises(DimensionMismatch):
        tri_mul(np.ones(3), np.ones((3, 3)))
    with pytest.raises(DimensionMismatch):
        sym_square(np.ones(3))
    with pytest.raises(DimensionMismatch):
        sym_square(np.ones((2, 2, 2)))
