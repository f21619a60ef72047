"""Dense linear algebra primitives: Cholesky factors, triangular solves,
log-determinants, and the thread count of the BLAS underneath them.

Everything but the thread control is a pure function on float64 arrays,
except that ``overwrite`` or ``out`` lets LAPACK or BLAS write the result
over a contiguous input or buffer. All downstream code funnels its
factorizations through this module so the error taxonomy lives in one place.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

import numpy as np
from scipy.linalg import blas, lapack

from .errors import BlasThreadsError, DimensionMismatch, NotPositiveDefinite


def cholesky(m, overwrite=False):
    """Lower Cholesky factor of ``m``; NotPositiveDefinite if LAPACK rejects it.
    With ``overwrite`` a Fortran-ordered ``m`` is written over: L^T there."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    # LAPACK passes inf/nan matrices through without complaint, returning
    # garbage factors; treat them as the definiteness failures they are
    if not np.all(np.isfinite(m)):
        raise NotPositiveDefinite(
            f"matrix of shape {m.shape} contains non-finite entries"
        )
    # LAPACK's column-major upper factor U of the symmetric m transposes to
    # a row-major L without a copy, and ``tri_inverse`` inverts L^T = U
    U, info = lapack.dpotrf(m, lower=0, overwrite_a=overwrite)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky failed on a {m.shape[0]}x{m.shape[0]} matrix")
    return U.T


def tri_solve(L, rhs, transpose=False):
    """Solve ``L x = rhs`` (or ``L^T x = rhs`` when ``transpose``) for
    lower-triangular ``L``."""
    L = np.asarray(L, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch(f"triangular factor must be square, got {L.shape}")
    if rhs.shape[0] != L.shape[0]:
        raise DimensionMismatch(
            f"rhs has leading dimension {rhs.shape[0]}, factor is {L.shape[0]}"
        )
    # LAPACK trtrs as scipy's solve_triangular calls it, without that
    # wrapper's per-call checks: a C-ordered L goes in as its transpose
    a, lower, trans = (L, 1, transpose) if L.flags.f_contiguous else (L.T, 0, not transpose)
    x, info = lapack.dtrtrs(a, rhs, lower=lower, trans=int(trans))
    if info != 0:
        raise NotPositiveDefinite(f"triangular solve failed on a {len(L)}x{len(L)} factor")
    return x


def solve_from_chol(L, rhs):
    """Solve ``(L L^T) x = rhs`` with two triangular solves."""
    return tri_solve(L, tri_solve(L, rhs), transpose=True)


def tri_inverse(L, overwrite=False):
    """``L^{-1}`` of a lower-triangular ``L`` through LAPACK ``trtri``."""
    uinv, info = lapack.dtrtri(np.asarray(L, dtype=float).T, lower=0, overwrite_c=overwrite)
    if info != 0:
        raise NotPositiveDefinite(f"inverse failed on a {len(L)}x{len(L)} factor")
    return uinv.T


def tri_mul(x, tri, lower=True, out=None):
    """``x @ tri`` through BLAS ``trmm`` (half a general product's flops),
    reading only the lower (or upper) triangle of ``tri``, written over a
    C-ordered ``out`` (which may be ``x``) if given; C-ordered operands go in
    as Fortran-ordered transposes, so the wrapper copies neither."""
    x, tri = np.asarray(x, dtype=float), np.asarray(tri, dtype=float)
    if x.ndim != 2 or tri.ndim != 2 or not x.shape[1] == tri.shape[0] == tri.shape[1]:
        raise DimensionMismatch(f"cannot multiply {x.shape} by a square factor {tri.shape}")
    a, trans, low = (tri, 1, lower) if tri.flags.f_contiguous else (tri.T, 0, not lower)
    if out is not None:
        np.copyto(out, x)  # which numpy skips when out is x
    b = x.T if out is None else out.T
    return blas.dtrmm(1.0, a, b, lower=low, trans_a=trans, overwrite_b=out is not None).T


def sym_square(a, out=None):
    """``a a^T`` through BLAS ``syrk``, which writes one triangle at half a
    general product's flops (into the C-ordered ``out`` if given):
    symmetrized in place."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or not a.size:  # the BLAS wrapper rejects empty operands
        raise DimensionMismatch(f"expected a nonempty matrix, got shape {a.shape}")
    a, trans = (a, 0) if a.flags.f_contiguous else (a.T, 1)
    c = None if out is None else out.T
    return _symmetrize(blas.dsyrk(1.0, a, c=c, trans=trans, overwrite_c=c is not None))


def inverse_from_tri_inverse(linv):
    """``(L L^T)^{-1} = L^{-T} L^{-1}`` from a lower-triangular ``L^{-1}``
    through LAPACK ``lauum``, which writes the upper triangle of its copy of
    ``L^{-T}`` and leaves its zeros below: symmetrized in place."""
    p, _ = lapack.dlauum(np.asarray(linv, dtype=float).T, lower=0)
    return _symmetrize(p)


def _symmetrize(c, block=32):
    """Mirror the strict upper triangle into the zero lower one, in place, by column blocks."""
    for j in range(0, len(c), block):
        d, k = c[j : j + block, j : j + block], j + block
        np.copyto(d, d.T, where=np.tri(len(d), k=-1, dtype=bool))
        c[k:, j:k] = c[j:k, k:].T
    return c


def logdet_from_chol(L):
    """log det of ``L L^T``: twice the sum of log-diagonal entries of L."""
    d = np.diag(np.asarray(L, dtype=float))
    return 2.0 * float(np.sum(np.log(d)))


# -- BLAS threads ------------------------------------------------------------

# (setter, getter) symbol pairs, tried in order on each loaded OpenBLAS. The
# numpy and scipy wheels each bundle a renamed copy: numpy's 64-bit-integer
# build ends in ``64_``, scipy's 32-bit build is what its LAPACK calls use.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas_paths():
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    # address, perms, offset, device, inode, then the path if file-backed
    fields = (line.split(maxsplit=5) for line in lines)
    paths = {f[5] for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _openblas_copies():
    """(path, set_threads, get_threads) for every loaded OpenBLAS copy that
    exports a thread control."""
    copies = []
    for path in _loaded_openblas_paths():
        try:
            # the library is already mapped, so this returns that same copy
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                copies.append((path, setter, getter))
                break
    return copies


def openblas_threads():
    """Thread count each loaded OpenBLAS copy reports, in path order; empty
    when none is found."""
    return [getter() for _, _, getter in _openblas_copies()]


@contextlib.contextmanager
def blas_threads(n):
    """Run the body with every loaded OpenBLAS copy set to ``n`` threads,
    and restore each copy's previous count on exit.

    Yields the counts read back from the copies. Raises BlasThreadsError,
    with every copy restored, if ``n`` is not a positive integer, no copy is
    found, or one does not report ``n`` after being set.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise BlasThreadsError(f"thread count must be a positive integer, got {n!r}")
    copies = _openblas_copies()
    if not copies:
        raise BlasThreadsError("no loaded OpenBLAS library exposes a thread control")
    previous = [getter() for _, _, getter in copies]
    try:
        for _, setter, _ in copies:
            setter(n)
        counts = [getter() for _, _, getter in copies]
        for (path, _, _), got in zip(copies, counts):
            if got != n:
                raise BlasThreadsError(
                    f"{os.path.basename(path)} reports {got} threads after "
                    f"being set to {n}"
                )
        yield counts
    finally:
        for (_, setter, _), old in zip(copies, previous):
            setter(old)
