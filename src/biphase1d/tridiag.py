"""Periodic (cyclic) symmetric tridiagonal linear solves.

The implicit viscosity discretization couples each interface velocity to
its two neighbours with periodic wrap-around, giving a symmetric
tridiagonal matrix with two extra corner entries.  The system is passed
as three arrays, ``diag``, ``off`` and ``rhs``, of one length n >= 3:
A[j, j] = diag[j] and A[j, j+1 mod n] = A[j+1 mod n, j] = off[j].
The corners are removed with a symmetric rank-one correction, leaving two
symmetric tridiagonal solves that share one LDL^T factorization without
pivoting, LAPACK's ``dptsv``.  That factorization exists for a positive
definite matrix, which the momentum step always produces.

``_solve`` holds the arithmetic and the checks and works in place: ``dptsv``
overwrites the corrected diagonal, the off-diagonal and a Fortran-ordered
(n, 2) array of both right-hand sides.  A run passes rows of its workspace
(``stepping._workspace``); ``solve_cyclic_tridiagonal`` passes fresh copies.
"""

import math
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

from .errors import SingularSystemError

_EPS = np.finfo(float).eps


def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded
    without running ``scipy.linalg``'s package init: that init imports
    numpy.f2py, numpy.testing, numpy.random and numpy.ma through scipy's
    array-API layer, which biphase1d never uses, and would more than double
    the package's import time and nearly double its RSS.  scipy's own
    directory comes from its import spec, so ``scipy``'s package init does
    not run either; the extension finds scipy's OpenBLAS by its rpath.
    ``scipy.linalg.lapack`` re-exports this module's routines, so its
    ``dptsv`` is the same Fortran routine."""
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy not found")
    linalg_dir = str(Path(scipy_spec.submodule_search_locations[0]) / "linalg")
    finder = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {linalg_dir}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dptsv = _load_flapack().dptsv


def solve_cyclic_tridiagonal(diag, off, rhs):
    """Solve the periodic symmetric tridiagonal system A x = rhs, O(n).

    Uses the standard corner correction with gamma = -diag[0]: write
    A = T + gamma v v^T with v = e_0 + (off[n-1]/gamma) e_{n-1}, so that T is
    symmetric tridiagonal, solve T y = rhs and T z = gamma v with one LDL^T
    factorization, and combine x = y - z (v.y)/(1 + v.z).  For a positive
    diag[0], T = A + diag[0] v v^T is positive definite whenever A is
    positive semidefinite, so the singular periodic Laplacian fails in the
    correction, at row n-1, not in the factorization.

    Raises ValueError for n < 3 or arrays of unequal lengths, and
    SingularSystemError (a SolverError) if T is not positive definite
    (reported at the first row whose pivot is not positive), for a
    non-finite pivot, a degenerate corner correction or a non-finite
    solution.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 3:
        raise ValueError(f"cyclic system needs n >= 3, got n = {n}")
    for name, a in (("off", off), ("rhs", rhs)):
        if a.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},)")
    b = np.empty((n, 2), order="F")
    b[:, 0] = rhs
    return _solve(diag.copy(), off.copy(), b)


def _solve(diag, off, b):
    """solve_cyclic_tridiagonal on checked arrays, overwriting diag, off and
    b, a Fortran-ordered (n, 2) array with rhs in column 0; x is new."""
    n = diag.size
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    c = off[-1] / gamma
    diag[0] -= gamma
    diag[-1] -= off[-1] * c
    z = b[:, 1]
    z.fill(0.0)
    z[0] = gamma
    z[-1] = off[-1]

    pivots, _, yz, info = dptsv(diag, off[:-1], b, overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info > 0:
        raise SingularSystemError(
            "cyclic tridiagonal system not positive definite "
            f"(pivot at row {info - 1})", index=info - 1)
    # the pivots are then positive or NaN; an inf in diag leaves an inf
    # pivot and y, z finite but wrong
    if not np.maximum.reduce(pivots) < np.inf:
        idx = int(np.argmax(~np.isfinite(pivots)))
        raise SingularSystemError(
            f"singular cyclic tridiagonal system (non-finite pivot at row {idx})", index=idx)
    y, z = yz[:, 0], yz[:, 1]

    vy = y[0] + c * y[-1]
    vz = 1.0 + z[0] + c * z[-1]
    # a singular A leaves 1 + v.z at the rounding of its terms, not at 0
    if not math.isfinite(vz) or abs(vz) < n * _EPS * (1.0 + abs(z[0]) + abs(c * z[-1])):
        raise SingularSystemError("singular cyclic tridiagonal system "
                                  "(corner correction degenerate)", index=n - 1)
    z *= vy / vz
    x = y - z
    # a NaN fails both comparisons
    if not (np.minimum.reduce(x) > -np.inf and np.maximum.reduce(x) < np.inf):
        idx = int(np.argmax(~np.isfinite(x)))
        raise SingularSystemError(
            f"singular cyclic tridiagonal system (non-finite solution at row {idx})",
            index=idx)
    return x
