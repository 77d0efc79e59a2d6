"""Periodic (cyclic) tridiagonal linear solves.

The implicit viscosity discretization couples each interface velocity to
its two neighbours with periodic wrap-around, giving a tridiagonal matrix
with two extra corner entries.  The system is passed as four arrays,
``sub``, ``diag``, ``sup`` and ``rhs``, of one length n >= 3:
A[j, j-1 mod n] = sub[j], A[j, j] = diag[j], A[j, j+1 mod n] = sup[j].
The corners are removed with a rank-one correction, leaving two ordinary
tridiagonal solves that share one LAPACK ``dgtsv`` factorization.
"""

from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from .errors import SingularSystemError

_EPS = np.finfo(float).eps


def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded
    without running ``scipy.linalg``'s package init: that init imports
    numpy.f2py, numpy.testing, numpy.random and numpy.ma through scipy's
    array-API layer, which biphase1d never uses, and would more than double
    the package's import time and nearly double its RSS.
    ``scipy.linalg.lapack`` re-exports this module's routines, so its
    ``dgtsv`` is the same Fortran routine."""
    linalg_dir = str(Path(scipy.__file__).parent / "linalg")
    finder = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {linalg_dir}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dgtsv = _load_flapack().dgtsv


def solve_cyclic_tridiagonal(sub, diag, sup, rhs):
    """Solve the periodic tridiagonal system A x = rhs, O(n).

    Uses the standard corner correction: write A = T + u v^T with T
    tridiagonal, solve T y = rhs and T z = u with one factorization, and
    combine x = y - z (v.y)/(1 + v.z).  Exact (to rounding) for the
    diagonally dominant matrices the momentum step produces.

    Raises ValueError for n < 3 or arrays of unequal lengths, and
    SingularSystemError (a SolverError) for a zero or non-finite pivot, a
    degenerate corner correction or a non-finite solution.
    """
    sub = np.asarray(sub, dtype=float)
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 3:
        raise ValueError(f"cyclic system needs n >= 3, got n = {n}")
    for name, a in (("sub", sub), ("sup", sup), ("rhs", rhs)):
        if a.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},)")

    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    t_diag = diag.copy()
    t_diag[0] -= gamma
    t_diag[-1] -= sub[0] * (sup[-1] / gamma)

    b = np.zeros((n, 2), order="F")
    b[:, 0] = rhs
    b[0, 1] = gamma
    b[-1, 1] = sup[-1]

    _, pivots, _, yz, info = dgtsv(sub[1:], t_diag, sup[:-1], b,
                                   overwrite_d=1, overwrite_b=1)
    if info > 0:
        raise SingularSystemError(
            f"singular cyclic tridiagonal system (pivot at row {info - 1})",
            index=info - 1)
    bad = ~np.isfinite(pivots)  # an inf coefficient can leave y, z finite but wrong
    if bad.any():
        idx = int(np.argmax(bad))
        raise SingularSystemError(
            f"singular cyclic tridiagonal system (non-finite pivot at row {idx})", index=idx)
    y, z = yz[:, 0], yz[:, 1]

    c = sub[0] / gamma
    vy = y[0] + c * y[-1]
    vz = 1.0 + z[0] + c * z[-1]
    # a singular A leaves 1 + v.z at the rounding of its terms, not at 0
    if not np.isfinite(vz) or abs(vz) < n * _EPS * (1.0 + abs(z[0]) + abs(c * z[-1])):
        raise SingularSystemError("singular cyclic tridiagonal system "
                                  "(corner correction degenerate)", index=n - 1)
    x = y - (vy / vz) * z
    bad = ~np.isfinite(x)
    if bad.any():
        idx = int(np.argmax(bad))
        raise SingularSystemError(
            f"singular cyclic tridiagonal system (non-finite solution at row {idx})",
            index=idx)
    return x
