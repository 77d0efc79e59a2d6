"""Cyclic tridiagonal solver against a dense elimination oracle."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg.lapack
from conftest import dense_matrix, dense_solve, random_dominant_system

from biphase1d import tridiag
from biphase1d.errors import SingularSystemError
from biphase1d.stepping import StaggeredGrid, assemble_momentum, node_mass
from biphase1d.tridiag import solve_cyclic_tridiagonal


def test_identity_system():
    x = solve_cyclic_tridiagonal(np.ones(3), np.zeros(3), [3.0, 5.0, 7.0])
    assert np.array_equal(x, [3.0, 5.0, 7.0])


def test_constant_vector_row_sums_one():
    x = solve_cyclic_tridiagonal(3 * np.ones(3), -np.ones(3), np.ones(3))
    assert np.allclose(x, 1.0, atol=1e-14)


def test_matches_dense_oracle_on_random_dominant_systems():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(3, 65))
        system = random_dominant_system(rng, n)
        x = solve_cyclic_tridiagonal(*system)
        expected = dense_solve(*system)
        assert np.max(np.abs(x - expected)) <= 1e-10


def test_residual_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 65))
        diag, off, rhs = random_dominant_system(rng, n)
        x = solve_cyclic_tridiagonal(diag, off, rhs)
        res = np.max(np.abs(dense_matrix(diag, off) @ x - rhs))
        row_sum = np.abs(np.roll(off, 1)) + np.abs(diag) + np.abs(off)
        bound = 1e-12 * (np.max(row_sum) * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert res <= bound


def test_rhs_from_all_ones_returns_ones():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 65))
        diag, off, _ = random_dominant_system(rng, n)
        rhs = dense_matrix(diag, off) @ np.ones(n)
        assert np.max(np.abs(solve_cyclic_tridiagonal(diag, off, rhs) - 1.0)) <= 1e-12


def test_cyclic_relabeling_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(4, 33))
        system = random_dominant_system(rng, n)
        x = solve_cyclic_tridiagonal(*system)
        shift = int(rng.integers(1, n))
        x_rolled = solve_cyclic_tridiagonal(*(np.roll(a, shift) for a in system))
        assert np.max(np.abs(np.roll(x_rolled, -shift) - x)) <= 1e-12


def test_too_small_system_rejected():
    with pytest.raises(ValueError, match="n >= 3"):
        solve_cyclic_tridiagonal([1, 1], [0, 0], [1, 1])


def test_singular_system_reports_index():
    with pytest.raises(SingularSystemError) as excinfo:
        solve_cyclic_tridiagonal(np.zeros(4), np.zeros(4), np.ones(4))
    assert excinfo.value.index is not None
    # the periodic Laplacian: the corner correction cancels only to rounding
    for n in (3, 64, 1000, 100_000):
        with pytest.raises(SingularSystemError) as excinfo:
            solve_cyclic_tridiagonal(2 * np.ones(n), -np.ones(n), np.arange(n, dtype=float))
        assert excinfo.value.index == n - 1


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError, match="shape"):
        solve_cyclic_tridiagonal(np.ones(4), np.zeros(3), np.ones(4))
    with pytest.raises(ValueError, match="shape"):
        solve_cyclic_tridiagonal(np.ones(4), np.zeros(4), np.ones(3))


def test_indefinite_system_reports_the_first_nonpositive_pivot():
    # symmetric and invertible, but row 3 of the tridiagonal part has a
    # negative pivot: LDL^T without pivoting stops there
    diag = np.ones(6)
    diag[3] = -1.0
    with pytest.raises(SingularSystemError, match="not positive definite") as excinfo:
        solve_cyclic_tridiagonal(diag, np.full(6, 0.1), np.ones(6))
    assert excinfo.value.index == 3
    # a negative first diagonal entry turns the corner-corrected T[0, 0] negative
    with pytest.raises(SingularSystemError, match="not positive definite") as excinfo:
        solve_cyclic_tridiagonal(-np.ones(6), np.full(6, 0.1), np.ones(6))
    assert excinfo.value.index == 0


def _dptsv_systems():
    rng = np.random.default_rng(5)
    diag, off, rhs = random_dominant_system(rng, 12)
    yield "dominant, 1 rhs", diag, off[:-1], rhs.reshape(-1, 1)
    yield "dominant, 2 rhs", diag, off[:-1], np.column_stack([rhs, rhs[::-1]])
    diag = diag.copy()
    diag[4] = 0.0
    yield "singular", diag, np.zeros(11), rhs.reshape(-1, 1)


@pytest.mark.parametrize("name, d, e, b", [pytest.param(*s, id=s[0])
                                           for s in _dptsv_systems()])
def test_loaded_dptsv_is_bit_identical_to_scipy_linalg_lapack(name, d, e, b):
    ours = tridiag.dptsv(d.copy(), e.copy(), b.copy())
    theirs = scipy.linalg.lapack.dptsv(d.copy(), e.copy(), b.copy())
    assert len(ours) == len(theirs) == 4
    for a, t in zip(ours[:3], theirs[:3]):
        assert a.dtype == t.dtype and a.shape == t.shape and a.tobytes() == t.tobytes()
    assert ours[3] == theirs[3]
    assert (ours[3] == 5) == (name == "singular")


def packed_reference(diag, off, rhs):
    """The corner-corrected solve with both right-hand sides packed into
    one (n, 2) Fortran array for a single scipy ``dptsv`` call."""
    n = diag.size
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    c = off[-1] / gamma
    t_diag = diag.copy()
    t_diag[0] -= gamma
    t_diag[-1] -= off[-1] * c
    b = np.zeros((n, 2), order="F")
    b[:, 0] = rhs
    b[0, 1] = gamma
    b[-1, 1] = off[-1]
    _, _, yz, info = scipy.linalg.lapack.dptsv(t_diag, off[:-1], b)
    assert info == 0
    y, z = yz[:, 0], yz[:, 1]
    vy = y[0] + c * y[-1]
    vz = 1.0 + z[0] + c * z[-1]
    return y - (vy / vz) * z


def _momentum_system(rng, n):
    """assemble_momentum's system on a randomly stretched torus."""
    widths = rng.uniform(0.5, 1.5, n)
    grid = StaggeredGrid(np.cumsum(widths / widths.sum()))
    return assemble_momentum(grid, rng.uniform(-2.0, 2.0, n), rng.uniform(1e-3, 1.0, n),
                             rng.uniform(0.1, 5.0, n),
                             node_mass(rng.uniform(0.1, 5.0, n) * grid.cell_dx), 1e-3)


@pytest.mark.parametrize("n", (3, 64, 1000))
@pytest.mark.parametrize("build", (random_dominant_system, _momentum_system),
                         ids=("dominant", "momentum"))
def test_solve_is_bit_identical_to_scipy_dptsv_with_the_corner_correction(build, n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        diag, off, rhs = build(rng, n)
        given = (diag.copy(), off.copy(), rhs.copy())
        x = solve_cyclic_tridiagonal(diag, off, rhs)
        ref = packed_reference(diag, off, rhs)
        assert x.dtype == ref.dtype and x.shape == ref.shape == (n,)
        assert x.tobytes() == ref.tobytes()
        # the inputs are left as they were
        for a, g in zip((diag, off, rhs), given):
            assert a.tobytes() == g.tobytes()


def test_missing_flapack_is_an_import_error_naming_the_directory(tmp_path, monkeypatch):
    # scipy's directory without the extension, then no scipy at all
    for spec, message in (
            (SimpleNamespace(submodule_search_locations=[str(tmp_path)]),
             "_flapack not found in " + re.escape(str(tmp_path / "linalg"))),
            (None, "^scipy not found$")):
        monkeypatch.setattr(tridiag, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=message):
            tridiag._load_flapack()
