"""Cyclic tridiagonal solver against a dense elimination oracle."""

import numpy as np
import pytest
from conftest import dense_matrix, dense_solve, random_dominant_system

from biphase1d.errors import SingularSystemError
from biphase1d.tridiag import solve_cyclic_tridiagonal


def test_identity_system():
    x = solve_cyclic_tridiagonal(np.zeros(3), np.ones(3), np.zeros(3), [3.0, 5.0, 7.0])
    assert np.array_equal(x, [3.0, 5.0, 7.0])


def test_constant_vector_row_sums_one():
    x = solve_cyclic_tridiagonal(-np.ones(3), 3 * np.ones(3), -np.ones(3), np.ones(3))
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
        sub, diag, sup, rhs = random_dominant_system(rng, n)
        x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
        res = np.max(np.abs(dense_matrix(sub, diag, sup) @ x - rhs))
        row_sum = np.abs(sub) + np.abs(diag) + np.abs(sup)
        bound = 1e-12 * (np.max(row_sum) * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert res <= bound


def test_rhs_from_all_ones_returns_ones():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 65))
        sub, diag, sup, _ = random_dominant_system(rng, n)
        rhs = dense_matrix(sub, diag, sup) @ np.ones(n)
        assert np.max(np.abs(solve_cyclic_tridiagonal(sub, diag, sup, rhs) - 1.0)) <= 1e-12


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
        solve_cyclic_tridiagonal([0, 0], [1, 1], [0, 0], [1, 1])


def test_singular_system_reports_index():
    with pytest.raises(SingularSystemError) as excinfo:
        solve_cyclic_tridiagonal(np.zeros(4), np.zeros(4), np.zeros(4), np.ones(4))
    assert excinfo.value.index is not None


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError, match="shape"):
        solve_cyclic_tridiagonal(np.zeros(3), np.ones(4), np.zeros(4), np.ones(4))
