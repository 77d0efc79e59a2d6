"""Shared test oracles and failure triggers."""

import numpy as np
import pytest

from biphase1d import macro, meso, stepping

# p_- = 1e308 rho^2 overflows to inf in every cell denser than 1
PRESSURE_OVERFLOW = {"preset": "test2", "cells": 20, "K_minus": 1e308, "t_end": 0.001}

# nearly pressureless equal laws, so the pressure barely moves a node
# (and the macro relaxation rests), and steps that may take dt_max = 1
INVERSION = ('{"cells": 16, "t_end": 1.0, "dt_max": 1.0, "cadence": 1, "coarse_K": 4, '
             '"K_plus": 1e-9, "K_minus": 1e-9, "gamma_minus": 1, '
             '"mu_plus": 0.001, "mu_minus": 0.001}')


def closing_nodes(state):
    """state at unit density, at rest but for nodes 2 and 3, which close in
    on cell 3 at unit speed."""
    J = state.grid.J
    if isinstance(state, meso.MesoState):
        state.cell_mass = state.grid.cell_dx.copy()
    else:
        state.rho_plus, state.rho_minus = np.ones(J), np.ones(J)
        state.mass_plus = state.alpha * state.grid.cell_dx
        state.mass_minus = (1.0 - state.alpha) * state.grid.cell_dx
    state.u[2], state.u[3] = 1.0, -1.0
    return state


@pytest.fixture
def inversion_trigger(monkeypatch):
    """The INVERSION config, whose runs start from closing_nodes with a first
    attempt of dt_max (CFL_THETA 1e9) and one halving: at dt 1 and 1/2 the
    two nodes cross, so the first step fails on cell inversion at t = 0
    whatever the pressure discretization."""
    init_meso, init_macro = meso.init_meso_riemann, macro.init_macro_riemann
    monkeypatch.setattr(meso, "init_meso_riemann", lambda J: closing_nodes(init_meso(J)))
    monkeypatch.setattr(macro, "init_macro_riemann", lambda J: closing_nodes(init_macro(J)))
    monkeypatch.setattr(stepping, "CFL_THETA", 1e9)
    monkeypatch.setattr(stepping, "MAX_HALVINGS", 1)
    return INVERSION


def dense_matrix(diag, off):
    """The full matrix of a periodic symmetric tridiagonal system, entry by
    entry: A[j, j] = diag[j], A[j, j+1 mod n] = A[j+1 mod n, j] = off[j]."""
    n = len(diag)
    A = np.zeros((n, n))
    for j in range(n):
        A[j, j] = diag[j]
        A[j, (j + 1) % n] = off[j]
        A[(j + 1) % n, j] = off[j]
    return A


def dense_solve(diag, off, rhs):
    """Independent oracle for periodic tridiagonal systems: assemble the
    full matrix and run Gaussian elimination with partial pivoting."""
    n = len(diag)
    A = dense_matrix(diag, off)
    M = np.hstack([A, np.asarray(rhs, dtype=float).reshape(-1, 1)])
    for col in range(n):
        piv = col + np.argmax(np.abs(M[col:, col]))
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        M[col] /= M[col, col]
        for row in range(n):
            if row != col and M[row, col] != 0.0:
                M[row] -= M[row, col] * M[col]
    return M[:, -1]


def random_dominant_system(rng, n):
    """A symmetric cyclic tridiagonal system, strictly diagonally dominant
    with a positive diagonal (so positive definite), as the arrays
    (diag, off, rhs)."""
    off = rng.uniform(-1, 1, n)
    margin = rng.uniform(0.1, 2.0, n)
    diag = np.abs(off) + np.abs(np.roll(off, 1)) + margin
    rhs = rng.uniform(-5, 5, n)
    return diag, off, rhs


def window_walk(state, K):
    """Oracle for diagnostics._window_sums: walk every cell in order and
    split it, and the seam-crossing cell by hand, into segments lying in
    single windows, accumulating lengths, phase lengths, phase masses,
    phase second moments, and the integral of the piecewise-linear
    velocity."""
    grid = state.grid
    J, L = grid.J, grid.length
    if K < 1 or K >= J:
        raise ValueError(f"coarse window count must satisfy 1 <= K < J, got {K}")
    h = L / K
    w, rho_p, rho_m = state.weight, state.rho_plus, state.rho_minus
    u_right = np.asarray(state.u, dtype=float)
    u_left = np.roll(u_right, 1)
    dx = grid.cell_dx
    left_edge = grid.node_x - dx

    length = np.zeros(K)
    plus_len = np.zeros(K)
    plus_mass = np.zeros(K)
    minus_mass = np.zeros(K)
    plus_sq = np.zeros(K)
    minus_sq = np.zeros(K)
    u_int = np.zeros(K)

    for j in range(J):
        dxj = dx[j]
        start = left_edge[j] % L
        pieces = [(start, min(dxj, L - start), 0.0)]
        if dxj > L - start:
            pieces.append((0.0, dxj - (L - start), L - start))
        for torus_a, plen, local in pieces:
            a = torus_a
            remaining = plen
            k = min(int(a / h), K - 1)
            while remaining > 0.0:
                # the last window absorbs everything up to the seam, so a
                # start sitting exactly on an edge cannot stall the walk
                seg = remaining if k == K - 1 else min(remaining, (k + 1) * h - a)
                if seg > 0.0:
                    length[k] += seg
                    plus_len[k] += seg * w[j]
                    plus_mass[k] += seg * w[j] * rho_p[j]
                    minus_mass[k] += seg * (1.0 - w[j]) * rho_m[j]
                    plus_sq[k] += seg * w[j] * rho_p[j] ** 2
                    minus_sq[k] += seg * (1.0 - w[j]) * rho_m[j] ** 2
                    xi_mid = local + (a - torus_a) + 0.5 * seg
                    u_int[k] += seg * (u_left[j] + (u_right[j] - u_left[j]) * xi_mid / dxj)
                    a += seg
                    remaining -= seg
                if remaining > 0.0:
                    k += 1

    return {
        "h": h, "length": length, "plus_len": plus_len,
        "plus_mass": plus_mass, "minus_mass": minus_mass,
        "plus_sq": plus_sq, "minus_sq": minus_sq, "u_int": u_int,
    }
