"""Every library input check rejects NaN, like the scalar checks do, and
every check for a positive scalar also rejects infinity.  The phase
pressures that p_eff and relaxation_rhs take are checked like the
densities the pressure laws take: NaN and negative values are rejected.
The cyclic solve fails on a NaN, inf or -inf in any entry of its
symmetric matrix or right-hand side with a SingularSystemError: a
non-finite matrix coefficient leaves a non-finite or non-positive pivot
in the factorization, and a non-finite right-hand side leaves a
non-finite solution.  A step's
dt_limit must be > 0 and finite; step_macro alone accepts an infinite
one where its relaxation bound is finite, as that still caps the step.
Cell masses that are empty or not 1-d are a ValueError too, not an
IndexError from the neighbour shift."""

import numpy as np
import pytest

from biphase1d.errors import SingularSystemError
from biphase1d.macro import init_macro_riemann, step_macro
from biphase1d.materials import (MaterialPair, PowerLaw, mixture_pressure, mu_eff, p_eff,
                                 relaxation_rhs)
from biphase1d.meso import init_meso_riemann, step_meso
from biphase1d.stepping import StaggeredGrid, assemble_momentum, lagrangian_step, node_mass
from biphase1d.tridiag import solve_cyclic_tridiagonal

NAN = float("nan")
INF = float("inf")
MAT = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.02)
GRID = StaggeredGrid.uniform(4)
ONES = np.ones(4)
WITH_NAN = np.array([1.0, NAN, 1.0, 1.0])
HALF_NAN = np.array([0.5, NAN, 0.5, 0.5])
HALF = np.full(4, 0.5)
FRACTION = "volume fraction must lie in"
PRESSURE = "phase pressures must be >= 0"
DT_LIMIT = "dt_limit must be > 0 and finite"


def kernel_step(dt_limit):
    return lagrangian_step(GRID, np.zeros(4), GRID.cell_dx, ONES, ONES, dt_limit)


def meso_step(dt_limit):
    return step_meso(init_meso_riemann(4), MAT, dt_limit)


def macro_step(dt_limit):
    return step_macro(init_macro_riemann(4), MAT, "cross", dt_limit)


CASES = {
    "grid": (lambda: StaggeredGrid([0.1, NAN, 0.6]), "cell widths must all be > 0"),
    "cell_mass": (lambda: node_mass(WITH_NAN), "cell masses must be > 0"),
    "node_mass": (lambda: assemble_momentum(GRID, ONES, ONES, ONES, WITH_NAN, 1e-3),
                  "node masses must be > 0"),
    "viscosity": (lambda: assemble_momentum(GRID, ONES, WITH_NAN, ONES, ONES, 1e-3),
                  "viscosities must be >= 0"),
    "power_pressure": (lambda: PowerLaw(1.0, 2.0).pressure(NAN), "density must be >= 0"),
    "power_potential": (lambda: PowerLaw(1.0, 2.0).potential(NAN), "density must be >= 0"),
    "color": (lambda: mixture_pressure(HALF_NAN, ONES, MAT), "color must lie in"),
    "mu_eff": (lambda: mu_eff(HALF_NAN, MAT), FRACTION),
    "p_eff": (lambda: p_eff(HALF_NAN, ONES, ONES, MAT), FRACTION),
    "relaxation_rhs": (lambda: relaxation_rhs(HALF_NAN, ONES, ONES, ONES, MAT), FRACTION),
    "p_eff_p_plus": (lambda: p_eff(HALF, WITH_NAN, ONES, MAT), PRESSURE),
    "p_eff_p_minus": (lambda: p_eff(HALF, ONES, NAN, MAT, "paper"), PRESSURE),
    "relaxation_rhs_p_plus": (lambda: relaxation_rhs(HALF, NAN, ONES, ONES, MAT), PRESSURE),
    "relaxation_rhs_p_minus": (lambda: relaxation_rhs(HALF, ONES, WITH_NAN, ONES, MAT),
                               PRESSURE),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_nan_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


INF_CASES = {
    "dt_limit": (lambda: kernel_step(INF), DT_LIMIT),
    "step_meso_dt_limit": (lambda: meso_step(INF), DT_LIMIT),
    "power_K": (lambda: PowerLaw(K=INF), "pressure coefficient must be > 0 and finite"),
    "power_gamma": (lambda: PowerLaw(gamma=INF), "pressure exponent must be >= 1 and finite"),
    "mu_plus": (lambda: MaterialPair(MAT.law_plus, MAT.law_minus, INF, 0.02),
                "viscosities must be > 0 and finite"),
}


@pytest.mark.parametrize("call, message", INF_CASES.values(), ids=INF_CASES.keys())
def test_infinity_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("step", (kernel_step, meso_step, macro_step),
                         ids=("lagrangian_step", "step_meso", "step_macro"))
@pytest.mark.parametrize("dt_limit", (NAN, 0.0, -1.0), ids=("nan", "zero", "negative"))
def test_dt_limit_must_be_positive(step, dt_limit):
    with pytest.raises(ValueError, match=DT_LIMIT):
        step(dt_limit)


@pytest.mark.parametrize("cell_mass", ([], np.empty(0), 1.0, np.ones((2, 3))),
                         ids=("empty_list", "empty_array", "scalar", "2-d"))
def test_cell_masses_must_form_a_non_empty_1d_array(cell_mass):
    with pytest.raises(ValueError, match="cell masses must form a non-empty 1-d array"):
        node_mass(cell_mass)


def test_step_macro_accepts_infinite_dt_limit_under_its_relaxation_bound():
    state = step_macro(init_macro_riemann(4), MAT, "cross", INF)
    assert 0 < state.t < INF


def solve_with(value, array, entry):
    """The diagonally dominant n = 5 system (diag 3, off -1, rhs 1..5) with
    row ``entry``'s entry of ``array`` set to value.  The matrix is
    symmetric, so row j's sub-diagonal entry A[j, j-1 mod n] is off[j-1 mod n]
    and its super-diagonal entry A[j, j+1 mod n] is off[j]."""
    diag, off, rhs = np.full(5, 3.0), np.full(5, -1.0), np.arange(1.0, 6.0)
    target, index = {"sub": (off, (entry - 1) % 5), "diag": (diag, entry),
                     "sup": (off, entry), "rhs": (rhs, entry)}[array]
    target[index] = value
    return solve_cyclic_tridiagonal(diag, off, rhs)


ENTRIES = pytest.mark.parametrize("entry", (0, 2, 4), ids=("first", "middle", "last"))
ARRAYS = pytest.mark.parametrize("array", ("sub", "diag", "sup", "rhs"))


@ENTRIES
@ARRAYS
def test_nan_in_the_cyclic_system_is_rejected(array, entry):
    with pytest.raises(SingularSystemError):
        solve_with(NAN, array, entry)


@ENTRIES
@ARRAYS
@pytest.mark.parametrize("value", (INF, -INF), ids=("inf", "-inf"))
def test_infinity_in_the_cyclic_system_is_rejected(value, array, entry):
    with pytest.raises(SingularSystemError):
        solve_with(value, array, entry)


NEGATIVE = np.array([1.0, -1e-300, 1.0, 1.0])

NEGATIVE_CASES = {
    "p_eff_p_plus": lambda: p_eff(HALF, NEGATIVE, ONES, MAT),
    "p_eff_p_minus": lambda: p_eff(HALF, ONES, -1.0, MAT, "paper"),
    "relaxation_rhs_p_plus": lambda: relaxation_rhs(HALF, -1.0, ONES, ONES, MAT),
    "relaxation_rhs_p_minus": lambda: relaxation_rhs(HALF, ONES, NEGATIVE, ONES, MAT),
}


@pytest.mark.parametrize("call", NEGATIVE_CASES.values(), ids=NEGATIVE_CASES.keys())
def test_negative_pressure_is_rejected(call):
    with pytest.raises(ValueError, match=PRESSURE):
        call()


def test_zero_pressure_is_accepted():
    assert np.isfinite(p_eff(HALF, np.zeros(4), -0.0, MAT)).all()
    assert np.isfinite(relaxation_rhs(HALF, -0.0, np.zeros(4), ONES, MAT)).all()
