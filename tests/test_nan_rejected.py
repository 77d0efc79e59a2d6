"""Every library input check rejects NaN, like the scalar checks do, and
every check for a positive scalar also rejects infinity.  The phase
pressures that p_eff and relaxation_rhs take are checked like the
densities the pressure laws take: NaN and negative values are rejected."""

import numpy as np
import pytest

from biphase1d.materials import (MaterialPair, PowerLaw, mixture_pressure, mu_eff, p_eff,
                                 relaxation_rhs)
from biphase1d.stepping import StaggeredGrid, StepPolicy, assemble_momentum, node_mass

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
    "dt_max": (lambda: StepPolicy(dt_max=INF), "dt_max must be > 0 and finite"),
    "power_K": (lambda: PowerLaw(K=INF), "pressure coefficient must be > 0 and finite"),
    "power_gamma": (lambda: PowerLaw(gamma=INF), "pressure exponent must be >= 1 and finite"),
    "mu_plus": (lambda: MaterialPair(MAT.law_plus, MAT.law_minus, INF, 0.02),
                "viscosities must be > 0 and finite"),
}


@pytest.mark.parametrize("call, message", INF_CASES.values(), ids=INF_CASES.keys())
def test_infinity_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
