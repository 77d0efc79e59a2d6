"""Every library input check rejects NaN, like the scalar checks do, and
every check for a positive scalar also rejects infinity."""

import numpy as np
import pytest

from biphase1d.materials import (MaterialPair, PowerLaw, TabulatedLaw, mixture_pressure,
                                 mu_eff, p_eff, relaxation_rhs)
from biphase1d.stepping import StaggeredGrid, StepPolicy, assemble_momentum, node_mass

NAN = float("nan")
INF = float("inf")
MAT = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.02)
GRID = StaggeredGrid.uniform(4)
ONES = np.ones(4)
WITH_NAN = np.array([1.0, NAN, 1.0, 1.0])
HALF_NAN = np.array([0.5, NAN, 0.5, 0.5])
FRACTION = "volume fraction must lie in"

CASES = {
    "grid": (lambda: StaggeredGrid([0.1, NAN, 0.6]), "cell widths must all be > 0"),
    "cell_mass": (lambda: node_mass(WITH_NAN), "cell masses must be > 0"),
    "node_mass": (lambda: assemble_momentum(GRID, ONES, ONES, ONES, WITH_NAN, 1e-3),
                  "node masses must be > 0"),
    "viscosity": (lambda: assemble_momentum(GRID, ONES, WITH_NAN, ONES, ONES, 1e-3),
                  "viscosities must be >= 0"),
    "power_pressure": (lambda: PowerLaw(1.0, 2.0).pressure(NAN), "density must be >= 0"),
    "power_potential": (lambda: PowerLaw(1.0, 2.0).potential(NAN), "density must be >= 0"),
    "rho_table": (lambda: TabulatedLaw([0.5, NAN, 2.0], [0.5, 1.0, 2.0]),
                  "rho_table must be strictly increasing"),
    "p_table": (lambda: TabulatedLaw([0.5, 1.0, 2.0], [0.5, NAN, 2.0]),
                "p_table must be nonnegative and nondecreasing"),
    "tabulated_pressure": (lambda: TabulatedLaw([0.5, 2.0], [0.5, 2.0]).pressure(NAN),
                           "density must be >= 0"),
    "tabulated_potential": (lambda: TabulatedLaw([0.5, 2.0], [0.5, 2.0]).potential(NAN),
                            "density must be >= 0"),
    "color": (lambda: mixture_pressure(HALF_NAN, ONES, MAT), "color must lie in"),
    "mu_eff": (lambda: mu_eff(HALF_NAN, MAT), FRACTION),
    "p_eff": (lambda: p_eff(HALF_NAN, ONES, ONES, MAT), FRACTION),
    "relaxation_rhs": (lambda: relaxation_rhs(HALF_NAN, ONES, ONES, ONES, MAT), FRACTION),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_nan_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


INF_CASES = {
    "grid_length": (lambda: StaggeredGrid([0.1, 0.5, 0.6], length=INF),
                    "domain length must be > 0 and finite"),
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
