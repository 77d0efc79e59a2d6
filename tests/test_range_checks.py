"""The range checks of the coefficient functions and the momentum
assembly: -0.0 passes wherever 0 does, NaN and every infinity outside the
range are rejected with the messages of tests/test_nan_rejected.py, and
empty arrays pass and come back empty."""

import numpy as np
import pytest

from biphase1d.materials import (MaterialPair, PowerLaw, homogenized, mixture_pressure,
                                 mixture_viscosity)
from biphase1d.stepping import StaggeredGrid, assemble_momentum, node_mass

NAN = float("nan")
INF = float("inf")
MAT = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.02)
GRID = StaggeredGrid.uniform(4)
ONES = np.ones(4)
HALF = np.full(4, 0.5)
EMPTY = np.empty(0)


def put(base, value):
    """base with its second entry set to value."""
    out = base.copy()
    out[1] = value
    return out


def assemble(mu=ONES, m_node=ONES):
    return assemble_momentum(GRID, ONES, mu, ONES, m_node, 1e-3)


# name: (call with one entry set to the value, message, range)
CHECKS = {
    "pressure": (lambda v: PowerLaw(1.0, 2.0).pressure(put(ONES, v)),
                 "density must be >= 0", ">= 0"),
    "potential": (lambda v: PowerLaw(1.0, 2.0).potential(put(ONES, v)),
                  "density must be >= 0", ">= 0"),
    "log_potential": (lambda v: PowerLaw(1.0, 1.0).potential(put(ONES, v)),
                      "density must be >= 0", ">= 0"),
    "color": (lambda v: mixture_pressure(put(HALF, v), ONES, MAT), "color must lie in",
              "[0, 1]"),
    "color_viscosity": (lambda v: mixture_viscosity(put(HALF, v), MAT), "color must lie in",
                        "[0, 1]"),
    "volume_fraction": (lambda v: homogenized(put(HALF, v), ONES, ONES, MAT),
                        "volume fraction must lie in", "[0, 1]"),
    "p_plus": (lambda v: homogenized(HALF, put(ONES, v), ONES, MAT),
               "phase pressures must be >= 0", ">= 0"),
    "p_minus": (lambda v: homogenized(HALF, ONES, put(ONES, v), MAT, "paper"),
                "phase pressures must be >= 0", ">= 0"),
    "viscosity": (lambda v: assemble(mu=put(ONES, v)), "viscosities must be >= 0", ">= 0"),
    "node_mass": (lambda v: assemble(m_node=put(ONES, v)), "node masses must be > 0", "> 0"),
    "cell_mass": (lambda v: node_mass(put(ONES, v)), "cell masses must be > 0", "> 0"),
}
ZEROS = {"zero": 0.0, "negative_zero": -0.0}
# +inf lies inside the ranges that are open above
OUTSIDE = {"nan": NAN, "-inf": -INF, "inf": INF, "tiny_negative": -1e-300}


def cases(values, keep):
    return [pytest.param(call, message, value, id=f"{name}-{label}")
            for name, (call, message, bounds) in CHECKS.items()
            for label, value in values.items() if keep(bounds, value)]


@pytest.mark.parametrize("call, message, zero",
                         cases(ZEROS, lambda bounds, _: bounds != "> 0"))
def test_zero_of_either_sign_passes_a_closed_check(call, message, zero):
    call(zero)


@pytest.mark.parametrize("call, message, zero",
                         cases(ZEROS, lambda bounds, _: bounds == "> 0"))
def test_zero_of_either_sign_fails_an_open_check(call, message, zero):
    with pytest.raises(ValueError, match=message):
        call(zero)


@pytest.mark.parametrize("call, message, value",
                         cases(OUTSIDE, lambda bounds, v: v != INF or bounds == "[0, 1]"))
def test_nan_and_values_outside_the_range_are_rejected(call, message, value):
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("call", (
    lambda: [PowerLaw(1.0, 2.0).pressure(EMPTY)],
    lambda: [PowerLaw(1.0, 2.0).potential(EMPTY)],
    lambda: [PowerLaw(1.0, 1.0).potential(EMPTY)],
    lambda: list(homogenized(EMPTY, EMPTY, EMPTY, MAT)),
    lambda: list(homogenized(EMPTY, EMPTY, EMPTY, MAT, "paper")),
    lambda: [mixture_pressure(EMPTY, EMPTY, MAT)],
    lambda: [mixture_viscosity(EMPTY, MAT)],
), ids=("pressure", "potential", "log_potential", "homogenized", "homogenized_paper",
        "mixture_pressure", "mixture_viscosity"))
def test_empty_arrays_come_back_empty(call):
    for out in call():
        assert type(out) is np.ndarray and out.dtype == float and out.shape == (0,)
