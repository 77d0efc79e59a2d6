"""Barotropic pressure laws, two-fluid mixture coefficients, and the
homogenized (effective) coefficients with their pressure-relaxation source.

Everything here is a closed-form scalar function of the local state; all
functions broadcast over numpy arrays.  Each homogenized formula is
written once, in ``homogenized``, on the shared denominator
D = alpha*mu_- + (1-alpha)*mu_+: it checks its inputs once and evaluates
them all, as the macro step does, and the public ``p_eff``, ``mu_eff``
and ``relaxation_rhs`` are views of it.

As in ``stepping``, each range check is one min or max reduction, which a
NaN fails and an empty array passes.
"""

from dataclasses import dataclass

import numpy as np

WEIGHTING_CROSS = "cross"
WEIGHTING_OWN = "paper"
WEIGHTINGS = (WEIGHTING_CROSS, WEIGHTING_OWN)


@dataclass(frozen=True)
class PowerLaw:
    """Barotropic law p(rho) = K * rho**gamma with K > 0, gamma >= 1, so
    p(rho) >= 0 and nondecreasing."""

    K: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.K < np.inf:
            raise ValueError(f"pressure coefficient must be > 0 and finite, got {self.K}")
        if not 1 <= self.gamma < np.inf:
            raise ValueError(f"pressure exponent must be >= 1 and finite, got {self.gamma}")

    def pressure(self, rho):
        rho = np.asarray(rho, dtype=float)
        if not np.minimum.reduce(rho, None, initial=np.inf) >= 0:
            raise ValueError("density must be >= 0")
        p = rho**self.gamma
        p *= self.K
        return p

    def potential(self, rho):
        """Energy density rho * integral_1^rho p(s)/s^2 ds.

        Accepts rho >= 0; the value at rho = 0 is the continuity limit 0.
        """
        rho = np.asarray(rho, dtype=float)
        if not rho.min(initial=np.inf) >= 0:
            raise ValueError("density must be >= 0")
        if self.gamma == 1:
            # rho*log(rho) -> 0 as rho -> 0+
            with np.errstate(divide="ignore", invalid="ignore"):
                g = self.K * rho * np.log(rho)
            return np.where(rho == 0, 0.0, g)
        return self.K * rho * (rho ** (self.gamma - 1) - 1.0) / (self.gamma - 1.0)


@dataclass(frozen=True)
class MaterialPair:
    """The two phases: pressure laws and constant finite viscosities mu > 0."""

    law_plus: PowerLaw
    law_minus: PowerLaw
    mu_plus: float
    mu_minus: float

    def __post_init__(self):
        if not (0 < self.mu_plus < np.inf and 0 < self.mu_minus < np.inf):
            raise ValueError("viscosities must be > 0 and finite")


def _check_fraction(w, name, span=None):
    """w as a float array, and whether every entry lies inside (0, 1); w's (min, max) is span."""
    w = np.asarray(w, dtype=float)
    lo, hi = span or (w.min(initial=np.inf), w.max(initial=-np.inf))
    if not (lo >= 0 and hi <= 1):
        raise ValueError(f"{name} must lie in [0, 1]")
    return w, 0 < lo and hi < 1


def _by_color(c, plus, minus):
    """c*plus + (1-c)*minus, except that a pure cell (c in {0, 1}) takes
    its own phase's value, so an overflowing law of the absent phase cannot
    turn it into 0 * inf = NaN."""
    mixed = c * plus + (1.0 - c) * minus
    return np.where(c == 1.0, plus, np.where(c == 0.0, minus, mixed))


def mixture_pressure(c, rho, mat):
    """Sharp-interface mixture pressure c*p_+(rho) + (1-c)*p_-(rho); a pure
    cell reads only its own phase's law."""
    c, _ = _check_fraction(c, "color")
    return _by_color(c, mat.law_plus.pressure(rho), mat.law_minus.pressure(rho))


def mixture_viscosity(c, mat):
    """Sharp-interface mixture viscosity c*mu_+ + (1-c)*mu_-."""
    c, _ = _check_fraction(c, "color")
    return c * mat.mu_plus + (1.0 - c) * mat.mu_minus


def mixture_potential(c, rho, mat):
    """Pressure potential of the mixture, affine in c like the pressure; a
    pure cell reads only its own phase's law."""
    c, _ = _check_fraction(c, "color")
    return _by_color(c, mat.law_plus.potential(rho), mat.law_minus.potential(rho))


def _check_phase_pressures(p_plus, p_minus):
    p_plus = np.asarray(p_plus, dtype=float)
    p_minus = np.asarray(p_minus, dtype=float)
    if not (np.minimum.reduce(p_plus, None, initial=np.inf) >= 0
            and np.minimum.reduce(p_minus, None, initial=np.inf) >= 0):
        raise ValueError("phase pressures must be >= 0")
    return p_plus, p_minus


def homogenized(alpha, p_plus, p_minus, mat, weighting=WEIGHTING_CROSS):
    """All homogenized coefficients of one state from one check and one D.

    Returns ``(p_eff, mu_eff, k, dp)``: the effective pressure and
    viscosity, the relaxation factor k = alpha*(1-alpha)/D and the phase
    pressure difference dp = p_plus - p_minus, so that the volume-fraction
    rate is ``k * (dp - (mu_+ - mu_-) * du_dx)``, each a new array of the
    inputs' broadcast shape.  Checks alpha, the weighting and the phase
    pressures, in that order; ``p_eff``, ``mu_eff`` and ``relaxation_rhs``
    document the formulas.
    """
    return _homogenized(alpha, p_plus, p_minus, mat, weighting)


def _homogenized(alpha, p_plus, p_minus, mat, weighting, out=None, span=None):
    """homogenized, into the four arrays ``out`` if given, with alpha's (min, max)
    ``span``; 1 - alpha waits in k, D in mu_eff and a pressure term in dp."""
    alpha, all_mixed = _check_fraction(alpha, "volume fraction", span)
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}, expected one of {WEIGHTINGS}")
    p_p, p_m = _check_phase_pressures(p_plus, p_minus)
    p_cells, mu_cells, k, dp = out or (
        np.empty(np.broadcast_shapes(alpha.shape, p_p.shape, p_m.shape)) for _ in range(4))
    one_minus = np.subtract(1.0, alpha, out=k)
    denom = np.multiply(alpha, mat.mu_minus, out=mu_cells)
    denom += np.multiply(one_minus, mat.mu_plus, out=p_cells)  # D, > 0 on [0, 1]
    cross = weighting == WEIGHTING_CROSS  # each phase pressure with the other mu
    np.multiply(alpha, p_p, out=p_cells)
    p_cells *= mat.mu_minus if cross else mat.mu_plus
    np.multiply(one_minus, p_m, out=dp)
    dp *= mat.mu_plus if cross else mat.mu_minus
    p_cells += dp
    p_cells /= denom
    k *= alpha
    k /= denom
    if mat.mu_plus == mat.mu_minus:
        mu_cells.fill(mat.mu_plus)
    else:
        np.divide(mat.mu_plus * mat.mu_minus, denom, out=mu_cells)
    if not all_mixed:  # patch the pure cells
        one, zero = alpha == 1.0, alpha == 0.0
        for a, plus, minus in ((mu_cells, mat.mu_plus, mat.mu_minus),
                               (p_cells, p_p, p_m))[:1 + cross]:
            np.copyto(a, plus, where=one)
            np.copyto(a, minus, where=zero)
    np.subtract(p_p, p_m, out=dp)
    return p_cells, mu_cells, k, dp


def mu_eff(alpha, mat):
    """Homogenized viscosity mu_+ mu_- / (alpha mu_- + (1-alpha) mu_+).

    Endpoints return the pure-phase viscosities exactly.
    """
    return homogenized(alpha, 0.0, 0.0, mat)[1]


def p_eff(alpha, p_plus, p_minus, mat, weighting=WEIGHTING_CROSS):
    """Homogenized pressure of the mixture from the phase pressures
    p_plus = p_+(rho_+) and p_minus = p_-(rho_-).

    Both variants average the phase pressures with viscosity weights over
    the common denominator alpha*mu_- + (1-alpha)*mu_+:

    * ``"cross"`` pairs each phase pressure with the *other* phase's
      viscosity, which makes p_eff equal the pure-phase pressure exactly
      at alpha in {0, 1} (this is the default).
    * ``"paper"`` pairs each phase pressure with its *own* viscosity; it
      breaks the pure-phase limit whenever mu_+ != mu_- and is kept only
      so runs can compare the two closures.

    The variants coincide when mu_+ == mu_-.  A negative or NaN phase
    pressure is rejected.
    """
    return homogenized(alpha, p_plus, p_minus, mat, weighting)[0]


def relaxation_rhs(alpha, p_plus, p_minus, du_dx, mat):
    """Rate of change of the volume fraction along particle paths, from
    the phase pressures p_plus = p_+(rho_+) and p_minus = p_-(rho_-).

    alpha*(1-alpha)/((1-alpha)*mu_+ + alpha*mu_-)
        * (p_plus - p_minus - (mu_+ - mu_-)*du_dx)

    Vanishes identically at alpha in {0, 1}.  A negative or NaN phase
    pressure is rejected.
    """
    _, _, k, dp = homogenized(alpha, p_plus, p_minus, mat)
    return k * (dp - (mat.mu_plus - mat.mu_minus) * du_dx)
