"""Barotropic pressure laws, two-fluid mixture coefficients, and the
homogenized (effective) coefficients with their pressure-relaxation source.

Everything here is a closed-form scalar function of the local state; all
functions broadcast over numpy arrays.  Each homogenized formula is
written once, on the shared denominator D = alpha*mu_- + (1-alpha)*mu_+:
``homogenized`` evaluates them all from one check and one D, as the macro
step does, and the public ``p_eff``, ``mu_eff``, ``relaxation_rhs`` and
``relaxation_weights`` are the same formulas, bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

WEIGHTING_CROSS = "cross"
WEIGHTING_OWN = "paper"
WEIGHTINGS = (WEIGHTING_CROSS, WEIGHTING_OWN)


class PressureLaw:
    """Base for barotropic laws p = p(rho) with p(rho) >= 0, nondecreasing."""

    def pressure(self, rho):
        raise NotImplementedError

    def potential(self, rho):
        """Energy density rho * integral_1^rho p(s)/s^2 ds.

        Accepts rho >= 0; the value at rho = 0 is the continuity limit 0.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLaw(PressureLaw):
    """p(rho) = K * rho**gamma with K > 0, gamma >= 1."""

    K: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.K < np.inf:
            raise ValueError(f"pressure coefficient must be > 0 and finite, got {self.K}")
        if not 1 <= self.gamma < np.inf:
            raise ValueError(f"pressure exponent must be >= 1 and finite, got {self.gamma}")

    def pressure(self, rho):
        rho = np.asarray(rho, dtype=float)
        if not (rho >= 0).all():
            raise ValueError("density must be >= 0")
        return self.K * rho**self.gamma

    def potential(self, rho):
        rho = np.asarray(rho, dtype=float)
        if not (rho >= 0).all():
            raise ValueError("density must be >= 0")
        if self.gamma == 1:
            # rho*log(rho) -> 0 as rho -> 0+
            with np.errstate(divide="ignore", invalid="ignore"):
                g = self.K * rho * np.log(rho)
            return np.where(rho == 0, 0.0, g)
        return self.K * rho * (rho ** (self.gamma - 1) - 1.0) / (self.gamma - 1.0)


@dataclass(frozen=True)
class TabulatedLaw(PressureLaw):
    """Monotone piecewise-linear p(rho) through (rho_table, p_table)."""

    rho_table: np.ndarray = field(default=None)
    p_table: np.ndarray = field(default=None)

    def __post_init__(self):
        rho_t = np.asarray(self.rho_table, dtype=float)
        p_t = np.asarray(self.p_table, dtype=float)
        if rho_t.ndim != 1 or rho_t.shape != p_t.shape or rho_t.size < 2:
            raise ValueError("tables must be matching 1-d arrays of length >= 2")
        if not np.all(np.diff(rho_t) > 0):
            raise ValueError("rho_table must be strictly increasing")
        if not (np.all(p_t >= 0) and np.all(np.diff(p_t) >= 0)):
            raise ValueError("p_table must be nonnegative and nondecreasing")
        object.__setattr__(self, "rho_table", rho_t)
        object.__setattr__(self, "p_table", p_t)

    def pressure(self, rho):
        rho = np.asarray(rho, dtype=float)
        if not (rho >= 0).all():
            raise ValueError("density must be >= 0")
        return np.interp(rho, self.rho_table, self.p_table)

    def potential(self, rho):
        """Exact: on each piece p = a + b s, whose integral of p/s^2 is
        a (1/lo - 1/hi) + b ln(hi/lo); outside the table p is constant."""
        rho = np.asarray(rho, dtype=float)
        if not (rho >= 0).all():
            raise ValueError("density must be >= 0")
        r_t, p_t = self.rho_table, self.p_table
        b = np.concatenate(([0.0], np.diff(p_t) / np.diff(r_t), [0.0]))
        a = np.concatenate(([p_t[0]], p_t[:-1] - b[1:-1] * r_t[:-1], [p_t[-1]]))
        # integrate from min(1, rho) to max(1, rho), each piece clipped to it
        r = np.where(rho == 0, 1.0, rho)[..., None]
        lo, hi = np.minimum(r, 1.0), np.maximum(r, 1.0)
        s_lo = np.clip(np.concatenate(([-np.inf], r_t)), lo, hi)
        s_hi = np.clip(np.concatenate((r_t, [np.inf])), lo, hi)
        integral = np.sum(a * (s_hi - s_lo) / (s_lo * s_hi) + b * np.log(s_hi / s_lo),
                          axis=-1)
        return np.where(rho == 0, 0.0, rho * np.where(rho < 1, -integral, integral))[()]


@dataclass(frozen=True)
class MaterialPair:
    """The two phases: pressure laws and constant finite viscosities mu > 0."""

    law_plus: PressureLaw
    law_minus: PressureLaw
    mu_plus: float
    mu_minus: float

    def __post_init__(self):
        if not (0 < self.mu_plus < np.inf and 0 < self.mu_minus < np.inf):
            raise ValueError("viscosities must be > 0 and finite")


def _check_fraction(w, name):
    w = np.asarray(w, dtype=float)
    if not ((w >= 0) & (w <= 1)).all():
        raise ValueError(f"{name} must lie in [0, 1]")
    return w


def mixture_pressure(c, rho, mat):
    """Sharp-interface mixture pressure c*p_+(rho) + (1-c)*p_-(rho)."""
    c = _check_fraction(c, "color")
    return c * mat.law_plus.pressure(rho) + (1.0 - c) * mat.law_minus.pressure(rho)


def mixture_viscosity(c, mat):
    """Sharp-interface mixture viscosity c*mu_+ + (1-c)*mu_-."""
    c = _check_fraction(c, "color")
    return c * mat.mu_plus + (1.0 - c) * mat.mu_minus


def mixture_potential(c, rho, mat):
    """Pressure potential of the mixture, affine in c like the pressure."""
    c = _check_fraction(c, "color")
    return c * mat.law_plus.potential(rho) + (1.0 - c) * mat.law_minus.potential(rho)


def _viscosity_weight(alpha, one_minus, mat):
    """D = alpha*mu_- + (1-alpha)*mu_+, the denominator every homogenized
    coefficient shares; > 0 for alpha in [0, 1]."""
    return alpha * mat.mu_minus + one_minus * mat.mu_plus


def _pure(alpha):
    """The masks alpha == 1 and alpha == 0 of the pure-phase endpoints."""
    return alpha == 1.0, alpha == 0.0


def _at_pure(pure, plus, minus, mixed):
    """``plus`` where alpha == 1, ``minus`` where alpha == 0, else ``mixed``."""
    return np.where(pure[0], plus, np.where(pure[1], minus, mixed))


def _mu_eff(alpha, denom, pure, mat):
    if mat.mu_plus == mat.mu_minus:
        return np.full_like(alpha, mat.mu_plus)
    return _at_pure(pure, mat.mu_plus, mat.mu_minus, mat.mu_plus * mat.mu_minus / denom)


def _p_eff(alpha, one_minus, p_p, p_m, denom, pure, mat, weighting):
    if weighting == WEIGHTING_CROSS:
        num = alpha * p_p * mat.mu_minus + one_minus * p_m * mat.mu_plus
        return _at_pure(pure, p_p, p_m, num / denom)
    return (alpha * p_p * mat.mu_plus + one_minus * p_m * mat.mu_minus) / denom


def _relaxation_factor(alpha, one_minus, denom):
    """k = alpha*(1-alpha)/D, which vanishes at alpha in {0, 1}."""
    return alpha * one_minus / denom


def _check_phase_pressures(p_plus, p_minus):
    p_plus = np.asarray(p_plus, dtype=float)
    p_minus = np.asarray(p_minus, dtype=float)
    if not ((p_plus >= 0).all() and (p_minus >= 0).all()):
        raise ValueError("phase pressures must be >= 0")
    return p_plus, p_minus


def _check_weighting(weighting):
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}, expected one of {WEIGHTINGS}")


def homogenized(alpha, p_plus, p_minus, mat, weighting=WEIGHTING_CROSS):
    """All homogenized coefficients of one state from one check and one D.

    Returns ``(p_eff, mu_eff, k, dp)``: the effective pressure and
    viscosity, the relaxation factor k = alpha*(1-alpha)/D and the phase
    pressure difference dp = p_plus - p_minus, so that the volume-fraction
    rate is ``k * (dp - (mu_+ - mu_-) * du_dx)``.  Each output is bit for
    bit what ``p_eff``, ``mu_eff`` and ``relaxation_rhs`` return, since
    they are built on the same formulas; the checks and their messages
    are theirs too.
    """
    alpha = _check_fraction(alpha, "volume fraction")
    _check_weighting(weighting)
    p_p, p_m = _check_phase_pressures(p_plus, p_minus)
    one_minus = 1.0 - alpha
    denom = _viscosity_weight(alpha, one_minus, mat)
    pure = _pure(alpha)
    return (_p_eff(alpha, one_minus, p_p, p_m, denom, pure, mat, weighting),
            _mu_eff(alpha, denom, pure, mat),
            _relaxation_factor(alpha, one_minus, denom),
            p_p - p_m)


def mu_eff(alpha, mat):
    """Homogenized viscosity mu_+ mu_- / (alpha mu_- + (1-alpha) mu_+).

    Endpoints return the pure-phase viscosities exactly.
    """
    alpha = _check_fraction(alpha, "volume fraction")
    return _mu_eff(alpha, _viscosity_weight(alpha, 1.0 - alpha, mat), _pure(alpha), mat)


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
    alpha = _check_fraction(alpha, "volume fraction")
    _check_weighting(weighting)
    p_p, p_m = _check_phase_pressures(p_plus, p_minus)
    one_minus = 1.0 - alpha
    return _p_eff(alpha, one_minus, p_p, p_m, _viscosity_weight(alpha, one_minus, mat),
                  _pure(alpha), mat, weighting)


def relaxation_weights(alpha, mat):
    """Coefficients (a, b) splitting the one-sided strain rates.

    Unique solution of 1 - a*mu_+ = b*alpha and 1 - a*mu_- = -b*(1-alpha):
    a = 1/((1-alpha)*mu_+ + alpha*mu_-), b = (mu_- - mu_+) * a.
    """
    alpha = _check_fraction(alpha, "volume fraction")
    denom = _viscosity_weight(alpha, 1.0 - alpha, mat)
    a = 1.0 / denom
    b = (mat.mu_minus - mat.mu_plus) / denom
    return a, b


def relaxation_rhs(alpha, p_plus, p_minus, du_dx, mat):
    """Rate of change of the volume fraction along particle paths, from
    the phase pressures p_plus = p_+(rho_+) and p_minus = p_-(rho_-).

    alpha*(1-alpha)/((1-alpha)*mu_+ + alpha*mu_-)
        * (p_plus - p_minus - (mu_+ - mu_-)*du_dx)

    Vanishes identically at alpha in {0, 1}.  A negative or NaN phase
    pressure is rejected.
    """
    alpha = _check_fraction(alpha, "volume fraction")
    p_p, p_m = _check_phase_pressures(p_plus, p_minus)
    one_minus = 1.0 - alpha
    k = _relaxation_factor(alpha, one_minus, _viscosity_weight(alpha, one_minus, mat))
    return k * (p_p - p_m - (mat.mu_plus - mat.mu_minus) * du_dx)
