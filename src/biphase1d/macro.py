"""Homogenized two-phase scheme: one velocity, effective coefficients,
and a volume fraction driven by pressure-difference relaxation.

Each cell carries the two phase masses as Lagrangian constants; the phase
densities are recovered from the evolving phase volumes.
"""

from dataclasses import dataclass

import numpy as np

from .materials import _homogenized
from .meso import riemann_density, run_scheme
from .stepping import StaggeredGrid, _advance, _workspace, back_difference, node_mass
# unused here: perfbench/probes.py binds these names until ROADMAP item 8 rebinds it
from .materials import mu_eff, p_eff, relaxation_rhs  # noqa: F401
from .stepping import lagrangian_step  # noqa: F401

# below this distance from 0 or 1, a phase volume is too small to divide by
ALPHA_GUARD = 1e-12
# the largest volume-fraction increment of a step, as a share of min(alpha, 1 - alpha)
RELAX_ETA = 0.5
# slack so the relaxation dt limiter never stalls at alpha in {0, 1}
RELAX_SLACK = 1e-6


@dataclass
class MacroState:
    grid: StaggeredGrid
    u: np.ndarray
    alpha: np.ndarray
    mass_plus: np.ndarray
    mass_minus: np.ndarray
    rho_plus: np.ndarray
    rho_minus: np.ndarray
    t: float = 0.0
    dissipated: float = 0.0
    clamp_events: int = 0
    guard_events: int = 0

    @property
    def weight(self):
        """Phase-+ share of each cell: the volume fraction."""
        return self.alpha

    @property
    def cell_mass(self):
        return self.mass_plus + self.mass_minus

    @property
    def rho(self):
        """Mixture density (M_+ + M_-)/dx."""
        return self.cell_mass / self.grid.cell_dx


def init_macro_riemann(J):
    """Riemann datum: alpha = 1/2 and equal phase densities everywhere."""
    if J < 4:
        raise ValueError("cell count must be >= 4")
    grid = StaggeredGrid.uniform(J)
    alpha = np.full(J, 0.5)
    rho_p = riemann_density(grid.midpoints)
    rho_m = rho_p.copy()
    return MacroState(grid=grid, u=np.zeros(J),
                      alpha=alpha,
                      mass_plus=alpha * rho_p * grid.cell_dx,
                      mass_minus=(1.0 - alpha) * rho_m * grid.cell_dx,
                      rho_plus=rho_p, rho_minus=rho_m)


def _phase_density(mass, fraction, dx, rho_old, lowest):
    """Phase density mass / (fraction * dx), frozen at rho_old where the
    phase volume vanishes; also returns how many such cells hold mass.
    The density is an ndarray, as np.where returns; no np.where pass runs
    when every phase volume (``lowest`` the least) is above ALPHA_GUARD."""
    if lowest > ALPHA_GUARD:
        rho = np.asarray(fraction * dx)
        return np.divide(mass, rho, out=rho), 0
    ok = fraction > ALPHA_GUARD
    rho = np.where(ok, mass / (np.where(ok, fraction, 1.0) * dx), rho_old)
    return rho, int(np.count_nonzero(~ok & (mass > 0)))


def _clamp(alpha_raw):
    """alpha_raw clipped to [0, 1], how many entries that moved, and the
    clipped (min, max), as the clip is monotone; no pass when every entry
    lies in (0, 1], as a zero of either sign takes the clip."""
    lo = np.minimum.reduce(alpha_raw, initial=np.inf)
    hi = np.maximum.reduce(alpha_raw, initial=-np.inf)
    if lo > 0 and hi <= 1:
        return alpha_raw, 0, (lo, hi)
    alpha_new = alpha_raw.clip(0.0, 1.0)
    span = (min(max(lo, 0.0), 1.0), max(min(hi, 1.0), 0.0))  # both ends clipped; NaN stays
    return alpha_new, int(np.count_nonzero(alpha_new != alpha_raw)), span


def _run_constants(state):
    """The cell masses, node masses and workspace of a run from state, checked."""
    cell_mass = state.cell_mass
    return cell_mass, node_mass(cell_mass), _workspace(cell_mass.size, 4)


def step_macro(state, mat, weighting, dt_limit, *, context=None):
    """One homogenized step.

    The cell masses ride the shared Lagrangian kernel with the effective
    viscosity and pressure; the volume fraction then takes a
    forward-Euler relaxation increment built from the *new* velocities
    and cell widths, is clamped to [0, 1] (counted), and the phase
    densities are recovered from the constant phase masses.  The dt is
    predicted at the current velocities and capped by dt_limit and the
    relaxation bound (an infinite dt_limit passes where the bound is
    finite); an attempt whose increment exceeds the bound is turned down
    and redone at half dt.
    The phase densities do not change within a step, so each pressure
    law is evaluated once, and ``_homogenized`` checks alpha and the phase
    pressures and forms the effective coefficients, the relaxation factor
    k = alpha*(1-alpha)/D and dp = p_+ - p_- once, into the workspace.
    An attempt then costs the relaxation rate k*(dp - (mu_+ - mu_-)*u_x).
    ``context`` is what run_scheme passes: the run constants of the run's
    first state; a call without it makes them, and fails, as that step does.
    """
    cell_mass, m_node, work = context or _run_constants(state)
    _, du, off, scratch, _, *rows, bound = work
    p_plus = mat.law_plus.pressure(state.rho_plus)
    p_minus = mat.law_minus.pressure(state.rho_minus)
    # p_eff into the kernel's off, which it reads before writing
    p_cells, mu_cells, k, dp = _homogenized(state.alpha, p_plus, p_minus, mat, weighting,
                                            (off, *rows))
    del p_plus, p_minus  # the attempts need only k and dp
    dmu = mat.mu_plus - mat.mu_minus
    np.minimum(state.alpha, np.subtract(1.0, state.alpha, out=bound), out=bound)
    bound *= RELAX_ETA
    bound += RELAX_SLACK
    d_alpha = np.empty_like(bound)  # an attempt's increment, then the new alpha

    def rate(du, dx):  # k*(dp - dmu*(du/dx)), in d_alpha
        r = np.divide(du, dx, out=d_alpha)
        r *= dmu
        np.subtract(dp, r, out=r)
        r *= k
        return r

    du_old = back_difference(state.u, out=du)
    with np.errstate(divide="ignore"):
        np.divide(bound, np.abs(rate(du_old, state.grid.cell_dx), out=d_alpha), out=d_alpha)
        # dt_limit first: a NaN one then reaches the kernel's check
        cap = min(dt_limit, float(np.minimum.reduce(d_alpha)))

    def within_bound(u_new, du_new, new_x, new_dx, dt):
        increment = rate(du_new, new_dx)
        increment *= dt
        return bool(np.logical_and.reduce(np.abs(increment, out=scratch) <= bound))

    dt, grid, u, dissipation, _ = _advance(state.grid, state.u, du_old, cell_mass, m_node,
                                           mu_cells, p_cells, cap, work, accept=within_bound)

    alpha_new, clamps, (lo, hi) = _clamp(np.add(state.alpha, d_alpha, out=d_alpha))
    dx_new = grid.cell_dx
    rho_p, guards_p = _phase_density(state.mass_plus, alpha_new, dx_new, state.rho_plus, lo)
    # 1 - x is monotone, so 1 - hi is the least phase-minus fraction
    rho_m, guards_m = _phase_density(state.mass_minus, np.subtract(1.0, alpha_new, out=scratch),
                                     dx_new, state.rho_minus, 1.0 - hi)

    return MacroState(grid=grid, u=u, alpha=alpha_new,
                      mass_plus=state.mass_plus, mass_minus=state.mass_minus,
                      rho_plus=rho_p, rho_minus=rho_m,
                      t=state.t + dt, dissipated=state.dissipated + dissipation,
                      clamp_events=state.clamp_events + clamps,
                      guard_events=state.guard_events + guards_p + guards_m)


def run_macro(config):
    """Run the homogenized scheme from the Riemann datum to config.t_end."""
    return run_scheme(init_macro_riemann(config.cells),
                      lambda state, dt_limit, context: step_macro(state, config.mat,
                                                                  config.weighting, dt_limit,
                                                                  context=context),
                      _run_constants, config)
