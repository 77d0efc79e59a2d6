"""Homogenized two-phase scheme: one velocity, effective coefficients,
and a volume fraction driven by pressure-difference relaxation.

Each cell carries the two phase masses as Lagrangian constants; the phase
densities are recovered from the evolving phase volumes.
"""

from dataclasses import dataclass, replace

import numpy as np

from .materials import mu_eff, p_eff, relaxation_rhs
from .meso import check_density, riemann_density, run_scheme
from .stepping import StaggeredGrid, lagrangian_step

# below this distance from 0 or 1, a phase volume is too small to divide by
ALPHA_GUARD = 1e-12
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


def _alpha_increment_bound(alpha, policy):
    return policy.relax_eta * np.minimum(alpha, 1.0 - alpha) + RELAX_SLACK


def _relax_dt_cap(state, mat, bound):
    """Predict a dt keeping the volume-fraction increment within ``bound``,
    using the current velocity field (the actual increment is validated
    against the implicit one after the solve)."""
    du_dx = (state.u - np.roll(state.u, 1)) / state.grid.cell_dx
    rate = np.abs(relaxation_rhs(state.alpha, state.rho_plus, state.rho_minus,
                                 du_dx, mat))
    with np.errstate(divide="ignore"):
        caps = np.where(rate > 0, bound / rate, np.inf)
    return float(np.min(caps))


def step_macro(state, mat, weighting, policy, dt_limit=None):
    """One homogenized step.

    The mixture density rides the shared Lagrangian kernel with the
    effective viscosity and pressure; the volume fraction then takes a
    forward-Euler relaxation increment built from the *new* velocities
    and cell widths, is clamped to [0, 1] (counted), and the phase
    densities are recovered from the constant phase masses.  An attempt
    whose increment exceeds the stability bound is turned down, so the
    kernel halves dt and redoes the solve.
    """
    rho_mix = state.rho
    p_cells = p_eff(state.alpha, state.rho_plus, state.rho_minus, mat, weighting)
    mu_cells = mu_eff(state.alpha, mat)

    bound = _alpha_increment_bound(state.alpha, policy)
    cap = _relax_dt_cap(state, mat, bound)
    if dt_limit is not None:
        cap = min(cap, dt_limit)

    d_alpha = None

    def increment_within_bound(u_new, new_grid, dt):
        nonlocal d_alpha
        du_dx = (u_new - np.roll(u_new, 1)) / new_grid.cell_dx
        d_alpha = dt * relaxation_rhs(state.alpha, state.rho_plus,
                                      state.rho_minus, du_dx, mat)
        return bool(np.all(np.abs(d_alpha) <= bound))

    out = lagrangian_step(state.grid, state.u, rho_mix, mu_cells, p_cells,
                          policy, dt_limit=cap, accept=increment_within_bound)

    alpha_raw = state.alpha + d_alpha
    alpha_new = np.clip(alpha_raw, 0.0, 1.0)
    clamps = int(np.count_nonzero(alpha_new != alpha_raw))

    # recover phase densities; freeze them where the phase volume vanishes
    dx_new = out.grid.cell_dx
    plus_ok = alpha_new > ALPHA_GUARD
    minus_ok = (1.0 - alpha_new) > ALPHA_GUARD
    vol_plus = np.where(plus_ok, alpha_new, 1.0) * dx_new
    vol_minus = np.where(minus_ok, 1.0 - alpha_new, 1.0) * dx_new
    rho_p = np.where(plus_ok, state.mass_plus / vol_plus, state.rho_plus)
    rho_m = np.where(minus_ok, state.mass_minus / vol_minus, state.rho_minus)
    guards = int(np.count_nonzero(~plus_ok & (state.mass_plus > 0))
                 + np.count_nonzero(~minus_ok & (state.mass_minus > 0)))

    check_density(state.cell_mass / dx_new, state.t, out.dt_used)

    return replace(state, grid=out.grid, u=out.u, alpha=alpha_new,
                   rho_plus=rho_p, rho_minus=rho_m,
                   t=state.t + out.dt_used,
                   dissipated=state.dissipated + out.dissipation_increment,
                   clamp_events=state.clamp_events + clamps,
                   guard_events=state.guard_events + guards)


def run_macro(config):
    """Run the homogenized scheme from the Riemann datum to config.t_end."""
    return run_scheme(init_macro_riemann(config.cells),
                      lambda state, dt_limit: step_macro(state, config.mat,
                                                         config.weighting, config.policy,
                                                         dt_limit=dt_limit),
                      config)
