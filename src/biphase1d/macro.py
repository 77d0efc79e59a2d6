"""Homogenized two-phase scheme: one velocity, effective coefficients,
and a volume fraction driven by pressure-difference relaxation.

Each cell carries the two phase masses as Lagrangian constants; the phase
densities are recovered from the evolving phase volumes.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .materials import WEIGHTING_CROSS, _homogenized_cells, _homogenized_inputs
from .meso import riemann_density, run_scheme
from .stepping import (StaggeredGrid, _advance, _back_difference, _cells, _split_point,
                       _workspace, node_mass)
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


def _phase_density(mass, fraction, dx, rho_old, lowest, out):
    """Phase density mass / (fraction * dx) into ``out``, frozen at rho_old
    where the phase volume vanishes; also returns how many such cells hold
    mass.  No patch pass runs when every phase volume (``lowest`` the least)
    is above ALPHA_GUARD."""
    if lowest > ALPHA_GUARD:
        np.multiply(fraction, dx, out=out)
        return np.divide(mass, out, out=out), 0
    ok = fraction > ALPHA_GUARD
    np.multiply(np.where(ok, fraction, 1.0), dx, out=out)
    np.divide(mass, out, out=out)
    np.copyto(out, rho_old, where=~ok)
    return out, int(np.count_nonzero(~ok & (mass > 0)))


def _clamp(alpha_raw):
    """alpha_raw clipped to [0, 1] in place, how many entries that moved, and
    the clipped (min, max), as the clip is monotone; no pass when every entry
    lies in (0, 1], as a zero of either sign takes the clip."""
    lo = np.minimum.reduce(alpha_raw, initial=np.inf)
    hi = np.maximum.reduce(alpha_raw, initial=-np.inf)
    if lo > 0 and hi <= 1:
        return alpha_raw, 0, (lo, hi)
    clipped = alpha_raw.clip(0.0, 1.0)
    moved = int(np.count_nonzero(clipped != alpha_raw))
    np.copyto(alpha_raw, clipped)
    span = (min(max(lo, 0.0), 1.0), max(min(hi, 1.0), 0.0))  # both ends clipped; NaN stays
    return alpha_raw, moved, span


def _run_constants(state):
    """The cell masses, node masses, workspace and split point of a run from
    state, checked."""
    cell_mass = state.cell_mass
    n = cell_mass.size
    return cell_mass, node_mass(cell_mass), _workspace(n, 4), _split_point(n)


def _rate(du, dx, dmu, dp, k, out):
    """The relaxation rate k*(dp - dmu*(du/dx)), into out."""
    r = np.divide(du, dx, out=out)
    r *= dmu
    np.subtract(dp, r, out=r)
    r *= k
    return r


def _relaxation(left, right, mat, cross, all_mixed, u_all, alpha, p_plus, p_minus, p_cells,
                mu_cells, k, dp, bound, u, du, dx, cap):
    """The homogenized coefficients, the increment bound, the old velocities'
    back difference into du and the relaxation's dt limit into cap, of a
    segment; returns that limit's least value."""
    _homogenized_cells(mat, cross, all_mixed, alpha, p_plus, p_minus, p_cells, mu_cells, k, dp)
    np.minimum(alpha, np.subtract(1.0, alpha, out=bound), out=bound)
    bound *= RELAX_ETA
    bound += RELAX_SLACK
    rate = _rate(_back_difference(u, u_all[left], du), dx, mat.mu_plus - mat.mu_minus, dp, k,
                 cap)
    with np.errstate(divide="ignore"):
        np.divide(bound, np.abs(rate, out=cap), out=cap)
    return (np.minimum.reduce(cap),)


def _update(left, right, alpha, d_alpha, mass_plus, mass_minus, dx, rho_plus, rho_minus,
            new_plus, new_minus, scratch):
    """alpha + d_alpha, clamped into d_alpha, and the phase densities into
    new_plus and new_minus, of a segment; returns the clamp and guard counts."""
    alpha_new, clamps, (lo, hi) = _clamp(np.add(alpha, d_alpha, out=d_alpha))
    _, guards_p = _phase_density(mass_plus, alpha_new, dx, rho_plus, lo, new_plus)
    # 1 - x is monotone, so 1 - hi is the least phase-minus fraction
    _, guards_m = _phase_density(mass_minus, np.subtract(1.0, alpha_new, out=scratch), dx,
                                 rho_minus, 1.0 - hi, new_minus)
    return clamps, guards_p + guards_m


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
    law is evaluated once, alpha and the phase pressures are checked once,
    and ``_relaxation`` forms the effective coefficients, the relaxation
    factor k = alpha*(1-alpha)/D and dp = p_+ - p_- once, into the workspace.
    An attempt then costs the relaxation rate k*(dp - (mu_+ - mu_-)*u_x).
    ``context`` is what run_scheme passes: the run constants of the run's
    first state, the split point of its cell-wise phases included; a call
    without it makes them, and fails, as that step does.
    """
    cell_mass, m_node, work, split = context or _run_constants(state)
    _, du, off, scratch, _, mu_cells, k, dp, bound = work
    alpha, all_mixed, p_plus, p_minus = _homogenized_inputs(
        state.alpha, mat.law_plus.pressure(state.rho_plus),
        mat.law_minus.pressure(state.rho_minus), weighting)
    d_alpha = np.empty_like(bound)  # the relaxation's dt limit, an increment, then the new alpha
    dmu = mat.mu_plus - mat.mu_minus
    # p_eff into the kernel's off, which it reads before writing
    cap, = _cells(split, _relaxation, 4, (np.minimum,))(
        -1, 0, mat, weighting == WEIGHTING_CROSS, all_mixed, state.u,
        alpha, p_plus, p_minus, off, mu_cells, k, dp, bound, state.u, du, state.grid.cell_dx,
        d_alpha)
    del p_plus, p_minus  # the attempts need only k and dp
    # dt_limit first: a NaN one then reaches the kernel's check
    cap = min(dt_limit, float(cap))

    def within_bound(u_new, du_new, new_x, new_dx, dt, dp, k, increment, scratch, bound):
        increment = _rate(du_new, new_dx, dmu, dp, k, increment)
        increment *= dt
        return bool(np.logical_and.reduce(np.abs(increment, out=scratch) <= bound))

    dt, grid, u, dissipation, _ = _advance(state.grid, state.u, du, cell_mass, m_node, mu_cells,
                                           off, cap, work, split, accept=within_bound,
                                           accept_cells=(dp, k, d_alpha, scratch, bound))

    rho_p, rho_m = np.empty_like(d_alpha), np.empty_like(d_alpha)
    clamps, guards = _cells(split, _update, 0, (operator.add, operator.add))(
        -1, 0, state.alpha, d_alpha, state.mass_plus, state.mass_minus, grid.cell_dx,
        state.rho_plus, state.rho_minus, rho_p, rho_m, scratch)
    return MacroState(grid=grid, u=u, alpha=d_alpha,
                      mass_plus=state.mass_plus, mass_minus=state.mass_minus,
                      rho_plus=rho_p, rho_minus=rho_m,
                      t=state.t + dt, dissipated=state.dissipated + dissipation,
                      clamp_events=state.clamp_events + clamps,
                      guard_events=state.guard_events + guards)


def run_macro(config):
    """Run the homogenized scheme from the Riemann datum to config.t_end."""
    return run_scheme(init_macro_riemann(config.cells),
                      lambda state, dt_limit, context: step_macro(state, config.mat,
                                                                  config.weighting, dt_limit,
                                                                  context=context),
                      _run_constants, config)
