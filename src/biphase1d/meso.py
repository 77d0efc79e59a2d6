"""Sharp-interface two-fluid scheme: every cell holds a pure phase
(color 0 or 1) that is transported exactly by the moving mesh.

The run loop that the homogenized scheme shares lives here too.
"""

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import SolverError
# mixture_pressure and lagrangian_step are unused here: perfbench/probes.py binds them
from .materials import mixture_pressure, mixture_viscosity  # noqa: F401
from .stepping import StaggeredGrid, _advance, _split_point, _workspace, node_mass
from .stepping import lagrangian_step  # noqa: F401


@dataclass
class MesoState:
    """Sharp-interface state; each cell mass is constant for the whole run.
    ``weight``, ``rho``, ``rho_plus``, ``rho_minus``, ``cell_mass`` and
    ``alpha`` are the view it shares with MacroState."""

    grid: StaggeredGrid
    u: np.ndarray
    cell_mass: np.ndarray
    c: np.ndarray
    t: float = 0.0
    dissipated: float = 0.0

    @property
    def weight(self):
        """Phase-+ share of each cell: the color."""
        return self.c

    @property
    def rho(self):
        """Cell density: the constant cell mass over the current width."""
        return self.cell_mass / self.grid.cell_dx

    # a pure cell's phase density is its density
    rho_plus = rho_minus = rho

    @property
    def alpha(self):
        """The windowed volume-fraction estimate of every cell."""
        return diagnostics.estimate_alpha_meso(self)


def riemann_density(x):
    """The two-plateau initial density: 1/8 outside [1/4, 3/4), 2 inside."""
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0.25) & (x < 0.75), 2.0, 0.125)


def init_meso_riemann(J, stride=1):
    """Alternating-phase datum on a uniform mesh.

    Phase + occupies runs of ``stride`` cells starting at cell 0; each
    cell's mass is its width times the Riemann datum sampled at its
    midpoint; velocity 0.
    """
    if J < 4 or J % (2 * stride) != 0:
        raise ValueError(f"cell count must be >= 4 and a multiple of {2 * stride}")
    grid = StaggeredGrid.uniform(J)
    c = np.where((np.arange(J) // stride) % 2 == 0, 1.0, 0.0)
    return MesoState(grid=grid, u=np.zeros(J),
                     cell_mass=riemann_density(grid.midpoints) * grid.cell_dx, c=c)


def _run_constants(state, mat):
    """Node masses, viscosities, phase-+ mask, workspace and split point of a
    run from state, checked in that order after the color's purity."""
    if (state.c * (1.0 - state.c) != 0.0).any():
        raise ValueError("color field must be exactly 0 or 1 in every cell")
    n = state.c.size
    return (node_mass(state.cell_mass), mixture_viscosity(state.c, mat), state.c == 1.0,
            _workspace(n), _split_point(n))


def step_meso(state, mat, dt_limit, *, context=None):
    """Advance one step: mixture coefficients per cell, then the shared
    Lagrangian kernel, with dt capped by dt_limit.  The color field and
    the cell masses are carried over untouched.  ``context`` is what
    run_scheme passes: the run constants of the run's first state, the split
    point of its cell-wise phases included.  The cell pressures are one
    np.where in the caller: written into the halves of an array, they cost
    as much as the whole np.where saves."""
    m_node, mu_cells, plus, work, split = context or _run_constants(state, mat)
    rho = np.divide(state.cell_mass, state.grid.cell_dx, out=work[3])
    # a pure cell reads only its own phase's law, as in mixture_pressure
    p_cells = np.where(plus, mat.law_plus.pressure(rho), mat.law_minus.pressure(rho))
    dt, grid, u, dissipation, _ = _advance(state.grid, state.u, None, state.cell_mass, m_node,
                                           mu_cells, p_cells, dt_limit, work, split, None, ())
    return MesoState(grid=grid, u=u, cell_mass=state.cell_mass, c=state.c,
                     t=state.t + dt, dissipated=state.dissipated + dissipation)


def run_scheme(state, step, run_constants, config):
    """Advance ``state`` to config.t_end with ``step(state, dt_limit, context)``,
    where dt_limit is config.dt_max or the time left, whichever is less, and
    context is ``run_constants(state)`` of the first state, made at the first
    step: no frame but this one holds the initial state, which the first
    step's result then replaces.

    Returns (final state, diagnostics records).  Records are emitted at
    the start, every config.cadence accepted steps, and at t_end; the last
    step is clamped so the run lands on t_end exactly.  A SolverError
    leaves with the records taken so far and the time before the failed
    step in its diagnostics.

    Overflow and invalid-value warnings are off for the run: every
    non-finite value a step can make fails that step, and an overflowing
    energy is recorded as inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        records = [diagnostics.snapshot(state, config.mat, dt_used=0.0)]
        steps = 0
        context = None
        try:
            while state.t < config.t_end:
                t_before = state.t
                context = context or run_constants(state)
                state = step(state, min(config.dt_max, config.t_end - state.t), context)
                if config.t_end - state.t <= 1e-12 * max(1.0, config.t_end):
                    state.t = config.t_end
                steps += 1
                if steps % config.cadence == 0 or state.t >= config.t_end:
                    records.append(diagnostics.snapshot(state, config.mat,
                                                        dt_used=state.t - t_before))
        except SolverError as failure:
            failure.diagnostics.update(t=state.t, records=records)
            raise
    return state, records


def run_meso(config):
    """Run the sharp-interface scheme from the Riemann datum to config.t_end."""
    return run_scheme(init_meso_riemann(config.cells),
                      lambda state, dt_limit, context: step_meso(state, config.mat, dt_limit,
                                                                 context=context),
                      lambda state: _run_constants(state, config.mat), config)
