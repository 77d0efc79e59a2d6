"""Staggered grid, node masses, momentum assembly, mesh motion, and the full step."""

from unittest.mock import patch

import numpy as np
import pytest

from biphase1d import stepping
from biphase1d.errors import StepFailure
from biphase1d.meso import MesoState
from biphase1d.stepping import (CFL_THETA, StaggeredGrid, assemble_momentum, choose_dt,
                                lagrangian_step, node_mass)
from biphase1d.tridiag import solve_cyclic_tridiagonal


def node_density(rho, g):
    """The density the node masses imply: the node mass over the node's
    dual width, half of each adjacent cell's width."""
    dx = g.cell_dx
    return node_mass(rho * dx) / (0.5 * (dx + np.roll(dx, -1)))


def density_state(g, rho):
    return MesoState(grid=g, u=np.zeros(g.J), cell_mass=rho * g.cell_dx, c=np.ones(g.J))


class TestGrid:
    def test_uniform(self):
        g = StaggeredGrid.uniform(4)
        assert np.allclose(g.node_x, [0.25, 0.5, 0.75, 1.0])
        assert np.allclose(g.cell_dx, 0.25)
        assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])

    def test_total_length(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 1, 19))
        g = StaggeredGrid(x)
        assert abs(np.sum(g.cell_dx) - 1.0) < 1e-14

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            StaggeredGrid([0.2, 0.1, 0.6])

    def test_span_exceeding_length_rejected(self):
        # seam cell would have negative width
        with pytest.raises(ValueError, match="widths"):
            StaggeredGrid([0.1, 0.5, 1.3])

    def test_too_few_interfaces_rejected(self):
        with pytest.raises(ValueError, match="at least 3 interface positions"):
            StaggeredGrid([0.5, 1.0])


class TestNodeDensity:
    """The node mass is the width-weighted mean density of the node's two
    cells times its dual width."""

    def test_equal_width_average(self):
        g = StaggeredGrid.uniform(4)
        rho = np.array([1.0, 3.0, 1.0, 3.0])
        assert np.allclose(node_density(rho, g), 2.0)

    def test_weighted_mean(self):
        # widths (1, 3) ratio around node 0: (1*4 + 3*0.8)/4 = 1.6
        g = StaggeredGrid(np.array([0.125, 0.5, 0.75, 1.0]))
        rho = np.array([4.0, 0.8, 1.0, 1.0])
        got = node_density(rho, g)
        assert np.isclose(got[0], (0.125 * 4.0 + 0.375 * 0.8) / 0.5)

    def test_constant_field(self):
        g = StaggeredGrid(np.cumsum([0.1, 0.3, 0.2, 0.4]))
        assert np.allclose(node_density(np.full(4, 2.5), g), 2.5)

    def test_bounded_by_neighbors(self):
        rng = np.random.default_rng(1)
        g = StaggeredGrid(np.sort(rng.uniform(0, 1, 16)))
        rho = rng.uniform(0.5, 3.0, 16)
        nd = node_density(rho, g)
        lo = np.minimum(rho, np.roll(rho, -1))
        hi = np.maximum(rho, np.roll(rho, -1))
        assert np.all(nd >= lo - 1e-15) and np.all(nd <= hi + 1e-15)

    def test_nonpositive_density_rejected(self):
        g = StaggeredGrid.uniform(4)
        with pytest.raises(ValueError, match="cell masses must be > 0"):
            node_density(np.array([1.0, -1.0, 1.0, 1.0]), g)


class TestMomentum:
    def test_zero_viscosity_uniform_pressure_keeps_velocity(self):
        g = StaggeredGrid.uniform(8)
        u_old = np.sin(np.arange(8))
        system = assemble_momentum(g, u_old, np.zeros(8), np.ones(8), np.ones(8), dt=0.1)
        assert np.allclose(solve_cyclic_tridiagonal(*system), u_old, atol=1e-15)

    def test_equilibrium_stays_at_rest(self):
        g = StaggeredGrid.uniform(8)
        system = assemble_momentum(g, np.zeros(8), np.full(8, 0.3), np.full(8, 2.0),
                                   np.ones(8), dt=0.05)
        assert np.array_equal(solve_cyclic_tridiagonal(*system), np.zeros(8))

    def test_against_dense_relation_oracle(self):
        # J=4 uniform grid, unit node masses, mu=1, dt=0.1, p=(1,2,1,2)
        g = StaggeredGrid.uniform(4)
        mu = np.ones(4)
        p = np.array([1.0, 2.0, 1.0, 2.0])
        mass = np.ones(4)
        dt = 0.1
        u = solve_cyclic_tridiagonal(*assemble_momentum(g, np.zeros(4), mu, p, mass, dt))

        A = np.zeros((4, 4))
        rhs = np.zeros(4)
        for j in range(4):
            jl, jr = (j - 1) % 4, (j + 1) % 4
            A[j, j] += mass[j] + dt * mu[j] / g.cell_dx[j] + dt * mu[jr] / g.cell_dx[jr]
            A[j, jl] -= dt * mu[j] / g.cell_dx[j]
            A[j, jr] -= dt * mu[jr] / g.cell_dx[jr]
            rhs[j] = -dt * (p[jr] - p[j])
        assert np.allclose(u, np.linalg.solve(A, rhs), atol=1e-14)

    def test_strict_diagonal_dominance(self):
        rng = np.random.default_rng(2)
        g = StaggeredGrid(np.sort(rng.uniform(0, 1, 12)))
        diag, off, _ = assemble_momentum(g, rng.normal(size=12), rng.uniform(0.01, 1, 12),
                                         rng.uniform(0.5, 4, 12), rng.uniform(0.1, 2, 12),
                                         dt=0.3)
        # row j's off-diagonal entries are off[j-1] and off[j]
        assert np.all(diag > np.abs(np.roll(off, 1)) + np.abs(off))

    def test_bad_inputs_rejected(self):
        g = StaggeredGrid.uniform(4)
        with pytest.raises(ValueError, match="dt"):
            assemble_momentum(g, np.zeros(4), np.ones(4), np.ones(4), np.ones(4), dt=0.0)
        with pytest.raises(ValueError, match="masses"):
            assemble_momentum(g, np.zeros(4), np.ones(4), np.ones(4),
                              np.array([1.0, 0.0, 1.0, 1.0]), dt=0.1)


class TestMeshMotion:
    def test_zero_velocity(self):
        g = StaggeredGrid.uniform(6)
        g2 = StaggeredGrid(g.node_x + 0.1 * np.zeros(6))
        assert np.array_equal(g2.node_x, g.node_x)

    def test_rigid_translation(self):
        g = StaggeredGrid(np.sort(np.random.default_rng(3).uniform(0, 1, 9)))
        g2 = StaggeredGrid(g.node_x + 0.05 * np.full(9, 2.0))
        assert np.allclose(g2.node_x, g.node_x + 0.1)
        assert np.allclose(g2.cell_dx, g.cell_dx, atol=1e-15)

    def test_total_width_preserved(self):
        rng = np.random.default_rng(4)
        g = StaggeredGrid(np.sort(rng.uniform(0, 1, 33)))
        g2 = StaggeredGrid(g.node_x + 1e-3 * rng.normal(scale=0.1, size=33))
        assert abs(np.sum(g2.cell_dx) - np.sum(g.cell_dx)) < 1e-14

    def test_inversion_rejected(self):
        g = StaggeredGrid.uniform(4)
        u = np.array([10.0, -10.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="cell widths"):
            StaggeredGrid(g.node_x + 0.1 * u)


class TestDensityUpdate:
    """A density is its cell's constant mass over the cell's current width."""

    def test_unchanged_widths(self):
        g = StaggeredGrid(np.array([0.1, 0.3, 1.0]))
        s = density_state(g, np.array([1.0, 2.0, 3.0]))
        moved = MesoState(grid=StaggeredGrid(g.node_x + 0.1 * np.zeros(3)), u=s.u,
                          cell_mass=s.cell_mass, c=s.c)
        assert np.array_equal(moved.rho, s.rho)

    def test_doubled_width_halves_density(self):
        s = density_state(StaggeredGrid.uniform(8), np.full(8, 2.0))
        # four of those cell masses on cells twice as wide
        doubled = MesoState(grid=StaggeredGrid.uniform(4), u=np.zeros(4),
                            cell_mass=s.cell_mass[::2], c=np.ones(4))
        assert np.all(doubled.rho == 1.0)

    def test_hand_value(self):
        # widths (1/4, 1/4, 1/2) and masses (1/2, 1/8, 1/2)
        g = StaggeredGrid(np.array([0.25, 0.5, 1.0]))
        s = MesoState(grid=g, u=np.zeros(3), cell_mass=np.array([0.5, 0.125, 0.5]),
                      c=np.ones(3))
        assert np.array_equal(s.rho, [2.0, 0.5, 1.0])

    def test_mass_reproducible(self):
        rng = np.random.default_rng(5)
        g = StaggeredGrid(np.cumsum(rng.uniform(1e-4, 1e-2, 100)))
        s = density_state(StaggeredGrid.uniform(100), rng.uniform(0.1, 5, 100))
        moved = MesoState(grid=g, u=s.u, cell_mass=s.cell_mass, c=s.c)
        assert np.allclose(moved.rho * g.cell_dx, s.cell_mass, rtol=1e-15, atol=0.0)


class TestChooseDt:
    def test_step_from_rest_uses_dt_limit(self):
        g = StaggeredGrid.uniform(10)
        out = lagrangian_step(g, np.zeros(10), g.cell_dx, np.full(10, 0.1), np.ones(10),
                              dt_limit=0.02)
        assert out.dt_used == 0.02

    def test_formula_value(self):
        g = StaggeredGrid.uniform(1000)
        u = np.zeros(1000)
        u[5] = 0.5
        dt = min(choose_dt(g, u), 1.0)
        assert np.isclose(dt, CFL_THETA * 0.001 / 0.5, rtol=1e-9)

    def test_monotone_in_velocity_jump(self):
        g = StaggeredGrid.uniform(50)
        dts = []
        for jump in (0.1, 0.5, 2.5):
            u = np.zeros(50)
            u[10] = jump
            dts.append(min(choose_dt(g, u), 1.0))
        assert dts[0] >= dts[1] >= dts[2]


class TestLagrangianStep:
    def test_equilibrium_fixed_point(self):
        g = StaggeredGrid.uniform(8)
        out = lagrangian_step(g, np.zeros(8), 1.5 * g.cell_dx, np.full(8, 0.1),
                              np.full(8, 1.5), dt_limit=1e-4)
        assert np.array_equal(out.u, np.zeros(8))
        assert np.array_equal(out.grid.node_x, g.node_x)
        assert np.array_equal(out.grid.cell_dx, g.cell_dx)
        assert out.dissipation_increment == 0.0

    def test_rigid_motion_fixed_point(self):
        g = StaggeredGrid.uniform(8)
        u = np.full(8, 0.7)
        out = lagrangian_step(g, u, 2.0 * g.cell_dx, np.full(8, 0.1), np.full(8, 3.0),
                              dt_limit=1e-4)
        assert np.allclose(out.u, u, rtol=1e-14)
        assert np.allclose(out.grid.cell_dx, g.cell_dx, rtol=1e-12)

    def test_per_cell_mass_conserved(self):
        rng = np.random.default_rng(6)
        g = StaggeredGrid.uniform(32)
        mass = rng.uniform(0.2, 3.0, 32) * g.cell_dx
        kept = mass.copy()
        out = lagrangian_step(g, rng.normal(scale=0.2, size=32), mass,
                              np.full(32, 0.1), rng.uniform(0.5, 4.0, 32), dt_limit=1e-4)
        assert not np.array_equal(out.grid.cell_dx, g.cell_dx)
        assert np.array_equal(mass, kept)
        s = MesoState(grid=out.grid, u=out.u, cell_mass=mass, c=np.ones(32))
        assert np.allclose(s.rho * out.grid.cell_dx, kept, rtol=1e-15, atol=0.0)

    def test_node_mass_conserved_riemann_config(self):
        # one step from the alternating-phase Riemann setup at J=8
        from biphase1d.materials import MaterialPair, PowerLaw, mixture_pressure, mixture_viscosity
        from biphase1d.meso import init_meso_riemann

        state = init_meso_riemann(8)
        mat = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.1)
        p = mixture_pressure(state.c, state.rho, mat)
        mu = mixture_viscosity(state.c, mat)
        mass_before = node_mass(state.cell_mass)
        out = lagrangian_step(state.grid, state.u, state.cell_mass, mu, p, dt_limit=1e-4)
        rho_after = state.cell_mass / out.grid.cell_dx
        mass_after = node_mass(rho_after * out.grid.cell_dx)
        assert not np.array_equal(out.grid.cell_dx, state.grid.cell_dx)
        assert np.allclose(mass_after, mass_before, rtol=1e-14)

    def test_total_mass_and_length_conserved(self):
        rng = np.random.default_rng(7)
        g = StaggeredGrid.uniform(64)
        mass = rng.uniform(0.2, 3.0, 64) * g.cell_dx
        u = rng.normal(scale=0.3, size=64)
        out = lagrangian_step(g, u, mass, np.full(64, 0.05), rng.uniform(0.5, 4.0, 64),
                              dt_limit=1e-4)
        rho_after = mass / out.grid.cell_dx
        assert np.isclose(np.sum(rho_after * out.grid.cell_dx), np.sum(mass), rtol=1e-13)
        assert np.isclose(np.sum(out.grid.cell_dx), 1.0, atol=1e-12)

    def test_dt_limit_honored(self):
        g = StaggeredGrid.uniform(8)
        out = lagrangian_step(g, np.zeros(8), g.cell_dx, np.full(8, 0.1),
                              np.ones(8), dt_limit=1e-5)
        assert out.dt_used == 1e-5

    def test_inversion_retries_then_fails(self):
        # u_old = 0 defeats the CFL predictor, so a strong alternating
        # pressure with no damping must invert cells at the dt_max try and
        # force halvings
        g = StaggeredGrid.uniform(8)
        p = np.where(np.arange(8) % 2 == 0, 100.0, 0.0)
        with patch.object(stepping, "MAX_HALVINGS", 60):
            out = lagrangian_step(g, np.zeros(8), g.cell_dx, np.zeros(8), p, dt_limit=1.0)
        assert out.halvings > 0
        with (patch.object(stepping, "MAX_HALVINGS", 1),
              pytest.raises(StepFailure, match="cell inversion persisted after 1 ") as info):
            lagrangian_step(g, np.zeros(8), g.cell_dx, np.zeros(8), p, dt_limit=1.0)
        # dt = 1 and 1/2 both invert; the failure reports the last of them
        assert info.value.diagnostics["dt"] == 0.5

    def test_failure_reports_the_last_attempted_dt(self):
        g = StaggeredGrid.uniform(8)
        tried = []

        def refuse(u_new, new_grid, dt):
            tried.append(dt)
            return False

        with (patch.object(stepping, "MAX_HALVINGS", 3),
              pytest.raises(StepFailure, match="step rejection persisted after 3 ") as info):
            lagrangian_step(g, np.zeros(8), g.cell_dx, np.full(8, 0.1), np.ones(8),
                            dt_limit=1e-2, accept=refuse)
        assert tried == [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        assert info.value.diagnostics["dt"] == 1.25e-3

    def test_density_envelope_fails_the_step_without_a_retry(self):
        # nodes 2 and 3 close in on the dense cell 3 at unit speed and no
        # pressure holds them back: the dt candidate squeezes its density
        # from 7000 to about 11700, while half that dt would give 8750
        g = StaggeredGrid.uniform(8)
        mass = g.cell_dx.copy()
        mass[3] *= 7000.0
        u = np.zeros(8)
        u[2], u[3] = 1.0, -1.0
        args = (g, u, mass, np.full(8, 1e-3), np.zeros(8))
        dt = min(choose_dt(g, u), 1.0)
        with pytest.raises(StepFailure,
                           match=r"^density left the sane range \[0.0001, 10000.0\]$") as info:
            lagrangian_step(*args, dt_limit=1.0)
        assert info.value.diagnostics["dt"] == dt
        half = lagrangian_step(*args, dt_limit=0.5 * dt)
        assert half.halvings == 0
        assert np.max(mass / half.grid.cell_dx) < 1e4

    def test_negative_cell_between_heavier_neighbours_rejected(self):
        # both node masses of the negative cell are positive, so the
        # momentum assembly alone would accept them
        g = StaggeredGrid.uniform(4)
        mass = np.array([2.0, -1.0, 2.0, 2.0])
        assert np.all(0.5 * (mass + np.roll(mass, -1)) > 0)
        assemble_momentum(g, np.zeros(4), np.ones(4), np.ones(4),
                          0.5 * (mass + np.roll(mass, -1)), dt=0.1)
        with pytest.raises(ValueError, match="cell masses must be > 0"):
            lagrangian_step(g, np.zeros(4), mass, np.ones(4), np.ones(4), dt_limit=1e-4)
