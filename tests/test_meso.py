"""Sharp-interface scheme: initial datum, purity, conservation, symmetry."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from biphase1d.diagnostics import coarse_grain, snapshot
from biphase1d.materials import MaterialPair, PowerLaw, mixture_pressure
from biphase1d.meso import MesoState, init_meso_riemann, run_meso, step_meso
from biphase1d.stepping import StaggeredGrid

MAT1 = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.1)
MAT2 = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.02)


def config(cells=64, t_end=0.01, mat=MAT1, dt_max=1e-4, cadence=10):
    return SimpleNamespace(cells=cells, t_end=t_end, mat=mat,
                           dt_max=dt_max, cadence=cadence)


class TestInit:
    def test_small_case(self):
        s = init_meso_riemann(4)
        assert np.array_equal(s.c, [1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(s.rho, [0.125, 2.0, 2.0, 0.125])

    def test_reference_resolution(self):
        s = init_meso_riemann(1000)
        assert s.grid.J == 1000
        assert np.all((s.c == 0) | (s.c == 1))
        assert set(np.unique(s.rho)) == {0.125, 2.0}
        # the jumps sit exactly at x = 1/4 and 3/4
        heavy = s.rho == 2.0
        assert np.array_equal(np.nonzero(heavy)[0], np.arange(250, 750))

    def test_total_mass(self):
        for J in (1000, 4):
            mass = snapshot(init_meso_riemann(J), MAT1, 0.0).total_mass
            assert np.isclose(mass, 1.0625, rtol=1e-14)

    def test_bad_cell_counts_rejected(self):
        with pytest.raises(ValueError):
            init_meso_riemann(5)
        with pytest.raises(ValueError):
            init_meso_riemann(2)

    def test_stride(self):
        s = init_meso_riemann(12, stride=3)
        assert np.array_equal(s.c, [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0])
        with pytest.raises(ValueError):
            init_meso_riemann(10, stride=3)


class TestStep:
    def test_next_state_carries_every_field(self):
        # the step names every field of the state it builds; one left out
        # would fall back to its default
        s = replace(init_meso_riemann(8), t=0.5, dissipated=2.0)
        s2 = step_meso(s, MAT2, dt_limit=1e-4)
        assert [f.name for f in fields(MesoState)] == [
            "grid", "u", "cell_mass", "c", "t", "dissipated"]
        assert s2.cell_mass is s.cell_mass and s2.c is s.c
        assert 0.5 < s2.t <= 0.5 + 1e-4 and s2.dissipated > 2.0

    def test_color_copied_bit_exactly(self):
        s = init_meso_riemann(8)
        c_before = s.c.copy()
        s2 = step_meso(s, MAT1, dt_limit=1e-4)
        assert np.array_equal(s2.c, c_before)
        assert s2.c is s.c  # untouched, not merely equal

    def test_impure_color_rejected(self):
        s = init_meso_riemann(8)
        s.c = s.c * 0.5 + 0.25
        with pytest.raises(ValueError, match="color"):
            step_meso(s, MAT1, dt_limit=1e-4)

    def test_single_phase_uniform_is_fixed_point(self):
        grid = StaggeredGrid.uniform(8)
        s = MesoState(grid=grid, u=np.zeros(8), cell_mass=2.0 * grid.cell_dx, c=np.ones(8))
        s2 = step_meso(s, MAT1, dt_limit=1e-3)
        assert np.array_equal(s2.u, s.u)
        assert np.array_equal(s2.rho, s.rho)
        assert np.array_equal(s2.grid.node_x, grid.node_x)
        assert s2.t > 0

    def test_pure_cell_reads_only_its_own_pressure_law(self):
        # p_-(2) = 2**1100 overflows: a + cell at rho 2 keeps p_+(2) = 2, not 1*2 + 0*inf
        mat = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 1100.0), 0.1, 0.1)
        grid = StaggeredGrid.uniform(8)
        c = np.tile([1.0, 0.0], 4)
        rho = np.where(c == 1.0, 2.0, 0.5)
        s = MesoState(grid=grid, u=np.zeros(8), cell_mass=rho * grid.cell_dx, c=c)
        with np.errstate(over="ignore", invalid="ignore"):  # as run_scheme steps
            assert mixture_pressure(s.c, s.rho, mat).tolist() == [2.0, 0.0] * 4
            s2 = step_meso(s, mat, dt_limit=1e-3)
            own = np.where(c == 1.0, mat.law_plus.pressure(s2.rho), mat.law_minus.pressure(s2.rho))
            assert np.array_equal(mixture_pressure(s2.c, s2.rho, mat), own)
        assert s2.t == 1e-3 and np.isfinite(s2.u).all()

    def test_outflow_from_the_dense_plateau(self):
        # the high-pressure middle expands: leftward flow at x ~ 1/4,
        # rightward at x ~ 3/4, nothing deep inside the plateaus
        s = init_meso_riemann(1000)
        dt_max = 1e-4
        for _ in range(20):
            s = step_meso(s, MAT1, dt_limit=dt_max)
        cf = coarse_grain(s, 20)
        near_left = np.argmin(np.abs(cf.centers - 0.25))
        near_right = np.argmin(np.abs(cf.centers - 0.75))
        deep_inside = np.argmin(np.abs(cf.centers - 0.525))
        assert cf.u_hat[near_left] < -1e-3
        assert cf.u_hat[near_right] > 1e-3
        assert abs(cf.u_hat[deep_inside]) < 1e-8


class TestRun:
    def test_zero_horizon_returns_initial(self):
        state, records = run_meso(config(cells=16, t_end=0.0))
        init = init_meso_riemann(16)
        assert state.t == 0.0
        assert np.array_equal(state.rho, init.rho)
        assert len(records) == 1

    def test_lands_exactly_on_t_end(self):
        state, _ = run_meso(config(cells=16, t_end=0.00037))
        assert state.t == 0.00037

    def test_mass_conserved_over_run(self):
        state, records = run_meso(config(cells=64, t_end=0.02))
        assert np.isclose(records[-1].total_mass, records[0].total_mass, rtol=1e-12)
        assert np.isclose(snapshot(state, MAT1, 0.0).total_mass, 1.0625, rtol=1e-12)

    def test_positivity_along_run(self):
        _, records = run_meso(config(cells=64, t_end=0.02, mat=MAT2, cadence=1))
        assert all(r.rho_min > 0 and r.dx_min > 0 for r in records)

    def test_energy_drift_small(self):
        _, records = run_meso(config(cells=64, t_end=0.05))
        drift = abs(records[-1].energy_total - records[0].energy_total)
        assert drift / records[0].energy_total < 0.02


def mirror(state):
    """Reflect a state through x -> L - x on the torus."""
    grid = state.grid
    L = grid.length
    new_x = L - grid.node_x[::-1]
    idx = (-np.arange(grid.J)) % grid.J
    return MesoState(grid=StaggeredGrid(new_x), u=-state.u[::-1],
                     cell_mass=state.cell_mass[idx], c=state.c[idx],
                     t=state.t, dissipated=state.dissipated)


def test_reversal_symmetry():
    # no directional bias: stepping commutes with mirroring
    rng = np.random.default_rng(12)
    J = 16
    grid = StaggeredGrid.uniform(J)
    s = MesoState(grid=grid, u=rng.normal(scale=0.1, size=J),
                  cell_mass=rng.uniform(0.3, 2.5, J) * grid.cell_dx,
                  c=np.where(np.arange(J) % 2 == 0, 1.0, 0.0))
    dt_max = 1e-3
    a, b = s, mirror(s)
    for _ in range(5):
        a = step_meso(a, MAT2, dt_limit=dt_max)
        b = step_meso(b, MAT2, dt_limit=dt_max)
    am = mirror(a)
    assert np.allclose(am.grid.node_x, b.grid.node_x, atol=1e-10)
    assert np.allclose(am.u, b.u, atol=1e-10)
    assert np.allclose(am.rho, b.rho, atol=1e-10)
    assert np.array_equal(am.c, b.c)
    assert np.isclose(am.dissipated, b.dissipated, rtol=1e-10)
