"""Homogenized scheme: relaxation update, clamping, phase-mass transport."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from biphase1d import macro
from biphase1d.diagnostics import snapshot
from biphase1d.macro import RELAX_ETA, MacroState, init_macro_riemann, run_macro, step_macro
from biphase1d.materials import MaterialPair, PowerLaw
from biphase1d.meso import MesoState, init_meso_riemann, riemann_density, step_meso
from biphase1d.stepping import StaggeredGrid

MAT1 = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.1)
MAT2 = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.02)
SAME_LAWS = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 1.0), 0.1, 0.1)


def config(cells=64, t_end=0.01, mat=MAT1, weighting="cross", dt_max=1e-4, cadence=10):
    return SimpleNamespace(cells=cells, t_end=t_end, mat=mat, weighting=weighting,
                           dt_max=dt_max, cadence=cadence)


def uniform_state(J, alpha, rho_p, rho_m):
    grid = StaggeredGrid.uniform(J)
    a = np.full(J, alpha)
    rp = np.full(J, rho_p)
    rm = np.full(J, rho_m)
    return MacroState(grid=grid, u=np.zeros(J), alpha=a,
                      mass_plus=a * rp * grid.cell_dx,
                      mass_minus=(1 - a) * rm * grid.cell_dx,
                      rho_plus=rp, rho_minus=rm)


class TestInit:
    def test_matches_meso_mixture_at_t0(self):
        macro = init_macro_riemann(1000)
        meso = init_meso_riemann(1000)
        assert np.allclose(macro.rho, meso.rho, rtol=1e-14)
        assert np.all(macro.alpha == 0.5)

    def test_total_mass(self):
        mass = snapshot(init_macro_riemann(1000), MAT1, 0.0).total_mass
        assert np.isclose(mass, 1.0625, rtol=1e-14)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            init_macro_riemann(3)


class TestStep:
    def test_next_state_carries_every_field(self):
        # the step names every field of the state it builds; one left out
        # would fall back to its default
        s = replace(init_macro_riemann(16), t=0.5, dissipated=2.0, clamp_events=3,
                    guard_events=4)
        s2 = step_macro(s, MAT2, "cross", dt_limit=1e-4)
        assert [f.name for f in fields(MacroState)] == [
            "grid", "u", "alpha", "mass_plus", "mass_minus", "rho_plus", "rho_minus", "t",
            "dissipated", "clamp_events", "guard_events"]
        assert s2.mass_plus is s.mass_plus and s2.mass_minus is s.mass_minus
        assert 0.5 < s2.t <= 0.5 + 1e-4 and s2.dissipated > 2.0
        assert (s2.clamp_events, s2.guard_events) == (3, 4)

    def test_zero_relaxation_keeps_alpha(self):
        # same law in both phases and equal viscosities: the source is
        # identically zero even though the mixture moves
        s = init_macro_riemann(32)
        mat = SAME_LAWS
        s2 = step_macro(s, mat, "cross", dt_limit=1e-4)
        assert np.array_equal(s2.alpha, s.alpha)
        assert np.any(s2.u != 0)  # the Riemann datum does drive motion

    def test_uniform_relaxation_rate(self):
        # alpha = 1/2, rho_pm = 2, laws x and x^2, mu = 0.1: d(alpha)/dt = -5
        s = uniform_state(16, 0.5, 2.0, 2.0)
        dt = 1e-4
        s2 = step_macro(s, MAT1, "cross", dt_limit=dt)
        assert np.allclose(s2.alpha, 0.5 - 5.0 * dt, rtol=1e-14)
        assert np.array_equal(s2.u, np.zeros(16))

    def test_phase_masses_are_lagrangian_constants(self):
        s = init_macro_riemann(64)
        s2 = step_macro(s, MAT2, "cross", dt_limit=1e-4)
        assert np.array_equal(s2.mass_plus, s.mass_plus)
        assert np.array_equal(s2.mass_minus, s.mass_minus)
        assert np.isclose(snapshot(s2, MAT2, 0.0).total_mass,
                          snapshot(s, MAT2, 0.0).total_mass, rtol=1e-13)

    def test_equal_viscosity_update_reduces_to_simple_law(self):
        s = init_macro_riemann(32)
        # roughen fields
        s = step_macro(s, MAT1, "cross", dt_limit=1e-4)
        p_diff = (MAT1.law_plus.pressure(s.rho_plus)
                  - MAT1.law_minus.pressure(s.rho_minus))
        s2 = step_macro(s, MAT1, "cross", dt_limit=1e-4)
        dt = s2.t - s.t
        expected = s.alpha + dt * s.alpha * (1 - s.alpha) * p_diff / 0.1
        assert np.allclose(s2.alpha, expected, rtol=1e-14, atol=1e-16)

    def test_mixture_identity(self):
        s = init_macro_riemann(64)
        for _ in range(5):
            s = step_macro(s, MAT2, "cross", dt_limit=1e-4)
        mix = s.alpha * s.rho_plus + (1 - s.alpha) * s.rho_minus
        assert np.allclose(mix, s.rho, rtol=1e-12)

    def test_clamp_and_boundary_guard(self):
        # near alpha = 1 a legal increment can overshoot the interval;
        # it must be clamped (counted) and the vanished phase's density
        # frozen (counted) because its mass is still positive
        s = uniform_state(8, 1.0 - 1e-7, 50.5, 0.5)
        rho_minus_before = s.rho_minus.copy()
        s2 = step_macro(s, MAT1, "cross", dt_limit=0.01)
        assert np.all(s2.alpha == 1.0)
        assert s2.clamp_events == 8
        assert s2.guard_events == 8
        assert np.array_equal(s2.rho_minus, rho_minus_before)

    def test_relaxation_dt_cap(self):
        # a stiff pressure difference must shrink dt below dt_max so the
        # increment respects the stability bound
        s = uniform_state(8, 0.01, 80.0, 0.1)
        dt_max = 0.05
        s2 = step_macro(s, MAT1, "cross", dt_limit=dt_max)
        dt = s2.t - s.t
        assert dt < 0.05
        bound = RELAX_ETA * np.minimum(s.alpha, 1 - s.alpha) + 1e-6
        assert np.all(np.abs(s2.alpha - s.alpha) <= bound)


class CountingLaw:
    """A pressure law that counts its pressure evaluations."""

    def __init__(self, law):
        self.law = law
        self.calls = 0

    def pressure(self, rho):
        self.calls += 1
        return self.law.pressure(rho)

    def potential(self, rho):
        return self.law.potential(rho)


class TestPressureEvaluations:
    """The phase densities are fixed within a step, so each law's pressure
    is evaluated, and alpha and the phase pressures are checked and the
    homogenized coefficients formed, once per step, however many attempts
    the step takes."""

    # the relaxation-capped config of the benchmark's retry runs
    STIFF = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(10.0, 5.0), 0.1, 1e-3)

    def counted_step(self, monkeypatch, mat, dt_max):
        counting = MaterialPair(CountingLaw(mat.law_plus), CountingLaw(mat.law_minus),
                                mat.mu_plus, mat.mu_minus)
        refusals = []
        kernel = macro._advance

        def watched(*args, accept, **kwargs):
            def counted_accept(*attempt):
                ok = accept(*attempt)
                refusals.append(not ok)
                return ok
            return kernel(*args, accept=counted_accept, **kwargs)

        monkeypatch.setattr(macro, "_advance", watched)
        step_macro(init_macro_riemann(40), counting, "cross", dt_limit=dt_max)
        return counting.law_plus.calls, counting.law_minus.calls, sum(refusals)

    def test_one_evaluation_per_law(self, monkeypatch):
        assert self.counted_step(monkeypatch, MAT2, 1e-4) == (1, 1, 0)

    def test_one_evaluation_per_law_when_the_increment_check_halves_dt(self, monkeypatch):
        plus, minus, refusals = self.counted_step(monkeypatch, self.STIFF, 1.0)
        assert refusals >= 1
        assert (plus, minus) == (1, 1)

    def test_one_coefficient_evaluation_when_the_increment_check_halves_dt(self, monkeypatch):
        calls = []
        homogenized = macro._homogenized_cells
        monkeypatch.setattr(macro, "_homogenized_cells",
                            lambda *args: calls.append(args) or homogenized(*args))
        *_, refusals = self.counted_step(monkeypatch, self.STIFF, 1.0)
        assert refusals >= 1
        assert len(calls) == 1


class TestPurePhaseConsistency:
    def test_alpha_one_matches_single_fluid_every_step(self):
        J = 32
        grid = StaggeredGrid.uniform(J)
        rho0 = riemann_density(grid.midpoints)
        meso = MesoState(grid=grid, u=np.zeros(J), cell_mass=rho0 * grid.cell_dx,
                         c=np.ones(J))
        macro = MacroState(grid=StaggeredGrid.uniform(J), u=np.zeros(J),
                           alpha=np.ones(J),
                           mass_plus=rho0 * grid.cell_dx,
                           mass_minus=np.zeros(J),
                           rho_plus=rho0.copy(), rho_minus=np.zeros(J))
        dt_max = 1e-4
        for _ in range(20):
            meso = step_meso(meso, MAT2, dt_limit=dt_max)
            macro = step_macro(macro, MAT2, "cross", dt_limit=dt_max)
            assert np.isclose(macro.t, meso.t, rtol=1e-14)
            assert np.allclose(macro.grid.node_x, meso.grid.node_x, atol=1e-10)
            assert np.allclose(macro.u, meso.u, atol=1e-10)
            assert np.allclose(macro.rho, meso.rho, rtol=1e-10)
            assert np.all(macro.alpha == 1.0)


class TestRun:
    def test_zero_horizon(self):
        state, records = run_macro(config(cells=16, t_end=0.0))
        assert state.t == 0.0
        assert len(records) == 1

    def test_mass_conserved_over_run(self):
        state, records = run_macro(config(cells=64, t_end=0.02, mat=MAT2))
        assert np.isclose(records[-1].total_mass, records[0].total_mass, rtol=1e-12)
        assert state.t == 0.02

    def test_alpha_stays_in_unit_interval(self):
        state, _ = run_macro(config(cells=64, t_end=0.02, mat=MAT2))
        assert np.all(state.alpha >= 0) and np.all(state.alpha <= 1)
