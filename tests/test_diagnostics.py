"""Conservation functionals, coarse-graining, norms, measure moments."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from biphase1d.diagnostics import (coarse_grain, compare_fields, estimate_alpha_meso,
                                   snapshot, young_moment)
from biphase1d.materials import MaterialPair, PowerLaw
from biphase1d.meso import MesoState, init_meso_riemann, run_meso, step_meso
from biphase1d.stepping import StaggeredGrid

MAT1 = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.1)


def alternating_state(J=32, rho_plus=4.0, rho_minus=0.8):
    grid = StaggeredGrid.uniform(J)
    c = np.where(np.arange(J) % 2 == 0, 1.0, 0.0)
    rho = np.where(c == 1, rho_plus, rho_minus)
    return MesoState(grid=grid, u=np.zeros(J), cell_mass=rho * grid.cell_dx, c=c)


class TestMassAndEnergy:
    def test_riemann_mass_against_piecewise_integration(self):
        # 0.5 * 1/8 + 0.5 * 2 integrated piece by piece
        oracle = 0.25 * 0.125 + 0.5 * 2.0 + 0.25 * 0.125
        assert np.isclose(snapshot(init_meso_riemann(1000), MAT1, 0.0).total_mass, oracle,
                          rtol=1e-14)

    def test_uniform_unit_density(self):
        g = StaggeredGrid.uniform(10)
        s = MesoState(grid=g, u=np.zeros(10), cell_mass=g.cell_dx, c=np.ones(10))
        assert np.isclose(snapshot(s, MAT1, 0.0).total_mass, 1.0, rtol=1e-15)

    def test_mass_unchanged_by_step(self):
        s = init_meso_riemann(64)
        before = snapshot(s, MAT1, 0.0).total_mass
        s = step_meso(s, MAT1, dt_limit=1e-4)
        assert np.isclose(snapshot(s, MAT1, 0.0).total_mass, before, rtol=1e-13)

    def test_rest_unit_density_has_zero_energy(self):
        g = StaggeredGrid.uniform(10)
        s = MesoState(grid=g, u=np.zeros(10), cell_mass=g.cell_dx, c=np.zeros(10))
        r = snapshot(s, MAT1, 0.0)
        assert r.kinetic_energy == 0.0 and r.internal_energy == 0.0
        assert r.dissipated == 0.0 and r.energy_total == 0.0

    def test_riemann_internal_energy_against_quadrature(self):
        def potential(law, rho):
            val, _ = quad(lambda x: law.pressure(x) / x**2, 1.0, rho)
            return rho * val

        oracle = 0.0
        for rho, length in ((0.125, 0.5), (2.0, 0.5)):
            # each plateau is half phase + and half phase - by length
            oracle += length * 0.5 * (potential(MAT1.law_plus, rho)
                                      + potential(MAT1.law_minus, rho))
        internal = snapshot(init_meso_riemann(1000), MAT1, 0.0).internal_energy
        assert np.isclose(internal, oracle, rtol=1e-10)

    def test_kinetic_energy_nonnegative(self):
        s = init_meso_riemann(64)
        for _ in range(3):
            s = step_meso(s, MAT1, dt_limit=1e-4)
            assert snapshot(s, MAT1, 0.0).kinetic_energy >= 0.0


class TestAlphaEstimate:
    def test_all_plus(self):
        s = alternating_state()
        s.c = np.ones(s.grid.J)
        assert np.all(estimate_alpha_meso(s) == 1.0)

    def test_isolated_plus_cell(self):
        # one + cell inside a mid-to-mid window of two cell widths
        s = alternating_state()
        s.c = np.zeros(s.grid.J)
        s.c[5] = 1.0
        est = estimate_alpha_meso(s)
        assert np.isclose(est[5], 0.5, rtol=1e-14)
        assert est[7] == 0.0

    def test_alternating_datum_estimates_one_half(self):
        # the estimate must reproduce the weak limit of the alternating
        # pattern, not undershoot it
        s = alternating_state()
        est = estimate_alpha_meso(s)
        assert np.allclose(est, 0.5, rtol=1e-14)
        assert np.all(est >= 0) and np.all(est <= 1)


class TestCoarseGrain:
    def test_single_phase(self):
        s = alternating_state()
        s.c = np.ones(s.grid.J)
        cf = coarse_grain(s, 4)
        assert np.all(cf.alpha_hat == 1.0)
        assert np.allclose(cf.rho_plus_hat, cf.rho_hat, rtol=1e-13)
        assert np.all(np.isnan(cf.rho_minus_hat))

    def test_alternating_two_values(self):
        cf = coarse_grain(alternating_state(), 4)
        assert np.allclose(cf.alpha_hat, 0.5, atol=1e-14)
        assert np.allclose(cf.rho_plus_hat, 4.0, rtol=1e-13)
        assert np.allclose(cf.rho_minus_hat, 0.8, rtol=1e-13)
        assert np.allclose(cf.rho_hat, 2.4, rtol=1e-13)

    def test_window_mass_partition(self):
        s = init_meso_riemann(200)
        for _ in range(5):
            s = step_meso(s, MAT1, dt_limit=1e-4)
        cf = coarse_grain(s, 7)
        assert np.isclose(np.sum(cf.rho_hat * cf.window_len),
                          snapshot(s, MAT1, 0.0).total_mass, rtol=1e-12)
        assert np.isclose(np.sum(cf.window_len), 1.0, atol=1e-12)

    def test_mixture_identity(self):
        s = init_meso_riemann(200)
        cf = coarse_grain(s, 10)
        mix = cf.alpha_hat * cf.rho_plus_hat + (1 - cf.alpha_hat) * cf.rho_minus_hat
        assert np.allclose(mix, cf.rho_hat, rtol=1e-10)

    def test_global_averages_at_single_window(self):
        s = alternating_state()
        cf = coarse_grain(s, 1)
        assert np.isclose(cf.alpha_hat[0], np.sum(s.c * s.grid.cell_dx), rtol=1e-13)
        assert np.isclose(cf.rho_hat[0], snapshot(s, MAT1, 0.0).total_mass, rtol=1e-13)

    def test_velocity_average_of_linear_interpolant(self):
        # u(x) = x at the nodes averages to the window centers, except in
        # the seam window where the interpolant wraps from u = 1 back to 0
        J = 64
        g = StaggeredGrid.uniform(J)
        s = alternating_state(J)
        s.u = g.node_x.copy()
        cf = coarse_grain(s, 8)
        assert np.allclose(cf.u_hat[1:], cf.centers[1:], atol=1e-12)

    def test_too_many_windows_rejected(self):
        with pytest.raises(ValueError, match="window count"):
            coarse_grain(alternating_state(8), 8)

    def test_macro_state_coarse_grain(self):
        from biphase1d.macro import init_macro_riemann
        cf = coarse_grain(init_macro_riemann(200), 4)
        assert np.allclose(cf.alpha_hat, 0.5, atol=1e-14)
        assert np.allclose(cf.rho_plus_hat, cf.rho_minus_hat, rtol=1e-13)


class TestCompare:
    def test_identical_fields_give_zero(self):
        cf = coarse_grain(alternating_state(), 4)
        norms = compare_fields(cf, cf)
        for field_norms in norms.values():
            assert all(v == 0.0 for v in field_norms.values())

    def test_constant_offset_l1(self):
        cf = coarse_grain(alternating_state(), 4)
        shifted = replace(cf, rho_hat=cf.rho_hat + 0.3)
        norms = compare_fields(shifted, cf)
        assert np.isclose(norms["rho_hat"]["l1"], 0.3, rtol=1e-13)
        assert np.isclose(norms["rho_hat"]["linf"], 0.3, rtol=1e-13)

    def test_metric_properties(self):
        rng = np.random.default_rng(8)
        base = coarse_grain(alternating_state(), 4)

        def randomized():
            return replace(base, alpha_hat=rng.uniform(0, 1, 4),
                           rho_hat=rng.uniform(0.5, 3, 4),
                           rho_plus_hat=rng.uniform(0.5, 3, 4),
                           rho_minus_hat=rng.uniform(0.5, 3, 4),
                           u_hat=rng.normal(size=4))

        for _ in range(5):
            a, b, c = randomized(), randomized(), randomized()
            ab, ba = compare_fields(a, b), compare_fields(b, a)
            ac, cb = compare_fields(a, c), compare_fields(c, b)
            for f in ab:
                for n in ("l1", "l2", "linf"):
                    assert np.isclose(ab[f][n], ba[f][n], rtol=1e-14)  # symmetry
                    assert ab[f][n] <= ac[f][n] + cb[f][n] + 1e-14  # triangle

    def test_layout_mismatch_rejected(self):
        s = alternating_state()
        with pytest.raises(ValueError, match="layout"):
            compare_fields(coarse_grain(s, 4), coarse_grain(s, 8))


class TestYoungMoments:
    def test_normalization(self):
        s = init_meso_riemann(100)
        dt_max = 1e-4
        one = lambda x, xi, eta: np.ones_like(x)
        for _ in range(4):
            assert np.isclose(young_moment(s, one), 1.0, atol=1e-13)
            s = step_meso(s, MAT1, dt_limit=dt_max)

    def test_color_moment_is_volume_fraction(self):
        s = init_meso_riemann(100)
        got = young_moment(s, lambda x, xi, eta: eta)
        assert np.isclose(got, np.sum(s.c * s.grid.cell_dx), rtol=1e-14)

    def test_density_moment_is_total_mass(self):
        s = init_meso_riemann(100)
        got = young_moment(s, lambda x, xi, eta: xi)
        assert np.isclose(got, snapshot(s, MAT1, 0.0).total_mass, rtol=1e-14)

    def test_macro_state_enters_with_its_volume_fraction(self):
        from biphase1d.macro import init_macro_riemann, step_macro
        mat = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.02)
        s = init_macro_riemann(40)
        for _ in range(5):
            s = step_macro(s, mat, "cross", dt_limit=1e-3)
        assert np.ptp(s.alpha) > 0
        b = lambda x, rho, alpha: x * rho * alpha + alpha**2
        x = s.grid.midpoints % s.grid.length
        want = float(np.sum(b(x, s.rho, s.alpha) * s.grid.cell_dx))
        assert young_moment(s, b) == want

    def test_support_stays_in_box(self):
        from biphase1d.meso import run_meso
        cfg = SimpleNamespace(cells=64, t_end=0.02, mat=MAT1,
                              dt_max=1e-4, cadence=10)
        state, records = run_meso(cfg)
        assert all(r.rho_min > 0 for r in records)
        assert np.all((state.c == 0) | (state.c == 1))
        assert 0 < np.min(state.rho) <= np.max(state.rho) < np.inf


class TestTwoPointStructure:
    def test_exact_two_point_field(self):
        rep = coarse_grain(alternating_state(), 4)
        assert np.allclose(rep.rho_plus_hat, 4.0, rtol=1e-13)
        assert np.allclose(rep.rho_minus_hat, 0.8, rtol=1e-13)
        assert np.allclose(rep.var_plus, 0.0, atol=1e-12)
        assert np.allclose(rep.var_minus, 0.0, atol=1e-12)
        assert np.allclose(rep.gap, 3.2, rtol=1e-13)
        assert np.allclose(rep.concentration, 0.0, atol=1e-12)

    def test_initial_riemann_gap_degenerate(self):
        # equal densities in both phases: zero variance, zero gap, and the
        # ratio reported as degenerate (NaN) rather than dividing by ~0
        rep = coarse_grain(init_meso_riemann(1000), 4)
        assert np.allclose(rep.var_plus, 0.0, atol=1e-12)
        assert np.all(np.isnan(rep.concentration) | (rep.gap >= 1e-12))
        inside = np.abs(rep.centers - 0.5) < 0.1
        assert np.all(np.isnan(rep.concentration[inside]))

    def test_single_phase_window_reports_absent_side(self):
        s = alternating_state()
        s.c = np.ones(s.grid.J)
        rep = coarse_grain(s, 4)
        assert np.all(np.isnan(rep.rho_minus_hat))
