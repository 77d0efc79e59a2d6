"""Pressure laws, mixture coefficients, effective coefficients, and the
relaxation source, checked against quadrature and direct linear algebra."""

import numpy as np
import pytest
from scipy.integrate import quad

from biphase1d.materials import (MaterialPair, PowerLaw, homogenized, mixture_potential,
                                 mixture_pressure, mixture_viscosity, mu_eff, p_eff,
                                 relaxation_rhs)

LAWS_53 = dict(law_plus=PowerLaw(K=1.0, gamma=1.0), law_minus=PowerLaw(K=1.0, gamma=2.0))


def mat_equal():
    return MaterialPair(mu_plus=0.1, mu_minus=0.1, **LAWS_53)


def mat_unequal():
    return MaterialPair(mu_plus=0.1, mu_minus=0.02, **LAWS_53)


def phase_pressures(mat, rho_plus, rho_minus):
    """p_+(rho_+) and p_-(rho_-): what p_eff and relaxation_rhs take."""
    return mat.law_plus.pressure(rho_plus), mat.law_minus.pressure(rho_minus)


def rate_weights(alpha, mat):
    """The weights (a, b) of the relaxation rate the scheme runs,
    k*(dp - (mu_+ - mu_-)*s) = alpha*(1-alpha)*(a*dp + b*s), read off
    ``homogenized``'s factor k; alpha must lie in (0, 1)."""
    k = homogenized(alpha, 0.0, 0.0, mat)[2]
    w = alpha * (1.0 - alpha)
    return k / w, -k * (mat.mu_plus - mat.mu_minus) / w


def solved_weights(alpha, mat):
    """Oracle: (a, b) solving 1 - a*mu_+ = b*alpha and 1 - a*mu_- = -b*(1-alpha)."""
    A = np.array([[mat.mu_plus, alpha], [mat.mu_minus, -(1.0 - alpha)]])
    return np.linalg.solve(A, np.ones(2))


def potential_by_quadrature(law, rho):
    """Oracle: adaptive quadrature of rho * int_1^rho p(s)/s^2 ds."""
    val, _ = quad(lambda s: law.pressure(s) / s**2, 1.0, rho, limit=200)
    return rho * val


class TestPressure:
    def test_linear_law(self):
        assert PowerLaw(K=1.0, gamma=1.0).pressure(2.0) == 2.0

    def test_quadratic_law(self):
        assert PowerLaw(K=1.0, gamma=2.0).pressure(2.0) == 4.0

    def test_vacuum(self):
        assert PowerLaw(K=3.0, gamma=1.4).pressure(0.0) == 0.0

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            PowerLaw().pressure(-0.5)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            PowerLaw(K=-1.0, gamma=1.0)
        with pytest.raises(ValueError):
            PowerLaw(K=1.0, gamma=0.5)


class TestPotential:
    def test_reference_density_gives_zero(self):
        assert PowerLaw(K=2.0, gamma=3.0).potential(1.0) == 0.0

    def test_log_case_against_quadrature(self):
        # 2 * ln 2
        got = PowerLaw(K=1.0, gamma=1.0).potential(2.0)
        assert abs(got - potential_by_quadrature(PowerLaw(1.0, 1.0), 2.0)) < 1e-10
        assert abs(got - 2.0 * np.log(2.0)) < 1e-12

    def test_quadratic_case_against_quadrature(self):
        got = PowerLaw(K=1.0, gamma=2.0).potential(2.0)
        assert abs(got - 2.0) < 1e-12
        assert abs(got - potential_by_quadrature(PowerLaw(1.0, 2.0), 2.0)) < 1e-10

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
    def test_closed_form_matches_quadrature(self, gamma):
        law = PowerLaw(K=1.0, gamma=gamma)
        for rho in np.linspace(0.05, 10.0, 24):
            assert abs(law.potential(rho) - potential_by_quadrature(law, rho)) < 1e-10

    def test_vacuum_limit_is_zero(self):
        assert PowerLaw(K=1.0, gamma=1.0).potential(0.0) == 0.0
        assert PowerLaw(K=1.0, gamma=2.0).potential(0.0) == 0.0

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            PowerLaw().potential(-1.0)


class TestMixture:
    def test_pure_phases(self):
        mat = mat_equal()
        assert mixture_pressure(1.0, 2.0, mat) == 2.0
        assert mixture_pressure(0.0, 2.0, mat) == 4.0

    def test_half_mix(self):
        assert mixture_pressure(0.5, 2.0, mat_equal()) == 3.0

    def test_viscosity(self):
        assert mixture_viscosity(1.0, mat_unequal()) == 0.1
        assert mixture_viscosity(0.5, mat_equal()) == 0.1
        assert np.isclose(mixture_viscosity(0.5, mat_unequal()), 0.06)

    def test_affine_in_color(self):
        mat = mat_unequal()
        c = np.linspace(0, 1, 11)
        p = mixture_pressure(c, 2.0, mat)
        assert np.allclose(p, p[0] + c * (p[-1] - p[0]), rtol=1e-14)
        mu = mixture_viscosity(c, mat)
        assert np.allclose(mu, mu[0] + c * (mu[-1] - mu[0]), rtol=1e-14)

    def test_pure_cell_potential_ignores_the_absent_law(self):
        # p_- = 1e308 rho^2 overflows: a pure + cell keeps its own 2 ln 2, not 0 * inf
        mat = MaterialPair(law_plus=PowerLaw(K=1.0, gamma=1.0),
                           law_minus=PowerLaw(K=1e308, gamma=2.0), mu_plus=0.1, mu_minus=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            got = mixture_potential([1.0, 0.0, 0.5], [2.0, 2.0, 2.0], mat)
        assert got.tolist() == [2.0 * np.log(2.0), np.inf, np.inf]

    def test_color_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="color"):
            mixture_pressure(1.2, 2.0, mat_equal())
        with pytest.raises(ValueError, match="color"):
            mixture_viscosity(-0.1, mat_equal())


class TestEffectiveCoefficients:
    def test_mu_eff_pure_limits_exact(self):
        mat = mat_unequal()
        assert mu_eff(np.array(1.0), mat) == mat.mu_plus
        assert mu_eff(np.array(0.0), mat) == mat.mu_minus

    def test_mu_eff_equal_viscosities_exact(self):
        mat = mat_equal()
        alpha = np.linspace(0, 1, 23)
        assert np.array_equal(mu_eff(alpha, mat), np.full_like(alpha, 0.1))

    def test_mu_eff_harmonic_value(self):
        assert np.isclose(mu_eff(np.array(0.5), mat_unequal()), 0.002 / 0.06, rtol=1e-14)

    def test_mu_eff_between_extremes(self):
        mat = mat_unequal()
        vals = mu_eff(np.linspace(0, 1, 101), mat)
        assert np.all(vals >= mat.mu_minus) and np.all(vals <= mat.mu_plus)

    def test_p_eff_cross_pure_limits_exact(self):
        mat = mat_unequal()
        assert p_eff(np.array(1.0), *phase_pressures(mat, 2.0, 3.0), mat, "cross") == mat.law_plus.pressure(2.0)
        assert p_eff(np.array(0.0), *phase_pressures(mat, 2.0, 3.0), mat, "cross") == mat.law_minus.pressure(3.0)

    def test_p_eff_variants_collapse_for_equal_viscosities(self):
        mat = mat_equal()
        for w in ("cross", "paper"):
            assert np.isclose(p_eff(np.array(0.5), *phase_pressures(mat, 2.0, 2.0), mat, w), 3.0, rtol=1e-14)

    def test_p_eff_cross_value(self):
        mat = mat_unequal()
        got = p_eff(np.array(0.5), *phase_pressures(mat, 2.0, 2.0), mat, "cross")
        assert np.isclose(got, (0.5 * 2.0 * 0.02 + 0.5 * 4.0 * 0.1) / 0.06, rtol=1e-14)

    def test_p_eff_own_weighting_value(self):
        mat = mat_unequal()
        got = p_eff(np.array(0.5), *phase_pressures(mat, 2.0, 2.0), mat, "paper")
        assert np.isclose(got, (0.5 * 2.0 * 0.1 + 0.5 * 4.0 * 0.02) / 0.06, rtol=1e-14)

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValueError, match="weighting"):
            p_eff(np.array(0.5), 2.0, 2.0, mat_equal(), "harmonic")

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            mu_eff(1.5, mat_equal())


class TestRelaxation:
    def test_equal_viscosity_weights(self):
        a, b = rate_weights(np.array(0.3), mat_equal())
        assert np.isclose(a, 1.0 / 0.1, rtol=1e-14)
        assert b == 0.0

    def test_weights_match_direct_linear_solve(self):
        mat = mat_unequal()
        a_ref, b_ref = solved_weights(0.5, mat)
        a, b = rate_weights(np.array(0.5), mat)
        assert np.isclose(a, a_ref, rtol=1e-13)
        assert np.isclose(b, b_ref, rtol=1e-13)
        assert np.isclose(a, 16.666666666666668, rtol=1e-14)
        assert np.isclose(b, -1.3333333333333333, rtol=1e-13)

    def test_identities_on_grid(self):
        # the weights are read off k / (alpha*(1-alpha)), so the grid is interior
        alpha, ratio = np.meshgrid(np.linspace(0, 1, 102)[1:-1],
                                   np.logspace(-2, 2, 100))
        mu_plus = 0.1
        for r_row, a_row in zip(ratio, alpha):
            mat = MaterialPair(mu_plus=mu_plus, mu_minus=mu_plus / r_row[0], **LAWS_53)
            a, b = rate_weights(a_row, mat)
            assert np.allclose(1.0 - a * mat.mu_plus, b * a_row,
                               rtol=1e-14, atol=1e-14)
            assert np.allclose(1.0 - a * mat.mu_minus, -b * (1.0 - a_row),
                               rtol=1e-14, atol=1e-14)

    def test_substitution_identity_at_reference_point(self):
        a, b = rate_weights(np.array(0.5), mat_unequal())
        assert np.isclose(1.0 - a * 0.1, b * 0.5, rtol=1e-14)
        assert np.isclose(1.0 - a * 0.1, -2.0 / 3.0, rtol=1e-12)

    def test_rhs_vanishes_at_pure_phases(self):
        mat = mat_unequal()
        assert relaxation_rhs(np.array(0.0), *phase_pressures(mat, 5.0, 1.0), 3.0, mat) == 0.0
        assert relaxation_rhs(np.array(1.0), *phase_pressures(mat, 5.0, 1.0), -3.0, mat) == 0.0

    def test_rhs_equal_viscosity_value(self):
        mat = mat_equal()
        got = relaxation_rhs(np.array(0.5), *phase_pressures(mat, 2.0, 2.0), 0.0, mat)
        assert np.isclose(got, -5.0, rtol=1e-14)

    def test_rhs_strain_only_value(self):
        # p_+(2) = 2 and p_-(sqrt(2)) = 2 cancel, leaving the strain term
        mat = mat_unequal()
        got = relaxation_rhs(np.array(0.5), *phase_pressures(mat, 2.0, np.sqrt(2.0)), 1.0,
                             mat)
        assert np.isclose(got, 0.25 / 0.06 * (-0.08), rtol=1e-13)

    def test_rhs_consistent_with_weight_form(self):
        rng = np.random.default_rng(5)
        mat = mat_unequal()
        for _ in range(50):
            alpha = rng.uniform(0, 1)
            rho_p, rho_m = rng.uniform(0.05, 5, 2)
            du = rng.uniform(-10, 10)
            a, b = solved_weights(alpha, mat)
            dp = mat.law_plus.pressure(rho_p) - mat.law_minus.pressure(rho_m)
            expected = alpha * (1 - alpha) * (a * dp + b * du)
            got = relaxation_rhs(np.array(alpha), *phase_pressures(mat, rho_p, rho_m), du,
                                 mat)
            assert np.isclose(got, expected, rtol=1e-14, atol=1e-14)


def test_material_pair_requires_positive_viscosities():
    with pytest.raises(ValueError, match="viscosities"):
        MaterialPair(mu_plus=0.0, mu_minus=0.1, **LAWS_53)
