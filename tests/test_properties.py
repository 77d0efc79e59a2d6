"""Invariants stated as properties over random inputs: mass and length
conservation of the kernel step, the one dt-halving budget of a step,
the window integrals of coarse-graining against a cell-by-cell walk,
the coarse-graining cuts byte for byte against np.unique,
colour purity of meso runs, bit-exact cell masses of meso and macro runs,
the macro step on pure cells against the meso step, the momentum solve
against a dense oracle, the step's building blocks bit for bit against
the formulas they replace, the step's one coefficient evaluation bit
for bit against the public coefficient functions and against closed
forms written here, and the patch passes the macro step skips when no
cell needs them against the plain formulas."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dense_matrix, dense_solve, window_walk

from biphase1d import stepping
from biphase1d.diagnostics import _cuts, _window_sums, estimate_alpha_meso
from biphase1d.errors import StepFailure
from biphase1d.macro import (ALPHA_GUARD, MacroState, _clamp, _phase_density,
                             init_macro_riemann, step_macro)
from biphase1d.materials import (MaterialPair, PowerLaw, homogenized, mu_eff, p_eff,
                                 relaxation_rhs)
from biphase1d.cli import parse_config
from biphase1d.meso import MesoState, init_meso_riemann, run_scheme, step_meso
from biphase1d.stepping import (CFL_THETA, RHO_SANE_MAX, RHO_SANE_MIN, StaggeredGrid,
                                assemble_momentum, back_difference, choose_dt,
                                lagrangian_step, left_neighbour, node_mass, right_neighbour)
from biphase1d.tridiag import solve_cyclic_tridiagonal


def random_grid(rng, J):
    """Random widths, scaled to the unit torus."""
    widths = rng.uniform(0.1, 1.0, J)
    return StaggeredGrid(np.cumsum(widths) * (1.0 / widths.sum()))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 40), dt_max=st.floats(1e-4, 1.0))
def test_step_conserves_cell_mass_and_length(seed, J, dt_max):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, J)
    mass = rng.uniform(0.1, 10.0, J) * grid.cell_dx
    kept = mass.copy()
    with patch.object(stepping, "MAX_HALVINGS", 60):
        out = lagrangian_step(grid, rng.uniform(-1.0, 1.0, J), mass,
                              rng.uniform(0.0, 1.0, J), rng.uniform(0.0, 10.0, J),
                              dt_limit=dt_max)
    assert np.array_equal(mass, kept)
    assert out.grid.length == 1.0
    assert abs(np.sum(out.grid.cell_dx) - 1.0) <= 1e-12


def quiet_step_inputs(J=16):
    """Smooth inputs on which the kernel never inverts a cell at dt_max=1e-4."""
    grid = StaggeredGrid.uniform(J)
    x = grid.midpoints
    return (grid, 0.1 * np.sin(2 * np.pi * grid.node_x),
            (1.0 + 0.5 * np.sin(2 * np.pi * x)) * grid.cell_dx,
            np.full(J, 0.1), 1.0 + 0.5 * np.cos(2 * np.pi * x))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 8), max_halvings=st.integers(1, 8))
def test_rejections_halve_dt_within_one_budget(k, max_halvings):
    grid, u, mass, mu, p = quiet_step_inputs()
    dt_max = 1e-4
    dt0 = min(choose_dt(grid, u), dt_max)
    tried = []

    def reject_first_k(u_new, new_grid, dt):
        tried.append(dt)
        return len(tried) > k

    with patch.object(stepping, "MAX_HALVINGS", max_halvings):
        if k > max_halvings:
            with pytest.raises(StepFailure, match=f"step rejection persisted after "
                                                  f"{max_halvings} dt halvings"):
                lagrangian_step(grid, u, mass, mu, p, dt_limit=dt_max, accept=reject_first_k)
            assert len(tried) == max_halvings + 1
            return
        out = lagrangian_step(grid, u, mass, mu, p, dt_limit=dt_max, accept=reject_first_k)
    assert out.halvings == k
    assert out.dt_used == dt0 * 0.5**k
    assert tried == [dt0 * 0.5**i for i in range(k + 1)]


def test_inversions_and_rejections_share_the_budget():
    # u_old = 0 defeats the CFL predictor, so the alternating pressure
    # inverts cells at the dt_max try and forces halvings
    grid = StaggeredGrid.uniform(8)
    args = (grid, np.zeros(8), grid.cell_dx, np.zeros(8),
            np.where(np.arange(8) % 2 == 0, 100.0, 0.0))
    with patch.object(stepping, "MAX_HALVINGS", 60):
        inversions = lagrangian_step(*args, dt_limit=1.0).halvings
    assert inversions > 0

    seen = []

    def reject_once(u_new, new_grid, dt):
        seen.append(dt)
        return len(seen) > 1

    with patch.object(stepping, "MAX_HALVINGS", 60):
        out = lagrangian_step(*args, dt_limit=1.0, accept=reject_once)
    assert out.halvings == inversions + 1
    with (patch.object(stepping, "MAX_HALVINGS", inversions),
          pytest.raises(StepFailure, match=f"step rejection persisted after {inversions} ")):
        lagrangian_step(*args, dt_limit=1.0, accept=lambda u_new, new_grid, dt: False)
    with (patch.object(stepping, "MAX_HALVINGS", inversions - 1),
          pytest.raises(StepFailure, match=f"cell inversion persisted after {inversions - 1} ")):
        lagrangian_step(*args, dt_limit=1.0, accept=lambda u_new, new_grid, dt: True)


@st.composite
def tori(draw):
    """A random unit torus whose unwrapped nodes are shifted by up to 3
    lengths either way, so the seam cuts a cell and coordinates go negative."""
    J = draw(st.integers(3, 30))
    widths = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=J, max_size=J)))
    shift = draw(st.floats(-3.0, 3.0))
    return StaggeredGrid(shift + np.cumsum(widths * (1.0 / widths.sum())))


@st.composite
def torus_states(draw):
    """A meso or macro state on a random torus (see ``tori``)."""
    grid = draw(tori())
    J = grid.J
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(-2.0, 2.0, J)
    if draw(st.booleans()):
        return MesoState(grid=grid, u=u, cell_mass=rng.uniform(0.1, 5.0, J) * grid.cell_dx,
                         c=rng.integers(0, 2, J).astype(float))
    alpha = rng.uniform(0.0, 1.0, J)
    rho_p, rho_m = rng.uniform(0.1, 5.0, J), rng.uniform(0.1, 5.0, J)
    return MacroState(grid=grid, u=u, alpha=alpha,
                      mass_plus=alpha * rho_p * grid.cell_dx,
                      mass_minus=(1.0 - alpha) * rho_m * grid.cell_dx,
                      rho_plus=rho_p, rho_minus=rho_m)


@settings(max_examples=150, deadline=None)
@given(state=torus_states())
def test_window_sums_match_the_cell_walk(state):
    # the scale of window k is the integral of |integrand| over windows
    # k-1, k and k+1: where a cell edge lies within rounding of a window
    # edge, both sides may hand a sliver of the neighbouring cell to
    # either window.  Every integrand but the velocity is nonnegative; the
    # walk over |u| bounds the integral of |u|.
    speed = MesoState(grid=state.grid, u=np.abs(state.u), cell_mass=state.grid.cell_dx,
                      c=np.ones(state.grid.J))
    for K in range(1, state.grid.J):
        got, ref = _window_sums(state, K), window_walk(state, K)
        assert got["h"] == ref["h"]
        absolute = {**ref, "u_int": window_walk(speed, K)["u_int"]}
        for key in ("length", "plus_len", "plus_mass", "minus_mass",
                    "plus_sq", "minus_sq", "u_int"):
            near = absolute[key]
            scale = np.roll(near, 1) + near + np.roll(near, -1)
            assert got[key].shape == (K,)
            assert np.all(np.abs(got[key] - ref[key]) <= 1e-13 * scale), (K, key)


@st.composite
def tori_with_nodes_on_window_edges(draw):
    """A torus of J cells and a window count K, where some nodes sit
    exactly on window edges k/K, so that cell edges and window edges
    coincide; the nodes may be shifted by whole lengths."""
    J = draw(st.integers(3, 30))
    K = draw(st.integers(1, J - 1))
    edges = np.arange(K) * (1.0 / K)
    on_edges = draw(st.sets(st.integers(0, K - 1), max_size=J))
    free = np.array(draw(st.lists(st.integers(0, 2**40 - 1), min_size=J - len(on_edges),
                                  max_size=J - len(on_edges)))) * 2.0**-40
    shift = draw(st.sampled_from((0.0, 0.0, 1.0, -2.0)))
    nodes = np.unique(np.concatenate((edges[sorted(on_edges)], free))) + shift
    assume(nodes.size > max(K, 2) and np.all(np.diff(nodes) > 0)
           and nodes[-1] - nodes[0] < 1.0)
    return StaggeredGrid(nodes), K


@settings(max_examples=200, deadline=None)
@given(drawn=tori_with_nodes_on_window_edges())
@example(drawn=(StaggeredGrid.uniform(12), 4))
@example(drawn=(StaggeredGrid.uniform(30), 10))
def test_window_cuts_equal_np_unique(drawn):
    grid, K = drawn
    h, start, cuts = _cuts(grid, K)
    joined = np.concatenate((start, np.arange(K) * h, [grid.length]))
    ref = np.unique(joined)
    event(f"duplicate cuts: {joined.size > ref.size}")
    assert cuts.dtype == ref.dtype and cuts.shape == ref.shape
    assert cuts.tobytes() == ref.tobytes()


ENVELOPE = f"density left the sane range [{RHO_SANE_MIN}, {RHO_SANE_MAX}]"


def run_to_the_end_or_the_envelope(config):
    """Run config's scheme from its Riemann datum; returns the last
    accepted state.  A run may end only at t_end or in the density
    envelope's StepFailure, which a blown-up run is meant to reach."""
    if config.scheme == "meso":
        accepted = [init_meso_riemann(config.cells)]

        def step(state, dt_limit):
            return step_meso(state, config.mat, dt_limit=dt_limit)
    else:
        accepted = [init_macro_riemann(config.cells)]

        def step(state, dt_limit):
            return step_macro(state, config.mat, config.weighting, dt_limit=dt_limit)

    def advance(state, dt_limit, context):
        accepted.append(step(state, dt_limit))
        return accepted[-1]

    try:
        state, _ = run_scheme(accepted[0], advance, lambda state: None, config)
    except StepFailure as failure:
        assert str(failure) == ENVELOPE
        return accepted[-1]
    assert state.t == config.t_end
    return state


# this draw leaves the density envelope at t = 0.00765, short of t_end
@example(half_J=11, t_end=0.0078125, gamma_plus=1.0, gamma_minus=5.0, K_plus=1.0,
         K_minus=5.0, mu_plus=0.0078125, mu_minus=0.0625)
@settings(max_examples=25, deadline=None)
@given(half_J=st.integers(2, 20), t_end=st.floats(0.0, 0.01),
       gamma_plus=st.floats(1.0, 5.0), gamma_minus=st.floats(1.0, 5.0),
       K_plus=st.floats(0.1, 10.0), K_minus=st.floats(0.1, 10.0),
       mu_plus=st.floats(1e-3, 1.0), mu_minus=st.floats(1e-3, 1.0))
def test_meso_run_keeps_the_colour_field(half_J, t_end, gamma_plus, gamma_minus,
                                         K_plus, K_minus, mu_plus, mu_minus):
    J = 2 * half_J
    config = parse_config({"scheme": "meso", "cells": J, "t_end": t_end,
                           "gamma_plus": gamma_plus, "gamma_minus": gamma_minus,
                           "K_plus": K_plus, "K_minus": K_minus,
                           "mu_plus": mu_plus, "mu_minus": mu_minus})
    state = run_to_the_end_or_the_envelope(config)
    assert state.c.tobytes() == init_meso_riemann(J).c.tobytes()


@example(scheme="meso", half_J=11, t_end=0.0078125, weighting="cross", gamma_plus=1.0,
         gamma_minus=5.0, K_plus=1.0, K_minus=5.0, mu_plus=0.0078125, mu_minus=0.0625)
@settings(max_examples=25, deadline=None)
@given(scheme=st.sampled_from(("meso", "macro")), half_J=st.integers(2, 20),
       t_end=st.floats(0.0, 0.01), weighting=st.sampled_from(("cross", "paper")),
       gamma_plus=st.floats(1.0, 5.0), gamma_minus=st.floats(1.0, 5.0),
       K_plus=st.floats(0.1, 10.0), K_minus=st.floats(0.1, 10.0),
       mu_plus=st.floats(1e-3, 1.0), mu_minus=st.floats(1e-3, 1.0))
def test_runs_keep_every_cell_mass(scheme, half_J, t_end, weighting, gamma_plus,
                                   gamma_minus, K_plus, K_minus, mu_plus, mu_minus):
    J = 2 * half_J
    config = parse_config({"scheme": scheme, "cells": J, "t_end": t_end,
                           "weighting": weighting,
                           "gamma_plus": gamma_plus, "gamma_minus": gamma_minus,
                           "K_plus": K_plus, "K_minus": K_minus,
                           "mu_plus": mu_plus, "mu_minus": mu_minus})
    state = run_to_the_end_or_the_envelope(config)
    if scheme == "meso":
        assert np.array_equal(state.cell_mass, init_meso_riemann(J).cell_mass)
    else:
        init = init_macro_riemann(J)
        assert np.array_equal(state.mass_plus, init.mass_plus)
        assert np.array_equal(state.mass_minus, init.mass_minus)


@settings(max_examples=25, deadline=None)
@given(half_J=st.integers(2, 20), steps=st.integers(1, 30),
       gamma_plus=st.floats(1.0, 5.0), gamma_minus=st.floats(1.0, 5.0),
       K_plus=st.floats(0.1, 10.0), K_minus=st.floats(0.1, 10.0),
       mu_plus=st.floats(1e-3, 1.0), mu_minus=st.floats(1e-3, 1.0))
def test_macro_on_pure_cells_is_the_meso_step(half_J, steps, gamma_plus, gamma_minus,
                                              K_plus, K_minus, mu_plus, mu_minus):
    # with cross weighting the effective coefficients are the pure-phase
    # ones at alpha in {0, 1} and the relaxation rate vanishes there
    mat = MaterialPair(PowerLaw(K_plus, gamma_plus), PowerLaw(K_minus, gamma_minus),
                       mu_plus, mu_minus)
    meso = init_meso_riemann(2 * half_J)
    c, m = meso.c, meso.cell_mass
    rho = m / meso.grid.cell_dx
    macro = MacroState(grid=meso.grid, u=meso.u, alpha=c, mass_plus=c * m,
                       mass_minus=(1.0 - c) * m, rho_plus=rho, rho_minus=rho.copy())
    for _ in range(steps):
        meso = step_meso(meso, mat, dt_limit=1e-4)
        macro = step_macro(macro, mat, "cross", dt_limit=1e-4)
        assert same_bits(macro.grid.node_x, meso.grid.node_x)
        assert same_bits(macro.u, meso.u)
        assert same_bits(macro.rho, meso.rho)
        assert macro.t == meso.t
    assert same_bits(macro.alpha, c)
    assert macro.clamp_events == 0 and macro.guard_events == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 40), dt=st.floats(1e-6, 1.0))
def test_momentum_solve_matches_the_dense_oracle(seed, J, dt):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, J)
    diag, off, rhs = assemble_momentum(grid, rng.uniform(-2.0, 2.0, J),
                                       rng.uniform(0.0, 1.0, J), rng.uniform(0.0, 10.0, J),
                                       rng.uniform(1e-3, 10.0, J), dt)
    x = solve_cyclic_tridiagonal(diag, off, rhs)
    ref = dense_solve(diag, off, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    scale = np.max(np.abs(diag)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    assert np.max(np.abs(dense_matrix(diag, off) @ x - rhs)) <= 1e-13 * scale


# The step's building blocks against the formulas they replace.  Every
# periodic neighbour shift is a slice copy and np.roll is the independent
# oracle; each rewritten function keeps its floating-point operations and
# their order, so the results agree byte for byte (even the sign of a
# zero counts; signed zeros and repeated values are drawn often).  The
# effective pressure and the relaxation rate take the phase pressures and,
# fed p_+(rho_+) and p_-(rho_-), equal the density-form formulas.

ZEROS = st.sampled_from((-0.0, 0.0))
ANY = ZEROS | st.sampled_from((1.0, -1.0)) | st.floats()
FINITE = ZEROS | st.sampled_from((1.0, -1.0)) | st.floats(-1e6, 1e6)
POSITIVE = st.floats(1e-6, 1e6)
NONNEGATIVE = ZEROS | st.floats(0.0, 1e3)
FRACTION = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def field(draw, J, elements=FINITE):
    return draw(arrays(np.float64, J, elements=elements))


@settings(max_examples=100, deadline=None)
@given(a=arrays(np.float64, st.integers(1, 40), elements=ANY))
def test_shift_helpers_equal_roll(a):
    assert same_bits(right_neighbour(a), np.roll(a, -1))
    assert same_bits(left_neighbour(a), np.roll(a, 1))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 - -1e308
        assert same_bits(back_difference(a), a - np.roll(a, 1))


@settings(max_examples=60, deadline=None)
@given(grid=tori())
def test_widths_and_strain_equal_their_roll_formulas(grid):
    x = grid.node_x
    widths = x - np.roll(x, 1)
    widths[0] = x[0] - x[-1] + grid.length
    assert same_bits(grid.cell_dx, widths)


@settings(max_examples=60, deadline=None)
@given(m=arrays(np.float64, st.integers(3, 40), elements=POSITIVE))
def test_node_mass_equals_its_roll_formula(m):
    assert same_bits(node_mass(m), 0.5 * (m + np.roll(m, -1)))


@settings(max_examples=60, deadline=None)
@given(grid=tori(), dt=st.floats(1e-8, 1.0), data=st.data())
def test_momentum_system_equals_its_roll_formulas(grid, dt, data):
    J = grid.J
    u, p = field(data.draw, J), field(data.draw, J)
    mu = field(data.draw, J, NONNEGATIVE)
    m_node = field(data.draw, J, POSITIVE)
    diag, off, rhs = assemble_momentum(grid, u, mu, p, m_node, dt)
    w = dt * mu / grid.cell_dx
    assert same_bits(diag, m_node + w + np.roll(w, -1))
    assert same_bits(off, -np.roll(w, -1))
    assert same_bits(rhs, m_node * u - dt * (np.roll(p, -1) - p))


@settings(max_examples=60, deadline=None)
@given(grid=tori(), dt_max=st.floats(1e-8, 1.0), data=st.data())
def test_choose_dt_equals_its_roll_formula(grid, dt_max, data):
    u = field(data.draw, grid.J)
    want = min(dt_max, CFL_THETA * np.min(grid.cell_dx)
               / (np.max(np.abs(u - np.roll(u, 1))) + 1e-12))
    assert same_bits(min(choose_dt(grid, u), dt_max), want)


@settings(max_examples=60, deadline=None)
@given(grid=tori(), data=st.data())
def test_alpha_estimate_equals_its_roll_formula(grid, data):
    J = grid.J
    c = field(data.draw, J, st.sampled_from((0.0, 1.0)))
    state = MesoState(grid=grid, u=np.zeros(J), cell_mass=grid.cell_dx, c=c)
    dx = grid.cell_dx
    half_l, half_r = 0.5 * np.roll(dx, 1), 0.5 * np.roll(dx, -1)
    want = (c * dx + np.roll(c, 1) * half_l + np.roll(c, -1) * half_r) / (dx + half_l + half_r)
    assert same_bits(estimate_alpha_meso(state), want)


@settings(max_examples=60, deadline=None)
@given(J=st.integers(1, 20), gammas=st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 5.0)),
       mus=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       weighting=st.sampled_from(("cross", "paper")), data=st.data())
def test_pressure_form_equals_the_density_form(J, gammas, mus, weighting, data):
    mat = MaterialPair(PowerLaw(1.0, gammas[0]), PowerLaw(2.0, gammas[1]), *mus)
    alpha = field(data.draw, J, FRACTION)
    rho_p, rho_m = field(data.draw, J, POSITIVE), field(data.draw, J, POSITIVE)
    du = field(data.draw, J)
    p_p, p_m = mat.law_plus.pressure(rho_p), mat.law_minus.pressure(rho_m)

    denom = alpha * mat.mu_minus + (1.0 - alpha) * mat.mu_plus
    if weighting == "cross":
        num = alpha * p_p * mat.mu_minus + (1.0 - alpha) * p_m * mat.mu_plus
        want = np.where(alpha == 1.0, p_p, np.where(alpha == 0.0, p_m, num / denom))
    else:
        want = (alpha * p_p * mat.mu_plus + (1.0 - alpha) * p_m * mat.mu_minus) / denom
    assert same_bits(p_eff(alpha, p_p, p_m, mat, weighting), want)

    denom = (1.0 - alpha) * mat.mu_plus + alpha * mat.mu_minus
    want = alpha * (1.0 - alpha) / denom * (p_p - p_m - (mat.mu_plus - mat.mu_minus) * du)
    assert same_bits(relaxation_rhs(alpha, p_p, p_m, du, mat), want)


@settings(max_examples=100, deadline=None)
@given(J=st.integers(1, 20), mus=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       equal=st.booleans(), weighting=st.sampled_from(("cross", "paper")), data=st.data())
def test_homogenized_equals_the_public_coefficients(J, mus, equal, weighting, data):
    mat = MaterialPair(PowerLaw(), PowerLaw(), mus[0], mus[0] if equal else mus[1])
    alpha = field(data.draw, J, FRACTION)
    p_p, p_m = field(data.draw, J, NONNEGATIVE), field(data.draw, J, NONNEGATIVE)
    du = field(data.draw, J)
    p_cells, mu_cells, k, dp = homogenized(alpha, p_p, p_m, mat, weighting)
    assert same_bits(p_cells, p_eff(alpha, p_p, p_m, mat, weighting))
    assert same_bits(mu_cells, mu_eff(alpha, mat))
    assert same_bits(k * (dp - (mat.mu_plus - mat.mu_minus) * du),
                     relaxation_rhs(alpha, p_p, p_m, du, mat))


@settings(max_examples=100, deadline=None)
@given(J=st.integers(0, 20), mus=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       equal=st.booleans(), weighting=st.sampled_from(("cross", "paper")), data=st.data())
def test_homogenized_equals_its_closed_forms(J, mus, equal, weighting, data):
    mu_p, mu_m = mus[0], mus[0] if equal else mus[1]
    mat = MaterialPair(PowerLaw(), PowerLaw(), mu_p, mu_m)
    alpha = np.concatenate(([0.0, 1.0], field(data.draw, J, FRACTION)))
    p_p, p_m = field(data.draw, J + 2, NONNEGATIVE), field(data.draw, J + 2, NONNEGATIVE)
    p_cells, mu_cells, k, dp = homogenized(alpha, p_p, p_m, mat, weighting)

    denom = alpha * mu_m + (1.0 - alpha) * mu_p
    if weighting == "cross":
        num = alpha * p_p * mu_m + (1.0 - alpha) * p_m * mu_p
        want = np.where(alpha == 1.0, p_p, np.where(alpha == 0.0, p_m, num / denom))
    else:
        want = (alpha * p_p * mu_p + (1.0 - alpha) * p_m * mu_m) / denom
    assert same_bits(p_cells, want)
    if mu_p == mu_m:  # two independent draws can be equal too
        want = np.full(J + 2, mu_p)
    else:
        want = np.where(alpha == 1.0, mu_p, np.where(alpha == 0.0, mu_m, mu_p * mu_m / denom))
    assert same_bits(mu_cells, want)
    assert same_bits(k, alpha * (1.0 - alpha) / denom)
    assert same_bits(dp, p_p - p_m)


# The patch passes that homogenized, macro._phase_density and macro._clamp
# skip when no cell needs them, in both regimes: every cell mixed (no pass)
# and some cells pure, near-empty or out of range (the pass), bit for bit
# against the plain np.where and clip formulas, with their counts.

def with_specials(draw, J, inside, specials):
    """J entries from ``inside``, or, in the other regime, with at least one
    entry drawn from ``specials``."""
    values = field(draw, J, inside)
    if J and draw(st.booleans()):
        for i in draw(st.lists(st.integers(0, J - 1), min_size=1)):
            values[i] = draw(specials)
    return values


def same_array(got, want):
    return type(got) is np.ndarray and type(want) is np.ndarray and same_bits(got, want)


MIXED = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
PURE = st.sampled_from((0.0, -0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(J=st.integers(0, 20), mus=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       scalar=st.booleans(), data=st.data())
def test_homogenized_pure_patch_in_both_regimes(J, mus, scalar, data):
    mu_p, mu_m = mus
    mat = MaterialPair(PowerLaw(), PowerLaw(), mu_p, mu_m)
    alpha = with_specials(data.draw, J, MIXED, PURE)
    p_p, p_m = field(data.draw, J, NONNEGATIVE), field(data.draw, J, NONNEGATIVE)
    if scalar and J:  # 0-d input: np.where still returns an ndarray
        alpha, p_p, p_m = float(alpha[0]), float(p_p[0]), float(p_m[0])
    p_cells, mu_cells, _, _ = homogenized(alpha, p_p, p_m, mat)

    alpha = np.asarray(alpha)
    denom = alpha * mu_m + (1.0 - alpha) * mu_p
    num = alpha * p_p * mu_m + (1.0 - alpha) * p_m * mu_p
    assert same_array(p_cells, np.where(alpha == 1.0, p_p, np.where(alpha == 0.0, p_m,
                                                                      num / denom)))
    if mu_p != mu_m:
        assert same_array(mu_cells, np.where(alpha == 1.0, mu_p,
                                             np.where(alpha == 0.0, mu_m,
                                                      mu_p * mu_m / denom)))


@settings(max_examples=150, deadline=None)
@given(J=st.integers(0, 20), scalar=st.booleans(), data=st.data())
def test_phase_density_guard_patch_in_both_regimes(J, scalar, data):
    above = st.floats(ALPHA_GUARD, 1.0, exclude_min=True)
    near_empty = st.sampled_from((0.0, -0.0, 5e-324, 1e-13, ALPHA_GUARD))
    fraction = with_specials(data.draw, J, above, near_empty)
    mass = field(data.draw, J, st.just(0.0) | POSITIVE)
    dx, rho_old = field(data.draw, J, POSITIVE), field(data.draw, J, POSITIVE)
    if scalar and J:  # 0-d arrays: np.where still returns an ndarray
        fraction, mass, dx, rho_old = (a[0, ...] for a in (fraction, mass, dx, rho_old))
    rho, guards = _phase_density(mass, fraction, dx, rho_old, fraction.min(initial=np.inf),
                                 np.empty(np.shape(fraction)))

    ok = fraction > ALPHA_GUARD
    assert same_array(rho, np.where(ok, mass / (np.where(ok, fraction, 1.0) * dx), rho_old))
    assert guards == np.count_nonzero(~ok & (mass > 0))


@settings(max_examples=150, deadline=None)
@given(J=st.integers(0, 20), data=st.data())
def test_alpha_clamp_in_both_regimes(J, data):
    inside = MIXED | st.just(1.0)
    outside = PURE | st.sampled_from((-5e-324, -1e-7, np.nextafter(1.0, 2.0), 1.5, np.nan))
    alpha_raw = with_specials(data.draw, J, inside, outside)
    alpha_new, clamps, span = _clamp(alpha_raw.copy())

    want = alpha_raw.clip(0.0, 1.0)
    assert same_array(alpha_new, want)
    assert clamps == np.count_nonzero(want != alpha_raw)
    # the (min, max) the next run-path step checks alpha's range with
    assert np.array_equal(span, (want.min(initial=np.inf), want.max(initial=-np.inf)),
                          equal_nan=True)
