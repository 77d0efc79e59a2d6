"""The run constants that run_meso and run_macro make once per run.

A runner makes them from its first state and passes them to every step as
``context``; a step called without one makes them itself.  Either way the
step runs the same kernel, so a runner's result equals, bit for bit, the
result of run_scheme driven by the public steps.  A runner holds no
reference to its initial state once the first step is done.  A state fed
straight into a public step meets the checks, messages and order that the
steps had before the constants were hoisted.

The context also holds the run's workspace, the scratch arrays every step
overwrites.  No state array lives in it, so a state stays the value it was
when its step returned, and a run-path step allocates only the arrays of the
state it returns and its pressure-law evaluations.
"""

import dataclasses
import tracemalloc
import weakref
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphase1d import macro, meso, stepping
from biphase1d.cli import parse_config
from biphase1d.errors import SolverError, StepFailure
from biphase1d.macro import MacroState, init_macro_riemann, run_macro, step_macro
from biphase1d.materials import MaterialPair, PowerLaw
from biphase1d.meso import init_meso_riemann, riemann_density, run_meso, run_scheme, step_meso


def pure_cell_datum(J):
    """The macro Riemann datum with alpha = 1, not 1/2, in every other cell."""
    state = init_macro_riemann(J)
    dx = state.grid.cell_dx
    alpha = np.where(np.arange(J) % 2 == 0, 1.0, 0.5)
    rho = riemann_density(state.grid.midpoints)
    return MacroState(grid=state.grid, u=state.u, alpha=alpha, mass_plus=alpha * rho * dx,
                      mass_minus=(1.0 - alpha) * rho * dx, rho_plus=rho, rho_minus=rho.copy())


def public_run(config, datum):
    """run_scheme driven by the public step, which makes no run constants."""
    if config.scheme == "meso":
        return run_scheme(datum(config.cells),
                          lambda state, dt_limit: step_meso(state, config.mat, dt_limit),
                          config)
    return run_scheme(datum(config.cells),
                      lambda state, dt_limit: step_macro(state, config.mat, config.weighting,
                                                         dt_limit),
                      config)


def outcome(run):
    """The final state of run(), or the type and message of its failure."""
    try:
        return run()[0]
    except (SolverError, ValueError) as failure:
        return type(failure), str(failure)


def assert_same_state(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):  # both runs failed
        assert got == want
        return
    for name in ("node_x", "cell_dx"):
        assert np.array_equal(getattr(got.grid, name), getattr(want.grid, name)), name
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        elif f.name != "grid":
            assert a == b, f.name


# the benchmark's relaxation-capped retry config: gamma_- = 5, K_- = 10,
# mu_- about 1e-3 and dt_max = 1, so that steps retry and halve, with test2's
# mu_+ (a larger viscosity ratio under "paper" stalls: ROADMAP item 1)
STIFF = {"gamma_minus": 5.0, "K_minus": 10.0, "mu_plus": 0.1, "mu_minus": 0.00103,
         "dt_max": 1.0}


# a stiff macro run whose relaxation retries exhaust one halving, a stiff
# pure-cell macro run and a meso run that reach t_end
@example(scheme="macro", half_J=12, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=1, mu_plus=0.1, mu_minus=0.02)
@example(scheme="macro", half_J=12, t_end=0.01, weighting="paper", stiff=True, pure=True,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02)
@example(scheme="meso", half_J=12, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02)
@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(("meso", "macro")), half_J=st.integers(2, 24),
       t_end=st.floats(1e-4, 0.01), weighting=st.sampled_from(("cross", "paper")),
       stiff=st.booleans(), pure=st.booleans(),
       max_halvings=st.one_of(st.integers(0, 3), st.just(stepping.MAX_HALVINGS)),
       mu_plus=st.floats(1e-3, 1.0), mu_minus=st.floats(1e-3, 1.0))
def test_runner_equals_the_public_steps_bit_for_bit(scheme, half_J, t_end, weighting, stiff,
                                                   pure, max_halvings, mu_plus, mu_minus):
    overrides = {"scheme": scheme, "cells": 2 * half_J, "t_end": t_end,
                 "weighting": weighting, "mu_plus": mu_plus, "mu_minus": mu_minus,
                 "cadence": 3, **(STIFF if stiff else {})}
    config = parse_config("test2", overrides)
    runner = run_meso if scheme == "meso" else run_macro
    macro_datum = pure_cell_datum if pure else init_macro_riemann
    datum = init_meso_riemann if scheme == "meso" else macro_datum
    with (patch.object(stepping, "MAX_HALVINGS", max_halvings),
          patch.object(macro, "init_macro_riemann", macro_datum),
          np.errstate(over="ignore", invalid="ignore")):
        want = outcome(lambda: public_run(config, datum))
        got = outcome(lambda: runner(config))
    assert_same_state(got, want)


@pytest.mark.parametrize("scheme, module, runner",
                         (("meso", meso, run_meso), ("macro", macro, run_macro)),
                         ids=("meso", "macro"))
def test_runner_frees_the_initial_state_after_the_first_step(scheme, module, runner,
                                                             monkeypatch):
    # a runner frame that kept the initial state would hold a second copy
    # of every field for the whole run, which costs memory at large J
    init, step = getattr(module, f"init_{scheme}_riemann"), getattr(module, f"step_{scheme}")
    initial, calls = [], []

    def kept(*args):
        state = init(*args)
        initial.append(weakref.ref(state))
        return state

    def checked(*args, **kwargs):
        calls.append(1)
        if len(calls) >= 2:
            assert initial[0]() is None, "the initial state outlived its step"
        return step(*args, **kwargs)

    monkeypatch.setattr(module, f"init_{scheme}_riemann", kept)
    monkeypatch.setattr(module, f"step_{scheme}", checked)
    state, _ = runner(parse_config("test2", {"scheme": scheme, "cells": 16, "t_end": 5e-4}))
    assert len(initial) == 1 and len(calls) >= 3 and state.t == 5e-4


def state_arrays(state):
    """Every array of a state, the grid's included, by name."""
    arrays = {"node_x": state.grid.node_x, "cell_dx": state.grid.cell_dx}
    arrays.update((f.name, getattr(state, f.name)) for f in dataclasses.fields(state)
                  if isinstance(getattr(state, f.name), np.ndarray))
    return arrays


@example(scheme="macro", half_J=12, t_end=0.01, weighting="paper", stiff=True, pure=True,
         max_halvings=1)
@settings(max_examples=25, deadline=None)
@given(scheme=st.sampled_from(("meso", "macro")), half_J=st.integers(2, 24),
       t_end=st.floats(1e-4, 0.01), weighting=st.sampled_from(("cross", "paper")),
       stiff=st.booleans(), pure=st.booleans(), max_halvings=st.integers(0, 3))
def test_states_stay_values_and_never_live_in_the_workspace(scheme, half_J, t_end, weighting,
                                                           stiff, pure, max_halvings):
    config = parse_config("test2", {"scheme": scheme, "cells": 2 * half_J, "t_end": t_end,
                                    "weighting": weighting, **(STIFF if stiff else {})})
    module = meso if scheme == "meso" else macro
    step = getattr(module, f"step_{scheme}")
    kept, workspaces = [], []

    def keep(state):
        kept.append((state, {name: a.copy() for name, a in state_arrays(state).items()}))

    def watched(state, *args, context, **kwargs):
        if not kept:
            keep(state)
        workspaces.append(context[3] if scheme == "meso" else context[2])
        out = step(state, *args, context=context, **kwargs)
        keep(out)
        return out

    with (patch.object(stepping, "MAX_HALVINGS", max_halvings),
          patch.object(macro, "init_macro_riemann",
                       pure_cell_datum if pure else init_macro_riemann),
          patch.object(module, f"step_{scheme}", watched),
          np.errstate(over="ignore", invalid="ignore")):
        outcome(lambda: (run_meso if scheme == "meso" else run_macro)(config))

    assert kept and all(w is workspaces[0] for w in workspaces)
    for state, copies in kept:
        for name, a in state_arrays(state).items():
            assert np.array_equal(a, copies[name], equal_nan=True), name
            assert not any(np.shares_memory(a, w) for w in workspaces[0]), name


def peak_new_arrays(step, state, J):
    """The most arrays of J doubles that ``step(state)`` holds at once,
    beyond those alive before it, from tracemalloc's peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step(state)
        return int((tracemalloc.get_traced_memory()[1] - before) / (8 * J))
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme, budget", (("meso", 4), ("macro", 6)), ids=("meso", "macro"))
def test_a_run_path_step_allocates_only_what_outlives_it(scheme, budget):
    # the new state's u, node_x and cell_dx, with meso's cell pressures (the
    # np.where of its law evaluations) or macro's alpha and rho_+-; the
    # workspace holds every other temporary (12 and 15 arrays when each step
    # made its own)
    J = 10_000
    config = parse_config("test2", {"cells": J})
    if scheme == "meso":
        state = init_meso_riemann(J)
        context = meso._run_constants(state, config.mat)
        step = lambda s: step_meso(s, config.mat, config.dt_max, context=context)  # noqa: E731
    else:
        state = init_macro_riemann(J)
        context = macro._run_constants(state)
        step = lambda s: step_macro(s, config.mat, config.weighting,  # noqa: E731
                                    config.dt_max, context=context)
    for _ in range(2):  # past the first step, and with alpha's range carried
        state = step(state)
    assert peak_new_arrays(step, state, J) == budget


# Error parity: each fault below makes the public step fail on its own, in
# the check named; the lists are in the order the steps check, so a state
# with two faults fails as the first of them does.

PURITY = "color field must be exactly 0 or 1 in every cell"
DENSITY = "density must be >= 0"
CELL_MASS = "cell masses must be > 0"
FRACTION = "volume fraction must lie in [0, 1]"
WEIGHTING = "unknown weighting 'bogus', expected one of ('cross', 'paper')"
PRESSURE = "phase pressures must be >= 0"
NON_FINITE = "cell pressures are not all finite"
DT_LIMIT = "dt_limit must be > 0 and finite"
MAT = MaterialPair(PowerLaw(1.0, 1.0), PowerLaw(1.0, 2.0), 0.1, 0.02)


class NegativeLaw:
    """PowerLaw(1, 1) less 1e3: its density check, then a negative pressure."""

    def pressure(self, rho):
        return PowerLaw(1.0, 1.0).pressure(rho) - 1e3


def put(array, index, value):
    array[index] = value


MESO_FAULTS = (
    ("impure color", lambda c: put(c["state"].c, 1, 0.5), ValueError, PURITY),
    ("NaN color", lambda c: put(c["state"].c, 2, np.nan), ValueError, PURITY),
    ("color 2", lambda c: put(c["state"].c, 3, 2.0), ValueError, PURITY),
    ("negative cell mass", lambda c: put(c["state"].cell_mass, 1, -1e-3), ValueError, DENSITY),
    ("NaN cell mass", lambda c: put(c["state"].cell_mass, 2, np.nan), ValueError, DENSITY),
    ("zero cell mass", lambda c: put(c["state"].cell_mass, 3, 0.0), ValueError, CELL_MASS),
    ("-0.0 cell mass", lambda c: put(c["state"].cell_mass, 4, -0.0), ValueError, CELL_MASS),
    # p_-(8e200) overflows in cell 5, a minus cell
    ("infinite pressure", lambda c: put(c["state"].cell_mass, 5, 1e200), StepFailure,
     NON_FINITE),
    ("NaN dt_limit", lambda c: c.update(dt_limit=np.nan), ValueError, DT_LIMIT),
)

MACRO_FAULTS = (
    ("NaN rho_+", lambda c: put(c["state"].rho_plus, 1, np.nan), ValueError, DENSITY),
    ("negative rho_+", lambda c: put(c["state"].rho_plus, 2, -1.0), ValueError, DENSITY),
    ("NaN rho_-", lambda c: put(c["state"].rho_minus, 3, np.nan), ValueError, DENSITY),
    ("negative rho_-", lambda c: put(c["state"].rho_minus, 4, -1.0), ValueError, DENSITY),
    ("alpha above 1", lambda c: put(c["state"].alpha, 1, 1.5), ValueError, FRACTION),
    ("alpha below 0", lambda c: put(c["state"].alpha, 2, -0.5), ValueError, FRACTION),
    ("NaN alpha", lambda c: put(c["state"].alpha, 3, np.nan), ValueError, FRACTION),
    ("unknown weighting", lambda c: c.update(weighting="bogus"), ValueError, WEIGHTING),
    ("negative phase pressure",
     lambda c: c.update(mat=dataclasses.replace(c["mat"], law_plus=NegativeLaw())),
     ValueError, PRESSURE),
    ("NaN phase mass", lambda c: put(c["state"].mass_plus, 1, np.nan), ValueError, CELL_MASS),
    ("zero cell mass", lambda c: (put(c["state"].mass_plus, 2, 0.0),
                                  put(c["state"].mass_minus, 2, 0.0)), ValueError, CELL_MASS),
    ("negative cell mass", lambda c: put(c["state"].mass_minus, 3, -1.0), ValueError,
     CELL_MASS),
    ("infinite pressure", lambda c: put(c["state"].rho_minus, 5, 1e200), StepFailure,
     NON_FINITE),
    ("NaN dt_limit", lambda c: c.update(dt_limit=np.nan), ValueError, DT_LIMIT),
)


def public_step(scheme, faults):
    """The public step of scheme on a J=8 Riemann datum with faults applied."""
    if scheme == "meso":
        call = {"state": init_meso_riemann(8), "mat": MAT, "dt_limit": 1e-4}
    else:
        call = {"state": init_macro_riemann(8), "mat": MAT, "weighting": "cross",
                "dt_limit": 1e-4}
    for fault in faults:
        fault(call)
    with np.errstate(over="ignore", invalid="ignore"):  # as run_scheme steps
        if scheme == "meso":
            return step_meso(call["state"], call["mat"], call["dt_limit"])
        return step_macro(call["state"], call["mat"], call["weighting"], call["dt_limit"])


def ordered_pairs(faults):
    """Each two faults with different messages, the earlier-checked first."""
    return [pytest.param(first, second, id=f"{first[0]} + {second[0]}")
            for i, first in enumerate(faults) for second in faults[i + 1:]
            if first[3] != second[3]]


@pytest.mark.parametrize("scheme, fault", [
    pytest.param(scheme, fault, id=f"{scheme}: {fault[0]}")
    for scheme, faults in (("meso", MESO_FAULTS), ("macro", MACRO_FAULTS)) for fault in faults])
def test_public_step_rejects_each_fault(scheme, fault):
    _, apply, kind, message = fault
    with pytest.raises(kind) as failure:
        public_step(scheme, [apply])
    assert type(failure.value) is kind and str(failure.value) == message


@pytest.mark.parametrize("scheme, first, second", [
    pytest.param(scheme, *pair.values, id=f"{scheme}: {pair.id}")
    for scheme, faults in (("meso", MESO_FAULTS), ("macro", MACRO_FAULTS))
    for pair in ordered_pairs(faults)])
def test_public_step_reports_the_first_of_two_faults(scheme, first, second):
    for faults in ([first[1], second[1]], [second[1], first[1]]):
        with pytest.raises(first[2]) as failure:
            public_step(scheme, faults)
        assert type(failure.value) is first[2] and str(failure.value) == first[3]


def test_a_negative_phase_mass_under_a_positive_cell_mass_fails_the_next_step():
    # the cell mass is what the step checks; the negative phase density it
    # leaves fails the next step's pressure law
    state = init_macro_riemann(8)
    state.mass_minus[3] = -0.5 * state.mass_plus[3]
    state = step_macro(state, MAT, "cross", 1e-4)
    assert state.rho_minus[3] < 0
    with pytest.raises(ValueError, match=DENSITY):
        step_macro(state, MAT, "cross", 1e-4)
