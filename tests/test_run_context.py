"""The run constants that run_scheme makes once per run of run_meso and run_macro.

It makes them from the run's first state and passes them to every step as
``context``; a step called without one makes them itself, with the same
function, and then runs the same code as a run's first step.  So a runner's
result equals, bit for bit, the result of run_scheme driven by the public
steps, and a state fed straight into a public step fails with the error,
message and check order of a run's first step.  A runner holds no reference
to its initial state once the first step is done.

The context also holds the run's workspace, the scratch arrays every step
overwrites.  No state array lives in it, so a state stays the value it was
when its step returned, a run reads no workspace memory before it writes
it, and a run-path step allocates only the arrays of the state it returns
and its pressure-law evaluations.

The last run constant is the split point: from stepping._SPLIT_MIN cells on,
on two or more CPUs, a run steps each cell-wise phase on two halves at once.
``split_runs`` forces that at any size, and a split run must return the same
bits, fail the same way and leave no thread or array behind.
"""

import dataclasses
import json
import os
import threading
import time
import tracemalloc
import weakref
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphase1d import macro, meso, stepping
from biphase1d.cli import main, parse_config
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


def split_runs():
    """Every run started under it splits its cell-wise phases into two halves,
    whatever its J and the host's CPU count."""
    return patch.multiple(stepping, _SPLIT_MIN=0, _two_cpus=lambda: True)


def maybe_split(split):
    return split_runs() if split else nullcontext()


def public_run(config, datum):
    """run_scheme driven by the public step, which makes no run constants."""
    if config.scheme == "meso":
        return run_scheme(datum(config.cells),
                          lambda state, dt_limit, context: step_meso(state, config.mat,
                                                                     dt_limit),
                          lambda state: None, config)
    return run_scheme(datum(config.cells),
                      lambda state, dt_limit, context: step_macro(state, config.mat,
                                                                  config.weighting, dt_limit),
                      lambda state: None, config)


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
# pure-cell macro run and a meso run that reach t_end; then split runs of
# these, of an odd macro J and of the smallest J
@example(scheme="macro", half_J=12, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=1, mu_plus=0.1, mu_minus=0.02, split=False, odd=False)
@example(scheme="macro", half_J=12, t_end=0.01, weighting="paper", stiff=True, pure=True,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02, split=False, odd=False)
@example(scheme="meso", half_J=12, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02, split=False, odd=False)
@example(scheme="macro", half_J=12, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=1, mu_plus=0.1, mu_minus=0.02, split=True, odd=True)
@example(scheme="macro", half_J=12, t_end=0.01, weighting="paper", stiff=True, pure=True,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02, split=True, odd=False)
@example(scheme="meso", half_J=12, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02, split=True, odd=False)
@example(scheme="meso", half_J=2, t_end=0.01, weighting="cross", stiff=False, pure=False,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02, split=True, odd=False)
@example(scheme="macro", half_J=2, t_end=0.01, weighting="cross", stiff=True, pure=True,
         max_halvings=40, mu_plus=0.1, mu_minus=0.02, split=True, odd=False)
@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(("meso", "macro")), half_J=st.integers(2, 24),
       t_end=st.floats(1e-4, 0.01), weighting=st.sampled_from(("cross", "paper")),
       stiff=st.booleans(), pure=st.booleans(),
       max_halvings=st.one_of(st.integers(0, 3), st.just(stepping.MAX_HALVINGS)),
       mu_plus=st.floats(1e-3, 1.0), mu_minus=st.floats(1e-3, 1.0), split=st.booleans(),
       odd=st.booleans())
def test_runner_equals_the_public_steps_bit_for_bit(scheme, half_J, t_end, weighting, stiff,
                                                   pure, max_halvings, mu_plus, mu_minus,
                                                   split, odd):
    # the public steps run whole arrays; a split runner must give the same bits
    overrides = {"scheme": scheme, "cells": 2 * half_J + (odd and scheme == "macro"),
                 "t_end": t_end,
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
        with maybe_split(split):
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
    initial, arrays, calls = [], [], []

    def kept(*args):
        state = init(*args)
        initial.append(weakref.ref(state))
        arrays.extend(weakref.ref(a) for a in state_arrays(state).values())
        return state

    def checked(state, *args, **kwargs):
        calls.append(1)
        if len(calls) >= 2:
            assert initial[0]() is None, "the initial state outlived its step"
            # and so did each of its arrays but those every state carries
            carried = [id(a) for a in state_arrays(state).values()]
            assert all(a() is None or id(a()) in carried for a in arrays)
        return step(state, *args, **kwargs)

    monkeypatch.setattr(module, f"init_{scheme}_riemann", kept)
    monkeypatch.setattr(module, f"step_{scheme}", checked)
    for split in (False, True):  # nor may the helper thread keep it
        for kept_so_far in (initial, arrays, calls):
            kept_so_far.clear()
        with maybe_split(split):
            state, _ = runner(parse_config("test2", {"scheme": scheme, "cells": 16,
                                                     "t_end": 5e-4}))
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
    for _ in range(2):  # past the first step, in a workspace a step has written
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
    ("negative cell mass", lambda c: put(c["state"].cell_mass, 1, -1e-3), ValueError,
     CELL_MASS),
    ("NaN cell mass", lambda c: put(c["state"].cell_mass, 2, np.nan), ValueError, CELL_MASS),
    ("zero cell mass", lambda c: put(c["state"].cell_mass, 3, 0.0), ValueError, CELL_MASS),
    ("-0.0 cell mass", lambda c: put(c["state"].cell_mass, 4, -0.0), ValueError, CELL_MASS),
    # p_-(8e200) overflows in cell 5, a minus cell
    ("infinite pressure", lambda c: put(c["state"].cell_mass, 5, 1e200), StepFailure,
     NON_FINITE),
    ("NaN dt_limit", lambda c: c.update(dt_limit=np.nan), ValueError, DT_LIMIT),
)

MACRO_FAULTS = (
    ("NaN phase mass", lambda c: put(c["state"].mass_plus, 1, np.nan), ValueError, CELL_MASS),
    ("zero cell mass", lambda c: (put(c["state"].mass_plus, 2, 0.0),
                                  put(c["state"].mass_minus, 2, 0.0)), ValueError, CELL_MASS),
    ("negative cell mass", lambda c: put(c["state"].mass_minus, 3, -1.0), ValueError,
     CELL_MASS),
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
    ("infinite pressure", lambda c: put(c["state"].rho_minus, 5, 1e200), StepFailure,
     NON_FINITE),
    ("NaN dt_limit", lambda c: c.update(dt_limit=np.nan), ValueError, DT_LIMIT),
)


def faulty_step(scheme, faults, run_path):
    """The step of scheme on a J=8 Riemann datum with faults applied: the public
    step, or with run_path the step run_scheme makes first, after the run
    constants of that state."""
    if scheme == "meso":
        call = {"state": init_meso_riemann(8), "mat": MAT, "dt_limit": 1e-4}
    else:
        call = {"state": init_macro_riemann(8), "mat": MAT, "weighting": "cross",
                "dt_limit": 1e-4}
    for fault in faults:
        fault(call)
    with np.errstate(over="ignore", invalid="ignore"):  # as run_scheme steps
        if scheme == "meso":
            context = meso._run_constants(call["state"], call["mat"]) if run_path else None
            return step_meso(call["state"], call["mat"], call["dt_limit"], context=context)
        context = macro._run_constants(call["state"]) if run_path else None
        return step_macro(call["state"], call["mat"], call["weighting"], call["dt_limit"],
                          context=context)


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
        faulty_step(scheme, [apply], run_path=False)
    assert type(failure.value) is kind and str(failure.value) == message


@pytest.mark.parametrize("scheme, first, second", [
    pytest.param(scheme, *pair.values, id=f"{scheme}: {pair.id}")
    for scheme, faults in (("meso", MESO_FAULTS), ("macro", MACRO_FAULTS))
    for pair in ordered_pairs(faults)])
def test_public_step_reports_the_first_of_two_faults(scheme, first, second):
    for faults in ([first[1], second[1]], [second[1], first[1]]):
        with pytest.raises(first[2]) as failure:
            faulty_step(scheme, faults, run_path=False)
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


def failure_of_step(scheme, faults, run_path):
    """The type and message of the failure of faulty_step, or None if it passes."""
    try:
        faulty_step(scheme, faults, run_path)
    except (SolverError, ValueError) as failure:
        return type(failure), str(failure)
    return None


@pytest.mark.parametrize("scheme, faults", [
    pytest.param(scheme, [f[1] for f in chosen],
                 id=f"{scheme}: {' + '.join(f[0] for f in chosen)}")
    for scheme, faults in (("meso", MESO_FAULTS), ("macro", MACRO_FAULTS))
    for chosen in [(f,) for f in faults] + [(a, b) for a in faults for b in faults if a is not b]])
def test_a_public_step_fails_as_a_run_s_first_step(scheme, faults):
    # every single fault and every ordered pair: one check order for both calls
    want = failure_of_step(scheme, faults, run_path=True)
    assert want is not None
    assert failure_of_step(scheme, faults, run_path=False) == want
    with split_runs():  # and so does a run's step on two halves
        assert failure_of_step(scheme, faults, run_path=True) == want


def poisoned(fill):
    """stepping._workspace with every entry set to fill, not left as it came."""
    def workspace(*args):
        rows = stepping._workspace(*args)
        for row in rows:
            row.fill(fill)
        return rows
    return workspace


def run_outcome(runner, config):
    """The final state and records of runner(config), or the type and message
    of its failure."""
    try:
        state, records = runner(config)
    except (SolverError, ValueError) as failure:
        return (type(failure), str(failure)), None
    return state, np.array([dataclasses.astuple(r) for r in records])


@example(scheme="macro", half_J=24, t_end=0.01, weighting="paper", stiff=True, pure=True,
         max_halvings=1, fill=np.nan, split=False, odd=False)
@example(scheme="meso", half_J=24, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=0, fill=1e300, split=False, odd=False)
@example(scheme="macro", half_J=24, t_end=0.01, weighting="paper", stiff=True, pure=True,
         max_halvings=1, fill=np.nan, split=True, odd=True)
@example(scheme="meso", half_J=24, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=0, fill=1e300, split=True, odd=False)
@example(scheme="macro", half_J=2, t_end=0.01, weighting="cross", stiff=True, pure=False,
         max_halvings=1, fill=-7.0, split=True, odd=False)
@settings(max_examples=25, deadline=None)
@given(scheme=st.sampled_from(("meso", "macro")), half_J=st.integers(2, 24),
       t_end=st.floats(1e-4, 0.01), weighting=st.sampled_from(("cross", "paper")),
       stiff=st.booleans(), pure=st.booleans(), max_halvings=st.integers(0, 3),
       fill=st.sampled_from((np.nan, 1e300, -7.0)), split=st.booleans(), odd=st.booleans())
def test_a_run_reads_no_workspace_memory_it_has_not_written(scheme, half_J, t_end, weighting,
                                                            stiff, pure, max_halvings, fill,
                                                            split, odd):
    # a split run's halves read no row of the other half before it is written either
    config = parse_config("test2", {"scheme": scheme,
                                    "cells": 2 * half_J + (odd and scheme == "macro"),
                                    "t_end": t_end, "weighting": weighting, "cadence": 3,
                                    **(STIFF if stiff else {})})
    runner = run_meso if scheme == "meso" else run_macro
    with (patch.object(stepping, "MAX_HALVINGS", max_halvings),
          patch.object(macro, "init_macro_riemann",
                       pure_cell_datum if pure else init_macro_riemann),
          np.errstate(over="ignore", invalid="ignore")):
        want, want_records = run_outcome(runner, config)
        with (patch.object(meso, "_workspace", poisoned(fill)),
              patch.object(macro, "_workspace", poisoned(fill)), maybe_split(split)):
            got, got_records = run_outcome(runner, config)
    assert_same_state(got, want)
    if want_records is not None:
        assert np.array_equal(got_records, want_records, equal_nan=True)


# The split: from stepping._SPLIT_MIN cells on, on two or more CPUs, a run
# steps each cell-wise phase on two halves at once, one in a helper thread.


def test_a_run_splits_from_the_size_constant_on_two_cpus():
    # under `taskset -c 0` no run splits, whatever its size
    two = len(os.sched_getaffinity(0)) >= 2
    assert stepping._two_cpus() == two
    n = stepping._SPLIT_MIN
    assert stepping._split_point(n) == (n // 2 if two else None)
    assert stepping._split_point(n - 1) is None


class Boom(Exception):
    pass


@pytest.mark.parametrize("half", ("caller", "helper"))
def test_a_failing_phase_fails_the_run_and_the_next_run_finishes(half):
    config = parse_config("test2", {"scheme": "macro", "cells": 17, "t_end": 2e-3})
    update = macro._update

    def failing(left, right, *args):
        if (left == -1) == (half == "caller"):
            raise Boom(half)
        return update(left, right, *args)

    with split_runs(), np.errstate(over="ignore", invalid="ignore"):
        want, _ = run_macro(config)
        threads = threading.active_count()
        for _ in range(3):
            with patch.object(macro, "_update", failing), pytest.raises(Boom, match=half):
                run_macro(config)
            got, _ = run_macro(config)
            assert_same_state(got, want)
            assert threading.active_count() == threads


def test_a_phase_runs_in_the_caller_s_errstate():
    # dp = p[j+1] - p[j] overflows in the second half alone, the helper's; it
    # sees the caller's numpy errstate, and its error reaches the caller
    p = np.array([1.0] * 4 + [1e308, -1e308] * 2)
    phase = stepping._cells(4, stepping._pressure_difference, 3, (np.minimum, np.maximum))
    args = (-1, 0, p, p, False, p, np.empty(8), np.ones(8), p, np.zeros(8))
    with np.errstate(over="ignore"):  # else a RuntimeWarning, an error here
        phase(*args)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        phase(*args)


def test_a_split_run_fails_on_an_overflowing_law_as_a_whole_one(tmp_path, capsys):
    # the CLI's exit-1 config, under the error::RuntimeWarning filter: a split
    # run ends with the serial run's exit code, FAILED marker and message
    config = json.dumps({"preset": "test2", "cells": 20, "K_minus": 1e308, "t_end": 0.001})
    outcomes = []
    for split in (False, True):
        out = tmp_path / str(split)
        with maybe_split(split):
            code = main(["run", config, "--out", str(out)])
        outcomes.append((code, (out / "FAILED").read_text(), capsys.readouterr().err))
    assert outcomes[0] == outcomes[1] == (
        1, "cell pressures are not all finite\n",
        "solver failure: cell pressures are not all finite\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper():
    config = parse_config("test2", {"scheme": "macro", "cells": 17, "t_end": 2e-3})
    with split_runs(), np.errstate(over="ignore", invalid="ignore"):
        want, _ = run_macro(config)  # the parent's helper is running
        pid = os.fork()
        if pid == 0:  # the child: its copy of the helper has no thread
            code = 1
            try:
                got, _ = run_macro(config)
                code = 0 if np.array_equal(got.alpha, want.alpha) else 2
            finally:
                os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's run hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0
