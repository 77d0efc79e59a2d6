"""Every name the benchmark instruments or reads still exists in the package.

``perfbench/probes.py`` wraps the (module, attribute) pairs listed in its
``SPAN_BINDINGS``; a package change that drops one of them would stop the
benchmark.  The probes file is run from its source text, never imported,
so no bytecode is written next to it.  ``perfbench/workloads.py`` and
``perfbench/worker.py`` also read fields of the states the steps return,
and of the RunConfig that ``parse_config`` builds, and the benchmark counts
a run's accepted steps at the ``step_meso`` and ``step_macro`` bindings.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from biphase1d.cli import parse_config
from biphase1d.macro import init_macro_riemann, step_macro
from biphase1d.meso import init_meso_riemann, step_meso

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def test_every_bound_name_exists():
    bindings = runpy.run_path(str(PROBES))["SPAN_BINDINGS"]
    missing = [f"{module}.{attr}" for module, attr, _ in bindings
               if not hasattr(importlib.import_module(module), attr)]
    assert bindings and not missing, f"gone from the package: {missing}"


def test_every_state_field_the_benchmark_reads_exists():
    config = parse_config("test2", {"cells": 16})
    meso = step_meso(init_meso_riemann(16), config.mat, dt_limit=config.dt_max)
    macro = step_macro(init_macro_riemann(16), config.mat, config.weighting,
                       dt_limit=config.dt_max)
    read = {"meso": (meso, ("t", "grid", "c")),
            "macro": (macro, ("t", "grid", "alpha", "clamp_events", "guard_events"))}
    missing = [f"{scheme}.{name}" for scheme, (state, names) in read.items()
               for name in names if not hasattr(state, name)]
    assert not missing, f"gone from the step states: {missing}"


def test_every_config_field_the_benchmark_reads_exists():
    config = parse_config("test2")
    read = {"config": (config, ("scheme", "cells", "t_end", "output_dir", "mat")),
            "config.mat": (config.mat, ("mu_minus",))}
    missing = [f"{owner}.{name}" for owner, (obj, names) in read.items()
               for name in names if not hasattr(obj, name)]
    assert not missing, f"gone from the run config: {missing}"


@pytest.mark.parametrize("scheme, overrides", (
    ("meso", {}),
    ("macro", {}),
    # the relaxation-capped retry config: attempts outnumber accepted steps
    ("macro", {"gamma_minus": 5, "K_minus": 10, "dt_max": 1, "mu_minus": 0.00103}),
), ids=("meso", "macro", "macro-retry"))
def test_each_runner_calls_its_step_binding_once_per_accepted_step(scheme, overrides,
                                                                   monkeypatch):
    # perfbench/probes.py's Watch counts accepted steps by wrapping these
    # module bindings, and a pass that counts none fails as "no accepted step"
    module = importlib.import_module(f"biphase1d.{scheme}")
    step = getattr(module, f"step_{scheme}")
    calls = []

    def counted(*args, **kwargs):
        out = step(*args, **kwargs)
        calls.append(1)
        return out

    monkeypatch.setattr(module, f"step_{scheme}", counted)
    config = parse_config("test2", {**overrides, "scheme": scheme, "cells": 24,
                                    "t_end": 0.004, "cadence": 1})
    state, records = getattr(module, f"run_{scheme}")(config)
    # with cadence 1 every accepted step leaves one record after the first
    assert len(calls) == len(records) - 1 > 1
    assert records[-1].t == state.t == config.t_end
