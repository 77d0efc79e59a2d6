"""Every name the benchmark instruments or reads still exists in the package.

``perfbench/probes.py`` wraps the (module, attribute) pairs listed in its
``SPAN_BINDINGS``; a package change that drops one of them would stop the
benchmark.  The probes file is run from its source text, never imported,
so no bytecode is written next to it.  ``perfbench/workloads.py`` and
``perfbench/worker.py`` also read fields of the states the steps return,
and of the RunConfig that ``parse_config`` builds.
"""

import importlib
import runpy
from pathlib import Path

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
