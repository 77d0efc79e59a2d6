"""Every name the benchmark instruments still exists in the package.

``perfbench/probes.py`` wraps the (module, attribute) pairs listed in its
``SPAN_BINDINGS``; a package change that drops one of them would stop the
benchmark.  The probes file is run from its source text, never imported,
so no bytecode is written next to it.
"""

import importlib
import runpy
from pathlib import Path

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def test_every_bound_name_exists():
    bindings = runpy.run_path(str(PROBES))["SPAN_BINDINGS"]
    missing = [f"{module}.{attr}" for module, attr, _ in bindings
               if not hasattr(importlib.import_module(module), attr)]
    assert bindings and not missing, f"gone from the package: {missing}"
