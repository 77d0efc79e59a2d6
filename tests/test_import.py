"""What importing the package pulls in."""

import os
import subprocess
import sys
from pathlib import Path

import biphase1d


def test_import_loads_no_quadrature():
    env = {**os.environ, "PYTHONPATH": str(Path(biphase1d.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, biphase1d; "
         "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in biphase1d.__all__ if not hasattr(biphase1d, name)]
    assert not missing, f"in __all__ but not in the package: {missing}"
    namespace = {}
    exec("from biphase1d import *", namespace)
    assert set(biphase1d.__all__) <= set(namespace)
