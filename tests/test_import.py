"""What importing the package pulls in."""

import json
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


def test_import_skips_the_scipy_linalg_package_init():
    # tridiag loads the extension scipy.linalg._flapack alone; the package
    # init it skips would also import numpy.f2py and numpy.testing
    env = {**os.environ, "PYTHONPATH": str(Path(biphase1d.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, biphase1d; "
         "print([m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing') "
         "if m in sys.modules])"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_skips_scipy_and_argparse():
    # tridiag finds scipy's directory by its import spec, so scipy's package
    # init does not run; only the command line imports argparse
    env = {**os.environ, "PYTHONPATH": str(Path(biphase1d.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, biphase1d; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'argparse') "
         "and m != 'scipy.linalg._flapack'))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_run_experiment_loads_no_numpy_ma(tmp_path):
    # coarse-graining sorts its cuts itself; np.unique would import numpy.ma
    env = {**os.environ, "PYTHONPATH": str(Path(biphase1d.__file__).parent.parent)}
    config = json.dumps({"preset": "test2", "scheme": "both", "cells": 40,
                         "t_end": 0.002, "output_dir": str(tmp_path / "out")})
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, biphase1d; "
         f"biphase1d.run_experiment(biphase1d.parse_config({config!r})); "
         "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "out" / "comparison_report.txt").exists()


def test_import_and_a_small_run_start_no_thread():
    # the helper thread of a split run and its job queue start at the first
    # split phase, and a run below stepping._SPLIT_MIN cells never splits
    env = {**os.environ, "PYTHONPATH": str(Path(biphase1d.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, threading, biphase1d; n = threading.active_count(); "
         "config = biphase1d.parse_config('test2', {'cells': 40, 't_end': 0.002}); "
         "biphase1d.run_meso(config); biphase1d.run_macro(config); "
         "print(n, threading.active_count(), 'queue' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["1", "1", "False"]


def test_every_exported_name_resolves():
    missing = [name for name in biphase1d.__all__ if not hasattr(biphase1d, name)]
    assert not missing, f"in __all__ but not in the package: {missing}"
    namespace = {}
    exec("from biphase1d import *", namespace)
    assert set(biphase1d.__all__) <= set(namespace)
