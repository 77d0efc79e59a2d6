"""Print the sha256 of every output file of the usual six runs, so that two
checkouts can be compared byte for byte:

    python3 tools/outputs_manifest.py > before.txt   # in one checkout
    python3 tools/outputs_manifest.py > after.txt    # in the other
    diff before.txt after.txt

The runs use the package in this checkout's ``src`` and write into a
temporary directory, which is removed afterwards.  Each line is
``sha256  path``, the path relative to that directory.  ``config.json`` is
left out, as it records the directory.  The runs' own messages go to
stderr; a run that does not exit 0 ends the script with status 1.
"""

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biphase1d.cli import main  # noqa: E402

# the relaxation-capped macro config whose steps retry, and test2 at J = 1e5
RETRY = {"preset": "test2", "scheme": "macro", "gamma_minus": 5, "K_minus": 10,
         "dt_max": 1, "mu_minus": 0.00103}
LARGE = {"preset": "test2", "cells": 100000, "t_end": 3e-4}

RUNS = {
    "test1": ["run", "test1"],
    "test2": ["run", "test2"],
    "test2-paper": ["run", "test2", "--weighting", "paper"],
    "retry": ["run", json.dumps(RETRY)],
    "J1e5": ["run", json.dumps(LARGE)],
    "sweep": ["sweep", "test2", "--cells", "250,500"],
}


def manifest(root):
    """(sha256, relative path) of every file under root but config.json."""
    return [(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(root).as_posix())
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "config.json"]


def run_all():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, argv in RUNS.items():
            with redirect_stdout(sys.stderr):
                status = main([*argv, "--out", str(root / name)])
            if status != 0:
                print(f"{name}: exit status {status}", file=sys.stderr)
                return 1
        for digest, path in manifest(root):
            print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(run_all())
