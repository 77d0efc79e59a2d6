"""Print the sha256 of every output file of the usual six runs, so that two
checkouts can be compared byte for byte:

    python3 tools/outputs_manifest.py                 # this checkout's manifest
    python3 tools/outputs_manifest.py --against HEAD  # diff against a commit

The runs use the package in this checkout's ``src`` and write into a
temporary directory, which is removed afterwards.  Each line is
``sha256  path``, the path relative to that directory.  ``config.json`` is
left out, as it records the directory.  The runs' own messages go to
stderr; a run that does not exit 0 ends the script with status 1.

``--against REV`` exports REV with ``git archive`` into a temporary
directory, runs this script's six runs with the package of that tree and
with this checkout's, each in a fresh process, and prints the unified diff
of the two manifests.  It exits 1 on any difference.
"""

import argparse
import difflib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
    sys.path.insert(0, str(ROOT / "src"))
    from biphase1d.cli import main

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


def against(rev):
    """Diff the manifest of a ``git archive`` of rev against this checkout's."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode())
            return 1
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        # this script in both trees, so that both make the same runs
        (tree / "tools").mkdir(exist_ok=True)
        shutil.copyfile(__file__, tree / "tools" / "outputs_manifest.py")
        manifests = []
        for root in (tree, ROOT):
            done = subprocess.run([sys.executable, str(root / "tools" / "outputs_manifest.py")],
                                  stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"the manifest of {root} failed", file=sys.stderr)
                return 1
            manifests.append(done.stdout.splitlines(keepends=True))
    diff = list(difflib.unified_diff(*manifests, fromfile=rev, tofile="this checkout"))
    sys.stdout.writelines(diff)
    print(f"{len(manifests[1])} files here, {len(manifests[0])} at {rev}: "
          f"{'they differ' if diff else 'no difference'}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff against the manifest of this git revision")
    args = parser.parse_args()
    sys.exit(against(args.against) if args.against else run_all())
