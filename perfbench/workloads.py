"""The benchmark's workloads: inputs drawn from a seed, one timed pass,
and the checks every timed pass must satisfy.

Why each workload exists:

* ``step_J1e3`` -- the J=1000 regime, where a step is bound by the
  overhead of many small numpy calls.  First the acceptance pair (test1
  then test2, scheme both, t_end=0.1: about 1000 dt_max-limited steps per
  scheme per preset, fixed inputs), then two runs of the macro scheme
  where the relaxation cap sets dt (mu_minus ~ 1e-3, gamma_minus=5,
  K_minus=10, dt_max=1).  Those two are the benchmark's retry path:
  26-34 % of their kernel attempts are relaxation retries at every
  mu_minus of the band (40 draws checked), and they take inversion
  halvings.  Their step count is chaotic in mu_minus (770 to 1290 over
  the band).
* ``scale_J1e5`` -- test2 at J=1e5, twice: run_meso then run_macro
  through the library API for 100 steps each with snapshots only at the
  start and the end and no files (the vector and cyclic-solve regime),
  then run_experiment with scheme both for 3 steps each (coarse-graining,
  comparison and file output at scale).  No retries.  At 0.8 MB per
  array it runs in cache on hosts with a large L3: "in-cache", not a
  bandwidth figure.

Two workloads, not more: host speed on a small shared VM swings by up to
2x over tens of seconds, and only long runs average that out within the
time the whole benchmark may take.

Seeded runs draw mu_minus uniformly within +-MU_BAND of their nominal
value, one draw per run; the program receives only the resulting configs.
"""

import dataclasses
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MU_BAND = 0.05

# checks shared with the acceptance suite (tests/test_acceptance.py)
CONSERVATION_TOL = 1e-12
FROZEN_REL_L1 = {"rho": 0.010, "alpha": 0.040, "u": 0.005}  # test1, frozen
AGREEMENT_TOL = 0.05  # hard cap on every other preset

SCHEME_FILES = {
    "meso": ("meso_density.dat", "meso_velocity.dat", "meso_alpha.dat",
             "meso_diagnostics.dat"),
    "macro": ("macro_density.dat", "macro_velocity.dat", "macro_alpha.dat",
              "macro_phase_densities.dat", "macro_diagnostics.dat"),
}
BOTH_FILES = ("meso_coarse.dat", "macro_coarse.dat", "comparison_windows.dat",
              "comparison_report.txt")


@dataclass(frozen=True)
class Run:
    preset: str
    overrides: dict
    files: bool = True          # run_experiment; else run_meso + run_macro
    mu_nominal: float = None    # mu_minus centre of the seeded band


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple                 # Run, in pass order


J1E5 = {"cells": 100_000}
RETRY = {"scheme": "macro", "gamma_minus": 5.0, "K_minus": 10.0, "dt_max": 1.0}

WORKLOADS = {w.name: w for w in (
    Workload("step_J1e3", (Run("test1", {}), Run("test2", {}),
                           Run("test2", RETRY, mu_nominal=1e-3),
                           Run("test2", RETRY, mu_nominal=1e-3))),
    Workload("scale_J1e5",
             (Run("test2", {**J1E5, "t_end": 0.01, "cadence": 10**9}, files=False,
                  mu_nominal=0.02),
              Run("test2", {**J1E5, "t_end": 3e-4}, mu_nominal=0.02))),
)}


def configs(b, workload, seed, out_root, warmup=False):
    """[(Run, RunConfig)] for one pass.  The warm-up variant runs the same
    code paths on 200 cells for at most 1e-3 time units."""
    rng = random.Random(seed)
    out = []
    for i, run in enumerate(workload.runs):
        raw = {**run.overrides, "output_dir": str(Path(out_root) / f"{i}-{run.preset}")}
        if run.mu_nominal is not None:
            raw["mu_minus"] = run.mu_nominal * (1.0 + MU_BAND * rng.uniform(-1.0, 1.0))
        if warmup:
            t_end = b.parse_config(run.preset, overrides=raw).t_end
            raw.update(cells=200, t_end=min(t_end, 1e-3))
        out.append((run, b.parse_config(run.preset, overrides=raw)))
    return out


def schemes(config):
    return ("meso", "macro") if config.scheme == "both" else (config.scheme,)


@dataclass
class PassResult:
    wall_s: float
    calls: list                 # probes.RunnerCall per scheme run
    problems: list = field(default_factory=list)
    bytes_written: int = 0


def execute(b, cfgs, statuses):
    """The timed part of a pass: every run of the workload, in order."""
    for run, cfg in cfgs:
        if run.files:
            statuses.append(b.run_experiment(cfg))
        else:
            b.run_meso(cfg)
            b.run_macro(cfg)
            statuses.append(0)


def run_pass(b, cfgs, watch, execute=execute):
    """One timed pass, then its checks.  A pass that raises still counts,
    with its time."""
    for _, cfg in cfgs:
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
    statuses = []
    problems = []
    t0 = time.perf_counter()
    try:
        execute(b, cfgs, statuses)
    except Exception:  # the pass fails; the run goes on
        problems.append(traceback.format_exc())
    wall = time.perf_counter() - t0
    result = PassResult(wall_s=wall, calls=watch.take(), problems=problems)
    if not problems:
        result.problems = check(cfgs, statuses, result.calls)
    result.bytes_written = sum(p.stat().st_size for _, cfg in cfgs
                               for p in Path(cfg.output_dir).glob("*"))
    return result


def _read_table(path):
    rows = [line.split() for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]
    return np.array(rows, dtype=float)


def _check_state(label, scheme, cfg, call, series):
    state = call.state
    problems = []
    mass = series[:, 1]
    drift = float(np.max(np.abs(mass / mass[0] - 1.0)))
    if not drift <= CONSERVATION_TOL:
        problems.append(f"{label}/{scheme}: mass drift {drift:.2e} > {CONSERVATION_TOL}")
    if state.t != cfg.t_end or series[-1, 0] != cfg.t_end:
        problems.append(f"{label}/{scheme}: final t {state.t!r} != t_end {cfg.t_end!r}")
    arrays = [state.grid.node_x] + [v for f in dataclasses.fields(state)
                                    if isinstance(v := getattr(state, f.name), np.ndarray)]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append(f"{label}/{scheme}: non-finite field")
    weight = state.alpha if scheme == "macro" else state.c
    if np.any(weight < 0.0) or np.any(weight > 1.0):
        problems.append(f"{label}/{scheme}: volume fraction outside [0, 1]")
    if call.steps < 1:
        problems.append(f"{label}/{scheme}: no accepted step")
    return problems


def _check_agreement(preset, label, out):
    bounds = FROZEN_REL_L1 if preset == "test1" else dict.fromkeys(FROZEN_REL_L1, AGREEMENT_TOL)
    problems = []
    for line in (out / "comparison_report.txt").read_text().splitlines():
        name, *values = line.split()
        if name in bounds and not float(values[3]) <= bounds[name]:
            problems.append(f"{label}: {name} rel_l1 {values[3]} > {bounds[name]}")
    return problems


def check(cfgs, statuses, calls):
    """Every check a timed pass must pass; returns the problems found."""
    problems = []
    calls = iter(calls)
    for (run, cfg), status in zip(cfgs, statuses):
        out = Path(cfg.output_dir)
        label = out.name
        if status != 0:
            problems.append(f"{label}: exit status {status}")
        if run.files:
            if (out / "FAILED").exists():
                problems.append(f"{label}: FAILED marker")
            expected = ["config.json"] + [f for s in schemes(cfg) for f in SCHEME_FILES[s]]
            if cfg.scheme == "both":
                expected += BOTH_FILES
            missing = [f for f in expected if not (out / f).is_file()]
            if missing:
                problems.append(f"{label}: missing {', '.join(missing)}")
                continue
        for scheme in schemes(cfg):
            call = next(calls, None)
            if call is None or call.scheme != scheme:
                problems.append(f"{label}/{scheme}: runner call not seen")
                return problems
            if run.files:
                series = _read_table(out / f"{scheme}_diagnostics.dat")
            else:
                series = np.array([(r.t, r.total_mass) for r in call.records])
            problems += _check_state(label, scheme, cfg, call, series)
        if cfg.scheme == "both" and run.files:
            problems += _check_agreement(run.preset, label, out)
    return problems
