"""Failure forensics: a sweep whose run breaks down leaves the same
marker and records as `run`, a later run into the same directory does
not keep them, a failing sweep does not keep an earlier sweep's results,
a failed run's diagnostics hold the time of the step that failed, and a
pressure that overflows fails a run of any scheme the same way."""

import json
from unittest.mock import patch

import numpy as np
import pytest

from biphase1d import macro, stepping
from biphase1d.cli import main, parse_config
from biphase1d.errors import StepFailure
from biphase1d.macro import MacroState, run_macro
from biphase1d.meso import run_meso
from biphase1d.stepping import StaggeredGrid

# the nearly pressureless phase-minus cells of the meso scheme are crushed
# out of the density envelope at t = 0.034 for J=32 and t = 0.059 for J=16,
# with resolved steps, so the outcome does not hang on rounding
DENSITY_FAILURE = ('{"preset": "test1", "t_end": 0.045, "coarse_K": 4, "mu_plus": 0.001, '
                   '"mu_minus": 0.001, "gamma_minus": 1, "K_minus": 1e-9}')


def test_sweep_failure_leaves_marker(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sweep", DENSITY_FAILURE, "--cells", "16,32", "--out", str(out)]) == 1
    assert "density left the sane range" in capsys.readouterr().err
    assert (out / "J16" / "comparison_report.txt").is_file()
    assert not (out / "J16" / "FAILED").exists()
    failed = (out / "J32" / "FAILED").read_text()
    assert failed.startswith("density left the sane range")
    assert (out / "J32" / "partial_diagnostics.dat").is_file()
    assert not (out / "sweep.dat").exists()


def test_rerun_clears_a_stale_failure_marker(tmp_path):
    out = str(tmp_path / "o")
    assert main(["run", DENSITY_FAILURE, "--cells", "32", "--out", out]) == 1
    assert (tmp_path / "o" / "FAILED").is_file()
    assert (tmp_path / "o" / "partial_diagnostics.dat").is_file()
    assert main(["run", '{"preset": "test1", "t_end": 0.001, "scheme": "meso"}',
                 "--cells", "32", "--out", out]) == 0
    assert (tmp_path / "o" / "meso_density.dat").is_file()
    assert not (tmp_path / "o" / "FAILED").exists()
    assert not (tmp_path / "o" / "partial_diagnostics.dat").exists()


def test_failing_sweep_leaves_no_stale_results(tmp_path):
    out = str(tmp_path / "s")
    assert main(["sweep", '{"preset": "test1", "t_end": 0.001}', "--cells", "16,32",
                 "--out", out]) == 0
    assert (tmp_path / "s" / "sweep.dat").is_file()
    assert (tmp_path / "s" / "J32" / "comparison_report.txt").is_file()
    assert main(["sweep", DENSITY_FAILURE, "--cells", "16,32", "--out", out]) == 1
    assert not (tmp_path / "s" / "sweep.dat").exists()
    # J16 ran through again; J32 failed in its meso run before writing a result
    assert (tmp_path / "s" / "J16" / "comparison_report.txt").is_file()
    assert sorted(p.name for p in (tmp_path / "s" / "J32").iterdir()) == [
        "FAILED", "config.json", "partial_diagnostics.dat"]


def squeezed_macro_datum(J):
    """Nodes 2 and 3 close in at unit speed on cell 3, of density 5000:
    with nearly pressureless phases the first step takes it to 8333 and
    the second out of the density envelope."""
    grid = StaggeredGrid.uniform(J)
    rho = np.ones(J)
    rho[3] = 5000.0
    u = np.zeros(J)
    u[2], u[3] = 1.0, -1.0
    half = 0.5 * rho * grid.cell_dx
    return MacroState(grid=grid, u=u, alpha=np.full(J, 0.5), mass_plus=half,
                      mass_minus=half.copy(), rho_plus=rho, rho_minus=rho.copy())


def failure_of(run, config):
    with pytest.raises(StepFailure) as info:
        run(config)
    return str(info.value), info.value.diagnostics


@pytest.mark.parametrize("scheme", ["meso", "macro"])
def test_envelope_failure_carries_the_time(scheme, monkeypatch):
    if scheme == "meso":
        message, diag = failure_of(run_meso, parse_config(DENSITY_FAILURE, overrides={
            "cells": 32, "cadence": 1}))
    else:
        monkeypatch.setattr(macro, "init_macro_riemann", squeezed_macro_datum)
        message, diag = failure_of(run_macro, parse_config(
            '{"cells": 8, "t_end": 1.0, "dt_max": 1.0, "cadence": 1, "coarse_K": 4, '
            '"K_plus": 1e-9, "K_minus": 1e-9, "gamma_minus": 1, '
            '"mu_plus": 0.001, "mu_minus": 0.001}'))
    assert message == "density left the sane range [0.0001, 10000.0]"
    # every accepted step was recorded, so the last record is the time before the failure
    assert diag["t"] > 0
    assert diag["t"] == diag["records"][-1].t


@pytest.mark.parametrize("run", [run_meso, run_macro], ids=["meso", "macro"])
def test_inversion_failure_carries_the_time(run):
    # from rest the first dt is dt_max = 1: it and its one halving both
    # invert cells (equal phase laws leave the macro relaxation at rest)
    config = parse_config('{"cells": 16, "t_end": 1.0, "dt_max": 1.0, "cadence": 1, '
                          '"coarse_K": 4, "gamma_minus": 1, '
                          '"mu_plus": 0.001, "mu_minus": 0.001}')
    with patch.object(stepping, "MAX_HALVINGS", 1):
        message, diag = failure_of(run, config)
    assert message == "cell inversion persisted after 1 dt halvings"
    assert diag["t"] == diag["records"][-1].t == 0.0


# p_- = 1e308 rho^2 overflows to inf in every cell denser than 1
PRESSURE_OVERFLOW = {"preset": "test2", "cells": 20, "K_minus": 1e308, "t_end": 0.001}


@pytest.mark.parametrize("scheme", ["meso", "macro", "both"])
def test_non_finite_pressure_fails_the_run(scheme, tmp_path, capsys):
    out = tmp_path / scheme
    config = json.dumps({**PRESSURE_OVERFLOW, "scheme": scheme})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", config, "--out", str(out)]) == 1
    assert (out / "FAILED").read_text() == "cell pressures are not all finite\n"
    # the failure comes before the first step, so the records hold t = 0 only
    records = np.loadtxt(out / "partial_diagnostics.dat", ndmin=2)
    assert records[:, 0].tolist() == [0.0]
    # pure cells take their own phase's potential: the energies overflow, not 0 * inf
    assert not np.isnan(records).any()
    assert "Traceback" not in capsys.readouterr().err
