"""A sweep whose run breaks down leaves the same forensics as `run`."""

from biphase1d.cli import main

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
