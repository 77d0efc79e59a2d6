"""Config parsing, presets, writers, orchestration, and the CLI entry."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import PRESSURE_OVERFLOW
from hypothesis import given
from hypothesis import strategies as st

from biphase1d.cli import (_ARRAY_MAX, _ARRAY_MIN, _BLOCK_ROWS, PRESETS, _write_table, main,
                           parse_config, run_experiment, run_sweep, write_diagnostics,
                           write_fields)
from biphase1d.diagnostics import DiagnosticsRecord
from biphase1d.errors import ConfigError
from biphase1d.meso import MesoState, init_meso_riemann
from biphase1d.stepping import StaggeredGrid


class TestPresets:
    def test_test1_golden_parameters(self):
        cfg = parse_config("test1")
        assert cfg.cells == 1000 and cfg.t_end == 0.1
        assert cfg.mat.mu_plus == 0.1 and cfg.mat.mu_minus == 0.1
        assert cfg.mat.law_plus.gamma == 1.0 and cfg.mat.law_plus.K == 1.0
        assert cfg.mat.law_minus.gamma == 2.0 and cfg.mat.law_minus.K == 1.0
        assert cfg.weighting == "cross" and cfg.scheme == "both"
        assert cfg.dt_max == 1e-4 and cfg.coarse_K == 50

    def test_test2_golden_parameters(self):
        cfg = parse_config("test2")
        assert cfg.mat.mu_plus == 0.1 and cfg.mat.mu_minus == 0.02
        assert cfg.cells == 1000 and cfg.t_end == 0.1

    def test_preset_names(self):
        assert set(PRESETS) == {"test1", "test2"}


class TestParse:
    def test_inline_json(self):
        cfg = parse_config('{"cells": 64, "t_end": 0.01}')
        assert cfg.cells == 64 and cfg.t_end == 0.01

    def test_file_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"preset": "test2", "cells": 128}))
        cfg = parse_config(str(path))
        assert cfg.cells == 128 and cfg.mat.mu_minus == 0.02

    def test_overrides_win(self):
        cfg = parse_config("test1", overrides={"cells": 250, "weighting": "paper"})
        assert cfg.cells == 250 and cfg.weighting == "paper"

    def test_too_few_cells_rejected(self):
        with pytest.raises(ConfigError, match="cells"):
            parse_config('{"cells": 3}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="viscosity_plus"):
            parse_config('{"viscosity_plus": 0.1}')
        # the relaxation bound is the constant macro.RELAX_ETA, not a key
        with pytest.raises(ConfigError, match="unknown config key 'relax_eta'"):
            parse_config('{"relax_eta": 0.5}')
        # nor is the CFL fraction, the constant stepping.CFL_THETA
        with pytest.raises(ConfigError, match="unknown config key 'cfl_theta'"):
            parse_config('{"cfl_theta": 0.4}')

    def test_malformed_json_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{"cells": 64,\n  "t_end": }')

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config('{"preset": "test3"}')

    def test_bad_scheme_and_weighting(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config('{"scheme": "mesoscale"}')
        with pytest.raises(ConfigError, match="weighting"):
            parse_config('{"weighting": "harmonic"}')

    def test_negative_viscosity_rejected(self):
        with pytest.raises(ConfigError, match="mu_minus"):
            parse_config('{"mu_minus": -0.1}')

    def test_coarse_window_bound(self):
        with pytest.raises(ConfigError, match="coarse_K"):
            parse_config('{"cells": 32, "coarse_K": 32}')

    def test_nonsense_source_rejected(self):
        for source in ("test42", "test1\0"):  # a NUL byte is no file name either
            with pytest.raises(ConfigError, match="neither"):
                parse_config(source)


class TestWriters:
    def test_uniform_density_file(self, tmp_path):
        g = StaggeredGrid.uniform(4)
        s = MesoState(grid=g, u=np.zeros(4), cell_mass=g.cell_dx, c=np.ones(4))
        path = tmp_path / "rho.dat"
        write_fields(s, path, columns=("rho",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# x rho"
        assert len(lines) == 5
        xs = [float(line.split()[0]) for line in lines[1:]]
        vals = [float(line.split()[1]) for line in lines[1:]]
        assert xs == [0.125, 0.375, 0.625, 0.875]
        assert vals == [1.0, 1.0, 1.0, 1.0]

    def test_rewrite_is_byte_identical(self, tmp_path):
        s = init_meso_riemann(16)
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        write_fields(s, a, columns=("rho",))
        write_fields(s, b, columns=("rho",))
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_node_quantity_uses_node_positions(self, tmp_path):
        s = init_meso_riemann(4)
        path = tmp_path / "u.dat"
        write_fields(s, path, columns=("u",))
        lines = path.read_text().splitlines()
        xs = [float(line.split()[0]) for line in lines[1:]]
        assert xs == [0.25, 0.5, 0.75, 0.0]  # node 1.0 wraps onto the torus

    def test_mixed_locations_rejected(self, tmp_path):
        s = init_meso_riemann(4)
        with pytest.raises(ValueError, match="mix"):
            write_fields(s, tmp_path / "bad.dat", columns=("rho", "u"))

    def test_coarse_fields_file(self, tmp_path):
        cfg = parse_config({"cells": 64, "t_end": 1e-3, "coarse_K": 4,
                            "output_dir": str(tmp_path)})
        assert run_experiment(cfg) == 0
        windows = (tmp_path / "comparison_windows.dat").read_text().splitlines()
        names = windows[0].split()[1:]
        rows = [line.split() for line in windows[1:]]
        for scheme in ("meso", "macro"):
            lines = (tmp_path / f"{scheme}_coarse.dat").read_text().splitlines()
            assert lines[0] == "# x alpha rho rho_plus rho_minus u"
            assert len(lines) == 5
            # each coarse column is its scheme's column of the side-by-side table
            picks = [names.index("x")] + [names.index(f"{name}_{scheme}")
                                          for name in lines[0].split()[2:]]
            assert [line.split() for line in lines[1:]] == [[row[i] for i in picks]
                                                            for row in rows]

    def test_diagnostics_schema(self, tmp_path):
        rec = DiagnosticsRecord(t=0.0, total_mass=1.0, kinetic_energy=0.0,
                                internal_energy=0.5, dissipated=0.0,
                                energy_total=0.5, rho_min=0.1, rho_max=2.0,
                                dx_min=0.01, dt_used=1e-4)
        path = tmp_path / "diag.dat"
        write_diagnostics([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# t mass E_kin E_int E_diss E_tot rho_min rho_max dx_min dt"
        assert len(lines[1].split()) == 10

    def test_seventeen_significant_digits(self, tmp_path):
        g = StaggeredGrid.uniform(4)
        s = MesoState(grid=g, u=np.zeros(4), cell_mass=g.cell_dx / 3.0, c=np.ones(4))
        path = tmp_path / "rho.dat"
        write_fields(s, path, columns=("rho",))
        val = path.read_text().splitlines()[1].split()[1]
        assert float(val) == 1.0 / 3.0


SMALL = ('{"cells": 32, "t_end": 0.002, "coarse_K": 4, "cadence": 5, '
         '"output_dir": "%s"}')


class TestRunExperiment:
    def test_both_schemes_produce_files(self, tmp_path):
        cfg = parse_config(SMALL % (tmp_path / "run"))
        assert run_experiment(cfg) == 0
        out = tmp_path / "run"
        for name in ("config.json", "meso_density.dat", "meso_velocity.dat",
                     "meso_alpha.dat", "meso_diagnostics.dat",
                     "macro_density.dat", "macro_velocity.dat", "macro_alpha.dat",
                     "macro_phase_densities.dat", "macro_diagnostics.dat",
                     "meso_coarse.dat", "macro_coarse.dat",
                     "comparison_windows.dat", "comparison_report.txt"):
            assert (out / name).is_file(), name
        assert not (out / "FAILED").exists()
        assert "cfl_theta" not in json.loads((out / "config.json").read_text())

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            cfg = parse_config(SMALL % (tmp_path / sub))
            assert run_experiment(cfg) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            if f.name == "config.json":
                continue
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name

    def test_solver_failure_leaves_marker(self, tmp_path, inversion_trigger):
        # the first step inverts cell 3, and the single allowed halving is not enough
        cfg = parse_config(inversion_trigger, {"scheme": "meso",
                                               "output_dir": str(tmp_path / "boom")})
        assert run_experiment(cfg) == 1
        assert (tmp_path / "boom" / "FAILED").is_file()
        assert (tmp_path / "boom" / "partial_diagnostics.dat").is_file()


class TestMain:
    def test_run_preset_with_overrides(self, tmp_path):
        code = main(["run", "test1", "--out", str(tmp_path / "m"),
                     "--cells", "32", "--scheme", "meso"])
        assert code == 0
        assert (tmp_path / "m" / "meso_density.dat").is_file()
        assert not (tmp_path / "m" / "macro_density.dat").exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "nonexistent-preset"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep(self, tmp_path):
        src = '{"preset": "test1", "t_end": 0.002, "coarse_K": 4, "cadence": 50}'
        code = main(["sweep", src, "--cells", "16,32", "--out", str(tmp_path / "s")])
        assert code == 0
        table = (tmp_path / "s" / "sweep.dat").read_text().splitlines()
        assert table[0] == "# cells rel_l1_rho rel_l1_u rel_l1_alpha"
        assert len(table) == 3
        assert (tmp_path / "s" / "J16" / "comparison_report.txt").is_file()

    def test_sweep_bad_cells_list(self, capsys):
        assert main(["sweep", "test1", "--cells", "16,banana"]) == 2

    def test_sweep_shares_one_window_layout(self, tmp_path):
        # without an explicit coarse_K the sweep derives one K from the
        # smallest resolution and uses it everywhere
        src = '{"preset": "test1", "t_end": 0.001, "cadence": 50}'
        assert main(["sweep", src, "--cells", "16,64",
                     "--out", str(tmp_path / "s")]) == 0
        for j in (16, 64):
            cfg = json.loads((tmp_path / "s" / f"J{j}" / "config.json").read_text())
            assert cfg["coarse_K"] == 2


class TestOddCells:
    def test_meso_rejects_odd_cells(self, tmp_path, capsys):
        for scheme in ("meso", "both"):
            code = main(["run", "test1", "--cells", "5", "--scheme", scheme,
                         "--out", str(tmp_path / scheme)])
            assert code == 2
            assert "even" in capsys.readouterr().err

    def test_macro_accepts_odd_cells(self):
        assert parse_config('{"cells": 5, "scheme": "macro"}').cells == 5


class TestSourceKinds:
    def test_long_inline_json(self):
        text = json.dumps({"preset": "test1", "cells": 8, "t_end": 0.001,
                           "output_dir": "x" * 300})
        assert len(text) > 255
        assert parse_config(text).cells == 8

    def test_overlong_non_json_is_a_config_error(self):
        with pytest.raises(ConfigError, match="neither"):
            parse_config("x" * 300)

    def test_binary_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "blob.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigError, match="neither"):
            parse_config(str(path))


@pytest.mark.parametrize("text", [
    '{"cells": NaN}', '{"cells": 1e400}', '{"cadence": Infinity}',
    '{"t_end": NaN}', '{"t_end": Infinity}', '{"preset": []}',
    '{"cells": 2.5}', '{"cells": %s}' % ("9" * 400),  # an int beyond the float range
])
def test_nonfinite_numbers_and_nonstring_preset_are_config_errors(text, tmp_path, capsys):
    assert main(["run", text, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "o").exists()


def test_config_file_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, code", [
    (["test1", "--cells", "16", "--scheme", "meso"], 0),
    (["nonexistent"], 2),
    ([json.dumps(PRESSURE_OVERFLOW)], 1),
], ids=("success", "config_error", "solver_failure"))
def test_python_dash_m_entry(args, code, tmp_path):
    # the three ways a run ends, as a process sees them
    import os
    import subprocess
    import sys

    import biphase1d

    env = {**os.environ, "PYTHONPATH": str(Path(biphase1d.__file__).parent.parent)}
    out = tmp_path / "m"
    proc = subprocess.run([sys.executable, "-m", "biphase1d", "run", *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        assert (out / "meso_density.dat").is_file()
    elif code == 2:
        assert proc.stderr.startswith("config error: ")
        assert not out.exists()
    else:
        assert proc.stderr == "solver failure: cell pressures are not all finite\n"
        assert (out / "FAILED").read_text() == "cell pressures are not all finite\n"


@pytest.mark.parametrize("args", [
    ["run", '{"cells": 1e18, "scheme": "macro"}'],
    ["run", '{"cells": 4e21, "scheme": "macro"}'],
    ["run", "test1", "--cells", "100000002"],
    ["sweep", "test1", "--cells", "100,100000002"],
])
def test_cells_above_the_ceiling_are_config_errors(args, tmp_path, capsys):
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    assert "key 'cells': must be <= 100000000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", [None, "sub", "a\0b"],
                         ids=["is_a_file", "under_a_file", "nul_byte"])
@pytest.mark.parametrize("command", ["run", "sweep", "inline"])
def test_uncreatable_output_dir_is_a_config_error(command, below, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    out = str(blocker / below if below else blocker)
    if command == "inline":
        args = ["run", json.dumps({"preset": "test1", "cells": 16, "output_dir": out})]
    else:
        args = [command, "test1", "--cells", "16", "--out", out]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'output_dir': ") and err.count("\n") == 1
    assert blocker.read_text() == "keep"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("command, name", [("run", "FAILED"), ("run", "config.json"),
                                            ("run", "meso_velocity.dat"),
                                            ("sweep", "sweep.dat")])
def test_output_name_taken_by_a_directory_is_a_config_error(command, name, tmp_path, capsys):
    out = tmp_path / "o"
    (out / name / "inner").mkdir(parents=True)
    assert main([command, "test1", "--cells", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: key 'output_dir': cannot write {str(out / name)!r}: ")
    assert err.count("\n") == 1
    assert (out / name / "inner").is_dir()
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("as_file", [False, True], ids=["inline", "file"])
def test_deeply_nested_json_is_a_config_error(as_file, tmp_path, capsys):
    source = '{"a": ' + "[" * 100000
    if as_file:
        (tmp_path / "deep.json").write_text(source)
        source = str(tmp_path / "deep.json")
    assert main(["run", source, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: malformed config: nested too deeply\n"
    assert not (tmp_path / "o").exists()


# values whose text is easiest to get wrong: non-finite, signed zero, subnormal, huge;
# the exact tie 1e15 + 0.25 (printed ...0.2); where the notation switches; around
# 2**53 and 1e17; the first values inside and outside the array path's range; and
# every power of ten from 1e-30 to 1e30 with both neighbours
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
           1e300, -1e300, 1.0 / 3.0,
           1e15 + 0.25, 9.9999999999999995e-05, 1e-04, 1e16, 1e17 - 16, 2.0**53, 2.0**53 + 2,
           _ARRAY_MIN, np.nextafter(_ARRAY_MIN, 0), _ARRAY_MAX, np.nextafter(_ARRAY_MAX, np.inf),
           *(y for k in range(-30, 31) for x in [float(f"1e{k}")]
             for y in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))))
table_values = st.one_of(st.sampled_from(SPECIAL), st.floats())


def assert_writes_savetxt_bytes(names, columns):
    """_write_table writes byte for byte what np.savetxt writes."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.dat", Path(tmp) / "ref.dat"
        _write_table(ours, names, columns)
        np.savetxt(ref, np.column_stack(columns), fmt="%.17g",
                   header=" ".join(names), comments="# ")
        assert ours.read_bytes() == ref.read_bytes()


@given(st.integers(1, 11).flatmap(
    lambda ncols: st.lists(st.lists(table_values, min_size=ncols, max_size=ncols), max_size=40)
    .map(lambda rows: np.array(rows, dtype=float).reshape(-1, ncols))))
def test_table_writer_matches_savetxt(table):
    names = tuple(f"c{i}" for i in range(table.shape[1]))
    assert_writes_savetxt_bytes(names, list(table.T))


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                  2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1,
                                  4 * _BLOCK_ROWS + 1])
def test_table_writer_block_edges(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    x[::7] = np.resize(SPECIAL, x[::7].size)
    assert_writes_savetxt_bytes(("x", "y", "z"), [x, x[::-1], np.arange(rows) / 3.0])


def test_table_writer_random_bit_patterns():
    bits = np.random.default_rng(21).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_writes_savetxt_bytes(("x", "y"), list(bits.view(np.float64).reshape(-1, 2).T))


def test_table_writer_memory_stays_per_block(tmp_path):
    # the writer holds one block's scratch at a time, not the whole table's text
    columns = list(np.random.default_rng(0).standard_normal((100_000, 3)).T)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _write_table(tmp_path / "t.dat", ("a", "b", "c"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8e6
