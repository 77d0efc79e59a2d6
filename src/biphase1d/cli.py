"""Run configuration, experiment presets, orchestration, and writers.

Configs are flat JSON documents; two presets encode the twin benchmark
cases (equal viscosities, and 0.1 vs 0.02).  All outputs are plain-text
tables with one ``# column`` header line, 17-significant-digit floats,
and LF line endings, so reruns of the same config are byte-identical.
"""

import functools
import json
import math
import sys
from dataclasses import astuple, dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import diagnostics
from .errors import ConfigError, SolverError
from .macro import run_macro
from .materials import WEIGHTINGS, MaterialPair, PowerLaw
from .meso import run_meso

_DEFAULTS = {
    "scheme": "both",
    "cells": 1000,
    "t_end": 0.1,
    "mu_plus": 0.1,
    "mu_minus": 0.1,
    "gamma_plus": 1.0,
    "gamma_minus": 2.0,
    "K_plus": 1.0,
    "K_minus": 1.0,
    "weighting": "cross",
    "dt_max": 1e-4,
    "coarse_K": None,  # derived: ~20 fine cells per window, capped at 50
    "output_dir": "biphase1d-out",
    "cadence": 100,
}

# the two benchmark cases: p_+(x) = x, p_-(x) = x^2, Riemann datum,
# t_end = 0.1 on 1000 cells; they differ only in the viscosities
PRESETS = {
    "test1": {"mu_plus": 0.1, "mu_minus": 0.1},
    "test2": {"mu_plus": 0.1, "mu_minus": 0.02},
}

_SCHEMES = ("meso", "macro", "both")

# 1000 times the largest benchmarked J: an absurd count fails before any allocation
MAX_CELLS = 10**8


@dataclass
class RunConfig:
    scheme: str
    cells: int
    t_end: float
    mat: MaterialPair
    weighting: str
    dt_max: float
    coarse_K: int
    output_dir: str
    cadence: int
    raw: dict = field(repr=False, default_factory=dict)


def _as_number(raw, key, kind):
    val = raw[key]
    try:
        ok = not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"key {key!r}: expected a finite {kind}, got {val!r}")
    return val


def _as_int(raw, key, minimum):
    val = _as_number(raw, key, "integer")
    if int(val) != val:
        raise ConfigError(f"key {key!r}: expected an integer, got {val!r}")
    if int(val) < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {val}")
    return int(val)


def _as_float(raw, key, minimum, strict=False):
    val = float(_as_number(raw, key, "number"))
    if val < minimum or (strict and val == minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"key {key!r}: must be {op} {minimum}, got {val}")
    return val


def _build_config(raw):
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    merged = {**_DEFAULTS, **raw}

    scheme = merged["scheme"]
    if scheme not in _SCHEMES:
        raise ConfigError(f"key 'scheme': must be one of {_SCHEMES}, got {scheme!r}")
    weighting = merged["weighting"]
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"key 'weighting': must be one of {WEIGHTINGS}, got {weighting!r}")

    cells = _as_int(merged, "cells", 4)
    if cells > MAX_CELLS:
        raise ConfigError(f"key 'cells': must be <= {MAX_CELLS}, got {cells}")
    if scheme != "macro" and cells % 2:
        raise ConfigError(f"key 'cells': the meso scheme alternates phases, "
                          f"so it needs an even count, got {cells}")
    t_end = _as_float(merged, "t_end", 0.0)
    cadence = _as_int(merged, "cadence", 1)
    if merged["coarse_K"] is None:
        # ~20 fine cells per window, capped at 50 windows
        merged["coarse_K"] = min(50, max(2, cells // 20))
    coarse_K = _as_int(merged, "coarse_K", 2)
    if coarse_K >= cells:
        raise ConfigError(f"key 'coarse_K': must be < cells, got {coarse_K} >= {cells}")

    mat = MaterialPair(
        law_plus=PowerLaw(K=_as_float(merged, "K_plus", 0.0, strict=True),
                          gamma=_as_float(merged, "gamma_plus", 1.0)),
        law_minus=PowerLaw(K=_as_float(merged, "K_minus", 0.0, strict=True),
                           gamma=_as_float(merged, "gamma_minus", 1.0)),
        mu_plus=_as_float(merged, "mu_plus", 0.0, strict=True),
        mu_minus=_as_float(merged, "mu_minus", 0.0, strict=True),
    )
    dt_max = _as_float(merged, "dt_max", 0.0, strict=True)

    output_dir = merged["output_dir"]
    if not isinstance(output_dir, str) or not output_dir or "\0" in output_dir:
        raise ConfigError(f"key 'output_dir': expected a nonempty string without NUL "
                          f"bytes, got {output_dir!r}")

    return RunConfig(scheme=scheme, cells=cells, t_end=t_end, mat=mat,
                     weighting=weighting, dt_max=dt_max, coarse_K=coarse_K,
                     output_dir=output_dir, cadence=cadence, raw=dict(merged))


def parse_config(source, overrides=None):
    """Build a validated RunConfig.

    ``source`` may be a preset name, a path to a JSON file, inline JSON
    text, or an already-parsed dict.  Keys given in ``overrides`` win
    over the source; a "preset" key inside the source supplies base
    values that the remaining keys override.
    """
    if isinstance(source, dict):
        raw = dict(source)
    else:
        text = str(source)
        if text in PRESETS:
            raw = {"preset": text}
        elif text.lstrip().startswith("{"):
            raw = _load_json(text)
        else:
            # read rather than probe with is_file(): a name the OS rejects,
            # such as an overlong one, or a binary file is then not a config file
            try:
                contents = Path(text).read_text()
            except (OSError, ValueError):  # ValueError: a NUL byte, or not text
                raise ConfigError(f"{text!r} is neither a preset "
                                  f"({', '.join(sorted(PRESETS))}), a config file, "
                                  "nor inline JSON") from None
            raw = _load_json(contents)

    preset = raw.pop("preset", None)
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(f"key 'preset': unknown preset {preset!r}")
        raw = {**PRESETS[preset], **raw}
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return _build_config(raw)


def _load_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config: {exc.msg} at line {exc.lineno}") from exc
    except RecursionError:
        raise ConfigError("malformed config: nested too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object of key/value pairs")
    return data


# ---------------------------------------------------------------------------
# writers

# rows formatted per _format_rows pass: a block's scratch arrays (about 100
# KB each for 3 columns) stay cache-sized and a few MB in all, where whole-
# table formatting would hold tens of MB at J=1e5; 8192 rows measured slower
_BLOCK_ROWS = 4096

# |v| the array path formats; their decimal exponents X = floor(log10|v|),
# log10's miss of one included, stay inside the tables' _X_MIN.._X_MAX, where
# neither 10**(16 - X) nor the Veltkamp split of a value or a power overflows
_ARRAY_MIN, _ARRAY_MAX = 1e-270, 1e270
_X_MIN, _X_MAX = -272, 272
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
# The scaled value is exact where 0 <= 16 - X <= 22 and within 5e-15 of exact
# elsewhere (the residual power's own rounding, two rounded terms under 20,
# and the omitted 2**-106 of a product under 1e17).  That error cannot change
# the nearest integer unless the value is this close to a tie n + 1/2; such a
# value, an exact tie too, takes Python's "%.17g".
_CERTIFY = 1e-12
# Bytes per value: sign, the "0.000" of -4 <= X < 0, the 17 digits each
# followed by a point slot, the exponent, and the separator in the last byte.
_FIELD = 48


def _split(x):
    """Veltkamp's split: x == hi + lo exactly, each with at most 26 bits."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _format_tables():
    """Lookup tables of _format_rows, built on the first write.

    Per decimal exponent X: 10**(16 - X) as its nearest double ``power``
    (with its Veltkamp halves) plus the correctly rounded residual
    ``residual`` (0 where the power is exact); the head word ("0." and
    zeros for -4 <= X < 0), the tail word ("e-05" outside -4 <= X < 17) and
    the digit the point follows (-1: the head has it).
    Per 4-digit group: its digits, each followed by an empty point slot, as
    one word, plain (rows 0-9999) and with trailing zeros blanked (+10000).
    """
    power, residual, head, tail, point = [], [], [], [], []
    for x in range(_X_MIN, _X_MAX + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den  # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        power.append(hi)
        residual.append((num * d - n * den) / (den * d))
        fixed = -4 <= x < 17
        head.append(b"\0" + b"0." + b"0" * (-x - 1) if fixed and x < 0 else b"")
        tail.append(b"" if fixed else b"e%+03d" % x)
        point.append((x if x >= 0 else -1) if fixed else 0)
    power, residual = np.array(power), np.array(residual)

    def words(strings):
        return np.array(strings, dtype="S8").view(np.uint64)

    g = np.arange(10000, dtype=np.int16)
    digits = (g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]
    quads = np.zeros((20000, 8), np.uint8)
    quads[:10000, ::2] = digits
    quads[10000:, ::2] = np.where(trailing, 0, digits)
    return SimpleNamespace(
        power=power, power_halves=_split(power), residual=residual,
        head=words(head), tail=words(tail), point=np.array(point),
        lead=words([b"\0" * 6 + bytes([48 + d]) for d in range(10)]),
        quads=quads.view(np.uint64).ravel())


def _format_rows(block):
    """The "%.17g" rows of a 2-D float block, values space-separated and
    rows ended by LF: byte for byte what np.savetxt writes.

    A value's 17 significant digits are round(|v| * 10**(16 - X)), half to
    even, for its decimal exponent X.  The product is formed once, as a
    double-double p + r at X = floor(log10|v|), and int64 arithmetic and
    lookup tables expand it into a fixed field of bytes whose NULs are
    dropped at the end.  The values this cannot certify take Python's
    "%.17g": 0, nan, inf, |v| outside _ARRAY_MIN.._ARRAY_MAX, log10's
    misses (p + r outside [1e16, 1e17)), carries (the rounding reaches
    10**17) and products within _CERTIFY of a tie, exact ones included.
    """
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    ok = (a >= _ARRAY_MIN) & (a <= _ARRAY_MAX)
    a[~ok] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp)
    t = _format_tables()
    k = X - _X_MIN
    p = a * t.power.take(k)
    ah, al = _split(a)
    bh, bl = t.power_halves[0].take(k), t.power_halves[1].take(k)
    # Dekker's two-product: a * power == p + (the bracket), exactly
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * t.residual.take(k)
    nearest = np.rint(r)
    # p >= 2**53 is an even integer, so rint's ties to even round p + r so too
    D = p.astype(np.int64) + nearest.astype(np.int64)
    # D < 10**17 rejects both a high miss and a carry
    sure = ok & (np.abs(r - nearest) < 0.5 - _CERTIFY) & ((p - 1e16) + r >= 0) & (D < 10 ** 17)
    fallback = np.flatnonzero(~sure)
    D[fallback] = 10 ** 16

    first9 = D // 10 ** 8
    last8 = D - first9 * 10 ** 8
    d0 = first9 // 10 ** 8
    next8 = first9 - d0 * 10 ** 8
    g1, g3 = next8 // 10 ** 4, last8 // 10 ** 4
    groups = (g1, next8 - g1 * 10 ** 4, g3, last8 - g3 * 10 ** 4)
    words = np.empty((n, _FIELD // 8), np.uint64)
    words[:, 0] = t.head.take(k) | t.lead.take(d0)
    zeros_after = True  # a group's trailing zeros are blanked if all later groups are 0
    for i in (3, 2, 1, 0):
        words[:, i + 1] = t.quads.take(groups[i] + 10000 * zeros_after)
        zeros_after = zeros_after & (groups[i] == 0)
    words[:, 5] = t.tail.take(k)

    text = words.view(np.uint8)
    text[:, 0] = 45 * (v < 0)  # "-"
    # the point takes the slot after digit j (byte 2j + 7) if a digit follows
    j = t.point.take(k)
    flat = text.ravel()
    slot = np.arange(7, n * _FIELD, _FIELD) + 2 * j
    flat[slot[(j >= 0) & (flat.take(slot + 1) != 0)]] = 46  # "."
    # in fixed notation an integer digit blanked as a trailing zero is a "0"
    short = np.flatnonzero((j > 0) & (flat.take(slot - 1) == 0))
    if short.size:
        digits = text[short, 6:40:2]
        digits[(digits == 0) & (np.arange(17) <= j[short, None])] = 48
        text[short, 6:40:2] = digits
    if fallback.size:
        text[fallback] = 0
        text[fallback, :24] = np.array([b"%.17g" % x for x in v[fallback].tolist()],
                                       dtype="S24").view(np.uint8).reshape(-1, 24)
    text = text.reshape(block.shape + (_FIELD,))
    text[:, :, -1] = 32  # " "
    text[:, -1, -1] = 10  # "\n"
    return text.tobytes().translate(None, b"\0")


def _write_table(path, names, columns):
    """Write the columns as a "# name ..." header and one "%.17g" row per
    line, the bytes np.savetxt writes, formatted by _format_rows one block
    of _BLOCK_ROWS rows at a time.  The columns are never stacked whole:
    each block is copied into one reused float buffer."""
    rows = len(columns[0])
    buf = np.empty((min(rows, _BLOCK_ROWS), len(columns)))
    with open(path, "wb") as fh:
        fh.write(("# " + " ".join(names) + "\n").encode())
        for start in range(0, rows, _BLOCK_ROWS):
            block = buf[:min(_BLOCK_ROWS, rows - start)]
            for j, col in enumerate(columns):
                block[:, j] = col[start:start + _BLOCK_ROWS]
            fh.write(_format_rows(block))


def write_fields(state, path, columns):
    """Write a state snapshot as a plain-text table.

    Columns are the state's attributes named in ``columns``.  The velocity
    ``u`` is listed at the interfaces, every other quantity at cell
    midpoints (both mapped onto the torus); the requested columns must
    therefore all live at the same location.
    """
    on_nodes = {name == "u" for name in columns}
    if len(on_nodes) != 1:
        raise ValueError("cannot mix cell and node quantities in one file")
    grid = state.grid
    x = (grid.node_x if on_nodes == {True} else grid.midpoints) % grid.length
    cols = [x] + [np.asarray(getattr(state, name), dtype=float) for name in columns]
    _write_table(path, ("x",) + tuple(columns), cols)


_DIAG_HEADER = ("t", "mass", "E_kin", "E_int", "E_diss", "E_tot",
                "rho_min", "rho_max", "dx_min", "dt")


def write_diagnostics(records, path):
    """Time series of the conservation functionals, one row per record."""
    rows = np.array([astuple(r) for r in records]).reshape(-1, len(_DIAG_HEADER))
    _write_table(path, _DIAG_HEADER, rows.T)


def _write_comparison(out, coarse_meso, coarse_macro, norms, config, clamp_events):
    """Each scheme's coarse fields, the two side by side, and the norms of
    their differences."""
    fields = diagnostics.COARSE_FIELDS
    meso = [getattr(coarse_meso, name + "_hat") for name in fields]
    macro = [getattr(coarse_macro, name + "_hat") for name in fields]
    x = [coarse_meso.centers]
    _write_table(out / "meso_coarse.dat", ("x",) + fields, x + meso)
    _write_table(out / "macro_coarse.dat", ("x",) + fields, x + macro)
    names = ["x"]
    for name in fields:
        names += [f"{name}_meso", f"{name}_macro"]
    _write_table(out / "comparison_windows.dat", names,
                 x + [col for pair in zip(meso, macro) for col in pair])

    with open(out / "comparison_report.txt", "w", newline="\n") as fh:
        fh.write(f"# meso vs macro on K={config.coarse_K} windows, "
                 f"weighting={config.weighting}, cells={config.cells}, "
                 f"t_end={config.t_end:g}\n")
        keys = ("l1", "l2", "linf", "rel_l1", "rel_l2", "rel_linf")
        fh.write("# field " + " ".join(keys) + "\n")
        for name in fields:
            n = norms[name + "_hat"]
            fh.write(" ".join([name] + [f"{n[k]:.17g}" for k in keys]) + "\n")
        fh.write(f"# macro clamp_events = {clamp_events}\n")


# ---------------------------------------------------------------------------
# orchestration

# the field files of each scheme: (file suffix, columns)
_FIELD_FILES = {
    "meso": (("density", ("rho",)), ("velocity", ("u",)), ("alpha", ("alpha",))),
    "macro": (("density", ("rho",)), ("velocity", ("u",)), ("alpha", ("alpha",)),
              ("phase_densities", ("rho_plus", "rho_minus"))),
}

# every file name _execute writes besides config.json, whichever schemes run
_OUTPUT_FILES = (("FAILED", "partial_diagnostics.dat", "comparison_windows.dat",
                  "comparison_report.txt")
                 + tuple(f"{scheme}_{suffix}.dat" for scheme, files in _FIELD_FILES.items()
                         for suffix in (*(name for name, _ in files), "diagnostics", "coarse")))


def _cannot_write(exc):
    """The ConfigError for an output name that cannot be replaced, such as
    one taken by a directory."""
    return ConfigError(f"key 'output_dir': cannot write {str(exc.filename)!r}: "
                       f"{exc.strerror}")


def _execute(config):
    """Run the configured scheme(s) and write everything to
    config.output_dir; returns the comparison norms when both schemes ran.
    A SolverError propagates after leaving a FAILED marker and the records
    taken so far next to the outputs already written; every output an
    earlier run can have left there is deleted first, so no stale result
    sits beside a new failure.  An output directory that cannot be created,
    or an output name in it that cannot be replaced, is a ConfigError."""
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'output_dir': cannot create {str(out)!r}: "
                          f"{exc.strerror}") from None
    try:
        for stale in _OUTPUT_FILES:
            (out / stale).unlink(missing_ok=True)
        fh = open(out / "config.json", "w", newline="\n")
    except OSError as exc:
        raise _cannot_write(exc) from None
    with fh:
        json.dump(config.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # looked up per call, so a runner replaced on this module is the one run
    runners = {"meso": run_meso, "macro": run_macro}
    states = {}
    try:
        for scheme, files in _FIELD_FILES.items():
            if config.scheme not in (scheme, "both"):
                continue
            state, records = runners[scheme](config)
            for suffix, columns in files:
                write_fields(state, out / f"{scheme}_{suffix}.dat", columns=columns)
            write_diagnostics(records, out / f"{scheme}_diagnostics.dat")
            states[scheme] = state
    except SolverError as exc:
        records = exc.diagnostics.get("records")
        if records:
            write_diagnostics(records, out / "partial_diagnostics.dat")
        with open(out / "FAILED", "w", newline="\n") as fh:
            fh.write(f"{exc}\n")
        raise
    if config.scheme != "both":
        return None
    coarse_meso = diagnostics.coarse_grain(states["meso"], config.coarse_K)
    coarse_macro = diagnostics.coarse_grain(states["macro"], config.coarse_K)
    norms = diagnostics.compare_fields(coarse_meso, coarse_macro)
    _write_comparison(out, coarse_meso, coarse_macro, norms, config,
                      states["macro"].clamp_events)
    return norms


def run_experiment(config):
    """Execute a config; returns the process exit status (0 ok, 1 solver
    failure).  Partial outputs are kept next to a FAILED marker.  An
    output directory that cannot be created, or an output name in it that
    cannot be replaced, raises ConfigError."""
    try:
        _execute(config)
    except SolverError:
        return 1
    return 0


def run_sweep(source, cells_list, out_dir, overrides=None):
    """Run scheme=both over a list of resolutions and tabulate the
    relative L1 meso/macro differences per resolution.

    All resolutions are compared on one window layout: the explicitly
    configured coarse_K if any, else the default derived at the smallest
    resolution.  Every resolution's config is validated before any runs,
    and a ``sweep.dat`` left by an earlier sweep is deleted before the
    first one, as a failing resolution ends the sweep without writing it.
    """
    out = Path(out_dir)
    overrides = overrides or {}
    probe = parse_config(source, overrides={**overrides, "cells": min(cells_list)})
    configs = [parse_config(source, overrides={**overrides, "cells": cells, "scheme": "both",
                                               "coarse_K": probe.coarse_K,
                                               "output_dir": str(out / f"J{cells}")})
               for cells in cells_list]
    if out.is_dir():
        try:
            (out / "sweep.dat").unlink(missing_ok=True)
        except OSError as exc:
            raise _cannot_write(exc) from None
    rows = []
    for config in configs:
        norms = _execute(config)
        rows.append((config.cells, norms["rho_hat"]["rel_l1"], norms["u_hat"]["rel_l1"],
                     norms["alpha_hat"]["rel_l1"]))
    _write_table(out / "sweep.dat", ("cells", "rel_l1_rho", "rel_l1_u", "rel_l1_alpha"),
                 np.array(rows).T)
    return rows


def main(argv=None):
    import argparse  # only the command line needs it, not the library

    parser = argparse.ArgumentParser(
        prog="biphase1d",
        description="1D compressible two-fluid simulator: sharp-interface "
                    "and homogenized two-phase schemes on a periodic domain.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration or preset")
    p_run.add_argument("config", help="preset name (test1, test2), JSON file, or inline JSON")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--scheme", choices=_SCHEMES, default=None)
    p_run.add_argument("--cells", type=int, default=None)
    p_run.add_argument("--weighting", choices=WEIGHTINGS, default=None)

    p_sweep = sub.add_parser("sweep", help="resolution sweep of meso/macro agreement")
    p_sweep.add_argument("config", help="preset name, JSON file, or inline JSON")
    p_sweep.add_argument("--cells", required=True,
                         help="comma-separated resolutions, e.g. 250,500,1000")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--weighting", choices=WEIGHTINGS, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            _execute(parse_config(args.config, overrides={
                "output_dir": args.out, "scheme": args.scheme,
                "cells": args.cells, "weighting": args.weighting}))
            return 0
        cells_list = []
        for token in args.cells.split(","):
            try:
                cells_list.append(int(token))
            except ValueError:
                raise ConfigError(f"--cells: {token!r} is not an integer") from None
        out_dir = args.out or "biphase1d-sweep"
        run_sweep(args.config, cells_list, out_dir,
                  overrides={"weighting": args.weighting})
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
