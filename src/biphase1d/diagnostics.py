"""Conservation functionals, coarse-graining, field comparison norms,
and the empirical-measure checks for the sharp-interface runs.

All functions are pure and read a state only through the view both
state kinds share: ``weight``, ``rho_plus``, ``rho_minus``, ``rho``,
``cell_mass``, ``u``, ``grid``, ``t`` and ``dissipated``.
"""

from dataclasses import dataclass

import numpy as np

from .materials import mixture_potential
from .stepping import left_neighbour, node_mass, right_neighbour

GAP_DEGENERATE = 1e-12


@dataclass
class DiagnosticsRecord:
    t: float
    total_mass: float
    kinetic_energy: float
    internal_energy: float
    dissipated: float
    energy_total: float
    rho_min: float
    rho_max: float
    dx_min: float
    dt_used: float


@dataclass
class CoarseFields:
    """Window averages over a uniform partition of the torus.

    Conditional phase averages and variances are length (volume)
    weighted; a NaN entry means the window contains no material of that
    phase.  ``gap`` is |rho_plus_hat - rho_minus_hat|, and the
    concentration ratio max(var_plus, var_minus)/gap^2 quantifies how
    close the local (rho, color) distribution is to two points; it is
    NaN where the gap is degenerate (< 1e-12) or a phase is absent.
    """

    K: int
    centers: np.ndarray
    window_len: np.ndarray
    alpha_hat: np.ndarray
    rho_hat: np.ndarray
    rho_plus_hat: np.ndarray
    rho_minus_hat: np.ndarray
    u_hat: np.ndarray
    var_plus: np.ndarray
    var_minus: np.ndarray
    gap: np.ndarray
    concentration: np.ndarray


def snapshot(state, mat, dt_used):
    """The conservation record of a state at its time ``state.t``.

    Total mass is the sum of cell masses; for the homogenized state, of
    the phase masses.  Kinetic energy lives on nodes, each carrying half
    the mass of each of its two cells; internal energy is the mixture
    pressure potential at the cell mixture density; the dissipated part
    is the state's accumulated viscous integral, and the total is the
    sum of the three.
    """
    grid = state.grid
    kinetic = 0.5 * float(np.sum(node_mass(state.cell_mass) * np.asarray(state.u) ** 2))
    internal = float(np.sum(mixture_potential(state.weight, state.rho, mat) * grid.cell_dx))
    rho_mix = state.rho
    return DiagnosticsRecord(
        t=state.t,
        total_mass=float(np.sum(state.cell_mass)),
        kinetic_energy=kinetic,
        internal_energy=internal,
        dissipated=state.dissipated,
        energy_total=kinetic + internal + state.dissipated,
        rho_min=float(np.min(rho_mix)),
        rho_max=float(np.max(rho_mix)),
        dx_min=float(np.min(state.grid.cell_dx)),
        dt_used=dt_used,
    )


def estimate_alpha_meso(state):
    """Volume-fraction estimate of every cell j: the fraction of the
    window reaching from the midpoint of cell j-1 to the midpoint of cell
    j+1 (periodic) that is occupied by phase +.  Exact length bookkeeping:
    cell j counts fully, each neighbour with half its width, so a pure
    + field estimates to 1 and the alternating uniform datum to 1/2."""
    c = state.weight
    dx = state.grid.cell_dx
    half_l = 0.5 * left_neighbour(dx)
    half_r = 0.5 * right_neighbour(dx)
    num = c * dx + left_neighbour(c) * half_l + right_neighbour(c) * half_r
    return num / (dx + half_l + half_r)


def _window_sums(state, K):
    """Exact window integrals over the pieces of the torus.

    Cutting the torus at every cell's left edge, at every window edge and
    at the seam leaves pieces that each lie in one cell and one window.
    Cell quantities are constant on a piece and the velocity is linear,
    so its value at the piece midpoint integrates exactly.  Returns the
    per-window lengths (total and by phase), phase masses, phase second
    moments and the velocity integral.
    """
    grid = state.grid
    J, L = grid.J, grid.length
    if K < 1 or K >= J:
        raise ValueError(f"coarse window count must satisfy 1 <= K < J, got {K}")
    h = L / K
    dx = grid.cell_dx
    start = (grid.node_x - dx) % L
    cuts = np.unique(np.concatenate((start, np.arange(K) * h, [L])))
    seg = np.diff(cuts)
    mid = cuts[:-1] + 0.5 * seg
    # the piece before the first left edge belongs to the seam cell,
    # the one that starts last (searchsorted index -1)
    order = np.argsort(start)
    cell = order[np.searchsorted(start, cuts[:-1], side="right", sorter=order) - 1]
    win = np.minimum((mid / h).astype(int), K - 1)

    def integral(per_piece):
        return np.bincount(win, weights=seg * per_piece, minlength=K)

    u = np.asarray(state.u, dtype=float)
    xi = (mid - start[cell]) % L
    u_int = integral(u[cell - 1] + (u[cell] - u[cell - 1]) * xi / dx[cell])
    w, rho_p, rho_m = state.weight, state.rho_plus, state.rho_minus
    length, plus_len = integral(1.0), integral(w[cell])
    return {
        "h": h, "length": length, "plus_len": plus_len,
        "minus_len": np.maximum(length - plus_len, 0.0),
        "plus_mass": integral((w * rho_p)[cell]),
        "minus_mass": integral(((1.0 - w) * rho_m)[cell]),
        "plus_sq": integral((w * rho_p**2)[cell]),
        "minus_sq": integral(((1.0 - w) * rho_m**2)[cell]),
        "u_int": u_int,
    }


def _conditional_mean(amount, length, h):
    """amount / length per window, NaN where the length is below 1e-14 h."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(length > 1e-14 * h, amount / length, np.nan)


def coarse_grain(state, K):
    """Average a state onto K uniform windows of the torus.

    The phase fraction per window is an exact length fraction (sharp
    interface) or the length-weighted mean of the volume fraction; the
    conditional densities and their variances are volume averages over
    each phase's share.
    """
    s = _window_sums(state, K)
    h, length, plus_len, minus_len = s["h"], s["length"], s["plus_len"], s["minus_len"]
    mean_p = _conditional_mean(s["plus_mass"], plus_len, h)
    mean_m = _conditional_mean(s["minus_mass"], minus_len, h)
    var_p = np.maximum(_conditional_mean(s["plus_sq"], plus_len, h) - mean_p**2, 0.0)
    var_m = np.maximum(_conditional_mean(s["minus_sq"], minus_len, h) - mean_m**2, 0.0)
    gap = np.abs(mean_p - mean_m)
    with np.errstate(invalid="ignore", divide="ignore"):
        conc = np.where(gap >= GAP_DEGENERATE,
                        np.fmax(var_p, var_m) / gap**2, np.nan)
    return CoarseFields(
        K=K,
        centers=(np.arange(K) + 0.5) * h,
        window_len=length,
        alpha_hat=np.clip(plus_len / length, 0.0, 1.0),
        rho_hat=(s["plus_mass"] + s["minus_mass"]) / length,
        rho_plus_hat=mean_p,
        rho_minus_hat=mean_m,
        u_hat=s["u_int"] / length,
        var_plus=var_p,
        var_minus=var_m,
        gap=gap,
        concentration=conc,
    )


# the compared coarse fields: CoarseFields holds each as <name>_hat
COARSE_FIELDS = ("alpha", "rho", "rho_plus", "rho_minus", "u")


def _norms(v, wlen):
    """Window-length-weighted l1 and l2 norms of v, and its max norm."""
    return {
        "l1": float(np.sum(np.abs(v) * wlen)),
        "l2": float(np.sqrt(np.sum(v**2 * wlen))),
        "linf": float(np.max(np.abs(v))) if v.size else 0.0,
    }


def compare_fields(a, b):
    """Discrete norms of the differences between two window layouts.

    Returns {<name>_hat: {l1, l2, linf, rel_l1, rel_l2, rel_linf}} for
    each name in COARSE_FIELDS; the relative norms are scaled by the
    corresponding norm of ``b``.  Windows where either side is NaN are
    excluded.
    """
    if a.K != b.K or not np.allclose(a.centers, b.centers, atol=1e-12, rtol=0):
        raise ValueError("window layouts differ; compare like with like")
    report = {}
    for name in (short + "_hat" for short in COARSE_FIELDS):
        fa, fb = getattr(a, name), getattr(b, name)
        ok = np.isfinite(fa) & np.isfinite(fb)
        wlen = a.window_len[ok]
        norms = _norms(fa[ok] - fb[ok], wlen)
        refs = _norms(fb[ok], wlen)
        for key in ("l1", "l2", "linf"):
            if refs[key] > 0:
                norms["rel_" + key] = norms[key] / refs[key]
            else:
                norms["rel_" + key] = 0.0 if norms[key] == 0 else np.inf
        report[name] = norms
    return report


def young_moment(state, b):
    """Integral of b(x, rho, weight) against the empirical cell measure.

    ``b`` must broadcast over numpy arrays; cells enter with their
    midpoint (mapped to the torus), density, and phase-+ share (the
    color of a meso cell, the volume fraction of a macro cell), weighted
    by their width.
    """
    grid = state.grid
    x = grid.midpoints % grid.length
    return float(np.sum(np.asarray(b(x, state.rho, state.weight)) * grid.cell_dx))
