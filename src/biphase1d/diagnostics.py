"""Conservation functionals, coarse-graining, field comparison norms,
and the empirical-measure checks for the sharp-interface runs.

All functions are pure and read a state only through the view both
state kinds share: ``weight``, ``rho_plus``, ``rho_minus``, ``rho``,
``cell_mass``, ``u``, ``grid``, ``t`` and ``dissipated``.
"""

from dataclasses import dataclass

import numpy as np

from .materials import mixture_potential
from .stepping import node_density

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

    Conditional phase averages are length (volume) weighted; a NaN entry
    means the window contains no material of that phase.
    """

    K: int
    centers: np.ndarray
    window_len: np.ndarray
    alpha_hat: np.ndarray
    rho_hat: np.ndarray
    rho_plus_hat: np.ndarray
    rho_minus_hat: np.ndarray
    u_hat: np.ndarray


@dataclass
class TwoPointReport:
    """Per-window conditional statistics of the density by phase."""

    K: int
    centers: np.ndarray
    mean_plus: np.ndarray
    mean_minus: np.ndarray
    var_plus: np.ndarray
    var_minus: np.ndarray
    gap: np.ndarray
    concentration: np.ndarray


def total_mass(state):
    """Sum of cell masses; for the homogenized state, of the phase masses."""
    return float(np.sum(state.cell_mass))


def total_energy(state, mat):
    """(kinetic, internal, dissipated, total).

    Kinetic energy lives on nodes with the width-averaged density;
    internal energy is the mixture pressure potential at the cell
    mixture density; the dissipated part is the state's accumulated
    viscous integral.
    """
    grid = state.grid
    rho_mix = state.rho
    node_mass = node_density(rho_mix, grid) * grid.node_dx
    kinetic = 0.5 * float(np.sum(node_mass * np.asarray(state.u) ** 2))
    internal = float(np.sum(mixture_potential(state.weight, rho_mix, mat) * grid.cell_dx))
    total = kinetic + internal + state.dissipated
    return kinetic, internal, state.dissipated, total


def snapshot(state, mat, dt_used=0.0):
    kinetic, internal, dissipated, total = total_energy(state, mat)
    rho_mix = state.rho
    return DiagnosticsRecord(
        t=state.t,
        total_mass=total_mass(state),
        kinetic_energy=kinetic,
        internal_energy=internal,
        dissipated=dissipated,
        energy_total=total,
        rho_min=float(np.min(rho_mix)),
        rho_max=float(np.max(rho_mix)),
        dx_min=float(np.min(state.grid.cell_dx)),
        dt_used=dt_used,
    )


def estimate_alpha_meso(state, j=None):
    """Volume-fraction estimate at cell j: the fraction of the window
    reaching from the midpoint of cell j-1 to the midpoint of cell j+1
    (periodic) that is occupied by phase +.  Exact length bookkeeping:
    cell j counts fully, each neighbour with half its width, so a pure
    + field estimates to 1 and the alternating uniform datum to 1/2.
    j=None returns the whole field."""
    c = state.c
    dx = state.grid.cell_dx
    half_l = 0.5 * np.roll(dx, 1)
    half_r = 0.5 * np.roll(dx, -1)
    num = c * dx + np.roll(c, 1) * half_l + np.roll(c, -1) * half_r
    est = num / (dx + half_l + half_r)
    return est if j is None else float(est[j])


def _window_sums(state, K):
    """Exact cell-window intersection sweep.

    Splits every (possibly seam-crossing) cell into segments lying in
    single windows and accumulates lengths, phase lengths, phase masses,
    phase second moments, and the integral of the piecewise-linear
    velocity.
    """
    grid = state.grid
    J, L = grid.J, grid.length
    if K < 1 or K >= J:
        raise ValueError(f"coarse window count must satisfy 1 <= K < J, got {K}")
    h = L / K
    w, rho_p, rho_m = state.weight, state.rho_plus, state.rho_minus
    u_right = np.asarray(state.u, dtype=float)
    u_left = np.roll(u_right, 1)
    dx = grid.cell_dx
    left_edge = grid.node_x - dx

    length = np.zeros(K)
    plus_len = np.zeros(K)
    plus_mass = np.zeros(K)
    minus_mass = np.zeros(K)
    plus_sq = np.zeros(K)
    minus_sq = np.zeros(K)
    u_int = np.zeros(K)

    for j in range(J):
        dxj = dx[j]
        start = left_edge[j] % L
        pieces = [(start, min(dxj, L - start), 0.0)]
        if dxj > L - start:
            pieces.append((0.0, dxj - (L - start), L - start))
        for torus_a, plen, local in pieces:
            a = torus_a
            remaining = plen
            k = min(int(a / h), K - 1)
            while remaining > 0.0:
                # the last window absorbs everything up to the seam, so a
                # start sitting exactly on an edge cannot stall the walk
                seg = remaining if k == K - 1 else min(remaining, (k + 1) * h - a)
                if seg > 0.0:
                    length[k] += seg
                    plus_len[k] += seg * w[j]
                    plus_mass[k] += seg * w[j] * rho_p[j]
                    minus_mass[k] += seg * (1.0 - w[j]) * rho_m[j]
                    plus_sq[k] += seg * w[j] * rho_p[j] ** 2
                    minus_sq[k] += seg * (1.0 - w[j]) * rho_m[j] ** 2
                    xi_mid = local + (a - torus_a) + 0.5 * seg
                    u_int[k] += seg * (u_left[j] + (u_right[j] - u_left[j]) * xi_mid / dxj)
                    a += seg
                    remaining -= seg
                if remaining > 0.0:
                    k += 1

    return {
        "h": h, "length": length, "plus_len": plus_len,
        "plus_mass": plus_mass, "minus_mass": minus_mass,
        "plus_sq": plus_sq, "minus_sq": minus_sq, "u_int": u_int,
    }


def coarse_grain(state, K):
    """Average a state onto K uniform windows of the torus.

    The phase fraction per window is an exact length fraction (sharp
    interface) or the length-weighted mean of the volume fraction; the
    conditional densities are volume averages over each phase's share.
    """
    s = _window_sums(state, K)
    h, length = s["h"], s["length"]
    minus_len = np.maximum(length - s["plus_len"], 0.0)
    tiny = 1e-14 * h
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_plus_hat = np.where(s["plus_len"] > tiny, s["plus_mass"] / s["plus_len"], np.nan)
        rho_minus_hat = np.where(minus_len > tiny, s["minus_mass"] / minus_len, np.nan)
    return CoarseFields(
        K=K,
        centers=(np.arange(K) + 0.5) * h,
        window_len=length,
        alpha_hat=np.clip(s["plus_len"] / length, 0.0, 1.0),
        rho_hat=(s["plus_mass"] + s["minus_mass"]) / length,
        rho_plus_hat=rho_plus_hat,
        rho_minus_hat=rho_minus_hat,
        u_hat=s["u_int"] / length,
    )


def two_point_structure(state, K):
    """Phase-conditional density statistics per window.

    The concentration ratio max(var)/gap^2 quantifies how close the
    local (rho, color) distribution is to two points; it is NaN where
    the gap is degenerate (< 1e-12) or a phase is absent.
    """
    s = _window_sums(state, K)
    minus_len = np.maximum(s["length"] - s["plus_len"], 0.0)
    tiny = 1e-14 * s["h"]

    def conditional(mass, sq, ln):
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(ln > tiny, mass / ln, np.nan)
            var = np.where(ln > tiny, np.maximum(sq / ln - mean**2, 0.0), np.nan)
        return mean, var

    mean_p, var_p = conditional(s["plus_mass"], s["plus_sq"], s["plus_len"])
    mean_m, var_m = conditional(s["minus_mass"], s["minus_sq"], minus_len)
    gap = np.abs(mean_p - mean_m)
    with np.errstate(invalid="ignore", divide="ignore"):
        conc = np.where(gap >= GAP_DEGENERATE,
                        np.fmax(var_p, var_m) / gap**2, np.nan)
    return TwoPointReport(K=K, centers=(np.arange(K) + 0.5) * s["h"],
                          mean_plus=mean_p, mean_minus=mean_m,
                          var_plus=var_p, var_minus=var_m,
                          gap=gap, concentration=conc)


_COMPARE_FIELDS = ("alpha_hat", "rho_hat", "rho_plus_hat", "rho_minus_hat", "u_hat")


def compare_fields(a, b):
    """Discrete norms of the differences between two window layouts.

    Returns {field: {l1, l2, linf, rel_l1, rel_l2, rel_linf}}; the
    relative norms are scaled by the corresponding norm of ``b``.
    Windows where either side is NaN are excluded.
    """
    if a.K != b.K or not np.allclose(a.centers, b.centers, atol=1e-12, rtol=0):
        raise ValueError("window layouts differ; compare like with like")
    report = {}
    for name in _COMPARE_FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        ok = np.isfinite(fa) & np.isfinite(fb)
        wlen = a.window_len[ok]
        d = fa[ok] - fb[ok]
        ref = fb[ok]
        norms = {
            "l1": float(np.sum(np.abs(d) * wlen)),
            "l2": float(np.sqrt(np.sum(d**2 * wlen))),
            "linf": float(np.max(np.abs(d))) if d.size else 0.0,
        }
        refs = {
            "l1": float(np.sum(np.abs(ref) * wlen)),
            "l2": float(np.sqrt(np.sum(ref**2 * wlen))),
            "linf": float(np.max(np.abs(ref))) if ref.size else 0.0,
        }
        for key in ("l1", "l2", "linf"):
            if refs[key] > 0:
                norms["rel_" + key] = norms[key] / refs[key]
            else:
                norms["rel_" + key] = 0.0 if norms[key] == 0 else np.inf
        report[name] = norms
    return report


def young_moment(state, b):
    """Integral of b(x, rho, color) against the empirical cell measure.

    ``b`` must broadcast over numpy arrays; cells enter with their
    midpoint (mapped to the torus), density, and color, weighted by
    their width.
    """
    grid = state.grid
    x = grid.midpoints % grid.length
    return float(np.sum(np.asarray(b(x, state.rho, state.c)) * grid.cell_dx))
