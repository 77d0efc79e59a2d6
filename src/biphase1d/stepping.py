"""Staggered pseudo-Lagrangian time step on the periodic unit interval:
an implicit momentum solve, then mesh motion; densities are mass / width.

Cell quantities (mass, color / volume fraction, pressure, viscosity)
live on moving cells; velocities live on the cell interfaces (nodes).
Node j is the interface at ``node_x[j]``, cell j is the interval ending
there, so cell j+1 (mod J) lies to the node's right.  Node coordinates
are kept unwrapped (strictly increasing); the torus seam is closed by the
unit length.

Each range check is one min or max reduction: a NaN carries through it and
fails the comparison, and its ``initial`` lets an empty array pass.  A step
calls the ufunc's reduce, without the ndarray method's costly Python wrapper.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import StepFailure
# solve_cyclic_tridiagonal is unused here: perfbench/probes.py binds it
from .tridiag import _solve, solve_cyclic_tridiagonal  # noqa: F401

_CFL_EPS = 1e-12

# generous runtime envelope for densities; violations indicate a blown-up run
RHO_SANE_MIN = 1e-4
RHO_SANE_MAX = 1e4

# the one dt-halving budget of a step, shared by cell inversions and the
# macro scheme's relaxation rejections
MAX_HALVINGS = 40
# the fraction of the smallest cell a node may sweep per step
CFL_THETA = 0.4


# Periodic neighbour shifts by slices: bit for bit the arrays that numpy's
# roll gives for shifts -1 and 1 (and a minus the latter), without roll's
# general path, which costs several times as much at J = 1000.

def right_neighbour(a, out=None):
    """Entry j holds a[j + 1 mod n]; into ``out`` if given."""
    out = np.empty_like(a) if out is None else out
    out[:-1] = a[1:]
    out[-1] = a[0]
    return out


def left_neighbour(a):
    """Entry j holds a[j - 1 mod n]."""
    out = np.empty_like(a)
    out[1:] = a[:-1]
    out[0] = a[-1]
    return out


def back_difference(a, out=None):
    """Entry j holds a[j] - a[j - 1 mod n]; into ``out`` if given."""
    out = np.empty_like(a) if out is None else out
    np.subtract(a[1:], a[:-1], out=out[1:])
    out[0] = a[0] - a[-1]
    return out


def _widths(node_x, length):
    """Cell widths of the unwrapped node positions on a torus of ``length``."""
    dx = back_difference(node_x)
    dx[0] += length
    return dx


@dataclass
class StaggeredGrid:
    node_x: np.ndarray
    cell_dx: np.ndarray = field(init=False, repr=False)

    # the torus is the unit interval
    length = 1.0

    def __post_init__(self):
        self.node_x = np.asarray(self.node_x, dtype=float)
        if self.node_x.ndim != 1 or self.node_x.size < 3:
            raise ValueError("grid needs at least 3 interface positions")
        dx = _widths(self.node_x, self.length)
        if not dx.min(initial=np.inf) > 0:
            raise ValueError("cell widths must all be > 0")
        self.cell_dx = dx

    @classmethod
    def uniform(cls, J):
        return cls(np.arange(1, J + 1) * (cls.length / J))

    @classmethod
    def _of(cls, node_x, cell_dx):
        """The grid of node_x and its widths, formed and checked by the caller."""
        grid = cls.__new__(cls)
        grid.node_x, grid.cell_dx = node_x, cell_dx
        return grid

    @property
    def J(self):
        return self.node_x.size

    @property
    def midpoints(self):
        """Cell centers, in the same unwrapped coordinates as node_x."""
        return self.node_x - 0.5 * self.cell_dx


@dataclass
class StepOutcome:
    dt_used: float
    grid: StaggeredGrid
    u: np.ndarray
    dissipation_increment: float
    halvings: int = 0


def node_mass(cell_mass):
    """Node masses: half of each adjacent cell's mass.  Every cell mass
    must be > 0, as a negative cell between heavier neighbours still
    leaves both of its node masses positive."""
    m = np.asarray(cell_mass, dtype=float)
    if m.ndim != 1 or m.size == 0:
        raise ValueError("cell masses must form a non-empty 1-d array")
    if not m.min() > 0:
        raise ValueError("cell masses must be > 0")
    return 0.5 * (m + right_neighbour(m))


def assemble_momentum(grid, u_old, mu_cells, p_cells, node_mass, dt):
    """Implicit-viscosity momentum system for the new node velocities, as
    the three arrays (diag, off, rhs) that solve_cyclic_tridiagonal takes,
    with off[j] = A[j, j+1 mod n] = -dt*mu_{j+1}/dx_{j+1}.

    Row j:  m_j u_j - dt*mu_{j+1}/dx_{j+1} (u_{j+1} - u_j)
                    + dt*mu_j/dx_j (u_j - u_{j-1})
            = m_j u_old_j - dt*(p_{j+1} - p_j)
    with cell indices wrapping periodically.  Symmetric, and strictly
    diagonally dominant with a positive diagonal, so positive definite, for
    any dt > 0 and positive node masses.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    node_mass = np.asarray(node_mass, dtype=float)
    mu = np.asarray(mu_cells, dtype=float)
    p = np.asarray(p_cells, dtype=float)
    if not node_mass.min(initial=np.inf) > 0:
        raise ValueError("node masses must be > 0")
    if not mu.min(initial=np.inf) >= 0:
        raise ValueError("viscosities must be >= 0")
    return _assemble(grid.cell_dx, np.asarray(u_old, dtype=float), mu, right_neighbour(p) - p,
                     node_mass, dt, *(np.empty(grid.J) for _ in range(3)))


def _assemble(cell_dx, u_old, mu, dp, m_node, dt, diag, off, rhs):
    """assemble_momentum's system into diag, off and rhs; dp = right_neighbour(p) - p."""
    np.multiply(m_node, u_old, out=rhs)
    rhs -= np.multiply(dp, dt, out=off)
    w_left = np.multiply(mu, dt, out=diag)
    w_left /= cell_dx
    w_right = right_neighbour(w_left, out=off)
    np.add(m_node, w_left, out=diag)
    diag += w_right
    np.negative(w_right, out=off)
    return diag, off, rhs


def choose_dt(grid, u_old):
    """CFL-style predictor: limit mesh deformation per step.

    The width of cell j changes at rate |u_j - u_{j-1}|, so the candidate
    keeps every width change below CFL_THETA times the smallest width.
    """
    return _cfl_dt(grid.cell_dx, back_difference(np.asarray(u_old, dtype=float)))


def _cfl_dt(cell_dx, du):  # overwrites du
    return CFL_THETA * np.minimum.reduce(cell_dx) / (np.abs(du, out=du).max() + _CFL_EPS)


def lagrangian_step(grid, u_old, cell_mass, mu_cells, p_cells, dt_limit, accept=None):
    """One step: the implicit momentum solve, then mesh motion; densities
    are mass / width, and cells keep their masses, so none is updated.

    The dt candidate comes from choose_dt, capped by dt_limit (> 0 and
    finite).  An attempt whose velocities would invert a cell, or that
    ``accept(u_new, new_grid, dt)`` turns down, halves dt and repeats the
    solve; both causes share the MAX_HALVINGS budget.  Cell pressures that
    are not all finite fail the step before any solve, as no dt can mend
    them, and before the dt_limit check, as they can drive a caller's cap
    to 0.  A density of the accepted step outside [RHO_SANE_MIN,
    RHO_SANE_MAX] means the run has blown up: it fails the step at once,
    with no retry.  The returned dissipation increment is
    dt * sum(mu (du/dx)^2 dx) evaluated with the new velocities on the
    pre-step mesh, matching the implicit discretization.
    """
    m_node = node_mass(cell_mass)
    u_old, mu_cells, p_cells = (np.asarray(a, dtype=float) for a in (u_old, mu_cells, p_cells))
    if not mu_cells.min(initial=np.inf) >= 0:
        raise ValueError("viscosities must be >= 0")
    attempt_ok = None if accept is None else (
        lambda u_new, du_new, x, dx, dt: accept(u_new, StaggeredGrid._of(x, dx), dt))
    return StepOutcome(*_advance(grid, u_old, back_difference(u_old), cell_mass, m_node,
                                 mu_cells, p_cells, dt_limit, _workspace(u_old.size),
                                 attempt_ok))


def _workspace(n, extra=0):
    """A run's scratch rows of n doubles: _advance's dp, du, off, diag and b,
    the solve's Fortran-ordered (n, 2) view of two rows; then ``extra``."""
    block = np.empty((6 + extra, n))
    return (*block[:4], block[4:6].T, *block[6:])


def _advance(grid, u_old, du_old, cell_mass, m_node, mu_cells, p_cells, dt_limit, work,
             accept=None):
    """lagrangian_step on checked float arrays, du_old = back_difference(u_old)
    and m_node = node_mass(cell_mass), making only the checks whose outcome can
    change in a run; ``accept(u_new, du_new, new_x, new_dx, dt)`` may use
    diag.  Every temporary goes into ``work``; du_old and p_cells may be its
    du, off or diag, as both are read before those are written."""
    if not np.isfinite(p_cells).all():
        raise StepFailure("cell pressures are not all finite")
    if not 0 < dt_limit < np.inf:
        raise ValueError("dt_limit must be > 0 and finite")

    dp, du, off, diag, b = work[:5]
    # dt does not enter dp, so the attempts share it
    np.subtract(right_neighbour(p_cells, out=dp), p_cells, out=dp)
    dx = grid.cell_dx
    dt = min(_cfl_dt(dx, du_old), dt_limit)
    if not dt > 0:  # a non-finite u_old
        raise ValueError("dt must be > 0")

    for halvings in range(MAX_HALVINGS + 1):
        _assemble(dx, u_old, mu_cells, dp, m_node, dt, diag, off, b[:, 0])
        u_new = _solve(diag, off, b)
        # mesh motion: the widths still add up to the unit length
        new_x = np.multiply(u_new, dt)
        new_x += grid.node_x
        new_dx = _widths(new_x, grid.length)
        if np.minimum.reduce(new_dx) > 0:  # else the mesh inverted
            du_new = back_difference(u_new, out=du)
            if accept is None or accept(u_new, du_new, new_x, new_dx, dt):
                break
        if halvings == MAX_HALVINGS:
            cause = "step rejection" if new_dx.min() > 0 else "cell inversion"
            raise StepFailure(
                f"{cause} persisted after {MAX_HALVINGS} dt halvings",
                diagnostics={"dt": dt, "min_dx": float(dx.min()),
                             "max_u": float(np.abs(u_new).max())},
            )
        dt *= 0.5

    rho = np.divide(cell_mass, new_dx, out=off)
    if not (np.minimum.reduce(rho, initial=np.inf) >= RHO_SANE_MIN
            and np.maximum.reduce(rho, initial=-np.inf) <= RHO_SANE_MAX):
        raise StepFailure(f"density left the sane range [{RHO_SANE_MIN}, {RHO_SANE_MAX}]",
                          diagnostics={"dt": dt})

    # mu (du/dx)^2 dx, in du_new's row
    np.square(np.divide(du_new, dx, out=du_new), out=du_new)
    du_new *= mu_cells
    du_new *= dx
    dissipation = dt * float(np.add.reduce(du_new))
    return dt, StaggeredGrid._of(new_x, new_dx), u_new, dissipation, halvings
