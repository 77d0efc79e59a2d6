"""Staggered pseudo-Lagrangian time step on the periodic unit interval:
an implicit momentum solve, then mesh motion; densities are mass / width.

Cell quantities (mass, color / volume fraction, pressure, viscosity)
live on moving cells; velocities live on the cell interfaces (nodes).
Node j is the interface at ``node_x[j]``, cell j is the interval ending
there, so cell j+1 (mod J) lies to the node's right.  Node coordinates
are kept unwrapped (strictly increasing); the torus seam is closed by the
unit length.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import StepFailure
from .tridiag import CyclicTridiagonalSystem, solve_cyclic_tridiagonal

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

def right_neighbour(a):
    """Entry j holds a[j + 1 mod n]."""
    out = np.empty_like(a)
    out[:-1] = a[1:]
    out[-1] = a[0]
    return out


def left_neighbour(a):
    """Entry j holds a[j - 1 mod n]."""
    out = np.empty_like(a)
    out[1:] = a[:-1]
    out[0] = a[-1]
    return out


def back_difference(a):
    """Entry j holds a[j] - a[j - 1 mod n]."""
    out = np.empty_like(a)
    np.subtract(a[1:], a[:-1], out=out[1:])
    out[0] = a[0] - a[-1]
    return out


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
        dx = back_difference(self.node_x)
        dx[0] += self.length
        if not (dx > 0).all():
            raise ValueError("cell widths must all be > 0")
        self.cell_dx = dx

    @classmethod
    def uniform(cls, J):
        return cls(np.arange(1, J + 1) * (cls.length / J))

    @property
    def J(self):
        return self.node_x.size

    @property
    def midpoints(self):
        """Cell centers, in the same unwrapped coordinates as node_x."""
        return self.node_x - 0.5 * self.cell_dx

    def strain(self, u):
        """Velocity gradient of each cell: its node-velocity jump over its width."""
        return back_difference(u) / self.cell_dx


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
    if not (m > 0).all():
        raise ValueError("cell masses must be > 0")
    return 0.5 * (m + right_neighbour(m))


def assemble_momentum(grid, u_old, mu_cells, p_cells, node_mass, dt):
    """Implicit-viscosity momentum system for the new node velocities.

    Row j:  m_j u_j - dt*mu_{j+1}/dx_{j+1} (u_{j+1} - u_j)
                    + dt*mu_j/dx_j (u_j - u_{j-1})
            = m_j u_old_j - dt*(p_{j+1} - p_j)
    with cell indices wrapping periodically.  Strictly diagonally
    dominant for any dt > 0 and positive node masses.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    node_mass = np.asarray(node_mass, dtype=float)
    mu = np.asarray(mu_cells, dtype=float)
    p = np.asarray(p_cells, dtype=float)
    if not (node_mass > 0).all():
        raise ValueError("node masses must be > 0")
    if not (mu >= 0).all():
        raise ValueError("viscosities must be >= 0")

    w_left = dt * mu / grid.cell_dx
    w_right = right_neighbour(w_left)
    diag = node_mass + w_left + w_right
    sub = -w_left
    sup = -w_right
    rhs = node_mass * np.asarray(u_old, dtype=float) - dt * (right_neighbour(p) - p)
    return CyclicTridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def choose_dt(grid, u_old):
    """CFL-style predictor: limit mesh deformation per step.

    The width of cell j changes at rate |u_j - u_{j-1}|, so the candidate
    keeps every width change below CFL_THETA times the smallest width.
    """
    u = np.asarray(u_old, dtype=float)
    jump = np.abs(back_difference(u)).max()
    return CFL_THETA * grid.cell_dx.min() / (jump + _CFL_EPS)


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
    if not np.isfinite(p_cells).all():
        raise StepFailure("cell pressures are not all finite")
    if not 0 < dt_limit < np.inf:
        raise ValueError("dt_limit must be > 0 and finite")

    dt = min(choose_dt(grid, u_old), dt_limit)

    for halvings in range(MAX_HALVINGS + 1):
        # the system stays unnamed so it dies at once: fewer live temporaries
        # at large J keep the heap from being trimmed and refaulted every step
        u_new = solve_cyclic_tridiagonal(
            assemble_momentum(grid, u_old, mu_cells, p_cells, m_node, dt))
        # mesh motion: the widths still add up to the unit length
        try:
            new_grid = StaggeredGrid(grid.node_x + dt * u_new)
        except ValueError:  # a cell width <= 0: the mesh inverted
            new_grid = None
        if new_grid is not None and (accept is None or accept(u_new, new_grid, dt)):
            break
        if halvings == MAX_HALVINGS:
            cause = "cell inversion" if new_grid is None else "step rejection"
            raise StepFailure(
                f"{cause} persisted after {MAX_HALVINGS} dt halvings",
                diagnostics={"dt": dt, "min_dx": float(grid.cell_dx.min()),
                             "max_u": float(np.abs(u_new).max())},
            )
        dt *= 0.5

    rho = cell_mass / new_grid.cell_dx
    if not ((rho >= RHO_SANE_MIN) & (rho <= RHO_SANE_MAX)).all():
        raise StepFailure(f"density left the sane range [{RHO_SANE_MIN}, {RHO_SANE_MAX}]",
                          diagnostics={"dt": dt})

    dissipation = dt * float((np.asarray(mu_cells) * grid.strain(u_new)**2
                              * grid.cell_dx).sum())
    return StepOutcome(dt_used=dt, grid=new_grid, u=u_new,
                       dissipation_increment=dissipation, halvings=halvings)
