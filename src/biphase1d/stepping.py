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

import contextvars
import operator
import os
import threading
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
    return _back_difference(a, a[-1], np.empty_like(a))


def _back_difference(a, left, out):
    """back_difference of a segment, with ``left`` the entry before its first."""
    np.subtract(a[1:], a[:-1], out=out[1:])
    out[0] = a[0] - left
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
    system = tuple(np.empty(grid.J) for _ in range(3))
    mu = np.broadcast_to(mu, (grid.J,))
    _assemble(-1, 0, dt, mu, grid.cell_dx, p, grid.cell_dx, np.asarray(u_old, dtype=float), mu,
              p, node_mass, *system)
    return system


def _assemble(left, right, dt, mu_all, dx_all, p_all, cell_dx, u_old, mu, p, m_node, diag, off,
              rhs):
    """assemble_momentum's rows of a segment into diag, off and rhs, with
    p[j+1] - p[j] passing through off; the segment's last row reads the next
    cell, ``right`` in mu_all, dx_all and p_all, from those inputs."""
    np.multiply(m_node, u_old, out=rhs)
    np.subtract(p[1:], p[:-1], out=off[:-1])
    off[-1] = p_all[right] - p[-1]
    rhs -= np.multiply(off, dt, out=off)
    w_left = np.multiply(mu, dt, out=diag)
    w_left /= cell_dx
    # off = -w_right; the next cell's w_left with the same two roundings
    np.negative(w_left[1:], out=off[:-1])
    off[-1] = -(mu_all[right] * dt / dx_all[right])
    np.add(m_node, w_left, out=diag)
    diag -= off  # + w_right: negation is exact


def choose_dt(grid, u_old):
    """CFL-style predictor: limit mesh deformation per step.

    The width of cell j changes at rate |u_j - u_{j-1}|, so the candidate
    keeps every width change below CFL_THETA times the smallest width.
    """
    du = back_difference(np.asarray(u_old, dtype=float))
    return _cfl_dt(np.minimum.reduce(grid.cell_dx), np.maximum.reduce(np.abs(du, out=du)))


def _cfl_dt(min_dx, max_du):
    return CFL_THETA * min_dx / (max_du + _CFL_EPS)


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
    n = u_old.size
    return StepOutcome(*_advance(grid, u_old, None, cell_mass, m_node,
                                 np.broadcast_to(mu_cells, (n,)), p_cells, dt_limit,
                                 _workspace(n), None, attempt_ok, ()))


def _workspace(n, extra=0):
    """A run's scratch rows of n doubles: _advance's du, off, diag and b, the
    solve's Fortran-ordered (n, 2) view of two rows; then ``extra``."""
    block = np.empty((5 + extra, n))
    return (*block[:3], block[3:5].T, *block[5:])


# The two halves of a run's cell-wise phases.  From _SPLIT_MIN cells on, on
# a host with two or more CPUs, each phase of a run's step runs on cells
# [0, n//2) in the calling thread and on [n//2, n) in one helper thread at
# once; numpy releases the GIL inside its loops, so the halves overlap.  A
# phase reads the neighbour of its half's edge from that phase's inputs,
# never from the other half's outputs, with the same IEEE operations as the
# whole-array pass, and returns partial minima, maxima, flags and counts
# that the caller combines exactly; so the results are the same bits.  The
# pressure laws, every check that raises, the solve (f2py holds the GIL in
# dptsv) and the dissipation's one pairwise sum stay in the caller.
# The crossover, as split/whole time of a run-path test2 step on a 2-vCPU
# Xeon VM (best of 9 interleaved loops of 20 steps): macro 0.99, 0.91, 0.90,
# 0.79 and 0.72 at J = 4e4, 5e4, 65536, 1e5 and 2e5; meso 1.07, 1.02, 0.97,
# 0.92 and 0.84.  A pass over a half's arrays slows when the other half
# streams at once, and each phase costs two thread wake-ups, about 20 us.
_SPLIT_MIN = 65_536


def _two_cpus():
    """Whether this process may run on two or more CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _split_point(n):
    """Where a run of n cells splits its cell-wise phases, or None to run
    each phase on whole arrays in the caller, with no slicing."""
    return n // 2 if n >= _SPLIT_MIN and _two_cpus() else None


def _cells(split, body, shared, combine):
    """A phase: ``body`` itself when split is None, else a function with
    body's parameters that runs body on each half at once and combines the
    partial results with ``combine``.  body(left, right, *args) works on one
    segment of the run's cells: ``left`` and ``right`` index the cells
    beside its ends in arrays of the run's length, wrapping periodically, so
    a caller passes -1 and 0; the first ``shared`` args are passed whole to
    each half, and the rest are arrays of the segment.  A half must never
    start a split phase: it would wait on its own job queue."""
    if split is None:
        return body

    def halves(_, __, *args):
        whole, parts = args[:shared], args[shared:]
        n = parts[0].shape[0]
        mine, theirs = _pair((-1, split - n, *whole, *(a[:split] for a in parts)),
                             (split - 1, 0, *whole, *(a[split:] for a in parts)), body)
        return combine and tuple(f(a, b) for f, a, b in zip(combine, mine, theirs))
    return halves


# the job queue of the process's helper thread, made at its first split phase;
# a forked child has no helper thread, so its first split phase starts one
_JOBS = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_JOBS.clear)


def _serve(jobs):
    """The helper thread: runs each job's body in the job's context and puts
    (failed, result or exception) on the job's reply queue."""
    while True:
        context, body, args, reply = jobs.get()
        try:
            outcome = False, context.run(body, *args)
        except BaseException as failure:
            outcome = True, failure
        reply.put(outcome)
        del context, body, args, reply, outcome  # hold no array between phases


def _pair(first, second, body):
    """(body(*first), body(*second)), the second run in the helper thread in a
    copy of the caller's context (numpy's errstate lives there); an exception
    of either is raised here, after both have finished.  Each pair has its
    own reply queue, so a wait that an interrupt ends leaves the helper's
    reply on a queue nobody reads, and later pairs queue behind that half."""
    import queue  # only a split run needs it
    if not _JOBS:
        jobs = queue.SimpleQueue()
        _JOBS.append(jobs)
        if _JOBS[0] is jobs:  # of threads that get here at once, one starts the helper
            threading.Thread(target=_serve, args=(jobs,), name="biphase1d-half",
                             daemon=True).start()
    reply = queue.SimpleQueue()
    _JOBS[0].put((contextvars.copy_context(), body, second, reply))
    try:
        mine = body(*first)
    finally:
        failed, theirs = reply.get()
    if failed:
        raise theirs
    return mine, theirs


def _extent(left, right, u_all, fresh, cell_dx, u_old, du):
    """A segment's least width and largest |du|, which overwrites du; with
    ``fresh``, du is first made as the back difference of u_old."""
    if fresh:
        _back_difference(u_old, u_all[left], du)
    return np.minimum.reduce(cell_dx), np.maximum.reduce(np.abs(du, out=du))


def _move(left, right, dt, length, u_all, x_all, accept, u_new, node_x, new_x, new_dx, du,
          cell_dx, cell_mass, mu_cells, rho, *accept_cells):
    """Mesh motion of a segment: its new nodes and widths and their least
    width; where that is > 0, the new velocities' back difference into du and
    ``accept(u_new, du, new_x, new_dx, dt, *accept_cells)``; where that holds,
    the densities into rho, their least and largest, and the dissipation terms
    mu (du/dx)^2 dx into du.  The width at the segment's start reads the
    node before it, ``left``, from u_all and x_all.  So one half may test and
    finish an attempt that the other half's widths or test turn down; the
    next attempt rewrites every row that work wrote."""
    np.multiply(u_new, dt, out=new_x)
    new_x += node_x
    _back_difference(new_x, u_all[left] * dt + x_all[left], new_dx)
    if left == -1:  # the torus seam: the widths still add up to the length
        new_dx[0] += length
    least = np.minimum.reduce(new_dx)
    if not least > 0:  # the mesh inverted
        return least, False, np.inf, -np.inf
    _back_difference(u_new, u_all[left], du)
    if not (accept is None or accept(u_new, du, new_x, new_dx, dt, *accept_cells)):
        return least, False, np.inf, -np.inf
    np.divide(cell_mass, new_dx, out=rho)
    np.square(np.divide(du, cell_dx, out=du), out=du)
    du *= mu_cells
    du *= cell_dx
    return least, True, np.minimum.reduce(rho), np.maximum.reduce(rho)


def _advance(grid, u_old, du_old, cell_mass, m_node, mu_cells, p_cells, dt_limit, work, split,
             accept, accept_cells):
    """lagrangian_step on checked float arrays of the run's length, with
    du_old = back_difference(u_old), or None to form it in work's du, and
    m_node = node_mass(cell_mass), making only the checks whose outcome can
    change in a run, with its cell-wise phases split at ``split`` (see
    _cells).  ``accept(u_new, du_new, new_x, new_dx, dt, *accept_cells)``,
    or None, may use diag; it sees the matching segment of every array,
    accept_cells included, and returns a bool.  Every temporary goes into
    ``work``; du_old, which the step overwrites, may be its du.  No row of
    ``work`` may hold p_cells: every attempt's assembly reads them."""
    if not np.logical_and.reduce(np.isfinite(p_cells)):
        raise StepFailure("cell pressures are not all finite")
    if not 0 < dt_limit < np.inf:
        raise ValueError("dt_limit must be > 0 and finite")

    du, off, diag, b = work[:4]
    dx = grid.cell_dx
    min_dx, max_du = _cells(split, _extent, 2, (np.minimum, np.maximum))(
        -1, 0, u_old, du_old is None, dx, u_old, du if du_old is None else du_old)
    dt = min(_cfl_dt(min_dx, max_du), dt_limit)
    if not dt > 0:  # a non-finite u_old
        raise ValueError("dt must be > 0")

    assemble = _cells(split, _assemble, 4, ())
    move = _cells(split, _move, 5, (np.minimum, operator.and_, np.minimum, np.maximum))
    for halvings in range(MAX_HALVINGS + 1):
        assemble(-1, 0, dt, mu_cells, dx, p_cells, dx, u_old, mu_cells, p_cells, m_node, diag,
                 off, b[:, 0])
        u_new = _solve(diag, off, b)
        new_x, new_dx = np.empty_like(dx), np.empty_like(dx)
        # the densities into off, the dissipation terms into du
        least, ok, rho_min, rho_max = move(
            -1, 0, dt, grid.length, u_new, grid.node_x, accept,
            u_new, grid.node_x, new_x, new_dx, du, dx, cell_mass, mu_cells, off, *accept_cells)
        if ok:
            break
        if halvings == MAX_HALVINGS:
            cause = "step rejection" if least > 0 else "cell inversion"
            raise StepFailure(
                f"{cause} persisted after {MAX_HALVINGS} dt halvings",
                diagnostics={"dt": dt, "min_dx": float(dx.min()),
                             "max_u": float(np.abs(u_new).max())},
            )
        dt *= 0.5

    if not (rho_min >= RHO_SANE_MIN and rho_max <= RHO_SANE_MAX):
        raise StepFailure(f"density left the sane range [{RHO_SANE_MIN}, {RHO_SANE_MAX}]",
                          diagnostics={"dt": dt})
    # one pairwise sum over the whole row: its order sets the bits
    dissipation = dt * float(np.add.reduce(du))
    return dt, StaggeredGrid._of(new_x, new_dx), u_new, dissipation, halvings
