"""Five-point finite-difference reference solver on the staggered grid.

The grid is half-integered in x and integered in y:

    x_i = (i - 1/2) dx, i = 1..N, dx = 1/N;
    y_j = (j - 1) dy,  j = 1..M+1, dy = 1/M.

The Neumann side conditions come for free on half-integer nodes through ghost
reflection (u_{0,j} = u_{1,j} and u_{N+1,j} = u_{N,j}); the Dirichlet rows
j = 1 and j = M+1 are eliminated into the right-hand side, leaving

    (A_x / eps^2 + A_y) u = f + (boundary rows) / dy^2

on the interior, A_x and A_y being the x- and y-stencils over dx^2 and dy^2.
A DCT-II in x and a DST-I in y diagonalize them exactly, with eigenvalues
mu_k = (4/dx^2) sin^2(k pi / 2N), k = 0..N-1, and lam_j = (4/dy^2)
sin^2(j pi / 2M), j = 1..M-1, so the solve is direct: two forward
transforms, one division by mu_k / eps^2 + lam_j, two inverse transforms
(the fast Poisson solvers of Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
1970, and Swarztrauber, SIAM Rev. 1977).  This unscaled form stays exact as
eps -> 0: mu_k / eps^2 overflows to inf, sending each mode k > 0 to its
limit 0, while mode 0 does not involve eps.

The result is certified in the eps^2-rescaled form -u_xx - eps^2 u_yy =
eps^2 f, A u = b with A = A_x + eps^2 A_y, whose scale does not blow up as
eps -> 0: one application of A gives the true residual, which must meet the
tolerance up to the floor that storing u in doubles causes by itself.

The work splits at eps.  Preparing one problem on one grid samples phi0,
phi1 and f once and folds the Dirichlet rows into the unscaled right-hand
side; none of that depends on eps.  A solve of the prepared grid for one
eps^2 runs the transforms, the division, the residual certificate and any
refinement.  ``solve_fd`` prepares and solves once; a convergence sweep
prepares each grid once and solves it for every eps^2.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import IO, Callable, Union

import numpy as np
from scipy.fft import dct, dst, idct, idst
from scipy.linalg import blas

from ._fork import forked_map
from ._quad import check_finite
from .errors import GridMismatch, NoConvergence
from .problem import ProblemSpec

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 200
CSV_FLOAT_FORMAT = ".17g"
_EPS_MACH = float(np.finfo(float).eps)
# entries per block of the residual sweep: 512 KB of doubles
_BLOCK_ENTRIES = 2**16
# values per block of CSV rows formatted by one worker task: about 1 MB of text
_CSV_BLOCK_ENTRIES = 2**14


@dataclass(frozen=True)
class Grid2D:
    """Staggered grid: ``n_x`` cells in x (half-integer nodes), ``n_y`` in y."""

    n_x: int
    n_y: int

    def __post_init__(self) -> None:
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError(f"grid needs at least 2 cells per direction, got {self.n_x}x{self.n_y}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    @property
    def dy(self) -> float:
        return 1.0 / self.n_y

    def x_nodes(self) -> np.ndarray:
        return (np.arange(1, self.n_x + 1) - 0.5) * self.dx

    def y_nodes(self) -> np.ndarray:
        return np.arange(self.n_y + 1) * self.dy


@dataclass
class Field2D:
    """Nodal values on a Grid2D, indexed ``values[i, j]`` for (x_i, y_j)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_x, self.grid.n_y + 1)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match grid {expected}")
        check_finite(v, "field values")
        self.values = v

    def write_csv(self, stream: IO[str], metadata: dict | None = None) -> None:
        """Write ``x,y,value`` rows (j outer, i inner), 17 significant digits.

        Metadata entries become '#'-prefixed comment lines above the header.

        The x tokens are formatted once, into a row template
        ``"<x_1>,\\0,%.17g\\n<x_2>,\\0,%.17g\\n..."``.  Each y-row then costs
        one ``str.replace`` of the placeholder by the y token and one ``%``
        against the row's values.  ``'%.17g' % v`` and ``format(v, '.17g')``
        go through the same float-to-string routine, so every token is the
        ``.17g`` string a per-node f-string would give.

        The y-rows are formatted in blocks of whole rows, about
        ``_CSV_BLOCK_ENTRIES`` values each, on forked workers, one per usable
        core (see ``_fork.forked_map``); a one-block field is formatted in
        the calling process.  The caller writes the blocks to ``stream`` in
        order, so the bytes are the same whatever the core count, and memory
        stays bounded by one block of text per worker.
        """
        for key, val in (metadata or {}).items():
            stream.write(f"# {key}: {val}\n")
        stream.write("x,y,value\n")
        fmt = CSV_FLOAT_FORMAT
        row = "".join(f"{x:{fmt}},\0,%{fmt}\n" for x in self.grid.x_nodes())
        rows_per_block = max(1, _CSV_BLOCK_ENTRIES // self.grid.n_x)
        n_blocks = -(-(self.grid.n_y + 1) // rows_per_block)
        job = (row, self.grid.y_nodes(), self.values, rows_per_block)
        with closing(forked_map(_format_rows, job, n_blocks)) as blocks:
            for text in blocks:
                stream.write(text)


def _format_rows(job: tuple, index: int) -> str:
    """CSV text of the ``index``-th block of y-rows."""
    row, ys, values, rows_per_block = job
    rows = slice(index * rows_per_block, (index + 1) * rows_per_block)
    fmt = CSV_FLOAT_FORMAT
    return "".join(row.replace("\0", f"{y:{fmt}}") % tuple(col.tolist())
                   for y, col in zip(ys[rows], values.T[rows]))


@dataclass(frozen=True)
class SolveStats:
    """Transform solves made and true residual of one solve.

    ``relative_residual`` is the true ``||b - A u||_2 / ||b||_2`` in the
    rescaled form; ``residual_floor``, ``16 eps_mach (1/dx^2 + beta) ||u||_2
    / ||b||_2``, bounds the part that storing ``u`` in doubles causes.
    """

    iterations: int
    relative_residual: float
    residual_floor: float


def solve_fd(p: ProblemSpec, grid: Grid2D, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> tuple[Field2D, SolveStats]:
    """Solve the anisotropic problem by the standard five-point scheme.

    Solves directly by fast diagonalization and accepts the result iff its
    true residual meets ``||b - A u||_2 <= tol ||b||_2 + floor`` (module
    docstring, ``SolveStats``); a miss is refined, ``u += solve(b - A u)``,
    up to ``max_iter`` transform solves in all.

    Args:
        p: problem instance (supplies f, phi0, phi1, eps).
        grid: staggered grid.
        tol: relative residual target (>= 1e-14; algebraic error sits far
            below discretization error).
        max_iter: cap on the transform solves, >= 1.

    Returns:
        The nodal solution field (Dirichlet rows included) and solve stats.

    Raises:
        NoConvergence: the residual check failed after ``max_iter`` solves
            or the residual is not finite.
        NonFiniteValue: problem data evaluated to NaN/inf on the grid.
        ValueError: ``tol`` or ``max_iter`` out of range, or eps^2
            underflows to 0.
    """
    return _PreparedGrid(p, grid).solve(p.eps**2, tol=tol, max_iter=max_iter)


class _PreparedGrid:
    """The eps-free part of the five-point solve of one problem on one grid.

    Samples phi0, phi1 and f once and folds the Dirichlet rows into the
    unscaled right-hand side ``f + (boundary rows) / dy^2``; ``solve`` then
    runs the eps-dependent part for any eps^2.  The maximum principle reads
    ``phi_max``, max(|phi0|, |phi1|) over the x-nodes, and ``sup_f``, max|f|
    over all of the grid's nodes, Dirichlet rows included.
    """

    def __init__(self, p: ProblemSpec, grid: Grid2D):
        self.grid = grid
        xs = grid.x_nodes()
        ys = grid.y_nodes()
        self._inv_dx2 = 1.0 / grid.dx**2
        self._inv_dy2 = 1.0 / grid.dy**2
        self.bottom = check_finite(p.phi0(xs), "phi0")
        self.top = check_finite(p.phi1(xs), "phi1")
        self.phi_max = float(max(np.max(np.abs(self.bottom)), np.max(np.abs(self.top))))
        rhs = np.array(check_finite(p.f(xs[:, None], ys[None, 1:-1]), "f"))
        rows = np.asarray(p.f(xs[:, None], ys[None, [0, -1]]), dtype=float)
        # max|f| without an |f| temporary; np.max keeps a NaN on the rows
        self.sup_f = float(np.max([rhs.max(), -rhs.min(), rows.max(), -rows.min()]))
        rhs[:, 0] += self._inv_dy2 * self.bottom
        rhs[:, -1] += self._inv_dy2 * self.top
        self._rhs = rhs
        self._zero = not rhs.any()
        # eigenvalues of A_x (divided by eps^2 in solve) under the DCT-II and
        # of A_y under the DST-I
        self._mu = 4.0 * self._inv_dx2 * np.sin(
            np.arange(grid.n_x) * (np.pi / (2 * grid.n_x))) ** 2
        self._lam = 4.0 * self._inv_dy2 * np.sin(
            np.arange(1, grid.n_y) * (np.pi / (2 * grid.n_y))) ** 2

    def solve(self, eps2: float, tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> tuple[Field2D, SolveStats]:
        """The five-point solution for anisotropy eps^2 (see ``solve_fd``)."""
        if tol < 1e-14:
            raise ValueError(f"tol must be >= 1e-14, got {tol}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if eps2 == 0.0:
            raise ValueError(f"eps^2 = {eps2!r}: eps squares to 0 in double precision")
        if self._zero:
            stats = SolveStats(iterations=0, relative_residual=0.0, residual_floor=0.0)
            return self._field(np.zeros_like(self._rhs)), stats
        inv_dx2 = self._inv_dx2
        beta = eps2 * self._inv_dy2
        # for tiny eps, mu_k / eps^2 overflows to inf and sends mode k to its
        # eps -> 0 limit, 0
        with np.errstate(over="ignore"):
            mu = self._mu / eps2
        lam = self._lam

        def invert(b: np.ndarray) -> np.ndarray:
            """(A_x / eps^2 + A_y)^{-1} b, computed in b's memory."""
            b = dct(b, type=2, axis=0, overwrite_x=True, workers=-1)
            b = dst(b, type=1, axis=1, overwrite_x=True, workers=-1)
            b /= mu[:, None] + lam
            b = idst(b, type=1, axis=1, overwrite_x=True, workers=-1)
            return idct(b, type=2, axis=0, overwrite_x=True, workers=-1)

        u = invert(self._rhs.copy())
        r = np.multiply(self._rhs, eps2)  # b of the rescaled form A u = b
        rhs_norm = _norm(r)
        for iterations in range(1, max_iter + 1):
            _subtract_operator(r, u, inv_dx2, beta)
            residual = _norm(r)
            floor = 16.0 * _EPS_MACH * (inv_dx2 + beta) * _norm(u)
            accepted = math.isfinite(residual) and residual <= tol * rhs_norm + floor
            if accepted or not math.isfinite(residual) or iterations == max_iter:
                break
            r /= eps2
            u += invert(r)
            r = np.multiply(self._rhs, eps2)
        del r
        rel, rel_floor = residual / rhs_norm, floor / rhs_norm
        if not accepted:
            raise NoConvergence(
                f"five-point solve residual {rel:.3e} exceeds tol {tol:.1e} + floor "
                f"{rel_floor:.3e} after {iterations} transform solve(s)"
            )
        stats = SolveStats(iterations=iterations, relative_residual=rel, residual_floor=rel_floor)
        return self._field(u), stats

    def _field(self, interior: np.ndarray) -> Field2D:
        full = np.empty((self.grid.n_x, self.grid.n_y + 1))
        full[:, 0] = self.bottom
        full[:, 1:-1] = interior
        full[:, -1] = self.top
        return Field2D(grid=self.grid, values=full)


def _subtract_operator(b: np.ndarray, u: np.ndarray, inv_dx2: float, beta: float) -> None:
    """Overwrite b with b - A u, A the rescaled five-point operator on the interior.

    The x-stencil reflects at the sides (ghosts u_{-1} = u_0 and
    u_N = u_{N-1}); the Dirichlet rows are already eliminated into b.  Runs
    over blocks of x-rows so that its temporaries stay small; every entry
    receives its terms in the same order whatever the block size.
    """
    n = u.shape[0]
    step = max(1, _BLOCK_ENTRIES // u.shape[1])
    centre = -2.0 * (inv_dx2 + beta)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        r, v = b[i0:i1], u[i0:i1]
        r += v * centre
        r[1:] += inv_dx2 * v[:-1]
        if i0 > 0:
            r[0] += inv_dx2 * u[i0 - 1]
        r[:-1] += inv_dx2 * v[1:]
        if i1 < n:
            r[-1] += inv_dx2 * u[i1]
        if i0 == 0:
            r[0] += inv_dx2 * v[0]
        if i1 == n:
            r[-1] += inv_dx2 * v[-1]
        r[:, 1:] += beta * v[:, :-1]
        r[:, :-1] += beta * v[:, 1:]


def _norm(a: np.ndarray) -> float:
    """2-norm from BLAS nrm2, which rescales as it sums: the squares of a
    residual near the smallest normal float would underflow in a plain dot."""
    return float(blas.dnrm2(a.ravel()))


def linf_distance(field: Field2D, other: Union[Field2D, Callable]) -> float:
    """Discrete sup-norm distance between a field and a field or evaluable.

    Evaluables are called once on the field's nodes, as
    ``other(xs[:, None], ys[None, :])``; an expansion result so samples its
    force once per y, as its ``evaluate_grid`` does.  Fields must share the
    grid.

    Raises:
        GridMismatch: ``other`` is a Field2D on a different grid.
    """
    if isinstance(other, Field2D):
        if other.grid != field.grid:
            raise GridMismatch(f"grids differ: {field.grid} vs {other.grid}")
        other_vals = other.values
    else:
        xs = field.grid.x_nodes()
        ys = field.grid.y_nodes()
        other_vals = np.asarray(other(xs[:, None], ys[None, :]), dtype=float)
        if other_vals.shape != field.values.shape:
            raise GridMismatch(
                f"evaluable returned shape {other_vals.shape}, expected {field.values.shape}"
            )
    return float(np.max(np.abs(field.values - other_vals)))
