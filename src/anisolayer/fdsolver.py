"""Five-point finite-difference reference solver on the staggered grid.

The grid is half-integered in x and integered in y:

    x_i = (i - 1/2) dx, i = 1..N, dx = 1/N;
    y_j = (j - 1) dy,  j = 1..M+1, dy = 1/M.

The Neumann side conditions come for free on half-integer nodes through ghost
reflection (u_{0,j} = u_{1,j} and u_{N+1,j} = u_{N,j}); the Dirichlet rows
j = 1 and j = M+1 are eliminated into the right-hand side, which keeps the
remaining system symmetric positive definite.

The system is solved in the eps^2-rescaled form

    -u_xx - eps^2 u_yy = eps^2 f,

whose solution is identical to the original equation but whose conditioning
does not blow up as eps -> 0.  The solver is preconditioned conjugate
gradient, applied matrix-free; the preconditioner inverts the full five-point
operator by a cosine transform along x (which diagonalizes the reflected
x-stencil exactly) followed by independent tridiagonal solves in y, so CG
normally certifies the residual within one or two iterations while remaining
a safety net against any mismatch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import IO, Callable, Union

import numpy as np
from scipy.fft import dct, idct
from scipy.linalg import blas

from ._quad import check_finite
from .errors import GridMismatch, NoConvergence
from .problem import ProblemSpec

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 200
CSV_FLOAT_FORMAT = ".17g"


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
        one ``str.replace`` of the placeholder by the y token, one ``%``
        against the row's values and one ``stream.write``, so memory stays
        bounded by one row of text.  ``'%.17g' % v`` and ``format(v, '.17g')``
        go through the same float-to-string routine, so every token is the
        ``.17g`` string a per-node f-string would give.
        """
        for key, val in (metadata or {}).items():
            stream.write(f"# {key}: {val}\n")
        stream.write("x,y,value\n")
        fmt = CSV_FLOAT_FORMAT
        row = "".join(f"{x:{fmt}},\0,%{fmt}\n" for x in self.grid.x_nodes())
        for y, col in zip(self.grid.y_nodes(), self.values.T):
            stream.write(row.replace("\0", f"{y:{fmt}}") % tuple(col.tolist()))


@dataclass(frozen=True)
class SolveStats:
    """Iteration count, final relative residual and wall time of one solve."""

    iterations: int
    relative_residual: float
    wall_time: float


class _SpectralPreconditioner:
    """Exact inverse of the rescaled five-point operator.

    A cosine transform along x turns the operator into independent
    tridiagonal systems (mu_k + 2 beta) on the diagonal, -beta off it, one
    per x-mode; those are solved by a vectorized Thomas sweep with
    precomputed pivots.
    """

    def __init__(self, n_x: int, n_rows: int, dx: float, beta: float):
        k = np.arange(n_x)
        self.mu = (4.0 / dx**2) * np.sin(k * np.pi / (2 * n_x)) ** 2
        self.beta = beta
        diag = self.mu[:, None] + 2.0 * beta * np.ones((n_x, n_rows))
        pivots = diag.copy()
        for j in range(1, n_rows):
            pivots[:, j] = diag[:, j] - beta**2 / pivots[:, j - 1]
        self.pivots = pivots

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = dct(r, type=2, axis=0)
        beta, pivots = self.beta, self.pivots
        n_rows = z.shape[1]
        for j in range(1, n_rows):
            z[:, j] += (beta / pivots[:, j - 1]) * z[:, j - 1]
        z[:, -1] /= pivots[:, -1]
        for j in range(n_rows - 2, -1, -1):
            z[:, j] = (z[:, j] + beta * z[:, j + 1]) / pivots[:, j]
        return idct(z, type=2, axis=0)


def solve_fd(p: ProblemSpec, grid: Grid2D, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> tuple[Field2D, SolveStats]:
    """Solve the anisotropic problem by the standard five-point scheme.

    Args:
        p: problem instance (supplies f, phi0, phi1, eps).
        grid: staggered grid.
        tol: relative residual target for the conjugate-gradient solve
            (>= 1e-14; algebraic error sits far below discretization error).
        max_iter: iteration cap.

    Returns:
        The nodal solution field (Dirichlet rows included) and solve stats.

    Raises:
        NoConvergence: the residual target was not met within ``max_iter``,
            or PCG broke down (``r.z = 0`` or a non-finite step length), as
            it does for tiny eps^2 (from 1e-32 down on a 16x16 grid).
        NonFiniteValue: problem data evaluated to NaN/inf on the grid.
    """
    if tol < 1e-14:
        raise ValueError(f"tol must be >= 1e-14, got {tol}")
    t_start = time.perf_counter()
    xs = grid.x_nodes()
    ys = grid.y_nodes()
    eps2 = p.eps**2
    inv_dx2 = 1.0 / grid.dx**2
    beta = eps2 / grid.dy**2

    bottom = check_finite(p.phi0(xs), "phi0")
    top = check_finite(p.phi1(xs), "phi1")
    rhs = eps2 * check_finite(p.f(xs[:, None], ys[None, 1:-1]), "f")
    rhs[:, 0] += beta * bottom
    rhs[:, -1] += beta * top

    def apply_operator(u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        # x-stencil with reflected ghosts
        out[0] = u[0] - u[1]
        out[-1] = u[-1] - u[-2]
        out[1:-1] = 2.0 * u[1:-1] - u[:-2] - u[2:]
        out *= inv_dx2
        # y-stencil with homogeneous Dirichlet rows already eliminated
        acc = 2.0 * u
        acc[:, :-1] -= u[:, 1:]
        acc[:, 1:] -= u[:, :-1]
        out += beta * acc
        return out

    precond = _SpectralPreconditioner(grid.n_x, grid.n_y - 1, grid.dx, beta)

    u = np.zeros_like(rhs)
    if not rhs.any():
        stats = SolveStats(iterations=0, relative_residual=0.0,
                           wall_time=time.perf_counter() - t_start)
        return _assemble_field(grid, u, bottom, top), stats

    r = rhs.copy()
    rhs_norm = _norm(rhs)
    rel = 1.0
    z = precond.apply(r)
    d = z.copy()
    rz = float(np.vdot(r, z))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ad = apply_operator(d)
        dad = float(np.vdot(d, ad))
        alpha = rz / dad if dad != 0.0 else math.nan
        if rz == 0.0 or not math.isfinite(alpha):
            raise NoConvergence(
                f"PCG broke down in iteration {iterations} (r.z = {rz:.3e}, "
                f"d.Ad = {dad:.3e}) at relative residual {rel:.3e}"
            )
        u += alpha * d
        r -= alpha * ad
        rel = _norm(r) / rhs_norm
        if rel <= tol:
            break
        z = precond.apply(r)
        rz_next = float(np.vdot(r, z))
        d = z + (rz_next / rz) * d
        rz = rz_next
    if rel > tol:
        raise NoConvergence(
            f"PCG stalled at relative residual {rel:.3e} after {iterations} iterations"
        )
    stats = SolveStats(iterations=iterations, relative_residual=rel,
                       wall_time=time.perf_counter() - t_start)
    return _assemble_field(grid, u, bottom, top), stats


def _norm(a: np.ndarray) -> float:
    """2-norm from BLAS nrm2, which rescales as it sums: the squares of a
    residual near the smallest normal float would underflow in a plain dot."""
    return float(blas.dnrm2(a.ravel()))


def _assemble_field(grid: Grid2D, interior: np.ndarray,
                    bottom: np.ndarray, top: np.ndarray) -> Field2D:
    full = np.empty((grid.n_x, grid.n_y + 1))
    full[:, 0] = bottom
    full[:, 1:-1] = interior
    full[:, -1] = top
    return Field2D(grid=grid, values=full)


def linf_distance(field: Field2D, other: Union[Field2D, Callable]) -> float:
    """Discrete sup-norm distance between a field and a field or evaluable.

    Evaluables are sampled at the field's nodes; anything exposing an
    ``evaluate_grid(xs, ys)`` tensor-grid method (such as an expansion
    result) is evaluated through it, plain callables via broadcasting.
    Fields must share the grid.

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
        if hasattr(other, "evaluate_grid"):
            other_vals = np.asarray(other.evaluate_grid(xs, ys), dtype=float)
        else:
            other_vals = np.asarray(other(xs[:, None], ys[None, :]), dtype=float)
        if other_vals.shape != field.values.shape:
            raise GridMismatch(
                f"evaluable returned shape {other_vals.shape}, expected {field.values.shape}"
            )
    return float(np.max(np.abs(field.values - other_vals)))
