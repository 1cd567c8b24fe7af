"""Remainder measurement, convergence-order fits and analytic bound checks.

Given a problem family, a grid and a list of eps^2 values, the remainder
report pits every requested composite approximation against a five-point
reference solution and records the discrete sup-norm of the difference, a
least-squares order fit in log10-log10 coordinates, and a per-solve maximum
principle check.

The reference must resolve the O(eps) boundary layers, which the output grid
alone often does not.  With a refinement factor r > 1 the reference is solved
on the output grid's x-nodes with r and r/2 times its y-cells, sampled at the
output rows (the y-nodes nest) and Richardson-extrapolated in y,
(4 u_r - u_{r/2}) / 3.  The default picks one r per sweep: the smallest power
of two with r >= k pi dy / eps_min, where k is the fastest mode whose layer
amplitude the expansion keeps, so the fine cells resolve the shortest decay
length in the sweep.  A mode counts as kept when its amplitude exceeds the
solver tolerance times the solution's scale, the maximum-principle bound
max|phi| + eps^2 sup|f| / 2; data without layers get r = 1, one solve on the
output grid.  The fine grid is capped at MAX_REFERENCE_UNKNOWNS unknowns; a
sweep that would need more is solved at the largest r that fits and all its
cells are flagged.

The sup norm runs over the rows the reference actually solves, 1..n_y - 1.
On the Dirichlet rows the reference equals the data, so the difference there
is the truncation error of the expansion's K-term cosine series of phi0 and
phi1 (plus the opposite layer's e^{-pi/eps} leak), a floor that does not
shrink with eps the way the remainders do; it is reported separately as the
Dirichlet-row data error.  The truncated modes k > K decay into the interior
like e^{-k pi s / eps}, so on the first solved row they still carry about
e^{-K pi dy / eps} of that floor: the solved-row norm is free of it only
while dy >> eps / (K pi).  On finer grids part of the floor stays in the
norm; compare the norm with the Dirichlet-row error to see how much.

Each table entry carries an estimate of the reference's own error and is
flagged when that estimate is not at least ten times below the remainder it
would pollute.  For r = 1 the estimate is the coarse-grid Richardson estimate
of fd_self_convergence_estimate.  For r > 1 it is the sum of a y-part, the
distance between the extrapolations from levels (r, r/2) and (r/2, r/4)
divided by 15 (for r = 2, the distance between the two solves divided by 3,
the finer solve's own error, an upper estimate), and an x-part, a second-order
Richardson estimate from a solve with half the x-cells at the coarsest
y-level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Literal, Sequence

import numpy as np
from scipy.fft import dct, idct

from .errors import InsufficientPoints, NonPositiveNorm
from .expansion import composite
from .fdsolver import (CSV_FLOAT_FORMAT, DEFAULT_MAX_ITER, DEFAULT_TOL, Field2D, Grid2D,
                       SolveStats, solve_fd)
from .problem import DEFAULT_QUAD_POINTS, DecomposedProblem, ProblemSpec
from .spectral import DEFAULT_MODES, AntiderivativeStack, analyze, mode_numbers

MAX_PRINCIPLE_SLACK = 1e-8
FD_ERROR_MARGIN = 10.0
# largest reference solve remainder_norms makes: ~0.6 GB peak with solve_fd
MAX_REFERENCE_UNKNOWNS = 2**24


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (log10 eps^2, log10 norm) points."""

    slope: float
    intercept: float
    residual: float


@dataclass(frozen=True)
class MaxPrincipleResult:
    """Outcome of the mixed-boundary maximum-principle bound check."""

    bound: float
    max_abs: float

    @property
    def passed(self) -> bool:
        return self.max_abs <= self.bound + MAX_PRINCIPLE_SLACK


@dataclass
class ErrorReport:
    """Per-eps^2 remainder norms with order fits and pollution flags."""

    eps2: list
    orders: list
    norms: dict
    slopes: dict
    fd_error_estimates: list
    flagged: dict
    max_principle: list
    grid: Grid2D
    n_modes: int
    tol: float
    reference_grid: Grid2D
    refinement: int
    refinement_capped: bool
    dirichlet_errors: dict
    reference_solves: list

    def write_csv(self, stream: IO[str], metadata: dict | None = None) -> None:
        """Rows ``eps2,r0,r2,...`` with '#'-prefixed metadata lines on top."""
        for key, val in (metadata or {}).items():
            stream.write(f"# {key}: {val}\n")
        stream.write("eps2," + ",".join(f"r{2 * n}" for n in self.orders) + "\n")
        fmt = CSV_FLOAT_FORMAT
        for i, e2 in enumerate(self.eps2):
            cells = ",".join(f"{self.norms[n][i]:{fmt}}" for n in self.orders)
            stream.write(f"{e2:{fmt}},{cells}\n")

    def sidecar_dict(self) -> dict:
        """JSON-ready summary: slopes, grid, truncation, tolerances, flags."""
        return {
            "slopes": {
                f"r{2 * n}": {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "residual": fit.residual,
                }
                for n, fit in self.slopes.items()
            },
            "grid": {"n_x": self.grid.n_x, "n_y": self.grid.n_y},
            "reference": {
                "grid": {"n_x": self.reference_grid.n_x, "n_y": self.reference_grid.n_y},
                "refinement": self.refinement,
                "capped": self.refinement_capped,
                "solves": self.reference_solves,
            },
            "n_modes": self.n_modes,
            "solver_tol": self.tol,
            "eps2": list(self.eps2),
            "fd_error_estimates": list(self.fd_error_estimates),
            "flagged": {f"r{2 * n}": list(self.flagged[n]) for n in self.orders},
            "dirichlet_row_errors": {f"r{2 * n}": list(self.dirichlet_errors[n])
                                     for n in self.orders},
            "max_principle": [
                {"bound": r.bound, "max_abs": r.max_abs, "passed": r.passed}
                for r in self.max_principle
            ],
        }


def fit_order(points: Sequence[tuple]) -> FitResult:
    """Fit log10(norm) against log10(eps^2) by ordinary least squares.

    Slope 1 means the norm scales like eps^2, slope 2 like eps^4.

    Raises:
        InsufficientPoints: fewer than 3 points.
        NonPositiveNorm: a norm (or eps^2) is not strictly positive.
    """
    if len(points) < 3:
        raise InsufficientPoints(f"order fit needs >= 3 points, got {len(points)}")
    eps2 = np.array([float(e) for e, _ in points])
    norms = np.array([float(v) for _, v in points])
    if np.any(eps2 <= 0.0) or np.any(norms <= 0.0):
        raise NonPositiveNorm("order fit needs positive eps^2 and norms")
    lx = np.log10(eps2)
    ly = np.log10(norms)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    residual = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return FitResult(slope=float(slope), intercept=float(intercept), residual=residual)


def max_principle_check(u: Field2D, p: ProblemSpec) -> MaxPrincipleResult:
    """Check ||u||_inf <= Phi + G/2 for the rescaled operator.

    Phi is the largest boundary-data magnitude and G = eps^2 sup|f|, both
    taken over the field's nodes.
    """
    bound = _max_principle_bound(p, u.grid)
    return MaxPrincipleResult(bound=bound, max_abs=float(np.max(np.abs(u.values))))


def _max_principle_bound(p: ProblemSpec, grid: Grid2D) -> float:
    """Phi + G/2 over the grid's nodes (see max_principle_check)."""
    xs = grid.x_nodes()
    ys = grid.y_nodes()
    phi_max = float(max(np.max(np.abs(p.phi0(xs))), np.max(np.abs(p.phi1(xs)))))
    g_max = float(p.eps**2 * np.max(np.abs(p.f(xs[:, None], ys[None, :]))))
    return phi_max + 0.5 * g_max


def matching_identity_check(d: DecomposedProblem, stack: AntiderivativeStack,
                            n_modes: int = 8,
                            y_samples: Sequence[float] | None = None) -> float:
    """Largest deviation in the inner/outer matching identity.

    For each sampled y and mode k, compares the cosine coefficient of the
    outer correction -F_2(., y) + F_3(1, y) against ftilde_k(y) / (k pi)^2;
    both sides are integrated on the stack's own grid.

    Raises:
        ValueError: ``n_modes < 1`` or no y samples, which would check nothing.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    ys = np.linspace(0.0, 1.0, 9) if y_samples is None else np.asarray(y_samples, dtype=float)
    if ys.size == 0:
        raise ValueError("matching-identity check needs at least one y sample")
    k = mode_numbers(n_modes)
    worst = 0.0
    for y in ys:
        _, _, f2, f3 = stack.columns(y)
        lhs = analyze(f3[-1] - f2, n_modes)
        rhs = analyze(d.ftilde(stack.x_grid, float(y)), n_modes) / (k * np.pi) ** 2
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def fd_self_convergence_estimate(p: ProblemSpec, fine: Field2D,
                                 tol: float = DEFAULT_TOL,
                                 max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Richardson estimate of the five-point solution's own error.

    Solves once more on the half-resolution grid, restricts the fine solution
    onto it (fine y-nodes contain the coarse ones; in x the first n_x / 2
    cosine modes are resampled, see ``_restrict_x``) and returns one third of
    the sup-norm difference, the second-order Richardson constant.
    """
    grid = fine.grid
    if grid.n_x % 2 or grid.n_y % 2:
        raise ValueError("self-convergence estimate needs even cell counts")
    coarse_grid = Grid2D(n_x=grid.n_x // 2, n_y=grid.n_y // 2)
    coarse, _ = solve_fd(p, coarse_grid, tol=tol, max_iter=max_iter)
    restricted = _restrict_x(fine.values[:, 0::2])
    return float(np.max(np.abs(restricted - coarse.values)) / 3.0)


def _layer_refinement(problems: Sequence[ProblemSpec], approxes: Sequence[list],
                      grid: Grid2D, tol: float) -> int:
    """Smallest power of two r with r >= k pi dy / eps_min.

    ``approxes[i]`` holds the composites of ``problems[i]``.  k is the
    fastest mode whose bottom or top layer amplitude, in any of them, exceeds
    ``tol`` times that problem's maximum-principle bound; a smaller amplitude
    lies below the reference solve's own accuracy.  A sweep without such a
    mode has no layer to resolve and gets r = 1.
    """
    fastest = 0
    for p_eps, row in zip(problems, approxes):
        floor = tol * _max_principle_bound(p_eps, grid)
        for approx in row:
            bottom, top = approx.layer_amplitudes()
            live = np.flatnonzero(np.maximum(np.abs(bottom), np.abs(top)) > floor)
            if live.size:
                fastest = max(fastest, int(mode_numbers(approx.n_modes)[live[-1]]))
    need = fastest * math.pi * grid.dy / min(p_eps.eps for p_eps in problems)
    r = 1
    while r < need:
        r *= 2
    return r


def _restrict_x(values: np.ndarray) -> np.ndarray:
    """Resample columns onto the staggered grid with half the x-cells.

    Keeps the first n_x / 2 cosine modes, which the coarse nodes carry
    exactly, so no interpolation error enters the Richardson difference.
    """
    half = values.shape[0] // 2
    coeffs = dct(values, type=2, axis=0, norm="ortho", workers=-1)[:half] / math.sqrt(2.0)
    return idct(coeffs, type=2, axis=0, norm="ortho", workers=-1)


def _solve_record(field: Field2D, stats: SolveStats) -> dict:
    """Grid and deterministic stats of one solve."""
    grid = field.grid
    return {"grid": {"n_x": grid.n_x, "n_y": grid.n_y}, "iterations": stats.iterations,
            "relative_residual": stats.relative_residual,
            "residual_floor": stats.residual_floor}


def _output_rows(p: ProblemSpec, grid: Grid2D, n_x: int, level: int,
                 tol: float, max_iter: int) -> tuple:
    """Solve on n_x x (level n_y) cells; keep the output grid's y-rows.

    Returns ``(values, solve_record)``.
    """
    field, stats = solve_fd(p, Grid2D(n_x=n_x, n_y=grid.n_y * level), tol=tol, max_iter=max_iter)
    return field.values[:, ::level].copy(), _solve_record(field, stats)


def _reference(p: ProblemSpec, grid: Grid2D, r: int, tol: float, max_iter: int,
               estimate: bool) -> tuple:
    """Reference values on ``grid`` for refinement r (see module doc).

    Returns ``(values, max_principle, error_estimate, solves)``; the
    max-principle check covers the finest solve, the estimate is NaN unless
    requested, and ``solves`` records the solves the values come from.
    """
    nan = float("nan")
    if r == 1:
        field, stats = solve_fd(p, grid, tol=tol, max_iter=max_iter)
        est = (fd_self_convergence_estimate(p, field, tol=tol, max_iter=max_iter)
               if estimate else nan)
        return field.values, max_principle_check(field, p), est, [_solve_record(field, stats)]
    fine, stats = solve_fd(p, Grid2D(n_x=grid.n_x, n_y=grid.n_y * r), tol=tol, max_iter=max_iter)
    mp = max_principle_check(fine, p)
    u_r = fine.values[:, ::r].copy()
    solves = [_solve_record(fine, stats)]
    del fine
    u_half, half_record = _output_rows(p, grid, grid.n_x, r // 2, tol, max_iter)
    solves.append(half_record)
    ref = (4.0 * u_r - u_half) / 3.0
    if not estimate:
        return ref, mp, nan, solves
    if grid.n_x % 2:
        raise ValueError("reference error estimate needs an even n_x")
    if r >= 4:
        level = r // 4
        coarsest, _ = _output_rows(p, grid, grid.n_x, level, tol, max_iter)
        est_y = float(np.max(np.abs(ref - (4.0 * u_half - coarsest) / 3.0))) / 15.0
    else:
        level, coarsest = 1, u_half
        est_y = float(np.max(np.abs(u_r - u_half))) / 3.0
    half_x, _ = _output_rows(p, grid, grid.n_x // 2, level, tol, max_iter)
    est_x = float(np.max(np.abs(half_x - _restrict_x(coarsest)))) / 3.0
    return ref, mp, est_y + est_x, solves


def remainder_norms(p: ProblemSpec, eps2_list: Sequence[float], orders: Sequence[int],
                    grid: Grid2D, n_modes: int = DEFAULT_MODES, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    quad_points: int = DEFAULT_QUAD_POINTS,
                    estimate_fd_error: bool = True,
                    refine: Literal[1, "auto"] = "auto") -> ErrorReport:
    """Measure ||u_ref - u[2n]||_inf for every (eps^2, order) pair.

    One reference per eps^2 serves all orders; r is its y-refinement factor.
    ``refine="auto"`` (the default) takes one r per sweep, the smallest power
    of two with r >= k pi dy / eps_min, where k is the fastest mode whose
    layer amplitude the expansion keeps above ``tol`` times the solution's
    maximum-principle bound (r = 1 for data without layers).  ``refine=1``
    always takes r = 1.  With r = 1 the reference is a single solve on
    ``grid``; with r > 1 it is the y-Richardson extrapolation of solves with
    r and r/2 times the y-cells, sampled at the output rows.  The fine grid
    is capped at MAX_REFERENCE_UNKNOWNS unknowns: past the cap r is halved
    until it fits and every cell is flagged.

    The norms run over the solved rows 1..n_y - 1; the Dirichlet rows, where
    the reference equals the data, are reported as ``dirichlet_errors``.
    The expansion's cosine truncation error, which sits on those rows, is
    kept out of the norms only while dy >> eps / (K pi) (module docstring).
    ``fd_error_estimates`` estimate the error of the reference actually used,
    in x and y (see the module docstring), and ``flagged`` marks each cell
    whose estimate exceeds a tenth of its norm.  ``reference_solves`` lists,
    per eps^2, the grid, transform-solve count, relative residual and
    residual floor of each solve the reference values come from.  Slopes
    come from a least-squares fit across the eps^2 values, which therefore
    must contain at least three strictly increasing positive entries.

    Raises:
        InsufficientPoints: fewer than 3 eps^2 values.
        ValueError: bad eps^2 values, orders or ``refine``.
        NonPositiveNorm, NoConvergence, MissingDerivatives: propagated.
    """
    eps2 = [float(e) for e in eps2_list]
    if len(eps2) < 3:
        raise InsufficientPoints(f"need >= 3 eps^2 values for slope fits, got {len(eps2)}")
    if any(e <= 0.0 for e in eps2):
        raise ValueError("eps^2 values must be positive")
    if sorted(set(eps2)) != eps2:
        raise ValueError("eps^2 values must be strictly increasing")
    orders = sorted(int(n) for n in orders)
    if orders and orders[0] < 0:
        raise ValueError("orders must be nonnegative")
    if refine not in (1, "auto"):
        raise ValueError(f"refine must be 1 or 'auto', got {refine!r}")
    problems = [p.with_eps(math.sqrt(e2)) for e2 in eps2]

    def composites(p_eps):
        return [composite(p_eps, order=n, n_modes=n_modes, quad_points=quad_points)
                for n in orders]

    # the rule needs every composite before the first solve; with r = 1 they
    # are built one eps at a time, which keeps the sweep's memory peak lower
    built = [composites(p_eps) for p_eps in problems] if refine == "auto" else None
    wanted = 1 if built is None else _layer_refinement(problems, built, grid, tol)
    r = wanted
    while r > 1 and grid.n_x * (grid.n_y * r - 1) > MAX_REFERENCE_UNKNOWNS:
        r //= 2
    capped = r < wanted

    xs = grid.x_nodes()
    ys = grid.y_nodes()
    norms = {n: [] for n in orders}
    dirichlet = {n: [] for n in orders}
    estimates = []
    mp_results = []
    solves = []
    for i, p_eps in enumerate(problems):
        ref, mp, estimate, eps_solves = _reference(p_eps, grid, r, tol, max_iter,
                                                   estimate_fd_error)
        mp_results.append(mp)
        estimates.append(estimate)
        solves.append(eps_solves)
        for n, approx in zip(orders, built[i] if built else composites(p_eps)):
            diff = np.abs(ref - approx.evaluate_grid(xs, ys))
            norms[n].append(float(np.max(diff[:, 1:-1])))
            dirichlet[n].append(float(max(np.max(diff[:, 0]), np.max(diff[:, -1]))))

    flagged = {
        n: [capped or bool(np.isfinite(est) and est > norms[n][i] / FD_ERROR_MARGIN)
            for i, est in enumerate(estimates)]
        for n in orders
    }
    slopes = {n: fit_order(list(zip(eps2, norms[n]))) for n in orders}
    return ErrorReport(
        eps2=eps2,
        orders=orders,
        norms=norms,
        slopes=slopes,
        fd_error_estimates=estimates,
        flagged=flagged,
        max_principle=mp_results,
        grid=grid,
        n_modes=n_modes,
        tol=tol,
        reference_grid=Grid2D(n_x=grid.n_x, n_y=grid.n_y * r),
        refinement=r,
        refinement_capped=capped,
        dirichlet_errors=dirichlet,
        reference_solves=solves,
    )
