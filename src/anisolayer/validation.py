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

Only the divisions by eps depend on eps, so a sweep does the rest once.  One
expansion base (the decomposition, the mean profile, the boundary-data
series and the raw force coefficients at y = 0, 1 and at the output rows)
serves every composite, each assembled from it by its eps prefactors.  Each
grid the references need, with its samples of f, phi0 and phi1, is prepared
once and solved for every eps^2: for r = 1 the output grid and its half
grid, for r > 1 one refinement level after the other, keeping only output
rows.  The maximum-principle bounds come from the same samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Literal, Sequence

import numpy as np
from scipy.fft import dct, idct

from .errors import InsufficientPoints, NonPositiveNorm
# composite stays importable from here: perfbench's tracer wraps it by this name
from .expansion import ExpansionResult, _check_eps, _ExpansionBase, composite  # noqa: F401
from .fdsolver import (CSV_FLOAT_FORMAT, DEFAULT_MAX_ITER, DEFAULT_TOL, Field2D, Grid2D,
                       SolveStats, _PreparedGrid, solve_fd)
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
    prepared = _PreparedGrid(p, u.grid)
    return _max_principle(u, _phi_max(prepared), prepared.sup_f, p.eps**2)


def _phi_max(prepared: _PreparedGrid) -> float:
    """Phi, the largest boundary-data magnitude on the grid's x-nodes."""
    return float(max(np.max(np.abs(prepared.bottom)), np.max(np.abs(prepared.top))))


def _bound(phi_max: float, sup_f: float, eps2: float) -> float:
    """Phi + G/2 with G = eps^2 sup|f| (see max_principle_check)."""
    return phi_max + 0.5 * float(eps2 * sup_f)


def _max_principle(u: Field2D, phi_max: float, sup_f: float, eps2: float) -> MaxPrincipleResult:
    return MaxPrincipleResult(bound=_bound(phi_max, sup_f, eps2),
                              max_abs=float(np.max(np.abs(u.values))))


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
    coarse, _ = solve_fd(p, _half_grid(fine.grid), tol=tol, max_iter=max_iter)
    return _self_convergence(fine.values, coarse.values)


def _half_grid(grid: Grid2D) -> Grid2D:
    if grid.n_x % 2 or grid.n_y % 2:
        raise ValueError("self-convergence estimate needs even cell counts")
    return Grid2D(n_x=grid.n_x // 2, n_y=grid.n_y // 2)


def _self_convergence(fine: np.ndarray, coarse: np.ndarray) -> float:
    """fd_self_convergence_estimate from the fine and half-grid values."""
    return float(np.max(np.abs(_restrict_x(fine[:, 0::2]) - coarse)) / 3.0)


def _layer_refinement(approxes: Sequence[list], eps_values: Sequence[float],
                      bounds: Sequence[float], grid: Grid2D, tol: float) -> int:
    """Smallest power of two r with r >= k pi dy / eps_min.

    ``approxes[i]`` holds the composites at ``eps_values[i]``, whose
    maximum-principle bound on ``grid`` is ``bounds[i]``.  k is the fastest
    mode whose bottom or top layer amplitude, in any of them, exceeds ``tol``
    times that bound; a smaller amplitude lies below the reference solve's
    own accuracy.  A sweep without such a mode has no layer to resolve and
    gets r = 1.
    """
    fastest = 0
    for bound, row in zip(bounds, approxes):
        floor = tol * bound
        for approx in row:
            bottom, top = approx.layer_amplitudes()
            live = np.flatnonzero(np.maximum(np.abs(bottom), np.abs(top)) > floor)
            if live.size:
                fastest = max(fastest, int(mode_numbers(approx.n_modes)[live[-1]]))
    need = fastest * math.pi * grid.dy / min(eps_values)
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


def _single_solve_references(p: ProblemSpec, prepared: _PreparedGrid, eps_sq: Sequence[float],
                             phi_max: float, tol: float, max_iter: int, estimate: bool):
    """Yield ``(values, max_principle, error_estimate, solves)`` per eps^2 for r = 1.

    One solve on the output grid and, with ``estimate``, one on its half
    grid; both grids are prepared once for the whole sweep.
    """
    half = _PreparedGrid(p, _half_grid(prepared.grid)) if estimate else None
    for eps2 in eps_sq:
        field, stats = prepared.solve(eps2, tol=tol, max_iter=max_iter)
        est = float("nan")
        if half is not None:
            coarse, _ = half.solve(eps2, tol=tol, max_iter=max_iter)
            est = _self_convergence(field.values, coarse.values)
            del coarse
        yield (field.values, _max_principle(field, phi_max, prepared.sup_f, eps2), est,
               [_solve_record(field, stats)])
        del field  # before the next solve


def _refined_references(p: ProblemSpec, grid: Grid2D, r: int, eps_sq: Sequence[float],
                        phi_max: float, tol: float, max_iter: int, estimate: bool):
    """Yield ``(values, max_principle, error_estimate, solves)`` per eps^2 for r > 1.

    The values are the y-Richardson extrapolation of the levels r and r/2
    (module docstring); the max-principle check covers the finest solve, the
    estimate is NaN unless requested, and ``solves`` records the two solves
    the values come from.  Each grid level is prepared once and solved for
    every eps^2 before the next one is prepared, finest first, and only the
    output rows of each solve are kept.
    """
    if estimate and grid.n_x % 2:
        raise ValueError("reference error estimate needs an even n_x")
    levels = [(grid.n_x, r), (grid.n_x, r // 2)]
    if estimate:
        if r >= 4:
            levels.append((grid.n_x, r // 4))
        levels.append((grid.n_x // 2, max(r // 4, 1)))
    rows = []
    mp = []
    solves = [[] for _ in eps_sq]
    for n_x, level in levels:
        prepared = _PreparedGrid(p, Grid2D(n_x=n_x, n_y=grid.n_y * level))
        kept = []
        for i, eps2 in enumerate(eps_sq):
            field, stats = prepared.solve(eps2, tol=tol, max_iter=max_iter)
            kept.append(field.values[:, ::level].copy())
            if level == r:
                mp.append(_max_principle(field, phi_max, prepared.sup_f, eps2))
            if n_x == grid.n_x and level >= r // 2:
                solves[i].append(_solve_record(field, stats))
            del field
        rows.append(kept)
        del prepared
    for i in range(len(eps_sq)):
        u_r, u_half = rows[0][i], rows[1][i]
        ref = (4.0 * u_r - u_half) / 3.0
        est = float("nan")
        if estimate:
            if r >= 4:
                coarsest = rows[2][i]
                est_y = float(np.max(np.abs(ref - (4.0 * u_half - coarsest) / 3.0))) / 15.0
            else:
                coarsest = u_half
                est_y = float(np.max(np.abs(u_r - u_half))) / 3.0
            est_x = float(np.max(np.abs(rows[-1][i] - _restrict_x(coarsest)))) / 3.0
            est = est_y + est_x
        for kept in rows:
            kept[i] = None
        yield ref, mp[i], est, solves[i]


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

    The eps-free work runs once per sweep, whatever the number of eps^2
    values: the expansion's decomposition, mean profile, boundary series and
    force coefficients, and the sampling of f, phi0 and phi1 with the
    right-hand side of each grid solved (module docstring).  Each value
    equals, bit for bit, what one ``solve_fd`` and one ``composite`` per
    eps^2 give.

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
    eps_values = [math.sqrt(e2) for e2 in eps2]
    eps_sq = [e**2 for e in eps_values]  # what a solve of p.with_eps(e) squares
    xs = grid.x_nodes()
    ys = grid.y_nodes()

    # once per sweep: the expansion base with its force coefficients at the
    # output rows, and the output grid's samples of the data
    approxes = [[] for _ in eps_values]
    raw = []
    if orders:
        for e in eps_values:
            _check_eps(e)
        base = _ExpansionBase(p, orders[-1], n_modes, quad_points)
        approxes = [[ExpansionResult(base, e, n) for n in orders] for e in eps_values]
        raw = base.force_coeffs(ys)
    prepared = _PreparedGrid(p, grid)
    phi_max = _phi_max(prepared)
    wanted = 1
    if refine == "auto":
        bounds = [_bound(phi_max, prepared.sup_f, e2) for e2 in eps_sq]
        wanted = _layer_refinement(approxes, eps_values, bounds, grid, tol)
    r = wanted
    while r > 1 and grid.n_x * (grid.n_y * r - 1) > MAX_REFERENCE_UNKNOWNS:
        r //= 2
    capped = r < wanted
    if r == 1:
        references = _single_solve_references(p, prepared, eps_sq, phi_max, tol, max_iter,
                                              estimate_fd_error)
    else:
        del prepared
        references = _refined_references(p, grid, r, eps_sq, phi_max, tol, max_iter,
                                         estimate_fd_error)

    norms = {n: [] for n in orders}
    dirichlet = {n: [] for n in orders}
    estimates = []
    mp_results = []
    solves = []
    for row in approxes:
        # not zip(references, ...): zip would hold the last tuple into the next solve
        ref, mp, estimate, eps_solves = next(references)
        mp_results.append(mp)
        estimates.append(estimate)
        solves.append(eps_solves)
        for n, approx in zip(orders, row):
            diff = np.abs(ref - approx._grid_values(xs, ys, raw))
            norms[n].append(float(np.max(diff[:, 1:-1])))
            dirichlet[n].append(float(max(np.max(diff[:, 0]), np.max(diff[:, -1]))))
            del diff
        del ref  # before the next solve

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
