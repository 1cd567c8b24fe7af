"""Remainder measurement, convergence-order fits and analytic bound checks.

Given a problem family, a grid and a list of eps^2 values, the remainder
report pits every requested composite approximation against a finite-
difference reference solution and records the discrete sup-norm of the
difference, a least-squares order fit in log10-log10 coordinates, and a
per-solve maximum principle check.

The reference must resolve the O(eps) boundary layers, which a five-point
solve on the output grid alone often does not.  ``refine=1`` takes that
solve anyway.  ``refine="auto"`` takes the layer-exact fitted scheme of
fdsolver instead, whose y-stencil is exact on every layer e^{+-c_k y}
whatever dy and whose Numerov-weighted forcing makes it fourth order in y:
one solve on the output grid.

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
would pollute.  For ``refine=1`` the estimate is the coarse-grid Richardson
estimate of fd_self_convergence_estimate.  For ``"auto"`` it is the sum of
an x-part, a second-order Richardson estimate from a fitted solve with half
the x- and y-cells against the fitted solve at n_y / 2, and a y-part, the
fourth-order Richardson estimate |u(n_y) - u(n_y / 2)| / 15 on the n_y / 2
rows.  Both estimates solve the same half grid, n_x / 2 by n_y / 2 cells,
and are null where it does not exist: unless n_x and n_y are both even and
at least 4.

Only the divisions by eps depend on eps, so a sweep does the rest once.  One
expansion base (the decomposition, the mean profile, the boundary-data
series and the raw force coefficients at y = 0, 1 and at the output rows)
serves every composite, each assembled from it by its eps prefactors.  The
output grid and the half grid are sampled once (``fdsolver._sample``), and
for ``"auto"`` the y-level n_y / 2 of the estimate takes every second row of
the output grid's samples.  Phi and sup|f| of the maximum-principle bound are
taken once, from the output grid's samples.  Eps by eps, the output grid is
solved, then for ``"auto"`` the y-level n_y / 2, then the half grid.  A
five-point grid transforms its right-hand side forward once, at its first
solve, so under ``refine=1`` a solve for one eps^2 runs only the division,
the two inverse transforms and the residual certificate.  The report keeps
one ``SolveStats`` per eps^2, that of the output grid's solve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import IO, Literal, Sequence

import numpy as np

from .errors import InsufficientPoints, NonPositiveNorm
# composite stays importable from here: perfbench's tracer wraps it by this name
from .expansion import ExpansionResult, _check_eps, _ExpansionBase, composite  # noqa: F401
from .fdsolver import (CSV_FLOAT_FORMAT, DEFAULT_TOL, Field2D, Grid2D, _PreparedGrid,
                       _sample, dct, idct, solve_fd)
from .problem import DEFAULT_QUAD_POINTS, DecomposedProblem, ProblemSpec
from .spectral import DEFAULT_MODES, AntiderivativeStack, analyze, mode_numbers

MAX_PRINCIPLE_SLACK = 1e-8
FD_ERROR_MARGIN = 10.0


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
    """Per-eps^2 remainder norms with order fits and pollution flags.

    ``argmax[n][i]`` is the node ``[x, y]`` where the norm of order n at the
    i-th eps^2 is reached.  ``tail_magnitudes`` holds |c_K| of the bottom
    and top boundary-data series and, per correction m = 1..max(orders), the
    largest |c_K| of the m-th force source's series over the output rows.
    ``scheme`` names the reference's scheme, ``"five-point"`` or ``"fitted"``.
    """

    eps2: list
    orders: list
    norms: dict
    slopes: dict
    fd_error_estimates: list
    flagged: dict
    max_principle: list
    grid: Grid2D
    n_modes: int
    scheme: str
    dirichlet_errors: dict
    reference_solves: list
    argmax: dict
    tail_magnitudes: dict

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
            # a solve statistic that overflowed is null, as a missing estimate is
            "reference": {
                "scheme": self.scheme,
                "solves": [{key: val if math.isfinite(val) else None
                            for key, val in asdict(stats).items()}
                           for stats in self.reference_solves],
            },
            "n_modes": self.n_modes,
            "solver_tol": DEFAULT_TOL,
            "eps2": list(self.eps2),
            "fd_error_estimates": list(self.fd_error_estimates),
            "flagged": {f"r{2 * n}": list(self.flagged[n]) for n in self.orders},
            "dirichlet_row_errors": {f"r{2 * n}": list(self.dirichlet_errors[n])
                                     for n in self.orders},
            "argmax": {f"r{2 * n}": list(self.argmax[n]) for n in self.orders},
            "tail_magnitudes": self.tail_magnitudes,
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
        NonPositiveNorm: a norm (or eps^2) is not strictly positive and
            finite: zero, negative, NaN or infinite.
    """
    if len(points) < 3:
        raise InsufficientPoints(f"order fit needs >= 3 points, got {len(points)}")
    eps2 = np.array([float(e) for e, _ in points])
    norms = np.array([float(v) for _, v in points])
    values = np.concatenate([eps2, norms])
    if not (np.all(values > 0.0) and np.all(np.isfinite(values))):
        raise NonPositiveNorm("order fit needs positive, finite eps^2 and norms")
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
    return _max_principle(u, *_bound_data(_sample(p, u.grid)), p.eps**2)


def _bound_data(prepared: _PreparedGrid) -> tuple[float, float]:
    """Phi, max(|phi0|, |phi1|) over the x-nodes, and sup|f| over every node,
    Dirichlet rows included, from the samples of ``prepared``."""
    phi_max = float(max(np.max(np.abs(prepared.bottom)), np.max(np.abs(prepared.top))))
    # max|f| without an |f| temporary; np.max keeps a NaN on the rows
    return phi_max, float(np.max([prepared.f.max(), -prepared.f.min()]))


def _max_principle(u: Field2D, phi_max: float, sup_f: float, eps2: float) -> MaxPrincipleResult:
    """The check of max_principle_check, given Phi and sup|f|."""
    # max|u| without an |u| temporary; the field's values are finite
    return MaxPrincipleResult(bound=phi_max + 0.5 * float(eps2 * sup_f),
                              max_abs=float(max(u.values.max(), -u.values.min())))


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


def fd_self_convergence_estimate(p: ProblemSpec, fine: Field2D) -> float:
    """Richardson estimate of the five-point solution's own error.

    Solves once more on the half-resolution grid, restricts the fine solution
    onto it (fine y-nodes contain the coarse ones; in x the first n_x / 2
    cosine modes are resampled, see ``_restrict_x``) and returns one third of
    the sup-norm difference, the second-order Richardson constant.
    """
    grid = fine.grid
    if not _has_half_grid(grid):
        raise ValueError(f"self-convergence estimate needs even cell counts of at least 4, "
                         f"got {grid.n_x}x{grid.n_y}")
    coarse, _ = solve_fd(p, Grid2D(n_x=grid.n_x // 2, n_y=grid.n_y // 2))
    return _self_convergence(fine.values[:, ::2], coarse.values)


def _self_convergence(rows: np.ndarray, coarse: np.ndarray) -> float:
    """The x-part of a Richardson estimate: ``rows`` holds a solution at the
    y-nodes of ``coarse``, a solve with half its x-cells."""
    return float(np.max(np.abs(_restrict_x(rows) - coarse)) / 3.0)


def _has_half_grid(grid: Grid2D) -> bool:
    """Whether ``grid`` has the half grid of a Richardson estimate: even cell
    counts of at least 4, so the half grid has 2 or more cells each way."""
    return grid.n_x % 2 == grid.n_y % 2 == 0 and min(grid.n_x, grid.n_y) >= 4


def _restrict_x(values: np.ndarray) -> np.ndarray:
    """Resample columns onto the staggered grid with half the x-cells.

    Keeps the first n_x / 2 cosine modes, which the coarse nodes carry
    exactly, so no interpolation error enters the Richardson difference.
    """
    half = values.shape[0] // 2
    coeffs = dct(values, type=2, axis=0, norm="ortho")[:half]
    coeffs /= math.sqrt(2.0)
    return idct(coeffs, type=2, axis=0, norm="ortho", overwrite_x=True)


def remainder_norms(p: ProblemSpec, eps2_list: Sequence[float], orders: Sequence[int],
                    grid: Grid2D, n_modes: int = DEFAULT_MODES,
                    quad_points: int = DEFAULT_QUAD_POINTS,
                    refine: Literal[1, "auto"] = "auto") -> ErrorReport:
    """Measure ||u_ref - u[2n]||_inf for every (eps^2, order) pair.

    One reference per eps^2 serves all orders, one solve on ``grid``:
    ``refine=1`` takes the five-point scheme, ``refine="auto"`` (the
    default) the layer-exact fitted scheme (module docstring); ``scheme``
    names it.

    The norms run over the solved rows 1..n_y - 1; the Dirichlet rows, where
    the reference equals the data, are reported as ``dirichlet_errors``.
    The expansion's cosine truncation error, which sits on those rows, is
    kept out of the norms only while dy >> eps / (K pi) (module docstring).
    ``fd_error_estimates`` estimate the error of the reference actually used,
    in x and y, or None without a half grid (module docstring), and
    ``flagged`` marks each cell whose estimate
    exceeds a tenth of its norm.  ``argmax`` holds the node where each norm
    is reached and ``tail_magnitudes`` the |c_K| of the boundary and force
    series (``ErrorReport``).  ``reference_solves`` holds, per eps^2, the
    ``SolveStats`` of the one solve the reference values come from.  Slopes
    come from a least-squares fit across the eps^2 values, which therefore
    must contain at least three strictly increasing positive entries.

    The eps-free work runs once per sweep, whatever the number of eps^2
    values: the expansion's decomposition, mean profile, boundary series and
    force coefficients, the sampling of f, phi0 and phi1 on the grids solved
    and the Phi and sup|f| of the maximum-principle bound (module docstring).
    Each value equals, bit for bit, what the same solves of freshly sampled
    grids, one ``composite`` and one ``max_principle_check`` per eps^2 give;
    for ``refine=1``, one ``solve_fd``.

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
    if not orders:
        raise ValueError("need at least one order")
    if orders[0] < 0:
        raise ValueError("orders must be nonnegative")
    if len(set(orders)) != len(orders):
        raise ValueError(f"orders must not repeat, got {orders}")
    if refine not in (1, "auto"):
        raise ValueError(f"refine must be 1 or 'auto', got {refine!r}")
    eps_values = [math.sqrt(e2) for e2 in eps2]
    eps_sq = [e**2 for e in eps_values]  # what a solve of p.with_eps(e) squares
    xs = grid.x_nodes()
    ys = grid.y_nodes()

    # once per sweep: the expansion base with its force coefficients at the
    # output rows, the samples of the grids solved and the bound data
    for e in eps_values:
        _check_eps(e)
    base = _ExpansionBase(p, orders[-1], n_modes, quad_points)
    approxes = [[ExpansionResult(base, e, n) for n in orders] for e in eps_values]
    raw = base.force_coeffs(ys)
    prepared = _sample(p, grid)
    phi_max, sup_f = _bound_data(prepared)
    fitted = refine == "auto"
    solve = _PreparedGrid.solve_fitted if fitted else _PreparedGrid.solve
    half = coarse = None
    if _has_half_grid(grid):
        half = _sample(p, Grid2D(n_x=grid.n_x // 2, n_y=grid.n_y // 2))
        coarse = prepared.coarsened() if fitted else None

    norms = {n: [] for n in orders}
    dirichlet = {n: [] for n in orders}
    argmax = {n: [] for n in orders}
    estimates = []
    mp_results = []
    solves = []
    for e2, row in zip(eps_sq, approxes):
        field, stats = solve(prepared, e2)
        mp_results.append(_max_principle(field, phi_max, sup_f, e2))
        solves.append(stats)
        ref = field.values
        estimate = None
        if half is not None:  # x-part at the n_y / 2 rows, then the y-part
            coarse_u = solve(coarse, e2)[0].values if fitted else ref[:, ::2]
            estimate = _self_convergence(coarse_u, solve(half, e2)[0].values)
            if fitted:
                estimate += float(np.max(np.abs(ref[:, ::2] - coarse_u))) / 15.0
            del coarse_u
        estimates.append(estimate)
        for n, approx in zip(orders, row):
            # |ref - u[2n]| in the expansion's memory: no second grid-sized array
            diff = approx._values(xs[:, None], ys, raw)
            np.abs(np.subtract(ref, diff, out=diff), out=diff)
            dirichlet[n].append(float(max(np.max(diff[:, 0]), np.max(diff[:, -1]))))
            # below every |difference|, the Dirichlet rows drop out of the
            # argmax, which then runs over the contiguous array, not a copy
            diff[:, 0] = diff[:, -1] = -1.0
            i, j = np.unravel_index(np.argmax(diff), diff.shape)
            norms[n].append(float(diff[i, j]))
            argmax[n].append([float(xs[i]), float(ys[j])])
            del diff
        del field, ref  # before the next solve

    flagged = {
        n: [est is not None and est > norms[n][i] / FD_ERROR_MARGIN
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
        scheme="fitted" if fitted else "five-point",
        dirichlet_errors=dirichlet,
        reference_solves=solves,
        argmax=argmax,
        tail_magnitudes={
            "bottom": base.bottom_series.tail_magnitude,
            "top": base.top_series.tail_magnitude,
            "force": [float(np.max(np.abs(c[-1]))) for c in raw],
        },
    )
