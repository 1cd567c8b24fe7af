"""Composite boundary-layer approximations of the anisotropic solution.

For small eps the solution splits into a mean profile in y, an outer
fluctuation correction, and two exponential boundary layers of width O(eps)
hugging the Dirichlet sides y = 0 and y = 1.  The order-2n uniform
approximation assembled here is

    u[2n](x, y) = ubar(y)
        + sum_k (b_k e^{-k pi y/eps} + t_k e^{-k pi (1-y)/eps}) cos(k pi x)
        + sum_{m=1..n} eps^{2m} sum_k [ g_{m,k}(y)
              - g_{m,k}(0) e^{-k pi y/eps}
              - g_{m,k}(1) e^{-k pi (1-y)/eps} ] / (k pi)^{2m} cos(k pi x),

where ubar solves -ubar'' = fbar with the mean Dirichlet values, b_k and t_k
are the cosine coefficients of the boundary-data fluctuations, and g_{m,k}(y)
is the k-th cosine coefficient of the (2m-2)-nd y-derivative of the force
fluctuation.  Only even powers of eps appear: the odd outer terms vanish
identically, which the construction encodes by building prefactors from
eps^2 alone.

Series are truncated at K modes; the truncation is reported through the
stored coefficient arrays so callers can judge the tails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._quad import (check_finite, cumulative_simpson, hermite, require_even,
                    simpson_weights, unit_nodes)
from .errors import MissingDerivatives
from .problem import DEFAULT_QUAD_POINTS, DecomposedProblem, ProblemSpec, decompose
from .spectral import (
    DEFAULT_MODES,
    CosineSeries,
    analyze,
    cosine_coeffs,
    mode_numbers,
    synthesize,
)

EPS_WARN_THRESHOLD = 0.5
EPS_MAX = 1.0
# y-columns per force sample array; bounds the memory of an evaluation at
# many scattered points to (quad_points + 1) x _Y_BLOCK samples
_Y_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class MeanSolution:
    """Closed-form solution of -ubar'' = fbar with Dirichlet means at the ends.

    ubar(y) = y (I - phibar0 + phibar1) - H(y) + phibar0, where
    H(y) = integral_0^y integral_0^z fbar(t) dt dz and I = H(1).  H and its
    derivative, the inner integral, are tabulated by nested cumulative
    Simpson on the Simpson nodes; H is read between them by the cubic
    Hermite interpolant of the two tables, which is exact at the nodes and
    fourth-order in between.
    """

    phibar0: float
    phibar1: float
    double_integral: float
    _outer: np.ndarray
    _inner: np.ndarray

    def __call__(self, y):
        y_arr = np.asarray(y, dtype=float)
        out = (y_arr * (self.double_integral - self.phibar0 + self.phibar1)
               - hermite(self._outer, self._inner, y_arr) + self.phibar0)
        return out if y_arr.ndim else float(out)


def mean_solution(d: DecomposedProblem,
                  quad_points: int = DEFAULT_QUAD_POINTS) -> MeanSolution:
    """Build the mean profile from the closed-form double integral."""
    yq = unit_nodes(quad_points)
    inner = cumulative_simpson(check_finite(d.fbar(yq), "fbar"))
    outer = cumulative_simpson(inner)
    return MeanSolution(
        phibar0=d.phibar0,
        phibar1=d.phibar1,
        double_integral=float(outer[-1]),
        _outer=outer,
        _inner=inner,
    )


def mean_solution_bvp(d: DecomposedProblem, n_cells: int) -> np.ndarray:
    """Mean profile by the three-point scheme and a banded Cholesky solve.

    Independent second-order oracle for :func:`mean_solution`: solves
    -u'' = fbar on ``n_cells + 1`` uniform nodes with u(0) = phibar0,
    u(1) = phibar1 and returns the nodal values.
    """
    from scipy.linalg import solveh_banded

    m = int(n_cells)
    if m < 4:
        raise ValueError(f"n_cells must be >= 4, got {m}")
    dy = 1.0 / m
    y = np.linspace(0.0, 1.0, m + 1)
    rhs = check_finite(d.fbar(y[1:-1]), "fbar") * dy * dy
    rhs[0] += d.phibar0
    rhs[-1] += d.phibar1
    # the symmetric positive definite (2, -1) matrix in upper banded form
    bands = np.array([np.full(m - 1, -1.0), np.full(m - 1, 2.0)])

    out = np.empty(m + 1)
    out[0] = d.phibar0
    out[-1] = d.phibar1
    out[1:-1] = solveh_banded(bands, rhs)
    return out


@dataclass(frozen=True)
class LayerTerm:
    """One exponential boundary layer sum_k c_k e^{-k pi s/eps} cos(k pi x).

    The stretched depth s is y for the bottom layer and 1 - y for the top
    layer; at s = 0 the term reproduces its data series, and it decays to
    zero with rate k pi in s/eps.
    """

    side: str
    series: CosineSeries
    eps: float

    def __post_init__(self) -> None:
        if self.side not in ("bottom", "top"):
            raise ValueError(f"side must be 'bottom' or 'top', got {self.side!r}")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")

    def coeffs(self, y) -> np.ndarray:
        """Damped coefficients c_k e^{-k pi s/eps}, shape (K,) + y.shape."""
        y_arr = np.asarray(y, dtype=float)
        s = y_arr if self.side == "bottom" else 1.0 - y_arr
        c = self.series.coeffs.reshape((-1,) + (1,) * s.ndim)
        # exp underflows to exact zeros, silently under numpy's default
        # under='ignore', past a depth of about 745 eps / (k pi)
        return c * np.exp(-np.pi * np.multiply.outer(mode_numbers(c.shape[0]), s) / self.eps)

    def __call__(self, x, y):
        """The layer at (x, y); x and y broadcast elementwise."""
        return synthesize(self.coeffs(y), x)


class _ExpansionBase:
    """The eps-free part of every u[2n] of one problem, K and quadrature.

    Holds the mean profile, the boundary-data series and the force sources
    of the orders up to ``order``, with the raw cosine coefficients of each
    source at y = 0 and 1.  An ``ExpansionResult`` is assembled from it for
    any eps and any order up to ``order`` by the prefactors
    eps^{2m} / (k pi)^{2m} alone.
    """

    def __init__(self, p: ProblemSpec, order: int, n_modes: int, quad_points: int):
        needed = 2 * order - 2
        if needed > 0 and len(p.f_y_derivs) < needed:
            raise MissingDerivatives(
                f"order {order} needs analytic y-derivatives of f up to order {needed}; "
                f"got {len(p.f_y_derivs)}"
            )
        self.n_modes = int(n_modes)
        self.quad_points = require_even(quad_points)
        d = decompose(p, self.quad_points)
        self.mean = mean_solution(d, self.quad_points)
        self.bottom_series = cosine_coeffs(d.phitilde0, self.n_modes, self.quad_points)
        self.top_series = cosine_coeffs(d.phitilde1, self.n_modes, self.quad_points)
        # the m-th correction's source: the (2m-2)-nd y-derivative of f
        self.sources = [p.f if m == 1 else p.f_y_derivs[2 * m - 3]
                        for m in range(1, int(order) + 1)]
        self.end_coeffs = self.force_coeffs(np.array([0.0, 1.0]))

    def force_coeffs(self, y) -> list:
        """Raw cosine coefficients, shape (K, y.size), of the force fluctuation
        sources of orders 1..``order`` at each y.

        The sources are sampled on at most ``_Y_BLOCK`` y-columns at a time.
        """
        y = np.asarray(y, dtype=float).ravel()
        xq = unit_nodes(self.quad_points)
        w = simpson_weights(self.quad_points)
        out = [np.empty((self.n_modes, y.size)) for _ in self.sources]
        # near-equal blocks: none is a single column unless y is
        n_blocks = -(-y.size // _Y_BLOCK)
        edges = [y.size * i // n_blocks for i in range(n_blocks + 1)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            for coeffs, source in zip(out, self.sources):
                vals = check_finite(source(xq[:, None], y[None, lo:hi]), "force derivative")
                vals = vals - (w @ vals)[None, :]  # keep zero x-mean exactly
                coeffs[:, lo:hi] = analyze(vals, self.n_modes)
        return out


class ExpansionResult:
    """Evaluable composite approximation u[2n] with its constituent parts.

    Every value comes from one evaluator, ``_values``: the mean profile plus
    one cosine synthesis of the summed coefficients of the even outer
    corrections (``outer_part``, identically zero at order 0) and of the
    ``bottom_layer`` and ``top_layer`` (``LayerTerm``s over the layer
    amplitudes).  ``__call__`` broadcasts x and y elementwise;
    ``evaluate_grid`` fills a tensor grid.
    """

    def __init__(self, base: _ExpansionBase, eps: float, order: int):
        self.order = int(order)
        self.eps = float(eps)
        self.n_modes = base.n_modes
        self.mean = base.mean
        self.bottom_series = base.bottom_series
        self.top_series = base.top_series
        self._base = base

        # eps^{2m} / (k pi)^{2m} prefactors of the even correction terms
        k = mode_numbers(self.n_modes)
        self._prefactors = [(self.eps ** (2 * m)) / (np.pi * k) ** (2 * m)
                            for m in range(1, self.order + 1)]

        # each layer cancels the outer corrections on its own Dirichlet side
        ends = self._outer_from(base.end_coeffs, (2,))
        bottom_amp = self.bottom_series.coeffs - ends[:, 0]
        top_amp = self.top_series.coeffs - ends[:, 1]
        self.bottom_layer = LayerTerm("bottom", CosineSeries(bottom_amp), self.eps)
        self.top_layer = LayerTerm("top", CosineSeries(top_amp), self.eps)

    def _outer_from(self, raw: list, shape: tuple) -> np.ndarray:
        """Cosine coefficients, shape (K,) + ``shape``, of the even outer
        corrections from the raw force coefficients ``raw`` at y of that
        shape (``_ExpansionBase.force_coeffs``).

        The m-th correction is eps^{2m} / (k pi)^{2m} times the coefficients
        of the (2m-2)-nd y-derivative of ftilde.
        """
        c = np.zeros((self.n_modes, int(np.prod(shape))))
        for prefactor, coeffs in zip(self._prefactors, raw):
            c += prefactor[:, None] * coeffs
        return c.reshape((self.n_modes,) + tuple(shape))

    def _values(self, x, y, raw: list):
        """u[2n](x, y), x and y broadcast elementwise, from the raw force
        coefficients ``raw`` at y (``_ExpansionBase.force_coeffs``), which
        every eps and order of the base may share: the mean profile plus one
        synthesis of the summed outer and layer coefficients."""
        y = np.asarray(y, dtype=float)
        out = synthesize(self._outer_from(raw, y.shape) + self.bottom_layer.coeffs(y)
                         + self.top_layer.coeffs(y), x)
        out += self.mean(y)  # in place: no second grid-sized array
        return out

    def outer_part(self, x, y):
        """Even outer corrections; identically zero at order 0."""
        y = np.asarray(y, dtype=float)
        return synthesize(self._outer_from(self._base.force_coeffs(y), y.shape), x)

    def __call__(self, x, y):
        """u[2n](x, y); x and y broadcast elementwise."""
        return self._values(x, y, self._base.force_coeffs(y))

    def evaluate_grid(self, xs, ys) -> np.ndarray:
        """Values on the tensor grid, shape (len(xs), len(ys))."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return self._values(xs[:, None], ys, self._base.force_coeffs(ys))


def composite(p: ProblemSpec, order: int = 0, n_modes: int = DEFAULT_MODES,
              quad_points: int = DEFAULT_QUAD_POINTS) -> ExpansionResult:
    """Assemble the composite approximation u[2n] for n = ``order``.

    Args:
        p: problem instance; orders >= 2 require ``p.f_y_derivs`` up to the
            (2 order - 2)-nd derivative.
        order: number of even correction terms n; the approximation error is
            O(eps^{2(n+1)}).
        n_modes: cosine-series truncation K.
        quad_points: Simpson resolution for all means and coefficients.

    Raises:
        MissingDerivatives: order >= 2 without enough analytic derivatives.
        ValueError: eps > 1, where the expansion is meaningless.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    _check_eps(p.eps)
    return ExpansionResult(_ExpansionBase(p, order, n_modes, quad_points), p.eps, order)


def _check_eps(eps: float) -> None:
    """Refuse eps > EPS_MAX and warn above EPS_WARN_THRESHOLD, for composite's caller."""
    if eps > EPS_MAX:
        raise ValueError(f"eps = {eps} > {EPS_MAX}: expansion not applicable")
    if eps > EPS_WARN_THRESHOLD:
        warnings.warn(
            f"eps = {eps} > {EPS_WARN_THRESHOLD}: boundary layers overlap and "
            "the expansion loses accuracy",
            stacklevel=3,
        )
