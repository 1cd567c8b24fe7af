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
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from ._quad import check_finite, require_even, simpson_weights, unit_nodes
from .errors import MissingDerivatives
from .problem import DEFAULT_QUAD_POINTS, DecomposedProblem, ProblemSpec, decompose
from .spectral import (
    DEFAULT_MODES,
    CosineSeries,
    analyze,
    cosine_coeffs,
    decaying_exp,
    mode_numbers,
    synthesize,
)

EPS_WARN_THRESHOLD = 0.5
EPS_MAX = 1.0


@dataclass(frozen=True)
class MeanSolution:
    """Closed-form solution of -ubar'' = fbar with Dirichlet means at the ends.

    ubar(y) = y (I - phibar0 + phibar1) - H(y) + phibar0, where
    H(y) = integral_0^y integral_0^z fbar(t) dt dz and I = H(1).  H is
    tabulated by nested cumulative Simpson and interpolated by a cubic
    spline, which is exact at grid nodes and fourth-order in between.
    """

    phibar0: float
    phibar1: float
    double_integral: float
    _spline: CubicSpline

    def __call__(self, y):
        y_arr = np.asarray(y, dtype=float)
        out = (y_arr * (self.double_integral - self.phibar0 + self.phibar1)
               - self._spline(y_arr) + self.phibar0)
        return out if y_arr.ndim else float(out)


def mean_solution(d: DecomposedProblem,
                  quad_points: int = DEFAULT_QUAD_POINTS) -> MeanSolution:
    """Build the mean profile from the closed-form double integral."""
    n = require_even(quad_points)
    yq = unit_nodes(n)
    fbar_vals = check_finite(d.fbar(yq), "fbar")
    inner = cumulative_simpson(fbar_vals, x=yq, initial=0.0)
    outer = cumulative_simpson(inner, x=yq, initial=0.0)
    return MeanSolution(
        phibar0=d.phibar0,
        phibar1=d.phibar1,
        double_integral=float(outer[-1]),
        _spline=CubicSpline(yq, outer),
    )


def mean_solution_bvp(d: DecomposedProblem, n_cells: int) -> np.ndarray:
    """Mean profile by the three-point scheme and a Thomas solve.

    Independent second-order oracle for :func:`mean_solution`: solves
    -u'' = fbar on ``n_cells + 1`` uniform nodes with u(0) = phibar0,
    u(1) = phibar1 and returns the nodal values.
    """
    m = int(n_cells)
    if m < 4:
        raise ValueError(f"n_cells must be >= 4, got {m}")
    dy = 1.0 / m
    y = np.linspace(0.0, 1.0, m + 1)
    rhs = check_finite(d.fbar(y[1:-1]), "fbar") * dy * dy
    rhs[0] += d.phibar0
    rhs[-1] += d.phibar1

    # Thomas algorithm for the (2, -1) tridiagonal system
    k = m - 1
    c_prime = np.empty(k - 1)
    d_prime = np.empty(k)
    c_prime[0] = -1.0 / 2.0
    d_prime[0] = rhs[0] / 2.0
    for j in range(1, k):
        denom = 2.0 + c_prime[j - 1]
        if j < k - 1:
            c_prime[j] = -1.0 / denom
        d_prime[j] = (rhs[j] + d_prime[j - 1]) / denom
    interior = np.empty(k)
    interior[-1] = d_prime[-1]
    for j in range(k - 2, -1, -1):
        interior[j] = d_prime[j] - c_prime[j] * interior[j + 1]

    out = np.empty(m + 1)
    out[0] = d.phibar0
    out[-1] = d.phibar1
    out[1:-1] = interior
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

    @property
    def decay_rates(self) -> np.ndarray:
        """Decay rate k pi per mode in the stretched coordinate."""
        return np.pi * mode_numbers(self.series.n_modes)

    def coeffs(self, y) -> np.ndarray:
        """Damped coefficients c_k e^{-k pi s/eps}, shape (K,) + y.shape."""
        y_arr = np.asarray(y, dtype=float)
        s = y_arr if self.side == "bottom" else 1.0 - y_arr
        c = self.series.coeffs.reshape((-1,) + (1,) * s.ndim)
        return c * decaying_exp(-np.pi * np.multiply.outer(mode_numbers(c.shape[0]), s)
                                / self.eps)

    def __call__(self, x, y):
        """The layer at (x, y); x and y broadcast elementwise."""
        return synthesize(self.coeffs(y), x)


def layer_term(series: CosineSeries, side: str, eps: float) -> LayerTerm:
    """Wrap a data series as a decaying boundary-layer evaluator."""
    return LayerTerm(side=side, series=series, eps=eps)


class ExpansionResult:
    """Evaluable composite approximation u[2n] with its constituent parts.

    The evaluator is, by construction, the exact sum of four component
    evaluators: ``mean_part`` (the y-only profile), ``outer_part`` (the even
    outer corrections, identically zero at order 0), ``bottom_layer`` and
    ``top_layer`` (``LayerTerm``s over the layer amplitudes).  Evaluation is
    vectorized; ``evaluate_grid`` fills a full tensor grid with one cosine
    synthesis of the summed coefficients.
    """

    def __init__(self, p: ProblemSpec, order: int, n_modes: int, quad_points: int):
        self.order = int(order)
        self.eps = float(p.eps)
        self.n_modes = int(n_modes)
        self.quad_points = require_even(quad_points)

        d = decompose(p, self.quad_points)
        self.decomposed = d
        self.mean = mean_solution(d, self.quad_points)
        self.bottom_series = cosine_coeffs(d.phitilde0, self.n_modes, self.quad_points)
        self.top_series = cosine_coeffs(d.phitilde1, self.n_modes, self.quad_points)

        # force-fluctuation derivative sources, one per even correction term,
        # and their eps^{2m} / (k pi)^{2m} prefactors
        k = mode_numbers(self.n_modes)
        self._sources = []
        self._prefactors = []
        for m in range(1, self.order + 1):
            j = 2 * m - 2
            self._sources.append(p.f if j == 0 else p.f_y_derivs[j - 1])
            self._prefactors.append((self.eps ** (2 * m)) / (np.pi * k) ** (2 * m))

        # each layer cancels the outer corrections on its own Dirichlet side
        ends = self._outer_coeffs(np.array([0.0, 1.0]))
        bottom_amp = self.bottom_series.coeffs - ends[:, 0]
        top_amp = self.top_series.coeffs - ends[:, 1]
        self.bottom_layer = LayerTerm("bottom", CosineSeries(bottom_amp), self.eps)
        self.top_layer = LayerTerm("top", CosineSeries(top_amp), self.eps)

    def _outer_coeffs(self, y) -> np.ndarray:
        """Cosine coefficients of the even outer corrections, shape (K,) + y.shape.

        The m-th correction is eps^{2m} / (k pi)^{2m} times the coefficients
        of the (2m-2)-nd y-derivative of ftilde at each y.
        """
        y = np.asarray(y, dtype=float)
        xq = unit_nodes(self.quad_points)
        w = simpson_weights(self.quad_points)
        c = np.zeros((self.n_modes, y.size))
        for source, prefactor in zip(self._sources, self._prefactors):
            vals = check_finite(source(xq[:, None], y.reshape(1, -1)), "force derivative")
            vals = vals - (w @ vals)[None, :]  # keep zero x-mean exactly
            c += prefactor[:, None] * analyze(vals, self.n_modes)
        return c.reshape((self.n_modes,) + y.shape)

    def layer_amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode amplitudes (k = 1..K) of the bottom and top layers."""
        return self.bottom_layer.series.coeffs.copy(), self.top_layer.series.coeffs.copy()

    def mean_part(self, x, y):
        """Mean profile, broadcast over x."""
        m = np.asarray(self.mean(y), dtype=float)
        shape = np.broadcast_shapes(np.shape(x), m.shape)
        out = np.broadcast_to(m, shape)
        return out.copy() if out.ndim else float(out)

    def outer_part(self, x, y):
        """Even outer corrections; identically zero at order 0."""
        return synthesize(self._outer_coeffs(y), x)

    def __call__(self, x, y):
        """u[2n](x, y); x and y broadcast elementwise."""
        return (self.mean_part(x, y) + self.outer_part(x, y)
                + self.bottom_layer(x, y) + self.top_layer(x, y))

    def evaluate_grid(self, xs, ys) -> np.ndarray:
        """Values on the tensor grid, shape (len(xs), len(ys))."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        coeffs = self._outer_coeffs(ys) + self.bottom_layer.coeffs(ys) + self.top_layer.coeffs(ys)
        return self.mean(ys)[None, :] + synthesize(coeffs, xs[:, None])


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
    if p.eps > EPS_MAX:
        raise ValueError(f"eps = {p.eps} > {EPS_MAX}: expansion not applicable")
    if p.eps > EPS_WARN_THRESHOLD:
        warnings.warn(
            f"eps = {p.eps} > {EPS_WARN_THRESHOLD}: boundary layers overlap and "
            "the expansion loses accuracy",
            stacklevel=2,
        )
    needed = 2 * order - 2
    if needed > 0 and len(p.f_y_derivs) < needed:
        raise MissingDerivatives(
            f"order {order} needs analytic y-derivatives of f up to order {needed}; "
            f"got {len(p.f_y_derivs)}"
        )
    return ExpansionResult(p, order=order, n_modes=n_modes, quad_points=quad_points)
