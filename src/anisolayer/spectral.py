"""Fourier-cosine analysis on [0, 1] and repeated antiderivatives of the force.

Zero-mean smooth functions on [0, 1] are represented by truncated series
sum_k c_k cos(k pi x), k = 1..K; the k = 0 coefficient vanishes for zero-mean
data and is never stored.  The cosine basis is the natural one here because
it satisfies the Neumann side conditions of the model equation.  Every
cosine series of the expansion and of the matching-identity check goes
through the two kernels here: ``analyze`` (samples on the Simpson nodes ->
coefficients) and ``synthesize`` (coefficients -> values at any x).  The
fast transforms of grid values do not: the reference solve's DCT-II and
DST-I and the cosine restriction of its error estimate
(``validation._restrict_x``) call ``scipy.fft`` through ``fdsolver``'s
``dct``, ``idct``, ``dst`` and ``idst``, which import it at their first call.

The second half of the module builds the stack of repeated x-antiderivatives
F_0 = g, F_n(x, y) = integral_0^x F_{n-1}(z, y) dz of a zero-x-mean function
g, the expansion-independent oracle of the matching-identity check
(acceptance criterion 3); the expansion itself divides by (k pi)^2 instead.
The stack tabulates each F_n by cumulative Simpson on the Simpson nodes and
reads it between them by cubic Hermite interpolation from its own derivative
table F_{n-1} (``_quad``), never through the cosine series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._quad import (check_finite, cumulative_simpson, hermite, require_even,
                    simpson_weights, unit_nodes)
from .errors import IntegralConditionViolated, NotZeroMean
from .problem import DEFAULT_QUAD_POINTS, DecomposedProblem

DEFAULT_MODES = 64
ZERO_MEAN_TOL = 1e-8
INTEGRAL_CONDITION_TOL = 1e-7


@dataclass(frozen=True)
class CosineSeries:
    """Coefficients c_1..c_K of a zero-mean cosine series on [0, 1]."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D array")
        check_finite(c, "cosine coefficients")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    @property
    def tail_magnitude(self) -> float:
        """|c_K|, a cheap indicator of how sharp the truncation is."""
        return float(abs(self.coeffs[-1]))

    def __call__(self, x):
        return synthesize(self.coeffs, x)


def mode_numbers(n_modes: int) -> np.ndarray:
    return np.arange(1, n_modes + 1)


def analyze(values, n_modes: int) -> np.ndarray:
    """Cosine coefficients c_k = 2 integral_0^1 g(x) cos(k pi x) dx, k = 1..K.

    ``values`` holds g on the ``n + 1`` Simpson nodes ``unit_nodes(n)`` along
    axis 0 (n even); trailing axes are independent columns, so the result has
    shape ``(K,) + values.shape[1:]``.

    Raises:
        ValueError: K > n / 2, where mode k would alias onto mode n - k.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.shape[0] - 1
    if n_modes > n // 2:
        raise ValueError(f"{n_modes} cosine modes need at least {2 * n_modes} quadrature "
                         f"intervals, got {n}: mode k > {n // 2} aliases onto mode {n} - k")
    w = simpson_weights(n).reshape((-1,) + (1,) * (vals.ndim - 1))
    basis = np.cos(np.outer(mode_numbers(n_modes), np.pi * unit_nodes(n)))
    return 2.0 * np.tensordot(basis, w * vals, axes=1)


def synthesize(coeffs, x):
    """sum_k coeffs[k, ...] cos(k pi x), k = 1..K.

    ``x`` broadcasts against ``coeffs.shape[1:]``: a 1-D series evaluates at
    any x, a ``(K, P)`` matrix at P paired points x of shape ``(P,)``, and a
    ``(K, n_y)`` matrix on the tensor grid with ``x[:, None]``, giving
    ``(n_x, n_y)``.  A 0-d result is returned as a float.
    """
    c = np.asarray(coeffs, dtype=float)
    basis = np.cos(np.pi * np.multiply.outer(np.asarray(x, dtype=float),
                                             mode_numbers(c.shape[0])))
    # coefficients first, so a tensor-grid result comes out C-ordered
    out = np.einsum("k...,...k->...", c, basis, optimize=True)
    return out if out.ndim else float(out)


def cosine_coeffs(g, n_modes: int = DEFAULT_MODES,
                  quad_points: int = DEFAULT_QUAD_POINTS) -> CosineSeries:
    """Cosine coefficients c_k = 2 integral_0^1 g(x) cos(k pi x) dx, k = 1..K.

    Integrals use composite Simpson on ``quad_points + 1`` uniform nodes.

    Raises:
        NotZeroMean: |integral of g| exceeds 1e-8 under the same quadrature.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    n = require_even(quad_points)
    vals = check_finite(g(unit_nodes(n)), "series input")
    mean = float(simpson_weights(n) @ vals)
    if abs(mean) > ZERO_MEAN_TOL:
        raise NotZeroMean(f"input integrates to {mean:.3e}, expected 0")
    return CosineSeries(analyze(vals, n_modes))


@dataclass
class AntiderivativeStack:
    """Repeated x-antiderivatives F_0..F_3 of the fluctuating force.

    F_0(x, y) = ftilde(x, y) and F_n(x, y) = integral_0^x F_{n-1}(z, y) dz,
    computed by cumulative Simpson on a fixed x-grid for each requested y.
    Because ftilde has zero x-mean, F_1(1, y) must vanish; every column is
    checked and the stack refuses to proceed when the condition fails.
    Between the grid nodes F_n, n >= 1, is the cubic Hermite interpolant of
    the F_n column with the F_{n-1} column as its slopes, fourth-order
    accurate; F_0 is ftilde itself.
    """

    ftilde: object
    quad_points: int
    _x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.quad_points = require_even(self.quad_points)
        self._x = unit_nodes(self.quad_points)

    @property
    def x_grid(self) -> np.ndarray:
        return self._x

    def columns(self, y: float) -> tuple:
        """(F_0, F_1, F_2, F_3) at y, sampled on ``x_grid``."""
        y = float(y)
        f0 = check_finite(self.ftilde(self._x, y), "ftilde")
        f1 = cumulative_simpson(f0)
        if abs(f1[-1]) > INTEGRAL_CONDITION_TOL:
            raise IntegralConditionViolated(
                f"F_1(1, y={y:g}) = {f1[-1]:.3e} exceeds {INTEGRAL_CONDITION_TOL:g}; "
                "the force fluctuation does not integrate to zero over x"
            )
        f2 = cumulative_simpson(f1)
        f3 = cumulative_simpson(f2)
        return f0, f1, f2, f3

    def eval(self, n: int, x, y: float):
        """F_n(x, y) for n in 0..3; x scalar or array, y scalar."""
        if not 0 <= n <= 3:
            raise ValueError(f"antiderivative order must be 0..3, got {n}")
        if n == 0:
            out = self.ftilde(np.asarray(x, dtype=float), float(y))
            return out if np.ndim(out) else float(out)
        cols = self.columns(y)
        return hermite(cols[n], cols[n - 1], x)


def build_antiderivatives(d: DecomposedProblem,
                          quad_points: int = DEFAULT_QUAD_POINTS) -> AntiderivativeStack:
    """Antiderivative stack of the fluctuating force of a decomposed problem."""
    return AntiderivativeStack(ftilde=d.ftilde, quad_points=quad_points)
