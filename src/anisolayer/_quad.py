"""Composite-Simpson helpers shared across modules.

All 1-D means and transforms in this package integrate smooth functions on
[0, 1] with composite Simpson on ``quad_points + 1`` uniform nodes, which is
O(quad_points^-4) accurate.  Cumulative integrals on the same nodes come
from ``cumulative_simpson`` and are read between the nodes by the cubic
Hermite interpolant ``hermite``, fed the integrand as the derivative table;
both are plain numpy, so the package needs neither ``scipy.integrate`` nor
``scipy.interpolate``.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteValue


def require_even(quad_points: int) -> int:
    """Validate a Simpson resolution: at least 8 and even."""
    n = int(quad_points)
    if n < 8:
        raise ValueError(f"quad_points must be >= 8, got {n}")
    if n % 2:
        raise ValueError(f"composite Simpson needs an even interval count, got {n}")
    return n


def simpson_weights(quad_points: int) -> np.ndarray:
    """Weights w such that sum(w * g(nodes)) approximates the integral on [0, 1].

    Nodes are ``numpy.linspace(0, 1, quad_points + 1)``; the spacing is folded
    into the weights.
    """
    n = require_even(quad_points)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * n)


def unit_nodes(quad_points: int) -> np.ndarray:
    """Uniform Simpson nodes on [0, 1]."""
    return np.linspace(0.0, 1.0, require_even(quad_points) + 1)


def check_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Raise NonFiniteValue if any entry is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{what} produced a non-finite value")
    return values


def cumulative_simpson(values) -> np.ndarray:
    """Integrals from 0 to every node of samples on ``unit_nodes(n)``.

    Each interval is integrated by the quadratic through its Simpson pair,
    h/12 (5 f_i + 8 f_{i+1} - f_{i+2}) for the first interval of the pair and
    h/12 (-f_i + 8 f_{i+1} + 5 f_{i+2}) for the second, the rule of
    ``scipy.integrate.cumulative_simpson`` on a uniform grid.  The result has
    the shape of ``values`` and starts at 0; its last entry is the composite
    Simpson integral.
    """
    f = np.asarray(values, dtype=float)
    n = require_even(f.shape[0] - 1)
    left, mid, right = f[0:-2:2], f[1:-1:2], f[2::2]
    steps = np.empty_like(f[1:])
    steps[0::2] = 5.0 * left + 8.0 * mid - right
    steps[1::2] = 8.0 * mid + 5.0 * right - left
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(steps / (12.0 * n), out=out[1:])
    return out


def hermite(values: np.ndarray, slopes: np.ndarray, x):
    """Cubic Hermite interpolant at x of a table on ``unit_nodes(n)``.

    ``values`` and ``slopes`` hold a function and its derivative at the
    n + 1 nodes.  The interpolant reproduces the table at every node, 1
    included, is fourth-order accurate in between and extends the end cubics
    outside [0, 1]; a NaN x gives NaN.  A 0-d result is returned as a float.
    """
    n = values.shape[0] - 1
    s = np.asarray(x, dtype=float) * n
    # fmax/fmin map NaN to a valid cell; t stays NaN and so does the result
    cell = np.fmin(np.fmax(np.floor(s), 0.0), n - 1.0)
    t = s - cell
    i = cell.astype(np.intp)
    u = 1.0 - t
    out = ((1.0 + 2.0 * t) * u * u * values[i] + t * t * (3.0 - 2.0 * t) * values[i + 1]
           + (t * u * u * slopes[i] - t * t * u * slopes[i + 1]) / n)
    return out if out.ndim else float(out)
