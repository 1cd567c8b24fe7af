"""Composite-Simpson helpers shared across modules.

All 1-D means and transforms in this package integrate smooth functions on
[0, 1] with composite Simpson on ``quad_points + 1`` uniform nodes, which is
O(quad_points^-4) accurate.
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
