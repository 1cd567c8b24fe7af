"""Problem instances and their mean/fluctuation decomposition.

The model equation on the unit square is

    -eps^-2 u_xx - u_yy = f(x, y),    u_x = 0 at x = 0, 1,
    u(x, 0) = phi0(x),  u(x, 1) = phi1(x),

with a small anisotropy parameter eps.  Splitting any function of x (or of x
at frozen y) into its mean over [0, 1] plus a zero-mean fluctuation is the
first step of every approximation built downstream: the mean obeys a 1-D
two-point problem in y, the fluctuation carries the boundary layers.

The Neumann sides also ask the Dirichlet data to be flat at x = 0, 1
(phi0' = phi1' = 0 there); ``check_compatibility`` measures those four slopes
with one fixed difference step, COMPAT_STEP, against one fixed tolerance,
COMPAT_TOL.

All callables are expected to be vectorized over numpy arrays, as the
built-in instances are.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import check_finite, require_even, simpson_weights, unit_nodes
from .errors import UnknownProblem

DEFAULT_QUAD_POINTS = 1024
COMPAT_STEP = 5e-6
COMPAT_TOL = 1e-8
DEFAULT_DERIV_TOL = 1e-4


@dataclass(frozen=True)
class ProblemSpec:
    """Force term, Dirichlet data and anisotropy parameter of one instance.

    Attributes:
        f: force term, callable of (x, y) on [0, 1]^2.
        phi0: Dirichlet data at y = 0, callable of x.
        phi1: Dirichlet data at y = 1, callable of x.
        eps: anisotropy parameter, > 0.
        f_y_derivs: optional analytic y-derivatives of f; entry j-1 is the
            j-th derivative.  Required by expansion orders that consume even
            y-derivatives of the force fluctuation; finite-difference
            substitutes are deliberately not generated.
    """

    f: Callable
    phi0: Callable
    phi1: Callable
    eps: float
    f_y_derivs: tuple = ()

    def __post_init__(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        object.__setattr__(self, "f_y_derivs", tuple(self.f_y_derivs))

    def with_eps(self, eps: float) -> "ProblemSpec":
        """Same data, different anisotropy parameter."""
        return dataclasses.replace(self, eps=eps)


@dataclass(frozen=True)
class DecomposedProblem:
    """Mean and fluctuation parts of a ProblemSpec.

    fbar(y) is the x-mean of the force, ftilde = f - fbar its zero-mean
    fluctuation; phibar0/phibar1 are the means of the boundary data and
    phitilde0/phitilde1 the fluctuations.  Means are composite-Simpson
    integrals on ``quad_points + 1`` uniform nodes.
    """

    fbar: Callable
    ftilde: Callable
    phibar0: float
    phibar1: float
    phitilde0: Callable
    phitilde1: Callable
    quad_points: int


@dataclass(frozen=True)
class CompatibilityReport:
    """Endpoint slopes of the Dirichlet data; ``passed`` when all four lie
    within COMPAT_TOL."""

    phi0_at_0: float
    phi0_at_1: float
    phi1_at_0: float
    phi1_at_1: float

    @property
    def passed(self) -> bool:
        return max(abs(self.phi0_at_0), abs(self.phi0_at_1),
                   abs(self.phi1_at_0), abs(self.phi1_at_1)) <= COMPAT_TOL


def decompose(p: ProblemSpec, quad_points: int = DEFAULT_QUAD_POINTS) -> DecomposedProblem:
    """Split a problem into x-means and zero-mean fluctuations.

    Args:
        p: problem instance.
        quad_points: Simpson interval count (even, >= 8).

    Returns:
        DecomposedProblem whose tilde parts integrate to zero over x up to
        the quadrature error.

    Raises:
        NonFiniteValue: f, phi0 or phi1 returned NaN/inf at a quadrature node.
    """
    n = require_even(quad_points)
    xq = unit_nodes(n)
    w = simpson_weights(n)

    phibar0 = float(w @ check_finite(p.phi0(xq), "phi0"))
    phibar1 = float(w @ check_finite(p.phi1(xq), "phi1"))

    f = p.f

    def fbar(y):
        y_arr = np.asarray(y, dtype=float)
        vals = check_finite(f(xq[:, None], y_arr.ravel()[None, :]), "f")
        out = w @ vals
        return out.reshape(y_arr.shape) if y_arr.ndim else float(out[0])

    def ftilde(x, y):
        return f(x, y) - fbar(y)

    phi0, phi1 = p.phi0, p.phi1
    return DecomposedProblem(
        fbar=fbar,
        ftilde=ftilde,
        phibar0=phibar0,
        phibar1=phibar1,
        phitilde0=lambda x: phi0(x) - phibar0,
        phitilde1=lambda x: phi1(x) - phibar1,
        quad_points=n,
    )


def _one_sided_slope(g: Callable, at: float, sign: int) -> float:
    # second-order one-sided quotient with step COMPAT_STEP, pointing into the interval
    h = COMPAT_STEP
    g0 = float(g(at))
    g1 = float(g(at + sign * h))
    g2 = float(g(at + sign * 2 * h))
    return sign * (-3.0 * g0 + 4.0 * g1 - g2) / (2.0 * h)


def check_compatibility(p: ProblemSpec) -> CompatibilityReport:
    """Measure phi0', phi1' at x = 0, 1 by one-sided second-order quotients.

    The Neumann side conditions require both Dirichlet data to have vanishing
    slope at the corners; the report carries the four measured slopes, taken
    with step COMPAT_STEP = 5e-6, and passes iff all are within COMPAT_TOL =
    1e-8.  Report only: callers decide whether to abort.
    """
    return CompatibilityReport(
        phi0_at_0=_one_sided_slope(p.phi0, 0.0, +1),
        phi0_at_1=_one_sided_slope(p.phi0, 1.0, -1),
        phi1_at_0=_one_sided_slope(p.phi1, 0.0, +1),
        phi1_at_1=_one_sided_slope(p.phi1, 1.0, -1),
    )


def check_derivatives(p: ProblemSpec) -> bool:
    """Spot-check supplied y-derivatives of f against central differences.

    Sanity check only; the supplied callables are otherwise trusted as exact.
    Compares each derivative against a central quotient of its predecessor on
    a coarse interior sample grid, to within DEFAULT_DERIV_TOL.
    """
    if not p.f_y_derivs:
        return True
    xs = np.linspace(0.05, 0.95, 7)
    ys = np.linspace(0.1, 0.9, 5)
    h = 1e-5
    chain = (p.f,) + p.f_y_derivs
    for lower, upper in zip(chain[:-1], chain[1:]):
        for y in ys:
            approx = (lower(xs, y + h) - lower(xs, y - h)) / (2.0 * h)
            if np.max(np.abs(approx - upper(xs, y))) > DEFAULT_DERIV_TOL:
                return False
    return True


def _paper_problem(eps: float) -> ProblemSpec:
    pi = math.pi

    def f(x, y):
        s = x**2 + y**2
        if isinstance(s, np.ndarray):  # a fresh array: scale it and take its sine in place
            s *= pi
            return np.sin(s, out=s)
        return np.sin(pi * s)

    def fy1(x, y):
        s = pi * (x**2 + y**2)
        return 2.0 * pi * y * np.cos(s)

    def fy2(x, y):
        s = pi * (x**2 + y**2)
        return 2.0 * pi * np.cos(s) - 4.0 * pi**2 * y**2 * np.sin(s)

    def fy3(x, y):
        s = pi * (x**2 + y**2)
        return -12.0 * pi**2 * y * np.sin(s) - 8.0 * pi**3 * y**3 * np.cos(s)

    def fy4(x, y):
        s = pi * (x**2 + y**2)
        return (-12.0 * pi**2 * np.sin(s)
                - 48.0 * pi**3 * y**2 * np.cos(s)
                + 16.0 * pi**4 * y**4 * np.sin(s))

    return ProblemSpec(
        f=f,
        phi0=lambda x: np.cos(pi * x),
        phi1=lambda x: 16.0 * x**2 * (x - 1.0) ** 2,
        eps=eps,
        f_y_derivs=(fy1, fy2, fy3, fy4),
    )


def _zeros_xy(x, y):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _constant_force_problem(eps: float) -> ProblemSpec:
    return ProblemSpec(
        f=lambda x, y: 1.0 + _zeros_xy(x, y),
        phi0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        phi1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        eps=eps,
        f_y_derivs=(_zeros_xy,) * 4,
    )


def _no_layer_problem(eps: float) -> ProblemSpec:
    # x-independent data: every fluctuation vanishes, so no boundary layers
    pi = math.pi

    def of_y(g):
        return lambda x, y: g(pi * np.asarray(y, dtype=float)) + _zeros_xy(x, y)

    return ProblemSpec(
        f=of_y(np.sin),
        phi0=lambda x: np.full_like(np.asarray(x, dtype=float), 0.3),
        phi1=lambda x: np.full_like(np.asarray(x, dtype=float), -0.2),
        eps=eps,
        f_y_derivs=(
            of_y(lambda s: pi * np.cos(s)),
            of_y(lambda s: -pi**2 * np.sin(s)),
            of_y(lambda s: -pi**3 * np.cos(s)),
            of_y(lambda s: pi**4 * np.sin(s)),
        ),
    )


def _zero_problem(eps: float) -> ProblemSpec:
    return ProblemSpec(
        f=_zeros_xy,
        phi0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        phi1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        eps=eps,
        f_y_derivs=(_zeros_xy,) * 4,
    )


_REGISTRY = {
    "paper": _paper_problem,
    "constant-force": _constant_force_problem,
    "no-layer": _no_layer_problem,
    "zero": _zero_problem,
}

BUILTIN_PROBLEM_NAMES = tuple(sorted(_REGISTRY))


def builtin_problem(name: str, eps: float = 0.1) -> ProblemSpec:
    """Look up a registered problem instance.

    Supported names: ``paper`` (f = sin(pi (x^2+y^2)), phi0 = cos(pi x),
    phi1 = 16 x^2 (x-1)^2, analytic y-derivatives of f to order 4),
    ``constant-force`` (f = 1, homogeneous Dirichlet data),
    ``no-layer`` (f = sin(pi y), constant Dirichlet data, hence no boundary
    layers) and ``zero``.

    Raises:
        UnknownProblem: the name is not registered.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {name!r}; choose from {', '.join(BUILTIN_PROBLEM_NAMES)}"
        ) from None
    return factory(eps)
