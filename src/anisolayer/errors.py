"""Exception types raised by the numerical routines."""


class NonFiniteValue(ValueError):
    """A user-supplied function returned NaN or infinity at an evaluation point."""


class UnknownProblem(KeyError):
    """Requested built-in problem name is not registered."""


class NotZeroMean(ValueError):
    """Function handed to the cosine transform does not integrate to zero."""


class IntegralConditionViolated(ValueError):
    """First antiderivative of the fluctuating force is nonzero at x = 1."""


class MissingDerivatives(ValueError):
    """Expansion order requires analytic y-derivatives that were not supplied."""


class NoConvergence(RuntimeError):
    """A reference solve, five-point or fitted, failed its residual certificate.

    Its true residual was not finite or missed tol plus its rounding floor, or
    its rescaled right-hand side eps^2 b underflowed to 0, leaving nothing to
    certify.
    """


class GridMismatch(ValueError):
    """Two fields live on different grids."""


class DegenerateStart(ValueError):
    """Monte Carlo start point sits on an absorbing boundary."""


class InsufficientPoints(ValueError):
    """Too few data points for a least-squares order fit."""


class NonPositiveNorm(ValueError):
    """Order fit requires strictly positive norms (log scale)."""
