"""Exception and warning types shared across the package."""


class RatioDistError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParamsError(RatioDistError, ValueError):
    """Parameters violate a documented precondition (degenerate scale,
    out-of-range correlation, malformed grid, mismatched lengths, ...)."""


class QuadratureError(RatioDistError):
    """Base class for quadrature failures."""


class NonConvergenceError(QuadratureError):
    """Level-doubling exhausted the maximum refinement depth with the error
    estimate still above the requested tolerance.

    The DE sweep sets row (the batch index of the integral that failed to
    converge) and, when levels ran out, that row's value and err (its last
    estimate and error estimate), so a caller can name the point.
    """

    def __init__(self, message: str, row=None, value=None, err=None):
        super().__init__(message)
        self.row, self.value, self.err = row, value, err


class IntegrandError(QuadratureError):
    """The integrand produced a non-finite value at a quadrature node.

    The DE sweep sets row (the batch index of the failing integral), value
    (the non-finite value) and node (the abscissa it was returned at), so a
    caller that integrates one row per evaluation point can name the point.
    """

    def __init__(self, message: str, row=None, value=None, node=None):
        super().__init__(message)
        self.row, self.value, self.node = row, value, node


def raise_at_point(exc, what: str, var: str, points, node: str):
    """Raise exc, a DE sweep's IntegrandError or NonConvergenceError, again
    naming what at var = points[row], the failing row's point; node labels
    the failing abscissa.  An error raised inside the integrand (row None)
    is raised unchanged."""
    if exc.row is None:
        raise exc
    at = f"at {var}={float(points[exc.row])!r}"
    if isinstance(exc, IntegrandError):
        raise IntegrandError(f"{what} integrand returned {exc.value!r} {at} ({node}{exc.node!r})",
                             value=exc.value, node=exc.node) from exc
    raise NonConvergenceError(f"{what} {at}: {exc}", value=exc.value, err=exc.err) from exc


class UndecayedCFError(RatioDistError):
    """A characteristic function did not fall below the decay threshold
    within the probed range, so no finite truncation point exists."""


class SingularProductError(RatioDistError):
    """The product-density integral is evaluated at a point where it may
    diverge (both factor supports contain zero and t = 0)."""


class AccuracyWarning(UserWarning):
    """A numerically computed probability needed clamping by more than the
    documented excursion budget, or a best-effort target was missed."""
