"""Exception hierarchy shared by all numerical modules."""


class ZmfError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(ZmfError):
    """Evaluation requested too close to a pole of the function."""


class DomainError(ZmfError):
    """Arguments outside the supported domain of a formula."""


class ConvergenceError(ZmfError):
    """A series, quadrature or iteration failed to reach the requested tolerance."""


class EdgeSingularityError(ZmfError):
    """A density was evaluated exactly at a non-evaluable singular abscissa."""


class ContourError(ZmfError):
    """A contour could not be placed: a Meijer-G right pole on a left pole
    pinches it, or an argument-principle contour runs through a zero."""
