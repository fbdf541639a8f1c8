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


class NearDegenerateParameterError(ZmfError):
    """Parameters too close to a degenerate configuration (e.g. the real-s
    continuation within 1e-6 of an odd s, where tan(pi*s/2) blows up; w takes
    a circle in s there at r = 2, 3, 4, so only direct calls of the
    continuation's users w_real_s, f_rs and h_rs raise it)."""


class ContourError(ZmfError):
    """A contour could not be placed (a Meijer-G right pole on a left pole
    pinches it) or a winding sum does not round to an integer."""
