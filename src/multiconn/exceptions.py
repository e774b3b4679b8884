"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class QuadratureError(RuntimeError):
    """Quadrature could not achieve the requested tolerance."""


class UnsupportedLinkCountError(ValueError):
    """The requested link count exceeds what the evaluation method supports."""


class DegenerateSpacingError(ValueError):
    """Average SNRs are neither clearly equal nor clearly distinct."""


class BracketError(ValueError):
    """A root-finding bracket does not contain the requested target."""


class TraceError(ValueError):
    """A measurement trace file is malformed or empty."""
