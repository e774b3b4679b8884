"""Exception types, and the one argument check per kind (count, finite,
positive, nonnegative, probability, SNR list) that public functions call.
Each rejects NaN; its DomainError names the argument and its value."""

import functools
import math
from numbers import Integral


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class QuadratureError(RuntimeError):
    """Quadrature could not achieve the requested tolerance."""


class UnsupportedLinkCountError(ValueError):
    """The requested link count exceeds what the evaluation method supports."""


class BracketError(ValueError):
    """A root-finding bracket does not contain the requested target."""


class TraceError(ValueError):
    """A measurement trace file is malformed or empty."""


def _require_count(name: str, value, minimum: int) -> None:
    """An integer >= minimum, not a bool (type first: Integral is slow)."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


def _require_finite(name: str, x):
    """A finite real of either sign (dB values); returns ``x``."""
    if not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _require_positive(name: str, x):
    """Finite and > 0: SNRs, bandwidths, distances, rates; returns ``x``."""
    if not 0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {x!r}")
    return x


def _require_nonnegative(name: str, x):
    """Finite and >= 0: rates where 0 is allowed; returns ``x``."""
    if not 0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, got {x!r}")
    return x


def _require_probability(name: str, p) -> None:
    """A probability in the open interval (0, 1): outage targets."""
    if not 0 < p < 1:
        raise DomainError(f"{name} must lie in (0, 1), got {p!r}")


def _require_snrs(values) -> list[float]:
    """A nonempty list of finite positive average SNRs, as floats."""
    snrs = [float(g) for g in values]
    _require_count("number of average SNRs", len(snrs), 1)
    for g in snrs:
        _require_positive("average SNR", g)
    return snrs


def _float_result(require):
    """Decorate a float formula: DomainError where it overflows or divides
    by an underflowed 0, and ``require`` (a check above) on its value."""
    def decorate(func):
        result = f"{func.__name__} result"

        @functools.wraps(func)
        def checked(*args, **kwargs):
            try:
                value = func(*args, **kwargs)
            except (OverflowError, ZeroDivisionError) as exc:
                raise DomainError(f"{func.__name__} leaves the float range: "
                                  f"{exc}") from None
            return require(result, value)
        return checked
    return decorate
