"""Exponential-sum coding constants, their inverse, and per-combiner coding gains.

The high-SNR outage asymptote of joint decoding over N parallel Rayleigh
links has numerator A_N(R_c) = (-1)^N * (1 - 2^R_c * e_N(-R_c ln 2)), where
e_N is the partial sum of the exponential series. Everything in this module
is a deterministic, stateless scalar function of its arguments.
"""

from __future__ import annotations

import math

from .combiners import Combiner
from .exceptions import (ConvergenceError, DomainError,
                         _float_result, _require_count,
                         _require_finite, _require_nonnegative,
                         _require_positive)

LN2 = math.log(2.0)

# Direct evaluation of A_N loses all precision once the leading terms of
# 2^x * e_N(-x ln 2) cancel against 1; switch to the tail series below this.
_TAIL_SWITCH_FACTOR = 0.5
# Alternating tail series is truncated once the next term is negligible.
_TAIL_STOP_REL = 1e-16

_INVERSE_REL_RESIDUAL = 1e-10
_INVERSE_MAX_ITER = 200


def exp_sum(n: int, x: float) -> float:
    """Partial sum of the exponential series: sum_{k=0}^{n-1} x^k / k!.
    DomainError where a partial sum overflows a float."""
    _require_count("n", n, 1)
    _require_finite("x", x)
    term = 1.0
    total = 1.0
    for k in range(1, n):
        term *= x / k
        total += term
    if not math.isfinite(total):
        raise DomainError(f"exp_sum({n}, {x!r}) overflows a float")
    return total


def _coding_constant_direct(n: int, r_c: float) -> float:
    sign = -1.0 if n % 2 else 1.0
    return sign * (1.0 - 2.0 ** r_c * exp_sum(n, -r_c * LN2))


def _coding_constant_tail(n: int, r_c: float) -> float:
    # A_N = 2^x * sum_{k>=N} (-1)^(N+k) (x ln 2)^k / k!, first term positive.
    t = r_c * LN2
    term = t ** n / math.factorial(n)
    total = term
    k = n
    while True:
        k += 1
        term *= -t / k
        total += term
        if abs(term) < _TAIL_STOP_REL * abs(total) or not term:  # underflow
            break
    return 2.0 ** r_c * total


def coding_constant(n: int, r_c: float) -> float:
    """Evaluate A_N(R_c), the coding constant of N-link joint decoding.

    A_1(R_c) = 2^R_c - 1. Zero iff ``r_c`` is zero, strictly increasing in
    ``r_c``. Small rates are routed through an alternating tail series to
    avoid catastrophic cancellation in the closed form. DomainError where
    A_N overflows a float or underflows to 0.
    """
    _require_count("n", n, 1)
    _require_nonnegative("r_c", r_c)
    if r_c == 0:
        return 0.0
    try:
        if n == 1:
            value = math.expm1(r_c * LN2)
        elif r_c * LN2 < _TAIL_SWITCH_FACTOR * n:
            value = _coding_constant_tail(n, r_c)
        else:
            value = _coding_constant_direct(n, r_c)
    except OverflowError:
        value = math.inf
    if not -math.inf < value < math.inf:
        raise DomainError(f"A_{n}({r_c}) overflows a float")
    if not value:
        raise DomainError(f"A_{n}({r_c}) underflows to 0")
    return value


@_float_result(_require_nonnegative)
def coding_constant_slope(n: int, r_c: float) -> float:
    """d A_N / d R_c = ln(2) * 2^R_c * (R_c ln 2)^(N-1) / (N-1)!."""
    _require_count("n", n, 1)
    _require_nonnegative("r_c", r_c)
    return LN2 * 2.0 ** r_c * (r_c * LN2) ** (n - 1) / math.factorial(n - 1)


def lambert_w_asymptotic(z: float) -> float:
    """Asymptotic upper-branch form ln(z) - ln(ln(z)), for finite z >= e."""
    _require_positive("z", z)
    if z < math.e:
        raise DomainError(f"lambert_w_asymptotic requires z >= e, got {z}")
    return math.log(z) - math.log(math.log(z))


def lambert_w_upper_branch(z: float) -> float:
    """Upper-branch Lambert W for finite z >= e, by Halley iteration.

    Seeded with :func:`lambert_w_asymptotic` and polished on w*e^w = z until
    the step falls below 1e-12 relative.
    """
    w = lambert_w_asymptotic(z)
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - z
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        step = f / denom
        w -= step
        if abs(step) <= 1e-12 * abs(w):
            return w
    raise ConvergenceError(f"Lambert W did not converge for z={z}")


def _inverse_seed(n: int, y: float) -> float:
    zeta = (math.factorial(n - 1) * y) ** (1.0 / (n - 1)) / (n - 1)
    if zeta >= math.e:
        return (n - 1) / LN2 * lambert_w_asymptotic(zeta)
    # Small-argument asymptote A_N(x) ~ 2^x (x ln 2)^N / N!.
    return (y * math.factorial(n)) ** (1.0 / n) / LN2


@_float_result(_require_positive)
def coding_constant_inverse(n: int, y: float, mode: str = "refined") -> float:
    """Invert A_N: return the spectral efficiency R_c with A_N(R_c) = y.

    ``mode="paper"`` returns the closed Lambert-W style approximation
    R_c ~ (N-1)/ln2 * [ln(zeta) - ln(ln(zeta))] with
    zeta = ((N-1)! y)^(1/(N-1)) / (N-1), defined only for zeta >= e.
    ``mode="refined"`` (default) polishes that seed with Newton iteration
    until |A_N(R_c) - y| / y < 1e-10.
    """
    _require_count("n", n, 2)
    _require_positive("y", y)
    if mode not in ("refined", "paper"):
        raise DomainError(f"unknown inverse mode {mode!r}")

    if mode == "paper":
        # DomainError from lambert_w_asymptotic where zeta < e.
        zeta = (math.factorial(n - 1) * y) ** (1.0 / (n - 1)) / (n - 1)
        return (n - 1) / LN2 * lambert_w_asymptotic(zeta)

    x = _inverse_seed(n, y)  # > 0 for every y > 0
    for _ in range(_INVERSE_MAX_ITER):
        residual = coding_constant(n, x) - y
        if abs(residual) <= _INVERSE_REL_RESIDUAL * y:
            return x
        step = residual / coding_constant_slope(n, x)
        new_x = x - step
        while new_x <= 0:
            step *= 0.5
            new_x = x - step
        x = new_x
    raise ConvergenceError(
        f"coding_constant_inverse did not converge for n={n}, y={y}")


@_float_result(_require_positive)
def coding_gain(combiner, n: int, r_c: float) -> float:
    """Coding gain of a combiner: JD -> A_N^(-1/N), SC/SCo -> 1/A_1,
    MRC -> (N!)^(1/N) / A_1."""
    combiner = Combiner.parse(combiner)
    _require_count("n", n, 1)
    _require_positive("r_c", r_c)
    if combiner is Combiner.SCO and n != 1:
        raise DomainError("SCo coding gain is defined for n=1 only")
    if combiner is Combiner.JD:
        return coding_constant(n, r_c) ** (-1.0 / n)
    a1 = coding_constant(1, r_c)
    if combiner is Combiner.MRC:
        return math.factorial(n) ** (1.0 / n) / a1
    return 1.0 / a1
