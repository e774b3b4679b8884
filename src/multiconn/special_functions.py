"""Exponential-sum coding constants, their inverse, and per-combiner coding gains.

The high-SNR outage asymptote of joint decoding over N parallel Rayleigh
links has numerator A_N(R_c) = (-1)^N * (1 - 2^R_c * e_N(-R_c ln 2)), where
e_N is the partial sum of the exponential series. Everything in this module
is a deterministic, stateless function of its arguments. The private
column kernels give each element of an array the scalar function's bits:
transcendentals, the A_N tail series and the inverse's seed run per element
through ``math`` and the scalar code (``_each``), and only + - * /, which
numpy rounds as Python does, run in numpy.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat

import numpy as np

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


def _each(func, *args):
    """``func`` of floats, raising as it does; of arrays (a float argument
    goes to every call), ``func`` per element as a float array, nan where
    it raises. numpy's own transcendentals can differ in the last bit."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return func(*args)
    args = [a.tolist() if isinstance(a, np.ndarray) else repeat(a)
            for a in args]
    try:
        return np.fromiter(map(func, *args), float)
    except (ArithmeticError, ValueError):
        return np.fromiter(map(partial(_or_nan, func), *args), float)


def _or_nan(func, *args) -> float:
    try:
        return func(*args)
    except (ArithmeticError, ValueError):
        return math.nan


def exp_sum(n: int, x: float) -> float:
    """Partial sum of the exponential series: sum_{k=0}^{n-1} x^k / k!.
    DomainError where a partial sum overflows a float."""
    _require_count("n", n, 1)
    _require_finite("x", x)
    total = _exp_sum(n, x)
    if not math.isfinite(total):
        raise DomainError(f"exp_sum({n}, {x!r}) overflows a float")
    return total


def _exp_sum(n: int, x):
    # exp_sum of a float, or of each element of an array.
    term = 1.0
    total = 1.0
    for k in range(1, n):
        term *= x / k
        total += term
    return total


def _coding_constant_direct(n: int, r_c):
    # Of a float, or of each element of an array.
    sign = -1.0 if n % 2 else 1.0
    return sign * (1.0 - _each(math.pow, 2.0, r_c) * _exp_sum(n, -r_c * LN2))


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


def _coding_constants(n: int, r_c: np.ndarray) -> np.ndarray:
    """``coding_constant(n, r)`` at each r > 0 of an array: its bits where
    it returns, and inf, nan or 0 where it raises; 0 of either sign at
    r = 0, nan at nan, and no value of meaning at r < 0. Each element takes
    the scalar's branch, and a tail row runs the scalar's tail series."""
    t = r_c * LN2
    if n == 1:
        return _each(math.expm1, t)
    # r < 0 would not stop the tail series, which ends on a small term.
    tail = (r_c > 0) & (t < _TAIL_SWITCH_FACTOR * n)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _coding_constant_direct(n, r_c)
    value[tail] = _each(_coding_constant_tail, n, r_c[tail])
    return value


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
    return _slope(n, r_c)


def _slope(n: int, r_c):
    # coding_constant_slope of a float, or of each element of an array.
    return (LN2 * _each(math.pow, 2.0, r_c) * _each(math.pow, r_c * LN2, n - 1)
            / float(math.factorial(n - 1)))


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


def _inverse_seed(n: int, y: float, mode: str) -> float:
    # The paper form (DomainError where zeta < e), or the Newton seed.
    # math.pow raises at y < 0, where ** gives a complex number.
    zeta = math.pow(math.factorial(n - 1) * y, 1.0 / (n - 1)) / (n - 1)
    if zeta >= math.e or mode == "paper":
        return (n - 1) / LN2 * lambert_w_asymptotic(zeta)
    # Small-argument asymptote A_N(x) ~ 2^x (x ln 2)^N / N!.
    return math.pow(y * math.factorial(n), 1.0 / n) / LN2


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

    x = _inverse_seed(n, y, mode)  # > 0 for every y > 0
    if mode == "paper":
        return x
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


def _inverse_rows(n: int, y: np.ndarray, mode: str = "refined") -> np.ndarray:
    """``coding_constant_inverse(n, y, mode)`` at each finite y > 0 of an
    array, n >= 2: its bits where it returns, nan where it raises. Every row
    takes the scalar's seed, Newton steps and step halving, and stops on its
    own residual test."""
    x = _each(_inverse_seed, n, y, mode)
    if mode == "paper":
        return x
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.full_like(y, math.nan)
        rows = np.flatnonzero((x > 0) & (x < math.inf))
        x, y = x[rows], y[rows]
        for _ in range(_INVERSE_MAX_ITER):
            if not rows.size:
                break
            a = _coding_constants(n, x)
            done = np.abs(a - y) <= _INVERSE_REL_RESIDUAL * y
            # A_N or a slope of 0, inf or nan raises in the scalar loop.
            valid = (np.abs(a) < math.inf) & (a != 0)
            out[rows[valid & done]] = x[valid & done]
            slope = _slope(n, x)
            go = valid & ~done & (slope > 0) & (slope < math.inf)
            step = (a - y)[go] / slope[go]
            rows, x, y = rows[go], x[go], y[go]
            new_x = x - step
            while (low := new_x <= 0).any():
                step[low] *= 0.5
                new_x[low] = x[low] - step[low]
            x = new_x
    return out


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
