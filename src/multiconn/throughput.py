"""Throughput and achievable spectral efficiency at a target outage."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .combiners import Combiner
from .exceptions import (BracketError, ConvergenceError, DomainError,
                         _float_result, _require_nonnegative, _require_positive,
                         _require_probability, _require_snrs)
from .link_model import Topology, average_snrs
from .outage import _outage_rows, outage_exact_closed, outage_jd_quadrature
from .special_functions import (LN2, _each, _inverse_rows,
                                coding_constant_inverse)

DEFAULT_RATE_BRACKET = (1e-6, 64.0)
# The rate root is the midpoint of a bracket no wider than 2 * _RATE_XTOL.
_RATE_XTOL = 1e-6
_MAX_ROOT_ITERATIONS = 100


@dataclass(frozen=True)
class ThroughputResult:
    throughput: float  # bit/s
    achieved_rate: float  # source samples per channel symbol
    method: str  # asymptotic | exact-root


def throughput_from_rate(bandwidth: float, r_c: float, p_out: float) -> float:
    """T = B * R_c * (1 - P_out) in bit/s; DomainError where it overflows."""
    _require_positive("bandwidth", bandwidth)
    _require_nonnegative("r_c", r_c)
    if not 0.0 <= p_out <= 1.0:
        raise DomainError(f"p_out must lie in [0, 1], got {p_out!r}")
    return _require_nonnegative("throughput", bandwidth * r_c * (1.0 - p_out))


@_float_result(_require_nonnegative)
def achievable_rate_asymptotic(combiner, avg_snrs: Sequence[float],
                               p_out: float, mode: str = "refined") -> float:
    """Invert the high-SNR outage asymptote for the rate at a target outage.

    JD uses the inverse coding constant (refined by default; ``mode="paper"``
    selects the closed Lambert-W approximation). SC, MRC, and SCo have closed
    inverses.
    """
    combiner = Combiner.parse(combiner)
    snrs = _require_snrs(avg_snrs)
    _require_probability("p_out", p_out)
    if combiner is Combiner.SCO:
        snrs = snrs[:1]
    target = p_out * math.prod(snrs)
    if combiner is Combiner.JD and len(snrs) > 1:
        return coding_constant_inverse(len(snrs), target, mode=mode)
    return _rate_inverse(combiner, len(snrs))(target)


def _rate_inverse(combiner: Combiner, n: int, mode: str = "refined"):
    """``achievable_rate_asymptotic`` of n links as a function of an array
    of targets p_out * prod(G), nan where it raises; but for SC, MRC, SCo
    and JD at n = 1, also of a float target. SCo is SC on its one link."""
    if combiner is Combiner.JD and n > 1:
        return partial(_inverse_rows, n, mode=mode)
    scale = float(math.factorial(n)) if combiner is Combiner.MRC else 1.0
    root = 1.0 / n
    return lambda target: _each(math.log2,
                                _each(math.pow, scale * target, root) + 1.0)


def achievable_rate_exact(combiner, topology: Topology, p_out: float) -> float:
    """The rate in DEFAULT_RATE_BRACKET where the exact P_out equals p_out.

    Uses the closed forms for SC/MRC/SCo and nested quadrature for JD
    (N <= 4; larger N is refused rather than falling back to a noisy
    Monte-Carlo objective). A secant on g = ln P_out - ln p_out, seeded by
    ``achievable_rate_asymptotic``, narrows a bracket [a, b] with
    g(a) < 0 < g(b); a step that leaves the bracket, an iterate where the
    outage is 0.0, or a seed that raises is replaced by a bisection. The
    root returned is the midpoint of a bracket no wider than 2e-6, so it
    lies within 1e-6 of the true root, or a rate where P_out is p_out.
    For JD, a bracket end whose sign a closed-form bound certifies is not
    evaluated. The secant is ``_rate_root``, here sent one outage at a
    time; a sweep column runs the roots of its points in lockstep through
    ``_rate_rows``, with these bits.
    """
    combiner = Combiner.parse(combiner)
    _require_probability("p_out", p_out)
    snrs = average_snrs(topology)
    exact = (partial(outage_jd_quadrature, snrs) if combiner is Combiner.JD
             else partial(outage_exact_closed, combiner, snrs))
    root = _rate_root(combiner, snrs, p_out)
    r_c = next(root)
    while True:
        try:
            r_c = root.send(exact(r_c).value)
        except StopIteration as stop:
            return stop.value


def _rate_root(combiner: Combiner, snrs, p_out: float):
    """The secant of ``achievable_rate_exact`` (and, in lockstep, of
    ``_rate_rows``) as a generator: it yields each rate at which it needs
    the exact outage, is sent that outage, and returns the root (or raises
    as ``achievable_rate_exact`` does). It does not ask for a JD bracket end
    whose sign ``_jd_certified_ends`` certifies, unless it raises
    BracketError, whose message prints both ends' outage; as it reads only
    the signs of the end values, the root keeps its bits."""
    lo, hi = DEFAULT_RATE_BRACKET
    low_ok, high_ok = (_jd_certified_ends(snrs, p_out)
                       if combiner is Combiner.JD else (False, False))
    f_lo = -math.inf if low_ok else (yield lo) - p_out
    f_hi = math.inf if high_ok else (yield hi) - p_out
    if f_lo > 0 or f_hi < 0:
        # A certified end cannot fail; the message prints its outage too.
        if low_ok:
            f_lo = (yield lo) - p_out
        if high_ok:
            f_hi = (yield hi) - p_out
        raise BracketError(
            f"p_out={p_out} is not attainable within rate bracket "
            f"[{lo}, {hi}] (outage range [{f_lo + p_out:.3g}, "
            f"{f_hi + p_out:.3g}])")
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    log_p = math.log(p_out)
    n = 1 if combiner is Combiner.SCO else len(snrs)
    try:
        r_c = achievable_rate_asymptotic(combiner, snrs, p_out)
    except (DomainError, ConvergenceError):
        r_c = math.nan
    last = None  # the previous iterate with a finite g, as (rate, g)
    for _ in range(_MAX_ROOT_ITERATIONS):
        if not lo < r_c < hi:
            r_c = 0.5 * (lo + hi)
        value = yield r_c
        if value == p_out:
            return r_c
        if value < p_out:
            lo = r_c
        else:
            hi = r_c
        if hi - lo <= 2 * _RATE_XTOL:
            return 0.5 * (lo + hi)
        if value == 0:
            r_c = math.nan  # ln 0: bisect
            continue
        g = math.log(value) - log_p
        if last is None:  # high-SNR slope: P_out ~ (2^R - 1)^N
            slope = n * LN2 / -math.expm1(-LN2 * r_c)
        else:
            slope = (g - last[1]) / (r_c - last[0])
        last = r_c, g
        if not slope > 0:
            r_c = math.nan
            continue
        # A step below the tolerance is lengthened to it, so that the next
        # iterate lands past a root that close.
        step = g / slope
        r_c -= math.copysign(max(abs(step), _RATE_XTOL), value - p_out)
    raise ConvergenceError(
        f"rate root did not converge in {_MAX_ROOT_ITERATIONS} steps")


def _jd_certified_ends(snrs, p_out: float) -> tuple[bool, bool]:
    """Whether closed-form bounds certify P_JD(lo) < p_out and P_JD(hi) >
    p_out at the ends (lo, hi) of DEFAULT_RATE_BRACKET. C_JD >= C_SC bounds
    P_JD(R) above by P_SC(R) = prod(1 - e^(-A_1(R) / G_i)); and where every
    link carries less than R/N the sum carries less than R, so P_SC(R/N)
    bounds P_JD(R) below. The factor-2 margins cover the quadrature's 1e-8
    relative error, so a certified end has the sign its quadrature gives."""
    snrs = [float(g) for g in snrs]  # floats: a few links, no numpy calls
    if not all(0 < g < math.inf for g in snrs):
        return False, False
    lo, hi = DEFAULT_RATE_BRACKET

    def selection(share):  # P_SC where each link's rate share is ``share``
        a_1 = math.expm1(share * LN2)
        return math.prod(-math.expm1(-a_1 / g) for g in snrs)
    return (selection(lo) <= 0.5 * p_out,
            selection(hi / len(snrs)) >= 2.0 * p_out)


def _rate_rows(combiner: Combiner, snrs: np.ndarray, p_out: float):
    """``achievable_rate_exact`` for each row of an (rows, N) array of
    average SNRs, nan where it raises. The roots run in lockstep: a step
    takes the outage at every rate they ask for in one ``_outage_rows``."""
    outage, rates = _outage_rows(combiner, snrs), np.full(len(snrs), math.nan)
    roots = [_rate_root(combiner, row, p_out) for row in snrs]
    sent = dict.fromkeys(range(len(roots)))  # None starts a root
    while sent:
        wanted = {}
        for i, value in sent.items():
            try:
                wanted[i] = roots[i].send(value)
            except StopIteration as stop:
                rates[i] = stop.value
            except (BracketError, ConvergenceError):
                pass  # the per-point route raises it again
        values = outage(list(wanted), list(wanted.values())).tolist()
        # A row whose outage raised (nan) drops out.
        sent = {i: v for i, v in zip(wanted, values) if not math.isnan(v)}
    return rates


def throughput_asymptotic(combiner, avg_snrs: Sequence[float], p_out: float,
                          bandwidth: float, mode: str = "refined") -> ThroughputResult:
    rate = achievable_rate_asymptotic(combiner, avg_snrs, p_out, mode=mode)
    return ThroughputResult(
        throughput=throughput_from_rate(bandwidth, rate, p_out),
        achieved_rate=rate, method="asymptotic")


def throughput_exact(combiner, topology: Topology,
                     p_out: float) -> ThroughputResult:
    rate = achievable_rate_exact(combiner, topology, p_out)
    return ThroughputResult(
        throughput=throughput_from_rate(topology.bandwidth, rate, p_out),
        achieved_rate=rate, method="exact-root")
