"""Required SNR, SNR gains, their slopes, and the diversity-multiplexing
tradeoff for multi-connectivity versus single-connectivity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .combiners import Combiner
from .exceptions import (DomainError, _float_result,
                         _require_count, _require_finite, _require_positive,
                         _require_probability)
from .link_model import db_to_linear
from .outage import asymptotic_outage_value
from .special_functions import LN2, _each, coding_constant

#: Slope constants: the commonly quoted rounded values and the exact ones.
ROUNDED_DB_PER_NEPER = 4.3
EXACT_DB_PER_NEPER = 10.0 / math.log(10.0)
ROUNDED_DB_PER_RATE = 3.0
EXACT_DB_PER_RATE = 10.0 * math.log10(2.0)


@dataclass(frozen=True)
class GainQuery:
    """Operating point for SNR-gain evaluation.

    Distances are per link; link 1 is the single-connectivity reference.
    """

    n_links: int
    r_c: float
    p_out: float
    distances: tuple[float, ...] = field(default=())
    eta: float = 2.0

    def __post_init__(self):
        _require_count("n_links", self.n_links, 1)
        _require_positive("r_c", self.r_c)
        _require_probability("p_out", self.p_out)
        distances = tuple(self.distances) or (1.0,) * self.n_links
        object.__setattr__(self, "distances", distances)
        if len(distances) != self.n_links:
            raise DomainError("distances must have one entry per link")
        for d in distances:
            _require_positive("distance", d)
        _require_positive("eta", self.eta)

    @property
    def path_losses(self) -> tuple[float, ...]:
        return tuple(d ** (-self.eta) for d in self.distances)


@dataclass(frozen=True)
class DmtPoint:
    multiplexing_gain: float
    diversity_gain: float


@_float_result(_require_positive)
def required_total_snr(combiner, query: GainQuery) -> float:
    """Total P_T/N_0 (linear) needed to hit the query's rate and outage.

    JD: N * (A_N/P_out)^(1/N) / (prod path loss)^(1/N);
    SCo: A_1 / (P_out * path loss of link 1).
    """
    combiner = Combiner.parse(combiner)
    n = query.n_links
    losses = query.path_losses
    if combiner is Combiner.SCO or (combiner is Combiner.JD and n == 1):
        return coding_constant(1, query.r_c) / (query.p_out * losses[0])
    if combiner is not Combiner.JD:
        raise DomainError("required_total_snr supports JD and SCo only")
    a_n = coding_constant(n, query.r_c)
    return n * (a_n / query.p_out) ** (1.0 / n) / math.prod(losses) ** (1.0 / n)


@_float_result(_require_positive)
def snr_gain_mco_sco(query: GainQuery) -> float:
    """SNR gain of multi-connectivity with JD over single-connectivity."""
    n = query.n_links
    if n == 1:
        return 1.0
    losses = query.path_losses
    return _mco_sco_gain(n, coding_constant(1, query.r_c),
                         coding_constant(n, query.r_c), query.p_out, losses)


def _mco_sco_gain(n: int, a1, a_n, p_out: float, losses):
    """``snr_gain_mco_sco`` at n >= 2 links from A_1 and A_N: floats, or
    arrays of them over a rate grid."""
    return (a1 / (n * _each(math.pow, a_n, 1.0 / n))
            * p_out ** (-(n - 1) / n)
            * math.prod(losses) ** (1.0 / n) / losses[0])


@_float_result(_require_positive)
def snr_gain_mco_sco_approx(query: GainQuery) -> float:
    """High-rate simplification of the MCo-over-SCo gain; accuracy degrades
    at small spectral efficiencies."""
    n = query.n_links
    if n == 1:
        return 1.0
    losses = query.path_losses
    front = (math.factorial(n - 1) / (LN2 ** (n - 1) * n ** n)) ** (1.0 / n)
    rate_part = 2.0 ** (query.r_c * (n - 1) / n) / query.r_c ** ((n - 1) / n)
    return (front * rate_part * query.p_out ** (-(n - 1) / n)
            * math.prod(losses) ** (1.0 / n) / losses[0])


@_float_result(_require_positive)
def snr_gain_jd_vs(reference, n: int, r_c: float) -> float:
    """SNR gain of JD over SC or MRC (ratio of coding gains)."""
    reference = Combiner.parse(reference)
    _require_count("n", n, 2)
    _require_positive("r_c", r_c)
    a1, a_n = coding_constant(1, r_c), coding_constant(n, r_c)
    if reference not in (Combiner.SC, Combiner.MRC):
        raise DomainError("reference must be SC or MRC")
    return _jd_gain(reference, n, a1, a_n)


def _jd_gain(reference: Combiner, n: int, a1, a_n):
    """``snr_gain_jd_vs`` of SC or MRC from A_1 and A_N: floats, or arrays
    of them over a rate grid."""
    base = a1 / _each(math.pow, a_n, 1.0 / n)
    if reference is Combiner.MRC:
        return base / math.factorial(n) ** (1.0 / n)
    return base


def gain_slope_wrt_outage(n: int, p_out: float, rounded: bool = True) -> float:
    """Derivative of the MCo-over-SCo gain (in dB) with respect to P_out:
    -c * (N-1)/N / P_out, with c the rounded (4.3) or exact (10/ln 10)
    constant."""
    _require_count("n", n, 2)
    _require_probability("p_out", p_out)
    c = ROUNDED_DB_PER_NEPER if rounded else EXACT_DB_PER_NEPER
    return _require_finite("gain slope", -c * (n - 1) / n / p_out)


def gain_slope_wrt_rate(n: int, rounded: bool = False) -> float:
    """Asymptotic slope of the gain in dB per source sample/symbol:
    c * (N-1)/N with c rounded (3) or exact (10 log10 2)."""
    _require_count("n", n, 2)
    c = ROUNDED_DB_PER_RATE if rounded else EXACT_DB_PER_RATE
    return c * (n - 1) / n


def dmt(combiner, r: float, n: int) -> DmtPoint:
    """Analytic diversity-multiplexing tradeoff point.

    JD: d = N - r on r in [0, N]; SC/MRC: d = N(1 - r) on r in [0, 1].
    """
    combiner = Combiner.parse(combiner)
    _require_count("n", n, 1)
    if combiner is Combiner.JD:
        if not 0.0 <= r <= n:
            raise DomainError(f"JD multiplexing gain must lie in [0, {n}]")
        return DmtPoint(r, float(n) - r)
    if combiner in (Combiner.SC, Combiner.MRC):
        if not 0.0 <= r <= 1.0:
            raise DomainError("SC/MRC multiplexing gain must lie in [0, 1]")
        return DmtPoint(r, n * (1.0 - r))
    raise DomainError("DMT is defined for JD, SC, and MRC")


# Fixed rate used when estimating the full-diversity (r = 0) endpoint, where
# the rate schedule r * log2(N * G) would degenerate to zero.
_R0_FIXED_RATE = 1.0


def dmt_empirical(combiner, r: float, n: int,
                  snr_grid_db: Sequence[float]) -> float:
    """Estimate the diversity gain from the asymptotic outage slope.

    Evaluates ``asymptotic_outage_value`` at the rate schedule
    R_c = r * log2(N * G) on the two largest grid points and returns
    -d log2(P) / d log2(N * G). Assumes equal average SNR per link.
    """
    combiner = Combiner.parse(combiner)
    if combiner is Combiner.SCO:
        raise DomainError("empirical DMT is defined for JD, SC, and MRC")
    dmt(combiner, r, n)  # validates r against the combiner's interval
    grid = sorted(set(float(x) for x in snr_grid_db))
    if len(grid) < 2:
        raise DomainError("snr_grid_db needs at least two distinct points")
    log_p = []
    log_snr = []
    for snr_db in grid[-2:]:
        gbar = db_to_linear(snr_db)
        r_c = r * math.log2(n * gbar) if r > 0 else _R0_FIXED_RATE
        value = asymptotic_outage_value(combiner, [gbar] * n, r_c)
        log_p.append(math.log2(_require_positive("outage asymptote", value)))
        log_snr.append(math.log2(n * gbar))
    if log_snr[0] == log_snr[1]:
        raise DomainError(f"grid points {grid[-2]} and {grid[-1]} dB are the "
                          "same linear SNR")
    return -(log_p[1] - log_p[0]) / (log_snr[1] - log_snr[0])
