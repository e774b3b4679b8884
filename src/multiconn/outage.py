"""Outage probability of JD, SC, MRC, and SCo over parallel Rayleigh links.

Four evaluation routes are provided: streaming Monte-Carlo on the fading
sampler, deterministic nested quadrature for JD, high-SNR asymptotes, and
the closed forms that exist for SC, MRC, and SCo. Bounds (the equal-share
lower bound for JD and the simplex upper bound for MRC) are exposed with
explicit method tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .combiners import Combiner
from .exceptions import (DegenerateSpacingError, DomainError, QuadratureError,
                         UnsupportedLinkCountError)
from .link_model import Topology, _require_count, iter_snr_chunks
from .special_functions import coding_constant

#: Largest link count served by nested quadrature.
MAX_QUADRATURE_LINKS = 4

# MRC spacing classification: relative gaps below _EQUAL_TOL collapse to the
# equal-SNR closed form, gaps above _DISTINCT_TOL use the partial-fraction
# form; anything in between is too ill-conditioned for either and falls back
# to numerical convolution.
_EQUAL_TOL = 1e-9
_DISTINCT_TOL = 1e-4

_MIN_MC_SAMPLES = 1000
_LOW_EVENT_THRESHOLD = 100
_CI_Z = 1.96


@dataclass(frozen=True)
class OutageEstimate:
    """An outage probability in [0, 1] plus how it was obtained."""

    value: float
    method: str  # quadrature | monte-carlo | asymptotic | bound-lower | bound-upper | closed-form
    ci_half_width: Optional[float] = None
    sample_count: Optional[int] = None
    saturated: bool = False
    low_event_count: bool = False

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.saturated:
            out.append("saturated")
        if self.low_event_count:
            out.append("low-events")
        return tuple(out)


def instantaneous_capacity(combiner, gammas: Sequence[float]) -> float:
    """Instantaneous capacity in source samples per channel symbol.

    SC: log2(1 + max g), MRC: log2(1 + sum g), JD: sum log2(1 + g_i),
    SCo: log2(1 + g_1).
    """
    combiner = Combiner.parse(combiner)
    g = np.array(gammas, dtype=float)
    if g.size == 0:
        raise DomainError("gammas must be nonempty")
    if np.any(g < 0):
        raise DomainError("instantaneous SNRs must be nonnegative")
    return float(_capacity_rows(combiner, g.reshape(1, -1))[0])


def _capacity_rows(combiner: Combiner, block: np.ndarray) -> np.ndarray:
    """Capacity of each row of an (rows, N) SNR block, which it may
    overwrite. The bits equal the row formulas of
    ``instantaneous_capacity`` taken with numpy's ``axis=1`` reductions.

    SC folds the columns with np.maximum: the same values as
    ``max(axis=1)``, without reducing along each short row.
    """
    if combiner is Combiner.JD:
        return np.log2(np.add(block, 1.0, out=block), out=block).sum(axis=1)
    if combiner is Combiner.MRC:
        rows = block.sum(axis=1)
    else:
        rows = block[:, 0].copy()
        if combiner is Combiner.SC:
            for j in range(1, block.shape[1]):
                np.maximum(rows, block[:, j], out=rows)
    return np.log2(np.add(rows, 1.0, out=rows), out=rows)


def outage_monte_carlo(combiner, topology: Topology, r_c: float,
                       sample_count: int = 10_000_000,
                       seed: int = 0) -> OutageEstimate:
    """Estimate outage as the fraction of sampled SNR rows below rate r_c.

    Streams fixed-size chunks from the deterministic sampler, so the result
    depends only on (topology, r_c, sample_count, seed), never on the
    number of threads that draw the chunks. The confidence half-width is
    the 95% normal approximation; estimates backed by fewer than 100 outage
    events are flagged unreliable.
    """
    combiner = Combiner.parse(combiner)
    _require_count("sample_count", sample_count, _MIN_MC_SAMPLES)
    if not (math.isfinite(r_c) and r_c >= 0):
        raise DomainError(f"r_c must be finite and nonnegative, got {r_c}")
    events = 0
    for block in iter_snr_chunks(topology, sample_count, seed):
        events += int(np.count_nonzero(_capacity_rows(combiner, block) < r_c))
    p = events / sample_count
    ci = _CI_Z * math.sqrt(p * (1.0 - p) / sample_count)
    return OutageEstimate(value=p, method="monte-carlo", ci_half_width=ci,
                          sample_count=sample_count,
                          low_event_count=events < _LOW_EVENT_THRESHOLD)


def outage_jd_quadrature(avg_snrs: Sequence[float], r_c: float,
                         rel_tol: float = 1e-8) -> OutageEstimate:
    """Exact JD outage via nested adaptive quadrature.

    The innermost level integrates the exponential density in closed form;
    the remaining N-1 levels are adaptive with per-level tolerance
    rel_tol / N. Supports N <= 4.
    """
    snrs = [float(g) for g in avg_snrs]
    n = len(snrs)
    if n < 1:
        raise DomainError("avg_snrs must be nonempty")
    if any(g <= 0 for g in snrs):
        raise DomainError("average SNRs must be positive")
    if n > MAX_QUADRATURE_LINKS:
        raise UnsupportedLinkCountError(
            f"JD quadrature supports N <= {MAX_QUADRATURE_LINKS}, got {n}; "
            "use Monte-Carlo instead")
    if not 1e-10 <= rel_tol <= 1e-3:
        raise DomainError(f"rel_tol must lie in [1e-10, 1e-3], got {rel_tol}")
    if r_c < 0:
        raise DomainError("r_c must be nonnegative")
    if r_c == 0:
        return OutageEstimate(value=0.0, method="quadrature")

    level_tol = rel_tol / n

    def innermost(remaining_rate: float) -> float:
        return -math.expm1(-(2.0 ** remaining_rate - 1.0) / snrs[n - 1])

    def level(i: int, remaining_rate: float) -> tuple[float, float]:
        # Integral over gamma_i of its density times the deeper levels.
        if i == n - 1:
            return innermost(remaining_rate), 0.0
        mean = snrs[i]

        def integrand(g: float) -> float:
            inner, _ = level(i + 1, remaining_rate - math.log2(1.0 + g))
            return math.exp(-g / mean) / mean * inner

        # Cap the range at the density's support scale: beyond ~700 means
        # the exponential weight underflows and, left uncapped, a huge
        # rate threshold would hide the integrand mass from the adaptive
        # subdivision entirely.
        upper = min(2.0 ** remaining_rate - 1.0, 700.0 * mean)
        value, err = quad(integrand, 0.0, upper, epsabs=0.0,
                          epsrel=level_tol, limit=200)
        return value, err

    value, err = level(0, r_c)
    if value > 0 and err > rel_tol * value * 10.0:
        raise QuadratureError(
            f"requested rel_tol {rel_tol} not achieved (error {err:.3g} "
            f"on value {value:.3g})")
    return OutageEstimate(value=min(max(value, 0.0), 1.0), method="quadrature")


def asymptotic_outage_value(combiner, avg_snrs: Sequence[float],
                            r_c: float) -> float:
    """Unclamped high-SNR asymptote; may exceed 1 at low SNR."""
    combiner = Combiner.parse(combiner)
    snrs = [float(g) for g in avg_snrs]
    if not snrs or any(g <= 0 for g in snrs):
        raise DomainError("average SNRs must be positive")
    if r_c <= 0:
        raise DomainError("r_c must be positive")
    n = len(snrs)
    if combiner is Combiner.SCO:
        return coding_constant(1, r_c) / snrs[0]
    product = math.prod(snrs)
    if combiner is Combiner.JD:
        return coding_constant(n, r_c) / product
    a1 = coding_constant(1, r_c)
    if combiner is Combiner.SC:
        return a1 ** n / product
    return a1 ** n / (math.factorial(n) * product)


def _spacing_kind(snrs: Sequence[float]) -> str:
    scale = max(snrs)
    gaps = [abs(a - b) / scale
            for i, a in enumerate(snrs) for b in snrs[i + 1:]]
    if not gaps or max(gaps) < _EQUAL_TOL:
        return "equal"
    if min(gaps) > _DISTINCT_TOL:
        return "distinct"
    return "degenerate"


def outage_asymptotic(combiner, avg_snrs: Sequence[float],
                      r_c: float) -> OutageEstimate:
    """High-SNR outage asymptote per combiner, clamped to 1 when misused.

    JD -> A_N / prod(G), SC -> A_1^N / prod(G), MRC -> A_1^N / (N! prod(G)),
    SCo -> A_1 / G_1. For MRC with distinct average SNRs the value is a
    genuine upper bound for all SNR, and is tagged as such.
    """
    combiner = Combiner.parse(combiner)
    value = asymptotic_outage_value(combiner, avg_snrs, r_c)
    method = "asymptotic"
    if combiner is Combiner.MRC and _spacing_kind(list(map(float, avg_snrs))) != "equal":
        method = "bound-upper"
    saturated = value > 1.0
    return OutageEstimate(value=min(value, 1.0), method=method,
                          saturated=saturated)


def _mrc_outage_convolution(snrs: Sequence[float], threshold: float,
                            rel_tol: float = 1e-9) -> float:
    # Pr[sum of independent exponentials <= threshold] by nested quadrature.
    n = len(snrs)

    def cdf_tail(i: int, budget: float) -> float:
        if budget <= 0:
            return 0.0
        if i == n - 1:
            return -math.expm1(-budget / snrs[i])
        value, _ = quad(
            lambda g: math.exp(-g / snrs[i]) / snrs[i] * cdf_tail(i + 1, budget - g),
            0.0, budget, epsabs=0.0, epsrel=rel_tol / n, limit=200)
        return value

    return cdf_tail(0, threshold)


def outage_exact_closed(combiner, avg_snrs: Sequence[float], r_c: float,
                        degenerate_fallback: bool = True) -> OutageEstimate:
    """Closed-form exact outage for SC, MRC, and SCo (JD has none).

    MRC routes between the equal-SNR and distinct-SNR forms based on the
    pairwise spacing of the average SNRs; near-degenerate spacing uses a
    numerical convolution fallback because the partial-fraction form is
    ill-conditioned there.
    """
    combiner = Combiner.parse(combiner)
    snrs = [float(g) for g in avg_snrs]
    if not snrs or any(g <= 0 for g in snrs):
        raise DomainError("average SNRs must be positive")
    if r_c < 0:
        raise DomainError("r_c must be nonnegative")
    if combiner is Combiner.JD:
        raise DomainError("JD has no closed exact form; use quadrature or "
                          "Monte-Carlo")
    if r_c == 0:
        return OutageEstimate(value=0.0, method="closed-form")
    a1 = coding_constant(1, r_c)
    n = len(snrs)

    if combiner is Combiner.SCO:
        value = -math.expm1(-a1 / snrs[0])
    elif combiner is Combiner.SC:
        value = math.prod(-math.expm1(-a1 / g) for g in snrs)
    else:  # MRC
        kind = _spacing_kind(snrs)
        if kind == "equal":
            a = a1 / (sum(snrs) / n)
            term = 1.0
            total = 1.0
            for i in range(1, n):
                term *= a / i
                total += term
            value = 1.0 - math.exp(-a) * total
        elif kind == "distinct":
            terms = []
            for i, gi in enumerate(snrs):
                prod = math.prod(1.0 / (gi - gj)
                                 for j, gj in enumerate(snrs) if j != i)
                terms.append(gi ** (n - 1) * -math.expm1(-a1 / gi) * prod)
            value = math.fsum(terms)
        else:
            if not degenerate_fallback:
                raise DegenerateSpacingError(
                    "average SNRs are neither clearly equal nor clearly "
                    "distinct; enable the convolution fallback")
            value = _mrc_outage_convolution(snrs, a1)

    return OutageEstimate(value=min(max(value, 0.0), 1.0),
                          method="closed-form")


def outage_jd_lower_bound_tse(avg_snr: float, n: int,
                              r_c: float) -> OutageEstimate:
    """Equal-rate-share lower bound on JD outage for equal average SNRs:
    [1 - exp(-A_1(R_c/N)/G)]^N."""
    if avg_snr <= 0:
        raise DomainError("avg_snr must be positive")
    if n < 1:
        raise DomainError("n must be >= 1")
    if r_c < 0:
        raise DomainError("r_c must be nonnegative")
    per_link = coding_constant(1, r_c / n)
    value = (-math.expm1(-per_link / avg_snr)) ** n
    return OutageEstimate(value=value, method="bound-lower")
