"""Outage probability of JD, SC, MRC, and SCo over parallel Rayleigh links.

Four evaluation routes are provided: streaming Monte-Carlo on the fading
sampler, deterministic nested Gauss-Legendre quadrature for JD, high-SNR
asymptotes, and the closed forms that exist for SC, MRC, and SCo. Bounds
(the equal-share lower bound for JD and the simplex upper bound for MRC)
are exposed with explicit method tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .combiners import Combiner
from .exceptions import (DomainError, QuadratureError,
                         UnsupportedLinkCountError, _require_count,
                         _require_finite, _require_nonnegative,
                         _require_positive, _require_snrs)
from .link_model import Topology, iter_snr_chunks
from .special_functions import LN2, coding_constant

#: Largest link count served by nested quadrature.
MAX_QUADRATURE_LINKS = 4

# Nested quadrature: 16 Gauss-Legendre nodes per panel. An estimate takes
# (16 * panels) ** levels innermost evaluations, at most _MAX_NODES, which
# bounds its time; it takes the outermost nodes in blocks of at most
# _BLOCK_NODES evaluations (8 MiB per array), which bounds its memory.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_NODES = 1 << 26
_BLOCK_NODES = 1 << 20
# Each link's range ends where its SNR exceeds this many means: for JD
# where the density underflows (e^-745), for the MRC sum where the tail
# mass (e^-50 ~ 2e-22) is below either rel_tol (1e-8 JD, 1e-9 MRC).
_JD_TAIL_MEANS = 745.0
_MRC_TAIL_MEANS = 50.0

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
    _require_count("number of gammas", g.size, 1)
    if not np.all((g >= 0) & (g < math.inf)):
        raise DomainError("instantaneous SNRs must be finite and nonnegative")
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
    _require_nonnegative("r_c", r_c)
    events = 0
    for block in iter_snr_chunks(topology, sample_count, seed):
        events += int(np.count_nonzero(_capacity_rows(combiner, block) < r_c))
    p = events / sample_count
    ci = _CI_Z * math.sqrt(p * (1.0 - p) / sample_count)
    return OutageEstimate(value=p, method="monte-carlo", ci_half_width=ci,
                          sample_count=sample_count,
                          low_event_count=events < _LOW_EVENT_THRESHOLD)


def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of the composite rule of ``panels``
    equal panels on [0, 1]."""
    nodes = ((np.arange(panels)[:, None] + 0.5 + 0.5 * _GL_NODES)
             / panels).ravel()
    weights = np.tile(0.5 * _GL_WEIGHTS / panels, panels)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# The rules of 1 to 256 panels (16 to 4096 nodes, 128 KiB in all) are built
# once; a larger one is built per estimate and dropped, so that a hard
# integral whose panels double toward _MAX_NODES cannot pin a large table.
_RULES = {1 << k: _panel_rule(1 << k) for k in range(9)}


def _nested_sum(levels, innermost, total: float, rules) -> float:
    # One estimate: level k runs the (nodes, weights) of rules[k] on [0, 1]
    # scaled to [0, min(remaining, cap_k)] at every node of the levels above.
    remaining = np.array(total)
    factors = []
    for (density, cap), (nodes, weights) in zip(levels, rules):
        upper = np.minimum(remaining, cap)[..., None]
        x = upper * nodes
        factors.append(upper * weights * density(x))
        remaining = remaining[..., None] - x
    estimate = innermost(remaining)
    for factor in reversed(factors):
        estimate = np.einsum("...i,...i->...", factor, estimate)
    return float(estimate)


def _nested_integral(levels, innermost, total: float,
                     rel_tol: float) -> tuple[float, float]:
    """I_0(total), where I_k(r) is the integral over x in [0, min(r, cap_k)]
    of density_k(x) * I_{k+1}(r - x) for each (density_k, cap_k) of
    ``levels``, and the last I is ``innermost``.

    Composite Gauss-Legendre on equal panels, each level evaluated over all
    nodes of the level above at once. The panel count doubles until two
    successive estimates agree to ``rel_tol``; returns the finer one and
    their difference. QuadratureError once that would pass _MAX_NODES, and
    before any work where not even two estimates fit under it.
    """
    two_panels = (2 * _GL_NODES.size) ** len(levels)
    if two_panels > _MAX_NODES:
        raise QuadratureError(
            f"{len(levels)} nested levels cannot give two estimates: 2 panels "
            f"per level take {two_panels} nodes, above the cap of "
            f"{_MAX_NODES}")
    panels, value, err = 1, math.nan, math.nan
    while (_GL_NODES.size * panels) ** len(levels) <= _MAX_NODES:
        nodes, weights = _RULES.get(panels) or _panel_rule(panels)
        inner = [(nodes, weights)] * max(len(levels) - 1, 0)
        block = max(1, _BLOCK_NODES // nodes.size ** len(inner))
        estimate = sum(
            _nested_sum(levels, innermost, total,
                        [(nodes[i:i + block], weights[i:i + block])] + inner)
            for i in range(0, nodes.size, block))
        err, value = abs(estimate - value), estimate
        if err <= rel_tol * abs(value):
            return value, err
        panels *= 2
    raise QuadratureError(
        f"requested rel_tol {rel_tol} not achieved within {panels // 2} "
        f"panels per level (last change {err:.3g} on value {value:.3g})")


def _rate_share_density(mean: float):
    # Density of x = log2(1 + gamma) for gamma ~ Exp(mean).
    scale = LN2 / mean

    def density(x: np.ndarray) -> np.ndarray:
        y = x * LN2
        return scale * np.exp(y - np.expm1(y) / mean)
    return density


def outage_jd_quadrature(avg_snrs: Sequence[float],
                         r_c: float) -> OutageEstimate:
    """Exact JD outage via nested Gauss-Legendre quadrature.

    Integrates over the rate shares x_i = log2(1 + gamma_i) of the first
    N-1 links, each on [0, min(remaining rate, log2(1 + 745 G_i))]; the
    last link's CDF is closed form. Panels double until two successive
    estimates agree to 1e-8 relative. Supports N <= 4; DomainError where
    A_1(r_c) = 2^r_c - 1 overflows a float.
    """
    snrs = _require_snrs(avg_snrs)
    n = len(snrs)
    if n > MAX_QUADRATURE_LINKS:
        raise UnsupportedLinkCountError(
            f"JD quadrature supports N <= {MAX_QUADRATURE_LINKS}, got {n}; "
            "use Monte-Carlo instead")
    _require_nonnegative("r_c", r_c)
    if r_c == 0:
        return OutageEstimate(value=0.0, method="quadrature")
    try:
        math.expm1(r_c * LN2)
    except OverflowError:
        raise DomainError(f"A_1({r_c}) overflows a float") from None

    # Density and range of each rate share x = log2(1 + gamma).
    levels = [(_rate_share_density(mean),
               math.log2(1.0 + _JD_TAIL_MEANS * mean)) for mean in snrs]
    last = snrs[-1]

    def innermost(rate: np.ndarray) -> np.ndarray:
        rate = np.minimum(rate, levels[-1][1])
        return -np.expm1(-np.expm1(rate * LN2) / last)

    value, _ = _nested_integral(levels[:-1], innermost, r_c, 1e-8)
    return OutageEstimate(value=min(max(value, 0.0), 1.0), method="quadrature")


def asymptotic_outage_value(combiner, avg_snrs: Sequence[float],
                            r_c: float) -> float:
    """Unclamped high-SNR asymptote; may exceed 1 at low SNR. DomainError
    where it overflows a float or the SNR product underflows to 0."""
    combiner = Combiner.parse(combiner)
    snrs = _require_snrs(avg_snrs)
    _require_positive("r_c", r_c)
    if combiner is Combiner.SCO:
        snrs = snrs[:1]
    return _asymptote(combiner, len(snrs), r_c, math.prod(snrs))


def _asymptote(combiner: Combiner, n: int, r_c: float, product):
    """``asymptotic_outage_value`` of n links whose SNR product is
    ``product``: a float, or an array of row products. SCo is SC on its
    one link. DomainError where a product underflowed to 0 or A_1^n
    overflows a float; +inf where only the division overflows."""
    if not (product.all() if isinstance(product, np.ndarray) else product):
        raise DomainError("the product of the average SNRs underflows to 0")
    if combiner is Combiner.JD:
        return coding_constant(n, r_c) / product
    try:
        a1_n = coding_constant(1, r_c) ** n
        if combiner is Combiner.MRC:
            return a1_n / (math.factorial(n) * product)
    except OverflowError:
        raise DomainError(f"A_1({r_c})^{n} overflows a float") from None
    return a1_n / product


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


def _mrc_outage_convolution(snrs: Sequence[float], threshold: float) -> float:
    # Pr[sum of independent exponentials <= threshold], by nested quadrature
    # over the first N-1 SNRs. Where a mean is tiny, g / mean overflows and
    # the sum may be NaN, which the caller rejects.
    last = snrs[-1]
    levels = [(lambda g, mean=mean: np.exp(-g / mean) / mean,
               _MRC_TAIL_MEANS * mean) for mean in snrs[:-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        value, _ = _nested_integral(levels, lambda g: -np.expm1(-g / last),
                                    threshold, 1e-9)
    return value


def outage_exact_closed(combiner, avg_snrs: Sequence[float],
                        r_c: float) -> OutageEstimate:
    """Closed-form exact outage for SC, MRC, and SCo (JD has none).

    MRC routes between the equal-SNR and distinct-SNR forms based on the
    pairwise spacing of the average SNRs; near-degenerate spacing uses a
    numerical convolution fallback because the partial-fraction form is
    ill-conditioned there.
    """
    combiner = Combiner.parse(combiner)
    snrs = _require_snrs(avg_snrs)
    _require_nonnegative("r_c", r_c)
    if combiner is Combiner.JD:
        raise DomainError("JD has no closed exact form; use quadrature or "
                          "Monte-Carlo")
    if r_c == 0:
        return OutageEstimate(value=0.0, method="closed-form")
    return OutageEstimate(
        value=_closed_form(combiner, snrs, coding_constant(1, r_c)),
        method="closed-form")


def _closed_form(combiner: Combiner, snrs: list[float], a1: float) -> float:
    """``outage_exact_closed`` of SC, MRC or SCo at A_1(R_c) = a1 > 0."""
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
            try:
                value = math.fsum(terms)
            except (OverflowError, ValueError):  # inf - inf in the terms
                value = math.nan
        else:
            value = _mrc_outage_convolution(snrs, a1)
    return min(max(_require_finite("closed-form outage", value), 0.0), 1.0)


def outage_jd_lower_bound_tse(avg_snr: float, n: int,
                              r_c: float) -> OutageEstimate:
    """Equal-rate-share lower bound on JD outage for equal average SNRs:
    [1 - exp(-A_1(R_c/N)/G)]^N."""
    _require_positive("avg_snr", avg_snr)
    _require_count("n", n, 1)
    _require_nonnegative("r_c", r_c)
    per_link = coding_constant(1, r_c / n)
    value = (-math.expm1(-per_link / avg_snr)) ** n
    return OutageEstimate(value=value, method="bound-lower")
