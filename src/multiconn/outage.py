"""Outage probability of JD, SC, MRC, and SCo over parallel Rayleigh links.

Four evaluation routes are provided: streaming Monte-Carlo on the fading
sampler, deterministic nested Gauss-Legendre quadrature for JD, high-SNR
asymptotes, and the closed forms that exist for SC, MRC, and SCo; MRC with
nearly tied average SNRs, where its closed forms are ill-conditioned, takes
the matrix exponential of a pure-birth chain instead. Bounds
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
from .link_model import Topology, _to_snrs, average_snrs, iter_snr_chunks
from .special_functions import LN2, _each, _exp_sum, coding_constant

#: Largest link count served by nested quadrature.
MAX_QUADRATURE_LINKS = 4

# Nested quadrature: 16 Gauss-Legendre nodes per panel. An estimate takes
# (16 * panels) ** levels innermost evaluations per row, at most _MAX_NODES,
# which bounds its time; it takes a row's outermost nodes in blocks of at
# most _BLOCK_NODES evaluations (8 MiB per array), which bounds its memory
# and fixes the order of its sums. Rows share the numpy calls of a block
# while their blocks hold at most _ROW_NODES evaluations in all: 64 KiB per
# array, where 2^11 or 2^12 ran N = 3 sweeps up to 1.4 or 1.1 times slower
# and 2^14 ran exact_solve passes no faster.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_NODES = 1 << 26
_BLOCK_NODES = 1 << 20
_ROW_NODES = 1 << 13
# Panels double until two successive estimates agree to this, relative.
_REL_TOL = 1e-8
# Each JD rate share's range ends where its SNR exceeds this many means,
# where the density underflows (e^-745).
_JD_TAIL_MEANS = 745.0

# MRC spacing classification: relative gaps below _EQUAL_TOL collapse to the
# equal-SNR closed form, gaps above _DISTINCT_TOL use the partial-fraction
# form; anything in between is too ill-conditioned for either and takes the
# matrix exponential of the pure-birth chain.
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
    overwrite: the row formulas of ``instantaneous_capacity``."""
    if combiner is Combiner.JD:
        return np.log2(np.add(block, 1.0, out=block), out=block).sum(axis=1)
    if combiner is Combiner.MRC:
        # A sum beyond the float range is +inf, never an outage event.
        with np.errstate(over="ignore"):
            rows = block.sum(axis=1)
    elif combiner is Combiner.SC:
        rows = block.max(axis=1)
    else:
        rows = block[:, 0].copy()
    return np.log2(np.add(rows, 1.0, out=rows), out=rows)


def _fold_columns(ufunc, block: np.ndarray) -> np.ndarray:
    rows = block[:, 0].copy()
    for j in range(1, block.shape[1]):
        ufunc(rows, block[:, j], out=rows)
    return rows


def _least_reaching(capacity, r_c: float, guess, top: float) -> np.ndarray:
    """The least float x in [0, top] with capacity(x) >= r_c, for each
    element of ``guess``. ``capacity`` is elementwise, nondecreasing and
    at least r_c at ``top``.

    Floats order as their int64 views do. The seven floats around the guess
    are tried at once; where the least one is not bracketed among them,
    all elements are bisected on the views over [0, top].
    """
    def reached(keys):
        return capacity(keys.view(np.float64).copy()) >= r_c

    end = np.float64(top).view(np.int64)
    # + 0.0 turns -0.0, whose int64 view is negative, into 0.0.
    near = (np.clip(np.array(guess, ndmin=1), 0.0, top) + 0.0).view(np.int64)
    keys = np.clip(near + np.arange(-3, 4)[:, None], 0, end)
    with np.errstate(divide="ignore", over="ignore"):
        up = reached(keys)
        if np.all((~up[0] | (keys[0] == 0)) & up[-1]):
            return keys[up.argmax(axis=0), np.arange(near.size)].view(
                np.float64)
        lo, hi = np.zeros_like(near), np.full_like(near, end)
        while (lo < hi).any():
            mid = lo + (hi - lo) // 2
            up = reached(mid)
            lo, hi = np.where(up, lo, mid + 1), np.where(up, mid, hi)
    return hi.view(np.float64)


def _event_test(combiner: Combiner, means: np.ndarray, r_c: float):
    """(reduce, limit): a row of uniform draws u, whose SNRs are
    -means * log1p(-u), is an outage event iff reduce(u) < limit.

    ``reduce`` maps a (rows, N) block of u, which it may overwrite, to one
    value per row: SC the largest u_i - t_i, SCo u_1 against t_1, MRC the
    SNR sum and JD the product of the 1 + SNR_i. Each threshold is the
    least float at which the capacity reaches r_c through the sampler's own
    rounding, so SC and SCo count exactly the rows whose capacity is below
    r_c; MRC and JD differ from that only where their sum or product
    rounds across the threshold. Where 2^r_c overflows, no product reaches
    it, and JD compares the capacity of each row with r_c instead.
    """
    with np.errstate(over="ignore"):
        a1 = np.expm1(r_c * LN2)
    if combiner is Combiner.MRC:
        limit = _least_reaching(lambda s: np.log2(s + 1.0), r_c, a1, math.inf)
        weights = -means

        # An in-order multiply-add fold over the columns, not the BLAS
        # product logs @ weights: OpenBLAS runs that on a thread of its own
        # that contends with the sampler's pool, which made call times
        # vary, and its bits depend on the CPU's BLAS kernel.
        def sums(u):
            logs = np.log1p(np.negative(u, out=u), out=u)
            with np.errstate(over="ignore"):
                rows = np.multiply(logs[:, 0], weights[0])
                for j in range(1, logs.shape[1]):
                    np.add(rows, np.multiply(logs[:, j], weights[j],
                                             out=logs[:, j]), out=rows)
            return rows
        return sums, limit
    if combiner is Combiner.JD:
        limit = _least_reaching(np.log2, r_c, a1 + 1.0, math.inf)
        if limit[0] == math.inf:
            return (lambda u: _capacity_rows(combiner, _to_snrs(u, means)),
                    r_c)

        def products(u):
            rows = np.add(_to_snrs(u, means), 1.0, out=u)
            with np.errstate(over="ignore"):
                return _fold_columns(np.multiply, rows)
        return products, limit
    if combiner is Combiner.SCO:
        means = means[:1]
    # The least u at which link i alone reaches r_c.
    with np.errstate(over="ignore"):
        guess = -np.expm1(-a1 / means)
    t = _least_reaching(lambda u: np.log2(_to_snrs(u, means) + 1.0), r_c,
                        guess, 1.0)
    if combiner is Combiner.SCO:
        return (lambda u: u[:, 0]), t
    return (lambda u: _fold_columns(np.maximum, np.subtract(u, t, out=u)),
            0.0)


def outage_monte_carlo(combiner, topology: Topology, r_c: float,
                       sample_count: int = 10_000_000,
                       seed: int = 0) -> OutageEstimate:
    """Estimate outage as the fraction of sampled SNR rows below rate r_c.

    Streams fixed-size chunks from the deterministic sampler, so on one CPU
    and numpy build the result depends only on (topology, r_c,
    sample_count, seed), never on the number of threads that draw the
    chunks. numpy's SIMD ``log1p`` can differ from ``math.log1p`` in the
    last bit, so a row within rounding of a threshold may count
    differently on another CPU. The thread that draws a chunk
    also reduces its uniform draws to one value per row, one threshold
    test per combiner (see ``_event_test``), without taking a capacity per
    row; the calling thread counts the rows in outage, chunk by chunk in
    order. The confidence half-width is the 95% normal approximation;
    estimates backed by fewer than 100 outage events are flagged
    unreliable.
    """
    combiner = Combiner.parse(combiner)
    _require_count("sample_count", sample_count, _MIN_MC_SAMPLES)
    _require_nonnegative("r_c", r_c)
    reduce, limit = _event_test(combiner, average_snrs(topology), r_c)
    events = 0
    for column in iter_snr_chunks(topology, sample_count, seed,
                                  reduce=reduce):
        events += int(np.count_nonzero(column < limit))
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


def _nested_sum(snrs, caps, remaining, rows, rules):
    # One estimate of the JD outage of each of ``rows`` of the ascending
    # average SNRs, at total rates ``remaining``: level k runs the (nodes,
    # weights) of rules[k] on [0, 1] scaled to [0, min(remaining, cap_k)] at
    # every node of the levels above, as upper * weights * density(upper *
    # nodes), in place in three arrays. Link k's rate share x has density
    # ln2/G * e^(y - expm1(y)/G), y = x ln2; the last link's CDF is closed.
    def link(values, k, ndim):  # link k's, for arrays of ndim dimensions
        return values[(rows, k) + (None,) * (ndim - 1)]
    n = snrs.shape[1] - 1
    factors = []
    for k, (nodes, weights) in zip(range(n), rules):
        upper = np.minimum(remaining, link(caps, k, k + 1))[..., None]
        x = np.multiply(upper, nodes)
        mean, scratch = link(snrs, k, k + 2), np.empty_like(x)
        y = np.multiply(x, LN2, out=np.empty_like(x))
        np.divide(np.expm1(y, out=scratch), mean, out=scratch)
        factor = np.exp(np.subtract(y, scratch, out=y), out=y)
        np.multiply(factor, LN2 / mean, out=factor)
        factors.append(np.multiply(np.multiply(upper, weights, out=scratch),
                                   factor, out=factor))
        remaining = np.subtract(remaining[..., None], x, out=x)
    rate = np.minimum(remaining, link(caps, n, n + 1), out=remaining)
    np.expm1(np.multiply(rate, LN2, out=rate), out=rate)
    np.divide(rate, link(snrs, n, n + 1), out=rate)
    estimate = np.negative(np.expm1(np.negative(rate, out=rate), out=rate),
                           out=rate)
    for factor in reversed(factors):
        estimate = np.einsum("...i,...i->...", factor, estimate)
    return estimate


def _jd_caps(snrs: np.ndarray) -> np.ndarray:
    # Each rate share x = log2(1 + gamma) runs up to log1p(745 G)/ln2, which
    # keeps the range of a weak link that 1 + 745 G rounds to [0, 0].
    return np.array([math.log1p(_JD_TAIL_MEANS * g) for g in
                     snrs.ravel().tolist()]).reshape(snrs.shape) / LN2


def _nested_integral(snrs, caps, totals, rows):
    """The JD outage at the total rate totals[i] of each i of ``rows``
    (increasing indices into the (n, N) ascending average SNRs ``snrs``,
    whose rate-share caps are ``caps``), clamped to [0, 1]: one value per
    row of ``snrs``, nan where a row is not evaluated or would pass
    _MAX_NODES.

    Composite Gauss-Legendre on equal panels, each level evaluated over all
    nodes of the level above at once. Each row's panel count doubles until
    two successive estimates agree to _REL_TOL relative; the rows at one
    panel count share their numpy calls, up to _ROW_NODES innermost nodes
    per call.
    """
    values = [math.nan] * len(totals)
    active = list(rows)
    panels, depth = 1, snrs.shape[1] - 1
    while active and (_GL_NODES.size * panels) ** depth <= _MAX_NODES:
        nodes, weights = _RULES.get(panels) or _panel_rule(panels)
        inner = [(nodes, weights)] * (depth - 1)
        block = max(1, _BLOCK_NODES // nodes.size ** len(inner))
        step = max(1, _ROW_NODES // (min(block, nodes.size)
                                     * nodes.size ** len(inner)))
        chunks, active = [active[s:s + step]
                          for s in range(0, len(active), step)], []
        for chunk in chunks:
            # A slice where the rows are consecutive: cheaper to index.
            rows = (slice(chunk[0], chunk[-1] + 1)
                    if chunk[-1] - chunk[0] < len(chunk) else np.array(chunk))
            estimate = sum(_nested_sum(
                snrs, caps, totals[rows].copy(), rows,
                [(nodes[i:i + block], weights[i:i + block])] + inner)
                for i in range(0, nodes.size, block))
            for row, value in zip(chunk, estimate.tolist()):
                if not abs(value - values[row]) <= _REL_TOL * abs(value):
                    active.append(row)
                values[row] = value
        panels *= 2
    for row in active:
        values[row] = math.nan
    return np.array([min(max(value, 0.0), 1.0) for value in values])


def outage_jd_quadrature(avg_snrs: Sequence[float],
                         r_c: float) -> OutageEstimate:
    """Exact JD outage via nested Gauss-Legendre quadrature.

    Integrates over the rate shares x_i = log2(1 + gamma_i) of all links but
    the strongest, weakest outermost, each on [0, min(remaining rate,
    log2(1 + 745 G_i))]; the strongest link's CDF is closed form, so the
    value does not depend on the link order. Panels double until two
    successive estimates agree to 1e-8 relative, QuadratureError once that
    would pass _MAX_NODES innermost evaluations. Supports N <= 4;
    DomainError where A_1(r_c) = 2^r_c - 1 overflows a float, or where an
    average SNR is below ln 2 / DBL_MAX (about 3.9e-309). A sweep column
    gives each of its points these bits through ``_jd_outage_rows``.
    """
    # Ascending: equal panels miss the steep CDF of a weak last link.
    snrs = sorted(_require_snrs(avg_snrs))
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
    for mean in snrs:
        _require_positive("JD rate-share density scale ln2/G", LN2 / mean)
    snrs = np.array([snrs])
    value = _nested_integral(snrs, _jd_caps(snrs), np.array([float(r_c)]),
                             [0]).item()
    if math.isnan(value):
        raise QuadratureError(
            f"relative tolerance {_REL_TOL} not achieved within "
            f"{_MAX_NODES} innermost evaluations per estimate")
    return OutageEstimate(value=value, method="quadrature")


def _jd_outage_rows(snrs: np.ndarray):
    """``outage(rows, r_c)``: for each i of ``rows`` (increasing indices
    into an (n, N) array of average SNRs), ``outage_jd_quadrature(snrs[i],
    r_c).value``, nan where it raises; r_c is a float or one rate per row
    of ``rows``, each positive with a finite A_1(r_c). A call runs all its
    rows through one ``_nested_integral``; the caps are built once."""
    snrs = np.sort(snrs, axis=1)
    # A row raises where an SNR is not finite and positive, or so small
    # that ln2/G overflows, and where it has more than 4 links.
    with np.errstate(divide="ignore", over="ignore"):
        ok = ((snrs[:, 0] > 0) & (LN2 / snrs[:, 0] < math.inf)
              & (snrs[:, -1] < math.inf)
              & (snrs.shape[1] <= MAX_QUADRATURE_LINKS))
    snrs = np.where(ok[:, None], snrs, 1.0)
    caps, ok = _jd_caps(snrs), ok.tolist()

    def outage(rows, r_c):
        totals = np.zeros(len(snrs))
        totals[rows] = r_c
        return _nested_integral(snrs, caps, totals,
                                [i for i in rows if ok[i]])[rows]
    return outage


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


def _mrc_birth_cdf(snrs: Sequence[float], threshold: float) -> float:
    # Pr[sum of independent exponentials <= threshold] is entry (0, N) of
    # exp(Q t), Q the generator of the pure-birth chain that leaves stage i
    # at rate 1 / snrs[i]: N + 12 Taylor terms of Q t 2^-s (norm below 1/2),
    # then s squarings, each given its exact diagonal, since a slow stage's
    # 1 - 1e-20 rounds to 1. A stage whose rate overflows a float adds
    # nothing to the sum in double precision, so it is left out.
    rates = [threshold / g for g in snrs]
    diagonal = -np.array([r for r in rates if r < math.inf] + [0.0])
    s = max(math.frexp(-diagonal.min())[1] + 2, 0)
    step = np.ldexp(np.diag(diagonal) - np.diag(diagonal[:-1], 1), -s)
    term = total = np.eye(diagonal.size)
    for k in range(1, diagonal.size + 12):
        term = term @ step / k
        total = total + term
    for j in range(s - 1, -1, -1):
        total = total @ total
        np.fill_diagonal(total, np.exp(np.ldexp(diagonal, -j)))
    return float(total[0, -1])


def outage_exact_closed(combiner, avg_snrs: Sequence[float],
                        r_c: float) -> OutageEstimate:
    """Closed-form exact outage for SC, MRC, and SCo (JD has none).

    MRC routes between the equal-SNR and distinct-SNR forms based on the
    pairwise spacing of the average SNRs; near-degenerate spacing, where
    both forms are ill-conditioned, takes the matrix exponential of the
    pure-birth chain whose absorption time is the SNR sum.
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
        kind, value = _spacing_kind(snrs), math.nan
        if kind == "equal":
            a = a1 / (sum(snrs) / n)
            value = 1.0 - math.exp(-a) * _exp_sum(n, a)
        elif kind == "distinct":
            terms = []
            for i, gi in enumerate(snrs):
                prod = math.prod(1.0 / (gi - gj)
                                 for j, gj in enumerate(snrs) if j != i)
                terms.append(gi ** (n - 1) * -math.expm1(-a1 / gi) * prod)
            try:
                value = math.fsum(terms)
            except (OverflowError, ValueError):  # inf - inf in the terms
                pass
        # Degenerate spacing, or a form that is not finite (subnormal SNRs).
        if not math.isfinite(value):
            value = _mrc_birth_cdf(snrs, a1)
    return min(max(_require_finite("closed-form outage", value), 0.0), 1.0)


def outage_jd_lower_bound_tse(avg_snr: float, n: int,
                              r_c: float) -> OutageEstimate:
    """Equal-rate-share lower bound on JD outage for equal average SNRs:
    [1 - exp(-A_1(R_c/N)/G)]^N."""
    _require_positive("avg_snr", avg_snr)
    _require_count("n", n, 1)
    _require_nonnegative("r_c", r_c)
    value = _jd_lower_bound(coding_constant(1, r_c / n), avg_snr, n)
    return OutageEstimate(value=value, method="bound-lower")


def _jd_lower_bound(per_link: float, avg_snr, n: int):
    """``outage_jd_lower_bound_tse`` at A_1(R_c/N) = per_link: of a float
    average SNR, or of each element of an array of them."""
    return _each(math.pow, -_each(math.expm1, -per_link / avg_snr), n)
