"""The public functions on their whole input domain: each call returns a
finite value in its documented range or raises a package error, and never
a raw exception, a NaN, an infinity or a numpy warning. The trace functions
take small traces (at most 35 rows) with edge SNRs in dB."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from multiconn.exceptions import (BracketError, ConvergenceError, DomainError,
                                  QuadratureError, TraceError,
                                  UnsupportedLinkCountError)
from multiconn.field_trial import (SnrModelParams, SnrTrace,
                                   empirical_outage_cdf,
                                   empirical_throughput_cdf, synthesize_trace)
from multiconn.gains_dmt import (GainQuery, dmt, dmt_empirical,
                                 gain_slope_wrt_outage, gain_slope_wrt_rate,
                                 required_total_snr, snr_gain_jd_vs,
                                 snr_gain_mco_sco, snr_gain_mco_sco_approx)
from multiconn.link_model import Link, Topology, db_to_linear, linear_to_db
from multiconn.outage import (asymptotic_outage_value, outage_asymptotic,
                              outage_exact_closed, outage_jd_lower_bound_tse,
                              outage_jd_quadrature, outage_monte_carlo)
from multiconn.special_functions import (coding_constant,
                                         coding_constant_inverse,
                                         coding_constant_slope, coding_gain,
                                         exp_sum, lambert_w_asymptotic,
                                         lambert_w_upper_branch)
from multiconn.throughput import (achievable_rate_asymptotic,
                                  throughput_from_rate)

TYPED = (DomainError, ConvergenceError, QuadratureError, BracketError,
         UnsupportedLinkCountError, TraceError)

# Edge values, any float, and values of the size that the functions are
# used at, so that the valid domain is reached as well as its edges.
REAL = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                     5e-324, 1e-310, 1e-300, 1e308, 1e-3, 0.5, 1.0, 2.0,
                     30.0, 1000.0]),
    st.floats(),
    st.floats(1e-3, 1e3))
PROB = st.one_of(REAL, st.floats(1e-12, 0.999))
COUNT = st.one_of(st.integers(-2, 40),
                  st.sampled_from([2.5, 1.0, math.nan, math.inf, True]))
SNRS = st.lists(REAL, max_size=5)
COMBINER = st.sampled_from(["jd", "sc", "mrc", "sco", "bogus"])


def _query(d):
    n = d.draw(COUNT)
    distances = (tuple(d.draw(st.lists(REAL, min_size=n, max_size=n)))
                 if isinstance(n, int) and 1 <= n and d.draw(st.booleans())
                 else ())
    return GainQuery(n_links=n, r_c=d.draw(REAL), p_out=d.draw(PROB),
                     distances=distances, eta=d.draw(REAL))


# Average SNRs in dB: where the linear value underflows (-3240), is
# subnormal (-3100), overflows (3083) or whose products overflow, and the
# values traces hold.
SNR_DB = st.one_of(
    st.sampled_from([-3240.0, -3100.0, -400.0, -30.0, 0.0, -0.0, 1600.0,
                     3083.0, 1e308, math.nan, math.inf]),
    st.floats(-40.0, 80.0))


def _topology(d):
    # Half the time all means are near the float maximum, where sums of
    # draws overflow.
    means = d.draw(st.one_of(
        st.lists(REAL, min_size=1, max_size=3),
        st.lists(st.sampled_from([1e307, 1e308]), min_size=2, max_size=3)))
    return Topology(tuple(Link(g, 1.0, 1.0) for g in means), 20e6)


def _trace(d):
    # Unique (measurement, base station) pairs with drawn SNRs.
    pairs = d.draw(st.lists(st.tuples(st.integers(0, 6),
                                      st.sampled_from("ABCDE")),
                            min_size=1, max_size=35, unique=True))
    snrs = d.draw(st.lists(SNR_DB, min_size=len(pairs),
                           max_size=len(pairs)))
    return SnrTrace([m for m, _ in pairs], [b for _, b in pairs], snrs)


def _cdf(cdf):
    return (cdf.values.size > 0 and np.all(np.isfinite(cdf.values))
            and np.all(cdf.values >= 0)
            and cdf.probabilities[-1] == 1.0)


def _positive(v):
    return 0 < v < math.inf


def _nonnegative(v):
    return 0 <= v < math.inf


def _finite(v):
    return -math.inf < v < math.inf


def _probability(est):
    return 0 <= est.value <= 1


# name -> (call on drawn arguments, documented range of the result)
CASES = {
    "coding_constant": (
        lambda d: coding_constant(d.draw(COUNT), d.draw(REAL)), _nonnegative),
    "coding_constant_slope": (
        lambda d: coding_constant_slope(d.draw(COUNT), d.draw(REAL)),
        _nonnegative),
    "coding_constant_inverse": (
        lambda d: coding_constant_inverse(
            d.draw(COUNT), d.draw(REAL),
            mode=d.draw(st.sampled_from(["refined", "paper"]))), _positive),
    "exp_sum": (lambda d: exp_sum(d.draw(COUNT), d.draw(REAL)), _finite),
    "coding_gain": (
        lambda d: coding_gain(d.draw(COMBINER), d.draw(COUNT), d.draw(REAL)),
        _positive),
    "lambert_w_asymptotic": (
        lambda d: lambert_w_asymptotic(d.draw(REAL)), _positive),
    "lambert_w_upper_branch": (
        lambda d: lambert_w_upper_branch(d.draw(REAL)), _positive),
    "db_to_linear": (lambda d: db_to_linear(d.draw(REAL)), _positive),
    "linear_to_db": (lambda d: linear_to_db(d.draw(REAL)), _finite),
    "throughput_from_rate": (
        lambda d: throughput_from_rate(d.draw(REAL), d.draw(REAL),
                                       d.draw(PROB)), _nonnegative),
    "achievable_rate_asymptotic": (
        lambda d: achievable_rate_asymptotic(
            d.draw(COMBINER), d.draw(SNRS), d.draw(PROB),
            mode=d.draw(st.sampled_from(["refined", "paper"]))),
        _nonnegative),
    # Unclamped: +inf where only the final division overflows, the bits
    # that TestAsymptote.test_same_bits_as_the_per_combiner_formulas keeps.
    "asymptotic_outage_value": (
        lambda d: asymptotic_outage_value(d.draw(COMBINER), d.draw(SNRS),
                                          d.draw(REAL)), lambda v: v >= 0),
    "outage_asymptotic": (
        lambda d: outage_asymptotic(d.draw(COMBINER), d.draw(SNRS),
                                    d.draw(REAL)), _probability),
    "outage_exact_closed": (
        lambda d: outage_exact_closed(d.draw(COMBINER), d.draw(SNRS),
                                      d.draw(REAL)), _probability),
    # N <= 3 links, so that every quadrature stays fast.
    "outage_jd_quadrature": (
        lambda d: outage_jd_quadrature(d.draw(st.lists(REAL, max_size=3)),
                                       d.draw(REAL)), _probability),
    "outage_monte_carlo": (
        lambda d: outage_monte_carlo(
            d.draw(COMBINER), _topology(d), d.draw(PROB),
            sample_count=d.draw(st.integers(999, 1002)),
            seed=d.draw(st.integers(0, 3))), _probability),
    "outage_jd_lower_bound_tse": (
        lambda d: outage_jd_lower_bound_tse(d.draw(REAL), d.draw(COUNT),
                                            d.draw(REAL)), _probability),
    "snr_gain_mco_sco": (lambda d: snr_gain_mco_sco(_query(d)), _positive),
    "snr_gain_mco_sco_approx": (
        lambda d: snr_gain_mco_sco_approx(_query(d)), _positive),
    "snr_gain_jd_vs": (
        lambda d: snr_gain_jd_vs(d.draw(st.sampled_from(["sc", "mrc", "jd"])),
                                 d.draw(COUNT), d.draw(REAL)), _positive),
    "required_total_snr": (
        lambda d: required_total_snr(d.draw(COMBINER), _query(d)), _positive),
    "gain_slope_wrt_outage": (
        lambda d: gain_slope_wrt_outage(d.draw(COUNT), d.draw(PROB),
                                        rounded=d.draw(st.booleans())),
        lambda v: -math.inf < v < 0),
    "gain_slope_wrt_rate": (
        lambda d: gain_slope_wrt_rate(d.draw(COUNT),
                                      rounded=d.draw(st.booleans())),
        _positive),
    "dmt": (
        lambda d: dmt(d.draw(COMBINER), d.draw(REAL), d.draw(COUNT)),
        lambda p: (_finite(p.multiplexing_gain)
                   and _nonnegative(p.diversity_gain))),
    "dmt_empirical": (
        lambda d: dmt_empirical(d.draw(COMBINER), d.draw(REAL), d.draw(COUNT),
                                d.draw(st.lists(REAL, max_size=4))), _finite),
    "empirical_outage_cdf": (
        lambda d: empirical_outage_cdf(_trace(d), d.draw(COUNT), d.draw(REAL),
                                       d.draw(COMBINER)),
        lambda cdf: _cdf(cdf) and np.all(cdf.values <= 1)),
    "empirical_throughput_cdf": (
        lambda d: empirical_throughput_cdf(_trace(d), d.draw(COUNT),
                                           d.draw(PROB), d.draw(REAL),
                                           d.draw(COMBINER)), _cdf),
    "synthesize_trace": (
        lambda d: synthesize_trace(
            d.draw(st.integers(-1, 7)), d.draw(st.integers(-1, 5)),
            SnrModelParams(d.draw(REAL), d.draw(REAL), d.draw(REAL)),
            seed=d.draw(st.one_of(st.integers(-2, 2**70), st.just(2.5)))),
        lambda trace: bool(np.all(np.isfinite(trace.avg_snr_db)))),
}


@settings(max_examples=3000, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_in_range_or_typed_error(name, data):
    call, in_range = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(data)
        except TYPED:
            return
    assert in_range(value), f"{name} returned {value!r}"
    if isinstance(value, (float, np.generic)):
        assert type(value) is float, f"{name} returned {value!r}"
