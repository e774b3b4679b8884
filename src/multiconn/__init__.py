"""Reliability analysis of multi-connectivity over parallel Rayleigh links.

Outage probability, throughput, SNR gains, and the diversity-multiplexing
tradeoff for joint decoding, selection combining, maximal-ratio combining,
and the single-link baseline, plus empirical CDFs from SNR measurement
traces.
"""

from .combiners import Combiner
from .exceptions import (BracketError, ConvergenceError, DomainError,
                         QuadratureError, TraceError,
                         UnsupportedLinkCountError)
from .field_trial import (EmpiricalCdf, SnrModelParams, SnrTrace,
                          empirical_outage_cdf, empirical_throughput_cdf,
                          load_trace, synthesize_trace)
from .gains_dmt import (DmtPoint, GainQuery, dmt, dmt_empirical,
                        gain_slope_wrt_outage, gain_slope_wrt_rate,
                        required_total_snr, snr_gain_jd_vs, snr_gain_mco_sco,
                        snr_gain_mco_sco_approx)
from .link_model import (Link, Topology, average_snrs, db_to_linear,
                         equal_power_topology, iter_snr_chunks, linear_to_db)
from .outage import (OutageEstimate, instantaneous_capacity, outage_asymptotic,
                     outage_exact_closed, outage_jd_lower_bound_tse,
                     outage_jd_quadrature, outage_monte_carlo)
from .special_functions import (coding_constant, coding_constant_inverse,
                                coding_gain, exp_sum, lambert_w_asymptotic,
                                lambert_w_upper_branch)
from .throughput import (ThroughputResult, achievable_rate_asymptotic,
                         achievable_rate_exact, throughput_asymptotic,
                         throughput_exact, throughput_from_rate)

__all__ = [
    "Combiner",
    "BracketError", "ConvergenceError", "DomainError", "QuadratureError",
    "TraceError", "UnsupportedLinkCountError",
    "EmpiricalCdf", "SnrModelParams", "SnrTrace", "empirical_outage_cdf",
    "empirical_throughput_cdf", "load_trace", "synthesize_trace",
    "DmtPoint", "GainQuery", "dmt", "dmt_empirical", "gain_slope_wrt_outage",
    "gain_slope_wrt_rate", "required_total_snr", "snr_gain_jd_vs",
    "snr_gain_mco_sco", "snr_gain_mco_sco_approx",
    "Link", "Topology", "average_snrs", "db_to_linear",
    "equal_power_topology", "iter_snr_chunks", "linear_to_db",
    "OutageEstimate", "instantaneous_capacity", "outage_asymptotic",
    "outage_exact_closed", "outage_jd_lower_bound_tse",
    "outage_jd_quadrature", "outage_monte_carlo",
    "coding_constant", "coding_constant_inverse", "coding_gain", "exp_sum",
    "lambert_w_asymptotic", "lambert_w_upper_branch",
    "ThroughputResult", "achievable_rate_asymptotic", "achievable_rate_exact",
    "throughput_asymptotic", "throughput_exact", "throughput_from_rate",
]

__version__ = "0.1.0"
