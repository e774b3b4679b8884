import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import bisect, brentq

from multiconn import outage, throughput
from multiconn.combiners import Combiner
from multiconn.exceptions import BracketError, ConvergenceError, DomainError
from multiconn.link_model import Link, Topology
from multiconn.outage import outage_exact_closed, outage_jd_quadrature
from multiconn.special_functions import (coding_constant,
                                         coding_constant_inverse)
from multiconn.throughput import (DEFAULT_RATE_BRACKET,
                                  achievable_rate_asymptotic,
                                  achievable_rate_exact,
                                  throughput_asymptotic, throughput_exact,
                                  throughput_from_rate)


def _topology(means):
    return Topology(links=tuple(Link(m, 1.0, 2.0) for m in means),
                    bandwidth=20e6)


ROOT_MEANS = [[5.0], [0.3, 0.3], [5.0, 9.0], [40.0, 70.0, 100.0],
              [1e3, 1e3 * (1 + 1e-6), 2e3], [2.0, 3.0, 5.0, 8.0, 13.0, 21.0]]


def _exact(combiner, means, r_c):
    if combiner == "jd":
        return outage_jd_quadrature(means, r_c).value
    return outage_exact_closed(combiner, means, r_c).value


def _assert_root(combiner, means, p_out, r_c):
    """Within 1e-6 of a tight brentq root, and P(r - 1e-6) <= p_out <=
    P(r + 1e-6)."""
    expected = brentq(lambda r: _exact(combiner, means, r) - p_out,
                      *DEFAULT_RATE_BRACKET, xtol=1e-12)
    assert abs(r_c - expected) <= 1e-6
    assert (_exact(combiner, means, r_c - 1e-6) <= p_out
            <= _exact(combiner, means, r_c + 1e-6))


class TestThroughputFromRate:
    def test_arithmetic(self):
        assert throughput_from_rate(20e6, 2.0, 1e-3) == pytest.approx(
            20e6 * 2.0 * 0.999)

    def test_validation(self):
        with pytest.raises(DomainError):
            throughput_from_rate(0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            throughput_from_rate(1e6, -1.0, 0.1)
        with pytest.raises(DomainError):
            throughput_from_rate(1e6, 1.0, 1.5)


class TestAsymptoticRate:
    def test_selection_combining_closed_inverse(self):
        snrs, p = [1000.0, 2000.0], 1e-3
        expected = math.log2((p * 1000.0 * 2000.0) ** 0.5 + 1.0)
        assert achievable_rate_asymptotic("sc", snrs, p) == pytest.approx(
            expected, rel=1e-14)

    def test_mrc_closed_inverse(self):
        snrs, p = [1000.0, 2000.0], 1e-3
        expected = math.log2((2.0 * p * 2e6) ** 0.5 + 1.0)
        assert achievable_rate_asymptotic("mrc", snrs, p) == pytest.approx(
            expected, rel=1e-14)

    def test_single_link_inverse(self):
        assert achievable_rate_asymptotic("sco", [500.0], 1e-2) == \
            pytest.approx(math.log2(6.0), rel=1e-14)

    def test_joint_decoding_round_trip(self):
        # Rate from the inverse must reproduce the target on the asymptote.
        snrs, p = [300.0, 700.0], 1e-4
        r_c = achievable_rate_asymptotic("jd", snrs, p)
        asym = coding_constant(2, r_c) / (300.0 * 700.0)
        assert asym == pytest.approx(p, rel=1e-8)

    def test_joint_decoding_single_link(self):
        assert achievable_rate_asymptotic("jd", [500.0], 1e-2) == \
            pytest.approx(math.log2(6.0), rel=1e-14)

    def test_paper_mode_differs_but_is_close_at_high_snr(self):
        snrs, p = [1e5, 1e5, 1e5], 1e-3
        refined = achievable_rate_asymptotic("jd", snrs, p)
        approx = achievable_rate_asymptotic("jd", snrs, p, mode="paper")
        assert approx != refined
        assert approx == pytest.approx(refined, rel=0.1)

    @settings(max_examples=300, deadline=None)
    @given(combiner=st.sampled_from(["jd", "sc", "mrc", "sco"]),
           snrs=st.lists(st.floats(1e-3, 1e12), min_size=1, max_size=8),
           p_out=st.floats(1e-9, 0.5))
    def test_same_bits_as_the_per_combiner_inverses(self, combiner, snrs,
                                                    p_out):
        # The inverses as written before the row kernels were shared.
        n = len(snrs)
        target = p_out * math.prod(snrs)
        if combiner == "sco":
            expected = math.log2(p_out * snrs[0] + 1.0)
        elif combiner == "jd":
            expected = (math.log2(target + 1.0) if n == 1
                        else coding_constant_inverse(n, target))
        elif combiner == "sc":
            expected = math.log2(target ** (1.0 / n) + 1.0)
        else:
            expected = math.log2(
                (math.factorial(n) * target) ** (1.0 / n) + 1.0)
        assert achievable_rate_asymptotic(combiner, snrs, p_out) == expected

    def test_validation(self):
        with pytest.raises(DomainError):
            achievable_rate_asymptotic("jd", [], 1e-3)
        with pytest.raises(DomainError):
            achievable_rate_asymptotic("jd", [10.0], 0.0)


class TestExactRate:
    def test_selection_combining_root(self):
        topo = _topology([5.0, 9.0])
        p = 1e-2
        r_c = achievable_rate_exact("sc", topo, p)
        achieved = outage_exact_closed("sc", [5.0, 9.0], r_c).value
        assert achieved == pytest.approx(p, rel=1e-3)

    def test_joint_decoding_root(self):
        topo = _topology([20.0, 30.0])
        p = 1e-3
        r_c = achievable_rate_exact("jd", topo, p)
        achieved = outage_jd_quadrature([20.0, 30.0], r_c).value
        assert achieved == pytest.approx(p, rel=1e-3)

    @pytest.mark.parametrize("combiner", ["sc", "mrc", "sco"])
    @pytest.mark.parametrize("means", ROOT_MEANS)
    @pytest.mark.parametrize("p_out", [1e-5, 1e-3, 0.05, 0.5, 0.99])
    def test_root_bit_identical_to_scipy_bisect(self, combiner, means, p_out):
        # The name is from when the root was a bisection with the bits of
        # scipy.optimize.bisect. The secant root now meets the brentq
        # contract, and stays within 2e-6 of that bisection root: the rate
        # tolerance perfbench's check allows against the stored bisection
        # references.
        r_c = achievable_rate_exact(combiner, _topology(means), p_out)
        _assert_root(combiner, means, p_out, r_c)
        bisected = bisect(lambda r: _exact(combiner, means, r) - p_out,
                          *DEFAULT_RATE_BRACKET, xtol=1e-6)
        assert abs(r_c - bisected) <= 2e-6

    @pytest.mark.parametrize("means", [
        pytest.param(means, id=f"means{i}")
        for i, means in enumerate(ROOT_MEANS) if len(means) <= 3])
    @pytest.mark.parametrize("p_out", [1e-5, 1e-3, 0.05, 0.5, 0.99])
    def test_joint_decoding_root_within_tolerance_of_brentq(self, means,
                                                            p_out):
        r_c = achievable_rate_exact("jd", _topology(means), p_out)
        _assert_root("jd", means, p_out, r_c)

    def test_mrc_root_over_widely_spread_links(self):
        # Beside the link at 8.9e5 the others' gaps are below 1e-4 of it, so
        # MRC counts them as nearly tied; the nested convolution that served
        # such links raised QuadratureError.
        means, p_out = [0.26, 1.80, 94.3, 8.9e5, 111.0, 0.65], 5.5e-6
        r_c = achievable_rate_exact("mrc", _topology(means), p_out)
        _assert_root("mrc", means, p_out, r_c)
        assert r_c == pytest.approx(6.3173, abs=1e-4)

    @pytest.mark.parametrize("seed", [
        DomainError("seed"), ConvergenceError("seed"), math.nan, 0.0,
        5e-7, 64.0, 100.0, math.inf])
    def test_any_seed_gives_the_root(self, monkeypatch, seed):
        # The asymptotic seed may raise or fall outside the bracket; the
        # root then starts from a bisection.
        def fake_seed(*args, **kwargs):
            if isinstance(seed, Exception):
                raise seed
            return seed

        monkeypatch.setattr(throughput, "achievable_rate_asymptotic",
                            fake_seed)
        for combiner, means, p_out in [("sc", [5.0, 9.0], 1e-2),
                                       ("jd", [20.0, 30.0], 1e-3)]:
            r_c = achievable_rate_exact(combiner, _topology(means), p_out)
            _assert_root(combiner, means, p_out, r_c)

    def test_zero_outage_iterate_bisects(self, monkeypatch):
        # An outage that reads 0.0 below 0.9 of the root (as an underflow
        # would) has no logarithm: the next iterate is the bracket's
        # midpoint.
        means, p_out = [5.0, 9.0], 1e-2
        root = achievable_rate_exact("sc", _topology(means), p_out)
        rates = []

        def underflowing(combiner, snrs, r_c):
            rates.append(r_c)
            est = outage_exact_closed(combiner, snrs, r_c)
            return SimpleNamespace(value=est.value if r_c >= 0.9 * root
                                   else 0.0)

        monkeypatch.setattr(throughput, "outage_exact_closed", underflowing)
        monkeypatch.setattr(throughput, "achievable_rate_asymptotic",
                            lambda *args, **kwargs: 0.5 * root)
        r_c = achievable_rate_exact("sc", _topology(means), p_out)
        lo, hi = DEFAULT_RATE_BRACKET
        assert rates[:4] == [lo, hi, 0.5 * root, 0.5 * (0.5 * root + hi)]
        _assert_root("sc", means, p_out, r_c)

    @pytest.mark.parametrize("end", [0, 1])
    def test_target_at_a_bracket_end_returns_it(self, monkeypatch, end):
        p_out = 1e-3
        rate = DEFAULT_RATE_BRACKET[end]

        def outage(combiner, snrs, r_c):
            return SimpleNamespace(value=p_out * r_c / rate)

        monkeypatch.setattr(throughput, "outage_exact_closed", outage)
        assert achievable_rate_exact("sc", _topology([5.0]), p_out) == rate

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(throughput, "_MAX_ROOT_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            achievable_rate_exact("sc", _topology([5.0, 9.0]), 1e-2)

    def test_unattainable_target_raises(self):
        # At SNRs of 1e-9 the outage at the bracket's lowest rate, 1e-6,
        # is already near 1, far above the target.
        topo = _topology([1e-9, 1e-9])
        with pytest.raises(BracketError):
            achievable_rate_exact("sc", topo, 1e-3)

    def test_validation(self):
        topo = _topology([5.0])
        with pytest.raises(DomainError):
            achievable_rate_exact("sc", topo, 0.0)

    @pytest.mark.parametrize("combiner", ["jd", "sc", "mrc", "sco"])
    def test_rate_rows_have_the_bits_of_per_point_roots(self, monkeypatch,
                                                        combiner):
        # Seeded rows of 0..40 dB links and the unattainable [1e-9, 1e-9]:
        # a row reads nan where achievable_rate_exact raises, here
        # BracketError, and every row with the iteration cap at 1.
        rng = np.random.default_rng(80)
        snrs = np.vstack([10.0 ** rng.uniform(0.0, 4.0, (12, 2)),
                          [[1e-9, 1e-9]]])
        if combiner != "jd":
            snrs = np.hstack([snrs, snrs[:, :1] * 2.0])
        for cap in (throughput._MAX_ROOT_ITERATIONS, 1):
            monkeypatch.setattr(throughput, "_MAX_ROOT_ITERATIONS", cap)
            for p_out in (1e-4, 0.05):
                rates = throughput._rate_rows(Combiner.parse(combiner),
                                              snrs, p_out)
                for row, rate in zip(snrs.tolist(), rates.tolist()):
                    try:
                        expected = achievable_rate_exact(
                            combiner, _topology(row), p_out)
                    except (BracketError, ConvergenceError):
                        expected = math.nan
                    assert np.float64(rate).tobytes() == np.float64(
                        expected).tobytes()
                assert np.isnan(rates[-1])
                assert np.isnan(rates).all() == (cap == 1)


def _selection(means, share):
    # P_SC at a per-link rate share: prod(1 - e^(-(2^share - 1) / G_i)).
    return math.prod(-math.expm1(-math.expm1(share * math.log(2)) / g)
                     for g in means)


def _certified_rows(n, count, seed):
    # Seeded JD rows of 0..35 dB links whose roots at 1e-3 have both ends
    # certified.
    rng = np.random.default_rng(seed)
    snrs = 10.0 ** (rng.uniform(0.0, 35.0, (count, n)) / 10.0)
    assert all(throughput._jd_certified_ends(row, 1e-3) == (True, True)
               for row in snrs)
    return snrs


def _totals_spy(monkeypatch):
    # The total rates of every row that ``_nested_integral`` evaluates.
    totals, nested_integral = [], outage._nested_integral

    def spy(snrs, caps, rates, rows):
        totals.extend(rates[i] for i in rows)
        return nested_integral(snrs, caps, rates, rows)
    monkeypatch.setattr(outage, "_nested_integral", spy)
    return totals


def _uncertified(monkeypatch):
    monkeypatch.setattr(throughput, "_jd_certified_ends",
                        lambda snrs, p_out: (False, False))


class TestCertifiedEnds:
    """A JD root skips the quadrature at a bracket end whose sign closed-form
    bounds certify, and keeps the bits of a root that evaluates it."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bounds_enclose_the_exact_outage(self, n):
        # P_SC(R / N) <= P_JD(R) <= P_SC(R), within the quadrature's 1e-8.
        rng = np.random.default_rng(40 + n)
        for _ in range(6 if n == 4 else 12):
            means = list(10.0 ** rng.uniform(-1.0, 4.0, n))
            for r_c in (1e-6, 0.5, 2.0, 8.0, 64.0):
                value = outage_jd_quadrature(means, r_c).value
                assert _selection(means, r_c / n) <= value * (1 + 1e-8)
                assert value <= _selection(means, r_c) * (1 + 1e-8)

    def test_certified_ends_have_their_signs(self):
        # Every certified end's quadrature lies on the certified side of
        # p_out; targets near each bound give both verdicts at each end.
        lo, hi = DEFAULT_RATE_BRACKET
        rng = np.random.default_rng(50)
        verdicts = set()
        for n in (2, 3):
            for _ in range(8):
                means = list(10.0 ** rng.uniform(-2.0, 4.0, n))
                low, high = _selection(means, lo), _selection(means, hi / n)
                for p_out in {2 * low * 0.999, 2 * low * 1.001,
                              high / 2 * 0.999, high / 2 * 1.001}:
                    if not 0 < p_out < 1:
                        continue
                    ends = throughput._jd_certified_ends(means, p_out)
                    verdicts.update(enumerate(ends))
                    if ends[0]:
                        assert outage_jd_quadrature(means, lo).value < p_out
                    if ends[1]:
                        assert outage_jd_quadrature(means, hi).value > p_out
        assert verdicts == {(0, False), (0, True), (1, False), (1, True)}

    def test_invalid_snrs_certify_nothing(self):
        for means in ([0.0, 5.0], [-1.0, 5.0], [math.inf, 5.0],
                      [math.nan, 5.0]):
            assert throughput._jd_certified_ends(means, 1e-3) == (
                False, False)

    @pytest.mark.parametrize("n,count", [(2, 8), (3, 6), (4, 2)])
    def test_per_point_root_skips_the_certified_ends(self, monkeypatch, n,
                                                     count):
        lo, hi = DEFAULT_RATE_BRACKET
        for means in _certified_rows(n, count, seed=60 + n).tolist():
            with monkeypatch.context() as patch:
                totals = _totals_spy(patch)
                root = achievable_rate_exact("jd", _topology(means), 1e-3)
            assert totals and lo not in totals and hi not in totals
            with monkeypatch.context() as patch:
                _uncertified(patch)
                totals = _totals_spy(patch)
                expected = achievable_rate_exact("jd", _topology(means),
                                                 1e-3)
            assert totals[:2] == [lo, hi]
            assert root.hex() == expected.hex()

    @pytest.mark.parametrize("n,count", [(2, 12), (3, 8), (4, 3)])
    def test_sweep_column_skips_the_certified_ends(self, monkeypatch, n,
                                                   count):
        lo, hi = DEFAULT_RATE_BRACKET
        snrs = _certified_rows(n, count, seed=70 + n)
        with monkeypatch.context() as patch:
            totals = _totals_spy(patch)
            roots = throughput._rate_rows(Combiner.JD, snrs, 1e-3)
        assert totals and lo not in totals and hi not in totals
        with monkeypatch.context() as patch:
            _uncertified(patch)
            totals = _totals_spy(patch)
            expected = throughput._rate_rows(Combiner.JD, snrs, 1e-3)
        assert totals.count(lo) == totals.count(hi) == count
        assert roots.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("means,ends", [([1e-9, 1e-9], (False, True)),
                                            ([1e25, 1e25], (True, False))])
    def test_unattainable_target_raises_with_both_outages(self, monkeypatch,
                                                          means, ends):
        # One end is certified and the other fails: the message prints the
        # outage at both ends, as a root without certificates does.
        assert throughput._jd_certified_ends(means, 1e-3) == ends
        with pytest.raises(BracketError) as raised:
            achievable_rate_exact("jd", _topology(means), 1e-3)
        _uncertified(monkeypatch)
        with pytest.raises(BracketError) as expected:
            achievable_rate_exact("jd", _topology(means), 1e-3)
        assert str(raised.value) == str(expected.value)
        # The range prints each end's P_out - p_out + p_out: 0 for 1e25.
        low, high = (outage_jd_quadrature(means, rate).value - 1e-3 + 1e-3
                     for rate in DEFAULT_RATE_BRACKET)
        assert str(raised.value) == (
            "p_out=0.001 is not attainable within rate bracket [1e-06, 64.0] "
            f"(outage range [{low:.3g}, {high:.3g}])")
        assert np.isnan(throughput._rate_rows(Combiner.JD, np.array([means]),
                                              1e-3)[0])


class TestWrappers:
    def test_asymptotic_wrapper(self):
        result = throughput_asymptotic("sc", [1000.0, 1000.0], 1e-3, 20e6)
        assert result.method == "asymptotic"
        assert result.throughput == pytest.approx(
            20e6 * result.achieved_rate * 0.999)

    def test_exact_wrapper(self):
        topo = _topology([50.0, 50.0])
        result = throughput_exact("mrc", topo, 1e-2)
        assert result.method == "exact-root"
        assert result.throughput == pytest.approx(
            20e6 * result.achieved_rate * 0.99)

    def test_exact_approaches_asymptote_at_high_snr(self):
        snrs = [1e6, 1e6]
        topo = _topology(snrs)
        exact = throughput_exact("mrc", topo, 1e-3)
        asym = throughput_asymptotic("mrc", snrs, 1e-3, 20e6)
        assert exact.throughput == pytest.approx(asym.throughput, rel=0.05)
