import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import bisect, brentq

from multiconn import throughput
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
