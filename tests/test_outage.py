import itertools
import math
import multiprocessing
import os
import queue
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from multiconn import cli, link_model, outage
from multiconn.combiners import Combiner
from multiconn.exceptions import (DomainError, QuadratureError,
                                  UnsupportedLinkCountError)
from multiconn.link_model import (CHUNK_SIZE, Link, Topology, average_snrs,
                                  db_to_linear, equal_power_topology)
from multiconn.outage import (OutageEstimate, asymptotic_outage_value,
                              instantaneous_capacity, outage_asymptotic,
                              outage_exact_closed, outage_jd_lower_bound_tse,
                              outage_jd_quadrature, outage_monte_carlo)
from multiconn.selftest import _coding_constant_quadrature
from multiconn.special_functions import LN2, coding_constant

# High-precision reference values (frozen from 40-digit arithmetic).
JD_QUAD_ORACLE = {
    ((8.0, 8.0), 0.5): 0.00114831797511516,
    ((5.0, 9.0), 1.0): 0.00783856328030342,
}
SC_ORACLE_5_9_RC1 = 0.019062397846864127
MRC_EQUAL_ORACLE_N3_G7_RC1 = 0.00043670743091302135
MRC_DISTINCT_ORACLE_4_9_16_RC1 = 0.00026049485314540337
TSE_ORACLE_N2_G10_RC1 = 0.0016463480601457564


def _topology(means):
    return Topology(links=tuple(Link(m, 1.0, 2.0) for m in means),
                    bandwidth=20e6)


def _jd_mpmath(snrs, r_c, weak_first=False):
    # 20-digit nested quadrature over the rate shares x_i = log2(1 + g_i)
    # on [0, remaining rate], split around each density's peak at
    # log2(1 + G_i); the last link's CDF is closed form. ``weak_first``
    # takes the links in ascending mean (the weakest outermost) and splits
    # each range at rate * 10^-k (k = 1..12) instead, which resolves a weak
    # link's density, all of it within a few G of 0, at any scale of G; the
    # peak splits read 0.0 for [5e-6, 5] at R = 1.
    with mp.workdps(20):
        ln2 = mp.log(2)
        means = [mp.mpf(g) for g in (sorted(snrs) if weak_first else snrs)]

        def level(i, rate):
            mean = means[i]
            if i == len(means) - 1:
                return -mp.expm1(-mp.expm1(rate * ln2) / mean)
            if weak_first:
                cuts = [rate * mp.mpf(10) ** -k for k in range(12, 0, -1)]
            else:
                peak = mp.log(1 + mean, 2)
                cuts = [peak + d for d in (-2, 2, 4, 6)
                        if 0 < peak + d < rate]

            def integrand(x):
                density = ln2 / mean * mp.exp(x * ln2
                                              - mp.expm1(x * ln2) / mean)
                return density * level(i + 1, rate - x)

            return mp.quad(integrand, [mp.mpf(0)] + cuts + [rate],
                           method="gauss-legendre")

        return float(level(0, mp.mpf(r_c)))


def _jd_nested_quad(snrs, r_c, rel_tol):
    # Adaptive nested quadrature over the SNRs, the route that computed
    # exact JD outage before the Gauss-Legendre engine.
    n = len(snrs)

    def level(i, remaining_rate):
        if i == n - 1:
            return -math.expm1(-(2.0 ** remaining_rate - 1.0) / snrs[i])
        mean = snrs[i]

        def integrand(g):
            inner = level(i + 1, remaining_rate - math.log2(1.0 + g))
            return math.exp(-g / mean) / mean * inner

        upper = min(2.0 ** remaining_rate - 1.0, 700.0 * mean)
        value, _ = quad(integrand, 0.0, upper, epsabs=0.0,
                        epsrel=rel_tol / n, limit=200)
        return value

    return level(0, r_c)


def _mrc_mpmath(snrs, threshold):
    # Pr[sum of exponentials <= threshold]: absorption of the pure-birth
    # chain through one stage per link, by a 50-digit matrix exponential.
    with mp.workdps(50):
        n = len(snrs)
        rates = mp.zeros(n + 1, n + 1)
        for i, mean in enumerate(snrs):
            rates[i, i] = -1 / mp.mpf(mean)
            rates[i, i + 1] = 1 / mp.mpf(mean)
        return float(mp.expm(rates * threshold)[0, n])


def _means(n, snr_db, spacing):
    # Per-link means summing to about the total SNR: equal, with relative
    # gaps of ``spacing``, or spread over a factor of up to 4.
    mean = 10.0 ** (snr_db / 10.0) / n
    if spacing == "distinct":
        return [mean * (0.5 + 0.75 * j) for j in range(n)]
    return [mean * (1.0 + j * spacing) for j in range(n)]


_SPACINGS = [0.0, 1e-8, 1e-6, 1e-4, "distinct"]
JD_MPMATH_CASES = (
    [(2, db, spacing, r_c) for db in (-5, 10, 30, 60)
     for spacing in _SPACINGS for r_c in (0.5, 4.0, 16.0)]
    + [(3, -5, 1e-8, 0.5), (3, 0, "distinct", 2.0), (3, 10, 0.0, 4.0),
       (3, 20, 1e-4, 2.0), (3, 30, "distinct", 0.5),
       (3, 40, 1e-6, 8.0), (3, 50, 0.0, 16.0), (3, 60, "distinct", 1.0)])


def _row_capacity(combiner, block):
    # The per-row formulas as numpy axis=1 reductions: the reference the
    # column-wise reduction must match bit for bit.
    if combiner is Combiner.SC:
        return np.log2(1.0 + block.max(axis=1))
    if combiner is Combiner.MRC:
        return np.log2(1.0 + block.sum(axis=1))
    if combiner is Combiner.JD:
        return np.log2(1.0 + block).sum(axis=1)
    return np.log2(1.0 + block[:, 0])


def _serial_events(combiner, topology, r_c, sample_count, seed):
    # One chunk after another on the caller's thread: each chunk is
    # -means * log1p(-u) on the Philox draws keyed by (seed, chunk).
    combiner = Combiner.parse(combiner)
    means = average_snrs(topology)
    events = 0
    for i, start in enumerate(range(0, sample_count, CHUNK_SIZE)):
        key = np.array([seed % 2**64, i], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(
            (min(CHUNK_SIZE, sample_count - start), len(means)))
        block = -means * np.log1p(-u)
        events += int(np.count_nonzero(_row_capacity(combiner, block) < r_c))
    return events


def _events(est):
    return round(est.value * est.sample_count)


def _spread_topology(n):
    return _topology([2.0 * 1.7 ** i for i in range(n)])


def _estimate_into(results, *args):
    results.put(outage_monte_carlo(*args).value)


def _estimate_in_forked_child(args):
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_estimate_into, args=(results, *args))
    child.start()
    try:
        got = results.get(timeout=30)
        child.join(timeout=30)
        assert not child.is_alive()
    except queue.Empty:
        pytest.fail("the forked child's estimate never finished")
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == 0
    return got


class TestInstantaneousCapacity:
    @pytest.mark.parametrize("n", [*range(1, 17), 127, 128, 129, 200])
    def test_capacity_rows_bitwise_equal_row_formulas(self, n):
        rng = np.random.default_rng(n)
        block = rng.exponential(size=(3000, n)) * 10.0 ** rng.uniform(
            -3.0, 4.0, size=(3000, n))
        for combiner in Combiner:
            expected = _row_capacity(combiner, block)
            got = outage._capacity_rows(combiner, block.copy())
            assert np.array_equal(got, expected)
            assert np.array_equal(got.view(np.int64),
                                  expected.view(np.int64))

    def test_does_not_modify_caller_array(self):
        g = np.array([3.0, 1.0])
        assert instantaneous_capacity("jd", g) == pytest.approx(3.0)
        assert g.tolist() == [3.0, 1.0]

    def test_formulas(self):
        g = [3.0, 1.0]
        assert instantaneous_capacity("sc", g) == pytest.approx(2.0)
        assert instantaneous_capacity("mrc", g) == pytest.approx(
            math.log2(5.0))
        assert instantaneous_capacity("jd", g) == pytest.approx(3.0)
        assert instantaneous_capacity("sco", g) == pytest.approx(2.0)

    def test_joint_decoding_dominates(self):
        g = [2.5, 0.3, 1.1]
        jd = instantaneous_capacity("jd", g)
        mrc = instantaneous_capacity("mrc", g)
        sc = instantaneous_capacity("sc", g)
        sco = instantaneous_capacity("sco", g)
        assert jd >= mrc >= sc >= sco

    def test_validation(self):
        with pytest.raises(DomainError):
            instantaneous_capacity("jd", [])
        with pytest.raises(DomainError):
            instantaneous_capacity("jd", [-1.0])

    @pytest.mark.parametrize("combiner,gammas", [
        ("jd", [math.nan, 1.0]), ("sc", [math.inf]), ("mrc", [1.0, math.inf]),
        ("sco", [math.nan])])
    def test_non_finite_snr_rejected(self, combiner, gammas):
        with pytest.raises(DomainError):
            instantaneous_capacity(combiner, gammas)


class TestMonteCarlo:
    def test_deterministic(self):
        topo = _topology([5.0, 9.0])
        a = outage_monte_carlo("sc", topo, 1.0, sample_count=50_000, seed=3)
        b = outage_monte_carlo("sc", topo, 1.0, sample_count=50_000, seed=3)
        assert a.value == b.value
        assert a.method == "monte-carlo"
        assert a.sample_count == 50_000
        assert 0.0 <= a.value <= 1.0
        assert a.ci_half_width > 0

    @pytest.mark.parametrize("combiner", ["jd", "sc", "mrc", "sco"])
    def test_overflowing_draws_are_silent_and_never_in_outage(self, combiner):
        # Link 2's mean is 1e308, so about one draw in six overflows to
        # +inf (on a worker thread). Link 1 draws the same values as with a
        # mean of 1; an overflowed row is no event under any combiner.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = outage_monte_carlo(combiner, _topology([1.0, 1e308]), 1.0,
                                     sample_count=20_000, seed=5)
            # Both means at 1e308: the MRC sum overflows as well.
            both = outage_monte_carlo(combiner, _topology([1e308, 1e308]),
                                      1.0, sample_count=20_000, seed=5)
        assert both.value == 0.0
        if combiner == "sco":
            ref = outage_monte_carlo(combiner, _topology([1.0, 1.0]), 1.0,
                                     sample_count=20_000, seed=5)
            assert big.value == ref.value > 0
        else:
            assert big.value == 0.0

    def test_low_event_flag(self):
        topo = _topology([1000.0, 1000.0])
        est = outage_monte_carlo("jd", topo, 0.05, sample_count=10_000, seed=0)
        assert est.low_event_count
        assert "low-events" in est.flags

    def test_validation(self):
        topo = _topology([1.0])
        with pytest.raises(DomainError):
            outage_monte_carlo("jd", topo, 1.0, sample_count=10)
        with pytest.raises(DomainError):
            outage_monte_carlo("jd", topo, -1.0)

    @pytest.mark.parametrize("r_c", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, r_c):
        with pytest.raises(DomainError):
            outage_monte_carlo("sc", _topology([1.0]), r_c,
                               sample_count=5000)

    @pytest.mark.parametrize("count", [5000.0, True, "5000", None])
    def test_non_integer_sample_count_rejected(self, count):
        with pytest.raises(DomainError):
            outage_monte_carlo("sc", _topology([1.0]), 1.0,
                               sample_count=count)

    def test_numpy_integer_sample_count(self):
        topo = _topology([3.0, 4.0])
        a = outage_monte_carlo("jd", topo, 1.0, sample_count=np.int64(5000))
        b = outage_monte_carlo("jd", topo, 1.0, sample_count=5000)
        assert a == b

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9])
    @pytest.mark.parametrize("count", [1000, CHUNK_SIZE,
                                       3 * CHUNK_SIZE + 17])
    def test_counts_equal_serial_reference(self, n, count):
        topo = _spread_topology(n)
        for combiner in Combiner:
            est = outage_monte_carlo(combiner, topo, 1.5, sample_count=count,
                                     seed=40 + n)
            assert _events(est) == _serial_events(combiner, topo, 1.5, count,
                                                  seed=40 + n)

    # The edges of the threshold tests: R_c = 0; R_c so small that A_1/G
    # underflows or 2^R_c rounds to 1; R_c where 2^R_c nears or leaves the
    # float range (at [1e160, 1e160] JD's product overflows where its
    # capacity is below 1100); means from subnormal to 1e308; N = 130.
    @pytest.mark.parametrize("r_c", [0.0, 1e-320, 1e-300, 1e-15, 1.5,
                                     1023.9, 1024.0, 1100.0])
    @pytest.mark.parametrize("means", [
        pytest.param([1e308, 1e308, 3e307], id="huge"),
        pytest.param([1e160, 1e160], id="1e160"),
        pytest.param([1e308, 1.0, 5e-324], id="huge-subnormal"),
        pytest.param([5e-324, 1e-310, 2e-308], id="subnormal"),
        pytest.param([1e-12, 3e-14], id="tiny"),
        pytest.param(list(10.0 ** np.linspace(-300, 300, 130)),
                     id="n130-spread"),
        pytest.param([2.0 * 1.1 ** i for i in range(130)], id="n130")])
    def test_edge_counts_equal_serial_reference(self, means, r_c):
        topo = _topology(means)
        for combiner in Combiner:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = outage_monte_carlo(combiner, topo, r_c,
                                         sample_count=20_000, seed=7)
            with np.errstate(over="ignore"):
                expected = _serial_events(combiner, topo, r_c, 20_000, 7)
            assert _events(est) == expected, combiner

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 130])
    def test_mrc_sums_are_in_order_snr_sums(self, n):
        # The MRC test adds the SNRs column by column, so its sums do not
        # depend on a BLAS kernel; below 8 columns they are also the bits
        # of sum(axis=1), the row formula.
        rng = np.random.default_rng(n)
        means = 10.0 ** rng.uniform(-3.0, 4.0, size=n)
        u = rng.random((4099, n))
        sums, _ = outage._event_test(Combiner.MRC, means, 1.5)
        snrs = -means * np.log1p(-u)
        expected = snrs[:, 0].copy()
        for j in range(1, n):
            expected += snrs[:, j]
        got = sums(u.copy())
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        if n < 8:
            assert np.array_equal(got.view(np.int64),
                                  snrs.sum(axis=1).view(np.int64))

    def test_one_worker_equals_default(self, monkeypatch):
        topo = _spread_topology(3)
        count = 5 * CHUNK_SIZE + 3
        default = [outage_monte_carlo(c, topo, 2.0, sample_count=count,
                                      seed=8) for c in Combiner]
        with ThreadPoolExecutor(max_workers=1) as single:
            monkeypatch.setattr(link_model, "_POOL", single)
            one = [outage_monte_carlo(c, topo, 2.0, sample_count=count,
                                      seed=8) for c in Combiner]
            assert link_model._POOL is single
        assert one == default

    def test_concurrent_callers_share_the_pool(self):
        # More calling threads than CPUs, with a short switch interval, all
        # submitting chunks to one pool: each count must still equal its
        # serial reference.
        topo = _spread_topology(2)
        count = 4 * CHUNK_SIZE
        seeds = range(6)
        expected = [_serial_events("mrc", topo, 2.0, count, s) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as callers:
                futures = [callers.submit(outage_monte_carlo, "mrc", topo,
                                          2.0, count, s) for s in seeds]
                got = [_events(f.result(timeout=60)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_makes_its_own_pool(self):
        # A forked child inherits the parent's executor without its
        # threads; chunks handed to that executor would never run.
        args = ("sc", _spread_topology(2), 2.0, 3 * CHUNK_SIZE, 4)
        expected = outage_monte_carlo(*args).value
        assert _estimate_in_forked_child(args) == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_fork_while_another_thread_samples(self):
        # The fork lands while a second thread is inside
        # outage_monte_carlo, so the executor's locks and queue may be in
        # use; the child must still finish its own estimate.
        args = ("jd", _spread_topology(3), 2.0, 3 * CHUNK_SIZE, 5)
        expected = outage_monte_carlo(*args).value
        busy = _spread_topology(8)
        inside = threading.Event()
        stop = threading.Event()

        def sample():
            while not stop.is_set():
                inside.set()
                outage_monte_carlo("mrc", busy, 3.0, 20 * CHUNK_SIZE, 1)

        worker = threading.Thread(target=sample)
        worker.start()
        try:
            assert inside.wait(timeout=30)
            got = _estimate_in_forked_child(args)
        finally:
            stop.set()
            worker.join(timeout=60)
        assert got == expected


class TestJdQuadrature:
    @pytest.mark.parametrize("snrs,r_c", sorted(JD_QUAD_ORACLE))
    def test_frozen_reference_values(self, snrs, r_c):
        est = outage_jd_quadrature(list(snrs), r_c)
        assert est.method == "quadrature"
        assert est.value == pytest.approx(JD_QUAD_ORACLE[(snrs, r_c)],
                                          rel=1e-8)

    def test_zero_rate(self):
        assert outage_jd_quadrature([5.0], 0.0).value == 0.0

    def test_agrees_with_sampling(self):
        topo = _topology([6.0, 10.0, 14.0])
        mc = outage_monte_carlo("jd", topo, 1.5, sample_count=1_000_000,
                                seed=21)
        exact = outage_jd_quadrature([6.0, 10.0, 14.0], 1.5)
        assert abs(mc.value - exact.value) <= 3 * mc.ci_half_width

    def test_link_count_limit(self):
        with pytest.raises(UnsupportedLinkCountError):
            outage_jd_quadrature([1.0] * 5, 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            outage_jd_quadrature([], 1.0)
        with pytest.raises(DomainError):
            outage_jd_quadrature([-1.0], 1.0)

    @pytest.mark.parametrize("snrs,r_c", [
        ([5.0, 9.0], math.nan), ([5.0, 9.0], math.inf),
        ([5.0, math.nan], 1.0), ([math.inf, 9.0], 1.0)])
    def test_non_finite_input_rejected(self, snrs, r_c):
        with pytest.raises(DomainError):
            outage_jd_quadrature(snrs, r_c)

    @pytest.mark.parametrize("snrs", [[1e-30, 1.0], [1.0, 1e-30],
                                      [1e-30, 1.0, 1.0], [1e-30, 1e-30, 1.0]])
    def test_weak_link_adds_nothing(self, snrs):
        # A link of mean 1e-30 carries a rate share of about 1e-30. Its
        # range ends at log2(1 + 745 G), which used to round to 0, and the
        # outage read 0.
        strong = [g for g in snrs if g == 1.0]
        assert outage_jd_quadrature(snrs, 0.5).value == pytest.approx(
            outage_jd_quadrature(strong, 0.5).value, rel=1e-8)

    @pytest.mark.parametrize("snrs", [[1e-310, 1.0], [1.0, 5e-324]])
    def test_subnormal_mean_raises_at_once(self, snrs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                outage_jd_quadrature(snrs, 0.5)

    # If every rate share is below R/N, their sum is below R, so P_JD is at
    # least the product of P(gamma_i < A_1(R/N)); C_JD >= C_SC bounds it
    # from above. The slack is the quadrature's 1e-8 relative tolerance.
    @settings(max_examples=100, deadline=None)
    @given(snrs_db=st.lists(st.floats(-200.0, 80.0), min_size=2, max_size=3),
           r_c=st.floats(1e-3, 16.0))
    def test_between_equal_share_bound_and_selection(self, snrs_db, r_c):
        snrs = [10.0 ** (x / 10.0) for x in snrs_db]
        value = outage_jd_quadrature(snrs, r_c).value
        a1 = coding_constant(1, r_c / len(snrs))
        lower = math.prod(-math.expm1(-a1 / g) for g in snrs)
        slack = 1.0 + 1e-8
        assert lower <= value * slack
        assert value <= outage_exact_closed("sc", snrs, r_c).value * slack

    # A last link far below the others has a CDF that steps from 0 to 1 at
    # the end of each inner range, which equal panels miss: [5, 5e-6] read
    # 0.18126924692 (9e-6 relative off), and [1, 1, 2e-5] raised
    # QuadratureError.
    @pytest.mark.parametrize("snrs", [[5.0, 5e-6], [5e-6, 5.0]])
    def test_weak_link_in_either_order_agrees_with_mpmath(self, snrs):
        assert outage_jd_quadrature(snrs, 1.0).value == pytest.approx(
            _jd_mpmath(snrs, 1.0, weak_first=True), rel=1e-10)

    @pytest.mark.parametrize("snrs_db,r_c", [
        ([0.0, 60.0], 0.5), ([0.0, 60.0], 8.0), ([0.0, 30.0, 60.0], 2.0),
        ([60.0, 60.0, 0.0], 4.0), ([0.0, 0.0, -47.0], 1.0),
        ([0.0, -47.0, -47.0], 1.0)])
    def test_value_does_not_depend_on_link_order(self, snrs_db, r_c):
        snrs = [10.0 ** (x / 10.0) for x in snrs_db]
        assert len({outage_jd_quadrature(list(order), r_c).value
                    for order in itertools.permutations(snrs)}) == 1

    def test_weak_link_from_the_cli_agrees_with_mpmath(self, capsys):
        # Link 2 at distance 1000 is 60 dB below link 1.
        assert cli.main(["outage", "--method", "exact", "--combiner", "jd",
                         "--n-links", "2", "--distances", "1,1000",
                         "--snr-db-range", "10:20:2", "--rate", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "snr_db,jd_n2_exact,flags"
        for line in lines[1:]:
            snr_db, value, _ = line.split(",")
            topo = equal_power_topology(db_to_linear(float(snr_db)),
                                        [1.0, 1000.0], 2.0, 1.0)
            assert float(value) == pytest.approx(
                _jd_mpmath(average_snrs(topo), 1.0, weak_first=True),
                rel=1e-10)

    @pytest.mark.parametrize("n,snr_db,spacing,r_c", JD_MPMATH_CASES)
    def test_agrees_with_mpmath(self, n, snr_db, spacing, r_c):
        snrs = _means(n, snr_db, spacing)
        assert outage_jd_quadrature(snrs, r_c).value == pytest.approx(
            _jd_mpmath(snrs, r_c), rel=1e-10)

    @pytest.mark.parametrize("snrs,r_c", [
        ([1.0] * 4, 0.5), ([2.0, 3.0, 5.0, 7.0], 1.0),
        ([10.0, 10.0, 10.0, 10.0 * (1 + 1e-6)], 2.0),
        ([0.2, 0.3, 0.4, 0.5], 0.5), ([100.0, 200.0, 300.0, 400.0], 4.0),
        ([1e3] * 4, 1.0)])
    def test_four_links_agree_with_nested_adaptive_quadrature(self, snrs,
                                                               r_c):
        assert outage_jd_quadrature(snrs, r_c).value == pytest.approx(
            _jd_nested_quad(snrs, r_c, 1e-11), rel=1e-10)

    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_blocks_of_outer_nodes_sum_to_one_estimate(self, monkeypatch,
                                                       block):
        whole = outage_jd_quadrature([3.0, 5.0, 9.0], 4.0).value
        monkeypatch.setattr(outage, "_BLOCK_NODES", block)
        assert outage_jd_quadrature([3.0, 5.0, 9.0], 4.0).value == (
            pytest.approx(whole, rel=1e-14))

    def test_panel_cap_raises(self, monkeypatch):
        # One 16-node panel per level fits, the doubling to two does not.
        monkeypatch.setattr(outage, "_MAX_NODES", 16)
        with pytest.raises(QuadratureError,
                           match="tolerance 1e-08 .* within 16 innermost"):
            outage_jd_quadrature([5.0, 9.0], 1.0)


def _per_call_rule(panels):
    # The composite rule built anew for each estimate: the reference for the
    # rule table.
    nodes = ((np.arange(panels)[:, None] + 0.5 + 0.5 * outage._GL_NODES)
             / panels).ravel()
    weights = np.tile(0.5 * outage._GL_WEIGHTS / panels, panels)
    return nodes, weights


def _per_call_sum(snrs, caps, remaining, rows, rules):
    # One JD estimate out of place, with x * LN2 evaluated twice and the
    # density as LN2 / mean * exp(...): the reference for the in-place
    # estimate that evaluates it once.
    def link(values, k, ndim):
        return values[rows, k].reshape((-1,) + (1,) * (ndim - 1))
    n = snrs.shape[1] - 1
    factors = []
    for k, (nodes, weights) in zip(range(n), rules):
        upper = np.minimum(remaining, link(caps, k, k + 1))[..., None]
        x = upper * nodes
        mean = link(snrs, k, k + 2)
        density = LN2 / mean * np.exp(x * LN2 - np.expm1(x * LN2) / mean)
        factors.append(upper * weights * density)
        remaining = remaining[..., None] - x
    rate = np.minimum(remaining, link(caps, n, n + 1))
    estimate = -np.expm1(-(np.expm1(rate * LN2) / link(snrs, n, n + 1)))
    for factor in reversed(factors):
        estimate = np.einsum("...i,...i->...", factor, estimate)
    return estimate


def _per_call(monkeypatch, func, *args):
    with monkeypatch.context() as patch:
        patch.setattr(outage, "_RULES", {})
        patch.setattr(outage, "_panel_rule", _per_call_rule)
        patch.setattr(outage, "_nested_sum", _per_call_sum)
        return func(*args)


def _grid(n, count, seed):
    # Seeded SNRs in 0..40 dB and rates log-uniform in 1e-6..64.
    rng = np.random.default_rng(seed)
    return [(list(10.0 ** (rng.uniform(0.0, 40.0, n) / 10.0)),
             float(10.0 ** rng.uniform(-6.0, math.log10(64.0))))
            for _ in range(count)]


class TestRuleTable:
    """The rules built once give every value the bits of rules built per
    estimate."""

    @pytest.mark.parametrize("n,count", [(2, 12), (3, 8), (4, 3)])
    def test_jd_bits(self, monkeypatch, n, count):
        for snrs, r_c in _grid(n, count, seed=100 + n):
            assert outage_jd_quadrature(snrs, r_c).value == _per_call(
                monkeypatch, outage_jd_quadrature, snrs, r_c).value

    @pytest.mark.parametrize("n", [2, 3])
    def test_selftest_oracle_bits(self, monkeypatch, n):
        for _, r_c in _grid(1, 8, seed=300 + n):
            assert _coding_constant_quadrature(n, r_c) == _per_call(
                monkeypatch, _coding_constant_quadrature, n, r_c)

    def test_rules_are_read_only(self):
        assert sorted(outage._RULES) == [1 << k for k in range(9)]
        for panels, (nodes, weights) in outage._RULES.items():
            assert nodes.size == weights.size == 16 * panels
            for array in (nodes, weights):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_larger_rules_are_not_retained(self, monkeypatch):
        # With a table of 1 and 2 panels, the weak link's rules of 4 to 64
        # panels are built for their estimates and dropped.
        built, panel_rule = [], outage._panel_rule

        def spy(panels):
            rule = panel_rule(panels)
            built.append((panels, weakref.ref(rule[0]), weakref.ref(rule[1])))
            return rule

        expected = outage_jd_quadrature([5e-6, 5.0], 1.0).value
        table = {panels: outage._RULES[panels] for panels in (1, 2)}
        monkeypatch.setattr(outage, "_RULES", table)
        monkeypatch.setattr(outage, "_panel_rule", spy)
        assert outage_jd_quadrature([5e-6, 5.0], 1.0).value == expected
        assert [panels for panels, *_ in built] == [4, 8, 16, 32, 64]
        assert all(ref() is None for _, *refs in built for ref in refs)
        assert sorted(table) == [1, 2]


# The selftest's A_N oracle is the high-SNR limit of exact JD outage:
# G^N * P_JD(G, ..., G) at G = 1e12 is A_N up to a relative O(A_1 / G).
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r_c", [1e-3, 0.1, 1.0, 4.0, 8.0])
def test_selftest_oracle_is_the_high_snr_limit(n, r_c):
    assert _coding_constant_quadrature(n, r_c) == pytest.approx(
        coding_constant(n, r_c), rel=1e-9)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _sweep_rows(n, count, seed):
    # Seeded rows of JD sweeps: SNRs of -10..40 dB whose links lie up to
    # 20 dB apart, and rates log-uniform in 0.05..12.
    rng = np.random.default_rng(seed)
    base = rng.uniform(-10.0, 40.0, (count, 1))
    snrs = 10.0 ** ((base - rng.uniform(0.0, 20.0, (count, n))) / 10.0)
    return snrs, 10.0 ** rng.uniform(math.log10(0.05), math.log10(12.0),
                                     count)


def _per_row(snrs, rates):
    return [outage_jd_quadrature(list(row), r).value
            for row, r in zip(snrs, rates)]


def _panels_spy(monkeypatch):
    # (rows, innermost nodes per level) of every estimate's numpy calls.
    calls, nested_sum = [], outage._nested_sum

    def spy(levels, innermost, remaining, rows, rules):
        calls.append((len(remaining), rules[-1][0].size))
        return nested_sum(levels, innermost, remaining, rows, rules)
    monkeypatch.setattr(outage, "_nested_sum", spy)
    return calls


class TestJdRows:
    """A block of rows through one ``_nested_integral`` gives each row the
    bits of its own ``outage_jd_quadrature`` call."""

    @pytest.mark.parametrize("n,count", [(2, 40), (3, 24), (4, 6)])
    def test_rows_have_the_bits_of_per_point_calls(self, n, count):
        snrs, rates = _sweep_rows(n, count, seed=700 + n)
        rows = outage._jd_outage_rows(snrs)
        assert _bits(rows(list(range(count)), rates)) == _bits(
            _per_row(snrs, rates))
        # A subset of the rows, at one rate.
        subset = list(range(1, count, 3))
        assert _bits(rows(subset, 1.5)) == _bits(
            _per_row(snrs[subset], [1.5] * len(subset)))

    def test_rows_converge_at_their_own_panel_counts(self, monkeypatch):
        # The weak links need 64 panels per level, the others 2 to 8; the
        # converged rows leave the block, the weak ones go on alone.
        snrs = np.array([[2e-5, 1.0, 1.0], [3.0, 5.0, 9.0], [1.0, 1.0, 2e-5],
                         [1e-2, 1.0, 3.0], [40.0, 90.0, 7.0]])
        rates = np.array([1.0, 2.0, 1.0, 2.0, 4.0])
        expected = _per_row(snrs, rates)
        calls = _panels_spy(monkeypatch)
        assert _bits(outage._jd_outage_rows(snrs)(range(5), rates)) == (
            _bits(expected))
        assert calls[0] == (5, 16)
        assert max(nodes for _, nodes in calls) >= 64 * 16
        assert all(rows <= 2 for rows, nodes in calls if nodes >= 64)

    @pytest.mark.parametrize("block", [1, 7, 300])
    @pytest.mark.parametrize("n", [3, 4])
    def test_small_blocks_of_outer_nodes(self, monkeypatch, block, n):
        monkeypatch.setattr(outage, "_BLOCK_NODES", block)
        snrs, rates = _sweep_rows(n, 8 if n == 3 else 3, seed=710 + n)
        assert _bits(outage._jd_outage_rows(snrs)(range(len(rates)),
                                                  rates)) == _bits(
            _per_row(snrs, rates))

    @pytest.mark.parametrize("budget", [1, 1 << 20])
    def test_row_budget_moves_no_bit(self, monkeypatch, budget):
        snrs, rates = _sweep_rows(3, 12, seed=720)
        expected = _per_row(snrs, rates)
        monkeypatch.setattr(outage, "_ROW_NODES", budget)
        assert _bits(outage._jd_outage_rows(snrs)(range(12), rates)) == (
            _bits(expected))

    def test_rows_that_raise_read_nan(self, monkeypatch):
        # A subnormal SNR (DomainError), a non-finite one, and a row that
        # needs more panels than _MAX_NODES allows (QuadratureError).
        snrs = np.array([[3.0, 9.0], [1e-310, 9.0], [math.inf, 9.0],
                         [5e-6, 5.0], [5.0, 7.0]])
        monkeypatch.setattr(outage, "_MAX_NODES", 16 * 16)
        values = outage._jd_outage_rows(snrs)(range(5), 1.0)
        assert np.isnan(values).tolist() == [False, True, True, True, False]
        assert values[[0, 4]].tolist() == _per_row(snrs[[0, 4]], [1.0, 1.0])
        with pytest.raises(QuadratureError):
            outage_jd_quadrature([5e-6, 5.0], 1.0)
        wide = outage._jd_outage_rows(np.ones((2, 5)))(range(2), 1.0)
        assert np.isnan(wide).all()


class TestAsymptote:
    def test_joint_decoding_value(self):
        snrs = [50.0, 80.0]
        expected = coding_constant(2, 0.5) / (50.0 * 80.0)
        est = outage_asymptotic("jd", snrs, 0.5)
        assert est.value == pytest.approx(expected, rel=1e-14)
        assert est.method == "asymptotic"
        assert not est.saturated

    def test_selection_and_mrc_values(self):
        snrs = [50.0, 50.0]
        a1 = coding_constant(1, 1.0)
        assert outage_asymptotic("sc", snrs, 1.0).value == pytest.approx(
            a1 ** 2 / 2500.0, rel=1e-14)
        assert outage_asymptotic("mrc", snrs, 1.0).value == pytest.approx(
            a1 ** 2 / 5000.0, rel=1e-14)
        assert outage_asymptotic("sco", snrs, 1.0).value == pytest.approx(
            a1 / 50.0, rel=1e-14)

    def test_saturates_at_low_snr(self):
        est = outage_asymptotic("sco", [0.01], 4.0)
        assert est.value == 1.0
        assert est.saturated
        assert asymptotic_outage_value("sco", [0.01], 4.0) > 1.0

    @pytest.mark.parametrize("combiner", ["jd", "sc", "mrc"])
    def test_underflowed_snr_product_rejected(self, combiner):
        # Each SNR is positive, but their product underflows to 0.0.
        with pytest.raises(DomainError, match="underflows"):
            asymptotic_outage_value(combiner, [1e-300] * 3, 1.0)
        with pytest.raises(DomainError, match="underflows"):
            outage_asymptotic(combiner, [1e-300] * 3, 1.0)
        assert asymptotic_outage_value("sco", [1e-300] * 3, 1.0) > 1.0

    @settings(max_examples=300, deadline=None)
    @given(combiner=st.sampled_from(["jd", "sc", "mrc", "sco"]),
           snrs=st.lists(st.floats(1e-150, 1e150), min_size=1, max_size=8),
           r_c=st.floats(1e-6, 64.0))
    def test_same_bits_as_the_per_combiner_formulas(self, combiner, snrs,
                                                    r_c):
        # The asymptote as written before the row kernels were shared.
        n, product = len(snrs), math.prod(snrs)
        a1 = coding_constant(1, r_c)
        if product == 0.0:
            return
        expected = {"sco": a1 / snrs[0],
                    "jd": coding_constant(n, r_c) / product,
                    "sc": a1 ** n / product,
                    "mrc": a1 ** n / (math.factorial(n) * product)}[combiner]
        assert asymptotic_outage_value(combiner, snrs, r_c) == expected

    def test_mrc_distinct_is_tagged_as_bound(self):
        assert outage_asymptotic("mrc", [5.0, 9.0], 1.0).method == "bound-upper"
        assert outage_asymptotic("mrc", [5.0, 5.0], 1.0).method == "asymptotic"

    @pytest.mark.parametrize("n", [2, 3])
    def test_tight_from_below_at_high_snr(self, n):
        # Where the asymptote predicts 1e-5 the exact value sits just below.
        r_c = 0.5
        gbar = (coding_constant(n, r_c) / 1e-5) ** (1.0 / n)
        asym = outage_asymptotic("jd", [gbar] * n, r_c).value
        exact = outage_jd_quadrature([gbar] * n, r_c).value
        assert 0.9 < exact / asym <= 1.0


class TestExactClosed:
    def test_selection_combining(self):
        est = outage_exact_closed("sc", [5.0, 9.0], 1.0)
        assert est.method == "closed-form"
        assert est.value == pytest.approx(SC_ORACLE_5_9_RC1, rel=1e-12)

    def test_mrc_equal(self):
        est = outage_exact_closed("mrc", [7.0, 7.0, 7.0], 1.0)
        assert est.value == pytest.approx(MRC_EQUAL_ORACLE_N3_G7_RC1,
                                          rel=1e-12)

    def test_mrc_distinct(self):
        est = outage_exact_closed("mrc", [4.0, 9.0, 16.0], 1.0)
        assert est.value == pytest.approx(MRC_DISTINCT_ORACLE_4_9_16_RC1,
                                          rel=1e-12)

    def test_single_link(self):
        est = outage_exact_closed("sco", [6.0], 2.0)
        assert est.value == pytest.approx(-math.expm1(-3.0 / 6.0), rel=1e-14)

    def test_mrc_convolution_fallback_is_exact_at_equality(self):
        # The degenerate-spacing route, the matrix exponential of the
        # pure-birth chain, against the equal-SNR closed form.
        base = outage_exact_closed("mrc", [10.0, 10.0], 1.0).value
        assert outage._mrc_birth_cdf([10.0, 10.0], 1.0) == pytest.approx(
            base, rel=1e-12)

    def test_mrc_continuous_across_spacing_regimes(self):
        # A 1e-5 perturbation moves the true value by O(1e-5), so the three
        # evaluation regimes must agree to that order, not better.
        base = outage_exact_closed("mrc", [10.0, 10.0], 1.0).value
        near = outage_exact_closed("mrc", [10.0, 10.0 * (1 + 1e-5)], 1.0).value
        apart = outage_exact_closed("mrc", [10.0, 10.0 * (1 + 2e-4)], 1.0).value
        assert near == pytest.approx(base, rel=5e-5)
        assert apart == pytest.approx(base, rel=1e-3)

    # The last list ties two slow stages beside one 1e19 times faster: the
    # squarings keep their factor e^(-t/G) only with the exact diagonal.
    @pytest.mark.parametrize("snr_db", [-5, 10, 25, 40])
    @pytest.mark.parametrize("r_c", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("snrs", [
        [1.0, 1.0 + 1e-6], [1.0, 1.0, 3.0], [1.0, 1.0 + 1e-6, 3.0],
        [0.5, 1.0, 1.0, 2.0], [1.0, 1.0 + 1e-8, 1.0 + 2e-8, 1.0 + 1e-5],
        [17.2, 2.14e6, 1.34e5, 1.89], [1.0 + k * 1e-6 for k in range(7)],
        [1.0 + k * 1e-5 for k in range(8)], [1e-18, 10.0, 10.0]])
    def test_mrc_degenerate_agrees_with_mpmath(self, snrs, r_c, snr_db):
        scaled = [g * 10.0 ** (snr_db / 10.0) for g in snrs]
        assert outage._spacing_kind(scaled) == "degenerate"
        assert outage_exact_closed("mrc", scaled, r_c).value == pytest.approx(
            _mrc_mpmath(scaled, coding_constant(1, r_c)), rel=1e-10)

    # Subnormal means: the distinct form's terms are inf - inf and the
    # equal form's e^-a * sum a^k/k! is 0 * inf; the birth chain gives 1.
    @pytest.mark.parametrize("snrs,r_c", [([5e-324, 1e-323], 0.001),
                                          ([5e-324, 5e-324], 1.0)])
    def test_mrc_subnormal_means_saturate(self, snrs, r_c):
        assert outage_exact_closed("mrc", snrs, r_c).value == 1.0

    @pytest.mark.parametrize("combiner", ["sc", "mrc", "sco"])
    @pytest.mark.parametrize("snrs,r_c", [
        ([math.nan], 1.0), ([5.0, math.inf], 1.0), ([5.0, 9.0], math.nan),
        ([5.0, 9.0], math.inf)])
    def test_non_finite_input_rejected(self, combiner, snrs, r_c):
        with pytest.raises(DomainError):
            outage_exact_closed(combiner, snrs, r_c)

    def test_zero_rate(self):
        assert outage_exact_closed("sc", [5.0], 0.0).value == 0.0

    def test_no_closed_form_for_joint_decoding(self):
        with pytest.raises(DomainError):
            outage_exact_closed("jd", [5.0, 9.0], 1.0)

    @pytest.mark.parametrize("combiner", ["sc", "mrc", "sco"])
    def test_agrees_with_sampling(self, combiner):
        topo = _topology([5.0, 9.0])
        mc = outage_monte_carlo(combiner, topo, 1.0, sample_count=1_000_000,
                                seed=31)
        closed = outage_exact_closed(combiner, [5.0, 9.0], 1.0)
        assert abs(mc.value - closed.value) <= 3 * mc.ci_half_width


class TestBounds:
    def test_equal_share_lower_bound_value(self):
        est = outage_jd_lower_bound_tse(10.0, 2, 1.0)
        assert est.method == "bound-lower"
        assert est.value == pytest.approx(TSE_ORACLE_N2_G10_RC1, rel=1e-12)

    @pytest.mark.parametrize("gbar,n,r_c", [(10.0, 2, 1.0), (30.0, 3, 0.5),
                                            (8.0, 2, 2.0)])
    def test_lower_bound_below_exact(self, gbar, n, r_c):
        bound = outage_jd_lower_bound_tse(gbar, n, r_c).value
        exact = outage_jd_quadrature([gbar] * n, r_c).value
        assert bound <= exact <= 1.0

    @pytest.mark.parametrize("snrs,r_c", [([5.0, 9.0], 1.0),
                                          ([4.0, 9.0, 16.0], 0.8)])
    def test_simplex_upper_bound_above_exact(self, snrs, r_c):
        exact = outage_exact_closed("mrc", snrs, r_c).value
        bound = outage_asymptotic("mrc", snrs, r_c)
        assert bound.method == "bound-upper"
        assert exact <= bound.value

    def test_combiner_ordering(self):
        snrs, r_c = [5.0, 9.0], 1.0
        p_jd = outage_jd_quadrature(snrs, r_c).value
        p_mrc = outage_exact_closed("mrc", snrs, r_c).value
        p_sc = outage_exact_closed("sc", snrs, r_c).value
        p_sco = outage_exact_closed("sco", snrs, r_c).value
        assert p_jd <= p_mrc <= p_sc <= p_sco


@st.composite
def _snr_lists(draw):
    # N = 1-4 average SNRs from 0 to 80 dB: equal, near-equal (relative
    # gaps of 1e-8 to 1e-4) or distinct.
    n = draw(st.integers(1, 4))
    db = st.floats(0.0, 80.0)
    mean = 10.0 ** (draw(db) / 10.0)
    kind = draw(st.sampled_from(["equal", "near-equal", "distinct"]))
    if kind == "equal":
        return [mean] * n
    if kind == "near-equal":
        gap = draw(st.floats(1e-8, 1e-4))
        return [mean * (1.0 + j * gap) for j in range(n)]
    return [10.0 ** (x / 10.0)
            for x in draw(st.lists(db, min_size=n, max_size=n))]


def _exact(combiner, snrs, r_c):
    if combiner == "jd":
        return outage_jd_quadrature(snrs, r_c).value
    return outage_exact_closed(combiner, snrs, r_c).value


class TestCombinerOrder:
    # For every fading draw C_JD >= C_SC >= C_SCo, so the exact outages obey
    # P_JD <= P_SC <= P_SCo at every operating point; each is nondecreasing
    # in R_c and nonincreasing when every SNR is scaled up. The slack is the
    # JD quadrature's 1e-8 relative tolerance. MRC (between JD and SC) joins
    # once its exact route no longer loses digits to cancellation at high
    # SNR (ROADMAP item 2): it breaks the order today.
    @settings(max_examples=150, deadline=None)
    @given(snrs=_snr_lists(),
           rates=st.lists(st.floats(1e-3, 16.0), min_size=2, max_size=2),
           scale=st.floats(1.0, 1e3))
    def test_order_and_monotonicity(self, snrs, rates, scale):
        low, high = sorted(rates)
        slack = 1.0 + 1e-8
        p = {c: _exact(c, snrs, low) for c in ("jd", "sc", "sco")}
        assert p["jd"] <= p["sc"] * slack
        assert p["sc"] <= p["sco"] * slack
        for combiner, value in p.items():
            assert value <= _exact(combiner, snrs, high) * slack
            scaled = [g * scale for g in snrs]
            assert _exact(combiner, scaled, low) <= value * slack


def test_estimate_flags():
    est = OutageEstimate(value=1.0, method="asymptotic", saturated=True,
                         low_event_count=True)
    assert est.flags == ("saturated", "low-events")
    assert OutageEstimate(value=0.5, method="quadrature").flags == ()
