import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from multiconn.exceptions import ConvergenceError, DomainError
from multiconn.special_functions import (LN2, _coding_constants,
                                         _inverse_rows, coding_constant,
                                         coding_constant_inverse,
                                         coding_constant_slope, coding_gain,
                                         exp_sum, lambert_w_asymptotic,
                                         lambert_w_upper_branch)

# High-precision reference values (40-digit arithmetic, frozen).
CODING_CONSTANT_ORACLE = {
    (2, 0.25): 0.01686677471376962,
    (2, 1.0): 0.38629436111989062,
    (3, 0.8): 0.043315187836958154,
    (3, 2.0): 1.2984466668660489,
    (4, 1.5): 0.11339415371385402,
    (5, 0.5): 5.5684318729074005e-5,
    (4, 4.0): 24.699641047084015,
    (2, 4.0): 29.3614195558365,
    (3, 0.5): 0.0090173866845901847,
    (6, 1.0): 0.00028001794536108843,
    # Small-rate points where the naive closed form loses all precision.
    (2, 0.01): 2.4133947991226362e-5,
    (3, 0.01): 5.5793454094182947e-8,
    (5, 0.1): 1.4127083523335467e-8,
}


class TestExpSum:
    def test_prefix_values(self):
        assert exp_sum(1, 3.7) == 1.0
        assert exp_sum(2, 3.0) == 4.0
        assert exp_sum(3, 2.0) == pytest.approx(1 + 2 + 2)

    @given(st.floats(-5, 5), st.integers(1, 30))
    def test_matches_direct_series(self, x, n):
        direct = sum(x ** k / math.factorial(k) for k in range(n))
        assert exp_sum(n, x) == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_converges_to_exp(self):
        assert exp_sum(40, 2.5) == pytest.approx(math.exp(2.5), rel=1e-14)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            exp_sum(0, 1.0)


class TestCodingConstant:
    @pytest.mark.parametrize("n,r_c", sorted(CODING_CONSTANT_ORACLE))
    def test_frozen_reference_values(self, n, r_c):
        expected = CODING_CONSTANT_ORACLE[(n, r_c)]
        assert coding_constant(n, r_c) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("r_c", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_single_link_closed_form(self, r_c):
        assert coding_constant(1, r_c) == pytest.approx(2.0 ** r_c - 1.0,
                                                        rel=1e-15)

    def test_zero_rate(self):
        for n in (1, 2, 5):
            assert coding_constant(n, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            coding_constant(0, 1.0)
        with pytest.raises(DomainError):
            coding_constant(2, -0.1)

    @pytest.mark.parametrize("n,r_c", [(60, 1000.0), (1, 2000.0),
                                       (3, 2000.0), (2, math.inf),
                                       (2, math.nan)])
    def test_overflow_and_non_finite_rate_rejected(self, n, r_c):
        with pytest.raises(DomainError):
            coding_constant(n, r_c)

    def test_monotone_in_rate(self):
        rates = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0]
        for n in (2, 3, 5):
            values = [coding_constant(n, r) for r in rates]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(v > 0 for v in values)

    def test_decreasing_in_link_count(self):
        for r_c in (0.5, 1.0, 2.0):
            values = [coding_constant(n, r_c) for n in range(1, 7)]
            assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_recursion_identity(self, k):
        # The (k+1)-link constant is the k-link constant integrated over the
        # rate consumed by one more link.
        x = 0.8
        upper = 2.0 ** x - 1.0
        integral, _ = quad(
            lambda g: coding_constant(k, x - math.log2(1.0 + g)),
            0.0, upper, epsabs=0.0, epsrel=1e-10, limit=200)
        assert integral == pytest.approx(coding_constant(k + 1, x), rel=1e-8)

    @pytest.mark.parametrize("n,r_c", [(2, 0.5), (3, 1.0), (4, 2.0),
                                       (5, 0.3)])
    def test_slope_matches_finite_difference(self, n, r_c):
        h = 1e-6
        fd = (coding_constant(n, r_c + h) - coding_constant(n, r_c - h)) / (2 * h)
        assert coding_constant_slope(n, r_c) == pytest.approx(fd, rel=1e-6)


class TestLambertW:
    def test_fixed_point_at_e(self):
        assert lambert_w_upper_branch(math.e) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z,w", [(10.0, 1.7455280027406994),
                                     (1e8, 15.668996715450962)])
    def test_frozen_reference_values(self, z, w):
        assert lambert_w_upper_branch(z) == pytest.approx(w, rel=1e-11)

    @pytest.mark.parametrize("z", [math.e, 5.0, 100.0, 1e4, 1e12])
    def test_defining_equation_round_trip(self, z):
        w = lambert_w_upper_branch(z)
        assert w * math.exp(w) == pytest.approx(z, rel=1e-10)

    def test_asymptotic_form_is_closed_expression(self):
        z = 500.0
        assert lambert_w_asymptotic(z) == math.log(z) - math.log(math.log(z))

    def test_asymptotic_underestimates(self):
        for z in (3.0, 10.0, 1e3, 1e9):
            assert lambert_w_asymptotic(z) < lambert_w_upper_branch(z)

    def test_domain(self):
        for fn in (lambert_w_asymptotic, lambert_w_upper_branch):
            with pytest.raises(DomainError):
                fn(1.0)


class TestCodingConstantInverse:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("y", [1e-3, 1.0, 1e3, 1e9])
    def test_round_trip(self, n, y):
        r_c = coding_constant_inverse(n, y)
        assert abs(coding_constant(n, r_c) - y) / y < 2e-10

    @pytest.mark.parametrize("n,y,expected", [
        (2, 1e-3, 0.063576752844116396),
        (3, 1e6, 14.547643762889617),
        (5, 1e9, 19.766931429848984),
    ])
    def test_frozen_reference_roots(self, n, y, expected):
        assert coding_constant_inverse(n, y) == pytest.approx(expected,
                                                              rel=1e-9)

    def test_tiny_target_uses_small_argument_seed(self):
        r_c = coding_constant_inverse(3, 1e-9)
        assert 0 < r_c < 0.1
        assert abs(coding_constant(3, r_c) - 1e-9) / 1e-9 < 2e-10

    def test_paper_mode_is_closed_formula(self):
        n, y = 3, 1e4
        zeta = (math.factorial(n - 1) * y) ** (1.0 / (n - 1)) / (n - 1)
        expected = (n - 1) / LN2 * (math.log(zeta) - math.log(math.log(zeta)))
        assert coding_constant_inverse(n, y, mode="paper") == pytest.approx(
            expected, rel=1e-15)

    def test_paper_mode_rejects_small_arguments(self):
        with pytest.raises(DomainError):
            coding_constant_inverse(3, 1e-3, mode="paper")

    def test_validation(self):
        with pytest.raises(DomainError):
            coding_constant_inverse(1, 1.0)
        with pytest.raises(DomainError):
            coding_constant_inverse(2, 0.0)
        with pytest.raises(DomainError):
            coding_constant_inverse(2, 1.0, mode="bogus")


# Arguments from the smallest subnormal to 1e308, on both sides of the A_N
# tail switch (r ln 2 = N/2) and of the inverse's seed switch (zeta = e),
# plus the rows the kernels take without the scalar's checks.
_ARGS = sorted({*np.geomspace(5e-324, 1e308, 241).tolist(),
                *np.geomspace(1e-6, 1e3, 120).tolist(),
                *(0.5 * n / LN2 * f for n in range(2, 13)
                  for f in (1 - 1e-12, 1 + 1e-12))})
_EDGE_ARGS = [0.0, math.nan, math.inf, -math.inf, -5e-324, -1e-3, -1.0,
              -3000.0]


def _scalar_or_none(func, *args):
    try:
        return func(*args)
    except (DomainError, ConvergenceError):
        return None


def _assert_kernel_matches(values, args, scalar):
    # Where the scalar returns, the same bits (as int64 views), but 0 of
    # either sign at 0; where it raises, nan, inf or 0. A negative row has
    # no value of meaning: the kernel only has to return.
    for arg, value in zip(args.tolist(), values.tolist()):
        want = _scalar_or_none(scalar, arg)
        if arg < 0:
            continue
        if want is None:
            assert value == 0 or not math.isfinite(value), (arg, value)
        elif arg == 0:
            assert value == 0, value
        else:
            assert (np.array(value).view(np.int64)
                    == np.array(want).view(np.int64)), (arg, value, want)


class TestColumnKernels:
    @pytest.mark.parametrize("n", [*range(1, 13), 171, 200])
    def test_coding_constants_match_scalar(self, n):
        rates = np.array(_ARGS + _EDGE_ARGS)
        _assert_kernel_matches(_coding_constants(n, rates), rates,
                               lambda r: coding_constant(n, r))

    @pytest.mark.parametrize("mode", ["refined", "paper"])
    @pytest.mark.parametrize("n", [*range(2, 13), 171, 200])
    def test_inverse_rows_match_scalar(self, n, mode):
        targets = np.array(_ARGS + _EDGE_ARGS)
        _assert_kernel_matches(
            _inverse_rows(n, targets, mode), targets,
            lambda y: coding_constant_inverse(n, y, mode=mode))


class TestCodingGain:
    def test_formulas(self):
        r_c = 1.0
        a1 = 2.0 ** r_c - 1.0
        assert coding_gain("jd", 2, r_c) == pytest.approx(
            coding_constant(2, r_c) ** -0.5, rel=1e-14)
        assert coding_gain("sc", 3, r_c) == pytest.approx(1.0 / a1, rel=1e-14)
        assert coding_gain("mrc", 3, r_c) == pytest.approx(
            6.0 ** (1 / 3) / a1, rel=1e-14)
        assert coding_gain("sco", 1, r_c) == pytest.approx(1.0 / a1, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_joint_decoding_gains_most(self, n):
        for r_c in (0.5, 1.0, 4.0):
            jd = coding_gain("jd", n, r_c)
            mrc = coding_gain("mrc", n, r_c)
            sc = coding_gain("sc", n, r_c)
            assert jd > mrc > sc

    def test_validation(self):
        with pytest.raises(DomainError):
            coding_gain("sco", 2, 1.0)
        with pytest.raises(DomainError):
            coding_gain("jd", 2, 0.0)
        with pytest.raises(DomainError):
            coding_gain("jd", 0, 1.0)
