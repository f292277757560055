"""Special-function layer: gamma, pochhammer, 2F1, Gauss summation, beta.

Frozen reference values were generated with mpmath at 40 significant
digits; property tests check the identities the rest of the library
leans on.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpoisson.specfun import (
    ConvergenceError,
    beta_integral,
    gamma,
    gauss_value,
    hyp2f1,
    hyp2f1_dx,
    pochhammer,
)

GAMMA_CASES = [
    (0.5, 1.772453850905516),
    (1.5, 0.886226925452758),
    (-0.5, -3.544907701811032),
    (-2.5, -0.9453087204829419),
    (3.7, 4.170651783796604),
    (10.0, 362880.0),
    (25.0, 6.204484017332394e+23),
    (-9.5, 2.772127911575102e-06),
    (0.001, 999.4237724845955),
]

HYP2F1_CASES = [
    (1.0, 1.0, 2.0, 0.5, 1.3862943611198906),
    (0.25, 1.25, 2.0, 0.81, 1.235607249797406),
    (1.25, 2.25, 3.0, 0.81, 4.1215729637999505),
    (-0.45, 2.55, 4.0, 0.9, 0.662990241878252),
    (0.45, 0.95, 1.1, 0.99, 5.109652059287174),
    (-0.5, 1.5, 2.5, -0.8, 1.2133888595895335),
    (2.0, 3.0, 0.5, 0.2, 7.027276131671597),
]

GAUSS_CASES = [
    (1.0, 1.0, 3.0, 2.0),
    (0.25, 1.25, 2.0, 1.573787465354795),
    (-0.45, 2.55, 4.0, 0.6002497638820886),
    (0.25, 0.25, 1.0, 1.1803405990160962),
    (1.25, 2.25, 4.0, 7.1944569844790625),
]

BETA_CASES = [
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.16666666666666666),
    (-0.5, 0.0, 2.0),
    (2.5, -0.25, 0.4915447116863968),
    (0.5, 0.5, 0.39269908169872414),
]


class TestGamma:
    @pytest.mark.parametrize("x,want", GAMMA_CASES)
    def test_frozen_values(self, x, want):
        assert gamma(x) == pytest.approx(want, rel=1e-12)

    def test_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(4.0) == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_errors(self, x):
        with pytest.raises(ValueError):
            gamma(x)

    @given(st.floats(min_value=-9.9, max_value=29.0).filter(
        lambda x: min(abs(x - round(x)), 1.0) > 1e-3 or x > 0.5))
    @settings(max_examples=200)
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-10)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200)
    def test_reflection(self, x):
        lhs = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert lhs == pytest.approx(1.0, rel=1e-10)

    def test_factorials_are_exact(self):
        for n in range(1, 21):
            assert gamma(n) == math.factorial(n - 1)

    def test_is_math_gamma_bit_for_bit(self):
        # Wherever gamma answers it returns the standard library's value unchanged:
        # 4001 points of [0.5, 171.5] and the negative non-integers of (-170, 0).
        xs = list(np.linspace(0.5, 171.5, 4001)) + [k + f for k in range(-170, 0)
                                                    for f in (0.001, 0.25, 0.5, 0.999)]
        for x in xs:
            assert gamma(x) == math.gamma(x), x


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(2.0, 3) == 24.0
        assert pochhammer(0.5, 4) == pytest.approx(gamma(4.5) / gamma(0.5), rel=1e-13)

    def test_nonpositive_integer_base(self):
        assert pochhammer(0.0, 3) == 0.0
        assert pochhammer(-2.0, 3) == pytest.approx(-2.0 * -1.0 * 0.0)
        assert pochhammer(-2.0, 2) == pytest.approx(2.0)

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=200)
    def test_composition(self, a, k, m):
        lhs = pochhammer(a, k) * pochhammer(a + k, m)
        rhs = pochhammer(a, k + m)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestHyp2f1:
    @pytest.mark.parametrize("a,b,c,x,want", HYP2F1_CASES)
    def test_frozen_values(self, a, b, c, x, want):
        assert hyp2f1(a, b, c, x) == pytest.approx(want, rel=1e-12)

    def test_euler_region_near_one(self):
        # c - a - b = -0.5 < 0: the direct series is useless at x close to 1,
        # the Euler transform handles it.
        got = hyp2f1(1.25, 2.25, 3.0, 0.998)
        assert got == pytest.approx(71.2735646755187, rel=1e-9)

    def test_extreme_argument_needs_loose_tol(self):
        # At x = 1 - 1e-6 the direct series sheds terms only like k^(-3/2);
        # the 1 - x connection formula answers at the default tolerance.
        # The value is mpmath's at 40 digits.
        got = hyp2f1(1.25, 2.25, 3.0, 0.999999)
        assert got == pytest.approx(3445.570547029391, rel=1e-14)

    def test_x_zero(self):
        assert hyp2f1(0.3, -1.7, 2.2, 0.0) == 1.0

    def test_a_zero_collapses(self):
        assert hyp2f1(0.0, 1.3, 2.2, 0.77) == pytest.approx(1.0, rel=1e-14)

    def test_terminating_polynomial(self):
        # a = -2 terminates: 1 - 2b/c x + b(b+1)/(c(c+1)) x^2
        b, c, x = 1.5, 2.5, 0.6
        want = 1.0 - 2.0 * b / c * x + b * (b + 1.0) / (c * (c + 1.0)) * x * x
        assert hyp2f1(-2.0, b, c, x) == pytest.approx(want, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1(0.5, 0.5, 1.0, 1.2)
        with pytest.raises(ValueError):
            hyp2f1(0.5, 0.5, -3.0, 0.5)

    @pytest.mark.parametrize("args,name", [
        ((0.5, 0.5, 1.0, math.nan), "x=nan"),
        ((math.nan, 1.0, 2.0, 0.5), "a=nan"),
        ((0.5, math.inf, 2.0, 0.5), "b=inf"),
        ((0.5, 0.5, math.nan, 0.5), "c=nan"),
        ((0.5, 0.5, 1.0, -math.inf), "x=-inf"),
        ((0.5, 0.5, 1.0, 0.5, math.nan), "tol=nan"),
        ((0.5, 0.5, 1.0, 0.5, 0.0), "tol=0.0"),
        ((0.5, 0.5, 1.0, 0.5, math.inf), "tol=inf"),
    ])
    def test_bad_arguments_refused_by_name(self, args, name):
        # Non-finite a, b, c, x and a tol that is not finite and positive are refused before
        # any series is summed: no term cap is reached and no NaN reaches a message.
        with pytest.raises(ValueError, match=re.escape(name)):
            hyp2f1(*args)

    def test_at_one_needs_convergent_series(self):
        # c - a - b > 0: the value at x = 1 is the Gauss sum.
        assert hyp2f1(0.25, 1.25, 2.0, 1.0) == pytest.approx(
            gauss_value(0.25, 1.25, 2.0), rel=1e-10)

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=150)
    def test_euler_transformation_consistency(self, a, b, x):
        # Pick c with c - a - b < 0 so both routes are defined.
        c = a + b - 0.75
        if c <= 0.05:
            return
        direct = hyp2f1(a, b, c, x)
        euler = (1.0 - x) ** (c - a - b) * hyp2f1(c - a, c - b, c, x)
        assert euler == pytest.approx(direct, rel=1e-9)

    def test_derivative_identity(self):
        for a, b, c, x, want in [
            (0.25, 1.25, 2.0, 0.5, 0.29192842348996595),
            (-0.45, 2.55, 4.0, 0.3, -0.32794556600826935),
        ]:
            assert hyp2f1_dx(a, b, c, x) == pytest.approx(want, rel=1e-8)

    def test_derivative_matches_finite_difference(self):
        a, b, c, x, h = 0.7, 1.1, 2.3, 0.4, 1e-6
        fd = (hyp2f1(a, b, c, x + h) - hyp2f1(a, b, c, x - h)) / (2.0 * h)
        assert hyp2f1_dx(a, b, c, x) == pytest.approx(fd, rel=1e-8)


class TestGaussValue:
    @pytest.mark.parametrize("a,b,c,want", GAUSS_CASES)
    def test_frozen_values(self, a, b, c, want):
        assert gauss_value(a, b, c) == pytest.approx(want, rel=1e-12)

    def test_a_zero(self):
        assert gauss_value(0.0, 1.3, 2.2) == pytest.approx(1.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gauss_value(1.0, 1.0, 2.0)  # c - a - b = 0

    @pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 4.0), (-0.45, 2.55, 4.0),
                                       (0.25, 0.25, 3.0)])
    def test_partial_sums_converge(self, a, b, c):
        # Gauss summation: series terms decay like k^{-(c-a-b)-1}, so with
        # c - a - b around 2 the partial sums settle within 1e-8 by 10^5 terms.
        total, term = 0.0, 1.0
        for k in range(100000):
            total += term
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
        assert total == pytest.approx(gauss_value(a, b, c), abs=1e-8)


class TestBetaIntegral:
    @pytest.mark.parametrize("s,t,want", BETA_CASES)
    def test_frozen_values(self, s, t, want):
        assert beta_integral(s, t) == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_integral(-1.0, 0.0)
        with pytest.raises(ValueError):
            beta_integral(0.0, -1.5)

    @pytest.mark.parametrize("s,t", [(1.0, 1.0), (0.5, 0.5), (2.5, 0.0)])
    def test_matches_quadrature(self, s, t):
        r = np.linspace(0.0, 1.0, 200001)
        vals = (1.0 - r) ** s * r ** t
        quad = np.trapezoid(vals, r)
        assert beta_integral(s, t) == pytest.approx(quad, rel=1e-6)


# (alpha, n) of the HypMonomial maps probed near the boundary.
HYP_MONOMIALS = [(a, n) for a in (-0.9, -0.5, -0.1) for n in (1, 3)]


def _monomial_params(alpha, n):
    """2F1 parameters of HypMonomial's value profile e2 and derivative profile e1."""
    return [(-alpha / 2.0, n - alpha / 2.0, n + 1.0),
            (1.0 - alpha / 2.0, n + 1.0 - alpha / 2.0, n + 2.0)]


# Relative errors against mpmath: 5.8e-16, 8.4e-15, 8.5e-16 and 6.0e-16.
_ROUTED_BITS = {
    (0.25, 1.25, 2.0, 0.998001): "0x1.87068e50b0eacp+0",
    (1.25, 2.25, 3.0, 0.9801): "0x1.340aff4343844p+4",
    (1.25, 2.25, 3.0, 0.998): "0x1.1d1821569ac61p+6",
    (0.45, 1.45, 2.0, 0.9801): "0x1.416c80e9deb36p+1",
}


class TestNearOne:
    @pytest.mark.parametrize("alpha,n", HYP_MONOMIALS)
    @pytest.mark.parametrize("r", [0.999, 0.9999])
    def test_monomial_profiles_match_mpmath(self, alpha, n, r):
        # At r = 0.999 and 0.9999 the direct series converges slowly; the
        # 1 - x connection formula answers instead.
        mpmath = pytest.importorskip("mpmath")
        from diskpoisson.specfun import _connection_1mx

        x = r * r
        with mpmath.workdps(40):
            for a, b, c in _monomial_params(alpha, n):
                want = float(mpmath.hyp2f1(a, b, c, x))
                assert _connection_1mx(a, b, c, x, 1e-14) == pytest.approx(want, rel=1e-13)
                assert hyp2f1(a, b, c, x) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("x", [0.9999980000010001, 1.0 - 1e-9])
    @pytest.mark.parametrize("a,b,c", [(0.25, 1.25, 2.0), (1.25, 2.25, 3.0)])
    def test_answers_up_to_one_for_non_integer_excess(self, a, b, c, x):
        # 0.9999980000010001 is x at the radius one ulp above 1 - 1e-6, just
        # past the outermost radius the package accepts.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.hyp2f1(a, b, c, x))
        assert hyp2f1(a, b, c, x) == pytest.approx(want, rel=1e-13)

    def test_connection_formula_at_gamma_poles(self):
        # 1/Gamma(c - a) vanishes for c = a, where 2F1(a, b; a; x) = (1-x)^(-b),
        # and 1/Gamma(a) for a = -3, where the series is a cubic.
        x = 0.999999
        assert hyp2f1(1.0, 0.75, 1.0, x) == pytest.approx((1.0 - x) ** -0.75, rel=1e-13)
        assert hyp2f1(1.0, -0.5, 1.0, 1.0) == 0.0
        a, b, c, x = -3.0, 1.5, 2.2, 0.9
        cubic = sum(pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * math.factorial(k))
                    * x**k for k in range(4))
        assert hyp2f1(a, b, c, x) == pytest.approx(cubic, rel=1e-13)

    @pytest.mark.parametrize("args", [
        (1.0, -175.3, 2.0, 0.9999),  # Gamma(176.3) in w1, Gamma(-176.3) in w2
        (1.0, -179.7, 2.0, 0.9999),
        (2.5, -200.6, 2.0, 0.9995),
        (0.5, -248.8, 2.0, 0.9999),
        (0.5, 0.25, 400.5, 0.9999),  # Gamma(c) past the range
    ])
    def test_connection_weights_past_the_gamma_range(self, args):
        # Each weight is a double although a Gamma factor of it is not; the
        # values are 1.2e-16 to 4.3e-16 off mpmath.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.hyp2f1(*args))
        assert hyp2f1(*args) == pytest.approx(want, rel=1e-15)

    def test_connection_weight_past_the_double_range_is_refused_by_name(self):
        # w2 = (1-x)^(c-a-b) Gamma(c) Gamma(a+b-c) / (Gamma(a) Gamma(b)) and the
        # value (7.35e338 by mpmath) both leave the double range.
        with pytest.raises(OverflowError, match=re.escape(
                "the ratio 3.1622776601681534e+241 Gamma(600.5) Gamma(80.5) / "
                "(Gamma(340.625) Gamma(340.375)) overflows")):
            hyp2f1(340.625, 340.375, 600.5, 0.999)

    @pytest.mark.parametrize("args,want", [
        ((110.0, -142.566, 11.0, 0.9999998071673476), -6.34485787072984e-270),
        ((122.0, -147.4, 13.0, 0.9998879914875263), -6.21289841468702e-133),
    ])
    def test_connection_weight_whose_product_underflows(self, args, want):
        # In w2 = (1-x)^(c-a-b) Gamma(a+b-c) / (Gamma(a) Gamma(b)) the partial product
        # underflows to 0 before 1/Gamma(b), about 1e246, applies; want is mpmath's.
        assert hyp2f1(*args) == pytest.approx(want, rel=1e-13)

    def test_value_past_the_double_range_is_refused_by_name(self):
        # c - a - b = -100, so the direct series answers; mpmath gives 6.19e329.
        with pytest.raises(OverflowError, match=re.escape(
                "2F1(50.25, 50.25; 0.5; 0.999) leaves the double range")):
            hyp2f1(50.25, 50.25, 0.5, 0.999)

    def test_cancelling_connection_falls_back_to_the_direct_series(self):
        # c - a - b = 1.9999: Gamma(-1.9999) in w2 is near a pole, and the weighted series
        # cancel 133-fold; the direct series at x = 0.5625 does not. want is mpmath's.
        assert hyp2f1(-0.49995, -0.49995, 1.0, 0.5625) == pytest.approx(1.1464517024810845,
                                                                       rel=1e-14)
        with pytest.raises(ConvergenceError, match="cancels"):  # the connection's refusal
            hyp2f1(0.25, 0.75, 1.0000001, 0.9999)

    def test_integer_excess_refused_by_name(self):
        # c - a - b = 0: the connection formula has a logarithmic term.
        with pytest.raises(ConvergenceError, match="logarithmic"):
            hyp2f1(0.25, 0.75, 1.0, 0.9999)

    @pytest.mark.parametrize("x", [0.9998978914564902, 1.0])
    def test_difference_rounding_onto_a_pole_refused_by_name(self, x):
        # c - b = 19.7 - 89.7 rounds to -70.0 exactly, but for these doubles it is -70 plus
        # about 1e-14, so 1/Gamma(c - b) is about 70! times that, not 0: mpmath gives
        # -6.64e-82 at the first x, and 1.5e-257 (0.0 at x = 1) was answered before.
        with pytest.raises(ConvergenceError, match=re.escape(
                "c-b = 19.7 - 89.7 rounds onto the pole -70.0 of Gamma")):
            hyp2f1(-139.83, 89.7, 19.7, x)

    def test_exact_difference_on_a_pole_is_a_zero_weight(self):
        # c - b = 0.5 - 70.5 is -70 exactly: 1/Gamma(c - b) = 0 drops the first weight,
        # and Gauss's sum at x = 1 is 0. want is mpmath's.
        assert hyp2f1(-139.83, 70.5, 0.5, 0.9999) == pytest.approx(5.85084657944891e-238,
                                                                   rel=1e-13)
        assert hyp2f1(-139.83, 70.5, 0.5, 1.0) == 0.0

    # The parameters (and so the test ids) carry the pins of the earlier
    # three-quiet-terms stopping rule, up to 4.6e-12 off; the routed values
    # are pinned in _ROUTED_BITS and must be no farther from mpmath.
    @pytest.mark.parametrize("args,old_bits", [
        ((0.25, 1.25, 2.0, 0.998001), "0x1.87068e50a93b5p+0"),
        ((1.25, 2.25, 3.0, 0.9801), "0x1.340aff4342f1ap+4"),
        ((1.25, 2.25, 3.0, 0.998), "0x1.1d1821569525cp+6"),
        ((0.45, 1.45, 2.0, 0.9801), "0x1.416c80e9de13bp+1"),
    ])
    def test_converging_series_keep_their_bits(self, args, old_bits):
        got = hyp2f1(*args)
        assert got == float.fromhex(_ROUTED_BITS[args])
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = mpmath.hyp2f1(*args)
            assert abs(got - want) <= abs(float.fromhex(old_bits) - want)


class TestNegativeArgument:
    # The direct series alternates for x < 0 and its tail bound never holds at
    # x = -1; the Pfaff transformations move x into (0, 1/2].
    @pytest.mark.parametrize("a,b,c,x", [
        (3.87, 3.37, 2.17, -0.884),  # the direct series was 1.3e-11 off
        (4.29, 4.16, 0.88, -0.744),  # and 2.7e-9 off
        (1.0, 1.0, 2.0, -1.0),  # ln 2; the direct series ran into the term cap
    ])
    def test_matches_mpmath(self, a, b, c, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.hyp2f1(a, b, c, x))
        assert abs(hyp2f1(a, b, c, x) / want - 1.0) <= 1e-13

    def test_log_two_at_minus_one(self):
        assert abs(hyp2f1(1.0, 1.0, 2.0, -1.0) / math.log(2.0) - 1.0) <= 1e-13

    def test_least_cancelling_form(self):
        # The Pfaff form in a cancels (largest term 3,000 times the sum, 1.7e-13
        # off); the direct series cancels least.
        mpmath = pytest.importorskip("mpmath")
        a, b, c, x = -4.718, -2.462, 1.595, -0.897
        with mpmath.workdps(40):
            want = float(mpmath.hyp2f1(a, b, c, x))
        assert abs(hyp2f1(a, b, c, x) / want - 1.0) <= 1e-14

    def test_random_sweep(self):
        # a, b in [-5, 5], c in [0.1, 5], x in [-1, 0): the worst case was 5.7e-13
        # off with the Pfaff form in a alone.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        args = zip(rng.uniform(-5.0, 5.0, 3000), rng.uniform(-5.0, 5.0, 3000),
                   rng.uniform(0.1, 5.0, 3000), -rng.uniform(0.0, 1.0, 3000))
        worst = 0.0
        with mpmath.workdps(40):
            for a, b, c, x in args:
                a, b, c, x = float(a), float(b), float(c), float(x)
                worst = max(worst, float(abs(hyp2f1(a, b, c, x) / mpmath.hyp2f1(a, b, c, x) - 1)))
        assert worst <= 1.5e-13


class TestCancellation:
    def test_cancelling_sum_refused_by_name(self):
        # Terms up to 1.2e7 sum to 0.0077; the sum came back 3.2e-7 off.
        with pytest.raises(ConvergenceError, match="cancels"):
            hyp2f1(-30.0, 1.5, 2.5, 0.99)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.1])
    @pytest.mark.parametrize("n", [1, 3, 150])
    def test_monomial_series_do_not_cancel(self, alpha, n):
        # Every series the monomial profiles sum, directly or in the 1 - x
        # connection formula, has positive terms: its sum is at least its largest term.
        from diskpoisson.specfun import _series_sum

        for a, b, c in _monomial_params(alpha, n):
            s = c - a - b
            for x in (0.5, 0.9801, 0.998001):
                for args in ((a, b, c, x), (a, b, 1.0 - s, 1.0 - x),
                             (c - a, c - b, 1.0 + s, 1.0 - x)):
                    total, peak = _series_sum(*args, 1e-14)
                    assert peak <= total, args


_R_HI = 1.0 - 1e-6
# 107 radii from 0 to 1 - 1e-6, the last one ulp above 1 - 1e-6.
SWEEP_RADII = ([float(r) for r in np.linspace(0.0, 0.99, 100)]
               + [0.995, 0.999, 0.9995, 0.9999, 0.99999, _R_HI, math.nextafter(_R_HI, 2.0)])


class TestMpmathSweep:
    @pytest.mark.parametrize("n,bound", [(1, 1e-13), (2, 1e-13), (3, 1e-13),
                                         (10, 5e-13), (50, 5e-13), (150, 5e-13)])
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.1])
    def test_monomial_profiles_on_every_radius(self, alpha, n, bound):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for a, b, c in _monomial_params(alpha, n):
                for r in SWEEP_RADII:
                    x = r * r
                    want = mpmath.hyp2f1(a, b, c, x)
                    worst = max(worst, float(abs(hyp2f1(a, b, c, x) / want - 1)))
        assert worst <= bound


class TestGammaOverflow:
    def test_overflow_names_gamma_and_x(self):
        with pytest.raises(OverflowError, match=r"Gamma\(x\) overflows at x=201\.0"):
            gamma(201.0)

    @pytest.mark.parametrize("x", [142.5, 150.0, 160.25, 171.0, 171.6])
    def test_past_the_power_term_overflow(self, x):
        # Gamma stays finite to x ~ 171.62, far past x ~ 142.2, where the power
        # t^(x - 1/2) of a Lanczos sum would overflow.
        assert gamma(x) == pytest.approx(math.gamma(x), rel=2e-13)

    def test_overflow_bound_is_171(self):
        for x in (171.7, 1e6):
            with pytest.raises(OverflowError, match=r"holds for x <= 171$"):
                gamma(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_is_refused_by_name(self, x):
        # math.gamma(inf) is inf, not an error
        with pytest.raises(ValueError, match="gamma needs a finite x"):
            gamma(x)

    def test_largest_finite_values_keep_their_bits(self):
        # math.gamma's bits: 2.4e-16 and 2.9e-17 off mpmath.
        assert gamma(142.0) == float.fromhex("0x1.1ca9fcdf65320p+808")
        assert gamma(0.3) == float.fromhex("0x1.7eebbb8aec4abp+1")

    @pytest.mark.parametrize("x", [1e-320, -1e-320])
    def test_overflow_near_zero_is_refused_by_name(self, x):
        # Gamma(x) ~ 1/x leaves the double range for 0 < |x| < 1/DBL_MAX.
        with pytest.raises(OverflowError, match=rf"Gamma\(x\) overflows at x={x!r}; "
                                                r"this evaluation holds for \|x\| >= 5\.6e-309"):
            gamma(x)

    @pytest.mark.parametrize("x", [-170.6, -180.5])
    def test_underflow_is_refused_by_name(self, x):
        # math.gamma returns a subnormal at -170.6 and -0.0 at -180.5; the refusal
        # names the x given.
        with pytest.raises(OverflowError, match=rf"\|Gamma\(x\)\| underflows at x={x!r} to "):
            gamma(x)
