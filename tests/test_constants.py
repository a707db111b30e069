import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from paneitz.bubble import BubbleParams
from paneitz.constants import (
    FactorizationError,
    OperatorParams,
    bubble_coefficient,
    constant_branch,
    critical_exponent,
    einstein_coefficients,
    factorize,
    green_minimum,
    sharp_constant,
    validate_schedule,
)


def sharp_constant_oracle(n: int) -> float:
    """Arbitrary-precision evaluation of the closed-form K0^(-2)."""
    with mpmath.workdps(50):
        val = (
            mpmath.pi**2
            * n
            * (n - 4)
            * (n**2 - 4)
            * mpmath.gamma(mpmath.mpf(n) / 2) ** (mpmath.mpf(4) / n)
            * mpmath.gamma(n) ** (-mpmath.mpf(4) / n)
        )
        return float(val)


class TestCriticalExponent:
    def test_values(self):
        assert critical_exponent(5) == 10.0
        assert critical_exponent(6) == 6.0
        assert critical_exponent(8) == 4.0

    def test_domain(self):
        with pytest.raises(ValueError):
            critical_exponent(4)


class TestSharpConstant:
    def test_reference_values(self):
        assert sharp_constant(5)[1] == pytest.approx(102.37, rel=1e-3)
        assert sharp_constant(8)[1] == pytest.approx(653.8, rel=1e-3)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_matches_high_precision_oracle(self, n):
        k0, k0_inv_sq = sharp_constant(n)
        assert k0_inv_sq == pytest.approx(sharp_constant_oracle(n), rel=1e-13)
        assert k0 * (1.0 / k0) == pytest.approx(1.0, rel=1e-15)
        assert k0 == pytest.approx(k0_inv_sq ** (-0.5), rel=1e-15)

    def test_increasing_in_dimension(self):
        vals = [sharp_constant(n)[1] for n in range(5, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            sharp_constant(4)


class TestBubbleCoefficient:
    def test_values(self):
        assert bubble_coefficient(5) == pytest.approx(105.0 ** (1 / 8), rel=1e-14)
        assert bubble_coefficient(8) == pytest.approx(math.sqrt(1920.0), rel=1e-14)
        assert bubble_coefficient(12) == 13440.0

    def test_float64_limit_is_named(self):
        assert bubble_coefficient(259) == pytest.approx(
            float(mpmath.mpf(259 * 255 * (259**2 - 4)) ** (mpmath.mpf(255) / 8)), rel=1e-12
        )
        with pytest.raises(FloatingPointError, match=r"n=260 is outside the float64 range"):
            bubble_coefficient(260)


class TestEinsteinCoefficients:
    def test_zero_curvature(self):
        assert einstein_coefficients(5, 0.0) == (0.0, 0.0)

    def test_plug_in_values(self):
        alpha, a = einstein_coefficients(5, 20.0)
        assert alpha == pytest.approx(5.5, rel=1e-14)
        assert a == pytest.approx(6.5625, rel=1e-14)
        alpha, a = einstein_coefficients(6, 30.0)
        assert alpha == pytest.approx(10.0, rel=1e-14)
        assert a == pytest.approx(24.0, rel=1e-14)

    @pytest.mark.parametrize("n", [5, 6, 7, 9, 12])
    @pytest.mark.parametrize("s", [0.5, 1.0, 20.0, -3.0])
    def test_discriminant_identity(self, n, s):
        alpha, a = einstein_coefficients(n, s)
        lhs = alpha**2 / 4.0 - a
        rhs = s**2 / (n**2 * (n - 1) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


class TestFactorize:
    def test_simple_roots(self):
        assert factorize(2.0, 1.0) == (1.0, 1.0)
        c, d = factorize(5.0, 4.0)
        assert (c, d) == (pytest.approx(4.0), pytest.approx(1.0))
        assert factorize(10.0, 25.0) == (5.0, 5.0)

    def test_errors(self):
        with pytest.raises(FactorizationError):
            factorize(2.0, 1.0 + 1e-6)
        with pytest.raises(ValueError):
            factorize(2.0, 0.0)
        with pytest.raises(ValueError):
            factorize(-1.0, 0.1)

    @given(
        alpha=st.floats(min_value=1e-2, max_value=1e3),
        q=st.floats(min_value=1e-6, max_value=1.0),
        mu=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_recombination_on_modes(self, alpha, q, mu):
        # expanding (mu + c)(mu + d) must reproduce the quadratic symbol
        a = q * alpha * alpha / 4.0
        c, d = factorize(alpha, a)
        assert c >= d > 0.0
        assert c + d == pytest.approx(alpha, rel=1e-12)
        assert c * d == pytest.approx(a, rel=1e-12)
        assert (mu + c) * (mu + d) == pytest.approx(mu * mu + alpha * mu + a, rel=1e-10)

    def test_double_root_keeps_order(self):
        # a = alpha^2/4 up to rounding: a/c must not land one ulp above c
        alpha = 1.4936672528516937
        c, d = factorize(alpha, alpha * alpha / 4.0)
        assert c >= d > 0.0

    def test_operator_params_attach_roots(self):
        p = OperatorParams(5.0, 4.0)
        assert (p.c_alpha, p.d_alpha) == (pytest.approx(4.0), pytest.approx(1.0))
        with pytest.raises(FactorizationError):
            OperatorParams(2.0, 2.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OperatorParams(2.0, 1.0, 5.0, 7.0),
            lambda: OperatorParams(2.0, 1.0, c_alpha=5.0),
            lambda: OperatorParams(2.0, 1.0, d_alpha=7.0),
            lambda: BubbleParams(5, x0=3.0),
        ],
        ids=["roots-positional", "c_alpha", "d_alpha", "bubble-x0"],
    )
    def test_derived_and_unused_fields_are_not_arguments(self, build):
        # the roots come from factorize; a bubble has no center to move
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "alpha,a", [(math.inf, math.inf), (2.0, math.inf), (math.inf, 1.0), (1e200, 1.0)]
    )
    def test_infinite_coefficients_rejected(self, alpha, a):
        # alpha = inf used to give NaN roots (inf - inf under the square root)
        with pytest.raises(ValueError, match="must be finite"):
            OperatorParams(alpha, a)


def green_minimum_fft(c, d, length, points=65536):
    """G(L/2) = (1/L) sum_m (-1)^m / ((mu_m + c)(mu_m + d)), mu_m = (2 pi m/L)^2,
    the inverse FFT of P's symbol on ``points`` samples."""
    m = np.arange(points // 2 + 1)
    mu = (2.0 * np.pi * m / length) ** 2
    return float(np.fft.irfft(1.0 / ((mu + c) * (mu + d)), points)[points // 2] * points / length)


class TestGreenMinimum:
    @pytest.mark.parametrize("c,d", [(1.0, 1.0), (4.0, 4.0), (2.5, 0.3), (3.0, 1.0)])
    def test_matches_the_inverse_symbol(self, c, d):
        length = 2.0 * math.pi
        assert green_minimum(c, d, length) == pytest.approx(green_minimum_fft(c, d, length), rel=1e-13)

    def test_double_root_matches_its_closed_form(self):
        # at c = d the minimum is (sinh x + x cosh x) / (4 c^(3/2) sinh^2 x)
        c, length = 256.0, 2.0 * math.pi
        with mpmath.workdps(50):
            x = mpmath.sqrt(c) * length / 2
            exact = (mpmath.sinh(x) + x * mpmath.cosh(x)) / (4 * mpmath.mpf(c) ** 1.5 * mpmath.sinh(x) ** 2)
            assert green_minimum(c, c, length) == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize(
        "grid, t, index",
        [((2.0, 16.0, 8), 0.3, 6), ((2.0, 128.0, 64), 1.0, 28)],
        ids=["alpha=11.888", "alpha=12.699"],
    )
    def test_roots_one_ulp_apart(self, grid, t, index):
        # on these sweep grids a/c rounds one ulp below c at the double root;
        # factorize returns d = c there, and green_minimum still takes the
        # one-ulp pair, where the partial fraction (G_d - G_c)/(c - d) rounds
        # to exactly 0.0
        alpha = float(np.geomspace(*grid)[index])
        c, d = factorize(alpha, alpha * alpha / 4.0)
        assert c == d and alpha * alpha / 4.0 / c < c
        length = 2.0 * math.pi * t
        split = green_minimum(c, math.nextafter(c, 0.0), length)
        assert split == pytest.approx(green_minimum(c, d, length), rel=1e-12)

    @pytest.mark.parametrize("length", [1e-2, 2.0 * math.pi, 60.0])
    def test_finite_and_nonnegative_up_to_large_roots(self, length):
        roots = np.geomspace(1e-3, 1e6, 19)
        for c in roots:
            for d in roots[roots <= c]:
                g = green_minimum(float(c), float(d), length)
                assert math.isfinite(g) and g >= 0.0


    @pytest.mark.parametrize("c, d", [(1.0, 5e-324), (5e-324, 5e-324)])
    def test_tiny_roots_overflow_to_inf(self, c, d):
        # g_min ~ 1/(c d L): the denominator's factors multiplied together
        # would underflow to 0 and divide by zero
        assert green_minimum(c, d, 1e-70) == math.inf


class TestConstantBranch:
    def test_unit_point(self):
        assert constant_branch(5, 1.0, 1.0) == (1.0, 1.0)

    def test_closed_form(self):
        v = 16 * math.pi**3 / 3
        u, e = constant_branch(5, 4.0, v)
        assert u == pytest.approx(4.0 ** (1 / 8), rel=1e-14)
        assert e == pytest.approx(4.0**1.25 * v, rel=1e-14)

    def test_alpha_two_gives_unit_constant(self):
        u, _ = constant_branch(5, 2.0**2 / 4.0, 7.0)
        assert u == 1.0

    def test_fixed_point_residual(self, rng):
        # u solves a u = u^(2#-1) exactly for the returned value
        for n in (5, 6, 9, 12):
            p = critical_exponent(n) - 1.0
            for a in rng.uniform(1e-3, 1e3, size=25):
                u, _ = constant_branch(n, float(a), 1.0)
                assert a * u - u**p == pytest.approx(0.0, abs=1e-9 * a * u)


class TestScheduleValidator:
    def test_quarter_square_accepted(self):
        grid = [float(x) for x in range(1, 129)]
        rep = validate_schedule(lambda al: al * al / 4.0, grid)
        assert rep.a1_all_ok and all(rep.a1_ok)
        assert rep.a2_proxy_ok and rep.accepted
        assert "proxy" in rep.note

    def test_linear_fails_growth_proxy(self):
        rep = validate_schedule(lambda al: al, [1.0, 2.0, 4.0, 8.0])
        assert not rep.a2_proxy_ok and not rep.accepted
        # a = alpha also violates a <= alpha^2/4 for alpha < 4
        assert rep.a1_ok == (False, False, True, True)

    def test_cubic_fails_quarter_bound(self):
        grid = [0.125, 0.25, 0.5, 1.0, 2.0]
        rep = validate_schedule(lambda al: al**3, grid)
        expected = tuple(al**3 <= al * al / 4.0 for al in grid)
        assert rep.a1_ok == expected
        assert expected == (True, True, False, False, False)
        assert not rep.accepted

    def test_mapping_input_and_errors(self):
        rep = validate_schedule({1.0: 0.25, 2.0: 1.0}, [1.0, 2.0])
        assert rep.a1_all_ok
        with pytest.raises(ValueError):
            validate_schedule(lambda al: al, [2.0, 1.0])
        with pytest.raises(ValueError):
            validate_schedule({1.0: 0.25}, [1.0, 2.0])
