import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import even_gaussian_field
from paneitz import bubble as bubble_module
from paneitz.bubble import (
    BubbleParams,
    bubble_energy,
    bubble_eval,
    bubble_field,
    constant_field,
    expected_bubble_energy,
    pde_residual,
    pohozaev_identity_residual,
    pohozaev_witness,
    power_profile_field,
)
from paneitz.constants import bubble_coefficient, sharp_constant
from paneitz.geometry import sphere_volume


def radial_energy_oracle(params: BubbleParams) -> float:
    """Independent check of the critical integral: adaptive quadrature of
    omega_(n-1) int v^(2#) r^(n-1) dr on a split range."""
    n = params.n
    p = 2.0 * n / (n - 4)

    def integrand(r):
        return bubble_eval(params, r) ** p * r ** (n - 1)

    total = 0.0
    for a, b in [(0.0, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, 2000.0)]:
        val, _ = quad(integrand, a, b, limit=200)
        total += val
    return sphere_volume(n - 1) * total


def profile_derivatives(params: BubbleParams, radii, order: int) -> list:
    """Radial derivatives 1..order of the extremal amp (1 + lam^2 r^2)^(-m)
    at each radius, by mpmath at 40 digits: an oracle independent of the
    closed-form w-forms it checks."""
    with mpmath.workdps(40):
        m, lam = mpmath.mpf(params.n - 4) / 2, mpmath.mpf(params.lambda0)
        amp = mpmath.mpf(params.amplitude)
        return [
            list(mpmath.diffs(lambda x: amp * (1 + (lam * x) ** 2) ** (-m), mpmath.mpf(r), order))[1:]
            for r in radii
        ]


class TestBubbleEval:
    def test_peak_values(self):
        c5 = bubble_coefficient(5)
        assert bubble_eval(BubbleParams(5), 0.0) == pytest.approx(c5, rel=1e-14)
        assert bubble_eval(BubbleParams(5, lambda0=2.0), 0.0) == pytest.approx(
            c5 * math.sqrt(2.0), rel=1e-14
        )

    def test_far_field_value(self):
        c5 = bubble_coefficient(5)
        assert bubble_eval(BubbleParams(5), 10.0) == pytest.approx(c5 / math.sqrt(101.0), rel=1e-14)

    def test_strictly_decreasing(self):
        r = np.linspace(0.0, 30.0, 400)
        v = bubble_eval(BubbleParams(7, lambda0=0.7), r)
        assert np.all(np.diff(v) < 0)
        assert np.all(v > 0)

    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    def test_dilation_family(self, n):
        # v_lam'(r) = (lam'/lam)^((n-4)/2) v_lam((lam'/lam) r)
        r = np.linspace(0.0, 20.0, 157)
        lam, lam2 = 0.8, 2.7
        ratio = lam2 / lam
        v2 = bubble_eval(BubbleParams(n, lambda0=lam2), r)
        v1 = bubble_eval(BubbleParams(n, lambda0=lam), ratio * r)
        assert np.max(np.abs(v2 - ratio ** ((n - 4) / 2) * v1)) < 1e-12 * np.max(v2)


class TestPdeResidual:
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 10, 12])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_extremal_is_exact(self, n, lam):
        assert pde_residual(BubbleParams(n, lambda0=lam)) <= 1e-10

    def test_scaled_profile_is_not_a_solution(self):
        params = BubbleParams(5)
        scaled = bubble_field(params, scale=1.1)
        assert pde_residual(params, field=scaled) >= 0.1

    def test_constant_field_residual_is_one(self):
        params = BubbleParams(5)
        res = pde_residual(params, field=constant_field(5, 1.0))
        assert res == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_stable_assembly_matches_derivative_form(self, n):
        # away from the large-r cancellation regime, the reduced bi-Laplacian
        # must agree with the direct f'''' + 2(n-1)f'''/r + ... assembly, here
        # on derivatives of the profile taken by mpmath
        params = BubbleParams(n, lambda0=1.3)
        r = np.linspace(0.1, 5.0, 25)
        direct = [
            d4 + 2 * (n - 1) * d3 / x + (n - 1) * (n - 3) * (d2 / x**2 - d1 / x**3)
            for x, (d1, d2, d3, d4) in zip(r, profile_derivatives(params, r, 4))
        ]
        stable = bubble_field(params).bilaplacian(r)
        assert np.max(np.abs(np.array(direct, dtype=float) - stable)) < 1e-14 * np.max(np.abs(stable))

    @pytest.mark.parametrize("n", [5, 8])
    def test_laplacian_matches_derivative_form(self, n):
        params = BubbleParams(n, lambda0=0.7)
        r = np.linspace(0.05, 10.0, 25)
        direct = [d2 + (n - 1) * d1 / x for x, (d1, d2) in zip(r, profile_derivatives(params, r, 2))]
        lap = bubble_field(params).laplacian(r)
        assert np.max(np.abs(np.array(direct, dtype=float) - lap)) < 1e-14 * np.max(np.abs(lap))


class TestBubbleParams:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"lambda0": math.inf}, "concentration scale must be positive and finite"),
            ({"lambda0": math.nan}, "concentration scale must be positive and finite"),
            ({"lambda0": 0.0}, "concentration scale must be positive and finite"),
            ({"lambda_inf": math.inf}, "lambda_inf must be positive and finite"),
            ({"lambda_inf": -1.0}, "lambda_inf must be positive and finite"),
        ],
        ids=["inf-scale", "nan-scale", "zero-scale", "inf-lambda-inf", "negative-lambda-inf"],
    )
    def test_rejects_bad_scales(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BubbleParams(5, **kwargs)


class TestBubbleEnergy:
    def test_reference_value_n5(self):
        params = BubbleParams(5)
        energy = bubble_energy(params)
        expected = expected_bubble_energy(5)
        assert energy == pytest.approx(expected, rel=1e-6)
        assert energy == pytest.approx(radial_energy_oracle(params), rel=1e-4)
        assert expected == pytest.approx(sharp_constant(5)[1] ** 1.25, rel=1e-12)

    def test_scale_invariance(self):
        e1 = bubble_energy(BubbleParams(5, lambda0=1.0))
        e2 = bubble_energy(BubbleParams(5, lambda0=2.0))
        assert e2 == pytest.approx(e1, rel=1e-8)

    def test_n8_against_squared_constant(self):
        energy = bubble_energy(BubbleParams(8))
        assert energy == pytest.approx(sharp_constant(8)[1] ** 2, rel=1e-3)
        assert energy == pytest.approx(653.8**2, rel=1e-2)

    def test_lambda_inf_normalization(self):
        energy = bubble_energy(BubbleParams(5, lambda_inf=3.0))
        assert energy == pytest.approx(expected_bubble_energy(5, 3.0), rel=1e-8)


def wallis_energy(n, lambda0, lambda_inf=1):
    """omega_(n-1) amp^(2#) lambda0^(-n) 2^(-n) sqrt(pi) Gamma(n/2) / Gamma((n+1)/2)
    at 30 digits, with amp and c_n from their formulas: after
    r = tan(theta)/lambda0 the integrand is amp^(2#) lambda0^(-n) (sin(2 theta)/2)^(n-1),
    and int_0^(pi/2) sin^(n-1) = sqrt(pi) Gamma(n/2) / (2 Gamma((n+1)/2))."""
    with mpmath.workdps(30):
        n_, lam = mpmath.mpf(n), mpmath.mpf(lambda0)
        two_sharp = 2 * n_ / (n_ - 4)
        c_n = (n_ * (n_ - 4) * (n_**2 - 4)) ** ((n_ - 4) / 8)
        amp = mpmath.mpf(lambda_inf) ** (-1 / (two_sharp - 2)) * c_n * lam ** ((n_ - 4) / 2)
        omega = 2 * mpmath.pi ** (n_ / 2) / mpmath.gamma(n_ / 2)
        wallis = mpmath.sqrt(mpmath.pi) * mpmath.gamma(n_ / 2) / mpmath.gamma((n_ + 1) / 2)
        return omega * amp**two_sharp * lam ** (-n_) * 2 ** (-n_) * wallis


class TestBubbleEnergyOracle:
    @pytest.mark.parametrize("lambda0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 12, 20, 40, 63, 100, 143, 161])
    def test_matches_closed_form(self, n, lambda0):
        # read within 5.1e-15 for n <= 20 and 2.95e-14 above
        energy = bubble_energy(BubbleParams(n, lambda0))
        rel = abs(mpmath.mpf(energy) / wallis_energy(n, lambda0) - 1)
        assert rel <= (1e-14 if n <= 20 else 5e-14)

    def test_lambda_inf_matches_closed_form(self):
        energy = bubble_energy(BubbleParams(7, 1.5, lambda_inf=3.0))
        assert abs(mpmath.mpf(energy) / wallis_energy(7, 1.5, 3.0) - 1) <= 1e-14

    @pytest.mark.parametrize("n, lambda0", [(5, 1e-300), (9, 1e-150)])
    def test_underflow_is_named(self, n, lambda0):
        # each node's integrand underflows to 0; n = 9 at 1e-150 used to
        # return 0.0, n = 5 at 1e-300 failed as an overflow of the Jacobian
        with pytest.raises(FloatingPointError, match=f"critical-energy integrand for n={n} underflows float64"):
            bubble_energy(BubbleParams(n, lambda0))

    def test_warm_call_builds_no_rule(self, monkeypatch):
        bubble_energy(BubbleParams(6))
        calls = []
        monkeypatch.setattr(bubble_module, "panel_rule", lambda *args, **kw: calls.append(args))
        assert bubble_energy(BubbleParams(6, 1.7)) > 0
        assert calls == []

    def test_rules_are_read_only_and_halve_every_panel(self):
        coarse, fine = bubble_module._energy_rule(10), bubble_module._energy_rule(20)
        assert [r.size for r in coarse + fine] == [240, 240, 480, 480]
        assert not any(a.flags.writeable for a in coarse + fine)
        # every coarse panel edge is a fine one: 48 fine radii per coarse panel
        edges = np.tan(np.linspace(0.0, math.pi / 2, 11)[1:-1])
        assert np.all(np.searchsorted(fine[0], edges) % 24 == 0)


class TestPohozaevIdentity:
    def test_gaussian(self):
        w = even_gaussian_field(5, 1.0, [1.0])
        assert abs(pohozaev_identity_residual(w, rmax=20.0)) <= 1e-8

    def test_slow_power_decay(self):
        w = power_profile_field(5, 4.0)
        assert abs(pohozaev_identity_residual(w, rmax=60.0)) <= 1e-6

    def test_random_family(self, rng):
        for _ in range(10):
            sigma = rng.uniform(0.4, 2.0)
            coeffs = rng.normal(size=3)
            coeffs[0] += 2.0  # keep the profile nondegenerate at the origin
            w = even_gaussian_field(int(rng.choice([5, 6, 8])), sigma, coeffs)
            assert abs(pohozaev_identity_residual(w, rmax=30.0)) <= 1e-6

    def test_truncated_bubble_residual_decays(self):
        w = bubble_field(BubbleParams(5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vals = [abs(pohozaev_identity_residual(w, rmax=R)) for R in (10.0, 20.0, 40.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_slow_decay_warns(self):
        w = bubble_field(BubbleParams(5))
        with pytest.warns(RuntimeWarning):
            pohozaev_identity_residual(w, rmax=10.0)

    @pytest.mark.parametrize("lambda0", [1e5, 1e6, 1e7, 1e10])
    @pytest.mark.parametrize("n, bound", [(5, 2e-7), (8, 1e-14), (12, 1e-14)])
    def test_concentrated_extremal_is_resolved(self, n, bound, lambda0):
        # panels from rmax 2^-20 whatever the scale read 8.4e-8, 0.13, -0.41
        # and (n-4)/2 = 2.0 for n = 8 at these scales; n = 5 keeps its
        # truncation at rmax, about 1e-2/(lambda0 rmax)
        w = bubble_field(BubbleParams(n, lambda0=lambda0))
        assert abs(pohozaev_identity_residual(w, rmax=50.0)) <= bound

    @pytest.mark.parametrize(
        "lambda0, pinned",
        [(0.5, -1.1945648297439737e-05), (1.0, -7.466626552072168e-07), (2.0, -4.666665109232664e-08)],
    )
    def test_scales_near_one_keep_their_panels(self, lambda0, pinned):
        # the first panel stays at rmax 2^-20 here, so the n = 8 values are
        # those of the scale-blind rule
        w = bubble_field(BubbleParams(8, lambda0=lambda0))
        assert pohozaev_identity_residual(w, rmax=50.0) == pinned

    def test_unscaled_field_keeps_its_panels(self):
        # no concentration scale (the default 0): the first panel starts at
        # rmax 2^-20 = 0.5 for every rmax, and the value is the one pinned
        # from that rule (a first panel at 0.25 reads 1.8e-15)
        w = even_gaussian_field(8, 1.0, np.array([2.0, 0.3, -0.1]))
        assert w.scale == 0.0
        assert pohozaev_identity_residual(w, rmax=2.0**19) == 1.4603099071953572e-15


class TestPohozaevWitness:
    def test_zero_coefficients(self):
        w = bubble_field(BubbleParams(5))
        assert pohozaev_witness(w, 0.0, 0.0, 50.0) == 0.0

    def test_zero_field(self):
        z = constant_field(5, 0.0)
        assert pohozaev_witness(z, 1.0, 1.0, 50.0) == pytest.approx(0.0, abs=1e-14)

    def test_bubble_gradient_witness_positive(self):
        w = bubble_field(BubbleParams(5))
        value = pohozaev_witness(w, 1.0, 0.0, 50.0)
        assert value > 0.0
        # compare against the independent quadrature of |v'|^2 r^4
        def integrand(r):
            return np.asarray(w.deriv1(r)) ** 2 * r**4
        oracle, _ = quad(lambda r: float(integrand(r)), 0.0, 50.0, limit=200)
        assert value == pytest.approx(sphere_volume(4) * oracle, rel=1e-8)

    def test_rejects_negative_coefficients(self):
        w = bubble_field(BubbleParams(5))
        with pytest.raises(ValueError):
            pohozaev_witness(w, -1.0, 0.0, 10.0)
