import math
import warnings

import mpmath
import numpy as np
import pytest

from paneitz.bubble import BubbleParams, bubble_energy, expected_bubble_energy
from paneitz.constants import OperatorParams, critical_exponent
from paneitz.diagnostics import (
    concentration_points,
    concentration_ratios,
    multi_bubble_energy,
    quantization_check,
)
from paneitz.field import PeriodicField, norms
from paneitz.geometry import ManifoldSpec

SPEC = ManifoldSpec(5, 1.0)
L = SPEC.period


def gaussian_bump(center, width, spec=SPEC, modes=512, floor=0.0):
    def fn(s):
        d = np.abs(s - center)
        d = np.minimum(d, spec.period - d)
        return floor + np.exp(-(d**2) / (2 * width**2))

    return PeriodicField.from_function(spec, fn, modes)


class TestConcentrationRatios:
    def test_constant_field(self):
        u = PeriodicField.constant(SPEC, 2.0, 32)
        rep = concentration_ratios(u, L / 8)
        assert rep.r_l2 == pytest.approx(0.75, rel=1e-10)
        assert not rep.grad_ratios_defined
        assert math.isnan(rep.r_grad_l2)
        assert math.isnan(rep.r_grad_l2_weak)

    def test_narrow_bump(self):
        width = L / 300.0
        u = gaussian_bump(1.0, width, modes=2048)
        rep = concentration_ratios(u, 5 * width)
        assert rep.s_star == pytest.approx(1.0, abs=1e-3)
        assert rep.r_l2 <= 1e-3
        assert rep.r_grad_l2 <= 1e-3
        assert rep.grad_ratios_defined

    def test_scale_invariance(self):
        u = gaussian_bump(2.0, L / 20.0)
        a = concentration_ratios(u, L / 8)
        b = concentration_ratios(u.scaled(3.0), L / 8)
        assert b.r_l2 == pytest.approx(a.r_l2, rel=1e-12)
        assert b.r_grad_l2 == pytest.approx(a.r_grad_l2, rel=1e-12)
        assert b.r_grad_l2_weak == pytest.approx(a.r_grad_l2_weak, rel=1e-12)

    def test_ratio_bounds(self):
        u = gaussian_bump(0.5, L / 15.0, floor=0.2)
        rep = concentration_ratios(u, L / 8)
        assert 0.0 <= rep.r_l2 <= 1.0
        assert 0.0 <= rep.r_grad_l2 <= 1.0

    def test_strong_support_flag(self):
        assert not concentration_ratios(gaussian_bump(0.0, L / 10), L / 8).strong_supported
        spec8 = ManifoldSpec(8, 1.0)
        u8 = gaussian_bump(0.0, spec8.period / 10, spec=spec8)
        assert concentration_ratios(u8, spec8.period / 8).strong_supported

    def test_complement_consistency(self):
        from paneitz.field import localized_mass

        u = gaussian_bump(1.5, L / 12.0, floor=0.1)
        rep = concentration_ratios(u, L / 8)
        total = norms(u).l2
        ball = localized_mass(u, rep.s_star, L / 8, "l2")
        assert rep.r_l2 == pytest.approx(1.0 - ball / total, abs=1e-10)

    def test_rejects_bad_delta(self):
        u = gaussian_bump(0.0, L / 10)
        with pytest.raises(ValueError):
            concentration_ratios(u, L / 2)

    def test_default_delta_is_an_eighth_of_the_circle(self):
        u = gaussian_bump(0.0, L / 10)
        assert concentration_ratios(u) == concentration_ratios(u, L / 8)


class TestHessianRatio:
    def test_constant_is_zero(self):
        params = OperatorParams(2.0, 1.0)
        u = PeriodicField.constant(SPEC, 1.0, 32)
        rep = concentration_ratios(u, L / 8, params)
        assert rep.hessian_ratio == 0.0 and rep.hessian_ratio_over_a == 0.0

    def test_mode_one_closed_form(self):
        # u = 1 + eps cos(s/t): complement Hessian mass over total L2 mass
        eps = 0.1
        params = OperatorParams(2.0, 1.0)
        u = PeriodicField.from_function(SPEC, lambda s: 1.0 + eps * np.cos(s), 128)
        delta = L / 8
        kap = 1.0
        # int_{|s|>delta} cos^2 = pi - (delta + sin(2 delta)/2)
        comp = math.pi - (delta + math.sin(2 * delta) / 2.0)
        expected = (eps**2 * kap**4 * comp) / (L * (1 + eps**2 / 2.0))
        rep = concentration_ratios(u, delta, params)
        assert rep.hessian_ratio == pytest.approx(expected, rel=1e-8)
        assert rep.hessian_ratio_over_a == pytest.approx(expected / params.a_alpha, rel=1e-8)

    def test_absent_without_params(self):
        rep = concentration_ratios(PeriodicField.constant(SPEC, 1.0, 32), L / 8)
        assert rep.hessian_ratio is None and rep.hessian_ratio_over_a is None


class TestConcentrationPoints:
    def test_constant_has_none(self):
        u = PeriodicField.constant(SPEC, 1.0, 64)
        assert concentration_points(u, theta=0.5) == []

    def test_single_bump(self):
        u = gaussian_bump(2.0, L / 40.0)
        pts = concentration_points(u, theta=0.5)
        assert len(pts) == 1
        assert pts[0] == pytest.approx(2.0, abs=1e-2)

    def test_two_bumps(self):
        def fn(s):
            d1 = np.minimum(np.abs(s - 1.0), L - np.abs(s - 1.0))
            d2 = np.minimum(np.abs(s - 1.0 - L / 2), L - np.abs(s - 1.0 - L / 2))
            return np.exp(-(d1**2) * 200) + 0.9 * np.exp(-(d2**2) * 200)

        u = PeriodicField.from_function(SPEC, fn, 1024)
        pts = concentration_points(u, theta=0.2)
        assert len(pts) == 2

    def test_threshold_filters(self):
        # a faint ripple on a constant: its ball holds roughly a quarter of
        # the mass, below a one-half threshold
        u = PeriodicField.from_function(
            SPEC, lambda s: 1.0 + 0.02 * np.cos(2 * math.pi * s / L), 256
        )
        assert concentration_points(u, theta=0.5) == []
        assert len(concentration_points(u, theta=0.2)) == 1

    def test_rejects_bad_theta(self):
        u = gaussian_bump(0.0, L / 20.0)
        with pytest.raises(ValueError):
            concentration_points(u, theta=0.0)


class TestQuantization:
    def test_budget_of_one_quantum(self):
        rep = quantization_check(5, expected_bubble_energy(5))
        assert rep.k_max == 1

    def test_budget_floor(self):
        rep = quantization_check(5, 3.5 * expected_bubble_energy(5))
        assert rep.k_max == 3

    def test_two_bubble_additivity(self):
        rep = quantization_check(5, expected_bubble_energy(5))
        assert (rep.synthetic_bubbles, rep.separation, rep.scale_ratio) == (2, 20.0, 1e4)
        assert rep.synthetic_expected == 2 * rep.quantum
        assert abs(rep.synthetic_rel_dev) <= 0.02
        assert rep.synthetic_ok

    def test_interaction_decays_with_separation(self):
        # the quantization pair's scales (1, 1e4) at distances 20, 40 and 80
        # read ever closer to two quanta
        quanta = 2 * expected_bubble_energy(5)
        devs = [abs(pair(5, (0.0, s), (1.0, 1e4)) / quanta - 1) for s in (20.0, 40.0, 80.0)]
        assert devs[0] > devs[1] > devs[2]

    def test_equal_scales_overcount_in_low_dimension(self):
        # rationale for the scale hierarchy: at n = 5 the critical power
        # couples the r^-1 tails of comparable-scale profiles so strongly
        # that a separation of 20 widths still doubles the interaction energy
        energy = multi_bubble_energy(5, np.array([0.0, 20.0]), np.array([1.0, 1.0]))
        assert energy / (2 * expected_bubble_energy(5)) > 1.5

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            quantization_check(5, 0.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"budget": math.inf}, "energy budget must be positive and finite"),
        ],
        ids=["infinite-budget"],
    )
    def test_names_bad_input(self, kwargs, match):
        # an infinite budget raised a bare OverflowError
        with pytest.raises(ValueError, match=match):
            quantization_check(5, **{"budget": 1.0, **kwargs})

    @pytest.mark.parametrize("n", range(5, 162))
    def test_synthetic_energy_is_the_exact_rule(self, n):
        # the pair, bit for bit, up to the last dimension whose critical
        # integrand fits in float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two = quantization_check(n, 1.0)
            assert two.synthetic_energy == pair(n, (0.0, 20.0), (1.0, 1e4))


def concentric_pair_energy(n, centers, scales):
    # the energy of two extremals as the 30-digit mpmath.quad of the concentric
    # pair with scales 1 and mu = e^D, D the hyperbolic distance of the points
    # (c_j, 1/lam_j): omega_(n-1) int (B_1 + B_mu)^(2#) r^n dt in t = ln r,
    # split at both scales t = -D, 0 and between them, with cosh D from the
    # cosh form and c_n from its formula (about 0.1 s a case).  In t each
    # bubble is a bump of width about 1, so a far one is not lost: a split
    # [0, 1/mu, 1, inf] in r read 1.5 quanta at D = 374 and 702
    with mpmath.workdps(30):
        (c1, c2), (lam1, lam2) = map(mpmath.mpf, centers), map(mpmath.mpf, scales)
        d = mpmath.acosh((lam1 / lam2 + lam2 / lam1 + lam1 * lam2 * (c1 - c2) ** 2) / 2)
        mu = mpmath.exp(d)
        m, two_sharp = mpmath.mpf(n - 4) / 2, mpmath.mpf(2 * n) / (n - 4)
        amp = (n * (n - 4) * (n**2 - 4)) ** (m / 4)

        def integrand(t):
            r = mpmath.exp(t)
            return (amp * (1 + r**2) ** -m + amp * mu**m * (1 + (mu * r) ** 2) ** -m) ** two_sharp * r**n

        omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        splits = sorted({-d, -d / 2, mpmath.mpf(0)})
        return omega * mpmath.quad(integrand, [-mpmath.inf, *splits, mpmath.inf])


_PAIR_SETS = {
    "far-scales": ((0.0, 20.0), (1.0, 1e4)),
    "near": ((0.0, 3.0), (1.0, 2.5)),
    "concentric": ((0.0, 0.0), (1.0, 7.0)),
    "far-centers": ((0.0, 1000.0), (1.0, 1.0)),
    "equal-scales": ((0.0, 20.0), (1.0, 1.0)),
}

# concentric_pair_energy(n, *_PAIR_SETS[name]) to 20 digits, cached because
# the 40 cases take about 4 s; test_oracle_literals recomputes two of them
_PAIR_ORACLE = {
    (5, "far-scales"): "656.4209524878272871",
    (5, "near"): "13228.974223041535462",
    (5, "concentric"): "74502.738141937428756",
    (5, "far-centers"): "661.54124557795212837",
    (5, "equal-scales"): "1419.3388925298795479",
    (6, "far-scales"): "7777.2636970584336304",
    (6, "near"): "14604.984486503286465",
    (6, "concentric"): "51046.93034378722288",
    (6, "far-centers"): "7777.3512645382634397",
    (6, "equal-scales"): "8074.9656260238308228",
    (7, "far-scales"): "81715.403212395771712",
    (7, "near"): "95875.542989124812199",
    (7, "concentric"): "208990.03595807065558",
    (7, "far-centers"): "81715.40459420687785",
    (7, "equal-scales"): "81911.868278342271907",
    (8, "far-scales"): "854973.50759136157112",
    (8, "near"): "894277.34309461590341",
    (8, "concentric"): "1418053.6886278754612",
    (8, "far-centers"): "854973.50761381198301",
    (8, "equal-scales"): "855121.7519008447626",
    (9, "far-scales"): "9176148.6371909799457",
    (9, "near"): "9301142.8017990891998",
    (9, "concentric"): "12182794.088443802061",
    (9, "far-centers"): "9176148.6371913653499",
    (9, "equal-scales"): "9176271.4249728215012",
    (10, "far-scales"): "101925717.31282661316",
    (10, "near"): "102361237.80056686134",
    (10, "concentric"): "119962407.88037167081",
    (10, "far-centers"): "101925717.31282662018",
    (10, "equal-scales"): "101925827.14431849708",
    (12, "far-scales"): "14033065942.351847399",
    (12, "near"): "14039554174.368127375",
    (12, "concentric"): "14855631423.199524054",
    (12, "far-centers"): "14033065942.351847399",
    (12, "equal-scales"): "14033066048.731814247",
    (20, "far-scales"): "18256728431937928155.0",
    (20, "near"): "18256730378760698398.0",
    (20, "concentric"): "18279938420194803765.0",
    (20, "far-centers"): "18256728431937928155.0",
    (20, "equal-scales"): "18256728431937928717.0",
}
_PAIR_DIMS = sorted({n for n, _ in _PAIR_ORACLE})


def pair_oracle(n, name):
    with mpmath.workdps(30):
        return mpmath.mpf(_PAIR_ORACLE[n, name])


def pair(n, centers, scales):
    return multi_bubble_energy(n, np.array(centers), np.array(scales))


class TestMultiBubbleEnergy:
    @pytest.mark.parametrize(
        "centers, scales, match",
        [
            ([0.0, 20.0], [1.0, 0.0], "concentration scale must be positive"),
            ([0.0, 20.0], [1.0, -1.0], "concentration scale must be positive"),
            ([], [], "need exactly two profiles, got 0$"),
            ([0.0], [1.0], "need exactly two profiles, got 1; one profile's energy is bubble_energy"),
            ([0.0, np.inf], [1.0, 1.0], "must be finite"),
            ([0.0, 20.0, 40.0], [1.0, 1e4, 1e8], "need exactly two profiles, got 3$"),
        ],
        ids=["zero-scale", "negative-scale", "empty", "one", "infinite-center", "three"],
    )
    def test_rejects_bad_profiles(self, centers, scales, match):
        with pytest.raises(ValueError, match=match):
            multi_bubble_energy(5, np.array(centers), np.array(scales))

    def test_narrow_profile_is_kept(self):
        # a cell rule whose edges merged below an absolute 1e-13 (hi - lo)
        # once dropped a profile this narrow: -49.96% of two quanta at
        # (1, 1e12)
        quantum = expected_bubble_energy(5)
        two = multi_bubble_energy(5, np.array([0.0, 20.0]), np.array([1.0, 1e12]))
        assert two / (2 * quantum) - 1 == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_profile_below_the_float64_spacing_is_integrated(self, n):
        # 0.25/1e14 is below 4 float64 spacings at center 20, which the cell
        # rule refused; D = 38.2 is well inside the oracle's reach
        energy = multi_bubble_energy(n, np.array([0.0, 20.0]), np.array([1.0, 1e14]))
        exact = concentric_pair_energy(n, (0.0, 20.0), (1.0, 1e14))
        assert energy == pytest.approx(float(exact), rel=1e-15)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 12, 20])
    def test_matches_exact_energy(self, n):
        # the quantization check's pair is the oracle's far-scales pair
        energy = quantization_check(n, 1.0).synthetic_energy
        assert energy == pytest.approx(float(pair_oracle(n, "far-scales")), rel=1e-14)

    @pytest.mark.parametrize("shift", [0.0, -13.25])
    @pytest.mark.parametrize("name", sorted(_PAIR_SETS))
    @pytest.mark.parametrize("n", _PAIR_DIMS)
    def test_two_profiles_are_the_pair(self, n, name, shift):
        # the cell rule read up to 3.6e-10 low here at n = 5; the pair's
        # reduction reads within 1.3e-15 of the oracle, and a translation
        # x -> x + shift leaves the integral as it is
        centers, scales = _PAIR_SETS[name]
        energy = multi_bubble_energy(n, np.array(centers) + shift, np.array(scales))
        assert energy == pytest.approx(float(pair_oracle(n, name)), rel=1e-14)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_mirror_and_translation_invariant(self, n):
        # x -> 40 - x and x -> x - 20 map the integral to itself
        scales = np.array([1.0, 1e4])
        energy = multi_bubble_energy(n, np.array([20.0, 40.0]), scales)
        assert multi_bubble_energy(n, np.array([20.0, 0.0]), scales) == pytest.approx(energy, rel=4e-15)
        assert multi_bubble_energy(n, np.array([0.0, 20.0]), scales) == pytest.approx(energy, rel=4e-15)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 12, 20])
    @pytest.mark.parametrize(
        "centers, scales",
        [((5.0, 5.0), (1.0, 1e4)), ((0.0, 1000.0), (1.0, 1e4))],
        ids=["coincident", "beyond-two-reaches"],
    )
    def test_matches_oracle_at_extreme_spacings(self, n, centers, scales):
        # two profiles at one point, and centers more than twice the cell
        # rule's 300/lam_min reach apart
        energy = multi_bubble_energy(n, np.array(centers), np.array(scales))
        assert energy == pytest.approx(float(concentric_pair_energy(n, centers, scales)), rel=1e-14)


class TestPairBubbleEnergy:
    @pytest.mark.parametrize("n, name", [(5, "far-scales"), (20, "concentric")])
    def test_oracle_literals(self, n, name):
        exact = concentric_pair_energy(n, *_PAIR_SETS[name])
        assert float(abs(pair_oracle(n, name) / exact - 1)) < 1e-18

    @pytest.mark.parametrize("dilation", [2.5, 0.01])
    @pytest.mark.parametrize("name", sorted(_PAIR_SETS))
    @pytest.mark.parametrize("n", _PAIR_DIMS)
    def test_matches_oracle(self, n, name, dilation):
        # the dilation x -> dilation * x multiplies the centers and divides
        # the concentration scales, which keeps the hyperbolic distance and
        # so the energy; test_two_profiles_are_the_pair checks the undilated
        # sets
        centers, scales = _PAIR_SETS[name]
        energy = pair(n, np.multiply(centers, dilation), np.divide(scales, dilation))
        assert energy == pytest.approx(float(pair_oracle(n, name)), rel=1e-14)

    @pytest.mark.parametrize("n", _PAIR_DIMS)
    def test_swap_and_translation_invariant(self, n):
        energy = pair(n, (0.0, 20.0), (1.0, 1e4))
        assert pair(n, (20.0, 0.0), (1e4, 1.0)) == pytest.approx(energy, rel=4e-15)
        assert pair(n, (-13.25, 6.75), (1.0, 1e4)) == pytest.approx(energy, rel=4e-15)

    @pytest.mark.parametrize("n", _PAIR_DIMS)
    def test_depends_only_on_distance(self, n):
        # cosh D = (7 + 1/7)/2 for concentric scales (1, 7), for equal scales 1
        # at distance 6/sqrt(7), and for the dilation x -> x/10 moved by 7.5
        energy = pair(n, (0.0, 0.0), (1.0, 7.0))
        assert pair(n, (0.0, 6.0 / math.sqrt(7.0)), (1.0, 1.0)) == pytest.approx(energy, rel=4e-15)
        assert pair(n, (7.5, 7.5), (10.0, 70.0)) == pytest.approx(energy, rel=4e-15)

    @pytest.mark.parametrize("n", _PAIR_DIMS)
    def test_coincident_profiles_are_two_sharp_powers_of_two(self, n):
        # D = 0 exactly: (2 B)^(2#) integrates to 2^(2#) quanta
        expected = 2.0 ** critical_exponent(n) * expected_bubble_energy(n)
        assert pair(n, (3.0, 3.0), (4.0, 4.0)) == pytest.approx(expected, rel=4e-15)

    @pytest.mark.parametrize(
        "centers, scales, rel",
        [((0.0, 1e300), (1.0, 1.0), 1e-14), ((0.0, 20.0), (1.0, 1e160), 4e-15), ((0.0, 20.0), (1e-305, 1.0), 4e-15)],
        ids=["far-center", "large-scale", "small-scale"],
    )
    def test_far_centers_are_two_quanta(self, centers, scales, rel):
        # sinh(D/2) is a float64 (5e299, 1e81 and 1.6e152: D = 1381.6, 374.4
        # and 702.3), where the cell rule read "outside the float64 range";
        # read within 3.6e-15, 2.2e-16 and 2.4e-15
        assert pair(5, centers, scales) == pytest.approx(2 * expected_bubble_energy(5), rel=rel)

    @pytest.mark.parametrize(
        "scales", [(1.0, 1e160), (1e-305, 1.0)], ids=["large-scale", "small-scale"]
    )
    def test_far_pair_matches_oracle(self, scales):
        # D = 374.4 and 702.3: the oracle resolves both bubbles and reads two
        # quanta to 30 digits; the pair reads within 2.6e-15 of it
        exact = concentric_pair_energy(5, (0.0, 20.0), scales)
        assert float(exact) == pytest.approx(2 * expected_bubble_energy(5), rel=1e-15)
        assert pair(5, (0.0, 20.0), scales) == pytest.approx(float(exact), rel=1e-14)

    def test_high_dimensional_pair(self):
        # the pair's prefactor leaves float64 at n = 162.  At n = 160
        # sech^n(80/n) is e^-19, so the window must reach acosh(e^(80/n)):
        # read within 3.6e-14 (rounding grows like n)
        expected = 2.0 ** critical_exponent(160) * expected_bubble_energy(160)
        assert pair(160, (0.0, 0.0), (1.0, 1.0)) == pytest.approx(expected, rel=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quantization_check(100, 1.0).synthetic_ok
            with pytest.raises(FloatingPointError, match="critical-energy integrand for n=162 overflows float64"):
                quantization_check(162, 1.0)

    def test_coincident_pair_is_two_sharp_powers_of_a_single_energy(self):
        # one prefactor for one and two extremals: read within 4.9e-16 for
        # n = 5..161, where raising amp/2^m to the rounded 2# for the pair
        # alone read up to 6.9e-14 (n = 150)
        for n in range(5, 162):
            expected = 2.0 ** critical_exponent(n) * bubble_energy(BubbleParams(n=n))
            assert pair(n, (0.0, 0.0), (1.0, 1.0)) == pytest.approx(expected, rel=1e-15), n

    @pytest.mark.parametrize(
        "centers, scales",
        [((0.0, 1e300), (1e10, 1e10)), ((-1e308, 1e308), (1.0, 1.0)), ((0.0, 0.0), (5e-324, 1e300))],
        ids=["far-center", "center-gap-overflows", "scale-ratio-overflows"],
    )
    def test_float64_range_is_declared(self, centers, scales):
        with pytest.raises(FloatingPointError, match="outside the float64 range"):
            pair(5, centers, scales)

    @pytest.mark.parametrize(
        "centers, scales, match",
        [
            ((0.0, 20.0), (1.0,), "centers and lambda0s must be matching 1-d arrays"),
            ((0.0, 20.0, 40.0), (1.0, 1.0, 1.0), "need exactly two profiles, got 3"),
            ((0.0, np.inf), (1.0, 1.0), "must be finite"),
            ((0.0, 20.0), (1.0, np.nan), "must be finite"),
            ((0.0, 20.0), (1.0, 0.0), "concentration scale must be positive"),
        ],
        ids=["mismatched", "three", "infinite-center", "nan-scale", "zero-scale"],
    )
    def test_rejects_bad_profiles(self, centers, scales, match):
        with pytest.raises(ValueError, match=match):
            pair(5, centers, scales)
