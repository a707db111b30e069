import math

import numpy as np
import pytest

from paneitz.bubble import expected_bubble_energy
from paneitz.constants import OperatorParams
from paneitz.diagnostics import (
    concentration_points,
    concentration_ratios,
    hessian_ratio,
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


class TestHessianRatio:
    def test_constant_is_zero(self):
        params = OperatorParams(2.0, 1.0)
        u = PeriodicField.constant(SPEC, 1.0, 32)
        value, over_a = hessian_ratio(u, params, L / 8)
        assert value == 0.0 and over_a == 0.0

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
        value, over_a = hessian_ratio(u, params, delta)
        assert value == pytest.approx(expected, rel=1e-8)
        assert over_a == pytest.approx(expected / params.a_alpha, rel=1e-8)


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

    def test_single_profile_energy(self):
        energy = multi_bubble_energy(5, np.array([0.0]), np.array([1.0]))
        assert energy == pytest.approx(expected_bubble_energy(5), rel=1e-6)

    def test_two_bubble_additivity(self):
        rep = quantization_check(5, expected_bubble_energy(5))
        assert rep.synthetic_bubbles == 2
        assert rep.separation == 20.0
        assert abs(rep.synthetic_rel_dev) <= 0.02
        assert rep.synthetic_ok

    def test_interaction_decays_with_separation(self):
        devs = [
            abs(quantization_check(5, 1.0, separation=s).synthetic_rel_dev)
            for s in (20.0, 40.0, 80.0)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_three_bubbles(self):
        rep = quantization_check(5, 1.0, synthetic_bubbles=3)
        assert abs(rep.synthetic_rel_dev) <= 0.02

    def test_equal_scales_overcount_in_low_dimension(self):
        # rationale for the scale hierarchy: at n = 5 the critical power
        # couples the r^-1 tails of comparable-scale profiles so strongly
        # that a separation of 20 widths still doubles the interaction energy
        energy = multi_bubble_energy(5, np.array([0.0, 20.0]), np.array([1.0, 1.0]))
        assert energy / (2 * expected_bubble_energy(5)) > 1.5

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            quantization_check(5, 0.0)
