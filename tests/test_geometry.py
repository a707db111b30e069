import math

import numpy as np
import pytest

from paneitz.geometry import (
    ManifoldSpec,
    QuadratureGrid,
    circle_eigenvalue,
    circle_multiplicity,
    product_volume,
    sphere_spectrum,
    sphere_volume,
)


def harmonic_dim(d, ell):
    # dimension of degree-ell harmonic polynomials in d+1 variables
    v = d + 1
    return math.comb(ell + v - 1, v - 1) - (math.comb(ell - 2 + v - 1, v - 1) if ell >= 2 else 0)


class TestManifoldSpec:
    def test_fields(self):
        spec = ManifoldSpec(5, 0.5)
        assert spec.sphere_dim == 4
        assert spec.period == pytest.approx(math.pi)

    @pytest.mark.parametrize("n,t", [(4, 1.0), (5, 0.0), (5, -1.0), (5.5, 1.0), (5, math.inf), (5, 1e308)])
    def test_rejects_bad_input(self, n, t):
        with pytest.raises(ValueError):
            ManifoldSpec(n, t)


class TestCircleSpectrum:
    def test_values(self):
        assert circle_eigenvalue(ManifoldSpec(5, 1.0), 0) == 0.0
        assert circle_eigenvalue(ManifoldSpec(5, 1.0), 3) == 9.0
        assert circle_eigenvalue(ManifoldSpec(5, 0.5), 1) == 4.0

    def test_multiplicity(self):
        assert circle_multiplicity(0) == 1
        assert circle_multiplicity(7) == 2

    def test_monotone_and_scaling(self):
        spec1 = ManifoldSpec(5, 1.0)
        spec_t = ManifoldSpec(5, 0.37)
        eigs = [circle_eigenvalue(spec1, m) for m in range(8)]
        assert all(b > a for a, b in zip(eigs, eigs[1:]))
        for m in range(8):
            assert circle_eigenvalue(spec_t, m) == pytest.approx(eigs[m] / 0.37**2, rel=1e-14)

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError):
            circle_eigenvalue(ManifoldSpec(5, 1.0), -1)


class TestSphere:
    def test_spectrum_small_cases(self):
        spec = sphere_spectrum(4, 2)
        assert spec[0] == (0, 1)
        assert spec[1] == (4, 5)
        assert spec[2] == (10, 14)

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 11])
    def test_multiplicity_is_harmonic_dimension(self, d):
        for ell, (eig, mult) in enumerate(sphere_spectrum(d, 6)):
            assert eig == ell * (ell + d - 1)
            assert mult == harmonic_dim(d, ell)

    def test_volume_closed_forms(self):
        assert sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-15)
        assert sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
        assert sphere_volume(4) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)


class TestProductVolume:
    def test_reference_values(self):
        assert product_volume(ManifoldSpec(5, 1.0)) == pytest.approx(16 * math.pi**3 / 3, rel=1e-14)
        assert product_volume(ManifoldSpec(5, 0.5)) == pytest.approx(8 * math.pi**3 / 3, rel=1e-14)
        # 2 pi * omega_5 with omega_5 = 2 pi^3 / Gamma(3) = pi^3
        assert product_volume(ManifoldSpec(6, 1.0)) == pytest.approx(2 * math.pi**4, rel=1e-14)

    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_linear_in_circle_length(self, n, t):
        assert product_volume(ManifoldSpec(n, 2 * t)) == pytest.approx(
            2 * product_volume(ManifoldSpec(n, t)), rel=1e-14
        )


class TestQuadratureGrid:
    def test_weights_sum_to_length(self):
        grid = QuadratureGrid(2 * math.pi, 64)
        assert grid.weights.sum() == pytest.approx(2 * math.pi, rel=1e-15)
        assert grid.points[0] == 0.0
        assert grid.points.size == 64

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            QuadratureGrid(1.0, 15)
        with pytest.raises(ValueError):
            QuadratureGrid(1.0, 8)

    def test_exact_for_squared_trig_polynomials(self, rng):
        # uniform rule integrates squares of degree < N/2 polynomials exactly
        L, N = 2 * math.pi * 0.7, 32
        grid = QuadratureGrid(L, N)
        s = grid.points
        degree = N // 2 - 1
        coeffs = rng.normal(size=degree + 1)
        vals = np.zeros_like(s)
        for k, c in enumerate(coeffs):
            vals += c * np.cos(2 * math.pi * k * s / L + 0.1 * k)
        exact = L * (coeffs[0] ** 2 + 0.5 * np.sum(coeffs[1:] ** 2))
        assert float(np.sum(grid.weights * vals**2)) == pytest.approx(exact, rel=1e-12)
