import math

import pytest

from paneitz.geometry import (
    ManifoldSpec,
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
