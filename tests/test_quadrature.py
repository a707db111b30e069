"""Gauss-Legendre rules: exactness, agreement with scipy, the small weights
next to the endpoints against a 50-digit reference, and the panel-edge
builder's input checks."""

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from paneitz.quadrature import gauss_legendre, geometric_edges, panel_rule


@pytest.mark.parametrize("order", [1, 2, 3, 7, 16, 24, 61])
def test_exact_on_polynomials(order):
    x, w = gauss_legendre(order)
    for k in range(0, 2 * order, 2):
        assert np.sum(w * x**k) == pytest.approx(2.0 / (k + 1), rel=1e-13)
    assert np.sum(w * x) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("order", [5, 16, 24, 240, 480])
def test_matches_scipy(order):
    x, w = gauss_legendre(order)
    xs, ws = roots_legendre(order)
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x - xs)) <= 4e-16
    assert np.max(np.abs(w - ws) / ws) <= 1e-9


def test_endpoint_weight_against_mpmath():
    order = 480
    x, w = gauss_legendre(order)
    with mpmath.workdps(50):
        t = mpmath.mpf(x[-1])
        for _ in range(6):
            p0, p1 = mpmath.mpf(1), t
            for j in range(1, order):
                p0, p1 = p1, ((2 * j + 1) * t * p1 - j * p0) / (j + 1)
            dp = order * (t * p1 - p0) / (t * t - 1)
            t -= p1 / dp
        exact = 2 / ((1 - t * t) * dp * dp)
        assert abs(x[-1] - float(t)) <= 2e-16
        assert abs(w[-1] - float(exact)) <= 1e-11 * float(exact)


def test_cached_and_read_only():
    x, w = gauss_legendre(24)
    assert gauss_legendre(24)[0] is x
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError):
        gauss_legendre(0)
    nodes, weights = panel_rule(np.array([0.0, 1.0, 3.0]), order=24)
    assert weights.flags.writeable
    assert np.sum(weights * nodes**2) == pytest.approx(9.0, rel=1e-14)


@pytest.mark.parametrize("inner, outer", [(1e-300, np.inf), (0.0, 1.0), (1.0, np.nan)])
def test_geometric_edges_rejects_bad_bounds(inner, outer):
    with pytest.raises(ValueError, match="need 0 < inner < outer < inf"):
        geometric_edges(inner, outer)
