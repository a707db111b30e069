"""Shared test helpers.

``even_gaussian_field`` builds radial fields p(r^2) exp(-sigma r^2) with a
polynomial p, together with exact first-derivative, Laplacian and
bi-Laplacian callbacks.  The family is closed under the radial Laplacian
Delta f = f'' + (n-1) f'/r, acting on coefficient vectors of r^(2k) by

    c'_(k-1) += 2k (2k + n - 2) c_k      (polynomial part)
    c'_k     += -2 sigma (n + 4k) c_k    (cross terms)
    c'_(k+1) += 4 sigma^2 c_k            (Gaussian part)

so all callbacks are closed forms, no numerical differentiation anywhere.
"""

import numpy as np
import pytest

from paneitz.bubble import RadialField


def _lap_coeffs(coeffs: np.ndarray, sigma: float, dim: int) -> np.ndarray:
    out = np.zeros(coeffs.size + 1)
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        if k >= 1:
            out[k - 1] += 2 * k * (2 * k + dim - 2) * c
        out[k] += -2.0 * sigma * (dim + 4 * k) * c
        out[k + 1] += 4.0 * sigma * sigma * c
    return out


def _poly_gauss(coeffs: np.ndarray, sigma: float):
    coeffs = np.asarray(coeffs, dtype=float)

    def fn(r):
        r2 = np.asarray(r, dtype=float) ** 2
        return np.polynomial.polynomial.polyval(r2, coeffs) * np.exp(-sigma * r2)

    return fn


def even_gaussian_field(dim: int, sigma: float, coeffs) -> RadialField:
    coeffs = np.asarray(coeffs, dtype=float)
    lap1 = _lap_coeffs(coeffs, sigma, dim)
    lap2 = _lap_coeffs(lap1, sigma, dim)

    # d/dr [p(r^2) e^(-s r^2)] = r q(r^2) e^(-s r^2),
    # q_(k-1) += 2k c_k and q_k += -2 s c_k
    q = np.zeros(coeffs.size)
    for k, c in enumerate(coeffs):
        if k >= 1:
            q[k - 1] += 2 * k * c
        q[k] += -2.0 * sigma * c
    qg = _poly_gauss(q, sigma)

    return RadialField(
        dim=dim,
        value=_poly_gauss(coeffs, sigma),
        deriv1=lambda r: np.asarray(r, dtype=float) * qg(r),
        laplacian=_poly_gauss(lap1, sigma),
        bilaplacian=_poly_gauss(lap2, sigma),
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
