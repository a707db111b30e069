"""Model manifolds: round spheres and the product S^1(t) x S^(n-1).

Laplacians use the geometer sign convention Delta = -div grad, so spectra
are nonnegative.  Solution fields are circle-reduced (constant on the sphere
factor); the sphere enters through its volume and, for reporting only, its
spectrum.  The circle modes enter only through the symbol of P
(``solver._symbol``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ManifoldSpec",
    "sphere_spectrum",
    "sphere_volume",
    "product_volume",
]


@dataclass(frozen=True)
class ManifoldSpec:
    """The product S^1(t) x S^(n-1); ``n`` is the total dimension (>= 5)."""

    n: int
    t: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 5:
            raise ValueError(f"total dimension must be an integer >= 5, got {self.n!r}")
        if not self.t > 0:
            raise ValueError(f"circle radius must be positive, got {self.t!r}")
        if not math.isfinite(self.period):
            raise ValueError(f"circle period 2 pi t must be finite, got t={self.t!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "t", float(self.t))

    @property
    def period(self) -> float:
        """Arc length of the circle factor, L = 2 pi t."""
        return 2.0 * math.pi * self.t

    @property
    def sphere_dim(self) -> int:
        return self.n - 1


def sphere_spectrum(d: int, lmax: int) -> list[tuple[int, int]]:
    """Eigenvalues l(l+d-1) of Delta on the round S^d with multiplicities.

    Multiplicities are the dimensions of the spaces of degree-l spherical
    harmonics on S^d.
    """
    if d < 2:
        raise ValueError("sphere dimension must be >= 2")
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    out = []
    for ell in range(lmax + 1):
        eig = ell * (ell + d - 1)
        if ell == 0:
            mult = 1
        else:
            mult = (2 * ell + d - 1) * math.comb(ell + d - 2, ell) // (d - 1)
        out.append((eig, mult))
    return out


def sphere_volume(d: int) -> float:
    """Volume of the unit d-sphere, omega_d = 2 pi^((d+1)/2) / Gamma((d+1)/2).
    Gamma((d+1)/2) leaves float64 from d = 343 on, which raises
    ``FloatingPointError``."""
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    try:
        return 2.0 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)
    except OverflowError:
        raise FloatingPointError(
            f"volume of the unit {d}-sphere: Gamma({(d + 1) / 2:g}) is outside the float64 range"
        ) from None


def product_volume(spec: ManifoldSpec) -> float:
    """Volume of S^1(t) x S^(n-1): 2 pi t times omega_(n-1)."""
    return spec.period * sphere_volume(spec.sphere_dim)
