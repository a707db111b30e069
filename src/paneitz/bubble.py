"""The explicit radial extremal of Delta^2 v = lambda_inf v^(2#-1) on R^n,
its exactness and energy checks, and the scaling-identity (Pohozaev) integrals.

Radial derivative conventions: Delta f = f'' + (n-1) f'/r, applied twice for
the bi-Laplacian.  Only Delta^2, |grad f|^2 and f^2 enter the integrals
below, so the overall sign convention of Delta is immaterial.

The profile (1 + lambda^2 r^2)^(-m) and all its radial Laplacians are
polynomials in w = 1/(1 + lambda^2 r^2).  Assembling Delta and Delta^2 in
that variable (using r^2 w = (1-w)/lambda^2) removes the 1/r^k divisions of
the naive four-derivative formula, whose cancellation error grows like r^4
and breaks ~1e-10 accuracy already at r ~ 50, so no radial derivative above
the first is formed.  The w-forms are exact down to r = 0, so no series
fallback is needed for this family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .constants import bubble_coefficient, critical_exponent, sharp_constant
from .geometry import sphere_volume
from .quadrature import geometric_edges, panel_rule

__all__ = [
    "BubbleParams",
    "RadialField",
    "bubble_eval",
    "bubble_field",
    "power_profile_field",
    "constant_field",
    "pde_residual",
    "bubble_energy",
    "expected_bubble_energy",
    "pohozaev_identity_residual",
    "pohozaev_witness",
]


@dataclass(frozen=True)
class BubbleParams:
    """Radial extremal data: dimension, concentration scale and equation
    normalization lambda_inf."""

    n: int
    lambda0: float = 1.0
    lambda_inf: float = 1.0

    def __post_init__(self):
        if self.n < 5:
            raise ValueError(f"dimension must be >= 5, got {self.n}")
        if not 0 < self.lambda0 < math.inf:
            raise ValueError(f"concentration scale must be positive and finite, got {self.lambda0}")
        if not 0 < self.lambda_inf < math.inf:
            raise ValueError(f"lambda_inf must be positive and finite, got {self.lambda_inf}")

    @property
    def two_sharp(self) -> float:
        return critical_exponent(self.n)

    @property
    def amplitude(self) -> float:
        """Peak prefactor lambda_inf^(-1/(2#-2)) c_n lambda0^((n-4)/2)."""
        m = (self.n - 4) / 2.0
        return self.lambda_inf ** (-1.0 / (self.two_sharp - 2.0)) * bubble_coefficient(
            self.n
        ) * self.lambda0**m


@dataclass
class RadialField:
    """A radial function on R^dim with closed-form callbacks.

    The callables, when available, give exact pointwise evaluations of f,
    f', Delta f and Delta^2 f, the four quantities the residual and integral
    routines read.  No numerical differentiation happens anywhere in this
    module.  ``scale`` is the concentration scale: the field varies on
    lengths down to about 1/scale, which the radial quadratures resolve; the
    default 0 names no scale, and those quadratures keep their panels from
    rmax 2^-20.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray] | None = None
    laplacian: Callable[[np.ndarray], np.ndarray] | None = None
    bilaplacian: Callable[[np.ndarray], np.ndarray] | None = None
    scale: float = 0.0


def _power_profile_laplacian(n: int, m: float, lam: float, r: np.ndarray) -> np.ndarray:
    """Radial Laplacian of (1 + lam^2 r^2)^(-m), regular at r = 0."""
    w = 1.0 / (1.0 + (lam * r) ** 2)
    return lam**2 * 2.0 * m * w ** (m + 1) * ((2.0 * m + 2.0 - n) - 2.0 * (m + 1.0) * w)


def _power_profile_bilaplacian(n: int, m: float, lam: float, r: np.ndarray) -> np.ndarray:
    """Radial bi-Laplacian of (1 + lam^2 r^2)^(-m).

    Delta^2 f = lam^4 w^(m+2) (q0 + q1 w + q2 w^2) with coefficients obtained
    by eliminating the x^2 w^(m+k) monomials through x^2 w = 1 - w.  For
    m = (n-4)/2 the constants q0 and q1 vanish identically.
    """
    A = 4.0 * m * (m + 1.0) * n * (n + 2.0)
    B = 16.0 * m * (m + 1.0) * (m + 2.0) * (n + 2.0)
    C = 16.0 * m * (m + 1.0) * (m + 2.0) * (m + 3.0)
    q0, q1, q2 = A - B + C, B - 2.0 * C, C
    w = 1.0 / (1.0 + (lam * r) ** 2)
    return lam**4 * w ** (m + 2.0) * (q0 + (q1 + q2 * w) * w)


def bubble_eval(params: BubbleParams, r) -> np.ndarray | float:
    """v(r) = lambda_inf^(-1/(2#-2)) c_n (lambda0 / (1 + lambda0^2 r^2))^((n-4)/2)."""
    r = np.asarray(r, dtype=float)
    m = (params.n - 4) / 2.0
    w = 1.0 / (1.0 + (params.lambda0 * r) ** 2)
    out = params.amplitude * w**m
    return float(out) if out.ndim == 0 else out


def power_profile_field(
    dim: int,
    exponent: float,
    scale: float = 1.0,
    amplitude: float = 1.0,
) -> RadialField:
    """amplitude * (1 + (scale r)^2)^(-exponent) with exact callbacks; its
    Laplacians are the w-forms of the module docstring."""
    m, lam, amp = float(exponent), float(scale), float(amplitude)

    def value(r):
        w = 1.0 / (1.0 + (lam * np.asarray(r, dtype=float)) ** 2)
        return amp * w**m

    def deriv1(r):
        x = lam * np.asarray(r, dtype=float)
        w = 1.0 / (1.0 + x * x)
        return amp * lam * (-2.0 * m) * x * w ** (m + 1.0)

    def laplacian(r):
        return amp * _power_profile_laplacian(dim, m, lam, np.asarray(r, dtype=float))

    def bilaplacian(r):
        return amp * _power_profile_bilaplacian(dim, m, lam, np.asarray(r, dtype=float))

    return RadialField(
        dim=dim,
        value=value,
        deriv1=deriv1,
        laplacian=laplacian,
        bilaplacian=bilaplacian,
        scale=abs(lam),
    )


def bubble_field(params: BubbleParams, scale: float = 1.0) -> RadialField:
    """The (optionally amplitude-scaled) extremal as a RadialField with exact
    closed-form callbacks."""
    n = params.n
    return power_profile_field(
        dim=n,
        exponent=(n - 4) / 2.0,
        scale=params.lambda0,
        amplitude=scale * params.amplitude,
    )


def constant_field(n: int, value: float) -> RadialField:
    c = float(value)
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return RadialField(
        dim=n,
        value=lambda r: np.full_like(np.asarray(r, dtype=float), c),
        deriv1=zero,
        laplacian=zero,
        bilaplacian=zero,
    )


def pde_residual(
    params: BubbleParams,
    rmax: float = 50.0,
    gridsize: int = 400,
    field: RadialField | None = None,
) -> float:
    """sup over an (0, rmax] grid of |Delta^2 v - lambda_inf v^(2#-1)| / v^(2#-1).

    Evaluates the field's closed-form bi-Laplacian callback; r = 0 is included
    since the callbacks are regular there.  A normalization that overflows
    (checked once, at the field's peak) or underflows float64 raises
    ``FloatingPointError`` naming it.
    """
    if not 0 < rmax < math.inf:
        raise ValueError(f"rmax must be positive and finite, got {rmax!r}")
    if gridsize < 1:
        raise ValueError(f"gridsize must be at least 1, got {gridsize}")
    f = field if field is not None else bubble_field(params)
    if f.bilaplacian is None:
        raise ValueError("pde_residual needs a closed-form bilaplacian callback")
    r = np.concatenate(
        [[0.0], np.geomspace(min(1e-3 / params.lambda0, rmax / 2), rmax, gridsize - 1)]
    )
    v = np.asarray(f.value(r), dtype=float)
    if np.any(v < 0):
        raise ValueError("residual normalization requires a positive field")
    power = params.two_sharp - 1.0
    try:
        peak = params.lambda_inf * float(np.max(v)) ** power
    except OverflowError:
        peak = math.inf
    if not math.isfinite(peak):
        raise FloatingPointError("residual normalization lambda_inf v^(2#-1) overflows float64")
    rhs = params.lambda_inf * v**power
    if not np.all(rhs > 0):
        raise FloatingPointError("residual normalization lambda_inf v^(2#-1) underflows float64")
    lhs = np.asarray(f.bilaplacian(r), dtype=float)
    return float(np.max(np.abs(lhs - rhs) / rhs))


def expected_bubble_energy(n: int, lambda_inf: float = 1.0) -> float:
    """(lambda_inf K0^2)^(-n/4), the single-extremal critical energy quantum."""
    _, k0_inv_sq = sharp_constant(n)
    return (lambda_inf / k0_inv_sq) ** (-n / 4.0)


_RADIAL_ORDER = 24   # per-panel Gauss-Legendre order of the radial integrals
_ENERGY_PANELS = 10  # equal panels on [0, pi/2] of the coarse energy rule


@lru_cache(maxsize=None)
def _energy_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii tan(theta) and weights w sec^2(theta) of composite Gauss-Legendre
    of order ``_RADIAL_ORDER`` on ``panels`` equal panels of [0, pi/2]: the
    half line at lambda0 = 1.  Built once per panel count; read-only."""
    theta, w = panel_rule(np.linspace(0.0, math.pi / 2, panels + 1), order=_RADIAL_ORDER)
    radii, weights = np.tan(theta), w / np.cos(theta) ** 2
    radii.flags.writeable = False
    weights.flags.writeable = False
    return radii, weights


def bubble_energy(params: BubbleParams) -> float:
    """Critical energy integral of the extremal over R^n.

    Substituting r = tan(theta)/lambda0 maps the half line onto [0, pi/2),
    where the integrand is amp^(2#) lambda0^(-n) (sin(2 theta)/2)^(n-1), an
    entire function, so composite Gauss-Legendre converges spectrally and no
    truncation radius is involved.  The rule is fixed: ``_ENERGY_PANELS``
    (10) equal panels of ``_RADIAL_ORDER`` (24) nodes, the order the radial
    integrals use, built once per process on first use.  Convergence is
    verified by doubling the panels to 480 nodes; disagreement raises a
    warning.  The integrand v^(2#) r^(n-1) is formed as
    (v^(2#/(n-1)) r)^(n-1): near theta = pi/2 the factor r^(n-1) alone
    leaves float64 from n = 63, while the product decays like r^(-n-1).
    From n = 162 its peak, about c_n^(2#), leaves float64 and is named, and
    so is a sum that underflows to 0 (n = 5 at lambda0 = 1e-300, n = 9 at
    1e-150).
    """
    n = params.n
    omega = sphere_volume(n - 1)
    p = params.two_sharp
    lam = params.lambda0

    def quad(panels: int) -> float:
        radii, weights = _energy_rule(panels)
        r = radii / lam
        vals = (bubble_eval(params, r) ** (p / (n - 1)) * r) ** (n - 1)
        return omega * float(np.sum(weights * vals)) / lam

    with np.errstate(over="ignore", invalid="ignore"):
        coarse = quad(_ENERGY_PANELS)
        fine = quad(2 * _ENERGY_PANELS)
    if not math.isfinite(coarse + fine):
        raise FloatingPointError(f"critical-energy integrand for n={n} overflows float64")
    if fine == 0.0:
        raise FloatingPointError(f"critical-energy integrand for n={n} underflows float64")
    if abs(fine - coarse) > 1e-9 * abs(fine):
        warnings.warn(
            f"critical energy quadrature not converged: {coarse!r} vs {fine!r}",
            RuntimeWarning,
        )
    return fine


def _radial_quadrature(rmax: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Panels doubling outward to rmax from a first one no wider than
    rmax 2^-20 or, for a positive scale, 0.25/scale: a quarter of the
    profile's width, so a profile concentrated at ``scale`` is resolved
    whatever rmax is."""
    inner = rmax * 2.0 ** (-20)
    if scale > 0:
        inner = min(inner, 0.25 / scale)
    return panel_rule(geometric_edges(inner, rmax), order=_RADIAL_ORDER)


def pohozaev_identity_residual(w: RadialField, rmax: float = 40.0) -> float:
    """Normalized defect of the scaling identity

        int Delta^2 w (x . grad w) dx + (n-4)/2 int (Delta w)^2 dx = 0

    for a rapidly decaying radial field, integrated over the ball of radius
    rmax.  Returns the left-hand side divided by int (Delta w)^2 dx.  A
    tail-mass check warns when the integrands have not decayed by rmax.
    Integrands that leave float64 (the extremal from n = 144 at
    lambda0 = 1, whose c_n^2 is near 1e300) raise ``FloatingPointError``
    naming them and n.
    """
    if w.bilaplacian is None or w.deriv1 is None or w.laplacian is None:
        raise ValueError("identity check needs deriv1, laplacian and bilaplacian callbacks")
    n = w.dim
    r, wq = _radial_quadrature(rmax, w.scale)
    omega = sphere_volume(n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        meas = r ** (n - 1)
        g1 = np.asarray(w.bilaplacian(r)) * r * np.asarray(w.deriv1(r)) * meas
        lap = np.asarray(w.laplacian(r))
        g2 = lap**2 * meas
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise FloatingPointError(f"scaling-identity integrands for n={n} overflow float64")
    i1 = omega * float(np.sum(wq * g1))
    i2 = omega * float(np.sum(wq * g2))
    if i2 == 0.0:
        if np.any(lap != 0.0):
            raise FloatingPointError("identity normalization int (Delta w)^2 dx underflows float64")
        raise ValueError("identity normalization requires a nonzero Laplacian")
    # tail check: contribution of the outer half of the domain
    outer = r > rmax / 2
    tail = omega * (abs(float(np.sum(wq[outer] * g1[outer]))) + float(np.sum(wq[outer] * g2[outer])))
    if tail > 1e-4 * abs(i2):
        warnings.warn(
            f"slow decay: outer-half mass {tail:.3e} vs normalization {i2:.3e}; "
            "identity residual reported at finite truncation radius",
            RuntimeWarning,
        )
    return (i1 + 0.5 * (n - 4) * i2) / i2


def pohozaev_witness(w: RadialField, lam: float, mu: float, radius: float) -> float:
    """lam int_{B_R} |grad w|^2 dx + 2 mu int_{B_R} w^2 dx.

    This is the limiting obstruction of the truncated scaling identity: it
    must vanish for any nontrivial finite-energy solution of the perturbed
    equation, so a strictly positive value witnesses nonexistence for the
    given (lam, mu).
    """
    if lam < 0 or mu < 0:
        raise ValueError("witness coefficients must be nonnegative")
    if lam == 0 and mu == 0:
        return 0.0
    if w.deriv1 is None:
        raise ValueError("witness needs the first-derivative callback")
    n = w.dim
    r, wq = _radial_quadrature(radius, w.scale)
    meas = r ** (n - 1)
    omega = sphere_volume(n - 1)
    grad_sq = omega * float(np.sum(wq * np.asarray(w.deriv1(r)) ** 2 * meas))
    l2 = omega * float(np.sum(wq * np.asarray(w.value(r)) ** 2 * meas))
    return lam * grad_sq + 2.0 * mu * l2
