"""The explicit radial extremal of Delta^2 v = v^(2#-1) on R^n,
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

Every radial integral is one trapezoid sum in a log variable: y = ln(lambda0 r)
for the energy, tau = ln(r / (R - r)) on a ball of radius R.  The integrands
are analytic in a strip and decay exponentially at both ends, so the sums
converge geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).
Each integrand is evaluated once (``_ball``, ``bubble_energy``).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field as _field
from typing import Callable

import numpy as np

from .constants import bubble_coefficient, critical_exponent, sharp_constant
from .geometry import sphere_volume

__all__ = [
    "BubbleParams",
    "RadialField",
    "bubble_field",
    "power_profile_field",
    "pde_residual",
    "bubble_energy",
    "expected_bubble_energy",
    "pohozaev_identity_residual",
    "pohozaev_witness",
]


@dataclass(frozen=True)
class BubbleParams:
    """Validated extremal data for ``bubble_field``: dimension n >= 5, scale 0 < lambda0 < inf."""

    n: int
    lambda0: float = 1.0

    def __post_init__(self):
        if self.n < 5:
            raise ValueError(f"dimension must be >= 5, got {self.n}")
        if not 0 < self.lambda0 < math.inf:
            raise ValueError(f"concentration scale must be positive and finite, got {self.lambda0}")


@dataclass(frozen=True)
class RadialField:
    """A radial function on R^dim with closed-form callbacks.

    The four callables are required and give exact pointwise evaluations of
    f, f', Delta f and Delta^2 f, the quantities the residual and integral
    routines read.  No numerical differentiation happens anywhere in this
    module.  ``scale`` is the concentration scale: the field varies on
    lengths down to about 1/scale, where the ball integrals start their
    window (``_ball_rule``); the default 0 names no scale, and the window
    then starts at r about R e^-40.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]
    bilaplacian: Callable[[np.ndarray], np.ndarray]
    scale: float = 0.0
    _slot: list = _field(default_factory=list, init=False, repr=False, compare=False)  # _ball's; replace() empties it


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


def power_profile_field(
    dim: int,
    exponent: float,
    scale: float = 1.0,
    amplitude: float = 1.0,
) -> RadialField:
    """amplitude * (1 + (scale r)^2)^(-exponent) with exact callbacks; its
    Laplacians are the w-forms of the module docstring.  Exponent 0 is the
    constant ``amplitude``, with derivatives exactly zero; a constant, zero
    included, has no concentration scale, so its field's ``scale`` is 0."""
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
        scale=abs(lam) if m and amp else 0.0,
    )


def bubble_field(params: BubbleParams) -> RadialField:
    """The extremal as a RadialField with exact closed-form callbacks: v(r) =
    c_n (lambda0 / (1 + lambda0^2 r^2))^((n-4)/2), peak c_n lambda0^((n-4)/2), is its ``value``."""
    n, lam = params.n, params.lambda0
    peak = bubble_coefficient(n) * lam ** ((n - 4) / 2.0)
    return power_profile_field(dim=n, exponent=(n - 4) / 2.0, scale=lam, amplitude=peak)


_TAIL = 80.0   # log-variable sums stop where the integrand has fallen by e^-80
_REACH = 40.0  # the ball rule's tau window ends here, and starts at -40 for a field with no scale
_RMAX = 50.0   # the default ball radius of both checks and of bubble-check --rmax
_PARTS = {"origin": slice(None), "nodes": slice(1, None)}  # of a _ball: r = 0 and the nodes, or the nodes alone


def pde_residual(field: RadialField, rmax: float = _RMAX) -> float:
    """sup of |Delta^2 w - w^(2#-1)| / w^(2#-1) for the radial ``field`` w,
    2# the critical exponent of ``field.dim`` and Delta^2 w its closed-form
    callback, over r = 0 (where the callbacks are regular) and the nodes of
    ``_ball_rule(field, rmax)``: the scaling identity's nodes, geometric
    toward 0 and the rim and reaching below 1/scale at every scale.  A
    normalization that overflows (checked once, at the field's peak) or
    underflows float64 raises ``FloatingPointError``.
    """
    v = _ball(field, rmax, "origin", "value")[2]
    if (v < 0).any():
        raise ValueError("residual normalization requires a positive field")
    power = critical_exponent(field.dim) - 1.0
    try:
        peak = float(v.max()) ** power
    except OverflowError:
        peak = math.inf
    if not math.isfinite(peak):
        raise FloatingPointError("residual normalization v^(2#-1) overflows float64")
    rhs = v**power
    if not (rhs > 0).all():
        raise FloatingPointError("residual normalization v^(2#-1) underflows float64")
    lhs = _ball(field, rmax, "origin", "bilaplacian")[2]
    return float((np.abs(lhs - rhs) / rhs).max())


def expected_bubble_energy(n: int) -> float:
    """K0^(-n/2), the single-extremal critical energy quantum of
    Delta^2 v = v^(2#-1); it is a finite float64 for n = 5..171, and
    ``sharp_constant`` names its float64 failure from n = 172."""
    _, k0_inv_sq = sharp_constant(n)
    return (1.0 / k0_inv_sq) ** (-n / 4.0)


def _trapezoid_nodes(lo: float, hi: float, step: float) -> np.ndarray:
    """Nodes lo, lo + step, ... of a trapezoid sum, up to the first at or past hi."""
    return lo + step * np.arange(math.ceil((hi - lo) / step) + 1)


def _half_window(n: int) -> float:
    """acosh(e^(80/n)), where sech^n, one extremal's log-variable integrand, is e^-80."""
    return math.acosh(math.exp(_TAIL / n))


def _sech_power(z: np.ndarray, m: float) -> np.ndarray:
    """sech(z)^m as (2 e^(-|z|) / (1 + e^(-2|z|)))^m, which cannot overflow."""
    e = np.exp(-np.abs(z))
    return (2.0 * e / (1.0 + e * e)) ** m


def _energy_sum(n: int, step: float, half_d: float | None = None) -> float:
    """2 sum_(k >= 0) f(k step) - f(0), k step up to D/2 + ``_half_window(n)``,
    for the even critical-energy integrand f without its prefactor: sech^n(y)
    for one extremal, (sech^m(y - D/2) + sech^m(y + D/2))^(2#), m = (n-4)/2,
    for the concentric pair at scales 1 and e^D (y = ln(e^D r) - D/2)."""
    y = _trapezoid_nodes(0.0, (half_d or 0.0) + _half_window(n), step)
    if half_d is None:
        f = _sech_power(y, n)
    else:
        m = (n - 4) / 2.0
        f = (_sech_power(y - half_d, m) + _sech_power(y + half_d, m)) ** critical_exponent(n)
    return float(2.0 * f.sum() - f[0])


def _energy_prefactor(n: int) -> float:
    """omega_(n-1) (n (n-4) (n^2-4) / 16)^(n/4) = (amp/2^m)^(2#), amp the lambda0 = 1 peak, with
    the exact exponent n/4 (the rounded 2# costs up to 7e-14 at high n); overflow (n >= 162) is named."""
    try:
        prefactor = sphere_volume(n - 1) * (n * (n - 4) * (n * n - 4) / 16.0) ** (n / 4)
    except OverflowError:
        prefactor = math.inf
    if prefactor == math.inf:
        raise FloatingPointError(f"critical-energy integrand for n={n} overflows float64")
    return prefactor


def bubble_energy(params: BubbleParams) -> float:
    """Critical energy omega_(n-1) int_0^inf v^(2#) r^(n-1) dr of the extremal.

    In y = ln(lambda0 r) the integrand is (amp/2^m)^(2#) sech^n(y), so
    lambda0 cancels exactly; ``_energy_prefactor`` forms the prefactor.
    sech^n is analytic in a strip that narrows like 1/n, so the sum takes
    step 1/n, folded about y = 0, 85 to 176 nodes; step 1/(2n) checks it,
    with a warning above 1e-9 relative, on nodes whose even entries are the
    step-1/n nodes ((0.5/n) 2k = k/n exactly), so sech^n is evaluated once.
    """
    n = params.n
    y = _trapezoid_nodes(0.0, _half_window(n), 1.0 / n)
    prefactor, f = _energy_prefactor(n), _sech_power((0.5 / n) * np.arange(2 * y.size - 1), n)
    energy, check = (prefactor * step * float(2.0 * g.sum() - g[0]) for step, g in ((1.0 / n, f[::2]), (0.5 / n, f)))
    if abs(check - energy) > 1e-9 * abs(check):
        warnings.warn(f"critical energy quadrature not converged: {energy!r} vs {check!r}", RuntimeWarning)
    return energy


def _ball_rule(w: RadialField, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights of the trapezoid sum in tau, r = radius / (1 + e^(-tau)), for int
    over the ball of a radial integrand: step min(1/8, 2/n), from ``_half_window(n)`` below
    ln(min(radius, 1/scale) / radius) (-40 with no scale) to 40, where 1 + e^-40 rounds to 1,
    so the last node is the rim bit for bit.  The map is geometric toward 0 and the rim, so a
    profile concentrated at ``w.scale`` is resolved.  Gaussians, which decay doubly
    exponentially in tau, read about 1e-13 at radius 5 and 1e-7 at 30."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    n = w.dim
    depth = max(0.0, math.log(radius) + math.log(w.scale)) + _half_window(n) if w.scale > 0 else _REACH
    step = min(0.125, 2.0 / n)
    tau = _trapezoid_nodes(-depth, _REACH, step)
    e = np.exp(-np.abs(tau))
    s = 1.0 / (1.0 + e)
    r = radius * np.where(tau < 0.0, e * s, s)
    with np.errstate(over="ignore"):
        weights = sphere_volume(n - 1) * step * radius * e * s * s * r ** (n - 1)
    return r, weights


def _ball(w: RadialField, radius: float, part: str, *names: str) -> tuple[np.ndarray, ...]:
    """Radii, weights and callbacks ``names`` on ``part`` of the one ball a field keeps: r = 0, weight 0, then
    the ``_ball_rule`` nodes, the last the rim.  A callback runs again only where numpy now raises on more errors."""
    if not w._slot or w._slot[0][0] != radius:
        r, weights = (np.append(0.0, x) for x in _ball_rule(w, radius))
        w._slot[:] = [(radius, r, weights, {})]
    (_, r, weights, values), raising = w._slot[0], {k for k, mode in np.geterr().items() if mode == "raise"}
    for name in names:
        if name not in values or not raising <= values[name][1]:
            values[name] = (np.asarray(getattr(w, name)(r), dtype=float), raising)
    return tuple(x[_PARTS[part]] for x in (r, weights, *(values[name][0] for name in names)))


def pohozaev_identity_residual(w: RadialField, rmax: float = _RMAX) -> float:
    """Normalized defect of the scaling identity on the ball B of radius R = rmax:

        int_B Delta^2 w (x . grad w) dx + (n-4)/2 int_B (Delta w)^2 dx
          = omega_(n-1) R^(n-1) [R L'(R) w'(R) - R L(R)^2/2 + (n-2) L(R) w'(R)],

    L = Delta w, divided by int_B (Delta w)^2 dx.  The right side is the
    radial Pucci-Serrin boundary flux (Indiana Univ. Math. J. 35 (1986) 681);
    omega_(n-1) R^(n-1) L'(R) is int_B Delta^2 w dx.  Being integration by
    parts, it holds for every smooth radial field at every R, so it checks
    the callbacks and ``_ball_rule`` against each other; ``pde_residual``
    checks the equation.  Integrands that leave float64 (the extremal from
    n = 146 at lambda0 = 1, c_n^2 near 1e300) raise ``FloatingPointError``,
    and so do integrands whose largest node value is below the smallest
    normal float64 (the extremal at n = 8 below lambda0 = 1.5e-32), where
    the sums keep too few digits to check anything (down to a Laplacian and
    gradient that are 0 at every node, n = 8 at lambda0 = 1e-90).  A
    constant, with no concentration scale and no Laplacian to normalize by,
    raises ``ValueError``.
    """
    n = w.dim
    with np.errstate(over="ignore", invalid="ignore"):
        r, wq, bilap, d1, lap = _ball(w, rmax, "nodes", "bilaplacian", "deriv1", "laplacian")
        moment, lap_sq = bilap * r * d1, lap**2
        i0, i1, i2 = (float((g * wq).sum()) for g in (bilap, moment, lap_sq))
        rim = sphere_volume(n - 1) * np.float64(rmax) ** (n - 1) * lap[-1]  # [-1]: the last node, r = rmax
        flux = rmax * d1[-1] * i0 + rim * ((n - 2) * d1[-1] - 0.5 * rmax * lap[-1])
    if not math.isfinite(i0 + i1 + i2 + flux):
        raise FloatingPointError(f"scaling-identity integrands for n={n} overflow float64")
    if w.scale == 0.0 and not ((lap != 0.0).any() or (d1 != 0.0).any()):
        raise ValueError("identity normalization requires a nonzero Laplacian")
    tiny = sys.float_info.min
    if lap_sq.max() < tiny or ((bilap != 0.0).any() and np.abs(moment).max() < tiny):
        raise FloatingPointError(f"a scaling-identity integrand for n={n} underflows float64")
    return (i1 + 0.5 * (n - 4) * i2 - float(flux)) / i2


def pohozaev_witness(w: RadialField, lam: float, mu: float, radius: float) -> float:
    """lam int_{B_R} |grad w|^2 dx + 2 mu int_{B_R} w^2 dx.

    This is the equation's Pohozaev obstruction: the scaling identity and
    the energy identity of the perturbed equation leave this combination,
    which must vanish for any nontrivial finite-energy solution, so a
    strictly positive value witnesses nonexistence for the given (lam, mu).
    Both integrals are ``_ball_rule``'s trapezoid sums, on the field's ``_ball``.
    """
    if lam < 0 or mu < 0:
        raise ValueError("witness coefficients must be nonnegative")
    if lam == 0 and mu == 0:
        return 0.0
    _, wq, d1, v = _ball(w, radius, "nodes", "deriv1", "value")
    return lam * float(np.sum(wq * d1**2)) + 2.0 * mu * float(np.sum(wq * v**2))
