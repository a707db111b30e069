"""Concentration and quantization diagnostics for computed solutions.

Ratios measure how much of a field's mass survives outside the ball of
radius delta around its concentration point (taken as the argmax of the
normalized field; the solutions produced here concentrate at one point per
period).  All ratios are invariant under positive scaling of the field.

Two normalizations of the gradient ratio are reported:

* ``r_grad_l2``: complement gradient mass over total gradient mass.  A
  genuine fraction in [0, 1]; undefined (NaN, with
  ``grad_ratios_defined = False``) for gradient-free fields.  The decay of
  this strong-normalized ratio along concentrating families is established
  only for n >= 8, hence the ``strong_supported`` flag.
* ``r_grad_l2_weak``: complement gradient mass over total L2 mass, the
  normalization under which decay holds in every dimension.  Not a fraction
  of anything; it is exposed for completeness but is not monotone at desk
  scale, so trend checks use the strong-normalized ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import BubbleParams, _energy_prefactor, _energy_sum, expected_bubble_energy
from .constants import OperatorParams
from .field import PeriodicField, _ball_masses, _ball_radius, localized_mass, norms

__all__ = [
    "ConcentrationReport",
    "concentration_ratios",
    "concentration_points",
    "QuantizationReport",
    "quantization_check",
    "multi_bubble_energy",
]

_GRADLESS = 1e-13


@dataclass(frozen=True)
class ConcentrationReport:
    s_star: float
    delta: float
    r_l2: float
    r_grad_l2: float
    r_grad_l2_weak: float
    grad_ratios_defined: bool
    strong_supported: bool          # decay of the strong ratio established for n >= 8 only
    hessian_ratio: float | None
    hessian_ratio_over_a: float | None


def concentration_ratios(
    u: PeriodicField, delta: float | None = None, params: OperatorParams | None = None
) -> ConcentrationReport:
    """Mass-outside-the-ball ratios around the argmax of the field, for the
    ball of radius ``delta`` (default L/8).

    When ``params`` is given, the Hessian ratio of the same ball is attached:
    complement Hessian mass over total L2 mass, raw and divided by a.  Along
    a concentrating family the normalized value is the decaying quantity; a
    single evaluation is just a number.
    """
    report = norms(u)
    if report.l2 == 0.0:
        raise ValueError("ratios undefined for the zero field")
    delta = _ball_radius(u.spec, delta)
    s_star = float(u.fine_grid()[int(np.argmax(u.fine_values()))])
    ball_l2, ball_grad, ball_hess = _ball_masses(u, s_star, delta)
    r_l2 = (report.l2 - ball_l2) / report.l2
    gradless = report.grad_l2 <= _GRADLESS * report.l2 / u.spec.t**2
    if gradless:
        r_grad = r_weak = math.nan
    else:
        out_grad = report.grad_l2 - ball_grad
        # clipping only absorbs quadrature rounding; the exact values are fractions
        r_grad = float(np.clip(out_grad / report.grad_l2, 0.0, 1.0))
        r_weak = out_grad / report.l2
    hess = hess_over_a = None
    if params is not None:
        hess = max(report.hess_l2 - ball_hess, 0.0) / report.l2
        hess_over_a = hess / params.a_alpha
    return ConcentrationReport(
        s_star=s_star,
        delta=delta,
        r_l2=float(np.clip(r_l2, 0.0, 1.0)),
        r_grad_l2=r_grad,
        r_grad_l2_weak=r_weak,
        grad_ratios_defined=not gradless,
        strong_supported=u.spec.n >= 8,
        hessian_ratio=hess,
        hessian_ratio_over_a=hess_over_a,
    )


def concentration_points(
    u: PeriodicField, theta: float = 0.05, delta: float | None = None
) -> list[float]:
    """Locations of local maxima whose delta-ball holds >= theta of the
    critical-power mass.

    A candidate must dominate its own ball (be the largest field value within
    distance delta), which suppresses truncation-noise wiggles riding on the
    tail of a genuine peak.  Constants have no strict local maximum and yield
    no points; single bumps yield exactly one.  The ball radius ``delta``
    defaults to L/8.
    """
    if not 0 < theta < 1:
        raise ValueError(f"mass threshold must lie in (0, 1), got {theta}")
    length = u.spec.period
    delta = _ball_radius(u.spec, delta)
    fine = u.fine_values()
    grid = u.fine_grid()
    total = norms(u).energy
    if total == 0.0:
        return []
    nf = fine.size
    half_width = int(math.floor(delta / (length / nf)))
    is_max = (fine > np.roll(fine, 1)) & (fine > np.roll(fine, -1))
    points = []
    for idx in np.flatnonzero(is_max):
        window = np.take(fine, np.arange(idx - half_width, idx + half_width + 1), mode="wrap")
        if fine[idx] < np.max(window):
            continue
        s = float(grid[idx])
        if localized_mass(u, s, delta, "energy") / total >= theta:
            points.append(s)
    return sorted(points)


# --- energy quantization -----------------------------------------------------


@dataclass(frozen=True)
class QuantizationReport:
    k_max: int
    quantum: float
    budget: float
    synthetic_bubbles: int
    separation: float
    scale_ratio: float
    synthetic_energy: float
    synthetic_expected: float
    synthetic_rel_dev: float
    synthetic_ok: bool              # within 2 percent of k quanta


def multi_bubble_energy(n: int, centers: np.ndarray, lambda0s: np.ndarray) -> float:
    """Critical energy of a sum of two radial extremals on R^n; one
    extremal's energy is ``bubble_energy``.

    The pair reduces conformally to one dimension.  Extremal j is a point
    (c_j, 1/lam_j) of hyperbolic space H^(n+1).  Möbius maps of R^n keep
    int u^(2#) and carry extremals to extremals, so the energy depends only
    on the hyperbolic distance D of the two points,
        sinh(D/2) = (1/2) sqrt((lam1 - lam2)^2/(lam1 lam2) + lam1 lam2 |c1 - c2|^2),
    and is that of the concentric pair with scales 1 and e^D.  In
    y = ln(e^D r), with w(z) = 1/(1 + e^(2z)) and m = (n-4)/2, the integral
    omega_(n-1) int_0^inf (B_1 + B_(e^D))^(2#) r^(n-1) dr is
        omega_(n-1) amp^(2#) int (e^(-mD) w(y - D)^m + w(y)^m)^(2#) e^(ny) dy,
    amp the lam = 1 amplitude.  As m 2# = n, e^(ny) folds into the bracket:
    the integrand is (amp / 2^m)^(2#) (sech^m(y - D) + sech^m(y))^(2#), even
    about y = D/2.

    The rule is ``bubble_energy``'s with two terms and the same prefactor
    (``bubble._energy_prefactor``): step 1/n on y >= D/2, doubled, to where
    sech^n falls below e^-80 (123 nodes at n = 5 and 148 at n = 8 for the
    quantization pair).  A pair whose sinh(D/2) is outside the float64
    range raises ``FloatingPointError``, and so does a prefactor that
    overflows (from n = 162).  Any other number of profiles raises
    ``ValueError``: three points of H^(n+1) need not lie on one geodesic,
    so they have no one-dimensional reduction.
    """
    centers = np.asarray(centers, dtype=float)
    lambda0s = np.asarray(lambda0s, dtype=float)
    if centers.shape != lambda0s.shape or centers.ndim != 1:
        raise ValueError("centers and lambda0s must be matching 1-d arrays")
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(lambda0s))):
        raise ValueError("centers and concentration scales must be finite")
    if centers.size != 2:
        single = "; one profile's energy is bubble_energy" if centers.size == 1 else ""
        raise ValueError(f"need exactly two profiles, got {centers.size}{single}")
    (c1, c2), (lam1, lam2) = centers.tolist(), lambda0s.tolist()
    for lam in (lam1, lam2):
        BubbleParams(n=n, lambda0=lam)  # names a bad dimension or scale
    root = math.sqrt(lam1) * math.sqrt(lam2)
    sinh_half = 0.5 * math.hypot(abs(lam1 - lam2) / root, root * abs(c1 - c2))
    if not math.isfinite(sinh_half):
        raise FloatingPointError(
            f"hyperbolic distance of centers ({c1:.6g}, {c2:.6g}) at scales ({lam1:.6g}, {lam2:.6g}) "
            "is outside the float64 range"
        )
    return _energy_prefactor(n) * (1.0 / n) * _energy_sum(n, 1.0 / n, math.asinh(sinh_half))


def quantization_check(n: int, budget: float) -> QuantizationReport:
    """Largest k with k quanta <= budget, plus a synthetic additivity check.

    The quantum is ``expected_bubble_energy``, K0^(-n/2).  The synthetic
    field is the pair of extremals centered at 0 and 20 with concentration
    scales 1 and 1e4; the report's ``synthetic_bubbles``, ``separation``
    and ``scale_ratio`` state it.  The scale hierarchy mirrors how
    multi-point concentration actually arranges itself (relative scales
    degenerate); with comparable scales the critical power couples the slow
    tails strongly in low dimensions and additivity fails at any modest
    separation.  ``multi_bubble_energy`` integrates the pair with no
    truncation, by its conformal reduction (a trapezoid sum of about 150
    nodes); its prefactor overflow from n = 162 is named.
    """
    if not 0 < budget < math.inf:
        raise ValueError(f"energy budget must be positive and finite, got {budget}")
    quantum = expected_bubble_energy(n)
    ratio = budget / quantum
    k_max = int(math.floor(ratio + 1e-9 * max(1.0, ratio)))

    separation, scale_ratio = 20.0, 1e4
    energy = multi_bubble_energy(n, np.array([0.0, separation]), np.array([1.0, scale_ratio]))
    expected = 2 * quantum
    rel = (energy - expected) / expected
    return QuantizationReport(
        k_max=k_max,
        quantum=quantum,
        budget=budget,
        synthetic_bubbles=2,
        separation=separation,
        scale_ratio=scale_ratio,
        synthetic_energy=energy,
        synthetic_expected=expected,
        synthetic_rel_dev=rel,
        synthetic_ok=abs(rel) <= 0.02,
    )
