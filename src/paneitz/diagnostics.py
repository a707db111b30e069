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

from .bubble import bubble_eval, BubbleParams, expected_bubble_energy
from .constants import OperatorParams, critical_exponent
from .field import PeriodicField, localized_mass, norms
from .geometry import sphere_volume
from .quadrature import geometric_edges, panel_rule, refined_axis_edges

__all__ = [
    "ConcentrationReport",
    "concentration_ratios",
    "hessian_ratio",
    "concentration_points",
    "QuantizationReport",
    "quantization_check",
    "multi_bubble_energy",
]

_GRADLESS = 1e-13
_PANEL_ORDER = 16  # per-panel Gauss-Legendre order of multi_bubble_energy


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


def _argmax_location(u: PeriodicField) -> float:
    fine = u.fine_values()
    return float(u.fine_grid()[int(np.argmax(fine))])


def concentration_ratios(
    u: PeriodicField, delta: float, params: OperatorParams | None = None
) -> ConcentrationReport:
    """Mass-outside-the-ball ratios around the argmax of the field.

    When ``params`` is given, the Hessian ratio of the same ball is attached
    (raw and divided by the zeroth-order coefficient).
    """
    report = norms(u)
    if report.l2 == 0.0:
        raise ValueError("ratios undefined for the zero field")
    length = u.spec.period
    if not 0 < delta < length / 2:
        raise ValueError(f"delta must lie in (0, L/2) = (0, {length/2}), got {delta}")
    s_star = _argmax_location(u)
    ball_l2 = localized_mass(u, s_star, delta, "l2")
    r_l2 = (report.l2 - ball_l2) / report.l2
    gradless = report.grad_l2 <= _GRADLESS * report.l2 / u.spec.t**2
    if gradless:
        r_grad = r_weak = math.nan
    else:
        ball_grad = localized_mass(u, s_star, delta, "grad_l2")
        out_grad = report.grad_l2 - ball_grad
        # clipping only absorbs quadrature rounding; the exact values are fractions
        r_grad = float(np.clip(out_grad / report.grad_l2, 0.0, 1.0))
        r_weak = out_grad / report.l2
    hess = hess_over_a = None
    if params is not None:
        hess, hess_over_a = hessian_ratio(u, params, delta, center=s_star)
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


def hessian_ratio(
    u: PeriodicField, params: OperatorParams, delta: float, center: float | None = None
) -> tuple[float, float]:
    """Complement Hessian mass over total L2 mass, raw and divided by a.

    Along a concentrating family the normalized value is the decaying
    quantity; a single evaluation is just a number.
    """
    report = norms(u)
    if report.l2 == 0.0:
        raise ValueError("ratio undefined for the zero field")
    if center is None:
        center = _argmax_location(u)
    ball_hess = localized_mass(u, center, delta, "hess_l2")
    value = max(report.hess_l2 - ball_hess, 0.0) / report.l2
    return value, value / params.a_alpha


def concentration_points(
    u: PeriodicField, theta: float = 0.05, delta: float | None = None
) -> list[float]:
    """Locations of local maxima whose delta-ball holds >= theta of the
    critical-power mass.

    A candidate must dominate its own ball (be the largest field value within
    distance delta), which suppresses truncation-noise wiggles riding on the
    tail of a genuine peak.  Constants have no strict local maximum and yield
    no points; single bumps yield exactly one.
    """
    if not 0 < theta < 1:
        raise ValueError(f"mass threshold must lie in (0, 1), got {theta}")
    length = u.spec.period
    if delta is None:
        delta = length / 8.0
    if not 0 < delta < length / 2:
        raise ValueError(f"delta must lie in (0, L/2), got {delta}")
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


def multi_bubble_energy(
    n: int,
    centers: np.ndarray,
    lambda0s: np.ndarray,
    lambda_inf: float = 1.0,
) -> float:
    """Critical energy of a sum of collinear radial extremals on R^n.

    The integrand depends only on the axis coordinate and the distance to
    the axis, so the integral reduces to a 2-d quadrature weighted by
    omega_(n-2) rho^(n-2), truncated 300 widths of the widest extremal
    beyond the outermost centers.  Panels are geometrically refined toward
    every center at its own concentration scale, which resolves superposed
    features whose widths differ by many orders of magnitude.
    """
    centers = np.asarray(centers, dtype=float)
    lambda0s = np.asarray(lambda0s, dtype=float)
    if centers.shape != lambda0s.shape or centers.ndim != 1:
        raise ValueError("centers and lambda0s must be matching 1-d arrays")
    two_sharp = critical_exponent(n)
    r_out = 300.0 / float(np.min(lambda0s))
    lo, hi = float(np.min(centers)) - r_out, float(np.max(centers)) + r_out
    x_nodes, x_w = panel_rule(refined_axis_edges(centers, lambda0s, lo, hi), _PANEL_ORDER)
    inner = 0.25 / float(np.max(lambda0s))
    rho_nodes, rho_w = panel_rule(geometric_edges(inner, r_out), _PANEL_ORDER)
    xx, rr = np.meshgrid(x_nodes, rho_nodes, indexing="ij")
    ww = x_w[:, None] * rho_w[None, :]
    total_field = np.zeros_like(xx)
    for c, lam in zip(centers, lambda0s):
        params = BubbleParams(n=n, lambda0=float(lam), lambda_inf=lambda_inf)
        total_field += bubble_eval(params, np.hypot(xx - c, rr))
    omega = sphere_volume(n - 2)
    return omega * float(np.sum(ww * total_field**two_sharp * rr ** (n - 2)))


def quantization_check(
    n: int,
    budget: float,
    lambda_inf: float = 1.0,
    synthetic_bubbles: int = 2,
    separation: float = 20.0,
    lambda0: float = 1.0,
    scale_ratio: float = 1e4,
) -> QuantizationReport:
    """Largest k with k quanta <= budget, plus a synthetic additivity check.

    The quantum is (lambda_inf K0^2)^(-n/4).  The synthetic field is a sum of
    ``synthetic_bubbles`` extremals with pairwise center distance
    ``separation / lambda0`` and concentration scales lambda0 * scale_ratio^i.
    The scale hierarchy mirrors how multi-point concentration actually
    arranges itself (relative scales degenerate); with comparable scales the
    critical power couples the slow tails strongly in low dimensions and
    additivity fails at any modest separation.
    """
    if not budget > 0:
        raise ValueError("energy budget must be positive")
    if not lambda_inf > 0:
        raise ValueError("lambda_inf must be positive")
    if synthetic_bubbles < 1:
        raise ValueError("synthetic check needs at least one profile")
    if not separation > 0 or not lambda0 > 0:
        raise ValueError("separation and lambda0 must be positive")
    quantum = expected_bubble_energy(n, lambda_inf)
    ratio = budget / quantum
    k_max = int(math.floor(ratio + 1e-9 * max(1.0, ratio)))

    k = synthetic_bubbles
    spacing = separation / lambda0
    centers = np.arange(k) * spacing
    scales = lambda0 * scale_ratio ** np.arange(k)
    energy = multi_bubble_energy(n, centers, scales, lambda_inf)
    expected = k * quantum
    rel = (energy - expected) / expected
    return QuantizationReport(
        k_max=k_max,
        quantum=quantum,
        budget=budget,
        synthetic_bubbles=k,
        separation=spacing,
        scale_ratio=scale_ratio,
        synthetic_energy=energy,
        synthetic_expected=expected,
        synthetic_rel_dev=rel,
        synthetic_ok=abs(rel) <= 0.02,
    )
