"""Closed-form constants and algebra of the operator family P = Delta^2 + alpha Delta + a.

Covers the critical exponent, the sharp Euclidean second-order Sobolev
constant K0, the radial extremal's normalization coefficient c_n, the
Einstein-case operator coefficients, the factorization of P into two
second-order factors and the minimum of its Green's function on the circle,
the constant solution branch, and the validator for schedules a(alpha).

Gamma function values come from ``math.gamma`` (a Lanczos-type evaluator
with near machine-precision relative accuracy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Sequence

__all__ = [
    "FactorizationError",
    "OperatorParams",
    "ScheduleReport",
    "critical_exponent",
    "sharp_constant",
    "bubble_coefficient",
    "einstein_coefficients",
    "factorize",
    "green_minimum",
    "constant_branch",
    "validate_schedule",
]


class FactorizationError(ValueError):
    """Raised when Delta^2 + alpha Delta + a has no real second-order factorization."""


def critical_exponent(n: int) -> float:
    """The critical Sobolev exponent 2n/(n-4) for the H^2_2 embedding."""
    if n < 5:
        raise ValueError(f"critical exponent requires dimension >= 5, got {n}")
    return 2.0 * n / (n - 4.0)


def sharp_constant(n: int) -> tuple[float, float]:
    """Sharp constant K0 of ||u||_{2#} <= K0 ||Delta u||_2 on R^n.

    Returns (K0, K0^{-2}) with
    K0^{-2} = pi^2 n (n-4) (n^2-4) Gamma(n/2)^{4/n} Gamma(n)^{-4/n}.
    """
    if n < 5:
        raise ValueError(f"sharp constant requires dimension >= 5, got {n}")
    try:
        k0_inv_sq = (
            math.pi**2
            * n
            * (n - 4)
            * (n**2 - 4)
            * math.gamma(n / 2.0) ** (4.0 / n)
            * math.gamma(float(n)) ** (-4.0 / n)
        )
    except OverflowError:
        raise FloatingPointError(f"sharp constant for n={n}: Gamma(n) is outside the float64 range") from None
    return 1.0 / math.sqrt(k0_inv_sq), k0_inv_sq


def bubble_coefficient(n: int) -> float:
    """Normalization c_n = (n (n-4) (n^2-4))^((n-4)/8) of the radial extremal."""
    if n < 5:
        raise ValueError(f"bubble coefficient requires dimension >= 5, got {n}")
    try:
        return (n * (n - 4) * (n**2 - 4)) ** ((n - 4) / 8.0)
    except OverflowError:
        raise FloatingPointError(f"bubble coefficient for n={n} is outside the float64 range") from None


def einstein_coefficients(n: int, scalar_curvature: float) -> tuple[float, float]:
    """Operator coefficients (alpha, a) of the Einstein-metric special case.

    alpha = (n^2 - 2n - 4) / (2 n (n-1)) * S
    a     = (n-4)(n^2-4) / (16 n (n-1)^2) * S^2

    They satisfy alpha^2/4 - a = S^2 / (n^2 (n-1)^2).
    """
    if n < 5:
        raise ValueError(f"requires dimension >= 5, got {n}")
    s = float(scalar_curvature)
    alpha = (n**2 - 2 * n - 4) / (2.0 * n * (n - 1)) * s
    a = (n - 4) * (n**2 - 4) / (16.0 * n * (n - 1) ** 2) * s**2
    return alpha, a


def factorize(alpha: float, a: float) -> tuple[float, float]:
    """Split Delta^2 + alpha Delta + a into (Delta + c)(Delta + d).

    c and d are the roots of x^2 - alpha x + a, with c >= d > 0.  The small
    root is computed as a/c to avoid cancellation when a << alpha^2.
    alpha^2 and a must be finite floats, or a root comes out NaN or zero.
    """
    if not alpha > 0:
        raise ValueError(f"first-order coefficient must be positive, got {alpha}")
    if not a > 0:
        raise ValueError(f"zeroth-order coefficient must be positive, got {a}")
    if not math.isfinite(alpha * alpha + a):
        raise ValueError(f"alpha^2 and a must be finite in float64, got alpha={alpha}, a={a}")
    disc = alpha * alpha / 4.0 - a
    if disc < 0:
        raise FactorizationError(
            f"no real factorization: a={a} exceeds alpha^2/4={alpha*alpha/4.0}"
        )
    c = alpha / 2.0 + math.sqrt(disc)
    # at the double root a/c rounds an ulp off c; off it sqrt(disc) >~ 1e-8 c
    d = a / c if disc > 0.0 else c
    return c, d


def green_minimum(c: float, d: float, length: float) -> float:
    """Minimum, at s = L/2, of the Green's function of (Delta + c)(Delta + d),
    c >= d > 0, on a circle of length L: (G_d - G_c)/(c - d), G_k = 1/(2 sqrt(k)
    sinh x_k), x_k = sqrt(k) L/2, rewritten so that nothing cancels or
    overflows and c = d needs no case: q = (1 - e^(-(sqrt c - sqrt d) L/2)) /
    (sqrt c - sqrt d), L/2 at c = d, carries the difference quotient."""
    rc, rd, half = math.sqrt(c), math.sqrt(d), 0.5 * length
    xc, xd, gap = rc * half, rd * half, rc - rd
    q = -math.expm1(-gap * half) / gap if gap > 0.0 else half
    one_c, one_d = -math.expm1(-2.0 * xc), -math.expm1(-2.0 * xd)
    numerator = math.exp(-xd) * (one_c + rd * (1.0 + math.exp(-xc - xd)) * q)
    return numerator / (rc + rd) / rc / rd / one_c / one_d  # in turn: their product can underflow to 0


@dataclass(frozen=True)
class OperatorParams:
    """Coefficients (alpha, a) of P = Delta^2 + alpha Delta + a, with the
    factorization roots (c, d) attached.  Requires 0 < a <= alpha^2/4."""

    alpha: float
    a_alpha: float
    c_alpha: float = field(init=False)
    d_alpha: float = field(init=False)

    def __post_init__(self):
        c, d = factorize(self.alpha, self.a_alpha)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "a_alpha", float(self.a_alpha))
        object.__setattr__(self, "c_alpha", c)
        object.__setattr__(self, "d_alpha", d)


def constant_branch(n: int, a: float, volume: float) -> tuple[float, float]:
    """Constant solution u = a^((n-4)/8) of P u = u^(2#-1) and its energy a^(n/4) V."""
    if not a > 0:
        raise ValueError(f"zeroth-order coefficient must be positive, got {a}")
    if not volume > 0:
        raise ValueError(f"volume must be positive, got {volume}")
    u_bar = a ** ((n - 4) / 8.0)
    energy = a ** (n / 4.0) * volume
    return u_bar, energy


@dataclass(frozen=True)
class ScheduleReport:
    """Outcome of checking a coefficient schedule a(alpha) on a finite grid.

    ``a1_ok[i]`` tests a <= alpha^2/4 at grid point i.  The unbounded-growth
    condition on a/alpha is a limit statement; it is assessed here only by a
    finite-grid proxy (ratios strictly increasing and final/first >= 10) and
    is labelled as such.
    """

    alphas: tuple[float, ...]
    a_values: tuple[float, ...]
    a1_ok: tuple[bool, ...]
    ratios: tuple[float, ...]
    a1_all_ok: bool
    a2_ratio_increasing: bool
    a2_growth_factor: float
    a2_proxy_ok: bool
    accepted: bool
    note: ClassVar[str] = "a/alpha divergence assessed by finite-grid proxy, not as a limit"


def validate_schedule(
    a_of_alpha: Callable[[float], float] | Mapping[float, float],
    grid: Sequence[float],
) -> ScheduleReport:
    """Check a schedule alpha -> a on a strictly increasing grid of alphas."""
    alphas = [float(x) for x in grid]
    if len(alphas) < 2:
        raise ValueError("schedule grid needs at least two points")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("schedule grid must be strictly increasing")
    if alphas[0] <= 0:
        raise ValueError("schedule grid must be positive")

    if callable(a_of_alpha):
        a_vals = [float(a_of_alpha(al)) for al in alphas]
    else:
        try:
            a_vals = [float(a_of_alpha[al]) for al in alphas]
        except KeyError as exc:
            raise ValueError(f"schedule has no value at alpha={exc.args[0]}") from exc
    if any(a <= 0 for a in a_vals):
        raise ValueError("schedule values must be positive")

    a1 = [a <= al * al / 4.0 for al, a in zip(alphas, a_vals)]
    ratios = [a / al for al, a in zip(alphas, a_vals)]
    increasing = all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
    growth = ratios[-1] / ratios[0]
    a2_ok = increasing and growth >= 10.0
    a1_all = all(a1)
    return ScheduleReport(
        alphas=tuple(alphas),
        a_values=tuple(a_vals),
        a1_ok=tuple(a1),
        ratios=tuple(ratios),
        a1_all_ok=a1_all,
        a2_ratio_increasing=increasing,
        a2_growth_factor=growth,
        a2_proxy_ok=a2_ok,
        accepted=a1_all and a2_ok,
    )
