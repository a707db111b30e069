"""Spectral representation of circle-reduced fields on S^1(t) x S^(n-1).

A field u(s) on the circle factor, sampled at N (even) grid points, is held
as its real-FFT half spectrum c_m = (1/N) sum_j u(s_j) exp(-i kappa_m s_j),
m = 0..N/2 (kappa_m = m/t), so it is real by construction: the negative
modes are the conjugates c_{-m} = conj(c_m) and are never stored.  c_0 and
the Nyquist entry c_{N/2} are real; the Nyquist entry is the amplitude of
the cosine cos(kappa_{N/2} s).  Every sum over the spectrum counts each
0 < m < N/2 twice, once for +m and once for -m.  Nonlinear powers are
evaluated on an oversampled grid and truncated back, which dealiases integer
critical powers exactly and keeps fractional ones well defined (values are
clamped at zero before exponentiation).

All "full-manifold" integrals are circle integrals times the volume of the
unit (n-1)-sphere, since fields are constant on the sphere factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import OperatorParams, critical_exponent
from .geometry import ManifoldSpec, QuadratureGrid, sphere_volume

__all__ = [
    "PeriodicField",
    "NormReport",
    "transform",
    "inverse",
    "norms",
    "localized_mass",
    "save_field",
    "load_field",
]


def oversample_factor(two_sharp: float) -> int:
    """Grid oversampling needed to dealias the power u^(2#-1): at least 4x."""
    return max(4, math.ceil((two_sharp + 1.0) / 2.0))


def transform(values: np.ndarray) -> np.ndarray:
    """Grid samples (even count N) -> normalized half spectrum c_0..c_{N/2}."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2 or values.size % 2 != 0:
        raise ValueError("values must be a 1-d array with an even number of samples")
    return np.fft.rfft(values) / values.size


def inverse(coeffs: np.ndarray) -> np.ndarray:
    """Normalized half spectrum c_0..c_{N/2} -> the N grid samples."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ValueError("coeffs must be a 1-d array with at least 2 entries")
    size = 2 * (coeffs.size - 1)
    return np.fft.irfft(coeffs * size, size)


def _pair_counts(half: int) -> np.ndarray:
    """Full-spectrum bins each of ``half`` half-spectrum entries stands for:
    1 for c_0 and the Nyquist entry, 2 for each +-m pair in between."""
    counts = np.full(half, 2.0)
    counts[0] = counts[-1] = 1.0
    return counts


def _parseval_weights(half: int) -> np.ndarray:
    """Mean square of each half-spectrum entry's mode per |c_m|^2: the pair
    counts, except that the Nyquist cosine's mean square is half."""
    weights = _pair_counts(half)
    weights[-1] = 0.5
    return weights


def _pad(coeffs: np.ndarray, fine_size: int) -> np.ndarray:
    """Zero-pad a half spectrum of grid size N to grid size fine_size > N.

    The Nyquist cosine of the base grid splits evenly into the +-N/2 fine
    modes.
    """
    out = np.zeros(fine_size // 2 + 1, dtype=complex)
    out[: coeffs.size] = coeffs
    out[coeffs.size - 1] *= 0.5
    return out


def _truncate(fine_coeffs: np.ndarray, size: int) -> np.ndarray:
    """Galerkin projection of a fine half spectrum onto |m| <= size/2; the
    Nyquist cosine takes the real part of both +-size/2 fine modes."""
    out = fine_coeffs[: size // 2 + 1].copy()
    out[-1] = 2.0 * out[-1].real
    return out


class PeriodicField:
    """Real field on the circle factor, stored spectrally.

    Parameters
    ----------
    spec : ManifoldSpec
    coeffs : complex array, the half spectrum c_0..c_{N/2} (c_0 and c_{N/2}
        real).  The grid size N = 2 (len - 1) >= 16 is the mode resolution.
    """

    __slots__ = ("spec", "coeffs", "_values", "_fine")

    def __init__(self, spec: ManifoldSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 9:
            raise ValueError("half spectrum must be 1-d with at least 9 entries (N >= 16)")
        self.spec = spec
        self.coeffs = coeffs
        self._values: np.ndarray | None = None
        self._fine: np.ndarray | None = None

    # --- constructors -------------------------------------------------

    @classmethod
    def from_values(cls, spec: ManifoldSpec, values: np.ndarray) -> "PeriodicField":
        values = np.asarray(values, dtype=float)
        out = cls(spec, transform(values))
        out._values = values.copy()  # keep the collocation samples bit-exact
        return out

    @classmethod
    def cosine(cls, spec: ManifoldSpec, mean: float, amplitude: float, modes: int) -> "PeriodicField":
        """mean * (1 + amplitude * cos(s/t)) on ``modes`` grid points."""
        c = np.zeros(modes // 2 + 1, dtype=complex)
        c[0] = mean
        c[1] = 0.5 * amplitude * mean
        return cls(spec, c)

    @classmethod
    def constant(cls, spec: ManifoldSpec, value: float, modes: int = 16) -> "PeriodicField":
        return cls.cosine(spec, value, 0.0, modes)

    @classmethod
    def from_function(cls, spec: ManifoldSpec, fn, modes: int = 64) -> "PeriodicField":
        grid = QuadratureGrid(spec.period, modes)
        return cls.from_values(spec, np.asarray(fn(grid.points), dtype=float))

    # --- basic views ----------------------------------------------------

    @property
    def modes(self) -> int:
        return 2 * (self.coeffs.size - 1)

    @property
    def grid(self) -> np.ndarray:
        n = self.modes
        return np.arange(n) * (self.spec.period / n)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.fft.irfft(self.coeffs * self.modes, self.modes)
        return self._values

    def fine_size(self) -> int:
        return self.modes * oversample_factor(critical_exponent(self.spec.n))

    def fine_values(self) -> np.ndarray:
        if self._fine is None:
            nf = self.fine_size()
            self._fine = np.fft.irfft(_pad(self.coeffs, nf) * nf, nf)
        return self._fine

    def fine_grid(self) -> np.ndarray:
        nf = self.fine_size()
        return np.arange(nf) * (self.spec.period / nf)

    @property
    def mean(self) -> float:
        return float(self.coeffs[0].real)

    def nonconstant_fraction(self) -> float:
        """Relative L2 weight of the nonzero modes (0 for exact constants)."""
        power = _pair_counts(self.coeffs.size) * np.abs(self.coeffs) ** 2
        total = float(np.sum(power))
        if total == 0.0:
            return 0.0
        return math.sqrt(float(np.sum(power[1:])) / total)

    # --- calculus -------------------------------------------------------

    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.coeffs.size) / self.spec.t

    def derivative(self, order: int = 1) -> "PeriodicField":
        mult = (1j * self.wavenumbers()) ** order
        if order % 2 == 1:
            mult[-1] = 0.0  # odd derivative of the Nyquist cosine
        return PeriodicField(self.spec, self.coeffs * mult)

    def laplacian(self) -> "PeriodicField":
        """Delta u with Delta = -d^2/ds^2 (geometer sign)."""
        return PeriodicField(self.spec, self.coeffs * self.wavenumbers() ** 2)

    def shift(self, s0: float) -> "PeriodicField":
        """The translate s -> u(s + s0)."""
        kap = self.wavenumbers()
        mult = np.exp(1j * kap * s0)
        mult[-1] = math.cos(kap[-1] * s0)
        return PeriodicField(self.spec, self.coeffs * mult)

    def resample(self, modes: int) -> "PeriodicField":
        if modes == self.modes:
            return self
        if modes > self.modes:
            return PeriodicField(self.spec, _pad(self.coeffs, modes))
        return PeriodicField(self.spec, _truncate(self.coeffs, modes))

    def scaled(self, factor: float) -> "PeriodicField":
        return PeriodicField(self.spec, self.coeffs * factor)

    def __add__(self, other: "PeriodicField") -> "PeriodicField":
        if other.modes != self.modes or other.spec != self.spec:
            raise ValueError("fields must share grid and manifold")
        return PeriodicField(self.spec, self.coeffs + other.coeffs)


@dataclass(frozen=True)
class NormReport:
    """Full-manifold quadratic quantities of a field (circle integral x omega_(n-1)).

    ``energy`` is the critical-power integral of |u|^{2#} over the manifold;
    ``pairing`` is the quadratic form of P, equal mode-wise to
    hess_l2 + alpha grad_l2 + a l2 (None when no operator is supplied).
    """

    l2: float
    grad_l2: float
    hess_l2: float
    energy: float
    pairing: float | None


def norms(u: PeriodicField, params: OperatorParams | None = None) -> NormReport:
    spec = u.spec
    omega = sphere_volume(spec.sphere_dim)
    length = spec.period
    kap = u.wavenumbers()
    two_sharp = critical_exponent(spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = _parseval_weights(u.coeffs.size) * np.abs(u.coeffs) ** 2
        l2 = omega * length * float(np.sum(w2))
        grad = omega * length * float(np.sum(kap**2 * w2))
        hess = omega * length * float(np.sum(kap**4 * w2))
        energy = omega * length * float(np.mean(np.abs(u.fine_values()) ** two_sharp))
    if not all(map(math.isfinite, (l2, grad, hess, energy))):
        raise FloatingPointError(
            f"norms of the field are outside the float64 range (L2 {l2!r}, energy {energy!r})"
        )
    pairing = None
    if params is not None:
        pairing = hess + params.alpha * grad + params.a_alpha * l2
    return NormReport(l2=l2, grad_l2=grad, hess_l2=hess, energy=energy, pairing=pairing)


_DENSITY_KINDS = ("l2", "grad_l2", "hess_l2", "energy")


def _density_samples(u: PeriodicField, kind: str) -> np.ndarray:
    if kind == "l2":
        return u.fine_values() ** 2
    if kind == "grad_l2":
        return u.derivative(1).fine_values() ** 2
    if kind == "hess_l2":
        # on the flat product, the only nonzero Hessian entry of a
        # circle-reduced field is u''
        return u.derivative(2).fine_values() ** 2
    if kind == "energy":
        two_sharp = critical_exponent(u.spec.n)
        return np.abs(u.fine_values()) ** two_sharp
    raise ValueError(f"unknown density kind {kind!r}; expected one of {_DENSITY_KINDS}")


def _arc_integral(density: np.ndarray, spec: ManifoldSpec, center: float, delta: float) -> float:
    """Integral of a sampled density over the arc dist(s, center) < delta.

    The density's trigonometric interpolant is integrated mode by mode over
    the sharp (unsmoothed) arc, so the window boundary is exact and the only
    error is the interpolant's truncation tail.
    """
    g = np.fft.rfft(density) / density.size
    kap = np.arange(1, g.size) / spec.t
    window = np.empty(g.size, dtype=complex)
    window[0] = 2.0 * delta
    window[1:] = 2.0 * np.exp(1j * kap * center) * np.sin(kap * delta) / kap
    return float(np.sum(_pair_counts(g.size) * np.real(g * window)))


def localized_mass(u: PeriodicField, center: float, delta: float, kind: str) -> float:
    """Mass of a quadratic/critical density over the ball of radius delta.

    The ball lives on the circle factor and is crossed with the whole sphere,
    so the result is the arc integral times omega_(n-1).  Requires
    0 < delta < L/2 (otherwise the complement arc would be empty).
    """
    length = u.spec.period
    if not 0 < delta < length / 2:
        raise ValueError(f"delta must lie in (0, L/2) = (0, {length/2}), got {delta}")
    density = _density_samples(u, kind)
    omega = sphere_volume(u.spec.sphere_dim)
    return omega * _arc_integral(density, u.spec, center, delta)


# --- plain-text serialization ----------------------------------------------

_HEADER = "# n t N"


def save_field(u: PeriodicField, path) -> None:
    """Write base-grid samples as two decimal columns, 17 significant digits."""
    lines = [f"# {u.spec.n} {u.spec.t:.17g} {u.modes}"]
    for s, v in zip(u.grid, u.values):
        lines.append(f"{s:.17g} {v:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> PeriodicField:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "#":
            raise ValueError(f"bad field file header in {path}: expected '{_HEADER}'")
        n, t, size = int(header[1]), float(header[2]), int(header[3])
        vals = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals.append(float(line.split()[1]))
    if len(vals) != size:
        raise ValueError(f"field file {path} has {len(vals)} samples, header says {size}")
    return PeriodicField.from_values(ManifoldSpec(n, t), np.asarray(vals))
