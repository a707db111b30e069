"""Spectral representation of circle-reduced fields on S^1(t) x S^(n-1).

A field u(s) on the circle factor, sampled at N (even) grid points, is held
as its real-FFT half spectrum c_m = (1/N) sum_j u(s_j) exp(-i kappa_m s_j),
m = 0..N/2 (kappa_m = m/t), so it is real by construction: the negative
modes are the conjugates c_{-m} = conj(c_m) and are never stored.  c_0 and
the Nyquist entry c_{N/2} are real; the Nyquist entry is the amplitude of
the cosine cos(kappa_{N/2} s).  Every sum over the spectrum counts each
0 < m < N/2 twice, once for +m and once for -m.  The dtype is the parity: a
real spectrum is an even field (a cosine series), kept real by every
operation that keeps evenness; sampling, translation and odd derivatives
make complex ones.  Nonlinear powers are evaluated on an oversampled grid
and truncated back, which dealiases integer critical powers exactly and
keeps fractional ones well defined (values are clamped at zero before
exponentiation).

All "full-manifold" integrals are circle integrals times the volume of the
unit (n-1)-sphere, since fields are constant on the sphere factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import OperatorParams, critical_exponent
from .geometry import ManifoldSpec, product_volume, sphere_volume

__all__ = [
    "PeriodicField",
    "NormReport",
    "transform",
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
    modes.  The dtype is kept, so a cosine series stays one.
    """
    out = np.zeros(fine_size // 2 + 1, dtype=coeffs.dtype)
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
    coeffs : the half spectrum c_0..c_{N/2} (c_0 and c_{N/2} real), real for
        an even field and complex for a general one; ints are cast to float.
        The grid size N = 2 (len - 1) >= 16 is the mode resolution.
    """

    __slots__ = ("spec", "coeffs", "_values", "_fine")

    def __init__(self, spec: ManifoldSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float)
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
        c = np.zeros(modes // 2 + 1)
        c[0] = mean
        c[1] = 0.5 * amplitude * mean
        return cls(spec, c)

    @classmethod
    def constant(cls, spec: ManifoldSpec, value: float, modes: int = 16) -> "PeriodicField":
        return cls.cosine(spec, value, 0.0, modes)

    @classmethod
    def from_function(cls, spec: ManifoldSpec, fn, modes: int = 64) -> "PeriodicField":
        """Samples fn(s_j) at the grid points s_j = j L / N, N = ``modes``."""
        return cls.from_values(spec, fn(np.arange(modes) * (spec.period / modes)))

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
        return PeriodicField(self.spec, self.coeffs * (mult if order % 2 else mult.real))

    def shift(self, s0: float) -> "PeriodicField":
        """The translate s -> u(s + s0)."""
        kap = self.wavenumbers()
        mult = np.exp(1j * kap * s0)
        mult[-1] = math.cos(kap[-1] * s0)
        return PeriodicField(self.spec, self.coeffs * mult)

    def dilated_values(self, sigma: float) -> np.ndarray:
        """Samples u(sigma s_j) of the even field's cosine series at the N
        grid points taken symmetric about 0, s_j = j h for j <= N/2 and
        (j - N) h above (h = L/N), so out[j] = out[N - j].

        With w_m the pair-counted real coefficients and theta = 2 pi sigma/N,
        u(sigma j h) = sum_m w_m cos(theta m j) is a chirp z-transform.  The
        identity m j = (m^2 + j^2 - (j - m)^2)/2 turns it into one convolution
        (Bluestein), evaluated exactly by three FFTs in O(N log N).  A complex
        spectrum is a field that is not even and raises ``ValueError``.
        """
        if np.iscomplexobj(self.coeffs):
            raise ValueError("dilation needs an even field: the half spectrum is complex")
        w = _pair_counts(self.coeffs.size) * self.coeffs
        half = w.size  # m and j both run over 0..N/2
        size = 1 << (2 * half - 2).bit_length()  # at least 2 half - 1: no wraparound
        theta = 2.0 * math.pi * sigma / self.modes
        m = np.arange(half)
        chirp = np.exp(0.5j * theta * (m * m))
        kernel = np.zeros(size, dtype=complex)  # exp(-i theta d^2/2) at d = j - m, mod size
        kernel[:half] = chirp.conj()
        kernel[size - half + 1 :] = chirp[:0:-1].conj()
        conv = np.fft.ifft(np.fft.fft(w * chirp, size) * np.fft.fft(kernel))
        out = (chirp * conv[:half]).real
        return np.concatenate([out, out[-2:0:-1]])

    def resample(self, modes: int) -> "PeriodicField":
        if modes == self.modes:
            return self
        if modes > self.modes:
            return PeriodicField(self.spec, _pad(self.coeffs, modes))
        return PeriodicField(self.spec, _truncate(self.coeffs, modes))

    def scaled(self, factor: float) -> "PeriodicField":
        return PeriodicField(self.spec, self.coeffs * factor)


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
    volume = product_volume(u.spec)
    kap = u.wavenumbers()
    two_sharp = critical_exponent(u.spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = _parseval_weights(u.coeffs.size) * np.abs(u.coeffs) ** 2
        l2 = volume * float(np.sum(w2))
        grad = volume * float(np.sum(kap**2 * w2))
        hess = volume * float(np.sum(kap**4 * w2))
        energy = volume * float(np.mean(np.abs(u.fine_values()) ** two_sharp))
    if not all(map(math.isfinite, (l2, grad, hess, energy))):
        raise FloatingPointError(
            f"norms of the field are outside the float64 range (L2 {l2!r}, energy {energy!r})"
        )
    pairing = None
    if params is not None:
        pairing = hess + params.alpha * grad + params.a_alpha * l2
    return NormReport(l2=l2, grad_l2=grad, hess_l2=hess, energy=energy, pairing=pairing)


def _arc_integral(
    densities: np.ndarray, spec: ManifoldSpec, center: float, delta: float, keep: int | None = None
) -> np.ndarray:
    """Integrals of sampled densities (last axis) over the arc dist(s, center) < delta.

    Each density's trigonometric interpolant is integrated mode by mode over
    the sharp (unsmoothed) arc, so the window boundary is exact and the only
    error is the interpolant's truncation tail.  Only the first ``keep``
    modes (all by default) are summed.
    """
    size = densities.shape[-1]
    g = np.fft.rfft(densities)[..., :keep] / size
    kap = np.arange(1, g.shape[-1]) / spec.t
    window = np.concatenate([[delta], 2.0 * np.exp(1j * kap * center) * np.sin(kap * delta) / kap])
    if 2 * kap.size == size:
        window[-1] *= 0.5  # the grid's Nyquist mode, like mode 0, stands for one bin; the others for two
    return 2.0 * (g.real @ window.real - g.imag @ window.imag)


def _ball_radius(spec: ManifoldSpec, delta: float | None) -> float:
    """Radius of a diagnostics ball on the circle factor: ``delta``, by
    default L/8.  Requires 0 < delta < L/2 (otherwise the complement arc
    would be empty)."""
    length = spec.period
    if delta is None:
        return length / 8.0
    if not 0 < delta < length / 2:
        raise ValueError(f"delta must lie in (0, L/2) = (0, {length/2}), got {delta}")
    return delta


def localized_mass(u: PeriodicField, center: float, delta: float, kind: str) -> float:
    """Mass of the density u^2, u'^2, u''^2 (``_ball_masses``) or |u|^(2#)
    (``kind`` "l2", "grad_l2", "hess_l2" or "energy") over the ball of radius delta.

    The ball lives on the circle factor and is crossed with the whole sphere,
    so the result is the arc integral times omega_(n-1).  Requires
    0 < delta < L/2.
    """
    delta = _ball_radius(u.spec, delta)
    kinds = ("l2", "grad_l2", "hess_l2", "energy")
    if kind not in kinds:
        raise ValueError(f"unknown density kind {kind!r}; expected one of {kinds}")
    if kind != "energy":
        return float(_ball_masses(u, center, delta)[kinds.index(kind)])
    density = np.abs(u.fine_values()) ** critical_exponent(u.spec.n)
    return sphere_volume(u.spec.sphere_dim) * float(_arc_integral(density, u.spec, center, delta))


def _ball_masses(u: PeriodicField, center: float, delta: float) -> np.ndarray:
    """Ball masses of u^2, u'^2 and u''^2 (on the flat product, u'' is the only
    nonzero Hessian entry of a circle-reduced field) from one batched inverse
    FFT of u, u', u'' to the fine grid: it has at least 4N points, so the
    squares' modes |k| <= N are exact, and only those are summed."""
    nf = u.fine_size()
    stack = [_pad(v.coeffs, nf) for v in (u, u.derivative(1), u.derivative(2))]
    fine = np.fft.irfft(nf * np.array(stack), nf)
    return sphere_volume(u.spec.sphere_dim) * _arc_integral(fine * fine, u.spec, center, delta, u.modes + 1)


# --- plain-text serialization ----------------------------------------------

_HEADER = "# n t N"
_NON_SPACE = bytes(b for b in range(128) if not chr(b).isspace())  # what str.split() keeps


def save_field(u: PeriodicField, path) -> None:
    """Write base-grid samples as two decimal columns, 17 significant digits,
    all rows in one formatting operation."""
    rows = ("%.17g %.17g\n" * u.modes) % tuple(np.column_stack((u.grid, u.values)).ravel().tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {u.spec.n} {u.spec.t:.17g} {u.modes}\n" + rows)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def load_field(path) -> PeriodicField:
    """Read a file written by ``save_field``.

    Blank lines are skipped.  A bad header, a row that is not two columns, a
    sample that is not a finite number, or a sample count other than the
    header's N raises ValueError naming the file (and the line of a bad row).
    A body in ``save_field``'s layout, N rows of two columns split by one
    space, is parsed from one whitespace split of the whole text; any other
    body is read row by row.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "#":
            raise ValueError(f"bad field file header in {path}: expected '{_HEADER}'")
        try:
            spec, size = ManifoldSpec(int(header[1]), float(header[2])), int(header[3])
        except ValueError as exc:
            raise ValueError(f"bad field file header in {path}: {exc}") from None
        if size < 16 or size % 2 != 0:
            raise ValueError(f"bad field file header in {path}: grid size must be even and >= 16, got {size}")
        body = fh.read()
    words = body.split()
    # with every line's whitespace exactly " \n", N lines hold 2N words only at two apiece
    if len(words) == 2 * size and body.encode("ascii").translate(None, _NON_SPACE) == b" \n" * size:
        line_numbers, samples = range(2, size + 2), words[1::2]
    else:
        line_numbers, samples = [], []
        for number, line in enumerate(body.split("\n"), start=2):
            cols = line.split()
            if not cols:
                continue
            if len(cols) != 2:
                raise ValueError(f"{path}, line {number}: expected two columns 's u', got {line.strip()!r}")
            line_numbers.append(number)
            samples.append(cols[1])
    if len(samples) != size:
        raise ValueError(f"field file {path} has {len(samples)} samples, header says {size}")
    try:
        vals = np.array(samples, dtype=float)
    except ValueError:
        vals = np.array([_float_or_nan(text) for text in samples])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise ValueError(f"{path}, line {line_numbers[k]}: sample {samples[k]!r} is not a finite number")
    return PeriodicField.from_values(spec, vals)
