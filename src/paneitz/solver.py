"""Positive solutions of u'''' - alpha u'' + a u = u^(2#-1) on the circle,
circle-reduced from S^1(t) x S^(n-1).

Two routes produce solutions:

* ``newton_solve``: damped Newton on even fields.  The equation is
  reversible (s -> -s); the start is recentered to put its maximum at
  s = 0 and its odd part dropped, so every iterate is even with real
  coefficients.  The linear part is the diagonal symbol mu^2 + alpha mu + a
  (mu = (m/t)^2); the nonlinearity is evaluated on an oversampled grid
  (dealiased).  The Jacobian is real symmetric in orthonormal cosine/sine
  coordinates (the symbol minus the Toeplitz-plus-Hankel matrix of
  multiplication by (2#-1) u_+^(2#-2)); Newton uses its cosine block, which
  needs no phase condition because the translation mode u' is odd.  One
  helper solves it for the Newton step and the continuation predictor at
  every N: GMRES with FFT products on the oversampled grid, the system
  scaled symmetrically by symbol^(-1/2).  The linearized spectrum uses the
  full dense matrix.

* ``minimize_quotient``: monotone descent on the Sobolev quotient
  Q(u) = <Pu, u> / ||u||_{2#}^2 with the natural preconditioner P^{-1}
  (descent direction u - Q(u) P^{-1} u_+^(2#-1), step halving on failure to
  decrease).  Since P^{-1} = (Delta + c)^{-1} (Delta + d)^{-1} with c, d > 0
  preserves positivity on the circle, positive iterates stay positive.
  ``mode1_solution`` runs it from the mode-1 perturbed constant and
  Newton-polishes the rescaled minimizer: the one fresh start of the
  nonconstant branch.

During Newton iteration the nonlinearity uses the positive part u_+ plus a
quadratic penalty on the negative part; acceptance re-verifies the
penalty-free residual and min u > 0, so sign-changing roots are never
silently returned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import OperatorParams, critical_exponent, sharp_constant
from .field import PeriodicField, _pad, _pair_counts, _parseval_weights, _truncate, norms
from .geometry import ManifoldSpec

__all__ = [
    "ConvergenceError",
    "PositivityError",
    "SolverOptions",
    "Solution",
    "residual",
    "newton_solve",
    "quotient",
    "QuotientMinimum",
    "minimize_quotient",
    "rescale_to_solution",
    "mode1_solution",
    "linearized_operator",
    "linearized_spectrum",
    "constant_eigenvalue",
    "bifurcation_alpha",
    "continuation_init",
]


class ConvergenceError(RuntimeError):
    """Iteration failed; carries the last iterate and residual."""

    def __init__(self, message: str, last: PeriodicField | None = None, residual_sup: float = math.nan):
        super().__init__(message)
        self.last = last
        self.residual_sup = residual_sup


class PositivityError(RuntimeError):
    """Converged to a field that is not strictly positive."""


@dataclass(frozen=True)
class SolverOptions:
    modes: int = 64
    tol: float = 1e-11            # absolute residual sup target
    rtol: float = 5e-15           # floor relative to the nonlinear-term scale
    max_iter: int = 50
    max_backtracks: int = 30
    penalty_weight: float = 10.0
    max_modes: int = 512
    tail_tol: float = 1e-10       # coefficient l1 tail mass triggering refinement

    def __post_init__(self):
        if self.modes < 16 or self.modes % 2 != 0:
            raise ValueError("mode count must be even and >= 16")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class Solution:
    field: PeriodicField
    params: OperatorParams
    residual_sup: float
    energy: float
    lambda_quotient: float
    is_constant: bool
    newton_iters: int

    @property
    def modes(self) -> int:
        return self.field.modes


# --- residual ----------------------------------------------------------------


def _symbol(u: PeriodicField, params: OperatorParams) -> np.ndarray:
    mu = u.wavenumbers() ** 2
    return mu * mu + params.alpha * mu + params.a_alpha


def _nonlinear_coeffs(u: PeriodicField, exponent: float, penalty: float = 0.0) -> np.ndarray:
    """Coefficients of u_+^exponent (minus penalty * u_-), dealiased."""
    fine = u.fine_values()
    g = np.where(fine > 0.0, fine, 0.0) ** exponent
    if penalty:
        g = g - penalty * np.minimum(fine, 0.0)
    return _truncate(np.fft.rfft(g) / g.size, u.modes)


def residual(u: PeriodicField, params: OperatorParams, penalty: float = 0.0) -> PeriodicField:
    """F(u) = Delta^2 u + alpha Delta u + a u - u_+^(2#-1) (plus penalty term)."""
    p = critical_exponent(u.spec.n) - 1.0
    coeffs = _symbol(u, params) * u.coeffs - _nonlinear_coeffs(u, p, penalty)
    return PeriodicField(u.spec, coeffs)


def _residual_sup(u: PeriodicField, params: OperatorParams, penalty: float = 0.0) -> float:
    return float(np.max(np.abs(residual(u, params, penalty).values)))


# --- Newton ------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _root_weights(half: int) -> np.ndarray:
    root = np.sqrt(_parseval_weights(half))
    root.flags.writeable = False
    return root


def _to_real(coeffs: np.ndarray) -> np.ndarray:
    """Half spectrum of an even field -> its N/2+1 orthonormal cosine
    coordinates Re c_0..c_{N/2}, each times the square root of its Parseval
    weight, so the Euclidean norm is the L2 norm over the circle divided by
    its length.  Imaginary parts (the sine coordinates) are dropped."""
    return _root_weights(coeffs.size) * coeffs.real


def _from_real(x: np.ndarray) -> np.ndarray:
    """Inverse of ``_to_real``: the real half spectrum of an even field."""
    return x / _root_weights(x.size)


def _jacobian_weight(u: PeriodicField, penalty: float = 0.0) -> np.ndarray:
    """Fine-grid samples of w = (2#-1) u_+^(2#-2) (minus penalty where u < 0):
    the Jacobian is the symbol minus multiplication by w."""
    p = critical_exponent(u.spec.n) - 1.0
    fine = u.fine_values()
    weight = p * np.where(fine > 0.0, fine, 0.0) ** (p - 1.0)
    if penalty:
        weight = weight - penalty * (fine < 0.0)
    return weight


def _jacobian(u: PeriodicField, params: OperatorParams, penalty: float = 0.0) -> np.ndarray:
    """Real symmetric Jacobian in orthonormal cosine/sine coordinates: the
    cosine coordinates of ``_to_real`` (Re c_0..c_{N/2}), then the sine ones
    (Im c_1..c_{N/2-1}, times the same square-root weights).  Its leading
    (N/2+1)-square block is the cosine block that Newton solves.

    The basis functions are 1, sqrt(2) cos(k s/t) and -sqrt(2) sin(k s/t).
    With R_k + i I_k the Fourier coefficients of the weight w on the fine
    grid, the mean of w cos(a) cos(b) is (R_|a-b| + R_(a+b))/2, of
    w sin(a) sin(b) it is (R_|a-b| - R_(a+b))/2, and of w cos(a) sin(b) it
    is (I_(a-b) - I_(a+b))/2, so multiplication by w is Toeplitz plus Hankel.
    """
    weight = _jacobian_weight(u, penalty)
    what = np.fft.rfft(weight) / weight.size
    re, im = what.real, what.imag
    half, n = u.coeffs.size, u.modes
    k = np.arange(half)
    diff = k[:, None] - k[None, :]
    near, far = np.abs(diff), k[:, None] + k[None, :]
    amp = np.full(half, math.sqrt(2.0))
    amp[0] = 1.0
    jac = np.empty((n, n))
    jac[:half, :half] = -0.5 * np.outer(amp, amp) * (re[near] + re[far])
    jac[half:, half:] = (re[far] - re[near])[1:-1, 1:-1]
    cross = (amp / math.sqrt(2.0))[:, None] * (np.sign(diff) * im[near] - im[far])
    jac[:half, half:] = cross[:, 1:-1]
    jac[half:, :half] = cross[:, 1:-1].T
    sym = _symbol(u, params)
    jac.flat[:: n + 1] += np.concatenate([sym, sym[1:-1]])
    return jac


def _jacobian_action(u: PeriodicField, params: OperatorParams, penalty: float = 0.0):
    """x -> the cosine block of ``_jacobian(u, params, penalty)`` times x, by
    FFTs on the fine grid: the symbol times the coefficients minus the
    Galerkin projection of w times the zero-padded field, O(N log N) per
    product."""
    weight = _jacobian_weight(u, penalty)
    sym = _symbol(u, params)
    nf, n = weight.size, u.modes

    def apply(x: np.ndarray) -> np.ndarray:
        c = _from_real(x)
        wc = np.fft.rfft(weight * np.fft.irfft(_pad(c, nf) * nf, nf)) / nf
        return _to_real(sym * c - _truncate(wc, n))

    return apply


_KRYLOV_RTOL = 1e-14      # relative residual of the scaled system
_KRYLOV_MAX_ITER = 60     # the sweeps take 7-11 iterations
_SINGULAR_TOL = 1e-13     # rotated Hessenberg pivot treated as zero


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """Solve apply(x) = b by GMRES from x = 0, for an operator that is the
    identity plus a compact part (so its norm is at least about 1).

    Arnoldi uses classical Gram-Schmidt applied twice, so the basis stays
    orthonormal to rounding and the Givens-rotated residual estimate tracks
    the true residual.  A pivot of the rotated Hessenberg matrix below
    ``_SINGULAR_TOL`` (the system is singular to rounding), or no
    convergence to ``_KRYLOV_RTOL`` in ``_KRYLOV_MAX_ITER`` steps, raises
    ``np.linalg.LinAlgError``.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    m = _KRYLOV_MAX_ITER
    basis = np.empty((m + 1, b.size))
    basis[0] = b / beta
    tri = np.zeros((m, m))  # the rotated Hessenberg matrix, upper triangular
    rot = []                # Givens rotations (cos, sin) applied so far
    g = [beta]              # rotated right-hand side beta e_1
    for k in range(m):
        w = apply(basis[k])
        h = basis[: k + 1] @ w
        w -= h @ basis[: k + 1]
        again = basis[: k + 1] @ w
        w -= again @ basis[: k + 1]
        col = (h + again).tolist()
        norm_w = float(np.linalg.norm(w))
        for j, (cs, sn) in enumerate(rot):
            col[j], col[j + 1] = cs * col[j] + sn * col[j + 1], cs * col[j + 1] - sn * col[j]
        r = math.hypot(col[k], norm_w)
        if r <= _SINGULAR_TOL:
            raise np.linalg.LinAlgError("Krylov solve: linearized system is singular")
        cs, sn = col[k] / r, norm_w / r
        rot.append((cs, sn))
        col[k] = r
        tri[: k + 1, k] = col
        g[k], resid = cs * g[k], -sn * g[k]
        if abs(resid) <= _KRYLOV_RTOL * beta:
            y = np.linalg.solve(tri[: k + 1, : k + 1], g)
            return y @ basis[: k + 1]
        g.append(resid)
        basis[k + 1] = w / norm_w
    raise np.linalg.LinAlgError(
        f"Krylov solve: relative residual above {_KRYLOV_RTOL:g} after {m} GMRES iterations"
    )


def _solve_krylov(u: PeriodicField, params: OperatorParams, b: np.ndarray, penalty: float) -> np.ndarray:
    """GMRES solve of J x = b in cosine coordinates, with FFT products and
    the system scaled symmetrically by symbol^(-1/2): the scaled Jacobian is
    the identity minus a compact part, so its spectrum clusters at 1 and
    GMRES needs about ten iterations at every N.  A singular or unconverged
    system raises a named ``np.linalg.LinAlgError``."""
    scale = 1.0 / np.sqrt(_symbol(u, params))
    jac = _jacobian_action(u, params, penalty)
    return scale * _gmres(lambda z: scale * jac(scale * z), scale * b)


def _solve_linearized(
    u: PeriodicField, params: OperatorParams, rhs: np.ndarray, penalty: float = 0.0
) -> np.ndarray:
    """Real half spectrum delta solving J(u) delta = rhs for even u and rhs,
    by ``_solve_krylov`` at every N.  The translation mode u' is odd, so the
    even system needs no phase condition."""
    return _from_real(_solve_krylov(u, params, _to_real(rhs), penalty))


def _nonlinear_scale(u: PeriodicField) -> float:
    p = critical_exponent(u.spec.n) - 1.0
    peak = float(np.max(np.abs(u.fine_values())))
    return max(1.0, peak**p)


def _recenter(u: PeriodicField) -> PeriodicField:
    """Translate so the maximum sits at s = 0, the axis about which Newton
    keeps its iterates even.

    The discrete argmax is refined to a critical point of u by Newton on u',
    so recentered translates of the same solution agree beyond the grid
    resolution.  A field with real coefficients and its fine-grid maximum at
    s = 0 is returned unchanged.
    """
    fine = u.fine_values()
    s0 = float(u.fine_grid()[int(np.argmax(fine))])
    kap = u.wavenumbers()
    counted = _pair_counts(u.coeffs.size) * u.coeffs
    c1 = counted * (1j * kap)
    c2 = counted * -(kap**2)

    def at(coeffs: np.ndarray, s: float) -> float:
        return float(np.real(np.sum(coeffs * np.exp(1j * kap * s))))

    for _ in range(8):
        curv = at(c2, s0)
        if curv >= 0.0:  # not a maximum; keep the grid location
            break
        step = at(c1, s0) / curv
        s0 -= step
        if abs(step) < 1e-14 * u.spec.period:
            break
    return u.shift(s0) if s0 != 0.0 else u


_CONSTANT_FRACTION = 1e-7


def _newton_fixed(init: PeriodicField, params: OperatorParams, opts: SolverOptions):
    """Newton at fixed resolution; returns (field, penalty-free sup, iterations)."""
    u = init
    pen = opts.penalty_weight
    res_sup = _residual_sup(u, params, pen)
    tol_eff = max(opts.tol, opts.rtol * _nonlinear_scale(u))
    if res_sup <= tol_eff:
        return u, _residual_sup(u, params), 0
    for it in range(1, opts.max_iter + 1):
        try:
            step = _solve_linearized(u, params, residual(u, params, pen).coeffs, pen)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"linear solve failed: {exc}", u, res_sup) from exc
        eta, improved = 1.0, False
        for _ in range(opts.max_backtracks):
            cand = PeriodicField(u.spec, u.coeffs - eta * step)
            cand_sup = _residual_sup(cand, params, pen)
            if cand_sup < res_sup:
                improved = True
                break
            eta *= 0.5
        if not improved:
            # stagnation at the rounding floor is acceptance, anything else an error
            if res_sup <= 10.0 * tol_eff:
                break
            raise ConvergenceError(
                f"Newton stagnated at residual {res_sup:.3e} after {it} iterations",
                u,
                res_sup,
            )
        u, res_sup = cand, cand_sup
        tol_eff = max(opts.tol, opts.rtol * _nonlinear_scale(u))
        if res_sup <= tol_eff:
            return u, _residual_sup(u, params), it
    free_sup = _residual_sup(u, params)
    if free_sup <= 10.0 * tol_eff:
        return u, free_sup, opts.max_iter
    raise ConvergenceError(
        f"no convergence after {opts.max_iter} iterations, residual {free_sup:.3e}",
        u,
        free_sup,
    )


def _tail_fraction(u: PeriodicField) -> float:
    mags = _pair_counts(u.coeffs.size) * np.abs(u.coeffs)
    total = float(np.sum(mags))
    if total == 0.0:
        return 0.0
    return float(np.sum(mags[u.modes // 4 + 1 :])) / total


def newton_solve(init: PeriodicField, params: OperatorParams, opts: SolverOptions | None = None) -> Solution:
    """Damped Newton from ``init``; adapts the mode count until the
    coefficient tail is resolved (or ``opts.max_modes`` is reached).

    The start is recentered to put its maximum at s = 0 and projected onto
    the even (cosine) fields, which the equation maps to themselves; every
    iterate, and so the solution, is even with real coefficients.
    """
    opts = opts or SolverOptions()
    if float(np.max(init.values)) <= 0.0:
        raise ValueError("initial guess must be positive somewhere")
    u = init if init.modes >= opts.modes else init.resample(opts.modes)
    u = PeriodicField(u.spec, _recenter(u).coeffs.real)
    iters = 0
    while True:
        u, res_sup, it = _newton_fixed(u, params, opts)
        iters += it
        if u.modes >= opts.max_modes or _tail_fraction(u) < opts.tail_tol:
            break
        u = u.resample(min(2 * u.modes, opts.max_modes))

    if float(np.min(u.fine_values())) <= 0.0:
        raise PositivityError(
            f"converged field is not strictly positive (min {float(np.min(u.fine_values())):.3e})"
        )
    is_const = u.nonconstant_fraction() <= _CONSTANT_FRACTION
    report = norms(u, params)
    if not report.energy > 0.0:
        raise FloatingPointError(f"critical energy of the solution underflows float64 ({report.energy!r})")
    return Solution(
        field=u,
        params=params,
        residual_sup=res_sup,
        energy=report.energy,
        lambda_quotient=quotient(u, params),
        is_constant=is_const,
        newton_iters=iters,
    )


# --- Sobolev quotient --------------------------------------------------------


def quotient(u: PeriodicField, params: OperatorParams) -> float:
    """Q(u) = <Pu, u> / (int |u|^{2#} dv)^(2/2#); scale invariant, positive."""
    report = norms(u, params)
    if report.energy == 0.0:
        raise ValueError("quotient undefined for the zero field")
    two_sharp = critical_exponent(u.spec.n)
    return report.pairing / report.energy ** (2.0 / two_sharp)


@dataclass(frozen=True)
class QuotientMinimum:
    field: PeriodicField          # normalized to unit critical norm
    lambda_min: float
    iterations: int
    grad_norm: float
    below_sharp_threshold: bool   # lambda_min < K0^{-2}


def _normalize_critical(u: PeriodicField) -> PeriodicField:
    e = norms(u).energy
    if not 0.0 < e < math.inf:
        raise FloatingPointError(f"critical energy of the field is outside the float64 range ({e!r})")
    two_sharp = critical_exponent(u.spec.n)
    return u.scaled(e ** (-1.0 / two_sharp))


def minimize_quotient(
    init: PeriodicField,
    params: OperatorParams,
    tol: float = 1e-9,
    max_iter: int = 5000,
) -> QuotientMinimum:
    """Preconditioned projected descent on Q over the unit critical sphere.

    Monotone by construction: steps are accepted only if Q decreases, with
    step halving otherwise.  Stops when the preconditioned gradient is below
    ``tol`` relative to the iterate; stagnation away from that raises
    ConvergenceError with the last iterate attached.
    """
    if float(np.max(np.abs(init.values))) == 0.0:
        raise ValueError("initial guess must be nonzero")
    p = critical_exponent(init.spec.n) - 1.0
    sym = _symbol(init, params)
    counts = _pair_counts(init.coeffs.size)
    u = _normalize_critical(init)
    q = quotient(u, params)
    grad_norm = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        z = _nonlinear_coeffs(u, p) / sym   # P^{-1} u_+^(2#-1)
        rho = u.coeffs - q * z
        with np.errstate(over="ignore", invalid="ignore"):
            grad_norm = math.sqrt(
                float(np.sum(counts * np.abs(rho) ** 2)) / float(np.sum(counts * np.abs(u.coeffs) ** 2))
            )
        if not math.isfinite(grad_norm):
            raise FloatingPointError(
                f"quotient descent gradient norm is outside the float64 range ({grad_norm!r})"
            )
        if grad_norm <= tol:
            break
        eta, accepted = 1.0, False
        for _ in range(40):
            cand = _normalize_critical(PeriodicField(u.spec, u.coeffs - eta * rho))
            q_cand = quotient(cand, params)
            if q_cand < q:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            if grad_norm <= 1e3 * tol:
                break
            raise ConvergenceError(
                f"quotient descent stagnated (gradient norm {grad_norm:.3e})", u, grad_norm
            )
        u, q = cand, q_cand
    else:
        raise ConvergenceError(
            f"quotient descent did not converge in {max_iter} iterations", u, grad_norm
        )
    _, k0_inv_sq = sharp_constant(init.spec.n)
    return QuotientMinimum(
        field=u,
        lambda_min=q,
        iterations=it,
        grad_norm=grad_norm,
        below_sharp_threshold=q < k0_inv_sq,
    )


def rescale_to_solution(
    minimum: QuotientMinimum, params: OperatorParams, opts: SolverOptions | None = None
) -> Solution:
    """Turn a unit-norm quotient minimizer into a solution of P w = w^(2#-1).

    With ||u||_{2#} = 1 and P u = lambda u^(2#-1), the multiple
    w = lambda^((n-4)/8) u solves the unnormalized equation and has energy
    lambda^(n/4).  The rescaled field is polished by Newton.
    """
    u = minimum.field
    w = u.scaled(minimum.lambda_min ** ((u.spec.n - 4) / 8.0))
    return newton_solve(w, params, opts)


MODE1_AMPLITUDE = 0.1  # relative amplitude of the mode-1 seed's cosine


def mode1_solution(spec: ManifoldSpec, params: OperatorParams, opts: SolverOptions) -> Solution:
    """Fresh start off the constant branch: quotient descent from the seed
    u_bar (1 + MODE1_AMPLITUDE cos(s/t)), u_bar = a^((n-4)/8), on
    ``opts.modes`` points, then rescaling and Newton polish.  Past the
    mode-1 bifurcation this reaches the nonconstant branch."""
    u_bar = params.a_alpha ** ((spec.n - 4) / 8.0)
    seed = PeriodicField.cosine(spec, u_bar, MODE1_AMPLITUDE, opts.modes)
    return rescale_to_solution(minimize_quotient(seed, params), params, opts)


# --- linearization -----------------------------------------------------------


def linearized_operator(u: PeriodicField, params: OperatorParams) -> np.ndarray:
    """Real symmetric matrix of P - (2#-1) u_+^(2#-2) (no penalty) in
    orthonormal cosine/sine coordinates; index 0 is the constant mode."""
    return _jacobian(u, params, penalty=0.0)


def linearized_spectrum(sol: Solution, kmax: int | None = None) -> np.ndarray:
    """Eigenvalues of the linearization at a solution, restricted to circle modes.

    For constant solutions the values are the closed form
    mu_m^2 + alpha mu_m + a - (2#-1) a for m = 0..kmax; each m >= 1 entry is
    doubly degenerate (cos and sin).  Otherwise the dense real symmetric
    Jacobian's eigenproblem, odd modes included, is solved and the smallest
    ``kmax`` + 1 eigenvalues are returned in ascending order.
    """
    u, params = sol.field, sol.params
    if sol.is_constant:
        kmax = u.modes // 2 if kmax is None else kmax
        return constant_eigenvalue(u.spec, params, np.arange(kmax + 1))
    eig = np.linalg.eigvalsh(linearized_operator(u, params))
    return eig if kmax is None else eig[: kmax + 1]


def constant_eigenvalue(spec: ManifoldSpec, params: OperatorParams, m):
    """Eigenvalue mu^2 + alpha mu + a - (2#-1) a, mu = (m/t)^2, of the
    linearization at the constant solution on circle mode m (int or array)."""
    mu = (m / spec.t) ** 2
    shift = (critical_exponent(spec.n) - 1.0) * params.a_alpha
    return mu * mu + params.alpha * mu + params.a_alpha - shift


def bifurcation_alpha(n: int, t: float, m: int) -> float:
    """Parameter where the constant branch's mode-m eigenvalue vanishes,
    for the quarter-square schedule a = alpha^2/4.

    Positive root of mu^2 + alpha mu - (2#-2) alpha^2/4 with mu = (m/t)^2;
    for n = 5 this reduces to alpha* = (m/t)^2.
    """
    if m < 1:
        raise ValueError("bifurcating mode index must be >= 1")
    two_sharp = critical_exponent(n)
    mu = (m / t) ** 2
    kappa = two_sharp - 2.0
    return 2.0 * mu * (1.0 + math.sqrt(two_sharp - 1.0)) / kappa


# --- continuation helper -----------------------------------------------------


def continuation_init(prev: Solution, params: OperatorParams) -> PeriodicField:
    """First-order predictor for continuation in alpha.

    Solves J delta = -(Delta u + a'(alpha) u) d(alpha) at the previous
    solution, with a'(alpha) the secant slope of a between the two
    parameter sets; falls back to the unmodified previous field if the
    tangent solve fails.
    """
    u = prev.field
    dalpha = params.alpha - prev.params.alpha
    if dalpha == 0.0:
        return u
    da_dalpha = (params.a_alpha - prev.params.a_alpha) / dalpha
    dF = (u.wavenumbers() ** 2 + da_dalpha) * u.coeffs
    try:
        tangent = _solve_linearized(u, prev.params, dF)
    except np.linalg.LinAlgError:
        return u
    return PeriodicField(u.spec, u.coeffs - dalpha * tangent)
