"""Positive solutions of u'''' - alpha u'' + a u = u^(2#-1) on the circle,
circle-reduced from S^1(t) x S^(n-1).

Every solve enters through ``_even_start``, which checks its start and
projects a sampled (complex) one onto the even fields.  The equation is
reversible (s -> -s) and the even fields' half spectra are real, so every
iterate, residual and step is a cosine series by type.

* ``newton_solve``: damped Newton on even fields, at the start's own mode
  count, doubled until the coefficient tail is resolved.  The linear part
  is the diagonal symbol mu^2 + alpha mu + a (mu = (m/t)^2); the
  nonlinearity is evaluated on an oversampled grid (dealiased).  At an even
  field the Jacobian is block diagonal in orthonormal cosine/sine
  coordinates: the symbol minus T + H and T - H, the Toeplitz and Hankel
  matrices of multiplication by (2#-1) u_+^(2#-2), both from
  ``_cosine_block``; a complex half spectrum is refused.  Newton uses the
  cosine block, which needs no phase condition because the translation
  mode u' is odd.  One function, ``_solve_krylov``, sets up and solves the
  Newton step at every N: it assembles that block scaled by symbol^(-1/2)
  from one FFT of the weight and runs GMRES on the matrix, one
  matrix-vector product per iteration.  Newton is local; on its own it
  starts only from ``continuation_init``, which predicts the next start of
  a branch from the exact scaling u -> k^((n-4)/4) u(sqrt(k) s) of
  alpha -> k alpha, a -> k^2 a, with no linear solve.

* Every fresh start, the mode-1 seed of ``mode1_solution`` or a field file,
  takes one route: ``minimize_quotient``, then ``rescale_to_solution``,
  Newton from lambda^((n-4)/8) times the minimizer, its Nehari multiple.
  The descent is the nonlinear inverse power method (Hein & Buehler, NIPS
  2010) on the Sobolev quotient Q(u) = <Pu, u> / ||u||_{2#}^2: each step is
  Q(u) P^{-1} u_+^(2#-1), scaled to unit critical norm, from the start over
  its peak, so the route is scale-free.  Q is a ratio of two convex
  2-homogeneous functionals, so on positive iterates the step never raises
  Q and needs no step-size search; P^{-1} = (Delta + c)^{-1} (Delta + d)^{-1}
  with c, d > 0 keeps iterates positive.  A solution, a saved tiling too,
  is a critical point of Q and stops the descent at its first check.  At
  and below the mode-1 threshold ``mode1_solution`` returns
  ``constant_solution``, the exact constant a^((n-4)/8).

Newton iterates on the equation's own residual F(u) = P u - u_+^(2#-1):
negative samples add nothing to the nonlinearity.  Each factor of
P = (Delta + c)(Delta + d) has a positive Green's function, so a root of F
other than u = 0 (a ``ConvergenceError``) is at least ``positivity_margin``
= g_min int u_+^(2#-1) ds > 0; no fine-grid sample's sign is tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import OperatorParams, constant_branch, critical_exponent, green_minimum
from .field import PeriodicField, _pad, _pair_counts, _parseval_weights, _truncate, norms, transform
from .geometry import ManifoldSpec, product_volume

__all__ = [
    "ConvergenceError",
    "SolverOptions",
    "Solution",
    "residual",
    "newton_solve",
    "quotient",
    "QuotientMinimum",
    "minimize_quotient",
    "rescale_to_solution",
    "constant_solution",
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


class SolverOptions:
    """Fixed settings of the solver, read from the class.  ``max_modes``
    bounds the N of every Newton step and with it the (N/2+1)-square block
    each linear solve assembles."""

    tol = 1e-11             # absolute residual sup target
    rtol = 5e-15            # floor relative to the nonlinear-term scale
    max_iter = 50
    max_backtracks = 30
    tail_tol = 1e-10        # coefficient l1 tail mass triggering refinement
    max_modes = 512


@dataclass(frozen=True)
class Solution:
    field: PeriodicField
    params: OperatorParams
    residual_sup: float
    energy: float
    lambda_quotient: float
    is_constant: bool
    newton_iters: int
    positivity_margin: float    # g_min int u_+^(2#-1) ds, a lower bound of u
    tail_fraction: float        # coefficient l1 mass above N/4, against tail_tol

    @property
    def modes(self) -> int:
        return self.field.modes


# --- residual ----------------------------------------------------------------


def _symbol(spec: ManifoldSpec, params: OperatorParams, m):
    """Symbol sigma_m = mu^2 + alpha mu + a of P on circle mode m (int or
    array), mu = (m/t)^2.  It grows with m, so it is first formed in Python
    floats (which overflow to inf quietly) on the largest m; a value there
    outside the float64 range raises ``FloatingPointError``."""
    top = float(np.max(m))
    mu = (top / spec.t) * (top / spec.t)
    if not mu * mu + params.alpha * mu + params.a_alpha < math.inf:
        raise FloatingPointError(
            f"symbol of P on circle mode {top:g} at t={spec.t!r} is outside the float64 range"
        )
    mu = (m / spec.t) ** 2
    return mu * mu + params.alpha * mu + params.a_alpha


def _positive_power_coeffs(fine: np.ndarray, p: float, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of fine_+^p, from the fine-grid samples of the field with
    half spectrum ``coeffs``: one forward FFT, dealiased to its size and, for
    a real ``coeffs`` (an even field), to the cosine part."""
    c = np.fft.rfft(np.where(fine > 0.0, fine, 0.0) ** p) / fine.size
    return _truncate(c if np.iscomplexobj(coeffs) else c.real, 2 * coeffs.size - 2)


def _nonlinear_coeffs(u: PeriodicField) -> np.ndarray:
    """Coefficients of u_+^(2#-1), dealiased; real for an even u."""
    return _positive_power_coeffs(u.fine_values(), critical_exponent(u.spec.n) - 1.0, u.coeffs)


def residual(u: PeriodicField, params: OperatorParams) -> PeriodicField:
    """F(u) = Delta^2 u + alpha Delta u + a u - u_+^(2#-1)."""
    sym = _symbol(u.spec, params, np.arange(u.coeffs.size))
    return PeriodicField(u.spec, sym * u.coeffs - _nonlinear_coeffs(u))


# --- Newton ------------------------------------------------------------------


def _jacobian_weight(u: PeriodicField) -> np.ndarray:
    """Cosine coefficients R_k (k = 0..nf/2) of the fine-grid samples of
    w = (2#-1) u_+^(2#-2), which is even for even u: the Jacobian is the
    symbol minus multiplication by w."""
    p = critical_exponent(u.spec.n) - 1.0
    fine = u.fine_values()
    weight = p * np.where(fine > 0.0, fine, 0.0) ** (p - 1.0)
    return (np.fft.rfft(weight) / weight.size).real


def _cosine_amplitudes(half: int) -> np.ndarray:
    """Basis amplitude over sqrt(2) per cosine coordinate: 1/sqrt(2) for the
    constant 1, 1 for sqrt(2) cos(k s/t).  The mean of w times two basis
    functions is (R_|a-b| + R_(a+b))/2 times both amplitudes, so the cosine
    block of multiplication by w is T + H scaled by these on both sides."""
    amp = np.ones(half)
    amp[0] = math.sqrt(0.5)
    return amp


def _cosine_block(re: np.ndarray, diagonal: float | np.ndarray, scale: np.ndarray, sign: int) -> np.ndarray:
    """diag(diagonal) - diag(scale) (T + sign H) diag(scale) for the Toeplitz
    T_ij = R_|i-j| and the Hankel H_ij = R_(i+j) of ``re`` (i, j < h, the
    size of ``scale``).  T and H are strided views of one sequence
    R_(h-1), .., R_1, R_0, R_1, .., R_(2h-2); the sum (``sign`` +1) or
    difference (-1) is the one h x h allocation, scaled in place."""
    h = scale.size
    seq = np.concatenate((re[h - 1 : 0 : -1], re[: 2 * h - 1]))
    at = (h - 1) * seq.itemsize  # the entry R_0
    toeplitz = np.ndarray((h, h), buffer=seq, offset=at, strides=(-seq.itemsize, seq.itemsize))
    hankel = np.ndarray((h, h), buffer=seq, offset=at, strides=(seq.itemsize, seq.itemsize))
    block = np.add(toeplitz, hankel) if sign > 0 else np.subtract(toeplitz, hankel)
    block *= -scale[:, None]
    block *= scale
    block.ravel()[:: h + 1] += diagonal
    return block


def linearized_operator(u: PeriodicField, params: OperatorParams) -> np.ndarray:
    """Real symmetric Jacobian of ``residual`` at an even field, the matrix
    of P - (2#-1) u_+^(2#-2), in orthonormal cosine/sine coordinates: Re c_k
    (k = 0..N/2), then Im c_k (k = 1..N/2-1), each times the square root of
    its Parseval weight; index 0 is the constant mode.

    The basis functions are 1, sqrt(2) cos(k s/t) and -sqrt(2) sin(k s/t).
    The weight w is even with cosine coefficients R_k, so w cos(a) sin(b)
    has mean 0 and the matrix is block diagonal: the cosine block from
    (R_|a-b| + R_(a+b))/2, which Newton solves, and the sine block from
    (R_|a-b| - R_(a+b))/2, both built by ``_cosine_block``.  A field with a
    complex half spectrum is not even and raises ``ValueError``."""
    if np.iscomplexobj(u.coeffs):
        raise ValueError("linearization needs an even field: the half spectrum is complex")
    re, half = _jacobian_weight(u), u.coeffs.size
    sym = _symbol(u.spec, params, np.arange(half))
    jac = np.zeros((u.modes, u.modes))
    jac[:half, :half] = _cosine_block(re, sym, _cosine_amplitudes(half), 1)
    jac[half:, half:] = _cosine_block(re, sym, np.ones(half), -1)[1:-1, 1:-1]
    return jac


_KRYLOV_RTOL = 1e-14      # relative residual of the scaled system
_KRYLOV_MAX_ITER = 60     # the sweeps take 7-11 iterations
_SINGULAR_TOL = 1e-13     # rotated Hessenberg pivot treated as zero


def _back_substitute(cols: list, g: list) -> np.ndarray:
    """Solve R y = g for the upper triangular R whose column j is cols[j]
    (entries 0..j), by column-oriented back substitution."""
    y = list(g)
    for j in range(len(cols) - 1, -1, -1):
        col = cols[j]
        y[j] /= col[j]
        for i in range(j):
            y[i] -= col[i] * y[j]
    return np.array(y)


def _gmres(matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve matrix @ x = b by GMRES from x = 0, for a matrix that is the
    identity plus a compact part (so its norm is at least about 1).

    Arnoldi uses classical Gram-Schmidt applied twice, so the basis stays
    orthonormal to rounding and the Givens-rotated residual estimate tracks
    the true residual.  The rotated Hessenberg columns are kept as the
    columns of an upper triangle, which ``_back_substitute`` solves at
    convergence.  A pivot of the rotated Hessenberg matrix below
    ``_SINGULAR_TOL`` (the system is singular to rounding), or no
    convergence to ``_KRYLOV_RTOL`` in ``_KRYLOV_MAX_ITER`` steps, raises
    ``np.linalg.LinAlgError``; a right-hand side whose norm leaves float64
    raises ``FloatingPointError``.
    """
    with np.errstate(over="ignore"):
        beta = math.sqrt(b @ b)
    if not beta < math.inf:
        raise FloatingPointError("right-hand side of the Newton step has a norm outside the float64 range")
    if beta == 0.0:
        return np.zeros_like(b)
    m = _KRYLOV_MAX_ITER
    basis = np.empty((m + 1, b.size))
    np.divide(b, beta, out=basis[0])
    cols = []               # rotated Hessenberg columns, an upper triangle
    rot = []                # Givens rotations (cos, sin) applied so far
    g = [beta]              # rotated right-hand side beta e_1
    for k in range(m):
        w, done = matrix @ basis[k], basis[: k + 1]
        h = done @ w
        w -= h @ done
        again = done @ w
        w -= again @ done
        col = (h + again).tolist()
        norm_w = math.sqrt(w @ w)
        for j, (cs, sn) in enumerate(rot):
            col[j], col[j + 1] = cs * col[j] + sn * col[j + 1], cs * col[j + 1] - sn * col[j]
        r = math.hypot(col[k], norm_w)
        if r <= _SINGULAR_TOL:
            raise np.linalg.LinAlgError("Krylov solve: linearized system is singular")
        cs, sn = col[k] / r, norm_w / r
        rot.append((cs, sn))
        col[k] = r
        cols.append(col)
        g[k], resid = cs * g[k], -sn * g[k]
        if abs(resid) <= _KRYLOV_RTOL * beta:
            return _back_substitute(cols, g) @ done
        g.append(resid)
        np.divide(w, norm_w, out=basis[k + 1])
    raise np.linalg.LinAlgError(
        f"Krylov solve: relative residual above {_KRYLOV_RTOL:g} after {m} GMRES iterations"
    )


def _solve_krylov(u: PeriodicField, params: OperatorParams, rhs: np.ndarray) -> np.ndarray:
    """Real half spectrum delta solving J(u) delta = rhs for even u and rhs,
    J the cosine block of ``linearized_operator``.

    In orthonormal cosine coordinates (Re c_k times the square root of its
    Parseval weight) scaled by s = symbol^(-1/2) on both sides, the symbol
    is the identity and the matrix is A = I - diag(s') (T + H) diag(s'),
    s' = s times ``_cosine_amplitudes``.  Its spectrum clusters at 1, so GMRES
    needs about ten iterations at every N, each one BLAS product with A,
    assembled once by ``_cosine_block``.  The translation mode u' is odd, so
    the even system needs no phase condition.  A singular or unconverged
    system raises a named ``np.linalg.LinAlgError``."""
    half = u.coeffs.size
    scale = 1.0 / np.sqrt(_symbol(u.spec, params, np.arange(half)))
    root = np.sqrt(_parseval_weights(half))
    block = _cosine_block(_jacobian_weight(u), 1.0, scale * _cosine_amplitudes(half), 1)
    x = _gmres(block, scale * (root * rhs))
    return scale * x / root


def _nonlinear_scale(u: PeriodicField) -> float:
    """max(1, max|u|^(2#-1)), the size of the nonlinear term; a peak whose
    power leaves float64 raises ``FloatingPointError``."""
    p = critical_exponent(u.spec.n) - 1.0
    peak = float(np.max(np.abs(u.fine_values())))
    try:
        return max(1.0, peak**p)
    except OverflowError:
        raise FloatingPointError(
            f"nonlinear term u^(2#-1) of a field with max |u| = {peak:.3e} is outside the float64 range"
        ) from None


_CONSTANT_FRACTION = 1e-7
_TRIVIAL_SLACK = 1e-6     # relative slack below the bound max u >= a^((n-4)/8)


def _newton_fixed(u: PeriodicField, params: OperatorParams):
    """Newton at fixed resolution; returns (field, residual sup, accepted steps).

    Iterates on F(u) = P u - u_+^(2#-1), the residual the solution reports,
    until its sup is at most tol_eff = max(tol, rtol max(1, max|u|^(2#-1))).
    A step that no backtrack makes decrease the sup, or ``max_iter`` steps
    short of tol_eff, raises ``ConvergenceError``."""
    res = residual(u, params)
    res_sup = float(np.max(np.abs(res.values)))
    steps = 0
    while res_sup > max(SolverOptions.tol, SolverOptions.rtol * _nonlinear_scale(u)):
        if steps == SolverOptions.max_iter:
            raise ConvergenceError(f"no convergence after {steps} iterations, residual {res_sup:.3e}", u, res_sup)
        try:
            step = _solve_krylov(u, params, res.coeffs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"linear solve failed: {exc}", u, res_sup) from exc
        eta = 1.0
        for _ in range(SolverOptions.max_backtracks):
            cand = PeriodicField(u.spec, u.coeffs - eta * step)
            cand_res = residual(cand, params)
            cand_sup = float(np.max(np.abs(cand_res.values)))
            if cand_sup < res_sup:
                u, res, res_sup = cand, cand_res, cand_sup
                steps += 1
                break
            eta *= 0.5
        else:
            why = f"Newton stagnated at residual {res_sup:.3e} after {steps + 1} iterations"
            raise ConvergenceError(why, u, res_sup)
    return u, res_sup, steps


def _tail_fraction(u: PeriodicField) -> float:
    mags = _pair_counts(u.coeffs.size) * np.abs(u.coeffs)
    total = float(np.sum(mags))
    if total == 0.0:
        return 0.0
    return float(np.sum(mags[u.modes // 4 + 1 :])) / total


def _even_start(init: PeriodicField) -> PeriodicField:
    """The start of every solve, checked and made even; Newton and the
    quotient descent both take it first.  A start with no positive sample or
    more than ``SolverOptions.max_modes`` modes raises ``ValueError``.

    A real start is even already and is used as it is.  A complex (sampled)
    start is translated to put its maximum at s = 0 and projected onto the
    even (cosine) fields.  The maximum is the vertex of the parabola through
    the fine-grid maximum and its two neighbours, within half a fine spacing
    of it; where their curvature is not negative the grid maximum is kept.
    The even fields hold the two translates of a solution peaked at 0 and at
    L/2, so the projection fixes the axis: a start off it by d is O(d^2) from
    the even solution.
    """
    if float(np.max(init.values)) <= 0.0:
        raise ValueError("initial guess must be positive somewhere")
    if init.modes > SolverOptions.max_modes:
        raise ValueError(f"initial field has {init.modes} modes, above max_modes ({SolverOptions.max_modes})")
    u = init
    if np.iscomplexobj(u.coeffs):
        fine = u.fine_values()
        j = int(np.argmax(fine))
        left, peak, right = fine[j - 1], fine[j], fine[(j + 1) % fine.size]
        curvature = left - 2.0 * peak + right
        vertex = 0.5 * (left - right) / curvature if curvature < 0.0 else 0.0
        s0 = (j + min(0.5, max(-0.5, vertex))) * (u.spec.period / fine.size)
        u = PeriodicField(u.spec, u.shift(s0).coeffs.real)
    return u


def newton_solve(init: PeriodicField, params: OperatorParams) -> Solution:
    """Damped Newton from ``init`` at its own mode count; the count doubles
    until the coefficient tail is resolved (or ``SolverOptions.max_modes`` is
    reached).  The start is checked and made even by ``_even_start``, so
    every iterate, and the solution, is an even field with a real half
    spectrum.  A nonconstant solution peaked at L/2 is translated by L/2
    before it is returned, so its peak is at 0.  The start is not scaled: a
    u^(2#-1) outside float64 raises ``FloatingPointError`` before the first
    residual.  A field below max u >= a^((n-4)/8) is the trivial root and
    raises ``ConvergenceError``.
    """
    u = _even_start(init)
    _nonlinear_scale(u)
    iters = 0
    while True:
        u, res_sup, it = _newton_fixed(u, params)
        iters += it
        if u.modes >= SolverOptions.max_modes or _tail_fraction(u) < SolverOptions.tail_tol:
            break
        u = u.resample(min(2 * u.modes, SolverOptions.max_modes))
    is_const = u.nonconstant_fraction() <= _CONSTANT_FRACTION
    fine = u.fine_values()
    if not is_const and fine[fine.size // 2] > fine[0]:  # peaked at L/2: c_m -> (-1)^m c_m
        u = PeriodicField(u.spec, u.coeffs * (-1.0) ** np.arange(u.coeffs.size))
        res_sup = float(np.max(np.abs(residual(u, params).values)))
    return _checked_solution(u, params, res_sup, is_const, iters)


def _checked_solution(
    u: PeriodicField, params: OperatorParams, res_sup: float, is_const: bool, iters: int
) -> Solution:
    """The ``Solution`` at a converged field u.  Mode 0 of the equation,
    a mean(u) = mean(u^(2#-1)) <= max(u)^(2#-2) mean(u), gives max u >= u_bar
    = a^((n-4)/8) for every positive solution, so a field below that bound is
    the trivial root u = 0 and raises ``ConvergenceError``.  Any other root is
    u = P^(-1) u_+^(2#-1) >= g_min a L mean(u), the ``positivity_margin``; an
    energy that underflows float64 raises ``FloatingPointError``."""
    peak = float(np.max(u.fine_values()))
    u_bar, _ = constant_branch(u.spec.n, params.a_alpha, product_volume(u.spec))
    if peak < (1.0 - _TRIVIAL_SLACK) * u_bar:
        why = f"converged to the trivial solution (max {peak:.3e} < a^((n-4)/8) = {u_bar:.3e})"
        raise ConvergenceError(why, u, res_sup)
    report = norms(u, params)
    if not report.energy > 0.0:
        raise FloatingPointError(f"critical energy of the solution underflows float64 ({report.energy!r})")
    g_min = green_minimum(params.c_alpha, params.d_alpha, u.spec.period)
    return Solution(
        field=u,
        params=params,
        residual_sup=res_sup,
        energy=report.energy,
        lambda_quotient=report.pairing / report.energy ** (2.0 / critical_exponent(u.spec.n)),
        is_constant=is_const,
        newton_iters=iters,
        positivity_margin=g_min * params.a_alpha * u.spec.period * u.mean,
        tail_fraction=_tail_fraction(u),
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


# relative preconditioned gradient norm; Q falls by about its square per step,
# below one ulp of Q near 1e-8, and Newton takes back what a looser stop saves
_DESCENT_TOL = 1e-7
_DESCENT_MAX_ITER = 5000


def minimize_quotient(init: PeriodicField, params: OperatorParams) -> QuotientMinimum:
    """Nonlinear inverse power iteration for the minimum of Q on the unit
    critical sphere: each step is u - rho = Q(u) P^{-1} u_+^(2#-1), rho the
    preconditioned gradient, scaled to unit critical norm, from the start
    ``_even_start`` makes even: from a complex start the descent creeps for
    thousands of steps along the translation mode, on which Q is flat.

    No step raises Q.  With ||u||_{2#} = 1, R(v) = <Pv, v>, lambda = R(u) and
    g = u_+^(2#-1), the step v = lambda P^{-1} g minimizes R(w) - 2 lambda
    <w, g>, which is -R(v) at v and -lambda at u, so R(v) >= lambda.  On
    positive u, 2 g is the gradient of the convex S = ||.||_{2#}^2, so
    S(v) >= 2 R(v) / lambda - 1 and Q(v) <= lambda R(v) / (2 R(v) - lambda)
    <= lambda.  The premise is positive iterates, which P^{-1} keeps.  It
    stops once the relative gradient norm is at most ``_DESCENT_TOL``;
    ``_DESCENT_MAX_ITER`` iterations raise ``ConvergenceError`` with the last
    iterate.  The start is divided by its largest |fine sample| before any
    sum is formed, so its critical energy is in [V/nf, V]: neither the
    descent nor its minimizer depends on the start's scale.  The iterate's
    fine samples are carried from step to step: the step's are
    fine(u) - fine(rho) (the zero-padded inverse FFT is linear), scaled
    with the coefficients, so each step makes one forward FFT (of
    u_+^(2#-1)) and one inverse FFT (of rho).  Its pairing is a
    symbol-weighted Parseval sum.  A step whose energy or pairing leaves
    the float64 range raises ``FloatingPointError``.  The minimizer is
    returned as a field of its coefficients, whose samples are recomputed
    on demand.
    """
    init = _even_start(init)
    spec = init.spec
    two_sharp = critical_exponent(spec.n)
    sym = _symbol(spec, params, np.arange(init.coeffs.size))
    counts = _pair_counts(init.coeffs.size)
    volume = product_volume(spec)
    pair_weights = volume * _parseval_weights(init.coeffs.size) * sym
    nf = init.fine_size()
    peak = float(np.max(np.abs(init.fine_values())))
    start = PeriodicField(spec, init.coeffs / peak)
    report = norms(start, params)
    unit = report.energy ** (-1.0 / two_sharp)
    coeffs, fine = start.coeffs * unit, start.fine_values() * unit
    q = report.pairing / report.energy ** (2.0 / two_sharp)
    for it in range(1, _DESCENT_MAX_ITER + 1):
        z = _positive_power_coeffs(fine, two_sharp - 1.0, coeffs) / sym   # P^{-1} u_+^(2#-1)
        rho = coeffs - q * z
        with np.errstate(over="ignore", invalid="ignore"):
            grad_norm = math.sqrt(
                float(np.sum(counts * np.abs(rho) ** 2)) / float(np.sum(counts * np.abs(coeffs) ** 2))
            )
        if not math.isfinite(grad_norm):
            raise FloatingPointError(
                f"quotient descent gradient norm is outside the float64 range ({grad_norm!r})"
            )
        if grad_norm <= _DESCENT_TOL:
            return QuotientMinimum(
                field=PeriodicField(spec, coeffs), lambda_min=q, iterations=it, grad_norm=grad_norm
            )
        step = coeffs - rho
        with np.errstate(over="ignore", invalid="ignore"):
            fine = fine - np.fft.irfft(_pad(rho, nf) * nf, nf)
            energy = volume * float(np.mean(np.abs(fine) ** two_sharp))
            pairing = float(np.sum(pair_weights * np.abs(step) ** 2))
        if not (0.0 < energy < math.inf and math.isfinite(pairing)):
            raise FloatingPointError(
                f"quotient descent step is outside the float64 range "
                f"(energy {energy!r}, pairing {pairing!r})"
            )
        unit = energy ** (-1.0 / two_sharp)
        coeffs, fine = step * unit, fine * unit
        q = pairing / energy ** (2.0 / two_sharp)
    raise ConvergenceError(
        f"quotient descent did not converge in {_DESCENT_MAX_ITER} iterations",
        PeriodicField(spec, coeffs),
        grad_norm,
    )


def rescale_to_solution(minimum: QuotientMinimum, params: OperatorParams) -> Solution:
    """Newton from k u, the minimizer u's multiple on the Nehari manifold
    <P w, w> = int w_+^(2#), which holds every solution.  At unit critical
    norm <P u, u> = lambda, so k^(2#-2) = lambda, 2# - 2 = 8/(n-4): k =
    lambda^((n-4)/8).  A k outside float64 raises ``FloatingPointError``."""
    with np.errstate(over="ignore"):
        k = float(np.power(minimum.lambda_min, (minimum.field.spec.n - 4) / 8.0))
    if not 0.0 < k < math.inf:
        raise FloatingPointError(f"Nehari multiple lambda^((n-4)/8) is outside the float64 range ({k!r})")
    return newton_solve(minimum.field.scaled(k), params)


MODE1_AMPLITUDE = 0.1  # relative amplitude of the mode-1 seed's cosine
_SEED_MODES = 64       # grid of the constant and of the mode-1 seed


def constant_solution(spec: ManifoldSpec, params: OperatorParams) -> Solution:
    """The exact constant u_bar = a^((n-4)/8) on ``_SEED_MODES`` points,
    with no Newton step; its residual and checks are those ``newton_solve``
    reports for it.  A u_bar that underflows to 0 raises
    ``FloatingPointError``."""
    u_bar, _ = constant_branch(spec.n, params.a_alpha, product_volume(spec))
    if u_bar == 0.0:
        raise FloatingPointError(f"constant solution a^((n-4)/8) at a={params.a_alpha!r} underflows float64")
    u = PeriodicField.constant(spec, u_bar, _SEED_MODES)
    _nonlinear_scale(u)  # named, as for a Newton start, before the residual forms u^(2#-1)
    res_sup = float(np.max(np.abs(residual(u, params).values)))
    return _checked_solution(u, params, res_sup, True, 0)


def mode1_solution(spec: ManifoldSpec, params: OperatorParams) -> Solution:
    """Fresh start past the mode-1 bifurcation: ``rescale_to_solution`` of
    the descent from 1 + MODE1_AMPLITUDE cos(s/t) on ``_SEED_MODES`` points,
    at unit mean since the descent is scale-free.  At and below it (mode-1
    eigenvalue >= 0) it is ``constant_solution``."""
    if constant_eigenvalue(spec, params, 1) >= 0.0:
        return constant_solution(spec, params)
    seed = PeriodicField.cosine(spec, 1.0, MODE1_AMPLITUDE, _SEED_MODES)
    return rescale_to_solution(minimize_quotient(seed, params), params)


# --- linearization -----------------------------------------------------------


def linearized_spectrum(sol: Solution, kmax: int | None = None) -> np.ndarray:
    """Eigenvalues of the linearization at a solution, restricted to circle modes.

    For constant solutions the values are the closed form
    mu_m^2 + alpha mu_m + a - (2#-1) a for m = 0..kmax; each m >= 1 entry is
    doubly degenerate (cos and sin).  Otherwise the eigenvalues of the
    cosine and sine blocks of ``linearized_operator`` are merged and the
    smallest ``kmax`` + 1 are returned in ascending order.
    """
    u, params = sol.field, sol.params
    if sol.is_constant:
        kmax = u.modes // 2 if kmax is None else kmax
        return constant_eigenvalue(u.spec, params, np.arange(kmax + 1))
    jac, h = linearized_operator(u, params), u.coeffs.size
    eig = np.sort(np.concatenate((np.linalg.eigvalsh(jac[:h, :h]), np.linalg.eigvalsh(jac[h:, h:]))))
    return eig if kmax is None else eig[: kmax + 1]


def constant_eigenvalue(spec: ManifoldSpec, params: OperatorParams, m):
    """Eigenvalue sigma_m - (2#-1) a of the linearization at the constant
    solution on circle mode m (int or array), sigma_m the ``_symbol``."""
    return _symbol(spec, params, m) - (critical_exponent(spec.n) - 1.0) * params.a_alpha


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
    """Scaled predictor for continuation in alpha, with no linear solve.

    With k = alpha'/alpha, if u solves the equation at (alpha, a) then
    k^((n-4)/4) u(sqrt(k) s) solves it at (k alpha, k^2 a) on a circle
    sqrt(k) times shorter.  So on a schedule with a fixed ratio a/alpha^2
    the prediction is exact but for the change of circle length, and
    otherwise Newton also absorbs the change of ratio.  ``prev.field`` is
    even with its peak at s = 0 (as ``newton_solve`` returns it), so the
    stretched field is sampled about that peak wherever sqrt(k) |s| <= L/2,
    and the rest of the grid (empty for k <= 1) takes the scaled minimum of
    u.  The samples are symmetric about s = 0 by construction, so their
    spectrum is real but for rounding: the prediction is their cosine
    series, an even field that Newton starts from as it is.
    """
    u = prev.field
    k = params.alpha / prev.params.alpha
    sigma = math.sqrt(k)
    size = u.modes
    dist = np.minimum(np.arange(size), size - np.arange(size))  # |s_j| / h
    stretched = np.where(sigma * dist <= size // 2, u.dilated_values(sigma), np.min(u.values))
    return PeriodicField(u.spec, transform(k ** ((u.spec.n - 4) / 4.0) * stretched).real)
