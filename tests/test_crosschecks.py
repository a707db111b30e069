"""Independent cross-validations of the solver pipeline.

* A second-order finite-difference discretization with its own damped Newton
  iteration (sparse stencil matrices, nothing shared with the spectral code
  path) must reproduce the nonconstant solution's energy, with the expected
  fourth-order Richardson behavior of the squared stencil error.
* The circle rescaling s -> s/t maps solutions at (t=1, alpha, a) to
  solutions at (t, alpha/t^2, a/t^4) with amplitude t^(-1/2), hence energies
  scale exactly by t^(-4).  This exercises every spectral weight, volume
  factor, and symbol in one identity.
* On the quarter-square schedule a = alpha^2/4 the energy function is one
  function of T = t sqrt(alpha): E(alpha, t) = alpha^((n-1)/2) E(1, T).  A
  k-peak solution on S^1(t) is a 1-peak solution on S^1(t/k) repeated k
  times, with k times its energy.
* At the geometric point (alpha_g, a_g) = ((n^2 - 4n + 8)/2, (n(n-4)/4)^2) P is
  the Paneitz operator of the product metric on fields constant on the
  sphere.  R^n minus 0 is conformal to the cylinder R x S^(n-1), so the
  extremal becomes the homoclinic c_n (2 cosh s)^(-(n-4)/2), of energy one
  quantum q; the circle solution tends to it as t grows, its deficit q - E
  falling like e^(-(n-4) pi t).
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.linalg import spsolve

from paneitz.bubble import expected_bubble_energy
from paneitz.constants import OperatorParams, bubble_coefficient, constant_branch
from paneitz.field import PeriodicField
from paneitz.geometry import ManifoldSpec, product_volume, sphere_volume
from paneitz.solver import (
    SolverOptions,
    minimize_quotient,
    mode1_solution,
    newton_solve,
    rescale_to_solution,
)

SPEC = ManifoldSpec(5, 1.0)


def spectral_solution(alpha, a, spec=SPEC, modes=64):
    params = OperatorParams(alpha, a)
    seed = PeriodicField.cosine(spec, a ** ((spec.n - 4) / 8.0), 0.1, modes)
    return rescale_to_solution(minimize_quotient(seed, params), params)


def circulant_band(size, stencil):
    half = len(stencil) // 2
    idx = np.arange(size)
    rows, cols, vals = [], [], []
    for value, offset in zip(stencil, range(-half, half + 1)):
        rows.append(idx)
        cols.append((idx + offset) % size)
        vals.append(np.full(size, value))
    return csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


def finite_difference_energy(sol, size):
    """Re-solve on a uniform grid with central differences and damped Newton,
    seeded by interpolating the spectral solution; return the energy."""
    alpha, a = sol.params.alpha, sol.params.a_alpha
    h = 2 * math.pi / size
    d2 = circulant_band(size, [1.0, -2.0, 1.0]) / h**2
    d4 = circulant_band(size, [1.0, -4.0, 6.0, -4.0, 1.0]) / h**4
    lin = d4 - alpha * d2 + a * identity(size, format="csr")

    s = np.arange(size) * h
    grid = np.append(sol.field.fine_grid(), 2 * math.pi)
    vals = np.append(sol.field.fine_values(), sol.field.fine_values()[0])
    u = np.interp(s, grid, vals)

    def residual(v):
        return lin @ v - np.maximum(v, 0.0) ** 9

    res = np.max(np.abs(residual(u)))
    for _ in range(40):
        if res < 1e-10 * max(1.0, float(np.max(u)) ** 9):
            break
        jac = lin - diags([9 * np.maximum(u, 0.0) ** 8], [0], format="csr")
        step = spsolve(jac.tocsc(), residual(u))
        eta, cand_res = 1.0, res
        for _ in range(40):
            cand = u - eta * step
            cand_res = np.max(np.abs(residual(cand)))
            if cand_res < res:
                break
            eta *= 0.5
        if cand_res >= res:
            break
        u, res = cand, cand_res
    omega = sphere_volume(4)
    return omega * 2 * math.pi * float(np.mean(u**10))


class TestFiniteDifferenceOracle:
    def test_energy_agreement_and_convergence(self):
        sol = spectral_solution(8.0, 16.0)
        coarse = finite_difference_energy(sol, 1024)
        fine = finite_difference_energy(sol, 2048)
        err_coarse = abs(coarse - sol.energy) / sol.energy
        err_fine = abs(fine - sol.energy) / sol.energy
        assert err_coarse <= 2e-5
        assert err_fine <= 5e-6
        # second-order stencils: halving h divides the defect by about four
        assert 2.5 <= err_coarse / err_fine <= 8.0
        richardson = fine + (fine - coarse) / 3.0
        assert abs(richardson - sol.energy) / sol.energy <= 2e-6


class TestCircleRescaling:
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_energy_covariance(self, t):
        # u(s) on t=1 at (alpha, a) maps to t^(-1/2) u(s/t) on radius t at
        # (alpha/t^2, a/t^4); energies scale by t^(-4)
        alpha, a = 8.0, 16.0
        base = spectral_solution(alpha, a)
        spec_t = ManifoldSpec(5, t)
        scaled = spectral_solution(alpha / t**2, a / t**4, spec=spec_t)
        assert scaled.energy == pytest.approx(base.energy / t**4, rel=1e-8)
        assert not scaled.is_constant
        # peak values scale like t^(-1/2)
        peak_base = float(np.max(base.field.fine_values()))
        peak_scaled = float(np.max(scaled.field.fine_values()))
        assert peak_scaled == pytest.approx(peak_base / math.sqrt(t), rel=1e-8)

    def test_constant_branch_covariance(self):
        # the closed-form constant energy obeys the same scaling
        from paneitz.constants import constant_branch
        from paneitz.geometry import product_volume

        t = 0.25
        _, e1 = constant_branch(5, 16.0, product_volume(ManifoldSpec(5, 1.0)))
        _, et = constant_branch(5, 16.0 / t**4, product_volume(ManifoldSpec(5, t)))
        assert et == pytest.approx(e1 / t**4, rel=1e-12)


class TestEnergyFunctionIdentities:
    @pytest.mark.parametrize("n", [5, 8])
    def test_alpha_t_collapse(self, n):
        # u(s) = alpha^((n-4)/4) v(sqrt(alpha) s) maps alpha = 1 on S^1(4) to
        # alpha = 16 on S^1(1); the discrete problems are the same up to scale
        big = mode1_solution(ManifoldSpec(n, 1.0), OperatorParams(16.0, 64.0))
        unit = mode1_solution(ManifoldSpec(n, 4.0), OperatorParams(1.0, 0.25))
        assert not big.is_constant
        assert big.energy == pytest.approx(16.0 ** ((n - 1) / 2) * unit.energy, rel=1e-13)

    @pytest.mark.parametrize("n", [5, 8])
    def test_two_peak_tiling(self, n):
        # c'_{2m} = c_m repeats the S^1(1/2) solution twice around S^1(1)
        params = OperatorParams(16.0, 64.0)
        one = mode1_solution(ManifoldSpec(n, 0.5), params)
        tiled = np.zeros(2 * one.field.coeffs.size - 1, dtype=complex)
        tiled[::2] = one.field.coeffs
        two = newton_solve(PeriodicField(ManifoldSpec(n, 1.0), tiled), params)
        assert not two.is_constant
        assert two.energy == pytest.approx(2.0 * one.energy, rel=1e-13)


def geometric_solution(n, t):
    """``mode1_solution`` at the geometric point on S^1(t) x S^(n-1), with
    the mode cap raised to 1024."""
    params = OperatorParams((n * n - 4 * n + 8) / 2.0, (n * (n - 4) / 4.0) ** 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SolverOptions, "max_modes", 1024)
        return mode1_solution(ManifoldSpec(n, t), params)


class TestGeometricPoint:
    # where the deficit q - E is above rounding
    DEFICIT_POINTS = [(n, t) for n in (5, 6, 7) for t in (1, 2, 3)] + [(8, 1), (8, 2)]
    QUANTUM_POINTS = [(8, 4), (8, 6), (7, 4), (6, 6)]

    @pytest.fixture(scope="class")
    def solutions(self):
        return {point: geometric_solution(*point) for point in self.DEFICIT_POINTS + self.QUANTUM_POINTS}

    @pytest.mark.parametrize("n, t", QUANTUM_POINTS)
    def test_long_circle_carries_one_quantum(self, solutions, n, t):
        # measured within 1.1e-15
        assert solutions[n, t].energy == pytest.approx(expected_bubble_energy(n), rel=1e-14)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_deficit_falls_like_the_homoclinic_tail_squared(self, solutions, n):
        q = expected_bubble_energy(n)
        deficits = [q - solutions[n, t].energy for t in ((1, 2) if n == 8 else (1, 2, 3))]
        assert all(d > 0.0 for d in deficits)
        # measured within 5.3% of e^((n-4) pi) per unit t
        for ratio in np.array(deficits[:-1]) / np.array(deficits[1:]):
            assert ratio == pytest.approx(math.exp((n - 4) * math.pi), rel=0.1)

    def test_constant_is_not_the_minimizer(self, solutions):
        for (n, t), sol in solutions.items():
            assert not sol.is_constant
            assert sol.energy < constant_branch(n, sol.params.a_alpha, product_volume(sol.field.spec))[1]

    @staticmethod
    def homoclinic(n, s):
        return bubble_coefficient(n) * (2.0 * np.cosh(s)) ** (-(n - 4) / 2.0)

    @staticmethod
    def offsets(sol):
        """Fine-grid samples of u and their signed offsets from its peak,
        wrapped into [-L/2, L/2)."""
        u, s, length = sol.field.fine_values(), sol.field.fine_grid(), sol.field.spec.period
        return u, (s - s[np.argmax(u)] + length / 2) % length - length / 2

    @pytest.mark.parametrize("n, t", DEFICIT_POINTS + QUANTUM_POINTS)
    def test_profile_is_the_homoclinic_to_its_half_period_value(self, solutions, n, t):
        # sup|u - v| read within 1.01 v(pi t), except at (8, 6), where both
        # sides are rounding: 6.3e-16 c_n against v(pi t) = 4.2e-17 c_n
        u, d = self.offsets(solutions[n, t])
        half = self.homoclinic(n, math.pi * t)
        assert np.max(np.abs(u - self.homoclinic(n, d))) <= 2.0 * half + 4e-15 * bubble_coefficient(n)

    @pytest.mark.parametrize("n, t", DEFICIT_POINTS + QUANTUM_POINTS)
    def test_profile_is_the_periodized_homoclinic_to_second_order(self, solutions, n, t):
        # sup|u - sum_k v(s - kL)| c_n / v(pi t)^2 read 2.6, 3.5, 4.9 and 7.1 for
        # n = 5..8 at the deficit points; at the long circles it is rounding
        sol = solutions[n, t]
        u, d = self.offsets(sol)
        periodized = sum(self.homoclinic(n, d - k * sol.field.spec.period) for k in range(-3, 4))
        c_n, half = bubble_coefficient(n), self.homoclinic(n, math.pi * t)
        assert np.max(np.abs(u - periodized)) <= 10.0 * half**2 / c_n + 4e-15 * c_n

    @pytest.mark.parametrize("n, t", DEFICIT_POINTS + QUANTUM_POINTS)
    def test_sampled_homoclinic_start_reaches_the_same_solution(self, monkeypatch, solutions, n, t):
        # Newton from the periodized homoclinic sum_k v(s - kL): a start built
        # from samples, so its spectrum is complex until newton_solve's one
        # projection.  Measured within 7.9e-14 of the peak.
        sol = solutions[n, t]
        length = sol.field.spec.period
        start = PeriodicField.from_function(
            sol.field.spec, lambda s: sum(self.homoclinic(n, s - k * length) for k in range(-3, 4))
        )
        assert start.coeffs.dtype == np.complex128
        monkeypatch.setattr(SolverOptions, "max_modes", 1024)
        got = newton_solve(start, sol.params)
        assert got.field.coeffs.dtype == np.float64
        assert got.modes == sol.modes
        peak = float(np.max(sol.field.fine_values()))
        assert np.max(np.abs(got.field.fine_values() - sol.field.fine_values())) <= 1e-12 * peak
