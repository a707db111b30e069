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
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.linalg import spsolve

from paneitz.constants import OperatorParams
from paneitz.field import PeriodicField
from paneitz.geometry import ManifoldSpec, sphere_volume
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
        big = mode1_solution(ManifoldSpec(n, 1.0), OperatorParams(16.0, 64.0), SolverOptions())
        unit = mode1_solution(ManifoldSpec(n, 4.0), OperatorParams(1.0, 0.25), SolverOptions())
        assert not big.is_constant
        assert big.energy == pytest.approx(16.0 ** ((n - 1) / 2) * unit.energy, rel=1e-13)

    @pytest.mark.parametrize("n", [5, 8])
    def test_two_peak_tiling(self, n):
        # c'_{2m} = c_m repeats the S^1(1/2) solution twice around S^1(1)
        params = OperatorParams(16.0, 64.0)
        one = mode1_solution(ManifoldSpec(n, 0.5), params, SolverOptions())
        tiled = np.zeros(2 * one.field.coeffs.size - 1, dtype=complex)
        tiled[::2] = one.field.coeffs
        two = newton_solve(PeriodicField(ManifoldSpec(n, 1.0), tiled), params)
        assert not two.is_constant
        assert two.energy == pytest.approx(2.0 * one.energy, rel=1e-13)
