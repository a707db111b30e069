"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The alpha sweep backing criteria 7 and 8 is computed once per
session.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from conftest import even_gaussian_field
from paneitz.bubble import (
    BubbleParams,
    bubble_energy,
    bubble_field,
    expected_bubble_energy,
    pde_residual,
    pohozaev_identity_residual,
    pohozaev_witness,
)
from paneitz.constants import OperatorParams, constant_branch, sharp_constant, validate_schedule
from paneitz.diagnostics import quantization_check
from paneitz.field import PeriodicField, norms
from paneitz.geometry import ManifoldSpec, product_volume, sphere_volume
from paneitz.quadrature import geometric_edges, panel_rule
from paneitz.solver import (
    SolverOptions,
    bifurcation_alpha,
    linearized_operator,
    newton_solve,
)
from paneitz.sweep import SweepConfig, run_sweep

SPEC = ManifoldSpec(5, 1.0)
V5 = product_volume(SPEC)
SWEEP_ALPHAS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def report(number: int, ok: bool, elapsed: float, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} ({elapsed:6.2f}s) {detail}")
    return ok


@pytest.fixture(scope="session")
def sweep_records():
    config = SweepConfig(spec=SPEC, alphas=SWEEP_ALPHAS)
    start = time.perf_counter()
    records = run_sweep(config)
    return records, time.perf_counter() - start


def test_criterion_1_sharp_constant():
    start = time.perf_counter()
    worst = 0.0
    with mpmath.workdps(60):
        for n in range(5, 13):
            oracle = float(
                mpmath.pi**2
                * n
                * (n - 4)
                * (n**2 - 4)
                * mpmath.gamma(mpmath.mpf(n) / 2) ** (mpmath.mpf(4) / n)
                * mpmath.gamma(n) ** (-mpmath.mpf(4) / n)
            )
            worst = max(worst, abs(sharp_constant(n)[1] - oracle) / oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, elapsed, f"sharp constant vs 60-digit oracle, worst rel err {worst:.2e}")


def test_criterion_2_extremal_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in (5, 6, 8, 12):
        for lam in (0.5, 1.0, 2.0):
            worst = max(worst, pde_residual(bubble_field(BubbleParams(n, lambda0=lam)), rmax=50.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(2, ok, elapsed, f"radial extremal residual sup {worst:.2e} on (0, 50]")


def test_criterion_3_extremal_energy():
    start = time.perf_counter()
    e1 = bubble_energy(BubbleParams(5, lambda0=1.0))
    e2 = bubble_energy(BubbleParams(5, lambda0=2.0))
    expected = expected_bubble_energy(5)
    err = abs(e1 - expected) / expected
    scale_dev = abs(e2 - e1) / e1
    elapsed = time.perf_counter() - start
    ok = err <= 1e-6 and scale_dev <= 1e-8 and elapsed < 1.0
    assert report(3, ok, elapsed, f"energy err {err:.2e}, scale invariance {scale_dev:.2e}")


def test_criterion_4_scaling_identity(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        sigma = rng.uniform(0.4, 2.0)
        coeffs = rng.normal(size=3)
        coeffs[0] += 2.0
        w = even_gaussian_field(5, sigma, coeffs)
        worst = max(worst, abs(pohozaev_identity_residual(w, rmax=30.0)))
    v = bubble_field(BubbleParams(5))
    zero_witness = pohozaev_witness(v, 0.0, 0.0, 50.0)
    grad_witness = pohozaev_witness(v, 1.0, 0.0, 50.0)
    r, wq = panel_rule(geometric_edges(50.0 * 2.0**-20, 50.0), 24)
    lap_sq = sphere_volume(4) * float(np.sum(wq * np.asarray(v.laplacian(r)) ** 2 * r**4))
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-6
        and zero_witness == 0.0
        and grad_witness > 0.1 * lap_sq
        and elapsed < 5.0
    )
    assert report(
        4,
        ok,
        elapsed,
        f"identity residual {worst:.2e}; witness {grad_witness:.3g} > 0.1*{lap_sq:.3g}",
    )


def test_criterion_5_constant_branch(sweep_records):
    start = time.perf_counter()
    worst_res = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for frac in (1.0, 0.5):
            a = frac * alpha * alpha / 4.0
            params = OperatorParams(alpha, a)
            u_bar, _ = constant_branch(5, a, V5)
            sol = newton_solve(PeriodicField.constant(SPEC, u_bar, 32), params)
            worst_res = max(worst_res, sol.residual_sup)
    records, _ = sweep_records
    worst_identity = 0.0
    for rec in records:
        params = OperatorParams(rec.alpha, rec.a_alpha)
        u_bar, e_const = constant_branch(5, rec.a_alpha, V5)
        const = PeriodicField.constant(SPEC, u_bar, 32)
        rep = norms(const, params)
        worst_identity = max(worst_identity, abs(rep.pairing - rep.energy) / rep.energy)
    # the identity must also hold on accepted nonconstant solutions
    from paneitz.solver import minimize_quotient, rescale_to_solution

    for alpha in (2.0, 8.0):
        params = OperatorParams(alpha, alpha * alpha / 4.0)
        seed = PeriodicField.cosine(SPEC, params.a_alpha**0.125, 0.1, 64)
        sol = rescale_to_solution(minimize_quotient(seed, params), params)
        rep = norms(sol.field, params)
        worst_identity = max(worst_identity, abs(rep.pairing - sol.energy) / sol.energy)
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-13 and worst_identity <= 1e-8
    assert report(
        5, ok, elapsed,
        f"constant-branch residual {worst_res:.2e}; pairing-energy identity {worst_identity:.2e}",
    )


def test_criterion_6_bifurcation():
    start = time.perf_counter()
    exact = bifurcation_alpha(5, 1.0, 1)
    grid = np.arange(0.5, 1.5 + 1e-12, 1e-3)
    prev_sign = None
    crossing = None
    for alpha in grid:
        params = OperatorParams(float(alpha), float(alpha) ** 2 / 4.0)
        u_bar = params.a_alpha ** 0.125
        const = PeriodicField.constant(SPEC, u_bar, 32)
        op = linearized_operator(const, params)
        # restrict to the nonconstant modes: drop the constant direction
        op_nc = np.delete(np.delete(op, 0, axis=0), 0, axis=1)
        smallest = float(np.linalg.eigvalsh(0.5 * (op_nc + op_nc.conj().T))[0])
        sign = smallest > 0
        if prev_sign is not None and sign != prev_sign and crossing is None:
            crossing = float(alpha)
        prev_sign = sign
    elapsed = time.perf_counter() - start
    ok = (
        exact == pytest.approx(1.0, abs=1e-14)
        and crossing is not None
        and abs(crossing - 1.0) <= 1e-3 + 1e-12
        and elapsed < 10.0
    )
    assert report(
        6, ok, elapsed,
        f"closed form alpha*={exact}; numerical sign change at {crossing}",
    )


def test_criterion_7_energy_growth(sweep_records):
    records, elapsed = sweep_records
    e_m = [r.e_m_estimate for r in records]
    nonconstant_everywhere = all(
        r.is_nonconstant and r.e_nonconst is not None and r.e_nonconst < r.e_const
        for r in records
    )
    increasing = all(b > a for a, b in zip(e_m[1:], e_m[2:]))
    growth = e_m[-1] / e_m[1]
    bounded = all(r.e_m_estimate <= r.a_alpha ** 1.25 * V5 * (1 + 1e-12) for r in records)
    modes_ok = all(r.modes_used <= 512 for r in records)
    ok = (
        nonconstant_everywhere
        and increasing
        and growth >= 10.0
        and bounded
        and modes_ok
        and elapsed < 60.0
    )
    assert report(
        7, ok, elapsed,
        f"nonconstant branch on all alphas; E_m(128)/E_m(4) = {growth:.1f}; bound and <=512 modes hold",
    )


def test_criterion_8_concentration_trends(sweep_records):
    records, _ = sweep_records
    start = time.perf_counter()
    r_l2 = [r.r_l2 for r in records]
    r_grad = [r.r_grad_l2 for r in records]
    hess = [r.hessian_ratio_over_a for r in records]
    l2_mono = all(b <= a + 1e-12 for a, b in zip(r_l2, r_l2[1:]))
    grad_mono = all(b <= a + 1e-12 for a, b in zip(r_grad, r_grad[1:]))
    hess_mono = all(b <= a + 1e-12 for a, b in zip(hess, hess[1:]))
    final_small = r_l2[-1] < 0.2
    elapsed = time.perf_counter() - start
    ok = l2_mono and grad_mono and hess_mono and final_small
    assert report(
        8, ok, elapsed,
        f"R_L2 {r_l2[0]:.3f}->{r_l2[-1]:.1e}, R_gradL2 {r_grad[0]:.3f}->{r_grad[-1]:.1e}, "
        f"hessian/a {hess[0]:.3f}->{hess[-1]:.1e}, all nonincreasing",
    )


def test_criterion_9_energy_quantization():
    start = time.perf_counter()
    rep2 = quantization_check(5, expected_bubble_energy(5))
    rep_budget = quantization_check(5, 3.5 * expected_bubble_energy(5))
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep2.synthetic_rel_dev) <= 0.02
        and rep2.separation == 20.0
        and rep_budget.k_max == 3
        and elapsed < 5.0
    )
    assert report(
        9, ok, elapsed,
        f"two-profile energy dev {rep2.synthetic_rel_dev:+.3%} (|.| <= 2%); k_max(3.5 quanta) = {rep_budget.k_max}",
    )


def test_criterion_10_schedule_validator():
    start = time.perf_counter()
    grid = [float(x) for x in range(1, 129)]
    quarter = validate_schedule(lambda al: al * al / 4.0, grid)
    linear = validate_schedule(lambda al: al, grid)
    cubic_grid = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0]
    cubic = validate_schedule(lambda al: al**3, cubic_grid)
    flags_exact = all(
        ok == (al**3 <= al * al / 4.0) for al, ok in zip(cubic_grid, cubic.a1_ok)
    )
    elapsed = time.perf_counter() - start
    ok = (
        quarter.accepted
        and not linear.a2_proxy_ok
        and not linear.accepted
        and not cubic.accepted
        and not all(cubic.a1_ok)
        and flags_exact
    )
    assert report(
        10, ok, elapsed,
        "quarter-square accepted; linear fails growth proxy; cubic fails quarter bound with exact flags",
    )
