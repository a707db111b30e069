import csv
import io
import json
import math

import numpy as np
import pytest

from paneitz import solver as solver_mod
from paneitz import sweep as sweep_mod
from paneitz.constants import OperatorParams, constant_branch
from paneitz.field import PeriodicField, norms
from paneitz.geometry import ManifoldSpec, product_volume
from paneitz.solver import (
    ConvergenceError,
    SolverOptions,
    constant_eigenvalue,
    minimize_quotient,
    newton_solve,
    rescale_to_solution,
)
from paneitz.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    _nonconstant_solution,
    branch_continuation,
    emit,
    quarter_square,
    run_sweep,
)

SPEC = ManifoldSpec(5, 1.0)
V = product_volume(SPEC)


@pytest.fixture(scope="module")
def short_records():
    config = SweepConfig(spec=SPEC, alphas=(2.0, 4.0, 8.0))
    return run_sweep(config)


class TestConfig:
    def test_rejects_violating_schedule(self):
        with pytest.raises(ValueError, match="alpha\\^2/4"):
            SweepConfig(spec=SPEC, alphas=(1.0, 2.0), schedule=lambda al: al)

    def test_rejects_nan_schedule_value(self):
        # caught at construction, not when the sweep reaches the row
        with pytest.raises(ValueError, match="alpha=2.0: .*got nan"):
            SweepConfig(
                spec=SPEC,
                alphas=(1.0, 2.0, 4.0),
                schedule=lambda al: math.nan if al == 2.0 else quarter_square(al),
            )

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            SweepConfig(spec=SPEC, alphas=(2.0, 1.0))

    @pytest.mark.parametrize("delta", [0.0, 100.0, math.nan])
    def test_rejects_ball_radius_outside_half_circle(self, delta):
        # caught at construction, not after the first row is solved
        with pytest.raises(ValueError, match="delta must lie in"):
            SweepConfig(spec=SPEC, alphas=(2.0, 4.0), delta=delta)

    def test_default_ball_radius(self, short_records):
        # delta=None is the ball of radius L/8, bit for bit
        config = SweepConfig(spec=SPEC, alphas=(2.0,), delta=SPEC.period / 8.0)
        assert run_sweep(config) == short_records[:1]


class TestRunSweep:
    def test_below_bifurcation_constant_only(self):
        config = SweepConfig(spec=SPEC, alphas=(0.5,))
        (rec,) = run_sweep(config)
        assert rec.e_nonconst is None
        assert not rec.is_nonconstant
        assert rec.e_m_estimate == pytest.approx((0.0625) ** 1.25 * V, rel=1e-12)
        assert rec.e_m_estimate == pytest.approx(5.168, rel=1e-3)
        assert math.isnan(rec.r_grad_l2)  # constant row: no gradient ratio
        assert rec.r_l2 == pytest.approx(0.75, rel=1e-9)

    def test_nonconstant_branch_above_threshold(self, short_records):
        for rec in short_records:
            assert rec.is_nonconstant
            assert rec.e_nonconst is not None
            assert rec.e_nonconst < rec.e_const
            assert rec.e_m_estimate == rec.e_nonconst

    def test_constant_energy_closed_form(self, short_records):
        for rec in short_records:
            _, e_const = constant_branch(5, rec.a_alpha, V)
            assert rec.e_const == pytest.approx(e_const, rel=1e-13)

    def test_upper_bound_by_constant_energy(self, short_records):
        for rec in short_records:
            assert rec.e_m_estimate <= rec.a_alpha ** 1.25 * V * (1 + 1e-12)

    def test_rows_sorted_and_factorized(self, short_records):
        alphas = [r.alpha for r in short_records]
        assert alphas == sorted(alphas)
        for rec in short_records:
            assert rec.c_alpha + rec.d_alpha == pytest.approx(rec.alpha, rel=1e-12)
            assert rec.c_alpha * rec.d_alpha == pytest.approx(rec.a_alpha, rel=1e-12)

    def test_solver_failure_keeps_constant_row(self, monkeypatch):
        # with no backtracking steps Newton cannot move off a start that is
        # not already a solution, so the nonconstant attempts fail; the sweep
        # must still produce rows
        monkeypatch.setattr(SolverOptions, "max_backtracks", 0)
        monkeypatch.setattr(SolverOptions, "max_modes", 16)
        monkeypatch.setattr(solver_mod, "_SEED_MODES", 16)
        (rec,) = run_sweep(SweepConfig(spec=SPEC, alphas=(2.0,)))
        assert rec.e_nonconst is None
        assert rec.e_m_estimate == rec.e_const

    def test_failed_continuation_falls_back_to_a_fresh_solve(self, monkeypatch):
        # continuation raises at alpha = 16 of 2:128:7:log: that row is the
        # fresh mode-1 solve's, bit for bit, and the next row continues from it
        config = SweepConfig(spec=SPEC, alphas=tuple(np.geomspace(2.0, 128.0, 7)))
        plain = run_sweep(config)
        real_continuation, real_mode1 = sweep_mod.branch_continuation, sweep_mod.mode1_solution
        continued, fresh = [], []

        def continuation(prev, params):
            if params.alpha == 16.0:
                raise ConvergenceError("stub")
            sol = real_continuation(prev, params)
            continued.append(params.alpha)
            return sol

        def mode1(spec, params):
            fresh.append(params.alpha)
            return real_mode1(spec, params)

        monkeypatch.setattr(sweep_mod, "branch_continuation", continuation)
        monkeypatch.setattr(sweep_mod, "mode1_solution", mode1)
        records = run_sweep(config)
        row, after = records[3], records[4]
        assert row.alpha == 16.0 and row.is_nonconstant
        assert row.e_nonconst == real_mode1(SPEC, config.params[3]).energy
        assert fresh == [2.0, 16.0] and after.alpha in continued and after.is_nonconstant
        assert abs(after.e_nonconst - plain[4].e_nonconst) <= 1e-13 * plain[4].e_nonconst


class TestContinuation:
    def test_follows_branch(self):
        params0 = OperatorParams(2.0, 1.0)
        seed = PeriodicField.from_function(
            SPEC, lambda s: 1.0 + 0.05 * np.cos(2 * math.pi * s / SPEC.period), 64
        )
        sol0 = rescale_to_solution(minimize_quotient(seed, params0), params0)
        params1 = OperatorParams(2.5, quarter_square(2.5))
        sol1 = branch_continuation(sol0, params1)
        assert not sol1.is_constant
        assert sol1.params.alpha == 2.5
        assert sol1.energy > sol0.energy

    def test_constant_branch_continues_to_constant(self):
        # the constant persists as a solution for every alpha, including
        # across the mode-1 instability threshold
        params0 = OperatorParams(0.5, quarter_square(0.5))
        u0 = PeriodicField.constant(SPEC, quarter_square(0.5) ** 0.125, 32)
        sol0 = newton_solve(u0, params0)
        for alpha in (0.8, 1.5):
            params1 = OperatorParams(alpha, quarter_square(alpha))
            sol1 = branch_continuation(sol0, params1)
            assert sol1.is_constant
            u_bar, _ = constant_branch(5, quarter_square(alpha), V)
            assert sol1.field.mean == pytest.approx(u_bar, rel=1e-10)

    def test_one_solve_per_call(self, monkeypatch):
        cause = ConvergenceError("stub")
        params0 = OperatorParams(2.0, 1.0)
        sol0 = newton_solve(PeriodicField.constant(SPEC, 1.0, 32), params0)
        calls = []

        def failing_solve(init, params):
            calls.append(params)
            raise cause

        monkeypatch.setattr("paneitz.sweep.newton_solve", failing_solve)
        params1 = OperatorParams(4.0, 4.0)
        with pytest.raises(ConvergenceError) as info:
            branch_continuation(sol0, params1)
        assert calls == [params1]
        assert str(info.value) == "branch lost between alpha=2.0 and alpha=4.0: stub"
        assert info.value.__cause__ is cause


def nonconstant_solutions(config):
    """The nonconstant solutions behind the E_nonconst column of a sweep of
    ``config``, found as ``run_sweep`` finds them."""
    sols, prev = [], None
    for params in config.params:
        if constant_eigenvalue(config.spec, params, 1) < 0.0:
            sol = _nonconstant_solution(config, params, prev)
            if sol is not None:
                sols.append(sol)
                prev = sol
    return sols


class TestEnergyAlongAlpha:
    # The envelope identity.  At a solution <Pu, u> = int u^(2#) = E, so the
    # functional J(u) = <Pu, u>/2 - int u_+^(2#)/2# equals (2/n) E; along a
    # branch dJ/dalpha is the partial derivative in alpha, so
    # dE/dalpha = (n/4) (int |grad u|^2 + a'(alpha) int u^2).
    # A five-point stencil at h = 1e-4 alpha has truncation error
    # O((h/alpha)^4); a central difference's (h/alpha)^2 (k-1)(k-2)/6,
    # k = (n-1)/2, reads up to 6.2e-9 at n = 8.  Measured within 3.5e-12 on
    # the 50 nonconstant rows.
    @pytest.mark.parametrize("ratio", [4.0, 8.0])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_derivative_of_the_energy(self, n, ratio):
        config = SweepConfig(
            spec=ManifoldSpec(n, 1.0),
            alphas=tuple(np.geomspace(2.0, 128.0, 7)),  # the default grid 2:128:7:log
            schedule=lambda alpha: alpha * alpha / ratio,
        )
        sols = nonconstant_solutions(config)
        assert len(sols) >= 5
        for sol in sols:
            alpha = sol.params.alpha
            h = 1e-4 * alpha
            energy = {
                k: branch_continuation(sol, OperatorParams(alpha + k * h, (alpha + k * h) ** 2 / ratio)).energy
                for k in (-2, -1, 1, 2)
            }
            stencil = (8.0 * (energy[1] - energy[-1]) - (energy[2] - energy[-2])) / (12.0 * h)
            report = norms(sol.field)
            identity = n / 4.0 * (report.grad_l2 + 2.0 * alpha / ratio * report.l2)
            assert stencil == pytest.approx(identity, rel=1e-10), alpha


class TestEmit:
    def test_csv_shape(self, short_records):
        text = emit(short_records[:1], "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_csv_header_is_fixed(self, short_records):
        assert emit(short_records[:1], "csv").split("\n")[0] == (
            "alpha,a_alpha,c_alpha,d_alpha,E_const,E_nonconst,E_m_estimate,lambda_quotient,"
            "lambda_below_k0_inv2,is_nonconstant,R_L2,R_gradL2,hessian_ratio_over_a,"
            "modes_used,newton_iters,residual_sup"
        )

    def test_csv_round_trip_17_digits(self, short_records):
        text = emit(short_records, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(short_records)
        float_columns = {
            "alpha": "alpha",
            "a_alpha": "a_alpha",
            "c_alpha": "c_alpha",
            "d_alpha": "d_alpha",
            "E_const": "e_const",
            "E_nonconst": "e_nonconst",
            "E_m_estimate": "e_m_estimate",
            "lambda_quotient": "lambda_quotient",
            "R_L2": "r_l2",
            "R_gradL2": "r_grad_l2",
            "hessian_ratio_over_a": "hessian_ratio_over_a",
            "residual_sup": "residual_sup",
        }
        for row, rec in zip(rows, short_records):
            for column, attr in float_columns.items():
                assert float(row[column]) == getattr(rec, attr), column
            assert row["is_nonconstant"] == ("true" if rec.is_nonconstant else "false")
            assert row["lambda_below_k0_inv2"] in ("true", "false")
            assert int(row["modes_used"]) == rec.modes_used
            assert int(row["newton_iters"]) == rec.newton_iters

    def test_absent_branch_is_empty_cell(self):
        config = SweepConfig(spec=SPEC, alphas=(0.5,))
        text = emit(run_sweep(config), "csv")
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["E_nonconst"] == ""

    def test_json_keys_and_values(self, short_records):
        payload = json.loads(emit(short_records, "json"))
        assert [set(r.keys()) for r in payload] == [set(CSV_COLUMNS)] * len(short_records)
        assert payload[0]["alpha"] == 2.0
        assert isinstance(payload[0]["is_nonconstant"], bool)

    def test_reruns_are_byte_identical(self):
        config = SweepConfig(spec=SPEC, alphas=(2.0, 4.0))
        first = emit(run_sweep(config), "csv")
        second = emit(run_sweep(config), "csv")
        assert first == second

    def test_write_failure_has_path_context(self, short_records, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            emit(short_records, "csv", target)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            emit([], "csv")
