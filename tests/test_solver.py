import dataclasses
import re
import warnings

import numpy as np
import pytest

from paneitz import solver as solver_mod
from paneitz.constants import OperatorParams, constant_branch, critical_exponent, green_minimum, sharp_constant
from paneitz.field import PeriodicField, _pair_counts, _parseval_weights, load_field, norms, save_field
from paneitz.geometry import ManifoldSpec, product_volume
from paneitz.solver import (
    ConvergenceError,
    QuotientMinimum,
    SolverOptions,
    bifurcation_alpha,
    constant_eigenvalue,
    continuation_init,
    linearized_operator,
    linearized_spectrum,
    minimize_quotient,
    mode1_solution,
    newton_solve,
    quotient,
    rescale_to_solution,
    residual,
)
from paneitz.solver import (
    _back_substitute,
    _cosine_amplitudes,
    _cosine_block,
    _jacobian_weight,
    _nonlinear_coeffs,
    _nonlinear_scale,
    _solve_krylov,
    _symbol,
    _tail_fraction,
)
from paneitz.sweep import branch_continuation

SPEC = ManifoldSpec(5, 1.0)
L = SPEC.period
V = product_volume(SPEC)


def constant_init(a, modes=64, spec=SPEC):
    u_bar = a ** ((spec.n - 4) / 8.0)
    return PeriodicField.constant(spec, u_bar, modes)


def perturbed_init(a, amplitude=0.1, modes=64, spec=SPEC):
    u_bar = a ** ((spec.n - 4) / 8.0)
    return PeriodicField.cosine(spec, u_bar, amplitude, modes)


def assert_same_solution(sol, ref):
    # bit for bit: coefficients, residual, energy and quotient
    assert np.array_equal(sol.field.coeffs, ref.field.coeffs)
    assert (sol.residual_sup, sol.energy, sol.lambda_quotient) == (ref.residual_sup, ref.energy, ref.lambda_quotient)
    assert (sol.is_constant, sol.newton_iters) == (ref.is_constant, ref.newton_iters)


def assert_even_about_origin(sol):
    # a real half spectrum, so u(-s) = u(s) by type, and the peak at s = 0
    assert sol.field.coeffs.dtype == np.float64
    fine = sol.field.fine_values()
    assert fine[0] == np.max(fine)


class TestResidual:
    @pytest.mark.parametrize("alpha,a", [(2.0, 1.0), (0.5, 0.0625), (8.0, 16.0)])
    def test_constant_branch_is_exact(self, alpha, a):
        params = OperatorParams(alpha, a)
        res = residual(constant_init(a), params)
        assert np.max(np.abs(res.values)) < 1e-13

    def test_zero_field(self):
        params = OperatorParams(2.0, 1.0)
        res = residual(PeriodicField.constant(SPEC, 0.0, 32), params)
        assert np.max(np.abs(res.values)) == 0.0

    def test_bump_is_not_a_solution(self):
        params = OperatorParams(2.0, 1.0)
        u = PeriodicField.from_function(
            SPEC, lambda s: 1.0 + np.exp(-10 * np.minimum(s, L - s) ** 2), 128
        )
        assert np.max(np.abs(residual(u, params).values)) > 0.01


class TestNewton:
    def test_exact_constant_accepted_without_iterations(self):
        params = OperatorParams(2.0, 1.0)
        sol = newton_solve(constant_init(1.0), params)
        assert sol.newton_iters == 0
        assert sol.is_constant
        assert sol.residual_sup < 1e-13

    @pytest.mark.parametrize("modes", [16, 32, 64, 128])
    def test_works_at_the_starts_own_mode_count(self, modes):
        sol = newton_solve(constant_init(1.0, modes=modes), OperatorParams(2.0, 1.0))
        assert sol.modes == modes

    def test_stagnation_near_tolerance_is_a_failure(self, monkeypatch):
        # tol_eff is the one acceptance rule: a start within 10 tol_eff that
        # no step improves (no backtracks) stagnates in iteration 1 and fails
        params = OperatorParams(8.0, 16.0)
        monkeypatch.setattr(solver_mod, "_SEED_MODES", 128)
        monkeypatch.setattr(SolverOptions, "max_modes", 128)
        sol = mode1_solution(SPEC, params)
        coeffs = sol.field.coeffs.copy()
        coeffs[0] += 1e-13
        start = PeriodicField(SPEC, coeffs)
        monkeypatch.setattr(SolverOptions, "max_backtracks", 0)
        tol_eff = max(SolverOptions.tol, SolverOptions.rtol * _nonlinear_scale(start))
        start_sup = float(np.max(np.abs(residual(start, params).values)))
        assert tol_eff < start_sup <= 10.0 * tol_eff
        with pytest.raises(ConvergenceError, match=r"Newton stagnated at residual \S+ after 1 iterations") as exc:
            newton_solve(start, params)
        assert np.array_equal(exc.value.last.coeffs, coeffs)
        assert exc.value.residual_sup == start_sup

    def test_below_bifurcation_returns_constant(self):
        params = OperatorParams(0.5, 0.0625)
        sol = newton_solve(perturbed_init(0.0625, 0.05), params)
        assert sol.is_constant
        u_bar, e_const = constant_branch(5, 0.0625, V)
        assert sol.field.mean == pytest.approx(u_bar, rel=1e-9)
        assert sol.energy == pytest.approx(e_const, rel=1e-9)

    def test_above_bifurcation_nonconstant_with_lower_energy(self):
        # the unstable constant is a saddle: descent escapes it, Newton holds
        # the nonconstant branch it lands on
        params = OperatorParams(2.0, 1.0)
        qm = minimize_quotient(perturbed_init(1.0), params)
        sol = rescale_to_solution(qm, params)
        assert not sol.is_constant
        _, e_const = constant_branch(5, 1.0, V)
        assert sol.energy < e_const
        assert sol.residual_sup <= 1e-10
        assert float(np.min(sol.field.fine_values())) > 0.0

    def test_newton_holds_nonconstant_branch(self):
        params = OperatorParams(2.0, 1.0)
        base = rescale_to_solution(minimize_quotient(perturbed_init(1.0), params), params)
        nudged = PeriodicField(SPEC, base.field.coeffs * 1.001)
        again = newton_solve(nudged, params)
        assert not again.is_constant
        assert again.energy == pytest.approx(base.energy, rel=1e-9)

    def test_energy_identity(self):
        # multiplying the equation by u: <Pu, u> equals the critical integral
        params = OperatorParams(2.0, 1.0)
        sol = rescale_to_solution(minimize_quotient(perturbed_init(1.0), params), params)
        rep = norms(sol.field, params)
        assert abs(rep.pairing - sol.energy) <= 1e-8 * sol.energy

    def test_translation_invariance(self):
        params = OperatorParams(2.0, 1.0)
        a = rescale_to_solution(minimize_quotient(perturbed_init(1.0), params), params)
        shifted = a.field.shift(1.234)
        b = newton_solve(shifted, params)
        assert b.energy == pytest.approx(a.energy, rel=1e-9)
        # both are translated to put the maximum at s = 0
        assert np.max(np.abs(a.field.resample(b.modes).values - b.field.values)) < 1e-7

    def test_maximum_recentered_at_origin(self):
        params = OperatorParams(4.0, 4.0)
        qm = minimize_quotient(perturbed_init(4.0).shift(2.0), params)
        sol = rescale_to_solution(qm, params)
        fine = sol.field.fine_values()
        assert int(np.argmax(fine)) in (0, fine.size - 1, 1)

    def test_rejects_nonpositive_init(self):
        params = OperatorParams(2.0, 1.0)
        with pytest.raises(ValueError):
            newton_solve(PeriodicField.constant(SPEC, -1.0, 32), params)

    def test_mode_adaptation_reports_resolution(self):
        params = OperatorParams(32.0, 256.0)
        qm = minimize_quotient(perturbed_init(256.0, modes=32), params)
        sol = rescale_to_solution(qm, params)
        assert sol.modes > 32  # concentration demands refinement
        assert sol.residual_sup <= 1e-9

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_reported_residual_is_the_equations(self, n):
        # Newton iterates on the equation's residual P u - u_+^(2#-1), so the
        # sup it reports is that of the field it returns, bit for bit
        spec = ManifoldSpec(n, 1.0)
        params = OperatorParams(8.0, 16.0)
        fresh = mode1_solution(spec, params)
        moved = newton_solve(fresh.field.shift(0.3 * spec.period).scaled(1.1), params)
        flat = newton_solve(constant_init(16.0, spec=spec), params)
        for sol in (fresh, moved, flat):
            assert sol.residual_sup == float(np.max(np.abs(residual(sol.field, params).values)))

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("max_backtracks", 0, "Newton stagnated at residual 2.067e+02 after 1 iterations"),
            ("max_backtracks", 2, "Newton stagnated at residual 3.478e+01 after 6 iterations"),
            ("max_iter", 0, "no convergence after 0 iterations, residual 2.067e+02"),
            ("max_iter", 5, "no convergence after 5 iterations, residual 3.478e+01"),
        ],
        ids=["stagnation-1", "stagnation-6", "cap-0", "cap-5"],
    )
    def test_failure_messages_pinned(self, monkeypatch, name, value, message):
        params = OperatorParams(8.0, 16.0)
        monkeypatch.setattr(SolverOptions, name, value)
        with pytest.raises(ConvergenceError) as exc:
            newton_solve(perturbed_init(16.0, 0.3), params)
        assert str(exc.value) == message
        last = exc.value.last
        assert exc.value.residual_sup == float(np.max(np.abs(residual(last, params).values)))

    def test_trivial_root_is_rejected(self):
        # a start 0.6 times a solution falls to u = 0; every positive solution
        # has max u >= a^((n-4)/8) (here 2^(1/2)), so this one is refused
        spec = ManifoldSpec(5, 0.5)
        params = OperatorParams(8.0, 16.0)
        sol = mode1_solution(spec, params)
        assert float(np.max(sol.field.fine_values())) >= 16.0 ** (1.0 / 8.0)
        with pytest.raises(ConvergenceError, match="converged to the trivial solution"):
            newton_solve(sol.field.scaled(0.6), params)

    def test_trivial_root_with_a_negative_sample_is_named(self, monkeypatch):
        # this start falls to u = 0 with a rounding-level negative fine
        # sample; the trivial-root bound, not the sign of a sample, names it.
        # Below the mode-1 threshold (alpha = 2 < 4 at t = 0.5) the start is
        # the polished quotient minimizer, constant up to rounding: from the
        # exact constant the fall ends at exactly 0.0
        spec = ManifoldSpec(5, 0.5)
        params = OperatorParams(2.0, 1.0)
        sol = rescale_to_solution(minimize_quotient(perturbed_init(1.0, spec=spec), params), params)
        start = sol.field.shift(spec.period / 3.0).scaled(0.3)
        ends = []
        fixed = solver_mod._newton_fixed

        def recording(u, params):
            out = fixed(u, params)
            ends.append(out[0])
            return out

        monkeypatch.setattr(solver_mod, "_newton_fixed", recording)
        with pytest.raises(ConvergenceError, match=r"converged to the trivial solution \(max ") as info:
            newton_solve(start, params)
        # the printed max is rounding-level; its digits move with the solver's rounding
        assert float(re.search(r"max (\S+) <", str(info.value)).group(1)) < 1e-30
        low = float(np.min(ends[-1].fine_values()))
        assert -1e-30 < low < 0.0

    def test_sign_changing_start_reaches_the_constant(self):
        # negative samples add nothing to the nonlinearity, and Newton on
        # P u - u_+^(2#-1) takes this start to the constant, not to u = 0;
        # residual 1e-11 and mode 0 of the Jacobian, -(2#-2) a = -2, leave
        # mean u off by up to 5e-12
        spec = ManifoldSpec(8, 1.0)
        params = OperatorParams(2.0, 1.0)
        c = (0.7841385236547793, 0.44172993062562105, -0.8612833476598551, 0.28623592376393225)
        start = PeriodicField.from_function(
            spec,
            lambda s: 0.3 + c[0] * np.cos(s) + c[1] * np.sin(2 * s) + c[2] * np.cos(3 * s)
            + c[3] * np.sin(5 * s),
            64,
        )
        assert float(np.min(start.values)) < 0.0
        sol = newton_solve(start, params)
        assert sol.is_constant
        u_bar, e_const = constant_branch(8, 1.0, product_volume(spec))
        assert sol.field.mean == pytest.approx(u_bar, rel=1e-11)
        assert sol.energy == pytest.approx(e_const, rel=1e-10)

    def test_start_above_max_modes_is_rejected(self, monkeypatch):
        start = constant_init(1.0, modes=1024)
        with pytest.raises(ValueError, match=r"initial field has 1024 modes, above max_modes \(512\)"):
            newton_solve(start, OperatorParams(2.0, 1.0))
        monkeypatch.setattr(SolverOptions, "max_modes", 1024)
        sol = newton_solve(start, OperatorParams(2.0, 1.0))
        assert sol.modes == 1024

    def test_unconverged_krylov_solve_is_named(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_KRYLOV_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as exc:
            mode1_solution(SPEC, OperatorParams(8.0, 16.0))
        assert str(exc.value) == (
            "linear solve failed: Krylov solve: relative residual above 1e-14 after 2 GMRES iterations"
        )
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_newton_rhs_beyond_float64_is_named(self):
        # the residual of a constant 1e20 start, 1e180 at n = 5, is within
        # float64, but the norm of the Newton step's right-hand side is not
        start = PeriodicField.constant(SPEC, 1e20, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError) as exc:
                newton_solve(start, OperatorParams(4.0, 4.0))
        assert str(exc.value) == "right-hand side of the Newton step has a norm outside the float64 range"

    def test_fixed_settings_are_not_options(self):
        assert not dataclasses.is_dataclass(SolverOptions)
        for name in ("tol", "rtol", "max_iter", "max_backtracks", "tail_tol", "max_modes"):
            with pytest.raises(TypeError):
                SolverOptions(**{name: getattr(SolverOptions, name)})
        assert (SolverOptions().tol, SolverOptions().rtol, SolverOptions.max_modes) == (1e-11, 5e-15, 512)


@pytest.fixture(scope="module")
def concentrated():
    """The n=5, alpha=128 mode1 solution, refined to 512 modes."""
    params = OperatorParams(128.0, 4096.0)
    return rescale_to_solution(minimize_quotient(perturbed_init(params.a_alpha), params), params)


class TestMovedStarts:
    # Regression: a translated and rescaled copy of a concentrated solution,
    # read back from its field file, must return to the same solution
    # (Newton used to stagnate for half of these starts).
    # L / 6144 is half a spacing of the 512-mode field's 3072-point fine
    # grid: the farthest a start can be from the axis the grid maximum gives
    @pytest.mark.parametrize("s0", [0.3, 1.0, 2.6425, 5.0907, L / 6144])
    @pytest.mark.parametrize("scale", [0.98, 1.0005, 1.04])
    def test_returns_to_unshifted_energy(self, concentrated, tmp_path, s0, scale):
        assert concentrated.field.fine_size() == 3072
        path = tmp_path / "moved.field"
        save_field(concentrated.field.shift(s0).scaled(scale), path)
        sol = newton_solve(load_field(path), concentrated.params)
        assert sol.energy == pytest.approx(concentrated.energy, rel=1e-9)
        assert_even_about_origin(sol)

    # the fine grid of the 512-mode field has spacing L / 3072; these starts
    # took 2 steps each when the axis was the grid maximum itself
    @pytest.mark.parametrize("spacings", [0.5, 0.25])
    def test_sub_grid_shift_takes_at_most_one_step(self, concentrated, spacings):
        sol = newton_solve(concentrated.field.shift(spacings * L / 3072), concentrated.params)
        assert sol.newton_iters <= 1
        assert sol.energy == pytest.approx(concentrated.energy, rel=1e-12)
        assert_even_about_origin(sol)


class TestStartChecks:
    def test_named_failures(self):
        # Newton and the descent both check their start in ``_even_start``
        # before any work; only Newton, whose result depends on the start's
        # scale, names a u^(2#-1) beyond float64, before its first residual
        params = OperatorParams(4.0, 4.0)
        for route in (newton_solve, minimize_quotient):
            with pytest.raises(ValueError, match="initial guess must be positive somewhere"):
                route(PeriodicField.constant(SPEC, -1.0, 16), params)
        with pytest.raises(FloatingPointError, match="nonlinear term u\\^\\(2#-1\\) of a field with max"):
            newton_solve(PeriodicField.constant(SPEC, 1e40, 16), params)

    def test_constant_start_of_any_scale_goes_to_the_constant_solution(self):
        # max |u| = 1e33 at n = 5: u^(2#-1) is in float64 and u^(2#) is not;
        # at 1e40 neither is, at 1e-30 u^(2#) underflows
        params = OperatorParams(4.0, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for value in (1e-30, 1.0, 1e33, 1e40):
                sol = rescale_to_solution(minimize_quotient(PeriodicField.constant(SPEC, value, 16), params), params)
                assert sol.is_constant
                assert sol.field.mean == pytest.approx(4.0 ** (1.0 / 8.0), rel=1e-15)


class TestConstantSolution:
    # The constant branch is closed-form: no Newton call, and the same bits
    # Newton returns from the exact constant, on both sides of the mode-1
    # threshold.
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("side", [0.5, 2.0])
    def test_is_newton_from_the_exact_constant_without_newton(self, monkeypatch, n, t, side):
        spec = ManifoldSpec(n, t)
        alpha = side * bifurcation_alpha(n, t, 1)
        params = OperatorParams(alpha, alpha * alpha / 4.0)
        u_bar, _ = constant_branch(n, params.a_alpha, product_volume(spec))
        newton = newton_solve(PeriodicField.constant(spec, u_bar, solver_mod._SEED_MODES), params)

        def no_newton(*args, **kwargs):
            raise AssertionError("constant_solution called newton_solve")

        monkeypatch.setattr(solver_mod, "newton_solve", no_newton)
        sol = solver_mod.constant_solution(spec, params)
        assert_same_solution(sol, newton)
        assert sol.is_constant and sol.newton_iters == 0


class TestEvenSolutions:
    # The equation is reversible (s -> -s), and Newton works on even fields
    # only: every route returns real coefficients with the peak at s = 0.
    def test_constant_route(self):
        sol = newton_solve(constant_init(1.0), OperatorParams(2.0, 1.0))
        assert sol.is_constant
        assert_even_about_origin(sol)

    def test_mode1_route(self):
        sol = mode1_solution(SPEC, OperatorParams(8.0, 16.0))
        assert not sol.is_constant
        assert_even_about_origin(sol)

    def test_continuation_route(self):
        prev = mode1_solution(SPEC, OperatorParams(8.0, 16.0))
        sol = branch_continuation(prev, OperatorParams(12.0, 36.0))
        assert not sol.is_constant
        assert_even_about_origin(sol)

    def test_constant_solution_route(self):
        sol = solver_mod.constant_solution(SPEC, OperatorParams(2.0, 1.0))
        assert_even_about_origin(sol)

    @pytest.mark.parametrize("modes", [64, 256])
    def test_residual_keeps_the_parity(self, modes):
        # at an even field the residual is the cosine part of the general
        # one, bit for bit; the sine part it drops is FFT rounding
        params = OperatorParams(8.0, 16.0)
        even = sign_changing_field(modes)
        general = PeriodicField(SPEC, even.coeffs.astype(complex))
        res, full = residual(even, params).coeffs, residual(general, params).coeffs
        assert res.dtype == np.float64 and full.dtype == np.complex128
        assert np.array_equal(res, full.real)
        assert np.max(np.abs(full.imag)) <= 1e-15 * np.max(np.abs(res))

    def test_continuation_that_lands_at_half_period(self):
        # Regression: this step of `sweep --dim 8 --alpha 2:128:64:log`
        # converged to the translate peaked at L/2 (c_1 < 0), and the next
        # prediction was stretched about a trough
        alpha0, alpha1 = 2.7821312384916594, 2.9719885782738964
        params0 = OperatorParams(alpha0, alpha0 * alpha0 / 4.0)
        prev = mode1_solution(ManifoldSpec(8, 1.0), params0)
        sol = branch_continuation(prev, OperatorParams(alpha1, alpha1 * alpha1 / 4.0))
        assert not sol.is_constant
        assert_even_about_origin(sol)
        assert sol.field.coeffs[1].real > 0.0
        assert sol.residual_sup == float(np.max(np.abs(residual(sol.field, sol.params).values)))

    @pytest.mark.parametrize("n", [5, 8])
    def test_internal_starts_peak_at_origin(self, n):
        # the quotient descent and the scaled predictor hand Newton even
        # starts, real by type and peaked at s = 0
        params = OperatorParams(8.0, 16.0)
        qm = minimize_quotient(perturbed_init(params.a_alpha, spec=ManifoldSpec(n, 1.0)), params)
        assert qm.field.coeffs.dtype == np.float64
        assert int(np.argmax(qm.field.fine_values())) == 0
        prev = rescale_to_solution(qm, params)
        for alpha in (6.0, 12.0):
            start = continuation_init(prev, OperatorParams(alpha, alpha * alpha / 4.0))
            assert start.coeffs.dtype == np.float64, alpha
            assert int(np.argmax(start.fine_values())) == 0, alpha

    def test_real_start_is_used_as_it_is(self, monkeypatch):
        # only a sampled (complex) start is recentred and projected
        prev = mode1_solution(SPEC, OperatorParams(8.0, 16.0))
        params = OperatorParams(12.0, 36.0)
        start = continuation_init(prev, params)

        def no_shift(self, s0):
            raise AssertionError("newton_solve translated a real start")

        monkeypatch.setattr(PeriodicField, "shift", no_shift)
        sol = newton_solve(start, params)
        assert not sol.is_constant
        assert_even_about_origin(sol)

    def test_off_symmetry_start(self, concentrated):
        # shifted, scaled and pushed off its symmetry axis by a few low
        # modes, cosine and sine alike
        params = concentrated.params
        coeffs = concentrated.field.shift(1.0).coeffs * 1.001
        bump = np.zeros_like(coeffs)
        bump[1:5] = np.random.default_rng(7).standard_normal((4, 2)) @ [1.0, 1j]
        u = PeriodicField(SPEC, coeffs + 1e-3 * coeffs[0].real * bump)
        assert u.modes == 512
        sol = newton_solve(u, params)
        assert sol.energy == pytest.approx(concentrated.energy, rel=1e-9)
        assert_even_about_origin(sol)


class TestLargerModeCap:
    # Cheap linear solves let a concentrated solution go past the default
    # 512-mode cap, where its coefficient tail is still above tail_tol.
    def test_alpha_256_resolved_at_1024_modes(self, monkeypatch):
        params = OperatorParams(256.0, 256.0**2 / 4.0)
        capped = mode1_solution(SPEC, params)
        monkeypatch.setattr(SolverOptions, "max_modes", 1024)
        wide = mode1_solution(SPEC, params)
        assert capped.modes == 512
        assert _tail_fraction(capped.field) > SolverOptions().tail_tol
        assert wide.modes == 1024
        assert _tail_fraction(wide.field) < SolverOptions().tail_tol
        assert float(np.min(wide.field.fine_values())) > 0.0
        assert wide.energy == pytest.approx(capped.energy, rel=1e-12)


class TestPositivityMargin:
    # u = P^(-1) u_+^(2#-1) >= g_min int u_+^(2#-1) ds, the reported margin
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("alpha", [8.0, 32.0, 128.0])
    def test_margin_bounds_the_resolved_minimum(self, n, alpha):
        spec, params = ManifoldSpec(n, 1.0), OperatorParams(alpha, alpha * alpha / 4.0)
        sol = mode1_solution(spec, params)
        fine = sol.field.fine_values()
        assert 0.0 < sol.positivity_margin <= float(np.min(fine))
        # by mode 0 of the equation, a L mean(u) is the integral of u_+^(2#-1)
        power = spec.period * float(np.mean(np.maximum(fine, 0.0) ** (critical_exponent(n) - 1.0)))
        g_min = green_minimum(params.c_alpha, params.d_alpha, spec.period)
        assert sol.positivity_margin == pytest.approx(g_min * power, rel=1e-9)
        assert sol.tail_fraction == _tail_fraction(sol.field) < SolverOptions.tail_tol

    def test_trivial_root_carries_the_last_iterate(self):
        spec, params = ManifoldSpec(5, 0.5), OperatorParams(8.0, 16.0)
        start = mode1_solution(spec, params).field.scaled(0.6)
        with pytest.raises(ConvergenceError) as info:
            newton_solve(start, params)
        last = info.value.last
        assert float(np.max(np.abs(last.fine_values()))) < 16.0 ** (1.0 / 8.0)
        assert info.value.residual_sup == float(np.max(np.abs(residual(last, params).values)))


def sign_changing_field(modes):
    """Even field 0.3 + cos(s) + 0.2 cos(7s), negative near s = pi where u_+
    is cut off, from its real coefficients."""
    coeffs = np.zeros(modes // 2 + 1)
    coeffs[[0, 1, 7]] = 0.3, 0.5, 0.1
    return PeriodicField(SPEC, coeffs)


def scaled_block(u, params):
    """(scale, A): scale = symbol^(-1/2) and the scaled cosine block
    A = diag(scale) J diag(scale) that ``_solve_krylov`` hands to GMRES,
    assembled by the same ``_cosine_block`` call."""
    h = u.coeffs.size
    scale = 1.0 / np.sqrt(_symbol(u.spec, params, np.arange(h)))
    return scale, _cosine_block(_jacobian_weight(u), 1.0, scale * _cosine_amplitudes(h), 1)


class TestKrylovSolve:
    def test_scaled_operator_matches_dense_jacobian(self):
        # every column of the scaled cosine block, the Nyquist cosine's included
        params = OperatorParams(8.0, 16.0)
        u = sign_changing_field(256)
        assert float(np.min(u.fine_values())) < 0.0
        h = u.coeffs.size
        scale, block = scaled_block(u, params)
        jac = scale[:, None] * linearized_operator(u, params)[:h, :h] * scale[None, :]
        cols = np.column_stack([block @ e for e in np.eye(h)])
        assert np.max(np.abs(cols - jac)) <= 1e-13 * np.max(np.abs(jac))

    @pytest.mark.parametrize("modes", [64, 128, 256])
    def test_matches_dense_solve(self, modes):
        # reference: LU of the dense Jacobian's cosine block
        params = OperatorParams(8.0, 16.0)
        u = sign_changing_field(modes)
        rhs = residual(u, params).coeffs
        h = u.coeffs.size
        root = np.sqrt(_parseval_weights(h))  # orthonormal cosine coordinates
        dense = np.linalg.solve(linearized_operator(u, params)[:h, :h], root * rhs.real)
        krylov = root * _solve_krylov(u, params, rhs)
        assert np.linalg.norm(krylov - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("modes", [64, 128, 256])
    def test_singular_system_is_named(self, modes):
        # constant field at the mode-1 bifurcation: J vanishes on mode 1
        alpha = bifurcation_alpha(5, 1.0, 1)
        params = OperatorParams(alpha, alpha * alpha / 4.0)
        u = constant_init(params.a_alpha, modes=modes)
        rhs = np.zeros(u.coeffs.size)
        rhs[1] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match="Krylov solve: linearized system is singular"):
            _solve_krylov(u, params, rhs)


def reference_linearized_operator(u, params):
    """The dense Jacobian gathered entry by entry from R_k + i I_k, the
    Fourier coefficients of w = (2#-1) u_+^(2#-2), through index arrays."""
    p = critical_exponent(u.spec.n) - 1.0
    fine = u.fine_values()
    weight = p * np.where(fine > 0.0, fine, 0.0) ** (p - 1.0)
    what = np.fft.rfft(weight) / weight.size
    re, im = what.real, what.imag
    half, n = u.coeffs.size, u.modes
    k = np.arange(half)
    diff = k[:, None] - k[None, :]
    near, far = np.abs(diff), k[:, None] + k[None, :]
    amp = np.full(half, np.sqrt(2.0))
    amp[0] = 1.0
    jac = np.empty((n, n))
    jac[:half, :half] = -0.5 * np.outer(amp, amp) * (re[near] + re[far])
    jac[half:, half:] = (re[far] - re[near])[1:-1, 1:-1]
    cross = (amp / np.sqrt(2.0))[:, None] * (np.sign(diff) * im[near] - im[far])
    jac[:half, half:] = cross[:, 1:-1]
    jac[half:, :half] = cross[:, 1:-1].T
    sym = _symbol(u.spec, params, k)
    jac.flat[:: n + 1] += np.concatenate([sym, sym[1:-1]])
    return jac


class TestJacobianAssembly:
    @pytest.mark.parametrize("modes", [16, 32, 64, 128, 256, 512])
    def test_matches_index_array_reference(self, modes):
        # every entry, the Nyquist cosine's row and column included
        params = OperatorParams(8.0, 16.0)
        u = sign_changing_field(modes)
        ref = reference_linearized_operator(u, params)
        jac = linearized_operator(u, params)
        assert np.max(np.abs(jac - ref)) <= 1e-14 * np.max(np.abs(ref))
        h = u.coeffs.size
        scale, block = scaled_block(u, params)
        scaled = scale[:, None] * ref[:h, :h] * scale[None, :]
        assert block.shape == (h, h)
        assert np.max(np.abs(block - scaled)) <= 1e-14 * np.max(np.abs(scaled))
        assert np.max(np.abs(block[:, -1] - scaled[:, -1])) <= 1e-14 * np.max(np.abs(scaled[:, -1]))

    @pytest.mark.parametrize("size", [1, 2, 7, 30, 60])
    def test_back_substitution_matches_solve(self, size):
        rng = np.random.default_rng(size)
        tri = np.triu(rng.standard_normal((size, size)))
        tri[np.diag_indices(size)] = rng.choice([-1.0, 1.0], size) * (size + rng.uniform(0.0, 1.0, size))
        g = rng.standard_normal(size)
        cols = [tri[: j + 1, j].tolist() for j in range(size)]
        got = _back_substitute(cols, g.tolist())
        expected = np.linalg.solve(tri, g)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


class TestScaledPredictor:
    @pytest.mark.parametrize("modes", [64, 128, 256, 512])
    @pytest.mark.parametrize("sigma", [0.9, 1.0, 1.03, 1.5])
    def test_dilated_values_match_cosine_sum(self, modes, sigma):
        spec = ManifoldSpec(5, 1.3)
        rng = np.random.default_rng(modes)
        m = np.arange(modes // 2 + 1)
        u = PeriodicField(spec, rng.standard_normal(m.size) * np.exp(-0.05 * m))
        # grid points symmetric about 0: s_j = j h, then (j - N) h
        j = np.arange(modes)
        s = np.where(j <= modes // 2, j, j - modes) * (spec.period / modes)
        direct = np.cos(np.outer(sigma * s / spec.t, m)) @ (_pair_counts(m.size) * u.coeffs.real)
        got = u.dilated_values(sigma)
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))
        if sigma == 1.0:
            assert np.max(np.abs(got - u.values)) <= 1e-13 * np.max(np.abs(u.values))

    @pytest.mark.parametrize("n", [5, 8])
    def test_prediction_beats_previous_field(self, n):
        prev = mode1_solution(ManifoldSpec(n, 1.0), OperatorParams(64.0, 1024.0))
        target = OperatorParams(96.0, 96.0**2 / 4.0)  # k = 1.5
        unmoved = np.max(np.abs(residual(prev.field, target).values))
        predicted = np.max(np.abs(residual(continuation_init(prev, target), target).values))
        assert predicted * 100.0 <= unmoved

    def test_downward_continuation_reaches_fresh_solves(self):
        sol = mode1_solution(SPEC, OperatorParams(64.0, 1024.0))
        for alpha in (48.0, 32.0, 16.0, 8.0, 4.0):
            params = OperatorParams(alpha, alpha * alpha / 4.0)
            sol = branch_continuation(sol, params)
            fresh = mode1_solution(SPEC, params)
            assert sol.energy == pytest.approx(fresh.energy, rel=1e-9), alpha

    def test_changing_ratio_reaches_fresh_solves(self):
        # a = alpha: a/alpha^2 falls from 1/4, so the scaling is not exact
        sol = mode1_solution(SPEC, OperatorParams(4.0, 4.0))
        for alpha in (8.0, 16.0, 32.0, 64.0, 128.0):
            params = OperatorParams(alpha, alpha)
            sol = branch_continuation(sol, params)
            fresh = mode1_solution(SPEC, params)
            assert sol.energy == pytest.approx(fresh.energy, rel=1e-9), alpha


class TestQuotient:
    def test_constant_closed_form(self):
        params = OperatorParams(2.0, 1.0)
        u = PeriodicField.constant(SPEC, 3.3, 32)
        assert quotient(u, params) == pytest.approx(1.0 * V ** (4.0 / 5.0), rel=1e-12)

    def test_homogeneity(self):
        params = OperatorParams(2.0, 1.0)
        u = perturbed_init(1.0)
        assert quotient(u.scaled(7.0), params) == pytest.approx(quotient(u, params), rel=1e-12)

    def test_small_perturbation_second_order(self):
        params = OperatorParams(2.0, 1.0)
        u = perturbed_init(1.0, amplitude=0.01)
        assert quotient(u, params) == pytest.approx(V**0.8, rel=5e-4)

    def test_zero_field_rejected(self):
        params = OperatorParams(2.0, 1.0)
        with pytest.raises(ValueError):
            quotient(PeriodicField.constant(SPEC, 0.0, 32), params)


def normalize_critical(u):
    return u.scaled(norms(u).energy ** (-1.0 / critical_exponent(u.spec.n)))


def reference_descent(init, params, steps):
    """The first ``steps`` iterates of the quotient descent with the line
    search that normalizes each trial field and takes its quotient from
    ``norms``, as two fresh fields per trial."""
    sym = _symbol(init.spec, params, np.arange(init.coeffs.size))
    u = normalize_critical(init)
    q = quotient(u, params)
    iterates = []
    for _ in range(steps):
        rho = u.coeffs - q * _nonlinear_coeffs(u) / sym
        eta = 1.0
        for _ in range(40):
            cand = normalize_critical(PeriodicField(u.spec, u.coeffs - eta * rho))
            q_cand = quotient(cand, params)
            if q_cand < q:
                break
            eta *= 0.5
        else:
            raise AssertionError("reference line search found no decrease")
        u, q = cand, q_cand
        iterates.append(u)
    return iterates


class TestMinimizeQuotient:
    @pytest.mark.parametrize(
        "n, t, alpha, modes",
        [
            pytest.param(5, 1.0, 16.0, 64, id="5"),
            # n = 7 has the fractional critical power 2# = 14/3
            pytest.param(7, 1.0, 16.0, 64, id="7"),
            pytest.param(8, 1.0, 16.0, 64, id="8-t1-alpha16"),
            pytest.param(5, 1.0, 256.0, 64, id="5-t1-alpha256"),
            pytest.param(5, 2.0, 256.0, 128, id="5-t2-alpha256-N128"),
            pytest.param(7, 0.5, 128.0, 64, id="7-t0.5-alpha128"),
        ],
    )
    def test_line_search_matches_reference(self, n, t, alpha, modes, monkeypatch):
        # the reference keeps the step-halving line search, so a full step
        # that ever raised Q would leave the two apart
        spec = ManifoldSpec(n, t)
        a = alpha * alpha / 4.0
        params = OperatorParams(alpha, a)
        init = perturbed_init(a, modes=modes, spec=spec)
        reference = reference_descent(init, params, 8)
        lams = []
        for k, ref in enumerate(reference, start=1):
            monkeypatch.setattr(solver_mod, "_DESCENT_MAX_ITER", k)
            with pytest.raises(ConvergenceError) as exc:
                minimize_quotient(init, params)
            last = exc.value.last
            gap = np.max(np.abs(last.coeffs - ref.coeffs))
            assert gap <= 1e-12 * np.max(np.abs(ref.coeffs)), (k, gap)
            lams.append(quotient(last, params))
        assert all(b <= a for a, b in zip(lams, lams[1:])), lams

    @pytest.mark.parametrize("n", [5, 6])
    def test_translated_seed_descends_to_the_even_minimizer(self, n):
        # kept complex, the translated mode-1 seed carries the translation
        # mode, along which Q is flat: the descent would creep for 5000 steps
        # (about 0.3 s) short of its tolerance
        spec = ManifoldSpec(n, 1.0)
        params = OperatorParams(128.0, 4096.0)
        seed = perturbed_init(params.a_alpha, solver_mod.MODE1_AMPLITUDE, spec=spec)
        qm = minimize_quotient(seed.shift(1.0), params)
        assert not np.iscomplexobj(qm.field.coeffs)
        assert qm.grad_norm <= solver_mod._DESCENT_TOL and qm.iterations < 50
        assert qm.lambda_min == pytest.approx(minimize_quotient(seed, params).lambda_min, rel=1e-13)

    def test_start_above_max_modes_is_refused_before_descent(self, monkeypatch):
        def no_descent(*args, **kwargs):
            raise AssertionError("the descent formed a norm")

        monkeypatch.setattr(solver_mod, "norms", no_descent)
        with pytest.raises(ValueError, match="above max_modes"):
            minimize_quotient(perturbed_init(1.0, modes=2 * SolverOptions.max_modes), OperatorParams(2.0, 1.0))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_minimum_normalized_and_consistent(self, n):
        spec = ManifoldSpec(n, 1.0)
        params = OperatorParams(16.0, 64.0)
        qm = minimize_quotient(perturbed_init(64.0, spec=spec), params)
        assert abs(norms(qm.field).energy - 1.0) <= 1e-13
        assert abs(qm.lambda_min - quotient(qm.field, params)) <= 1e-13 * qm.lambda_min

    def test_overflow_raises_named_error(self):
        # the unit-norm start is fine; the first step u - rho ~ 1e100 has a
        # critical energy beyond float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="descent step"):
                minimize_quotient(perturbed_init(1.0), OperatorParams(1e100, 1.0))

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("alpha", [2.0, 8.0])
    @pytest.mark.parametrize("scale", [1e-300, 1e33, 1e300])
    def test_minimizer_does_not_depend_on_the_start_scale(self, n, alpha, scale):
        # the descent divides its start by its peak before it forms a sum;
        # when it formed the norms of the raw start, 1e300 named u^(2#-1),
        # 1e33 (n = 5) the norms and 1e-300 the critical energy (0.0)
        spec, params = ManifoldSpec(n, 1.0), OperatorParams(alpha, alpha * alpha / 4.0)
        init = perturbed_init(params.a_alpha, spec=spec)
        ref = minimize_quotient(init, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qm = minimize_quotient(init.scaled(scale), params)
        assert qm.lambda_min == pytest.approx(ref.lambda_min, rel=1e-14, abs=0.0)
        assert np.max(np.abs(qm.field.coeffs - ref.field.coeffs)) <= 1e-14 * np.max(np.abs(ref.field.coeffs))

    def test_below_bifurcation_constant_minimizer(self):
        params = OperatorParams(0.5, 0.0625)
        qm = minimize_quotient(perturbed_init(0.0625, 0.05), params)
        assert qm.field.nonconstant_fraction() ** 2 < 1e-8
        assert qm.lambda_min == pytest.approx(0.0625 * V ** (4.0 / 5.0), rel=1e-8)

    def test_above_bifurcation_beats_constant(self):
        params = OperatorParams(8.0, 16.0)
        qm = minimize_quotient(perturbed_init(16.0), params)
        assert qm.field.nonconstant_fraction() > 1e-3
        assert qm.lambda_min < 16.0 * V ** (4.0 / 5.0)

    def test_descent_property(self):
        params = OperatorParams(2.0, 1.0)
        init = perturbed_init(1.0)
        q0 = quotient(init, params)
        qm = minimize_quotient(init, params)
        assert qm.lambda_min <= q0
        assert qm.lambda_min <= quotient(constant_init(1.0), params)

    def test_normalization(self):
        params = OperatorParams(2.0, 1.0)
        qm = minimize_quotient(perturbed_init(1.0), params)
        assert norms(qm.field).energy == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize(
        "n, counts",
        [
            (5, [14, 12, 12, 13, 13, 13, 13]),
            (6, [35, 17, 16, 16, 16, 16, 17]),
            (7, [127, 23, 18, 19, 19, 19, 20]),
            (8, [43, 37, 21, 21, 22, 22, 23]),
        ],
        ids=["5", "6", "7", "8"],
    )
    def test_mode1_descents_reach_the_tolerance(self, n, counts):
        # the mode-1 seeds at t = 1, a = alpha^2/4 on 64 modes: every descent
        # ends by its gradient test, after the iterations it took with its
        # samples recomputed from the coefficients on every step (carrying
        # them changes the rounding only)
        spec = ManifoldSpec(n, 1.0)
        late, iterations = [], []
        for alpha in (2.0, 3.7, 8.0, 16.0, 32.0, 45.1, 128.0):
            a = alpha * alpha / 4.0
            u_bar, _ = constant_branch(n, a, product_volume(spec))
            seed = PeriodicField.cosine(spec, u_bar, solver_mod.MODE1_AMPLITUDE, 64)
            qm = minimize_quotient(seed, OperatorParams(alpha, a))
            iterations.append(qm.iterations)
            if not qm.grad_norm <= solver_mod._DESCENT_TOL:
                late.append((alpha, qm.grad_norm))
        assert not late
        assert iterations == counts

    def test_step_makes_one_forward_and_one_inverse_fft(self, monkeypatch):
        # the step's samples are carried, so a descent one step longer makes
        # one more rfft (of u_+^(2#-1)) and one more irfft (of rho) only
        params = OperatorParams(16.0, 64.0)
        init = perturbed_init(64.0)
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        made = []
        for steps in (3, 4, 5):
            monkeypatch.setattr(solver_mod, "_DESCENT_MAX_ITER", steps)
            calls.update(rfft=0, irfft=0)
            with pytest.raises(ConvergenceError):
                minimize_quotient(PeriodicField(init.spec, init.coeffs), params)
            made.append(dict(calls))
        for fewer, more in zip(made, made[1:]):
            assert {k: more[k] - fewer[k] for k in calls} == {"rfft": 1, "irfft": 1}

    def test_minimizer_samples_are_recomputed(self):
        # the returned field holds its coefficients only; its samples are
        # those of the coefficients, not the carried ones
        params = OperatorParams(16.0, 64.0)
        qm = minimize_quotient(perturbed_init(64.0), params)
        fresh = PeriodicField(qm.field.spec, qm.field.coeffs)
        assert np.array_equal(qm.field.fine_values(), fresh.fine_values())

    def test_sharp_threshold_flag(self):
        _, k0_inv_sq = sharp_constant(5)
        below = minimize_quotient(perturbed_init(1.0), OperatorParams(2.0, 1.0))
        assert below.lambda_min < k0_inv_sq  # 52.6 < 102.4
        above = minimize_quotient(perturbed_init(16.0), OperatorParams(8.0, 16.0))
        assert not above.lambda_min < k0_inv_sq


class TestRescale:
    def test_constant_minimizer_recovers_constant_branch(self):
        params = OperatorParams(0.5, 0.0625)
        qm = minimize_quotient(perturbed_init(0.0625, 0.05), params)
        sol = rescale_to_solution(qm, params)
        u_bar, _ = constant_branch(5, 0.0625, V)
        assert sol.is_constant
        assert sol.field.mean == pytest.approx(u_bar, rel=1e-9)

    def test_unit_multiplier_is_identity(self):
        params = OperatorParams(2.0, 1.0)
        qm = QuotientMinimum(
            field=perturbed_init(1.0), lambda_min=1.0, iterations=0, grad_norm=0.0,
        )
        w = rescale_to_solution(qm, params)
        # lambda = 1 leaves the field unchanged before polishing
        assert w.params is params

    @pytest.mark.parametrize("n", [5, 7, 8])
    @pytest.mark.parametrize("factor", [0.6, 1.3])
    def test_scaled_solution_returns_to_it(self, n, factor):
        # a solution is a critical point of Q, on the Nehari manifold to its
        # residual (here up to 3e-12): the descent stops at its first check
        # and lambda^((n-4)/8) times the minimizer is the solution again
        params = OperatorParams(8.0, 16.0)
        sol = mode1_solution(ManifoldSpec(n, 1.0), params)
        qm = minimize_quotient(sol.field.scaled(factor), params)
        back = qm.field.scaled(qm.lambda_min ** ((n - 4) / 8.0))
        assert qm.iterations == 1
        assert np.max(np.abs(back.coeffs - sol.field.coeffs)) <= 1e-12 * sol.field.mean

    @pytest.mark.parametrize("n, alpha", [(5, 16.0), (8, 45.1)])
    def test_rescale_is_newton_from_the_closed_form(self, n, alpha):
        params = OperatorParams(alpha, alpha * alpha / 4.0)
        qm = minimize_quotient(perturbed_init(params.a_alpha, spec=ManifoldSpec(n, 1.0)), params)
        start = qm.field.scaled(qm.lambda_min ** ((n - 4) / 8.0))
        assert_same_solution(rescale_to_solution(qm, params), newton_solve(start, params))

    def test_multiple_outside_float64_is_named(self):
        # lambda^((n-4)/8) = (1e300)^4.5 at n = 40 and (1e-300)^4.5 leave float64
        field = PeriodicField.constant(ManifoldSpec(40, 1.0), 1.0, 16)
        for lam in (1e300, 1e-300):
            qm = QuotientMinimum(field=field, lambda_min=lam, iterations=1, grad_norm=0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError, match=r"Nehari multiple lambda\^\(\(n-4\)/8\) is outside"):
                    rescale_to_solution(qm, OperatorParams(2.0, 1.0))

    def test_energy_equals_lambda_power(self):
        params = OperatorParams(8.0, 16.0)
        qm = minimize_quotient(perturbed_init(16.0), params)
        sol = rescale_to_solution(qm, params)
        assert sol.energy == pytest.approx(qm.lambda_min ** (5.0 / 4.0), rel=1e-8)


class TestLinearization:
    def test_constant_closed_form_eigenvalues(self):
        # a = alpha^2/4: eigenvalue at mode m is mu^2 + alpha mu - 2 alpha^2
        alpha = 2.0
        params = OperatorParams(alpha, 1.0)
        sol = newton_solve(constant_init(1.0), params)
        eig = linearized_spectrum(sol, kmax=4)
        m = np.arange(5.0)
        mu = m * m
        assert np.allclose(eig, mu * mu + alpha * mu - 2 * alpha**2, rtol=1e-12)

    def test_threshold_mode_vanishes(self):
        params = OperatorParams(1.0, 0.25)
        sol = newton_solve(constant_init(0.25), params)
        eig = linearized_spectrum(sol, kmax=2)
        assert eig[1] == pytest.approx(0.0, abs=1e-12)

    def test_mode_zero_direction_negative(self):
        params = OperatorParams(2.0, 1.0)
        sol = newton_solve(constant_init(1.0), params)
        eig = linearized_spectrum(sol, kmax=0)
        p = critical_exponent(5)
        assert eig[0] == pytest.approx(-(p - 2.0) * 1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [8.0, 128.0])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_nonconstant_solution_has_morse_index_one(self, n, alpha):
        # the quotient minimizer's Morse index is 1; the next eigenvalue is
        # the odd translation mode u' (zero up to rounding, of either sign)
        params = OperatorParams(alpha, alpha * alpha / 4.0)
        sol = mode1_solution(ManifoldSpec(n, 1.0), params)
        assert not sol.is_constant
        eig = linearized_spectrum(sol)
        ref = np.linalg.eigvalsh(reference_linearized_operator(sol.field, params))
        assert np.max(np.abs(eig - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert eig[0] < 0.0
        assert abs(eig[1]) <= 1e-14 * np.max(np.abs(eig))
        assert eig[2] > 0.0
        # its eigenvector: the sine coordinates of u', sqrt(2) k c_k / t
        u, h = sol.field, sol.field.coeffs.size
        vec = np.linalg.eigh(linearized_operator(u, params))[1][:, 1]
        k = np.arange(1, h - 1)
        translation = np.sqrt(2.0) * k * u.coeffs.real[1:-1]
        overlap = abs(vec[h:] @ translation) / np.linalg.norm(translation)
        assert overlap >= 1.0 - 1e-10

    def test_dense_matches_closed_form_at_constant(self):
        params = OperatorParams(2.0, 1.0)
        sol = newton_solve(constant_init(1.0, modes=32), params)
        dense = np.linalg.eigvalsh(linearized_operator(sol.field, params))
        closed = constant_eigenvalue(SPEC, params, np.arange(17))
        # each m >= 1 closed-form eigenvalue appears twice in the dense spectrum
        expected = np.sort(np.concatenate([closed[:1], np.repeat(closed[1:-1], 2), closed[-1:]]))
        assert np.allclose(np.sort(dense), expected, atol=1e-9)

    def test_operator_is_hermitian(self):
        # real and exactly symmetric by construction, one row per real coordinate
        params = OperatorParams(2.0, 1.0)
        sol = newton_solve(perturbed_init(1.0, modes=32), params)
        op = linearized_operator(sol.field, params)
        assert op.dtype == np.float64
        assert op.shape == (sol.modes, sol.modes)
        assert np.array_equal(op, op.T)

    def test_complex_spectrum_is_refused_by_type(self):
        # even in value, but a complex spectrum is a general field
        u = PeriodicField(SPEC, np.r_[1.0, 0.15, np.zeros(7)].astype(complex))
        with pytest.raises(ValueError, match="linearization needs an even field: the half spectrum is complex"):
            linearized_operator(u, OperatorParams(2.0, 1.0))

    def test_field_that_is_not_even_is_refused(self):
        # a nonzero imaginary coefficient is an odd part: no block-diagonal
        # linearization exists there
        u = PeriodicField(SPEC, np.r_[1.0, 0.15, 1e-300j, np.zeros(6)])
        with pytest.raises(ValueError, match="linearization needs an even field"):
            linearized_operator(u, OperatorParams(2.0, 1.0))

    def test_operator_matches_finite_differences(self):
        # column j is the residual's response to the j-th orthonormal
        # cosine/sine coordinate (Re c_0..c_{N/2}, then Im c_1..c_{N/2-1})
        params = OperatorParams(2.0, 1.0)
        u = PeriodicField(SPEC, np.r_[1.0, 0.15, 0.05, np.zeros(6)])  # 1 + 0.3 cos(s) + 0.1 cos(2s)
        op = linearized_operator(u, params)
        half = u.coeffs.size
        root = np.sqrt(np.r_[1.0, np.full(half - 2, 2.0), 0.5])

        def to_full(c):
            return np.concatenate([root * c.real, root[1:-1] * c.imag[1:-1]])

        def from_full(x):
            c = (x[:half] / root).astype(complex)
            c[1:-1] += 1j * x[half:] / root[1:-1]
            return c

        x0, h = to_full(u.coeffs), 1e-6

        def res(x):
            return to_full(residual(PeriodicField(SPEC, from_full(x)), params).coeffs)

        fd = np.column_stack([(res(x0 + h * e) - res(x0 - h * e)) / (2 * h) for e in np.eye(x0.size)])
        assert np.max(np.abs(op - fd)) < 1e-8 * np.max(np.abs(op))


class TestConstantEigenvalue:
    def test_circle_mode_values(self):
        # sigma_m - (2# - 1) a with mu = (m/t)^2; at n = 5, alpha = 2, a = 1:
        # mu^2 + 2 mu + 1 - 9, exact in float64
        params = OperatorParams(2.0, 1.0)
        assert constant_eigenvalue(ManifoldSpec(5, 1.0), params, 0) == -8.0
        assert constant_eigenvalue(ManifoldSpec(5, 1.0), params, 3) == 91.0
        assert constant_eigenvalue(ManifoldSpec(5, 0.5), params, 1) == 16.0
        # an int mode and an array of modes take the same operations
        assert constant_eigenvalue(SPEC, params, np.arange(4))[1] == constant_eigenvalue(SPEC, params, 1)

    def test_monotone_and_scaling_in_t(self):
        # the mode enters only through m/t: circle eigenvalues scale as 1/t^2
        params = OperatorParams(2.0, 1.0)
        eigs = constant_eigenvalue(SPEC, params, np.arange(8))
        assert np.all(np.diff(eigs) > 0)
        np.testing.assert_allclose(
            constant_eigenvalue(ManifoldSpec(5, 0.37), params, np.arange(8)),
            constant_eigenvalue(SPEC, params, np.arange(8) / 0.37),
            rtol=1e-14,
        )


class TestBifurcationAlpha:
    def test_closed_form_values(self):
        assert bifurcation_alpha(5, 1.0, 1) == pytest.approx(1.0, rel=1e-14)
        assert bifurcation_alpha(5, 1.0, 2) == pytest.approx(4.0, rel=1e-14)
        assert bifurcation_alpha(5, 0.5, 1) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    def test_root_property(self, n):
        # at alpha*, the mode-1 eigenvalue of the constant branch vanishes
        t = 0.8
        alpha = bifurcation_alpha(n, t, 1)
        val = constant_eigenvalue(ManifoldSpec(n, t), OperatorParams(alpha, alpha * alpha / 4.0), 1)
        assert val == pytest.approx(0.0, abs=1e-10 * alpha * alpha)

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            bifurcation_alpha(5, 1.0, 0)
