import numpy as np
import pytest

from paneitz.constants import OperatorParams, constant_branch, critical_exponent
from paneitz.field import PeriodicField, load_field, norms, save_field
from paneitz.geometry import ManifoldSpec, product_volume
from paneitz.solver import (
    QuotientMinimum,
    SolverOptions,
    bifurcation_alpha,
    constant_eigenvalue,
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
    _jacobian,
    _jacobian_action,
    _solve_krylov,
    _solve_linearized,
    _tail_fraction,
    _to_real,
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


def assert_even_about_origin(sol):
    # real half spectrum exactly, so u(-s) = u(s), and the peak at s = 0
    assert np.all(sol.field.coeffs.imag == 0.0)
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
        # both are recentered to put the maximum at s = 0
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
        opts = SolverOptions(modes=32, max_modes=512)
        qm = minimize_quotient(perturbed_init(256.0, modes=32), params)
        sol = rescale_to_solution(qm, params, opts)
        assert sol.modes > 32  # concentration demands refinement
        assert sol.residual_sup <= 1e-9


@pytest.fixture(scope="module")
def concentrated():
    """The n=5, alpha=128 mode1 solution, refined to 512 modes."""
    params = OperatorParams(128.0, 4096.0)
    return rescale_to_solution(minimize_quotient(perturbed_init(params.a_alpha), params), params)


class TestMovedStarts:
    # Regression: a translated and rescaled copy of a concentrated solution,
    # read back from its field file, must return to the same solution
    # (Newton used to stagnate for half of these starts).
    @pytest.mark.parametrize("s0", [0.3, 1.0, 2.6425, 5.0907])
    @pytest.mark.parametrize("scale", [0.98, 1.0005, 1.04])
    def test_returns_to_unshifted_energy(self, concentrated, tmp_path, s0, scale):
        path = tmp_path / "moved.field"
        save_field(concentrated.field.shift(s0).scaled(scale), path)
        sol = newton_solve(load_field(path), concentrated.params)
        assert sol.energy == pytest.approx(concentrated.energy, rel=1e-9)
        assert_even_about_origin(sol)


class TestEvenSolutions:
    # The equation is reversible (s -> -s), and Newton works on even fields
    # only: every route returns real coefficients with the peak at s = 0.
    def test_constant_route(self):
        sol = newton_solve(constant_init(1.0), OperatorParams(2.0, 1.0))
        assert sol.is_constant
        assert_even_about_origin(sol)

    def test_mode1_route(self):
        sol = mode1_solution(SPEC, OperatorParams(8.0, 16.0), SolverOptions())
        assert not sol.is_constant
        assert_even_about_origin(sol)

    def test_continuation_route(self):
        prev = mode1_solution(SPEC, OperatorParams(8.0, 16.0), SolverOptions())
        sol = branch_continuation(prev, OperatorParams(12.0, 36.0))
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
    def test_alpha_256_resolved_at_1024_modes(self):
        params = OperatorParams(256.0, 256.0**2 / 4.0)
        capped = mode1_solution(SPEC, params, SolverOptions())
        wide = mode1_solution(SPEC, params, SolverOptions(max_modes=1024))
        assert capped.modes == 512
        assert _tail_fraction(capped.field) > SolverOptions().tail_tol
        assert wide.modes == 1024
        assert _tail_fraction(wide.field) < SolverOptions().tail_tol
        assert float(np.min(wide.field.fine_values())) > 0.0
        assert wide.energy == pytest.approx(capped.energy, rel=1e-12)


def sign_changing_field(modes):
    """Shifted (not even) field with negative parts, so the penalty acts."""
    u = PeriodicField.from_function(
        SPEC, lambda s: 0.3 + np.cos(s) + 0.4 * np.sin(3 * s) + 0.2 * np.cos(7 * s), modes
    )
    return u.shift(0.7)


class TestKrylovSolve:
    PEN = SolverOptions().penalty_weight

    def test_matvec_matches_dense_jacobian(self):
        # every column of the cosine block, the Nyquist cosine's included
        params = OperatorParams(8.0, 16.0)
        u = sign_changing_field(256)
        assert float(np.min(u.fine_values())) < 0.0
        h = u.coeffs.size
        jac = _jacobian(u, params, self.PEN)[:h, :h]
        action = _jacobian_action(u, params, self.PEN)
        cols = np.column_stack([action(e) for e in np.eye(h)])
        assert np.max(np.abs(cols - jac)) <= 1e-13 * np.max(np.abs(jac))

    @pytest.mark.parametrize("modes", [64, 128, 256])
    def test_matches_dense_solve(self, modes):
        # reference: LU of the dense Jacobian's cosine block
        params = OperatorParams(8.0, 16.0)
        u = sign_changing_field(modes)
        b = _to_real(residual(u, params, self.PEN).coeffs)
        h = u.coeffs.size
        dense = np.linalg.solve(_jacobian(u, params, self.PEN)[:h, :h], b)
        krylov = _solve_krylov(u, params, b, self.PEN)
        assert np.linalg.norm(krylov - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("modes", [64, 128, 256])
    def test_singular_system_is_named(self, modes):
        # constant field at the mode-1 bifurcation: J vanishes on mode 1
        alpha = bifurcation_alpha(5, 1.0, 1)
        params = OperatorParams(alpha, alpha * alpha / 4.0)
        u = constant_init(params.a_alpha, modes=modes)
        rhs = np.zeros(u.coeffs.size, dtype=complex)
        rhs[1] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match="Krylov solve: linearized system is singular"):
            _solve_linearized(u, params, rhs)


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


class TestMinimizeQuotient:
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

    def test_sharp_threshold_flag(self):
        below = minimize_quotient(perturbed_init(1.0), OperatorParams(2.0, 1.0))
        assert below.below_sharp_threshold  # 52.6 < 102.4
        above = minimize_quotient(perturbed_init(16.0), OperatorParams(8.0, 16.0))
        assert not above.below_sharp_threshold


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
            below_sharp_threshold=True,
        )
        w = rescale_to_solution(qm, params)
        # lambda = 1 leaves the field unchanged before polishing
        assert w.params is params

    def test_energy_equals_lambda_power(self):
        params = OperatorParams(8.0, 16.0)
        qm = minimize_quotient(perturbed_init(16.0), params, tol=1e-11)
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

    def test_dense_matches_closed_form_at_constant(self):
        params = OperatorParams(2.0, 1.0)
        sol = newton_solve(constant_init(1.0, modes=32), params, SolverOptions(modes=32))
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

    def test_operator_matches_finite_differences(self):
        # column j is the residual's response to the j-th orthonormal
        # cosine/sine coordinate (Re c_0..c_{N/2}, then Im c_1..c_{N/2-1})
        params = OperatorParams(2.0, 1.0)
        u = PeriodicField.from_function(SPEC, lambda s: 1.0 + 0.3 * np.cos(s) + 0.1 * np.sin(2 * s), 16)
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
        mu = (1.0 / t) ** 2
        p = critical_exponent(n)
        val = mu * mu + alpha * mu - (p - 2.0) * alpha * alpha / 4.0
        assert val == pytest.approx(0.0, abs=1e-10 * alpha * alpha)

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            bifurcation_alpha(5, 1.0, 0)
