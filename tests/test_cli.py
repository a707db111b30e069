import csv
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from paneitz import cli as cli_mod, solver as solver_mod
from paneitz.cli import main
from paneitz.constants import OperatorParams, critical_exponent
from paneitz.diagnostics import concentration_points
from paneitz.field import PeriodicField, load_field, norms, save_field
from paneitz.geometry import ManifoldSpec
import paneitz
from paneitz.solver import SolverOptions, bifurcation_alpha


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_named_float64_failure(capsys, reason, *argv):
    """Exit 2 with ``reason`` on one stderr line: no traceback, no output and
    no RuntimeWarning (which the warning filter turns into an exception)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"paneitz {argv[0]}: numerical failure: {reason}\n"


class TestConstantsCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--dim", "5")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n", "two_sharp", "K0", "K0_inv_sq", "c_n"}
        assert payload["n"] == 5
        assert payload["two_sharp"] == 10.0
        assert payload["K0_inv_sq"] == pytest.approx(102.37, rel=1e-3)
        assert payload["c_n"] == pytest.approx(105 ** (1 / 8), rel=1e-12)

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "constants", "--dim", "7")
        _, out2, _ = run_cli(capsys, "constants", "--dim", "7")
        assert out1 == out2

    def test_bad_dim_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--dim", "4")
        assert code == 1
        assert "5" in err

    def test_dim_beyond_float64_gamma_is_numerical_failure(self, capsys):
        # used to raise an uncaught OverflowError out of main
        assert run_cli(capsys, "constants", "--dim", "171")[0] == 0
        code, out, err = run_cli(capsys, "constants", "--dim", "172")
        assert (code, out) == (2, "")
        assert "numerical failure: sharp constant for n=172: Gamma(n) is outside the float64 range" in err


class TestBubbleCheckCommand:
    def test_payload(self, capsys):
        # the identity carries its boundary flux, so the slowly decaying n=5
        # profile no longer warns "slow decay" or reads -1.06e-2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "bubble-check", "--dim", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual_sup"] <= 1e-10
        assert payload["energy"] == pytest.approx(payload["energy_expected"], rel=1e-6)
        assert abs(payload["pohozaev_residual"]) <= 1e-14

    def test_every_dimension_verifies_without_warning(self, capsys):
        # the defaults for n = 5..143: the identity reads within 1e-14 for
        # n <= 20 and 5e-14 above (2.2e-15 and 2.2e-14 measured)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(5, 144):
                code, out, err = run_cli(capsys, "bubble-check", "--dim", str(n))
                assert (code, err) == (0, ""), n
                assert abs(json.loads(out)["pohozaev_residual"]) <= (1e-14 if n <= 20 else 5e-14), n

    def test_concentrated_extremal_verifies_the_identity(self, capsys):
        # panels from rmax 2^-20 read (n-4)/2 = 2.0 here
        code, out, err = run_cli(capsys, "bubble-check", "--dim", "8", "--lambda0", "1e-30")
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["pohozaev_residual"]) <= 1e-14

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_identity_underflow_is_named(self, capsys, n):
        # below lambda0 = 1.6e-45, 1.5e-32 and 6.8e-24 (n = 5, 8, 12) the
        # largest |Delta^2 w r w'| at a node is subnormal; at n = 8 the
        # identity used to exit 0 reading about 1e-15, 0.0 and 8.8e-11 there
        for k in range(-60, 61, 2):
            code, out, err = run_cli(capsys, "bubble-check", "--dim", str(n), "--lambda0", f"1e{k}")
            if code == 0:
                assert abs(json.loads(out)["pohozaev_residual"]) <= 1e-14, k
            else:
                assert code == 2 and "float64" in err, (k, err)

    def test_infinite_scale_rejected(self, capsys):
        # used to exit 1 with numpy's "Geometric sequence cannot include zero"
        code, out, err = run_cli(capsys, "bubble-check", "--dim", "5", "--lambda0", "inf")
        assert (code, out) == (1, "")
        assert "concentration scale must be positive and finite, got inf" in err

    @pytest.mark.parametrize(
        "n, scale, cause",
        [
            # the Python-float lam**4 of the bi-Laplacian raised OverflowError
            (12, "1e80", "Numerical result out of range"),
            # these exited 1 ("requires a positive field", "nonzero Laplacian")
            # after numpy RuntimeWarnings
            (5, "1e160", "overflow"),
            (5, "1e-200", "underflows float64"),
            (5, "1e-70", "underflows float64"),
        ],
    )
    def test_scale_outside_float64_is_numerical_failure(self, capsys, n, scale, cause):
        code, out, err = run_cli(capsys, "bubble-check", "--dim", str(n), "--lambda0", scale)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"paneitz bubble-check: numerical failure: extremal for n={n} at lambda0={float(scale)!r} "
            "is outside the float64 range ("
        )
        assert cause in err and err.count("\n") == 1

    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    def test_scale_scan_ends_verified_or_named(self, capsys, n):
        # every finite scale ends in a report (exit 0) or a named numerical
        # failure (exit 2), with no warning at all
        for scale in np.logspace(-300, 300, 31).tolist():
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, "bubble-check", "--dim", str(n), "--lambda0", repr(scale))
            assert code in (0, 2), (scale, err)
            assert not seen, (scale, [str(w.message) for w in seen])
            if code == 0:
                payload = json.loads(out)
                assert all(np.isfinite(v) for v in payload.values()), (scale, payload)
                assert err == ""
            else:
                assert "outside the float64 range" in err and err.count("\n") == 1, (scale, err)

    @pytest.mark.parametrize("n", [63, 100])
    def test_high_dimension_energy(self, capsys, n):
        # the energy integrand used to form r^(n-1) alone, which leaves
        # float64 near theta = pi/2 from n = 63 ("concentration scale 1.0 ...")
        code, out, err = run_cli(capsys, "bubble-check", "--dim", str(n))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert abs(payload["energy"] - payload["energy_expected"]) <= 1e-12 * payload["energy_expected"]
        assert payload["residual_sup"] <= 1e-12

    def test_scaling_identity_overflow_names_its_integrands(self, capsys):
        # c_n^2 is near 1e300 at n = 146: the integrands at the nodes leave
        # float64 at lambda0 = 1 (and 0.9 still runs).  The Gauss-Legendre
        # panels sampled nearer the peak and failed from n = 144; n = 144
        # and 145 now read 2.8e-14 and 2.2e-14
        assert run_cli(capsys, "bubble-check", "--dim", "146", "--lambda0", "0.9")[0] == 0
        reason = (
            "extremal for n=146 at lambda0=1.0 is outside the float64 range "
            "(scaling-identity integrands for n=146 overflow float64)"
        )
        assert_named_float64_failure(capsys, reason, "bubble-check", "--dim", "146")

    def test_energy_integrand_overflow_is_named(self, capsys):
        # the integrand's peak carries c_n^(2#): from n = 162 it leaves
        # float64 at every lambda0 (n = 161 still runs up to the identity
        # check); it used to exit 2 with numpy's "overflow encountered in power"
        assert "scaling-identity" in run_cli(capsys, "bubble-check", "--dim", "161")[2]
        reason = (
            "extremal for n=162 at lambda0=1.0 is outside the float64 range "
            "(critical-energy integrand for n=162 overflows float64)"
        )
        assert_named_float64_failure(capsys, reason, "bubble-check", "--dim", "162")

    @pytest.mark.parametrize("dim", ["253", "259"])
    def test_residual_normalization_overflow_is_named(self, capsys, dim):
        # v(0)^(2#-1) leaves float64 for n = 253..259 at lambda0 = 1;
        # it used to exit 2 with numpy's "overflow encountered in power"
        reason = (
            f"extremal for n={dim} at lambda0=1.0 is outside the float64 range "
            "(residual normalization v^(2#-1) overflows float64)"
        )
        assert_named_float64_failure(capsys, reason, "bubble-check", "--dim", dim)

    @pytest.mark.parametrize("rmax", ["inf", "nan"])
    def test_nonfinite_rmax_is_named(self, capsys, rmax):
        # used to exit 2 blaming the concentration scale 1.0
        code, out, err = run_cli(capsys, "bubble-check", "--dim", "5", "--rmax", rmax)
        assert (code, out) == (1, "")
        assert err == f"paneitz bubble-check: error: rmax must be positive and finite, got {float(rmax)!r}\n"

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 12, 20])
    def test_reads_the_checks_of_fresh_fields(self, capsys, n):
        # both ball checks read one field, which evaluates each callback once;
        # the report is what each check reads on a field of its own, bit for
        # bit, and a scale outside float64 fails there as in the command
        for scale in ("1e-30", "1e-3", "0.5", "1.7", "1e5"):
            params = paneitz.bubble.BubbleParams(n, float(scale))
            code, out, err = run_cli(capsys, "bubble-check", "--dim", str(n), "--lambda0", scale)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                checks = (
                    lambda: paneitz.bubble.pde_residual(paneitz.bubble.bubble_field(params), rmax=50.0),
                    lambda: paneitz.bubble.bubble_energy(params),
                    lambda: paneitz.bubble.pohozaev_identity_residual(paneitz.bubble.bubble_field(params), rmax=50.0),
                )
                if code == 0:
                    report = json.loads(out)
                    fresh = [check() for check in checks]
                    assert [report[k] for k in ("residual_sup", "energy", "pohozaev_residual")] == fresh, scale
                else:
                    assert code == 2 and "float64" in err, (scale, err)
                    with pytest.raises((FloatingPointError, OverflowError)):
                        [check() for check in checks]

    def test_cold_start_builds_no_gauss_legendre_rule(self, capsys, monkeypatch):
        # every radial integral is a trapezoid sum in a log variable, so a
        # cold bubble-check and quantization check compute no Gauss-Legendre
        # nodes (the order-24 panels and their Python loop are gone)
        orders = []

        def spy(order):
            orders.append(order)
            return real(order)

        real = paneitz.quadrature.gauss_legendre
        monkeypatch.setattr(paneitz.quadrature, "gauss_legendre", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, "bubble-check", "--dim", "5")[0] == 0
        assert paneitz.diagnostics.quantization_check(5, 1.5).synthetic_ok
        assert orders == []


def three_peak_tiling():
    """The 3-peak tiling at n = 6, alpha = 32: Newton (28 steps) from the
    multiple k u of the far start u = 1 + 0.3 cos(s + 0.2) on the Nehari
    manifold, k^(2#-2) = <P u, u> / int u^(2#) (u > 0)."""
    spec, params = ManifoldSpec(6, 1.0), OperatorParams(32.0, 256.0)
    start = PeriodicField.from_function(spec, lambda s: 1.0 + 0.3 * np.cos(s + 0.2), 64)
    report = norms(start, params)
    k = (report.pairing / report.energy) ** ((spec.n - 4) / 8.0)
    return solver_mod.newton_solve(start.scaled(k), params)


class TestSolveCommand:
    def test_auto_schedule_and_output(self, capsys, tmp_path):
        out_path = tmp_path / "sol.field"
        code, out, _ = run_cli(
            capsys,
            "solve", "--dim", "5", "--t", "1", "--alpha", "8", "--a", "auto",
            "--init", "constant", "--field-out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["a_alpha"] == 16.0  # auto = alpha^2/4
        assert payload["is_constant"] is True
        assert payload["residual_sup"] <= 1e-10
        assert out_path.exists()

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_mode1_at_the_threshold_is_the_constant(self, capsys, n):
        # at alpha* the constant's mode-1 eigenvalue is 0.0 (+8.9e-16 at
        # n = 7), so mode1 returns the exact constant; the quotient
        # descent used to creep there for 5000 iterations and exit 2
        args = ("solve", "--dim", str(n), "--alpha", repr(bifurcation_alpha(n, 1.0, 1)))
        code, out, err = run_cli(capsys, *args, "--init", "mode1")
        assert code == 0, err
        assert json.loads(out)["is_constant"] is True
        assert run_cli(capsys, *args, "--init", "constant") == (0, out, "")

    def test_trivial_root_is_a_numerical_failure(self, capsys, tmp_path, monkeypatch):
        # 0.6 times a solution is a start that Newton drives to u = 0; the
        # file route scales the quotient minimizer onto the Nehari manifold
        # first, so it reaches the trivial root only with that step taken out
        solved, start = tmp_path / "b.field", tmp_path / "bs.field"
        args = ("solve", "--dim", "5", "--t", "0.5", "--alpha", "8")
        code, _, err = run_cli(capsys, *args, "--field-out", str(solved))
        assert code == 0, err
        save_field(load_field(solved).scaled(0.6), start)
        monkeypatch.setattr(cli_mod, "rescale_to_solution", lambda qm, params: solver_mod.newton_solve(qm.field, params))
        code, out, err = run_cli(capsys, *args, "--init", "file", "--field-in", str(start))
        assert (code, out) == (2, "")
        assert "numerical failure: converged to the trivial solution" in err

    def test_scaled_solution_file_start_returns_to_it(self, capsys, tmp_path):
        # the start of the trivial-root test above, through the file route
        solved, start = tmp_path / "b.field", tmp_path / "bs.field"
        args = ("solve", "--dim", "5", "--t", "0.5", "--alpha", "8")
        code, out, err = run_cli(capsys, *args, "--field-out", str(solved))
        assert code == 0, err
        energy = json.loads(out)["energy"]
        save_field(load_field(solved).scaled(0.6), start)
        code, out, err = run_cli(capsys, *args, "--init", "file", "--field-in", str(start))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["newton_iters"] <= 1
        assert payload["energy"] == pytest.approx(energy, rel=1e-12)

    def test_moved_file_starts_take_at_most_one_step(self, capsys, tmp_path):
        # mode1 solutions for n = 5..8 and alpha = 2, 8, 32, 128, each saved
        # translated by s in [0, 2 pi) and scaled by f in [0.95, 1.05], four
        # draws each.  The file route scales a start onto the Nehari manifold
        # and Newton puts it on its axis by the three-point vertex; these
        # starts took 248 steps when Newton started them as they came.  A
        # save/load round trip alone costs the one step left: its rounding in
        # the top modes, times the symbol (N/2)^4, is above the tolerance
        rng = np.random.default_rng(2002)
        solved, moved = tmp_path / "sol.field", tmp_path / "moved.field"
        steps, nonconstant = [], 0
        for n in (5, 6, 7, 8):
            for alpha in ("2", "8", "32", "128"):
                args = ("solve", "--dim", str(n), "--alpha", alpha)
                code, out, err = run_cli(capsys, *args, "--field-out", str(solved))
                assert code == 0, err
                base = json.loads(out)
                nonconstant += 4 * (not base["is_constant"])
                for _ in range(4):
                    s0, scale = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.95, 1.05)
                    save_field(load_field(solved).shift(s0).scaled(scale), moved)
                    code, out, err = run_cli(capsys, *args, "--init", "file", "--field-in", str(moved))
                    assert code == 0, err
                    payload = json.loads(out)
                    steps.append(payload["newton_iters"])
                    assert abs(payload["energy"] - base["energy"]) <= 1e-11 * base["energy"], (n, alpha)
        assert len(steps) == 64
        assert max(steps) <= 1
        assert sum(steps) <= nonconstant == 56

    # the one-peak start 1 + 0.3 cos(s + 0.2) on 64 points, off the axis
    # s = 0.  Nehari scaling plus Newton alone, with no descent, exits 2 from
    # it at (5, 32), (5, 128) and (6, 128) and elsewhere reaches 2- to 6-peak
    # tilings or the constant at 1.83-6.01 times the mode-1 energy
    @pytest.mark.parametrize(
        "n, alpha", [(5, 8), (5, 32), (5, 128), (6, 8), (6, 32), (6, 128), (7, 128), (8, 32), (8, 128)]
    )
    def test_far_file_start_reaches_the_one_peak_solution(self, capsys, tmp_path, n, alpha):
        start, solved = tmp_path / "far.field", tmp_path / "sol.field"
        save_field(PeriodicField.from_function(ManifoldSpec(n, 1.0), lambda s: 1.0 + 0.3 * np.cos(s + 0.2), 64), start)
        args = ("solve", "--dim", str(n), "--alpha", str(alpha))
        code, out, err = run_cli(capsys, *args, "--init", "file", "--field-in", str(start), "--field-out", str(solved))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["is_constant"] is False
        assert len(concentration_points(load_field(solved))) == 1
        code, out, err = run_cli(capsys, *args, "--init", "mode1")
        assert code == 0, err
        assert payload["energy"] == pytest.approx(json.loads(out)["energy"], rel=1e-14, abs=0.0)

    def test_saved_tiling_comes_back_as_itself(self, capsys, tmp_path):
        # the tiling is a critical point of the quotient, so the file route
        # stops the descent at its first check and returns it, not the
        # one-peak minimizer
        tiling = three_peak_tiling()
        assert len(concentration_points(tiling.field)) == 3
        saved, solved = tmp_path / "tiling.field", tmp_path / "sol.field"
        save_field(tiling.field, saved)
        code, out, err = run_cli(
            capsys, "solve", "--dim", "6", "--alpha", "32", "--init", "file",
            "--field-in", str(saved), "--field-out", str(solved),
        )
        assert (code, err) == (0, "")
        assert len(concentration_points(load_field(solved))) == 3
        assert json.loads(out)["energy"] == pytest.approx(tiling.energy, rel=1e-14, abs=0.0)

    # the tilings are saddles of the quotient: a perturbed one descends to
    # the one-peak minimizer (in 19 and 15 steps)
    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_perturbed_tiling_descends_to_the_one_peak_solution(self, capsys, tmp_path, eps):
        tiling = three_peak_tiling().field
        coeffs = tiling.coeffs.copy()
        coeffs[1] += eps * tiling.mean
        saved, solved = tmp_path / "perturbed.field", tmp_path / "sol.field"
        save_field(PeriodicField(tiling.spec, coeffs), saved)
        args = ("solve", "--dim", "6", "--alpha", "32")
        code, out, err = run_cli(capsys, *args, "--init", "file", "--field-in", str(saved), "--field-out", str(solved))
        assert (code, err) == (0, "")
        assert len(concentration_points(load_field(solved))) == 1
        energy = json.loads(out)["energy"]
        code, out, err = run_cli(capsys, *args, "--init", "mode1")
        assert code == 0, err
        assert energy == pytest.approx(json.loads(out)["energy"], rel=1e-14, abs=0.0)

    # the far start above scaled by 1e-100 and 1e100: these exited 2 when
    # the descent formed the norms of its raw start, naming the critical
    # energy (0.0), the norms or u^(2#-1)
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_far_file_start_of_any_scale_reaches_the_one_peak_solution(self, capsys, tmp_path, n, scale):
        start = tmp_path / "far.field"
        far = PeriodicField.from_function(ManifoldSpec(n, 1.0), lambda s: 1.0 + 0.3 * np.cos(s + 0.2), 64)
        save_field(far.scaled(scale), start)
        args = ("solve", "--dim", str(n), "--alpha", "32")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, *args, "--init", "file", "--field-in", str(start))
        assert (code, err) == (0, "")
        energy = json.loads(out)["energy"]
        code, out, err = run_cli(capsys, *args, "--init", "mode1")
        assert code == 0, err
        assert energy == pytest.approx(json.loads(out)["energy"], rel=1e-14, abs=0.0)

    # constant files at n = 5, alpha = 8: a constant is a critical point of
    # the quotient, so the route returns the constant solution.  Each
    # scale here exited 2 when the descent formed the norms of its raw
    # start: 1e-300 and 1e-40 named the critical energy (0.0), 1e33 the
    # norms, 1e40 and 1e300 u^(2#-1)
    @pytest.mark.parametrize("value", [1e-300, 1e-40, 1e33, 1e40, 1e300])
    def test_constant_file_start_of_any_scale_is_the_constant(self, capsys, tmp_path, value):
        path = tmp_path / "constant.field"
        save_field(PeriodicField.constant(ManifoldSpec(5, 1.0), value, 16), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "solve", "--dim", "5", "--alpha", "8", "--init", "file", "--field-in", str(path)
            )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["is_constant"] is True
        assert payload["max_value"] == pytest.approx(16.0 ** (1.0 / 8.0), rel=1e-14)

    def test_nonpositive_file_start_is_named(self, capsys, tmp_path):
        # the Nehari scaling needs a positive part; a start without one keeps
        # the error Newton gives it
        path = tmp_path / "negative.field"
        save_field(PeriodicField.constant(ManifoldSpec(5, 1.0), -1.0, 16), path)
        code, out, err = run_cli(
            capsys, "solve", "--dim", "5", "--alpha", "4", "--init", "file", "--field-in", str(path)
        )
        assert (code, out) == (1, "")
        assert err == "paneitz solve: error: initial guess must be positive somewhere\n"

    def test_start_whose_newton_rhs_overflowed_now_solves(self, capsys, tmp_path):
        # a constant 1e20 start's residual, 1e180 at n = 5, used to overflow
        # the GMRES norm ("linearized system is singular"); the file route
        # scales it onto the Nehari manifold, here the constant solution
        path = tmp_path / "large.field"
        save_field(PeriodicField.constant(ManifoldSpec(5, 1.0), 1e20, 16), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "solve", "--dim", "5", "--alpha", "4", "--init", "file", "--field-in", str(path)
            )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["is_constant"] is True
        assert payload["max_value"] == pytest.approx(4.0 ** (1.0 / 8.0), rel=1e-14)

    def test_dim_beyond_float64_sphere_volume_is_numerical_failure(self, capsys):
        reason = "volume of the unit 343-sphere: Gamma(172) is outside the float64 range"
        assert_named_float64_failure(capsys, reason, "solve", "--dim", "344", "--alpha", "4")

    @pytest.mark.parametrize("t", ["1e-160", "1e-100", "1e-80"])
    def test_circle_symbol_beyond_float64_is_numerical_failure(self, capsys, t):
        # sigma_1 ~ t^-4 leaves float64 near t = 1e-77; mode1 forms it first
        reason = f"symbol of P on circle mode 1 at t={t} is outside the float64 range"
        assert_named_float64_failure(capsys, reason, "solve", "--dim", "5", "--alpha", "4", "--t", t)

    def test_symbol_limit_is_on_the_top_mode(self, capsys):
        # sigma_32 ~ (32/t)^4 leaves float64 between t = 1e-75 and 1e-76
        args = ("solve", "--dim", "5", "--alpha", "4")
        code, out, err = run_cli(capsys, *args, "--t", "1e-75")
        assert code == 0, err
        assert json.loads(out)["is_constant"] is True
        reason = "symbol of P on circle mode 32 at t=1e-76 is outside the float64 range"
        assert_named_float64_failure(capsys, reason, *args, "--t", "1e-76")

    def test_constant_that_underflows_is_a_numerical_failure(self, capsys):
        # u_bar = a^((n-4)/8) = (1e-200)^2 is 0 in float64; this used to exit 1
        # with the usage error "initial guess must be positive somewhere", then
        # exit 2 with a positivity failure of a field that never converged
        reason = "constant solution a^((n-4)/8) at a=1e-200 underflows float64"
        assert_named_float64_failure(
            capsys, reason, "solve", "--dim", "20", "--alpha", "1", "--a", "1e-200", "--init", "constant"
        )

    def test_schedule_violation_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--dim", "5", "--alpha", "2", "--a", "2")
        assert code == 1
        assert "alpha^2/4" in err

    @pytest.mark.parametrize("alpha, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan")])
    def test_nonpositive_alpha_is_blamed_on_alpha(self, capsys, tmp_path, alpha, shown):
        # with --a auto, a = alpha^2/4 is 0 or nan too; the user set alpha,
        # so the message names the first-order coefficient
        path = tmp_path / "u.field"
        save_field(PeriodicField.constant(ManifoldSpec(5, 1.0), 1.0, 16), path)
        for argv in (["solve", "--dim", "5"], ["diagnose", str(path)]):
            code, out, err = run_cli(capsys, *argv, "--alpha", alpha)
            assert (code, out) == (1, "")
            assert err == f"paneitz {argv[0]}: error: first-order coefficient must be positive, got {shown}\n"

    @pytest.mark.parametrize(
        "coeffs", [("--alpha", "inf"), ("--alpha", "2", "--a", "inf"), ("--alpha", "1e200", "--a", "1")]
    )
    def test_infinite_coefficients_rejected(self, capsys, coeffs):
        # alpha = inf used to pass the domain check and fail later on NaN roots
        code, _, err = run_cli(capsys, "solve", "--dim", "5", *coeffs)
        assert code == 1
        assert "must be finite" in err

    @pytest.mark.parametrize("command", [("solve", "--alpha", "2"), ("sweep",)])
    def test_infinite_circle_rejected(self, capsys, command):
        # a circle whose period 2 pi t overflows float64 is outside the domain
        code, out, err = run_cli(capsys, command[0], "--dim", "5", "--t", "inf", *command[1:])
        assert (code, out) == (1, "")
        assert "circle period 2 pi t must be finite" in err

    def test_field_file_above_the_cap_rejected(self, capsys, tmp_path):
        path = tmp_path / "wide.field"
        save_field(PeriodicField.constant(ManifoldSpec(5, 1.0), 1.0, 1024), path)
        code, out, err = run_cli(
            capsys, "solve", "--dim", "5", "--alpha", "2", "--init", "file", "--field-in", str(path)
        )
        assert (code, out) == (1, "")
        assert "initial field has 1024 modes, above max_modes (512)" in err

    @pytest.mark.parametrize("init", ["mode1", "constant"])
    def test_field_in_without_init_file_rejected(self, capsys, tmp_path, init):
        # only --init file reads the field, so the other starts refuse it
        path = tmp_path / "c.field"
        save_field(PeriodicField.constant(ManifoldSpec(5, 1.0), 1.0, 64), path)
        code, out, err = run_cli(
            capsys, "solve", "--dim", "5", "--alpha", "8", "--init", init, "--field-in", str(path)
        )
        assert (code, out) == (1, "")
        assert err == f"paneitz solve: error: --field-in is read only with --init file, not --init {init}\n"

    def test_unconverged_krylov_solve_is_a_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(solver_mod, "_KRYLOV_MAX_ITER", 2)
        code, out, err = run_cli(capsys, "solve", "--dim", "5", "--alpha", "8")
        assert (code, out) == (2, "")
        assert err == (
            "paneitz solve: numerical failure: linear solve failed: "
            "Krylov solve: relative residual above 1e-14 after 2 GMRES iterations\n"
        )

    def test_unknown_flag_lists_usage(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--dim", "5", "--alpha", "2", "--bogus", "1")
        assert code == 1
        assert "usage" in err

    def test_numerical_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        # a wildly under-resolved, iteration-starved solve cannot converge;
        # the quotient descent would globalize this start, so it is starved too
        spec = ManifoldSpec(5, 1.0)
        u = PeriodicField.from_function(
            spec,
            lambda s: 0.3 + 4.0 * np.exp(-60 * np.minimum(s, spec.period - s) ** 2),
            16,
        )
        path = tmp_path / "seed.field"
        save_field(u, path)
        monkeypatch.setattr(SolverOptions, "max_iter", 1)
        monkeypatch.setattr(SolverOptions, "max_backtracks", 1)
        monkeypatch.setattr(SolverOptions, "max_modes", 16)
        monkeypatch.setattr(solver_mod, "_DESCENT_MAX_ITER", 1)
        code, _, err = run_cli(
            capsys,
            "solve", "--dim", "5", "--alpha", "8", "--a", "auto",
            "--init", "file", "--field-in", str(path),
        )
        assert code == 2
        assert "numerical failure" in err


    # Margins g_min a L mean(u) of the mode1 solutions at alpha = 512.  Their
    # fine-grid minima round to -1.6e-13 .. -3.6e-15, which a sign test on
    # the samples used to refuse with exit 2.  All four stop at the 512-mode
    # cap, n = 5 and 6 with their coefficient tails above tail_tol.
    @pytest.mark.parametrize(
        "n, margin, tail",
        [(5, 7.69e-20, 4.52e-7), (6, 3.56e-19, 1.17e-9), (7, 1.59e-18, 4.85e-12), (8, 6.96e-18, 2.5e-14)],
    )
    def test_alpha_512_solves_with_a_positive_margin(self, capsys, n, margin, tail):
        code, out, err = run_cli(capsys, "solve", "--dim", str(n), "--alpha", "512", "--init", "mode1")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert not payload["is_constant"]
        assert payload["positivity_margin"] > 0.0
        assert payload["positivity_margin"] == pytest.approx(margin, rel=0.01)
        assert payload["modes"] == SolverOptions.max_modes
        assert payload["tail_fraction"] == pytest.approx(tail, rel=0.02)
        assert (payload["tail_fraction"] > SolverOptions.tail_tol) == (n <= 6)
        if n == 5:
            assert payload["energy"] == pytest.approx(9.71714285043043e6, rel=1e-13)


class TestSweepCommand:
    def test_csv_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--dim", "5", "--t", "1", "--alpha", "2:8:3:log",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [float(r["alpha"]) for r in rows] == pytest.approx([2.0, 4.0, 8.0])
        assert rows[0]["is_nonconstant"] == "true"

    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--dim", "5", "--alpha", "2:4:2:log", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2

    def test_undefined_ratio_is_null_in_json(self, capsys):
        # at the constant row the gradient ratio is 0/0, NaN in the record
        code, out, _ = run_cli(capsys, "sweep", "--dim", "8", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert (row["alpha"], row["is_nonconstant"], row["R_gradL2"]) == (2.0, False, None)
        assert '"R_gradL2": null' in out

    def test_schedule_file(self, capsys, tmp_path):
        sched = tmp_path / "schedule.txt"
        sched.write_text("2.0 1.0\n4.0 4.0\n")
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--dim", "5", "--schedule", str(sched),
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [float(r["a_alpha"]) for r in rows] == [1.0, 4.0]

    @pytest.mark.parametrize("row", ["4.0 x", "4.0", "4.0 4.0 1"])
    def test_bad_schedule_row_names_file_and_line(self, capsys, tmp_path, row):
        # a non-numeric entry used to read "could not convert string to float: 'x'"
        sched = tmp_path / "bad.txt"
        sched.write_text(f"# alpha a\n2.0 1.0\n{row}\n")
        code, out, err = run_cli(capsys, "sweep", "--dim", "5", "--schedule", str(sched), "--format", "json")
        assert (code, out) == (1, "")
        assert err == f"paneitz sweep: error: {sched}, line 3: expected 'alpha value', got {row!r}\n"

    @pytest.mark.parametrize(
        "grid, why",
        [
            (grid, "min and max must be numbers, count an integer")
            for grid in ("2:8:x", "2:x:3", "x:8:3:log", "2:8:3.5")
        ] + [
            (grid, "need 0 < min <= max < inf and count >= 1")
            for grid in ("nan:8:3", "2:inf:3", "inf:inf:2", "0:8:3", "8:2:3", "2:8:0")
        ],
    )
    def test_bad_alpha_grid_is_named(self, capsys, grid, why):
        # used to read "invalid literal for int() ...", or to blame a nan or
        # infinite bound on the schedule or the grid order
        code, out, err = run_cli(capsys, "sweep", "--dim", "5", "--alpha", grid, "--format", "json")
        assert (code, out) == (1, "")
        assert err == f"paneitz sweep: error: bad alpha grid {grid!r}: {why}\n"

    def test_schedule_file_violating_bound_rejected(self, capsys, tmp_path):
        sched = tmp_path / "bad.txt"
        sched.write_text("2.0 2.0\n4.0 4.0\n")
        code, _, err = run_cli(
            capsys, "sweep", "--dim", "5", "--schedule", str(sched), "--format", "json"
        )
        assert code == 1
        assert "alpha^2/4" in err

    def test_bad_ball_radius_rejected_before_any_solve(self, capsys, tmp_path, monkeypatch):
        # used to solve the first row and only then exit 1
        def no_solve(*args):
            raise AssertionError("solved a row")

        monkeypatch.setattr("paneitz.sweep.newton_solve", no_solve)
        monkeypatch.setattr("paneitz.sweep.mode1_solution", no_solve)
        monkeypatch.setattr("paneitz.sweep.constant_solution", no_solve)
        out = tmp_path / "s.csv"
        code, _, err = run_cli(capsys, "sweep", "--dim", "5", "--delta", "100", "--out", str(out))
        assert code == 1
        assert "delta must lie in (0, L/2)" in err
        assert not out.exists()

    # Regression: a halved continuation substep used to look its alpha up in
    # the file's table and crash with "KeyError: 9.0".
    def test_quarter_square_schedule_file_matches_grid(self, capsys, tmp_path):
        sched = tmp_path / "quarter.txt"
        sched.write_text("2 1\n16 64\n128 4096\n")
        from_file, from_grid = tmp_path / "file.csv", tmp_path / "grid.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--dim", "5", "--schedule", str(sched), "--out", str(from_file)
        )
        assert code == 0, err
        code, _, err = run_cli(
            capsys, "sweep", "--dim", "5", "--alpha", "2:128:3:log", "--out", str(from_grid)
        )
        assert code == 0, err
        assert from_file.read_bytes() == from_grid.read_bytes()

    def test_eighth_square_schedule_file_within_solver_acceptance(self, capsys, tmp_path):
        sched = tmp_path / "eighth.txt"
        sched.write_text("2 0.5\n16 32\n128 2048\n")
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--dim", "5", "--schedule", str(sched), "--out", str(out)
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [float(r["a_alpha"]) for r in rows] == [0.5, 32.0, 2048.0]
        # the peak grows with alpha, so the top row's solve bounds every row
        code, text, err = run_cli(capsys, "solve", "--dim", "5", "--alpha", "128", "--a", "2048")
        assert code == 0, err
        opts, p = SolverOptions(), critical_exponent(5) - 1.0
        acceptance = max(opts.tol, opts.rtol * json.loads(text)["max_value"] ** p)
        assert all(float(r["residual_sup"]) <= acceptance for r in rows)

    def test_default_grid_columns_pinned(self, capsys, tmp_path):
        # literals from an earlier dense-LU solver, so compared to 1e-13
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--dim", "5", "--out", str(out))
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="ascii"))))
        assert [int(r["modes_used"]) for r in rows] == [64, 128, 128, 256, 256, 512, 512]
        # provenance of the scaled continuation predictor, not a result
        assert [int(r["newton_iters"]) for r in rows] == [1, 4, 3, 3, 2, 2, 1]
        expected = [
            141.49379223251881, 590.28125871870316, 2371.9550695931944, 9489.3852139126084,
            37957.589216351313, 151830.35703796826, 607321.42815190193,
        ]
        assert [float(r["E_m_estimate"]) for r in rows] == pytest.approx(expected, rel=1e-13)

    # the alpha = 2 row is the exact constant with no Newton step; its
    # energy and quotient come from the same quadrature as every other row
    @pytest.mark.parametrize(
        "n, row",
        [
            (7, "2,1,1,1,207.80606087253852,,207.80606087253852,21.104551148876837,true,false,0.75,nan,0,64,0,0"),
            (8, "2,1,1,1,204.0131231901876,,204.0131231901876,14.283316253244118,true,false,0.75,nan,0,64,0,0"),
        ],
    )
    def test_constant_row_pinned(self, capsys, tmp_path, n, row):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--dim", str(n), "--out", str(out))
        assert code == 0, err
        assert out.read_text(encoding="ascii").splitlines()[1] == row

    # Regression: on (2, 4, 16, 128) the tangent predictor jumped to the
    # 2-peak branch at alpha = 16 and stayed there (E_m(16) = 18889.0 for
    # n = 5 against 9489.39 on the other grids).
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_energy_independent_of_alpha_grid(self, capsys, tmp_path, n):
        grids = [(2, 4, 8, 16, 32, 64, 128), (2, 4, 16, 128), (2, 16, 128), (2, 8, 32, 128)]
        energies = []
        for i, grid in enumerate(grids):
            sched = tmp_path / f"grid{i}.txt"
            sched.write_text("".join(f"{alpha} {alpha * alpha / 4}\n" for alpha in grid))
            out = tmp_path / f"grid{i}.csv"
            code, _, err = run_cli(
                capsys, "sweep", "--dim", str(n), "--schedule", str(sched), "--out", str(out)
            )
            assert code == 0, err
            rows = csv.DictReader(io.StringIO(out.read_text(encoding="ascii")))
            energies.append({float(r["alpha"]): float(r["E_m_estimate"]) for r in rows})
        for grid, found in zip(grids, energies):
            for alpha in grid:
                assert found[alpha] == pytest.approx(energies[0][alpha], rel=1e-12), (grid, alpha)

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # a fresh process per thread count, since BLAS reads it at load time
        src = str(Path(paneitz.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            cmd = [sys.executable, "-m", "paneitz.cli", "sweep", "--dim", "5", "--out", str(out)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dense_grid_bytes_independent_of_blas_threads(self, tmp_path):
        # the dense grid refines its fields up to 512 modes, so Krylov solves
        # and ball masses run at every resolution; one process per thread count
        src = str(Path(paneitz.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            cmd = [sys.executable, "-m", "paneitz.cli", "sweep", "--dim", "5", "--alpha", "2:128:16:log",
                   "--out", str(out)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") == 17
        assert outputs[0] == outputs[1]

    def test_dim_beyond_float64_gamma_is_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--dim", "200", "--alpha", "2:4:2", "--format", "json")
        assert (code, out) == (2, "")
        assert "numerical failure: sharp constant for n=200: Gamma(n) is outside the float64 range" in err

    def test_dim_beyond_float64_sphere_volume_is_numerical_failure(self, capsys):
        reason = "volume of the unit 343-sphere: Gamma(172) is outside the float64 range"
        assert_named_float64_failure(
            capsys, reason, "sweep", "--dim", "344", "--alpha", "2:4:2", "--format", "json"
        )

    def test_circle_symbol_beyond_float64_is_numerical_failure(self, capsys):
        reason = "symbol of P on circle mode 1 at t=1e-160 is outside the float64 range"
        assert_named_float64_failure(
            capsys, reason, "sweep", "--dim", "5", "--t", "1e-160", "--alpha", "2:4:2", "--format", "json"
        )

    def test_csv_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--dim", "5", "--alpha", "2:4:2")
        assert code == 1
        assert "--out" in err

    def test_default_grid_is_log_spaced(self, capsys):
        # omitting --alpha sweeps the canonical log grid 2..128
        code, out, _ = run_cli(capsys, "sweep", "--dim", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 7
        assert payload[0]["alpha"] == pytest.approx(2.0)
        assert payload[-1]["alpha"] == pytest.approx(128.0)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ("sweep", "--dim", "5", "--alpha", "2:4:2:log", "--out")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, str(f1))
        run_cli(capsys, *args, str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_wide_grid_keeps_its_alpha_512_branch(self, capsys, tmp_path):
        # the alpha = 512 row used to fall back to the constant (E_const 1.734e8)
        out = tmp_path / "wide.csv"
        code, _, err = run_cli(capsys, "sweep", "--dim", "5", "--alpha", "2:512:9:log", "--out", str(out))
        assert code == 0, err
        top = list(csv.DictReader(io.StringIO(out.read_text())))[-1]
        assert float(top["alpha"]) == 512.0
        assert top["is_nonconstant"] == "true"
        assert float(top["E_m_estimate"]) == pytest.approx(9.717e6, rel=1e-4)

    # Regression: both sweeps used to stop with "coefficients are not
    # conjugate-symmetric" (exit 1) when a residual's rounding exceeded the
    # real-field check.
    @pytest.mark.parametrize("grid", [("--dim", "7"), ("--dim", "5", "--alpha", "2:512:9:log")])
    def test_sweep_rows_within_solver_acceptance(self, capsys, tmp_path, grid):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", *grid, "--out", str(out))
        assert code == 0, err
        with open(out, encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        # the peak grows along the branch, so the solve at the largest
        # nonconstant alpha bounds the acceptance of every row
        top = max((r["alpha"] for r in rows if r["is_nonconstant"] == "true"), key=float)
        code, text, err = run_cli(capsys, "solve", grid[0], grid[1], "--alpha", top)
        assert code == 0, err
        opts, p = SolverOptions(), critical_exponent(int(grid[1])) - 1.0
        acceptance = max(opts.tol, opts.rtol * json.loads(text)["max_value"] ** p)
        assert all(float(r["residual_sup"]) <= acceptance for r in rows)


class TestSolveDomain:
    # Every run in the supported domain ends verified (exit 0) or as a named
    # numerical failure (exit 2); exit 1 is for usage and domain errors only.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(5, 12),
        t=st.floats(0.3, 3.0),
        alpha=st.floats(0.5, 256.0),
        frac=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_solve_never_reports_a_usage_error(self, n, t, alpha, frac):
        a = frac * alpha * alpha / 4.0
        assume(a > 0.0)
        argv = ["solve", "--dim", str(n), "--t", repr(t), "--alpha", repr(alpha), "--a", repr(a)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code == 0 or (code == 2 and "numerical failure: " in err.getvalue()), err.getvalue()


class TestDiagnoseCommand:
    def test_report(self, capsys, tmp_path):
        spec = ManifoldSpec(5, 1.0)
        u = PeriodicField.from_function(
            spec,
            lambda s: 1.0 + np.exp(-20 * np.minimum(s, spec.period - s) ** 2),
            256,
        )
        path = tmp_path / "u.field"
        save_field(u, path)
        code, out, _ = run_cli(
            capsys, "diagnose", str(path), "--alpha", "2.0", "--a", "1.0"
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["R_L2"] <= 1.0
        assert 0.0 <= payload["R_gradL2"] <= 1.0
        assert payload["R_strong"] == payload["R_gradL2"]
        assert payload["grad_ratios_defined"] is True
        assert payload["hessian_ratio_over_a"] == pytest.approx(
            payload["hessian_ratio"] / 1.0
        )

    def test_constant_field_gradient_ratios_are_null(self, capsys, tmp_path):
        # a constant has no gradient, so every gradient ratio is 0/0
        path = tmp_path / "c.field"
        code, _, _ = run_cli(
            capsys, "solve", "--dim", "5", "--alpha", "2", "--init", "constant", "--field-out", str(path)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "diagnose", str(path), "--alpha", "2")
        assert code == 0
        payload = json.loads(out)
        assert [payload[k] for k in ("R_gradL2", "R_strong", "R_gradL2_weak")] == [None, None, None]
        assert payload["grad_ratios_defined"] is False

    @pytest.mark.parametrize(
        "row, why", [("0.5", "expected two columns"), ("0.5 nan", "is not a finite number")]
    )
    def test_malformed_field_file_is_domain_error(self, capsys, tmp_path, row, why):
        path = tmp_path / "bad.field"
        save_field(PeriodicField.from_values(ManifoldSpec(5, 1.0), np.ones(16)), path)
        lines = path.read_text().splitlines()
        lines[5] = row
        path.write_text("\n".join(lines) + "\n")
        for argv in (
            ["diagnose", str(path), "--alpha", "2"],
            ["solve", "--dim", "5", "--alpha", "2", "--init", "file", "--field-in", str(path)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert f"paneitz {argv[0]}: error: {path}, line 6: " in err and why in err

    def test_bad_header_value_is_domain_error(self, capsys, tmp_path):
        # used to exit 1 with "invalid literal for int() with base 10: 'abc'",
        # naming no file
        path = tmp_path / "bad.field"
        path.write_text("# 5 1 abc\n" + "0 1\n" * 16)
        code, out, err = run_cli(capsys, "diagnose", str(path), "--alpha", "2")
        assert (code, out) == (1, "")
        assert err == f"paneitz diagnose: error: bad field file header in {path}: invalid literal for int() with base 10: 'abc'\n"

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "diagnose", "missing.field", "--alpha", "2")
        assert code == 1
        assert "missing.field" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--dim", "5", "--alpha", "8", "--a", "xyz"], "--a must be a number or 'auto', got 'xyz'"),
            (["sweep", "--dim", "5", "--alpha", "2:128"], "--alpha expects min:max:count[:log]"),
            (["sweep", "--dim", "5", "--alpha", "2:128:7:lin"], "unknown alpha grid spacing 'lin'"),
            (["sweep", "--dim", "5", "--schedule", "{comments}"], "schedule file {comments} is empty"),
            (["solve", "--dim", "5", "--alpha", "8", "--init", "file"], "--init file requires --field-in PATH"),
            (
                ["solve", "--dim", "6", "--alpha", "8", "--init", "file", "--field-in", "{field}"],
                "field file is for n=5, t=1.0; requested n=6, t=1.0",
            ),
            (
                ["sweep", "--dim", "5", "--alpha", "2:8:3", "--schedule", "{comments}"],
                "give either --alpha or a schedule file, not both",
            ),
        ],
        ids=["bad-a", "short-grid", "grid-spacing", "empty-schedule", "init-file-no-field", "field-dim", "grid-and-schedule"],
    )
    def test_exit_1_with_one_named_line(self, capsys, tmp_path, argv, message):
        paths = {"comments": tmp_path / "comments.txt", "field": tmp_path / "dim5.field"}
        paths["comments"].write_text("# alpha a\n\n# none\n")
        save_field(PeriodicField.constant(ManifoldSpec(5, 1.0), 1.0, 64), paths["field"])
        argv = [arg.format(**paths) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"paneitz {argv[0]}: error: {message.format(**paths)}\n"


def run_fresh(*argvs):
    """(exit code, stdout, stderr) of each argv, each in a fresh interpreter;
    the interpreters run side by side."""
    src = str(Path(paneitz.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "paneitz.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in argvs
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    return [(proc.returncode, *out) for proc, out in zip(procs, outputs)]


class TestRepeatedMain:
    def test_in_process_sequence_matches_fresh_interpreters(self, capsys, tmp_path):
        # main is called repeatedly in one process; no parse state may carry
        # over from one call to the next
        field, fresh_field = tmp_path / "F.field", tmp_path / "fresh.field"
        solve = ["solve", "--dim", "5", "--alpha", "8"]
        calls = [
            solve + ["--field-out", str(field)],
            ["solve", "--dim", "5", "--alpha", "8", "--init", "sideways"],
            ["solve", "--dim", "5", "--alpha", "4"],
            ["diagnose", str(field), "--alpha", "8"],
            ["constants", "--dim", "6"],
        ]
        seen = []
        for k, argv in enumerate(calls):
            seen.append(run_cli(capsys, *argv))
            if k == 0:
                written, stamp = field.read_bytes(), field.stat().st_mtime_ns
        assert field.read_bytes() == written and field.stat().st_mtime_ns == stamp
        assert [code for code, _, _ in seen] == [0, 1, 0, 0, 0]

        references = run_fresh(solve + ["--field-out", str(fresh_field)], *calls[1:])
        assert seen == references
        assert fresh_field.read_bytes() == written


class TestPackageNamespace:
    def test_holds_only_modules_and_version(self):
        # the modules are the API: the package re-exports no function or class
        public = {k: v for k, v in vars(paneitz).items() if not k.startswith("_")}
        assert "quadrature" in public
        assert all(isinstance(v, type(paneitz)) for v in public.values()), sorted(public)
        assert isinstance(paneitz.__version__, str)
        assert paneitz.cli.__all__ == ["main"]


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["constants", "bubble-check", "solve", "sweep", "diagnose"]
    )
    def test_subcommand_help(self, capsys, cmd):
        code, out, _ = run_cli(capsys, cmd, "--help")
        assert code == 0
        assert "--" in out or "usage" in out
