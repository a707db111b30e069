"""The three benchmark workloads: task lists drawn from a seed, the program
calls each task makes, and the checks on each task's outputs.

A task is one chain of program calls, timed as a unit.  Checks run after the
task, untimed, and raise ``TaskFailed`` with a named reason.  The program is
reached only through ``paneitz.cli.main(argv)`` and public functions, always
looked up on their module at call time so that the tracer's wrappers apply.
``nominal_pass_s`` is the wall time of one pass on a 2-vCPU x86_64 machine;
``run.py`` divides ``--seconds`` by it to fix how many passes a run makes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import paneitz.bubble
import paneitz.cli
import paneitz.constants
import paneitz.diagnostics
import paneitz.field
import paneitz.geometry
import paneitz.solver


class TaskFailed(Exception):
    """A task failed: nonzero exit, exception, or failed output check."""


def call_cli(argv: list[str]) -> str:
    """Run ``paneitz <argv>`` in-process; return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = paneitz.cli.main(argv)
    except Exception as exc:  # a crash in the program fails the task, not the benchmark
        raise TaskFailed(f"{argv[0]}: raised {type(exc).__name__}: {exc}") from exc
    if code != 0:
        message = err.getvalue().strip().splitlines()
        raise TaskFailed(f"{argv[0]}: exit {code}: {message[-1] if message else ''}")
    return out.getvalue()


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise TaskFailed(reason)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


EPS = sys.float_info.epsilon


def _acceptance(peak: float, n: int) -> float:
    """Largest residual sup the solver accepts at nonlinear scale peak^(2#-1):
    ten times max(tol, rtol * max(1, peak^p)), with the solver's defaults."""
    opts = paneitz.solver.SolverOptions()
    p = paneitz.constants.critical_exponent(n) - 1.0
    return 10.0 * max(opts.tol, opts.rtol * max(1.0, peak**p))


# the fixed sweep CSV header, spelled out here so the check is independent of the program
SWEEP_HEADER = [
    "alpha", "a_alpha", "c_alpha", "d_alpha", "E_const", "E_nonconst", "E_m_estimate",
    "lambda_quotient", "lambda_below_k0_inv2", "is_nonconstant", "R_L2", "R_gradL2",
    "hessian_ratio_over_a", "modes_used", "newton_iters", "residual_sup",
]


class SweepDense:
    """``paneitz sweep --dim 5 --t 1 --alpha 2:128:64:log``: continuation with
    mode refinement up to N = 512, where the dense Jacobian and LU dominate.
    The argv is fixed; the seed changes nothing here."""

    name = "sweep-dense"
    nominal_pass_s = 2.4
    n, t, rows, alpha_max = 5, 1.0, 64, 128.0

    def __init__(self, seed: int, workdir: str):
        self.csv_path = os.path.join(workdir, "sweep.csv")
        self.tasks = [{"label": f"n={self.n} t=1 alpha=2:128:{self.rows}:log"}]

    def prepare(self) -> None:
        """Independent reference: E_m(128) by a fresh quotient start."""
        self.volume = paneitz.geometry.product_volume(paneitz.geometry.ManifoldSpec(self.n, self.t))
        try:
            ref = json.loads(
                call_cli(["solve", "--dim", str(self.n), "--t", "1", "--alpha", "128", "--init", "mode1"])
            )
        except TaskFailed as exc:  # every sweep then fails with this reason
            self.ref_error = f"reference {exc}"
            return
        self.ref_error = None
        self.ref_energy = ref["energy"]
        # the scale grows with alpha along the branch, so alpha = 128 bounds every row
        self.residual_bound = _acceptance(ref["max_value"], self.n)

    def run(self, task):
        call_cli(["sweep", "--dim", str(self.n), "--t", "1", "--alpha", f"2:128:{self.rows}:log",
                  "--out", self.csv_path, "--format", "csv"])
        if self.ref_error is not None:  # the sweep cannot be verified
            raise TaskFailed(self.ref_error)

    def check(self, task, _) -> int:
        with open(self.csv_path, encoding="ascii") as fh:
            table = list(csv.reader(fh))
        _require(table and table[0] == SWEEP_HEADER, "sweep CSV header differs from the fixed header")
        rows = [dict(zip(SWEEP_HEADER, row)) for row in table[1:]]
        _require(len(rows) == self.rows, f"{len(rows)} sweep rows, expected {self.rows}")
        for row in rows:
            alpha, a = float(row["alpha"]), float(row["a_alpha"])
            e_const, e_m = float(row["E_const"]), float(row["E_m_estimate"])
            residual = float(row["residual_sup"])
            _require(residual <= self.residual_bound,
                     f"alpha={alpha}: residual_sup {residual:.3e} > acceptance {self.residual_bound:.3e}")
            _require(e_m <= e_const, f"alpha={alpha}: E_m_estimate {e_m!r} > E_const {e_const!r}")
            _, closed = paneitz.constants.constant_branch(self.n, a, self.volume)
            _require(_rel(e_const, closed) <= 1e-12,
                     f"alpha={alpha}: E_const {e_const!r} != constant_branch {closed!r}")
        last = rows[-1]
        _require(float(last["alpha"]) == self.alpha_max, f"last row alpha {last['alpha']}, expected 128")
        e_last = float(last["E_m_estimate"])
        _require(_rel(e_last, self.ref_energy) <= 1e-8,
                 f"E_m(128) {e_last!r} != solve --init mode1 energy {self.ref_energy!r}")
        return len(rows)


class SolveFresh:
    """Independent solves without continuation, n = 5..8, four alphas per n.

    Each task: ``solve --init mode1`` writing a field file; load it, translate
    and rescale it, save; ``solve --init file``; ``diagnose``.  Alpha 2 and
    128 are fixed.  The two interior alphas sit at log positions 1/3 and 2/3
    of [2, 128], each jittered by up to 1/12 of the log-range.  The interior
    alphas, translations and rescales are drawn for every task of every pass
    from a stream the seed starts.  Solve cost varies unevenly with alpha, and
    the file route fails for some draws at alpha = 128, so a run measures the
    average over draws instead of one draw's luck.
    """

    name = "solve-fresh"
    nominal_pass_s = 1.0
    dims = (5, 6, 7, 8)
    t = 1.0

    def __init__(self, seed: int, workdir: str):
        self.draws = random.Random(seed)
        self.workdir = workdir
        # interior alpha k sits at log-position k/3 of [2, 128]
        self.tasks = [
            {"label": f"n={n} alpha={slot}", "n": n, "slot": slot, "k": k}
            for n in self.dims
            for slot, k in (("2", None), ("a1", 1), ("a2", 2), ("128", None))
        ]

    def prepare(self) -> None:
        pass

    def _path(self, task, stage: str) -> str:
        return os.path.join(self.workdir, f"n{task['n']}-{task['slot']}-{stage}.field")

    def run(self, task):
        # all draws first, so the stream does not depend on which calls failed
        k = task["k"]
        alpha = task["slot"] if k is None else repr(2.0 * 64.0 ** ((k + self.draws.uniform(-0.25, 0.25)) / 3.0))
        shift = self.draws.uniform(0.0, 2.0 * math.pi * self.t)
        scale = self.draws.uniform(0.95, 1.05)
        drawn = "" if k is None else f" [alpha={alpha}]"
        common = ["--dim", str(task["n"]), "--t", "1", "--alpha", alpha]
        mode1_path, moved_path, file_path = (self._path(task, s) for s in ("mode1", "moved", "file"))
        try:
            mode1 = json.loads(call_cli(["solve", *common, "--init", "mode1", "--field-out", mode1_path]))
            moved = paneitz.field.load_field(mode1_path).shift(shift).scaled(scale)
            paneitz.field.save_field(moved, moved_path)
            drawn = f" [alpha={alpha} shift={shift:.4f} scale={scale:.4f}]"
            from_file = json.loads(call_cli(
                ["solve", *common, "--init", "file", "--field-in", moved_path, "--field-out", file_path]
            ))
            diagnosis = json.loads(call_cli(["diagnose", file_path, "--alpha", alpha]))
        except TaskFailed as exc:
            raise TaskFailed(f"{exc}{drawn}") from exc
        return float(alpha), mode1, from_file, diagnosis

    def _check_field(self, task, alpha: float, route: str) -> None:
        """Positivity and the residual of the field as read back from its file."""
        u = paneitz.field.load_field(self._path(task, route))
        n, a = task["n"], alpha * alpha / 4.0
        where = f"n={n} alpha={alpha:.6g}"
        values = u.fine_values()
        low, peak = float(values.min()), float(values.max())
        _require(low > 0.0, f"{where}: {route} field min {low:.3e} <= 0")
        residual = float(abs(paneitz.solver.residual(u, paneitz.constants.OperatorParams(alpha, a)).values).max())
        # Reading 17-digit samples back leaves each coefficient a few ulps of the
        # peak off; the symbol mu^2 + alpha mu + a multiplies that by up to its
        # top-mode value, and N such errors add like a random walk.
        mu = (u.modes / 2 / self.t) ** 2
        readback = EPS * (mu * mu + alpha * mu + a) * peak * math.sqrt(u.modes)
        bound = _acceptance(peak, n) + readback
        _require(residual <= bound,
                 f"{where}: {route} field residual {residual:.3e} > {bound:.3e} "
                 "(solver acceptance plus read-back rounding)")

    def check(self, task, result) -> int:
        alpha, mode1, from_file, diagnosis = result
        where = f"n={task['n']} alpha={alpha:.6g}"
        for route in ("mode1", "file"):
            self._check_field(task, alpha, route)
        for route, out in (("mode1", mode1), ("file", from_file)):
            _require(out["min_value"] > 0.0, f"{where}: {route} solve min_value {out['min_value']!r} <= 0")
        _require(_rel(from_file["energy"], mode1["energy"]) <= 1e-9,
                 f"{where}: file-route energy {from_file['energy']!r} != mode1 {mode1['energy']!r}")
        r_l2 = diagnosis["R_L2"]
        _require(r_l2 is not None and 0.0 <= r_l2 <= 1.0, f"{where}: diagnose R_L2 {r_l2!r}")
        return 1


class BubbleQuad:
    """n = 5..8: ``bubble-check --dim n --lambda0 lambda`` with lambda drawn in
    [0.5, 2], plus ``quantization_check(n, budget)`` with the budget drawn
    between k and k+1 quanta.  No solver or FFT calls."""

    name = "bubble-quad"
    nominal_pass_s = 0.45
    dims = (5, 6, 7, 8)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.tasks = []
        for n in self.dims:
            quanta = rng.randint(1, 4)
            self.tasks.append({
                "label": f"n={n}",
                "n": n,
                "lambda0": repr(rng.uniform(0.5, 2.0)),
                "quanta": quanta,
                "budget": (quanta + rng.uniform(0.1, 0.9))
                * paneitz.bubble.expected_bubble_energy(n),
            })

    def prepare(self) -> None:
        pass

    def run(self, task):
        check = json.loads(call_cli(["bubble-check", "--dim", str(task["n"]), "--lambda0", task["lambda0"]]))
        return check, paneitz.diagnostics.quantization_check(task["n"], task["budget"])

    def check(self, task, result) -> int:
        check, report = result
        label = task["label"]
        _require(check["residual_sup"] <= 1e-10, f"{label}: residual_sup {check['residual_sup']!r} > 1e-10")
        _require(_rel(check["energy"], check["energy_expected"]) <= 1e-6,
                 f"{label}: energy {check['energy']!r} vs expected {check['energy_expected']!r}")
        _require(report.synthetic_ok, f"{label}: synthetic two-bubble energy off by {report.synthetic_rel_dev:.3e}")
        _require(report.k_max == task["quanta"], f"{label}: k_max {report.k_max}, expected {task['quanta']}")
        return 1


WORKLOADS = {w.name: w for w in (SweepDense, SolveFresh, BubbleQuad)}
