"""Command-line front end.

Subcommands: constants, bubble-check, solve, sweep, diagnose.  Single
results go to standard output as JSON; sweeps go to --out as CSV or JSON.
Exit status: 0 success, 1 domain/usage error, 2 numerical failure.  All
numerics are deterministic (no seeds), so identical argv yields identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bubble as bubble_mod
from .constants import (
    OperatorParams,
    bubble_coefficient,
    critical_exponent,
    sharp_constant,
)
from .diagnostics import concentration_ratios
from .field import load_field, save_field
from .geometry import ManifoldSpec
from .solver import ConvergenceError, constant_solution, minimize_quotient, mode1_solution, rescale_to_solution
from .sweep import SweepConfig, _json_ready, emit, quarter_square, run_sweep

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; domain errors are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _print_json(payload: dict) -> None:
    clean = {k: _json_ready(v) for k, v in payload.items()}
    print(json.dumps(clean, indent=2))


def _resolve_a(alpha: float, text: str) -> float:
    if text == "auto":
        return quarter_square(alpha)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--a must be a number or 'auto', got {text!r}") from None


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("--alpha expects min:max:count[:log]")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"bad alpha grid {text!r}: min and max must be numbers, count an integer") from None
    if count < 1 or not 0 < lo <= hi < np.inf:
        raise ValueError(f"bad alpha grid {text!r}: need 0 < min <= max < inf and count >= 1")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"unknown alpha grid spacing {parts[3]!r}")
        grid = np.geomspace(lo, hi, count)
    else:
        grid = np.linspace(lo, hi, count)
    return tuple(float(a) for a in grid)


def _read_schedule_file(path: str) -> list[tuple[float, float]]:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                alpha, value = map(float, line.split())
            except ValueError:
                raise ValueError(f"{path}, line {number}: expected 'alpha value', got {line!r}") from None
            rows.append((alpha, value))
    if not rows:
        raise ValueError(f"schedule file {path} is empty")
    return rows


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so repeated main calls share one
    parser = _Parser(prog="paneitz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="print closed-form constants for a dimension")
    p.add_argument("--dim", type=int, required=True)

    p = sub.add_parser("bubble-check", help="verify the radial extremal")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--lambda0", type=float, default=1.0)
    p.add_argument("--rmax", type=float, default=bubble_mod._RMAX)

    p = sub.add_parser("solve", help="solve the circle-reduced equation")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", default="auto", help="zeroth-order coefficient, or 'auto' for alpha^2/4")
    p.add_argument(
        "--init",
        choices=("constant", "mode1", "file"),
        default="mode1",
        help="constant: the exact constant, no Newton step; mode1: the perturbed-constant "
        "seed (the nonconstant branch past its bifurcation, the constant at or below it); "
        "file: the --field-in field.  mode1 and file take one route: quotient "
        "minimization from the start, then Newton from the minimizer's multiple on "
        "the Nehari manifold <Pu, u> = int u_+^(2#)",
    )
    p.add_argument("--field-in", help="field file; required with --init file and refused otherwise")
    p.add_argument("--field-out", help="write the solution field to this path")

    p = sub.add_parser("sweep", help="sweep alpha and tabulate E_m estimates")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument(
        "--alpha",
        help="grid min:max:count[:log]; defaults to 2:128:7:log with --schedule auto",
    )
    p.add_argument("--schedule", default="auto", help="'auto' (alpha^2/4) or a file of 'alpha value' lines")
    p.add_argument("--delta", type=float, help="diagnostics ball radius (default L/8)")
    p.add_argument("--out", help="output path (required for csv)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("diagnose", help="concentration report for a stored field")
    p.add_argument("field", help="field file to analyze")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", default="auto")
    p.add_argument("--delta", type=float, help="ball radius (default L/8)")

    return parser


def _cmd_constants(args) -> int:
    n = args.dim
    k0, k0_inv_sq = sharp_constant(n)
    _print_json(
        {
            "n": n,
            "two_sharp": critical_exponent(n),
            "K0": k0,
            "K0_inv_sq": k0_inv_sq,
            "c_n": bubble_coefficient(n),
        }
    )
    return 0


def _cmd_bubble_check(args) -> int:
    params = bubble_mod.BubbleParams(n=args.dim, lambda0=args.lambda0)
    if not 0 < args.rmax < np.inf:
        raise ValueError(f"rmax must be positive and finite, got {args.rmax!r}")
    # the checks work in powers of lambda0 and c_n; one that overflows, or a
    # normalization that underflows, puts the extremal outside float64
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            field = bubble_mod.bubble_field(params)
            residual_sup = bubble_mod.pde_residual(field, rmax=args.rmax)
            energy = bubble_mod.bubble_energy(params)
            poh = bubble_mod.pohozaev_identity_residual(field, rmax=args.rmax)
    except (OverflowError, FloatingPointError) as exc:
        why = f"extremal for n={args.dim} at lambda0={args.lambda0!r} is outside the float64 range ({exc})"
        raise FloatingPointError(why) from None
    expected = bubble_mod.expected_bubble_energy(args.dim)
    _print_json(
        {
            "residual_sup": residual_sup,
            "energy": energy,
            "energy_expected": expected,
            "pohozaev_residual": poh,
        }
    )
    return 0


def _solution_payload(sol) -> dict:
    return {
        "n": sol.field.spec.n,
        "t": sol.field.spec.t,
        "alpha": sol.params.alpha,
        "a_alpha": sol.params.a_alpha,
        "c_alpha": sol.params.c_alpha,
        "d_alpha": sol.params.d_alpha,
        "modes": sol.modes,
        "residual_sup": sol.residual_sup,
        "energy": sol.energy,
        "lambda_quotient": sol.lambda_quotient,
        "is_constant": sol.is_constant,
        "newton_iters": sol.newton_iters,
        "min_value": float(np.min(sol.field.fine_values())),
        "max_value": float(np.max(sol.field.fine_values())),
        "positivity_margin": sol.positivity_margin,
        "tail_fraction": sol.tail_fraction,
    }


def _cmd_solve(args) -> int:
    spec = ManifoldSpec(args.dim, args.t)
    params = OperatorParams(args.alpha, _resolve_a(args.alpha, args.a))
    if args.field_in and args.init != "file":
        raise ValueError(f"--field-in is read only with --init file, not --init {args.init}")
    if args.init == "mode1":
        sol = mode1_solution(spec, params)
    elif args.init == "constant":
        sol = constant_solution(spec, params)
    else:
        if not args.field_in:
            raise ValueError("--init file requires --field-in PATH")
        init = load_field(args.field_in)
        if init.spec != spec:
            raise ValueError(
                f"field file is for n={init.spec.n}, t={init.spec.t}; "
                f"requested n={spec.n}, t={spec.t}"
            )
        sol = rescale_to_solution(minimize_quotient(init, params), params)
    _print_json(_solution_payload(sol))
    if args.field_out:
        save_field(sol.field, args.field_out)
    return 0


def _cmd_sweep(args) -> int:
    spec = ManifoldSpec(args.dim, args.t)
    if args.schedule == "auto":
        alphas = _parse_alpha_grid(args.alpha or "2:128:7:log")
        schedule = quarter_square
    else:
        if args.alpha:
            raise ValueError("give either --alpha or a schedule file, not both")
        rows = _read_schedule_file(args.schedule)
        alphas = tuple(a for a, _ in rows)
        schedule = dict(rows).__getitem__
    config = SweepConfig(
        spec=spec,
        alphas=alphas,
        schedule=schedule,
        delta=args.delta,
    )
    records = run_sweep(config)
    if args.format == "csv":
        if not args.out:
            raise ValueError("--out is required with --format csv")
        emit(records, "csv", args.out)
    else:
        text = emit(records, "json", args.out)
        if not args.out:
            sys.stdout.write(text)
    return 0


def _cmd_diagnose(args) -> int:
    u = load_field(args.field)
    a = _resolve_a(args.alpha, args.a)
    params = OperatorParams(args.alpha, a)
    report = concentration_ratios(u, args.delta, params)
    _print_json(
        {
            "s_star": report.s_star,
            "delta": report.delta,
            "R_L2": report.r_l2,
            "R_gradL2": report.r_grad_l2,
            "R_strong": report.r_grad_l2,
            "R_gradL2_weak": report.r_grad_l2_weak,
            "grad_ratios_defined": report.grad_ratios_defined,
            "strong_supported": report.strong_supported,
            "hessian_ratio": report.hessian_ratio,
            "hessian_ratio_over_a": report.hessian_ratio_over_a,
        }
    )
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "bubble-check": _cmd_bubble_check,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    # LinAlgError subclasses ValueError, so numerical failures come first
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"paneitz {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"paneitz {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
