"""Energy-function exploration: sweep alpha, continue solution branches,
and tabulate the minimal-energy estimate E_m(alpha).

For every alpha the constant branch a^((n-4)/8) is available in closed form.
A nonconstant branch is attempted once the constant's first nonzero Fourier
mode turns linearly unstable: continuation seeds Newton with the previous
nonconstant solution (scaled predictor, one Newton solve), and the
quotient-minimization route from a mode-1 perturbed constant serves as the
fresh start and as the fallback when that solve fails.  E_m is reported as
an estimate: it is an upper bound over the branches actually found, since
the true infimum runs over all solutions (including any that break the
circle-reduced ansatz).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, fields
from typing import Callable, Sequence

from .constants import OperatorParams, constant_branch, sharp_constant
from .diagnostics import concentration_ratios
from .field import _ball_radius
from .geometry import ManifoldSpec, product_volume
from .solver import (
    ConvergenceError,
    Solution,
    constant_eigenvalue,
    constant_solution,
    continuation_init,
    mode1_solution,
    newton_solve,
)

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "run_sweep",
    "branch_continuation",
    "emit",
    "CSV_COLUMNS",
    "quarter_square",
]


def quarter_square(alpha: float) -> float:
    """Default coefficient schedule a = alpha^2/4."""
    return alpha * alpha / 4.0


@dataclass(frozen=True)
class SweepConfig:
    """Sweep grid; ``params`` holds the operator of each grid alpha, built
    (and so checked against 0 < a <= alpha^2/4) at construction, and
    ``delta`` is checked against 0 < delta < L/2 there too."""

    spec: ManifoldSpec
    alphas: tuple[float, ...]
    schedule: Callable[[float], float] = quarter_square
    delta: float | None = None          # diagnostics ball radius, default L/8
    params: tuple[OperatorParams, ...] = dc_field(init=False, repr=False)

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas:
            raise ValueError("alpha grid must be nonempty")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("alpha grid must be strictly increasing")
        params = []
        for alpha in alphas:
            try:
                params.append(OperatorParams(alpha, self.schedule(alpha)))
            except ValueError as exc:
                raise ValueError(f"grid point alpha={alpha}: {exc}") from None
        _ball_radius(self.spec, self.delta)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "params", tuple(params))


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    a_alpha: float
    c_alpha: float
    d_alpha: float
    e_const: float
    e_nonconst: float | None
    e_m_estimate: float
    lambda_quotient: float
    lambda_below_k0_inv2: bool
    is_nonconstant: bool
    r_l2: float
    r_grad_l2: float
    hessian_ratio_over_a: float
    modes_used: int
    newton_iters: int
    residual_sup: float


def branch_continuation(prev: Solution, params: OperatorParams) -> Solution:
    """Continue a converged solution to new parameters with one Newton solve.

    Newton is seeded with ``continuation_init``, the previous solution
    stretched by the exact scaling of alpha -> k alpha, a -> k^2 a.  A failed
    solve raises ConvergenceError ("branch lost"), chained to its cause.
    """
    try:
        return newton_solve(continuation_init(prev, params), params)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"branch lost between alpha={prev.params.alpha} and alpha={params.alpha}: {exc}"
        ) from exc


def _nonconstant_solution(
    config: SweepConfig, params: OperatorParams, prev: Solution | None
) -> Solution | None:
    if prev is not None:
        try:
            sol = branch_continuation(prev, params)
            if not sol.is_constant:
                return sol
        except ConvergenceError:
            pass
    try:
        sol = mode1_solution(config.spec, params)
        return None if sol.is_constant else sol
    except ConvergenceError:
        return None


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Sweep the alpha grid in ascending order; one record per alpha.

    Solver failures mark the nonconstant branch absent in that row and the
    sweep continues.
    """
    spec = config.spec
    volume = product_volume(spec)
    _, k0_inv_sq = sharp_constant(spec.n)
    records: list[SweepRecord] = []
    prev_nc: Solution | None = None
    for alpha, params in zip(config.alphas, config.params):
        _, e_const = constant_branch(spec.n, params.a_alpha, volume)
        sol_nc = (
            _nonconstant_solution(config, params, prev_nc)
            if constant_eigenvalue(spec, params, 1) < 0.0
            else None
        )
        if sol_nc is not None:
            prev_nc = sol_nc
        if sol_nc is not None and sol_nc.energy <= e_const:
            chosen: Solution = sol_nc
        else:
            chosen = constant_solution(spec, params)
        report = concentration_ratios(chosen.field, config.delta, params)
        records.append(
            SweepRecord(
                alpha=alpha,
                a_alpha=params.a_alpha,
                c_alpha=params.c_alpha,
                d_alpha=params.d_alpha,
                e_const=e_const,
                e_nonconst=None if sol_nc is None else sol_nc.energy,
                e_m_estimate=min(e_const, sol_nc.energy) if sol_nc is not None else e_const,
                lambda_quotient=chosen.lambda_quotient,
                lambda_below_k0_inv2=chosen.lambda_quotient < k0_inv_sq,
                is_nonconstant=not chosen.is_constant,
                r_l2=report.r_l2,
                r_grad_l2=report.r_grad_l2,
                hessian_ratio_over_a=report.hessian_ratio_over_a,
                modes_used=chosen.modes,
                newton_iters=chosen.newton_iters,
                residual_sup=chosen.residual_sup,
            )
        )
    return records


# --- emission ----------------------------------------------------------------

# output column names of the SweepRecord fields that are not spelled alike
_COLUMN_NAMES = {
    "e_const": "E_const",
    "e_nonconst": "E_nonconst",
    "e_m_estimate": "E_m_estimate",
    "r_l2": "R_L2",
    "r_grad_l2": "R_gradL2",
}
_FIELDS = [f.name for f in fields(SweepRecord)]
CSV_COLUMNS = [_COLUMN_NAMES.get(name, name) for name in _FIELDS]


def _record_fields(r: SweepRecord) -> list:
    return [getattr(r, name) for name in _FIELDS]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def _json_ready(value):
    """NaN -> None, so an undefined diagnostic is null in JSON."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def emit(records: Sequence[SweepRecord], fmt: str = "csv", path=None) -> str:
    """Render records as CSV (fixed header) or JSON; deterministic bytes.

    Writes to ``path`` when given and always returns the text.  In JSON,
    missing branches are null; NaN diagnostics are serialized as null too.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in records:
            lines.append(",".join(_csv_cell(v) for v in _record_fields(r)))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        rows = [{k: _json_ready(v) for k, v in zip(CSV_COLUMNS, _record_fields(r))} for r in records]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    if path is not None:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write sweep output to {path}: {exc}") from exc
    return text
