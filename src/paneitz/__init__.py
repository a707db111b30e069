"""Spectral solver and energy-function explorer for the fourth-order
critical equation Delta^2 u + alpha Delta u + a u = u^(2#-1) on the model
products S^1(t) x S^(n-1), n >= 5.
"""

from .bubble import (
    BubbleParams,
    RadialField,
    bubble_energy,
    bubble_field,
    expected_bubble_energy,
    pde_residual,
    pohozaev_identity_residual,
    pohozaev_witness,
    power_profile_field,
)
from .constants import (
    FactorizationError,
    OperatorParams,
    ScheduleReport,
    bubble_coefficient,
    constant_branch,
    critical_exponent,
    einstein_coefficients,
    factorize,
    sharp_constant,
    validate_schedule,
)
from .diagnostics import (
    ConcentrationReport,
    QuantizationReport,
    concentration_points,
    concentration_ratios,
    multi_bubble_energy,
    quantization_check,
)
from .field import (
    NormReport,
    PeriodicField,
    load_field,
    localized_mass,
    norms,
    save_field,
    transform,
)
from .geometry import (
    ManifoldSpec,
    product_volume,
    sphere_spectrum,
    sphere_volume,
)
from .solver import (
    ConvergenceError,
    PositivityError,
    QuotientMinimum,
    Solution,
    SolverOptions,
    bifurcation_alpha,
    constant_solution,
    linearized_operator,
    linearized_spectrum,
    minimize_quotient,
    mode1_solution,
    newton_solve,
    quotient,
    rescale_to_solution,
    residual,
)
# unused by the package; perfbench/tracing.py wraps quadrature.panel_rule when it installs
from . import quadrature
from .sweep import CSV_COLUMNS, SweepConfig, SweepRecord, branch_continuation, emit, quarter_square, run_sweep

__version__ = "0.1.0"
