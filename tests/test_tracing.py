"""The benchmark's span tracer binds every function it names.

``perfbench/tracing.py`` patches functions of the package by name, counts
the calls of every name in some modules' ``__all__``, and reads fields of
some results, so a deleted or renamed function or result field fails here
instead of in a traced benchmark run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import paneitz
import paneitz.cli  # noqa: F401  (the package __init__ does not import it)
from paneitz import field, quadrature, solver
from paneitz.constants import OperatorParams
from paneitz.geometry import ManifoldSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    original = solver.newton_solve
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer._patches
        assert solver.newton_solve is not original
    finally:
        tracer.uninstall()
    assert solver.newton_solve is original


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(paneitz.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"paneitz.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"paneitz.{name}.__all__ names {missing}"


def test_traced_calls_record_their_quantities(tmp_path):
    tracer = load_tracing().Tracer()
    path = tmp_path / "u.field"
    try:
        tracer.install()
        sol = solver.mode1_solution(ManifoldSpec(5, 1.0), OperatorParams(8.0, 16.0))
        field.save_field(sol.field, path)
        field.load_field(path)
        quadrature.panel_rule(np.array([0.0, 1.0, 2.0]), 8)
    finally:
        tracer.uninstall()
    assert {
        "solver.minimize_quotient.iters",
        "solver.newton_solve.iters",
        "solver.newton_solve.modes_max",
        "quadrature.panel_rule.nodes",
        "field.save_field.bytes",
        "field.load_field.bytes",
    } <= set(tracer.stats)
    assert tracer.stats["quadrature.panel_rule.nodes"] == 16
    assert tracer.stats["field.save_field.bytes"] == tracer.stats["field.load_field.bytes"] == path.stat().st_size
