"""The benchmark's span tracer binds every function it names.

``perfbench/tracing.py`` patches functions of the package by name, and counts
the calls of every name in some modules' ``__all__``, so a deleted or renamed
function fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import paneitz
import paneitz.cli  # noqa: F401  (the package __init__ does not import it)
from paneitz import solver

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
