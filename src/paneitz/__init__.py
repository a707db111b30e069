"""Spectral solver and energy-function explorer for the fourth-order
critical equation Delta^2 u + alpha Delta u + a u = u^(2#-1) on the model
products S^1(t) x S^(n-1), n >= 5.

The modules are the Python API; the package namespace holds only
``__version__``.
"""

# unused by the package; perfbench/tracing.py wraps quadrature.panel_rule when it installs
from . import quadrature

__version__ = "0.1.0"
