"""One-axis Gauss-Legendre rules for the radial and energy integrals of
``bubble``: nodes per order, composite panels, geometric panel edges."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "panel_rule",
    "geometric_edges",
]


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], cached per order.

    Newton's method on P_order from the asymptotic guesses
    cos(pi (k - 1/4) / (order + 1/2)), with the three-term recurrence for
    P_j.  The weights use the Christoffel sum 1 / sum_(j<order) (j + 1/2)
    P_j(x)^2, a sum of positive terms, which keeps the small weights next to
    +-1 at full relative accuracy (numpy's leggauss loses ~5e-10 there at
    order 480).  Only elementwise arithmetic: no LAPACK call, so no
    eigensolver threads on the hot path.  The returned arrays are read-only.
    The recurrence is a Python loop over the order in every Newton step, so
    the package asks for order 24 (the radial and energy panels) only; the
    order-480 accuracy stays tested.
    """
    if order < 1:
        raise ValueError(f"Gauss-Legendre order must be positive, got {order}")
    k = np.arange(order, 0, -1)
    x = np.cos(np.pi * (k - 0.25) / (order + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        christoffel = np.full_like(x, 0.5)
        for j in range(1, order):
            christoffel += (j + 0.5) * p1 * p1
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        # p1 = P_order, p0 = P_(order-1), P_order' = order (x p1 - p0) / (x^2 - 1)
        step = p1 * (x * x - 1.0) / (order * (x * p1 - p0))
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    nodes = 0.5 * (x - x[::-1])
    weights = 0.5 * (1.0 / christoffel + 1.0 / christoffel[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre over consecutive panels."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    xg, wg = gauss_legendre(order)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * xg[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * np.broadcast_to(wg, nodes.shape)
    return nodes.ravel(), weights.ravel()


def geometric_edges(inner: float, outer: float) -> np.ndarray:
    """Edges 0, inner, 2 inner, 4 inner, ... up to outer."""
    if not 0 < inner < outer < math.inf:
        raise ValueError(f"need 0 < inner < outer < inf, got inner={inner}, outer={outer}")
    edges = [0.0, inner]
    while edges[-1] < outer:
        edges.append(min(edges[-1] * 2.0, outer))
    return np.asarray(edges)
