"""Panel-based Gauss-Legendre quadrature helpers."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "panel_rule",
    "geometric_edges",
    "refined_axis_edges",
    "point_refined_cells",
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
    the package asks for orders 16 (the multi-bubble cells) and 24 (the
    radial and energy panels) only; the order-480 accuracy stays tested.
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


def _require_resolvable(center: float, scale: float) -> None:
    """Raise ``FloatingPointError`` unless a first panel 0.25/scale is wider
    than 4 float64 spacings at the center."""
    if not 0.25 / scale > 4.0 * np.spacing(abs(float(center))):
        raise FloatingPointError(
            f"refinement scale {scale:.6g} at center {center:.6g} is finer than the float64 spacing there"
        )


def refined_axis_edges(centers, scales, lo: float, hi: float) -> np.ndarray:
    """Panel edges on [lo, hi], geometrically refined toward each center.

    Around center i the first panel boundary sits at distance 0.25/scales[i],
    then doubles outward.  Used to resolve features of very different widths
    on a single axis.  Edges within 4 float64 spacings of their neighbour are
    merged; a first panel no wider than that at its center raises
    ``FloatingPointError``, since the profile could not be resolved there.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite bounds lo < hi, got lo={lo}, hi={hi}")
    scales = np.asarray(scales, dtype=float)
    if len(centers) != scales.size:
        raise ValueError(f"need one refinement scale per center, got {len(centers)} and {scales.size}")
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise ValueError(f"refinement scales must be positive and finite, got {scales}")
    edges = {float(lo), float(hi)}
    for c, s in zip(centers, scales):
        _require_resolvable(c, s)
        if lo < c < hi:
            edges.add(float(c))
        off = 0.25 / s
        while off < (hi - lo):
            for e in (c - off, c + off):
                if lo < e < hi:
                    edges.add(float(e))
            off *= 2.0
    out = np.array(sorted(edges))
    # drop near-duplicate edges, which would create zero-width panels
    gap = 4.0 * np.spacing(np.maximum(np.abs(out[:-1]), np.abs(out[1:])))
    return out[np.concatenate([[True], np.diff(out) > gap])]


def point_refined_cells(centers, scales, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular cells tiling [min c - reach, max c + reach] x [0, reach],
    refined toward every point (c_j, 0).

    Every cell is no larger (its longer side) than max(its distance to
    (c_j, 0), 0.25/scales[j]) for every j.  The x-range is cut at each
    center and at the midpoints between centers; coincident centers count
    once, at their largest scale.  A piece of width W beside its center,
    with D = min(W, reach), holds an inner square of side D 2^-K <= h, K
    L-shaped rings of three squares of sides D 2^-K, ..., D/2 around it,
    then bands doubling from D to max(W, reach): rho-bands across the piece
    if W < reach, x-bands of full height if W > reach.  h is 0.25/scale,
    capped at the distance to the nearest other center.  Every cell but the
    inner square is no larger than its distance to its own center, and so
    to any other, since each point of a piece is at least as far from the
    other centers as from its own; the cap keeps the inner square, of side
    at most min(W, h), within the rule for the other centers too.

    Returns (anchors, boxes): cell k spans x in anchors[k] + [boxes[k, 0],
    boxes[k, 1]] and rho in [boxes[k, 2], boxes[k, 3]].  The x bounds are
    offsets from the piece's own center, so x - c is exact next to c.
    """
    centers = np.asarray(centers, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if centers.ndim != 1 or centers.shape != scales.shape or centers.size == 0:
        raise ValueError(f"need one refinement scale per center, got {centers.size} and {scales.size}")
    if not np.all(np.isfinite(centers)):
        raise ValueError(f"centers must be finite, got {centers}")
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise ValueError(f"refinement scales must be positive and finite, got {scales}")
    if not 0 < reach < math.inf:
        raise ValueError(f"reach must be positive and finite, got {reach}")
    finest = {}
    for c, s in zip(centers.tolist(), scales.tolist()):
        _require_resolvable(c, s)
        finest[c] = max(s, finest.get(c, 0.0))
    points = sorted(finest)
    gaps = [b - a for a, b in zip(points, points[1:])]
    widths = [reach] + [0.5 * g for g in gaps] + [reach]
    near = [math.inf] + gaps + [math.inf]
    cells = []
    for i, c in enumerate(points):
        inner = min(0.25 / finest[c], near[i], near[i + 1])
        cells += [(c, -u1, -u0, r0, r1) for u0, u1, r0, r1 in _piece_cells(widths[i], reach, inner)]
        cells += [(c, *box) for box in _piece_cells(widths[i + 1], reach, inner)]
    table = np.array(cells)
    return table[:, 0], table[:, 1:]


def _piece_cells(width: float, height: float, inner: float):
    """Cells (u0, u1, rho0, rho1) of [0, width] x [0, height] around (0, 0):
    L-shaped rings halving from D = min(width, height) until the inner
    square's side is at most ``inner``, then bands doubling from D."""
    s = min(width, height)
    while s > inner:
        s *= 0.5
        yield s, 2 * s, 0.0, s
        yield 0.0, s, s, 2 * s
        yield s, 2 * s, s, 2 * s
    yield 0.0, s, 0.0, s
    lo, far = min(width, height), max(width, height)
    while 0 < lo < far:  # centers a subnormal apart leave a piece of width 0
        hi = min(2 * lo, far)
        yield (lo, hi, 0.0, height) if width > height else (0.0, width, lo, hi)
        lo = hi
