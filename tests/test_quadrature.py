"""Gauss-Legendre rules: exactness, agreement with scipy, the small weights
next to the endpoints against a 50-digit reference, the panel-edge
builders' input checks, and the point-refined cells: a tiling that meets
the size rule for every center."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

import paneitz
from paneitz.quadrature import (
    gauss_legendre,
    geometric_edges,
    panel_rule,
    point_refined_cells,
    refined_axis_edges,
)


@pytest.mark.parametrize("order", [1, 2, 3, 7, 16, 24, 61])
def test_exact_on_polynomials(order):
    x, w = gauss_legendre(order)
    for k in range(0, 2 * order, 2):
        assert np.sum(w * x**k) == pytest.approx(2.0 / (k + 1), rel=1e-13)
    assert np.sum(w * x) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("order", [5, 16, 24, 240, 480])
def test_matches_scipy(order):
    x, w = gauss_legendre(order)
    xs, ws = roots_legendre(order)
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x - xs)) <= 4e-16
    assert np.max(np.abs(w - ws) / ws) <= 1e-9


def test_endpoint_weight_against_mpmath():
    order = 480
    x, w = gauss_legendre(order)
    with mpmath.workdps(50):
        t = mpmath.mpf(x[-1])
        for _ in range(6):
            p0, p1 = mpmath.mpf(1), t
            for j in range(1, order):
                p0, p1 = p1, ((2 * j + 1) * t * p1 - j * p0) / (j + 1)
            dp = order * (t * p1 - p0) / (t * t - 1)
            t -= p1 / dp
        exact = 2 / ((1 - t * t) * dp * dp)
        assert abs(x[-1] - float(t)) <= 2e-16
        assert abs(w[-1] - float(exact)) <= 1e-11 * float(exact)


def test_cached_and_read_only():
    x, w = gauss_legendre(24)
    assert gauss_legendre(24)[0] is x
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError):
        gauss_legendre(0)
    nodes, weights = panel_rule(np.array([0.0, 1.0, 3.0]), order=24)
    assert weights.flags.writeable
    assert np.sum(weights * nodes**2) == pytest.approx(9.0, rel=1e-14)


_BAD_AXIS_CALLS = [
    "([0.0], [-1.0], 0.0, 1.0)",
    "([0.0], [0.0], -1.0, 1.0)",
    "([0.0], [math.inf], -1.0, 1.0)",
    "([0.0], [math.nan], -1.0, 1.0)",
    "([0.0], [1.0], -math.inf, 1.0)",
    "([0.0], [1.0], 0.0, math.inf)",
    "([0.0], [1.0], math.nan, 1.0)",
    "([0.0], [1.0], 1.0, 0.0)",
]


def test_refined_axis_edges_rejects_bad_input():
    # a negative scale or an infinite bound once made the doubling loop run
    # forever, so the calls run in a child process under a timeout; each
    # prints the message of the ValueError it raised
    src = str(Path(paneitz.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import math\nfrom paneitz.quadrature import refined_axis_edges\n" + "".join(
        f"try:\n    refined_axis_edges{args}\nexcept ValueError as exc:\n    print(exc)\n"
        f"else:\n    print('accepted')\n"
        for args in _BAD_AXIS_CALLS
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(_BAD_AXIS_CALLS)
    for args, line in zip(_BAD_AXIS_CALLS[:4], lines[:4]):
        assert line.startswith("refinement scales must be positive and finite"), args
    for args, line in zip(_BAD_AXIS_CALLS[4:], lines[4:]):
        assert line.startswith("need finite bounds lo < hi"), args


@pytest.mark.parametrize("inner, outer", [(1e-300, np.inf), (0.0, 1.0), (1.0, np.nan)])
def test_geometric_edges_rejects_bad_bounds(inner, outer):
    with pytest.raises(ValueError, match="need 0 < inner < outer < inf"):
        geometric_edges(inner, outer)


@pytest.mark.parametrize("centers, scales", [([0.0, 5.0], [1.0]), ([0.0], [1.0, 2.0]), ([], [1.0])])
def test_refined_axis_edges_rejects_mismatched_lengths(centers, scales):
    # zip once dropped the unmatched centers, and their refinement with them
    with pytest.raises(ValueError, match="need one refinement scale per center"):
        refined_axis_edges(centers, scales, -10.0, 10.0)


def test_refined_axis_edges_refine_toward_centers():
    edges = refined_axis_edges([0.0], [4.0], -1.0, 1.0)
    assert np.all(np.diff(edges) > 0)
    assert edges[0] == -1.0 and edges[-1] == 1.0
    np.testing.assert_array_equal(edges[4:7], [-0.0625, 0.0, 0.0625])


def test_refined_axis_edges_keep_edges_spacings_apart():
    # a panel of 2.5e-13 at x = 20 is ~70 float64 spacings wide: kept, while
    # the old absolute threshold 1e-13 (hi - lo) merged every such edge
    edges = refined_axis_edges([20.0], [1e12], -300.0, 320.0)
    assert np.all(np.diff(edges) > 0)
    assert {20.0 - 2.5e-13, 20.0, 20.0 + 2.5e-13} <= set(edges.tolist())


def test_refined_axis_edges_reject_panels_below_the_spacing():
    with pytest.raises(FloatingPointError, match="finer than the float64 spacing"):
        refined_axis_edges([20.0], [1e14], -300.0, 320.0)


_CELL_CASES = {
    "pair": ((0.0, 20.0), (1.0, 1e4)),
    "one": ((0.0,), (1.0,)),
    "four-scales": ((0.0, 20.0, 40.0, 60.0), (1.0, 1e4, 1e8, 1e12)),
    "mixed": ((-7.5, 12.0, 40.0), (2.0, 1e4, 0.7)),
    "coincident": ((5.0, 5.0, 30.0), (1.0, 1e4, 2.0)),
    "closer-than-a-width": ((0.0, 1e-3), (1.0, 1e4)),
    "far-apart": ((0.0, 1000.0), (1.0, 1e4)),
}


@pytest.mark.parametrize("case", sorted(_CELL_CASES))
def test_point_refined_cells_tile_and_meet_the_size_rule(case):
    centers, scales = (np.array(v) for v in _CELL_CASES[case])
    reach = 300.0 / scales.min()
    lo, hi = centers.min() - reach, centers.max() + reach
    anchors, boxes = point_refined_cells(centers, scales, reach)
    x0, x1 = anchors + boxes[:, 0], anchors + boxes[:, 1]
    r0, r1 = boxes[:, 2], boxes[:, 3]
    # inside the rectangle, with areas that add up to its area and pairwise
    # overlaps of zero area: a tiling to rounding
    assert np.all((boxes[:, 0] < boxes[:, 1]) & (r0 < r1))
    assert x0.min() >= lo and x1.max() <= hi and r0.min() == 0.0 and r1.max() == reach
    area = (boxes[:, 1] - boxes[:, 0]) * (r1 - r0)
    assert area.sum() == pytest.approx((hi - lo) * reach, rel=1e-12)
    ox = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    orho = np.minimum(r1[:, None], r1[None, :]) - np.maximum(r0[:, None], r0[None, :])
    overlap = np.clip(ox, 0.0, None) * np.clip(orho, 0.0, None)
    np.fill_diagonal(overlap, 0.0)
    assert overlap.sum() <= 1e-12 * (hi - lo) * reach
    # every cell no larger than max(its distance to (c_j, 0), 0.25/lam_j)
    size = np.maximum(boxes[:, 1] - boxes[:, 0], r1 - r0)
    for c, lam in zip(centers, scales):
        shift = anchors - c
        dx = np.maximum(np.maximum(shift + boxes[:, 0], -(shift + boxes[:, 1])), 0.0)
        assert np.all(size <= np.maximum(np.hypot(dx, r0), 0.25 / lam) * (1 + 1e-12)), c


def test_point_refined_cells_centers_one_subnormal_apart():
    # half the gap rounds to 0: the piece of width 0 between the centers
    # must end its bands, and the cells still tile the rectangle
    anchors, boxes = point_refined_cells([0.0, 5e-324], [1.0, 1.0], 1.0)
    area = (boxes[:, 1] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 2])
    assert area.sum() == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "centers, scales, most",
    [((0.0, 20.0), (1.0, 1e4), 60_000), ((0.0, 20.0, 40.0, 60.0), (1.0, 1e4, 1e8, 1e12), 250_000)],
    ids=["quantization-pair", "four-scales"],
)
def test_point_refined_cells_node_count(centers, scales, most):
    # 16 x 16 nodes a cell; the tensor product of the same axis refinements
    # has 467,200 and 3,341,312 nodes
    anchors, _ = point_refined_cells(centers, scales, 300.0 / min(scales))
    assert 256 * anchors.size <= most


@pytest.mark.parametrize(
    "args, match",
    [
        (([0.0, 5.0], [1.0], 1.0), "need one refinement scale per center"),
        (([], [], 1.0), "need one refinement scale per center"),
        (([0.0, math.nan], [1.0, 1.0], 1.0), "centers must be finite"),
        (([0.0], [0.0], 1.0), "refinement scales must be positive and finite"),
        (([0.0], [math.inf], 1.0), "refinement scales must be positive and finite"),
        (([0.0], [1.0], math.inf), "reach must be positive and finite"),
        (([0.0], [1.0], 0.0), "reach must be positive and finite"),
    ],
)
def test_point_refined_cells_rejects_bad_input(args, match):
    with pytest.raises(ValueError, match=match):
        point_refined_cells(*args)
