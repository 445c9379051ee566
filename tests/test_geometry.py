"""Gap geometry: profile, classification, boundary curves, rectangle areas."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gapstress import (
    Disk,
    Ellipse,
    Region,
    gap_halfwidth,
    gap_halfwidth_deriv,
    inclusion_boundary,
    make_gap_geometry,
    rect_classify,
    rect_matrix_area,
    region_classify,
)
from gapstress.geometry import PathSegment, _ellipse_arc
from gapstress.quadrature import integrate_path

from conftest import disk_geometry
from oracles import boundary_curves, poles

PATH_TIGHT = 1e-10


def test_disk_layout():
    g = disk_geometry(0.01)
    assert g.kappa0 == 1.0
    assert g.r_osc == 1.0
    assert g.L1 == pytest.approx(1.005, abs=1e-15)
    assert g.a == pytest.approx(math.sqrt(0.01 * 4.01) / 2.0, rel=1e-15)
    assert g.L == 0.5


def test_ellipse_layout():
    g = make_gap_geometry(Ellipse(a=1.0, b=2.0), eps=0.01, L2=2.5)
    assert g.kappa0 == pytest.approx(0.25, rel=1e-15)
    assert g.r_osc == pytest.approx(4.0, rel=1e-15)
    assert g.L1 == pytest.approx(1.005, abs=1e-15)
    assert g.L == 1.0


@given(st.floats(1e-6, 0.5), st.floats(0.2, 5.0))
@settings(max_examples=100, deadline=None)
def test_pole_offset_exact_identity(eps, r0):
    g = make_gap_geometry(Disk(r0=r0), eps=eps, L2=2.0 * r0 + 1.0)
    assert g.a * g.a == pytest.approx(eps * (4.0 * r0 + eps) / 4.0, rel=1e-14)


def test_pole_offset_asymptotics():
    # a / sqrt(eps r_osc) -> 1 with an O(eps) defect
    devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        g = disk_geometry(eps)
        ratio = g.a / math.sqrt(eps * g.r_osc)
        devs.append(abs(ratio - 1.0))
        assert abs(ratio - 1.0) <= 0.2 * eps
    assert devs[1] < devs[0] and devs[2] < devs[1]


def test_gap_halfwidth_disk_values():
    g = disk_geometry(0.01)
    assert gap_halfwidth(g, 0.0) == pytest.approx(0.005, abs=1e-16)
    oracle = 0.005 + 1.0 - math.sqrt(1.0 - 0.01)
    assert gap_halfwidth(g, 0.1) == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("shape", [Disk(r0=1.0), Ellipse(a=1.0, b=2.0)])
def test_gap_halfwidth_parabolic_limit(shape):
    g = make_gap_geometry(shape, eps=0.01, L2=shape.half_height + 1.0)
    for y in (1e-2, 1e-3):
        ratio = (gap_halfwidth(g, y) - g.eps / 2.0) / (g.kappa0 * y * y / 2.0)
        assert ratio == pytest.approx(1.0, abs=1e-3)
    y = 1e-3
    ratio = (gap_halfwidth(g, y) - g.eps / 2.0) / (g.kappa0 * y * y / 2.0)
    assert ratio == pytest.approx(1.0, abs=1e-5)


def test_gap_halfwidth_rejects_points_past_vertex():
    g = disk_geometry(0.01)
    with pytest.raises(ValueError):
        gap_halfwidth(g, 1.5)


@given(st.floats(-0.999, 0.999))
@settings(max_examples=200, deadline=None)
def test_gap_halfwidth_even_with_flat_center(y):
    g = disk_geometry(0.01)
    assert gap_halfwidth(g, y) == gap_halfwidth(g, -y)
    d = gap_halfwidth_deriv(g, y)
    assert d * np.sign(y) >= 0.0
    assert gap_halfwidth_deriv(g, 0.0) == 0.0


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
@settings(max_examples=200, deadline=None)
def test_gap_halfwidth_midpoint_convex(y1, y2):
    g = disk_geometry(0.01)
    mid = gap_halfwidth(g, 0.5 * (y1 + y2))
    avg = 0.5 * (gap_halfwidth(g, y1) + gap_halfwidth(g, y2))
    assert mid <= avg + 1e-15


def test_region_classify_examples():
    g = disk_geometry(0.01)
    pts = np.array(
        [
            [0.0, 0.0],
            [g.L1, 0.0],
            [-g.L1, 0.0],
            [0.0, 2.0 * g.L2],
            [0.004, 0.0],
        ]
    )
    codes = region_classify(g, pts)
    assert codes[0] == Region.MATRIX
    assert codes[1] == Region.INCLUSION2
    assert codes[2] == Region.INCLUSION1
    assert codes[3] == Region.OUTSIDE_CELL
    assert codes[4] == Region.MATRIX


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
def test_poles_strictly_inside_inclusions(eps):
    g = disk_geometry(eps)
    codes = region_classify(g, np.array(poles(g)))
    assert codes[0] == Region.INCLUSION1
    assert codes[1] == Region.INCLUSION2


@given(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6))
@settings(max_examples=300, deadline=None)
def test_region_mirror_symmetry(x, y):
    g = disk_geometry(0.01)
    swap = {
        Region.MATRIX: Region.MATRIX,
        Region.INCLUSION1: Region.INCLUSION2,
        Region.INCLUSION2: Region.INCLUSION1,
        Region.OUTSIDE_CELL: Region.OUTSIDE_CELL,
    }
    c = region_classify(g, np.array([[x, y]]))[0]
    c_mirror = region_classify(g, np.array([[-x, y]]))[0]
    assert c_mirror == swap[Region(c)]


def test_gamma_plus_arclength():
    g = disk_geometry(0.01)
    curve = boundary_curves(g)["gamma_plus"]
    res = integrate_path(curve, lambda p, n: np.ones(p.shape[:-1]), PATH_TIGHT)
    assert res.value == pytest.approx(math.pi * 1.0 + 2.0 * (g.L2 - 1.0), rel=1e-10)
    assert res.converged


def test_boundary_curve_keys():
    g = disk_geometry(0.01)
    assert sorted(boundary_curves(g)) == ["edge_bottom", "edge_top", "gamma_minus", "gamma_plus"]


def test_inclusion_normals_point_inward():
    g = disk_geometry(0.01)
    curve = inclusion_boundary(g, 2)
    c2 = np.asarray((g.L1, 0.0))
    for seg in curve.segments:
        t = np.linspace(0.01, 0.99, 37)
        p, n, _ = seg.frame(t)
        to_center = c2 - p
        to_center /= np.linalg.norm(to_center, axis=-1, keepdims=True)
        assert np.all(np.einsum("ij,ij->i", n, to_center) > 0.99)
        assert np.allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)


def test_normal_at_gap_vertex_of_second_inclusion():
    g = disk_geometry(0.01)
    curve = inclusion_boundary(g, 2)
    best = None
    target = np.array([g.eps / 2.0, 0.0])
    for seg in curve.segments:
        t = np.linspace(0.0, 1.0, 4001)
        p, n, _ = seg.frame(t)
        d = np.linalg.norm(p - target, axis=-1)
        k = int(np.argmin(d))
        if best is None or d[k] < best[0]:
            best = (d[k], n[k])
    assert best[0] < 1e-5
    assert best[1] @ np.array([1.0, 0.0]) > 0.999


def _gap_facing_arcs(g):
    """(arc, {t of a gap-facing vertex: its abscissa}) for every inclusion arc."""
    curves = boundary_curves(g)
    x1, x2 = -g.eps / 2.0, g.eps / 2.0
    return [(inclusion_boundary(g, 2).segments[0], {0.5: x2}),
            (inclusion_boundary(g, 1).segments[0], {0.0: x1, 1.0: x1}),
            (curves["gamma_plus"].segments[1], {0.5: x2}),
            (curves["gamma_minus"].segments[1], {0.5: x1})]


@pytest.mark.parametrize("shape", [Disk(r0=1.0), Ellipse(a=1.0, b=2.0)], ids=["disk", "ellipse"])
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
def test_arc_root_panels_start_at_the_gap_vertex(shape, eps):
    g = make_gap_geometry(shape, eps, L2=2.5)
    for arc, vertices in _gap_facing_arcs(g):
        b = np.asarray(arc.breaks)
        assert b[0] == 0.0 and b[-1] == 1.0 and np.all(np.diff(b) > 0.0)
        assert {0.25, 0.5, 0.75} <= set(arc.breaks)
        for v, x in vertices.items():
            assert v in arc.breaks
            # the vertex is the point of the arc on the gap
            assert np.allclose(arc.frame(np.array(v))[0], [x, 0.0], atol=1e-12)
            k = arc.breaks.index(v)
            for nb in (b[i] for i in (k - 1, k + 1) if 0 <= i < b.size):
                lo, hi = sorted((v, nb))
                # the first panel's arclength at the vertex is the pole offset
                assert float(arc.frame(np.array(v))[2]) * (hi - lo) == pytest.approx(g.a, rel=1e-12)
                length = quad(lambda t: float(arc.frame(np.array(t))[2]), lo, hi)[0]
                assert length == pytest.approx(g.a, rel=(g.a / g.half_height) ** 2)
    # the root panels never shrink away from the vertex
    widths = np.diff(np.asarray(inclusion_boundary(g, 2).segments[0].breaks))
    assert np.all(np.diff(widths[widths.size // 2:]) >= 0.0)
    assert np.allclose(widths, widths[::-1], rtol=1e-9, atol=0.0)


# both inclusion arc kinds of the cell (B = 2): the full turn of D2 and the
# quarter arc of the quarter cell, which ends on the gap vertex; each is
# (theta0, theta1, gap-facing t)
ARC_KINDS = {"full turn": (0.0, 2.0 * np.pi, 0.5), "quarter arc": (np.pi / 2.0, np.pi, 1.0)}


@pytest.mark.parametrize("kind", sorted(ARC_KINDS))
def test_vertex_runs_grow_at_most_twofold_to_an_eighth(kind):
    th0, th1, v = ARC_KINDS[kind]
    angle, ulp = th1 - th0, np.finfo(float).eps
    for dt in np.logspace(-7.0, np.log10(0.3), 200):
        # the first panel spans dt in t
        arc = _ellipse_arc(1.0, 1.0, 2.0, th0, th1, (np.pi,), dt * angle * 2.0)
        b = np.asarray(arc.breaks)
        assert b[0] == 0.0 and b[-1] == 1.0
        assert {0.25, 0.5, 0.75} <= set(arc.breaks)
        # no root panel spans more than an eighth of a turn
        assert np.max(np.diff(b)) * angle <= np.pi / 4.0 * (1.0 + ulp), dt
        k = arc.breaks.index(v)
        for end in (v - 0.125, v + 0.125):
            if not 0.0 <= end <= 1.0:
                continue
            # the run ends on v +- 1/8; the panel widths going away from v
            n = arc.breaks.index(end) - k
            widths = np.abs(np.diff(b[k::1 if n > 0 else -1]))
            run = widths[:abs(n)]
            if dt < 1.0 / 16.0:
                assert abs(widths[0] - dt) <= ulp, dt
            else:
                # a first panel of dt would outgrow the rest of the run
                assert np.array_equal(run, [1.0 / 16.0, 1.0 / 16.0]), dt
            assert np.all(np.diff(widths) >= 0.0), dt
            # at most twofold, up to the rounding of the edges
            assert np.all(run[1:] <= 2.0 * run[:-1] + ulp), dt


def test_straight_cell_edges_keep_quarter_root_panels():
    g = disk_geometry(1e-3)
    curves = boundary_curves(g)
    edges = [curves["edge_top"].segments[0], curves["edge_bottom"].segments[0],
             curves["gamma_plus"].segments[0], curves["gamma_plus"].segments[2]]
    assert all(seg.breaks == (0.0, 0.25, 0.5, 0.75, 1.0) for seg in edges)


def test_closed_inclusion_boundary_flux_of_constant_vanishes():
    g = disk_geometry(0.01)
    curve = inclusion_boundary(g, 1)
    res = integrate_path(curve, lambda p, n: n, PATH_TIGHT)
    assert np.all(np.abs(res.value) <= 1e-10)
    assert res.converged


def _chord_halfwidth(shape, y):
    """x half-extent of the inclusion cross-section at height y (0 outside)."""
    if isinstance(shape, Disk):
        r = shape.r0
        return math.sqrt(max(r * r - y * y, 0.0)) if abs(y) < r else 0.0
    t = 1.0 - (y / shape.b) ** 2
    return shape.a * math.sqrt(t) if t > 0.0 else 0.0


def _wet_width(g, x1, x2, y):
    w = x2 - x1
    for cx in (-g.L1, g.L1):
        h = _chord_halfwidth(g.shape, y)
        if h > 0.0:
            lo, hi = max(x1, cx - h), min(x2, cx + h)
            w -= max(hi - lo, 0.0)
    return w


def _kink_heights(g, x1, x2, y1, y2):
    """Heights where a chord endpoint crosses a rectangle edge (quad breakpoints)."""
    ys = set()
    r = g.shape.half_height
    for ysign in (-r, r):
        if y1 < ysign < y2:
            ys.add(ysign)
    for cx in (-g.L1, g.L1):
        for xe in (x1, x2):
            d = abs(xe - cx)
            if isinstance(g.shape, Disk):
                t = g.shape.r0 ** 2 - d * d
                h = math.sqrt(t) if t > 0.0 else None
            else:
                t = 1.0 - (d / g.shape.a) ** 2
                h = g.shape.b * math.sqrt(t) if t > 0.0 else None
            if h is not None:
                for y in (-h, h):
                    if y1 < y < y2:
                        ys.add(y)
    return sorted(ys)


@pytest.mark.parametrize(
    "rect",
    [
        (-0.004, 0.004, -0.3, 0.3),      # gap sliver
        (-0.2, 0.2, -0.6, 0.6),          # straddles both inclusions
        (0.1, 0.9, 0.2, 0.8),            # cuts the right inclusion arc
        (-0.5, 0.5, 1.05, 1.45),         # pure matrix strip above the disks
        (0.8, 1.0, -0.1, 0.1),           # fully inside the right inclusion
    ],
)
def test_rect_matrix_area_against_1d_reduction(rect):
    g = disk_geometry(0.01)
    x1, x2, y1, y2 = rect
    oracle = quad(
        lambda y: _wet_width(g, x1, x2, y),
        y1,
        y2,
        points=_kink_heights(g, x1, x2, y1, y2),
        limit=300,
    )[0]
    got = float(rect_matrix_area(g, x1, x2, y1, y2))
    assert got == pytest.approx(oracle, rel=1e-9, abs=1e-13)


def test_rect_classify_consistent_with_area():
    g = disk_geometry(0.01)
    rng = np.random.default_rng(42)
    x1 = rng.uniform(-g.L1, g.L1 - 0.05, size=200)
    x2 = x1 + rng.uniform(0.01, 0.05, size=200)
    y1 = rng.uniform(-g.L2, g.L2 - 0.05, size=200)
    y2 = y1 + rng.uniform(0.01, 0.05, size=200)
    codes = rect_classify(g, x1, x2, y1, y2)
    areas = rect_matrix_area(g, x1, x2, y1, y2)
    full = (x2 - x1) * (y2 - y1)
    matrix = codes == 0
    inclusion = (codes == 1) | (codes == 2)
    assert np.allclose(areas[matrix], full[matrix], rtol=1e-12)
    assert np.all(np.abs(areas[inclusion]) <= 1e-12 * full[inclusion])
    cut = ~matrix & ~inclusion
    assert np.all(areas[cut] > -1e-12 * full[cut])
    assert np.all(areas[cut] < full[cut] * (1.0 + 1e-12))


def test_geometry_validation():
    with pytest.raises(ValueError):
        make_gap_geometry(Disk(r0=1.0), eps=0.0, L2=1.5)
    with pytest.raises(ValueError):
        make_gap_geometry(Disk(r0=1.0), eps=0.01, L2=1.0)
    with pytest.raises(ValueError):
        Disk(r0=-1.0)
    with pytest.raises(ValueError):
        Ellipse(a=0.0, b=1.0)
    # infinite sizes used to pass and reach the quadrature
    with pytest.raises(ValueError, match="eps=inf"):
        make_gap_geometry(Disk(r0=1.0), eps=math.inf, L2=1.5)
    with pytest.raises(ValueError, match="L2=inf"):
        make_gap_geometry(Disk(r0=1.0), eps=0.01, L2=math.inf)
    with pytest.raises(ValueError, match="finite"):
        Disk(r0=math.inf)
    with pytest.raises(ValueError, match="finite"):
        Ellipse(a=math.inf, b=1.0)


def test_path_segment_validation():
    # an unknown kind or a params tuple of the wrong length is refused when
    # the segment is made, not inside an integration round
    with pytest.raises(ValueError, match="unknown segment kind 'circle'"):
        PathSegment("circle", (0.0, 1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="kind 'arc' takes 5 params, got 4"):
        PathSegment("arc", (0.0, 1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="kind 'line' takes 7 params, got 8"):
        PathSegment("line", (0.0,) * 8)
    PathSegment("parabola", (0.0005, 0.1))
