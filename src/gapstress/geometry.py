"""Gap-centered period cell holding two nearly touching convex inclusions.

The working cell is the rectangle (-L1, L1) x (-L2, L2).  The narrow gap of
width ``eps`` sits at the origin: inclusion D2 is centered at (L1, 0) on the
right edge, its mirror image D1 at (-L1, 0), so the inner boundary of D2
crosses the x-axis at (eps/2, 0).  Inclusions are disks or axis-aligned
ellipses; both are symmetric in each coordinate axis.

Boundary curves are made of segments, each a kind of ``SEGMENT_KINDS`` (a
line, an arc of an ellipse centred on the x-axis, or the fibre axis'
parabola x = x0 + A t^2) and its params, so one frame call of a kind, with
params per node, serves all its segments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Disk",
    "Ellipse",
    "InclusionShape",
    "GapGeometry",
    "Region",
    "PathSegment",
    "Curve",
    "make_gap_geometry",
    "gap_halfwidth",
    "gap_halfwidth_deriv",
    "chord_halfheight",
    "region_classify",
    "inclusion_boundary",
    "rect_classify",
    "rect_matrix_area",
]


@dataclass(frozen=True)
class Disk:
    """Circular inclusion of radius r0."""

    r0: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.r0) and self.r0 > 0.0):
            raise ValueError(f"disk radius must be finite and positive, got {self.r0}")

    @property
    def half_width(self) -> float:
        return self.r0

    @property
    def half_height(self) -> float:
        return self.r0

    @property
    def curvature_at_gap(self) -> float:
        return 1.0 / self.r0


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned elliptical inclusion with semi-axes (a, b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a > 0.0 and self.b > 0.0):
            raise ValueError(
                f"ellipse semi-axes must be finite and positive, got a={self.a}, b={self.b}")

    @property
    def half_width(self) -> float:
        return self.a

    @property
    def half_height(self) -> float:
        return self.b

    @property
    def curvature_at_gap(self) -> float:
        # curvature of the ellipse boundary at the end of the horizontal axis
        return self.a / (self.b * self.b)


InclusionShape = Union[Disk, Ellipse]


class Region(enum.IntEnum):
    MATRIX = 0
    INCLUSION1 = 1
    INCLUSION2 = 2
    OUTSIDE_CELL = 3


@dataclass(frozen=True)
class GapGeometry:
    """Frozen description of one gap configuration.

    kappa0 is the boundary curvature at the gap-facing vertex, r_osc = 1/kappa0
    the osculating disk radius there.  The pair field's two poles sit at
    (-a, 0) and (a, 0) with a = sqrt(eps (4 r_osc + eps)) / 2; both lie
    strictly inside their inclusion for any eps > 0.  L is the half-height of
    the neck region used by the test fields (half the inclusion half-height).
    """

    shape: InclusionShape
    eps: float
    L1: float
    L2: float
    kappa0: float
    r_osc: float
    a: float
    L: float

    @property
    def half_width(self) -> float:
        return self.shape.half_width

    @property
    def half_height(self) -> float:
        return self.shape.half_height


def make_gap_geometry(shape: InclusionShape, eps: float, L2: float) -> GapGeometry:
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"gap width must be finite and positive, got eps={eps}")
    if not np.isfinite(L2):
        raise ValueError(f"cell half-height must be finite, got L2={L2}")
    if not L2 > shape.half_height:
        raise ValueError(
            f"cell half-height L2={L2} must exceed the inclusion half-height "
            f"{shape.half_height}"
        )
    kappa0 = shape.curvature_at_gap
    r_osc = 1.0 / kappa0
    a = np.sqrt(eps * (4.0 * r_osc + eps)) / 2.0
    return GapGeometry(
        shape=shape,
        eps=eps,
        L1=shape.half_width + eps / 2.0,
        L2=L2,
        kappa0=kappa0,
        r_osc=r_osc,
        a=float(a),
        L=shape.half_height / 2.0,
    )


def gap_halfwidth(geom: GapGeometry, y) -> np.ndarray:
    """Half-width f(y) of the gap: D2's inner boundary is the graph x = f(y).

    Defined for |y| <= inclusion half-height.  f(0) = eps/2 and
    f(y) = eps/2 + kappa0 y^2/2 + O(y^4) near the gap center.
    """
    # bounds._edge_halfwidth repeats this formula at y = L in scalar math
    y = np.asarray(y, dtype=float)
    A = geom.half_width
    B = geom.half_height
    if np.any(np.abs(y) > B * (1.0 + 1e-12)):
        raise ValueError("gap_halfwidth evaluated beyond the inclusion half-height")
    t = np.clip(1.0 - (y / B) ** 2, 0.0, None)
    return geom.eps / 2.0 + A * (1.0 - np.sqrt(t))


def gap_halfwidth_deriv(geom: GapGeometry, y) -> np.ndarray:
    """Derivative f'(y); requires |y| strictly below the inclusion half-height."""
    # bounds._edge_halfwidth repeats this formula at y = L in scalar math
    y = np.asarray(y, dtype=float)
    A = geom.half_width
    B = geom.half_height
    if np.any(np.abs(y) >= B):
        raise ValueError("gap_halfwidth_deriv needs |y| < inclusion half-height")
    t = 1.0 - (y / B) ** 2
    return A * y / (B * B * np.sqrt(t))


def chord_halfheight(geom: GapGeometry, x) -> np.ndarray:
    """Half-height h(x) of the inclusion chord at abscissa x, zero in the gap.

    At fixed x the matrix is exactly [-L2, -h(x)] U [h(x), L2].  Near the
    gap h(x) = sqrt(2 r_osc (|x| - eps/2)) + ..., a square-root onset at
    |x| = eps/2; the distance d to that onset enters directly, so the chord
    stays accurate where it is tiny.
    """
    x = np.asarray(x, dtype=float)
    d = (np.abs(x) - geom.eps / 2.0) / geom.half_width
    return geom.half_height * np.sqrt(np.clip(d * (2.0 - d), 0.0, None))


def _scaled_sq_dist(geom: GapGeometry, x, y, center_x: float):
    """((x-cx)/A)^2 + (y/B)^2; value < 1 means inside that inclusion."""
    A = geom.half_width
    B = geom.half_height
    return ((x - center_x) / A) ** 2 + (y / B) ** 2


def region_classify(geom: GapGeometry, points) -> np.ndarray:
    """Classify points as matrix / inclusion1 / inclusion2 / outside_cell.

    Cell-boundary and inclusion-boundary points fall to the matrix by the
    measure-zero convention, except points strictly outside the rectangle.
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    out = np.full(np.shape(x), int(Region.MATRIX), dtype=np.int8)
    inc2 = _scaled_sq_dist(geom, x, y, geom.L1) < 1.0
    inc1 = _scaled_sq_dist(geom, x, y, -geom.L1) < 1.0
    out[inc2] = int(Region.INCLUSION2)
    out[inc1] = int(Region.INCLUSION1)
    outside = (np.abs(x) > geom.L1) | (np.abs(y) > geom.L2)
    out[outside] = int(Region.OUTSIDE_CELL)
    return out


# ---------------------------------------------------------------------------
# boundary curves
# ---------------------------------------------------------------------------


_QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)
_VERTEX_RUN = 0.125


def _graded_breaks(start: float, stop: float, first: float, ratio: float) -> list[float]:
    """start, then start + first ratio^k for k = 0, 1, ... while below stop."""
    pts, step = [start], first
    while start + step < stop:
        pts.append(start + step)
        step *= ratio
    return pts


def _vertex_run(dt: float) -> list[float]:
    """Offsets 0, dt, dt (1 + r), ..., 1/8 of a vertex's graded run: n
    panels dt r^k, the fewest with a ratio 1 <= r <= 2 that sum to 1/8.

    The ratio solves 1 + r + ... + r^(n-1) = s, s = 1/(8 dt), by 8 Newton
    steps from r = 2 (Horner for the sum and its slope); the sum is convex
    and increasing in r, so the steps fall to the root from above, and
    quadratically.  A dt of 1/16 or more runs two panels of 1/16, the
    widest first panel that the second does not undercut."""
    dt = min(dt, _VERTEX_RUN / 2.0)
    s = _VERTEX_RUN / dt
    n = max(2, math.ceil(math.log2(s + 1.0)))
    r = 2.0
    for _ in range(8):
        total, slope = 1.0, 0.0
        for _ in range(n - 1):
            slope = slope * r + total
            total = total * r + 1.0
        r -= (total - s) / slope
    offsets, width = [0.0], dt
    for _ in range(n - 1):
        offsets.append(offsets[-1] + width)
        width *= r
    return offsets + [_VERTEX_RUN]


def _vertex_breaks(vertices, dt: float, pieces: int = 4) -> tuple[float, ...]:
    """Root edges in t: the multiples of 1/pieces, and from each
    gap-facing parameter in ``vertices`` the graded run of ``_vertex_run``
    each way, so the adaptive loop starts at the scale where the pair field
    concentrates, no panel of the run is narrower than the one before it or
    more than twice as wide, and the run ends on a break v +- 1/8."""
    if vertices and not dt > 0.0:
        raise ValueError(f"the first graded panel must be positive, got {dt}")
    edges = {k / pieces for k in range(pieces + 1)}
    run = _vertex_run(dt) if vertices else []
    for v in vertices:
        edges.update(v + o for o in run)
        edges.update(v - o for o in run)
    return tuple(sorted(e for e in edges if 0.0 <= e <= 1.0))


def _line_frame(p, t):
    """Kind "line", params (x0, y0, dx, dy, nx, ny, length): the point
    (x0, y0) + t (dx, dy), the constant normal (nx, ny) and speed ``length``."""
    x0, y0, dx, dy, nx, ny, length = p
    return x0 + t * dx, y0 + t * dy, nx, ny, length


def _arc_frame(p, t):
    """Kind "arc", params (cx, A, B, th0, span): the ellipse point
    (cx + A cos th, B sin th) at th = th0 + span t, its unit normal into the
    ellipse (out of the matrix) and speed |span| |dgamma/dth|."""
    cx, A, B, th0, span = p
    th = th0 + span * t
    cos, sin = np.cos(th), np.sin(th)
    nx, ny = cos / A, sin / B
    # outward of the ellipse is (nx, ny)/norm; matrix-outward is the flip
    norm = -np.hypot(nx, ny)
    return cx + A * cos, B * sin, nx / norm, ny / norm, np.abs(span) * np.hypot(A * sin, B * cos)


def _parabola_frame(p, t):
    """Kind "parabola", params (x0, A): the point (x0 + A t^2, 0) of the
    x-axis, the normal (0, 1) and speed 2 A t."""
    x0, A = p
    return x0 + A * t * t, 0.0, 0.0, 1.0, 2.0 * A * t


# each kind's frame: (params, t) -> x, y, nx, ny and speed, each of t's
# shape or one number; a param is one number or an array broadcast against t
SEGMENT_KINDS = {"line": _line_frame, "arc": _arc_frame, "parabola": _parabola_frame}
# the number of params each kind's frame unpacks
_PARAM_COUNTS = {"line": 7, "arc": 5, "parabola": 2}


def _kind_frame(kind: str, params, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, normals, speeds) of the segments of ``kind`` at t: the (..., 2)
    coordinates, the unit normals out of the matrix and |dgamma/dt|, with
    ``params`` as SEGMENT_KINDS takes them."""
    t = np.asarray(t, dtype=float)
    pts, nrm, spd = np.empty(t.shape + (2,)), np.empty(t.shape + (2,)), np.empty(t.shape)
    pts[..., 0], pts[..., 1], nrm[..., 0], nrm[..., 1], spd[...] = SEGMENT_KINDS[kind](params, t)
    return pts, nrm, spd


@dataclass(frozen=True)
class PathSegment:
    """One smooth parametrized piece of a boundary curve, t in [0, 1]: a
    ``kind`` of SEGMENT_KINDS and its ``params``.

    ``frame`` maps t -> (points, normals, speeds): the (..., 2) coordinates,
    the unit normals pointing out of the matrix region (into an inclusion on
    inclusion arcs, out of the cell on cell edges) and |dgamma/dt|, the
    arclength weight: the kind's frame on this segment's params.  ``breaks``
    are the edges in t of the root panels that path integration starts
    from, ascending.  An unknown kind, or a number of params other than
    the kind's, raises ValueError.
    """

    kind: str
    params: tuple[float, ...]
    breaks: tuple[float, ...] = _QUARTERS

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_COUNTS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if len(self.params) != _PARAM_COUNTS[self.kind]:
            raise ValueError(f"segment kind {self.kind!r} takes {_PARAM_COUNTS[self.kind]} "
                             f"params, got {len(self.params)}")

    def frame(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _kind_frame(self.kind, self.params, t)


@dataclass(frozen=True)
class Curve:
    segments: tuple[PathSegment, ...]


def _ellipse_arc(cx: float, A: float, B: float, th0: float, th1: float,
                 vertices: tuple[float, ...] = (), first: float = 0.0) -> PathSegment:
    """Arc of the ellipse centered (cx, 0); normal points into the inclusion.

    Root panels grow from the gap-facing angles ``vertices`` (0 or pi mod
    2 pi, where the speed is B), the first spanning arclength ``first``;
    the others are quarters of the arc, or eighths of an arc longer than a
    half turn, so none spans more than an eighth of a turn."""
    span = th1 - th0
    breaks = _vertex_breaks([(th - th0) / span for th in vertices], first / (abs(span) * B),
                            4 * math.ceil(abs(span) / np.pi))
    return PathSegment("arc", (cx, A, B, th0, span), breaks)


def _line_segment(p0, p1, n, breaks: tuple[float, ...] = _QUARTERS) -> PathSegment:
    """Segment p0 -> p1 with normal n, on the root panels ``breaks``."""
    (x0, y0), (x1, y1) = p0, p1
    dx, dy = x1 - x0, y1 - y0
    return PathSegment("line", (x0, y0, dx, dy, *n, float(np.hypot(dx, dy))), breaks)


def inclusion_boundary(geom: GapGeometry, which: int) -> Curve:
    """Full closed boundary of inclusion 1 or 2, normal pointing into it."""
    if which not in (1, 2):
        raise ValueError(f"inclusion index must be 1 or 2, got {which}")
    # the gap-facing vertex is at theta = pi on D2 and at theta = 0 = 2 pi on D1
    cx, vertices = (geom.L1, (np.pi,)) if which == 2 else (-geom.L1, (0.0, 2.0 * np.pi))
    arc = _ellipse_arc(cx, geom.half_width, geom.half_height, 0.0, 2.0 * np.pi, vertices, geom.a)
    return Curve(segments=(arc,))


# ---------------------------------------------------------------------------
# exact rectangle area and classification, kept as test oracles
# ---------------------------------------------------------------------------


def _arc_antideriv(t):
    """Antiderivative of sqrt(1 - t^2) on [-1, 1], odd in t."""
    t = np.clip(t, -1.0, 1.0)
    return 0.5 * (t * np.sqrt(np.clip((1.0 - t) * (1.0 + t), 0.0, None)) + np.arcsin(t))


def _rect_inclusion_area(geom: GapGeometry, x1, x2, y1, y2, center_x: float):
    """Exact area of [x1,x2]x[y1,y2] intersected with one inclusion.

    Built from vertical-slab integrals whose terms are local to the
    rectangle, so slivers at the gap (areas many orders below the cell
    scale) come out without large-term cancellation.
    """
    A = geom.half_width
    B = geom.half_height
    x_lo = center_x - A
    x_hi = center_x + A

    y1c = np.clip(np.asarray(y1, dtype=float), -B, B)
    y2c = np.clip(np.asarray(y2, dtype=float), -B, B)

    def chord_integral(lo, hi):
        # integral of the full chord length 2 A sqrt(1-(y/B)^2) over [lo, hi]
        return 2.0 * A * B * (_arc_antideriv(hi / B) - _arc_antideriv(lo / B))

    def left_integral(x):
        """T(x): area of the inclusion part left of the line u = x, in the y-window."""
        x = np.asarray(x, dtype=float)
        dL = (x - x_lo) / A
        dR = (x_hi - x) / A
        rad = B * np.sqrt(np.clip(dL * dR, 0.0, None))
        lo = np.clip(y1c, -rad, rad)
        hi = np.clip(y2c, -rad, rad)
        half = A * B * (_arc_antideriv(hi / B) - _arc_antideriv(lo / B))
        partial = (x - center_x) * (hi - lo) + half
        # x right of the center: full chords outside |y| <= rad, partial inside
        right_case = partial + chord_integral(y1c, y2c) - 2.0 * half
        value = np.where(x <= center_x, partial, right_case)
        value = np.where(dL <= 0.0, 0.0, value)
        value = np.where(dR <= 0.0, chord_integral(y1c, y2c), value)
        return np.clip(value, 0.0, None)

    return np.clip(left_integral(x2) - left_integral(x1), 0.0, None)


def rect_matrix_area(geom: GapGeometry, x1, x2, y1, y2):
    """Exact matrix-region area of axis-aligned rectangles inside the cell."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    total = (x2 - x1) * (y2 - y1)
    cut1 = _rect_inclusion_area(geom, x1, x2, y1, y2, -geom.L1)
    cut2 = _rect_inclusion_area(geom, x1, x2, y1, y2, geom.L1)
    return np.clip(total - cut1 - cut2, 0.0, None)


def _rect_vs_inclusion(geom: GapGeometry, x1, x2, y1, y2, center_x: float):
    """Per-rectangle code vs one inclusion: 0 disjoint, 1 contained, 2 partial.

    Exact for axis-aligned rectangles because the axis-aligned scaling onto
    the unit disk maps rectangles to rectangles.
    """
    A = geom.half_width
    B = geom.half_height
    u1 = (x1 - center_x) / A
    u2 = (x2 - center_x) / A
    v1 = y1 / B
    v2 = y2 / B
    # farthest corner from the center decides containment
    umax = np.maximum(np.abs(u1), np.abs(u2))
    vmax = np.maximum(np.abs(v1), np.abs(v2))
    inside = umax * umax + vmax * vmax <= 1.0
    # nearest point of the rectangle to the center decides disjointness
    unear = np.where((u1 <= 0.0) & (u2 >= 0.0), 0.0, np.minimum(np.abs(u1), np.abs(u2)))
    vnear = np.where((v1 <= 0.0) & (v2 >= 0.0), 0.0, np.minimum(np.abs(v1), np.abs(v2)))
    disjoint = unear * unear + vnear * vnear >= 1.0
    code = np.full(np.shape(inside), 2, dtype=np.int8)
    code[disjoint] = 0
    code[inside] = 1
    return code


def rect_classify(geom: GapGeometry, x1, x2, y1, y2) -> np.ndarray:
    """Classify rectangles: 0 pure matrix, 1 in D1, 2 in D2, 3 straddling."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    c1 = _rect_vs_inclusion(geom, x1, x2, y1, y2, -geom.L1)
    c2 = _rect_vs_inclusion(geom, x1, x2, y1, y2, geom.L1)
    code = np.zeros(np.shape(c1), dtype=np.int8)
    code[(c1 == 2) | (c2 == 2)] = 3
    code[c1 == 1] = 1
    code[c2 == 1] = 2
    return code
