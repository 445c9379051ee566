"""Point-source kernels and the two-pole singular fields."""
from __future__ import annotations

import math

import numpy as np
import pytest

from gapstress import (
    KERNEL_NAMES,
    POLE_EXCLUSION_RADIUS,
    Ellipse,
    KernelContext,
    LameMaterial,
    Matrix2,
    SymTensor2,
    kelvin_matrix,
    kernel_displacement,
    kernel_gradient,
    make_gap_geometry,
    singular_displacement,
    singular_stress,
    stress_from_gradient,
)
from gapstress.geometry import Curve, PathSegment, Region, chord_halfheight, region_classify
from gapstress.kernels import _EdgeTerms, _FibreTerms, _PairTerms, _edge_resultant
from gapstress.quadrature import integrate_path

from conftest import UNIT, disk_geometry
import oracles


def test_kelvin_at_unit_x():
    k = kelvin_matrix(np.array([1.0, 0.0]), UNIT)
    assert k.a11 == pytest.approx(-1.0 / (6.0 * math.pi), rel=1e-14)
    assert k.a12 == pytest.approx(0.0, abs=1e-16)
    assert k.a21 == pytest.approx(0.0, abs=1e-16)
    assert k.a22 == pytest.approx(0.0, abs=1e-16)


def test_kelvin_at_unit_y():
    k = kelvin_matrix(np.array([0.0, 1.0]), UNIT)
    assert k.a22 == pytest.approx(-1.0 / (6.0 * math.pi), rel=1e-14)
    assert k.a11 == pytest.approx(0.0, abs=1e-16)


def test_kelvin_even():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, size=(50, 2))
    x = x[np.linalg.norm(x, axis=1) > 0.1]
    k = kelvin_matrix(x, UNIT)
    km = kelvin_matrix(-x, UNIT)
    for f in ("a11", "a12", "a21", "a22"):
        assert np.array_equal(getattr(k, f), getattr(km, f))


def test_radial_gradient_at_unit_x():
    gm = kernel_gradient("radial", np.array([1.0, 0.0]), UNIT)
    assert gm.a11 == pytest.approx(-1.0, rel=1e-14)
    assert gm.a22 == pytest.approx(1.0, rel=1e-14)
    assert gm.a12 == pytest.approx(0.0, abs=1e-15)
    assert gm.a21 == pytest.approx(0.0, abs=1e-15)


def test_rotational_gradient_at_unit_x():
    gm = kernel_gradient("rotational", np.array([1.0, 0.0]), UNIT)
    assert gm.a11 == pytest.approx(0.0, abs=1e-15)
    assert gm.a22 == pytest.approx(0.0, abs=1e-15)
    assert gm.a12 == pytest.approx(-1.0, rel=1e-14)
    assert gm.a21 == pytest.approx(-1.0, rel=1e-14)


@pytest.mark.parametrize("which", KERNEL_NAMES)
def test_kernel_gradient_matches_finite_differences(which):
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=200)
    r = rng.uniform(0.3, 3.0, size=200)
    x = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    d1 = (kernel_displacement(which, x + ex, UNIT) - kernel_displacement(which, x - ex, UNIT)) / (2 * h)
    d2 = (kernel_displacement(which, x + ey, UNIT) - kernel_displacement(which, x - ey, UNIT)) / (2 * h)
    gm = kernel_gradient(which, x, UNIT)
    got = np.stack(
        (np.stack((gm.a11, gm.a12), axis=-1), np.stack((gm.a21, gm.a22), axis=-1)), axis=-2
    )
    fd = np.stack((d1, d2), axis=-1)
    scale = np.abs(got).max(axis=(-1, -2)) + 1e-12
    assert np.all(np.abs(got - fd).max(axis=(-1, -2)) <= 1e-6 * scale)


@pytest.mark.parametrize("which", KERNEL_NAMES)
def test_kernel_rejects_pole(which):
    with pytest.raises(ValueError):
        kernel_displacement(which, np.array([0.0, 0.0]), UNIT)
    with pytest.raises(ValueError):
        kernel_gradient(which, np.array([0.1 * POLE_EXCLUSION_RADIUS, 0.0]), UNIT)


@pytest.mark.parametrize("j", [1, 2])
def test_pair_field_vanishes_at_origin(j):
    g = disk_geometry(1e-3)
    ctx = KernelContext.from_geometry(g, UNIT)
    u = singular_displacement(ctx, j, np.array([0.0, 0.0]))
    assert np.all(np.abs(u) <= 1e-14)


@pytest.mark.parametrize("j", [1, 2])
def test_pair_field_far_point_scales_like_sqrt_eps(j):
    far = np.array([0.37, 1.1])
    consts = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        g = disk_geometry(eps)
        ctx = KernelContext.from_geometry(g, UNIT)
        u = singular_displacement(ctx, j, far)
        consts.append(float(np.hypot(u[0], u[1])) / math.sqrt(eps))
    assert max(consts) / min(consts) <= 1.2
    assert max(consts) < 10.0


@pytest.mark.parametrize("j", [1, 2])
def test_pair_stress_matches_displacement_fd(j):
    g = disk_geometry(1e-3)
    ctx = KernelContext.from_geometry(g, UNIT)
    rng = np.random.default_rng(5)
    pts = rng.uniform([-1.4, -1.4], [1.4, 1.4], size=(400, 2))
    keep = np.minimum(*(np.linalg.norm(pts - p, axis=1) for p in oracles.poles(ctx))) > 0.05
    pts = pts[keep]
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    d1 = (singular_displacement(ctx, j, pts + ex) - singular_displacement(ctx, j, pts - ex)) / (2 * h)
    d2 = (singular_displacement(ctx, j, pts + ey) - singular_displacement(ctx, j, pts - ey)) / (2 * h)
    fd = stress_from_gradient(Matrix2(d1[:, 0], d2[:, 0], d1[:, 1], d2[:, 1]), UNIT)
    s = singular_stress(ctx, j, pts)
    scale = max(np.abs(s.a11).max(), np.abs(s.a12).max(), np.abs(s.a22).max())
    assert np.abs(s.a11 - fd.a11).max() <= 2e-6 * scale
    assert np.abs(s.a12 - fd.a12).max() <= 2e-6 * scale
    assert np.abs(s.a22 - fd.a22).max() <= 2e-6 * scale


# (Kelvin column, nucleus, sign of the nucleus weight alpha2 a) of q_j
_NUCLEI = {1: ("kelvin1", "radial", 1.0), 2: ("kelvin2", "rotational", -1.0)}


def _nuclei_displacement(ctx, j, pts):
    """q_j as the sum of its four nuclei of strain: the Kelvin columns at p1
    and p2 with opposite signs plus two centers of dilatation (j = 1) or
    rotation (j = 2)."""
    mat = ctx.material
    d1, d2 = (pts - p for p in oracles.poles(ctx))
    kelvin, nucleus, sign = _NUCLEI[j]
    return (kernel_displacement(kelvin, d1, mat) - kernel_displacement(kelvin, d2, mat)
            + sign * ctx.alpha2 * ctx.a
            * (kernel_displacement(nucleus, d1, mat) + kernel_displacement(nucleus, d2, mat)))


def _nuclei_stress(ctx, j, pts) -> SymTensor2:
    mat = ctx.material
    d1, d2 = (pts - p for p in oracles.poles(ctx))
    kelvin, nucleus, sign = _NUCLEI[j]
    c = sign * ctx.alpha2 * ctx.a
    parts = (kernel_gradient(kelvin, d1, mat), kernel_gradient(kelvin, d2, mat),
             kernel_gradient(nucleus, d1, mat), kernel_gradient(nucleus, d2, mat))
    entries = [k1 - k2 + c * (n1 + n2)
               for k1, k2, n1, n2 in zip(*((g.a11, g.a12, g.a21, g.a22) for g in parts))]
    return stress_from_gradient(Matrix2(*entries), mat)


@pytest.mark.parametrize("shape", ["disk", "ellipse"])
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (3.0, 0.7), (-0.5, 1.0)])
def test_pair_field_potentials_match_nuclei_sum(shape, eps, lam, mu):
    g = (disk_geometry(eps) if shape == "disk"
         else make_gap_geometry(Ellipse(a=1.0, b=2.0), eps=eps, L2=2.5))
    ctx = KernelContext.from_geometry(g, LameMaterial(lam=lam, mu=mu))
    rng = np.random.default_rng(29)
    # the whole cell and a box around the gap, a few gap widths across
    near = 5.0 * eps
    pts = np.concatenate((
        rng.uniform([-g.L1, -g.L2], [g.L1, g.L2], size=(1500, 2)),
        rng.uniform([-near, -20.0 * g.a], [near, 20.0 * g.a], size=(500, 2)),
    ))
    for j in (1, 2):
        u = singular_displacement(ctx, j, pts)
        u_ref = _nuclei_displacement(ctx, j, pts)
        assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
        s = singular_stress(ctx, j, pts)
        s_ref = _nuclei_stress(ctx, j, pts)
        got = np.stack((s.a11, s.a12, s.a22), axis=-1)
        ref = np.stack((s_ref.a11, s_ref.a12, s_ref.a22), axis=-1)
        assert np.all(np.abs(got - ref).max(axis=-1) <= 1e-11 * np.abs(ref).max(axis=-1))


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("pole", ["p1", "p2"])
def test_pair_field_rejects_pole(j, pole):
    ctx = KernelContext.from_geometry(disk_geometry(1e-3), UNIT)
    at = dict(zip(("p1", "p2"), oracles.poles(ctx)))[pole]
    at = at + np.array([0.5 * POLE_EXCLUSION_RADIUS, 0.0])
    with pytest.raises(ValueError):
        singular_displacement(ctx, j, at)
    with pytest.raises(ValueError):
        singular_stress(ctx, j, at)
    # the shared terms of both loads guard once, for every field of either
    with pytest.raises(ValueError):
        _PairTerms(ctx, np.stack((np.zeros(2), at)))


def _shared_term_points(geom, kind):
    if kind == "scattered":
        return _matrix_points(geom, 200, seed=23, pole_margin=0.0)
    if kind == "near-pole":
        rng = np.random.default_rng(29)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=40)
        r = 10.0 ** rng.uniform(-11.0, -9.0, size=40)
        offsets = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)
        on_axis = np.array([[1e-9, 0.0], [-1e-9, 0.0], [0.0, 1e-9]])
        return np.concatenate([p + np.concatenate((offsets, on_axis))
                               for p in oracles.poles(geom)])
    return np.stack(np.meshgrid(np.linspace(-0.8, 0.8, 4), np.linspace(-1.2, 1.2, 5),
                                indexing="ij"), axis=-1)


@pytest.mark.parametrize("shape", ["disk", "ellipse"])
@pytest.mark.parametrize("kind", ["scattered", "near-pole", "shaped"])
def test_shared_terms_match_per_load_fields(shape, kind):
    geom = (disk_geometry(1e-3) if shape == "disk"
            else make_gap_geometry(Ellipse(a=1.0, b=2.0), eps=1e-5, L2=2.5))
    ctx = KernelContext.from_geometry(geom, LameMaterial(lam=2.0, mu=0.7))
    pts = _shared_term_points(geom, kind)
    assert kind != "shaped" or pts.shape == (4, 5, 2)
    # one set of terms for both fields of both loads, the loads in reverse
    # order, against each field of each load evaluated on its own
    terms = _PairTerms(ctx, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        edges = _EdgeTerms(ctx, pts[..., 0], pts[..., 1])
    for j in (2, 1):
        want_s = oracles.pair_stress_per_load(ctx, j, pts)
        want_u = oracles.pair_displacement_per_load(ctx, j, pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            want_r = oracles.edge_resultant_per_load(ctx, j, pts[..., 0], pts[..., 1])
            got_r = (edges.resultant(j), _edge_resultant(ctx, j, pts[..., 0], pts[..., 1]))
        for s in (terms.stress(j), singular_stress(ctx, j, pts)):
            for got, want in zip((s.a11, s.a12, s.a22), (want_s.a11, want_s.a12, want_s.a22)):
                assert got.shape == pts.shape[:-1]
                assert np.array_equal(got, want)
        assert np.array_equal(terms.displacement(j), want_u)
        assert np.array_equal(singular_displacement(ctx, j, pts), want_u)
        # the line through p1 meets the resultant's log singularity there,
        # so near p1 it reads -inf or nan: equal where it is finite, and
        # non-finite at the same points
        assert np.isfinite(want_r).any()
        for got in got_r:
            np.testing.assert_array_equal(got, want_r)


def test_pair_stress_symmetries_at_origin():
    g = disk_geometry(1e-3)
    ctx = KernelContext.from_geometry(g, UNIT)
    s1 = singular_stress(ctx, 1, np.array([0.0, 0.0]))
    assert s1.a12 == pytest.approx(0.0, abs=1e-13 * abs(s1.a11))
    s2 = singular_stress(ctx, 2, np.array([0.0, 0.0]))
    assert s2.a11 == pytest.approx(0.0, abs=1e-13 * abs(s2.a12))
    assert s2.a22 == pytest.approx(0.0, abs=1e-13 * abs(s2.a12))


def _matrix_points(geom, n, seed, pole_margin):
    rng = np.random.default_rng(seed)
    ctx = KernelContext.from_geometry(geom, UNIT)
    out = []
    while len(out) < n:
        p = rng.uniform([-geom.L1, -geom.L2], [geom.L1, geom.L2], size=(4 * n, 2))
        codes = region_classify(geom, p)
        dist = np.minimum(*(np.linalg.norm(p - q, axis=1) for q in oracles.poles(ctx)))
        p = p[(codes == Region.MATRIX) & (dist > pole_margin)]
        out.extend(p.tolist())
    return np.array(out[:n])


@pytest.mark.parametrize("j", [1, 2])
def test_pair_stress_divergence_fd(j):
    g = disk_geometry(1e-3)
    ctx = KernelContext.from_geometry(g, UNIT)
    pts = _matrix_points(g, 300, seed=17, pole_margin=0.02)
    dist = np.minimum(*(np.linalg.norm(pts - p, axis=1) for p in oracles.poles(ctx)))
    h = 6e-6 * dist
    ex = np.stack((h, np.zeros_like(h)), axis=-1)
    ey = np.stack((np.zeros_like(h), h), axis=-1)
    spx = singular_stress(ctx, j, pts + ex)
    smx = singular_stress(ctx, j, pts - ex)
    spy = singular_stress(ctx, j, pts + ey)
    smy = singular_stress(ctx, j, pts - ey)
    d1_11 = (spx.a11 - smx.a11) / (2 * h)
    d2_12 = (spy.a12 - smy.a12) / (2 * h)
    d1_12 = (spx.a12 - smx.a12) / (2 * h)
    d2_22 = (spy.a22 - smy.a22) / (2 * h)
    resid = np.maximum(np.abs(d1_11 + d2_12), np.abs(d1_12 + d2_22))
    scale = np.maximum(
        np.abs(d1_11) + np.abs(d2_12), np.abs(d1_12) + np.abs(d2_22)
    ).max()
    assert resid.max() <= 1e-5 * scale


@pytest.mark.parametrize("j", [1, 2])
def test_pair_field_solves_lame_system(j):
    # mu lap(u) + (lam + mu) grad(div u) = 0 away from the poles, checked with
    # second-order centered stencils
    g = disk_geometry(1e-3)
    ctx = KernelContext.from_geometry(g, UNIT)
    pts = _matrix_points(g, 300, seed=23, pole_margin=0.05)
    dist = np.minimum(*(np.linalg.norm(pts - p, axis=1) for p in oracles.poles(ctx)))
    h = 1e-4 * dist
    hx = np.stack((h, np.zeros_like(h)), axis=-1)
    hy = np.stack((np.zeros_like(h), h), axis=-1)

    def u(p):
        return singular_displacement(ctx, j, p)

    u0 = u(pts)
    uxx = (u(pts + hx) - 2 * u0 + u(pts - hx)) / h[:, None] ** 2
    uyy = (u(pts + hy) - 2 * u0 + u(pts - hy)) / h[:, None] ** 2
    uxy = (
        u(pts + hx + hy) - u(pts + hx - hy) - u(pts - hx + hy) + u(pts - hx - hy)
    ) / (4 * h[:, None] ** 2)
    lap = uxx + uyy
    grad_div = np.stack(
        (uxx[:, 0] + uxy[:, 1], uxy[:, 0] + uyy[:, 1]), axis=-1
    )
    lam, mu = UNIT.lam, UNIT.mu
    resid = np.abs(mu * lap + (lam + mu) * grad_div).max(axis=-1)
    scale = (
        mu * np.abs(lap) + (lam + mu) * np.abs(grad_div)
    ).max(axis=-1) + np.abs(uxx).max(axis=-1)
    assert np.all(resid <= 1e-4 * scale)


def _circle_curve(center, radius):
    # an arc kind segment: the full circle, normals pointing into it
    cx, cy = center
    assert cy == 0.0
    return Curve(segments=(PathSegment("arc", (cx, radius, radius, 0.0, 2.0 * math.pi)),))


@pytest.mark.parametrize("j", [1, 2])
def test_traction_flux_contour_independent(j):
    g = disk_geometry(1e-3)
    ctx = KernelContext.from_geometry(g, UNIT)
    rel_tol = 1e-10

    def flux(radius):
        curve = _circle_curve(oracles.poles(ctx)[1], radius)

        def fn(p, n):
            return singular_stress(ctx, j, p).apply(n)

        return np.asarray(integrate_path(curve, fn, rel_tol).value)

    f_small = flux(0.5 * g.a)
    f_big = flux(0.9 * g.a)
    assert np.all(np.abs(f_small - f_big) <= 1e-8 * max(1.0, np.abs(f_big).max()))


def _components(s: SymTensor2) -> np.ndarray:
    return np.stack((s.a11, s.a12, s.a22), axis=-1)


FIBRE_MATERIALS = {"unit": UNIT, "lame 3/0.7": LameMaterial(3.0, 0.7)}


@pytest.mark.parametrize("shape", ["disk", "ellipse"])
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("mat", sorted(FIBRE_MATERIALS))
def test_fibre_moments_match_path_quadrature(shape, eps, j, mat):
    # fibres inside the gap start at y = +0 on L's branch cut, those beside
    # it at the chord h(x) > 0; all end on the cell edge y = L2
    g = (disk_geometry(eps) if shape == "disk"
         else make_gap_geometry(Ellipse(a=1.0, b=2.0), eps=eps, L2=2.5))
    ctx = KernelContext.from_geometry(g, FIBRE_MATERIALS[mat])
    x = np.array([0.1 * eps, 0.45 * eps, 0.6 * eps, 2.0 * eps, 0.3, 0.95 * g.L1])
    h = chord_halfheight(g, x)
    assert np.all(h[:2] == 0.0) and np.all(h[2:] > 0.0)
    fibre = _FibreTerms(ctx, x, h, g.L2)
    m0, m1 = fibre.moments(j)
    np.testing.assert_array_equal(_components(fibre.upper_stress(j)), _components(
        singular_stress(ctx, j, np.stack((x, np.full_like(x, g.L2)), -1))))
    got = np.stack((m0.a11, m0.a12, m0.a22, m1.a11, m1.a12, m1.a22), axis=-1)
    # the closed form's rounding scales with the largest moment, at the gap
    bar = 1e-15 * np.abs(got).max()
    for n in range(x.size):
        ref = oracles.fibre_moments_quadrature(ctx, j, x[n], h[n], g.L2, 1e-12)
        assert ref.converged
        assert np.abs(got[n] - ref.value).max() <= ref.err_estimate + bar, x[n]
