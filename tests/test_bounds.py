"""Primal and dual energy bounds on the gap cell."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from gapstress import (
    Disk,
    Ellipse,
    KellerProfile,
    REL_TOL_CELL,
    REL_TOL_PATH,
    LameMaterial,
    Region,
    build_dual_stress,
    dual_lower,
    dual_lower_loads,
    energy_identity_check,
    flux_identity_check,
    gap_halfwidth,
    gap_halfwidth_deriv,
    inclusion_boundary,
    m_constant,
    make_gap_geometry,
    pair_boundary_integral,
    primal_upper,
    region_classify,
)
from gapstress import bounds, parse_config, quadrature
from gapstress.bounds import (_cell_energy, _dual_diagnostics, _singular_self_energy,
                              _Widths, _work_integrand)
from gapstress.elasticity import (Matrix2, SymTensor2, compliance_contract, compliance_energy,
                                  energy_density)
from gapstress.geometry import Curve, chord_halfheight
from gapstress.kernels import (KernelContext, _centre_force, _edge_resultant, _EdgeTerms,
                               _PairTerms, singular_stress)
from gapstress.quadrature import cumulative_line_table, integrate_cell, integrate_path

from conftest import CELL_COARSE, CELL_FAST, PATH_FAST, UNIT, disk_geometry
import oracles
from oracles import (REFLECTIONS, keller_test_gradient, matrix_boundary, primal_mpmath,
                     primal_path_integral, quarter_to_cell, whole_cell_integral)


def ellipse_geometry(eps: float):
    """The shipped ellipse cell: semi-axes (1, 2), L2 = 2.5."""
    return make_gap_geometry(Ellipse(a=1.0, b=2.0), eps=eps, L2=2.5)


SHAPES = {"disk": disk_geometry, "ellipse": ellipse_geometry}


def _one_load(integral, geom, j: int, rel_tol: float, mat=UNIT):
    """Load j's result of a dual integral over several widths and loads, on
    the one geometry."""
    return integral(_Widths((geom,), mat), (j,), rel_tol)[0][j]


def test_m_constants_unit_disk():
    g = disk_geometry(1e-3)
    assert m_constant(g, UNIT, 1) == pytest.approx(3.0 * math.pi, rel=1e-14)
    assert m_constant(g, UNIT, 2) == pytest.approx(math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        m_constant(g, UNIT, 3)


def test_m_constant_curvature_scaling():
    g1 = disk_geometry(1e-3, r0=1.0, L2=1.5)
    g2 = disk_geometry(1e-3, r0=2.0, L2=3.0)
    assert m_constant(g2, UNIT, 2) / m_constant(g1, UNIT, 2) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )


class TestKellerProfile:
    def test_center_gradient(self):
        g = disk_geometry(0.01)
        prof = KellerProfile(g)
        grad = oracles.grad_psi(prof, np.array([[0.0, 0.0]]))
        assert grad[0, 0] == pytest.approx(1.0 / g.eps, rel=1e-13)
        assert grad[0, 1] == pytest.approx(0.0, abs=1e-13)
        assert oracles.psi(prof, np.array([[0.0, 0.0]]))[0] == pytest.approx(0.5, rel=1e-13)

    def test_plateaus(self):
        g = disk_geometry(0.01)
        prof = KellerProfile(g)
        pts = np.array([[0.9, 0.0], [-0.9, 0.0], [0.9, 1.2], [-0.9, -1.2]])
        psi = oracles.psi(prof, pts)
        assert psi[0] == 1.0 and psi[2] == 1.0
        assert psi[1] == 0.0 and psi[3] == 0.0
        assert np.all(oracles.grad_psi(prof, pts) == 0.0)

    def test_profile_range_and_continuity(self):
        g = disk_geometry(0.01)
        prof = KellerProfile(g)
        y = np.linspace(-g.L2 * 0.999, g.L2 * 0.999, 4001)
        X = prof.halfwidth(y)
        assert np.all(X >= g.eps / 2.0 - 1e-15)
        assert np.all(X <= g.L1 + 1e-15)
        jumps = np.abs(np.diff(X))
        assert jumps.max() <= 2.0 * (y[1] - y[0])

    def test_psi_bounded(self):
        g = disk_geometry(0.01)
        prof = KellerProfile(g)
        rng = np.random.default_rng(2)
        pts = rng.uniform([-g.L1, -g.L2], [g.L1, g.L2], size=(2000, 2))
        psi = oracles.psi(prof, pts)
        assert np.all(psi >= 0.0) and np.all(psi <= 1.0)

    def test_test_gradient_rows(self):
        g = disk_geometry(0.01)
        prof = KellerProfile(g)
        pts = np.array([[0.0, 0.1], [0.001, -0.2]])
        g1 = keller_test_gradient(prof, 1, pts)
        assert np.all(g1.a21 == 0.0) and np.all(g1.a22 == 0.0)
        g2 = keller_test_gradient(prof, 2, pts)
        assert np.all(g2.a11 == 0.0) and np.all(g2.a12 == 0.0)
        assert np.array_equal(g1.a11, g2.a21)


@pytest.mark.parametrize("j,band", [(1, (0.90, 1.02)), (2, (0.95, 1.05))])
def test_primal_upper_near_flux_constant(j, band):
    g = disk_geometry(1e-3)
    res = primal_upper(g, UNIT, j)
    scaled = res.value * math.sqrt(g.eps) / m_constant(g, UNIT, j)
    assert band[0] <= scaled <= band[1]
    assert res.converged
    assert res.quadrature_err <= 1e-3 * res.value


def test_primal_upper_decreases_as_gap_opens():
    v_wide = primal_upper(disk_geometry(1e-2), UNIT, 1).value
    v_narrow = primal_upper(disk_geometry(1e-3), UNIT, 1).value
    assert v_wide < v_narrow


def test_primal_upper_curvature_scaling():
    # halving the gap curvature raises the scaled bound by sqrt(2)
    eps = 1e-3
    v1 = primal_upper(disk_geometry(eps, r0=1.0, L2=3.0), UNIT, 2).value
    v2 = primal_upper(disk_geometry(eps, r0=2.0, L2=3.0), UNIT, 2).value
    assert v2 / v1 == pytest.approx(math.sqrt(2.0), rel=0.04)


def test_primal_upper_j2_lambda_dependence_fades():
    # the leading j=2 coefficient is a shear quantity; the lambda imprint is
    # a subleading effect and must shrink with the gap
    gaps = {}
    for eps in (1e-3, 1e-4):
        vals = [
            primal_upper(disk_geometry(eps), LameMaterial(lam=lam, mu=1.0), 2).value
            * math.sqrt(eps)
            for lam in (1.0, 5.0)
        ]
        gaps[eps] = abs(vals[1] - vals[0])
        for v in vals:
            assert v == pytest.approx(math.pi, rel=0.05)
    assert gaps[1e-4] < 0.5 * gaps[1e-3]


def _keller_density(geom, j: int):
    """y-density a / (2X) + b X'^2 / (6X) of the Keller energy, scalar in y."""
    prof = KellerProfile(geom)
    a, b = (3.0, 1.0) if j == 1 else (1.0, 3.0)  # (lam + 2 mu, mu) for UNIT

    def density(y: float) -> float:
        X = float(prof.halfwidth(y))
        Xp = float(prof.halfwidth_deriv(y))
        return a / (2.0 * X) + b * Xp * Xp / (6.0 * X)

    return density


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("j", [1, 2])
def test_primal_matches_quadtree_energy_density(shape, j):
    # the 2D form integrates the full stiffness density of the test field
    # over the matrix; it is a coarse oracle for the 1D integral in y
    g = SHAPES[shape](1e-2)
    prof = KellerProfile(g)
    res = primal_upper(g, UNIT, j)
    # the density is even in x and in y
    area = quarter_to_cell(integrate_cell(
        g, lambda p: energy_density(keller_test_gradient(prof, j, p), UNIT), CELL_FAST))
    assert area.converged and res.converged
    assert abs(res.value - area.value) <= area.err_estimate


# in the tall cell the tangent extension of X reaches L1 below L2
PRIMAL_SHAPES = {**SHAPES, "tall disk": lambda eps: disk_geometry(eps, L2=3.0)}
PRIMAL_MATERIALS = {"unit": UNIT, "lame": LameMaterial(3.0, 0.7)}


@functools.lru_cache(maxsize=None)
def _primal_mpmath(shape: str, eps: float, j: int, mat: str = "unit") -> float:
    return primal_mpmath(PRIMAL_SHAPES[shape](eps), PRIMAL_MATERIALS[mat], j)


@pytest.mark.parametrize("shape", sorted(PRIMAL_SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
def test_primal_matches_scipy_quad(shape, eps, j):
    g = PRIMAL_SHAPES[shape](eps)
    breaks = [g.L]
    y = math.sqrt(eps)
    while y < g.L2:
        breaks.append(y)
        y *= 2.0
    half, _ = integrate.quad(_keller_density(g, j), 0.0, g.L2, points=sorted(breaks),
                             limit=1000, epsabs=0.0, epsrel=1e-13)
    oracle = 2.0 * half
    res = primal_upper(g, UNIT, j)
    assert res.converged
    assert res.quadrature_err > 0.0
    assert abs(res.value - oracle) <= 1e-10 * oracle
    # quad at epsrel 1e-13 misses by up to ~5e-13 relative while reporting
    # ~1e-14, so the error bar is held against the 40-digit value
    assert abs(res.value - _primal_mpmath(shape, eps, j)) <= res.quadrature_err


@pytest.mark.parametrize("shape", sorted(PRIMAL_SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("mat", sorted(PRIMAL_MATERIALS))
def test_primal_closed_form_matches_quadratures(shape, eps, j, mat):
    g = PRIMAL_SHAPES[shape](eps)
    prof = KellerProfile(g)
    y_cap = g.L + (g.L1 - prof.f_edge) / prof.fprime_edge
    # the tall cell reaches the cap X = L1, the shipped cells do not
    assert (y_cap < g.L2) == (shape == "tall disk")
    res = primal_upper(g, PRIMAL_MATERIALS[mat], j)
    assert res.converged
    assert abs(res.value - _primal_mpmath(shape, eps, j, mat)) <= res.quadrature_err
    assert res.quadrature_err <= 1e-13 * res.value
    path = primal_path_integral(g, PRIMAL_MATERIALS[mat], j, 1e-11)
    assert path.converged
    assert abs(res.value - path.value) <= path.err_estimate


@pytest.mark.parametrize("j", [1, 2])
def test_primal_error_covers_at_coarse_tolerance(j):
    # the path integral of the Keller density peaks at the gap center
    g = disk_geometry(1e-4)
    fine = primal_path_integral(g, UNIT, j, 1e-10)
    coarse = primal_path_integral(g, UNIT, j, CELL_COARSE)
    assert abs(coarse.value - fine.value) <= coarse.err_estimate
    assert coarse.err_estimate <= 1e-3 * coarse.value


@pytest.mark.parametrize("j", [1, 2])
def test_dual_stress_construction(j):
    g = disk_geometry(1e-3)
    dual = build_dual_stress(g, UNIT, j)
    assert dual.diagnostics.bc_residual <= 1e-12
    assert 0.0 < dual.diagnostics.asymmetry_max < 1.0
    assert dual.diagnostics.div_residual <= 1e-6

    # correction field is built divergence free: d1 G + d2 F = 0
    rng = np.random.default_rng(7)
    pts = rng.uniform([-g.L1 * 0.9, -g.L2 * 0.9], [g.L1 * 0.9, g.L2 * 0.9], size=(200, 2))
    pts = pts[region_classify(g, pts) == Region.MATRIX][:60]
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    px, mx = dual.sigma_c(pts + ex), dual.sigma_c(pts - ex)
    py, my = dual.sigma_c(pts + ey), dual.sigma_c(pts - ey)
    r1 = (px.a11 - mx.a11) / (2 * h) + (py.a12 - my.a12) / (2 * h)
    r2 = (px.a21 - mx.a21) / (2 * h) + (py.a22 - my.a22) / (2 * h)
    scale = max(
        np.abs(dual.sigma_c(pts).a11).max(), np.abs(dual.sigma_c(pts).a12).max(), 1e-12
    )
    assert np.abs(r1).max() <= 1e-4 * scale
    assert np.abs(r2).max() <= 1e-4 * scale


def test_dual_stress_cancels_edge_traction():
    g = disk_geometry(1e-3)
    dual = build_dual_stress(g, UNIT, 1)
    x = np.linspace(-g.L1, g.L1, 101)
    for ysign in (g.L2, -g.L2):
        pts = np.stack((x, np.full_like(x, ysign)), axis=-1)
        tot = oracles.total_stress(dual, pts)
        traction = np.stack((tot.a12, tot.a22), axis=-1)
        sing = dual.sigma_S(pts)
        scale = max(np.abs(sing.a12).max(), np.abs(sing.a22).max())
        assert np.abs(traction).max() <= 1e-10 * scale


def _sigma_c_per_point(geom, mat, j, pts):
    """The correction field evaluated one point at a time from its affine
    coefficients, all four entries of each masked by the load's parity, as
    (..., [c11, c12, c21, c22])."""
    ctx = KernelContext.from_geometry(geom, mat)
    scale = m_constant(geom, mat, j) / np.sqrt(geom.eps)
    L2 = geom.L2
    flat = np.asarray(pts, dtype=float).reshape(-1, 2)
    out = np.empty((flat.shape[0], 4))
    for n, (x, y) in enumerate(flat):
        G, alpha, beta = (c[0] for c in oracles.masked_affine_coefficients(
            j, scale, L2, singular_stress(ctx, j, np.array([[x, L2]])),
            _edge_resultant(ctx, j, np.array([x]), L2)))
        F = alpha + beta * (y / L2)
        out[n] = (G[0], F[0], G[1], F[1])
    return out.reshape(np.shape(pts)[:-1] + (4,))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("material", ["unit", "stiff"])
def test_sigma_c_is_the_affine_form_of_its_coefficients(shape, eps, j, material):
    # sigma_c, the diagnostics and the cell term all read _affine_coefficients,
    # the entries the load's parity leaves: [[G, beta eta], [0, alpha]] for
    # j = 1 and [[0, alpha], [G, beta eta]] for j = 2, as the masked form has
    # them; its second column interpolates minus the scaled edge tractions of
    # sigma_S on both edges, and its first column is the edge jump G, the
    # lower edge's values taken from the load's parity
    g = SHAPES[shape](eps)
    mat = MATERIALS[material]
    dual = build_dual_stress(g, mat, j)
    ctx = KernelContext.from_geometry(g, mat)
    scale = m_constant(g, mat, j) / np.sqrt(g.eps)
    L2 = g.L2
    rng = np.random.default_rng(5)
    pts = rng.uniform([-g.L1, -L2], [g.L1, L2], size=(400, 2))
    pts = pts[region_classify(g, pts) == Region.MATRIX][:100]
    x, y = pts[:, 0], pts[:, 1]
    sc = dual.sigma_c(pts)
    got = np.stack((sc.a11, sc.a12, sc.a21, sc.a22), axis=-1)
    top = singular_stress(ctx, j, np.stack((x, np.full_like(x, L2)), -1))
    G, alpha, beta = bounds._affine_coefficients(j, scale, L2, top, _edge_resultant(ctx, j, x, L2))
    F, zero = beta * (y / L2), np.zeros_like(G)
    entries = (G, F, zero, alpha) if j == 1 else (zero, alpha, G, F)
    np.testing.assert_array_equal(got, np.stack(entries, axis=-1))
    G, alpha, beta = oracles.masked_affine_coefficients(j, scale, L2, top,
                                                        _edge_resultant(ctx, j, x, L2))
    F = alpha + beta * (y / L2)[:, None]
    np.testing.assert_array_equal(got, np.stack((G[:, 0], F[:, 0], G[:, 1], F[:, 1]), axis=-1))
    # the same field from both edges, evaluated independently, to rounding
    e2 = np.array([0.0, 1.0])
    top = dual.sigma_S(np.stack((x, np.full_like(x, L2)), -1)).apply(e2)
    bot = dual.sigma_S(np.stack((x, np.full_like(x, -L2)), -1)).apply(e2)
    F = -(((y + L2) / (2.0 * L2))[:, None] * top + ((L2 - y) / (2.0 * L2))[:, None] * bot)
    G = (scale / (2.0 * L2)) * (_edge_resultant(ctx, j, x, L2) - _edge_resultant(ctx, j, x, -L2))
    both_edges = np.stack((G[:, 0], F[:, 0], G[:, 1], F[:, 1]), axis=-1)
    assert np.abs(got - both_edges).max() <= 8.0 * np.finfo(float).eps * np.abs(got).max()


@pytest.mark.parametrize("j", [1, 2])
def test_sigma_c_matches_per_point_evaluation(j, monkeypatch):
    calls, edge_calls = [], []

    def counting(*args):
        calls.append(args[2].shape)
        return singular_stress(*args)

    def counting_edges(*args):
        edge_calls.append(np.broadcast(args[2], args[3]).shape)
        return _edge_resultant(*args)

    for make_geometry in SHAPES.values():
        g = make_geometry(1e-3)
        dual = build_dual_stress(g, UNIT, j)
        # tensor Gauss grid: every x repeats along its column
        nodes = np.polynomial.legendre.leggauss(8)[0]
        gx, gy = np.meshgrid(0.02 + 0.01 * nodes, 0.5 + 0.4 * nodes, indexing="ij")
        tensor = np.stack((gx.ravel(), gy.ravel()), axis=-1)
        rng = np.random.default_rng(11)
        scattered = rng.uniform([-g.L1, -g.L2], [g.L1, g.L2], size=(200, 2))
        scattered = scattered[region_classify(g, scattered) == Region.MATRIX][:50]
        shaped = np.stack(np.meshgrid(np.linspace(-0.8, 0.8, 4), np.linspace(-1.2, 1.2, 5),
                                      indexing="ij"), axis=-1)
        assert shaped.shape == (4, 5, 2)
        for pts in (tensor, scattered, shaped):
            # one pair-field call and one edge-resultant call per sigma_c
            # call, each on the upper edge line: the lower one follows by parity
            calls.clear()
            edge_calls.clear()
            monkeypatch.setattr(bounds, "singular_stress", counting)
            monkeypatch.setattr(bounds, "_edge_resultant", counting_edges)
            sc = dual.sigma_c(pts)
            monkeypatch.setattr(bounds, "singular_stress", singular_stress)
            monkeypatch.setattr(bounds, "_edge_resultant", _edge_resultant)
            assert calls == [(np.unique(pts[..., 0]).size, 2)]
            assert edge_calls == [(np.unique(pts[..., 0]).size,)]
            got = np.stack((sc.a11, sc.a12, sc.a21, sc.a22), axis=-1)
            assert got.shape == pts.shape[:-1] + (4,)
            np.testing.assert_array_equal(got, _sigma_c_per_point(g, UNIT, j, pts))


def _edge_jump(dual, L2):
    """Integrand of G: the edge traction jump of sigma_S over 2 L2."""
    e2 = np.array([0.0, 1.0])

    def fn(x):
        top = dual.sigma_S(np.stack((x, np.full_like(x, L2)), axis=-1)).apply(e2)
        bot = dual.sigma_S(np.stack((x, np.full_like(x, -L2)), axis=-1)).apply(e2)
        return (top - bot) / (2.0 * L2)
    return fn


MATERIALS = {"unit": UNIT, "stiff": LameMaterial(lam=3.0, mu=0.7)}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("material", sorted(MATERIALS))
def test_closed_form_G_matches_cumulative_table(shape, eps, j, material):
    g = SHAPES[shape](eps)
    dual = build_dual_stress(g, MATERIALS[material], j)
    nodes, values, _, err = cumulative_line_table(
        _edge_jump(dual, g.L2), -g.L1, g.L1, rel_tol=1e-12)
    G = dual.G(nodes)
    assert G.shape == values.shape
    assert np.abs(G - values).max() <= err + 1e-13 * np.abs(G).max()
    # the table stops at a few nodes, so also run it to interior points and
    # compare G with its endpoint value there
    for x in (-0.9 * g.L1, -0.4 * g.L1, -0.05 * g.L1, 1e-3 * g.L1, 0.3 * g.L1, 0.7 * g.L1):
        lo, hi = (x, 0.0) if x < 0.0 else (0.0, x)
        _, part, _, part_err = cumulative_line_table(_edge_jump(dual, g.L2), lo, hi, rel_tol=1e-12)
        end = part[0] if x < 0.0 else part[-1]
        Gx = dual.G(np.array([x]))[0]
        assert np.abs(Gx - end).max() <= part_err + 1e-13 * np.abs(G).max(), x


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("j", [1, 2])
def test_closed_form_G_derivative_is_edge_jump(shape, j):
    g = SHAPES[shape](1e-3)
    dual = build_dual_stress(g, UNIT, j)
    x = np.concatenate(([0.0, 1e-9], np.random.default_rng(3).uniform(-g.L1, g.L1, 40)))
    h = 1e-5
    slope = (dual.G(x + h) - dual.G(x - h)) / (2.0 * h)
    jump = _edge_jump(dual, g.L2)(x)
    assert np.abs(slope - jump).max() <= 1e-8 * np.abs(jump).max()


def test_dual_correction_magnitude_stable_across_sweep():
    maxima = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        g = disk_geometry(eps)
        dual = build_dual_stress(g, UNIT, 1)
        grid = np.stack(
            np.meshgrid(
                np.linspace(-g.L1 * 0.98, g.L1 * 0.98, 41),
                np.linspace(-g.L2 * 0.98, g.L2 * 0.98, 41),
            ),
            axis=-1,
        ).reshape(-1, 2)
        grid = grid[region_classify(g, grid) == Region.MATRIX]
        sc = dual.sigma_c(grid)
        maxima.append(
            max(np.abs(sc.a11).max(), np.abs(sc.a12).max(), np.abs(sc.a21).max(), np.abs(sc.a22).max())
        )
    assert max(maxima) / min(maxima) <= 2.0


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("j", [1, 2])
def test_divergence_check_passes_at_symmetry_sample(shape, j):
    # at this width the 41 x 41 grid of the finite-difference oracle has a
    # point a rounding error off the gap center, where every first
    # derivative of sigma vanishes; the edge panels have no such point
    g = SHAPES[shape](10.0 ** -2.5)
    dual = build_dual_stress(g, UNIT, j)
    assert dual.diagnostics.div_residual <= 1e-5


class _DefectiveResultant(_EdgeTerms):
    """The pair field's edge resultant plus 1e-3 x."""

    def resultant(self, j):
        return super().resultant(j) + 1e-3 * np.asarray(self._x)[..., None]


class _DefectiveTraction(_PairTerms):
    """The pair stress with 1e-3 x added to the edge traction (sigma12, sigma22),
    read as the stress or as the traction alone."""

    def stress(self, j):
        s, x = super().stress(j), self.z.real
        return SymTensor2(s.a11, s.a12 + 1e-3 * x, s.a22 + 1e-3 * x)

    def traction(self, j):
        s, x = super().traction(j), self.z.real
        return SymTensor2(None, s.a12 + 1e-3 * x, s.a22 + 1e-3 * x)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("j", [1, 2])
def test_divergence_check_flags_a_divergent_field(shape, j, monkeypatch):
    # sigma_c's divergence is (m_j / sqrt(eps) / L2)(R' - t) in the load's
    # odd component, so a defect in the edge resultant R or in the edge
    # traction t of the pair field breaks it
    g = SHAPES[shape](10.0 ** -2.5)
    assert _dual_diagnostics(_Widths((g,), UNIT), (j,))[0][j].div_residual <= 1e-12
    for name, defective in (("_EdgeTerms", _DefectiveResultant),
                            ("_PairTerms", _DefectiveTraction)):
        with monkeypatch.context() as m:
            m.setattr(bounds, name, defective)
            assert _dual_diagnostics(_Widths((g,), UNIT), (j,))[0][j].div_residual > 1e-5, name


class _ShiftedResultant(_EdgeTerms):
    """The pair field's edge resultant plus x / 100: G then grows towards
    the cell's vertical edge instead of vanishing with the traction."""

    def resultant(self, j):
        return super().resultant(j) + 0.01 * np.asarray(self._x)[..., None]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_edge_halfwidth_is_the_gap_halfwidth_at_L(shape):
    # the primal's scalar f(L) and f'(L) repeat geometry's array formulas
    # and must stay their bits; scaling the cell makes B no power of two,
    # so that a reordered product or quotient shows
    for s, eps in itertools.product([1.0, 0.37, 0.7, 2.0], np.logspace(-8.0, -1.0, 15)):
        g = SHAPES[shape](eps)
        g = make_gap_geometry(Disk(r0=s * g.half_width) if shape == "disk"
                              else Ellipse(a=s * g.half_width, b=s * g.half_height),
                              eps=s * eps, L2=s * g.L2)
        f, fp = bounds._edge_halfwidth(g)
        assert f.hex() == float(gap_halfwidth(g, np.asarray([g.L]))[0]).hex(), (s, eps)
        assert fp.hex() == float(gap_halfwidth_deriv(g, np.asarray([g.L]))[0]).hex(), (s, eps)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_j2_asymmetry_is_alpha_minus_G_away_from_the_gap(shape, monkeypatch):
    # for j = 2, sigma_c12 - sigma_c21 = alpha - G at every y; with the pair
    # field's own resultant its maximum sits at x = 0, where G = 0 and so
    # |alpha + G| reads the same.  A shifted resultant moves the maximum to
    # a panel end where G is not 0, and there the two differ
    g = SHAPES[shape](1e-3)
    monkeypatch.setattr(bounds, "_EdgeTerms", _ShiftedResultant)
    got = _dual_diagnostics(_Widths((g,), UNIT), (2,))[0][2].asymmetry_max
    ends = np.linspace(0.0, g.L1, bounds._EDGE_PANELS + 1)
    ctx = KernelContext.from_geometry(g, UNIT)
    scale = bounds._dual_scale(g, UNIT, 2)
    alpha = -scale * singular_stress(ctx, 2, np.stack((ends, np.full_like(ends, g.L2)), -1)).a12
    G = scale / g.L2 * _ShiftedResultant(ctx, ends, g.L2).resultant(2)[:, 1]
    minus, plus = np.abs(alpha - G), np.abs(alpha + G)
    assert int(np.argmax(minus)) > 0
    assert got == pytest.approx(minus.max(), rel=1e-14)
    assert abs(plus.max() - minus.max()) > 1e-3 * minus.max()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
def test_dual_diagnostics_call_each_field_once(shape, eps, j, monkeypatch):
    # the diagnostics of both loads, or of one load's dual stress, build the
    # pair terms once on the edge samples and the resultant's terms once,
    # and no 2D sample set: no classification and no field call of its own
    g = SHAPES[shape](eps)
    calls, points = {}, []

    def counted(name):
        fn = getattr(bounds, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            if name == "_PairTerms":
                points.append(int(np.prod(np.shape(args[1])[:-1])))
            return fn(*args)
        monkeypatch.setattr(bounds, name, wrapper)

    for name in ("region_classify", "_PairTerms", "_EdgeTerms", "singular_stress",
                 "_edge_resultant"):
        counted(name)
    (both,) = _dual_diagnostics(_Widths((g,), UNIT), (1, 2))
    assert calls == {"_PairTerms": 1, "_EdgeTerms": 1}
    assert points[0] <= 400
    calls.clear()
    assert build_dual_stress(g, UNIT, j).diagnostics == both[j]
    assert calls == {"_PairTerms": 1, "_EdgeTerms": 1}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-5])
def test_two_load_diagnostics_match_per_load_fields(shape, eps):
    # both loads from one set of shared terms give, bit for bit, each load's
    # own diagnostics; the per-load fields read on the same edge samples, one
    # field call per sample set, give the same asymmetry and edge traction,
    # and a divergence as small
    g = SHAPES[shape](eps)
    (both,) = _dual_diagnostics(_Widths((g,), UNIT), (1, 2))
    assert set(both) == {1, 2}
    for j in (1, 2):
        assert both[j] == build_dual_stress(g, UNIT, j).diagnostics
        assert both[j] == _dual_diagnostics(_Widths((g,), UNIT), (j,))[0][j]
        d = both[j]
        asym, bc, div = oracles.edge_diagnostics(g, *oracles.dual_fields_per_load(g, UNIT, j))
        assert [d.asymmetry_max.hex(), d.bc_residual.hex()] == [asym.hex(), bc.hex()]
        assert d.div_residual <= 1e-12 and div <= 1e-12


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 10.0 ** -2.5, 1e-3, 1e-5])
def test_quarter_diagnostics_read_the_whole_grid(shape, eps):
    # the diagnostics read on the quarter cell's upper edge against the
    # finite-difference oracle on the whole 41 x 41 grid: the same edge
    # traction, a divergence below the oracle's finite-difference floor, and
    # an asymmetry within 2%.  The asymmetry is affine in y on each fibre,
    # so at each grid point it is at most the larger of its fibre's ends
    g = SHAPES[shape](eps)
    (both,) = _dual_diagnostics(_Widths((g,), UNIT), (1, 2))
    gx, gy = np.meshgrid(np.linspace(-g.L1 * 0.995, g.L1 * 0.995, 41),
                         np.linspace(-g.L2 * 0.995, g.L2 * 0.995, 41), indexing="ij")
    grid = np.stack((gx.ravel(), gy.ravel()), axis=-1)
    grid = grid[region_classify(g, grid) == Region.MATRIX]
    x = grid[:, 0]
    for j in (1, 2):
        dual = build_dual_stress(g, UNIT, j)
        asym, bc, div = oracles.per_copy_diagnostics(
            g, lambda p: oracles.total_stress(dual, p), dual.sigma_c)
        d = both[j]
        assert d.bc_residual == bc
        assert d.div_residual <= div <= 1e-5
        assert abs(d.asymmetry_max - asym) <= 0.02 * asym
        skew = [np.abs(c.a12 - c.a21) for c in (
            dual.sigma_c(grid), dual.sigma_c(np.stack((x, chord_halfheight(g, x)), -1)),
            dual.sigma_c(np.stack((x, np.full_like(x, g.L2)), -1)))]
        assert np.all(skew[0] <= np.maximum(skew[1], skew[2]) * (1.0 + 1e-14))


def _exactness_cases():
    """(label, geometry, material): both shipped cells at 49 log-spaced widths
    from 1e-2 to 10^-5.25, and 40 seeded draws of nu in [0, 0.49] (mu = 1),
    B/A log-uniform in [1/4, 4] (A = 1), L2/B in [1.05, 3] and eps
    log-uniform in [1e-5, 10^-1.5]."""
    for shape in sorted(SHAPES):
        for eps in np.logspace(-2.0, -5.25, 49):
            yield f"{shape} eps={eps:.3e}", SHAPES[shape](eps), UNIT
    rng = np.random.default_rng(1)
    for k in range(40):
        nu, ratio = rng.uniform(0.0, 0.49), 4.0 ** rng.uniform(-1.0, 1.0)
        l2b, eps = rng.uniform(1.05, 3.0), 10.0 ** rng.uniform(-5.0, -1.5)
        geom = make_gap_geometry(Ellipse(a=1.0, b=ratio), eps=eps, L2=l2b * ratio)
        yield f"draw {k}", geom, LameMaterial(lam=2.0 * nu / (1.0 - 2.0 * nu), mu=1.0)


def test_dual_construction_is_exact_across_widths_and_draws():
    # sigma_c cancels the edge traction and is divergence free for any gap
    # width and cell: what the diagnostics read is rounding
    for label, g, mat in _exactness_cases():
        ctx = KernelContext.from_geometry(g, mat)
        x = np.linspace(0.0, g.L1, 21)
        (both,) = _dual_diagnostics(_Widths((g,), mat), (1, 2))
        for j in (1, 2):
            s = singular_stress(ctx, j, np.stack((x, np.full_like(x, g.L2)), -1))
            traction = bounds._dual_scale(g, mat, j) * np.abs(np.stack((s.a12, s.a22))).max()
            assert both[j].div_residual <= 1e-11, (label, j)
            assert both[j].bc_residual <= 1e-12 * traction, (label, j)


def _fibre_self_energy(geom, j: int) -> tuple[float, float]:
    """Matrix integral of sigma_S : C^-1 sigma_S over vertical fibres.

    At fixed x the upper half of the matrix is [h(x), L2], with h the chord
    half-height of the inclusion reaching x.  The pair field is mirror
    symmetric, so its energy density is even in x and in y and one quarter
    of the cell suffices.
    """
    ctx = KernelContext.from_geometry(geom, UNIT)
    A, B, L1, L2 = geom.half_width, geom.half_height, geom.L1, geom.L2

    def h(x: float) -> float:
        u = (L1 - abs(x)) / A
        return B * math.sqrt(max(0.0, 1.0 - u * u))

    def density(y: float, x: float) -> float:
        return float(compliance_energy(singular_stress(ctx, j, np.array([x, y])), UNIT))

    def fibre(x: float) -> float:
        return integrate.quad(density, h(x), L2, args=(x,), limit=200,
                              epsabs=0.0, epsrel=1e-10)[0]

    val, err = integrate.quad(fibre, 0.0, L1, points=[geom.eps / 2.0],
                              limit=200, epsabs=0.0, epsrel=1e-9)
    scale4 = 4.0 * m_constant(geom, UNIT, j) ** 2 / geom.eps
    return scale4 * val, scale4 * err


@pytest.mark.parametrize("shape,j", [("disk", 1), ("ellipse", 2)])
def test_singular_self_energy_matches_fibre_quadrature(shape, j):
    g = SHAPES[shape](1e-2)
    oracle, oracle_err = _fibre_self_energy(g, j)
    res = _one_load(_singular_self_energy, g, j, REL_TOL_PATH)
    assert res.converged
    miss = abs(res.value - oracle)
    assert miss <= 1e-8 * oracle
    assert miss <= res.err_estimate + oracle_err


@functools.lru_cache(maxsize=None)
def _cubature_dual_terms(shape: str, j: int):
    """q_cc and q_sc of the dual stress by scipy's adaptive cubature.

    The densities are even in x and in y, so one quarter of the matrix
    suffices.  It is mapped onto unit squares in (x, tau) with y = h(x) +
    (L2 - h(x)) tau, and x = eps/2 + (L1 - eps/2) s^2 beyond the gap, which
    removes the square-root onset of the chord h.  Returns the dual stress,
    the values (q_cc, q_sc) and their error estimates.
    """
    geom = SHAPES[shape](1e-2)
    dual = build_dual_stress(geom, UNIT, j)
    A, B, L1, L2 = geom.half_width, geom.half_height, geom.L1, geom.L2
    half = geom.eps / 2.0

    def densities(x, y):
        p = np.stack((x, y), axis=-1)
        sc = dual.sigma_c(p)
        return np.stack((compliance_energy(sc, UNIT),
                         compliance_contract(dual.sigma_S(p), sc, UNIT)), axis=-1)

    def gap(u):
        return L2 * densities(u[:, 0], L2 * u[:, 1])

    def beside_gap(u):
        s, tau = u[:, 0], u[:, 1]
        x = half + (L1 - half) * s * s
        h = B * np.sqrt(np.clip(1.0 - ((L1 - x) / A) ** 2, 0.0, None))
        jac = 2.0 * s * (L1 - half) * (L2 - h)
        return densities(x, h + (L2 - h) * tau) * jac[:, None]

    parts = [integrate.cubature(gap, [0.0, 0.0], [half, 1.0], rtol=1e-10, atol=0.0),
             integrate.cubature(beside_gap, [0.0, 0.0], [1.0, 1.0], rtol=1e-10, atol=0.0)]
    assert all(p.status == "converged" for p in parts)
    value = 4.0 * sum(p.estimate for p in parts)
    err = 4.0 * sum(p.error for p in parts)
    return geom, dual, value, err


@pytest.mark.parametrize("shape,j", [("disk", 1), ("ellipse", 2)])
@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6])
def test_cell_terms_match_cubature_oracle(shape, j, rel_tol, monkeypatch):
    geom, dual, oracle, oracle_err = _cubature_dual_terms(shape, j)
    # both densities are even in x and in y, so each is 4 times its quarter
    q_cc = quarter_to_cell(integrate_cell(
        geom, lambda p: compliance_energy(dual.sigma_c(p), UNIT), rel_tol))
    q_sc = quarter_to_cell(integrate_cell(
        geom, lambda p: compliance_contract(dual.sigma_S(p), dual.sigma_c(p), UNIT), rel_tol))
    # dual_lower's cell term q_c = q_cc + 2 q_sc, its second path integral:
    # one x integral over exact fibres, with its own error
    paths = []

    def recording(*args):
        paths.append(integrate_path(*args))
        return paths[-1]

    monkeypatch.setattr(bounds, "integrate_path", recording)
    res = dual_lower(geom, UNIT, j, rel_tol_cell=rel_tol, rel_tol_path=PATH_FAST)
    q_c = paths[1].groups[0]
    assert res.terms["quad_cell"] == 4.0 * q_c.value
    cases = [(q_cc, oracle[0], oracle_err[0]), (q_sc, oracle[1], oracle_err[1]),
             (quarter_to_cell(q_c), oracle[0] + 2.0 * oracle[1],
              oracle_err[0] + 2.0 * oracle_err[1])]
    for got, ref, ref_err in cases:
        assert got.converged
        assert got.err_estimate <= rel_tol * abs(got.value)
        assert abs(got.value - ref) <= got.err_estimate + ref_err


def _dual_cell_density(dual, mat):
    """dual_lower's cell density sigma_c : C^-1 (sigma_c + 2 sigma_S)."""
    def density(p):
        c = dual.sigma_c(p)
        return compliance_energy(c, mat) + 2.0 * compliance_contract(dual.sigma_S(p), c, mat)
    return density


@pytest.mark.parametrize("shape", ["disk", "ellipse"])
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
def test_cell_density_error_covers_a_tight_reference(shape, eps, j):
    # the x integral's estimate |K15 - G7| (its fibres are exact) must
    # cover the miss of the dual cell density q_c at the tolerances a row
    # uses, against the iterated fibre quadrature of the density
    geom = SHAPES[shape](eps)
    density = _dual_cell_density(build_dual_stress(geom, UNIT, j), UNIT)
    ref = integrate_cell(geom, density, 1e-10)
    assert ref.converged
    for rel_tol in (1e-3, 1e-6):
        res = _one_load(_cell_energy, geom, j, rel_tol, UNIT)
        assert res.converged
        assert abs(res.value - ref.value) <= res.err_estimate, rel_tol


@pytest.mark.parametrize("shape", ["disk", "ellipse"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_cell_oracle_converges_in_few_rounds(shape, eps):
    # cost guard: integrate_cell runs on the cell term's own x axis, where
    # the chord is analytic at its onset; on a straight x axis the tight
    # oracle took 24, 10, 24 and 4 rounds on these cases
    geom = SHAPES[shape](eps)
    density = _dual_cell_density(build_dual_stress(geom, UNIT, 1), UNIT)
    res = integrate_cell(geom, density, 1e-10)
    assert res.converged
    assert res.rounds <= 4


@pytest.mark.parametrize("path", ["configs/disk.cfg", "configs/ellipse.cfg"])
def test_cell_energy_takes_one_round_on_the_root_panels(path):
    # cost guard: at the benchmark's rel_tol_cell, the cell term on the
    # shipped widths is the K15 rule on the root x panels, with no refinement
    cfg = parse_config(ROOT / path)
    for eps in cfg.eps_list:
        geom = make_gap_geometry(cfg.shape, eps, cfg.L2)
        roots = sum(len(s.breaks) - 1 for s in bounds._fibre_axis(geom).segments)
        (both,) = _cell_energy(_Widths((geom,), cfg.material), (1, 2), 1e-3)
        for j in (1, 2):
            for res in (_one_load(_cell_energy, geom, j, 1e-3, cfg.material), both[j]):
                assert res.converged
                assert (res.rounds, res.evals) == (1, 15 * roots), (eps, j)


def _identity_grid(cfg) -> tuple[float, ...]:
    """The benchmark's identities grid of a config: 13 widths log-spaced
    from its widest to its narrowest width, computed as gapbench does."""
    hi, lo = math.log10(cfg.eps_list[0]), math.log10(cfg.eps_list[-1])
    step = (hi - lo) / 12
    return tuple(10.0 ** (hi - k * step) for k in range(13))


@pytest.mark.parametrize("path", ["configs/disk.cfg", "configs/ellipse.cfg"])
def test_gap_path_integrals_take_one_round_on_the_root_panels(path):
    # cost guard: at the shipped rel_tol_path the arc root panels meet the
    # tolerance as they are, so the pair integral of verify on the identities
    # grid is the K15 rule on them, and every width's q_ss takes one round
    cfg = parse_config(ROOT / path)
    assert cfg.rel_tol_path == 1e-8
    for eps in _identity_grid(cfg):
        geom = make_gap_geometry(cfg.shape, eps, cfg.L2)
        roots = sum(len(s.breaks) - 1 for s in inclusion_boundary(geom, 2).segments)
        res = pair_boundary_integral(geom, cfg.material, cfg.rel_tol_path)
        assert res.converged
        assert (res.rounds, res.evals) == (1, 15 * roots), eps
    geoms = tuple(make_gap_geometry(cfg.shape, eps, cfg.L2) for eps in cfg.eps_list)
    widths = _singular_self_energy(_Widths(geoms, cfg.material), (1, 2), cfg.rel_tol_path)
    for eps, loads in zip(cfg.eps_list, widths):
        for j, res in loads.items():
            assert res.converged
            assert res.rounds == 1, (eps, j)


def _hex(*values) -> list[str]:
    return [float(v).hex() for v in np.concatenate([np.ravel(v) for v in values])]


def _diagnostics_hex(per_geom) -> list[list[list[str]]]:
    return [[_hex(*astuple(d[j])) for j in sorted(d)] for d in per_geom]


@pytest.mark.parametrize("path", ["configs/disk.cfg", "configs/ellipse.cfg"])
def test_verify_evaluations_are_their_block_oracles_bit_for_bit(path):
    # the pair integrand writes its columns in place and the diagnostics
    # read sigma_c at the fibre ends from the entries (G, alpha, beta) that
    # the load's parity leaves; the oracles assemble both from whole blocks,
    # the diagnostics from the masked coefficients, on the identities grid
    # and on the config's widths in one batch.  At the config's rel_tol_path
    # every pair integral stops in its first round; at 1e-11 some refine, so
    # the integrand is pinned on refinement rounds too
    cfg = parse_config(ROOT / path)
    assert cfg.rel_tol_path == 1e-8
    grid = [(make_gap_geometry(cfg.shape, eps, cfg.L2),) for eps in _identity_grid(cfg)]
    rounds = []
    for rel_tol in (cfg.rel_tol_path, 1e-11):
        for (geom,) in grid:
            got = pair_boundary_integral(geom, cfg.material, rel_tol)
            want = oracles.pair_boundary_integral_by_blocks(geom, cfg.material, rel_tol)
            assert _hex(got.value, got.err_estimate, got.component_err) == \
                   _hex(want.value, want.err_estimate, want.component_err)
            assert (got.panels_used, got.evals, got.rounds) == \
                   (want.panels_used, want.evals, want.rounds)
            rounds.append(got.rounds)
    assert max(rounds) > 1
    batch = tuple(make_gap_geometry(cfg.shape, eps, cfg.L2) for eps in cfg.eps_list)
    for geoms in grid + [batch]:
        assert _diagnostics_hex(_dual_diagnostics(_Widths(geoms, cfg.material), (1, 2))) == \
               _diagnostics_hex(oracles.correction_diagnostics(geoms, cfg.material, (1, 2)))


@pytest.mark.parametrize("path", ["configs/disk.cfg", "configs/ellipse.cfg"])
def test_cell_energy_is_its_masked_oracle_bit_for_bit(path):
    # the cell term reads the compliance forms on the entries of sigma_c
    # that the load's parity leaves; the oracle reads them on all four
    # entries of c0 and c1, the zeros included, as the forms of elasticity
    # do.  Each load alone and both together, on the config's widths in one
    # batch and one at a time, at a tolerance that refines, for the config's
    # material and one whose compliance constant c is no power of 2
    cfg = parse_config(ROOT / path)
    geoms = [make_gap_geometry(cfg.shape, eps, cfg.L2) for eps in cfg.eps_list]
    rounds = []
    for mat, loads, rel_tol in itertools.product((cfg.material, LameMaterial(3.0, 0.7)),
                                                 ((1,), (2,), (1, 2)), (1e-3, 1e-10)):
        for batch in [geoms] + [[g] for g in geoms]:
            got = _cell_energy(_Widths(batch, mat), loads, rel_tol)
            want = oracles.masked_cell_energy(batch, mat, loads, rel_tol)
            for g, w in zip(got, want):
                for j in loads:
                    assert _hex(g[j].value, g[j].err_estimate) == \
                           _hex(w[j].value, w[j].err_estimate)
                    assert (g[j].evals, g[j].rounds) == (w[j].evals, w[j].rounds)
                    rounds.append(g[j].rounds)
    assert max(rounds) > 1


# ---------------------------------------------------------------------------
# the dual functional on the symmetry quarter of the cell
# ---------------------------------------------------------------------------

PARITY_MATERIALS = {"unit": UNIT, "lame 3/0.7": LameMaterial(3.0, 0.7)}


def _closed_form_load(geom, mat, j: int) -> tuple[float, float]:
    """dual_lower's load term, m_j / sqrt(eps) times the pair field's force
    across x = 0, and its rounding bar, 64 ulp of the terms' magnitudes."""
    force, magnitude = _centre_force(geom.a, geom.L2)
    scale = m_constant(geom, mat, j) / np.sqrt(geom.eps)
    return scale * force, 64.0 * np.finfo(float).eps * scale * magnitude


def _quarter_samples(geom, n: int = 400):
    """Matrix points of the open quarter cell, crowded towards the gap, and
    points with their normals on the quarter boundary."""
    rng = np.random.default_rng(0)
    x = geom.L1 * rng.random(n) ** 3
    h = chord_halfheight(geom, x)
    cell = np.stack((x, h + (geom.L2 - h) * rng.random(n) ** 3), axis=-1)
    t = rng.random(n) ** 2

    def on(segs):
        frames = [s.frame(t) for s in segs]
        return (np.concatenate([f[0] for f in frames]), np.concatenate([f[1] for f in frames]))

    return cell, on(bounds._quarter_boundary(geom))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("mat", sorted(PARITY_MATERIALS))
def test_dual_densities_are_even_in_x_and_y(shape, eps, j, mat):
    # the premise of the quarter: dual_lower integrates each density over
    # one quarter of the cell and multiplies by 4
    geom = SHAPES[shape](eps)
    mat = PARITY_MATERIALS[mat]
    dual = build_dual_stress(geom, mat, j)
    cell, (q, n) = _quarter_samples(geom)
    groups = np.zeros(q.shape[0], dtype=int)
    densities = [(lambda r: _dual_cell_density(dual, mat)(cell * r)),
                 (lambda r: _work_integrand(_Widths((geom,), mat), (j,))(q * r, n * r, groups))]
    for k, density in enumerate(densities):
        f = [density(r) for r in REFLECTIONS]
        top = np.abs(f[0]).max()
        assert top > 0.0
        for r in (1, 2, 3):
            assert np.abs(f[r] - f[0]).max() <= 1e-12 * top, (k, r)


# sign of each component (a11, a12, a21, a22) of sigma_S + sigma_c under
# x -> -x and under y -> -y
PARITY = {1: np.array([1.0, -1.0, -1.0, 1.0]), 2: np.array([-1.0, 1.0, 1.0, -1.0])}


def _components(m: Matrix2) -> np.ndarray:
    return np.stack(np.broadcast_arrays(m.a11, m.a12, m.a21, m.a22), axis=-1)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
def test_dual_stress_components_have_one_parity_per_load(shape, eps, j):
    # the premise of the diagnostics' quarter grid: the pair of nuclei
    # mirrors across the gap, so each component of the total stress, and
    # of sigma_c, is even or odd in x and in y, the same way in both; a
    # component that vanishes identically (G1 for j = 1, G0 for j = 2)
    # passes either way
    geom = SHAPES[shape](eps)
    dual = build_dual_stress(geom, UNIT, j)
    cell, _ = _quarter_samples(geom)
    for field in (lambda p: oracles.total_stress(dual, p), dual.sigma_c):
        f = [_components(field(cell * r)) for r in REFLECTIONS]
        top = np.abs(f[0]).max(axis=0)
        assert np.all(top[PARITY[j] > 0.0] > 0.0)
        for r in (1, 2):
            assert np.all(np.abs(f[r] - PARITY[j] * f[0]).max(axis=0) <= 1e-12 * top), r


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("tol_cell,tol_path", [(CELL_COARSE, PATH_FAST),
                                               (REL_TOL_CELL, REL_TOL_PATH)])
def test_quarter_terms_match_whole_domain_oracles(shape, eps, j, tol_cell, tol_path,
                                                  monkeypatch):
    # 4 x the quarter q_c and 4 x the quarter q_ss against the mirrored
    # fibres over [-L1, L1] and the eight-piece matrix boundary, and the
    # closed-form load term against the traction integral on gamma_plus
    geom = SHAPES[shape](eps)
    dual = build_dual_stress(geom, UNIT, j)
    paths = []

    def path(*args):
        paths.append(integrate_path(*args))
        return paths[-1]

    monkeypatch.setattr(bounds, "integrate_path", path)
    res = dual_lower(geom, UNIT, j, rel_tol_cell=tol_cell, rel_tol_path=tol_path)
    work, q_c = (p.groups[0] for p in paths)
    scale2 = m_constant(geom, UNIT, j) ** 2 / geom.eps
    lin, bar = _closed_form_load(geom, UNIT, j)
    assert res.terms == {"quad_singular": 4.0 * scale2 * work.value,
                         "quad_cell": 4.0 * q_c.value, "boundary": lin}
    assert res.quadrature_err == pytest.approx(
        4.0 * (scale2 * work.err_estimate + q_c.err_estimate) + 2.0 * bar, rel=1e-14)

    cases = [
        (4.0 * q_c.value, 4.0 * q_c.err_estimate,
         whole_cell_integral(geom, _dual_cell_density(dual, UNIT), tol_cell)),
        (4.0 * work.value, 4.0 * work.err_estimate,
         integrate_path([matrix_boundary(geom)], _work_integrand(_Widths((geom,), UNIT), (j,)),
                        tol_path).groups[0]),
        (lin, bar, oracles.gamma_plus_load(geom, dual, j, tol_path)),
    ]
    for k, (got, err, oracle) in enumerate(cases):
        assert oracle.converged, k
        assert abs(got - oracle.value) <= err + oracle.err_estimate, k


# ---------------------------------------------------------------------------
# the dual's load term in closed form
# ---------------------------------------------------------------------------

SHIPPED_CONFIGS = ("configs/disk.cfg", "configs/ellipse.cfg")
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("mat", sorted(PARITY_MATERIALS))
def test_closed_form_load_matches_gamma_plus_integral(shape, eps, j, mat):
    # the traction integral on gamma_plus that the closed form replaces, at
    # a tight tolerance: the force across x = 0 must fall within its estimate
    geom = SHAPES[shape](eps)
    mat = PARITY_MATERIALS[mat]
    lin, bar = _closed_form_load(geom, mat, j)
    oracle = oracles.gamma_plus_load(geom, build_dual_stress(geom, mat, j), j, 1e-12)
    assert oracle.converged
    assert 0.0 < bar <= 1e-13 * lin
    assert abs(lin - oracle.value) <= oracle.err_estimate + bar


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("mat", sorted(PARITY_MATERIALS))
def test_closed_form_load_matches_mpmath_phi(shape, eps, j, mat):
    # e_j - i [Phi(i L2) - Phi(-i L2)] at 40 digits, with every coefficient,
    # so the terms the closed form drops must vanish to the bar
    geom = SHAPES[shape](eps)
    mat = PARITY_MATERIALS[mat]
    lin, bar = _closed_form_load(geom, mat, j)
    assert abs(lin - oracles.centre_force_mpmath(geom, mat, j)) <= bar


@pytest.mark.parametrize("path", SHIPPED_CONFIGS)
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
@pytest.mark.parametrize("j", [1, 2])
def test_sigma_c_carries_no_force_across_the_centre_line(path, eps, j):
    # dual_lower takes the load term from sigma_S alone: sigma_c's force
    # across x = 0 is 2 L2 G(0), and G is a resultant from x = 0
    cfg = parse_config(ROOT / path)
    geom = make_gap_geometry(cfg.shape, eps, cfg.L2)
    G0 = build_dual_stress(geom, cfg.material, j).G(np.array([0.0]))
    assert G0.tolist() == [[0.0, 0.0]]


def test_singular_self_energy_pinned_value():
    # nested-quadrature value at disk eps=1e-4, j=1, to the digits quoted
    res = _one_load(_singular_self_energy, disk_geometry(1e-4), 1, REL_TOL_PATH)
    assert res.converged
    miss = abs(res.value - 943.8323583)
    assert miss <= 1e-7
    assert miss <= res.err_estimate + 5e-8


def test_dual_lower_uses_green_self_energy():
    g = disk_geometry(1e-3)
    res = dual_lower(g, UNIT, 1, rel_tol_cell=CELL_COARSE, rel_tol_path=PATH_FAST)
    ref = _one_load(_singular_self_energy, g, 1, PATH_FAST)
    assert res.terms["quad_singular"] == ref.value


@pytest.mark.parametrize("j,lo", [(1, 0.90), (2, 0.95)])
def test_dual_lower_near_flux_constant(j, lo):
    g = disk_geometry(1e-3)
    res = dual_lower(g, UNIT, j, rel_tol_cell=CELL_COARSE, rel_tol_path=PATH_FAST)
    scaled = res.value * math.sqrt(g.eps) / m_constant(g, UNIT, j)
    assert lo <= scaled <= 1.02
    assert res.converged


@pytest.mark.parametrize("j", [1, 2])
def test_bounds_sandwich(j):
    g = disk_geometry(1e-3)
    up = primal_upper(g, UNIT, j)
    lo = dual_lower(g, UNIT, j, rel_tol_cell=CELL_COARSE, rel_tol_path=PATH_FAST)
    assert lo.value - lo.quadrature_err <= up.value + up.quadrature_err
    assert lo.value <= up.value


@pytest.mark.parametrize("j", [1, 2])
def test_dual_term_decomposition(j):
    g = disk_geometry(1e-3)
    res = dual_lower(g, UNIT, j, rel_tol_cell=CELL_COARSE, rel_tol_path=PATH_FAST)
    t = res.terms
    assert set(t) == {"quad_singular", "quad_cell", "boundary"}
    total = -t["quad_singular"] - t["quad_cell"] + 2.0 * t["boundary"]
    assert res.value == pytest.approx(total, rel=1e-12)
    m = m_constant(g, UNIT, j)
    assert t["quad_singular"] * math.sqrt(g.eps) / m == pytest.approx(1.0, abs=0.1)
    # the correction's cell term stays O(1) while q_ss grows like 1/sqrt(eps)
    assert abs(t["quad_cell"]) <= 0.05 * t["quad_singular"]


def test_dual_lower_makes_two_path_integrals_and_no_cell_integral(monkeypatch):
    g = disk_geometry(1e-2)
    calls = {"cell": 0, "path": []}

    def cell(*args):
        calls["cell"] += 1
        return integrate_cell(*args)

    def path(*args):
        calls["path"].append(args[0])
        return integrate_path(*args)

    monkeypatch.setattr(bounds, "integrate_cell", cell)
    monkeypatch.setattr(bounds, "integrate_path", path)
    dual_lower(g, UNIT, 1, rel_tol_cell=CELL_COARSE, rel_tol_path=PATH_FAST)
    # the Green path integral q_ss on the quarter boundary, then the cell
    # term q_c on the x-axis; the load term is closed form
    assert calls["cell"] == 0
    (work,), (cell_term,) = calls["path"]
    assert len(work.segments) == 3
    assert [s.breaks for s in cell_term.segments] == [
        s.breaks for s in bounds._fibre_axis(g).segments]


BATCH_WIDTHS = (1e-2, 10.0 ** -2.5, 1e-3, 1e-4, 1e-5)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_several_widths_give_each_width_its_own_bounds_and_diagnostics(shape, monkeypatch):
    # one q_ss and one q_c integral over all widths, a tolerance group each,
    # and one diagnostics evaluation: each width's results are those it
    # gets alone, bit for bit, also when the integrands take their nodes in
    # chunks and the diagnostics their widths one at a time.  The tight
    # pair makes groups refine, so the shared refinement rounds are tested
    # too; at the coarse pair every group stops on its root panels
    geoms = [SHAPES[shape](eps) for eps in BATCH_WIDTHS]
    diagnostics = [_dual_diagnostics(_Widths((g,), UNIT), (1, 2))[0] for g in geoms]
    assert _dual_diagnostics(_Widths(geoms, UNIT), (1, 2)) == diagnostics
    path, rounds = bounds.integrate_path, []

    def spy(curves, integrand, rel_tol):
        res = path(curves, integrand, rel_tol)
        rounds.extend(r.rounds for r in res.groups)
        return res

    monkeypatch.setattr(bounds, "integrate_path", spy)
    alone = {tols: [dual_lower_loads((g,), UNIT, (1, 2), *tols)[0] for g in geoms]
             for tols in ((CELL_COARSE, PATH_FAST), (1e-10, 1e-12))}
    rounds.clear()
    for tols, want in alone.items():
        assert dual_lower_loads(geoms, UNIT, (1, 2), *tols) == want
    # some width's q_ss or q_c group refined in the batched integrals
    assert max(rounds) > 1
    monkeypatch.setattr(quadrature, "_NODE_CHUNK", 7)
    for tols, want in alone.items():
        assert dual_lower_loads(geoms, UNIT, (1, 2), *tols) == want
    assert _dual_diagnostics(_Widths(geoms, UNIT), (1, 2)) == diagnostics


def _record(res):
    """An integral's value and records, every float as float.hex."""
    return ([float(v).hex() for v in np.ravel(res.value)], res.err_estimate.hex(),
            res.panels_used, res.converged, res.evals, res.rounds,
            [e.hex() for e in res.component_err])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_lone_integrals_do_not_depend_on_the_node_chunk(shape, monkeypatch):
    # every path round reaches its integrand in calls of at most
    # quadrature._NODE_CHUNK nodes, and a node's value must not depend on
    # how many nodes share its call
    geom = SHAPES[shape](1e-3)
    dual = build_dual_stress(geom, UNIT, 1)

    def integrals():
        table = cumulative_line_table(dual.G, -geom.L1, geom.L1, REL_TOL_PATH)
        return (_record(pair_boundary_integral(geom, UNIT)),
                _record(integrate_cell(geom, _dual_cell_density(dual, UNIT), CELL_COARSE)),
                [np.asarray(a).tobytes() for a in table])

    default = integrals()
    monkeypatch.setattr(quadrature, "_NODE_CHUNK", 7)
    assert integrals() == default


def test_integrand_calls_and_diagnostic_terms_stay_within_the_node_chunk(monkeypatch):
    # at 97 widths the first q_ss round has more nodes than one call may take
    geoms = [disk_geometry(eps) for eps in np.logspace(-2, -5, 97)]
    sizes = {"path": [], "diagnostics": []}
    path, pair_terms = bounds.integrate_path, bounds._PairTerms

    def spy_path(curves, integrand, rel_tol):
        def spied(p, n, groups):
            sizes["path"].append(groups.size)
            return integrand(p, n, groups)
        return path(curves, spied, rel_tol)

    def spy_terms(ctx, points):
        sizes["diagnostics"].append(points.size // 2)
        return pair_terms(ctx, points)

    monkeypatch.setattr(bounds, "integrate_path", spy_path)
    dual_lower_loads(geoms, UNIT, (1, 2), CELL_COARSE, PATH_FAST)
    monkeypatch.setattr(bounds, "_PairTerms", spy_terms)
    _dual_diagnostics(_Widths(geoms, UNIT), (1, 2))
    chunk = quadrature._NODE_CHUNK
    assert max(sizes["path"]) == chunk
    assert max(sizes["diagnostics"]) <= chunk
    # as many widths as fit in the chunk per evaluation
    assert len(sizes["diagnostics"]) == math.ceil(97 / (chunk // 321))


def test_several_widths_must_share_shape_and_cell():
    disk, ellipse = disk_geometry(1e-3), ellipse_geometry(1e-3)
    for geoms in ((disk, ellipse), (disk, disk_geometry(1e-3, L2=2.0))):
        with pytest.raises(ValueError, match="share shape and L2"):
            dual_lower_loads(geoms, UNIT, (1,), CELL_COARSE, PATH_FAST)
        with pytest.raises(ValueError, match="share shape and L2"):
            _dual_diagnostics(_Widths(geoms, UNIT), (1,))


@functools.lru_cache(maxsize=None)
def _disk_pair_flux() -> np.ndarray:
    """Both flux components of q_1 and q_2 on both boundaries, from one path integral."""
    return pair_boundary_integral(disk_geometry(1e-3), UNIT).value[..., :2]


@pytest.mark.parametrize(
    "i,j,k,expected",
    [
        (2, 1, 1, 1.0),
        (2, 2, 2, 1.0),
        (1, 1, 1, -1.0),
        (1, 2, 2, -1.0),
        (2, 1, 2, 0.0),
        (1, 2, 1, 0.0),
    ],
)
def test_flux_identity(i, j, k, expected):
    assert _disk_pair_flux()[i - 1, j - 1, k - 1] == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("j", [1, 2])
def test_energy_identity_normalization(j):
    g = disk_geometry(1e-3)
    raw = energy_identity_check(g, UNIT, j)
    assert raw > 0.0
    normalized = m_constant(g, UNIT, j) * raw / math.sqrt(g.eps)
    assert normalized == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("geom", [disk_geometry(1e-3), ellipse_geometry(1e-4)],
                         ids=["disk", "ellipse"])
@pytest.mark.parametrize("i,j", [(1, 1), (2, 2)])
def test_pair_boundary_integral_matches_scalar_integrals(geom, i, j):
    """Boundary i's six entries of the joint integral, both loads, each
    against its own scalar integral on boundary i's own parametrization (D1
    is graded at theta = 0 and 2 pi, not mirrored from D2); the identity
    checks of load j read entry [i - 1, j - 1]."""
    tol = REL_TOL_PATH
    ctx = KernelContext.from_geometry(geom, UNIT)
    curve = inclusion_boundary(geom, i)
    joint = pair_boundary_integral(geom, UNIT, tol)
    assert joint.converged and joint.value.shape == (2, 2, 3)
    for load in (1, 2):
        scalar = [integrate_path(
            curve, lambda p, n, k=k: singular_stress(ctx, load, p).apply(n)[..., k], tol)
            for k in (0, 1)]
        scalar.append(integrate_path([curve], _work_integrand(_Widths((geom,), UNIT), (load,)),
                                     tol).groups[0])
        for got, ref in zip(joint.value[i - 1, load - 1], scalar):
            assert ref.converged
            assert abs(got - ref.value) <= joint.err_estimate + ref.err_estimate
    # the identity checks read the same integral
    for k in (1, 2):
        assert flux_identity_check(geom, UNIT, i, j, k, tol) == joint.value[i - 1, j - 1, k - 1]
    for bad in (0, 3):
        with pytest.raises(ValueError):
            flux_identity_check(geom, UNIT, bad, j, 1, tol)
    assert energy_identity_check(geom, UNIT, j, tol) == pytest.approx(
        joint.value[0, j - 1, 2] + joint.value[1, j - 1, 2], rel=1e-15)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pair_integrand_evaluates_d1_at_mirror_images(shape, monkeypatch):
    """The field is evaluated on both boundaries: the first half of each
    integrand call's points lies on D1 and the second on D2, each with that
    boundary's own normal, pointing into the inclusion.  A probe stands in
    for the pair terms: it records their points, and its stress is the
    identity and its displacement zero, so each traction [t_1, t_2] the
    integrand returns is the normal it paired with that point."""
    g = SHAPES[shape](1e-3)
    probes, seen = [], []

    class Probe:
        def __init__(self, _ctx, x):
            probes.append(x)
            self.x, self.ones, self.zeros = x, np.ones(x.shape[0]), np.zeros(x.shape[0])

        def stress(self, _j):
            return SymTensor2(self.ones, self.zeros, self.ones)

        def displacement(self, _j):
            return np.zeros_like(self.x)

    def spy(curve, fn, rel_tol):
        def probed(p, n):
            out = fn(p, n)
            (x,) = probes
            probes.clear()
            # entry [node, i - 1, j - 1, k]: D1's normals, then D2's
            cols = out.reshape(-1, 2, 2, 3)
            assert np.array_equal(cols[:, :, 0], cols[:, :, 1])
            seen.append((x, np.concatenate((cols[:, 0, 0, :2], cols[:, 1, 0, :2]))))
            return out

        return integrate_path(curve, probed, rel_tol)

    monkeypatch.setattr(bounds, "_PairTerms", Probe)
    monkeypatch.setattr(bounds, "integrate_path", spy)
    pair_boundary_integral(g, UNIT)
    assert seen
    A, B = g.half_width, g.half_height
    for p, n in seen:
        half = p.shape[0] // 2
        assert p.shape[0] == 2 * half and n.shape == p.shape
        for i, cx, rows in ((1, -g.L1, slice(None, half)), (2, g.L1, slice(half, None))):

            def level(q):
                return ((q[:, 0] - cx) / A) ** 2 + (q[:, 1] / B) ** 2

            # on the ellipse of inclusion i
            assert np.all(np.abs(level(p[rows]) - 1.0) <= 1e-12), i
            # the point and normal of inclusion_boundary(g, i) at the same angle
            x, y = p[rows, 0], p[rows, 1]
            t = np.mod(np.arctan2(y / B, (x - cx) / A), 2.0 * np.pi) / (2.0 * np.pi)
            point, normal, _ = inclusion_boundary(g, i).segments[0].frame(t)
            assert np.allclose(point, p[rows], rtol=0.0, atol=1e-12), i
            assert np.allclose(normal, n[rows], rtol=0.0, atol=1e-12), i
            # pointing into inclusion i (half of which lies outside the cell)
            assert np.all(level(p[rows] + 1e-6 * min(A, B) * n[rows]) < 1.0), i


# ---------------------------------------------------------------------------
# root panels graded at the gap vertex
# ---------------------------------------------------------------------------

SHIPPED_WIDTHS = (1e-2, 1e-3, 1e-4, 1e-5)
QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
def test_graded_path_errors_cover_a_tight_reference(shape, eps):
    g = SHAPES[shape](eps)
    got = pair_boundary_integral(g, UNIT)
    ref = pair_boundary_integral(g, UNIT, 1e-11)
    assert got.converged and ref.converged
    assert np.all(np.abs(got.value - ref.value) <= got.err_estimate)
    for j in (1, 2):
        got = primal_path_integral(g, UNIT, j, REL_TOL_CELL)
        ref = primal_path_integral(g, UNIT, j, 1e-11)
        assert got.converged
        assert abs(got.value - ref.value) <= got.err_estimate
        got = _one_load(_singular_self_energy, g, j, REL_TOL_PATH)
        ref = _one_load(_singular_self_energy, g, j, 1e-11)
        assert got.converged
        assert abs(got.value - ref.value) <= got.err_estimate


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gap_path_integrals_converge_in_few_rounds(shape):
    # from uniform quarters the pair integrals took 5-9 rounds, bisecting
    # down to the gap; q_ss runs on the arcs of the matrix boundary
    for eps in SHIPPED_WIDTHS:
        g = SHAPES[shape](eps)
        results = [pair_boundary_integral(g, UNIT)]
        results += [_one_load(_singular_self_energy, g, j, REL_TOL_PATH) for j in (1, 2)]
        # and both loads in one integral, as a sweep row computes them
        results += _singular_self_energy(_Widths((g,), UNIT), (1, 2), REL_TOL_PATH)[0].values()
        for res in results:
            assert res.converged
            assert res.rounds <= 2, (eps, res.rounds)


def _quarter_roots(curve):
    return Curve(segments=tuple(replace(s, breaks=QUARTERS) for s in curve.segments))


def test_graded_roots_save_evals_on_the_identity_grid(monkeypatch):
    def grid_evals():
        total = 0
        for shape, make in SHAPES.items():
            for eps in np.logspace(-2.0, -5.0, 13):
                g = make(float(eps))
                total += pair_boundary_integral(g, UNIT).evals
        return total

    graded = grid_evals()
    monkeypatch.setattr(bounds, "inclusion_boundary",
                        lambda g, i: _quarter_roots(inclusion_boundary(g, i)))
    uniform = grid_evals()
    assert graded <= 0.8 * uniform


@pytest.mark.parametrize("path", ["configs/disk.cfg", "configs/ellipse.cfg"])
def test_root_panel_errors_cover_a_quarter_root_reference(path, monkeypatch):
    # the error bars of one round come from the root panels alone; the
    # reference bisects down to the gap from quarters (at rel_tol 1e-13 it
    # reaches its rounding floor at the narrowest widths and never converges)
    cfg = parse_config(ROOT / path)
    geoms = tuple(make_gap_geometry(cfg.shape, eps, cfg.L2) for eps in _identity_grid(cfg))
    widths = _Widths(geoms, cfg.material)

    def integrals(rel_tol):
        pairs = [pair_boundary_integral(g, cfg.material, rel_tol) for g in geoms]
        return pairs, _singular_self_energy(widths, (1, 2), rel_tol)

    got_pairs, got_work = integrals(cfg.rel_tol_path)
    quarter_boundary = bounds._quarter_boundary
    monkeypatch.setattr(bounds, "inclusion_boundary",
                        lambda g, i: _quarter_roots(inclusion_boundary(g, i)))
    monkeypatch.setattr(bounds, "_quarter_boundary",
                        lambda g: _quarter_roots(Curve(quarter_boundary(g))).segments)
    ref_pairs, ref_work = integrals(1e-11)
    got = got_pairs + [res for loads in got_work for res in loads.values()]
    ref = ref_pairs + [res for loads in ref_work for res in loads.values()]
    for g, r in zip(got, ref):
        assert r.converged and r.err_estimate <= 0.1 * g.err_estimate
        assert np.all(np.abs(g.value - r.value) <= g.err_estimate)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_primal_path_is_graded_at_the_gap_center(shape, monkeypatch):
    g = SHAPES[shape](1e-4)
    calls = []

    def spy(curve, integrand, rel_tol):
        calls.append((curve, integrand, rel_tol))
        return integrate_path(curve, integrand, rel_tol)

    monkeypatch.setattr(oracles, "integrate_path", spy)
    primal_path_integral(g, UNIT, 1, REL_TOL_CELL)
    ((path, density, tol),) = calls
    first = path.segments[0]
    point, _, speed = first.frame(np.array(0.0))
    assert np.array_equal(point, [0.0, 0.0])
    # the first root panel spans the pole offset
    assert float(speed) * first.breaks[1] == pytest.approx(g.a, rel=1e-12)
    assert all(s.breaks == QUARTERS for s in path.segments[1:])
    graded = integrate_path(path, density, tol)
    uniform = integrate_path(_quarter_roots(path), density, tol)
    assert graded.rounds < uniform.rounds
    assert abs(graded.value - uniform.value) <= graded.err_estimate + uniform.err_estimate
