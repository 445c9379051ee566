"""Adaptive path and cell quadrature against closed-form oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gapstress import (
    Ellipse,
    Region,
    chord_halfheight,
    cumulative_line_table,
    gap_halfwidth,
    inclusion_boundary,
    integrate_cell,
    integrate_path,
    make_gap_geometry,
    rect_matrix_area,
    region_classify,
)
from gapstress import quadrature
from gapstress.geometry import Curve, _line_segment

from conftest import disk_geometry
from oracles import four_fold, keller_test_gradient, quarter_to_cell


def _segment_curve(p0, p1):
    return Curve(segments=(_line_segment(p0, p1, (1.0, 0.0)),))


def test_circle_arclength():
    g = disk_geometry(0.01)
    res = integrate_path(
        inclusion_boundary(g, 1),
        lambda p, n: np.ones(p.shape[:-1]),
        1e-10,
    )
    assert res.value == pytest.approx(2.0 * math.pi, rel=1e-10)
    assert res.converged
    assert res.err_estimate < 1e-7


def test_polynomial_segment_exact():
    curve = _segment_curve((0.0, 0.0), (0.0, 1.0))
    res = integrate_path(
        curve, lambda p, n: p[..., 1] ** 3, 1e-12
    )
    assert res.value == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_near_singular_line_integral(eps):
    curve = _segment_curve((0.0, -1.0), (0.0, 1.0))
    res = integrate_path(
        curve,
        lambda p, n: 1.0 / (eps + p[..., 1] ** 2),
        1e-10,
    )
    oracle = 2.0 / math.sqrt(eps) * math.atan(1.0 / math.sqrt(eps))
    assert res.value == pytest.approx(oracle, rel=1e-10)
    assert abs(res.value - oracle) <= max(res.err_estimate, 1e-13 * oracle)


def test_closed_contour_cancellation_terminates():
    # the normal integrates to zero around a closed loop; termination must not
    # hinge on the vanishing total
    g = disk_geometry(0.01)
    res = integrate_path(
        inclusion_boundary(g, 2), lambda p, n: n, 1e-8
    )
    assert res.converged
    assert np.all(np.abs(res.value) <= 1e-10)


def test_path_error_monotone_under_tightening():
    eps = 1e-3
    curve = _segment_curve((0.0, -1.0), (0.0, 1.0))
    oracle = 2.0 / math.sqrt(eps) * math.atan(1.0 / math.sqrt(eps))
    discrepancies = []
    for rel in (1e-4, 1e-6, 1e-8, 1e-10):
        res = integrate_path(
            curve,
            lambda p, n: 1.0 / (eps + p[..., 1] ** 2),
            rel,
        )
        discrepancies.append(abs(res.value - oracle))
    for coarse, fine in zip(discrepancies, discrepancies[1:]):
        assert fine <= coarse + 1e-13


def test_path_exhaustion_reports_best_value(monkeypatch):
    eps = 1e-4
    curve = _segment_curve((0.0, -1.0), (0.0, 1.0))
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    res = integrate_path(curve, lambda p, n: 1.0 / (eps + p[..., 1] ** 2), 1e-13)
    assert not res.converged
    assert res.err_estimate > 0.0
    oracle = 2.0 / math.sqrt(eps) * math.atan(1.0 / math.sqrt(eps))
    assert res.value == pytest.approx(oracle, rel=1e-2)


def test_matrix_cell_area():
    # both disks poke out of the vertical cell edges, leaving half of each;
    # the quarter cell holds a quarter of that matrix
    g = disk_geometry(0.01)
    res = quarter_to_cell(integrate_cell(
        g, lambda p: np.ones(p.shape[:-1]), 1e-6
    ))
    oracle = 4.0 * g.L1 * g.L2 - math.pi
    assert oracle == pytest.approx(6.03 - math.pi, rel=1e-14)
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=3e-6)
    assert abs(res.value - oracle) <= res.err_estimate
    assert res.err_estimate <= 5e-6 * oracle


def ellipse_geometry(eps: float):
    """The shipped ellipse cell: semi-axes (1, 2), L2 = 2.5."""
    return make_gap_geometry(Ellipse(a=1.0, b=2.0), eps=eps, L2=2.5)


CELL_SHAPES = {"disk": disk_geometry, "ellipse": ellipse_geometry}


def test_ellipse_matrix_cell_area():
    g = ellipse_geometry(0.01)
    res = quarter_to_cell(integrate_cell(
        g, lambda p: np.ones(p.shape[:-1]), 1e-6
    ))
    oracle = 4.0 * g.L1 * g.L2 - math.pi * g.half_width * g.half_height
    assert res.converged
    assert abs(res.value - oracle) <= res.err_estimate
    assert res.err_estimate <= 1e-6 * oracle


@pytest.mark.parametrize("shape", sorted(CELL_SHAPES))
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
def test_cell_evaluates_only_matrix_points(shape, eps):
    g = CELL_SHAPES[shape](eps)
    seen = []

    def fn(p):
        seen.append(p.copy())
        return np.cos(p[..., 0]) + p[..., 1] ** 2

    res = integrate_cell(g, fn, 1e-6)
    pts = np.concatenate(seen)
    assert pts.ndim == 2 and pts.shape[1] == 2
    assert np.all(region_classify(g, pts) == int(Region.MATRIX))
    assert res.evals == pts.shape[0]
    # the quarter cell x >= 0, y >= 0 only
    assert np.all(pts >= 0.0)
    # the fibres reach down to the inclusions and up to the cell edges
    gap = np.abs(pts[:, 0]) < g.eps / 2.0
    assert np.abs(pts[gap, 1]).min() < 1e-2 * math.sqrt(eps)
    assert np.abs(pts[:, 1]).max() > 0.99 * g.L2
    near = np.abs(pts[:, 1]) - chord_halfheight(g, pts[:, 0])
    assert near.min() >= 0.0 and near.min() < 1e-2 * math.sqrt(eps)


def test_chord_halfheight_matches_exact_strip_area():
    # the area of a thin vertical strip is 2 int (L2 - h) dx
    g = ellipse_geometry(1e-3)
    xs, ws = np.polynomial.legendre.leggauss(20)
    # the gap itself, and strips that keep clear of the onsets at +-eps/2
    for x1, x2 in ((-g.eps / 2.0, g.eps / 2.0), (1.5e-3, 2.5e-3), (-0.9, -0.8), (0.3, 0.301)):
        xm = (x1 + x2) / 2.0 + (x2 - x1) / 2.0 * xs
        strip = 2.0 * np.sum(ws * (g.L2 - chord_halfheight(g, xm))) * (x2 - x1) / 2.0
        exact = float(rect_matrix_area(g, x1, x2, -g.L2, g.L2))
        assert strip == pytest.approx(exact, rel=1e-12)
    assert np.all(chord_halfheight(g, np.array([0.0, g.eps / 2.0, -g.eps / 2.0])) == 0.0)
    assert float(chord_halfheight(g, g.L1)) == pytest.approx(g.half_height, rel=1e-15)


def test_integral_evals_count_the_integrand_points(monkeypatch):
    g = disk_geometry(1e-3)
    n_path = [0]

    def path_fn(p, n):
        n_path[0] += p.shape[0]
        return np.sin(p[..., 0] + 2.0 * p[..., 1])

    res = integrate_path(inclusion_boundary(g, 1), path_fn, 1e-9)
    assert res.evals == n_path[0] > 0

    n_cell = [0]

    def cell_fn(p):
        n_cell[0] += p.shape[0]
        return 1.0 / (g.eps + p[..., 0] ** 2 + p[..., 1] ** 2)

    templates, outer_nodes = [], [0]
    make_fibres = quadrature._fibre_integrand

    def counting(geom, integrand, tau, counter):
        templates.append(tau.size - 1)
        fibres = make_fibres(geom, integrand, tau, counter)

        def outer(p, n):
            outer_nodes[0] += p.shape[0]
            return fibres(p, n)
        return outer

    monkeypatch.setattr(quadrature, "_fibre_integrand", counting)
    res = integrate_cell(g, cell_fn, 1e-6)
    assert res.evals == n_cell[0] > 0
    # converged on its root template, the integral evaluates the 15 Kronrod
    # nodes of every template panel on each fibre, at every node the outer
    # loop visited, 15 a panel
    assert res.converged and len(templates) == 1
    assert outer_nodes[0] % 15 == 0
    assert res.evals == 15 * templates[0] * outer_nodes[0]
    # other constructors keep working without the count
    assert type(res)(value=1.0, err_estimate=0.0, panels_used=1, converged=True).evals == 0


def test_kronrod_table():
    nodes, wk, wg = quadrature._K15_NODES, quadrature._K15_WEIGHTS, quadrature._G7_WEIGHTS
    assert nodes.shape == wk.shape == wg.shape == (15,)
    assert np.all(np.diff(nodes) > 0.0)
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(wk, wk[::-1])
    np.testing.assert_array_equal(wg, wg[::-1])
    assert math.fsum(wk) == pytest.approx(2.0, abs=1e-15)
    assert math.fsum(wg) == pytest.approx(2.0, abs=1e-15)
    # the Gauss nodes are every other Kronrod node, and 0 weights the rest
    gauss = wg != 0.0
    np.testing.assert_array_equal(gauss, np.arange(15) % 2 == 1)
    g_nodes, g_weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(nodes[gauss], g_nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(wg[gauss], g_weights, rtol=0.0, atol=1e-15)
    # K15 is exact through degree 22 (3 n + 1 for n = 7), G7 through 13
    for weights, degree in ((wk, 22), (wg, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = math.fsum(weights * nodes ** k)
            assert abs(got - exact) <= 1e-14 * max(exact, 1.0), (degree, k)
    # and neither rule is exact one even degree further
    assert abs(math.fsum(wk * nodes ** 24) - 2.0 / 25.0) > 1e-10
    assert abs(math.fsum(wg * nodes ** 14) - 2.0 / 15.0) > 1e-6


def test_integral_rounds_count_the_integrand_calls(monkeypatch):
    g = disk_geometry(1e-3)
    n_path = [0]

    def path_fn(p, n):
        n_path[0] += 1
        return np.sin(p[..., 0] + 2.0 * p[..., 1])

    res = integrate_path(inclusion_boundary(g, 1), path_fn, 1e-12)
    assert res.rounds == n_path[0] > 1

    # a cell integral sums the outer rounds over its fibre rounds
    n_outer, n_fibre = [0], [0]
    make_fibres = quadrature._fibre_integrand

    def counting(*args):
        n_fibre[0] += 1
        fibres = make_fibres(*args)

        def outer(p, n):
            n_outer[0] += 1
            return fibres(p, n)
        return outer

    monkeypatch.setattr(quadrature, "_fibre_integrand", counting)
    res = integrate_cell(g, lambda p: np.exp(-((p[..., 1] - 0.7) / 0.05) ** 2), 1e-8)
    assert res.converged
    assert res.rounds == n_outer[0] > n_fibre[0] > 1


def test_cell_integrand_chunks_are_bounded():

    g = disk_geometry(1e-5)
    sizes = []

    def fn(p):
        sizes.append(p.shape[0])
        return np.ones(p.shape[0])

    integrate_cell(g, fn, 1e-6)
    assert max(sizes) <= quadrature._NODE_CHUNK


def test_cell_depth_cap_reports_non_convergence(monkeypatch):
    g = disk_geometry(1e-3)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 1)
    res = quarter_to_cell(integrate_cell(g, lambda p: 1.0 / (g.eps + p[..., 1] ** 2), 1e-14))
    assert not res.converged
    assert res.err_estimate > 0.0
    oracle = _y_profile_oracle(g, lambda y: 1.0 / (g.eps + y * y))
    assert abs(res.value - oracle) <= res.err_estimate


def test_cell_zero_integrand():
    g = disk_geometry(0.01)
    res = integrate_cell(g, lambda p: np.zeros(p.shape[:-1]), 1e-6)
    assert res.value == 0.0
    assert res.err_estimate == 0.0
    assert res.converged


def _y_profile_oracle(g, h):
    """1D reduction of a y-only integrand over the matrix part of the cell."""

    def wet(y):
        w = 2.0 * g.L1
        if abs(y) < 1.0:
            w -= 2.0 * math.sqrt(1.0 - y * y)
        return w

    return quad(
        lambda y: wet(y) * h(y), -g.L2, g.L2, points=[-1.0, 1.0], limit=300
    )[0]


def test_cell_error_monotone_under_tightening():
    eps = 0.01
    g = disk_geometry(eps)
    oracle = _y_profile_oracle(g, lambda y: 1.0 / (eps + y * y))

    def fn(p):
        return 1.0 / (eps + p[..., 1] ** 2)

    discrepancies = []
    for rel in (1e-3, 1e-4, 1e-5, 1e-6):
        res = quarter_to_cell(integrate_cell(g, fn, rel))
        discrepancies.append(abs(res.value - oracle))
    for coarse, fine in zip(discrepancies, discrepancies[1:]):
        assert fine <= coarse + 1e-13


def test_cell_asymmetric_integrands_match_profile_oracles():
    # odd parts in y and in x must come from both mirror halves and both
    # sides: the quarter integral of the four-fold symmetrization
    g = disk_geometry(0.01)
    tol = 1e-9
    res = integrate_cell(g, four_fold(lambda p: np.exp(0.7 * p[..., 1])), tol)
    oracle = _y_profile_oracle(g, lambda y: math.exp(0.7 * y))
    assert res.converged
    assert abs(res.value - oracle) <= res.err_estimate + 1e-12 * oracle

    def chord(x):
        u = (g.L1 - abs(x)) / g.half_width
        return g.half_height * math.sqrt(max(0.0, 1.0 - u * u))

    res = integrate_cell(g, four_fold(lambda p: np.exp(0.3 * p[..., 0])), tol)
    oracle = quad(lambda x: 2.0 * (g.L2 - chord(x)) * math.exp(0.3 * x), -g.L1, g.L1,
                  points=[-g.eps / 2.0, g.eps / 2.0], limit=300, epsabs=0.0, epsrel=1e-13)[0]
    assert res.converged
    assert abs(res.value - oracle) <= res.err_estimate + 1e-12 * oracle


def test_cell_refines_fibre_template_for_interior_peak():
    # a peak of width 1e-2 inside the fibres is far finer than the template
    g = disk_geometry(0.01)

    def peak(y):
        return 1.0 / (1e-4 + (y - 0.6) ** 2)

    res = integrate_cell(g, four_fold(lambda p: peak(p[..., 1])), 1e-8)
    oracle = quad(lambda y: (2.0 * g.L1 - 2.0 * math.sqrt(max(0.0, 1.0 - y * y))) * peak(y),
                  -g.L2, g.L2, points=[-1.0, 0.6, 1.0], limit=300, epsabs=0.0, epsrel=1e-13)[0]
    assert res.converged
    assert abs(res.value - oracle) <= res.err_estimate + 1e-12 * oracle
    assert res.err_estimate <= 1e-8 * oracle


def test_cell_gap_strip_fubini_reduction():
    g = disk_geometry(0.01)

    def strip(p):
        x, y = p[..., 0], p[..., 1]
        ay = np.clip(np.abs(y), 0.0, g.half_height)
        f = gap_halfwidth(g, ay)
        inside = (np.abs(x) < f) & (np.abs(y) < g.L)
        out = np.zeros_like(x)
        out[inside] = 1.0 / f[inside] ** 2
        return out

    res = quarter_to_cell(integrate_cell(g, strip, 1e-4))
    oracle = quad(lambda y: 2.0 / float(gap_halfwidth(g, y)), -g.L, g.L, limit=300)[0]
    assert res.value == pytest.approx(oracle, rel=1e-3)


def test_cell_determinism():
    g = disk_geometry(1e-3)

    def fn(p):
        return np.cos(3.0 * p[..., 0]) * np.exp(-p[..., 1] ** 2)

    r1 = integrate_cell(g, fn, 1e-5)
    r2 = integrate_cell(g, fn, 1e-5)
    assert r1.value == r2.value
    assert r1.err_estimate == r2.err_estimate
    assert r1.panels_used == r2.panels_used


def test_path_determinism():
    g = disk_geometry(1e-3)
    curve = inclusion_boundary(g, 1)

    def fn(p, n):
        return np.sin(p[..., 0] + 2.0 * p[..., 1])

    r1 = integrate_path(curve, fn, 1e-9)
    r2 = integrate_path(curve, fn, 1e-9)
    assert r1.value == r2.value
    assert r1.err_estimate == r2.err_estimate


def test_cell_grading_tracks_gap_logarithmically():
    # near-gap refinement cost should grow like log(1/eps), not a power
    from gapstress.bounds import KellerProfile
    from gapstress.elasticity import energy_density

    from conftest import UNIT

    panels = []
    for eps in (1e-2, 1e-4, 1e-6):
        g = disk_geometry(eps)
        prof = KellerProfile(g)

        def fn(p):
            return energy_density(keller_test_gradient(prof, 1, p), UNIT) * eps

        res = integrate_cell(g, fn, 1e-4)
        panels.append(res.panels_used)
    assert panels[1] / panels[0] <= 4.0
    assert panels[2] / panels[1] <= 4.0


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_spec_rejects_unusable_tolerance(tol):
    # a zero or non-finite tolerance would refine until the budget caps; both
    # integrators and the table refuse it before evaluating anything and name
    # the value given
    def never(*args):
        raise AssertionError("integrand evaluated")

    curve = _segment_curve((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError, match=f"rel_tol must be finite and positive, got {tol}$"):
        integrate_path(curve, never, tol)
    with pytest.raises(ValueError, match=f"rel_tol must be finite and positive, got {tol}$"):
        integrate_cell(disk_geometry(0.01), never, tol)
    with pytest.raises(ValueError, match=f"rel_tol must be finite and positive, got {tol}$"):
        cumulative_line_table(never, -1.0, 2.0, tol)


def test_cumulative_table_matches_antiderivative():
    edges, values, slopes, err = cumulative_line_table(
        lambda x: np.cos(x), -2.0, 2.0, rel_tol=1e-12
    )
    assert edges[0] == -2.0 and edges[-1] == 2.0
    assert np.all(np.diff(edges) > 0.0)
    k = int(np.argmin(np.abs(edges)))
    assert values[k] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(values[:, 0] if values.ndim == 2 else values, np.sin(edges), atol=1e-12)
    got_slopes = slopes[:, 0] if np.ndim(slopes) == 2 else slopes
    assert np.array_equal(got_slopes, np.cos(edges))
    assert err <= 1e-10


def test_cumulative_table_vector_components():
    def fn(x):
        return np.stack((np.cos(x), 3.0 * x * x), axis=-1)

    edges, values, slopes, err = cumulative_line_table(fn, 0.0, 1.5, rel_tol=1e-12)
    assert values.shape == (edges.size, 2)
    assert np.allclose(values[:, 0], np.sin(edges), atol=1e-12)
    assert np.allclose(values[:, 1], edges**3, atol=1e-12)


def test_cumulative_table_error_covers_a_kink_at_zero():
    # sqrt|x| has an unbounded slope at the root break 0, so the loop refines
    # towards it from both sides
    edges, values, _, err = cumulative_line_table(
        lambda x: np.sqrt(np.abs(x)), -1.0, 2.0, rel_tol=1e-10)
    assert edges[0] == -1.0 and edges[-1] == 2.0 and 0.0 in edges
    assert np.all(np.diff(edges) > 0.0)
    exact = (2.0 / 3.0) * np.sign(edges) * np.abs(edges) ** 1.5
    assert np.abs(values[:, 0] - exact).max() <= err
    assert err <= 1e-9


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (0.0, 0.0), (1.0, -1.0), (0.5, 2.0), (-2.0, -0.5)])
def test_cumulative_table_needs_zero_inside_a_proper_interval(lo, hi):
    def never(x):
        raise AssertionError("integrand evaluated")

    with pytest.raises(ValueError, match="need lo < hi with 0 inside"):
        cumulative_line_table(never, lo, hi, 1e-8)


def _two_segment_line():
    """[0, 1] x {0} as two segments meeting at x = 0.4."""
    n = (0.0, 1.0)
    return Curve(segments=(_line_segment((0.0, 0.0), (0.4, 0.0), n),
                           _line_segment((0.4, 0.0), (1.0, 0.0), n)))


def test_path_integrand_sees_the_kronrod_nodes_in_one_call_per_round(monkeypatch):
    curve = _two_segment_line()
    sizes = []

    def poly(p, n):
        sizes.append(p.shape[0])
        return p[..., 0] ** 5 - 2.0 * p[..., 0]

    # the 7/15 pair is exact on a quintic, so the root panels converge: one
    # call carries the 15 Kronrod nodes of all 8 root panels of both segments
    res = integrate_path(curve, poly, 1e-12)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 6.0 - 1.0, abs=1e-14)
    assert sizes == [res.evals] == [15 * 8]

    # an endpoint singularity never meets 1e-15 in three rounds: the root
    # evaluation plus one call per round
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 3)
    sizes.clear()

    def root(p, n):
        sizes.append(p.shape[0])
        return np.sqrt(p[..., 0])

    res = integrate_path(curve, root, 1e-15)
    assert not res.converged
    assert len(sizes) == 4 == res.rounds
    assert sum(sizes) == res.evals
    assert all(n % 15 == 0 for n in sizes)


def test_path_loop_uses_the_kronrod_pair(monkeypatch):
    curve = _two_segment_line()

    # G7 and K15 are both exact through degree 13: the root panels agree to
    # rounding and converge in one call
    res = integrate_path(curve, lambda p, n: p[..., 0] ** 13 - 3.0 * p[..., 0] ** 7 + p[..., 0],
                         1e-12)
    assert res.converged and res.rounds == 1 and res.evals == 15 * 8
    assert res.value == pytest.approx(1.0 / 14.0 - 3.0 / 8.0 + 0.5, rel=1e-14)

    # K15 is exact through degree 22 and G7 is not, so the value is exact
    # whatever panels a loose tolerance leaves the loop on
    t22 = np.polynomial.Chebyshev.basis(22, domain=[0.0, 1.0])
    res = integrate_path(curve, lambda p, n: 1.0 + t22(p[..., 0]), 1e-3)
    assert res.converged and res.err_estimate > 1e-8
    assert res.value == pytest.approx(1.0 - 1.0 / 483.0, rel=1e-14)

    # the root-panel estimate is the sum of |K15 - G7| over the root panels
    def fn(x):
        return 1.0 / (x + 0.05)

    expected = 0.0
    for segment in curve.segments:
        edges = segment.frame(np.asarray(segment.breaks))[0][:, 0]
        for a, b in zip(edges[:-1], edges[1:]):
            f = fn(a + (b - a) * (quadrature._K15_NODES + 1.0) / 2.0)
            k15 = (b - a) / 2.0 * math.fsum(quadrature._K15_WEIGHTS * f)
            g7 = (b - a) / 2.0 * math.fsum(quadrature._G7_WEIGHTS * f)
            expected += abs(k15 - g7)
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 0)
    res = integrate_path(curve, lambda p, n: fn(p[..., 0]), 1e-12)
    assert not res.converged and res.rounds == 1 and res.panels_used == 8
    assert res.err_estimate == pytest.approx(expected, rel=1e-10)
    assert expected > 1e-9


def test_vector_components_keep_their_own_tolerance():
    curve = _segment_curve((0.0, 0.0), (1.0, 0.0))
    rel_tol = 1e-8
    exact = np.array([1.5e6, 2.0 / 3.0])

    def fn(p, n):
        x = p[..., 0]
        # a smooth large component next to a small one with a sqrt endpoint
        return np.stack((1e6 * (1.0 + x), np.sqrt(x)), axis=-1)

    res = integrate_path(curve, fn, rel_tol)
    assert res.converged
    err = np.abs(res.value - exact)
    assert np.all(err <= rel_tol * exact)
    # the estimate bounds every component's absolute error
    assert np.all(err <= res.err_estimate)
    alone = integrate_path(curve, lambda p, n: np.sqrt(p[..., 0]),
                           rel_tol)
    assert abs(res.value[1] - alone.value) <= res.err_estimate + alone.err_estimate


# ---------------------------------------------------------------------------
# several curves as tolerance groups of one integral
# ---------------------------------------------------------------------------

def _group_fields():
    """Per curve, a two-component integrand: a cubic that K15 integrates on
    the root panels, a near-singular peak that keeps refining, and a smooth
    field on a circle."""
    def cubic(p):
        x = p[..., 0]
        return np.stack((1.0 + x ** 3, 2.0 - x), axis=-1)

    def peak(p):
        y = p[..., 1]
        return np.stack((1.0 / (1e-4 + y * y), np.cos(3.0 * y)), axis=-1)

    def smooth(p):
        return np.stack((np.sin(p[..., 0] + 2.0 * p[..., 1]), np.exp(p[..., 1])), axis=-1)

    curves = [_segment_curve((0.0, 0.0), (1.0, 0.0)), _segment_curve((0.0, -1.0), (0.0, 1.0)),
              inclusion_boundary(disk_geometry(1e-2), 2)]
    return curves, [cubic, peak, smooth]


def test_grouped_path_integral_gives_each_curve_its_lone_result():
    curves, fields = _group_fields()
    calls = []

    def grouped(p, n, groups):
        calls.append(np.unique(groups).tolist())
        out = np.empty(p.shape[:-1] + (2,))
        for g, field in enumerate(fields):
            out[groups == g] = field(p[groups == g])
        return out

    res = integrate_path(curves, grouped, 1e-10)
    lone = [integrate_path(curve, lambda p, n, field=field: field(p), 1e-10)
            for curve, field in zip(curves, fields)]
    assert len(res.groups) == 3
    for got, want in zip(res.groups, lone):
        assert [got.value.tolist(), got.err_estimate, got.panels_used, got.converged,
                got.component_err, got.evals, got.rounds] == \
               [want.value.tolist(), want.err_estimate, want.panels_used, want.converged,
                want.component_err, want.evals, want.rounds]
    # the cubic stops on its root panels while the peak keeps refining, and
    # every round, under _NODE_CHUNK nodes here, is one integrand call on
    # the new nodes of the open groups
    assert lone[0].rounds == 1 < lone[1].rounds
    assert len(calls) == res.rounds == max(r.rounds for r in lone)
    assert calls[0] == [0, 1, 2] and all(0 not in c for c in calls[1:])
    # the whole integral sums its groups' records
    assert res.panels_used == sum(r.panels_used for r in lone)
    assert res.evals == sum(r.evals for r in lone)
    assert res.err_estimate == sum(r.err_estimate for r in lone)
    assert res.converged == all(r.converged for r in lone)
    assert [v.tolist() for v in res.value] == [r.value.tolist() for r in lone]


def test_grouped_path_integral_of_one_curve_is_its_lone_result():
    curves, fields = _group_fields()
    res = integrate_path(curves[1:2], lambda p, n, groups: fields[1](p), 1e-10)
    lone = integrate_path(curves[1], lambda p, n: fields[1](p), 1e-10)
    (got,) = res.groups
    for r in (got, res):
        assert (r.err_estimate, r.panels_used, r.converged, r.evals, r.rounds) == (
            lone.err_estimate, lone.panels_used, lone.converged, lone.evals, lone.rounds)
    assert got.value.tolist() == lone.value.tolist()
    assert got.component_err == lone.component_err


def _root_panel_record(curve, field):
    """(value, estimate, panels) of a curve's root panels alone: the np.sum
    of their K15 values in (segment, t) order, the sum of their |K15 - G7|
    weighted by the largest component scale over each component's, and
    their count.  The panels are evaluated by the path rule in one call."""
    edges = [np.asarray(s.breaks) for s in curve.segments]
    seg = np.concatenate([np.full(e.size - 1, k) for k, e in enumerate(edges)])
    val, diff = quadrature._eval_path_panels(
        curve.segments, np.zeros(len(edges), dtype=int), lambda p, n, _groups: field(p), seg,
        np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges]))
    total = np.sum(val, axis=0)
    scale = np.maximum(np.abs(total), np.abs(val).max(axis=0))
    return total, float((diff * (scale.max() / scale)).max(axis=1).sum()), seg.size


def test_a_group_that_stops_in_its_first_round_returns_its_root_panel_sums():
    # such a group is final where its loop stands: alone and next to a
    # group that refines, its value is the np.sum of its root panels' K15
    # values taken in (segment, t) order.  The circle's 14 graded panels
    # sum to other bits in the reverse order
    curves, fields = _group_fields()

    def grouped(p, n, groups):
        out = np.empty(p.shape[:-1] + (2,))
        for g, field in enumerate(fields):
            out[groups == g] = field(p[groups == g])
        return out

    res = integrate_path(curves, grouped, 1e-10)
    assert res.groups[1].rounds > 1
    cases = [(res.groups[g], curves[g], fields[g]) for g in (0, 2)]
    for curve, field in ((_two_segment_line(), lambda p: np.exp(p[..., 0])),
                         (curves[2], fields[2])):
        lone = integrate_path(curve, lambda p, n, field=field: field(p), 1e-10)
        cases.append((lone, curve, field))
    for got, curve, field in cases:
        value, err, panels = _root_panel_record(curve, field)
        assert got.converged and got.rounds == 1
        assert [float(v).hex() for v in np.atleast_1d(got.value)] == [v.hex() for v in value]
        assert (float(got.err_estimate).hex(), got.panels_used) == (err.hex(), panels)


def _refining_fields():
    """Three curves whose integrands all refine at 1e-10, over different
    numbers of rounds: a near-singular peak on a line, a square-root end
    on a line of two segments, and a field near the gap vertex on a
    circle."""
    curves = [_segment_curve((0.0, -1.0), (0.0, 1.0)), _two_segment_line(),
              inclusion_boundary(disk_geometry(1e-2), 2)]
    fields = [lambda p: np.stack((1.0 / (1e-4 + p[..., 1] ** 2), np.cos(3.0 * p[..., 1])), -1),
              lambda p: np.stack((np.sqrt(p[..., 0]), np.exp(p[..., 0])), -1),
              lambda p: np.stack((1.0 / (1e-3 + (p[..., 0] - 0.004) ** 2), p[..., 1]), -1)]
    return curves, fields


def test_groups_that_refine_share_every_round():
    # each round is one integrand call on the new nodes of every open group,
    # and each group's nodes in it are the ones its lone integral evaluates
    # in that round
    curves, fields = _refining_fields()
    calls = []

    def grouped(p, n, groups):
        calls.append(np.bincount(groups, minlength=len(fields)))
        out = np.empty(p.shape[:-1] + (2,))
        for g, field in enumerate(fields):
            out[groups == g] = field(p[groups == g])
        return out

    res = integrate_path(curves, grouped, 1e-10)
    lone, lone_calls = [], []
    for curve, field in zip(curves, fields):
        sizes = []

        def fn(p, n, field=field, sizes=sizes):
            sizes.append(p.shape[0])
            return field(p)

        lone.append(integrate_path(curve, fn, 1e-10))
        lone_calls.append(sizes)
    assert sum(r.rounds > 1 for r in lone) >= 2
    assert len(calls) == res.rounds == max(r.rounds for r in lone)
    for k, counts in enumerate(calls):
        assert counts.tolist() == [sizes[k] if k < len(sizes) else 0 for sizes in lone_calls]
    for got, want in zip(res.groups, lone):
        assert _record(got) == _record(want)


def test_refined_panels_stay_in_segment_order():
    # a group's panels tile each segment's parameter range in ascending t,
    # segment after segment, and its value is their np.sum in that order
    curves, fields = _refining_fields()

    def grouped(p, n, groups):
        out = np.empty(p.shape[:-1] + (2,))
        for g, field in enumerate(fields):
            out[groups == g] = field(p[groups == g])
        return out

    results = quadrature._adapt_panels(tuple(curves), grouped, 1e-10)
    for curve, (total, _, _, t0, t1, values, _, rounds, _) in zip(curves, results):
        assert rounds > 1 and t0.size > sum(len(s.breaks) - 1 for s in curve.segments)
        i = 0
        for segment in curve.segments:
            assert t0[i] == segment.breaks[0]
            while t1[i] != segment.breaks[-1]:
                assert t0[i] < t1[i] == t0[i + 1]
                i += 1
            assert t0[i] < t1[i]
            i += 1
        assert i == t0.size
        assert [v.hex() for v in total] == [v.hex() for v in np.sum(values, axis=0)]


def _record(res):
    """An integral's value and records, every float as float.hex."""
    return ([float(v).hex() for v in np.ravel(res.value)], res.err_estimate.hex(),
            res.panels_used, res.converged, res.evals, res.rounds,
            [e.hex() for e in res.component_err])


def test_curves_without_segments_are_rejected_before_any_evaluation():
    # a group without segments used to read 0.0, converged, on no panels,
    # and a lone one raised numpy's bare concatenate error
    calls = []

    def fn(p, n, groups=None):
        calls.append(p.shape[0])
        return np.ones(p.shape[0])

    empty = Curve(segments=())
    for curve in (empty, [_segment_curve((0.0, 0.0), (1.0, 0.0)), empty], []):
        with pytest.raises(ValueError, match="curve has no segments"):
            integrate_path(curve, fn, 1e-6)
    assert calls == []


def test_per_node_pole_offset_must_be_positive():
    from gapstress import KernelContext, LameMaterial
    from gapstress.kernels import singular_stress

    mat = LameMaterial(lam=1.0, mu=1.0)
    for a in (0.0, -1e-3, np.array([1e-3, 0.0]), np.array([-1e-3, 1e-3])):
        with pytest.raises(ValueError, match="pole offset"):
            KernelContext(mat, a)
    assert KernelContext(mat, np.array([1e-3, 2e-3])).a.tolist() == [1e-3, 2e-3]
    # a grouped integral whose second curve carries a non-positive offset
    curves, _ = _group_fields()
    offsets = np.array([1e-2, 0.0])

    def pair(p, n, groups):
        return singular_stress(KernelContext(mat, offsets[groups]), 1, p + 2.0).a11

    with pytest.raises(ValueError, match="pole offset"):
        integrate_path(curves[:2], pair, 1e-6)
