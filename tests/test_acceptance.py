"""End-to-end acceptance checks at production tolerances.

Each test prints one ``criterion N: PASS/FAIL`` line (straight to the real
stdout so the record survives capture) and then asserts.  The sweep-backed
criteria share one canonical four-point run of the benchmark disk.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import conftest

from gapstress import (
    KERNEL_NAMES,
    Disk,
    KernelContext,
    LameMaterial,
    Region,
    RunConfig,
    build_dual_stress,
    derived_constants,
    energy_identity_check,
    kernel_displacement,
    kernel_gradient,
    m_constant,
    pair_boundary_integral,
    region_classify,
    singular_displacement,
    sweep_and_fit,
)

from conftest import UNIT, disk_geometry
from oracles import poles, total_stress

EPS_SWEEP = (1e-2, 1e-3, 1e-4, 1e-5)


def _check(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=EPS_SWEEP)
    return sweep_and_fit(cfg, workers=4)


def test_criterion_1_flux_identity():
    g = disk_geometry(1e-3)
    worst = 0.0
    # both boundaries, both loads and both flux components from one path integral
    flux = pair_boundary_integral(g, UNIT).value
    for i, j, k in itertools.product((1, 2), (1, 2), (1, 2)):
        expected = (-1.0) ** i * (1.0 if j == k else 0.0)
        worst = max(worst, abs(flux[i - 1, j - 1, k - 1] - expected))
    _check(1, worst <= 1e-6, f"flux identity on both boundaries, max defect {worst:.2e} <= 1e-6")


def test_criterion_2_energy_identity():
    devs = {}
    for eps in (1e-4, 1e-5):
        g = disk_geometry(eps)
        for j in (1, 2):
            raw = energy_identity_check(g, UNIT, j)
            devs[(eps, j)] = abs(m_constant(g, UNIT, j) * raw / math.sqrt(eps) - 1.0)
    in_band = all(devs[(1e-4, j)] <= 0.05 for j in (1, 2))
    shrinks = all(devs[(1e-5, j)] < devs[(1e-4, j)] for j in (1, 2))
    _check(
        2,
        in_band and shrinks,
        "normalized boundary energy "
        f"j=1: {devs[(1e-4, 1)]:.4f}->{devs[(1e-5, 1)]:.4f}, "
        f"j=2: {devs[(1e-4, 2)]:.4f}->{devs[(1e-5, 2)]:.4f} (within 0.05, shrinking)",
    )


def _row(sweep, eps, j):
    rows, _ = sweep
    return next(r for r in rows if r.eps == eps and r.j == j)


def test_criterion_3_primal_band(sweep):
    ratios = {j: _row(sweep, 1e-4, j).upper_scaled / _row(sweep, 1e-4, j).fk_constant for j in (1, 2)}
    ok = all(0.98 <= ratios[j] <= 1.05 for j in (1, 2))
    _check(3, ok, f"scaled primal upper at eps=1e-4 in [0.98,1.05]*m_j (j=1: {ratios[1]:.4f}, j=2: {ratios[2]:.4f})")


def test_criterion_4_dual_band(sweep):
    ratios = {j: _row(sweep, 1e-4, j).lower_scaled / _row(sweep, 1e-4, j).fk_constant for j in (1, 2)}
    ok = all(0.95 <= ratios[j] <= 1.02 for j in (1, 2))
    _check(4, ok, f"scaled dual lower at eps=1e-4 in [0.95,1.02]*m_j (j=1: {ratios[1]:.4f}, j=2: {ratios[2]:.4f})")


def test_criterion_5_sandwich(sweep):
    rows, _ = sweep
    margins = [r.upper + r.quad_err - (r.lower - r.quad_err) for r in rows]
    raw = [r.upper - r.lower for r in rows]
    ok = len(rows) == 8 and all(m >= 0.0 for m in margins)
    _check(
        5,
        ok,
        f"lower <= upper after error bars on all {len(rows)} sweep rows "
        f"(tightest raw gap {min(raw):.3e})",
    )


def test_criterion_6_series_fit(sweep):
    _, fits = sweep
    devs = {
        (j, kind): fits[j][kind].rel_dev for j in (1, 2) for kind in ("upper", "lower")
    }
    ok = all(d <= 0.03 for d in devs.values())
    txt = ", ".join(f"j={j} {kind} {d * 100:.2f}%" for (j, kind), d in sorted(devs.items()))
    _check(6, ok, f"fitted leading coefficients within 3% of m_j ({txt})")


def test_criterion_7_dual_field_structure():
    g = disk_geometry(1e-3)
    dual = build_dual_stress(g, UNIT, 1)

    rng = np.random.default_rng(20260814)
    pts = []
    while len(pts) < 1000:
        cand = rng.uniform([-g.L1, -g.L2], [g.L1, g.L2], size=(4000, 2))
        keep = region_classify(g, cand) == Region.MATRIX
        dist = np.minimum(*(np.linalg.norm(cand - p, axis=1) for p in poles(g)))
        edge = np.minimum(g.L1 - np.abs(cand[:, 0]), g.L2 - np.abs(cand[:, 1]))
        pts.extend(cand[keep & (dist > 1e-3) & (edge > 1e-4)].tolist())
    pts = np.array(pts[:1000])

    dist = np.minimum(*(np.linalg.norm(pts - p, axis=1) for p in poles(g)))
    h = np.minimum(6e-6 * dist, 0.5e-4)
    ex = np.stack((h, np.zeros_like(h)), axis=-1)
    ey = np.stack((np.zeros_like(h), h), axis=-1)
    px, mx = total_stress(dual, pts + ex), total_stress(dual, pts - ex)
    py, my = total_stress(dual, pts + ey), total_stress(dual, pts - ey)
    d1_11 = (px.a11 - mx.a11) / (2 * h)
    d2_12 = (py.a12 - my.a12) / (2 * h)
    d1_21 = (px.a21 - mx.a21) / (2 * h)
    d2_22 = (py.a22 - my.a22) / (2 * h)
    resid = np.maximum(np.abs(d1_11 + d2_12), np.abs(d1_21 + d2_22))
    # rows can vanish together on symmetry lines, so scale by the larger row
    scale = np.maximum(np.abs(d1_11) + np.abs(d2_12), np.abs(d1_21) + np.abs(d2_22))
    scale = np.maximum(scale, 1e-30 * scale.max())
    div_rel = float((resid / scale).max())

    x = np.linspace(-g.L1, g.L1, 200)
    edge_rel = 0.0
    for ysign in (g.L2, -g.L2):
        epts = np.stack((x, np.full_like(x, ysign)), axis=-1)
        tot = total_stress(dual, epts)
        sing = dual.sigma_S(epts)
        tr_scale = max(np.abs(sing.a12).max(), np.abs(sing.a22).max())
        edge_rel = max(edge_rel, float(np.maximum(np.abs(tot.a12), np.abs(tot.a22)).max() / tr_scale))

    maxima = []
    for eps in EPS_SWEEP:
        gg = disk_geometry(eps)
        dd = build_dual_stress(gg, UNIT, 1)
        grid = np.stack(
            np.meshgrid(
                np.linspace(-gg.L1 * 0.98, gg.L1 * 0.98, 41),
                np.linspace(-gg.L2 * 0.98, gg.L2 * 0.98, 41),
            ),
            axis=-1,
        ).reshape(-1, 2)
        grid = grid[region_classify(gg, grid) == Region.MATRIX]
        sc = dd.sigma_c(grid)
        maxima.append(
            max(np.abs(sc.a11).max(), np.abs(sc.a12).max(), np.abs(sc.a21).max(), np.abs(sc.a22).max())
        )
    stability = max(maxima) / min(maxima)

    ok = div_rel <= 1e-5 and edge_rel <= 1e-8 and stability <= 2.0
    _check(
        7,
        ok,
        f"total stress: div {div_rel:.2e} <= 1e-5 at 1000 matrix points, "
        f"edge traction {edge_rel:.2e} <= 1e-8, correction magnitude ratio {stability:.3f} <= 2",
    )


def test_criterion_8_prefactor_identity():
    rng = np.random.default_rng(8)
    mu = 10.0 ** rng.uniform(-2.0, 2.0, size=1000)
    lam = mu * rng.uniform(-0.5, 50.0, size=1000)
    worst = 0.0
    for la, m in zip(lam, mu):
        d = derived_constants(LameMaterial(lam=float(la), mu=float(m)))
        worst = max(worst, abs(d.prefactor * (la + 2.0 * m) - d.E) / d.E)
    _check(8, worst <= 1e-12, f"prefactor*(lambda+2mu)=E over 1000 materials, max rel defect {worst:.2e}")


def test_criterion_9_kernel_gradients_and_field_equation():
    rng = np.random.default_rng(9)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=1000)
    r = rng.uniform(0.3, 3.0, size=1000)
    x = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    worst_fd = 0.0
    for which in KERNEL_NAMES:
        d1 = (kernel_displacement(which, x + ex, UNIT) - kernel_displacement(which, x - ex, UNIT)) / (2 * h)
        d2 = (kernel_displacement(which, x + ey, UNIT) - kernel_displacement(which, x - ey, UNIT)) / (2 * h)
        gm = kernel_gradient(which, x, UNIT)
        got = np.stack(
            (np.stack((gm.a11, gm.a12), axis=-1), np.stack((gm.a21, gm.a22), axis=-1)), axis=-2
        )
        fd = np.stack((d1, d2), axis=-1)
        scale = np.abs(got).max(axis=(-1, -2)) + 1e-12
        worst_fd = max(worst_fd, float((np.abs(got - fd).max(axis=(-1, -2)) / scale).max()))

    g = disk_geometry(1e-3)
    ctx = KernelContext.from_geometry(g, UNIT)
    pts = []
    rng2 = np.random.default_rng(10)
    while len(pts) < 1000:
        cand = rng2.uniform([-g.L1, -g.L2], [g.L1, g.L2], size=(4000, 2))
        keep = region_classify(g, cand) == Region.MATRIX
        dist = np.minimum(*(np.linalg.norm(cand - p, axis=1) for p in poles(g)))
        pts.extend(cand[keep & (dist > 0.05)].tolist())
    pts = np.array(pts[:1000])
    dist = np.minimum(*(np.linalg.norm(pts - p, axis=1) for p in poles(g)))
    worst_lame = 0.0
    for j in (1, 2):
        hh = 1e-4 * dist
        hx = np.stack((hh, np.zeros_like(hh)), axis=-1)
        hy = np.stack((np.zeros_like(hh), hh), axis=-1)
        u0 = singular_displacement(ctx, j, pts)
        uxx = (singular_displacement(ctx, j, pts + hx) - 2 * u0 + singular_displacement(ctx, j, pts - hx)) / hh[:, None] ** 2
        uyy = (singular_displacement(ctx, j, pts + hy) - 2 * u0 + singular_displacement(ctx, j, pts - hy)) / hh[:, None] ** 2
        uxy = (
            singular_displacement(ctx, j, pts + hx + hy)
            - singular_displacement(ctx, j, pts + hx - hy)
            - singular_displacement(ctx, j, pts - hx + hy)
            + singular_displacement(ctx, j, pts - hx - hy)
        ) / (4 * hh[:, None] ** 2)
        lap = uxx + uyy
        grad_div = np.stack((uxx[:, 0] + uxy[:, 1], uxy[:, 0] + uyy[:, 1]), axis=-1)
        resid = np.abs(UNIT.mu * lap + (UNIT.lam + UNIT.mu) * grad_div).max(axis=-1)
        scale = (UNIT.mu * np.abs(lap) + (UNIT.lam + UNIT.mu) * np.abs(grad_div)).max(axis=-1)
        scale = scale + np.abs(uxx).max(axis=-1) + 1e-30
        worst_lame = max(worst_lame, float((resid / scale).max()))

    ok = worst_fd <= 1e-6 and worst_lame <= 1e-4
    _check(
        9,
        ok,
        f"kernel gradients vs central differences {worst_fd:.2e} <= 1e-6 at 1000 points, "
        f"pair-field Lame residual {worst_lame:.2e} <= 1e-4",
    )
