"""Test oracles: whole-domain forms of the dual integrals, the Keller
primal energy as a quadrature, and the test-only helpers they rest on.

``integrate_cell`` and the dual's Green path integral cover one symmetry
quarter of the cell.  The forms here cover the whole domain: the two-sided
fibre integral over x in [-L1, L1] with each fibre [h(x), L2] stacked with
its mirror, and the matrix boundary made of all eight pieces of
``boundary_curves``.  ``primal_upper`` is closed form; its oracles integrate
the y-density of the same energy, once with the adaptive path loop and once
with mpmath at high precision.  The dual's load term is closed form too; its
oracles are the traction integral of the total stress on gamma_plus, which
``dual_lower`` evaluated before, and the force across x = 0 from mpmath's
Kolosov-Muskhelishvili Phi.

The integrals of the pair stress along vertical fibres, which the dual's
cell term takes in closed form (``kernels._FibreTerms``), are kept here
as a tight adaptive path integral of the stress itself.

The pair fields are also kept here one load and one field at a time, as
they were written before ``kernels._PairTerms`` shared their terms: the
shared evaluation must reproduce them bit for bit, and so must the dual
fields built on them.  So must the two verify evaluations, kept here as
they were first assembled: the pair boundary integral from whole
[t_1, t_2, work] blocks (``pair_boundary_integral_by_blocks``), and the
dual diagnostics from sigma_c's four components at both fibre ends, built
from its coefficients with the entries the load's parity zeroes masked to
0 (``correction_diagnostics``, ``masked_affine_coefficients``).  So must
the dual's cell term, its density the compliance forms of the masked
correction (``masked_cell_energy``).  The dual diagnostics are also kept
twice, each with one field call per sample set
and from the fields alone: on the upper edge's panels that
``bounds._dual_diagnostics`` reads (``edge_diagnostics``), and by central
differences on the matrix points of a 41 x 41 grid over the whole cell
(``per_copy_diagnostics``).

Helpers that only tests read live here too, not in the package: the four
pieces of the matrix boundary (``boundary_curves``), the Keller test field
psi of a ``KellerProfile`` and its displacement gradient
(``keller_test_gradient``), whose energy ``primal_upper`` takes in closed
form, the inverse of the isotropic stiffness (``compliance_apply``) and the
pair field's poles (``poles``).
"""
from __future__ import annotations

from dataclasses import replace

import mpmath
import numpy as np

from gapstress import KellerProfile, Matrix2, Region, SymTensor2, m_constant, quadrature
from gapstress.bounds import _EDGE_PANELS, Diagnostics, _dual_scale, _scaled, _Widths
from gapstress.elasticity import _side_by_side, compliance_contract, compliance_energy
from gapstress.geometry import (Curve, _ellipse_arc, _graded_breaks, _line_segment,
                                _vertex_breaks, chord_halfheight, inclusion_boundary,
                                region_classify)
from gapstress.kernels import (KernelContext, _coefficients, _EdgeTerms, _FibreTerms, _guarded_r2,
                               _PairTerms,
                               _split, singular_stress)
from gapstress.quadrature import (_K15_NODES, _K15_WEIGHTS, _RULE, IntegralResult, _fibre_axis,
                                  integrate_path)

def boundary_curves(geom) -> dict[str, Curve]:
    """The four pieces of the matrix boundary inside the cell.

    gamma_plus  : inner half of the D2 boundary plus the two uncovered parts
                  of the right cell edge; normal into D2 resp. (1, 0).
    gamma_minus : mirror image on the left.
    edge_top / edge_bottom : horizontal cell edges, outward normals.
    """
    A = geom.half_width
    B = geom.half_height
    L1, L2 = geom.L1, geom.L2

    gamma_plus = Curve(
        segments=(
            _line_segment((L1, L2), (L1, B), (1.0, 0.0)),
            _ellipse_arc(L1, A, B, np.pi / 2.0, 3.0 * np.pi / 2.0, (np.pi,), geom.a),
            _line_segment((L1, -B), (L1, -L2), (1.0, 0.0)),
        )
    )
    gamma_minus = Curve(
        segments=(
            _line_segment((-L1, L2), (-L1, B), (-1.0, 0.0)),
            _ellipse_arc(-L1, A, B, np.pi / 2.0, -np.pi / 2.0, (0.0,), geom.a),
            _line_segment((-L1, -B), (-L1, -L2), (-1.0, 0.0)),
        )
    )
    edge_top = Curve(segments=(_line_segment((-L1, L2), (L1, L2), (0.0, 1.0)),))
    edge_bottom = Curve(segments=(_line_segment((-L1, -L2), (L1, -L2), (0.0, -1.0)),))
    return {
        "gamma_plus": gamma_plus,
        "gamma_minus": gamma_minus,
        "edge_top": edge_top,
        "edge_bottom": edge_bottom,
    }


def psi(prof: KellerProfile, points: np.ndarray) -> np.ndarray:
    """The Keller test field (x + X) / (2 X), clamped to [0, 1]."""
    pts = np.asarray(points, dtype=float)
    X = prof.halfwidth(pts[..., 1])
    return np.clip((pts[..., 0] + X) / (2.0 * X), 0.0, 1.0)


def grad_psi(prof: KellerProfile, points: np.ndarray) -> np.ndarray:
    """Gradient of psi, shape (..., 2); zero in the clamped plateaus."""
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    X = prof.halfwidth(pts[..., 1])
    Xp = prof.halfwidth_deriv(pts[..., 1])
    in_band = np.abs(x) < X
    gx = np.where(in_band, 1.0 / (2.0 * X), 0.0)
    gy = np.where(in_band, -x * Xp / (2.0 * X * X), 0.0)
    return np.stack((gx, gy), axis=-1)


def keller_test_gradient(prof: KellerProfile, j: int, points: np.ndarray) -> Matrix2:
    """Displacement gradient of the vector test field psi * e_j."""
    g = grad_psi(prof, points)
    zero = np.zeros_like(g[..., 0])
    if j == 1:
        return Matrix2(g[..., 0], g[..., 1], zero, zero)
    if j == 2:
        return Matrix2(zero, zero, g[..., 0], g[..., 1])
    raise ValueError(f"j must be 1 or 2, got {j}")


def compliance_apply(s: SymTensor2, mat) -> SymTensor2:
    """Strain e with stress_from_gradient(e) == s (inverse of the stiffness)."""
    lam, mu = mat.lam, mat.mu
    c = lam / (2.0 * mu * (2.0 * lam + 2.0 * mu))
    tr = s.trace()
    return SymTensor2(s.a11 / (2.0 * mu) - c * tr, s.a12 / (2.0 * mu), s.a22 / (2.0 * mu) - c * tr)


# the four reflections of the cell: identity, x -> -x, y -> -y and both
REFLECTIONS = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])


def four_fold(fn):
    """The four-fold symmetrization of a cell integrand: its integral over
    the quarter cell is the whole-cell integral of ``fn``."""
    return lambda p: sum(fn(p * r) for r in REFLECTIONS)


def quarter_to_cell(res: IntegralResult) -> IntegralResult:
    """The cell integral of an integrand even in x and in y from its
    ``integrate_cell`` result over the quarter: value and estimate times 4."""
    return replace(res, value=4.0 * res.value, err_estimate=4.0 * res.err_estimate)


def matrix_boundary(geom) -> Curve:
    """The whole matrix boundary: the eight pieces of ``boundary_curves``."""
    return Curve(segments=tuple(s for c in boundary_curves(geom).values() for s in c.segments))


def _mirrored_fibres(geom, integrand, tau: np.ndarray, counter: list[int]):
    """Per outer node x, the K15 value of the y-integral over [h(x), L2]
    and its mirror, then |K15 - G7| on each template panel."""
    a, b = tau[:-1], tau[1:]
    half = ((b - a) / 2.0)[:, None]
    t_all = (a[:, None] + half * (_K15_NODES[None, :] + 1.0)).reshape(-1)
    w_k = (half * _RULE[:, 0]).reshape(-1)
    w_diff = (half * _RULE[:, 1]).reshape(-1)

    def fibres(pts: np.ndarray, _normals: np.ndarray) -> np.ndarray:
        x = pts[:, 0]
        h = chord_halfheight(geom, x)
        length = geom.L2 - h
        y = h[:, None] + length[:, None] * t_all[None, :]
        y = np.stack((y, -y), axis=1)
        p = np.stack((np.broadcast_to(x[:, None, None], y.shape), y), axis=-1).reshape(-1, 2)
        chunk = quadrature._NODE_CHUNK
        f = np.concatenate([integrand(p[c:c + chunk]) for c in range(0, p.shape[0], chunk)])
        counter[0] += f.size
        f = f.reshape(x.size, 2, t_all.size).sum(axis=1)
        value = (f * w_k).sum(axis=1, keepdims=True)
        diff = np.abs((f * w_diff).reshape(x.size, a.size, _K15_NODES.size).sum(axis=2))
        return length[:, None] * np.concatenate((value, diff), axis=1)

    return fibres


def whole_cell_integral(geom, integrand, rel_tol: float) -> IntegralResult:
    """Integral over the whole matrix part of the cell: the outer path loop
    on [-L1, L1] from root panels graded away from both chord onsets +-eps/2,
    mirrored fibres, and the template refinement of ``integrate_cell``."""
    xb = np.asarray([0.0] + _graded_breaks(geom.eps / 2.0, geom.L1, geom.eps,
                                           quadrature._OUTER_GRADING) + [geom.L1])
    xb = np.concatenate((-xb[:0:-1], xb))
    x_axis = Curve(segments=(replace(_line_segment((-geom.L1, 0.0), (geom.L1, 0.0), (0.0, 1.0)),
                                     breaks=tuple((xb + geom.L1) / (2.0 * geom.L1))),))
    tau = np.asarray(_graded_breaks(0.0, 0.5, np.sqrt(geom.eps) / geom.L2,
                                    quadrature._FIBRE_GRADING) + [1.0])
    depth = np.zeros(tau.size - 1, dtype=np.int32)
    counter = [0]
    for _ in range(quadrature._MAX_FIBRE_ROUNDS):
        fibres = _mirrored_fibres(geom, integrand, tau, counter)
        (total, outer_err, half_tol, x0, *_), = quadrature._adapt_panels(
            (x_axis,), lambda p, n, _groups: fibres(p, n), rel_tol / 2.0, n_est=1)
        panel_err = total[1:]
        inner_err = float(panel_err.sum())
        splittable = (depth < quadrature._MAX_DEPTH) & (panel_err > 0.0)
        if inner_err <= half_tol or not bool(np.any(splittable)):
            break
        split = np.zeros(depth.size, dtype=bool)
        split[quadrature._worst_panels(panel_err, splittable, inner_err - 0.5 * half_tol)] = True
        tau = np.sort(np.concatenate((tau, (tau[:-1][split] + tau[1:][split]) / 2.0)))
        depth = np.repeat(depth + split, np.where(split, 2, 1))
    total_err = outer_err + inner_err
    return IntegralResult(value=float(total[0]), err_estimate=total_err, panels_used=x0.size,
                          converged=bool(total_err <= 2.0 * half_tol), evals=counter[0])


def fibre_moments_quadrature(ctx, j: int, x: float, y0: float, y1: float,
                             rel_tol: float) -> IntegralResult:
    """The integrals of sigma(q_j) and of y sigma(q_j) along the vertical
    segment from (x, y0) to (x, y1), by the adaptive path loop; value
    [s11, s12, s22, y s11, y s12, y s22].  The root panels grow 2-fold from
    y0, starting at a quarter of the pole offset, the scale on which the
    field varies near the gap."""
    segment = _line_segment((x, y0), (x, y1), (1.0, 0.0))
    length = y1 - y0
    segment = replace(segment, breaks=tuple(_graded_breaks(0.0, 1.0, ctx.a / (4.0 * length), 2.0)
                                            + [1.0]))

    def fn(p: np.ndarray, _n: np.ndarray) -> np.ndarray:
        s, y = singular_stress(ctx, j, p), p[:, 1]
        return np.stack((s.a11, s.a12, s.a22, y * s.a11, y * s.a12, y * s.a22), axis=-1)

    return integrate_path(Curve(segments=(segment,)), fn, rel_tol)


def _keller_coefficients(mat, j: int) -> tuple[float, float]:
    """(a, b) of the Keller density a / (2X) + b X'^2 / (6X) for load j."""
    if j not in (1, 2):
        raise ValueError(f"j must be 1 or 2, got {j}")
    a, b = mat.lam + 2.0 * mat.mu, mat.mu
    return (a, b) if j == 1 else (b, a)


def primal_path_integral(geom, mat, j: int, rel_tol: float) -> IntegralResult:
    """E_j = 2 int_0^L2 [a / (2X) + b X'^2 / (6X)] dy by the adaptive path
    loop on the straight path x = 0, split where X' jumps: at y = L, and
    where the tangent extension reaches L1.  The first segment's root panels
    are graded at y = 0 from the pole offset a, the scale of the density."""
    a, b = _keller_coefficients(mat, j)
    prof = KellerProfile(geom)

    def density(pts: np.ndarray, _n: np.ndarray) -> np.ndarray:
        y = pts[..., 1]
        X = prof.halfwidth(y)
        Xp = prof.halfwidth_deriv(y)
        return a / (2.0 * X) + b * Xp * Xp / (6.0 * X)

    breaks = [0.0, geom.L, geom.L + (geom.L1 - prof.f_edge) / prof.fprime_edge]
    breaks = sorted(y for y in breaks if y < geom.L2) + [geom.L2]
    normal = (1.0, 0.0)  # unused by the density
    segments = [_line_segment((0.0, y0), (0.0, y1), normal)
                for y0, y1 in zip(breaks[:-1], breaks[1:])]
    segments[0] = replace(segments[0], breaks=_vertex_breaks((0.0,), geom.a / breaks[1]))
    res = integrate_path(Curve(segments=tuple(segments)), density, rel_tol)
    return replace(res, value=2.0 * res.value, err_estimate=2.0 * res.err_estimate)


def primal_mpmath(geom, mat, j: int, dps: int = 40) -> float:
    """E_j by mpmath quadrature at ``dps`` digits, with X, its tangent
    extension and the cap point evaluated at that precision from the
    geometry; the arc is split geometrically from y = 0 at the scale a."""
    a, b = _keller_coefficients(mat, j)
    with mpmath.workdps(dps):
        mp = mpmath.mpf
        A, B, h = mp(geom.half_width), mp(geom.half_height), mp(geom.eps) / 2
        L, L1, L2 = mp(geom.L), mp(geom.L1), mp(geom.L2)

        def arc(y):
            return h + A * (1 - mpmath.sqrt(1 - (y / B) ** 2))

        f = arc(L)
        fp = A * L / (B * B * mpmath.sqrt(1 - (L / B) ** 2))
        y_cap = L + (L1 - f) / fp

        def density(y):
            if y <= L:
                X, Xp = arc(y), A * y / (B * B * mpmath.sqrt(1 - (y / B) ** 2))
            elif y <= y_cap:
                X, Xp = f + fp * (y - L), fp
            else:
                X, Xp = L1, 0
            return a / (2 * X) + b * Xp ** 2 / (6 * X)

        pts, step = [mp(0)], mp(geom.a)
        while step < L:
            pts.append(step)
            step *= 2
        pts += [L] + ([y_cap] if y_cap < L2 else []) + [L2]
        return float(2 * mpmath.quad(density, pts))


def poles(obj) -> tuple[np.ndarray, np.ndarray]:
    """The pair field's poles p1 = (-a, 0) and p2 = (a, 0) of a
    ``GapGeometry`` or a ``KernelContext``."""
    return np.array([-obj.a, 0.0]), np.array([obj.a, 0.0])


def _pole_distances(ctx, x):
    """x1, x2 and the squared distances to p1 and p2; raises at a pole."""
    x1, x2 = _split(x)
    return x1, x2, _guarded_r2(x1 + ctx.a, x2), _guarded_r2(x1 - ctx.a, x2)


def pair_displacement_per_load(ctx, j: int, x) -> np.ndarray:
    """q_j, shape (..., 2), from its own evaluation of every term."""
    kappa, k, c = _coefficients(ctx, j)
    a = ctx.a
    x1, x2, rp2, rm2 = _pole_distances(ctx, x)
    r2_near = np.where(x1 >= 0.0, rm2, rp2)
    re_L = np.copysign(0.5 * np.log1p(4.0 * a * np.abs(x1) / r2_near), x1)
    z = x1 + 1j * x2
    iw = 1.0 / ((z + a) * (z - a))
    phi_p = (-2.0 * a * k) * iw
    P = 2.0 * z * iw
    v = 2.0 * kappa * k * re_L - z * np.conj(phi_p) - np.conj((a * k + c) * P)
    v /= 2.0 * ctx.material.mu
    return np.stack((v.real, v.imag), axis=-1)


def pair_stress_per_load(ctx, j: int, x) -> SymTensor2:
    """Stress of q_j from its own evaluation of every term."""
    kappa, k, c = _coefficients(ctx, j)
    a = ctx.a
    x1, x2, _, _ = _pole_distances(ctx, x)
    z = x1 + 1j * x2
    iw = 1.0 / ((z + a) * (z - a))
    iw2 = iw * iw
    phi_p = (-2.0 * a * k) * iw
    phi_pp = (4.0 * a * k) * z * iw2
    psi_p = (2.0 * a * kappa * np.conj(k)) * iw - (2.0 * (a * k + c)) * (z * z + a * a) * iw2
    tr = 4.0 * phi_p.real
    dev = 2.0 * (np.conj(z) * phi_pp + psi_p)
    return SymTensor2(0.5 * (tr - dev.real), 0.5 * dev.imag, 0.5 * (tr + dev.real))


def edge_resultant_per_load(ctx, j: int, x, y) -> np.ndarray:
    """Traction resultant of q_j on the line at height y, from x = 0 to x,
    from its own evaluation of every term."""
    kappa, k, c = _coefficients(ctx, j)
    a = ctx.a
    z = x + 1j * y
    w = 1j * y
    u = -2.0 * a * x / ((z - a) * (w + a))
    dL = (0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag ** 2)
          + 1j * np.arctan2(u.imag, 1.0 + u.real))
    dP = -x / ((z + a) * (w + a)) - x / ((z - a) * (w - a))
    zb, wb = np.conj(z), np.conj(w)
    d_zphi = (np.conj(k) * 2.0 * a * x * (3.0 * y * y + 1j * y * x + a * a)
              / ((zb * zb - a * a) * (wb * wb - a * a)))
    d_psi = -kappa * np.conj(k) * dL + (a * k + c) * dP
    r = 1j * (k * dL + d_zphi + np.conj(d_psi))
    return np.stack((r.real, r.imag), axis=-1)


def dual_fields_per_load(geom, mat, j: int):
    """sigma_total and sigma_c of load j, point by point from the per-load
    fields: G from the edge resultant at (x, L2), the second column
    alpha + beta y / L2 from the edge traction there, the values at -L2
    following from the load's parity (sigma_12 odd in y for j = 1, sigma_22
    for j = 2)."""
    ctx = KernelContext.from_geometry(geom, mat)
    scale = m_constant(geom, mat, j) / np.sqrt(geom.eps)
    L2 = geom.L2
    odd = np.array([j == 1, j == 2], dtype=float)

    def sigma_c(pts):
        x, y = pts[..., 0], pts[..., 1]
        top = np.full_like(x, L2)
        st = pair_stress_per_load(ctx, j, np.stack((x, top), -1))
        t = np.stack((st.a12, st.a22), axis=-1)
        G = (scale / L2) * odd * edge_resultant_per_load(ctx, j, x, top)
        alpha, beta = -scale * (1.0 - odd) * t, -scale * odd * t
        eta = y / L2
        return Matrix2(G[..., 0], alpha[..., 0] + beta[..., 0] * eta,
                       G[..., 1], alpha[..., 1] + beta[..., 1] * eta)

    def sigma_total(pts):
        s = pair_stress_per_load(ctx, j, pts)
        c = sigma_c(pts)
        return Matrix2(scale * s.a11 + c.a11, scale * s.a12 + c.a12,
                       scale * s.a12 + c.a21, scale * s.a22 + c.a22)

    return sigma_total, sigma_c


def total_stress(dual, pts) -> Matrix2:
    """sigma_S + sigma_c of a ``DualStress`` at the points."""
    s, c = dual.sigma_S(pts), dual.sigma_c(pts)
    return Matrix2(s.a11 + c.a11, s.a12 + c.a12, s.a12 + c.a21, s.a22 + c.a22)


def edge_diagnostics(geom, sigma_total, sigma_c) -> tuple[float, float, float]:
    """(asymmetry_max, bc_residual, div_residual) on the equal panels of the
    upper edge y = L2, x in [0, L1] that ``bounds._dual_diagnostics`` reads,
    from the fields alone, with one field call per sample set: the edge
    traction of sigma_total at the panel ends; sigma_c at both ends
    (h(x), L2) of the fibre at each panel end; and sigma_c's divergence.
    sigma_c is affine in y, so in each row its divergence is d_x of the
    first column plus the y-slope of the second, the same at every y; the
    slope is read as the difference of the column at y = L2 and y = 0.  The
    panel integral of the divergence, by the jump of the first column and
    the K15 integral of the slope, is measured against the largest slope at
    the panel ends times the panel length."""
    L2 = geom.L2
    ends = np.linspace(0.0, geom.L1, _EDGE_PANELS + 1)
    n, half = ends.size, (ends[1] - ends[0]) / 2.0
    x = np.concatenate((ends, (ends[:-1, None] + half * (_K15_NODES + 1.0)).ravel()))

    def at(x, y):
        return np.stack((x, np.broadcast_to(y, x.shape)), axis=-1)

    top = sigma_total(at(ends, L2))
    bc = float(np.abs(np.stack((top.a12, top.a22), axis=-1)).max())
    c_top, c_mid = sigma_c(at(x, L2)), sigma_c(at(x, 0.0))
    lower = sigma_c(at(ends, chord_halfheight(geom, ends)))
    asym = float(max(np.abs(c_top.a12 - c_top.a21)[:n].max(),
                     np.abs(lower.a12 - lower.a21).max()))
    slope = np.stack((c_top.a12 - c_mid.a12, c_top.a22 - c_mid.a22), axis=-1) / L2
    first = np.stack((c_top.a11[:n], c_top.a21[:n]), axis=-1)
    integral = half * np.einsum("pkc,k->pc", slope[n:].reshape(_EDGE_PANELS, -1, 2),
                                _K15_WEIGHTS)
    div = np.abs(np.diff(first, axis=0) + integral).max() / (
        np.abs(slope[:n]).max() * 2.0 * half)
    return asym, bc, float(div)


def per_copy_diagnostics(geom, sigma_total, sigma_c) -> tuple[float, float, float]:
    """(asymmetry_max, bc_residual, div_residual) with one field call per
    sample set: the 200 edge points, the matrix points of the 41 x 41 grid
    over the whole cell (sigma_c only) and the grid's four shifted copies,
    whose central differences give the divergence of sigma_S + sigma_c."""
    L1, L2 = geom.L1, geom.L2
    xs = np.linspace(-L1, L1, 100)
    edges = np.stack((np.tile(xs, 2), np.repeat((L2, -L2), xs.size)), axis=-1)
    s = sigma_total(edges)
    bc = float(np.abs(np.stack((s.a12, s.a22), axis=-1)).max())
    gx, gy = np.meshgrid(np.linspace(-L1 * 0.995, L1 * 0.995, 41),
                         np.linspace(-L2 * 0.995, L2 * 0.995, 41), indexing="ij")
    pts = np.stack((gx.ravel(), gy.ravel()), axis=-1)
    pts = pts[region_classify(geom, pts) == int(Region.MATRIX)]
    sc = sigma_c(pts)
    asym = float(np.abs(sc.a12 - sc.a21).max())
    dist = np.minimum(*(np.linalg.norm(pts - p, axis=-1) for p in poles(geom)))
    h = 6e-6 * dist
    ex = np.stack((h, np.zeros_like(h)), axis=-1)
    ey = np.stack((np.zeros_like(h), h), axis=-1)
    s = sigma_total(np.stack((pts + ex, pts - ex, pts + ey, pts - ey)))
    inv2h = 1.0 / (2.0 * h)
    d_col1_dx = np.stack(((s.a11[0] - s.a11[1]) * inv2h, (s.a21[0] - s.a21[1]) * inv2h), axis=-1)
    d_col2_dy = np.stack(((s.a12[2] - s.a12[3]) * inv2h, (s.a22[2] - s.a22[3]) * inv2h), axis=-1)
    resid = np.abs(d_col1_dx + d_col2_dy).max(axis=-1)
    mag = (np.abs(s.a11) + np.abs(s.a12) + np.abs(s.a21) + np.abs(s.a22)).max(axis=0)
    div = float((resid * dist / mag).max())
    return asym, bc, div


def gamma_plus_load(geom, dual, j: int, rel_tol: float) -> IntegralResult:
    """The dual's load term by quadrature: the j-th traction component of
    the total stress, integrated over the whole of gamma_plus."""
    return integrate_path(boundary_curves(geom)["gamma_plus"],
                          lambda p, n: total_stress(dual, p).apply(n)[..., j - 1], rel_tol)


def centre_force_mpmath(geom, mat, j: int, dps: int = 40) -> float:
    """The j-th component of q_j's force across x = 0, |y| <= L2, times
    m_j / sqrt(eps), at ``dps`` digits: e_j - i [Phi(i L2) - Phi(-i L2)] with
    Phi = phi + z conj(phi') + conj(psi) from the potentials' principal logs
    and every coefficient of ``_coefficients``."""
    kappa, k, c = _coefficients(KernelContext.from_geometry(geom, mat), j)
    with mpmath.workdps(dps):
        a, k, c, kappa = mpmath.mpf(geom.a), mpmath.mpc(k), mpmath.mpc(c), mpmath.mpf(kappa)

        def Phi(z):
            L = mpmath.log(z + a) - mpmath.log(z - a)
            w = (z + a) * (z - a)
            psi = -kappa * mpmath.conj(k) * L + (a * k + c) * 2 * z / w
            return k * L + z * mpmath.conj(-2 * a * k / w) + mpmath.conj(psi)

        y = mpmath.mpf(geom.L2)
        force = (1 if j == 1 else 1j) - 1j * (Phi(1j * y) - Phi(-1j * y))
        scale = mpmath.mpf(m_constant(geom, mat, j)) / mpmath.sqrt(mpmath.mpf(geom.eps))
        return float(scale * (force.real if j == 1 else force.imag))


def pair_boundary_integral_by_blocks(geom, mat, rel_tol: float) -> IntegralResult:
    """``bounds.pair_boundary_integral`` with its integrand assembled from
    whole blocks: each load's [t_1, t_2, work] at the D1 points and then
    the D2 points, the loads side by side, split back into the D1 and the
    D2 rows and set side by side."""
    ctx = KernelContext.from_geometry(geom, mat)
    flip = np.array([-1.0, 1.0])

    def traction_work(terms, j, n):
        tr = terms.stress(j).apply(n)
        u = terms.displacement(j)
        return np.concatenate((tr, np.einsum("...k,...k->...", tr, u)[..., None]), axis=-1)

    def fn(p, n):
        terms = _PairTerms(ctx, np.concatenate((p * flip, p)))
        both = np.concatenate((n * flip, n))
        out = np.concatenate([traction_work(terms, j, both) for j in (1, 2)], axis=-1)
        return np.concatenate(np.split(out, 2), axis=-1)

    res = integrate_path(inclusion_boundary(geom, 2), fn, rel_tol)
    return replace(res, value=res.value.reshape(2, 2, 3))


def masked_affine_coefficients(j: int, scale, L2: float, traction, resultant):
    """(G, alpha, beta) of sigma_c at abscissae x, each of shape (n, 2), as
    first written: both components of each, the entries that the load's
    parity zeroes masked to 0.  G is the scaled edge resultant over L2 in
    the odd component, alpha minus the scaled edge traction in the even one
    and beta in the odd one; sigma_12 is odd in y for j = 1 and sigma_22
    for j = 2.  ``scale`` is one number or an array shaped as the
    traction's components."""
    odd = np.array([j == 1, j == 2], dtype=float)
    t = _side_by_side(traction.a12, traction.a22)
    if np.ndim(scale):
        scale = scale[..., None]
    return (scale / L2) * odd * resultant, -scale * (1.0 - odd) * t, -scale * odd * t


def correction_diagnostics(geoms, mat, loads) -> list[dict[int, Diagnostics]]:
    """``bounds._dual_diagnostics`` on geometries that fit one evaluation,
    with sigma_c built as a matrix of its four components at both ends of
    the fibre at every panel end: its (G, alpha, beta) indexed by a tiled
    index, and every component of the stress integrated over the panels."""
    geom, ctx = _Widths(geoms, mat).at(np.arange(len(geoms)))
    L2 = geom.L2
    n = _EDGE_PANELS + 1
    ends = np.linspace(0.0, geom.L1, n)
    half = (ends[1] - ends[0]) / 2.0
    nodes = ends[:-1, None] + np.multiply.outer(_K15_NODES + 1.0, half)
    x = np.concatenate((ends, nodes.reshape((-1,) + ends.shape[1:])))
    pair = _PairTerms(ctx, np.stack((x, np.full_like(x, L2)), -1))
    edge = _EdgeTerms(ctx, ends, L2)
    y = np.concatenate((np.full_like(ends, L2), chord_halfheight(geom, ends)))
    inv = np.tile(np.arange(n), 2)

    def correction(G, alpha, beta) -> Matrix2:
        eta = y / L2
        return Matrix2(G[..., 0][inv], alpha[..., 0][inv] + beta[..., 0][inv] * eta,
                       G[..., 1][inv], alpha[..., 1][inv] + beta[..., 1][inv] * eta)

    def largest(a):
        return np.abs(a).max(axis=(0, -1))

    def on_panels(a):
        rows = a[n:].reshape((_EDGE_PANELS, _K15_NODES.size) + a.shape[1:])
        if rows.ndim > 2:
            rows = np.ascontiguousarray(rows.swapaxes(1, 2)).reshape(-1, _K15_NODES.size)
        return half * (rows @ _K15_WEIGHTS).reshape((_EDGE_PANELS,) + a.shape[1:])

    out = [{} for _ in geoms]
    for j in loads:
        scale = _dual_scale(geom, mat, j)
        s, resultant = pair.stress(j), edge.resultant(j)
        at_ends = SymTensor2(s.a11[:n], s.a12[:n], s.a22[:n])
        G, alpha, beta = masked_affine_coefficients(j, scale, L2, at_ends, resultant)
        C = correction(G, alpha, beta)
        S = _scaled(at_ends, scale)
        bc = np.maximum(np.abs(S.a12 + C.a12[:n]).max(axis=0),
                        np.abs(S.a22 + C.a22[:n]).max(axis=0))
        jump, _, integral = masked_affine_coefficients(
            j, scale, L2, SymTensor2(on_panels(s.a11), on_panels(s.a12), on_panels(s.a22)),
            np.diff(resultant, axis=0))
        div = largest(jump + integral / L2) / (largest(beta) / L2 * 2.0 * half)
        asymmetry = np.abs(C.a12 - C.a21).max(axis=0)
        for d, *values in zip(out, *(v.reshape(-1).tolist() for v in (asymmetry, bc, div))):
            d[j] = Diagnostics(*values)
    return out


def masked_cell_energy(geoms, mat, loads, rel_tol: float) -> list[dict[int, IntegralResult]]:
    """``bounds._cell_energy`` as first assembled: at each x the fibre
    density is the compliance forms of ``elasticity`` on sigma_c = c0 +
    eta c1 built from ``masked_affine_coefficients``, all four entries of
    c0 and c1 with the zeros of the load's parity, the cross term c0 : C^-1
    c1 included."""
    widths = _Widths(geoms, mat)
    L2 = widths.geoms[0].L2

    def fibres(pts, _normals, groups):
        x = pts[:, 0]
        geom, ctx = widths.at(groups)
        h = chord_halfheight(geom, x)
        fibre, edge = _FibreTerms(ctx, x, h, L2), _EdgeTerms(ctx, x, L2)
        eta = h / L2
        n0, n1, n2 = L2 * (1.0 - eta), L2 * (1.0 - eta ** 2) / 2.0, L2 * (1.0 - eta ** 3) / 3.0

        def density(j):
            scale = _dual_scale(geom, mat, j)
            G, alpha, beta = masked_affine_coefficients(j, scale, L2, fibre.upper_stress(j),
                                                        edge.resultant(j))
            c0 = Matrix2(G[:, 0], alpha[:, 0], G[:, 1], alpha[:, 1])
            c1 = Matrix2(0.0, beta[:, 0], 0.0, beta[:, 1])
            s0, s1 = fibre.moments(j)
            return (n0 * compliance_energy(c0, mat) + 2.0 * n1 * compliance_contract(c0, c1, mat)
                    + n2 * compliance_energy(c1, mat)
                    + 2.0 * compliance_contract(_scaled(s0, scale), c0, mat)
                    + 2.0 * compliance_contract(_scaled(s1, scale / L2), c1, mat))

        return np.stack([density(j) for j in loads], axis=-1)

    res = integrate_path([_fibre_axis(g) for g in widths.geoms], fibres, rel_tol)
    return [{j: r.component(k) for k, j in enumerate(loads)} for r in res.groups]
