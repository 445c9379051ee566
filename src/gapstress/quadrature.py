"""Deterministic adaptive quadrature over boundary curves and the matrix cell.

Both drivers follow the same pattern: evaluate an embedded pair of rules on
every panel (two Gauss orders on smooth panels, two sampling resolutions on
boundary-cut cells), then greedily split the panels carrying most of the
error estimate until the global estimate meets the tolerance or the depth
cap is reached.  Evaluations are batched across panels, traversal and
summation order are fixed, and no randomness is used, so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import Curve, GapGeometry, Region, rect_classify, rect_matrix_area, region_classify

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "QuadratureError",
    "integrate_path",
    "integrate_cell",
    "cumulative_line_table",
]

_MAX_CELLS = 2_000_000
_MAX_PATH_PANELS = 262_144
_MAX_ROUNDS = 400
_EVAL_CHUNK = 8_192


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be evaluated to a usable accuracy."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget caps for one integration call.

    ``max_depth`` counts bisections from a root panel (a quadtree cell is
    split along its longer side, so two bisections halve both axes).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    base_order: int = 8
    max_depth: int = 30

    def __post_init__(self) -> None:
        if self.rel_tol < 0.0 or self.abs_tol < 0.0:
            raise ValueError("tolerances must be nonnegative")
        if self.base_order < 2 or self.max_depth < 1:
            raise ValueError("base_order must be >= 2 and max_depth >= 1")

    @classmethod
    def for_path(cls, rel_tol: float = 1e-8, **kw) -> "QuadratureSpec":
        return cls(rel_tol=rel_tol, **kw)

    @classmethod
    def for_cell(cls, rel_tol: float = 1e-6, **kw) -> "QuadratureSpec":
        return cls(rel_tol=rel_tol, **kw)


@dataclass(frozen=True)
class IntegralResult:
    value: object
    err_estimate: float
    panels_used: int
    converged: bool


@lru_cache(maxsize=32)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _pairwise_total(parts: np.ndarray) -> np.ndarray:
    # np.sum on a float64 array uses pairwise accumulation with a fixed order
    return np.sum(parts, axis=0)


# ---------------------------------------------------------------------------
# path integration
# ---------------------------------------------------------------------------


def _eval_path_panels(curve: Curve, integrand, seg: np.ndarray, t0: np.ndarray,
                      t1: np.ndarray, order: int) -> np.ndarray:
    """Gauss values of all panels at one order; returns (n_panels, n_comp)."""
    nodes, weights = _gauss_rule(order)
    out = None
    for s, segment in enumerate(curve.segments):
        idx = np.nonzero(seg == s)[0]
        if idx.size == 0:
            continue
        a = t0[idx][:, None]
        b = t1[idx][:, None]
        t = a + (b - a) * (nodes[None, :] + 1.0) / 2.0
        flat = t.reshape(-1)
        pts = segment.point(flat)
        nrm = segment.normal(flat)
        spd = segment.speed(flat)
        f = np.asarray(integrand(pts, nrm), dtype=float)
        if f.ndim == 1:
            f = f[:, None]
        ncomp = f.shape[1]
        if out is None:
            out = np.zeros((seg.size, ncomp))
        vals = (f * spd[:, None]).reshape(idx.size, order, ncomp)
        out[idx] = np.einsum("pgc,g->pc", vals, weights) * ((b - a) / 2.0)
    if out is None:
        raise ValueError("curve has no segments")
    return out


def integrate_path(curve: Curve, integrand, spec: QuadratureSpec) -> IntegralResult:
    """Adaptive arclength integral of ``integrand(points, normals)``.

    The integrand may return shape (n,) or (n, m); the result value follows.
    The error estimate is the sum of per-panel differences between the
    embedded Gauss pair, a deliberately conservative bound.
    """
    nseg = len(curve.segments)
    splits0 = 4
    seg = np.repeat(np.arange(nseg), splits0)
    edges = np.linspace(0.0, 1.0, splits0 + 1)
    t0 = np.tile(edges[:-1], nseg)
    t1 = np.tile(edges[1:], nseg)
    depth = np.zeros(seg.size, dtype=np.int32)
    order = spec.base_order

    lo = _eval_path_panels(curve, integrand, seg, t0, t1, order)
    hi = _eval_path_panels(curve, integrand, seg, t0, t1, 2 * order)
    err = np.abs(hi - lo).max(axis=1)

    def effective_tol(total: np.ndarray) -> float:
        # scale by the largest panel contribution, not only the total, so
        # integrals that cancel to zero still terminate
        scale = max(float(np.abs(total).max()), float(np.abs(hi).max(initial=0.0)))
        return max(spec.abs_tol, spec.rel_tol * scale)

    for _ in range(_MAX_ROUNDS):
        total = _pairwise_total(hi)
        total_err = float(err.sum())
        tol_eff = effective_tol(total)
        splittable = depth < spec.max_depth
        if total_err <= tol_eff or not bool(np.any(splittable & (err > 0.0))):
            break
        if err.size > _MAX_PATH_PANELS:
            break
        # split the worst panels until the remainder would fit in the budget
        order_idx = np.lexsort((np.arange(err.size), -err))
        ranked = order_idx[splittable[order_idx]]
        ranked_err = err[ranked]
        need = total_err - 0.5 * tol_eff
        cum = np.cumsum(ranked_err)
        n_split = int(np.searchsorted(cum, need) + 1)
        n_split = min(max(n_split, 1), ranked.size, 65536)
        chosen = np.sort(ranked[:n_split])
        keep = np.ones(err.size, dtype=bool)
        keep[chosen] = False
        mid = (t0[chosen] + t1[chosen]) / 2.0
        child_seg = np.repeat(seg[chosen], 2)
        child_t0 = np.stack((t0[chosen], mid), axis=1).reshape(-1)
        child_t1 = np.stack((mid, t1[chosen]), axis=1).reshape(-1)
        child_depth = np.repeat(depth[chosen] + 1, 2)
        c_lo = _eval_path_panels(curve, integrand, child_seg, child_t0, child_t1, order)
        c_hi = _eval_path_panels(curve, integrand, child_seg, child_t0, child_t1, 2 * order)
        c_err = np.abs(c_hi - c_lo).max(axis=1)
        seg = np.concatenate((seg[keep], child_seg))
        t0 = np.concatenate((t0[keep], child_t0))
        t1 = np.concatenate((t1[keep], child_t1))
        depth = np.concatenate((depth[keep], child_depth))
        lo = np.concatenate((lo[keep], c_lo), axis=0)
        hi = np.concatenate((hi[keep], c_hi), axis=0)
        err = np.concatenate((err[keep], c_err))

    # fixed summation order: sort panels by segment and parameter
    final_order = np.lexsort((t0, seg))
    total = _pairwise_total(hi[final_order])
    total_err = float(err.sum())
    tol_eff = effective_tol(total)
    value = total[0] if total.size == 1 else total
    if not np.all(np.isfinite(total)):
        raise QuadratureError("path integral produced a non-finite value")
    return IntegralResult(
        value=float(value) if np.ndim(value) == 0 else value,
        err_estimate=total_err,
        panels_used=int(err.size),
        converged=bool(total_err <= tol_eff),
    )


# ---------------------------------------------------------------------------
# cell integration
# ---------------------------------------------------------------------------


def _graded_axis(eps: float, inner: float, outer: float) -> np.ndarray:
    """Breakpoints 0, sqrt(eps), 2 sqrt(eps), ... up to ``inner``, then ``outer``."""
    pts = [0.0]
    step = np.sqrt(eps)
    v = step
    while v < inner:
        pts.append(v)
        v *= 2.0
    pts.append(inner)
    if outer > inner:
        pts.append((inner + outer) / 2.0)
        pts.append(outer)
    vals = np.unique(np.asarray(pts))
    return np.unique(np.concatenate((-vals[::-1], vals)))


def _root_cells(geom: GapGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    xb = _graded_axis(geom.eps, min(geom.half_width, geom.L1 * 0.75), geom.L1)
    yb = _graded_axis(geom.eps, min(geom.L, geom.L2 * 0.75), geom.L2)
    x1, y1 = np.meshgrid(xb[:-1], yb[:-1], indexing="ij")
    x2, y2 = np.meshgrid(xb[1:], yb[1:], indexing="ij")
    return x1.ravel(), x2.ravel(), y1.ravel(), y2.ravel()


def _eval_matrix_cells(cells, integrand, order: int) -> np.ndarray:
    x1, x2, y1, y2 = cells
    nodes, weights = _gauss_rule(order)
    w2 = weights[:, None] * weights[None, :]
    out = np.empty(x1.size)
    chunk = max(_EVAL_CHUNK // (order * order), 1)
    for s in range(0, x1.size, chunk):
        sl = slice(s, min(s + chunk, x1.size))
        cx = (x1[sl] + x2[sl])[:, None] / 2.0
        hx = (x2[sl] - x1[sl])[:, None] / 2.0
        cy = (y1[sl] + y2[sl])[:, None] / 2.0
        hy = (y2[sl] - y1[sl])[:, None] / 2.0
        gx = cx + hx * nodes[None, :]
        gy = cy + hy * nodes[None, :]
        px = np.repeat(gx[:, :, None], order, axis=2)
        py = np.repeat(gy[:, None, :], order, axis=1)
        pts = np.stack((px, py), axis=-1).reshape(-1, 2)
        f = np.asarray(integrand(pts), dtype=float).reshape(-1, order, order)
        out[sl] = np.einsum("nij,ij->n", f, w2) * (hx[:, 0] * hy[:, 0])
    return out


def _eval_straddle_cells(geom, cells, integrand, k: int, wet_scale: float):
    """Exact wet area times the sampled wet mean, at resolutions k and 2k."""
    x1, x2, y1, y2 = cells
    area = rect_matrix_area(geom, x1, x2, y1, y2)
    means = []
    counts_lo = None
    fmax = wet_scale
    for kk in (k, 2 * k):
        t = (np.arange(kk) + 0.5) / kk
        mean = np.empty(x1.size)
        counts = np.empty(x1.size, dtype=np.int64)
        chunk = max(_EVAL_CHUNK // (kk * kk), 1)
        for s in range(0, x1.size, chunk):
            sl = slice(s, min(s + chunk, x1.size))
            gx = x1[sl][:, None] + (x2[sl] - x1[sl])[:, None] * t[None, :]
            gy = y1[sl][:, None] + (y2[sl] - y1[sl])[:, None] * t[None, :]
            px = np.repeat(gx[:, :, None], kk, axis=2)
            py = np.repeat(gy[:, None, :], kk, axis=1)
            pts = np.stack((px, py), axis=-1).reshape(-1, 2)
            wet = region_classify(geom, pts) == int(Region.MATRIX)
            f = np.zeros(pts.shape[0])
            if np.any(wet):
                f[wet] = np.asarray(integrand(pts[wet]), dtype=float)
                fmax = max(fmax, float(np.abs(f[wet]).max()))
            f = f.reshape(-1, kk * kk)
            cnt = wet.reshape(-1, kk * kk).sum(axis=1)
            counts[sl] = cnt
            mean[sl] = np.where(cnt > 0, f.sum(axis=1) / np.maximum(cnt, 1), 0.0)
        means.append(mean)
        if kk == k:
            counts_lo = counts
    v_lo = area * means[0]
    v_hi = area * means[1]
    # the two sample means share their leading geometric bias, so their
    # difference understates the fine-grid error; pad by a safety factor
    err = 8.0 * np.abs(v_hi - v_lo)
    # a cut cell whose coarse pass saw no matrix samples is not trustworthy;
    # charge it with its exact wet area at the largest magnitude seen on any
    # wet sample so far, which keeps a zero field convergent at zero cost
    blind = counts_lo == 0
    err = np.where(blind, np.maximum(err, area * fmax), err)
    return v_hi, err, fmax


def _split_cells(x1, x2, y1, y2):
    """Children of the given cells as (x1, x2, y1, y2), and the child count
    per parent.

    A cell at least 1.4 times wider than tall splits in x, one at least 1.4
    times taller than wide splits in y, and any other cell splits into four,
    x fastest within each y half.  Children come in parent order.
    """
    wide = (x2 - x1) >= 1.4 * (y2 - y1)
    tall = ~wide & ((y2 - y1) >= 1.4 * (x2 - x1))
    quad = ~(wide | tall)
    mx = (x1 + x2) / 2.0
    my = (y1 + y2) / 2.0
    # four child slots per parent; wide and tall cells use only the first two
    slots = np.stack([
        np.stack(c, axis=1) for c in (
            (x1, np.where(tall, x1, mx), x1, mx),
            (np.where(tall, x2, mx), x2, mx, x2),
            (y1, np.where(tall, my, y1), my, my),
            (np.where(wide, y2, my), np.where(quad, my, y2), y2, y2),
        )
    ])
    used = np.ones((x1.size, 4), dtype=bool)
    used[:, 2:] = quad[:, None]
    cx1, cx2, cy1, cy2 = slots[:, used]
    return (cx1, cx2, cy1, cy2), np.where(quad, 4, 2)


def integrate_cell(geom: GapGeometry, integrand, spec: QuadratureSpec) -> IntegralResult:
    """Integral of a scalar field over the matrix part of the cell.

    Quadtree refinement starts from a grid graded toward the gap on both
    axes.  Cells inside an inclusion are dropped, cells fully in the matrix
    use a tensor Gauss pair, and cells cut by an inclusion boundary use the
    exact cut area times a classified midpoint-sample mean.  Cut cells near
    the gap dominate the work; the greedy splitter chases whatever panels
    carry the current error estimate.
    """
    x1, x2, y1, y2 = _root_cells(geom)
    fresh = (x1, x2, y1, y2, np.zeros(x1.size, dtype=np.int32), np.arange(x1.size, dtype=np.int64))
    seq_counter = x1.size
    wet_scale = 0.0
    k = spec.base_order

    def eval_fresh(fr):
        nonlocal wet_scale
        fx1, fx2, fy1, fy2, fdepth, fseq = fr
        codes = rect_classify(geom, fx1, fx2, fy1, fy2)
        keep = codes != 1
        keep &= codes != 2
        fx1, fx2, fy1, fy2 = fx1[keep], fx2[keep], fy1[keep], fy2[keep]
        fdepth, fseq, codes = fdepth[keep], fseq[keep], codes[keep]
        vals = np.zeros(fx1.size)
        errs = np.zeros(fx1.size)
        is_mat = codes == 0
        if np.any(is_mat):
            cells = (fx1[is_mat], fx2[is_mat], fy1[is_mat], fy2[is_mat])
            lo = _eval_matrix_cells(cells, integrand, k)
            hi = _eval_matrix_cells(cells, integrand, 2 * k)
            vals[is_mat] = hi
            errs[is_mat] = np.abs(hi - lo)
        is_cut = codes == 3
        if np.any(is_cut):
            cells = (fx1[is_cut], fx2[is_cut], fy1[is_cut], fy2[is_cut])
            v, e, wet_scale = _eval_straddle_cells(geom, cells, integrand, k, wet_scale)
            vals[is_cut] = v
            errs[is_cut] = e
        return np.rec.fromarrays(
            [fx1, fx2, fy1, fy2, fdepth, fseq, vals, errs, is_cut],
            names=["x1", "x2", "y1", "y2", "depth", "seq", "value", "err", "cut"],
        )

    def effective_tol(pool, total: float) -> float:
        scale = max(abs(total), float(np.abs(pool.value).max(initial=0.0)))
        return max(spec.abs_tol, spec.rel_tol * scale)

    pool_arrays = eval_fresh(fresh)
    for _ in range(_MAX_ROUNDS):
        total = _pairwise_total(pool_arrays.value[np.argsort(pool_arrays.seq)])
        total_err = float(pool_arrays.err.sum())
        tol_eff = effective_tol(pool_arrays, float(total))
        splittable = (pool_arrays.depth < spec.max_depth) & (pool_arrays.err > 0.0)
        if total_err <= tol_eff or not bool(np.any(splittable)):
            break
        if pool_arrays.size > _MAX_CELLS:
            break
        err = pool_arrays.err
        order_idx = np.lexsort((pool_arrays.seq, -err))
        ranked = order_idx[splittable[order_idx]]
        cum = np.cumsum(err[ranked])
        need = total_err - 0.5 * tol_eff
        n_split = min(max(int(np.searchsorted(cum, need) + 1), 1), ranked.size, 32768)
        chosen = ranked[:n_split]
        chosen = chosen[np.argsort(pool_arrays.seq[chosen])]
        keep = np.ones(pool_arrays.size, dtype=bool)
        keep[chosen] = False
        sel = pool_arrays[chosen]
        (cx1, cx2, cy1, cy2), counts = _split_cells(sel.x1, sel.x2, sel.y1, sel.y2)
        n_children = cx1.size
        fresh = (
            cx1, cx2, cy1, cy2,
            np.repeat(sel.depth + 1, counts),
            np.arange(seq_counter, seq_counter + n_children, dtype=np.int64),
        )
        seq_counter += n_children
        children = eval_fresh(fresh)
        pool_arrays = np.concatenate((pool_arrays[keep], children)).view(np.recarray)

    order_final = np.argsort(pool_arrays.seq)
    total = float(_pairwise_total(pool_arrays.value[order_final]))
    total_err = float(pool_arrays.err.sum())
    tol_eff = effective_tol(pool_arrays, total)
    if not np.isfinite(total):
        raise QuadratureError("cell integral produced a non-finite value")
    return IntegralResult(
        value=total,
        err_estimate=total_err,
        panels_used=int(pool_arrays.size),
        converged=bool(total_err <= tol_eff),
    )


# ---------------------------------------------------------------------------
# cumulative tabulation along a horizontal line
# ---------------------------------------------------------------------------


def cumulative_line_table(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                          anchor: float = 0.0, rel_tol: float = 1e-10,
                          max_width: float | None = None,
                          base_order: int = 8, passes: int = 6):
    """Tabulate F(x) = integral of ``fn`` from ``anchor`` to x over [lo, hi].

    ``fn`` maps (n,) positions to (n, m) integrand values.  Returns
    (nodes, cumulative values (n, m), slopes (n, m), err) where the err is
    the summed embedded-pair estimate of all panels.  Panel widths are kept
    below ``max_width`` so a cubic Hermite interpolant built on the table
    keeps an accurate derivative everywhere.
    """
    if not (lo < hi and lo <= anchor <= hi):
        raise ValueError("need lo < hi with the anchor inside the interval")
    if max_width is None:
        max_width = (hi - lo) / 64.0
    n0 = max(int(np.ceil((hi - lo) / max_width)), 8)
    edges = np.unique(np.concatenate((np.linspace(lo, hi, n0 + 1), [anchor])))

    nodes_lo, w_lo = _gauss_rule(base_order)
    nodes_hi, w_hi = _gauss_rule(2 * base_order)

    def panel_values(a, b):
        out = []
        for nd, wt in ((nodes_lo, w_lo), (nodes_hi, w_hi)):
            t = a[:, None] + (b - a)[:, None] * (nd[None, :] + 1.0) / 2.0
            f = np.asarray(fn(t.reshape(-1)), dtype=float)
            if f.ndim == 1:
                f = f[:, None]
            f = f.reshape(a.size, nd.size, -1)
            out.append(np.einsum("pgc,g->pc", f, wt) * ((b - a) / 2.0)[:, None])
        err = np.abs(out[1] - out[0]).max(axis=1)
        return out[1], err

    for _ in range(passes):
        a, b = edges[:-1], edges[1:]
        inc, err = panel_values(a, b)
        scale = float(np.abs(inc).sum(axis=0).max()) or 1.0
        bad = err > rel_tol * scale * ((b - a) / (hi - lo))
        if not np.any(bad):
            break
        edges = np.unique(np.concatenate((edges, (a[bad] + b[bad]) / 2.0)))
    a, b = edges[:-1], edges[1:]
    inc, err = panel_values(a, b)

    ncomp = inc.shape[1]
    values = np.zeros((edges.size, ncomp))
    ia = int(np.searchsorted(edges, anchor))
    values[ia + 1:] = np.cumsum(inc[ia:], axis=0)
    values[:ia] = -np.cumsum(inc[:ia][::-1], axis=0)[::-1]
    slopes = np.asarray(fn(edges), dtype=float)
    if slopes.ndim == 1:
        slopes = slopes[:, None]
    return edges, values, slopes, float(err.sum())
