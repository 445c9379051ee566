"""Deterministic adaptive quadrature over boundary curves and the matrix cell.

Every routine here takes one setting, a relative tolerance; one that is not
finite and positive raises ValueError.  One embedded rule serves every
panel: the Gauss-Kronrod pair 7/15, whose panel value is K15 and whose panel
error is |K15 - G7|, from 15 points a panel.  Path integrals start from the
root panels each curve segment carries (``PathSegment.breaks``: its quarters,
or eighths of an inclusion arc longer than a half turn, and on inclusion
arcs a run graded from the gap vertex at the pole offset's scale, growing
at most twofold to an eighth of the arc, on which the shipped gap integrals
meet their tolerance in the first round).  They evaluate the rule on every
panel, then greedily split the panels carrying most of the error estimate
until the global estimate meets the tolerance or the panels reach
_MAX_DEPTH bisections.  The panels stay in (segment, t) order, a split
panel's children taking its place, so an integral returns the sums of the
round it stops in, whichever round that is.  One loop can integrate several
curves, each a tolerance group that refines and stops as it would alone, in
one evaluation a round for all of them (integrand calls of at most
_NODE_CHUNK nodes), one frame call per segment kind and the groups' scales,
weights, errors and stop tests read as arrays.  The matrix is vertically
simple: at each x in [0, L1] the quarter cell x >= 0, y >= 0 (whose four
mirror images make up the cell) holds the exact fibre [h(x), L2] over one
x axis (``_fibre_axis``).  The dual's cell term integrates each fibre in closed
form, so it is one path integral on that axis (``bounds._cell_energy``).
``integrate_cell``, the cell integrator for any integrand and the tests'
oracle of that term, runs the same loop on that axis and integrates every
fibre in y with one panel template of the same rule.  The cumulative
table, the test oracle of the dual correction G, runs the loop on the
x-axis too and sums its final panels outward from 0.
Evaluations are batched across panels, traversal and summation order are
fixed, and no randomness is used, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

# rect_classify, rect_matrix_area and region_classify are not called here;
# they stay bound because gapbench's tracer wraps them at these names
from .geometry import (  # noqa: F401
    Curve,
    GapGeometry,
    PathSegment,
    _graded_breaks,
    _kind_frame,
    _line_segment,
    chord_halfheight,
    rect_classify,
    rect_matrix_area,
    region_classify,
)

__all__ = [
    "IntegralResult",
    "QuadratureError",
    "integrate_path",
    "integrate_cell",
    "cumulative_line_table",
]

# bisections a panel may take from its root panel (path panels, outer x
# panels and fibre template panels alike)
_MAX_DEPTH = 30
_MAX_PATH_PANELS = 262_144
_MAX_ROUNDS = 400
_MAX_SPLIT = 65_536
# nodes per integrand call.  numpy evaluates a product whose right operand
# is a temporary of 256 KiB or more in place, with the operands swapped, and
# a complex product then rounds differently; below that size (16,384 complex
# values) a node's value is the same in any round, grouped or lone
_NODE_CHUNK = 4096
_MAX_FIBRE_ROUNDS = 12
_OUTER_GRADING = 8.0
_FIBRE_GRADING = 4.0


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be evaluated to a usable accuracy."""


@dataclass(frozen=True)
class IntegralResult:
    """``evals`` counts the integrand points the integral evaluated and
    ``rounds`` the adaptive rounds;
    ``component_err`` is each component's own summed |K15 - G7|; ``groups``
    holds each curve's own result of an integral over several curves
    (``integrate_path``)."""

    value: object
    err_estimate: float
    panels_used: int
    converged: bool
    evals: int = 0
    rounds: int = 0
    component_err: tuple[float, ...] = ()
    groups: tuple["IntegralResult", ...] = ()

    def component(self, k: int, scale: float = 1.0) -> "IntegralResult":
        """Component k times ``scale``, with that component's own error estimate."""
        err = scale * self.component_err[k]
        return IntegralResult(scale * float(np.atleast_1d(self.value)[k]), err, self.panels_used,
                              self.converged, self.evals, self.rounds, (err,), self.groups)


def _mirror(half: tuple[float, ...], sign: float) -> np.ndarray:
    """Full rule table, ascending in the node, from its half on [0, 1]
    listed from the outermost node to the centre."""
    h = np.asarray(half)
    return np.concatenate((sign * h[:-1], h[::-1]))


# Gauss-Kronrod 7/15 pair of every panel (QUADPACK qk15): the 15
# Kronrod nodes contain the 7 Gauss nodes, whose G7 weights sit at odd
# positions of the half table and are 0 at the Kronrod-only nodes
_K15_NODES = _mirror((0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                      0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                      0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                      0.207784955007898467600689403773245, 0.0), -1.0)
_K15_WEIGHTS = _mirror((0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                        0.204432940075298892414161999234649, 0.209482141084727828012999174891714),
                       1.0)
_G7_WEIGHTS = _mirror((0.0, 0.129484966168869693270611432679082, 0.0,
                       0.279705391489276667901467771423780, 0.0,
                       0.381830050505118944950369775488975, 0.0,
                       0.417959183673469387755102040816327), 1.0)
# weights of a panel's value and of its error: a K15 and a K15 - G7 column
_RULE = np.stack((_K15_WEIGHTS, _K15_WEIGHTS - _G7_WEIGHTS), axis=1)
# the Kronrod nodes on [0, 1], a panel's nodes at t0 + (t1 - t0) _K15_UNIT
_K15_UNIT = (_K15_NODES + 1.0) / 2.0


def _check_tol(rel_tol: float) -> None:
    # a zero or non-finite tolerance would refine until the budget caps
    if not (np.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")


def _worst_panels(err: np.ndarray, splittable: np.ndarray, excess: float) -> np.ndarray:
    """Indices of the fewest splittable panels, worst first and ties by
    index, whose errors sum past ``excess``; at most _MAX_SPLIT of them."""
    ranked = np.argsort(-err, kind="stable")
    ranked = ranked[splittable[ranked]]
    n_split = int(np.searchsorted(np.cumsum(err[ranked]), excess)) + 1
    return ranked[:min(n_split, _MAX_SPLIT)]


# ---------------------------------------------------------------------------
# path integration
# ---------------------------------------------------------------------------


def _eval_path_panels(segments, seg_group: np.ndarray, integrand, seg: np.ndarray,
                      t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 values and |K15 - G7| differences of panels sorted by segment.

    Each segment kind's frame (geometry.SEGMENT_KINDS) is called once, on
    the nodes t0 + (t1 - t0) _K15_UNIT of all panels of its segments, each
    node with its segment's params: a kind with one segment through that
    segment's ``frame``, on its run of panels and its own params.  The
    nodes reach the integrand in panel order, with each node's group
    (``seg_group`` of its segment), in calls of at most _NODE_CHUNK nodes.
    Returns (value, diff), each of shape (n_panels, n_comp).
    """
    span = t1 - t0
    # the nodes of each panel one row
    t = t0[:, None] + span[:, None] * _K15_UNIT
    kinds = [s.kind for s in segments]
    pts, nrm, spd = np.empty(t.shape + (2,)), np.empty(t.shape + (2,)), np.empty(t.shape)
    for name in dict.fromkeys(kinds):
        owners = [k for k, kind in enumerate(kinds) if kind == name]
        if len(owners) == 1:
            # a lone segment's panels are one run, read by its own frame: on
            # one-width integrals the per-node gather below costs 10-20% more
            lo, hi = seg.searchsorted([owners[0], owners[0] + 1]).tolist()
            if hi > lo:
                pts[lo:hi], nrm[lo:hi], spd[lo:hi] = segments[owners[0]].frame(t[lo:hi])
            continue
        at = np.array([kind == name for kind in kinds])[seg].nonzero()[0]
        if at.size:
            # each panel's params one column, the same for its nodes
            pad = (0.0,) * len(segments[owners[0]].params)
            params = np.array([s.params if s.kind == name else pad for s in segments])[seg[at]]
            pts[at], nrm[at], spd[at] = _kind_frame(name, params.T[..., None], t[at])
    pts, nrm, spd = pts.reshape(-1, 2), nrm.reshape(-1, 2), spd.reshape(-1)
    groups = seg_group[seg].repeat(_K15_NODES.size)
    parts = [integrand(pts[c:c + _NODE_CHUNK], nrm[c:c + _NODE_CHUNK], groups[c:c + _NODE_CHUNK])
             for c in range(0, groups.size, _NODE_CHUNK)]
    f = np.asarray(parts[0], dtype=float) if len(parts) == 1 else np.concatenate(parts, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    f = f * spd[:, None]
    # one weighted sum over all panels, (n, c, 15) against (15, 2) as
    # np.tensordot forms it
    n_comp = f.shape[1]
    sums = np.dot(f.reshape(seg.size, _K15_NODES.size, n_comp).transpose(0, 2, 1)
                  .reshape(seg.size * n_comp, _K15_NODES.size), _RULE)
    out = sums.reshape(seg.size, n_comp, 2) * (span / 2.0)[:, None, None]
    return out[..., 0], np.abs(out[..., 1])


def _adapt_panels(curves: tuple[Curve, ...], integrand, rel_tol: float,
                  n_est: int | None = None) -> list[tuple]:
    """Greedy adaptive refinement from the root panels of every segment of
    every curve, each curve a tolerance group.

    The panels stay in (group, segment, t) order throughout: the root
    panels are in it (``breaks`` ascend), and a split panel's two children
    take its place.  Every round evaluates ``integrand(points, normals,
    groups)`` on the 15 Kronrod nodes of all new panels of all groups
    (``_eval_path_panels``), ``groups`` holding each node's curve index.
    Each group is one run of panels, held to ``rel_tol`` against its own
    scale and split on its own errors, so every group refines, sums and
    stops exactly as it would alone.  A round reads the open groups'
    scales, weights, panel errors and stop tests as arrays; only the sums
    that fix an integral's bits are one np.sum a group, over its rows in
    (segment, t) order: of its K15 values, of its panel errors and, when it
    stops, of each component's errors.  A group that stops leaves the
    arrays.  Only the first ``n_est`` integrand
    components (all by default) enter the error estimate and the tolerance;
    later ones are carried along.  Each estimated component is held to
    ``rel_tol`` times its own scale, the larger of its |total| and its
    largest panel value: a panel's error is max_c |K15 - G7|_c * (largest
    scale / scale_c), and the summed errors are held to ``rel_tol`` times
    the largest scale.  So no component meets a looser tolerance than it
    would alone, and the summed error bounds every component's summed
    |K15 - G7|.
    Returns, per group, what its panels held in the round it stopped:
    (total, total_err, tol_eff, t0, t1, values, evals, rounds,
    component_err), the np.sum of the K15 values, the summed panel errors,
    the tolerance they are held to, the panel edges t0, t1 and K15 values
    (one row each), the numbers of path nodes evaluated and of rounds that
    reached the group, and each estimated component's summed |K15 - G7|.
    A curve without segments, or no curve, raises ValueError before any
    evaluation.
    """
    if not curves or not all(curve.segments for curve in curves):
        raise ValueError("curve has no segments")
    segments = [s for curve in curves for s in curve.segments]
    seg_group = np.array([g for g, curve in enumerate(curves) for _ in curve.segments])
    seg = np.repeat(np.arange(len(segments)), [len(s.breaks) - 1 for s in segments])
    t0 = np.array([b for s in segments for b in s.breaks[:-1]], dtype=float)
    t1 = np.array([b for s in segments for b in s.breaks[1:]], dtype=float)
    depth = np.zeros(seg.size, dtype=np.int32)
    val, diff = _eval_path_panels(segments, seg_group, integrand, seg, t0, t1)
    diff = diff[:, :n_est]
    # the open groups, in order, each one run of sizes[i] panels
    live = list(range(len(curves)))
    sizes = [sum(len(s.breaks) - 1 for s in c.segments) for c in curves]
    evals = [_K15_NODES.size * n for n in sizes]
    rounds = [1] * len(curves)
    out: list = [None] * len(curves)
    for k in range(_MAX_ROUNDS + 1):
        starts = list(accumulate(sizes, initial=0))
        rows = [slice(a, b) for a, b in zip(starts, starts[1:])]
        # a sum over a float64 axis uses pairwise accumulation in a fixed order
        total = [val[r].sum(axis=0) for r in rows]
        # scale by the largest panel contribution, not only the total, so
        # integrals that cancel to zero still terminate
        scale = np.maximum(np.abs(total)[:, :n_est],
                           np.maximum.reduceat(np.abs(val[:, :n_est]), starts[:-1], axis=0))
        largest = scale.max(axis=1)
        weight = np.divide(largest[:, None], scale, out=np.ones_like(scale), where=scale > 0.0)
        err = (diff * weight.repeat(sizes, axis=0)).max(axis=1)
        tol_eff = rel_tol * largest
        total_err = np.array([err[r].sum() for r in rows])
        # after the last round every open group stops where it stands
        over = (total_err > tol_eff).tolist() if k < _MAX_ROUNDS else [False] * len(rows)
        total_err, tol_eff = total_err.tolist(), tol_eff.tolist()
        refine, grown = [], []
        for i, (g, r) in enumerate(zip(live, rows)):
            if over[i] and sizes[i] <= _MAX_PATH_PANELS:
                splittable = depth[r] < _MAX_DEPTH
                if np.any(splittable & (err[r] > 0.0)):
                    # split the worst panels until the remainder would fit in the budget
                    worst = _worst_panels(err[r], splittable, total_err[i] - 0.5 * tol_eff[i])
                    refine.append(r.start + worst)
                    grown.append(sizes[i] + worst.size)
                    evals[g] += 2 * _K15_NODES.size * worst.size
                    rounds[g] += 1
                    continue
            component_err = np.ascontiguousarray(diff[r].T).sum(axis=1)
            out[g] = (total[i], total_err[i], tol_eff[i], t0[r], t1[r], val[r], evals[g],
                      rounds[g], tuple(component_err.tolist()))
        if not refine:
            break
        split = np.zeros(seg.size, dtype=bool)
        split[np.concatenate(refine)] = True
        if len(refine) < len(live):
            # the groups that stopped leave the arrays
            keep = np.repeat([out[g] is None for g in live], sizes)
            seg, t0, t1, val, diff, depth, split = (
                a[keep] for a in (seg, t0, t1, val, diff, depth, split))
            live = [g for g in live if out[g] is None]
        sizes = grown
        # a split panel's two children take its place, at left and left + 1
        copies = split + 1
        seg, t0, t1, val, diff = (np.repeat(a, copies, axis=0) for a in (seg, t0, t1, val, diff))
        depth = np.repeat(depth + split, copies)
        left = np.flatnonzero(split) + np.arange(np.count_nonzero(split))
        t1[left] = t0[left + 1] = (t0[left] + t1[left]) / 2.0
        new = np.stack((left, left + 1), axis=1).reshape(-1)
        c_val, c_diff = _eval_path_panels(segments, seg_group, integrand, seg[new], t0[new], t1[new])
        val[new], diff[new] = c_val, c_diff[:, :n_est]
    return out


def integrate_path(curve: Curve | Sequence[Curve], integrand, rel_tol: float) -> IntegralResult:
    """Adaptive arclength integral of ``integrand(points, normals)``.

    The integrand may return shape (n,) or (n, m); the result value follows.
    Refinement starts from each segment's root panels (``breaks``).  Each
    refinement round hands the 15 Kronrod nodes of all new panels of all
    segments to ``integrand`` in calls of at most _NODE_CHUNK nodes: one
    call a round unless the round has more.  The panels stay in (segment,
    t) order, children in their parent's place; the value is the sum of
    their K15 values and the error estimate the sum of their |K15 - G7|,
    both in that order, a heuristic estimate, not a bound.  For a vector
    integrand each component is held to ``rel_tol``
    times its own scale, the estimate bounds the summed |K15 - G7| of
    every component, and ``component_err`` holds each component's own.

    ``curve`` may also be a sequence of curves, each a tolerance group:
    the integrand is then called as ``integrand(points, normals, groups)``,
    ``groups`` holding each node's curve index, and every round still
    evaluates the new nodes of all groups together.  Each group refines and
    stops as its curve would alone, and ``groups`` of the result holds, per
    curve, exactly the result of integrating it alone; the result's value
    is the tuple of theirs, its estimate, panels and evaluations sum
    theirs, and it has converged where all of them have.  A curve without
    segments, or an empty sequence, raises ValueError.
    """
    _check_tol(rel_tol)
    grouped = not isinstance(curve, Curve)
    curves = tuple(curve) if grouped else (curve,)
    fn = integrand if grouped else (lambda p, n, _groups: integrand(p, n))
    groups = _adapt_panels(curves, fn, rel_tol)
    if not np.isfinite([total for total, *_ in groups]).all():
        raise QuadratureError("path integral produced a non-finite value")
    results = [IntegralResult(
        value=float(total[0]) if total.size == 1 else total,
        err_estimate=total_err,
        panels_used=t0.size,
        converged=total_err <= tol_eff,
        evals=evals,
        rounds=rounds,
        component_err=component_err,
    ) for total, total_err, tol_eff, t0, _, _, evals, rounds, component_err in groups]
    if not grouped:
        return results[0]
    return IntegralResult(
        value=tuple(r.value for r in results),
        err_estimate=sum(r.err_estimate for r in results),
        panels_used=sum(r.panels_used for r in results),
        converged=all(r.converged for r in results),
        evals=sum(r.evals for r in results),
        rounds=max(r.rounds for r in results),
        groups=tuple(results),
    )


# ---------------------------------------------------------------------------
# cell integration on vertical fibres
# ---------------------------------------------------------------------------


def _fibre_integrand(geom: GapGeometry, integrand, tau: np.ndarray, counter: list[int]):
    """Outer integrand over x: the Kronrod 7/15 pair on every fibre at once.

    Returns a path integrand giving, per outer node x, the Kronrod value of
    the y-integral over [h(x), L2], followed by |K15 - G7| on each template
    panel.  One outer call's fibre points reach ``integrand`` in slices of
    at most _NODE_CHUNK.
    """
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
        p = np.stack((np.broadcast_to(x[:, None], y.shape), y), axis=-1).reshape(-1, 2)
        f = np.concatenate([integrand(p[c:c + _NODE_CHUNK])
                            for c in range(0, p.shape[0], _NODE_CHUNK)]).reshape(y.shape)
        counter[0] += f.size
        value = (f * w_k).sum(axis=1, keepdims=True)
        diff = np.abs((f * w_diff).reshape(x.size, a.size, _K15_NODES.size).sum(axis=2))
        return length[:, None] * np.concatenate((value, diff), axis=1)

    return fibres


def _fibre_axis(geom: GapGeometry) -> Curve:
    """The x-axis from 0 to L1 of an integral over the quarter cell's fibres:
    straight across the gap, then x = eps/2 + A t^2 for t in [0, 1], which
    makes the chord h = B t sqrt(2 - t^2) analytic at its onset x = eps/2.
    The pair field varies on the scale eps there, so the root breaks are 0,
    eps/2 and x = eps/2 + eps 8^k, growing _OUTER_GRADING-fold, up to L1."""
    half, A = geom.eps / 2.0, geom.half_width
    xb = _graded_breaks(half, geom.L1, geom.eps, _OUTER_GRADING)
    gap = _line_segment((0.0, 0.0), (half, 0.0), (0.0, 1.0), breaks=(0.0, 1.0))
    beside = PathSegment("parabola", (half, A), tuple(math.sqrt((x - half) / A) for x in xb) + (1.0,))
    return Curve(segments=(gap, beside))


def integrate_cell(geom: GapGeometry, integrand, rel_tol: float) -> IntegralResult:
    """Integral of a scalar field over the matrix part of the quarter cell
    x >= 0, y >= 0.

    The cell is symmetric under x -> -x and y -> -y, so an integrand even
    in both has a quarter of its cell integral here; the cell integral of
    any other integrand is this integral of its four-fold symmetrization.
    Iterated quadrature on vertical fibres: the outer integral runs the
    adaptive path loop on ``_fibre_axis``, and at each outer node the inner
    integral covers [h(x), L2] with one panel template for every fibre, so
    each round hands all fibres to ``integrand`` as (n, 2) points in chunks
    of at most _NODE_CHUNK.
    Outer panels and template panels use the same Gauss-Kronrod 7/15 rule:
    the value is K15, and K15 contains the G7 nodes, so its estimate costs
    no extra points.

    The error estimate is the outer |K15 - G7| plus the outer-weighted
    inner |K15 - G7|.  The outer loop gets half of the tolerance; while
    the inner share exceeds the other half, the template panels carrying
    most of it are bisected and the outer integral is redone.  Integrands
    that jump inside the matrix converge only slowly this way; the dual
    fields are smooth there.
    """
    _check_tol(rel_tol)
    x_axis = _fibre_axis(geom)
    # fibre y = h + (L2 - h) tau: template panels start at sqrt(eps), the
    # pair field's y-scale at the gap, and grow up to half the fibre
    tau = np.asarray(_graded_breaks(0.0, 0.5, np.sqrt(geom.eps) / geom.L2, _FIBRE_GRADING) + [1.0])
    depth = np.zeros(tau.size - 1, dtype=np.int32)
    counter = [0]
    rounds = 0
    for _ in range(_MAX_FIBRE_ROUNDS):
        fibres = _fibre_integrand(geom, integrand, tau, counter)
        (total, outer_err, half_tol, x0, _, _, _, outer_rounds, _), = _adapt_panels(
            (x_axis,), lambda p, n, _groups: fibres(p, n), rel_tol / 2.0, n_est=1)
        rounds += outer_rounds
        if not np.all(np.isfinite(total)):
            raise QuadratureError("cell integral produced a non-finite value")
        panel_err = total[1:]
        inner_err = float(panel_err.sum())
        splittable = (depth < _MAX_DEPTH) & (panel_err > 0.0)
        if inner_err <= half_tol or not bool(np.any(splittable)):
            break
        # bisect the worst template panels until the rest fits in half the share
        split = np.zeros(depth.size, dtype=bool)
        split[_worst_panels(panel_err, splittable, inner_err - 0.5 * half_tol)] = True
        tau = np.sort(np.concatenate((tau, (tau[:-1][split] + tau[1:][split]) / 2.0)))
        depth = np.repeat(depth + split, np.where(split, 2, 1))
    total_err = outer_err + inner_err
    return IntegralResult(
        value=float(total[0]),
        err_estimate=total_err,
        panels_used=x0.size,
        converged=bool(total_err <= 2.0 * half_tol),
        evals=counter[0],
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# cumulative tabulation along a horizontal line
# ---------------------------------------------------------------------------


def cumulative_line_table(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                          rel_tol: float):
    """Tabulate F(x) = integral of ``fn`` from 0 to x over [lo, hi].

    ``fn`` maps (n,) positions to (n, m) values.  The path loop refines the
    x-axis from root panels split at 0, and the table sums its final panels
    outward from 0.  Returns (nodes, F (n, m), ``fn`` at the nodes (n, m),
    err), err being the path loop's summed embedded-pair estimate.
    """
    _check_tol(rel_tol)
    if not (lo <= 0.0 <= hi and lo < hi):
        raise ValueError(f"need lo < hi with 0 inside [lo, hi], got [{lo}, {hi}]")
    # a line whose parameter t is x itself
    axis = _line_segment((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), breaks=tuple(np.unique([lo, 0.0, hi])))
    (_, err, _, t0, t1, inc, _, _, _), = _adapt_panels(
        (Curve(segments=(axis,)),), lambda p, _n, _groups: fn(p[:, 0]), rel_tol)
    edges = np.append(t0, t1[-1])
    values = np.zeros((edges.size, inc.shape[1]))
    i0 = int(np.searchsorted(edges, 0.0))
    values[i0 + 1:] = np.cumsum(inc[i0:], axis=0)
    values[:i0] = -np.cumsum(inc[:i0][::-1], axis=0)[::-1]
    return edges, values, np.asarray(fn(edges), dtype=float).reshape(edges.size, -1), err
