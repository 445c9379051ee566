"""Whole-domain forms of the dual integrals, kept as test oracles.

``integrate_cell`` and the dual's path integrals cover one symmetry quarter
of the cell (one half of gamma_plus).  The forms here cover the whole
domain: the two-sided fibre integral over x in [-L1, L1] with each fibre
[h(x), L2] stacked with its mirror, and the matrix boundary made of all
eight pieces of ``boundary_curves``.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from gapstress import quadrature
from gapstress.geometry import (Curve, _graded_breaks, _line_segment, boundary_curves,
                                chord_halfheight)
from gapstress.quadrature import _K15_NODES, _RULE, IntegralResult

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
        chunk = quadrature._EVAL_CHUNK
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
        total, outer_err, half_tol, x0, *_ = quadrature._adapt_panels(
            x_axis, _mirrored_fibres(geom, integrand, tau, counter), rel_tol / 2.0, n_est=1)
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
