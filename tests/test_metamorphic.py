"""Metamorphic tests: the invariances the bounds must have.

The energies under unit boundary loads are scale free in 2D: multiplying
the inclusion's semi-axes (or radius), the gap width and the cell
half-height by s leaves every bound, every term of the dual and every
identity of ``verify`` unchanged, while the dual correction sigma_c, a
stress, scales as 1/s.  Multiplying both Lame constants by c multiplies
every energy and sigma_c by c and divides the pair field's work, a
displacement times a unit traction, by c.  Both hold to rounding.

Most test cells have A = 1, where a term that should carry A^2 cannot be
told from one that carries A^0; the scale test moves A.
"""
from __future__ import annotations

import re

import numpy as np
import pytest

from gapstress import (Disk, Ellipse, LameMaterial, RunConfig, VerificationError,
                       dual_lower_loads, make_gap_geometry, pair_boundary_integral,
                       primal_upper, run_verify)
from gapstress.bounds import _dual_diagnostics, _Widths

EPS = 1e-3
SHAPES = {"disk": (lambda s: Disk(r0=s), 1.5), "ellipse": (lambda s: Ellipse(a=s, b=2.0 * s), 2.5)}
LOADS = (1, 2)


def _verify_lines(cfg: RunConfig) -> list[str]:
    try:
        return run_verify(cfg)
    except VerificationError as exc:
        return exc.lines


def _numbers(line: str) -> list[float]:
    return [float(v) for v in re.findall(r"[-+]?\d+\.\d+(?:e[-+]\d+)?", line)]


def _readings(shape: str, s: float = 1.0, c: float = 1.0) -> dict[str, tuple[float, float]]:
    """Every reading of the bounds, the diagnostics and ``verify`` on the
    cell scaled by s with the material scaled by c, as (value, the factor
    that makes it invariant)."""
    make_shape, L2 = SHAPES[shape]
    mat = LameMaterial(lam=c, mu=c)
    geom = make_gap_geometry(make_shape(s), s * EPS, s * L2)
    out = {}
    lower = dual_lower_loads([geom], mat, LOADS, 1e-6, 1e-8)[0]
    diagnostics = _dual_diagnostics(_Widths((geom,), mat), LOADS)[0]
    for j in LOADS:
        out[f"upper {j}"] = (primal_upper(geom, mat, j).value, 1.0 / c)
        out[f"lower {j}"] = (lower[j].value, 1.0 / c)
        out.update({f"{name} {j}": (v, 1.0 / c) for name, v in lower[j].terms.items()})
        d = diagnostics[j]
        out[f"asymmetry {j}"] = (d.asymmetry_max, s / c)
        # residuals of exact identities: rounding, read against their checks below
        out[f"edge traction {j}"] = (d.bc_residual, 0.0)
        out[f"divergence {j}"] = (d.div_residual, 0.0)
    pair = pair_boundary_integral(geom, mat, 1e-8).value
    for i, j, k in np.ndindex(pair.shape):
        out[f"pair {i + 1}{j + 1}{k + 1}"] = (pair[i, j, k], c if k == 2 else 1.0)
    cfg = RunConfig(material=mat, shape=make_shape(s), L2=s * L2, eps_list=(s * EPS,))
    for line in _verify_lines(cfg):
        name, _, detail = line[5:].partition(": ")
        values = _numbers(detail)
        if name.startswith("flux"):
            out[f"verify {name}"] = (values[0], 1.0)
        elif name.startswith("energy identity"):
            out[f"verify {name}"] = (values[0], 1.0)
            out[f"verify {name} raw"] = (values[1], c)
        elif name.startswith("asymmetry"):
            out[f"verify {name}"] = (values[0], s / c)
        out[f"verify {name} status"] = (float(line.startswith("ok")), 1.0)
    return out


def _assert_invariant(base: dict, other: dict, rel: float) -> None:
    assert base.keys() == other.keys()
    for key, (value, factor) in base.items():
        got, got_factor = other[key]
        if factor == 0.0:
            # a rounding residual stays a rounding residual
            assert max(value, got) <= 1e-12, key
        elif key.startswith("verify"):
            # printed to 6 or 9 places
            assert abs(got * got_factor - value * factor) <= 2e-6 * max(1.0, abs(value)), key
        else:
            assert abs(got * got_factor - value * factor) <= rel * max(abs(value), 1e-300) or (
                abs(value) < 1e-14 and abs(got * got_factor) < 1e-14), key


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("s", [0.37, 2.0])
def test_bounds_diagnostics_and_verify_are_scale_free(shape, s):
    _assert_invariant(_readings(shape), _readings(shape, s=s), 1e-13)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_bounds_scale_with_the_material(shape):
    _assert_invariant(_readings(shape), _readings(shape, c=3.0), 1e-14)
