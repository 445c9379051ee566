"""Correctness gates applied to every result the benchmark times.

A sweep row is certified only if it passes every gate below.  For
``run_verify`` each of its identity checks is one result, certified unless the
``VerificationError`` the call raises names it.  The gates are
independent of the quadrature that produced the row: gate (c) compares with a
primal reference computed by ``scipy.integrate.quad`` from the public
``KellerProfile``.

  (a) the call raised, or a reported value is not finite;
  (b) the sandwich is broken: lower - quad_err > upper + quad_err;
  (c) the upper bound is on the unsafe side: upper + quad_err < reference;
  (d) eps <= 1e-4 and a scaled bound leaves its acceptance band
      (upper in [0.98, 1.05] m_j, lower in [0.95, 1.02] m_j);
  (e) disk sweep only: a fitted leading coefficient is more than 3% off m_j.

Gate failures that the seed commit already has are listed in KNOWN_DEFECTS.
They are counted like any other failure; the list only decides whether the
run as a whole reads as correct, i.e. whether the program got worse.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from gapstress import KellerProfile, make_gap_geometry

BAND_EPS = 1e-4
UPPER_BAND = (0.98, 1.05)
LOWER_BAND = (0.95, 1.02)
FIT_REL_TOL = 0.03

# (config, j, gate) for rows, ("verify", config, check) for run_verify calls
KNOWN_DEFECTS = frozenset({
    # ROADMAP open item 2: the ellipse dual field breaks the sandwich for j=2
    ("ellipse", 2, "b"),
    # the normalized pair-field energy has an O(sqrt(eps)) correction that
    # leaves the 10% corridor at the wider gaps, on both shapes
    ("verify", "disk", "energy identity j=1"),
    ("verify", "ellipse", "energy identity j=1"),
    # at roughly a quarter of the gap widths between the shipped ones the
    # finite-difference divergence residual of the dual field reads ~1.0,
    # far above its 1e-5 limit; the shipped widths themselves pass
    ("verify", "disk", "divergence j=1"),
    ("verify", "disk", "divergence j=2"),
    ("verify", "ellipse", "divergence j=1"),
    ("verify", "ellipse", "divergence j=2"),
})


def primal_reference(geom, mat, j: int) -> float:
    """Keller primal energy as the 1D integral
    E_j = 2 int_0^L2 [a / (2X) + b X'^2 / (6X)] dy,
    (a, b) = (lam + 2 mu, mu) for j=1 and swapped for j=2."""
    prof = KellerProfile(geom)
    a, b = mat.lam + 2.0 * mat.mu, mat.mu
    if j == 2:
        a, b = b, a

    def density(y: float) -> float:
        X = float(prof.halfwidth(y))
        Xp = float(prof.halfwidth_deriv(y))
        return a / (2.0 * X) + b * Xp * Xp / (6.0 * X)

    breaks = {geom.L}
    step = math.sqrt(geom.eps)
    while step < geom.L2:
        breaks.add(step)
        step *= 2.0
    breaks = sorted(p for p in breaks if 0.0 < p < geom.L2)
    value, _ = integrate.quad(density, 0.0, geom.L2, points=breaks, limit=1000,
                              epsabs=0.0, epsrel=1e-13)
    return 2.0 * value


def row_gates(row, reference: float) -> list[str]:
    """Letters of gates (a)-(d) that a SweepRow fails."""
    d = row.diagnostics
    values = (row.upper, row.lower, row.upper_scaled, row.lower_scaled,
              row.fk_constant, row.quad_err, d.asymmetry_max, d.bc_residual,
              d.div_residual)
    if not all(math.isfinite(v) for v in values):
        return ["a"]
    failed = []
    if row.lower - row.quad_err > row.upper + row.quad_err:
        failed.append("b")
    if row.upper + row.quad_err < reference:
        failed.append("c")
    if row.eps <= BAND_EPS:
        up = row.upper_scaled / row.fk_constant
        lo = row.lower_scaled / row.fk_constant
        if not (UPPER_BAND[0] <= up <= UPPER_BAND[1]
                and LOWER_BAND[0] <= lo <= LOWER_BAND[1]):
            failed.append("d")
    return failed


def fit_gate_loads(rows) -> set[int]:
    """Loads j whose upper or lower series, fitted here against
    c1/sqrt(eps) + c0, puts c1 more than 3% off m_j (gate e)."""
    bad = set()
    for j in (1, 2):
        sel = [r for r in rows if r.j == j]
        eps = np.array([r.eps for r in sel])
        design = np.stack((1.0 / np.sqrt(eps), np.ones_like(eps)), axis=-1)
        for values in ([r.upper for r in sel], [r.lower for r in sel]):
            coef, *_ = np.linalg.lstsq(design, np.array(values), rcond=None)
            target = sel[0].fk_constant
            if not abs(coef[0] - target) <= FIT_REL_TOL * target:
                bad.add(j)
    return bad


def certify_rows(config: str, cfg, rows, fit_gate: bool = False) -> list[dict]:
    """Gate records for the rows of one call; ``rows`` holds SweepRows."""
    bad_loads = fit_gate_loads(rows) if fit_gate else set()
    out = []
    for r in rows:
        geom = make_gap_geometry(cfg.shape, r.eps, cfg.L2)
        ref = primal_reference(geom, cfg.material, r.j)
        failed = row_gates(r, ref)
        if r.j in bad_loads and "a" not in failed:
            failed.append("e")
        out.append({"config": config, "eps": r.eps, "j": r.j, "gates": failed,
                    "upper": r.upper, "lower": r.lower, "quad_err": r.quad_err,
                    "reference": ref})
    return out


def failed_record(config: str, eps: float, j: int | None, error: str) -> dict:
    """Gate (a) record for a call that raised."""
    return {"config": config, "eps": eps, "j": j, "gates": ["a"], "error": error}


def verify_record(config: str, eps: float, failed_checks: list[str], n_checks: int) -> dict:
    """Record of one run_verify call, which stands for ``n_checks`` results."""
    return {"config": config, "eps": eps, "j": None, "n": n_checks,
            "gates": ["verify"] if failed_checks else [], "checks": failed_checks}


def unknown_failures(records: list[dict]) -> list[dict]:
    """Records failing in a way the seed commit does not already fail."""
    out = []
    for rec in records:
        for gate in rec["gates"]:
            if gate == "verify":
                known = all(("verify", rec["config"], c) in KNOWN_DEFECTS
                            for c in rec["checks"])
            else:
                known = (rec["config"], rec["j"], gate) in KNOWN_DEFECTS
            if not known:
                out.append(rec)
                break
    return out
