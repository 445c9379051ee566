"""Sweep orchestration: effective moduli, asymptotic comparison, CSV output.

A sweep evaluates both bounds for each (eps, j), converts the two gap
energies into effective-modulus intervals, and fits the bound series against
c1/sqrt(eps) + c0 to compare the fitted constants with the closed-form
leading coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# build_dual_stress and dual_lower stay bound for gapbench's tracer
from .bounds import (  # noqa: F401
    REL_TOL_CELL,
    REL_TOL_PATH,
    Diagnostics,
    _dual_diagnostics,
    _pair_boundary_integral,
    _Widths,
    build_dual_stress,
    dual_lower,
    dual_lower_loads,
    m_constant,
    primal_upper,
)
from .elasticity import LameMaterial, derived_constants
from .geometry import Disk, Ellipse, GapGeometry, InclusionShape, make_gap_geometry

__all__ = [
    "ConfigError",
    "VerificationError",
    "RunConfig",
    "SweepRow",
    "SeriesFit",
    "CSV_HEADER",
    "parse_config",
    "effective_moduli",
    "fk_asymptotic",
    "compute_sweep_row",
    "compute_width_rows",
    "sweep_and_fit",
    "rows_to_csv",
    "write_csv",
    "run_verify",
]

# gap widths a sweep process must take over to repay its start-up
_WIDTHS_PER_PROCESS = 32

CSV_HEADER = ("eps,j,upper,lower,upper_scaled,lower_scaled,fk_constant,"
              "asymmetry_max,bc_residual,div_residual,quad_err,converged")


class ConfigError(Exception):
    """Unusable run configuration (bad file, bad key, bad value)."""


class VerificationError(Exception):
    """One or more identity checks failed; ``lines`` is the report of every
    check, as ``run_verify`` would have returned it."""

    def __init__(self, message: str, lines: list[str] | None = None) -> None:
        super().__init__(message)
        self.lines = lines or []


@dataclass(frozen=True)
class RunConfig:
    material: LameMaterial
    shape: InclusionShape
    L2: float
    eps_list: tuple[float, ...]
    rel_tol_cell: float = REL_TOL_CELL
    rel_tol_path: float = REL_TOL_PATH
    out: str | None = None

    def __post_init__(self) -> None:
        if not self.eps_list:
            raise ConfigError("eps_list must not be empty")
        # a nan would survive the sort below and reach the rows
        for e in self.eps_list:
            if not (np.isfinite(e) and e > 0.0):
                raise ConfigError(f"every eps must be finite and positive, got {e}")
        # a zero tolerance would refine until the budget caps
        for name in ("rel_tol_cell", "rel_tol_path"):
            tol = getattr(self, name)
            if not (np.isfinite(tol) and tol > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {tol}")
        ordered = tuple(sorted(set(self.eps_list), reverse=True))
        if ordered != tuple(self.eps_list):
            object.__setattr__(self, "eps_list", ordered)


_REQUIRED_KEYS = {"lambda", "mu", "shape", "L2", "eps_list"}
_KNOWN_KEYS = _REQUIRED_KEYS | {"r0", "A", "B", "rel_tol_cell", "rel_tol_path", "out"}


def parse_config(path: str | Path) -> RunConfig:
    """Read a flat ``key = value`` file with # comments into a RunConfig."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        entries[key] = value

    missing = sorted(_REQUIRED_KEYS - entries.keys())
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    def as_float(key: str) -> float:
        try:
            return float(entries[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r} is not a number: {entries[key]!r}") from exc

    try:
        material = LameMaterial(lam=as_float("lambda"), mu=as_float("mu"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    kind = entries["shape"].lower()
    stray = [k for k in {"disk": ("A", "B"), "ellipse": ("r0",)}.get(kind, ()) if k in entries]
    if stray:
        raise ConfigError(f"{path}: shape={kind} takes no {', '.join(map(repr, stray))}")
    try:
        if kind == "disk":
            if "r0" not in entries:
                raise ConfigError(f"{path}: shape=disk requires r0")
            shape: InclusionShape = Disk(r0=as_float("r0"))
        elif kind == "ellipse":
            if "A" not in entries or "B" not in entries:
                raise ConfigError(f"{path}: shape=ellipse requires A and B")
            shape = Ellipse(a=as_float("A"), b=as_float("B"))
        else:
            raise ConfigError(f"{path}: shape must be 'disk' or 'ellipse', got {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    eps_raw = entries["eps_list"].replace(",", " ").split()
    try:
        eps_list = tuple(float(tok) for tok in eps_raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: eps_list is not a list of numbers") from exc

    L2 = as_float("L2")
    # absent tolerances take RunConfig's defaults
    tols = {k: as_float(k) for k in ("rel_tol_cell", "rel_tol_path") if k in entries}
    try:
        cfg = RunConfig(material=material, shape=shape, L2=L2, eps_list=eps_list,
                        out=entries.get("out"), **tols)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # build one geometry now so dimension errors surface as config errors
    try:
        make_gap_geometry(cfg.shape, cfg.eps_list[0], cfg.L2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# moduli assembly
# ---------------------------------------------------------------------------


def effective_moduli(geom: GapGeometry, mat: LameMaterial,
                     e1_bounds: tuple[float, float],
                     e2_bounds: tuple[float, float]) -> dict[str, tuple[float, float]]:
    """Intervals for the effective extensional and shear moduli.

    E* carries the plane-strain prefactor times L1/L2; mu* only the aspect
    factor.  Bounds map monotonically, so intervals map to intervals.
    """
    dc = derived_constants(mat)
    aspect = geom.L1 / geom.L2
    ce = dc.prefactor * aspect
    return {
        "E_star": (ce * e1_bounds[0], ce * e1_bounds[1]),
        "mu_star": (aspect * e2_bounds[0], aspect * e2_bounds[1]),
    }


def fk_asymptotic(geom: GapGeometry, mat: LameMaterial) -> dict[str, float]:
    """Leading-order effective moduli of the dense-packing asymptotics."""
    dc = derived_constants(mat)
    aspect = geom.L1 / geom.L2
    lead = np.pi / (np.sqrt(geom.kappa0) * np.sqrt(geom.eps))
    return {
        "E_star_leading": dc.E * aspect * lead,
        "mu_star_leading": mat.mu * aspect * lead,
    }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    eps: float
    j: int
    upper: float
    lower: float
    upper_scaled: float
    lower_scaled: float
    fk_constant: float
    modulus_interval: tuple[float, float]
    diagnostics: Diagnostics
    quad_err: float
    converged: bool = True

    def csv_line(self) -> str:
        d = self.diagnostics
        vals = (self.eps, self.upper, self.lower, self.upper_scaled,
                self.lower_scaled, self.fk_constant, d.asymmetry_max,
                d.bc_residual, d.div_residual, self.quad_err)
        txt = [f"{vals[0]:.17g}", str(self.j)]
        txt += [f"{v:.17g}" for v in vals[1:]]
        txt.append("1" if self.converged else "0")
        return ",".join(txt)


def _check_loads(loads: tuple[int, ...]) -> tuple[int, ...]:
    """The loads sorted and without repeats; at least one is required, and
    each must be 1 or 2."""
    if not loads:
        raise ConfigError(f"at least one load is required, got loads={loads!r}")
    if not set(loads) <= {1, 2}:
        raise ConfigError(f"every load must be 1 or 2, got loads={loads!r}")
    return tuple(sorted(set(loads)))


def compute_width_rows(cfg: RunConfig, widths: tuple[float, ...],
                       loads: tuple[int, ...]) -> list[SweepRow]:
    """The sweep rows of the given loads at the given gap widths, width by
    width in the given order and j ascending within a width.  All rows
    share each dual path integral (``dual_lower_loads``, a tolerance group
    per width and a component per load) and one diagnostics evaluation;
    each row is the one it would be alone."""
    loads = _check_loads(loads)
    geoms = [make_gap_geometry(cfg.shape, eps, cfg.L2) for eps in widths]
    lowers = dual_lower_loads(geoms, cfg.material, loads, cfg.rel_tol_cell, cfg.rel_tol_path)
    diagnostics = _dual_diagnostics(_Widths(geoms, cfg.material), loads)
    rows = []
    for eps, geom, lower, diagnostic in zip(widths, geoms, lowers, diagnostics):
        root = np.sqrt(eps)
        for j in loads:
            up, lo = primal_upper(geom, cfg.material, j), lower[j]
            # widen by the quadrature errors so the interval holds whatever
            # the exact test-field energies are
            bracket = (lo.value - lo.quadrature_err, up.value + up.quadrature_err)
            interval_pair = effective_moduli(geom, cfg.material, bracket, bracket)
            rows.append(SweepRow(
                eps=eps, j=j, upper=up.value, lower=lo.value, upper_scaled=up.value * root,
                lower_scaled=lo.value * root, fk_constant=m_constant(geom, cfg.material, j),
                modulus_interval=interval_pair["E_star" if j == 1 else "mu_star"],
                diagnostics=diagnostic[j], quad_err=up.quadrature_err + lo.quadrature_err,
                converged=up.converged and lo.converged))
    return rows


def compute_sweep_row(cfg: RunConfig, eps: float, j: int) -> SweepRow:
    """The sweep row of load j at one gap width: ``compute_width_rows`` with
    (eps,) and (j,)."""
    return compute_width_rows(cfg, (eps,), (j,))[0]


@dataclass(frozen=True)
class SeriesFit:
    c1: float
    c0: float
    residual: float
    rel_dev: float


def _fit_series(eps: np.ndarray, values: np.ndarray, targets) -> list[SeriesFit]:
    """Fit each column of ``values`` (n, m) against (1/sqrt(eps), 1) by one
    least-squares solve, and compare its c1 with that column's target."""
    design = np.stack((1.0 / np.sqrt(eps), np.ones_like(eps)), axis=-1)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    fits = []
    for k, target in enumerate(targets):
        resid = values[:, k] - design @ coef[:, k]
        c1 = float(coef[0, k])
        fits.append(SeriesFit(c1=c1, c0=float(coef[1, k]),
                              residual=math.sqrt((resid * resid).sum() / resid.size),
                              rel_dev=abs(c1 - target) / target))
    return fits


def sweep_and_fit(cfg: RunConfig, workers: int = 1, loads: tuple[int, ...] = (1, 2)
                  ) -> tuple[list[SweepRow], dict[int, dict[str, SeriesFit]]]:
    """Compute the sweep rows of the given loads (eps descending, j
    ascending) and fit both bound series per j against (1/sqrt(eps), 1).

    The rows of all widths are computed together (``compute_width_rows``),
    or in a pool of at most ``workers`` processes and at most one per
    _WIDTHS_PER_PROCESS widths, each computing one share of the widths in
    one call; a process costs about as much to start as many widths take,
    so short sweeps run serially in this process.
    """
    if len(cfg.eps_list) < 3:
        raise ConfigError("a sweep needs at least 3 gap widths for the fit")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    loads = _check_loads(loads)
    n = len(cfg.eps_list)
    workers = min(workers, n // _WIDTHS_PER_PROCESS)
    if workers > 1:
        size = -(-n // workers)
        shares = [cfg.eps_list[k:k + size] for k in range(0, n, size)]
        # imported here: it loads logging and the futures package, which an
        # import of this module and every serial sweep would otherwise pay for
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(compute_width_rows, [cfg] * len(shares), shares,
                             [loads] * len(shares))
            rows = [row for part in parts for row in part]
    else:
        rows = compute_width_rows(cfg, cfg.eps_list, loads)

    # the rows run width by width, each with its loads, so column k holds
    # load loads[k // 2], upper then lower, over the widths
    eps = np.array(cfg.eps_list)
    values = np.array([(r.upper, r.lower) for r in rows]).reshape(n, -1)
    fits = _fit_series(eps, values, [t for r in rows[:len(loads)] for t in (r.fk_constant,) * 2])
    return rows, {j: {"upper": fits[2 * k], "lower": fits[2 * k + 1]} for k, j in enumerate(loads)}


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    lines += [r.csv_line() for r in rows]
    return "\n".join(lines) + "\n"


def write_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Single-shot write so a failed sweep never leaves a partial file."""
    text = rows_to_csv(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def run_verify(cfg: RunConfig, eps: float | None = None) -> list[str]:
    """Identity checks at one gap width; raises VerificationError, carrying
    the report lines, on failure.

    Returns the per-check report lines (also useful for logging).  The flux
    identity is exact, the energy identity has an O(sqrt(eps)) correction,
    so its corridor is wider; the diagnostics thresholds match the dual
    construction guarantees.
    """
    if eps is None:
        eps = cfg.eps_list[0]
    # one kernel context serves the pair integral and the diagnostics
    widths = _Widths((make_gap_geometry(cfg.shape, eps, cfg.L2),), cfg.material)
    geom, ctx = widths.at(0)
    lines: list[str] = []
    failures: list[str] = []

    def record(name: str, ok: bool, detail: str) -> None:
        status = "ok" if ok else "FAIL"
        lines.append(f"{status:4s} {name}: {detail}")
        if not ok:
            failures.append(name)

    # entry [i - 1][j - 1] is [flux k=1, flux k=2, work] of q_j on inclusion boundary i
    pair = _pair_boundary_integral(geom, ctx, cfg.rel_tol_path).value.tolist()

    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                got = pair[i - 1][j - 1][k - 1]
                want = (-1.0) ** i * (1.0 if j == k else 0.0)
                err = abs(got - want)
                record(f"flux i={i} j={j} k={k}", err <= 1e-6,
                       f"value {got:+.9f}, expected {want:+.0f}, |err| {err:.2e}")

    for j in (1, 2):
        raw = pair[0][j - 1][2] + pair[1][j - 1][2]
        mj = m_constant(geom, cfg.material, j)
        norm = mj * raw / np.sqrt(eps)
        record(f"energy identity j={j}", 0.9 <= norm <= 1.1 and raw > 0.0,
               f"normalized {norm:.6f} (raw {raw:.6e})")

    (diagnostics,) = _dual_diagnostics(widths, (1, 2))
    for j in (1, 2):
        d = diagnostics[j]
        record(f"edge traction j={j}", d.bc_residual <= cfg.rel_tol_path,
               f"max |sigma n| on y=+-L2 is {d.bc_residual:.2e}")
        record(f"divergence j={j}", d.div_residual <= 1e-5,
               f"relative residual {d.div_residual:.2e}")
        lines.append(f"info asymmetry j={j}: max |c12 - c21| = {d.asymmetry_max:.6f}")

    if failures:
        raise VerificationError(
            f"{len(failures)} verification check(s) failed: " + ", ".join(failures), lines)
    return lines
