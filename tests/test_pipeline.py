"""Config parsing, sweep orchestration, CSV output, CLI exit codes."""
from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapstress import (
    CSV_HEADER,
    REL_TOL_CELL,
    REL_TOL_PATH,
    ConfigError,
    Disk,
    Ellipse,
    LameMaterial,
    QuadratureError,
    RunConfig,
    SymTensor2,
    VerificationError,
    build_dual_stress,
    compute_sweep_row,
    compute_width_rows,
    effective_moduli,
    fk_asymptotic,
    make_gap_geometry,
    parse_config,
    rows_to_csv,
    run_verify,
    sweep_and_fit,
    write_csv,
)
from gapstress import bounds, cli, geometry, pipeline, quadrature
from gapstress.kernels import KernelContext
from gapstress.pipeline import _fit_series
from gapstress.quadrature import integrate_path

from conftest import UNIT, disk_geometry

SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOOD_CONFIG = """\
# disk benchmark
lambda = 1.0
mu = 1.0
shape = disk
r0 = 1.0
L2 = 1.5

eps_list = 1e-2, 1e-3   # two decades
rel_tol_cell = 1e-3
rel_tol_path = 1e-6
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(GOOD_CONFIG)
    return p


def test_parse_config_roundtrip(config_file):
    cfg = parse_config(config_file)
    assert cfg.material == LameMaterial(lam=1.0, mu=1.0)
    assert cfg.shape == Disk(r0=1.0)
    assert cfg.L2 == 1.5
    assert cfg.eps_list == (1e-2, 1e-3)
    assert cfg.rel_tol_cell == 1e-3
    assert cfg.rel_tol_path == 1e-6
    assert cfg.out is None


def test_parse_config_sorts_eps_descending(tmp_path):
    p = tmp_path / "o.cfg"
    p.write_text(GOOD_CONFIG.replace("1e-2, 1e-3", "1e-4 1e-2 1e-3 1e-2"))
    cfg = parse_config(p)
    assert cfg.eps_list == (1e-2, 1e-3, 1e-4)


@pytest.mark.parametrize(
    "mutate",
    # each input, and the ConfigError message it must raise
    [
        lambda s: (s.replace("mu = 1.0\n", ""), "missing required keys: mu"),
        lambda s: (s + "colour = blue\n", ":11: unknown key 'colour'"),
        lambda s: (s + "mu = 2.0\n", ":11: duplicate key 'mu'"),
        lambda s: (s.replace("mu = 1.0", "mu = fast"), "key 'mu' is not a number: 'fast'"),
        lambda s: (s.replace("shape = disk", "shape = square"),
                   "shape must be 'disk' or 'ellipse', got 'square'"),
        lambda s: (s.replace("r0 = 1.0\n", ""), "shape=disk requires r0"),
        lambda s: (s.replace("1e-2, 1e-3", ""), ":8: empty value for 'eps_list'"),
        lambda s: (s.replace("1e-2, 1e-3", "1e-2, -1e-3"),
                   "every eps must be finite and positive, got -0.001"),
        lambda s: (s.replace("L2 = 1.5", "L2 = 0.5"),
                   "cell half-height L2=0.5 must exceed the inclusion half-height 1.0"),
        lambda s: (s.replace("mu = 1.0", "mu"), ":3: expected 'key = value', got 'mu'"),
        lambda s: (s + "A = 3\nB = 3\n", "shape=disk takes no 'A', 'B'"),
        lambda s: (s.replace("disk", "ellipse") + "A = 1\nB = 0.8\n",
                   "shape=ellipse takes no 'r0'"),
    ],
)
def test_parse_config_rejections(tmp_path, mutate):
    p = tmp_path / "bad.cfg"
    text, message = mutate(GOOD_CONFIG)
    p.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{p}") + ".*" + re.escape(message)):
        parse_config(p)


@pytest.mark.parametrize("shape,keys,message", [
    ("disk", "r0 = 1.0\nA = 3\nB = 3", "shape=disk takes no 'A', 'B'"),
    ("ellipse", "r0 = 5\nA = 1.0\nB = 0.8", "shape=ellipse takes no 'r0'"),
], ids=["disk", "ellipse"])
def test_parse_config_names_the_other_shapes_keys(tmp_path, shape, keys, message):
    # they used to be dropped silently: Disk(r0=1.0), or an ellipse without r0
    p = tmp_path / "stray.cfg"
    p.write_text(GOOD_CONFIG.replace("shape = disk\nr0 = 1.0", f"shape = {shape}\n{keys}"))
    with pytest.raises(ConfigError, match=message):
        parse_config(p)


def test_parse_config_ellipse_needs_axes(tmp_path):
    p = tmp_path / "e.cfg"
    p.write_text(GOOD_CONFIG.replace("shape = disk\nr0 = 1.0", "shape = ellipse\nA = 1.0"))
    with pytest.raises(ConfigError):
        parse_config(p)
    p.write_text(
        GOOD_CONFIG.replace("shape = disk\nr0 = 1.0", "shape = ellipse\nA = 1.0\nB = 0.8")
    )
    cfg = parse_config(p)
    assert cfg.shape == Ellipse(a=1.0, b=0.8)


def test_parse_config_defaults_the_tolerances(tmp_path):
    p = tmp_path / "bare.cfg"
    p.write_text("".join(line for line in GOOD_CONFIG.splitlines(keepends=True)
                         if not line.startswith("rel_tol")))
    cfg = parse_config(p)
    assert (cfg.rel_tol_cell, cfg.rel_tol_path) == (REL_TOL_CELL, REL_TOL_PATH)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=())
    with pytest.raises(ConfigError):
        RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2, 0.0))
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-3, 1e-2, 1e-3))
    assert cfg.eps_list == (1e-2, 1e-3)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_eps_exits_2_before_any_row(value, monkeypatch, tmp_path, capsys):
    # a nan used to sort last and fail only after the other rows were computed
    p = tmp_path / "eps.cfg"
    p.write_text(GOOD_CONFIG.replace("1e-2, 1e-3", f"1e-2 {value} 1e-3 1e-4"))
    calls = []
    for module in (pipeline, cli):
        monkeypatch.setattr(module, "compute_width_rows", lambda *a: calls.append(a))
    for command in ("sweep", "bounds"):
        assert cli.main([command, "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {p}: every eps")
    assert calls == []


@pytest.mark.parametrize("config,key,value", [
    ("disk", "lambda", "1.0"),
    ("disk", "mu", "1.0"),
    ("disk", "L2", "1.5"),
    ("ellipse", "A", "1.0"),
])
def test_cli_non_finite_dimension_exits_2_before_any_row(config, key, value, monkeypatch,
                                                         tmp_path, capsys):
    # these used to pass validation and fail in the first path integral (exit 3)
    text = (SHIPPED_CONFIGS / f"{config}.cfg").read_text()
    assert text.count(f"\n{key} = {value}\n") == 1
    p = tmp_path / f"{config}.cfg"
    p.write_text(text.replace(f"\n{key} = {value}\n", f"\n{key} = inf\n"))
    monkeypatch.chdir(tmp_path)
    calls = []
    for module in (pipeline, cli):
        monkeypatch.setattr(module, "compute_width_rows", lambda *a: calls.append(a))
    assert cli.main(["bounds", "--config", str(p), "--eps", "1e-3"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {p}: ")
    assert calls == []


def test_cli_bounds_eps_keeps_the_config_tolerances(config_file, monkeypatch, tmp_path):
    seen = []
    rows_fn = cli.compute_width_rows

    def recording(cfg, widths, loads):
        seen.append(cfg)
        return rows_fn(cfg, widths, loads)

    monkeypatch.setattr(cli, "compute_width_rows", recording)
    assert cli.main(["bounds", "--config", str(config_file), "--eps", "1e-2", "--j", "2",
                     "--out", str(tmp_path / "b.csv")]) == 0
    (cfg,) = seen
    assert (cfg.rel_tol_cell, cfg.rel_tol_path) == (1e-3, 1e-6)
    assert cfg == dataclasses.replace(parse_config(config_file), eps_list=(1e-2,))


@pytest.mark.parametrize("option", [["--out", "v.csv"], ["--j", "2"]])
def test_cli_verify_rejects_unused_options(option, config_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(config_file), *option])
    assert exc.value.code == 2
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("key", ["rel_tol_cell", "rel_tol_path"])
@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf, -1e-3])
def test_run_config_rejects_unusable_tolerance(key, tol):
    with pytest.raises(ConfigError, match=key):
        RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,), **{key: tol})


@pytest.mark.parametrize("value", ["0", "nan"])
def test_cli_zero_or_nan_tolerance_exits_2(tmp_path, capsys, value):
    # a zero cell tolerance used to refine until the budget caps
    p = tmp_path / "tol.cfg"
    p.write_text(GOOD_CONFIG.replace("rel_tol_cell = 1e-3", f"rel_tol_cell = {value}"))
    rc = cli.main(["bounds", "--config", str(p), "--j", "1", "--eps", "1e-2",
                   "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "rel_tol_cell" in capsys.readouterr().err


def test_parse_config_tolerance_error_names_the_file(tmp_path):
    p = tmp_path / "tol.cfg"
    p.write_text(GOOD_CONFIG.replace("rel_tol_cell = 1e-3", "rel_tol_cell = 0"))
    with pytest.raises(ConfigError, match=re.escape(f"{p}: rel_tol_cell")):
        parse_config(p)


def test_effective_moduli_intervals():
    g = disk_geometry(1e-4)
    mod = effective_moduli(g, UNIT, e1_bounds=(10.0, 12.0), e2_bounds=(4.0, 5.0))
    aspect = g.L1 / g.L2
    pre = 5.0 / 6.0
    assert mod["E_star"] == pytest.approx((pre * aspect * 10.0, pre * aspect * 12.0), rel=1e-14)
    assert mod["mu_star"] == pytest.approx((aspect * 4.0, aspect * 5.0), rel=1e-14)


def test_effective_moduli_linear_in_aspect():
    m_a = effective_moduli(disk_geometry(1e-4, L2=1.5), UNIT, (1.0, 1.0), (1.0, 1.0))
    m_b = effective_moduli(disk_geometry(1e-4, L2=3.0), UNIT, (1.0, 1.0), (1.0, 1.0))
    assert m_b["mu_star"][0] == pytest.approx(0.5 * m_a["mu_star"][0], rel=1e-14)
    assert m_b["E_star"][1] == pytest.approx(0.5 * m_a["E_star"][1], rel=1e-14)


def test_fk_asymptotic_unit_disk():
    g = disk_geometry(1e-4)
    lead = fk_asymptotic(g, UNIT)
    oracle_mu = 1.0 * (g.L1 / g.L2) * math.pi / (1.0 * math.sqrt(1e-4))
    assert lead["mu_star_leading"] == pytest.approx(oracle_mu, rel=1e-14)
    assert lead["mu_star_leading"] == pytest.approx(209.45, rel=1e-4)
    assert lead["E_star_leading"] / lead["mu_star_leading"] == pytest.approx(2.5, rel=1e-12)


def test_fk_asymptotic_curvature_quadrupling_halves_leading():
    flat = make_gap_geometry(Ellipse(a=1.0, b=1.0), eps=1e-4, L2=1.5)
    curved = make_gap_geometry(Ellipse(a=1.0, b=0.5), eps=1e-4, L2=1.5)
    assert curved.kappa0 == pytest.approx(4.0 * flat.kappa0, rel=1e-14)
    r = fk_asymptotic(curved, UNIT)["mu_star_leading"] / fk_asymptotic(flat, UNIT)["mu_star_leading"]
    assert r == pytest.approx(0.5, rel=1e-12)


def test_fit_series_recovers_synthetic_coefficients():
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    values = 7.0 / np.sqrt(eps) + 3.0
    (fit,) = _fit_series(eps, values[:, None], [7.0])
    assert fit.c1 == pytest.approx(7.0, rel=1e-12)
    assert fit.c0 == pytest.approx(3.0, rel=1e-9)
    assert fit.residual <= 1e-9
    assert fit.rel_dev <= 1e-12


def test_csv_layout_and_roundtrip():
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    row = compute_sweep_row(cfg, 1e-2, 2)
    text = rows_to_csv([row])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "eps,j,upper,lower,upper_scaled,lower_scaled,fk_constant,"
        "asymmetry_max,bc_residual,div_residual,quad_err,converged"
    )
    assert text.endswith("\n") and "\r" not in text
    fields = lines[1].split(",")
    assert len(fields) == 12
    assert float(fields[0]) == 1e-2
    assert int(fields[1]) == 2
    assert float(fields[2]) == row.upper
    assert float(fields[3]) == row.lower
    assert float(fields[4]) == row.upper * math.sqrt(1e-2)
    assert float(fields[6]) == math.pi
    assert row.converged and fields[11] == "1"


def test_sweep_row_deterministic():
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    r1 = compute_sweep_row(cfg, 1e-2, 1)
    r2 = compute_sweep_row(cfg, 1e-2, 1)
    assert r1.csv_line() == r2.csv_line()


@pytest.mark.parametrize("config", ["disk", "ellipse"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
def test_width_rows_match_the_one_load_rows(config, eps):
    # the loads of a width share the panels of each dual path integral and
    # each keeps its own component's error estimate, so where the shared
    # panels are the one-load panels the rows are the one-load rows, and
    # elsewhere the lowers agree within the row's error estimate
    base = parse_config(SHIPPED_CONFIGS / f"{config}.cfg")
    for rel_tol_cell in (base.rel_tol_cell, 1e-3):
        cfg = dataclasses.replace(base, rel_tol_cell=rel_tol_cell)
        rows = compute_width_rows(cfg, (eps,), (1, 2))
        assert [r.j for r in rows] == [1, 2]
        for two in rows:
            one = compute_sweep_row(cfg, eps, two.j)
            exact = [(r.upper.hex(), r.converged, [v.hex() for v in dataclasses.astuple(
                r.diagnostics)]) for r in (one, two)]
            assert exact[0] == exact[1]
            if two.lower == one.lower:
                assert two.csv_line() == one.csv_line(), (rel_tol_cell, two.j)
            else:
                assert abs(two.lower - one.lower) <= one.quad_err, (rel_tol_cell, two.j)
                assert abs(two.quad_err - one.quad_err) <= one.quad_err, (rel_tol_cell, two.j)


def test_width_rows_share_the_integrals_and_the_diagnostics(monkeypatch):
    calls = {"path": 0, "diagnostics": [], "build_dual_stress": 0}
    diagnostics = pipeline._dual_diagnostics

    def counted_path(*args):
        calls["path"] += 1
        return integrate_path(*args)

    def counted_diagnostics(widths, loads):
        calls["diagnostics"].append(loads)
        return diagnostics(widths, loads)

    def counted_build(*args):
        calls["build_dual_stress"] += 1
        return build_dual_stress(*args)

    monkeypatch.setattr(bounds, "integrate_path", counted_path)
    monkeypatch.setattr(pipeline, "_dual_diagnostics", counted_diagnostics)
    monkeypatch.setattr(pipeline, "build_dual_stress", counted_build)
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-3,),
                    rel_tol_cell=1e-3, rel_tol_path=1e-6)
    # q_ss and q_c, each one path integral for both loads
    assert [r.j for r in compute_width_rows(cfg, (1e-3,), (1, 2))] == [1, 2]
    assert calls == {"path": 2, "diagnostics": [(1, 2)], "build_dual_stress": 0}
    assert compute_sweep_row(cfg, 1e-3, 2).j == 2
    assert calls == {"path": 4, "diagnostics": [(1, 2), (2,)], "build_dual_stress": 0}


@pytest.mark.parametrize("j", [1, 2])
def test_modulus_interval_widened_by_quadrature_error(j):
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    row = compute_sweep_row(cfg, 1e-2, j)
    key = "E_star" if j == 1 else "mu_star"
    raw = effective_moduli(disk_geometry(1e-2), UNIT, (row.lower, row.upper),
                           (row.lower, row.upper))[key]
    lo, hi = row.modulus_interval
    assert lo < raw[0] and raw[1] < hi
    # the map is linear, so the widening is the mapped sum of both errors
    factor = (raw[1] - raw[0]) / (row.upper - row.lower)
    assert (hi - lo) - (raw[1] - raw[0]) == pytest.approx(factor * row.quad_err, rel=1e-6)


def _force_non_convergence(monkeypatch) -> float:
    """Forbid bisection below the root panels; returns a path tolerance that
    the root panels of every test row then fall short of.  (The root panels
    are graded at the gap vertex, so at the test tolerances they alone
    converge.)"""
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 0)
    return 1e-12


def test_sweep_row_flags_non_convergence(monkeypatch):
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    good = compute_sweep_row(cfg, 1e-2, 1)
    assert good.converged
    tight = _force_non_convergence(monkeypatch)
    row = compute_sweep_row(dataclasses.replace(cfg, rel_tol_path=tight), 1e-2, 1)
    assert not row.converged
    # the last CSV column carries the flag
    assert CSV_HEADER.split(",")[-1] == "converged"
    assert good.csv_line().split(",")[-1] == "1"
    assert row.csv_line().split(",")[-1] == "0"
    assert row.csv_line().count(",") == CSV_HEADER.count(",")


def test_write_csv_reproducible(tmp_path):
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    rows = [compute_sweep_row(cfg, 1e-2, j) for j in (1, 2)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows, p1)
    write_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_and_fit_small():
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5,
        eps_list=(1e-2, 3e-3, 1e-3),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    rows, fits = sweep_and_fit(cfg)
    assert [(r.eps, r.j) for r in rows] == [
        (1e-2, 1), (1e-2, 2), (3e-3, 1), (3e-3, 2), (1e-3, 1), (1e-3, 2)
    ]
    for r in rows:
        assert r.lower - r.quad_err <= r.upper + r.quad_err
        assert r.upper_scaled == pytest.approx(r.upper * math.sqrt(r.eps), rel=1e-14)
        assert r.lower_scaled == pytest.approx(r.lower * math.sqrt(r.eps), rel=1e-14)
        m = 3.0 * math.pi if r.j == 1 else math.pi
        assert r.fk_constant == pytest.approx(m, rel=1e-14)
    for j in (1, 2):
        for kind in ("upper", "lower"):
            assert fits[j][kind].rel_dev <= 0.15


def test_sweep_and_fit_one_load(monkeypatch):
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5,
        eps_list=(1e-2, 3e-3, 1e-3),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    full, full_fits = sweep_and_fit(cfg)
    rows, fits = sweep_and_fit(cfg, loads=(2,))
    assert [(r.eps, r.j) for r in rows] == [(1e-2, 2), (3e-3, 2), (1e-3, 2)]
    assert [r.csv_line() for r in rows] == [r.csv_line() for r in full if r.j == 2]
    assert set(fits) == {2}
    assert fits[2] == full_fits[2]
    with pytest.raises(ConfigError):
        sweep_and_fit(cfg, loads=(3,))


def _widths(n: int) -> tuple[float, ...]:
    """n gap widths, log-spaced from 1e-2 down to 1e-4."""
    return tuple(float(e) for e in np.logspace(-2.0, -4.0, n))


def test_sweep_pool_never_exceeds_the_rows(monkeypatch):
    # a process repays its start-up only over many widths, so a sweep
    # starts at most one per _WIDTHS_PER_PROCESS widths, and none below two;
    # each process computes its share of the widths in one call
    started = []
    per = pipeline._WIDTHS_PER_PROCESS

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers and the
        number of widths of each task, runs serially."""

        def __init__(self, max_workers):
            started.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            started[-1].append([len(share) for share in iterables[1]])
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for n, workers, pool in ((3, 64, None), (2 * per - 1, 2, None),
                             (2 * per, 2, [2, [per, per]]),
                             (3 * per + 1, 64, [3, [per + 1, per + 1, per - 1]])):
        cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=_widths(n),
                        rel_tol_cell=1e-3, rel_tol_path=1e-6)
        started.clear()
        serial, _ = sweep_and_fit(cfg, workers=1)
        assert started == []
        rows, _ = sweep_and_fit(cfg, workers=workers)
        assert started == ([] if pool is None else [pool]), (n, workers)
        assert [(r.eps, r.j) for r in rows] == [(e, j) for e in cfg.eps_list for j in (1, 2)]
        assert [r.csv_line() for r in rows] == [r.csv_line() for r in serial]
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers"):
            sweep_and_fit(cfg, workers=workers)
    assert started == [[3, [per + 1, per + 1, per - 1]]]


def test_sweep_pool_rows_match_the_serial_rows(monkeypatch):
    # a real pool of two processes: the width task and its rows pickle, and
    # the rows come back in the serial order
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5,
                    eps_list=_widths(2 * pipeline._WIDTHS_PER_PROCESS),
                    rel_tol_cell=1e-3, rel_tol_path=1e-6)
    serial, serial_fits = sweep_and_fit(cfg, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    rows, fits = sweep_and_fit(cfg, workers=2)
    assert started == [2]
    assert [r.csv_line() for r in rows] == [r.csv_line() for r in serial]
    assert fits == serial_fits


def test_cli_sweep_rejects_zero_workers(tmp_path, capsys):
    p = tmp_path / "s.cfg"
    p.write_text(GOOD_CONFIG.replace("1e-2, 1e-3", "1e-2, 3e-3, 1e-3"))
    out = tmp_path / "o.csv"
    assert cli.main(["sweep", "--config", str(p), "--workers", "0", "--out", str(out)]) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_an_empty_load_set():
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2, 3e-3, 1e-3))
    with pytest.raises(ConfigError, match=re.escape("loads=()")):
        sweep_and_fit(cfg, loads=())


def test_width_rows_reject_an_empty_load_set():
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,))
    with pytest.raises(ConfigError, match=re.escape("loads=()")):
        compute_width_rows(cfg, (1e-2,), ())


def test_width_rows_sort_and_deduplicate_the_loads():
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,),
                    rel_tol_cell=1e-3, rel_tol_path=1e-6)
    both = [r.csv_line() for r in compute_width_rows(cfg, (1e-2,), (1, 2))]
    assert [r.csv_line() for r in compute_width_rows(cfg, (1e-2,), (2, 1, 2))] == both
    one = [r.csv_line() for r in compute_width_rows(cfg, (1e-2,), (1,))]
    assert [r.csv_line() for r in compute_width_rows(cfg, (1e-2,), (1, 1))] == one


@pytest.mark.parametrize("loads", [(3,), (0, 1)])
def test_loads_outside_one_and_two_are_rejected_before_any_work(loads, monkeypatch):
    # a bad load used to start the q_ss integral and fail inside its integrand
    started = []
    monkeypatch.setattr(pipeline, "make_gap_geometry", lambda *a: started.append(a))
    monkeypatch.setattr(bounds, "integrate_path", lambda *a: started.append(a))
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2, 3e-3, 1e-3))
    with pytest.raises(ConfigError, match="every load must be 1 or 2"):
        compute_width_rows(cfg, (1e-2,), loads)
    with pytest.raises(ConfigError, match="every load must be 1 or 2"):
        sweep_and_fit(cfg, loads=loads)
    assert started == []


BATCH_WIDTHS = (1e-2, 1e-3, 1e-4, 1e-5)


@pytest.mark.parametrize("config", ["disk", "ellipse"])
@pytest.mark.parametrize("rel_tol_cell,rel_tol_path", [(1e-6, 1e-8), (1e-3, 1e-6)])
def test_rows_of_several_widths_are_their_one_width_rows(config, rel_tol_cell, rel_tol_path):
    # every width is a tolerance group of the shared integrals, so each row
    # is the row of its width alone: every CSV column but the divergence,
    # a rounding floor, which stays below 1e-12
    cfg = dataclasses.replace(parse_config(SHIPPED_CONFIGS / f"{config}.cfg"),
                              rel_tol_cell=rel_tol_cell, rel_tol_path=rel_tol_path)
    div = CSV_HEADER.split(",").index("div_residual")
    rows = compute_width_rows(cfg, BATCH_WIDTHS, (1, 2))
    alone = [row for eps in BATCH_WIDTHS for row in compute_width_rows(cfg, (eps,), (1, 2))]
    assert [(r.eps, r.j) for r in rows] == [(e, j) for e in BATCH_WIDTHS for j in (1, 2)]
    for row, one in zip(rows, alone):
        got, want = row.csv_line().split(","), one.csv_line().split(",")
        assert got[:div] + got[div + 1:] == want[:div] + want[div + 1:], (row.eps, row.j)
        assert row.diagnostics.div_residual <= 1e-12


@pytest.mark.parametrize("config", ["disk", "ellipse"])
def test_rows_of_97_widths_are_their_one_width_rows_bit_for_bit(config):
    # guard of quadrature._NODE_CHUNK: the first round of the shared q_ss
    # integral has more nodes than numpy's threshold for evaluating a
    # product in place (16,384 complex values), so a chunk above it changes
    # the batched rows in the last bits
    cfg = dataclasses.replace(parse_config(SHIPPED_CONFIGS / f"{config}.cfg"), rel_tol_cell=1e-3)
    widths = tuple(np.logspace(-2, -5, 97))
    first_round = sum(len(s.breaks) - 1 for eps in widths
                      for s in bounds._quarter_boundary(make_gap_geometry(cfg.shape, eps, cfg.L2)))
    assert 15 * first_round > 16_384
    rows = compute_width_rows(cfg, widths, (1, 2))
    alone = [row for eps in widths for row in compute_width_rows(cfg, (eps,), (1, 2))]
    assert [r.csv_line() for r in rows] == [r.csv_line() for r in alone]


@pytest.mark.parametrize("n_widths", [4, 9])
def test_serial_sweep_makes_two_path_integrals_and_one_diagnostics(n_widths, monkeypatch):
    # cost guard: a serial sweep shares one q_ss and one q_c path integral
    # and one diagnostics evaluation, with its one set of pair terms,
    # however many widths it has
    calls = {"path": 0, "diagnostics": 0, "diagnostic pair terms": 0}
    inside = []
    path, diagnostics, pair_terms = bounds.integrate_path, pipeline._dual_diagnostics, bounds._PairTerms

    def counted_path(*args):
        calls["path"] += 1
        return path(*args)

    def counted_diagnostics(*args):
        calls["diagnostics"] += 1
        inside.append(True)
        try:
            return diagnostics(*args)
        finally:
            inside.pop()

    def counted_pair_terms(*args):
        calls["diagnostic pair terms"] += bool(inside)
        return pair_terms(*args)

    monkeypatch.setattr(bounds, "integrate_path", counted_path)
    monkeypatch.setattr(pipeline, "_dual_diagnostics", counted_diagnostics)
    monkeypatch.setattr(bounds, "_PairTerms", counted_pair_terms)
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=_widths(n_widths),
                    rel_tol_cell=1e-3, rel_tol_path=1e-6)
    rows, _ = sweep_and_fit(cfg)
    assert len(rows) == 2 * n_widths
    assert calls == {"path": 2, "diagnostics": 1, "diagnostic pair terms": 1}


def _same_bits(got, want) -> bool:
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    return got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("config", ["disk", "ellipse"])
def test_path_rounds_make_one_frame_call_per_segment_kind(config, monkeypatch):
    # cost guard: each round of a 4-width sweep's path integrals calls each
    # segment kind's frame once, on the nodes of all its segments, and every
    # node's frame there is bit for bit its segment's own frame(t)
    rounds, frames = [], []
    evaluate = quadrature._eval_path_panels

    def spied_round(segments, seg_group, integrand, seg, t0, t1):
        frames.clear()
        out = evaluate(segments, seg_group, integrand, seg, t0, t1)
        rounds.append((segments, seg, list(frames)))
        return out

    def spied_kind(name, frame):
        def spied(params, t):
            columns = frame(params, t)
            frames.append((name, params, t, columns))
            return columns
        return spied

    for name, frame in list(geometry.SEGMENT_KINDS.items()):
        monkeypatch.setitem(geometry.SEGMENT_KINDS, name, spied_kind(name, frame))
    monkeypatch.setattr(quadrature, "_eval_path_panels", spied_round)
    cfg = dataclasses.replace(parse_config(SHIPPED_CONFIGS / f"{config}.cfg"), rel_tol_cell=1e-3)
    assert len(cfg.eps_list) == 4
    compute_width_rows(cfg, cfg.eps_list, (1, 2))
    assert len(rounds) == 2
    checked = set()
    for segments, seg, calls in rounds:
        kinds = [segments[k].kind for k in seg.tolist()]
        assert sorted(name for name, *_ in calls) == sorted(set(kinds))
        for name, params, t, columns in calls:
            owners = [segments[k] for k, kind in zip(seg.tolist(), kinds) if kind == name]
            assert t.shape == (len(owners), quadrature._K15_NODES.size)
            for row, segment in enumerate(owners):
                pts, nrm, spd = segment.frame(t[row])
                own = (pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1], spd)
                for got, want in zip(columns, own):
                    got = np.broadcast_to(got, t.shape)[row]
                    assert _same_bits(got, want), (name, segment.params)
                checked.add(segment)
    assert checked == {s for segments, _, _ in rounds for s in segments}


def test_sweep_needs_three_gap_widths():
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2, 1e-3))
    with pytest.raises(ConfigError):
        sweep_and_fit(cfg)


def test_run_verify_passes_on_benchmark():
    cfg = RunConfig(
        material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-2,),
        rel_tol_cell=1e-3, rel_tol_path=1e-6,
    )
    report = run_verify(cfg, eps=1e-3)
    assert len(report) >= 8
    joined = "\n".join(report)
    assert "flux" in joined
    assert "energy" in joined


def test_run_verify_makes_one_path_integral(monkeypatch):
    from gapstress import bounds

    calls = []

    def counted(curve, integrand, rel_tol):
        calls.append(curve)
        return integrate_path(curve, integrand, rel_tol)

    monkeypatch.setattr(bounds, "integrate_path", counted)
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-3,))
    report = run_verify(cfg)
    assert len(calls) == 1
    names = [line[5:].split(":")[0] for line in report if not line.startswith("info")]
    assert names == ([f"flux i={i} j={j} k={k}" for i in (1, 2) for j in (1, 2) for k in (1, 2)]
                     + [f"energy identity j={j}" for j in (1, 2)]
                     + [f"{c} j={j}" for j in (1, 2) for c in ("edge traction", "divergence")])


@pytest.mark.parametrize("config", ["disk", "ellipse"])
def test_run_verify_builds_each_term_once(config, monkeypatch):
    # cost guard: one width's checks build one kernel context and one
    # inclusion boundary, and the pair terms twice, for the pair integrand
    # and for the diagnostics; np.log1p runs once for Re L, which both
    # loads' displacements share, and once for the edge resultant's terms
    calls = {"KernelContext": 0, "inclusion_boundary": 0, "_PairTerms": 0, "log1p": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(KernelContext, "__post_init__",
                        counted("KernelContext", KernelContext.__post_init__))
    boundary = counted("inclusion_boundary", geometry.inclusion_boundary)
    for module in (geometry, bounds):
        monkeypatch.setattr(module, "inclusion_boundary", boundary)
    monkeypatch.setattr(bounds, "_PairTerms", counted("_PairTerms", bounds._PairTerms))
    monkeypatch.setattr(np, "log1p", counted("log1p", np.log1p))
    cfg = parse_config(SHIPPED_CONFIGS / f"{config}.cfg")
    assert len(run_verify(cfg, 1e-4)) == 16
    assert calls == {"KernelContext": 1, "inclusion_boundary": 1, "_PairTerms": 2, "log1p": 2}


def test_run_verify_checks_both_loads_diagnostics_in_one_call(monkeypatch):
    calls = {"diagnostics": [], "build_dual_stress": 0}
    diagnostics = pipeline._dual_diagnostics

    def counted_diagnostics(widths, loads):
        calls["diagnostics"].append(loads)
        return diagnostics(widths, loads)

    def counted_build(*args):
        calls["build_dual_stress"] += 1
        return build_dual_stress(*args)

    monkeypatch.setattr(pipeline, "_dual_diagnostics", counted_diagnostics)
    monkeypatch.setattr(pipeline, "build_dual_stress", counted_build)
    cfg = RunConfig(material=UNIT, shape=Disk(r0=1.0), L2=1.5, eps_list=(1e-3,))
    report = run_verify(cfg)
    assert calls == {"diagnostics": [(1, 2)], "build_dual_stress": 0}
    g = make_gap_geometry(cfg.shape, 1e-3, cfg.L2)
    for j in (1, 2):
        d = build_dual_stress(g, UNIT, j).diagnostics
        assert f"ok   edge traction j={j}: max |sigma n| on y=+-L2 is {d.bc_residual:.2e}" in report
        assert f"ok   divergence j={j}: relative residual {d.div_residual:.2e}" in report


class _DefectiveStress(bounds._PairTerms):
    """The pair stress with 1e-3 x added to sigma11, a divergence of 1e-3
    in the first row that the edge traction does not see."""

    def stress(self, j):
        s = super().stress(j)
        return SymTensor2(s.a11 + 1e-3 * self.z.real, s.a12, s.a22)


@pytest.mark.parametrize("config", ["disk", "ellipse"])
def test_run_verify_flags_a_divergent_pair_stress(config, monkeypatch):
    # the diagnostics take sigma_S's equilibrium from its construction; the
    # flux identities are what test it at run time
    cfg = parse_config(SHIPPED_CONFIGS / f"{config}.cfg")
    monkeypatch.setattr(bounds, "_PairTerms", _DefectiveStress)
    with pytest.raises(VerificationError) as info:
        run_verify(cfg, 1e-4)
    failed = [line.split(":")[0][5:] for line in info.value.lines if line.startswith("FAIL")]
    assert failed and all(name.startswith("flux") for name in failed)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_bounds_writes_csv(config_file, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    rc = cli.main(
        ["bounds", "--config", str(config_file), "--eps", "1e-2", "--j", "2", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 2
    printed = capsys.readouterr().out
    assert "j = 2" in printed


@pytest.mark.parametrize("command", ["bounds", "sweep"])
@pytest.mark.parametrize("route", ["option", "config"])
def test_cli_unwritable_out_exits_2(command, route, config_file, tmp_path, capsys):
    # a missing directory used to end in a FileNotFoundError traceback, exit 1
    out = tmp_path / "missing" / "o.csv"
    text = GOOD_CONFIG.replace("1e-2, 1e-3", "1e-2, 3e-3, 1e-3")
    argv = [command, "--config", str(config_file)]
    if route == "option":
        argv += ["--out", str(out)]
    else:
        text += f"out = {out}\n"
    config_file.write_text(text)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"cannot write {out}: No such file or directory\n"
    assert "wrote" not in captured.out
    assert not out.parent.exists()


@pytest.mark.parametrize("command,n_rows", [("bounds", 2), ("sweep", 6)])
def test_cli_warns_once_per_unconverged_row(command, n_rows, monkeypatch, tmp_path, capsys):
    p = tmp_path / "s.cfg"
    p.write_text(GOOD_CONFIG.replace("1e-2, 1e-3", "1e-2, 3e-3, 1e-3"))
    out = tmp_path / "o.csv"
    assert cli.main(["bounds", "--config", str(p), "--j", "2", "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err

    tight = _force_non_convergence(monkeypatch)
    p.write_text(p.read_text().replace("rel_tol_path = 1e-6", f"rel_tol_path = {tight}"))
    assert cli.main([command, "--config", str(p), "--out", str(out)]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == n_rows
    assert warnings[0] == "warning: eps=0.01 j=1 did not converge"
    assert len(out.read_text().splitlines()) == 1 + n_rows


@pytest.mark.parametrize("command,n_rows", [("bounds", 1), ("sweep", 4)])
def test_cli_warns_once_per_empty_bracket(command, n_rows, tmp_path, capsys):
    # the ellipse's j=2 dual value exceeds its primal value at every shipped
    # width, so its mu* interval is empty; the rows still reach the CSV
    out = tmp_path / "o.csv"
    argv = ["--config", str(SHIPPED_CONFIGS / "ellipse.cfg"), "--j", "2", "--out", str(out)]
    if command == "bounds":
        argv += ["--eps", "1e-2"]
    assert cli.main([command] + argv) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == n_rows
    assert warnings[0] == "warning: eps=0.01 j=2 lower bound exceeds upper bound"
    assert all(w.endswith("lower bound exceeds upper bound") for w in warnings)
    assert len(out.read_text().splitlines()) == 1 + n_rows
    disk = ["--config", str(SHIPPED_CONFIGS / "disk.cfg"), "--out", str(out)]
    assert cli.main([command] + disk + (["--eps", "1e-2"] if command == "bounds" else [])) == 0
    assert capsys.readouterr().err == ""


def test_cli_sweep_one_load_computes_only_its_rows(monkeypatch, tmp_path, capsys):
    p = tmp_path / "s.cfg"
    p.write_text(GOOD_CONFIG.replace("1e-2, 1e-3", "1e-2, 3e-3, 1e-3"))
    out = tmp_path / "o.csv"
    calls = []
    rows_fn = pipeline.compute_width_rows

    def counting(cfg, widths, loads):
        calls.append((widths, loads))
        return rows_fn(cfg, widths, loads)

    monkeypatch.setattr(pipeline, "compute_width_rows", counting)
    assert cli.main(["sweep", "--config", str(p), "--j", "2", "--out", str(out)]) == 0
    assert calls == [((1e-2, 3e-3, 1e-3), (2,))]
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(line.split(",")[1] == "2" for line in lines[1:])
    printed = capsys.readouterr().out
    assert "fit j=2" in printed and "fit j=1" not in printed


def test_cli_sweep_rejects_short_eps_list(config_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(config_file), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_cli_missing_config_exits_2(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(tmp_path / "none.cfg"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_cli_verify_runs(config_file, capsys):
    rc = cli.main(["verify", "--config", str(config_file), "--eps", "1e-3"])
    assert rc == 0
    assert "passed" in capsys.readouterr().out


def test_cli_kernel_eval_prints_value(config_file, capsys):
    rc = cli.main(
        ["kernel-eval", "--config", str(config_file), "--kernel", "kelvin1",
         "--point", "1.0", "0.0"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "kelvin1" in printed
    floats = [float(tok) for tok in re.findall(r"-?\d+\.\d+e?[+-]?\d*", printed)]
    target = -1.0 / (6.0 * math.pi)
    assert any(abs(v - target) < 1e-9 for v in floats)


def test_cli_exit_code_3_on_quadrature_failure(config_file, monkeypatch, tmp_path):
    def boom(cfg, workers=1, loads=(1, 2)):
        raise QuadratureError("integral did not produce a finite value")

    monkeypatch.setattr(cli, "sweep_and_fit", boom)
    p = tmp_path / "s.cfg"
    p.write_text(GOOD_CONFIG.replace("1e-2, 1e-3", "1e-2, 3e-3, 1e-3"))
    rc = cli.main(["sweep", "--config", str(p)])
    assert rc == 3


def test_cli_exit_code_4_on_verification_failure(config_file, monkeypatch):
    def boom(cfg, eps=None):
        raise VerificationError("flux identity out of tolerance")

    monkeypatch.setattr(cli, "run_verify", boom)
    rc = cli.main(["verify", "--config", str(config_file)])
    assert rc == 4


def test_cli_verify_prints_its_report_on_exit_4(capsys):
    # the disk's j=1 energy identity fails at its widest width; the report
    # still shows every check and the failing value
    rc = cli.main(["verify", "--config", str(SHIPPED_CONFIGS / "disk.cfg"), "--eps", "1e-2"])
    assert rc == 4
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [ln for ln in lines if ln.startswith("FAIL")] == [
        "FAIL energy identity j=1: normalized 1.159995 (raw 1.230793e-02)"]
    assert sum(ln.startswith("ok   ") for ln in lines) == 13
    assert "all verification checks passed" not in captured.out
    assert captured.err == ("verification failure: 1 verification check(s) failed: "
                            "energy identity j=1\n")


def test_import_loads_no_scipy():
    # SciPy is a test dependency only; importing it would add ~0.5 s to
    # every gapstress start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c",
                    "import gapstress.pipeline, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True)
