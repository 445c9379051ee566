"""Fast checks of the benchmark itself: gates, wrappers, a tiny traced row.

    python3 -m pytest gapbench/tests -q
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gapstress import Diagnostics, Disk, LameMaterial, SweepRow, make_gap_geometry, parse_config, pipeline
from gapbench import gates, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
UNIT = LameMaterial(lam=1.0, mu=1.0)
M1 = 3.0 * math.pi  # m_1 for the unit disk with unit Lame constants


def make_row(eps=1e-2, j=1, upper=91.04, lower=85.54, quad_err=1e-3):
    root = math.sqrt(eps)
    return SweepRow(eps=eps, j=j, upper=upper, lower=lower, upper_scaled=upper * root,
                    lower_scaled=lower * root, fk_constant=M1, modulus_interval=(0.0, 0.0),
                    diagnostics=Diagnostics(), quad_err=quad_err)


REF = 91.0343733  # primal reference, unit disk, eps=1e-2, j=1


def test_good_row_passes_every_gate():
    assert gates.row_gates(make_row(), REF) == []


def test_gate_a_non_finite():
    assert gates.row_gates(make_row(lower=float("nan")), REF) == ["a"]


def test_gate_b_broken_sandwich():
    assert gates.row_gates(make_row(lower=91.5), REF) == ["b"]
    # within the error bars the sandwich still holds
    assert gates.row_gates(make_row(lower=91.041, quad_err=1e-3), REF) == []


def test_gate_c_upper_below_reference():
    assert gates.row_gates(make_row(upper=91.030), REF) == ["c"]


def test_gate_d_acceptance_band():
    eps = 1e-4
    ok = make_row(eps=eps, upper=0.997 * M1 / math.sqrt(eps), lower=0.99 * M1 / math.sqrt(eps))
    assert gates.row_gates(ok, 0.0) == []
    low = make_row(eps=eps, upper=0.997 * M1 / math.sqrt(eps), lower=0.94 * M1 / math.sqrt(eps))
    assert gates.row_gates(low, 0.0) == ["d"]


def test_gate_e_fit():
    widths = (1e-2, 1e-3, 1e-4, 1e-5)

    def rows(factor):
        return [make_row(eps=e, j=j, upper=factor * M1 / math.sqrt(e) + 1.0,
                         lower=M1 / math.sqrt(e) - 1.0)
                for e in widths for j in (1, 2)]

    assert gates.fit_gate_loads(rows(1.01)) == set()
    assert gates.fit_gate_loads(rows(1.05)) == {1, 2}


def test_known_defects_only_cover_the_seed_failures():
    known = {"config": "ellipse", "eps": 1e-3, "j": 2, "gates": ["b"]}
    new = {"config": "disk", "eps": 1e-3, "j": 2, "gates": ["b"]}
    assert gates.unknown_failures([known]) == []
    assert gates.unknown_failures([new]) == [new]
    verify_known = gates.verify_record("disk", 1e-2, ["energy identity j=1"], 14)
    verify_new = gates.verify_record("disk", 1e-2, ["energy identity j=1", "flux i=1 j=1 k=1"], 14)
    assert gates.unknown_failures([verify_known]) == []
    assert gates.unknown_failures([verify_new]) == [verify_new]
    assert gates.unknown_failures([gates.failed_record("ellipse", 1e-3, 2, "boom")])


def test_primal_reference_matches_known_values():
    ellipse = parse_config(ROOT / "configs" / "ellipse.cfg")
    geom = make_gap_geometry(ellipse.shape, 1e-3, ellipse.L2)
    assert gates.primal_reference(geom, ellipse.material, 2) == pytest.approx(196.1537, abs=1e-4)
    disk = make_gap_geometry(Disk(r0=1.0), 1e-2, 1.5)
    assert gates.primal_reference(disk, UNIT, 1) == pytest.approx(REF, abs=1e-6)


def test_seed_zero_keeps_shipped_widths_and_others_jitter_below():
    cfgs = workloads.setup("disk-sweep")
    shipped = workloads.make_inputs("disk-sweep", cfgs, 0)
    assert [e for _, e in shipped.calls] == list(cfgs["disk"].eps_list)
    a = workloads.make_inputs("disk-sweep", cfgs, 7)
    assert a.calls == workloads.make_inputs("disk-sweep", cfgs, 7).calls
    for (_, w), (_, e) in zip(shipped.calls, a.calls):
        assert w * 10 ** -workloads.JITTER_DECADES <= e <= w


def test_identity_grid_contains_the_shipped_widths():
    cfgs = workloads.setup("identities")
    grid = [e for name, e in workloads.make_inputs("identities", cfgs, 0).calls if name == "disk"]
    assert len(grid) == workloads.IDENTITY_GRID
    for w in cfgs["disk"].eps_list:
        assert min(abs(math.log10(e / w)) for e in grid) < 1e-12


def test_run_verify_makes_the_counted_number_of_checks():
    cfg = parse_config(ROOT / "configs" / "disk.cfg")
    lines = pipeline.run_verify(cfg, 1e-3)
    assert sum(not l.startswith("info") for l in lines) == workloads.CHECKS_PER_VERIFY


def test_tracer_restores_originals():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.SITES}
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            for (m, a), fn in originals.items():
                assert getattr(importlib.import_module(m), a) is not fn
            1 / 0
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_tiny_traced_row_has_integral_spans_covering_it(tmp_path):
    disk = parse_config(ROOT / "configs" / "disk.cfg")
    cfg = dataclasses.replace(disk, eps_list=(1e-2,), rel_tol_cell=1e-3)
    with tracing.Tracer() as tracer:
        row = pipeline.compute_sweep_row(cfg, 1e-2, 1)
    dump = tmp_path / "spans.jsonl"
    tracer.dump(dump)
    spans = tracing.load(dump)
    labels = {s["label"] for s in spans if s["label"]}
    assert labels == set(tracing.ROW_INTEGRALS)
    (cover,) = tracing.row_coverage(spans).values()
    assert 0.95 <= cover <= 1.0
    metrics = tracing.layer_metrics(spans, 1.0, 1.0, 1.0, 1)
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
    assert metrics["pipeline.compute_sweep_row.calls"] == 1
    assert metrics["integral.primal.evals"] > 0
    assert metrics["kernels.singular_stress.points"] > 0
    assert math.isfinite(row.upper)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CONFIGS)
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in e2e and max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "gapbench", tmp_path / "gapbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "gapbench/run.py", "--workload", "identities",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
