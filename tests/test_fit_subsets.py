"""scripts/fit_subsets.py on a sweep CSV."""
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from gapstress import Diagnostics, SweepRow, rows_to_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fit_subsets.py"


def _script():
    spec = importlib.util.spec_from_file_location("fit_subsets", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_fit_subsets_reads_sweep_csv(tmp_path, capsys):
    rows = []
    for eps in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
        for j, m in ((1, 3.0 * np.pi), (2, np.pi)):
            upper = 1.001 * m / np.sqrt(eps) + 2.0
            lower = 0.999 * m / np.sqrt(eps) - 1.0
            rows.append(SweepRow(
                eps=eps, j=j, upper=upper, lower=lower,
                upper_scaled=upper * np.sqrt(eps), lower_scaled=lower * np.sqrt(eps),
                fk_constant=m, modulus_interval=(lower, upper),
                diagnostics=Diagnostics(), quad_err=1e-9))
    path = tmp_path / "sweep.csv"
    path.write_text(rows_to_csv(rows))
    assert _script().main(["--csv", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].split() for line in lines] == [
        ["j=1", "upper"], ["j=1", "lower"], ["j=2", "upper"], ["j=2", "lower"]]
    # exact c1/sqrt(eps) + c0 data: every subset recovers the same c1
    for line, c1 in zip(lines, (1.001 * 3.0 * np.pi, 0.999 * 3.0 * np.pi,
                                1.001 * np.pi, 0.999 * np.pi)):
        got = re.search(r"c1 = (\S+),.*swing (\S+)%", line)
        assert float(got[1]) == pytest.approx(c1, abs=1e-6)
        assert float(got[2]) < 1e-6
