"""Shared geometry and material helpers for the test suite."""
from __future__ import annotations

from gapstress import Disk, GapGeometry, LameMaterial, make_gap_geometry

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

UNIT = LameMaterial(lam=1.0, mu=1.0)

# coarse tolerances keep the unit tests quick; the acceptance tests rerun the
# relevant quantities at the production tolerances
CELL_FAST = 1e-4
CELL_COARSE = 1e-3
PATH_FAST = 1e-6


def disk_geometry(eps: float, r0: float = 1.0, L2: float = 1.5) -> GapGeometry:
    return make_gap_geometry(Disk(r0=r0), eps=eps, L2=L2)
