"""The benchmark workloads: inputs drawn from a seed, and one timed unit each.

Seed 0 uses the shipped gap widths.  Any other seed draws each width
log-uniformly in [w / 10**JITTER_DECADES, w] below the configured width w,
with a fresh draw for every unit of a run, so one run's median spans many
draws rather than resting on one.  Material, shape and rel_tol_path stay as
configured.  The identities workload checks a grid of IDENTITY_GRID widths
per config, log-spaced from the widest to the narrowest shipped width (so it
contains the shipped ones); other seeds move each grid width down by up to
one grid step.  The bound workloads run at REL_TOL_CELL instead of the
configured 1e-6, because one row at 1e-6 takes 30-45 s and a whole run of the
benchmark has to fit in a few tens of seconds.  The program receives only
the generated RunConfig.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from pathlib import Path

from gapstress import make_gap_geometry, parse_config, pipeline

from . import gates

ROOT = Path(__file__).resolve().parent.parent
REL_TOL_CELL = 1e-3
JITTER_DECADES = 0.25
POOL_WORKERS = 2
IDENTITY_GRID = 13
CHECKS_PER_VERIFY = 14  # identity checks in one run_verify call

CONFIGS = {
    "disk-sweep": ("disk",),
    "ellipse-bounds": ("ellipse",),
    "identities": ("disk", "ellipse"),
}


def setup(workload: str) -> dict:
    """Parse the workload's shipped configs and build one geometry each:
    the part of a run that ``setup_s`` times."""
    cfgs = {}
    for name in CONFIGS[workload]:
        cfg = parse_config(ROOT / "configs" / f"{name}.cfg")
        make_gap_geometry(cfg.shape, cfg.eps_list[0], cfg.L2)
        cfgs[name] = cfg
    return cfgs


def jitter(widths, seed: int, stream: str, decades: float = JITTER_DECADES) -> tuple[float, ...]:
    if seed == 0:
        return tuple(widths)
    rng = random.Random(f"{stream}:{seed}")
    return tuple(w * 10.0 ** (-decades * rng.random()) for w in widths)


def identity_grid(cfg) -> tuple[list[float], float]:
    """Log-spaced widths from the widest to the narrowest shipped width, and
    the grid step in decades."""
    hi, lo = math.log10(cfg.eps_list[0]), math.log10(cfg.eps_list[-1])
    step = (hi - lo) / (IDENTITY_GRID - 1)
    return [10.0 ** (hi - k * step) for k in range(IDENTITY_GRID)], step


@dataclasses.dataclass(frozen=True)
class Inputs:
    workload: str
    cfgs: dict  # config name -> RunConfig handed to the program
    calls: tuple  # (config name, eps) per call

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "rel_tol_cell": {k: c.rel_tol_cell for k, c in self.cfgs.items()},
            "rel_tol_path": {k: c.rel_tol_path for k, c in self.cfgs.items()},
            "calls": [f"{name} {eps:.6g}" for name, eps in self.calls],
        }


def make_inputs(workload: str, cfgs: dict, seed: int, draw: str = "0") -> Inputs:
    """Inputs of one unit; ``draw`` names the unit within the run."""
    stream = f"{workload}:{draw}"
    if workload == "disk-sweep":
        base = cfgs["disk"]
        cfg = dataclasses.replace(base, rel_tol_cell=REL_TOL_CELL,
                                  eps_list=jitter(base.eps_list, seed, stream))
        return Inputs(workload, {"disk": cfg}, tuple(("disk", e) for e in cfg.eps_list))
    if workload == "ellipse-bounds":
        base = cfgs["ellipse"]
        eps = jitter([base.eps_list[1]], seed, stream)
        cfg = dataclasses.replace(base, rel_tol_cell=REL_TOL_CELL, eps_list=eps)
        return Inputs(workload, {"ellipse": cfg}, (("ellipse", eps[0]),))
    if workload == "identities":
        calls = []
        for name, cfg in cfgs.items():
            grid, step = identity_grid(cfg)
            calls += [(name, e) for e in jitter(grid, seed, f"{stream}:{name}", step)]
        return Inputs(workload, dict(cfgs), tuple(calls))
    raise ValueError(f"unknown workload {workload!r}")


def run_unit(inputs: Inputs, serial: bool = False) -> tuple[float, list[float], list]:
    """Run the workload once.  Returns (wall seconds, per-call seconds, raw
    outcomes); each outcome is the call's return value or the exception it
    raised.  Calls go through ``pipeline.<name>`` so tracing wrappers apply."""
    outcomes, call_s = [], []
    t_start = time.perf_counter()
    if inputs.workload == "disk-sweep":
        cfg = inputs.cfgs["disk"]
        workers = 1 if serial else POOL_WORKERS
        try:
            outcomes.append(pipeline.sweep_and_fit(cfg, workers=workers))
        except Exception as exc:  # a failing call is a result, not a crash
            outcomes.append(exc)
        call_s.append(time.perf_counter() - t_start)
    elif inputs.workload == "ellipse-bounds":
        cfg = inputs.cfgs["ellipse"]
        eps = inputs.calls[0][1]
        for j in (1, 2):
            t0 = time.perf_counter()
            try:
                outcomes.append(pipeline.compute_sweep_row(cfg, eps, j))
            except Exception as exc:
                outcomes.append(exc)
            call_s.append(time.perf_counter() - t0)
    else:
        for name, eps in inputs.calls:
            t0 = time.perf_counter()
            try:
                outcomes.append(pipeline.run_verify(inputs.cfgs[name], eps))
            except Exception as exc:
                outcomes.append(exc)
            call_s.append(time.perf_counter() - t0)
    return time.perf_counter() - t_start, call_s, outcomes


def _failed_checks(exc: pipeline.VerificationError) -> list[str]:
    _, _, names = str(exc).partition(": ")
    return [n.strip() for n in names.split(",") if n.strip()]


def certify(inputs: Inputs, outcomes: list) -> list[dict]:
    """One gate record per result: a sweep row, or a run_verify call."""
    if inputs.workload == "disk-sweep":
        cfg = inputs.cfgs["disk"]
        (out,) = outcomes
        if isinstance(out, Exception):
            return [gates.failed_record("disk", eps, j, repr(out))
                    for eps in cfg.eps_list for j in (1, 2)]
        rows, _ = out
        return gates.certify_rows("disk", cfg, rows, fit_gate=True)
    if inputs.workload == "ellipse-bounds":
        cfg = inputs.cfgs["ellipse"]
        eps = inputs.calls[0][1]
        records = []
        for j, out in zip((1, 2), outcomes):
            if isinstance(out, Exception):
                records.append(gates.failed_record("ellipse", eps, j, repr(out)))
            else:
                records += gates.certify_rows("ellipse", cfg, [out])
        return records
    records = []
    for (name, eps), out in zip(inputs.calls, outcomes):
        if isinstance(out, pipeline.VerificationError):
            records.append(gates.verify_record(name, eps, _failed_checks(out),
                                               CHECKS_PER_VERIFY))
        elif isinstance(out, Exception):
            rec = gates.failed_record(name, eps, None, repr(out))
            records.append({**rec, "n": CHECKS_PER_VERIFY})
        else:
            n = sum(not line.startswith("info") for line in out)
            if n != CHECKS_PER_VERIFY:
                raise RuntimeError(f"run_verify made {n} checks, the benchmark "
                                   f"counts {CHECKS_PER_VERIFY}")
            records.append(gates.verify_record(name, eps, [], n))
    return records
