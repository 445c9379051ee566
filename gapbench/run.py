#!/usr/bin/env python3
"""gapstress benchmark: time to a certified bracket, end to end and per layer.

    python3 gapbench/run.py --workload disk-sweep --seed 0 --seconds 30 --trace 0
    python3 gapbench/run.py --workload all                    # every workload

Run from the repository root.  Without tracing, the run repeats rounds until
--seconds is spent; each round is a fresh process that times its set-up and
then runs the workload unit one or more times, gating every result.  It
prints each end-to-end metric of BENCHMARK.json with its unit and sample
count.  With --trace 1 it makes one traced round and prints the per-layer
metrics instead; the span dump goes to .gapbench_out/.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".gapbench_out"
ROUNDS = 3  # rounds per run: each gives one set-up sample and a fresh process
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, round_index: int, budget: float, trace: int,
              timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [sys.executable, "-m", "gapbench.child", "--workload", workload,
           "--seed", str(seed), "--round", str(round_index), "--budget", repr(budget),
           "--trace", str(trace)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--dump", str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")]
    # own session, so a timeout also stops the round's pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"round failed (exit {proc.returncode}):\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile_line(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    parts = [f"p50 {statistics.median(samples):.4f}"]
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100)[p - 1]
            parts.append(f"p{p} {q:.4f}")
            break
    return ", ".join(parts) + f" (n={n})"


def gate_summary(units: list[dict]) -> tuple[int, int, int, list[dict], list[dict]]:
    """(attempted, failed to run, certified, distinct failing records, failures
    that are not known seed defects).  A row is one result; a run_verify
    record stands for its n identity checks."""
    records = [r for u in units for r in u["records"]]
    unknown = [r for u in units for r in u["unknown_failures"]]
    attempted = sum(r.get("n", 1) for r in records)
    failed_op = sum(r.get("n", 1) for r in records if "a" in r["gates"])
    certified = sum(r["n"] - len(r["checks"]) if "checks" in r else not r["gates"]
                    for r in records)
    distinct = {}
    for r in records:
        if r["gates"]:
            distinct[(r["config"], r["eps"], r["j"], tuple(r["gates"]))] = r
    return attempted, failed_op, certified, list(distinct.values()), unknown


def print_failures(distinct: list[dict], unknown: list[dict]) -> None:
    for r in distinct:
        what = f"j={r['j']}" if r["j"] is not None else "run_verify"
        extra = ", ".join(r.get("checks", [])) or r.get("error", "")
        print(f"  not certified: {r['config']} eps={r['eps']:.6g} {what} "
              f"gates {','.join(r['gates'])} {extra}")
    for r in unknown:
        print(f"  NEW FAILURE (not a known seed defect): {r}")


def timed_run(spec: dict, workload: str, seed: int, seconds: float) -> dict:
    t_start = time.perf_counter()
    rounds = []
    overhead = unit = 0.0  # per-round cost outside the units, and one unit
    while True:
        elapsed = time.perf_counter() - t_start
        remaining = seconds - elapsed
        if rounds and remaining < overhead + unit:
            break
        budget = min(seconds / ROUNDS, remaining - overhead)
        t0 = time.perf_counter()
        rounds.append(run_child(workload, seed, len(rounds), budget, 0,
                                TIME_LIMIT_S - elapsed))
        walls = [u["wall_s"] for u in rounds[-1]["units"]]
        overhead = time.perf_counter() - t0 - sum(walls)
        unit = statistics.median(walls)
    units = [u for r in rounds for u in r["units"]]
    attempted, failed_op, certified, distinct, unknown = gate_summary(units)
    walls = [u["wall_s"] for u in units]
    calls = [c for u in units for c in u["call_s"]]
    samples = {
        "wall_s": walls,
        "certified_frac": [certified / attempted],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "setup_s": [r["setup_s"] for r in rounds],
    }
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": units_of[name]}
               for name in units_of}

    print(f"workload {workload}, seed {seed}: {len(rounds)} rounds, {len(units)} units, "
          f"{time.perf_counter() - t_start:.1f} s")
    OUT_DIR.mkdir(exist_ok=True)
    inputs_path = OUT_DIR / f"inputs-{workload}-seed{seed}.json"
    inputs_path.write_text(json.dumps([u["inputs"] for u in units], indent=1) + "\n")
    first = units[0]["inputs"]["calls"]
    shown = ", ".join(first[:4]) + (f", ... ({len(first)} calls)" if len(first) > 4 else "")
    print(f"  inputs of the first unit: {shown}; every unit's in "
          f"{inputs_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        count = (f"of {attempted} results" if name == "certified_frac"
                 else f"median of {len(samples[name])}")
        print(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<6} {count}")
    print(f"  per call (s): {percentile_line(calls)}")
    print(f"  results: {attempted} attempted, {certified} certified, "
          f"{failed_op} failed to run")
    print_failures(distinct, unknown)
    return {"correct": failed_op == 0 and not unknown, "attempted": attempted,
            "failed": failed_op, "metrics": metrics}


def traced_run(spec: dict, workload: str, seed: int) -> dict:
    rep = run_child(workload, seed, 0, 0.0, 1, TIME_LIMIT_S)
    tr = rep["trace"]
    attempted, failed_op, certified, distinct, unknown = gate_summary(rep["units"])
    units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {name: {"value": tr["metrics"][name], "unit": unit}
               for name, unit in units_of.items()}
    lines = [f"workload {workload}, seed {seed}: traced round, span dump {tr['dump']}"]
    lines += [f"  {name:<44} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  tracing overhead: {tr['metrics']['trace.overhead_s']:+.3f} s "
                 f"(traced {tr['metrics']['trace.traced_wall_s']:.3f} s serial, untraced "
                 f"{tr['metrics']['trace.untraced_wall_s']:.3f} s as configured)")
    if tr["coverage"]:
        lines.append(f"  integral spans cover {min(tr['coverage']):.3f}-"
                     f"{max(tr['coverage']):.3f} of each row span")
    lines.append("  per-integral records (eps, j, integral, s, evals, panels, err):")
    lines += [f"    {r['eps']:.4g} {r['j']} {r['integral']:<8} {r['s']:9.4f} "
              f"{r['evals']:>10} {r['panels'] if r['panels'] is not None else '-':>8} "
              f"{r['err'] if r['err'] is not None else float('nan'):.3e}"
              for r in tr["integrals"]]
    text = "\n".join(lines)
    (OUT_DIR / f"layers-{workload}-seed{seed}.txt").write_text(text + "\n")
    print(text)
    print(f"  results: {attempted} attempted, {certified} certified, "
          f"{failed_op} failed to run")
    print_failures(distinct, unknown)
    return {"correct": failed_op == 0 and not unknown, "attempted": attempted,
            "failed": failed_op, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/gapstress/__init__.py", "configs/disk.cfg", "configs/ellipse.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"gapbench: not a gapstress checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    results = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            if args.trace:
                results[name] = traced_run(spec, name, args.seed)
            else:
                results[name] = timed_run(spec, name, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"gapbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
