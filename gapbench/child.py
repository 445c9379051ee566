"""One round of the benchmark, in a fresh process.

Times the set-up (import gapstress, parse the configs, build a geometry),
then runs the workload unit repeatedly, each time on a fresh draw of inputs,
until the round budget is spent, and gates every result.  With --trace 1 it
instead runs one untraced unit as configured, one untraced serial unit and
one traced serial unit, and writes the span dump.  Prints one JSON object on
stdout.

    PYTHONPATH=src:. python3 -m gapbench.child --workload identities --seed 0 --budget 5
"""

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    t0 = time.perf_counter()
    import gapstress.pipeline  # noqa: F401  (the import users pay for)
    t_import = time.perf_counter() - t0

    from gapbench import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--round", type=int, default=0, help="index of this round in the run")
    ap.add_argument("--budget", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump", default=None, help="span dump path (traced round)")
    args = ap.parse_args(argv)

    t1 = time.perf_counter()
    cfgs = workloads.setup(args.workload)
    setup_s = t_import + time.perf_counter() - t1

    report = {"setup_s": setup_s, "units": []}
    if args.trace:
        inputs = workloads.make_inputs(args.workload, cfgs, args.seed)
        report["trace"] = traced_round(inputs, args.dump, report["units"])
    else:
        start = time.perf_counter()
        while True:
            draw = f"{args.round}.{len(report['units'])}"
            inputs = workloads.make_inputs(args.workload, cfgs, args.seed, draw)
            wall, call_s, outcomes = workloads.run_unit(inputs)
            report["units"].append(unit_report(inputs, wall, call_s, outcomes))
            if time.perf_counter() - start + wall > args.budget:
                break
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mb"] = peak_kb / 1024.0
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


def unit_report(inputs, wall, call_s, outcomes) -> dict:
    from gapbench import gates, workloads

    records = workloads.certify(inputs, outcomes)
    return {"inputs": inputs.describe(), "wall_s": wall, "call_s": call_s,
            "records": records, "unknown_failures": gates.unknown_failures(records)}


def traced_round(inputs, dump_path, units: list) -> dict:
    from gapbench import tracing, workloads

    untraced, call_s, outcomes = workloads.run_unit(inputs)
    units.append(unit_report(inputs, untraced, call_s, outcomes))
    # the first unit also pays for warm-up, so time an untraced serial unit
    # again as the baseline of the tracing overhead
    serial, _, _ = workloads.run_unit(inputs, serial=True)
    with tracing.Tracer() as tracer:
        traced, call_s, outcomes = workloads.run_unit(inputs, serial=True)
    units.append(unit_report(inputs, traced, call_s, outcomes))
    annotate_rows(tracer.spans, units[-1]["records"])
    tracer.dump(dump_path)
    spans = tracing.load(dump_path)
    workers = workloads.POOL_WORKERS if inputs.workload == "disk-sweep" else 1
    return {
        "dump": str(dump_path),
        "metrics": tracing.layer_metrics(spans, untraced, serial, traced, workers),
        "coverage": sorted(tracing.row_coverage(spans).values()),
        "integrals": integral_records(spans),
    }


def annotate_rows(spans, records) -> None:
    """Store the primal reference and the coverage ratio of the primal error
    bar, |upper - reference| / reported error, on each row span."""
    by_row = {(r["eps"], r["j"]): r for r in records if "reference" in r}
    rows = {s.id: s for s in spans if s.name == "pipeline.compute_sweep_row"}
    for s in spans:
        if s.name == "bounds.primal_upper" and s.row in rows:
            row = rows[s.row]
            rec = by_row.get((row.attrs["eps"], row.attrs["j"]))
            if rec is not None:
                row.attrs["reference"] = rec["reference"]
                row.attrs["ref_dev"] = abs(s.attrs["value"] - rec["reference"]) / s.attrs["err"]


def integral_records(spans) -> list[dict]:
    """Per-row, per-integral records read back from the dump."""
    rows = {s["id"]: s for s in spans if s["name"] == "pipeline.compute_sweep_row"}
    out = []
    for s in spans:
        if s["label"] and s["row"] in rows:
            r = rows[s["row"]]
            out.append({"eps": r["eps"], "j": r["j"], "integral": s["label"],
                        "s": s["end"] - s["start"], "evals": s.get("evals", 0),
                        "panels": s.get("panels"), "err": s.get("err")})
    return out


if __name__ == "__main__":
    sys.exit(main())
