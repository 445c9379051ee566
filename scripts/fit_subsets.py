#!/usr/bin/env python3
"""Leave-one-out stability of the fitted leading coefficients.

Fits c1/sqrt(eps) + c0 to each bound series on the full sweep and on every
subset that drops one gap width.  A fit dominated by the asymptotic term
should move by well under a percent when any single point is removed; a
large swing flags that the sweep has not reached the scaling regime.

Reads sweep rows from a CSV produced by ``gapstress sweep`` (or computes
them from a config when --config is given instead).
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from gapstress.pipeline import _fit_series


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="sweep CSV to analyze")
    src.add_argument("--config", help="config to sweep before analyzing")
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args(argv)

    if args.csv:
        with open(args.csv, newline="") as fh:
            records = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    else:
        from gapstress import parse_config, sweep_and_fit

        cfg = parse_config(args.config)
        swept, _ = sweep_and_fit(cfg, workers=args.workers)
        records = [{"eps": r.eps, "j": r.j, "upper": r.upper, "lower": r.lower,
                    "fk_constant": r.fk_constant} for r in swept]

    for j in sorted({int(r["j"]) for r in records}):
        sel = [r for r in records if r["j"] == j]
        eps = np.array([r["eps"] for r in sel])
        target = sel[0]["fk_constant"]
        for kind in ("upper", "lower"):
            vals = np.array([r[kind] for r in sel])
            if eps.size < 4:
                print(f"j={j} {kind}: need at least 4 points for leave-one-out, have {eps.size}")
                continue
            c1_full = _fit_series(eps, vals[:, None], [target])[0].c1
            swings = []
            for drop in range(eps.size):
                keep = np.arange(eps.size) != drop
                c1_sub = _fit_series(eps[keep], vals[keep, None], [target])[0].c1
                swings.append((abs(c1_sub - c1_full) / abs(c1_full), eps[drop]))
            worst, at = max(swings)
            print(f"j={j} {kind:5s}: c1 = {c1_full:.6f}, "
                  f"worst leave-one-out swing {100 * worst:.4f}% (dropping eps={at:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
