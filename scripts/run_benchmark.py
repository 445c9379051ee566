#!/usr/bin/env python3
"""Run the benchmark sweep and print the scaled-bound table with fits.

Reproduces the headline numbers for the disk cell: both energy bounds per
gap width, their sqrt(eps)-scaled values against the flux constants, the
fitted leading coefficients, and the effective modulus intervals.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from gapstress import (
    fk_asymptotic,
    make_gap_geometry,
    parse_config,
    sweep_and_fit,
    write_csv,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--config",
        default=str(Path(__file__).resolve().parent.parent / "configs" / "disk.cfg"),
    )
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out", default=None, help="CSV path (default: config 'out' key)")
    args = ap.parse_args(argv)

    cfg = parse_config(args.config)
    rows, fits = sweep_and_fit(cfg, workers=args.workers)

    print(f"{'eps':>8} {'j':>2} {'lower*sqrt(eps)':>16} {'upper*sqrt(eps)':>16} "
          f"{'m_j':>10} {'quad err':>10}")
    for r in rows:
        print(f"{r.eps:8.0e} {r.j:2d} {r.lower_scaled:16.8f} {r.upper_scaled:16.8f} "
              f"{r.fk_constant:10.6f} {r.quad_err:10.2e}")

    print()
    for j in (1, 2):
        for kind in ("upper", "lower"):
            f = fits[j][kind]
            print(f"fit j={j} {kind}: c1 = {f.c1:.6f} "
                  f"(rel dev {100 * f.rel_dev:.3f}%), c0 = {f.c0:+.4f}, "
                  f"rms residual {f.residual:.3g}")

    eps_min = min(cfg.eps_list)
    geom = make_gap_geometry(cfg.shape, eps_min, cfg.L2)
    # the rows' intervals are already widened by the quadrature errors
    e_row, mu_row = (r for r in rows if r.eps == eps_min)
    lead = fk_asymptotic(geom, cfg.material)
    print()
    print(f"at eps = {eps_min:g}:")
    print(f"  E*  in [{e_row.modulus_interval[0]:.4f}, {e_row.modulus_interval[1]:.4f}]   "
          f"asymptotic {lead['E_star_leading']:.4f}")
    print(f"  mu* in [{mu_row.modulus_interval[0]:.4f}, {mu_row.modulus_interval[1]:.4f}]   "
          f"asymptotic {lead['mu_star_leading']:.4f}")

    out = args.out or cfg.out
    if out:
        write_csv(rows, out)
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
