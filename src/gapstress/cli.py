"""Command line front end.

Exit codes: 0 success, 2 configuration problems or an output file that
cannot be written, 3 quadrature failures, 4 verification failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .elasticity import derived_constants
from .geometry import make_gap_geometry
from .kernels import KERNEL_NAMES, kernel_displacement, kernel_gradient
from .pipeline import (
    ConfigError,
    RunConfig,
    VerificationError,
    compute_width_rows,
    fk_asymptotic,
    parse_config,
    rows_to_csv,
    run_verify,
    sweep_and_fit,
    write_csv,
)
from .quadrature import QuadratureError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapstress",
        description="Variational bounds for the effective moduli of a "
                    "periodic composite with nearly touching stiff inclusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--eps", type=float, default=None,
                       help="override: single gap width to use")

    def add_common(p: argparse.ArgumentParser) -> None:
        add_config(p)
        p.add_argument("--j", type=int, choices=(1, 2), default=None,
                       help="restrict to one load direction")
        p.add_argument("--out", default=None, help="override output CSV path")

    p_bounds = sub.add_parser("bounds", help="upper/lower bound for one gap width")
    add_common(p_bounds)
    p_sweep = sub.add_parser("sweep", help="full eps sweep with least-squares fit")
    add_common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="at most N processes over the gap widths (default serial)")
    p_verify = sub.add_parser("verify", help="run the identity check suite")
    add_config(p_verify)
    p_kern = sub.add_parser("kernel-eval", help="print kernel values at points")
    p_kern.add_argument("--config", required=True)
    p_kern.add_argument("--kernel", choices=KERNEL_NAMES + ("all",), default="all")
    p_kern.add_argument("--point", nargs=2, type=float, action="append",
                        metavar=("X", "Y"),
                        help="evaluation point, repeatable (default 1.0 0.5)")
    return parser


class _OutputError(Exception):
    """An output file that cannot be written."""


def _write(rows, out: str) -> None:
    try:
        write_csv(rows, out)
    except OSError as exc:
        raise _OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _restrict(cfg: RunConfig, eps: float | None) -> RunConfig:
    return cfg if eps is None else dataclasses.replace(cfg, eps_list=(eps,))


def _warn(rows) -> None:
    for row in rows:
        if not row.converged:
            print(f"warning: eps={row.eps:g} j={row.j} did not converge", file=sys.stderr)
        if row.modulus_interval[0] > row.modulus_interval[1]:
            print(f"warning: eps={row.eps:g} j={row.j} lower bound exceeds upper bound",
                  file=sys.stderr)


def _cmd_bounds(args: argparse.Namespace) -> int:
    cfg = _restrict(parse_config(args.config), args.eps)
    eps = cfg.eps_list[0]
    js = (args.j,) if args.j else (1, 2)
    rows = compute_width_rows(cfg, (eps,), js)
    _warn(rows)
    geom = make_gap_geometry(cfg.shape, eps, cfg.L2)
    lead = fk_asymptotic(geom, cfg.material)
    dc = derived_constants(cfg.material)
    print(f"eps = {eps:g}   L1 = {geom.L1:.9g}   L2 = {geom.L2:g}   "
          f"kappa0 = {geom.kappa0:g}")
    print(f"material: lambda = {cfg.material.lam:g}  mu = {cfg.material.mu:g}  "
          f"E = {dc.E:g}  prefactor = {dc.prefactor:g}")
    for row in rows:
        name = "E*" if row.j == 1 else "mu*"
        lead_key = "E_star_leading" if row.j == 1 else "mu_star_leading"
        d = row.diagnostics
        print(f"\nj = {row.j}")
        print(f"  energy bounds:   [{row.lower:.10g}, {row.upper:.10g}]")
        print(f"  scaled by sqrt(eps): [{row.lower_scaled:.10g}, {row.upper_scaled:.10g}]"
              f"   leading constant m_{row.j} = {row.fk_constant:.10g}")
        print(f"  {name} interval:  [{row.modulus_interval[0]:.10g}, "
              f"{row.modulus_interval[1]:.10g}]   asymptotic {lead[lead_key]:.10g}")
        print(f"  diagnostics: asymmetry {d.asymmetry_max:.3e}  "
              f"edge traction {d.bc_residual:.3e}  divergence {d.div_residual:.3e}")
        print(f"  quadrature error estimate: {row.quad_err:.3e}")
    out = args.out or cfg.out
    if out:
        _write(rows, out)
        print(f"\nwrote {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _restrict(parse_config(args.config), args.eps)
    loads = (args.j,) if args.j else (1, 2)
    rows, fits = sweep_and_fit(cfg, workers=args.workers, loads=loads)
    _warn(rows)
    out = args.out or cfg.out
    if out:
        _write(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    report = sys.stdout if out else sys.stderr
    for j, pair in fits.items():
        target = next(r.fk_constant for r in rows if r.j == j)
        for kind in ("upper", "lower"):
            f = pair[kind]
            print(f"fit j={j} {kind}: c1 = {f.c1:.8g} (target {target:.8g}, "
                  f"rel dev {f.rel_dev:.2%}), c0 = {f.c0:.6g}, rms residual {f.residual:.3g}",
                  file=report)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    lines = run_verify(cfg, eps=args.eps)
    for line in lines:
        print(line)
    print("all verification checks passed")
    return 0


def _cmd_kernel_eval(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    names = KERNEL_NAMES if args.kernel == "all" else (args.kernel,)
    points = args.point or [[1.0, 0.5]]
    pts = np.asarray(points, dtype=float)
    for p in pts:
        print(f"point ({p[0]:g}, {p[1]:g}):")
        for name in names:
            u = kernel_displacement(name, p, cfg.material)
            g = kernel_gradient(name, p, cfg.material)
            print(f"  {name:10s} u = ({u[0]:+.9e}, {u[1]:+.9e})")
            print(f"  {'':10s} grad rows = ({g.a11:+.9e}, {g.a12:+.9e}) "
                  f"({g.a21:+.9e}, {g.a22:+.9e})")
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "kernel-eval": _cmd_kernel_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(exc, file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        for line in exc.lines:
            print(line)
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
