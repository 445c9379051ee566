"""Traced run: spans around the calls into each gapstress layer.

Tracer wraps public functions at the names the calling module looks them up
by (``gapstress.bounds.integrate_cell``, ``gapstress.quadrature.rect_classify``
and so on), plus the integrands handed to the three integrators.  Spans stay
in memory (name, label, start, end, parent, row id, counters); ``dump`` writes
them as JSON lines and ``layer_metrics`` reads a dump back into the per-layer
metrics.  Rows must run serially while tracing, because spans recorded in
pool workers would be lost.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); order matters only for restoring
SITES = (
    ("gapstress.pipeline", "compute_sweep_row", "pipeline.compute_sweep_row"),
    ("gapstress.pipeline", "run_verify", "pipeline.run_verify"),
    ("gapstress.pipeline", "primal_upper", "bounds.primal_upper"),
    ("gapstress.pipeline", "build_dual_stress", "bounds.build_dual_stress"),
    ("gapstress.pipeline", "dual_lower", "bounds.dual_lower"),
    ("gapstress.bounds", "flux_identity_check", "bounds.flux_identity_check"),
    ("gapstress.bounds", "energy_identity_check", "bounds.energy_identity_check"),
    ("gapstress.bounds", "integrate_cell", "quadrature.integrate_cell"),
    ("gapstress.bounds", "integrate_path", "quadrature.integrate_path"),
    ("gapstress.bounds", "cumulative_line_table", "quadrature.cumulative_line_table"),
    ("gapstress.bounds", "singular_stress", "kernels.singular_stress"),
    ("gapstress.bounds", "singular_displacement", "kernels.singular_displacement"),
    ("gapstress.bounds", "compliance_energy", "elasticity.compliance_energy"),
    ("gapstress.bounds", "compliance_contract", "elasticity.compliance_contract"),
    ("gapstress.bounds", "energy_density", "elasticity.energy_density"),
    ("gapstress.bounds", "region_classify", "geometry.region_classify"),
    ("gapstress.quadrature", "rect_classify", "geometry.rect_classify"),
    ("gapstress.quadrature", "rect_matrix_area", "geometry.rect_matrix_area"),
    ("gapstress.quadrature", "region_classify", "geometry.region_classify"),
)

ROW_SPANS = ("pipeline.compute_sweep_row", "pipeline.run_verify")
INTEGRATORS = {  # span name -> position of the integrand argument
    "quadrature.integrate_cell": 1,
    "quadrature.integrate_path": 1,
    "quadrature.cumulative_line_table": 0,
}
# integral labels by the enclosing bounds function, in call order
LABELS = {
    ("bounds.primal_upper", "quadrature.integrate_cell"): ("primal",),
    ("bounds.dual_lower", "quadrature.integrate_cell"): ("q_ss", "q_cc", "q_sc"),
    ("bounds.dual_lower", "quadrature.integrate_path"): ("lin_s", "lin_c"),
    ("bounds.build_dual_stress", "quadrature.cumulative_line_table"): ("g_table",),
}
ROW_INTEGRALS = ("primal", "q_ss", "q_cc", "q_sc", "lin_s", "lin_c", "g_table")


def _n_points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else int(np.size(x))


def _count(span, args, out) -> None:
    """Counters recorded at a layer boundary, from its arguments and result."""
    name, a = span.name, span.attrs
    if name.startswith("kernels."):
        a["points"] = _n_points(args[2])
    elif name.startswith("elasticity."):
        a["points"] = int(np.size(args[0].a11))
    elif name == "geometry.region_classify":
        a["points"] = int(np.size(out))
        a["matrix"] = int(np.count_nonzero(out == 0))
    elif name == "geometry.rect_classify":
        a["cells"] = int(np.size(out))
        a["cut"] = int(np.count_nonzero(out == 3))
    elif name == "geometry.rect_matrix_area":
        a["cells"] = int(np.size(args[1]))
    elif name == "quadrature.cumulative_line_table":
        a["nodes"] = int(np.size(out[0]))
        a["err"] = float(out[3])
    elif name.startswith("quadrature."):
        a.update(panels=out.panels_used, err=out.err_estimate, converged=out.converged)
    elif name in ("bounds.primal_upper", "bounds.dual_lower"):
        a.update(value=out.value, err=out.quadrature_err, converged=out.converged)
    elif name == "pipeline.compute_sweep_row":
        a.update(eps=float(args[1]), j=int(args[2]), upper=out.upper, lower=out.lower)
    elif name == "pipeline.run_verify":
        a["eps"] = float(args[1])


class Span:
    __slots__ = ("id", "name", "label", "t0", "t1", "parent", "row", "attrs", "seen")

    def __init__(self, sid, name, parent, row):
        self.id, self.name, self.parent, self.row = sid, name, parent, row
        self.label = None
        self.attrs = {}
        self.seen = defaultdict(int)  # integrator calls made directly under this span
        self.t0 = self.t1 = 0.0

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "label": self.label,
                "start": self.t0, "end": self.t1, "parent": self.parent,
                "row": self.row, **self.attrs}


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for mod_name, attr, span_name in SITES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span_name))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        row = parent.row if parent else None
        span = Span(len(self.spans), name, parent.id if parent else None, row)
        if name in ROW_SPANS:
            span.row = span.id
        if name in INTEGRATORS:
            owner = next((s for s in reversed(self._stack) if s.name.startswith("bounds.")), None)
            if owner is not None:
                labels = LABELS.get((owner.name, name), ())
                k = owner.seen[name]
                owner.seen[name] += 1
                span.label = labels[k] if k < len(labels) else None
            span.attrs["evals"] = 0
        self.spans.append(span)
        self._stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if name in INTEGRATORS:
                pos = INTEGRATORS[name]
                args = args[:pos] + (tracer._wrap_integrand(args[pos], span),) + args[pos + 1:]
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _count(span, args, out)
            return out

        return wrapper

    def _wrap_integrand(self, fn, owner: Span):
        tracer = self

        def integrand(*args):
            span = tracer._open("integrand")
            try:
                out = fn(*args)
            finally:
                tracer._close(span)
            n = len(args[0])
            span.attrs["points"] = n
            owner.attrs["evals"] += n
            return out

        return integrand

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# per-layer metrics from a dump
# ---------------------------------------------------------------------------

def _metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    m = []
    for fn in ("integrate_cell", "integrate_path"):
        p = f"quadrature.{fn}"
        m += [(f"{p}.calls", "count", "lower"), (f"{p}.s", "s", "lower"),
              (f"{p}.self_s", "s", "lower"), (f"{p}.panels", "count", "lower"),
              (f"{p}.evals", "count", "lower"), (f"{p}.evals_per_s", "1/s", "higher"),
              (f"{p}.converged_frac", "ratio", "higher")]
    m += [("quadrature.cumulative_line_table.calls", "count", "lower"),
          ("quadrature.cumulative_line_table.s", "s", "lower"),
          ("quadrature.cumulative_line_table.nodes", "count", "lower")]
    for label in ("primal", "q_ss", "q_cc", "q_sc"):
        m += [(f"integral.{label}.s", "s", "lower"), (f"integral.{label}.evals", "count", "lower"),
              (f"integral.{label}.panels", "count", "lower"), (f"integral.{label}.err", "1", "lower")]
    for label in ("lin_s", "lin_c", "g_table"):
        m += [(f"integral.{label}.s", "s", "lower"), (f"integral.{label}.evals", "count", "lower")]
    m += [("integral.primal.ref_dev", "ratio", "lower"),
          ("integral.coverage_min", "ratio", "higher")]
    m += [("kernels.singular_stress.calls", "count", "lower"),
          ("kernels.singular_stress.points", "count", "lower"),
          ("kernels.singular_stress.s", "s", "lower"),
          ("kernels.singular_stress.points_per_s", "1/s", "higher"),
          ("kernels.singular_displacement.calls", "count", "lower"),
          ("kernels.singular_displacement.points", "count", "lower"),
          ("kernels.singular_displacement.s", "s", "lower")]
    for fn in ("compliance_energy", "compliance_contract", "energy_density"):
        m += [(f"elasticity.{fn}.points", "count", "lower"), (f"elasticity.{fn}.s", "s", "lower")]
    m += [("geometry.rect_classify.cells", "count", "lower"),
          ("geometry.rect_classify.s", "s", "lower"),
          ("geometry.rect_classify.cut_frac", "ratio", "lower"),
          ("geometry.rect_matrix_area.cells", "count", "lower"),
          ("geometry.rect_matrix_area.s", "s", "lower"),
          ("geometry.region_classify.points", "count", "lower"),
          ("geometry.region_classify.s", "s", "lower"),
          ("geometry.region_classify.matrix_frac", "ratio", "higher")]
    for fn in ("primal_upper", "build_dual_stress", "dual_lower"):
        m += [(f"bounds.{fn}.s", "s", "lower"), (f"bounds.{fn}.self_s", "s", "lower")]
    m += [("bounds.converged_frac", "ratio", "higher"),
          ("pipeline.compute_sweep_row.calls", "count", "lower"),
          ("pipeline.compute_sweep_row.s", "s", "lower"),
          ("pipeline.run_verify.calls", "count", "lower"),
          ("pipeline.run_verify.s", "s", "lower"),
          ("pipeline.pool_efficiency", "ratio", "higher"),
          ("trace.untraced_wall_s", "s", "lower"),
          ("trace.traced_wall_s", "s", "lower"),
          ("trace.overhead_s", "s", "lower"),
          ("trace.spans", "count", "lower")]
    return m


PER_LAYER = _metric_names()


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def row_coverage(spans: list[dict]) -> dict[int, float]:
    """Share of each compute_sweep_row span covered by its integral spans."""
    covered = defaultdict(float)
    for s in spans:
        if s["label"] in ROW_INTEGRALS and s["row"] is not None:
            covered[s["row"]] += s["end"] - s["start"]
    return {s["id"]: covered[s["id"]] / (s["end"] - s["start"])
            for s in spans if s["name"] == "pipeline.compute_sweep_row"}


def layer_metrics(spans: list[dict], untraced_wall: float, serial_wall: float,
                  traced_wall: float, workers: int) -> dict[str, float]:
    """Every metric of PER_LAYER from a span dump and the three unit timings."""
    own = self_times(spans)
    by_name = defaultdict(list)
    by_label = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["label"] is not None:
            by_label[s["label"]].append(s)

    def total(group, key=None) -> float:
        if key is None:
            return float(sum(s["end"] - s["start"] for s in group))
        return float(sum(s.get(key, 0) for s in group))

    out: dict[str, float] = {}
    for fn in ("integrate_cell", "integrate_path"):
        p = f"quadrature.{fn}"
        g = by_name[p]
        secs = total(g)
        out.update({
            f"{p}.calls": len(g), f"{p}.s": secs,
            f"{p}.self_s": float(sum(own[s["id"]] for s in g)),
            f"{p}.panels": total(g, "panels"), f"{p}.evals": total(g, "evals"),
            f"{p}.evals_per_s": _ratio(total(g, "evals"), secs),
            f"{p}.converged_frac": _ratio(sum(bool(s["converged"]) for s in g), len(g)),
        })
    g = by_name["quadrature.cumulative_line_table"]
    out.update({"quadrature.cumulative_line_table.calls": len(g),
                "quadrature.cumulative_line_table.s": total(g),
                "quadrature.cumulative_line_table.nodes": total(g, "nodes")})
    for label in ("primal", "q_ss", "q_cc", "q_sc", "lin_s", "lin_c", "g_table"):
        g = by_label[label]
        out[f"integral.{label}.s"] = total(g)
        out[f"integral.{label}.evals"] = total(g, "evals")
        if label in ("primal", "q_ss", "q_cc", "q_sc"):
            out[f"integral.{label}.panels"] = total(g, "panels")
            out[f"integral.{label}.err"] = total(g, "err")
    # worst row: |upper - reference| / reported error, stored on the row span
    out["integral.primal.ref_dev"] = max(
        (s.get("ref_dev", 0.0) for s in by_name["pipeline.compute_sweep_row"]), default=0.0)
    cov = row_coverage(spans)
    out["integral.coverage_min"] = min(cov.values()) if cov else 0.0
    for fn in ("singular_stress", "singular_displacement"):
        g = by_name[f"kernels.{fn}"]
        out[f"kernels.{fn}.calls"] = len(g)
        out[f"kernels.{fn}.points"] = total(g, "points")
        out[f"kernels.{fn}.s"] = total(g)
    out["kernels.singular_stress.points_per_s"] = _ratio(
        out["kernels.singular_stress.points"], out["kernels.singular_stress.s"])
    for fn in ("compliance_energy", "compliance_contract", "energy_density"):
        g = by_name[f"elasticity.{fn}"]
        out[f"elasticity.{fn}.points"] = total(g, "points")
        out[f"elasticity.{fn}.s"] = total(g)
    g = by_name["geometry.rect_classify"]
    out.update({"geometry.rect_classify.cells": total(g, "cells"),
                "geometry.rect_classify.s": total(g),
                "geometry.rect_classify.cut_frac": _ratio(total(g, "cut"), total(g, "cells"))})
    g = by_name["geometry.rect_matrix_area"]
    out.update({"geometry.rect_matrix_area.cells": total(g, "cells"),
                "geometry.rect_matrix_area.s": total(g)})
    g = by_name["geometry.region_classify"]
    # matrix_frac counts only the cut-cell samples, i.e. calls from quadrature
    names = {s["id"]: s["name"] for s in spans}
    cut = [s for s in g if names.get(s["parent"]) == "quadrature.integrate_cell"]
    out.update({"geometry.region_classify.points": total(g, "points"),
                "geometry.region_classify.s": total(g),
                "geometry.region_classify.matrix_frac": _ratio(total(cut, "matrix"),
                                                               total(cut, "points"))})
    for fn in ("primal_upper", "build_dual_stress", "dual_lower"):
        g = by_name[f"bounds.{fn}"]
        out[f"bounds.{fn}.s"] = total(g)
        out[f"bounds.{fn}.self_s"] = float(sum(own[s["id"]] for s in g))
    bounds = by_name["bounds.primal_upper"] + by_name["bounds.dual_lower"]
    out["bounds.converged_frac"] = _ratio(sum(bool(s["converged"]) for s in bounds), len(bounds))
    for fn in ("compute_sweep_row", "run_verify"):
        g = by_name[f"pipeline.{fn}"]
        out[f"pipeline.{fn}.calls"] = len(g)
        out[f"pipeline.{fn}.s"] = total(g)
    out["pipeline.pool_efficiency"] = _ratio(out["pipeline.compute_sweep_row.s"],
                                             workers * untraced_wall)
    out.update({"trace.untraced_wall_s": untraced_wall, "trace.traced_wall_s": traced_wall,
                "trace.overhead_s": traced_wall - serial_wall, "trace.spans": len(spans)})
    return {k: float(out[k]) for k, _, _ in PER_LAYER}
