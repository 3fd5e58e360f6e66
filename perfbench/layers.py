"""Per-layer metrics derived from the span file of a traced pass.

Times and counts are per CLI call: the value reported is the median over
the calls of the pass.  ``dim_max`` is the largest over the pass, and the
two ratios (``useful_frac``, ``rk4.gflops``) are taken over pass totals.
Self time is a span's duration minus the durations of its direct children.
run.py turns the times into seconds at the reference speed of
calibration.py, as it does the end-to-end times.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

#: (name, unit, better) of every per-layer metric, in print order.
METRICS = (
    ("path_integrals.build_drive_path.calls", "count", "lower"),
    ("path_integrals.quadrature.s", "s", "lower"),
    ("path_integrals.closed_form.s", "s", "lower"),
    ("path_integrals.points", "count", "lower"),
    ("fock_algebra.displacement_matrix.calls", "count", "lower"),
    ("fock_algebra.displacement_matrix.s", "s", "lower"),
    ("fock_algebra.elements", "count", "lower"),
    ("fock_algebra.dim_max", "count", "lower"),
    ("fock_algebra.useful_frac", "ratio", "higher"),
    ("fock_algebra.truncation_warnings", "count", "lower"),
    ("propagator.assemble.calls", "count", "lower"),
    ("propagator.assemble.self_s", "s", "lower"),
    ("propagator.transition_probabilities.s", "s", "lower"),
    ("propagator.displacement_argument.calls", "count", "lower"),
    ("oracle.rk4.calls", "count", "lower"),
    ("oracle.rk4.s", "s", "lower"),
    ("oracle.rk4.steps", "count", "lower"),
    ("oracle.rk4.gflop", "GFLOP", "lower"),
    ("oracle.rk4.gflops", "GFLOP/s", "higher"),
    ("oracle.expmid.s", "s", "lower"),
    ("oracle.expmid.steps", "count", "lower"),
    ("oracle.heisenberg_residual.s", "s", "lower"),
    ("oracle.guiding_center_residual.s", "s", "lower"),
    ("oracle.run_validation.self_s", "s", "lower"),
    ("field_model.internalize.calls", "count", "lower"),
    ("field_model.field.calls", "count", "lower"),
    ("field_model.field.s", "s", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.resolve_config.s", "s", "lower"),
    ("cli.run.s", "s", "lower"),
    ("cli.io.s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("tracing.run_s.p50", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
    ("host.probe_s", "s", "lower"),
    ("wall.run_s.p50", "s", "lower"),
)
#: Metrics of the whole pass that run.py fills in, not the span file.
PASS_METRICS = ("tracing.run_s.p50", "tracing.overhead_s", "host.probe_s", "wall.run_s.p50")


def _columns_read(site: str, dim: int) -> int:
    """Columns of a displacement matrix that the calling module reads.

    ``cli.run_simulate`` reads the initial level's column and ``oracle``
    compares the leading half block.  A matrix built inside
    ``propagator.assemble`` is read one column per
    ``transition_probabilities`` call, which is counted there.
    """
    return {"cli": 1, "oracle": dim // 2}.get(site, 0)


_RUN_SPANS = {"cli.run_simulate", "cli.run_sweep", "cli.run_validate", "cli.run_phases"}
_COUNTED = {  # spans summed into "<name>.calls" and "<name>.s"
    "path_integrals.build_drive_path",
    "fock_algebra.displacement_matrix",
    "propagator.assemble",
    "propagator.transition_probabilities",
    "propagator.displacement_argument",
    "oracle.heisenberg_residual",
    "oracle.guiding_center_residual",
    "field_model.internalize",
    "cli.load_config",
    "cli.resolve_config",
}


def load_spans(path) -> list[tuple]:
    """Spans as (id, parent, call, name, start, end, attrs) tuples."""
    spans = []
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            spans.append((*row[:6], row[6] if len(row) > 6 else {}))
    return spans


def _per_call(spans, child_time, names) -> dict:
    """Additive metrics of one CLI call."""
    v = defaultdict(float)
    for sid, parent, _, name, start, end, attrs in spans:
        dur = end - start
        if name in _COUNTED:
            v[name + ".calls"] += 1
            v[name + ".s"] += dur
        if name == "path_integrals.build_drive_path":
            route = "quadrature" if attrs.get("route") == "quadrature" else "closed_form"
            v[f"path_integrals.{route}.s"] += dur
            v["path_integrals.points"] += attrs.get("points", 0)
        elif name == "fock_algebra.displacement_matrix":
            dim = attrs.get("dim", 0)
            v["fock_algebra.elements"] += dim * dim
            v["fock_algebra.truncation_warnings"] += attrs.get("warnings", 0)
            v["columns_built"] += dim
            v["columns_read"] += _columns_read(attrs.get("site"), dim)
        elif name == "propagator.transition_probabilities":
            v["columns_read"] += 1
        elif name == "propagator.assemble":
            v["propagator.assemble.self_s"] += dur - child_time[sid]
        elif name == "oracle.integrate_schrodinger" and attrs:
            scheme, steps = attrs["scheme"], attrs["steps"]
            v[f"oracle.{scheme}.calls"] += 1
            v[f"oracle.{scheme}.s"] += dur
            v[f"oracle.{scheme}.steps"] += steps
            if scheme == "rk4":  # four complex N x N products per step, 8 N^3 flops each
                v["oracle.rk4.gflop"] += steps * 4 * 8 * attrs["dim"] ** 3 / 1e9
        elif name == "oracle.run_validation":
            v["oracle.run_validation.self_s"] += dur - child_time[sid]
        elif name == "field_model.field" and names.get(parent) != "field_model.field":
            v["field_model.field.calls"] += 1  # outermost: SumField nests terms
            v["field_model.field.s"] += dur
        elif name in _RUN_SPANS:
            v["cli.run.s"] += dur
        elif name == "cli.main":
            v["cli.io.s"] += dur - child_time[sid]
            v["cli.bytes_written"] += attrs.get("bytes_written", 0)
    return v


def per_layer_metrics(spans) -> dict:
    """{metric name: value} for every name in METRICS but PASS_METRICS."""
    names = {s[0]: s[3] for s in spans}
    child_time = defaultdict(float)
    by_call = defaultdict(list)
    for sid, parent, call, name, start, end, attrs in spans:
        child_time[parent] += end - start
        by_call[call].append((sid, parent, call, name, start, end, attrs))
    calls = [_per_call(s, child_time, names) for _, s in sorted(by_call.items())]

    def total(key):
        return sum(c[key] for c in calls)

    out = {}
    for name, _, _ in METRICS:
        if name not in PASS_METRICS:
            out[name] = statistics.median(c[name] for c in calls) if calls else 0.0
    out["fock_algebra.dim_max"] = max(
        (s[6].get("dim", 0) for s in spans if s[3] == "fock_algebra.displacement_matrix"),
        default=0)
    built = total("columns_built")
    out["fock_algebra.useful_frac"] = total("columns_read") / built if built else 0.0
    rk4_s = total("oracle.rk4.s")
    out["oracle.rk4.gflops"] = total("oracle.rk4.gflop") / rk4_s if rk4_s else 0.0
    return out
