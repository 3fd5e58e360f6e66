"""Output checks, made outside the timed region after every CLI call.

The identity checks hold for any seed, because they come from the paper's
closed forms rather than from recorded numbers:

* survival from level 0 is e^{-k^2 |u|^2}, with u read from the same row;
* beta = -(qB/hbar c) area_R and gamma = -4 (qB/hbar c) area_u;
* ``validate`` exits with code 0 and every check in its report passes.

For the default seed the data columns are also compared with a reference
table committed next to this file.  Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

from workloads import SYSTEM, WORKLOADS

#: Absolute tolerance of every identity and of the reference comparison.
#: The current code meets the identities to about 2e-16.
TOL = 1e-12

_K2 = 2.0 * abs(SYSTEM["charge"]) * SYSTEM["magnetic_field"]  # hbar = c = 1
_AREA_PHASE = SYSTEM["charge"] * SYSTEM["magnetic_field"]
_MAX_REPORTED = 5

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_table(path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CSV table, plain or gzip-compressed."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return header, rows


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(scale))


def _identity_problems(header, rows, identities) -> list[str]:
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for name, needed, expect in identities:
        missing = [c for c in needed if c not in col]
        if missing:
            problems.append(f"{name}: missing columns {missing}")
            continue
        for j, row in enumerate(rows):
            got, want, scale = expect(lambda c: row[col[c]])
            if not _close(got, want, scale):
                problems.append(f"{name}: row {j} reads {got!r}, identity gives {want!r}")
                break
    return problems


def check_simulate(header, rows) -> list[str]:
    """Identities on a ``simulate`` samples table started from level 0."""
    return _identity_problems(header, rows, [
        ("survival", ("survival", "re_u", "im_u"),
         lambda v: (v("survival"),
                    math.exp(-_K2 * (v("re_u") ** 2 + v("im_u") ** 2)), 1.0)),
        ("beta", ("beta", "area_R"),
         lambda v: (v("beta"), -_AREA_PHASE * v("area_R"), v("beta"))),
        ("gamma", ("gamma", "area_u"),
         lambda v: (v("gamma"), -4.0 * _AREA_PHASE * v("area_u"), v("gamma"))),
    ])


def check_sweep(header, rows) -> list[str]:
    """Survival identity on a ``sweep`` table started from level 0."""
    return _identity_problems(header, rows, [
        ("survival", ("survival", "abs_u"),
         lambda v: (v("survival"), math.exp(-_K2 * v("abs_u") ** 2), 1.0)),
    ])


def check_validate(report: dict, exit_code: int) -> list[str]:
    """Exit code 0 and every residual check passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"validate exited with code {exit_code}")
    checks = report.get("checks") or []
    if not checks:
        problems.append("validate report lists no checks")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if failed:
        problems.append(f"validate checks failed: {failed}")
    if report.get("all_passed") is not True:
        problems.append("validate report does not say all_passed")
    return problems


def compare_reference(header, rows, ref_header, ref_rows) -> list[str]:
    """Every data cell within TOL (absolute) of the reference table."""
    if header != ref_header:
        return [f"columns {header} differ from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    mismatches = [
        (j, name, a, b)
        for j, (row, ref) in enumerate(zip(rows, ref_rows))
        for name, a, b in zip(header, row, ref)
        if not abs(a - b) <= TOL
    ]
    if mismatches:
        j, name, a, b = mismatches[0]
        return [f"{len(mismatches)} cells differ from the reference by more than "
                f"{TOL:g}; first at row {j}, column {name}: {a!r} vs {b!r}"]
    return []


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv.gz"


def check_call(workload: str, out_dir, exit_code: int, reference=None):
    """Check the outputs of one CLI call.

    Returns (rows, problems): rows are the output rows the call produced
    (samples, grid points or checks), ``reference`` an optional
    (header, rows) table the data must match.
    """
    output = Path(out_dir) / WORKLOADS[workload][2]
    try:
        if workload == "validate":
            report = json.loads(output.read_text())
            problems = check_validate(report, exit_code)
            return len(report.get("checks") or []), problems[:_MAX_REPORTED]
        if exit_code != 0:
            return 0, [f"{workload} exited with code {exit_code}"]
        header, rows = read_table(output)
        if workload == "simulate_trace":
            problems = check_simulate(header, rows)
        else:
            problems = check_sweep(header, rows)
        if reference is not None:
            problems += compare_reference(header, rows, *reference)
        return len(rows), problems[:_MAX_REPORTED]
    except (OSError, ValueError, StopIteration) as exc:
        return 0, [f"unreadable output: {exc!r}"]
