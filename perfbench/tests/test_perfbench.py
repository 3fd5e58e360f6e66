"""Self-test of the benchmark.

Its checker must reject a tampered table and a failing validate report,
and the metrics it prints must be the ones BENCHMARK.json declares.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TABLE_WORKLOADS = ("simulate_trace", "sweep_resonance")


def _reference(workload):
    return checks.read_table(checks.reference_path(workload))


def _write_output(out_dir: Path, workload: str, header, rows) -> None:
    with open(out_dir / WORKLOADS[workload][2], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(x) for x in row] for row in rows)


@pytest.mark.parametrize("workload", TABLE_WORKLOADS)
def test_reference_output_passes(tmp_path, workload):
    header, rows = _reference(workload)
    _write_output(tmp_path, workload, header, rows)
    assert checks.check_call(workload, tmp_path, 0, _reference(workload)) == (len(rows), [])


@pytest.mark.parametrize("workload", TABLE_WORKLOADS)
def test_flipped_survival_is_rejected(tmp_path, workload):
    header, rows = _reference(workload)
    col = header.index("survival")
    rows[7][col] = 1.0 - rows[7][col]
    _write_output(tmp_path, workload, header, rows)

    _, problems = checks.check_call(workload, tmp_path, 0)
    assert any(p.startswith("survival: row 7") for p in problems), problems
    _, problems = checks.check_call(workload, tmp_path, 0, _reference(workload))
    assert any("differ from the reference" in p for p in problems), problems


@pytest.mark.parametrize("workload", TABLE_WORKLOADS)
def test_nonzero_exit_is_rejected(tmp_path, workload):
    header, rows = _reference(workload)
    _write_output(tmp_path, workload, header, rows)
    _, problems = checks.check_call(workload, tmp_path, 2)
    assert problems == [f"{workload} exited with code 2"]


def test_failing_validate_report_is_rejected(tmp_path):
    report = {
        "all_passed": False,
        "checks": [
            {"name": "unitarity[zero]", "passed": True},
            {"name": "factorization[rotating_resonant]", "passed": False},
        ],
    }
    (tmp_path / WORKLOADS["validate"][2]).write_text(json.dumps(report))
    rows, problems = checks.check_call("validate", tmp_path, 2)
    assert rows == 2
    assert "validate exited with code 2" in problems
    assert "validate checks failed: ['factorization[rotating_resonant]']" in problems

    report["checks"][1]["passed"] = True
    report["all_passed"] = True
    (tmp_path / WORKLOADS["validate"][2]).write_text(json.dumps(report))
    assert checks.check_call("validate", tmp_path, 0) == (2, [])
    assert checks.check_call("validate", tmp_path, 2)[1] == ["validate exited with code 2"]


def test_layer_metrics_from_span_file(tmp_path):
    spans = [  # id, parent, call, name, start, end[, attrs]: one sweep call
        [1, 0, 1, "cli.main", 0.0, 10.0, {"bytes_written": 100}],
        [2, 1, 1, "cli.load_config", 0.0, 1.0],
        [3, 1, 1, "cli.resolve_config", 1.0, 2.0],
        [4, 1, 1, "cli.run_sweep", 2.0, 9.0],
        [5, 4, 1, "propagator.assemble", 2.0, 6.0],
        [6, 5, 1, "path_integrals.build_drive_path", 2.0, 3.0,
         {"points": 2, "route": "closed-form"}],
        [7, 5, 1, "fock_algebra.displacement_matrix", 3.0, 5.0,
         {"dim": 40, "site": "propagator", "warnings": 1}],
        [8, 4, 1, "propagator.transition_probabilities", 6.0, 6.5],
    ]
    path = tmp_path / "spans.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    m = layers.per_layer_metrics(layers.load_spans(path))
    assert m["cli.io.s"] == 1.0 and m["cli.run.s"] == 7.0
    assert m["propagator.assemble.self_s"] == 1.0
    assert m["path_integrals.closed_form.s"] == 1.0 and m["path_integrals.quadrature.s"] == 0
    assert m["fock_algebra.elements"] == 1600 and m["fock_algebra.dim_max"] == 40
    assert m["fock_algebra.useful_frac"] == 1 / 40
    assert m["fock_algebra.truncation_warnings"] == 1
    assert m["cli.bytes_written"] == 100


def test_times_scale_by_their_neighbouring_probes():
    ref = calibration.KERNELS["mixed"][1]
    # Interquartile means of the neighbours: 2 ref, then 5 ref (9 ref is cut).
    groups = [[ref], [3 * ref], [9 * ref, 5 * ref, 5 * ref]]
    assert calibration.scaled("mixed", [4.0, 10.0], groups) == pytest.approx([2.0, 2.0])


def _bench(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, "--workload", "sweep_resonance", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "validate", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
