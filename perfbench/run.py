"""Benchmark of the landau-drive CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's config; the program sees only that config.
With --trace 0 the run measures the end-to-end metrics: a closed loop of
in-process CLI calls for S seconds, plus set-up probes in fresh
interpreters.  Call times are reported at a fixed reference speed of the
host, measured by a probe in calibration.py; the raw wall times are
printed before the result.  With --trace 1 it measures the per-layer
metrics: S/2 seconds untraced, then S/2 seconds with spans around every
layer call.
Every call's outputs are checked outside the timed region.  The last line
of standard output is one JSON object; the lines before it give the
environment and the details of the tail percentile and of failures.
Working files go to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

envinfo.pin_threads()  # before calibration imports numpy

import calibration  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-up probes per run, half before and half after the timed loop, so
#: that the median spans more than one stretch of the machine's speed.
SETUP_PROBES = 8
#: Time a run may take beyond --seconds: warm-up call, the last call's
#: overrun, output checks and the span file.  Well inside the 180 s limit.
WORKER_GRACE_S = 120.0
RUNS_DIR = envinfo.ROOT / ".perfbench_runs"

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("run_s.p50", "s"),
    ("run_s.tail", "s"),
    ("rows_per_s", "rows/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten calls beyond it.

    Below 40 calls that percentile would fall under p75; the upper
    quartile is reported instead, with fewer than ten calls beyond it.
    """
    n = len(times)
    ordered = sorted(times)
    if n >= 40:
        return ordered[n - 11], f"p{math.floor(100 * (n - 10) / n)} of {n} calls"
    value = statistics.quantiles(ordered, n=4)[2] if n >= 2 else ordered[0]
    return value, f"p75 of {n} calls (too few for ten beyond a tail percentile)"


def setup_time(config_path: Path, command: str, env: dict) -> float:
    """Wall seconds of a fresh interpreter importing the CLI and resolving
    the config, as a user pays it before every CLI run.

    Unlike the call times it is not scaled to the reference speed: process
    start-up and imports do not follow the host-speed probe (scaled, six
    medians of five spread 0.60-0.91 s where the raw ones spread
    0.73-0.88 s).
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         str(config_path), command],
        env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return time.perf_counter() - start


def run_worker(job: dict, run_dir: Path, env: dict, seconds: float) -> dict:
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job, indent=1))
    with open(run_dir / "worker.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path)],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=seconds + WORKER_GRACE_S,
        )
    if proc.returncode != 0:
        sys.stderr.write((run_dir / "worker.log").read_text()[-4000:])
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (envinfo.SRC / "landau_drive" / "cli.py").is_file():
        print(f"no landau_drive sources under {envinfo.SRC}", file=sys.stderr)
        return 2

    run_dir = RUNS_DIR / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    command = workloads.WORKLOADS[args.workload][0]
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(
        workloads.make_config(args.workload, args.seed, str(run_dir / "out"))))
    env = dict(os.environ)  # threads pinned at import

    reference = checks.reference_path(args.workload)
    job = {
        "workload": args.workload,
        "command": command,
        "config": str(config_path),
        "out_dir": str(run_dir / "out"),
        "reference": str(reference)
        if args.seed == workloads.DEFAULT_SEED and reference.is_file() else None,
        "passes": [["plain", args.seconds / 2], ["traced", args.seconds / 2]]
        if args.trace else [["plain", args.seconds]],
        "result": str(run_dir / "worker_result.json"),
        "spans": str(run_dir / "spans.jsonl"),
    }

    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = [setup_time(config_path, command, env) for _ in range(probes)]
    result = run_worker(job, run_dir, env, args.seconds)
    setup += [setup_time(config_path, command, env) for _ in range(probes)]
    plain = result["passes"]["plain"]
    probe = workloads.PROBES[args.workload]
    times = calibration.scaled(probe, plain["seconds"], plain["probe_s"])
    wall = {"run_s.p50": statistics.median(plain["seconds"]),
            "probe_s": statistics.median(p for g in plain["probe_s"] for p in g)}
    if args.trace:
        traced = result["passes"]["traced"]
        traced_times = calibration.scaled(probe, traced["seconds"], traced["probe_s"])
        # Layer times: scaled like the calls, by the ratio of the pass's medians.
        speed = statistics.median(traced_times) / statistics.median(traced["seconds"])
        values = layers.per_layer_metrics(layers.load_spans(job["spans"]))
        for name, unit, _ in layers.METRICS:
            if unit == "s" and name in values:
                values[name] *= speed
            elif unit == "GFLOP/s":
                values[name] /= speed
        values["tracing.run_s.p50"] = statistics.median(traced_times)
        values["tracing.overhead_s"] = values["tracing.run_s.p50"] - statistics.median(times)
        values["host.probe_s"] = statistics.median(p for g in traced["probe_s"] for p in g)
        values["wall.run_s.p50"] = wall["run_s.p50"]
        units = {name: unit for name, unit, _ in layers.METRICS}
        notes = {}
    else:
        tail_value, tail_note = tail(times)
        values = {
            "run_s.p50": statistics.median(times),
            "run_s.tail": tail_value,
            "rows_per_s": sum(plain["rows"]) / sum(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - result["failed"] / result["attempted"],
        }
        units = dict(END_TO_END)
        notes = {"run_s.tail": tail_note, "setup_s": f"median of {len(setup)} probes",
                 "wall": " ".join(f"{k}={v:.6g}" for k, v in wall.items())
                 + f" ({probe} probe, reference {calibration.KERNELS[probe][1]} s)"}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": result["environment"],
        "attempted": result["attempted"], "failed": result["failed"],
        "problems": result["problems"], "notes": notes, "metrics": metrics,
        "wall": wall, "setup_seconds": setup, "call_seconds": result["passes"],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    for name, note in notes.items():
        print(f"{name}: {note}")
    print(f"failed_frac: {result['failed']}/{result['attempted']} calls")
    for problem in result["problems"]:
        print(f"problem: {problem}".rstrip())
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
