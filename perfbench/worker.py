"""Workload process: a closed loop of in-process CLI calls.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, its config, the output directory, the timed
passes ("plain" or "traced", each with its seconds) and where to write the
result and the span file.  One CLI call runs at a time; each call's
outputs are checked after its timer stops.  A group of host-speed probes
(calibration.py) runs before each call and after the last one.
BLAS and OpenMP are pinned to one thread before numpy is imported (see
README.md).
"""

from __future__ import annotations

import envinfo

envinfo.pin_threads()  # before anything imports numpy

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(envinfo.SRC))
    from landau_drive import cli

    import calibration
    import checks
    import workloads

    workload, out_dir = job["workload"], Path(job["out_dir"])
    probe = workloads.PROBES[workload]
    output = out_dir / workloads.WORKLOADS[workload][2]
    argv = [job["command"], "--config", job["config"]]
    reference = None
    if job.get("reference"):
        reference = checks.read_table(job["reference"])

    attempted = failed = 0
    problems: list[str] = []

    def call(span=None):
        """One CLI call inside ``span``; returns its wall time and row count."""
        nonlocal attempted, failed
        attempted += 1
        output.unlink(missing_ok=True)  # a call that writes nothing must fail
        start = time.perf_counter()
        try:
            with span or contextlib.nullcontext():
                code = cli.main(argv)
        except Exception:  # a crash is a failed call, not a dead benchmark
            elapsed = time.perf_counter() - start
            failed += 1
            problems.append(traceback.format_exc(limit=3))
            return elapsed, 0
        elapsed = time.perf_counter() - start
        rows, found = checks.check_call(workload, out_dir, code, reference)
        if found:
            failed += 1
            problems.extend(found)
        return elapsed, rows

    last, _ = call()  # warm-up: lazy imports and first-touch allocations, untimed
    calibration.probe(probe)  # and the probe's first run, untimed
    passes = {}
    for name, seconds in job["passes"]:
        tracer = None
        if name == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        times, rows, groups = [], [], []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            groups.append(calibration.probe_group(probe, last))
            if tracer is None:
                elapsed, n = call()
            else:
                attrs = {}
                elapsed, n = call(tracer.root("cli.main", len(times) + 1, attrs))
                attrs["bytes_written"] = sum(
                    p.stat().st_size for p in out_dir.iterdir() if p.is_file())
            times.append(elapsed)
            rows.append(n)
            last = elapsed
        groups.append(calibration.probe_group(probe, last))
        passes[name] = {"seconds": times, "rows": rows, "probe_s": groups}
        if tracer is not None:
            tracer.uninstall()
            tracer.write(job["spans"])

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": envinfo.environment(),
    }
    Path(job["result"]).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: worker.py JOB.json")
    sys.exit(main(sys.argv[1]))
