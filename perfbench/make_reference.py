"""Write the reference tables that default-seed runs are compared with.

Usage: python3 perfbench/make_reference.py

Run it only for a change whose new outputs have been checked on their own
merits; the tables exist so that a speed-up cannot move the numbers
unnoticed.
"""

import envinfo

envinfo.pin_threads()  # before anything imports numpy

import gzip  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(envinfo.SRC))

from landau_drive import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    build = envinfo.ROOT / ".perfbench_runs" / "reference"
    for workload in ("simulate_trace", "sweep_resonance"):
        command, _, data_file = workloads.WORKLOADS[workload]
        shutil.rmtree(build, ignore_errors=True)
        build.mkdir(parents=True)
        config = build / "config.json"
        config.write_text(json.dumps(
            workloads.make_config(workload, workloads.DEFAULT_SEED, str(build))))
        if cli.main([command, "--config", str(config)]) != 0:
            sys.exit(f"{workload}: CLI call failed")
        _, problems = checks.check_call(workload, build, 0)
        if problems:
            sys.exit(f"{workload}: {problems}")
        target = checks.reference_path(workload)
        target.write_bytes(gzip.compress((build / data_file).read_bytes(), mtime=0))
        print(f"wrote {target}")
    shutil.rmtree(build)
