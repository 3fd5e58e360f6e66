"""Set-up probe: a fresh interpreter that imports the CLI and resolves a config.

Usage: python3 perfbench/setup_probe.py CONFIG TASK

The caller times the whole process; that is what a user pays before the
first sample of every CLI run.
"""

import envinfo

envinfo.pin_threads()  # before anything imports numpy

import sys  # noqa: E402

sys.path.insert(0, str(envinfo.SRC))

from landau_drive import cli  # noqa: E402

if __name__ == "__main__":
    config, task = sys.argv[1:]
    cli.resolve_config(cli.load_config(config), task)
