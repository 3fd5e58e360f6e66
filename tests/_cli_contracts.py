"""The command line's contracts, declared once: one row per case.

Each row runs in an empty directory of its own, holding its config as
``run.json`` and its ``given`` files, so a row's paths are relative to it.
``tests/test_cli.py`` runs every row through ``cli.main`` in-process, and

    python tests/_cli_contracts.py

runs each as ``python -m landau_drive.cli`` in a subprocess, under
``PYTHONWARNINGS=error::RuntimeWarning``, and names each row that fails.
It needs only the standard library and the package, as a bare install has.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path, PurePosixPath
from typing import NamedTuple

from landau_drive import cli


class Row(NamedTuple):
    """One contract.  ``err`` is the whole stderr if empty or ending in a
    newline, else its prefix; no stderr holds a traceback.  ``writes`` maps
    each file the run leaves to what it holds: None (anything), the data
    rows of a CSV table, or fields of a JSON document; nothing else appears,
    and the ``given`` files keep their text.  ``before_run``: the command's
    runner is never called (checked in-process).  ``unset``: environment
    variables a subprocess runs without.  ``seconds``: the time bound."""

    name: str
    command: str
    doc: dict
    code: int
    err: str = ""
    args: tuple = ()
    writes: dict = {}
    given: dict = {}
    before_run: bool = False
    unset: tuple = ()
    seconds: float = 60.0


#: The simulate config most CLI tests start from.
BASE_SIM = {
    "task": "simulate",
    "system": {"units": "natural"},
    "waveform": {"type": "rotating", "amplitude": 0.16, "nu": 0.8},
    "time": {"t_final": 10.0, "samples": 11},
    "numerics": {"dimension": 48},
}

#: Nine samples of a sampled + rotating sum: one run per drive-path route.
_SUM_RUN = {"waveform": {"type": "sum", "terms": [
    {"type": "sampled", "times": [0, 1, 2, 3, 4, 5, 6, 7, 8],
     "e1": [0.02, 0.03, 0.01, -0.02, -0.03, -0.01, 0.02, 0.03, 0.01],
     "e2": [0.0, 0.02, 0.03, 0.01, -0.02, -0.03, -0.01, 0.02, 0.03]},
    {"type": "rotating", "amplitude": 0.05, "nu": 0.9}]}, "time": {"t_final": 8.0, "samples": 9}}

_ROTATING = {"type": "rotating", "amplitude": 0.1, "nu": 1.0}

#: Five samples starting before t = 0, and their sum with a rotating drive.
FIVE_NODES = {"type": "sampled", "times": [-0.5, 1.0, 2.5, 3.0, 4.0],
              "e1": [0.1, -0.05, 0.2, 0.0, 0.12], "e2": [0.0, 0.08, -0.1, 0.15, 0.03]}
_NODE_SUM = dict(BASE_SIM, waveform={"type": "sum", "terms": [FIVE_NODES, dict(_ROTATING, nu=0.7)]},
                 time={"t_final": 4.0, "samples": 9})
_SINUSOID = {"type": "linear_sinusoid", "amplitude": 0.1, "angular_frequency": 1.3}
_FAST = {"waveform": dict(_SINUSOID, angular_frequency=1e300), "time": {"t_final": 1e300}}


def _outputs(command, *, rows=None, report=None):
    """The files a command writes to ``out``: a table of ``rows`` data rows,
    its gnuplot script and a report holding ``report``; validate's report alone."""
    base = f"out/{command}_"
    if command == "validate":
        return {base + "validation.json": report}
    data = {"simulate": "samples", "sweep": "sweep", "phases": "phases"}[command]
    return {f"{base}{data}.csv": rows, f"{base}{data}.gp": None, base + "report.json": report}


def _setting(doc, key, value):
    """``doc`` with the config key ``section.name`` set to ``value``."""
    section, name = key.split(".")
    return dict(doc, **{section: dict(doc.get(section, {}), **{name: value})})


def _nested(where, name):
    """A config with the sample list ``name`` nested, in a sampled ``where``."""
    block = {"type": "sampled", "times": [0.0, 1.0, 2.0, 3.0], "e1": [0.0] * 4, "e2": [0.0] * 4}
    block[name] = [block[name][:2], block[name][2:]]
    if where != "waveform":
        block = {"type": "sum", "terms": [{"type": "constant", "e1": 0.1}, block]}
    return {"waveform": block, "time": {"t_final": 2.0}}


ROWS = [
    # ---- runs that succeed
    Row("validate-dim32", "validate", {"numerics": {"oracle_dimension": 32, "integrator_dt": 0.02}},
        0, writes=_outputs("validate")),
    # the default validate with BLAS free to take every thread: the RK4
    # kernel calls BLAS on each step
    Row("validate-unpinned-blas", "validate", {}, 0, writes=_outputs("validate"),
        unset=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), seconds=300.0),
    *(Row(f"sweep-{parameter}", "sweep",
          {"waveform": dict(_ROTATING, amplitude=0.3), "time": {"t_final": 20.0},
           "sweep": {"parameter": parameter, "start": 0.5, "stop": 1.5, "steps": 21}}, 0,
          writes=_outputs("sweep", rows=21)) for parameter in ("nu_over_omega", "amplitude")),
    # the method alone names the route: a sampled term plus an analytic one
    # runs exact under auto
    *(Row(f"simulate-{name}-{method}", "simulate", _setting(doc, "numerics.method", method), 0,
          writes=_outputs("simulate", rows=9, report={"routes": {route: 9}}))
      for name, doc in (("sum", _SUM_RUN), ("node-sum", _NODE_SUM))
      for method, route in (("auto", "exact"), ("quadrature", "quadrature"))),
    Row("phases-sum-auto", "phases", _SUM_RUN, 0,
        writes=_outputs("phases", rows=9, report={"routes": {"exact": 9}})),
    Row("simulate-seed-ignored", "simulate", BASE_SIM, 0,
        "warning: --seed is ignored; runs are deterministic\n", args=("--seed", "7"),
        writes=_outputs("simulate", rows=11)),
    # the quadrature tolerance's floor itself runs
    Row("simulate-quadrature_tol-floor", "simulate",
        dict(BASE_SIM, waveform=_SINUSOID,
             numerics={"dimension": 48, "method": "quadrature", "quadrature_tol": 1e-16}), 0,
        writes=_outputs("simulate", rows=11)),

    # ---- config errors: exit 1, nothing written
    # below 1e-16 the area-error estimate is round-off, so refinement would
    # run all its levels and stall
    *(Row(f"simulate-quadrature_tol-below-floor-{waveform['type']}", "simulate",
          dict(BASE_SIM, waveform=waveform,
               numerics={"dimension": 48, "method": "quadrature", "quadrature_tol": 1e-17}),
          1, "config error: numerics.quadrature_tol: must lie in [1e-16, 1e-4], got 1e-17",
          before_run=True) for waveform in (dict(_ROTATING, nu=0.7), _SINUSOID)),
    # one exact route serves every waveform: there is no "closed_form"
    Row("simulate-closed_form-method", "simulate",
        _setting(_NODE_SUM, "numerics.method", "closed_form"), 1,
        "config error: numerics.method: unknown method 'closed_form'", before_run=True),
    # numpy refuses such sizes outright (ValueError, IndexError); the schema
    # refuses them first, naming the key
    *(Row(f"{task}-{key}-{value}", task,
          _setting(dict(BASE_SIM, task=task, **({"sweep": {"parameter": "nu_over_omega"}}
                                                 if task == "sweep" else {})), key, value),
          1, f"config error: {key}: expected an integer of at most {cli._MAX_COUNT}, "
             f"got {value}\n", before_run=True)
      for task, key, value in [
          ("phases", "time.samples", 2**62), ("phases", "time.samples", 2**63 - 1),
          ("phases", "time.samples", 10**20), ("simulate", "time.samples", 10**15),
          ("simulate", "numerics.dimension", 10**20),
          ("simulate", "initial_state.level", 2**62),
          ("simulate", "report.population_levels", 2**62),
          ("sweep", "sweep.steps", 10**15), ("sweep", "sweep.steps", 10**20),
          ("validate", "numerics.oracle_dimension", 2**50)]),
    *(Row(f"{command}-output-directory-is-a-file-via-{via}", command,
          {"output": {"directory": "taken"}} if via == "config" else {}, 1,
          "config error: output.directory: 'taken' exists and is not a directory\n",
          args=() if via == "config" else ("--out", "taken"),
          given={"taken": "not a directory"}, before_run=True)
      for command in ("phases", "validate") for via in ("config", "--out")),
    *(Row(f"phases-basename-{name}", "phases", {"output": {"basename": basename}}, 1,
          f"config error: output.basename: must be a plain file name, got {basename!r}\n",
          before_run=True)
      for name, basename in (("with-directory", "a/b"), ("above-directory", "../escaped"))),
    *(Row(f"{command}-grid-without-distinct-times-{t_final}", command,
          dict(BASE_SIM, task=command, time={"t_final": t_final, "samples": 5}), 1,
          "config error: time.t_final: too short")
      for command in ("simulate", "phases") for t_final in (0.0, 1e-323)),
    # a positive but tiny step would ask the oracle for ~1e301 nodes
    Row("validate-tiny-integrator_dt", "validate", {"numerics": {"integrator_dt": 1e-300}}, 1,
        "config error: numerics.integrator_dt", before_run=True),
    Row("simulate-unknown-units", "simulate", {"system": {"units": "imperial"}}, 1,
        "config error: system.units: unknown unit system 'imperial'\n", before_run=True),
    *(Row(f"{command}-{key}-not-finite", command, doc, 1,
          f"config error: {key}: expected a finite number", before_run=True)
      for command, doc, key in [
          ("simulate", {"time": {"t_final": math.nan}}, "time.t_final"),
          ("simulate", {"system": {"charge": math.nan}}, "system.charge"),
          ("simulate", {"system": {"magnetic_field": math.inf}}, "system.magnetic_field"),
          ("simulate", {"system": {"mass": 10**400}}, "system.mass"),
          ("simulate", {"waveform": dict(_ROTATING, amplitude=math.nan)}, "waveform.amplitude"),
          ("simulate", {"waveform": dict(_ROTATING, nu=math.inf)}, "waveform.nu"),
          ("simulate", {"waveform": dict(_ROTATING, phase=math.nan)}, "waveform.phase"),
          ("simulate", {"waveform": {"type": "constant", "e1": -math.inf}}, "waveform.e1"),
          ("simulate", {"waveform": dict(_SINUSOID, direction=math.nan)}, "waveform.direction"),
          ("sweep", {"waveform": _ROTATING, "sweep": {"parameter": "nu_over_omega",
                                                      "start": math.nan}}, "sweep.start")]),
    # schema-valid numbers whose cyclotron frequency overflows
    Row("simulate-system-without-finite-scales", "simulate",
        {"system": {"charge": 1e300, "magnetic_field": 1e300}, "waveform": _ROTATING}, 1,
        "config error: system: derived omega = inf is not a positive normal float\n",
        before_run=True),
    *(Row(f"simulate-sample-{key}-not-finite", "simulate",
          {"waveform": dict(samples, type="sampled"), "time": {"t_final": 2.0}}, 1,
          f"config error: waveform: sample {name} must be finite", before_run=True)
      for key, name, samples in (
          ("times", "timestamps", {"times": [0.0, 1.0, math.inf], "e1": [0.1] * 3,
                                   "e2": [0.0] * 3}),
          ("e1", "field values", {"times": [0.0, 1.0, 2.0], "e1": [0.1, math.nan, 0.1],
                                  "e2": [0.0] * 3}))),
    # nested lists once passed the length check and failed in the report
    # echo or the run with a bare traceback
    *(Row(f"simulate-nested-{name}-in-{where}", "simulate", _nested(where, name), 1,
          f"config error: {where}: sample {name} must be one-dimensional, got ndim 2\n",
          before_run=True)
      for where in ("waveform", "waveform.terms[1]") for name in ("times", "e1")),
    *(Row(f"simulate-unknown-{message.split(':')[0]}", "simulate", doc, 1,
          f"config error: {message}", before_run=True) for doc, message in [
        (dict(BASE_SIM, numerics={"dimenson": 8}, time={"t_final": 3.0}),
         "numerics.dimenson: unknown key"),
        (dict(BASE_SIM, tiem={"t_final": 3.0}), "tiem: unknown section"),
        ({"output": {"dir": "x"}}, "output.dir: unknown key"),
        ({"waveform": {"type": "zero", "amplitude": 1.0}}, "waveform.amplitude: unknown key"),
        ({"waveform": dict(_ROTATING, phse=0.2)}, "waveform.phse: unknown key"),
        ({"waveform": {"type": "sum", "terms": [{"type": "constant", "e3": 0.1}]}},
         "waveform.terms[0].e3: unknown key")]),
    Row("simulate-task-mismatch", "simulate", {"task": "sweep"}, 1,
        "config error: task: config declares 'sweep' but command is 'simulate'\n",
        before_run=True),
    # nu = nu_over_omega * omega overflows float64 at B = 2; stop - start
    # overflows inside np.linspace, whose grid holds NaNs
    *(Row(f"sweep-{name}-overflows", "sweep",
          {"system": system, "waveform": _ROTATING, "time": {"t_final": 1.0},
           "sweep": {"parameter": "nu_over_omega", "start": start, "stop": stop,
                     "steps": steps}}, 1,
          f"config error: sweep: nu_over_omega from {start!r} to {stop!r} in {steps} steps: "
          f"nu must be finite, got {got}")
      for name, system, start, stop, steps, got in (
          ("nu", {"magnetic_field": 2.0}, 1e308, 1.5e308, 3, "inf"),
          ("linspace", {}, -1.7e308, 1.7e308, 5, "nan"))),

    # ---- numeric errors: exit 2, nothing written
    # t_final / tau (tau ~ 3.8e-13 s) is inf: the step table once halved an
    # infinite step forever
    Row("phases-past-float64-hang", "phases",
        {"system": {"units": "si", "magnetic_field": 15},
         "waveform": dict(_ROTATING, amplitude=1e-8, nu=0), "time": {"t_final": 1e300}}, 2,
        "numeric error: t_final is past float64 in internal time units", seconds=1.0),
    # a rate times the last time past float64 (a doubling count past 1023
    # once raised a bare OverflowError), on either route
    *(Row(f"phases-rate-overflow-{name}", "phases", doc, 2,
          "numeric error: drive path overflows float64: a field rate times a time step",
          seconds=1.0)
      for name, doc in (
          ("weak-field", {"waveform": dict(_ROTATING, amplitude=1e-8, nu=1.7e308),
                          "time": {"t_final": 10.0}}),
          ("zero-field", {"waveform": dict(_ROTATING, amplitude=0, nu=1.7e308),
                          "time": {"t_final": 10}}),
          ("overflowing-step", _FAST),
          ("quadrature", dict(_FAST, numerics={"method": "quadrature"})))),
    Row("simulate-dimension-too-small", "simulate",
        {"waveform": dict(_ROTATING, amplitude=0.4), "time": {"t_final": 20.0, "samples": 4},
         "numerics": {"dimension": 8}}, 2,
        "numeric error: level 0 populations sum to 1 only within 1 at dimension 8; "
        "increase numerics.dimension\n"),
    # valid in user units; dividing by the time scale (mass 0.75) rounds
    # the two middle nodes to one float
    Row("simulate-nodes-collapsing-in-internal-units", "simulate",
        {"system": {"mass": 0.75}, "waveform": {
            "type": "sampled", "times": [0.0, 1.510204081632653, 1.5102040816326532, 3.0],
            "e1": [0.1, 0.2, 0.3, 0.1], "e2": [0.0, 0.0, 0.1, 0.0]},
         "time": {"t_final": 3.0, "samples": 5}}, 2,
        "numeric error: sample times[1] = 1.510204081632653"),
    # a finite amplitude grid whose drive path overflows
    Row("sweep-path-overflows", "sweep",
        {"waveform": _ROTATING, "time": {"t_final": 1.0},
         "sweep": {"parameter": "amplitude", "start": 1e308, "stop": 1.7e308, "steps": 5}},
        2, "numeric error: drive path overflows float64"),
    # E = 1e300 for t = 1e10 takes R past float64, where phases once wrote
    # rows of nan and inf
    *(Row(f"{command}-overflowing-drive", command,
          {"waveform": {"type": "constant", "e1": 1e300},
           "time": {"t_final": 1e10, "samples": 3}}, 2,
          "numeric error: drive path overflows float64: R is not finite")
      for command in ("phases", "simulate")),
    # the resonant point's |u| ~ 7e298 has no finite |alpha|^2
    Row("sweep-overflowing-drive", "sweep",
        {"waveform": _ROTATING, "time": {"t_final": 1e300, "samples": 3},
         "sweep": {"parameter": "nu_over_omega", "start": 0.5, "stop": 1.5, "steps": 5}},
        2, "numeric error: drive amplitude has no finite square"),
    # the oracle's first array at the bound, (dim, dim // 2) complex, is
    # 4 EiB, beyond any 64-bit address space, so the allocation fails at once
    Row("validate-oversized", "validate", {"numerics": {"oracle_dimension": cli._MAX_COUNT}},
        2, "numeric error: out of memory; reduce numerics.oracle_dimension\n"),
]


def check(row: Row, directory: Path, run) -> list:
    """Run ``row`` in ``directory`` by ``run(argv) -> (exit code, stderr)``;
    return what the run broke, one message each."""
    (directory / "run.json").write_text(json.dumps(row.doc))
    for name, text in row.given.items():
        (directory / name).write_text(text)
    before = set(directory.rglob("*"))
    code, err = run([row.command, "--config", "run.json", *row.args])
    found = [] if code == row.code else [f"exit code {code}, expected {row.code}"]
    exact = not row.err or row.err.endswith("\n")
    if (err != row.err if exact else not err.startswith(row.err)) or "Traceback" in err:
        found.append(f"stderr {err!r}, expected {'' if exact else 'to start '}{row.err!r}")
    made = {p.relative_to(directory).as_posix() for p in directory.rglob("*") if p not in before}
    wanted = {*row.writes, *(str(p) for w in row.writes for p in PurePosixPath(w).parents
                             if p.name)}
    if made != wanted:
        found.append(f"left {sorted(made)}, expected {sorted(wanted)}")
    found += [f"{name} changed" for name, text in row.given.items()
              if (directory / name).read_text() != text]
    for name, want in row.writes.items():
        if want is not None and (directory / name).is_file():
            text = (directory / name).read_text()
            got = (len(text.splitlines()) - 1 if isinstance(want, int)
                   else {key: json.loads(text).get(key) for key in want})
            if got != want:
                found.append(f"{name} holds {got!r}, expected {want!r}")
    return found


def main() -> int:
    """Run each row as ``python -m landau_drive.cli`` in a fresh directory,
    one line per row; 1 if any row failed."""
    package = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=os.pathsep.join(
        p for p in (package, os.environ.get("PYTHONPATH")) if p))
    failed = []
    for row in ROWS:
        seconds = max(row.seconds, 60.0)  # a process also starts Python and numpy
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            def run(argv):
                proc = subprocess.run(
                    [sys.executable, "-m", "landau_drive.cli", *argv], cwd=tmp,
                    env={k: v for k, v in env.items() if k not in row.unset},
                    capture_output=True, text=True, timeout=seconds)
                return proc.returncode, proc.stderr
            try:
                found = check(row, Path(tmp), run)
            except subprocess.TimeoutExpired:
                found = [f"no exit within {seconds:g} s"]
        print(f"{'FAIL' if found else 'ok  '}  {row.name} ({time.perf_counter() - start:.1f} s)"
              + "".join(f"\n      {message}" for message in found), flush=True)
        if found:
            failed.append(row.name)
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} CLI contracts hold"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
