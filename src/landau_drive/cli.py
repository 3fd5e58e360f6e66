"""Config-driven command line: simulate, sweep, validate, phases.

Config files are JSON (or TOML when a parser is available), one document
per run.  Outputs are CSV tables for per-sample and sweep data plus JSON
reports; data files contain no wall-clock content, so identical configs
reproduce identical bytes.  Exit codes: 0 success, 1 config error,
2 numeric or tolerance failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys as _sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import oracle
from .errors import AccuracyError, ConfigError, DomainError, TruncationError
from .field_model import (
    ConstantField,
    FieldWaveform,
    LinearSinusoidField,
    PhysicalSystem,
    RotatingField,
    SampledField,
    SumField,
    ZeroField,
)
from .path_integrals import _ROUTES, _endpoint_grid, _exp_sum_samples, build_drive_path
from .propagator import (
    _amplitudes,
    _auto_dimension,
    _norm_deficit,
    drive_strength_coefficient,
    level_populations,
)

__all__ = ["main", "load_config", "resolve_config", "run_simulate", "run_sweep",
           "run_validate", "run_phases", "RunConfig", "SimulationReport"]

#: Unit-system conversion constants echoed into every report.  The SI form
#: works with velocities (drift speed E/B, omega = qB/m), so the pure
#: number c never enters; it is listed as 1.
UNIT_CONSTANTS = {
    "natural": {"elementary_charge": 1.0, "electron_mass": 1.0, "hbar": 1.0, "c": 1.0},
    "si": {
        "elementary_charge": 1.602176634e-19,   # C
        "electron_mass": 9.1093837015e-31,      # kg
        "hbar": 1.054571817e-34,                # J s
        "c": 1.0,
    },
    "gaussian": {
        "elementary_charge": 4.8032047125750e-10,  # statC, = e_C * c * 10
        "electron_mass": 9.1093837015e-28,          # g
        "hbar": 1.054571817e-27,                    # erg s
        "c": 2.99792458e10,                         # cm/s
    },
}

#: Reference numbers for the electron benchmark reported by ``validate``:
#: B = 15 T, E = 1000 V/m.  The drive-strength coefficient reproduces the
#: documented 1.45e-5; the documented duration 1.71e-3 s does not follow
#: from T = (B/E) / omega (dimensionless Gaussian field ratio) and is
#: flagged, not asserted.
BENCHMARK_FIELD_T = 15.0
BENCHMARK_DRIVE_V_PER_M = 1000.0
BENCHMARK_COEFFICIENT = 1.45e-5
BENCHMARK_DOCUMENTED_DURATION_S = 1.71e-3
_C_SI = 2.99792458e8

#: Largest value of an integer key.  Each integer key sizes arrays, and up
#: to this bound an array of two such sizes at 16 bytes an element has a
#: byte count numpy can represent, so numpy allocates it or raises
#: MemoryError; far enough past it numpy refuses the shape (ValueError).
_MAX_COUNT = math.isqrt(_sys.maxsize // 16)


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_bytes()
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    if path.suffix.lower() == ".toml":
        try:
            import tomllib as toml
        except ModuleNotFoundError:
            try:
                import tomli as toml
            except ModuleNotFoundError:
                raise ConfigError("TOML configs need Python 3.11+ or the tomli package")
        try:
            return toml.loads(text.decode())
        except Exception as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


#: Kinds of config value: kind -> (accepted Python types, what the error
#: says is expected, conversion of (value, config path) or None).  A
#: rejected table or list is not repeated in the error: it may be large.
_KINDS = {
    "number": ((int, float), "a number", lambda v, where: float(v)),
    "integer": (int, "an integer", None),
    "string": (str, "a string", None),
    "lowercase": (str, "a string", lambda v, where: v.lower()),
    "path": (str, "a string", lambda v, where: str(Path(v))),
    "table": (dict, "a table/object", None),
    "list": (list, "a list", None),
    "waveforms": (list, "a list", lambda v, where: tuple(
        _build_waveform(term, f"{where}[{i}]") for i, term in enumerate(v))),
}


def _typed(value, kind: str, where: str):
    """``value`` checked against ``kind`` and converted; numbers must be
    finite, and integers at most ``_MAX_COUNT``."""
    accepted, expected, convert = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        shown = "" if accepted in (dict, list) else f", got {value!r}"
        raise ConfigError(f"{where}: expected {expected}{shown}")
    if kind == "number" and not abs(value) <= _sys.float_info.max:  # NaN, inf, huge int
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if kind == "integer" and value > _MAX_COUNT:
        raise ConfigError(f"{where}: expected an integer of at most {_MAX_COUNT}, got {value!r}")
    return value if convert is None else convert(value, where)


class _Key(NamedTuple):
    """One config key: its kind (see _KINDS), its default, and an optional
    check on the typed value with the message it fails with ("{!r}"
    receives the value).  A callable default takes the task and the
    physical system."""

    kind: str
    default: object = None
    check: Callable | None = None
    message: str = ""


#: Default of a waveform key that must be given.
_REQUIRED = object()

#: Waveform keys: an optional number, a required number, a sample list.
_num = _Key("number", 0.0)
_needed = _Key("number", _REQUIRED)
_samples = _Key("list", _REQUIRED)

#: The config document, declared once: section -> key -> _Key.  This
#: table drives unknown-key rejection, type checks, defaults, range checks
#: and the ``resolved`` echo of every report.  The sweep section is checked
#: only by the sweep task, which alone reads it.
_SCHEMA = {
    "system": {
        "units": _Key("lowercase", "natural", UNIT_CONSTANTS.__contains__,
                      "unknown unit system {!r}"),
        "charge": _Key("number", 1.0),
        "magnetic_field": _Key("number", 1.0),
        "mass": _Key("number", 1.0),
    },
    "time": {
        "t_final": _Key("number", lambda task, system: 10.0 / system.omega,
                        lambda v: v >= 0, "must be nonnegative"),
        "samples": _Key("integer", 101, lambda v: v >= 2, "must be at least 2"),
    },
    "numerics": {
        "dimension": _Key("integer", 0, lambda v: v == 0 or v >= 2,
                          "must be 0 (auto) or at least 2"),
        "oracle_dimension": _Key("integer", 64, lambda v: v >= 2, "must be at least 2"),
        "quadrature_tol": _Key("number", 1e-10, lambda v: 1e-16 <= v <= 1e-4,
                               "must lie in [1e-16, 1e-4], got {!r}: 1e-16 is the "
                               "round-off floor of the enclosed-area error estimate"),
        "integrator_dt": _Key("number", 0.01,
                              lambda v: oracle.DT_RANGE[0] <= v <= oracle.DT_RANGE[1],
                              "must lie in [{:g}, {:g}] (units of 1/omega)".format(
                                  *oracle.DT_RANGE)),
        "method": _Key("string", "auto", _ROUTES.__contains__, "unknown method {!r}"),
    },
    "initial_state": {
        "level": _Key("integer", 0, lambda v: v >= 0, "must be nonnegative"),
    },
    "report": {
        "population_levels": _Key("integer", 8, lambda v: v >= 1, "must be positive"),
    },
    "sweep": {
        "parameter": _Key("string", None, ("nu_over_omega", "amplitude").__contains__,
                          "must be 'nu_over_omega' or 'amplitude'"),
        "start": _Key("number", 0.5),
        "stop": _Key("number", 1.5),
        "steps": _Key("integer", 21, lambda v: v >= 1, "must be positive"),
    },
    "output": {
        "directory": _Key("path", "out", lambda v: Path(v).is_dir() or not Path(v).exists(),
                          "{!r} exists and is not a directory"),
        "format": _Key("lowercase", "csv", ("csv", "json").__contains__,
                       "must be 'csv' or 'json', got {!r}"),
        # a file name alone: the outputs stay inside output.directory
        "basename": _Key("string", lambda task, system: task,
                         lambda v: v not in ("", ".", "..") and Path(v).name == v,
                         "must be a plain file name, got {!r}"),
    },
}

#: Keys of the document root; any other root key is an unknown section.
_ROOT = {
    "task": _Key("string", lambda task, system: task),
    "waveform": _Key("table", lambda task, system: {"type": "zero"}),  # new per call: echoed
    **{section: _Key("table", {}) for section in _SCHEMA},
}

#: Waveform type -> (class, key -> _Key).  The keys are the class's
#: constructor arguments; the class checks their values (ValueError).
_WAVEFORMS = {
    "zero": (ZeroField, {}),
    "constant": (ConstantField, {"e1": _num, "e2": _num}),
    "rotating": (RotatingField, {"amplitude": _needed, "nu": _needed, "phase": _num}),
    "linear_sinusoid": (LinearSinusoidField, {
        "amplitude": _needed, "direction": _num, "angular_frequency": _num, "phase": _num,
    }),
    "sampled": (SampledField, {"times": _samples, "e1": _samples, "e2": _samples}),
    "sum": (SumField, {"terms": _Key("waveforms", _REQUIRED)}),
}


def _resolve(block: dict, keys: dict, path: str, task: str | None = None, system=None, *,
             checked: bool = True, unknown: str = "{path}.{key}: unknown key") -> dict:
    """Every key of ``keys`` typed, defaulted and (if ``checked``) checked;
    a key of ``block`` not in ``keys`` is a ConfigError."""
    for key in block:
        if key not in keys:
            raise ConfigError(unknown.format(path=path, key=key))
    values = {}
    for key, (kind, default, check, message) in keys.items():
        where = f"{path}.{key}"
        if key in block:
            value = _typed(block[key], kind, where)
        elif default is _REQUIRED:
            raise ConfigError(f"{where}: required field missing")
        else:
            value = default(task, system) if callable(default) else default
        if checked and check is not None and not check(value):
            raise ConfigError(f"{where}: {message.format(value)}")
        values[key] = value
    return values


def _build_waveform(block, path: str) -> FieldWaveform:
    if "type" not in _typed(block, "table", path):
        raise ConfigError(f"{path}.type: required field missing")
    kind = _typed(block["type"], "string", f"{path}.type")
    if kind not in _WAVEFORMS:
        raise ConfigError(f"{path}.type: unknown waveform type {kind!r}")
    cls, keys = _WAVEFORMS[kind]
    args = _resolve({k: v for k, v in block.items() if k != "type"}, keys, path)
    try:
        return cls(**args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _waveform_echo(block: dict, waveform: FieldWaveform) -> dict:
    """A checked waveform block as reports echo it, given the waveform built
    from it: a sampled block (also a ``sum`` term) as its node count, first
    and last time and the SHA-256 of the little-endian float64 bytes of
    times, e1 and e2, in that order; every other block as given."""
    if isinstance(waveform, SumField):
        return dict(block, terms=[_waveform_echo(b, w)
                                  for b, w in zip(block["terms"], waveform.terms)])
    if not isinstance(waveform, SampledField):
        return block
    digest = hashlib.sha256()
    for array in (waveform.times, waveform.e1, waveform.e2):
        digest.update(array.astype("<f8", copy=False).tobytes())
    return {"type": "sampled", "nodes": waveform.times.size,
            "t_first": float(waveform.times[0]), "t_last": float(waveform.times[-1]),
            "sha256": digest.hexdigest()}


def _physical_system(units: str, charge: float, magnetic_field: float,
                     mass: float) -> PhysicalSystem:
    """The system of a ``system`` config section: in the si and gaussian
    unit systems charge and mass count elementary charges and electron
    masses."""
    consts = UNIT_CONSTANTS[units]
    return PhysicalSystem(
        charge=charge * consts["elementary_charge"],
        magnetic_field=magnetic_field,
        mass=mass * consts["electron_mass"],
        hbar=consts["hbar"],
        c=consts["c"],
    )


@dataclass(frozen=True)
class RunConfig:
    """A checked run: the physical system, the waveform and ``resolved``,
    every setting with its default filled in, as echoed by each report."""

    system: PhysicalSystem
    waveform: FieldWaveform
    resolved: dict


def resolve_config(
    raw: dict,
    task: str,
    *,
    out_override: str | None = None,
    format_override: str | None = None,
) -> RunConfig:
    """Validate a raw config document and fill in every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a table/object")
    top = _resolve(raw, _ROOT, "config", task, unknown="{key}: unknown section")
    if top["task"] != task:
        raise ConfigError(f"task: config declares {top['task']!r} but command is {task!r}")
    overrides = {"directory": out_override, "format": format_override}
    top["output"] = {**top["output"], **{k: v for k, v in overrides.items() if v}}

    settings = _resolve(top["system"], _SCHEMA["system"], "system", task)
    try:
        system = _physical_system(**settings)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}")
    waveform = _build_waveform(top["waveform"], "waveform")
    resolved = {
        "task": task,
        "system": dict(settings, constants=UNIT_CONSTANTS[settings["units"]], derived={
            "omega": system.omega, "l_b": system.l_b, "k": system.k,
            "mirrored": system.mirrored,
        }),
        "waveform": _waveform_echo(top["waveform"], waveform),
    }
    for section, keys in _SCHEMA.items():
        if section != "system":
            resolved[section] = _resolve(top[section], keys, section, task, system,
                                         checked=section != "sweep" or task == "sweep")
    if task == "sweep":
        sweep = resolved["sweep"]
        if not isinstance(waveform, RotatingField):
            raise ConfigError("sweep: waveform must be 'rotating' for sweeps")
        if sweep["parameter"] == "amplitude" and min(sweep["start"], sweep["stop"]) < 0:
            raise ConfigError("sweep: amplitude values must be nonnegative")
    return RunConfig(system=system, waveform=waveform, resolved=resolved)


@dataclass
class SimulationReport:
    """A run's table and report: the worst |1 - sum_m P(n -> m)| and the
    dimension of its level populations (None without populations) and the
    number of samples or grid points each drive-path route produced."""

    config: dict
    columns: dict
    population_sum_max_dev: float | None = None
    dimension: int | None = None
    routes: dict | None = None
    timing_seconds: float | None = None


def _drive_table(cfg: RunConfig):
    span, num = cfg.resolved["time"], cfg.resolved["numerics"]
    times = np.linspace(0.0, span["t_final"], span["samples"])
    if np.any(np.diff(times) <= 0):
        raise ConfigError("time.t_final: too short to hold time.samples distinct times")
    dp = build_drive_path(
        cfg.system, cfg.waveform, times, method=num["method"], abs_tol=num["quadrature_tol"]
    )
    columns = {
        "t": dp.times.tolist(),
        "re_R": dp.r.real.tolist(),
        "im_R": dp.r.imag.tolist(),
        "beta": dp.beta.tolist(),
        "re_u": dp.u.real.tolist(),
        "im_u": dp.u.imag.tolist(),
        "gamma": dp.gamma.tolist(),
        "area_R": dp.area_r.tolist(),
        "area_u": dp.area_u.tolist(),
    }
    return dp, columns


def _populations(cfg: RunConfig, us, shown: int = 0) -> tuple[np.ndarray, dict]:
    """``level_populations`` from the initial level for drive amplitudes
    ``us``, and the report fields that say how healthy their truncation was.
    With ``numerics.dimension`` 0 the basis is the automatic one, widened
    to hold the ``shown`` leading levels that the table prints."""
    level, dim = cfg.resolved["initial_state"]["level"], cfg.resolved["numerics"]["dimension"]
    if dim and level >= dim:
        raise ConfigError("initial_state.level: exceeds truncation dimension")
    dim = dim or max(shown, _auto_dimension(_amplitudes(cfg.system, us), level))
    pops = level_populations(cfg.system, us, level, dim)
    return pops, {"population_sum_max_dev": float(_norm_deficit(pops).max(initial=0.0)),
                  "dimension": pops.shape[1]}


def run_simulate(cfg: RunConfig) -> SimulationReport:
    """Per-sample drive history plus level populations from the initial level."""
    start = time.perf_counter()
    dp, columns = _drive_table(cfg)
    shown = cfg.resolved["report"]["population_levels"]
    pops, health = _populations(cfg, dp.u, shown)
    columns["survival"] = pops[:, cfg.resolved["initial_state"]["level"]].tolist()
    for m in range(min(shown, pops.shape[1])):
        columns[f"pop_{m}"] = pops[:, m].tolist()
    return SimulationReport(
        config=cfg.resolved,
        columns=columns,
        **health,
        routes={dp.provenance: dp.times.size},
        timing_seconds=time.perf_counter() - start,
    )


def run_phases(cfg: RunConfig) -> SimulationReport:
    """Fast path: drive history and phases only, no Fock-space content."""
    start = time.perf_counter()
    dp, columns = _drive_table(cfg)
    return SimulationReport(
        config=cfg.resolved,
        columns=columns,
        routes={dp.provenance: dp.times.size},
        timing_seconds=time.perf_counter() - start,
    )


def run_sweep(cfg: RunConfig) -> SimulationReport:
    """One row per swept parameter value, evaluated at t_final."""
    start = time.perf_counter()
    num, sweep = cfg.resolved["numerics"], cfg.resolved["sweep"]
    base, parameter = cfg.waveform, sweep["parameter"]
    with np.errstate(over="ignore", invalid="ignore"):  # past float64: the rule below
        values = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
        grid = ({"amplitude": base.amplitude, "nu": values * cfg.system.omega}
                if parameter == "nu_over_omega" else {"amplitude": values, "nu": base.nu})
    try:
        pairs = RotatingField._grid_pairs(phase=base.phase, **grid)
    except ValueError as exc:
        raise ConfigError(f"sweep: {parameter} from {sweep['start']!r} to {sweep['stop']!r} "
                          f"in {sweep['steps']} steps: {exc}") from None
    *rows, route = _exp_sum_samples(
        cfg.system, pairs, _endpoint_grid(cfg.resolved["time"]["t_final"]), num["method"],
        num["quadrature_tol"])
    _, u, beta, gamma, _, _ = (row[:, -1] for row in rows)
    pops, health = _populations(cfg, u)
    columns = {
        parameter: values.tolist(),
        "survival": pops[:, cfg.resolved["initial_state"]["level"]].tolist(),
        "abs_u": np.hypot(u.real, u.imag).tolist(),
        "beta": beta.tolist(),
        "gamma": gamma.tolist(),
    }
    return SimulationReport(
        config=cfg.resolved,
        columns=columns,
        **health,
        routes={route: values.size},
        timing_seconds=time.perf_counter() - start,
    )


def _electron_benchmark() -> dict:
    electron = _physical_system("si", -1.0, BENCHMARK_FIELD_T, 1.0)
    coeff = drive_strength_coefficient(electron, BENCHMARK_DRIVE_V_PER_M)
    duration = (_C_SI * BENCHMARK_FIELD_T / BENCHMARK_DRIVE_V_PER_M) / electron.omega
    return {
        "field_tesla": BENCHMARK_FIELD_T,
        "drive_v_per_m": BENCHMARK_DRIVE_V_PER_M,
        "drive_strength_coefficient": coeff,
        "documented_coefficient": BENCHMARK_COEFFICIENT,
        "coefficient_matches_documented": bool(
            abs(coeff - BENCHMARK_COEFFICIENT) <= 0.02 * BENCHMARK_COEFFICIENT
        ),
        "duration_from_formula_s": duration,
        "documented_duration_s": BENCHMARK_DOCUMENTED_DURATION_S,
        "duration_quote_consistent": bool(
            abs(duration - BENCHMARK_DOCUMENTED_DURATION_S)
            <= 0.02 * BENCHMARK_DOCUMENTED_DURATION_S
        ),
        "note": "documented duration disagrees with T = (B/E)/omega; flagged only",
    }


def run_validate(cfg: RunConfig):
    """Residual suite over the validation corpus; returns (report, exit_code)."""
    start = time.perf_counter()
    checks = oracle.run_validation(
        cfg.system,
        dim=cfg.resolved["numerics"]["oracle_dimension"],
        dt=cfg.resolved["numerics"]["integrator_dt"],
    )
    all_passed = all(c.passed for c in checks)
    report = {
        "config": cfg.resolved,
        "checks": [asdict(c) for c in checks],
        "all_passed": bool(all_passed),
        "benchmark": _electron_benchmark(),
        "timing_seconds": time.perf_counter() - start,
    }
    return report, (0 if all_passed else 2)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return repr(value)
    return value


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _write_table(path: Path, columns: dict, fmt: str) -> None:
    """One row per index of the equal-length ``columns`` (lists of floats)."""
    if fmt == "csv":
        # Column names are plain identifiers and cells are float reprs, so no
        # field needs quoting: each column is formatted once, rows joined.
        lines = map(",".join, zip(*(map(repr, column) for column in columns.values())))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            fh.writelines(line + "\n" for line in lines)
    else:
        _write_json(path, [dict(zip(columns, row)) for row in zip(*columns.values())])


def _gnuplot_script(data_name: str, columns: list[str]) -> str:
    """Minimal companion script plotting the headline columns."""
    ys = [c for c in ("survival", "beta", "gamma") if c in columns] or columns[1:2]
    plots = ", ".join(
        f"'{data_name}' using 1:{columns.index(y) + 1} with lines" for y in ys
    )
    return (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"set xlabel '{columns[0]}'\n"
        f"plot {plots}\n"
    )


def _output_path(cfg: RunConfig, name: str) -> Path:
    """<directory>/<basename>_<name> of the output settings; makes the directory."""
    out = cfg.resolved["output"]
    directory = Path(out["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{out['basename']}_{name}"


def _emit(cfg: RunConfig, report: SimulationReport, suffix: str) -> list[Path]:
    fmt = cfg.resolved["output"]["format"]
    data_path = _output_path(cfg, f"{suffix}.{fmt}")
    _write_table(data_path, report.columns, fmt)
    if fmt == "csv":
        script = _gnuplot_script(data_path.name, list(report.columns))
        _output_path(cfg, f"{suffix}.gp").write_text(script)
    report_path = _output_path(cfg, "report.json")
    _write_json(report_path, {k: v for k, v in vars(report).items() if k != "columns"})
    return [data_path, report_path]


#: The commands, in the order the help lists them: command -> (help text,
#: name of its runner in this module, suffix of its data file, the config
#: keys that size its arrays, named when memory runs out).  The runner is
#: looked up by name when it runs, so a wrapper put on that name sees the call.
_COMMANDS = {
    "simulate": ("per-sample drive history and level populations", "run_simulate", "samples",
                 "time.samples or numerics.dimension"),
    "sweep": ("final-time observables over a parameter grid", "run_sweep", "sweep",
              "sweep.steps or numerics.dimension"),
    "validate": ("run the brute-force residual suite", "run_validate", "validation",
                 "numerics.oracle_dimension"),
    "phases": ("drive history and phases only", "run_phases", "phases", "time.samples"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="landau-drive",
        description="Driven Landau-level simulations via a factorized propagator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON or TOML run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--format", default=None, choices=["csv", "json"])
        p.add_argument("--seed", default=None, help="ignored (no stochastic content)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _, runner, suffix, size_keys = _COMMANDS[args.command]

    if args.seed is not None:
        print("warning: --seed is ignored; runs are deterministic", file=_sys.stderr)

    try:
        # the parsed document is not kept: a sampled trace's lists of
        # Python floats would stay alive through the whole run
        cfg = resolve_config(
            load_config(args.config), args.command, out_override=args.out,
            format_override=args.format,
        )
        result = globals()[runner](cfg)
        report, code = result if args.command == "validate" else (result, 0)
        try:
            if args.command == "validate":
                written = [_output_path(cfg, f"{suffix}.json")]
                _write_json(written[0], report)
            else:
                written = _emit(cfg, report, suffix)
        except OSError as exc:  # writing the outputs
            raise ConfigError(f"output.directory: {exc}") from None
        if args.command == "validate":
            for c in report["checks"]:
                status = "pass" if c["passed"] else "FAIL"
                print(f"{status}  {c['name']}: {c['value']:.3e} (tol {c['tolerance']:.1e})")
        for p in written:
            print(f"wrote {p}")
        if code:  # only validate fails a run that returned
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            print(f"FAILED checks: {', '.join(failed)}", file=_sys.stderr)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1
    except (AccuracyError, TruncationError, DomainError) as exc:
        print(f"numeric error: {exc}", file=_sys.stderr)
        return 2
    except MemoryError:
        print(f"numeric error: out of memory; reduce {size_keys}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
