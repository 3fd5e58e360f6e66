"""Config-driven command line: simulate, sweep, validate, phases.

Config files are JSON (or TOML when a parser is available), one document
per run.  Outputs are CSV tables for per-sample and sweep data plus JSON
reports; data files contain no wall-clock content, so identical configs
reproduce identical bytes.  Exit codes: 0 success, 1 config error,
2 numeric or tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys as _sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

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
from .fock_algebra import displacement_columns, suggested_dimension
from .path_integrals import build_drive_path
from .propagator import (
    displacement_argument,
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


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_bytes()
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


#: Keys each fixed config section accepts, and each waveform type besides
#: "type".  Anything else is a ConfigError, so a misspelt setting never
#: falls back to its default unnoticed.
_SECTION_KEYS = {
    "system": ("units", "charge", "magnetic_field", "mass"),
    "time": ("t_final", "samples"),
    "numerics": (
        "dimension", "oracle_dimension", "quadrature_tol", "integrator_dt", "method"
    ),
    "initial_state": ("level",),
    "report": ("population_levels",),
    "sweep": ("parameter", "start", "stop", "steps"),
    "output": ("directory", "format", "basename"),
}
_WAVEFORM_KEYS = {
    "zero": (),
    "constant": ("e1", "e2"),
    "rotating": ("amplitude", "nu", "phase"),
    "linear_sinusoid": ("amplitude", "direction", "angular_frequency", "phase"),
    "sampled": ("times", "e1", "e2"),
    "sum": ("terms",),
}


def _reject_unknown_keys(block: dict, allowed, path: str | None) -> None:
    """ConfigError for the first key of ``block`` not in ``allowed``.

    ``path`` is the section's config path, or None for the document root,
    whose keys are sections.
    """
    for key in block:
        if key not in allowed:
            raise ConfigError(
                f"{path}.{key}: unknown key" if path else f"{key}: unknown section"
            )


def _field(d: dict, key: str, kind, path: str, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    value = d[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}.{key}: expected a table/object")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}.{key}: expected a list")
        return value
    raise AssertionError(kind)


def _build_waveform(block: dict, path: str) -> FieldWaveform:
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected a table/object")
    kind = _field(block, "type", str, path, required=True)
    if kind not in _WAVEFORM_KEYS:
        raise ConfigError(f"{path}.type: unknown waveform type {kind!r}")
    _reject_unknown_keys(block, ("type", *_WAVEFORM_KEYS[kind]), path)
    if kind == "zero":
        return ZeroField()
    if kind == "constant":
        return ConstantField(
            _field(block, "e1", float, path, 0.0), _field(block, "e2", float, path, 0.0)
        )
    if kind == "rotating":
        try:
            return RotatingField(
                _field(block, "amplitude", float, path, required=True),
                _field(block, "nu", float, path, required=True),
                _field(block, "phase", float, path, 0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}")
    if kind == "linear_sinusoid":
        try:
            return LinearSinusoidField(
                _field(block, "amplitude", float, path, required=True),
                _field(block, "direction", float, path, 0.0),
                _field(block, "angular_frequency", float, path, 0.0),
                _field(block, "phase", float, path, 0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}")
    if kind == "sampled":
        times = _field(block, "times", list, path, required=True)
        e1 = _field(block, "e1", list, path, required=True)
        e2 = _field(block, "e2", list, path, required=True)
        try:
            return SampledField(tuple(times), tuple(e1), tuple(e2))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}")
    # the one type left is "sum"
    terms = _field(block, "terms", list, path, required=True)
    return SumField(
        tuple(
            _build_waveform(term, f"{path}.terms[{i}]")
            for i, term in enumerate(terms)
        )
    )


@dataclass(frozen=True)
class RunConfig:
    task: str
    unit_system: str
    system: PhysicalSystem
    waveform: FieldWaveform
    t_final: float
    samples: int
    dimension: int | None
    oracle_dim: int
    quadrature_tol: float
    integrator_dt: float
    method: str
    initial_level: int
    population_levels: int
    sweep_parameter: str | None
    sweep_start: float
    sweep_stop: float
    sweep_steps: int
    out_dir: Path
    out_format: str
    basename: str
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
    _reject_unknown_keys(raw, ("task", "waveform", *_SECTION_KEYS), None)
    for section, keys in _SECTION_KEYS.items():
        if isinstance(raw.get(section), dict):
            _reject_unknown_keys(raw[section], keys, section)
    declared = _field(raw, "task", str, "config", task)
    if declared != task:
        raise ConfigError(f"task: config declares {declared!r} but command is {task!r}")

    sysblock = _field(raw, "system", dict, "config", {})
    unit_system = _field(sysblock, "units", str, "system", "natural").lower()
    if unit_system not in UNIT_CONSTANTS:
        raise ConfigError(f"system.units: unknown unit system {unit_system!r}")
    consts = UNIT_CONSTANTS[unit_system]
    charge_mult = _field(sysblock, "charge", float, "system", 1.0)
    b_value = _field(sysblock, "magnetic_field", float, "system", 1.0)
    mass_mult = _field(sysblock, "mass", float, "system", 1.0)
    try:
        system = PhysicalSystem(
            charge=charge_mult * consts["elementary_charge"],
            magnetic_field=b_value,
            mass=mass_mult * consts["electron_mass"],
            hbar=consts["hbar"],
            c=consts["c"],
        )
    except ValueError as exc:
        raise ConfigError(f"system: {exc}")

    waveform = _build_waveform(_field(raw, "waveform", dict, "config", {"type": "zero"}), "waveform")

    timeblock = _field(raw, "time", dict, "config", {})
    t_final = _field(timeblock, "t_final", float, "time", 10.0 / system.omega)
    if t_final < 0:
        raise ConfigError("time.t_final: must be nonnegative")
    samples = _field(timeblock, "samples", int, "time", 101)
    if samples < 2:
        raise ConfigError("time.samples: must be at least 2")

    numblock = _field(raw, "numerics", dict, "config", {})
    dimension = _field(numblock, "dimension", int, "numerics", 0)
    if dimension < 0 or dimension == 1:
        raise ConfigError("numerics.dimension: must be 0 (auto) or at least 2")
    oracle_dim = _field(numblock, "oracle_dimension", int, "numerics", 64)
    if oracle_dim < 2:
        raise ConfigError("numerics.oracle_dimension: must be at least 2")
    quadrature_tol = _field(numblock, "quadrature_tol", float, "numerics", 1e-10)
    if not 0 < quadrature_tol <= 1e-4:
        raise ConfigError("numerics.quadrature_tol: must lie in (0, 1e-4]")
    integrator_dt = _field(numblock, "integrator_dt", float, "numerics", 0.01)
    if not 0 < integrator_dt <= 0.05:
        raise ConfigError(
            "numerics.integrator_dt: must lie in (0, 0.05] (units of 1/omega)"
        )
    method = _field(numblock, "method", str, "numerics", "auto")
    if method not in ("auto", "closed_form", "quadrature"):
        raise ConfigError(f"numerics.method: unknown method {method!r}")

    stateblock = _field(raw, "initial_state", dict, "config", {})
    initial_level = _field(stateblock, "level", int, "initial_state", 0)
    if initial_level < 0:
        raise ConfigError("initial_state.level: must be nonnegative")

    reportblock = _field(raw, "report", dict, "config", {})
    population_levels = _field(reportblock, "population_levels", int, "report", 8)
    if population_levels < 1:
        raise ConfigError("report.population_levels: must be positive")

    sweepblock = _field(raw, "sweep", dict, "config", {})
    sweep_parameter = _field(sweepblock, "parameter", str, "sweep", None)
    sweep_start = _field(sweepblock, "start", float, "sweep", 0.5)
    sweep_stop = _field(sweepblock, "stop", float, "sweep", 1.5)
    sweep_steps = _field(sweepblock, "steps", int, "sweep", 21)
    if task == "sweep":
        if sweep_parameter not in ("nu_over_omega", "amplitude"):
            raise ConfigError(
                "sweep.parameter: must be 'nu_over_omega' or 'amplitude'"
            )
        if sweep_steps < 1:
            raise ConfigError("sweep.steps: must be positive")
        if not isinstance(waveform, RotatingField):
            raise ConfigError("sweep: waveform must be 'rotating' for sweeps")

    outblock = _field(raw, "output", dict, "config", {})
    out_dir = Path(out_override or _field(outblock, "directory", str, "output", "out"))
    out_format = (format_override or _field(outblock, "format", str, "output", "csv")).lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: must be 'csv' or 'json', got {out_format!r}")
    basename = _field(outblock, "basename", str, "output", task)

    resolved = {
        "task": task,
        "system": {
            "units": unit_system,
            "charge": charge_mult,
            "magnetic_field": b_value,
            "mass": mass_mult,
            "constants": consts,
            "derived": {
                "omega": system.omega,
                "l_b": system.l_b,
                "k": system.k,
                "mirrored": system.mirrored,
            },
        },
        "waveform": _field(raw, "waveform", dict, "config", {"type": "zero"}),
        "time": {"t_final": t_final, "samples": samples},
        "numerics": {
            "dimension": dimension,
            "oracle_dimension": oracle_dim,
            "quadrature_tol": quadrature_tol,
            "integrator_dt": integrator_dt,
            "method": method,
        },
        "initial_state": {"level": initial_level},
        "report": {"population_levels": population_levels},
        "sweep": {
            "parameter": sweep_parameter,
            "start": sweep_start,
            "stop": sweep_stop,
            "steps": sweep_steps,
        },
        "output": {
            "directory": str(out_dir),
            "format": out_format,
            "basename": basename,
        },
    }
    return RunConfig(
        task=task,
        unit_system=unit_system,
        system=system,
        waveform=waveform,
        t_final=t_final,
        samples=samples,
        dimension=dimension or None,
        oracle_dim=oracle_dim,
        quadrature_tol=quadrature_tol,
        integrator_dt=integrator_dt,
        method=method,
        initial_level=initial_level,
        population_levels=population_levels,
        sweep_parameter=sweep_parameter,
        sweep_start=sweep_start,
        sweep_stop=sweep_stop,
        sweep_steps=sweep_steps,
        out_dir=out_dir,
        out_format=out_format,
        basename=basename,
        resolved=resolved,
    )


@dataclass
class SimulationReport:
    config: dict
    columns: dict
    population_sum_max_dev: float
    truncation_flagged_samples: list
    timing_seconds: float | None = None


def _drive_table(cfg: RunConfig):
    times = np.linspace(0.0, cfg.t_final, cfg.samples)
    dp = build_drive_path(
        cfg.system, cfg.waveform, times, method=cfg.method, abs_tol=cfg.quadrature_tol
    )
    columns = {
        "t": list(map(float, dp.times)),
        "re_R": list(map(float, dp.r.real)),
        "im_R": list(map(float, dp.r.imag)),
        "beta": list(map(float, dp.beta)),
        "re_u": list(map(float, dp.u.real)),
        "im_u": list(map(float, dp.u.imag)),
        "gamma": list(map(float, dp.gamma)),
        "area_R": list(map(float, dp.area_r)),
        "area_u": list(map(float, dp.area_u)),
    }
    return dp, columns


def run_simulate(cfg: RunConfig) -> SimulationReport:
    """Per-sample drive history plus level populations from the initial level."""
    start = time.perf_counter()
    dp, columns = _drive_table(cfg)
    alphas = [displacement_argument(cfg.system, u) for u in dp.u]
    dim = cfg.dimension or suggested_dimension(max(abs(a) for a in alphas))
    if cfg.initial_level >= dim:
        raise ConfigError("initial_state.level: exceeds truncation dimension")
    n_pop = min(cfg.population_levels, dim)
    pops = np.abs(displacement_columns(alphas, cfg.initial_level, dim)) ** 2
    columns["survival"] = list(map(float, pops[:, cfg.initial_level]))
    for m in range(n_pop):
        columns[f"pop_{m}"] = list(map(float, pops[:, m]))
    sum_dev = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    if sum_dev > 1e-8:
        raise AccuracyError(
            f"level populations sum to 1 only within {sum_dev:.3g}; "
            f"increase numerics.dimension (currently {dim})",
            achieved=sum_dev,
        )
    edge = dim - dim // 4
    flagged = [int(j) for j in range(cfg.samples) if pops[j, edge:].sum() > 1e-8]
    return SimulationReport(
        config=cfg.resolved,
        columns=columns,
        population_sum_max_dev=sum_dev,
        truncation_flagged_samples=flagged,
        timing_seconds=time.perf_counter() - start,
    )


def run_phases(cfg: RunConfig) -> SimulationReport:
    """Fast path: drive history and phases only, no Fock-space content."""
    start = time.perf_counter()
    _, columns = _drive_table(cfg)
    return SimulationReport(
        config=cfg.resolved,
        columns=columns,
        population_sum_max_dev=0.0,
        truncation_flagged_samples=[],
        timing_seconds=time.perf_counter() - start,
    )


def run_sweep(cfg: RunConfig) -> SimulationReport:
    """One row per swept parameter value, evaluated at t_final."""
    start = time.perf_counter()
    if cfg.dimension is not None and cfg.initial_level >= cfg.dimension:
        raise ConfigError("initial_state.level: exceeds truncation dimension")
    base = cfg.waveform
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)
    grid = [0.0, cfg.t_final] if cfg.t_final > 0 else [0.0]
    us, betas, gammas = [], [], []
    for value in values:
        if cfg.sweep_parameter == "nu_over_omega":
            w = RotatingField(base.amplitude, float(value) * cfg.system.omega, base.phase)
        else:
            if value < 0:
                raise ConfigError("sweep: amplitude values must be nonnegative")
            w = RotatingField(float(value), base.nu, base.phase)
        dp = build_drive_path(
            cfg.system, w, grid, method=cfg.method, abs_tol=cfg.quadrature_tol
        )
        us.append(complex(dp.u[-1]))
        betas.append(float(dp.beta[-1]))
        gammas.append(float(dp.gamma[-1]))
    pops = level_populations(cfg.system, us, cfg.initial_level, cfg.dimension)
    columns = {
        cfg.sweep_parameter: list(map(float, values)),
        "survival": list(map(float, pops[:, cfg.initial_level])),
        "abs_u": [abs(u) for u in us],
        "beta": betas,
        "gamma": gammas,
    }
    return SimulationReport(
        config=cfg.resolved,
        columns=columns,
        population_sum_max_dev=0.0,
        truncation_flagged_samples=[],
        timing_seconds=time.perf_counter() - start,
    )


def _electron_benchmark() -> dict:
    consts = UNIT_CONSTANTS["si"]
    electron = PhysicalSystem(
        charge=-consts["elementary_charge"],
        magnetic_field=BENCHMARK_FIELD_T,
        mass=consts["electron_mass"],
        hbar=consts["hbar"],
        c=1.0,
    )
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


def run_validate(
    cfg: RunConfig,
    *,
    corrupt_displacement_sign: bool = False,
    include_convergence: bool = True,
):
    """Residual suite over the validation corpus; returns (report, exit_code)."""
    start = time.perf_counter()
    checks = oracle.run_validation(
        cfg.system,
        dim=cfg.oracle_dim,
        dt=cfg.integrator_dt,
        corrupt_displacement_sign=corrupt_displacement_sign,
        include_convergence=include_convergence,
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
    names = list(columns)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            for i in range(len(columns[names[0]])):
                writer.writerow([repr(columns[name][i]) for name in names])
    else:
        rows = [
            {name: columns[name][i] for name in names}
            for i in range(len(columns[names[0]]))
        ]
        path.write_text(json.dumps(_jsonable(rows), indent=2, sort_keys=True) + "\n")


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


def _emit(cfg: RunConfig, report: SimulationReport, suffix: str) -> list[Path]:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if cfg.out_format == "csv" else "json"
    data_path = cfg.out_dir / f"{cfg.basename}_{suffix}.{ext}"
    _write_table(data_path, report.columns, cfg.out_format)
    if cfg.out_format == "csv":
        script = _gnuplot_script(data_path.name, list(report.columns))
        (cfg.out_dir / f"{cfg.basename}_{suffix}.gp").write_text(script)
    report_path = cfg.out_dir / f"{cfg.basename}_report.json"
    _write_json(
        report_path,
        {
            "config": report.config,
            "population_sum_max_dev": report.population_sum_max_dev,
            "truncation_flagged_samples": report.truncation_flagged_samples,
            "timing_seconds": report.timing_seconds,
        },
    )
    return [data_path, report_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="landau-drive",
        description="Driven Landau-level simulations via a factorized propagator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "per-sample drive history and level populations"),
        ("sweep", "final-time observables over a parameter grid"),
        ("validate", "run the brute-force residual suite"),
        ("phases", "drive history and phases only"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON or TOML run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--format", default=None, choices=["csv", "json"])
        p.add_argument("--seed", default=None, help="ignored (no stochastic content)")
    args = parser.parse_args(argv)

    if args.seed is not None:
        print("warning: --seed is ignored; runs are deterministic", file=_sys.stderr)

    try:
        raw = load_config(args.config)
        cfg = resolve_config(
            raw, args.command, out_override=args.out, format_override=args.format
        )
        if args.command == "validate":
            report, code = run_validate(cfg)
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
            path = cfg.out_dir / f"{cfg.basename}_validation.json"
            _write_json(path, report)
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            for c in report["checks"]:
                status = "pass" if c["passed"] else "FAIL"
                print(f"{status}  {c['name']}: {c['value']:.3e} (tol {c['tolerance']:.1e})")
            print(f"wrote {path}")
            if failed:
                print(f"FAILED checks: {', '.join(failed)}", file=_sys.stderr)
            return code
        if args.command == "simulate":
            report = run_simulate(cfg)
            paths = _emit(cfg, report, "samples")
        elif args.command == "sweep":
            report = run_sweep(cfg)
            paths = _emit(cfg, report, "sweep")
        else:
            report = run_phases(cfg)
            paths = _emit(cfg, report, "phases")
        for p in paths:
            print(f"wrote {p}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1
    except (AccuracyError, TruncationError, DomainError) as exc:
        print(f"numeric error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
