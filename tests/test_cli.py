import ast
import csv
import hashlib
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive import cli, oracle, propagator
from landau_drive.errors import ConfigError, TruncationError
from landau_drive.propagator import NORM_TOL

import _cli_contracts as contracts
from _cli_contracts import BASE_SIM, FIVE_NODES

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


@pytest.mark.parametrize("row", contracts.ROWS, ids=lambda row: row.name)
def test_cli_contract(row, tmp_path, monkeypatch, capsys):
    # each row through main in its own directory, in time and with no warning
    monkeypatch.chdir(tmp_path)
    if row.before_run:
        monkeypatch.setattr(cli, cli._COMMANDS[row.command][1], None)

    def hung(signum, frame):
        raise TimeoutError(f"{row.name} did not finish within {row.seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(math.ceil(row.seconds))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            found = contracts.check(row, tmp_path,
                                    lambda argv: (cli.main(argv), capsys.readouterr().err))
            elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not found
    assert elapsed < row.seconds
    assert not caught, [str(w.message) for w in caught]


def test_contract_table_covers_every_command_and_exit_code():
    # in the manner of EXAMPLES pinned to the waveform table below
    assert len({row.name for row in contracts.ROWS}) == len(contracts.ROWS)
    assert {(row.command, row.code) for row in contracts.ROWS} == {
        (command, code) for command in cli._COMMANDS for code in (0, 1, 2)}
    prefixes = {0: "", 1: "config error: ", 2: "numeric error: "}
    for row in contracts.ROWS:
        assert row.err.startswith(prefixes[row.code]), row.name


class TestConfigLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_config(path)

    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_undecodable_config_is_config_error(self, tmp_path, capsys, suffix):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(b'{"task": "simulate"\xff}' if suffix == ".json" else b'task = "\xff"\n')
        with pytest.raises(ConfigError):
            cli.load_config(path)
        assert cli.main(["simulate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error")

    def test_toml_config(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(
            'task = "simulate"\n'
            "[system]\nunits = \"natural\"\n"
            "[waveform]\ntype = \"rotating\"\namplitude = 0.1\nnu = 0.9\n"
        )
        raw = cli.load_config(path)
        cfg = cli.resolve_config(raw, "simulate")
        assert cfg.waveform == ld.RotatingField(0.1, 0.9)


class TestResolveConfig:
    def test_defaults_filled(self):
        cfg = cli.resolve_config({}, "simulate")
        assert cfg.resolved["time"]["samples"] == 101
        assert cfg.resolved["output"]["format"] == "csv"
        assert cfg.resolved["numerics"]["quadrature_tol"] == 1e-10
        assert cfg.waveform == ld.ZeroField()

    def test_resolved_echo_of_empty_config(self):
        # every key of the schema, defaulted, as each report echoes it
        assert cli.resolve_config({}, "phases").resolved == {
            "task": "phases",
            "system": {
                "units": "natural", "charge": 1.0, "magnetic_field": 1.0, "mass": 1.0,
                "constants": cli.UNIT_CONSTANTS["natural"],
                "derived": {"omega": 1.0, "l_b": 1.0, "k": math.sqrt(2.0),
                            "mirrored": False},
            },
            "waveform": {"type": "zero"},
            "time": {"t_final": 10.0, "samples": 101},
            "numerics": {"dimension": 0, "oracle_dimension": 64,
                         "quadrature_tol": 1e-10, "integrator_dt": 0.01,
                         "method": "auto"},
            "initial_state": {"level": 0},
            "report": {"population_levels": 8},
            "sweep": {"parameter": None, "start": 0.5, "stop": 1.5, "steps": 21},
            "output": {"directory": "out", "format": "csv", "basename": "phases"},
        }

    def test_readme_config_block_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads(re.sub(r"//[^\n]*", "", block))
        assert set(doc) == {"task", "waveform", *cli._SCHEMA}
        for section, keys in cli._SCHEMA.items():
            assert set(doc[section]) == set(keys), section
        _, waveform_keys = cli._WAVEFORMS[doc["waveform"]["type"]]
        assert set(doc["waveform"]) == {"type", *waveform_keys}
        cfg = cli.resolve_config(doc, "simulate")
        assert cfg.resolved["output"]["basename"] == "run"

    @pytest.mark.parametrize(
        "waveform,message",
        [
            ({"type": "rotating", "amplitude": "x", "nu": 1},
             "waveform.amplitude: expected a number, got 'x'"),
            ({"type": "linear_sinusoid"}, "waveform.amplitude: required field missing"),
            ({"type": "sum", "terms": [{"type": "rotating", "amplitude": 0.1}]},
             "waveform.terms[0].nu: required field missing"),
        ],
    )
    def test_waveform_messages_name_the_key_once(self, waveform, message):
        with pytest.raises(ConfigError) as caught:
            cli.resolve_config({"waveform": waveform}, "simulate")
        assert str(caught.value) == message

    @pytest.mark.parametrize("start,stop", [(-0.1, 0.2), (0.2, -0.1)])
    def test_negative_sweep_amplitude_rejected_before_running(self, start, stop):
        doc = {"waveform": {"type": "rotating", "amplitude": 0.2, "nu": 1.0},
               "sweep": {"parameter": "amplitude", "start": start, "stop": stop,
                         "steps": 3}}
        with pytest.raises(ConfigError, match="sweep: amplitude values must be nonnegative"):
            cli.resolve_config(doc, "sweep")

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"system": {"units": "imperial"}}, "units"),
            ({"system": {"magnetic_field": -1.0}}, "system"),
            ({"waveform": {"type": "warble"}}, "waveform.type"),
            ({"waveform": {"type": "rotating"}}, "waveform.amplitude"),
            ({"time": {"samples": 1}}, "time.samples"),
            ({"time": {"t_final": -2.0}}, "time.t_final"),
            ({"numerics": {"integrator_dt": 0.5}}, "numerics.integrator_dt"),
            ({"numerics": {"dimension": 1}}, "numerics.dimension"),
            ({"initial_state": {"level": -1}}, "initial_state.level"),
            ({"output": {"format": "xml"}}, "output.format"),
            ({"numerics": {"integrator_dt": 1e-300}}, "numerics.integrator_dt"),
            ({"numerics": {"integrator_dt": 9e-5}}, "numerics.integrator_dt"),
            ({"waveform": {"amplitude": 0.1, "nu": 1.0}}, "waveform.type"),
            ([{"task": "simulate"}], "config root"),
        ],
    )
    def test_field_level_errors(self, doc, field):
        with pytest.raises(ConfigError, match=field.split(".")[-1]):
            cli.resolve_config(doc, "simulate")

    def test_sum_term_must_be_table(self):
        doc = {"waveform": {"type": "sum", "terms": [0.5]}}
        with pytest.raises(ConfigError, match=re.escape("waveform.terms[0]: expected")):
            cli.resolve_config(doc, "simulate")

    def test_sweep_requires_rotating(self):
        doc = {"sweep": {"parameter": "amplitude"}, "waveform": {"type": "zero"}}
        with pytest.raises(ConfigError, match="rotating"):
            cli.resolve_config(doc, "sweep")

    def test_si_system(self):
        doc = {"system": {"units": "si", "charge": -1.0, "magnetic_field": 15.0}}
        cfg = cli.resolve_config(doc, "simulate")
        assert cfg.system.mirrored
        assert cfg.system.omega == pytest.approx(2.638e12, rel=1e-3)

    def test_nested_sum_waveform(self):
        doc = {
            "waveform": {
                "type": "sum",
                "terms": [
                    {"type": "constant", "e1": 0.1},
                    {"type": "rotating", "amplitude": 0.2, "nu": 1.0},
                ],
            }
        }
        cfg = cli.resolve_config(doc, "simulate")
        assert isinstance(cfg.waveform, ld.SumField)
        assert len(cfg.waveform.terms) == 2


class TestRunSimulate:
    def test_zero_field_populations(self):
        doc = {"waveform": {"type": "zero"}, "time": {"samples": 5},
               "numerics": {"dimension": 8}}
        report = cli.run_simulate(cli.resolve_config(doc, "simulate"))
        assert_allclose(report.columns["survival"], 1.0)
        assert_allclose(report.columns["pop_0"], 1.0)
        assert_allclose(report.columns["pop_1"], 0.0)
        assert_allclose(report.columns["beta"], 0.0)
        assert report.population_sum_max_dev < 1e-12

    def test_rotating_columns_match_closed_forms(self, natural):
        cfg = cli.resolve_config(BASE_SIM, "simulate")
        report = cli.run_simulate(cfg)
        e0, nu = 0.16, 0.8
        r0 = e0 / nu
        t = np.array(report.columns["t"])
        assert_allclose(
            report.columns["beta"],
            0.5 * r0**2 * (nu * t - np.sin(nu * t)),
            atol=1e-12,
        )
        d = nu - 1.0
        u = (-r0 * nu / 2) * (np.exp(1j * d * t) - 1) / (1j * d)
        assert_allclose(report.columns["re_u"], u.real, atol=1e-12)
        assert_allclose(report.columns["im_u"], u.imag, atol=1e-12)

    def test_resonant_survival_column(self, natural):
        doc = {
            "waveform": {"type": "rotating", "amplitude": 0.1, "nu": 1.0},
            "time": {"t_final": 8.0, "samples": 9},
        }
        report = cli.run_simulate(cli.resolve_config(doc, "simulate"))
        t = np.array(report.columns["t"])
        expected = [ld.resonance_survival(natural, 0.1, ti) for ti in t]
        assert_allclose(report.columns["survival"], expected, atol=1e-10)

    def test_initial_level_bound(self):
        doc = {"numerics": {"dimension": 8}, "initial_state": {"level": 9}}
        with pytest.raises(ConfigError, match="level"):
            cli.run_simulate(cli.resolve_config(doc, "simulate"))

    def test_auto_dimension_holds_every_population_column(self):
        # a weak drive sizes the basis at 18 levels, narrower than the 30
        # pop_m columns asked for; the auto basis widens to hold them all
        doc = {
            "waveform": {"type": "rotating", "amplitude": 0.05, "nu": 0.9},
            "time": {"t_final": 5.0, "samples": 11},
            "report": {"population_levels": 30},
        }
        auto = cli.run_simulate(cli.resolve_config(doc, "simulate"))
        explicit = cli.run_simulate(
            cli.resolve_config(dict(doc, numerics={"dimension": 64}), "simulate"))
        shown = [f"pop_{m}" for m in range(30)]
        assert [c for c in auto.columns if c.startswith("pop_")] == shown
        assert auto.dimension == 30
        assert auto.columns == explicit.columns


class TestRunSweep:
    def test_resonance_minimum(self):
        doc = {
            "waveform": {"type": "rotating", "amplitude": 0.05, "nu": 1.0},
            "time": {"t_final": 12.0},
            "sweep": {"parameter": "nu_over_omega", "start": 0.5, "stop": 1.5,
                      "steps": 11},
        }
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        survival = report.columns["survival"]
        values = report.columns["nu_over_omega"]
        assert values[int(np.argmin(survival))] == pytest.approx(1.0)

    def test_single_point_sweep_matches_simulate(self):
        sim_doc = dict(BASE_SIM, time={"t_final": 10.0, "samples": 2})
        sweep_doc = {
            "task": "sweep",
            "waveform": {"type": "rotating", "amplitude": 0.16, "nu": 0.8},
            "time": {"t_final": 10.0},
            "numerics": {"dimension": 48},
            "sweep": {"parameter": "nu_over_omega", "start": 0.8, "stop": 0.8,
                      "steps": 1},
        }
        sim = cli.run_simulate(cli.resolve_config(sim_doc, "simulate"))
        sweep = cli.run_sweep(cli.resolve_config(sweep_doc, "sweep"))
        assert sweep.columns["survival"][0] == pytest.approx(
            sim.columns["survival"][-1], rel=1e-12
        )
        assert sweep.columns["beta"][0] == pytest.approx(
            sim.columns["beta"][-1], rel=1e-12
        )

    def test_mirrored_resonance_at_negative_ratio(self):
        # a negative charge cyclotron-rotates the other way, so the survival
        # minimum sits at nu/omega = -1
        doc = {
            "system": {"units": "si", "charge": -1.0, "magnetic_field": 15.0},
            "waveform": {"type": "rotating", "amplitude": 3.0e4, "nu": 1.0},
            "time": {"t_final": 1.0e-11},
            "sweep": {"parameter": "nu_over_omega", "start": -1.5, "stop": -0.5,
                      "steps": 11},
        }
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        survival = report.columns["survival"]
        values = report.columns["nu_over_omega"]
        assert values[int(np.argmin(survival))] == pytest.approx(-1.0)
        assert min(survival) < 0.5

    def test_zero_amplitude_row_is_unit_survival(self):
        doc = {
            "waveform": {"type": "rotating", "amplitude": 0.2, "nu": 1.0},
            "time": {"t_final": 5.0},
            "sweep": {"parameter": "amplitude", "start": 0.0, "stop": 0.2,
                      "steps": 3},
        }
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        assert report.columns["survival"][0] == 1.0


    SWEEP_DOC = {
        "waveform": {"type": "rotating", "amplitude": 0.3, "nu": 1.0},
        "time": {"t_final": 20.0},
        "sweep": {"parameter": "nu_over_omega", "start": 0.5, "stop": 1.5,
                  "steps": 11},
    }

    @pytest.mark.parametrize("dimension", [0, 100])
    def test_matches_per_point_propagators(self, natural, dimension):
        doc = dict(self.SWEEP_DOC, numerics={"dimension": dimension},
                   initial_state={"level": 2})
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        for i, ratio in enumerate(report.columns["nu_over_omega"]):
            p = ld.assemble(natural, ld.RotatingField(0.3, ratio), 20.0,
                            dim=dimension or None)
            assert report.columns["survival"][i] == pytest.approx(
                ld.transition_probabilities(p, 2)[2], rel=1e-15, abs=0.0
            )
            assert report.columns["abs_u"][i] == abs(p.u)
            assert report.columns["beta"][i] == p.beta
            assert report.columns["gamma"][i] == p.gamma

    @pytest.mark.parametrize("method, routes", [
        ("auto", {"exact": 3}),
        ("quadrature", {"quadrature": 3}),
    ])
    def test_report_counts_routes(self, method, routes):
        # nu/omega = 1 -+ 1e-5 at t = 20 (|mu| t = 2e-4) stays on the exact route
        doc = dict(self.SWEEP_DOC, numerics={"method": method},
                   sweep={"parameter": "nu_over_omega", "start": 1.0 - 1e-5,
                          "stop": 1.0 + 1e-5, "steps": 3})
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        assert report.routes == routes

    def test_unhealthy_point_is_truncation_error(self, tmp_path, capsys, natural):
        # dim 100, level 25: healthy off resonance, but at nu = omega
        # (|alpha|^2 = 18) only the leading 20 columns sum to 1
        doc = dict(self.SWEEP_DOC, numerics={"dimension": 100},
                   initial_state={"level": 25})
        healthy = [
            ld.healthy_dim(ld.assemble(natural, ld.RotatingField(0.3, r), 20.0, dim=100))
            for r in np.linspace(0.5, 1.5, 11)
        ]
        assert sorted(healthy)[:2] == [20, 28]
        with pytest.raises(TruncationError, match="at dimension 100"):
            cli.run_sweep(cli.resolve_config(doc, "sweep"))
        cfg_path = write_config(tmp_path, dict(doc, task="sweep",
                                               output={"directory": str(tmp_path / "o")}))
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
        assert "numeric error" in capsys.readouterr().err


    def test_level_past_explicit_dimension_is_config_error(self):
        doc = dict(self.SWEEP_DOC, numerics={"dimension": 10},
                   initial_state={"level": 12})
        with pytest.raises(ConfigError, match="initial_state.level"):
            cli.run_sweep(cli.resolve_config(doc, "sweep"))

    def test_level_past_smallest_auto_dimension_runs(self, natural):
        # the whole sweep shares the size of its strongest point,
        # |alpha|^2 = 18, at level 40: ceil((sqrt(18) + sqrt(40) + 4)^2)
        doc = dict(self.SWEEP_DOC, initial_state={"level": 40})
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        assert report.dimension == 213
        assert report.population_sum_max_dev <= NORM_TOL
        p = ld.assemble(natural, ld.RotatingField(0.3, 1.0), 20.0, dim=report.dimension)
        assert report.columns["survival"][5] == ld.transition_probabilities(p, 40)[40]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_high_level_auto_dimension_matches_explicit(self, command, monkeypatch):
        # level 20 under the README drive: the auto size is the turning
        # point of level 20 at the run's largest |alpha|, and the column is
        # evaluated once, at that size
        sizes = []

        def spy(alphas, n, dim):
            sizes.append(dim)
            return column_probabilities(alphas, n, dim)

        column_probabilities = propagator._column_probabilities
        doc = {
            "waveform": {"type": "rotating", "amplitude": 0.16, "nu": 0.8},
            "time": {"t_final": 10.0, "samples": 21},
            "initial_state": {"level": 20},
            "sweep": {"parameter": "nu_over_omega", "start": 0.5, "stop": 1.5,
                      "steps": 21},
        }
        run = cli.run_simulate if command == "simulate" else cli.run_sweep
        monkeypatch.setattr(propagator, "_column_probabilities", spy)
        auto = run(cli.resolve_config(doc, command))
        assert sizes == [auto.dimension] == [{"simulate": 89, "sweep": 93}[command]]
        explicit = run(cli.resolve_config(dict(doc, numerics={"dimension": 64}), command))
        assert auto.population_sum_max_dev <= NORM_TOL
        assert auto.columns == explicit.columns


class TestMainAndOutputs:
    def test_simulate_writes_deterministic_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE_SIM, output={"directory": str(tmp_path / "a")}))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "simulate_samples.csv").read_bytes()
        b = (tmp_path / "b" / "simulate_samples.csv").read_bytes()
        assert a == b

    def test_report_echoes_resolved_config(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE_SIM, output={"directory": str(tmp_path / "o")}))
        cli.main(["simulate", "--config", str(cfg_path)])
        report = json.loads((tmp_path / "o" / "simulate_report.json").read_text())
        assert report["config"]["time"]["samples"] == 11
        assert report["config"]["numerics"]["quadrature_tol"] == 1e-10
        assert "timing_seconds" in report

    @pytest.mark.parametrize("command, dimension", [
        ("simulate", 48), ("sweep", 48), ("phases", None),
    ])
    def test_report_states_truncation_health(self, tmp_path, command, dimension):
        doc = dict(BASE_SIM, task=command, output={"directory": str(tmp_path / "o")},
                   sweep={"parameter": "nu_over_omega", "steps": 3})
        assert cli.main([command, "--config", str(write_config(tmp_path, doc))]) == 0
        report = json.loads((tmp_path / "o" / f"{command}_report.json").read_text())
        assert set(report) == {"config", "population_sum_max_dev", "dimension",
                               "routes", "timing_seconds"}
        assert report["routes"] == {"exact": 3 if command == "sweep" else 11}
        assert report["dimension"] == dimension
        if dimension is None:
            assert report["population_sum_max_dev"] is None
        else:
            assert 0.0 <= report["population_sum_max_dev"] <= NORM_TOL

    @staticmethod
    def write_table_by_row_index(path, columns, fmt):
        """The table writer as it was: one row at a time, one cell per name."""
        names = list(columns)
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(names)
                for i in range(len(columns[names[0]])):
                    writer.writerow([repr(columns[name][i]) for name in names])
        else:
            cli._write_json(path, [
                {name: columns[name][i] for name in names}
                for i in range(len(columns[names[0]]))
            ])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [0, 1, 257])
    def test_write_table_matches_row_index_loop(self, tmp_path, fmt, rows):
        rng = np.random.default_rng(rows)
        special = np.array([0.0, -0.0, 0.1, -1.5e-310, 5e-324, 1e22, 1.7976931348623157e308,
                            -2.5, 1.0 / 3.0, math.nan, math.inf, -math.inf])
        values = np.concatenate([special, rng.normal(0.0, 1e3, rows)])[:rows]
        columns = {"t": np.arange(rows, dtype=float).tolist(),
                   "re_u": values.tolist(), "survival": np.exp(-np.abs(values)).tolist(),
                   "pop_0": (values[::-1] * 1e-17).tolist()}
        cli._write_table(tmp_path / f"new.{fmt}", columns, fmt)
        self.write_table_by_row_index(tmp_path / f"old.{fmt}", columns, fmt)
        new = (tmp_path / f"new.{fmt}").read_bytes()
        assert new == (tmp_path / f"old.{fmt}").read_bytes()
        table = new.decode().splitlines()[1:] if fmt == "csv" else json.loads(new)
        assert len(table) == rows

    def test_gnuplot_companion_script(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE_SIM, output={"directory": str(tmp_path / "o")}))
        cli.main(["simulate", "--config", str(cfg_path)])
        script = (tmp_path / "o" / "simulate_samples.gp").read_text()
        assert "simulate_samples.csv" in script and "survival" not in script.split("plot")[0]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_laguerre_overflow_is_numeric_error(self, tmp_path, capsys, command):
        # resonant drive of amplitude 1 reaches |alpha|^2 = 200 by t = 20,
        # where a dim-1617 table of Laguerre polynomials overflowed; the
        # level-0 column needs only the p = 0 row either way
        doc = {
            "task": command,
            "waveform": {"type": "rotating", "amplitude": 1.0, "nu": 1.0},
            "time": {"t_final": 20.0, "samples": 3},
            "sweep": {"parameter": "nu_over_omega", "start": 1.0, "stop": 1.0,
                      "steps": 1},
            "output": {"directory": str(tmp_path / "o")},
        }
        cfg_path = write_config(tmp_path, doc)
        assert cli.main([command, "--config", str(cfg_path)]) == 0
        suffix = "samples" if command == "simulate" else "sweep"
        last = read_csv(tmp_path / "o" / f"{command}_{suffix}.csv")[-1]
        if command == "simulate":
            abs_u = abs(complex(float(last["re_u"]), float(last["im_u"])))
            report = json.loads((tmp_path / "o" / "simulate_report.json").read_text())
            assert report["population_sum_max_dev"] <= 1e-8
        else:
            abs_u = float(last["abs_u"])
        expected = math.exp(-2.0 * abs_u**2)   # k^2 = 2 in natural units
        assert expected == pytest.approx(math.exp(-200.0), rel=1e-12)
        assert float(last["survival"]) == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def level_300_doc(tmp_path, command, amplitude):
        # a resonant drive reaches |alpha|^2 = 200 amplitude^2 by t = 20;
        # column 300 of a dim-1700 basis
        return {
            "task": command,
            "waveform": {"type": "rotating", "amplitude": amplitude, "nu": 1.0},
            "time": {"t_final": 20.0, "samples": 3},
            "numerics": {"dimension": 1700},
            "initial_state": {"level": 300},
            "sweep": {"parameter": "nu_over_omega", "start": 1.0, "stop": 1.0,
                      "steps": 1},
            "output": {"directory": str(tmp_path / "o")},
        }

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_high_level_column_in_large_basis(self, tmp_path, command):
        # |alpha|^2 = 100: the Laguerre polynomial rows up to p = 300
        # overflowed; the normalized functions keep every probability
        doc = self.level_300_doc(tmp_path, command, math.sqrt(0.5))
        assert cli.main([command, "--config", str(write_config(tmp_path, doc))]) == 0
        report = json.loads((tmp_path / "o" / f"{command}_report.json").read_text())
        assert report["dimension"] == 1700
        assert 0.0 <= report["population_sum_max_dev"] <= NORM_TOL

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_laguerre_column_overflow_is_numeric_error(self, tmp_path, capsys, command):
        # |alpha|^2 = 1500, past the floating-point range of e^{-|alpha|^2/2}
        doc = self.level_300_doc(tmp_path, command, math.sqrt(7.5))
        assert cli.main([command, "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "numeric error" in err and "|alpha|^2 = 1.5e+03, dim = 1700" in err

    def test_json_data_format(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            dict(BASE_SIM, output={"directory": str(tmp_path / "o"), "format": "json"}),
        )
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        rows = json.loads((tmp_path / "o" / "simulate_samples.json").read_text())
        assert len(rows) == 11 and "survival" in rows[0]

    def test_phases_fast_path(self, tmp_path):
        doc = {
            "task": "phases",
            "waveform": {"type": "rotating", "amplitude": 0.16, "nu": 0.8},
            "time": {"t_final": 10.0, "samples": 6},
            "output": {"directory": str(tmp_path / "o")},
        }
        cfg_path = write_config(tmp_path, doc)
        assert cli.main(["phases", "--config", str(cfg_path)]) == 0
        rows = read_csv(tmp_path / "o" / "phases_phases.csv")
        assert set(rows[0]) == {
            "t", "re_R", "im_R", "beta", "re_u", "im_u", "gamma", "area_R", "area_u",
        }
        # phase-area locks hold in the emitted table
        last = rows[-1]
        assert float(last["beta"]) == pytest.approx(-float(last["area_R"]), rel=1e-12)

    def test_count_bound_keeps_two_counts_in_numpy_range(self):
        # an array of two counts at 16 bytes an element has a byte count
        # numpy can represent, so it allocates it or raises MemoryError
        assert cli._MAX_COUNT == math.isqrt(sys.maxsize // 16)
        assert 16 * cli._MAX_COUNT**2 <= sys.maxsize < 16 * (cli._MAX_COUNT + 1) ** 2
        assert cli._typed(cli._MAX_COUNT, "integer", "key") == cli._MAX_COUNT

    def test_config_path_that_is_a_directory(self, tmp_path, capsys):
        message = f"cannot read config file {tmp_path}: "
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli.load_config(tmp_path)
        assert cli.main(["phases", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err

    def test_output_write_failure_is_config_error(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, columns, fmt):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(cli, "_write_table", full_disk)
        doc = dict(BASE_SIM, task="phases", output={"directory": str(tmp_path / "o")})
        assert cli.main(["phases", "--config", str(write_config(tmp_path, doc))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output.directory: [Errno 28] No space left on device")
        assert not list((tmp_path / "o").iterdir())

    #: One block per waveform type, sampled over [-0.5, 4]; the analytic
    #: ones are also summed with the sampled one.
    EXAMPLES = {
        "zero": {"type": "zero"},
        "constant": {"type": "constant", "e1": 0.1, "e2": -0.05},
        "rotating": {"type": "rotating", "amplitude": 0.1, "nu": 0.7, "phase": 0.2},
        "linear_sinusoid": {"type": "linear_sinusoid", "amplitude": 0.1, "direction": 0.3,
                            "angular_frequency": 2.1, "phase": 0.2},
        "sampled": FIVE_NODES,
        "sum": {"type": "sum", "terms": [{"type": "constant", "e1": 0.1},
                                         {"type": "rotating", "amplitude": 0.1, "nu": 1.3}]},
    }

    @pytest.mark.parametrize("kind", sorted(EXAMPLES))
    def test_every_waveform_type_takes_the_exact_route(self, kind):
        assert set(self.EXAMPLES) == set(cli._WAVEFORMS)
        blocks = [self.EXAMPLES[kind]]
        if kind != "sampled":
            blocks.append({"type": "sum", "terms": [FIVE_NODES, self.EXAMPLES[kind]]})
        for block in blocks:
            doc = dict(BASE_SIM, task="phases", waveform=block,
                       time={"t_final": 4.0, "samples": 9})
            report = cli.run_phases(cli.resolve_config(doc, "phases"))
            assert report.routes == {"exact": 9}, block


def test_parser_reuse_in_one_process(tmp_path, capsys):
    # main builds its parser once per process: consecutive calls with other
    # subcommands and options, and a call after one argparse rejected,
    # write what a fresh interpreter writes for the same arguments
    docs = {"simulate": BASE_SIM,
            "sweep": dict(BASE_SIM, task="sweep", sweep={"parameter": "nu_over_omega",
                                                         "steps": 5}),
            "phases": dict(BASE_SIM, task="phases")}
    paths = {task: str(write_config(tmp_path, doc, f"{task}.json"))
             for task, doc in docs.items()}
    calls = [["simulate", "--config", paths["simulate"], "--format", "json"],
             ["sweep", "--config", paths["sweep"], "--seed", "3"],
             ["phases", "--config", paths["phases"], "--format", "json", "--seed", "4"],
             ["simulate", "--config", paths["simulate"], "--seed", "5"]]
    src = str(Path(ld.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def outputs(directory):
        """Every file written, the reports without their wall time."""
        files = {}
        for path in sorted(directory.iterdir()):
            if path.name.endswith("report.json"):
                report = json.loads(path.read_text())
                report.pop("timing_seconds")
                report["config"]["output"].pop("directory")
                files[path.name] = report
            else:
                files[path.name] = path.read_bytes()
        return files

    for i, argv in enumerate(calls):
        fresh = tmp_path / f"fresh{i}"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from landau_drive import cli; "
             "raise SystemExit(cli.main(sys.argv[1:]))", *argv, "--out", str(fresh)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        if i == 3:
            with pytest.raises(SystemExit) as exc:
                cli.main(["simulate", "--config", paths["simulate"], "--format", "xml"])
            assert exc.value.code == 2
            capsys.readouterr()
        reused = tmp_path / f"reused{i}"
        assert cli.main([*argv, "--out", str(reused)]) == 0
        warned = "--seed is ignored" in capsys.readouterr().err
        assert warned == ("--seed" in argv) == ("--seed is ignored" in proc.stderr)
        assert outputs(reused) == outputs(fresh), argv


def sampled_block(nodes, t_end):
    """A sampled waveform block of two rotating modes, as plain lists."""
    times = np.linspace(0.0, t_end, nodes)
    e = 0.01 * np.exp(-0.9j * times + 0.3j) + 0.006 * np.exp(-1.15j * times)
    return {"type": "sampled", "times": times.tolist(), "e1": e.real.tolist(),
            "e2": e.imag.tolist()}


def expected_echo(block):
    """The digest echo of a sampled block, recomputed from its lists."""
    data = b"".join(struct.pack(f"<{len(block[k])}d", *block[k])
                    for k in ("times", "e1", "e2"))
    return {"type": "sampled", "nodes": len(block["times"]),
            "t_first": block["times"][0], "t_last": block["times"][-1],
            "sha256": hashlib.sha256(data).hexdigest()}


class TestSampledEcho:
    def run_report(self, tmp_path, waveform, **doc):
        doc = dict(BASE_SIM, waveform=waveform, numerics={"dimension": 0},
                   output={"directory": str(tmp_path / "o")}, **doc)
        assert cli.main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 0
        path = tmp_path / "o" / "simulate_report.json"
        return json.loads(path.read_text()), path.stat().st_size

    def test_sampled_waveform_echoed_by_digest(self, tmp_path):
        block = sampled_block(201, 20.0)
        report, _ = self.run_report(tmp_path, block)
        assert report["config"]["waveform"] == expected_echo(block)

    def test_sampled_sum_term_echoed_by_digest(self, tmp_path):
        block = sampled_block(201, 20.0)
        rotating = {"type": "rotating", "amplitude": 0.05, "nu": 1.2}
        report, _ = self.run_report(tmp_path, {"type": "sum", "terms": [rotating, block]})
        assert report["config"]["waveform"] == {
            "type": "sum", "terms": [rotating, expected_echo(block)]}

    def test_readme_recipe_recomputes_the_digest(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        recipe = readme.split("against its config:\n\n```python\n", 1)[1].split("```", 1)[0]
        report, _ = self.run_report(tmp_path, sampled_block(201, 20.0))
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)   # the recipe reads run.json
        exec(recipe, {})
        assert capsys.readouterr().out.strip() == report["config"]["waveform"]["sha256"]

    def test_one_edited_sample_changes_the_digest(self):
        block = sampled_block(101, 10.0)
        digest = cli.resolve_config({"waveform": block}, "simulate").resolved["waveform"]
        for key in ("times", "e1", "e2"):
            edited = dict(block, **{key: list(block[key])})
            edited[key][50] = math.nextafter(edited[key][50], math.inf)
            echo = cli.resolve_config({"waveform": edited}, "simulate").resolved["waveform"]
            assert echo["sha256"] != digest["sha256"], key
            assert echo == expected_echo(edited)

    def test_integer_samples_hash_as_float64(self):
        block = {"type": "sampled", "times": [0, 1, 2], "e1": [0, 1, 0], "e2": [0, 0, 0]}
        echo = cli.resolve_config({"waveform": block}, "simulate").resolved["waveform"]
        as_floats = {k: [float(x) for x in v] if k != "type" else v for k, v in block.items()}
        assert echo == expected_echo(as_floats)

    def test_trace_sized_report_stays_small(self, tmp_path):
        # 40 001 nodes and 1001 output samples; the full echo was 3 MB
        block = sampled_block(40_001, 400.0)
        report, size = self.run_report(tmp_path, block,
                                       time={"t_final": 400.0, "samples": 1001})
        assert size < 4096
        assert report["config"]["waveform"]["sha256"] == expected_echo(block)["sha256"]


@pytest.fixture(scope="module")
def validate_report(tmp_path_factory):
    doc = {
        "task": "validate",
        "numerics": {"oracle_dimension": 32, "integrator_dt": 0.02},
    }
    cfg = cli.resolve_config(doc, "validate")
    report, code = cli.run_validate(cfg)
    return report, code


class TestValidateCommand:
    def test_default_corpus_passes(self, validate_report):
        report, code = validate_report
        assert code == 0
        assert report["all_passed"]
        names = [c["name"] for c in report["checks"]]
        assert "factorization[sampled_random]" in names
        assert "resonance_survival_prefactor" in names

    def test_benchmark_section_flags_duration(self, validate_report):
        report, _ = validate_report
        bench = report["benchmark"]
        assert bench["coefficient_matches_documented"]
        assert not bench["duration_quote_consistent"]
        assert bench["duration_from_formula_s"] == pytest.approx(1.70e-6, rel=0.01)

    def test_corrupted_sign_negative_control(self, monkeypatch):
        # the production route itself builds J from -alpha
        argument = propagator.displacement_argument
        monkeypatch.setattr(propagator, "displacement_argument", lambda s, u: -argument(s, u))
        doc = {
            "task": "validate",
            "numerics": {"oracle_dimension": 24, "integrator_dt": 0.02},
        }
        cfg = cli.resolve_config(doc, "validate")
        report, code = cli.run_validate(cfg)
        assert code == 2
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert any(name.startswith("factorization[rotating") for name in failed)

    def test_failed_checks_are_named(self, tmp_path, monkeypatch, capsys):
        failing = oracle.CheckResult("factorization[rotating]", 1.0, 1e-6, False, {})
        passing = oracle.CheckResult("unitarity[zero]", 0.0, 1e-6, True, {})
        monkeypatch.setattr(oracle, "run_validation", lambda *args, **kwargs: [failing, passing])
        doc = {"task": "validate", "output": {"directory": str(tmp_path / "v")}}
        assert cli.main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
        out, err = capsys.readouterr()
        assert "FAIL  factorization[rotating]: 1.000e+00 (tol 1.0e-06)" in out
        assert "pass  unitarity[zero]" in out
        assert err == "FAILED checks: factorization[rotating]\n"
        written = json.loads((tmp_path / "v" / "validate_validation.json").read_text())
        assert not written["all_passed"]

    def test_validate_command_writes_report(self, tmp_path):
        doc = {
            "task": "validate",
            "numerics": {"oracle_dimension": 24, "integrator_dt": 0.02},
            "output": {"directory": str(tmp_path / "v")},
        }
        cfg_path = write_config(tmp_path, doc)
        code = cli.main(["validate", "--config", str(cfg_path)])
        written = json.loads((tmp_path / "v" / "validate_validation.json").read_text())
        assert "checks" in written and "benchmark" in written
        assert code in (0, 2)


_SCIPY_PROBE = """
import json, sys
from landau_drive import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

paths = json.loads(sys.argv[1])
after_import = scipy_modules()
codes = {task: cli.main([task, "--config", paths[task]]) for task in ("simulate", "sweep", "phases")}
after_runs = scipy_modules()
codes["validate"] = cli.main(["validate", "--config", paths["validate"]])
print(json.dumps({"after_import": after_import, "after_runs": after_runs, "codes": codes,
                  "after_validate": scipy_modules()}))
"""


def test_data_path_never_imports_scipy(tmp_path):
    # a fresh interpreter: importing the CLI and running simulate, sweep,
    # phases and validate (whose expmid scheme exponentiates by numpy's
    # eigh) loads no scipy module
    out = {"directory": str(tmp_path / "o")}
    docs = {
        "simulate": dict(BASE_SIM, output=out),
        "sweep": dict(BASE_SIM, task="sweep", output=out,
                      sweep={"parameter": "nu_over_omega", "steps": 3}),
        "phases": dict(BASE_SIM, task="phases", output=out),
        "validate": {"task": "validate", "output": out,
                     "numerics": {"oracle_dimension": 32, "integrator_dt": 0.02}},
    }
    paths = {task: str(write_config(tmp_path, doc, f"{task}.json"))
             for task, doc in docs.items()}
    src = str(Path(ld.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(paths)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["after_import"] == [] and result["after_runs"] == []
    assert result["codes"] == {"simulate": 0, "sweep": 0, "phases": 0, "validate": 0}
    assert result["after_validate"] == []


def _requirement_names(requirements):
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def test_scipy_is_a_test_only_dependency():
    # pip installs no scipy with the package itself, only with its test
    # extra, and no module of the package imports it
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert "scipy" not in _requirement_names(project["dependencies"])
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])
    sources = sorted((root / "src" / "landau_drive").glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            assert all(m.split(".")[0] != "scipy" for m in modules), (path.name, node.lineno)
