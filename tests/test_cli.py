import csv
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive import cli, propagator
from landau_drive.errors import ConfigError, TruncationError
from landau_drive.propagator import NORM_TOL


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


BASE_SIM = {
    "task": "simulate",
    "system": {"units": "natural"},
    "waveform": {"type": "rotating", "amplitude": 0.16, "nu": 0.8},
    "time": {"t_final": 10.0, "samples": 11},
    "numerics": {"dimension": 48},
}


class TestConfigLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_config(path)

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
        "command,doc,key",
        [
            ("simulate", {"time": {"t_final": math.nan}}, "time.t_final"),
            ("simulate", {"system": {"charge": math.nan}}, "system.charge"),
            ("simulate", {"system": {"magnetic_field": math.inf}}, "system.magnetic_field"),
            ("simulate", {"system": {"mass": 10**400}}, "system.mass"),
            ("simulate", {"waveform": {"type": "rotating", "amplitude": math.nan, "nu": 1.0}},
             "waveform.amplitude"),
            ("simulate", {"waveform": {"type": "rotating", "amplitude": 0.1, "nu": math.inf}},
             "waveform.nu"),
            ("simulate", {"waveform": {"type": "rotating", "amplitude": 0.1, "nu": 1.0,
                                       "phase": math.nan}}, "waveform.phase"),
            ("simulate", {"waveform": {"type": "constant", "e1": -math.inf}}, "waveform.e1"),
            ("simulate", {"waveform": {"type": "linear_sinusoid", "amplitude": 0.1,
                                       "direction": math.nan}}, "waveform.direction"),
            ("sweep", {"waveform": {"type": "rotating", "amplitude": 0.1, "nu": 1.0},
                       "sweep": {"parameter": "nu_over_omega", "start": math.nan}},
             "sweep.start"),
        ],
    )
    def test_non_finite_numbers_exit_1(self, tmp_path, capsys, command, doc, key):
        message = f"{key}: expected a finite number"
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli.resolve_config(doc, command)
        cfg_path = write_config(tmp_path, dict(doc, output={"directory": str(tmp_path / "o")}))
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "samples",
        [
            {"times": [0.0, 1.0, math.inf], "e1": [0.1, 0.1, 0.1], "e2": [0.0, 0.0, 0.0]},
            {"times": [0.0, 1.0, 2.0], "e1": [0.1, math.nan, 0.1], "e2": [0.0, 0.0, 0.0]},
        ],
    )
    def test_non_finite_samples_exit_1(self, tmp_path, capsys, samples):
        doc = {"waveform": dict(samples, type="sampled"), "time": {"t_final": 2.0},
               "output": {"directory": str(tmp_path / "o")}}
        cfg_path = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 1
        assert "waveform: sample" in capsys.readouterr().err

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

    def test_task_mismatch(self):
        with pytest.raises(ConfigError, match="task"):
            cli.resolve_config({"task": "sweep"}, "simulate")

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
        ],
    )
    def test_field_level_errors(self, doc, field):
        with pytest.raises(ConfigError, match=field.split(".")[-1]):
            cli.resolve_config(doc, "simulate")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"numerics": {"dimenson": 8}}, "numerics.dimenson: unknown key"),
            ({"tiem": {"t_final": 3}}, "tiem: unknown section"),
            ({"output": {"dir": "x"}}, "output.dir: unknown key"),
            ({"waveform": {"type": "zero", "amplitude": 1.0}},
             "waveform.amplitude: unknown key"),
            ({"waveform": {"type": "rotating", "amplitude": 0.1, "nu": 1.0,
                           "phse": 0.2}}, "waveform.phse: unknown key"),
            ({"waveform": {"type": "sum", "terms": [{"type": "constant",
                                                     "e3": 0.1}]}},
             "waveform.terms[0].e3: unknown key"),
        ],
    )
    def test_unknown_keys_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli.resolve_config(doc, "simulate")

    def test_sum_term_must_be_table(self):
        doc = {"waveform": {"type": "sum", "terms": [0.5]}}
        with pytest.raises(ConfigError, match=re.escape("waveform.terms[0]: expected")):
            cli.resolve_config(doc, "simulate")

    def test_misspelt_settings_exit_1(self, tmp_path, capsys):
        doc = {"numerics": {"dimenson": 8}, "time": {"t_final": 3.0}}
        cfg_path = write_config(tmp_path, dict(BASE_SIM, **doc))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 1
        assert "numerics.dimenson: unknown key" in capsys.readouterr().err
        doc = dict(BASE_SIM, tiem={"t_final": 3.0})
        cfg_path = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 1
        assert "tiem: unknown section" in capsys.readouterr().err

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

    @pytest.mark.parametrize("method, routes, ill_conditioned", [
        ("auto", {"closed-form": 1, "quadrature": 2}, 2),
        ("closed_form", {"closed-form": 3}, 0),
        ("quadrature", {"quadrature": 3}, 0),
    ])
    def test_report_counts_routes(self, method, routes, ill_conditioned):
        # nu/omega = 1 -+ 1e-5 at t = 20: |mu| t = 2e-4 takes auto off the closed form
        doc = dict(self.SWEEP_DOC, numerics={"method": method},
                   sweep={"parameter": "nu_over_omega", "start": 1.0 - 1e-5,
                          "stop": 1.0 + 1e-5, "steps": 3})
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        assert report.routes == routes
        assert report.ill_conditioned_points == ill_conditioned

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
        # off resonance |alpha|^2 alone would size the basis at 32 < 40; the
        # whole sweep shares the size of its strongest point, 161
        doc = dict(self.SWEEP_DOC, initial_state={"level": 40})
        report = cli.run_sweep(cli.resolve_config(doc, "sweep"))
        assert report.dimension == 161
        assert report.population_sum_max_dev <= NORM_TOL
        p = ld.assemble(natural, ld.RotatingField(0.3, 1.0), 20.0)
        assert report.columns["survival"][5] == ld.transition_probabilities(p, 40)[40]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_high_level_auto_dimension_matches_explicit(self, command):
        # level 20 under the README drive: |alpha|^2 alone gives dim 32, too
        # small for level 20; the auto size starts at 2 (20 + 1) = 42, and
        # the sweep, whose strongest points lose probability there, doubles it
        doc = {
            "waveform": {"type": "rotating", "amplitude": 0.16, "nu": 0.8},
            "time": {"t_final": 10.0, "samples": 21},
            "initial_state": {"level": 20},
            "sweep": {"parameter": "nu_over_omega", "start": 0.5, "stop": 1.5,
                      "steps": 21},
        }
        run = cli.run_simulate if command == "simulate" else cli.run_sweep
        auto = run(cli.resolve_config(doc, command))
        explicit = run(cli.resolve_config(dict(doc, numerics={"dimension": 64}), command))
        assert auto.population_sum_max_dev <= NORM_TOL
        assert auto.dimension == {"simulate": 42, "sweep": 84}[command]
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
                               "routes", "ill_conditioned_points", "timing_seconds"}
        assert report["routes"] == {"closed-form": 3 if command == "sweep" else 11}
        assert report["ill_conditioned_points"] == (0 if command == "sweep" else None)
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
                            -2.5, 1.0 / 3.0])
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

    def test_dimension_too_small_is_numeric_error(self, tmp_path, capsys):
        doc = {
            "waveform": {"type": "rotating", "amplitude": 0.4, "nu": 1.0},
            "time": {"t_final": 20.0, "samples": 4},
            "numerics": {"dimension": 8},
        }
        cfg_path = write_config(tmp_path, dict(doc, output={"directory": str(tmp_path / "o")}))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert "increase numerics.dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_laguerre_overflow_is_numeric_error(self, tmp_path, capsys, command):
        # resonant drive of amplitude 1 reaches |alpha|^2 = 200 by t = 20; the
        # full dim-1617 matrix would overflow its Laguerre table, but the
        # level-0 column needs only the p = 0 row and stays finite
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

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_laguerre_column_overflow_is_numeric_error(self, tmp_path, capsys, command):
        # |alpha|^2 = 100 by t = 20: column 300 of a dim-1700 basis needs
        # Laguerre rows up to p = 300, which overflow
        doc = {
            "task": command,
            "waveform": {"type": "rotating", "amplitude": math.sqrt(0.5), "nu": 1.0},
            "time": {"t_final": 20.0, "samples": 3},
            "numerics": {"dimension": 1700},
            "initial_state": {"level": 300},
            "sweep": {"parameter": "nu_over_omega", "start": 1.0, "stop": 1.0,
                      "steps": 1},
            "output": {"directory": str(tmp_path / "o")},
        }
        cfg_path = write_config(tmp_path, doc)
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert "numeric error" in capsys.readouterr().err

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"system": {"units": "imperial"}})
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_seed_warning(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(BASE_SIM, output={"directory": str(tmp_path / "o")}))
        cli.main(["simulate", "--config", str(cfg_path), "--seed", "7"])
        assert "ignored" in capsys.readouterr().err


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
        report, code = cli.run_validate(cfg, include_convergence=False)
        assert code == 2
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert any(name.startswith("factorization[rotating") for name in failed)

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
