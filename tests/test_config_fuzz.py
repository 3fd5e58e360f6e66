"""Schema-valid (and nearly valid) configs through ``cli.main``.

The strategy is derived from ``cli._SCHEMA``, ``cli._KINDS`` and
``cli._WAVEFORMS``, so a new config key or waveform type is fuzzed with no
edit here.  Every config must end in exit 0, 1 or 2 with no other
exception and no warning; an error writes no data file, and a success
writes finite cells that keep the drive path's and the populations'
invariants.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from landau_drive import cli
from landau_drive.propagator import NORM_TOL

#: Numbers at the edges of float64 and of the physics: zero of both signs,
#: unit and near-resonant scales, and values whose products leave the range.
NUMBERS = (0.0, -0.0, 1.0, -1.0, 0.5, 0.97, 3.0, 7.0, 1e-8, 1e8, 1e-300, 5e-324, 1e300,
           1.7e308, 2**53 + 1)

#: Integers: small counts, and counts past what numpy can size an array by
#: (it refuses them outright, where a smaller size raises MemoryError).  No
#: value here is one numpy would try to allocate.
INTEGERS = (*range(-1, 41), 2**62, 2**63 - 1, 10**20)

#: Strings a string key may take: every name the CLI's tables accept, the
#: sweep parameters and output formats, and words no table accepts.
WORDS = (*cli.UNIT_CONSTANTS, *cli._ROUTES, *cli._COMMANDS, *cli._WAVEFORMS,
         "nu_over_omega", "amplitude", "csv", "json", "CSV", "Natural", "bogus")

#: Commands fuzzed: ``validate`` runs the brute-force oracle, seconds a call.
COMMANDS = sorted(set(cli._COMMANDS) - {"validate"})


def _value(spec, depth):
    """Values of one schema key (``cli._Key``) by the Python type its kind
    accepts (``cli._KINDS``); for a key with a check, three values in four
    pass it."""
    accepted = cli._KINDS[spec.kind][0]
    if spec.kind == "waveforms":  # sums nest two deep
        return st.lists(_waveform(depth + 1) if depth < 1 else _typed("zero", depth + 1),
                        max_size=3)
    if accepted is list:  # sample lists: sorted, so that some tables are valid, or as drawn
        return st.lists(st.sampled_from(NUMBERS), max_size=5).flatmap(
            lambda xs: st.sampled_from([xs, sorted(set(xs))]))
    if accepted == (int, float):
        default = (spec.default,) if isinstance(spec.default, float) else ()
        values = st.sampled_from(NUMBERS + default)
    elif accepted is int:
        values = st.sampled_from(INTEGERS)
    elif accepted is str:
        values = st.sampled_from(WORDS)
    else:
        raise AssertionError(f"no strategy for config kind {spec.kind!r}")
    if spec.check is None:
        return values
    passing = values.filter(spec.check)
    return st.one_of(passing, passing, passing, values)


def _block(keys, depth=0):
    """A table of ``keys`` (key -> ``cli._Key``): a key with a default is
    left out half the time, a key without one a quarter of the time."""
    def maybe(spec):
        value = _value(spec, depth)
        if spec.default is cli._REQUIRED or spec.default is None:
            return st.one_of(value, value, value, st.none())
        return value | st.none()
    drawn = {key: maybe(spec) for key, spec in keys.items()}
    return st.fixed_dictionaries(drawn).map(
        lambda block: {k: v for k, v in block.items() if v is not None})


def _typed(kind, depth=0):
    """Waveform blocks of one type of ``cli._WAVEFORMS``."""
    return _block(cli._WAVEFORMS[kind][1], depth).map(lambda block: {"type": kind, **block})


def _waveform(depth=0):
    return st.sampled_from(sorted(cli._WAVEFORMS)).flatmap(lambda kind: _typed(kind, depth))


@st.composite
def configs(draw):
    task = draw(st.sampled_from(COMMANDS))
    doc = {"task": task}
    for section, keys in cli._SCHEMA.items():
        # only the sweep task reads its section, and it needs one
        present = task == "sweep" if section == "sweep" else draw(st.booleans())
        if present:
            doc[section] = draw(_block(keys))
    # a sweep needs a rotating drive: one is drawn more often there
    doc["waveform"] = draw(_typed("rotating") | _waveform() if task == "sweep" else _waveform())
    return doc


def _read_table(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _check_table(task, rows):
    for row in rows:
        assert all(math.isfinite(v) for v in row.values()), row
        if "survival" in row:
            assert 0.0 <= row["survival"] <= 1.0, row
        pops = [v for k, v in row.items() if k.startswith("pop_")]
        assert all(0.0 <= p <= 1.0 for p in pops), row
        assert sum(pops) <= 1.0 + NORM_TOL, row
    if task != "sweep" and rows:
        first = rows[0]
        assert [first[k] for k in ("t", "re_R", "im_R", "re_u", "im_u")] == [0.0] * 5, first


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
# the three configs of test_past_float64_in_internal_units_is_numeric_error
@example(doc={"task": "phases", "system": {"units": "si", "magnetic_field": 15},
              "waveform": {"type": "rotating", "amplitude": 1e-8, "nu": 0},
              "time": {"t_final": 1e300}})
@example(doc={"task": "phases", "waveform": {"type": "rotating", "amplitude": 1e-8,
                                             "nu": 1.7e308}, "time": {"t_final": 10.0}})
@example(doc={"task": "phases", "waveform": {"type": "linear_sinusoid", "amplitude": 0.1,
                                             "angular_frequency": 1e300},
              "time": {"t_final": 1e300}})
# a zero field whose rate times t_final is past float64
@example(doc={"task": "phases", "waveform": {"type": "rotating", "amplitude": 0.0,
                                             "nu": 1.7e308}, "time": {"t_final": 10.0}})
# the quadrature route at a rate times t_final past float64, and at an
# internal rate nu / omega of inf
@example(doc={"task": "phases", "waveform": {"type": "linear_sinusoid", "amplitude": 0.1,
                                             "angular_frequency": 1e300},
              "time": {"t_final": 1e300}, "numerics": {"method": "quadrature"}})
@example(doc={"task": "phases", "system": {"mass": 1e300},
              "waveform": {"type": "rotating", "amplitude": 0.1, "nu": 1.7e308},
              "time": {"t_final": 10.0}, "numerics": {"method": "quadrature"}})
def test_schema_configs_end_in_a_typed_exit(doc):
    task = doc["task"]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = cli.main([task, "--config", str(config), "--out", str(out)])
        err = stderr.getvalue()
        written = sorted(out.glob("*")) if out.exists() else []
        if code == 0:
            report, = out.glob("*_report.json")
            output = json.loads(report.read_text())["config"]["output"]
            suffix = cli._COMMANDS[task][2]
            data = out / f"{output['basename']}_{suffix}.{output['format']}"
            _check_table(task, _read_table(data))
        else:
            assert (code, err.split(":", 1)[0]) in ((1, "config error"), (2, "numeric error")), err
            assert not written, written
