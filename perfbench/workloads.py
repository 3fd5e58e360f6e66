"""Workload definitions: the CLI command, the generated config and its size.

Each workload turns the benchmark seed into one config document; the
program sees only that document.  All workloads use natural units with
charge = field = mass = 1 (omega = l_B = 1, k^2 = 2, qB/hbar c = 1) and
start from level 0, which the output checks rely on.
"""

from __future__ import annotations

import math
import random

SYSTEM = {"units": "natural", "charge": 1.0, "magnetic_field": 1.0, "mass": 1.0}

# simulate_trace: a recorded-style field trace.  Four rotating modes with
# detuning |nu - omega| >= 0.05 and amplitude <= 0.012 keep |u| <= 0.96, so
# |alpha|^2 <= 1.85 and the auto dimension stays at its floor of 32 for
# every seed: the Fock work per sample is the same whatever the seed.
TRACE_NODES = 40_001
TRACE_T_END = 400.0
TRACE_SAMPLES = 1001
TRACE_MODES = 4

# sweep_resonance: a strong rotating drive swept through the resonance.
# The amplitude jitter is kept to +-0.5% so the auto dimensions, which set
# the cost near resonance, barely move between seeds.
SWEEP_AMPLITUDE = 0.3
SWEEP_T_FINAL = 20.0
SWEEP_STEPS = 401


def _simulate_trace(rng: random.Random) -> dict:
    modes = []
    for _ in range(TRACE_MODES):
        amp = 0.004 + 0.008 * rng.random()
        detuning = rng.choice((-1.0, 1.0)) * (0.05 + 0.15 * rng.random())
        modes.append((amp, 1.0 + detuning, 2.0 * math.pi * rng.random()))
    times, e1, e2 = [], [], []
    for i in range(TRACE_NODES):
        t = TRACE_T_END * i / (TRACE_NODES - 1)
        re = im = 0.0
        for amp, nu, phase in modes:
            re += amp * math.cos(phase - nu * t)
            im += amp * math.sin(phase - nu * t)
        times.append(t)
        e1.append(re)
        e2.append(im)
    return {
        "task": "simulate",
        "system": SYSTEM,
        "waveform": {"type": "sampled", "times": times, "e1": e1, "e2": e2},
        "time": {"t_final": TRACE_T_END, "samples": TRACE_SAMPLES},
        "numerics": {"dimension": 0},
        "initial_state": {"level": 0},
    }


def _sweep_resonance(rng: random.Random) -> dict:
    amplitude = SWEEP_AMPLITUDE * (1.0 + 0.01 * (rng.random() - 0.5))
    return {
        "task": "sweep",
        "system": SYSTEM,
        "waveform": {
            "type": "rotating",
            "amplitude": amplitude,
            "nu": 1.0,
            "phase": 2.0 * math.pi * rng.random(),
        },
        "time": {"t_final": SWEEP_T_FINAL},
        "initial_state": {"level": 0},
        "sweep": {
            "parameter": "nu_over_omega",
            "start": 0.5,
            "stop": 1.5,
            "steps": SWEEP_STEPS,
        },
    }


def _validate(rng: random.Random) -> dict:
    # validate runs its own fixed corpus; the defaults are the workload.
    return {"task": "validate", "system": SYSTEM}


#: Seed whose outputs are also compared with the committed reference tables.
DEFAULT_SEED = 1

#: name -> (CLI subcommand, config builder, main output file).
WORKLOADS = {
    "simulate_trace": ("simulate", _simulate_trace, "simulate_samples.csv"),
    "sweep_resonance": ("sweep", _sweep_resonance, "sweep_sweep.csv"),
    "validate": ("validate", _validate, "validate_validation.json"),
}


#: name -> host-speed probe of calibration.py that resembles its work.
PROBES = {"simulate_trace": "mixed", "sweep_resonance": "mixed", "validate": "matrix"}


def make_config(workload: str, seed: int, out_dir: str) -> dict:
    """The config document for ``workload`` at ``seed``, writing to ``out_dir``."""
    command, build, _ = WORKLOADS[workload]
    config = build(random.Random(f"{workload}:{seed}"))
    config["output"] = {"directory": out_dir, "format": "csv", "basename": command}
    return config
