"""Test-side helpers: an independent matrix exponential, and waveforms
tabulated from other waveforms."""

import numpy as np
from scipy.linalg import expm as _expm

import landau_drive as ld


def expm(matrix) -> np.ndarray:
    """exp(A) of a square matrix by scipy's scaling-and-squaring Pade
    method: independent of the closed forms and integrators under test."""
    return _expm(np.asarray(matrix, dtype=complex))


def sample_waveform(w: ld.FieldWaveform, times) -> ld.SampledField:
    """Tabulate any waveform onto a grid as a SampledField."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(w.field(times), dtype=complex)
    return ld.SampledField(times, values.real, values.imag)
