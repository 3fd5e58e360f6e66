"""Integrals of tau^k e^{i mu tau} over [0, t] for k = 0 and 1.

On each step between knots every waveform's field, and with it R' and u',
is a sum of such monomials, so these integrals are the building blocks of
the exact drive path.  The helpers below are numerically stable near
mu -> 0 and at small phase arguments, and broadcast over mu and t, so one
call serves many monomials and steps at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cis_minus_one", "eps0", "eps1"]

#: Taylor coefficients 1/(n! (n + 2)) of eps1(mu, t)/t^2 in powers of
#: i mu t; for |mu t| < 1 the first one dropped is below 1e-17 of the sum.
_EPS1_SERIES = np.array([1.0 / (math.factorial(n) * (n + 2)) for n in range(18)])


def cis_minus_one(z):
    """e^{iz} - 1 for real z without cancellation at small z."""
    z = np.asarray(z, dtype=float)
    return -2.0 * np.sin(z / 2.0) ** 2 + 1j * np.sin(z)


def eps0(mu, t):
    """Integral of e^{i mu s} over [0, t]; mu = 0 elementwise included."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.equal(mu, 0.0), t, cis_minus_one(mu * t) / (1j * mu))[()]


def eps1(mu, t):
    """Integral of s e^{i mu s} over [0, t]; mu = 0 elementwise included.

    The direct form cancels about 1/|mu t| digits, so below |mu t| = 1 the
    series t^2 sum_n (i mu t)^n / (n! (n + 2)) is summed instead (Horner).
    """
    t = np.asarray(t, dtype=float)
    x = 1j * (mu * t)
    imu = 1j * mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = (t * np.exp(x) - eps0(mu, t)) / imu
    series = np.zeros(x.shape, dtype=complex)
    for coeff in _EPS1_SERIES[::-1]:
        series = series * x + coeff
    return np.where(np.abs(x) < 1.0, t * t * series, direct)[()]
