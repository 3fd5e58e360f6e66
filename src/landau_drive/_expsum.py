"""Paths of the form z(s) = sum_j A_j (e^{i mu_j s} - 1) + V s.

Guiding-center and drive-amplitude trajectories of every analytic waveform
family fall in this class, which makes displacements and enclosed areas
available in closed form.  The helpers below are numerically stable near
mu -> 0 and at small phase arguments, and broadcast over mu and t, so one
call serves many paths at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExpPath", "cis_minus_one", "eps0", "eps1"]


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
    """Integral of s e^{i mu s} over [0, t]; mu = 0 elementwise included."""
    t = np.asarray(t, dtype=float)
    small = np.abs(mu * t) < 1e-3
    # direct form loses ~|mu t|^-1 digits of cancellation; switch to series
    imu = 1j * mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = (t * np.exp(imu * t) - eps0(mu, t)) / imu
    series = (
        t * t / 2.0
        + imu * t**3 / 3.0
        + imu**2 * t**4 / 8.0
        + imu**3 * t**5 / 30.0
        + imu**4 * t**6 / 144.0
        + imu**5 * t**7 / 840.0
    )
    return np.where(small, series, direct)


@dataclass(frozen=True)
class ExpPath:
    """Closed-form path z(s) = sum_j A_j (e^{i mu_j s} - 1) + drift * s.

    ``terms`` is a tuple of (amplitude, angular rate) pairs; z(0) = 0 by
    construction.  The amplitudes, rates and drift are scalars for one
    path, or arrays with a leading point axis for many paths (see
    ``stack``), evaluated at one time t.
    """

    terms: tuple[tuple[complex, float], ...] = ()
    drift: complex = 0.0

    @classmethod
    def stack(cls, paths) -> "ExpPath":
        """Paths with equal term counts as one: entry p of every
        coefficient array is path p's."""
        terms = tuple(
            (np.array([p.terms[j][0] for p in paths], dtype=complex),
             np.array([p.terms[j][1] for p in paths], dtype=float))
            for j in range(len(paths[0].terms))
        )
        return cls(terms, np.array([p.drift for p in paths], dtype=complex))

    def evaluate(self, t):
        """z(t), vectorized over t."""
        t = np.asarray(t, dtype=float)
        z = self.drift * t.astype(complex)
        for amp, mu in self.terms:
            z = z + amp * cis_minus_one(mu * t)
        return z

    def enclosed_area(self, t):
        """Signed area between the path on [0, t] and the chord back to z(0).

        Evaluates S(t) = (1/2) Im integral of z* dz, which equals the
        shoelace area because the path starts at the origin.
        """
        t = np.asarray(t, dtype=float)
        c0 = -sum(amp for amp, _ in self.terms)
        v = self.drift
        acc = np.zeros(np.broadcast(t, c0, v).shape, dtype=complex)
        for amp_k, mu_k in self.terms:
            for amp_j, mu_j in self.terms:
                acc += np.conj(amp_k) * (1j * mu_j) * amp_j * eps0(mu_j - mu_k, t)
        for amp_j, mu_j in self.terms:
            acc += np.conj(c0) * (1j * mu_j) * amp_j * eps0(mu_j, t)
            acc += np.conj(v) * (1j * mu_j) * amp_j * eps1(mu_j, t)
            acc += np.conj(amp_j) * v * eps0(-mu_j, t)
        acc += np.conj(c0) * v * t
        return 0.5 * np.imag(acc)
