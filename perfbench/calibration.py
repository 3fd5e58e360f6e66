"""Host-speed probes: times in seconds at a fixed reference speed.

The shared host this benchmark was tuned on changes speed by up to half
over minutes (a fixed pure-Python loop ran between 0.024 s and 0.035 s
within one minute), and CPU time follows wall time, so the slowdown is
not time taken from the process but a slower processor.  A timing taken
alone then measures the host as much as the program.

So the timed steps alternate with groups of runs of a probe, a fixed
kernel that does none of the program's work.  A step of ``t`` seconds
whose neighbouring probes take ``p`` on average is reported as
``t * reference / p``: the seconds the step takes when the host runs the
probe in its reference time.  The probe's code never changes, so the
ratio follows the program.

The slow state does not slow all code alike: interpreted Python slows
more than small BLAS products.  Each workload therefore uses the probe
that resembles its work (``workloads.PROBES``).  ``mixed`` is a
pure-Python loop, small complex matrix products, long-vector arithmetic
and float formatting, the mix of ``simulate`` and ``sweep``.  ``matrix``
is a chain of 32x32 complex matrix products, like the RK4 and ``expmid``
steps that are most of ``validate``.  Measured elasticities of the call
time to the probe time (1 is an exact match) were 0.95 for ``validate``
against ``matrix`` but 0.72 against ``mixed``, and 1.13 for ``sweep``
against ``mixed`` but 1.49 against ``matrix``.  Raw wall times are kept
and printed beside the scaled ones; README.md gives the spreads of both.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time between two timed steps, as a share of the step before.
PROBE_SHARE = 0.1

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.standard_normal((32, 32)) + 1j * _RNG.standard_normal((32, 32))
_MATRIX /= np.abs(np.linalg.eigvals(_MATRIX)).max()  # products stay O(1)
_VECTOR = np.linspace(0.0, 1.0, 100_000)
_FLOATS = _RNG.standard_normal(10_000).tolist()


def _products(count: int) -> complex:
    product = _MATRIX
    for _ in range(count):
        product = _MATRIX @ product
    return product[0, 0]


def _mixed() -> float:
    total, table = 0.0, {}
    for i in range(50_000):
        total += (i * 0.5) ** 0.5
        table[i & 255] = total
    total += abs(_products(700))
    for _ in range(2):
        total += float(np.cumsum(np.exp(1j * _VECTOR)).real[-1])
    text = ",".join(f"{x:.17g}" for x in _FLOATS)
    return total + len(text)


def _matrix() -> float:
    return abs(_products(2800))


#: Probe name -> (kernel, reference seconds).  The references lie within
#: the times each kernel took on one vCPU of the shared 2.0 GHz Xeon this
#: benchmark was tuned on (mixed 0.026-0.045 s, matrix about 0.027-0.042
#: s), so reported seconds read close to wall seconds there.
KERNELS = {"mixed": (_mixed, 0.040), "matrix": (_matrix, 0.036)}


def probe(kind: str) -> float:
    """Wall seconds of one run of the ``kind`` kernel."""
    kernel = KERNELS[kind][0]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def probe_group(kind: str, step_s: float) -> list[float]:
    """Times of back-to-back probes lasting ``PROBE_SHARE * step_s`` (one at least)."""
    times = [probe(kind)]
    while sum(times) < PROBE_SHARE * step_s:
        times.append(probe(kind))
    return times


def _interquartile_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def scaled(kind: str, times: list[float], groups: list[list[float]]) -> list[float]:
    """Each of ``times`` at the reference speed of the ``kind`` probe.

    ``times[i]`` was taken between the probe groups ``groups[i]`` and
    ``groups[i + 1]``, and is scaled by the interquartile mean of both
    groups.  Scaling each step by its neighbours follows a change of speed
    within a run.  The host also flips between a fast and a slow state
    within a second, which a long step averages over: a mean follows that
    mixture where a median jumps between the two states, and dropping the
    outer quarters keeps out a probe that was cut off by the scheduler.
    """
    reference = KERNELS[kind][1]
    return [t * reference / _interquartile_mean(groups[i] + groups[i + 1])
            for i, t in enumerate(times)]
