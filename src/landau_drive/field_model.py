"""Physical system scales and the in-plane electric field waveform family.

Complex convention throughout: a planar vector (v1, v2) is stored as
v = v1 + i v2.  The drive field is E(t) = E1(t) + i E2(t) and the
guiding-center path obeys dR/dt = -i (c/B) E(t).  Every analytic waveform
is declared once, as the pairs (c_j, lambda_j) of an exponential sum
E(t) = sum_j c_j e^{i lambda_j t} (``exp_terms``), from which its field,
integral, rate and internal-unit form all follow.

Formulas assume a positive product of charge and magnetic field.  For a
negative charge the constructor records a frame reflection (e2 -> -e2);
``internalize`` maps field values to -conj(E) so the core formulas always
see the normalized orientation, and callers undo the reflection on output
(conjugate complex paths, flip signed areas, phases pass through).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ._expsum import eps0
from .errors import DomainError

__all__ = [
    "PhysicalSystem",
    "InternalScales",
    "FieldWaveform",
    "ZeroField",
    "ConstantField",
    "RotatingField",
    "LinearSinusoidField",
    "SampledField",
    "SumField",
    "eval_field",
    "guiding_center_path",
    "internalize",
    "sample_waveform",
]


@dataclass(frozen=True)
class PhysicalSystem:
    """Charge q, magnetic field B, mass m, and the constants hbar and c.

    Any self-consistent unit system works as long as omega = qB/(mc) and
    l_B = sqrt(hbar c / qB) come out right; SI quantities fit the same
    mold with c set to 1 (velocity form: drift speed E/B, omega = qB/m).
    Derived scales use |q| so they stay real and positive; ``mirrored``
    records whether the orientation normalization reflected the frame.
    """

    charge: float
    magnetic_field: float
    mass: float
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not self.magnetic_field > 0:
            raise ValueError("magnetic_field must be positive")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.charge == 0:
            raise ValueError("charge must be nonzero")
        if not (self.hbar > 0 and self.c > 0):
            raise ValueError("hbar and c must be positive")

    @property
    def mirrored(self) -> bool:
        return self.charge < 0

    @property
    def omega(self) -> float:
        """Cyclotron angular frequency |q|B/(mc), always positive."""
        return abs(self.charge) * self.magnetic_field / (self.mass * self.c)

    @property
    def l_b(self) -> float:
        """Magnetic length sqrt(hbar c / |q|B)."""
        return math.sqrt(self.hbar * self.c / (abs(self.charge) * self.magnetic_field))

    @property
    def k(self) -> float:
        """Ladder scale sqrt(2|q|B/(hbar c)); satisfies k^2 l_b^2 = 2."""
        return math.sqrt(2.0 * abs(self.charge) * self.magnetic_field / (self.hbar * self.c))

    @property
    def area_phase(self) -> float:
        """Signed qB/(hbar c): phase per unit enclosed area is -area_phase."""
        return self.charge * self.magnetic_field / (self.hbar * self.c)

    def internal_scales(self) -> "InternalScales":
        return InternalScales(
            time=1.0 / self.omega,
            length=self.l_b,
            field=self.magnetic_field * self.l_b * self.omega / self.c,
        )


@dataclass(frozen=True)
class InternalScales:
    """User-unit size of one internal unit (time 1/omega, length l_B)."""

    time: float
    length: float
    field: float


class FieldWaveform:
    """Declarative description of E(t); subclasses are immutable."""

    def field(self, t):
        """E(t) = E1 + i E2; accepts scalars or arrays."""
        raise NotImplementedError

    def field_integral(self, t):
        """Exact integral of E(s) ds over [0, t]."""
        raise NotImplementedError

    def domain(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def rate(self) -> float:
        """Characteristic angular rate of the waveform (0 if none)."""
        return 0.0

    def breakpoints(self):
        """Interior times where E(t) is not smooth, in increasing order."""
        return ()

    def exp_terms(self) -> tuple[tuple[complex, float], ...] | None:
        """Pairs (c_j, lambda_j) with E(t) = sum_j c_j e^{i lambda_j t}, or
        None when E(t) is not such a sum."""
        return None

    def linear_nodes(self) -> np.ndarray | None:
        """Increasing times between which E(t) is linear, spanning the
        domain, or None when E(t) is not piecewise linear on known nodes."""
        return None

    def rescaled(self, scales: InternalScales, mirror: bool) -> "FieldWaveform":
        """The same waveform in internal units, reflected when mirror is set.

        The reflected field is -conj(E); combined with the charge-sign flip
        this leaves the Hamiltonian invariant while making qB positive.
        """
        raise NotImplementedError

    def _check_domain(self, t) -> None:
        lo, hi = self.domain()
        if lo == -math.inf and hi == math.inf:
            return
        t = np.asarray(t, dtype=float)
        if np.any(t < lo) or np.any(t > hi):
            raise DomainError(
                f"time outside waveform domain [{lo:g}, {hi:g}]"
            )


class _ExpSumField(FieldWaveform):
    """A waveform declared by its ``exp_terms`` alone; the field, its
    integral, rate, linear nodes and rescaling all follow from the pairs."""

    def _sum(self, basis, t):
        """sum_j c_j basis(lambda_j, t), summed from the first term on: a
        sum started from zeros would turn a term's -0.0 into 0.0."""
        t = np.asarray(t, dtype=float)
        parts = [c * basis(lam, t) for c, lam in self.exp_terms()]
        if not parts:
            return np.zeros(t.shape, dtype=complex)[()]
        return sum(parts[1:], parts[0])[()]

    def field(self, t):
        return self._sum(lambda lam, t: np.exp(1j * (lam * t)), t)

    def field_integral(self, t):
        return self._sum(eps0, t)

    def rate(self) -> float:
        return max((abs(lam) for _, lam in self.exp_terms()), default=0.0)

    def linear_nodes(self):
        """(-inf, inf) when every rate is 0: the field is then constant."""
        if all(lam == 0.0 for _, lam in self.exp_terms()):
            return np.array([-math.inf, math.inf])
        return None

    def rescaled(self, scales, mirror):
        # -conj(c e^{i lam t}) = -conj(c) e^{-i lam t}
        sign = -1.0 if mirror else 1.0
        return _ExpSum(tuple(
            ((-c.conjugate() if mirror else c) / scales.field, sign * lam * scales.time)
            for c, lam in self.exp_terms()
        ))


@dataclass(frozen=True)
class _ExpSum(_ExpSumField):
    """An exponential sum held as its (c_j, lambda_j) pairs."""

    terms: tuple[tuple[complex, float], ...]

    def exp_terms(self):
        return self.terms


@dataclass(frozen=True)
class ZeroField(_ExpSumField):
    def exp_terms(self):
        return ()


@dataclass(frozen=True)
class ConstantField(_ExpSumField):
    e1: float = 0.0
    e2: float = 0.0

    def exp_terms(self):
        return ((complex(self.e1, self.e2), 0.0),)


@dataclass(frozen=True)
class RotatingField(_ExpSumField):
    """E(t) = amplitude * exp(i phase) * exp(-i nu t); nu may be negative."""

    amplitude: float
    nu: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")

    def exp_terms(self):
        return ((cmath.rect(self.amplitude, self.phase), -self.nu),)


@dataclass(frozen=True)
class LinearSinusoidField(_ExpSumField):
    """E(t) = amplitude * cos(angular_frequency t + phase) along direction."""

    amplitude: float
    direction: float = 0.0
    angular_frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")

    def exp_terms(self):
        half, om = self.amplitude / 2.0, self.angular_frequency
        return ((cmath.rect(half, self.direction + self.phase), om),
                (cmath.rect(half, self.direction - self.phase), -om))


@dataclass(frozen=True)
class SampledField(FieldWaveform):
    """Linearly interpolated samples (t_i, E1_i, E2_i), strictly increasing t;
    every time and field value must be finite.

    ``times``, ``e1`` and ``e2`` may be given as any sequences; each is held
    as a read-only float64 copy, so a caller's list or array is neither
    frozen nor seen by later edits.  Fields compare equal when the three
    arrays are equal element for element.
    """

    times: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    _prefix: np.ndarray = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.size < 2:
            raise ValueError("need at least two samples")
        if len(self.e1) != t.size or len(self.e2) != t.size:
            raise ValueError("sample arrays must have equal length")
        if not np.all(np.isfinite(t)):
            raise ValueError("sample timestamps must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample timestamps must be strictly increasing")
        e1, e2 = np.array(self.e1, dtype=float), np.array(self.e2, dtype=float)
        if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))):
            raise ValueError("sample field values must be finite")
        values = e1 + 1j * e2
        # exact running trapezoid of the interpolant up to each node
        prefix = np.concatenate(
            ([0.0 + 0.0j], np.cumsum(np.diff(t) * (values[1:] + values[:-1]) / 2.0))
        )
        for name, array in (("times", t), ("e1", e1), ("e2", e2), ("_prefix", prefix)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, SampledField):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip((self.times, self.e1, self.e2), (other.times, other.e1, other.e2)))

    def __hash__(self):
        # not the raw bytes: 0.0 == -0.0, but their bytes differ
        return hash((self.times.size, float(self.times[0]), float(self.times[-1])))

    def domain(self):
        return (float(self.times[0]), float(self.times[-1]))

    def breakpoints(self):
        return self.times[1:-1]

    def linear_nodes(self):
        return self.times

    def field(self, t):
        self._check_domain(t)
        t = np.asarray(t, dtype=float)
        return (np.interp(t, self.times, self.e1) + 1j * np.interp(t, self.times, self.e2))[()]

    def _integral_from_first_node(self, t):
        """Exact integral of the interpolant from times[0] to t."""
        t = np.asarray(t, dtype=float)
        tn = self.times
        idx = np.clip(np.searchsorted(tn, t, side="right") - 1, 0, tn.size - 2)
        seg = (self.field(tn[idx]) + self.field(t)) / 2.0 * (t - tn[idx])
        return self._prefix[idx] + seg

    def field_integral(self, t):
        lo, hi = self.domain()
        if lo > 0.0 or hi < 0.0:
            raise DomainError("sample range must bracket t = 0 to integrate from 0")
        self._check_domain(t)
        out = self._integral_from_first_node(t) - self._integral_from_first_node(0.0)
        return out[()]

    def rescaled(self, scales, mirror):
        sign = -1.0 if mirror else 1.0
        return SampledField(
            self.times / scales.time, sign * self.e1 / scales.field, self.e2 / scales.field
        )


@dataclass(frozen=True)
class SumField(FieldWaveform):
    """Termwise sum of waveforms; an empty sum is the zero field."""

    terms: tuple[FieldWaveform, ...] = ()

    def field(self, t):
        self._check_domain(t)
        out = np.zeros_like(np.asarray(t, dtype=float), dtype=complex)
        for w in self.terms:
            out = out + w.field(t)
        return out[()]

    def field_integral(self, t):
        self._check_domain(t)
        out = np.zeros_like(np.asarray(t, dtype=float), dtype=complex)
        for w in self.terms:
            out = out + w.field_integral(t)
        return out[()]

    def domain(self):
        lo, hi = -math.inf, math.inf
        for w in self.terms:
            wlo, whi = w.domain()
            lo, hi = max(lo, wlo), min(hi, whi)
        return (lo, hi)

    def rate(self):
        return max((w.rate() for w in self.terms), default=0.0)

    def breakpoints(self):
        return np.unique(np.concatenate([(), *(w.breakpoints() for w in self.terms)]))

    def exp_terms(self):
        """The terms' pairs in order, or None when some term has none."""
        pairs = [w.exp_terms() for w in self.terms]
        if any(p is None for p in pairs):
            return None
        return tuple(pair for p in pairs for pair in p)

    def linear_nodes(self):
        """The union of the terms' nodes within the common domain, when
        every term is piecewise linear (sampled, or analytic and constant)."""
        nodes = [w.linear_nodes() for w in self.terms]
        if not nodes or any(n is None for n in nodes):
            return None
        lo, hi = self.domain()
        union = np.unique(np.concatenate(nodes))
        return union[(lo <= union) & (union <= hi)]

    def rescaled(self, scales, mirror):
        return SumField(tuple(w.rescaled(scales, mirror) for w in self.terms))


def eval_field(w: FieldWaveform, t) -> complex:
    """E(t) for waveform w; raises DomainError outside the domain."""
    w._check_domain(t)
    value = w.field(t)
    return complex(value) if np.ndim(value) == 0 else value


def guiding_center_path(sys: PhysicalSystem, w: FieldWaveform, t):
    """Orbit-center displacement R(t) = -i (c/B) * integral of E over [0, t].

    Exact for every variant (analytic antiderivatives; running trapezoid of
    the interpolant for sampled data, which is exact per segment).  R does
    not depend on the charge, only on the drift factor c/B.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("guiding-center path requires t >= 0")
    w._check_domain(t)
    r = -1j * sys.c / sys.magnetic_field * np.asarray(w.field_integral(t))
    return complex(r) if np.ndim(t) == 0 else r


def internalize(sys: PhysicalSystem, w: FieldWaveform):
    """Map (system, waveform) to dimensionless internal units.

    Returns (waveform_internal, scales, mirrored).  Internally omega = 1,
    l_b = 1, k = sqrt(2) and qB/(hbar c) = 1; a mirrored system has its
    field values reflected so the same formula set applies to both charge
    signs.  Outputs must be un-reflected by the caller: conjugate complex
    path values and flip signed areas, phases pass through unchanged.
    """
    scales = sys.internal_scales()
    return w.rescaled(scales, sys.mirrored), scales, sys.mirrored


def sample_waveform(w: FieldWaveform, times) -> SampledField:
    """Tabulate any waveform onto a grid as a SampledField."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(w.field(times), dtype=complex)
    return SampledField(times, values.real, values.imag)
