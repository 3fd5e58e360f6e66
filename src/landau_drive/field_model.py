"""Physical system scales and the in-plane electric field waveform family.

Complex convention throughout: a planar vector (v1, v2) is stored as
v = v1 + i v2.  The drive field is E(t) = E1(t) + i E2(t) and the
guiding-center path obeys dR/dt = -i (c/B) E(t).  Every analytic waveform
is declared once, as the pairs (c_j, lambda_j) of an exponential sum
E(t) = sum_j c_j e^{i lambda_j t} (``exp_terms``), from which its field,
rate, step monomials and internal-unit form all follow.  Every
waveform reports its field on each step between knots as monomials
c tau^k e^{i lambda tau} with k = 0 or 1 (``step_terms``), which the exact
drive path integrates.

Formulas assume a positive product of charge and magnetic field.  For a
negative charge the constructor records a frame reflection (e2 -> -e2);
``internalize`` maps field values to -conj(E) so the core formulas always
see the normalized orientation, and callers undo the reflection on output
(conjugate complex paths, flip signed areas, phases pass through).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
    "internalize",
]


def _require_normal(**scales: float) -> None:
    """ValueError naming the first derived scale that is not a positive
    normal float."""
    for name, value in scales.items():
        if not np.finfo(float).tiny <= value < math.inf:
            raise ValueError(f"derived {name} = {value!r} is not a positive normal float")


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
        # every argument finite, the charge nonzero and the rest positive;
        # then every derived scale a positive normal float: a system whose
        # products overflow to inf or underflow to 0 has no internal units
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name == "charge" and value == 0:
                raise ValueError("charge must be nonzero")
            if name != "charge" and not value > 0:
                raise ValueError(f"{name} must be positive")
        try:
            _require_normal(omega=self.omega, l_b=self.l_b, k=self.k)
        except ZeroDivisionError:
            raise ValueError("derived scales divide by a product that underflows to 0") from None
        scales = self.internal_scales()
        _require_normal(**{"time scale": scales.time, "field scale": scales.field})

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

    def domain(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def rate(self) -> float:
        """Characteristic angular rate of the waveform (0 if none)."""
        return 0.0

    def breakpoints(self):
        """Interior times where E(t) is not smooth, in increasing order."""
        return ()

    def step_terms(self, knots):
        """E(t) on each step [a, a + h] between increasing ``knots`` as
        monomials: (coef[M, S], powers[M], rates[M]) with

            E(a_s + tau) = sum_m coef[m, s] tau^{powers[m]} e^{i rates[m] tau}

        for 0 <= tau <= h_s on step s.  Powers are 0 or 1, and a power-1
        monomial comes directly after the power-0 monomial of the same rate.
        The knots must include every breakpoint between the first and the
        last.  The exact drive-path route (method "auto") needs it; a
        waveform without it takes method "quadrature".
        """
        raise NotImplementedError

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
    rate, step monomials and rescaling all follow from the pairs."""

    def exp_terms(self) -> tuple[tuple[complex, float], ...]:
        """Pairs (c_j, lambda_j) with E(t) = sum_j c_j e^{i lambda_j t}."""
        raise NotImplementedError

    def field(self, t):
        # summed from the first term on: a sum started from zeros would
        # turn a term's -0.0 into 0.0
        t = np.asarray(t, dtype=float)
        parts = [c * np.exp(1j * (lam * t)) for c, lam in self.exp_terms()]
        if not parts:
            return np.zeros(t.shape, dtype=complex)[()]
        return sum(parts[1:], parts[0])[()]

    def rate(self) -> float:
        return max((abs(lam) for _, lam in self.exp_terms()), default=0.0)

    def step_terms(self, knots):
        return self.stacked_step_terms(np.array(self.exp_terms(), complex).reshape(-1, 2), knots)

    @staticmethod
    def stacked_step_terms(pairs: np.ndarray, knots):
        """``step_terms`` of exponential sums held as their pairs, an array
        (..., M, 2) whose leading axes are separate sums: one power-0
        monomial c_j e^{i lambda_j a} at rate lambda_j per pair."""
        rates = pairs[..., 1].real
        a = np.asarray(knots, dtype=float)[:-1]
        return (pairs[..., :1] * np.exp(1j * (rates[..., None] * a)),
                np.zeros(rates.shape[-1], dtype=int), rates)

    def rescaled(self, scales, mirror):
        pairs = self.rescaled_pairs(np.array(self.exp_terms(), complex).reshape(-1, 2),
                                    scales, mirror)
        return _ExpSum(tuple((c, lam.real) for c, lam in pairs.tolist()))

    @staticmethod
    def rescaled_pairs(pairs: np.ndarray, scales: InternalScales, mirror: bool) -> np.ndarray:
        """``exp_terms`` pairs, an array (..., M, 2) whose leading axes are
        separate sums, in internal units and reflected when mirror is set:
        -conj(c e^{i lam t}) = -conj(c) e^{-i lam t}.

        c / field is Python's complex-by-float division, which divides by
        complex(field, 0.0): real (re + im 0.0) / field and imaginary
        (im - re 0.0) / field, signed zeros and all.
        """
        c, lam = pairs[..., 0], pairs[..., 1].real
        if mirror:
            c, lam = -np.conj(c), -lam
        out = np.empty(pairs.shape, complex)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite paths raise later
            out[..., 0].real = (c.real + c.imag * 0.0) / scales.field
            out[..., 0].imag = (c.imag - c.real * 0.0) / scales.field
            out[..., 1] = lam * scales.time
        return out


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


class _ParametrizedField(_ExpSumField):
    """An exponential sum declared by numeric parameters, its dataclass
    fields: each must be finite, and those named in ``_nonnegative`` also
    >= 0 (ValueError naming the parameter otherwise)."""

    _nonnegative: tuple[str, ...] = ()

    def __post_init__(self):
        # getattr, not vars(self): a __dict__ asked for is built, and slows
        # every later attribute read
        self._check_parameters({name: getattr(self, name) for name in self.__dataclass_fields__})

    @classmethod
    def _check_parameters(cls, values: dict) -> None:
        """The parameter rule on ``values``, name -> float."""
        for name, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0 and name in cls._nonnegative:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ConstantField(_ParametrizedField):
    e1: float = 0.0
    e2: float = 0.0

    def exp_terms(self):
        return ((complex(self.e1, self.e2), 0.0),)


@dataclass(frozen=True)
class RotatingField(_ParametrizedField):
    """E(t) = amplitude * exp(i phase) * exp(-i nu t); nu may be negative."""

    amplitude: float
    nu: float
    phase: float = 0.0

    _nonnegative = ("amplitude",)

    def exp_terms(self):
        re, im, lam = self._pair(self.amplitude, self.nu, self.phase)
        return ((complex(re, im), lam),)

    @staticmethod
    def _pair(amplitude, nu, phase: float):
        """Real and imaginary part of c and lambda of the one pair
        (rect(amplitude, phase), -nu); amplitude and nu may be arrays.

        rect(1, phase) scaled part by part is rect(amplitude, phase) bit
        for bit, its phase-0 case (amplitude, amplitude * phase) included.
        """
        unit = cmath.rect(1.0, phase)
        return amplitude * unit.real, amplitude * unit.imag, -nu

    @classmethod
    def _grid_pairs(cls, amplitude, nu, phase: float = 0.0) -> np.ndarray:
        """``exp_terms`` of RotatingField(a, n, phase) at each point of a
        grid, as one (S, 1, 2) array: ``amplitude`` and ``nu`` are arrays of
        S values, or a float for either.  ValueError when some point breaks
        the parameter rule, which a grid passes when its smallest and its
        largest value do (a NaN makes both NaN).
        """
        grid = {"amplitude": amplitude, "nu": nu, "phase": phase}
        for extreme in (np.min, np.max):
            cls._check_parameters({name: float(extreme(v)) for name, v in grid.items()})
        re, im, lam = cls._pair(amplitude, nu, phase)
        pairs = np.empty(np.broadcast(amplitude, nu).shape + (1, 2), complex)
        pairs[:, 0, 0].real = re
        pairs[:, 0, 0].imag = im
        pairs[:, 0, 1] = lam
        return pairs


@dataclass(frozen=True)
class LinearSinusoidField(_ParametrizedField):
    """E(t) = amplitude * cos(angular_frequency t + phase) along direction."""

    amplitude: float
    direction: float = 0.0
    angular_frequency: float = 0.0
    phase: float = 0.0

    _nonnegative = ("amplitude",)

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

    def __post_init__(self):
        t, e1, e2 = arrays = [np.array(v, dtype=float) for v in (self.times, self.e1, self.e2)]
        for name, array in zip(("times", "e1", "e2"), arrays):
            if array.ndim != 1:
                raise ValueError(f"sample {name} must be one-dimensional, got ndim {array.ndim}")
        if t.size < 2:
            raise ValueError("need at least two samples")
        if e1.size != t.size or e2.size != t.size:
            raise ValueError("sample arrays must have equal length")
        if not np.all(np.isfinite(t)):
            raise ValueError("sample timestamps must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample timestamps must be strictly increasing")
        if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))):
            raise ValueError("sample field values must be finite")
        self._hold(t, e1, e2)

    def _hold(self, times, e1, e2):
        """Keep the three float64 arrays as ``_table`` and read-only views of
        them as the fields: ``np.interp`` copies a read-only table on every
        call, so ``field`` reads the private one."""
        object.__setattr__(self, "_table", (times, e1, e2))
        for name, array in (("times", times), ("e1", e1), ("e2", e2)):
            view = array.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

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

    def step_terms(self, knots):
        """The value at each step's left knot and the slope on the step."""
        e = self.field(knots)
        return np.array([e[:-1], np.diff(e) / np.diff(knots)]), np.array([0, 1]), np.zeros(2)

    def field(self, t):
        self._check_domain(t)
        t, (times, e1, e2) = np.asarray(t, dtype=float), self._table
        return (np.interp(t, times, e1) + 1j * np.interp(t, times, e2))[()]

    def rescaled(self, scales, mirror):
        """Raises DomainError when scaling overflows a value or rounds two
        adjacent sample times to the same float."""
        sign = -1.0 if mirror else 1.0
        with np.errstate(over="ignore"):
            arrays = (self.times / scales.time, sign * self.e1 / scales.field,
                      self.e2 / scales.field)
        for name, array in zip(("times", "e1", "e2"), arrays):
            finite = np.isfinite(array)
            if not finite.all():
                i = int(np.argmin(finite))
                raise DomainError(f"sampled {name}[{i}] = {float(getattr(self, name)[i])!r} "
                                  "is not finite in internal units")
        collapsed = np.diff(arrays[0]) <= 0
        if collapsed.any():
            i = int(np.argmax(collapsed))
            raise DomainError(
                f"sample times[{i}] = {float(self.times[i])!r} and times[{i + 1}] = "
                f"{float(self.times[i + 1])!r} round to one time in internal units")
        out = object.__new__(SampledField)
        out._hold(*arrays)
        return out


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

    def step_terms(self, knots):
        """The terms' monomials in order."""
        parts = [w.step_terms(knots) for w in self.terms or (ZeroField(),)]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def rescaled(self, scales, mirror):
        return SumField(tuple(w.rescaled(scales, mirror) for w in self.terms))


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
