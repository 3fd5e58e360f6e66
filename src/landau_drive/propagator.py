"""Assembly of the factorized evolution operator and derived observables.

The evolution operator splits into three commuting-or-ordered factors:
a magnetic translation along the guiding-center path (tracked as the pair
(R, beta), never as a matrix), the static Landau evolution (pure phases
-omega (n + 1/2) t per level), and a level-mixing displacement
J = e^{i gamma} D(-u* k).  Only J moves probability between levels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TruncationError, TruncationWarning
from .field_model import FieldWaveform, PhysicalSystem
from .fock_algebra import (
    TruncatedOperator,
    _column_probabilities,
    _require_level,
    displacement_matrix,
    suggested_dimension,
)
from .path_integrals import DEFAULT_ABS_TOL, _endpoint_grid, build_drive_path

__all__ = [
    "FactorizedPropagator",
    "GeometricRecord",
    "assemble",
    "displacement_argument",
    "j_matrix_element",
    "transition_probabilities",
    "level_populations",
    "adiabatic_estimates",
    "resonance_survival",
    "resonance_survival_alt_prefactor",
    "drive_strength_coefficient",
    "evolve_state",
    "healthy_dim",
]


class GeometricRecord(NamedTuple):
    """Observable content of the magnetic-translation factor."""

    displacement: complex
    phase: float


@dataclass(frozen=True)
class FactorizedPropagator:
    """Explicit record of U(t, 0) for one system, waveform, and time.

    Fields: the geometric pair (displacement R, phase beta); the drive
    amplitude u with its phase gamma; the level-mixing operator j_op
    (phase included); and the coherent argument alpha = -u* k it was
    built from, a complex whose |alpha|^2 is the mean level of
    D(alpha)|0>.  Dynamical phases are reconstructed from the system.
    """

    system: PhysicalSystem
    time: float
    displacement: complex
    beta: float
    u: complex
    gamma: float
    alpha: complex
    j_op: TruncatedOperator
    provenance: str

    @property
    def dim(self) -> int:
        return self.j_op.dim

    @property
    def dynamical_phases(self) -> np.ndarray:
        """theta_n = -omega (n + 1/2) t for n = 0 .. dim-1."""
        n = np.arange(self.dim)
        return -self.system.omega * (n + 0.5) * self.time

    @property
    def geometric_record(self) -> GeometricRecord:
        return GeometricRecord(self.displacement, self.beta)

    @cached_property
    def _healthy_dim(self) -> int:
        """``healthy_dim``, measured on the first call only."""
        healthy = _norm_deficit(np.abs(self.j_op.matrix.T) ** 2) <= NORM_TOL
        return self.dim if healthy.all() else int(np.argmin(healthy))


def displacement_argument(sys: PhysicalSystem, u):
    """Coherent argument alpha of the level-mixing factor for amplitude u.

    The exponent u k a - u* k a^dag equals alpha a^dag - alpha* a with
    alpha = -u* k; this sign convention is fixed here once.  For a
    mirrored (negative-charge) system u is the reflected-frame amplitude,
    i.e. the conjugate of the reported one.  A complex u gives a complex;
    an array of amplitudes gives the array of their arguments.
    """
    u = np.asarray(u, dtype=complex)
    alpha = -(u if sys.mirrored else np.conj(u)) * sys.k
    return alpha if alpha.ndim else complex(alpha)


def assemble(
    sys: PhysicalSystem,
    w: FieldWaveform,
    t: float,
    dim: int | None = None,
    *,
    method: str = "auto",
    abs_tol: float = DEFAULT_ABS_TOL,
) -> FactorizedPropagator:
    """Build the factorized propagator record for time t.

    R and beta come from the guiding-center path, u and gamma from the
    drive-amplitude path, all the last sample of ``build_drive_path`` on
    ``_endpoint_grid(t)`` (DomainError unless t is finite and t >= 0), and
    j_op = e^{i gamma} D(-u* k).  With dim omitted, the truncation is
    ``suggested_dimension(alpha, 7)``, which holds the leading block of 8
    columns, levels 0 .. 7; ``healthy_dim`` measures how many columns it
    keeps healthy, often more.
    """
    path = build_drive_path(sys, w, _endpoint_grid(t), method=method, abs_tol=abs_tol)
    r, u = complex(path.r[-1]), complex(path.u[-1])
    beta, gamma = float(path.beta[-1]), float(path.gamma[-1])
    alpha = displacement_argument(sys, u)
    n = suggested_dimension(alpha, 7) if dim is None else dim
    d_op = displacement_matrix(alpha, n)
    j = TruncatedOperator(np.exp(1j * gamma) * d_op.matrix)
    return FactorizedPropagator(
        system=sys,
        time=t,
        displacement=r,
        beta=beta,
        u=u,
        gamma=gamma,
        alpha=alpha,
        j_op=j,
        provenance=path.provenance,
    )


#: A column of J is healthy when its probabilities sum to 1 within this.
NORM_TOL = 1e-10


def _norm_deficit(probs: np.ndarray) -> np.ndarray:
    """|1 - sum_m P(m)| along the last axis: the measured truncation loss."""
    return np.abs(1.0 - probs.sum(axis=-1))


def healthy_dim(p: FactorizedPropagator) -> int:
    """Number of leading columns of J whose probabilities sum to 1 within
    ``NORM_TOL``: measured on ``p.j_op``, so exact for the array in hand,
    once per propagator."""
    return p._healthy_dim


def j_matrix_element(p: FactorizedPropagator, m: int, n: int) -> complex:
    """<m|J|n> including the e^{i gamma} phase; both indices must lie in
    the healthy block (see ``healthy_dim``), and be integers (ValueError)."""
    _require_level(m)
    _require_level(n)
    h = healthy_dim(p)
    if not (0 <= m < p.dim and 0 <= n < p.dim):
        raise IndexError(f"indices ({m}, {n}) outside dimension {p.dim}")
    if m >= h or n >= h:
        raise TruncationError(
            f"indices ({m}, {n}) reach the unhealthy block (healthy dim {h})"
        )
    return complex(p.j_op.matrix[m, n])


def transition_probabilities(p: FactorizedPropagator, n: int) -> np.ndarray:
    """P(n -> m) = |<m|J|n>|^2 for m = 0 .. dim-1.

    Independent of beta, gamma, and the dynamical phases.  Raises
    ValueError unless n is an integer, and TruncationError unless it lies
    in the healthy block (see ``healthy_dim``), so the returned row sums
    to 1 within ``NORM_TOL``.
    """
    _require_level(n)
    h = healthy_dim(p)
    if not 0 <= n < p.dim:
        raise IndexError(f"level {n} outside dimension {p.dim}")
    if n >= h:
        raise TruncationError(f"level {n} reaches the unhealthy block (healthy dim {h})")
    return np.abs(p.j_op.matrix[:, n]) ** 2


def _amplitudes(sys: PhysicalSystem, u) -> np.ndarray:
    """``displacement_argument`` of the amplitudes ``u``, with no numpy
    warning for a non-finite one: ``level_populations`` raises for it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return displacement_argument(sys, u)


def _auto_dimension(alphas: np.ndarray, n: int) -> int:
    """The truncation that holds column n for every amplitude in ``alphas``:
    ``suggested_dimension`` at the largest |alpha|, with its errors."""
    # abs(complex) is libm hypot; np.hypot calls it too, np.abs may round otherwise
    return suggested_dimension(float(np.hypot(alphas.real, alphas.imag).max(initial=0.0)), n)


def level_populations(
    sys: PhysicalSystem, u, n: int, dim: int | None = None
) -> np.ndarray:
    """P(n -> m) = |<m|J|n>|^2 for every drive amplitude in ``u``: (S, D).

    The probabilities depend on |alpha| only, so they are the squared
    Laguerre moduli of column n of D(alpha), evaluated once for all
    samples with no phase formed.  D = ``dim`` if given; else
    ``suggested_dimension`` of the largest |alpha| at level n.  Every row
    must sum to 1 within ``NORM_TOL``, else TruncationError naming D: a
    lossy column is never returned.  Matrix elements do not depend on D,
    so the leading entries of row s match ``transition_probabilities`` of
    that sample's propagator within a few ulp, and entry n bit for bit.
    ``u`` must be one-dimensional and n an integer (ValueError).  Also
    raises TruncationError when n >= dim, an element is not finite, or
    some |alpha|^2 is not: no basis holds such an amplitude.
    """
    _require_level(n)
    alphas = _amplitudes(sys, u)
    if dim is not None and n >= dim:
        raise TruncationError(f"level {n} lies outside dimension {dim}")
    size = dim or _auto_dimension(alphas, n)
    pops = _column_probabilities(alphas, n, size)
    worst = float(_norm_deficit(pops).max(initial=0.0))
    if not worst <= NORM_TOL:  # NaN too
        raise TruncationError(
            f"level {n} populations sum to 1 only within {worst:.3g} at dimension "
            f"{size}; increase numerics.dimension"
        )
    return pops


def _nonnegative(name: str, value: float) -> float:
    """``value`` when it is finite and >= 0; DomainError naming it otherwise."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _resonance_argument(sys: PhysicalSystem, e0: float, t: float) -> float:
    """|u k| = c e0 t / (B l_b) of a resonant rotating drive of amplitude e0
    at time t; DomainError unless both are finite and >= 0."""
    return (sys.c * _nonnegative("amplitude", e0) * _nonnegative("time", t)
            / (sys.magnetic_field * sys.l_b))


def adiabatic_estimates(sys: PhysicalSystem, n: int, u: complex) -> tuple[float, float]:
    """Leading-order slow-drive transition probabilities out of level n.

    Returns (P(n -> n-1), P(n -> n+1)) = (n, n+1) * (k |u|)^2; every
    other transition is higher order in u and reads as zero here.  Useful
    as an estimate only while k|u| << 1.  While (n+1)(k|u|)^2 << 1 the
    estimates are upper bounds: the relative deficit (est - P)/est of the
    exact Laguerre probabilities lies in [0, n (k|u|)^2] for the down
    transition and in [0, (n+1)(k|u|)^2] for the up transition, and
    equals that upper end to leading order.  ValueError unless n is a
    nonnegative integer.
    """
    _require_level(n)
    if n < 0:
        raise ValueError("level must be nonnegative")
    x = (sys.k * _nonnegative("|u|", abs(u))) ** 2
    return (n * x, (n + 1) * x)


def resonance_survival(sys: PhysicalSystem, e0: float, t: float) -> float:
    """Ground-state survival under a resonant rotating drive of amplitude e0.

    With u(t) = -c e0 t / (2B), survival is e^{-|u k|^2}, i.e. exponent
    (1/2) (e0/B)^2 c^2 t^2 / l_b^2.
    """
    y = _resonance_argument(sys, e0, t)
    return math.exp(-0.5 * y * y)


def resonance_survival_alt_prefactor(sys: PhysicalSystem, e0: float, t: float) -> float:
    """Survival with exponent prefactor 2 instead of 1/2.

    Kept for comparison only: the validation suite shows this variant
    disagrees with the brute-force integrator while ``resonance_survival``
    matches it.
    """
    y = _resonance_argument(sys, e0, t)
    return math.exp(-2.0 * y * y)


def drive_strength_coefficient(sys: PhysicalSystem, e0: float) -> float:
    """(|u_max| / l_b)^2 with |u_max| = c e0 / (B omega).

    The slow-drive transition probabilities out of level n are bounded by
    about n times this dimensionless coefficient.
    """
    u_max = sys.c * _nonnegative("amplitude", e0) / (sys.magnetic_field * sys.omega)
    return (u_max / sys.l_b) ** 2


def evolve_state(p: FactorizedPropagator, psi) -> tuple[np.ndarray, GeometricRecord]:
    """Apply the ladder-sector evolution diag(e^{i theta}) J to psi.

    The magnetic-translation factor acts on the degenerate center-of-orbit
    sector; its observable content (R, beta) is returned as a record
    rather than applied to the Fock amplitudes.  Warns with
    TruncationWarning when the truncated J loses more than ``NORM_TOL``
    of the norm of psi.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (p.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({p.dim},)")
    out = np.exp(1j * p.dynamical_phases) * (p.j_op.matrix @ psi)
    norm = float(np.vdot(psi, psi).real)
    loss = norm - float(np.vdot(out, out).real)
    if loss > NORM_TOL * norm:
        warnings.warn(
            f"evolved state lost {loss / norm:.3g} of its norm to the truncation "
            f"at dimension {p.dim}",
            TruncationWarning,
            stacklevel=2,
        )
    return out, p.geometric_record
