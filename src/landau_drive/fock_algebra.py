"""Truncated Fock-space operator algebra.

Ladder operators, closed-form displacement matrices, and a matrix
exponential used as the independent cross-check for the closed form.
The displacement matrix is evaluated from the normal-ordered form via
associated Laguerre polynomials with logarithmic prefactor accumulation,
so it stays finite well past the range where raw factorials overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .errors import AccuracyError, TruncationError, TruncationWarning

__all__ = [
    "TruncatedOperator",
    "CoherentAmplitude",
    "ladder_ops",
    "displacement_matrix",
    "matrix_exponential",
    "apply_operator",
    "suggested_dimension",
]


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense complex operator on the first N Fock states |0> .. |N-1>.

    ``unitary`` labels operators constructed to be unitary on the healthy
    block; ``tail_estimate`` (largest magnitude in the last two rows and
    columns) indicates how much weight the truncation edge carries.
    """

    matrix: np.ndarray
    unitary: bool = field(default=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if m.shape[0] < 2:
            raise ValueError("need at least two Fock states")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def tail_estimate(self) -> float:
        m = np.abs(self.matrix)
        return float(max(m[-2:, :].max(), m[:, -2:].max()))

    def dagger(self) -> "TruncatedOperator":
        return TruncatedOperator(self.matrix.conj().T, unitary=self.unitary)

    def unitarity_defect(self, block: int | None = None) -> float:
        """max |(U^dag U - I)| restricted to the leading ``block`` states."""
        b = self.dim if block is None else block
        g = self.matrix.conj().T @ self.matrix - np.eye(self.dim)
        return float(np.max(np.abs(g[:b, :b])))


@dataclass(frozen=True)
class CoherentAmplitude:
    """Dimensionless displacement argument; |alpha|^2 is the mean level."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("amplitude must be finite")
        object.__setattr__(self, "alpha", a)

    @property
    def mean_level(self) -> float:
        return abs(self.alpha) ** 2


def ladder_ops(dim: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Annihilation and creation operators truncated at ``dim`` states."""
    if dim < 2:
        raise ValueError("need at least two Fock states")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return TruncatedOperator(a), TruncatedOperator(a.conj().T)


def _laguerre_table(x: float, dim: int) -> np.ndarray:
    """L[p, d] = L_p^{(d)}(x) for all p + d < dim, by upward recurrence.

    Upward recurrence in the degree is stable here: the values grow like
    binomial coefficients (the dominant solution), and for desk-scale
    dimensions they stay far below overflow.
    """
    d = np.arange(dim, dtype=float)
    table = np.empty((dim, dim))
    table[0] = 1.0
    if dim > 1:
        table[1] = 1.0 + d - x
    for p in range(1, dim - 1):
        table[p + 1] = ((2 * p + d + 1 - x) * table[p] - (p + d) * table[p - 1]) / (p + 1)
    return table


def displacement_matrix(alpha, dim: int) -> TruncatedOperator:
    """D(alpha) = exp(alpha a^dag - alpha* a) on ``dim`` Fock states.

    Matrix elements in closed form: for m >= n,
        <m|D|n> = e^{-|a|^2/2} sqrt(n!/m!) alpha^{m-n} L_n^{(m-n)}(|a|^2),
    and the m < n block follows with alpha -> -alpha*.  Warns with
    TruncationWarning when |alpha|^2 > dim/4, where the displaced block
    approaches the truncation edge, and raises TruncationError when the
    Laguerre table overflows (large |alpha|^2 or dim) into non-finite entries.
    """
    if isinstance(alpha, CoherentAmplitude):
        alpha = alpha.alpha
    alpha = complex(alpha)
    if dim < 2:
        raise ValueError("need at least two Fock states")
    x = abs(alpha) ** 2
    if x > dim / 4.0:
        warnings.warn(
            f"|alpha|^2 = {x:.3g} crowds the truncation edge at dim = {dim}",
            TruncationWarning,
            stacklevel=2,
        )
    if alpha == 0:
        return TruncatedOperator(np.eye(dim, dtype=complex), unitary=True)

    rows = np.arange(dim)[:, None]
    cols = np.arange(dim)[None, :]
    p = np.minimum(rows, cols)
    d = np.abs(rows - cols)
    log_mag = (
        -x / 2.0
        + 0.5 * (gammaln(p + 1.0) - gammaln(p + d + 1.0))
        + d * math.log(abs(alpha))
    )
    ang = np.where(rows >= cols, np.angle(alpha), np.angle(-np.conj(alpha)))
    with np.errstate(over="ignore", invalid="ignore"):
        lag = _laguerre_table(x, dim)[p, d]
        mat = np.exp(log_mag + 1j * d * ang) * lag
    if not np.all(np.isfinite(mat)):
        raise TruncationError(
            f"displacement matrix overflows at |alpha|^2 = {x:.3g}, dim = {dim}: "
            f"the Laguerre recurrence leaves entries that are not finite"
        )
    return TruncatedOperator(mat, unitary=True)


def matrix_exponential(op: TruncatedOperator) -> TruncatedOperator:
    """exp(A) by scaling-and-squaring with a Pade core (scipy backend)."""
    norm = float(np.linalg.norm(op.matrix, 1))
    if norm > 1e3:
        raise AccuracyError(
            f"matrix 1-norm {norm:.3g} too large for a reliable exponential",
            achieved=norm,
        )
    return TruncatedOperator(expm(op.matrix))


def apply_operator(op: TruncatedOperator, psi) -> np.ndarray:
    """Matrix-vector product op @ psi with dimension checking."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (op.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({op.dim},)")
    return op.matrix @ psi


def suggested_dimension(alpha) -> int:
    """Default truncation for a displacement of amplitude ``alpha``.

    max(32, ceil(8 |alpha|^2 + 16)) keeps the displaced occupation well
    inside the leading block.
    """
    if isinstance(alpha, CoherentAmplitude):
        alpha = alpha.alpha
    return max(32, math.ceil(8.0 * abs(alpha) ** 2 + 16.0))
