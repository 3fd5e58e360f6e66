"""Truncated Fock-space operator algebra.

Ladder operators, closed-form displacement matrix elements, and a matrix
exponential used as the independent cross-check for the closed form.
The elements are evaluated in one place, from the normal-ordered form via
associated Laguerre polynomials with logarithmic prefactor accumulation,
so they stay finite well past the range where raw factorials overflow;
``displacement_matrix`` takes every column of one amplitude and
``displacement_columns`` one column of many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .errors import AccuracyError, TruncationError

__all__ = [
    "TruncatedOperator",
    "CoherentAmplitude",
    "ladder_ops",
    "displacement_matrix",
    "displacement_columns",
    "matrix_exponential",
    "suggested_dimension",
]

#: Elements evaluated per block of amplitudes in ``_displacement_elements``.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense complex operator on the first N Fock states |0> .. |N-1>."""

    matrix: np.ndarray

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

    def dagger(self) -> "TruncatedOperator":
        return TruncatedOperator(self.matrix.conj().T)

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


def _laguerre_rows(x: np.ndarray, rows: int, dim: int) -> np.ndarray:
    """L[s, p, d] = L_p^{(d)}(x[s]) for p < ``rows``, d < ``dim``, by upward
    recurrence in the degree.

    The recurrence runs on each order d independently, so a row does not
    depend on ``dim`` or on how many rows are built.  Upward recurrence is
    stable here: the values grow like binomial coefficients (the dominant
    solution), and for desk-scale dimensions they stay far below overflow.
    """
    d = np.arange(dim, dtype=float)
    x = x[:, None]
    table = np.empty((x.shape[0], rows, dim))
    table[:, 0] = 1.0
    if rows > 1:
        table[:, 1] = 1.0 + d - x
    for p in range(1, rows - 1):
        table[:, p + 1] = (
            (2 * p + d + 1 - x) * table[:, p] - (p + d) * table[:, p - 1]
        ) / (p + 1)
    return table


def _displacement_elements(alphas, cols, dim: int) -> np.ndarray:
    """E[s, m, j] = <m|D(alphas[s])|cols[j]> for m < ``dim``: the one
    evaluation of the displacement matrix elements.

    For m >= n,
        <m|D|n> = e^{-|a|^2/2} sqrt(n!/m!) alpha^{m-n} L_n^{(m-n)}(|a|^2),
    and the m < n elements follow with alpha -> -alpha*.  The magnitude
    prefactor is accumulated in logs, and only the Laguerre rows
    p <= max(cols) are built, so S amplitudes and C columns cost
    O(S (max(cols) + 1) dim) for the table plus O(S dim C) for the elements.
    Raises TruncationError when an element is not finite.
    """
    alphas = np.asarray(alphas, dtype=complex)
    cols = np.asarray(cols)
    # |alpha| and log|alpha| by Python's complex abs and math.log, one
    # amplitude at a time: numpy's vectorized versions round differently
    # in the last bit
    mods = [abs(a) for a in alphas.tolist()]
    x = np.array([r**2 for r in mods], dtype=float)
    log_mod = np.array([math.log(r) if r else 0.0 for r in mods], dtype=float)

    rows = np.arange(dim)[:, None]
    p = np.minimum(rows, cols[None, :])
    d = np.abs(rows - cols[None, :])
    lower = rows >= cols[None, :]
    gamma_part = 0.5 * (gammaln(p + 1.0) - gammaln(p + d + 1.0))
    degrees = int(cols.max()) + 1
    out = np.empty((alphas.size, dim, cols.size), dtype=complex)
    # amplitudes go in blocks of about _BLOCK_ELEMENTS elements, which
    # bounds the temporaries whatever the number of amplitudes
    step = max(1, _BLOCK_ELEMENTS // (dim * cols.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, alphas.size, step):
            blk = slice(lo, lo + step)
            a = alphas[blk, None, None]
            ang = np.where(lower, np.angle(a), np.angle(-np.conj(a)))
            log_mag = (
                -x[blk, None, None] / 2.0 + gamma_part + d * log_mod[blk, None, None]
            )
            lag = _laguerre_rows(x[blk], degrees, dim)[:, p, d]
            out[blk] = np.exp(log_mag + 1j * d * ang) * lag
    # D(0) is the identity exactly
    out[alphas == 0] = rows == cols[None, :]
    bad = ~np.isfinite(out).all(axis=(1, 2))
    if bad.any():
        raise TruncationError(
            f"displacement matrix overflows at |alpha|^2 = {x[bad].max():.3g}, "
            f"dim = {dim}: the Laguerre recurrence leaves entries that are not finite"
        )
    return out


def displacement_matrix(alpha, dim: int) -> TruncatedOperator:
    """D(alpha) = exp(alpha a^dag - alpha* a) on ``dim`` Fock states.

    All columns of the closed-form elements (see ``displacement_columns``).
    Raises TruncationError when the Laguerre table overflows (large
    |alpha|^2 or dim) into non-finite entries.
    """
    if isinstance(alpha, CoherentAmplitude):
        alpha = alpha.alpha
    alpha = complex(alpha)
    if dim < 2:
        raise ValueError("need at least two Fock states")
    mat = _displacement_elements([alpha], np.arange(dim), dim)[0]
    return TruncatedOperator(mat)


def displacement_columns(alphas, n: int, dim: int) -> np.ndarray:
    """Column n of D(alpha) for every amplitude: an (S, dim) array whose
    row s is <m|D(alphas[s])|n> for m = 0 .. dim-1.

    Bit-identical to ``displacement_matrix(alphas[s], dim).matrix[:, n]``
    but built from the Laguerre rows p <= n only, at O(S (n+1) dim) cost.
    The elements do not depend on ``dim``: a larger ``dim`` extends each
    column without changing its leading entries.  Same TruncationError as
    ``displacement_matrix``; since only rows up to n are built, a low
    column stays finite where the full matrix overflows.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.ndim != 1:
        raise ValueError("amplitudes must be a one-dimensional sequence")
    if dim < 2:
        raise ValueError("need at least two Fock states")
    if not 0 <= n < dim:
        raise IndexError(f"level {n} outside dimension {dim}")
    return _displacement_elements(alphas, np.array([n]), dim)[:, :, 0]


def matrix_exponential(op: TruncatedOperator) -> TruncatedOperator:
    """exp(A) by scaling-and-squaring with a Pade core (scipy backend)."""
    norm = float(np.linalg.norm(op.matrix, 1))
    if norm > 1e3:
        raise AccuracyError(
            f"matrix 1-norm {norm:.3g} too large for a reliable exponential",
            achieved=norm,
        )
    return TruncatedOperator(expm(op.matrix))


def suggested_dimension(alpha) -> int:
    """Default truncation for a displacement of amplitude ``alpha``.

    max(32, ceil(8 |alpha|^2 + 16)) keeps the displaced occupation well
    inside the leading block.
    """
    if isinstance(alpha, CoherentAmplitude):
        alpha = alpha.alpha
    return max(32, math.ceil(8.0 * abs(alpha) ** 2 + 16.0))
