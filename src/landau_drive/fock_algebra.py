"""Truncated Fock-space operator algebra.

Ladder operators and closed-form displacement matrix elements.  The
moduli of the elements are evaluated in one place, as normalized
associated Laguerre functions of modulus at most 1, finite in any
dimension up to |alpha|^2 of about 1417.  ``displacement_matrix`` takes
every column of one amplitude, those moduli times a phase
e^{i d arg alpha}; the level populations square the moduli of one column
for many amplitudes and never form the phases, on which they do not
depend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

__all__ = [
    "TruncatedOperator",
    "column_unitarity_defect",
    "ladder_ops",
    "displacement_matrix",
    "suggested_dimension",
]

#: Elements evaluated per block of amplitudes in ``_displacement_moduli``.
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
        return column_unitarity_defect(self.matrix[:, :block])


def column_unitarity_defect(columns: np.ndarray) -> float:
    """max |C^dag C - I| of a block C of an operator's columns.

    Entry (i, j) of U^dag U involves only columns i and j of U, so the
    leading b x b block of the Gram matrix needs only the leading b columns.
    """
    c = np.asarray(columns)
    return float(np.max(np.abs(c.conj().T @ c - np.eye(c.shape[1]))))


def _require_basis(dim) -> None:
    """A Fock basis size is an integer (Python or numpy, not bool) of at
    least 2; ValueError otherwise."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"need at least two Fock states, got dim = {dim!r}")


def ladder_ops(dim: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Annihilation and creation operators truncated at ``dim`` states."""
    _require_basis(dim)
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return TruncatedOperator(a), TruncatedOperator(a.conj().T)


def _laguerre_functions(x: np.ndarray, rows: int, dim: int) -> np.ndarray:
    """phi[s, p, d] = sqrt(p!/(p+d)!) e^{-x/2} x^{d/2} L_p^{(d)}(x[s]) for
    p < ``rows``, d < ``dim``, each of modulus at most 1.

    The seeds phi_0^{(d)} = e^{-x/2} prod_{k<=d} sqrt(x/k) are a running
    product over d; each order then recurs upward in the degree, so a row
    does not depend on ``dim`` or on how many rows are built.  Subnormal
    seeds are set to 0: their lost bits would grow through the recurrence,
    while the probability they carry shows in the measured column norms.
    """
    seed = np.empty((x.size, dim))
    seed[:, 0] = [math.exp(-v / 2.0) for v in x.tolist()]
    seed[:, 1:] = np.sqrt(x[:, None] / np.arange(1, dim))
    seed = np.cumprod(seed, axis=1)
    seed[seed < np.finfo(float).tiny] = 0.0
    d = np.arange(dim, dtype=float)
    p = np.arange(rows, dtype=float)[:, None]
    # the recurrence: off[p+1] phi_{p+1} = (diag[p] - x) phi_p - off[p] phi_{p-1}
    diag, off = 2 * p + d + 1, np.sqrt(p * (p + d))
    x = x[:, None]
    table = np.empty((x.shape[0], rows, dim))
    table[:, 0] = seed
    if rows > 1:
        table[:, 1] = (diag[0] - x) * seed / off[1]
    for k in range(1, rows - 1):
        table[:, k + 1] = ((diag[k] - x) * table[:, k] - off[k] * table[:, k - 1]) / off[k + 1]
    return table


def _require_representable(size: float, dim: int | None = None) -> None:
    """Raise TruncationError unless e^{-|alpha|^2/2} is a normal float,
    given size = |alpha|: past |alpha|^2 of about 1417 no displacement
    element is representable, and a NaN or infinite |alpha|^2 fails too."""
    x = size * size  # inf where size ** 2 would raise OverflowError
    # a NaN compares false, so it falls through to the errors below
    if math.exp(-x / 2.0) >= np.finfo(float).tiny:
        return
    at = "" if dim is None else f", dim = {dim}"
    if not math.isfinite(x):
        raise TruncationError(f"drive amplitude has no finite square, |alpha|^2 = "
                              f"{x:.3g}{at}; no truncation holds it")
    raise TruncationError(
        f"displacement elements not representable at |alpha|^2 = {x:.3g}{at}: "
        f"e^(-|alpha|^2/2) is not a normal float"
    )


def _displacement_moduli(alphas: np.ndarray, cols: np.ndarray, dim: int):
    """Yield (block, phi) over blocks of the amplitudes, with
    phi[s, m, j] = phi_p^{(d)}(|a|^2) for a = alphas[block][s],
    p = min(m, cols[j]) and d = |m - cols[j]|: the one evaluation of the
    moduli, signed, |phi[s, m, j]| = |<m|D(a)|cols[j]>|.

    Only the rows p <= max(cols) are built, so S amplitudes and C columns
    cost O(S (max(cols) + 1) dim) for the table plus O(S dim C) for the
    moduli.  Raises TruncationError when e^{-|a|^2/2} is not a normal
    float (``_require_representable``).
    """
    # abs(complex) is libm hypot; np.hypot calls it too, np.abs may round
    # otherwise.  The squares and (in _laguerre_functions) the seeds'
    # exponentials stay one float at a time: sizes * sizes differs from
    # Python's v ** 2, and np.exp from math.exp, in the last bit of some
    with np.errstate(over="ignore"):  # an infinite |alpha| fails below
        sizes = np.hypot(alphas.real, alphas.imag)
    if sizes.size:
        _require_representable(float(sizes.max()), dim)
    x = np.array([v ** 2 for v in sizes.tolist()], dtype=float)

    rows = np.arange(dim)[:, None]
    p = np.minimum(rows, cols[None, :])
    d = np.abs(rows - cols[None, :])
    degrees = int(cols.max()) + 1
    # amplitudes go in blocks of about _BLOCK_ELEMENTS elements, which
    # bounds the temporaries whatever the number of amplitudes
    step = max(1, _BLOCK_ELEMENTS // (dim * cols.size))
    for lo in range(0, alphas.size, step):
        blk = slice(lo, lo + step)
        yield blk, _laguerre_functions(x[blk], degrees, dim)[:, p, d]


def displacement_matrix(alpha, dim: int) -> TruncatedOperator:
    """D(alpha) = exp(alpha a^dag - alpha* a) on ``dim`` Fock states.

    For m >= n,
        <m|D|n> = e^{-|a|^2/2} sqrt(n!/m!) alpha^{m-n} L_n^{(m-n)}(|a|^2)
                = phi_n^{(m-n)}(|a|^2) e^{i (m-n) arg alpha},
    and the m < n elements follow with alpha -> -alpha*: the moduli of
    ``_displacement_moduli`` times these phases.  Raises TruncationError
    above |alpha|^2 of about 1417, where e^{-|alpha|^2/2} leaves the
    floating-point range; below it every element is finite, of modulus at
    most 1, for any ``dim``.
    """
    alpha = complex(alpha)
    _require_basis(dim)
    cols = np.arange(dim)
    offset = cols[:, None] - cols[None, :]
    (_, phi), = _displacement_moduli(np.array([alpha]), cols, dim)
    ang = np.where(offset >= 0, np.angle(alpha), np.angle(-np.conj(alpha)))
    return TruncatedOperator(np.exp(1j * np.abs(offset) * ang) * phi[0])


def _column_probabilities(alphas, n: int, dim: int) -> np.ndarray:
    """|<m|D(alphas[s])|n>|^2 as an (S, dim) array, formed as phi * phi
    from the moduli alone, so no phase is built: within a few ulp of
    ``np.abs(displacement_matrix(alphas[s], dim).matrix[:, n]) ** 2``, and
    bit for bit at m = n, where d = 0 and the phase is exactly 1.  The
    elements do not depend on ``dim``, and only the Laguerre rows p <= n
    are built, at O(S (n+1) dim) cost.  ``alphas`` must be one-dimensional
    (ValueError), and 0 <= n < dim (IndexError); TruncationError as
    ``displacement_matrix``, when any amplitude is past the limit.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.ndim != 1:
        raise ValueError("amplitudes must be a one-dimensional sequence")
    _require_basis(dim)
    if not 0 <= n < dim:
        raise IndexError(f"level {n} outside dimension {dim}")
    out = np.empty((alphas.size, dim))
    for blk, phi in _displacement_moduli(alphas, np.array([n]), dim):
        np.multiply(phi[:, :, 0], phi[:, :, 0], out=out[blk])
    return out


def suggested_dimension(alpha, n: int = 0) -> int:
    """Truncation that holds column n of D(alpha): ceil((|alpha| + sqrt(n) + 4)^2).

    D(alpha)|n> spreads over the levels up to its classical turning point
    (|alpha| + sqrt(n))^2, past which its probabilities fall off like an
    Airy tail; the margin of 4 in the amplitude holds that tail to well
    below ``propagator.NORM_TOL``.  A larger dim only lengthens the column
    (the elements do not depend on dim), so this size holds every column
    below n too.  Raises IndexError for a negative n, and TruncationError
    where no truncation holds the amplitude, by the rule the displacement
    elements obey: when e^{-|alpha|^2/2} is not a normal float (NaN and
    inf included).
    """
    if n < 0:
        raise IndexError(f"level {n} is negative")
    _require_representable(abs(alpha))
    return math.ceil((abs(alpha) + math.sqrt(n) + 4.0) ** 2)
