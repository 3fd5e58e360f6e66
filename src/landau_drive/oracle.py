"""Brute-force validation of the factorized propagator.

This module never reuses the drive-amplitude or phase integrals: it sees
only the ladder-sector Hamiltonian built directly from E(t),

    H(t) = hbar omega (a^dag a + 1/2) - (hbar k / 2) (Rdot* a + Rdot a^dag),
    Rdot = -i (c/B) E(t),

and integrates i dU/dt = H(t) U from the identity.  Comparing the result
against the dynamical-phase factor times the closed-form level-mixing
operator is the deciding cross-check for the whole package.  Every check
reads only U's leading dim // 2 columns, the block that keeps truncation
headroom, so only those columns are integrated: each column of U evolves
on its own, and the rest would be work no check reads.

Two dissimilar integrators are provided: classic fixed-step RK4 applied in
the frame that removes the stiff static diagonal (required to reach 1e-6
accuracy at dt = 0.01/omega), and a second-order midpoint rule that
exponentiates the full Hamiltonian without any frame change, by numpy's
``eigh`` (H is Hermitian), so the oracle needs no scipy.  Both read one
span list, with E(t) at every node of a span from one vectorized call:
a span of n steps has 2n + 1 nodes, its n + 1 knots and then its n
midpoints, so each node is sampled once and a step ends on the very
knot the next one starts from.  User time becomes internal time by the
drive path's own rule (``path_integrals._internal_times`` on
``_endpoint_grid``), so every entry point refuses a bad t with one
message.

The midpoint rule works in a gauge.  The drive's phase is a rotation
generated by the number operator, H(Rdot) = P H(|Rdot|) P^dag with
P = diag(e^{i m arg Rdot}), and H(|Rdot|) is real, symmetric and
tridiagonal.  So each run diagonalizes one real matrix per distinct
|Rdot| float, kept in a small memo keyed by that exact float (a constant
amplitude repeats a handful of them), and applies P as phases.

The drive couples each level only to its neighbours, so RK4 never builds
a dense generator.  For this linear equation an RK4 step is a linear map,
u <- u + N u, with N a degree-4 polynomial in G = c_a a + c_ad a^dag at
the step's three nodes, so N is banded to offsets -4 ... 4.  One kernel,
``_banded_rk4``, builds the maps' bands ahead of time, a chunk of steps
at once, from the 50 monomials' scalars (a chain of outer products of
the node coefficients) and a per-dim table of their diagonals.  It runs
each step as two numpy calls on real arrays: one batched matmul of the
map's row blocks, each in real form [[Re N, -Im N], [Im N, Re N]],
against overlapping windows of the column block stored as real rows
(Re u, Im u), and one add of the old block.  A span where the field is
exactly zero costs nothing.

The two checks that need an integral of the field, the Heisenberg drive
scalar and the orbit-center drift, share one engine, ``_field_integrals``:
numpy's 8- and 16-point Gauss-Legendre rules on panels of the same
kink-split spans (``_spans``, the oracle's one rule for kinks), one field
call per rule.  The two rules must agree to 1e-12 at every edge, so the
engine measures its own error rather than trusting a step size.  The
orbit-center check compares its drift with ``build_drive_path``'s R, the
one every output table prints.

``run_validation`` declares each corpus entry's checks as one table of
(kind, value, tolerance, details) rows that pass when value < tolerance,
so a new per-entry check is one more row; one helper, ``_factorization``,
gives every comparison of the integrated U with the factorized one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .field_model import (
    ConstantField,
    FieldWaveform,
    LinearSinusoidField,
    PhysicalSystem,
    RotatingField,
    SampledField,
    ZeroField,
    internalize,
)
from .fock_algebra import column_unitarity_defect, ladder_ops
from .path_integrals import _endpoint_grid, _internal_times, build_drive_path
from .propagator import (
    assemble,
    resonance_survival,
    resonance_survival_alt_prefactor,
)

__all__ = [
    "IntegratorConfig",
    "integrate_schrodinger",
    "heisenberg_residual",
    "guiding_center_residual",
    "CorpusEntry",
    "validation_corpus",
    "CheckResult",
    "run_validation",
]

_SQRT2 = math.sqrt(2.0)

#: Probability on the basis edge past which an integration is junk.
_EDGE_PROBABILITY = 1e-4

#: Allowed step sizes in internal time units (1/omega): at most 0.05
#: resolves the cyclotron oscillation; at least 1e-4 keeps a corpus run
#: (t = 10/omega) to 10^5 steps, so no step table outgrows memory.
DT_RANGE = (1e-4, 0.05)

#: Decompositions one expmid run keeps, keyed by the exact |Rdot| float:
#: a constant-amplitude drive repeats a few values, a varying one none.
_EIGH_MEMO = 8

#: One classical RK4 step of dW/dt = G W is W <- W + N W, where N sums
#: these products of G at the step's start (1), midpoint (m) and end (4)
#: nodes: (weight, power of h, the node of each factor, left to right).
_RK4_TERMS = (
    (1 / 6, 1, "1"), (4 / 6, 1, "m"), (1 / 6, 1, "4"),
    (1 / 6, 2, "m1"), (1 / 6, 2, "mm"), (1 / 6, 2, "4m"),
    (1 / 12, 3, "mm1"), (1 / 12, 3, "4mm"),
    (1 / 24, 4, "4mm1"),
)

#: N's widest offset from the diagonal: the degree of its longest product.
_BAND = 4

#: Rows per block of a stored step map; each block reads _BLOCK + 2 _BAND
#: rows.  Measured against 1 and 4, which run no faster.
_BLOCK = 2

#: Complex elements of the step maps built at once: memory stays flat in
#: the step count.
_MAP_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``dt`` is a real number (Python or numpy, not bool) in internal time
    units (1/omega) and lies in ``DT_RANGE``, whatever the unit system.
    """

    dt: float = 0.01
    dim: int = 64
    scheme: str = "rk4"

    def __post_init__(self):
        lo, hi = DT_RANGE
        real = isinstance(self.dt, (int, float, np.integer, np.floating))
        if isinstance(self.dt, bool) or not real or not lo <= self.dt <= hi:
            raise ValueError(f"dt must be a real number in [{lo:g}, {hi:g}] internal time "
                             f"units, got {self.dt!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) \
                or self.dim < 2:
            raise ValueError(f"dim must be an integer of at least 2, got {self.dim!r}")
        if self.scheme not in ("rk4", "expmid"):
            raise ValueError("scheme must be 'rk4' or 'expmid'")


def _hamiltonian(rdot: complex, dim: int) -> np.ndarray:
    """H = diag(n + 1/2) - (sqrt 2 / 2)(Rdot* a + Rdot a^dag) in units of
    hbar omega, for Rdot = -i E(t): tridiagonal, with conjugate
    off-diagonals, so exactly Hermitian.  A real Rdot gives the real
    symmetric matrix.  It is filled in place, so a build holds one
    (dim, dim) array."""
    g = -(_SQRT2 / 2.0) * rdot * np.sqrt(np.arange(1.0, dim))
    h = np.zeros((dim, dim), dtype=g.dtype)
    n = np.arange(dim)
    h[n, n] = n + 0.5
    h[n[1:], n[:-1]] = g
    h[n[:-1], n[1:]] = np.conj(g)
    return h


def _spans(w: FieldWaveform, edges) -> list[tuple[float, float]]:
    """Smooth spans (lo, hi) between consecutive edges, each split at the
    waveform's kinks inside it: the oracle's one rule, so no step or panel
    straddles a kink.  Each edge after the first ends a span."""
    kinks = sorted(w.breakpoints())
    cuts = [[lo, *(p for p in kinks if lo < p < hi), hi] for lo, hi in zip(edges[:-1], edges[1:])]
    return [span for c in cuts for span in zip(c[:-1], c[1:])]


def _step_nodes(lo: float, h: float, n: int) -> np.ndarray:
    """The n + 1 knots of n steps of size h from lo, then the n midpoints.

    The knots are accumulated one step at a time (t += h), so every node
    is the float a sequential step loop would evaluate.  Step k runs from
    knot k to knot k + 1 through midpoint n + 1 + k: 2n + 1 nodes, each
    sampled once.
    """
    increments = np.full(n + 1, h)
    increments[0] = lo
    knots = np.cumsum(increments)
    return np.concatenate([knots, knots[:n] + h / 2.0])


def _monomials():
    """N's monomials: how a chunk builds their scalars, and how they group
    by offset.

    Each ``_RK4_TERMS`` product of G = c_a a + c_ad a^dag expands over its
    factors into words of a (which shifts by +1) and a^dag (-1); a word's
    matrix has one diagonal, at the sum of its shifts.  A chunk holds each
    word's product of node coefficients in one row of an array.  Rows 0-5
    are c_a, then c_ad, at the start, midpoint and end node: the words of
    the one-factor terms, two rows each (a, then a^dag).  Every longer
    term is its first node's pair times the words of the term that drops
    that node, itself an earlier term of the table: one outer product,
    into rows of its own.  The last row stays zero.  Returns
    - the chain: per longer term, the rows of its first node, of the term
      it extends and of its own words;
    - each row's weight and power of h (the zero row's are 0);
    - per offset -_BAND ... _BAND, padded to the widest group with the
      zero row, each monomial's row and its letters (1 for a, -1 for
      a^dag, 0 for the 1 that pads a word to _BAND letters).
    """
    words = {x: (slice("1m4".index(x), 6, 3), ((1,), (-1,))) for x in "1m4"}
    chain, count = [], 6
    for nodes in (nodes for _, _, nodes in _RK4_TERMS if len(nodes) > 1):
        suffix, tails = words[nodes[1:]]
        own = slice(count, count + 2 * len(tails))
        count = own.stop
        chain.append((words[nodes[0]][0], suffix, own))
        words[nodes] = (own, tuple((s, *t) for s in (1, -1) for t in tails))
    weight, power = np.zeros(count + 1), np.zeros(count + 1, dtype=int)
    groups = [[] for _ in range(2 * _BAND + 1)]
    for w, p, nodes in _RK4_TERMS:
        rows, letters = words[nodes]
        weight[rows], power[rows] = w, p
        for row, word in zip(range(count)[rows], letters):
            groups[_BAND + sum(word)].append((row, word + (0,) * (_BAND - len(word))))
    width = max(map(len, groups))
    padded = [g + [(count, (0,) * _BAND)] * (width - len(g)) for g in groups]
    slots, letters = (np.array([[m[i] for m in g] for g in padded]) for i in range(2))
    return chain, weight, power, slots, letters


_CHAIN, _WEIGHT, _POWER, _SLOTS, _LETTERS = _monomials()


@functools.lru_cache(maxsize=4)
def _band_table(dim: int) -> np.ndarray:
    """Each monomial's diagonal at this dim, as a (offset, row, slot)
    array over whole row blocks (rows past dim are zero).

    The diagonal is that of the product of the truncated dim x dim
    matrices, which is not the truncation of the infinite product: a
    letter that would step past the last level meets a zero there, so the
    edge rows lose terms.  (L R)[m, m + dL + dR] = L[m, m + dL]
    R[m + dL, m + dL + dR] builds it one letter at a time, left to right,
    in O(dim).
    """
    rows = -(-dim // _BLOCK) * _BLOCK
    # row m + _BAND holds 1, a[m, m + 1] and a^dag[m, m - 1] (letters 0,
    # 1, -1), each zero off the dim x dim matrix
    letter = np.zeros((3, dim + 2 * _BAND))
    letter[0, _BAND : _BAND + dim] = 1.0
    letter[1, _BAND : _BAND + dim - 1] = np.sqrt(np.arange(1.0, dim))
    letter[-1, _BAND + 1 : _BAND + dim] = np.sqrt(np.arange(1.0, dim))
    table = np.zeros((_LETTERS.shape[0], rows, _LETTERS.shape[1]))
    for j, slot in np.ndindex(_LETTERS.shape[:2]):
        offset = 0
        table[j, :dim, slot] = 1.0
        for f in _LETTERS[j, slot]:
            table[j, :dim, slot] *= letter[f, _BAND + offset : _BAND + offset + dim]
            offset += f
    return table


def _step_maps(dim: int, h: float, c_a: np.ndarray, c_ad: np.ndarray, chunk: int):
    """The RK4 step maps N of one span's steps, ``chunk`` steps at a time.

    ``c_a`` and ``c_ad`` are laid out as ``_banded_rk4`` reads them.
    Yields, per chunk, the (offset, row, plane, step) complex array of
    conj(N)[m, m + offset - _BAND] in plane 0 and i conj(N) in plane 1,
    the rows of N's real form; each chunk overwrites the last one's array,
    and the last chunk's steps past the span's end are junk.  The words'
    products are ``_CHAIN``'s outer products of the conjugated node
    coefficients; each monomial's scalar is that product times its weight,
    h to its power and 1 or i, and the bands are one real product of
    ``_band_table`` with the scalars' float view.
    """
    n = len(c_a) // 2
    c_a, c_ad = (np.asarray(c, dtype=complex) for c in (c_a, c_ad))  # no copy if complex
    scale = (_WEIGHT * h**_POWER)[:, None, None] * np.array([1.0, 1j])[:, None]
    table = _band_table(dim)
    words = np.zeros((len(_WEIGHT), chunk), dtype=complex)
    chain = [(words[first, None], words[suffix], words[own].reshape(2, -1, chunk))
             for first, suffix, own in _CHAIN]
    scaled = np.empty((len(_WEIGHT), 2, chunk), dtype=complex)
    planes = np.empty((*_SLOTS.shape, 2, chunk), dtype=complex)
    bands = np.empty((len(table), table.shape[1], 4 * chunk))
    # the start, midpoint and end node of each step of the chunk at 0
    nodes = np.arange(chunk) + np.array([0, n + 1, 1])[:, None]
    for lo in range(0, n, chunk):
        at = nodes + lo
        c_a.take(at, out=words[0:3], mode="clip")
        c_ad.take(at, out=words[3:6], mode="clip")
        np.conjugate(words[:6], out=words[:6])
        for first, suffix, own in chain:
            np.multiply(first, suffix, out=own)
        np.multiply(words[:, None], scale, out=scaled)
        scaled.take(_SLOTS, axis=0, out=planes)
        np.matmul(table, planes.reshape(len(table), -1, 2 * chunk).view(float), out=bands)
        yield bands.view(complex).reshape(len(table), -1, 2, chunk)


def _banded_rk4(u: np.ndarray, spans) -> None:
    """Advance the column block u in place by RK4 on dW/dt = G W.

    G = c_a a + c_ad a^dag.  ``spans`` holds one (h, c_a, c_ad) per smooth
    span: its step size and the two coefficients at the nodes of its n
    steps, laid out as ``_step_nodes`` lays out the times (2n + 1 values
    each: step k reads knot k, midpoint n + 1 + k and knot k + 1).

    A classical RK4 step of this linear equation is the linear map
    u <- u + N u, with N the degree-4 polynomial in G at the step's
    start, midpoint and end nodes that ``_RK4_TERMS`` declares.  a and
    a^dag are single off-diagonals, so N is banded to offsets -_BAND ...
    _BAND.  The product runs in real form: the column block is stored as
    real rows, Re u[m] then Im u[m], and each map as row blocks of
    _BLOCK rows, block b the real matrix [[Re N, -Im N], [Im N, Re N]]
    on the _BLOCK + 2 _BAND rows from row _BLOCK b - _BAND on.  That is
    one small dgemm per block, two to three times as fast as a zgemm of
    complex blocks with as many flops.  ``_step_maps`` gives the
    rows of a chunk of steps at once, conj(N) and i conj(N), whose float
    view is exactly that real matrix; a chunk holds about
    ``_MAP_ELEMENTS`` complex map elements, so memory stays flat in the
    step count.  The column block sits between _BAND zero rows on each
    side, so a step is two numpy calls and no temporaries:
    - one batched matmul of the map's blocks with an overlapping-window
      view of one padded buffer, written into the other buffer;
    - one add of the old block.
    The identity stays out of N.  On a steady drive N's diagonal is about
    the same small number on every step, and 1 + it would round the same
    way each time: 5e-14 from an extended-precision RK4 after 1000 steps
    at dim 64, against 3e-15 this way, the stage-by-stage run's floor.
    A span whose coefficients are all exactly zero has G = 0, so each of
    its steps is the identity; it is skipped.
    """
    dim, cols = u.shape
    blocks = -(-dim // _BLOCK)
    rows = blocks * _BLOCK
    width = _BLOCK + 2 * _BAND
    chunk = max(1, _MAP_ELEMENTS // (blocks * _BLOCK * 2 * width))
    maps = np.zeros((chunk, blocks, _BLOCK, 2, width), dtype=complex)
    step_s, block_s, row_s, plane_s, col_s = maps.strides
    bands = np.lib.stride_tricks.as_strided(
        maps, (2 * _BAND + 1, blocks, _BLOCK, 2, chunk),
        (col_s, block_s, row_s + col_s, plane_s, step_s)
    )
    real_maps = maps.view(float).reshape(chunk, blocks, 2 * _BLOCK, 2 * width)
    pads = [np.zeros((rows + 2 * _BAND, 2, cols)) for _ in range(2)]
    pads[0][_BAND : _BAND + dim, 0] = u.real
    pads[0][_BAND : _BAND + dim, 1] = u.imag
    windows = [
        np.lib.stride_tricks.as_strided(
            p, (blocks, 2 * width, cols), (_BLOCK * p.strides[0], *p.strides[1:])
        )
        for p in pads
    ]
    outs = [p[_BAND : _BAND + rows].reshape(blocks, 2 * _BLOCK, cols) for p in pads]
    src = 0
    for h, c_a, c_ad in spans:
        if not (c_a.any() or c_ad.any()):
            continue
        n = len(c_a) // 2
        for lo, chunk_bands in zip(range(0, n, chunk), _step_maps(dim, h, c_a, c_ad, chunk)):
            bands[...] = chunk_bands.reshape(bands.shape)
            for step_map in real_maps[: n - lo]:
                dst = 1 - src
                np.matmul(step_map, windows[src], out=outs[dst])
                np.add(outs[dst], outs[src], outs[dst])
                src = dst
    u.real = pads[src][_BAND : _BAND + dim, 0]
    u.imag = pads[src][_BAND : _BAND + dim, 1]


def _expmid_step(u: np.ndarray, h: float, r: complex, lam: np.ndarray, v: np.ndarray):
    """exp(-i h H(r)) u, given H(|r|) = V diag(lam) V^T.

    The drive's phase is a rotation generated by the number operator:
    H(r) = P H(|r|) P^dag with P = diag(e^{i m arg r}), so the step is
    P V e^{-i h Lambda} V^T P^dag u.  V is real, so both products run on
    float64 views of the complex blocks, as real matrix products.  Beside
    u, at most two blocks are alive at once.
    """
    p = np.exp(1j * math.atan2(r.imag, r.real) * np.arange(len(lam)))[:, None]
    y = (v.T @ (np.conj(p) * u).view(float)).view(complex)
    y *= np.exp(-1j * h * lam)[:, None]
    y = (v @ y.view(float)).view(complex)
    y *= p
    return y


def integrate_schrodinger(
    sys: PhysicalSystem, w: FieldWaveform, t_final: float, cfg: IntegratorConfig
) -> np.ndarray:
    """Leading columns of the evolution operator U(t_final, 0), ladder sector.

    Returns the read-only (dim, dim // 2) complex array U[:, :dim // 2]:
    the leading-half block every oracle check reads.  Both schemes start
    from those columns of the identity, and each column evolves on its
    own, so they equal the matching columns of a full-square run.

    Both schemes read one span list: each span holds Rdot at the 2n + 1
    nodes of its n steps (``_step_nodes``: the n + 1 knots a running
    t += h produces, then the n midpoints), from one vectorized field
    call.  Steps never straddle kinks.
    rk4 integrates the rotating-frame equation dW/dt = G(t) W with
    G(t) = (i k / 2)(Rdot* e^{-i omega t} a + Rdot e^{i omega t} a^dag),
    banded, by ``_banded_rk4`` (which skips a span where G is exactly
    zero), and restores the static phases exactly at the end.  expmid
    multiplies the midpoint exponentials exp(-i h H(t + h/2)) of the full
    Hamiltonian, each P V e^{-i h Lambda} V^T P^dag by ``_expmid_step``,
    from numpy's ``eigh`` of the real H(|Rdot|).  That decomposition is
    memoized for the call, keyed by the exact |Rdot| float and bounded to
    ``_EIGH_MEMO`` entries, so a repeated value reuses the very matrices
    eigh would recompute.  expmid skips a zero-length span (t_final = 0),
    so, like rk4, it then returns the identity's columns exactly.

    Raises DomainError unless t_final is finite and t_final >= 0, in user
    and in internal time units (the drive path's rule and message), and
    AccuracyError when the columns put more than 1e-4 of probability on
    the truncation edge (or are not finite): past that point the basis is
    too small for the drive and the result is junk.
    """
    t_i = _internal_times(sys, _endpoint_grid(t_final))[-1]
    w_i = internalize(sys, w)[0]
    dim = cfg.dim
    u_mat = np.eye(dim, dim // 2, dtype=complex)

    spans = []
    for lo, hi in _spans(w_i, [0.0, t_i]):
        n = max(1, math.ceil((hi - lo) / cfg.dt))
        h = (hi - lo) / n
        nodes = _step_nodes(lo, h, n)
        spans.append((h, nodes, -1j * np.asarray(w_i.field(nodes), dtype=complex)))

    if cfg.scheme == "rk4":
        _banded_rk4(u_mat, [(h, (0.5j * _SQRT2) * (np.conj(rdot) * np.exp(-1j * nodes)),
                             (0.5j * _SQRT2) * (rdot * np.exp(1j * nodes)))
                            for h, nodes, rdot in spans])
        phases = np.exp(-1j * (np.arange(dim) + 0.5) * t_i)
        u_mat = phases[:, None] * u_mat
    else:
        eigh_real = functools.lru_cache(maxsize=_EIGH_MEMO)(
            lambda mod: np.linalg.eigh(_hamiltonian(mod, dim))
        )
        for h, nodes, rdot in spans:
            if h == 0.0:
                continue
            n = len(nodes) // 2
            for r in rdot[n + 1 :]:
                u_mat = _expmid_step(u_mat, h, r, *eigh_real(float(abs(r))))

    edge = float(np.max(np.abs(u_mat[-2:])))
    if not edge * edge <= _EDGE_PROBABILITY:
        raise AccuracyError(
            f"truncation health violated: leading-block columns reach the "
            f"basis edge with probability {edge * edge:.3g} at dim = {dim}; "
            f"increase the truncation",
            achieved=edge * edge,
        )
    u_mat.setflags(write=False)
    return u_mat


@functools.cache
def _gauss_legendre_8_16():
    """numpy's 8- and 16-point Gauss-Legendre (nodes, weights), computed
    once per process on first use: importing ``numpy.polynomial`` is left
    out of the package import."""
    return tuple(np.polynomial.legendre.leggauss(order) for order in (8, 16))


def _field_integrals(w_i: FieldWaveform, edges, integrand) -> np.ndarray:
    """Integrals of integrand(s, E(s)) from edges[0] to each later edge, in
    internal units.

    Gauss-Legendre rules from numpy, shared with no production integral,
    on panels that split ``_spans``' spans into pieces of at most pi/4 of
    phase at rate + 1.  Each rule calls the field once, at its nodes on
    every panel, and a running sum of the panels reads the integral at
    each edge.  The 8- and 16-point rules must agree to 1e-12 at every
    edge, else AccuracyError; the 16-point values are returned.
    """
    max_panel = math.pi / (4.0 * (1.0 + w_i.rate()))
    cuts = [np.linspace(lo, hi, max(1, math.ceil((hi - lo) / max_panel)) + 1)
            for lo, hi in _spans(w_i, edges)]
    lo = np.concatenate([c[:-1] for c in cuts])
    hi = np.concatenate([c[1:] for c in cuts])
    ends = np.searchsorted(hi, edges[1:])  # the last panel up to each later edge
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    values = []
    for x, weights in _gauss_legendre_8_16():
        s = mid[:, None] + half[:, None] * x
        e = np.asarray(w_i.field(s.ravel()), dtype=complex).reshape(s.shape)
        values.append(np.cumsum(half * (integrand(s, e) @ weights))[ends])
    err = float(np.max(np.abs(values[1] - values[0])))
    if err > 1e-12:
        raise AccuracyError(
            f"oracle field integral: 8- and 16-point rules differ by {err:.3g} > 1e-12",
            achieved=err,
        )
    return values[1]


def heisenberg_residual(
    u_cols: np.ndarray, sys: PhysicalSystem, w: FieldWaveform, t: float
) -> float:
    """Deviation of U^dag a U from a e^{-i omega t} + c(t) I.

    ``u_cols`` holds U's leading columns, a (dim, b) block with b <= dim
    such as ``integrate_schrodinger`` returns; the leading b x b block of
    U^dag a U is U[:, :b]^dag a U[:, :b].  The scalar c(t) = (i/k)
    e^{-i omega t} * integral of e^{i omega s} Rdot(s) ds is the driven
    part of the ladder operator's Heisenberg solution, evaluated here by
    independent quadrature.  The maximum entry deviation over that b x b
    block is returned; DomainError unless t is finite and t >= 0, in user
    and in internal time units, as for ``integrate_schrodinger``.
    """
    u = np.asarray(u_cols)
    if u.ndim != 2 or not 0 < u.shape[1] <= u.shape[0]:
        raise ValueError("u_cols must be a (dim, b) block of columns with b <= dim")
    t_i = _internal_times(sys, _endpoint_grid(t))[-1]
    w_i = internalize(sys, w)[0]
    b = u.shape[1]
    a = ladder_ops(u.shape[0])[0].matrix
    drive = _field_integrals(w_i, [0.0, t_i], lambda s, e: np.exp(1j * s) * (-1j * e))[-1]
    sigma = 1j * np.exp(-1j * t_i) * drive / _SQRT2
    lhs = u.conj().T @ a @ u
    rhs = a[:b, :b] * np.exp(-1j * t_i) + sigma * np.eye(b)
    return float(np.max(np.abs(lhs - rhs)))


def guiding_center_residual(sys: PhysicalSystem, w: FieldWaveform, t_grid) -> float:
    """Gap between the integrated orbit-center drift and the R path.

    The center of orbit moves by dw/dt = E in complex internal form, so
    its drift to each grid time is the integral of E from 0, which the
    oracle's Gauss-Legendre engine gives (its 8- and 16-point rules agree
    to 1e-12, else AccuracyError).  That drift is compared, at every grid
    time, against ``build_drive_path``'s R, taken to internal units
    (reflected for a mirrored system), which predicts it as i R(t).
    ``build_drive_path`` also checks the grid.
    """
    dp = build_drive_path(sys, w, t_grid)
    if dp.times.size < 2:
        return 0.0
    w_i, scales, mirrored = internalize(sys, w)
    wc = _field_integrals(w_i, _internal_times(sys, dp.times), lambda s, e: e)
    r_i = dp.r[1:] / scales.length
    if mirrored:
        r_i = np.conj(r_i)
    return float(np.max(np.abs(wc - 1j * r_i)))


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    waveform: FieldWaveform
    t_final: float


def _random_sampled(sys: PhysicalSystem, seed: int = 20260808) -> SampledField:
    """Deterministic smooth random field, tabulated for interpolation."""
    scales = sys.internal_scales()
    rng = np.random.default_rng(seed)
    n_modes = 4
    amps = 0.02 + 0.03 * rng.random(n_modes)
    freqs = 0.1 + 0.4 * rng.random(n_modes)
    phases = 2.0 * math.pi * rng.random(n_modes)
    signs = rng.choice([-1.0, 1.0], n_modes)
    times_i = np.arange(-1, 53) * 0.2
    e = np.zeros(times_i.size, dtype=complex)
    for amp, fr, ph, sg in zip(amps, freqs, phases, signs):
        e += amp * np.exp(1j * (ph + sg * fr * times_i))
    return SampledField(times_i * scales.time, e.real * scales.field, e.imag * scales.field)


def validation_corpus(sys: PhysicalSystem) -> list[CorpusEntry]:
    """Waveform suite exercising every variant and the resonance.

    Drive rotation signs follow the charge: a negative charge cyclotron-
    rotates the other way, so its resonant field has nu = -omega.
    """
    scales = sys.internal_scales()
    f0, tau = scales.field, scales.time
    sign = -1.0 if sys.mirrored else 1.0
    t10 = 10.0 * tau
    return [
        CorpusEntry("zero", ZeroField(), t10),
        CorpusEntry(
            "constant",
            ConstantField(0.05 * f0 * math.cos(0.4), 0.05 * f0 * math.sin(0.4)),
            t10,
        ),
        CorpusEntry(
            "linear_sinusoid",
            LinearSinusoidField(0.08 * f0, 0.3, 0.6 / tau, 0.4),
            t10,
        ),
        CorpusEntry("rotating_off", RotatingField(0.10 * f0, sign * 0.7 / tau), t10),
        CorpusEntry("rotating_near", RotatingField(0.05 * f0, sign * 0.97 / tau), t10),
        CorpusEntry("rotating_resonant", RotatingField(0.06 * f0, sign * 1.0 / tau), t10),
        CorpusEntry("sampled_random", _random_sampled(sys), t10),
    ]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    details: dict


def _factorized_block(sys: PhysicalSystem, w: FieldWaveform, t: float, dim: int) -> np.ndarray:
    """The factorized U's leading half block at this dim: the dynamical
    phases times the closed-form level-mixing operator J."""
    half = dim // 2
    phases = np.exp(-1j * (np.arange(half) + 0.5) * (sys.omega * t))
    return phases[:, None] * assemble(sys, w, t, dim=dim).j_op.matrix[:half, :half]


def _factorization(sys: PhysicalSystem, w: FieldWaveform, t: float, cfg: IntegratorConfig,
                   u_fac: np.ndarray | None = None):
    """U's leading columns by ``cfg``, and their largest gap from the
    factorized U on the leading half block.  ``u_fac`` is that block
    (``_factorized_block`` at ``cfg.dim``), built here unless given, so
    runs of one drive at several step sizes share one."""
    u_cols = integrate_schrodinger(sys, w, t, cfg)
    if u_fac is None:
        u_fac = _factorized_block(sys, w, t, cfg.dim)
    return u_cols, float(np.max(np.abs(u_cols[: cfg.dim // 2] - u_fac)))


def _bounded(name: str, value: float, tolerance: float, details: dict) -> CheckResult:
    """A check that passes when its value is below its tolerance."""
    return CheckResult(name, value, tolerance, value < tolerance, details)


def run_validation(
    sys: PhysicalSystem,
    *,
    dim: int = 64,
    dt: float = 0.01,
) -> list[CheckResult]:
    """Full residual suite over the validation corpus.

    Each corpus entry gives one table of (kind, value, tolerance, details)
    rows, each a ``kind[entry]`` check that passes when value < tolerance:
    the factorization residual (numerical evolution vs dynamical phases
    times closed-form mixing operator, leading half block), the
    ladder-operator Heisenberg residual, the unitarity defect and the
    orbit-center drift residual.  Then come the resonance-survival exponent
    adjudication, an RK4 order measurement and a cross-integrator check.
    The comparison block stays in the leading half so the oracle retains
    truncation headroom over everything it certifies.  The layer functions
    are looked up when they run, so a wrapper set on this module sees every
    call.
    """
    checks: list[CheckResult] = []
    corpus = {entry.name: entry for entry in validation_corpus(sys)}
    cfg = IntegratorConfig(dt=dt, dim=dim)
    u_cols = {}
    for name, entry in corpus.items():
        w, t = entry.waveform, entry.t_final
        u_cols[name], resid = _factorization(sys, w, t, cfg)
        rows = (
            ("factorization", resid, 1e-6, {"dt": dt, "dim": dim}),
            ("heisenberg", heisenberg_residual(u_cols[name], sys, w, t), 1e-6, {}),
            ("unitarity", column_unitarity_defect(u_cols[name]), 1e-7, {}),
            ("guiding_center",
             guiding_center_residual(sys, w, np.linspace(0.0, t, 21)), 1e-9, {}),
        )
        checks += [_bounded(f"{kind}[{name}]", *row) for kind, *row in rows]

    # Resonance survival: exponent prefactor 1/2 must match the integrator,
    # the prefactor-2 variant must not.
    resonant = corpus["rotating_resonant"]
    e0 = resonant.waveform.amplitude
    surv_num = float(abs(u_cols["rotating_resonant"][0, 0]) ** 2)
    surv_half = resonance_survival(sys, e0, resonant.t_final)
    surv_two = resonance_survival_alt_prefactor(sys, e0, resonant.t_final)
    dev_half = abs(surv_num - surv_half)
    dev_two = abs(surv_num - surv_two)
    checks.append(
        CheckResult(
            "resonance_survival_prefactor",
            dev_half,
            1e-6,
            dev_half < 1e-6 and dev_two > 100.0 * max(dev_half, 1e-12),
            {
                "integrator_survival": surv_num,
                "half_prefactor_survival": surv_half,
                "two_prefactor_survival": surv_two,
                "half_prefactor_deviation": dev_half,
                "two_prefactor_deviation": dev_two,
                "adjudication": "exponent prefactor 1/2 matches the integrator",
            },
        )
    )

    scales = sys.internal_scales()
    sign = -1.0 if sys.mirrored else 1.0
    probe = RotatingField(0.18 * scales.field, sign * 0.95 / scales.time)
    probe_dim = max(dim, 48)  # the probe drive reaches k|u| ~ 1.3
    t_probe = 10.0 * scales.time
    probe_fac = _factorized_block(sys, probe, t_probe, probe_dim)
    resids = {
        dti: _factorization(
            sys, probe, t_probe, IntegratorConfig(dt=dti, dim=probe_dim), probe_fac
        )[1]
        for dti in (0.01, 0.02, 0.04)
    }
    ratios = (resids[0.02] / resids[0.01], resids[0.04] / resids[0.02])
    ok = all(9.0 < r < 28.0 for r in ratios)
    checks.append(
        CheckResult("rk4_convergence_order", min(ratios), 16.0, ok,
                    {"residuals": resids, "ratios": ratios})
    )

    off = corpus["rotating_off"]
    cfg = IntegratorConfig(dt=0.02, dim=48, scheme="expmid")
    resid = _factorization(sys, off.waveform, off.t_final, cfg)[1]
    checks.append(_bounded("scheme_crosscheck[expmid]", resid, 1e-3, {"dt": 0.02}))

    return checks
