"""Drive amplitude u(t), geometric phases, and enclosed-area machinery.

The ingredients assembled here:

* u(t) = (i/2) * integral of e^{-i omega s} dR*/ds over [0, t], equivalently
  -(c/2B) * integral of e^{-i omega s} E*(s) ds,
* beta = -(qB/hbar c) * S(R-path),  gamma = -(qB/hbar c) * 4 * S(u-path),
  where S is the signed area enclosed by a path and the straight chord from
  its end point back to its start,
* two routes to them, which ``build_drive_path`` names in its
  provenance: "exact" for every waveform whose field is, on each step
  between knots, a sum of monomials c tau^k e^{i lambda tau} with k = 0
  or 1 (``FieldWaveform.step_terms``: every built-in waveform), and
  "quadrature", a refined-grid numeric route kept as its cross-check,
* one sampler, ``_drive_samples``, that checks the grid (finite, strictly
  increasing, from 0) and sends many waveforms down those routes at
  once: ``build_drive_path`` reads its one row for one waveform and
  ``drive_endpoints`` its last column for many.

Everything runs in dimensionless internal units (omega = l_b = 1,
k = sqrt(2)) and converts at the boundary, so the default absolute
tolerances below are meaningful regardless of the user's unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._expsum import eps0, eps1
from .errors import AccuracyError, DomainError
from .field_model import FieldWaveform, PhysicalSystem, _ExpSumField, internalize

__all__ = [
    "signed_area",
    "magnetic_phase",
    "coherent_phase",
    "displacement_amplitude",
    "DrivePath",
    "build_drive_path",
    "DriveEndpoints",
    "drive_endpoints",
]

DEFAULT_ABS_TOL = 1e-10

#: Drive-path routes a caller may ask for.
_METHODS = ("auto", "quadrature")

# 5-point Gauss-Legendre rule, used for cumulative integrals on fine grids.
_XG5 = np.array([
    -0.906179845938664, -0.538469310105683, 0.0,
    0.538469310105683, 0.906179845938664,
])
_WG5 = np.array([
    0.236926885056189, 0.478628670499366, 0.568888888888889,
    0.478628670499366, 0.236926885056189,
])

# 10-point Gauss-Legendre rule, used for the step table of the exact route.
_XG10 = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
])
_WG10 = np.array([
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287, 0.29552422471475287,
    0.26926671930999635, 0.21908636251598204, 0.1494513491505806,
    0.06667134430868814,
])

#: Elements of the largest temporary per block of step lengths in
#: ``_step_table``, and of the monomials per run of steps in
#: ``_exact_samples``.
_STEP_BLOCK_ELEMENTS = 1 << 15


def signed_area(points) -> float:
    """Shoelace area of the polyline through ``points`` plus the chord
    closing it back to the first point; sign follows the right-hand rule
    about e3 (counterclockwise positive)."""
    z = np.asarray(points, dtype=complex).ravel()
    if z.size < 2:
        return 0.0
    return 0.5 * float(np.sum(np.imag(np.conj(z) * np.roll(z, -1))))


def _require_origin_start(path) -> np.ndarray:
    z = np.asarray(path, dtype=complex).ravel()
    if z.size == 0:
        return z
    scale = float(np.max(np.abs(z)))
    if abs(z[0]) > 1e-9 * max(scale, 1e-300):
        raise ValueError("path must start at the origin")
    return z


def magnetic_phase(sys: PhysicalSystem, r_path) -> float:
    """Geometric phase of a magnetic translation along the given R path.

    beta = -(qB/hbar c) * S, with S the signed area enclosed by the path
    and the closing chord; for a closed loop this is -q*flux/(hbar c).
    """
    z = _require_origin_start(r_path)
    return -sys.area_phase * signed_area(z)


def coherent_phase(sys: PhysicalSystem, u_path) -> float:
    """Numerical phase of the level-mixing factor along the given u path:
    gamma = -(qB/hbar c) * 4 * S(u-path)."""
    z = _require_origin_start(u_path)
    return -4.0 * sys.area_phase * signed_area(z)


def displacement_amplitude(
    sys: PhysicalSystem,
    w: FieldWaveform,
    t: float,
    *,
    method: str = "auto",
    abs_tol: float = DEFAULT_ABS_TOL,
) -> complex:
    """Oscillatory drive amplitude u(t) = -(c/2B) int_0^t e^{-i omega s} E*(s) ds.

    The end value of ``build_drive_path`` on the grid [0, t], read by
    ``drive_endpoints`` (DomainError unless t is finite and t >= 0), with
    the same ``method`` and so the same route: exact, or quadrature on
    request.
    """
    return complex(drive_endpoints(sys, [w], t, method=method, abs_tol=abs_tol).u[0])


@dataclass(frozen=True)
class DrivePath:
    """Sampled drive history: R, u, accumulated phases, and signed areas.

    Invariants held by construction and checked in the test suite:
    r[0] = u[0] = 0, beta = -(qB/hbar c) * area_r pointwise, and
    gamma = -(qB/hbar c) * 4 * area_u pointwise.
    """

    times: np.ndarray
    r: np.ndarray
    u: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    area_r: np.ndarray
    area_u: np.ndarray
    provenance: str

    def __post_init__(self):
        for arr in (self.times, self.r, self.u, self.beta, self.gamma,
                    self.area_r, self.area_u):
            arr.setflags(write=False)


def _refined_grid(t_grid: np.ndarray, w: FieldWaveform, step: float, level: int = 0):
    """Fine grid through every user node and waveform breakpoint.

    Each smooth span [a, b] gets n = 4^level n0 equal substeps, n0 the
    least multiple of four (at least four) that keeps them no wider than
    ``step``; so each level splits every span, however short, four times
    finer than the last, and the half- and quarter-resolution subsets
    share all span boundaries with the fine grid.  Its nodes are
    a + k (b - a)/n for k = 1 .. n with the last set to b, which is
    ``np.linspace``'s own arithmetic, built for all spans at once.
    """
    lo, hi = t_grid[0], t_grid[-1]
    cuts = np.asarray(w.breakpoints(), dtype=float)
    edges = np.unique(np.concatenate([t_grid, cuts[(lo < cuts) & (cuts < hi)]]))
    a, b = edges[:-1], edges[1:]
    counts = np.maximum(4.0, 4.0 * np.ceil((b - a) / (4.0 * step))) * 4.0**level
    total = counts.sum()
    if total > 4_000_000:
        raise AccuracyError("drive-path refinement grid exceeds 4e6 nodes")
    counts = counts.astype(np.int64)
    ends = np.cumsum(counts)
    # k = 1 .. n within each span
    k = np.arange(1, int(total) + 1) - np.repeat(ends - counts, counts)
    nodes = np.empty(k.size + 1)
    nodes[0] = edges[0]
    nodes[1:] = k * np.repeat((b - a) / counts, counts) + np.repeat(a, counts)
    nodes[ends] = b
    idx = np.concatenate([[0], ends])[np.searchsorted(edges, t_grid)]
    return nodes, idx


def _running(increments: np.ndarray, start=None) -> np.ndarray:
    """Running sum along the last axis from ``start`` (0 when None): one
    entry more than it has, each the one before plus the next increment."""
    if start is not None:
        return np.cumsum(np.concatenate([start[..., None], increments], axis=-1), axis=-1)
    # not a start of 0.0: 0.0 + -0.0 would turn a first increment of -0.0 into 0.0
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,),
                   dtype=increments.dtype)
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def _cumulative_gl5(f, nodes: np.ndarray) -> np.ndarray:
    """Running integral of f over a fine grid, one 5-point Gauss rule per step."""
    a = nodes[:-1]
    h = np.diff(nodes)
    pts = a[:, None] + (h[:, None] / 2.0) * (_XG5[None, :] + 1.0)
    vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(pts.shape)
    return _running((h / 2.0) * (vals @ _WG5))


def _cumulative_shoelace(z: np.ndarray) -> np.ndarray:
    """Running enclosed area of a path that starts at the origin."""
    return _running(0.5 * np.imag(np.conj(z[:-1]) * z[1:]))


def _extrapolated_area(z: np.ndarray, idx: np.ndarray):
    """Richardson-extrapolated running area at ``idx`` with error estimate.

    The polyline shoelace carries an O(h^2) defect; extrapolating the fine
    grid against its half-rate subset removes it.  The gap between that
    extrapolant and the one from the (2h, 4h) pair bounds what is left.
    """
    s1 = _cumulative_shoelace(z)[idx]
    s2 = _cumulative_shoelace(z[::2])[idx // 2]
    s4 = _cumulative_shoelace(z[::4])[idx // 4]
    best = (4.0 * s1 - s2) / 3.0
    coarse = (4.0 * s2 - s4) / 3.0
    return best, float(np.max(np.abs(best - coarse)))


def _quadrature_path_samples(
    w_i: FieldWaveform, t_i: np.ndarray, abs_tol: float
):
    """R, u, S_R, S_u at the requested internal times, by grid numerics.

    R and u accumulate per-substep Gauss panels; areas come from the
    polyline shoelace on the fine grid with Richardson extrapolation.
    """
    step = 0.02 / (1.0 + w_i.rate())
    err = math.inf
    for level in range(4):
        nodes, idx = _refined_grid(t_i, w_i, step, level)
        r_fine = _cumulative_gl5(lambda s: -1j * w_i.field(s), nodes)
        u_fine = _cumulative_gl5(
            lambda s: -0.5 * np.exp(-1j * s) * np.conj(w_i.field(s)), nodes
        )
        sr, err_r = _extrapolated_area(r_fine, idx)
        su, err_u = _extrapolated_area(u_fine, idx)
        err = max(err_r, err_u)
        if err <= abs_tol:
            return r_fine[idx], u_fine[idx], sr, su
    raise AccuracyError(
        f"enclosed-area refinement stalled above abs_tol={abs_tol:g}",
        achieved=err,
    )


def _monomials(powers, kappa, tau):
    """tau^k e^{i kappa tau} and its integral E(tau) over [0, tau] for each
    monomial (axis -2) at each tau (axis -1)."""
    kappa, tau = kappa[..., :, None], tau[..., None, :]
    value, integral = np.exp(1j * (kappa * tau)), eps0(kappa, tau)
    if np.any(powers):
        linear = powers[:, None] == 1
        value = np.where(linear, tau * value, value)
        integral = np.where(linear, eps1(kappa, tau), integral)
    return value, integral


def _shifted(x, d, lag, linear, axis):
    """D x along monomial axis ``axis`` of x, D the shift of the monomials
    by ``lag``: tau^k e^{i kappa tau} at tau + lag is d = e^{i kappa lag}
    times itself, plus lag d times its power-0 partner when k = 1."""
    if np.any(linear):
        x = np.where(linear, x + lag * np.roll(x, 1, axis=axis), x)
    return d * x


def _step_table(h: np.ndarray, powers: np.ndarray, kappa: np.ndarray):
    """E_m(h) and K_nm(h) for each distinct step length h (last axis).

    E_m(h) is the integral of monomial m, tau^{k_m} e^{i kappa_m tau}, over
    [0, h], and K_nm(h) the integral over [0, h] of conj(E_n(tau)) times
    monomial m.  K is a 10-point Gauss rule on h / 2^p, p the least count
    with 2 max|kappa| h / 2^p <= 4, then p exact doublings

        K(2L) = K(L) + conj(D) K(L) D^T + conj(E(L)) (D E(L))^T

    with D the shift by L (``_shifted``).  Leading axes of ``kappa`` are
    separate waveforms, each with its own p.  Every step's E and K depend
    on that step alone, so the steps go in blocks whose temporaries hold
    about ``_STEP_BLOCK_ELEMENTS`` elements each, written into the result.
    """
    lead, size = kappa.shape[:-1], kappa.shape[-1]
    e = np.empty(lead + (size, h.size), complex)
    k = np.empty(lead + (size, size, h.size), complex)
    width = max(1, _STEP_BLOCK_ELEMENTS // max(1, kappa.size * max(size, _WG10.size)))
    for start in range(0, h.size, width):
        block = slice(start, start + width)
        e[..., block], k[..., block] = _step_block(h[block], powers, kappa)
    return e, k


def _step_block(h, powers, kappa):
    """``_step_table`` for one block of step lengths, in one pass."""
    linear = powers == 1
    fastest = np.max(np.abs(kappa), axis=-1, initial=0.0)[..., None]
    base = np.broadcast_to(h, fastest.shape[:-1] + h.shape)
    doublings = np.zeros(base.shape, dtype=int)
    while np.any(too_long := 2.0 * fastest * base > 4.0):
        base = np.where(too_long, base / 2.0, base)
        doublings += too_long
    nodes = base[..., None] * ((_XG10 + 1.0) / 2.0)
    value, integral = (x.reshape(x.shape[:-1] + nodes.shape[-2:]) for x in
                       _monomials(powers, kappa, nodes.reshape(base.shape[:-1] + (-1,))))
    k = 0.0
    for g, weight in enumerate(_WG10):
        k = k + weight * np.conj(integral[..., :, None, :, g]) * value[..., None, :, :, g]
    k = k * (base / 2.0)[..., None, None, :]
    for level in range(int(doublings.max(initial=0))):
        lag = base * 2.0**level
        e = _monomials(powers, kappa, lag)[1]
        d = np.exp(1j * (kappa[..., :, None] * lag[..., None, :]))
        right = _shifted(k, d[..., None, :, :], lag[..., None, None, :], linear[:, None], -2)
        doubled = (k + _shifted(right, np.conj(d)[..., :, None, :], lag[..., None, None, :],
                                linear[:, None, None], -3)
                   + np.conj(e)[..., :, None, :]
                   * _shifted(e, d, lag[..., None, :], linear[:, None], -2)[..., None, :, :])
        k = np.where((doublings > level)[..., None, None, :], doubled, k)
    return _monomials(powers, kappa, np.broadcast_to(h, base.shape))[1], k


def _exact_path(b, e, k, inverse, z0=None, s0=None):
    """z and its running enclosed area at every knot of a run of steps,
    for a path with z' = sum_m b_m tau^{k_m} e^{i kappa_m tau} on each
    step; ``e`` and ``k`` are ``_step_table``'s E and K for these
    monomials, and ``inverse`` maps each step to its length in them.  The
    run starts at z0 with area s0, or at the origin with area 0 when they
    are None.

    Each step adds dz = sum_m b_m E_m(h) and the area
    (1/2) Im(conj(z_a) dz + sum_nm conj(b_n) b_m K_nm(h)), where
    K_nm + conj(K_mn) = conj(E_n) E_m leaves one product per pair n < m.
    """
    be = b * np.take(e, inverse, axis=-1)
    # summed one monomial after the other: numpy's own sum over an axis
    # may group the terms differently for a stack of waveforms
    dz = np.zeros(be.shape[:-2] + be.shape[-1:], complex)
    for m in range(b.shape[-2]):
        dz += be[..., m, :]
    z = _running(dz, z0)
    twice = np.imag(np.conj(z[..., :-1]) * dz)
    for n in range(b.shape[-2]):
        bn = np.conj(b[..., n, :])
        twice += (bn * b[..., n, :]).real * np.take(k[..., n, n, :].imag, inverse, axis=-1)
        for m in range(n + 1, b.shape[-2]):
            knm = np.take(k[..., n, m, :], inverse, axis=-1)
            twice += (2.0 * np.imag(bn * b[..., m, :] * knm)
                      + np.imag(np.conj(be[..., m, :]) * be[..., n, :]))
    return z, _running(0.5 * twice, s0)


def _exact_samples(terms, knots, idx):
    """R, u, S_R, S_u at ``knots[idx]`` (``idx`` increasing) for an
    internal-unit field whose step monomials on the steps between a run of
    knots are ``terms(run)`` (``FieldWaveform.step_terms``), exact up to
    rounding; None when ``terms`` gives None.

    With omega = 1, R' = -i E keeps each monomial's rate, and
    u' = -(1/2) e^{-is} conj(E) turns c tau^k e^{i lambda tau} on the step
    from a into -(1/2) e^{-ia} conj(c) tau^k e^{-i (1 + lambda) tau}.
    Leading axes of the coefficients and rates are separate waveforms.
    One step table for every distinct step length serves both paths: their
    rates are stacked on a new leading axis, R's first.  The knots are
    walked in runs of steps whose monomials hold about
    ``_STEP_BLOCK_ELEMENTS`` elements; z and the running area of both paths
    carry over from one run to the next, so each is the same sequence of
    additions as over all steps at once, and the samples are gathered run
    by run.
    """
    probe = terms(knots[:2])
    if probe is None:
        return None
    _, powers, rates = probe
    steps, inverse = np.unique(np.diff(knots), return_inverse=True)
    e, k = _step_table(steps, powers, np.stack([rates, -(1.0 + rates)]))
    out = [np.empty(rates.shape[:-1] + (len(idx),), kind)
           for kind in (complex, complex, float, float)]
    carry = [None] * 4  # R, S_R, u, S_u at the first knot of the run
    width = max(1, _STEP_BLOCK_ELEMENTS // max(1, rates.size))
    for lo in range(0, max(1, knots.size - 1), width):
        run = knots[lo:lo + width + 1]
        coef, block = terms(run)[0], inverse[lo:lo + width]
        a = run[:-1]
        r, s_r = _exact_path(-1j * coef, e[0], k[0], block, *carry[:2])
        u, s_u = _exact_path(-0.5 * (np.cos(a) - 1j * np.sin(a)) * np.conj(coef), e[1], k[1],
                             block, *carry[2:])
        first, last = np.searchsorted(idx, lo), np.searchsorted(idx, lo + run.size - 1, "right")
        for arr, values in zip(out, (r, u, s_r, s_u)):
            arr[..., first:last] = values[..., idx[first:last] - lo]
        carry = [values[..., -1].copy() for values in (r, s_r, u, s_u)]
    return tuple(out)


def _user_frame(r_i, u_i, s_r, s_u, scales, mirrored: bool):
    """Internal R, u, S_R, S_u as user-unit (r, u, beta, gamma, area_r,
    area_u), the reflection of a mirrored system undone.

    Raises DomainError when a value is not finite: the drive overflowed
    float64 somewhere on the way.  Callers compute the samples under
    ``np.errstate(over="ignore", invalid="ignore")`` so that this error,
    not a numpy warning, reports it.
    """
    beta = -s_r + 0.0
    gamma = -4.0 * s_u + 0.0
    if mirrored:
        r_i, u_i, s_r, s_u = np.conj(r_i), np.conj(u_i), -s_r, -s_u
    length2 = scales.length**2
    out = (r_i * scales.length, u_i * scales.length, beta, gamma,
           s_r * length2, s_u * length2)
    for name, values in zip(("R", "u", "beta", "gamma", "area_R", "area_u"), out):
        if not np.isfinite(values).all():
            raise DomainError(
                f"drive path overflows float64: {name} is not finite; the "
                f"field is too strong or the time too long"
            )
    return out


def _drive_samples(sys: PhysicalSystem, waveforms, t_grid: np.ndarray, method: str,
                   abs_tol: float):
    """User-unit (r, u, beta, gamma, area_r, area_u), each a read-only array
    with one row per waveform and one column per time of ``t_grid``, and
    the route ("exact" or "quadrature") of each waveform.

    The grid must be one-dimensional, nonempty, finite, strictly increasing
    and start at 0 (ValueError otherwise), and inside every waveform's
    domain (DomainError).  The exponential sums (every analytic waveform but
    a ``SumField``) take the exact route in one call per term count: their
    user-unit ``exp_terms`` stacked into one array, rescaled at once
    (``_ExpSumField.rescaled_pairs``, the formula of ``rescaled``), and
    their step monomials on a leading axis.  Every other waveform, and
    every waveform under method "quadrature", is internalized on its own
    and takes the exact route when it reports ``step_terms`` on the knots
    (the grid and its breakpoints), the quadrature route otherwise.
    """
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a one-dimensional, nonempty array")
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if not (np.isfinite(t_grid).all() and np.all(np.diff(t_grid) > 0)):
        raise ValueError("t_grid must be finite and strictly increasing")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    scales, mirrored = sys.internal_scales(), sys.mirrored
    t_i = t_grid / scales.time
    groups, rest = {}, []
    for p, w in enumerate(waveforms):
        if method == "quadrature" or not isinstance(w, _ExpSumField):
            w._check_domain(t_grid)
            rest.append(p)
        else:  # defined at every time; stacked in groups of equal term counts
            pairs = w.exp_terms()
            groups.setdefault(len(pairs), []).append((p, pairs))
    n = len(waveforms)
    out = [np.empty((n, t_grid.size), dtype=kind)
           for kind in (complex, complex, float, float, float, float)]
    provenance = ["exact"] * n
    with np.errstate(over="ignore", invalid="ignore"):  # _user_frame raises
        for size, members in groups.items():
            index, pairs = zip(*members)
            rows = np.array(index)  # one conversion for the six assignments
            pairs = _ExpSumField.rescaled_pairs(
                np.array(pairs, dtype=complex).reshape(len(index), size, 2), scales, mirrored)
            samples = _exact_samples(partial(_ExpSumField.stacked_step_terms, pairs), t_i,
                                     np.arange(t_i.size))
            for arr, values in zip(out, _user_frame(*samples, scales, mirrored)):
                arr[rows] = values
        for p in rest:
            w_i = internalize(sys, waveforms[p])[0]
            cuts = np.asarray(w_i.breakpoints(), dtype=float)
            knots = np.union1d(t_i, cuts[(cuts > 0.0) & (cuts < t_i[-1])])
            samples = (_exact_samples(w_i.step_terms, knots, np.searchsorted(knots, t_i))
                       if method != "quadrature" else None)
            if samples is None:
                samples = _quadrature_path_samples(w_i, t_i, abs_tol)
                provenance[p] = "quadrature"
            for arr, values in zip(out, _user_frame(*samples, scales, mirrored)):
                arr[p] = values
    for arr in out:
        arr.setflags(write=False)
    return (*out, tuple(provenance))


def build_drive_path(
    sys: PhysicalSystem,
    w: FieldWaveform,
    t_grid,
    *,
    method: str = "auto",
    abs_tol: float = DEFAULT_ABS_TOL,
) -> DrivePath:
    """Evaluate R, u, beta, gamma, and signed areas on a time grid.

    The grid must be finite, strictly increasing and start at 0
    (ValueError otherwise).  Method "auto" takes the "exact" route whenever
    the waveform reports its field as step monomials (``step_terms``:
    every built-in waveform, sums included) and the refined-grid
    "quadrature" route otherwise; method "quadrature" forces the numeric
    route for cross-validation.  The route taken is the path's
    ``provenance``.  The values are row 0 of ``_drive_samples`` for this
    one waveform, so they equal ``drive_endpoints``' bit for bit.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    *rows, provenance = _drive_samples(sys, [w], t_grid, method, abs_tol)
    return DrivePath(t_grid.copy(), *(row[0] for row in rows), provenance=provenance[0])


@dataclass(frozen=True)
class DriveEndpoints:
    """R, u, beta, gamma and signed areas at one time for many waveforms,
    one entry per waveform, with the route that produced each."""

    r: np.ndarray
    u: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    area_r: np.ndarray
    area_u: np.ndarray
    provenance: tuple[str, ...]


def drive_endpoints(
    sys: PhysicalSystem,
    waveforms,
    t: float,
    *,
    method: str = "auto",
    abs_tol: float = DEFAULT_ABS_TOL,
) -> DriveEndpoints:
    """``build_drive_path`` on [0, t] for each waveform, read at t.

    DomainError unless t is finite and t >= 0.  All waveforms go through
    one ``_drive_samples`` call on [0, t], whose last column this returns,
    so every value equals the per-waveform one bit for bit; the
    exponential sums are stacked there into one exact-route call per term
    count.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"drive endpoints require a finite t >= 0, got {t!r}")
    grid = np.array([0.0, t]) if t > 0 else np.array([0.0])
    *columns, provenance = _drive_samples(sys, list(waveforms), grid, method, abs_tol)
    return DriveEndpoints(*(column[:, -1] for column in columns), provenance=provenance)
