"""Drive amplitude u(t), geometric phases, and enclosed-area machinery.

The ingredients assembled here:

* u(t) = (i/2) * integral of e^{-i omega s} dR*/ds over [0, t], equivalently
  -(c/2B) * integral of e^{-i omega s} E*(s) ds,
* beta = -(qB/hbar c) * S(R-path),  gamma = -(qB/hbar c) * 4 * S(u-path),
  where S is the signed area enclosed by a path and the straight chord from
  its end point back to its start,
* three routes to them, which ``build_drive_path`` names in its
  provenance: "closed-form" for waveforms built from exponential terms,
  "piecewise-exact" for piecewise-linear (sampled) waveforms, integrated
  in closed form on each linear piece, and "quadrature", a refined-grid
  numeric route for everything else and the cross-check of the other two.

Everything runs in dimensionless internal units (omega = l_b = 1,
k = sqrt(2)) and converts at the boundary, so the default absolute
tolerances below are meaningful regardless of the user's unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._expsum import ExpPath, eps0, eps1
from .errors import AccuracyError, DomainError
from .field_model import FieldWaveform, PhysicalSystem, internalize

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
_METHODS = ("auto", "closed_form", "quadrature")

# 5-point Gauss-Legendre rule, used for cumulative integrals on fine grids.
_XG5 = np.array([
    -0.906179845938664, -0.538469310105683, 0.0,
    0.538469310105683, 0.906179845938664,
])
_WG5 = np.array([
    0.236926885056189, 0.478628670499366, 0.568888888888889,
    0.478628670499366, 0.236926885056189,
])


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


def _integral_path(pairs) -> ExpPath:
    """The path s -> integral over [0, s] of sum_j b_j e^{i kappa_j x} dx.

    A pair with kappa != 0 adds the term (b / i kappa)(e^{i kappa s} - 1),
    one with kappa = 0 the drift b s, and one with b = 0 nothing, so a zero
    term is never judged ill-conditioned.
    """
    terms, drift = [], 0.0
    for b, kappa in pairs:
        if b == 0:
            continue
        if kappa == 0.0:
            drift += b
        else:
            terms.append((b / (1j * kappa), kappa))
    return ExpPath(tuple(terms), drift)


def _area_well_conditioned(path: ExpPath, t_end: float) -> bool:
    """Whether the closed-form enclosed area is numerically trustworthy.

    A term A (e^{i mu s} - 1) with |mu| t << 1 carries an amplitude ~ 1/mu
    while its net area contribution is ~ mu, so the term-by-term formula
    cancels ~ (|mu| t)^-2 digits.  Below |mu| t = 1e-3 the loss approaches
    the comparison tolerances and the grid route is preferable.
    """
    return all(abs(mu) * t_end >= 1e-3 for _, mu in path.terms)


def _exp_paths(w_internal: FieldWaveform, method: str, t_end: float):
    """The closed-form paths of an internal-unit waveform up to ``t_end``.

    Returns ((R path, u path), False) for the closed form, or (None,
    ill_conditioned) otherwise, where ill_conditioned says that "auto"
    declined a closed form whose area is not well conditioned (see
    ``_area_well_conditioned``).
    """
    pairs = w_internal.exp_terms() if method != "quadrature" else None
    if pairs is None:
        return None, False
    # omega = 1: R' = -i E and u' = -(1/2) e^{-is} conj(E), term by term
    paths = (_integral_path((-1j * c, lam) for c, lam in pairs),
             _integral_path((-0.5 * c.conjugate(), -(1.0 + lam)) for c, lam in pairs))
    if method == "auto" and t_end > 0.0 and not all(
        _area_well_conditioned(p, t_end) for p in paths
    ):
        return None, True
    return paths, False


def _has_exact_route(w: FieldWaveform) -> bool:
    """Whether ``w`` has a closed-form or a piecewise-exact drive path."""
    return w.exp_terms() is not None or w.linear_nodes() is not None


def displacement_amplitude(
    sys: PhysicalSystem,
    w: FieldWaveform,
    t: float,
    *,
    method: str = "auto",
    abs_tol: float = DEFAULT_ABS_TOL,
) -> complex:
    """Oscillatory drive amplitude u(t) = -(c/2B) int_0^t e^{-i omega s} E*(s) ds.

    The end value of ``build_drive_path`` on the grid [0, t], with the same
    ``method`` and the same choice among its three routes: closed-form,
    piecewise-exact and quadrature.
    """
    if t < 0:
        raise DomainError("displacement amplitude requires t >= 0")
    grid = [0.0, t] if t > 0 else [0.0]
    dp = build_drive_path(sys, w, grid, method=method, abs_tol=abs_tol)
    return complex(dp.u[-1])


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


def _running(increments: np.ndarray) -> np.ndarray:
    """Running sum of ``increments`` from 0: one entry more than it has."""
    out = np.zeros(increments.size + 1, dtype=increments.dtype)
    np.cumsum(increments, out=out[1:])
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

    u accumulates per-substep Gauss panels; areas come from the polyline
    shoelace on the fine grid with Richardson extrapolation.
    """
    step = 0.02 / (1.0 + w_i.rate())
    err = math.inf
    for level in range(4):
        nodes, idx = _refined_grid(t_i, w_i, step, level)
        r_fine = -1j * np.asarray(w_i.field_integral(nodes), dtype=complex)
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


def _closed_form_samples(rp: ExpPath, up: ExpPath, t_i):
    """R, u, S_R, S_u at internal time(s) ``t_i`` from closed-form paths."""
    return rp.evaluate(t_i), up.evaluate(t_i), rp.enclosed_area(t_i), up.enclosed_area(t_i)


#: Power-series terms of M_jk for h <= 1; the first one dropped is below
#: 1/26! of the leading one.
_M_SERIES_TERMS = 25


def _step_table(h: np.ndarray):
    """eps0(-1, h), eps1(-1, h) and M_jk(h) for j, k in {0, 1}.

    M_jk(h) is the integral over [0, h] of conj(eps_j(-1, tau)) tau^k
    e^{-i tau}.  With D_k(h) = h^{k+1}/(k+1) - eps_k(-1, h),

        M_0k = -i D_k,    M_1k = D_k - i h^{k+2}/(k+2).

    M_1k cancels two orders at small h, so for h <= 1 each is summed from
    its own power series instead:

        M_0k = i sum_{n>=1} (-i)^n h^{n+k+1} / (n! (n+k+1)),
        M_1k = -sum_{n>=2} (-i)^n h^{n+k+1} / (n! (n+k+1)).

    Everything is evaluated once per distinct step length.
    """
    steps, inverse = np.unique(h, return_inverse=True)
    e0, e1 = eps0(-1.0, steps), eps1(-1.0, steps)
    m = np.empty((2, 2, steps.size), dtype=complex)
    for k, ek in enumerate((e0, e1)):
        d = steps ** (k + 1) / (k + 1) - ek
        m[0, k] = -1j * d
        m[1, k] = d - 1j * steps ** (k + 2) / (k + 2)
    small = steps <= 1.0
    n = np.arange(1, _M_SERIES_TERMS + 1)
    coeff = np.array([1.0, -1j, -1.0, 1j])[n % 4] / np.cumprod(n.astype(float))
    for k in (0, 1):
        p = n + k + 1
        terms = coeff / p * steps[small, None] ** p
        m[0, k, small] = 1j * terms.sum(axis=1)
        m[1, k, small] = -terms[:, 1:].sum(axis=1)
    return e0[inverse], e1[inverse], m[:, :, inverse]


def _piecewise_samples(w_i: FieldWaveform, nodes: np.ndarray, t_i: np.ndarray):
    """R, u, S_R, S_u at internal times ``t_i`` for a field linear between
    ``nodes``, exact up to rounding.

    The knots are the sample times and the nodes between 0 and the last
    sample, so each knot step [a, a + h] lies within one linear piece,
    E(a + tau) = e0 + e1 tau.  On it (omega = 1)

        dR = -i (e0 h + e1 h^2/2),
        du = -(1/2) e^{-ia} (conj(e0) eps0(-1, h) + conj(e1) eps1(-1, h)),

    and each area grows by (1/2) Im(conj(z_a) dz + self) for z = R, u,
    with the self terms

        Im self_R = Im(conj(e0) e1) h^3 / 6,
        self_u = (1/4) sum_jk e_j conj(e_k) M_jk(h)      (``_step_table``).
    """
    knots = np.union1d(t_i, nodes[(nodes > 0.0) & (nodes < t_i[-1])])
    a, h = knots[:-1], np.diff(knots)
    e = np.asarray(w_i.field(knots), dtype=complex)
    e0, e1 = e[:-1], np.diff(e) / h
    c0, c1 = np.conj(e0), np.conj(e1)
    eps_0, eps_1, m = _step_table(h)
    dr = -1j * h * (e0 + e1 * h / 2.0)
    du = -0.5 * np.exp(-1j * a) * (c0 * eps_0 + c1 * eps_1)
    r, u = _running(dr), _running(du)
    self_u = 0.25 * (e0 * (c0 * m[0, 0] + c1 * m[0, 1]) + e1 * (c0 * m[1, 0] + c1 * m[1, 1]))
    s_r = _running(0.5 * (np.imag(np.conj(r[:-1]) * dr) + np.imag(c0 * e1) * h**3 / 6.0))
    s_u = _running(0.5 * np.imag(np.conj(u[:-1]) * du + self_u))
    idx = np.searchsorted(knots, t_i)
    return r[idx], u[idx], s_r[idx], s_u[idx]


def _user_frame(r_i, u_i, s_r, s_u, scales, mirrored: bool):
    """Internal R, u, S_R, S_u as user-unit (r, u, beta, gamma, area_r,
    area_u), the reflection of a mirrored system undone."""
    beta = -s_r + 0.0
    gamma = -4.0 * s_u + 0.0
    if mirrored:
        r_i, u_i, s_r, s_u = np.conj(r_i), np.conj(u_i), -s_r, -s_u
    length2 = scales.length**2
    return (r_i * scales.length, u_i * scales.length, beta, gamma,
            s_r * length2, s_u * length2)


def build_drive_path(
    sys: PhysicalSystem,
    w: FieldWaveform,
    t_grid,
    *,
    method: str = "auto",
    abs_tol: float = DEFAULT_ABS_TOL,
) -> DrivePath:
    """Evaluate R, u, beta, gamma, and signed areas on a time grid.

    The grid must be strictly increasing and start at 0.  Method "auto"
    takes the first route that applies:

    * "closed-form" when E(t) is a sum of exponential terms
      (``exp_terms``) whose R and u paths have well-conditioned areas up
      to the last grid time;
    * "piecewise-exact" when E(t) is linear between known nodes
      (``linear_nodes``: a sampled field, or a sum of sampled fields and
      constant-valued analytic terms);
    * "quadrature", the refined-grid numeric route, otherwise.

    Method "closed_form" takes one of the two exact routes, even an
    ill-conditioned closed form, and raises ValueError when the waveform
    has neither; method "quadrature" forces the numeric route for
    cross-validation.  The route taken is the path's ``provenance``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a one-dimensional, nonempty array")
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    w._check_domain(t_grid)

    w_i, scales, mirrored = internalize(sys, w)
    t_i = t_grid / scales.time
    paths, _ = _exp_paths(w_i, method, t_i[-1])
    nodes = w_i.linear_nodes() if paths is None and method != "quadrature" else None
    if paths is not None:
        samples = _closed_form_samples(*paths, t_i)
        provenance = "closed-form"
    elif nodes is not None:
        samples = _piecewise_samples(w_i, nodes, t_i)
        provenance = "piecewise-exact"
    elif method == "closed_form":
        raise ValueError("waveform has no closed-form or piecewise-exact drive path")
    else:
        samples = _quadrature_path_samples(w_i, t_i, abs_tol)
        provenance = "quadrature"
    r, u, beta, gamma, area_r, area_u = _user_frame(*samples, scales, mirrored)
    return DrivePath(
        times=t_grid.copy(),
        r=r,
        u=u,
        beta=beta,
        gamma=gamma,
        area_r=area_r,
        area_u=area_u,
        provenance=provenance,
    )


@dataclass(frozen=True)
class DriveEndpoints:
    """R, u, beta, gamma and signed areas at one time for many waveforms,
    one entry per waveform, with the route that produced each.

    ``ill_conditioned`` counts the waveforms whose closed form "auto"
    declined because some term has |mu| t < 1e-3 (they took quadrature).
    """

    r: np.ndarray
    u: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    area_r: np.ndarray
    area_u: np.ndarray
    provenance: tuple[str, ...]
    ill_conditioned: int


def drive_endpoints(
    sys: PhysicalSystem,
    waveforms,
    t: float,
    *,
    method: str = "auto",
    abs_tol: float = DEFAULT_ABS_TOL,
) -> DriveEndpoints:
    """``build_drive_path`` on [0, t] for each waveform, read at t.

    The waveforms the route choice sends to the closed form are evaluated
    in one call per term structure on their stacked paths
    (``ExpPath.stack``); the others go one by one through
    ``build_drive_path``.  R and u equal the per-waveform values bit for
    bit; beta, gamma and the areas agree to rounding, since array and
    scalar complex products may round differently.
    """
    if t < 0:
        raise DomainError("drive endpoints require t >= 0")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    waveforms = list(waveforms)
    grid = np.array([0.0, t]) if t > 0 else np.array([0.0])
    scales, mirrored = sys.internal_scales(), sys.mirrored
    t_i = grid[-1] / scales.time
    groups, rest, ill = {}, [], 0
    for p, w in enumerate(waveforms):
        w._check_domain(grid)
        paths, declined = _exp_paths(w.rescaled(scales, mirrored), method, t_i)
        ill += declined
        if paths is None:
            rest.append(p)
        else:  # stacked in groups of equal term counts
            groups.setdefault(tuple(len(q.terms) for q in paths), []).append((p, paths))
    n = len(waveforms)
    out = [np.empty(n, dtype=kind) for kind in (complex, complex, float, float, float, float)]
    provenance = ["closed-form"] * n
    for members in groups.values():
        index = [p for p, _ in members]
        rp, up = (ExpPath.stack(col) for col in zip(*(paths for _, paths in members)))
        samples = _user_frame(*_closed_form_samples(rp, up, t_i), scales, mirrored)
        for arr, values in zip(out, samples):
            arr[index] = values
    for p in rest:
        dp = build_drive_path(sys, waveforms[p], grid, method=method, abs_tol=abs_tol)
        for arr, values in zip(out, (dp.r, dp.u, dp.beta, dp.gamma, dp.area_r, dp.area_u)):
            arr[p] = values[-1]
        provenance[p] = dp.provenance
    for arr in out:
        arr.setflags(write=False)
    return DriveEndpoints(*out, provenance=tuple(provenance), ill_conditioned=ill)
