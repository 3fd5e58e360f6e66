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
span list, with E(t) at every node of a span from one vectorized call.

The drive couples each level only to its neighbours, so RK4 never builds
a dense generator: it applies c_a a + c_ad a^dag as two shifted row
scalings, O(N^2) per stage instead of an O(N^3) matrix product.  One
kernel, ``_banded_rk4``, runs every step from per-node coefficient pairs
in fixed work buffers, with 28 numpy calls per step and none on a span
where the field is exactly zero.  The orbit-center check evaluates
its field the same way, one call per span, and integrates the drift
against ``build_drive_path``'s R, the one every output table prints.

``run_validation`` declares each corpus entry's checks as one table of
(kind, value, tolerance, details) rows that pass when value < tolerance,
so a new per-entry check is one more row; one helper, ``_factorization``,
gives every comparison of the integrated U with the factorized one.
"""

from __future__ import annotations

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
from .fock_algebra import TruncatedOperator, column_unitarity_defect, ladder_ops
from .path_integrals import build_drive_path
from .propagator import (
    assemble,
    resonance_survival,
    resonance_survival_alt_prefactor,
)

__all__ = [
    "IntegratorConfig",
    "pi_sector_hamiltonian",
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

#: Drift phase per step of the orbit-center RK4.
_PHASE_PER_STEP = 0.005

#: Allowed step sizes in internal time units (1/omega): at most 0.05
#: resolves the cyclotron oscillation; at least 1e-4 keeps a corpus run
#: (t = 10/omega) to 10^5 steps, so no step table outgrows memory.
DT_RANGE = (1e-4, 0.05)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``dt`` is measured in internal time units (1/omega) and lies in
    ``DT_RANGE``, whatever the unit system.
    """

    dt: float = 0.01
    dim: int = 64
    scheme: str = "rk4"

    def __post_init__(self):
        lo, hi = DT_RANGE
        if not lo <= self.dt <= hi:
            raise ValueError(f"dt must lie in [{lo:g}, {hi:g}] internal time units")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.scheme not in ("rk4", "expmid"):
            raise ValueError("scheme must be 'rk4' or 'expmid'")


def _hamiltonian(rdot: complex, dim: int) -> np.ndarray:
    """H = diag(n + 1/2) - (sqrt 2 / 2)(Rdot* a + Rdot a^dag) in units of
    hbar omega, for Rdot = -i E(t): tridiagonal, with conjugate
    off-diagonals, so exactly Hermitian."""
    g = -(_SQRT2 / 2.0) * rdot * np.sqrt(np.arange(1.0, dim))
    return np.diag(np.arange(dim) + 0.5) + np.diag(np.conj(g), 1) + np.diag(g, -1)


def _spans(w: FieldWaveform, t_end: float):
    """Smooth integration spans of [0, t_end], split at waveform kinks."""
    edges = [0.0]
    edges.extend(p for p in sorted(w.breakpoints()) if 0.0 < p < t_end)
    edges.append(t_end)
    return list(zip(edges[:-1], edges[1:]))


def _step_nodes(lo: float, h: float, n: int) -> np.ndarray:
    """Start, midpoint and end times of n steps of size h from lo, in blocks.

    The start times are accumulated one step at a time (t += h), so every
    node is the float a sequential step loop would evaluate.
    """
    starts = np.cumsum(np.r_[lo, np.full(n - 1, h)])
    return np.concatenate([starts, starts + h / 2.0, starts + h])


def pi_sector_hamiltonian(
    sys: PhysicalSystem, w: FieldWaveform, t: float, dim: int
) -> TruncatedOperator:
    """Ladder-sector Hamiltonian at time t, in internal units of hbar omega."""
    w_i, scales, _ = internalize(sys, w)
    t_i = t / scales.time
    w_i._check_domain(t_i)
    return TruncatedOperator(_hamiltonian(complex(-1j * w_i.field(t_i)), dim))


def _banded_rk4(u: np.ndarray, spans) -> None:
    """Advance the column block u in place by RK4 on dW/dt = G W.

    G = c_a a + c_ad a^dag.  ``spans`` holds one (h, c_a, c_ad) per smooth
    span: its step size and the two coefficients at the start, midpoint
    and end nodes of its n steps, laid out as ``_step_nodes`` lays out the
    times (3n values each).  a and a^dag are single off-diagonals, so row
    m of G v is c_a sqrt(m+1) v[m+1] + c_ad sqrt(m) v[m-1]: two shifted
    row scalings instead of a dense product.

    Each step makes 28 numpy calls and no temporaries:
    - The block and the stage sit between two zero rows, so both shifted
      products are full-height and G v is two multiplies and one add, with
      no edge row to clear.
    - Each node's coefficients times sqrt fill two full-shape arrays,
      since a broadcast column makes numpy's complex multiply take a slow
      loop.  The midpoint fill serves k2 and k3.  Step k ends on the node
      step k + 1 starts from (``_step_nodes`` makes both start + h, the
      same float), so its end fill also serves the next k1.
    - Scalings by the real h/2, h, 2 and h/6 and every addition run on
      float64 views of the complex buffers.
    - A span whose coefficients are all exactly zero has G = 0, so each
      of its steps is the identity; it is skipped.

    Every element goes through the float products and sums of a
    broadcast-column run with the stage sums in their order, so the
    columns equal such a run's bit for bit, up to the sign of a zero.
    """
    dim, cols = u.shape
    u_pad = np.zeros((dim + 2, cols), dtype=complex)
    s_pad = np.zeros_like(u_pad)
    u_pad[1:-1] = u
    root = np.empty((dim + 1, cols), dtype=complex)
    root[...] = np.sqrt(np.arange(dim + 1.0))[:, None]
    below, above = root[1:], root[:-1]  # sqrt(m + 1) and sqrt(m) in row m
    ca, cad, ca_mid, cad_mid, k1, k2, k3, prod = (
        np.empty((dim, cols), dtype=complex) for _ in range(8)
    )
    u_up, u_down, s_up, s_down = u_pad[2:], u_pad[:-2], s_pad[2:], s_pad[:-2]
    uf, sf = u_pad[1:-1].view(float), s_pad[1:-1].view(float)
    k1f, k2f, k3f, pf = (b.view(float) for b in (k1, k2, k3, prod))
    mul, add = np.multiply, np.add

    for h, c_a, c_ad in spans:
        if not (c_a.any() or c_ad.any()):
            continue
        n = len(c_a) // 3
        h2, h6 = h / 2.0, h / 6.0
        mul(c_a[0], below, ca)
        mul(c_ad[0], above, cad)
        for k in range(n):
            mul(ca, u_up, k1)
            mul(cad, u_down, prod)
            add(k1f, pf, k1f)
            mul(k1f, h2, sf)
            add(sf, uf, sf)
            mul(c_a[n + k], below, ca_mid)
            mul(c_ad[n + k], above, cad_mid)
            mul(ca_mid, s_up, k2)
            mul(cad_mid, s_down, prod)
            add(k2f, pf, k2f)
            mul(k2f, h2, sf)
            add(sf, uf, sf)
            mul(ca_mid, s_up, k3)
            mul(cad_mid, s_down, prod)
            add(k3f, pf, k3f)
            mul(k3f, h, sf)
            add(sf, uf, sf)
            add(k2f, k3f, k2f)
            # k3's buffer takes k4, at the end node
            mul(c_a[2 * n + k], below, ca)
            mul(c_ad[2 * n + k], above, cad)
            mul(ca, s_up, k3)
            mul(cad, s_down, prod)
            add(k3f, pf, k3f)
            # u += h/6 (2 (k2 + k3) + k1 + k4), in place
            mul(k2f, 2.0, k2f)
            add(k2f, k1f, k2f)
            add(k2f, k3f, k2f)
            mul(k2f, h6, k2f)
            add(uf, k2f, uf)
    u[...] = u_pad[1:-1]


def integrate_schrodinger(
    sys: PhysicalSystem, w: FieldWaveform, t_final: float, cfg: IntegratorConfig
) -> np.ndarray:
    """Leading columns of the evolution operator U(t_final, 0), ladder sector.

    Returns the read-only (dim, dim // 2) complex array U[:, :dim // 2]:
    the leading-half block every oracle check reads.  Both schemes start
    from those columns of the identity, and each column evolves on its
    own, so they equal the matching columns of a full-square run.

    Both schemes read one span list: each span holds Rdot at t, t + h/2
    and t + h for all its steps, from one vectorized field call at the
    node times a running t += h produces.  Steps never straddle kinks.
    rk4 integrates the rotating-frame equation dW/dt = G(t) W with
    G(t) = (i k / 2)(Rdot* e^{-i omega t} a + Rdot e^{i omega t} a^dag),
    banded, by ``_banded_rk4`` (which skips a span where G is exactly
    zero), and restores the static phases exactly at the end.  expmid
    multiplies the midpoint exponentials exp(-i h H(t + h/2)) of the full
    Hamiltonian, each V e^{-i h Lambda} V^dag from numpy's ``eigh``.

    Raises AccuracyError when the columns put more than 1e-4 of
    probability on the truncation edge (or are not finite): past that
    point the basis is too small for the drive and the result is junk.
    """
    if t_final < 0:
        raise DomainError("integration requires t_final >= 0")
    w_i, scales, _ = internalize(sys, w)
    t_i = t_final / scales.time
    dim = cfg.dim
    u_mat = np.eye(dim, dim // 2, dtype=complex)

    spans = []
    for lo, hi in _spans(w_i, t_i):
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
        for h, nodes, rdot in spans:
            n = len(nodes) // 3
            for r in rdot[n : 2 * n]:
                lam, v = np.linalg.eigh(_hamiltonian(r, dim))
                u_mat = (v * np.exp(-1j * h * lam)) @ (v.conj().T @ u_mat)

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


def _drive_integral(w_i: FieldWaveform, t_i: float) -> complex:
    """Integral of e^{i s} Rdot(s) over [0, t_i] in internal units.

    Gauss-Legendre rules from numpy, shared with no production integral,
    on panels that never straddle a waveform kink and span at most pi/4 of
    integrand phase.  The 8- and 16-point rules must agree to 1e-12, else
    AccuracyError; the 16-point value is returned.
    """
    max_panel = math.pi / (4.0 * (1.0 + w_i.rate()))
    edges = [
        np.linspace(lo, hi, max(1, math.ceil((hi - lo) / max_panel)) + 1)
        for lo, hi in _spans(w_i, t_i)
    ]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    values = []
    for order in (8, 16):
        x, weights = np.polynomial.legendre.leggauss(order)
        s = mid[:, None] + half[:, None] * x
        e = np.asarray(w_i.field(s.ravel()), dtype=complex).reshape(s.shape)
        values.append(np.sum(half * ((np.exp(1j * s) * (-1j * e)) @ weights)))
    err = abs(values[1] - values[0])
    if err > 1e-12:
        raise AccuracyError(
            f"Heisenberg drive integral: 8- and 16-point rules differ by "
            f"{err:.3g} > 1e-12",
            achieved=err,
        )
    return complex(values[1])


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
    block is returned.
    """
    u = np.asarray(u_cols)
    if u.ndim != 2 or not 0 < u.shape[1] <= u.shape[0]:
        raise ValueError("u_cols must be a (dim, b) block of columns with b <= dim")
    w_i, scales, _ = internalize(sys, w)
    t_i = t / scales.time
    b = u.shape[1]
    a = ladder_ops(u.shape[0])[0].matrix
    sigma = 1j * np.exp(-1j * t_i) * _drive_integral(w_i, t_i) / _SQRT2
    lhs = u.conj().T @ a @ u
    rhs = a[:b, :b] * np.exp(-1j * t_i) + sigma * np.eye(b)
    return float(np.max(np.abs(lhs - rhs)))


def guiding_center_residual(sys: PhysicalSystem, w: FieldWaveform, t_grid) -> float:
    """Gap between an RK4-integrated orbit-center drift and the R path.

    Integrates the center-of-orbit equation of motion (dw/dt = E in complex
    internal form) and compares, at every grid time, against
    ``build_drive_path``'s R, taken to internal units (reflected for a
    mirrored system), which predicts the drift i R(t).  ``build_drive_path``
    also checks the grid.  Steps split at waveform kinks, so
    piecewise-linear fields integrate exactly.
    """
    r = build_drive_path(sys, w, t_grid).r
    w_i, scales, mirrored = internalize(sys, w)
    grid_i = np.asarray(t_grid, dtype=float) / scales.time
    rate = max(w_i.rate(), 1e-12)
    breaks = sorted(w_i.breakpoints())
    steps, ends, count = [], [], 0
    for t0, t1 in zip(grid_i[:-1], grid_i[1:]):
        edges = [t0] + [p for p in breaks if t0 < p < t1] + [t1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = max(1, math.ceil((hi - lo) * rate / _PHASE_PER_STEP))
            h = (hi - lo) / n
            f = np.asarray(w_i.field(_step_nodes(lo, h, n)), dtype=complex)
            # RK4 on dw/dt = f(t) reduces to Simpson's rule per step
            steps.append((h / 6.0) * (f[:n] + 4.0 * f[n : 2 * n] + f[2 * n :]))
            count += n
        ends.append(count - 1)
    if not ends:
        return 0.0
    # cumsum adds the steps one at a time, in time order
    wc = np.cumsum(np.concatenate(steps))[ends]
    r_i = r[1:] / scales.length
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


def _factorized_matrix(sys: PhysicalSystem, w: FieldWaveform, t: float, dim: int):
    """Dynamical phases times the closed-form level-mixing operator J."""
    j = assemble(sys, w, t, dim=dim).j_op.matrix
    phases = np.exp(-1j * (np.arange(dim) + 0.5) * (sys.omega * t))
    return phases[:, None] * j


def _factorization(sys: PhysicalSystem, w: FieldWaveform, t: float, cfg: IntegratorConfig):
    """U's leading columns by ``cfg``, and their largest gap from the
    factorized U on the leading half block."""
    u_cols = integrate_schrodinger(sys, w, t, cfg)
    half = cfg.dim // 2
    u_fac = _factorized_matrix(sys, w, t, cfg.dim)
    return u_cols, float(np.max(np.abs(u_cols[:half] - u_fac[:half, :half])))


def _bounded(name: str, value: float, tolerance: float, details: dict) -> CheckResult:
    """A check that passes when its value is below its tolerance."""
    return CheckResult(name, value, tolerance, value < tolerance, details)


def run_validation(
    sys: PhysicalSystem,
    *,
    dim: int = 64,
    dt: float = 0.01,
    include_convergence: bool = True,
) -> list[CheckResult]:
    """Full residual suite over the validation corpus.

    Each corpus entry gives one table of (kind, value, tolerance, details)
    rows, each a ``kind[entry]`` check that passes when value < tolerance:
    the factorization residual (numerical evolution vs dynamical phases
    times closed-form mixing operator, leading half block), the
    ladder-operator Heisenberg residual, the unitarity defect and the
    orbit-center drift residual.  Then come the resonance-survival exponent
    adjudication and, with ``include_convergence``, an RK4 order
    measurement and a cross-integrator check.  The comparison block stays
    in the leading half so the oracle retains truncation headroom over
    everything it certifies.  The layer functions are looked up when they
    run, so a wrapper set on this module sees every call.
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

    if include_convergence:
        scales = sys.internal_scales()
        sign = -1.0 if sys.mirrored else 1.0
        probe = RotatingField(0.18 * scales.field, sign * 0.95 / scales.time)
        probe_dim = max(dim, 48)  # the probe drive reaches k|u| ~ 1.3
        resids = {
            dti: _factorization(
                sys, probe, 10.0 * scales.time, IntegratorConfig(dt=dti, dim=probe_dim)
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
