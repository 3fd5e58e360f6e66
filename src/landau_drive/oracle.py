"""Brute-force validation of the factorized propagator.

This module never reuses the drive-amplitude or phase integrals: it sees
only the ladder-sector Hamiltonian built directly from E(t),

    H(t) = hbar omega (a^dag a + 1/2) - (hbar k / 2) (Rdot* a + Rdot a^dag),
    Rdot = -i (c/B) E(t),

and integrates i dU/dt = H(t) U from the identity.  Comparing the result
against the dynamical-phase factor times the closed-form level-mixing
operator is the deciding cross-check for the whole package.

Two dissimilar integrators are provided: classic fixed-step RK4 applied in
the frame that removes the stiff static diagonal (required to reach 1e-6
accuracy at dt = 0.01/omega), and a second-order midpoint rule that
exponentiates the full Hamiltonian without any frame change.

The drive couples each level only to its neighbours, so RK4 never builds
a dense generator: it applies c_a a + c_ad a^dag as two shifted row
scalings, O(N^2) per stage instead of an O(N^3) matrix product, and takes
E(t) at every node of a smooth span from one vectorized field call.  The
orbit-center check evaluates its field the same way, one call per span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

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
from .fock_algebra import TruncatedOperator, ladder_ops
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


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``dt`` is measured in internal time units (1/omega), so dt <= 0.05
    resolves the cyclotron oscillation regardless of the unit system.
    """

    dt: float = 0.01
    dim: int = 64
    scheme: str = "rk4"
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.dt <= 0.05:
            raise ValueError("dt must lie in (0, 0.05] internal time units")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.scheme not in ("rk4", "expmid"):
            raise ValueError("scheme must be 'rk4' or 'expmid'")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def _hamiltonian(w_i: FieldWaveform, t: float, a: np.ndarray, ad: np.ndarray):
    """H(t) in internal units of hbar omega, built directly from E(t)."""
    rdot = complex(-1j * w_i.field(t))
    diag = np.diag(np.arange(a.shape[0]) + 0.5).astype(complex)
    return diag - (_SQRT2 / 2.0) * (np.conj(rdot) * a + rdot * ad)


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
    a, ad = (op.matrix for op in ladder_ops(dim))
    return TruncatedOperator(_hamiltonian(w_i, t_i, a, ad))


def integrate_schrodinger(
    sys: PhysicalSystem, w: FieldWaveform, t_final: float, cfg: IntegratorConfig
) -> TruncatedOperator:
    """Numerical evolution operator U(t_final, 0) of the ladder sector.

    rk4 integrates the rotating-frame equation dW/dt = G(t) W with
    G(t) = (i k / 2)(Rdot* e^{-i omega t} a + Rdot e^{i omega t} a^dag)
    and restores the static phases exactly at the end.  G is banded: a
    has sqrt(n) on its superdiagonal and a^dag on its subdiagonal, so each
    stage's G(t) W is two shifted row scalings of W, never a dense
    product.  The two coefficients of G are kept as one complex scalar per
    node; every span gets them at t, t + h/2 and t + h for all its steps
    from one vectorized field call, at the node times a running t += h
    produces.  expmid multiplies midpoint exponentials of the full
    Hamiltonian.  Steps never straddle waveform kinks.

    Raises AccuracyError when leading-half-block columns put more than
    100 * cfg.tolerance of probability on the truncation edge: past that
    point the basis is too small for the drive and the result is junk.
    """
    if t_final < 0:
        raise DomainError("integration requires t_final >= 0")
    w_i, scales, _ = internalize(sys, w)
    t_i = t_final / scales.time
    dim = cfg.dim

    if cfg.scheme == "rk4":
        # a and a^dag are single off-diagonals, so row m of
        # (c_a a + c_ad a^dag) v is c_a sqrt(m+1) v[m+1] + c_ad sqrt(m) v[m-1]:
        # two shifted row scalings instead of a dense product.
        sqrt_n = np.sqrt(np.arange(1.0, dim))[:, None]
        u_mat = np.eye(dim, dtype=complex)
        stage, k1, k2, k3, k4 = (np.empty_like(u_mat) for _ in range(5))

        def gen_apply(c_a, c_ad, v, out):
            np.multiply(c_a * sqrt_n, v[1:], out=out[:-1])
            out[-1] = 0.0
            out[1:] += (c_ad * sqrt_n) * v[:-1]

        for lo, hi in _spans(w_i, t_i):
            n = max(1, math.ceil((hi - lo) / cfg.dt))
            h = (hi - lo) / n
            nodes = _step_nodes(lo, h, n)
            rdot = -1j * np.asarray(w_i.field(nodes), dtype=complex)
            c_a = (0.5j * _SQRT2) * (np.conj(rdot) * np.exp(-1j * nodes))
            c_ad = (0.5j * _SQRT2) * (rdot * np.exp(1j * nodes))
            for k in range(n):
                mid, end = n + k, 2 * n + k
                gen_apply(c_a[k], c_ad[k], u_mat, k1)
                np.multiply(k1, h / 2.0, out=stage)
                stage += u_mat
                gen_apply(c_a[mid], c_ad[mid], stage, k2)
                np.multiply(k2, h / 2.0, out=stage)
                stage += u_mat
                gen_apply(c_a[mid], c_ad[mid], stage, k3)
                np.multiply(k3, h, out=stage)
                stage += u_mat
                gen_apply(c_a[end], c_ad[end], stage, k4)
                # u += h/6 (k1 + 2 k2 + 2 k3 + k4), in place
                k2 += k3
                k2 *= 2.0
                k2 += k1
                k2 += k4
                k2 *= h / 6.0
                u_mat += k2
        phases = np.exp(-1j * (np.arange(dim) + 0.5) * t_i)
        u_mat = phases[:, None] * u_mat
    else:
        a, ad = (op.matrix for op in ladder_ops(dim))
        u_mat = np.eye(dim, dtype=complex)
        for lo, hi in _spans(w_i, t_i):
            n = max(1, math.ceil((hi - lo) / cfg.dt))
            h = (hi - lo) / n
            t = lo
            for _ in range(n):
                u_mat = expm(-1j * h * _hamiltonian(w_i, t + h / 2.0, a, ad)) @ u_mat
                t += h

    edge = float(np.max(np.abs(u_mat[-2:, : dim // 2])))
    if edge * edge > 100.0 * cfg.tolerance:
        raise AccuracyError(
            f"truncation health violated: leading-block columns reach the "
            f"basis edge with probability {edge * edge:.3g} at dim = {dim}; "
            f"increase the truncation",
            achieved=edge * edge,
        )
    return TruncatedOperator(u_mat)


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
    u_num: TruncatedOperator, sys: PhysicalSystem, w: FieldWaveform, t: float
) -> float:
    """Deviation of U^dag a U from a e^{-i omega t} + c(t) I.

    The scalar c(t) = (i/k) e^{-i omega t} * integral of e^{i omega s}
    Rdot(s) ds is the driven part of the ladder operator's Heisenberg
    solution, evaluated here by independent quadrature.  The maximum entry
    deviation over the leading half block is returned.
    """
    w_i, scales, _ = internalize(sys, w)
    t_i = t / scales.time
    dim = u_num.dim
    a = ladder_ops(dim)[0].matrix
    sigma = 1j * np.exp(-1j * t_i) * _drive_integral(w_i, t_i) / _SQRT2
    lhs = u_num.matrix.conj().T @ a @ u_num.matrix
    rhs = a * np.exp(-1j * t_i) + sigma * np.eye(dim)
    half = dim // 2
    return float(np.max(np.abs((lhs - rhs)[:half, :half])))


def guiding_center_residual(
    sys: PhysicalSystem, w: FieldWaveform, t_grid, *, phase_per_step: float = 0.005
) -> float:
    """Gap between an RK4-integrated orbit-center drift and the closed path.

    Integrates the center-of-orbit equation of motion (dw/dt = E in complex
    internal form) and compares, at every grid time, with the production
    guiding-center path, which predicts the drift i R(t).  Steps split at
    waveform kinks, so piecewise-linear fields integrate exactly.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a one-dimensional, nonempty array")
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing from 0")
    w_i, scales, _ = internalize(sys, w)
    grid_i = t_grid / scales.time
    rate = max(w_i.rate(), 1e-12)
    breaks = sorted(w_i.breakpoints())
    steps, ends, count = [], [], 0
    for t0, t1 in zip(grid_i[:-1], grid_i[1:]):
        edges = [t0] + [p for p in breaks if t0 < p < t1] + [t1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = max(1, math.ceil((hi - lo) * rate / phase_per_step))
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
    target = np.asarray(w_i.field_integral(grid_i[1:]), dtype=complex)
    return float(np.max(np.abs(wc - target)))


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


def _factorized_matrix(sys: PhysicalSystem, entry: CorpusEntry, dim: int):
    """Dynamical phases times the closed-form level-mixing operator J."""
    j = assemble(sys, entry.waveform, entry.t_final, dim=dim).j_op.matrix
    t_i = sys.omega * entry.t_final
    phases = np.exp(-1j * (np.arange(dim) + 0.5) * t_i)
    return phases[:, None] * j


def run_validation(
    sys: PhysicalSystem,
    *,
    dim: int = 64,
    dt: float = 0.01,
    include_convergence: bool = True,
) -> list[CheckResult]:
    """Full residual suite over the validation corpus.

    Per waveform: factorization residual (numerical evolution vs dynamical
    phases times closed-form mixing operator, leading half block),
    ladder-operator Heisenberg residual, unitarity defect, and the
    orbit-center drift residual.  Adds the resonance-survival exponent
    adjudication, an RK4 order measurement, and a cross-integrator check.
    The comparison block stays in the leading half so the oracle retains
    truncation headroom over everything it certifies.
    """
    checks: list[CheckResult] = []
    corpus = validation_corpus(sys)
    half = dim // 2
    u_resonant = None
    for entry in corpus:
        cfg = IntegratorConfig(dt=dt, dim=dim)
        u_num = integrate_schrodinger(sys, entry.waveform, entry.t_final, cfg)
        if entry.name == "rotating_resonant":
            u_resonant = u_num
        u_fac = _factorized_matrix(sys, entry, dim)
        resid = float(np.max(np.abs((u_num.matrix - u_fac)[:half, :half])))
        checks.append(
            CheckResult(
                f"factorization[{entry.name}]", resid, 1e-6, resid < 1e-6,
                {"dt": dt, "dim": dim},
            )
        )
        hres = heisenberg_residual(u_num, sys, entry.waveform, entry.t_final)
        checks.append(
            CheckResult(f"heisenberg[{entry.name}]", hres, 1e-6, hres < 1e-6, {})
        )
        udef = u_num.unitarity_defect(half)
        checks.append(
            CheckResult(f"unitarity[{entry.name}]", udef, 1e-7, udef < 1e-7, {})
        )
        grid = np.linspace(0.0, entry.t_final, 21)
        gres = guiding_center_residual(sys, entry.waveform, grid)
        checks.append(
            CheckResult(
                f"guiding_center[{entry.name}]", gres, 1e-9, gres < 1e-9, {}
            )
        )

    # Resonance survival: exponent prefactor 1/2 must match the integrator,
    # the prefactor-2 variant must not.
    resonant = next(e for e in corpus if e.name == "rotating_resonant")
    e0 = resonant.waveform.amplitude
    surv_num = float(abs(u_resonant.matrix[0, 0]) ** 2)
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
        sign = -1.0 if sys.mirrored else 1.0
        probe = CorpusEntry(
            "convergence_probe",
            RotatingField(
                0.18 * sys.internal_scales().field,
                sign * 0.95 / sys.internal_scales().time,
            ),
            10.0 * sys.internal_scales().time,
        )
        probe_dim = max(dim, 48)  # the probe drive reaches k|u| ~ 1.3
        probe_half = probe_dim // 2
        resids = {}
        for dti in (0.01, 0.02, 0.04):
            cfg = IntegratorConfig(dt=dti, dim=probe_dim)
            u_num = integrate_schrodinger(sys, probe.waveform, probe.t_final, cfg)
            u_fac = _factorized_matrix(sys, probe, probe_dim)
            resids[dti] = float(
                np.max(np.abs((u_num.matrix - u_fac)[:probe_half, :probe_half]))
            )
        r1, r2, r4 = resids[0.01], resids[0.02], resids[0.04]
        ratios = (r2 / r1, r4 / r2)
        ok = all(9.0 < r < 28.0 for r in ratios)
        checks.append(
            CheckResult(
                "rk4_convergence_order",
                min(ratios),
                16.0,
                ok,
                {"residuals": resids, "ratios": ratios},
            )
        )

        cfg = IntegratorConfig(dt=0.02, dim=48, scheme="expmid")
        probe_off = next(e for e in corpus if e.name == "rotating_off")
        u_mid = integrate_schrodinger(sys, probe_off.waveform, probe_off.t_final, cfg)
        u_fac = _factorized_matrix(sys, probe_off, 48)
        resid = float(np.max(np.abs((u_mid.matrix - u_fac)[:24, :24])))
        checks.append(
            CheckResult(
                "scheme_crosscheck[expmid]", resid, 1e-3, resid < 1e-3, {"dt": 0.02}
            )
        )

    return checks
