
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive.errors import AccuracyError
from landau_drive import oracle
from landau_drive.oracle import (
    _EIGH_MEMO,
    _banded_rk4,
    _expmid_step,
    _hamiltonian,
    _step_maps,
)

from _reference import expm, sample_waveform


def dynamical_diag(dim, t):
    return np.exp(-1j * (np.arange(dim) + 0.5) * t)


def factorized(sys_, w, t, dim):
    p = ld.assemble(sys_, w, t, dim=dim)
    return dynamical_diag(dim, sys_.omega * t)[:, None] * p.j_op.matrix


def dense_rk4(sys_, w, t_final, dim, dt):
    """The rk4 scheme of integrate_schrodinger, restated with dense products.

    Builds G(t) = (i k / 2)(Rdot* e^{-it} a + Rdot e^{it} a^dag) as a full
    matrix from one scalar field value per node, advances node times by a
    running t += h, and multiplies G(t) @ U at every stage.
    """
    w_i, scales, _ = ld.internalize(sys_, w)
    t_i = t_final / scales.time
    a, ad = (op.matrix for op in ld.ladder_ops(dim))

    def gen(t):
        rdot = complex(-1j * w_i.field(t))
        return (0.5j * math.sqrt(2.0)) * (
            np.conj(rdot) * np.exp(-1j * t) * a + rdot * np.exp(1j * t) * ad
        )

    edges = [0.0] + [p for p in sorted(w_i.breakpoints()) if 0.0 < p < t_i] + [t_i]
    u = np.eye(dim, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, math.ceil((hi - lo) / dt))
        h = (hi - lo) / n
        t = lo
        for _ in range(n):
            k1 = gen(t) @ u
            g_mid = gen(t + h / 2.0)
            k2 = g_mid @ (u + (h / 2.0) * k1)
            k3 = g_mid @ (u + (h / 2.0) * k2)
            k4 = gen(t + h) @ (u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
    return dynamical_diag(dim, t_i)[:, None] * u


def square_banded_rk4(sys_, w, t_final, dim, dt):
    """The rk4 scheme of integrate_schrodinger on the full square matrix.

    The same shifted-row generator, stage buffers, in-place update and node
    times, started from the square identity instead of its leading
    columns.  The generator keeps the broadcast formula the oracle used
    before it filled full-shape coefficient arrays: each (dim - 1, 1)
    coefficient column times the block.  Returns all dim columns.
    """
    w_i, scales, _ = ld.internalize(sys_, w)
    t_i = t_final / scales.time
    sqrt2 = math.sqrt(2.0)
    sqrt_n = np.sqrt(np.arange(1.0, dim))[:, None]
    u = np.eye(dim, dtype=complex)
    stage, k1, k2, k3, k4 = (np.empty_like(u) for _ in range(5))

    def gen_apply(c_a, c_ad, v, out):
        np.multiply(c_a * sqrt_n, v[1:], out=out[:-1])
        out[-1] = 0.0
        out[1:] += (c_ad * sqrt_n) * v[:-1]

    edges = [0.0] + [p for p in sorted(w_i.breakpoints()) if 0.0 < p < t_i] + [t_i]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, math.ceil((hi - lo) / dt))
        h = (hi - lo) / n
        starts = np.cumsum(np.r_[lo, np.full(n - 1, h)])
        nodes = np.concatenate([starts, starts + h / 2.0, starts + h])
        rdot = -1j * np.asarray(w_i.field(nodes), dtype=complex)
        c_a = (0.5j * sqrt2) * (np.conj(rdot) * np.exp(-1j * nodes))
        c_ad = (0.5j * sqrt2) * (rdot * np.exp(1j * nodes))
        for k in range(n):
            mid, end = n + k, 2 * n + k
            gen_apply(c_a[k], c_ad[k], u, k1)
            np.multiply(k1, h / 2.0, out=stage)
            stage += u
            gen_apply(c_a[mid], c_ad[mid], stage, k2)
            np.multiply(k2, h / 2.0, out=stage)
            stage += u
            gen_apply(c_a[mid], c_ad[mid], stage, k3)
            np.multiply(k3, h, out=stage)
            stage += u
            gen_apply(c_a[end], c_ad[end], stage, k4)
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= h / 6.0
            u += k2
    return dynamical_diag(dim, t_i)[:, None] * u


def expmid_loop(sys_, w, t_final, dim, dt, step):
    """The expmid scheme of integrate_schrodinger as a plain step loop.

    Node times in three blocks of n (starts, midpoints, ends), its own
    layout rather than ``_step_nodes``', one field call per span, and
    u = step(u, h, Rdot) at every midpoint, from the identity's leading
    columns.
    """
    w_i, scales, _ = ld.internalize(sys_, w)
    t_i = t_final / scales.time
    u = np.eye(dim, dim // 2, dtype=complex)
    edges = [0.0] + [p for p in sorted(w_i.breakpoints()) if 0.0 < p < t_i] + [t_i]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, math.ceil((hi - lo) / dt))
        h = (hi - lo) / n
        starts = np.cumsum(np.r_[lo, np.full(n - 1, h)])
        nodes = np.concatenate([starts, starts + h / 2.0, starts + h])
        for r in -1j * np.asarray(w_i.field(nodes), dtype=complex)[n : 2 * n]:
            u = step(u, h, r)
    return u


def kernel_spans(sys_, w, t_final, cfg):
    """The (h, c_a, c_ad) spans integrate_schrodinger hands the RK4 kernel."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_banded_rk4", lambda u, spans: seen.extend(spans))
        ld.integrate_schrodinger(sys_, w, t_final, cfg)
    return seen


def longdouble_rk4(u, spans):
    """Classical RK4 on the kernel's spans in np.clongdouble.

    Stage by stage, on the same float64 coefficients and float64 square
    roots, so what it measures is the float64 kernel's rounding alone.
    """
    u = np.asarray(u, dtype=np.clongdouble)
    root = np.sqrt(np.arange(1.0, u.shape[0])).astype(np.longdouble)[:, None]

    def gen(c_a, c_ad, v):
        out = np.zeros_like(v)
        out[:-1] = (c_a * root) * v[1:]
        out[1:] += (c_ad * root) * v[:-1]
        return out

    for h, c_a, c_ad in spans:
        n = len(c_a) // 2
        h = np.longdouble(h)
        c_a, c_ad = c_a.astype(np.clongdouble), c_ad.astype(np.clongdouble)
        for k in range(n):
            mid = n + 1 + k
            k1 = gen(c_a[k], c_ad[k], u)
            k2 = gen(c_a[mid], c_ad[mid], u + (h / 2) * k1)
            k3 = gen(c_a[mid], c_ad[mid], u + (h / 2) * k2)
            k4 = gen(c_a[k + 1], c_ad[k + 1], u + h * k3)
            u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def dense_step_maps(u, spans):
    """Each step map of the kernel's spans as a dense (dim, dim) matrix."""
    dim = u.shape[0]
    for h, c_a, c_ad in spans:
        n = len(c_a) // 2
        bands = next(_step_maps(dim, h, c_a, c_ad, n))
        for k in range(n):
            step_map = np.zeros((dim, dim), dtype=complex)
            for j, band in enumerate(bands[:, :dim, k]):
                offset = j - (len(bands) // 2)
                m = np.arange(max(0, -offset), dim - max(0, offset))
                step_map[m, m + offset] = band[m]
            yield step_map


def folded_rk4(u, spans):
    """The kernel's steps with the identity folded into each map:
    u <- (I + N) u, so the diagonal 1 + N[m, m] is rounded on every step."""
    u = np.array(u, dtype=complex)
    for step_map in dense_step_maps(u, spans):
        step_map += np.eye(u.shape[0])
        u = step_map @ u
    return u


@functools.cache
def longdouble_case(name):
    """(spans, float64 kernel columns, np.clongdouble RK4 columns, t) of
    one natural-units corpus entry at dim 64 and dt 0.01: 1000 steps."""
    natural = ld.PhysicalSystem(1.0, 1.0, 1.0)
    entry = {e.name: e for e in ld.validation_corpus(natural)}[name]
    spans = kernel_spans(natural, entry.waveform, entry.t_final,
                         ld.IntegratorConfig(dt=0.01, dim=64))
    u = np.eye(64, 32, dtype=complex)
    ref = longdouble_rk4(u, spans)
    _banded_rk4(u, spans)
    return spans, u, ref, entry.t_final


def complex_eigh_step(u, h, r):
    """exp(-i h H(r)) u by a complex eigh of H(r) itself, at every step."""
    lam, v = np.linalg.eigh(_hamiltonian(r, u.shape[0]))
    return (v * np.exp(-1j * h * lam)) @ (v.conj().T @ u)


def recomputed_gauge_step(u, h, r):
    """The oracle's gauge step, with the real eigh recomputed every step."""
    return _expmid_step(u, h, r, *np.linalg.eigh(_hamiltonian(float(abs(r)), u.shape[0])))


def expmid_waveform(sys_, name):
    """A validation-corpus waveform by name, or a linear-sinusoid drive."""
    if name == "linear_sinusoid_fast":
        scales = sys_.internal_scales()
        return ld.LinearSinusoidField(0.12 * scales.field, 0.3, 0.8 / scales.time, 0.1)
    return {e.name: e.waveform for e in ld.validation_corpus(sys_)}[name]


SYSTEMS = pytest.mark.parametrize(
    "system", [(1.0, 1.0, 1.0), (-1.0, 2.0, 0.7)], ids=["positive", "mirrored"]
)


def loop_guiding_center(sys_, w, t_grid):
    """guiding_center_residual restated as a scalar step loop.

    One field call per node, node times from a running t += h, and the
    Simpson steps added to the drift one at a time, each grid time's drift
    compared with i R from ``build_drive_path`` in internal units.
    """
    w_i, scales, mirrored = ld.internalize(sys_, w)
    grid_i = np.asarray(t_grid, dtype=float) / scales.time
    rate = max(w_i.rate(), 1e-12)
    r_i = ld.build_drive_path(sys_, w, t_grid).r / scales.length
    if mirrored:
        r_i = np.conj(r_i)

    def f(t):
        return complex(w_i.field(t))

    breaks = sorted(w_i.breakpoints())
    residual, wc = 0.0, 0.0 + 0.0j
    for t0, t1, r1 in zip(grid_i[:-1], grid_i[1:], r_i[1:]):
        edges = [t0] + [p for p in breaks if t0 < p < t1] + [t1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = max(1, math.ceil((hi - lo) * rate / 0.005))
            h = (hi - lo) / n
            t = lo
            for _ in range(n):
                wc += (h / 6.0) * (f(t) + 4.0 * f(t + h / 2.0) + f(t + h))
                t += h
        residual = max(residual, abs(wc - 1j * complex(r1)))
    return residual


# exactly zero on the kink-bounded spans [1.0, 1.5] and [1.5, 2.0], and
# nonzero on every other span
ZERO_STRETCH = ld.SampledField(
    np.arange(-0.5, 4.01, 0.5),
    [0.1, -0.05, 0.2, 0.0, 0.0, 0.0, 0.12, -0.1, 0.06, 0.02],
    [0.0, 0.08, -0.1, 0.0, 0.0, 0.0, 0.03, 0.1, -0.04, 0.05],
)

# piecewise linear with a kink every 0.5, so t = 3.0 lands on one
KINKED = sample_waveform(
    ld.SumField((ld.RotatingField(0.08, 0.7, 0.2), ld.ConstantField(0.03, -0.02))),
    np.linspace(-0.5, 5.0, 12),
)


class TestIntegratorConfig:
    def test_defaults_valid(self):
        cfg = ld.IntegratorConfig()
        assert cfg.dt == 0.01 and cfg.scheme == "rk4"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": 0.06},
            {"dt": 1e-300},  # positive, but 10^301 steps per unit time
            {"dt": 9e-5},
            {"dim": 1},
            {"scheme": "euler"},
            # a float dim used to pass, then fail inside np.eye with a bare
            # TypeError; it would also key the kernel's per-dim tables
            {"dim": 10.0},
            {"dim": 7.5},
            {"dim": np.float64(64.0)},
            {"dim": True},
            {"dim": "64"},
            # a non-real dt used to reach the range check: a bare TypeError
            {"dt": "0.01"},
            {"dt": None},
            {"dt": 0.01 + 0j},
        ],
    )
    def test_invalid(self, kwargs):
        # the message names the key
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must"):
            ld.IntegratorConfig(**kwargs)

    def test_numpy_integer_dim(self, natural):
        cfg = ld.IntegratorConfig(dim=np.int64(16))
        u = ld.integrate_schrodinger(natural, ld.RotatingField(0.05, 0.9), 1.0, cfg)
        assert u.shape == (16, 8)


def pi_sector_hamiltonian(sys_, w, t, dim):
    """The oracle's ladder-sector H at time t, in internal units of hbar omega."""
    w_i, scales, _ = ld.internalize(sys_, w)
    return _hamiltonian(complex(-1j * w_i.field(t / scales.time)), dim)


class TestPiSectorHamiltonian:
    def test_zero_field_is_static_ladder(self, natural):
        h = pi_sector_hamiltonian(natural, ld.ZeroField(), 2.0, 10)
        assert_allclose(h, np.diag(np.arange(10) + 0.5))

    def test_hermitian_by_construction(self, natural):
        w = ld.RotatingField(0.3, 0.8, 0.5)
        for t in (0.0, 1.2, 7.7):
            h = pi_sector_hamiltonian(natural, w, t, 16)
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_rotating_drive_term(self, natural):
        # drive is -(k/2)(Rdot* a + Rdot a^dag) with Rdot = -i (c/B) E
        e0 = 0.25
        w = ld.RotatingField(e0, 0.8)
        dim = 12
        h = pi_sector_hamiltonian(natural, w, 0.0, dim)
        a, ad = ld.ladder_ops(dim)
        rdot = -1j * e0
        expected = np.diag(np.arange(dim) + 0.5) - (natural.k / 2.0) * (
            np.conj(rdot) * a.matrix + rdot * ad.matrix
        )
        assert_allclose(h, expected, atol=1e-15)


class TestHamiltonianGauge:
    @pytest.mark.parametrize(
        "r",
        [0.3 + 0.2j, -0.3 + 0.2j, -0.3 - 0.2j, 0.3 - 0.2j, 0.25 + 0j, -0.25 + 0j,
         0.25j, -0.25j, complex(-0.3, -0.0), complex(0.3, -0.0), 0j],
        ids=["q1", "q2", "q3", "q4", "re+", "re-", "im+", "im-", "re-im-0", "re+im-0",
             "zero"],
    )
    def test_phase_rotates_real_hamiltonian(self, r):
        # H(r) = P H(|r|) P^dag with P = diag(e^{i m arg r}); the diagonal
        # is shared exactly, and each entry of P H P^dag rounds within a few
        # ulps times m |arg r|, the size of P's largest phase
        dim = 48
        phi = math.atan2(r.imag, r.real)
        p = np.exp(1j * phi * np.arange(dim))[:, None]
        h, h_real = _hamiltonian(r, dim), _hamiltonian(abs(r), dim)
        assert h_real.dtype == np.float64 and np.array_equal(h_real, h_real.T)
        assert np.array_equal(np.diag(h), np.diag(h_real))
        bound = np.finfo(float).eps * (4.0 + 2.0 * dim * abs(phi)) * np.abs(h)
        assert np.all(np.abs(h - p * h_real * np.conj(p).T) <= bound)


class TestIntegrateSchrodinger:
    def test_zero_field_exact_phases(self, natural):
        for scheme in ("rk4", "expmid"):
            cfg = ld.IntegratorConfig(dim=16, scheme=scheme)
            u = ld.integrate_schrodinger(natural, ld.ZeroField(), 6.0, cfg)
            assert u.shape == (16, 8)
            assert np.max(np.abs(u - np.diag(dynamical_diag(16, 6.0))[:, :8])) < 1e-9

    @pytest.mark.parametrize("scheme", ["rk4", "expmid"])
    def test_time_zero_identity(self, natural, scheme):
        # no step runs at t = 0, so both schemes return the identity's
        # leading columns exactly
        for w, dim in ((ld.ZeroField(), 8), (ld.RotatingField(0.1, 0.9, 0.3), 16)):
            cfg = ld.IntegratorConfig(dim=dim, scheme=scheme)
            u = ld.integrate_schrodinger(natural, w, 0.0, cfg)
            assert np.array_equal(u, np.eye(dim, dim // 2))

    def test_factorization_off_resonance(self, natural):
        w = ld.RotatingField(0.1, 0.7)
        t, dim = 10.0, 48
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        resid = np.max(np.abs(u[:24] - factorized(natural, w, t, dim)[:24, :24]))
        assert resid < 1e-6

    def test_resonance_survival_adjudication(self, natural):
        e0, t, dim = 0.12, 10.0, 48
        w = ld.RotatingField(e0, 1.0)
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        surv = abs(u[0, 0]) ** 2
        assert abs(surv - ld.resonance_survival(natural, e0, t)) < 1e-6
        assert abs(surv - ld.resonance_survival_alt_prefactor(natural, e0, t)) > 1e-2

    def test_truncation_stability(self, natural):
        w = ld.RotatingField(0.1, 0.7)
        cfg32 = ld.IntegratorConfig(dim=32, dt=0.02)
        cfg48 = ld.IntegratorConfig(dim=48, dt=0.02)
        u32 = ld.integrate_schrodinger(natural, w, 8.0, cfg32)
        u48 = ld.integrate_schrodinger(natural, w, 8.0, cfg48)
        assert np.max(np.abs(u32[:16] - u48[:16, :16])) < 1e-8

    def test_rk4_fourth_order(self, natural):
        w = ld.RotatingField(0.18, 0.95)
        t, dim = 10.0, 40
        ref = factorized(natural, w, t, dim)
        resid = {}
        for dt in (0.02, 0.04):
            u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dt=dt, dim=dim))
            resid[dt] = np.max(np.abs(u[:20] - ref[:20, :20]))
        assert resid[0.04] / resid[0.02] == pytest.approx(16.0, rel=0.4)

    def test_expmid_agrees_with_rk4(self, natural):
        w = ld.LinearSinusoidField(0.12, 0.3, 0.8, 0.1)
        t, dim = 6.0, 32
        u_rk = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        u_mid = ld.integrate_schrodinger(
            natural, w, t, ld.IntegratorConfig(dim=dim, dt=0.01, scheme="expmid")
        )
        assert np.max(np.abs((u_rk - u_mid)[:16])) < 1e-4

    @pytest.mark.parametrize("dim", [8, 16, 48])
    @pytest.mark.parametrize("system", [(1.0, 1.0, 1.0), (-1.0, 2.0, 0.7)],
                             ids=["positive", "mirrored"])
    def test_expmid_step_matches_scipy_expm(self, system, dim):
        # one expmid step is exp(-i dt H(dt/2)); scipy's Pade expm of the
        # same Hamiltonian is the reference for numpy's eigh exponential
        sys_ = ld.PhysicalSystem(*system)
        scales = sys_.internal_scales()
        w = ld.ConstantField(0.3 * scales.field * math.cos(0.4),
                             0.3 * scales.field * math.sin(0.4))
        dt = 0.02
        t = dt * scales.time
        u = ld.integrate_schrodinger(sys_, w, t, ld.IntegratorConfig(dt=dt, dim=dim,
                                                                     scheme="expmid"))
        ref = expm(-1j * dt * pi_sector_hamiltonian(sys_, w, t / 2.0, dim))
        assert np.max(np.abs(u - ref[:, : dim // 2])) <= 1e-13

    @pytest.mark.parametrize("dim,t_units", [(8, 2.0), (16, 10.0), (48, 10.0)],
                             ids=["8", "16", "48"])
    @SYSTEMS
    @pytest.mark.parametrize(
        "name", ["rotating_off", "sampled_random", "linear_sinusoid_fast"]
    )
    def test_expmid_matches_complex_eigh_loop(self, name, system, dim, t_units):
        # rotating_off repeats three |Rdot| values, so the memo serves
        # nearly every step; the other two drives miss it on every step.
        # At dim 8 the columns stay off the basis edge only up to t = 2.
        sys_ = ld.PhysicalSystem(*system)
        w, t = expmid_waveform(sys_, name), t_units * sys_.internal_scales().time
        u = ld.integrate_schrodinger(sys_, w, t, ld.IntegratorConfig(dt=0.02, dim=dim,
                                                                     scheme="expmid"))
        ref = expmid_loop(sys_, w, t, dim, 0.02, complex_eigh_step)
        assert np.max(np.abs(u - ref)) <= 5e-13

    @pytest.mark.parametrize("dim", [16, 48])
    @SYSTEMS
    @pytest.mark.parametrize("name", ["rotating_off", "sampled_random"])
    def test_expmid_memo_is_exact(self, name, system, dim):
        # a memoized decomposition is the one eigh would recompute, bit for bit
        sys_ = ld.PhysicalSystem(*system)
        w, t = expmid_waveform(sys_, name), 10.0 * sys_.internal_scales().time
        u = ld.integrate_schrodinger(sys_, w, t, ld.IntegratorConfig(dt=0.02, dim=dim,
                                                                     scheme="expmid"))
        assert np.array_equal(u, expmid_loop(sys_, w, t, dim, 0.02, recomputed_gauge_step))

    def test_expmid_memory_stays_bounded(self, natural, monkeypatch):
        # every step of the sampled drive misses the memo, and the peak
        # stays under (memo limit + 4) real (64, 64) matrices: the memo
        # holds at most its limit of decompositions, whatever the steps
        dim = 64
        cfg = ld.IntegratorConfig(dt=0.02, dim=dim, scheme="expmid")
        ld.integrate_schrodinger(natural, KINKED, 3.3, cfg)  # one-time setup untraced
        eigh, calls = np.linalg.eigh, [0]

        def counting_eigh(a):
            calls[0] += 1
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        tracemalloc.start()
        try:
            ld.integrate_schrodinger(natural, KINKED, 3.3, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls[0] == 165  # six spans of 25 steps and one of 15
        assert peak <= (_EIGH_MEMO + 4) * dim * dim * 8

    def test_unitary_on_healthy_block(self, natural):
        w = ld.RotatingField(0.1, 0.7)
        u = ld.integrate_schrodinger(natural, w, 10.0, ld.IntegratorConfig(dim=48))
        assert ld.column_unitarity_defect(u) < 1e-7

    @pytest.mark.parametrize(
        "w,t_final",
        [
            (ld.ZeroField(), 4.0),
            (ld.ConstantField(0.1, -0.05), 4.0),
            (ld.RotatingField(0.1, 0.9, 0.3), 4.0),
            (ld.RotatingField(0.1, 0.9, 0.3), 0.0),
            (ld.LinearSinusoidField(0.12, 0.3, 0.8, 0.1), 4.0),
            (KINKED, 3.3),
            (KINKED, 3.0),
            (ld.SumField((ld.RotatingField(0.06, 1.0), KINKED)), 3.3),
        ],
        ids=["zero", "constant", "rotating", "rotating_t0", "linear_sinusoid",
             "sampled", "sampled_at_kink", "sum"],
    )
    def test_banded_rk4_matches_dense_products(self, natural, w, t_final):
        dim, dt = 12, 0.02
        u = ld.integrate_schrodinger(
            natural, w, t_final, ld.IntegratorConfig(dt=dt, dim=dim)
        )
        ref = dense_rk4(natural, w, t_final, dim, dt)
        assert np.max(np.abs(u - ref[:, : dim // 2])) <= 1e-13

    @pytest.mark.parametrize(
        "w,t_final,dim",
        [
            pytest.param(w, t_final, dim, id=f"{name}-{dim}")
            for dim in (13, 48, 64)
            for name, w, t_final in (
                ("zero", ld.ZeroField(), 4.0),
                ("rotating", ld.RotatingField(0.1, 0.9, 0.3), 4.0),
                ("sampled", KINKED, 3.3),
                ("sum", ld.SumField((ld.RotatingField(0.06, 1.0), KINKED)), 3.3),
            )
        ]
        # dim 3 gives the smallest odd block, (3, 1); only a weak drive
        # keeps its one column off the edge rows
        + [
            pytest.param(ld.ZeroField(), 2.0, 3, id="zero-3"),
            pytest.param(ld.RotatingField(0.001, 1.0), 2.0, 3, id="weak-3"),
        ],
    )
    def test_leading_columns_match_square_run(self, natural, w, t_final, dim):
        # each column evolves on its own, so the leading columns are the
        # square run's; the step maps sum the same terms in another order,
        # which moves them by at most 4e-16 here
        u = ld.integrate_schrodinger(
            natural, w, t_final, ld.IntegratorConfig(dt=0.02, dim=dim)
        )
        assert u.shape == (dim, dim // 2) and not u.flags.writeable
        ref = square_banded_rk4(natural, w, t_final, dim, 0.02)
        assert np.max(np.abs(u - ref[:, : dim // 2])) <= 1e-15

    @pytest.mark.parametrize("dim", [13, 64])
    @pytest.mark.parametrize(
        "w", [ZERO_STRETCH, ld.SumField((ZERO_STRETCH, ld.ZeroField()))],
        ids=["sampled", "sum"],
    )
    def test_zero_spans_skip_exactly(self, natural, w, dim):
        # G = 0 on a zero-field span, so each of its RK4 steps is the
        # identity: with or without those spans, the columns are the same
        # bit for bit
        assert not np.any(w.field(np.linspace(1.0, 2.0, 41)))
        spans = kernel_spans(natural, w, 3.7, ld.IntegratorConfig(dt=0.02, dim=dim))
        driven = [span for span in spans if span[1].any() or span[2].any()]
        assert 0 < len(driven) < len(spans)
        u, ref = (np.eye(dim, dim // 2, dtype=complex) for _ in range(2))
        _banded_rk4(u, spans)
        _banded_rk4(ref, driven)
        assert np.array_equal(u, ref)

    def test_zero_field_is_the_static_phases(self, natural):
        dim, t = 16, 6.0
        u = ld.integrate_schrodinger(natural, ld.ZeroField(), t, ld.IntegratorConfig(dim=dim))
        assert np.array_equal(u, dynamical_diag(dim, t)[:, None] * np.eye(dim, dim // 2))

    def test_banded_rk4_allocates_no_step_temporaries(self):
        # the step maps are built a chunk at a time into one fixed buffer,
        # and each step writes into one of two fixed blocks: the peak is
        # the same at 1000 and 8000 steps, up to a few hundred bytes of
        # Python objects (one step map is 16 KiB), and under 24 (64, 32)
        # blocks
        dim = 64
        rng = np.random.default_rng(7)
        u = np.eye(dim, dim // 2, dtype=complex)
        peaks = []
        for n in (1000, 1000, 8000):  # the first run builds the per-dim table
            c_a, c_ad = (0.05 * (rng.standard_normal(2 * n + 1)
                                 + 1j * rng.standard_normal(2 * n + 1))
                         for _ in range(2))
            v = u.copy()
            tracemalloc.start()
            try:
                _banded_rk4(v, [(0.01, c_a, c_ad)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert not np.array_equal(v, u)
        assert abs(peaks[2] - peaks[1]) < 1024 and max(peaks[1:]) <= 24 * u.nbytes

    @pytest.mark.parametrize("name", ["constant", "rotating_near", "sampled_random"])
    def test_kernel_matches_longdouble_rk4(self, name):
        # 1000 steps at dim 64 against the same RK4 in extended precision:
        # the kernel and the stage-by-stage square run both read 1.8-3.2e-15
        spans, u, ref, t = longdouble_case(name)
        assert np.max(np.abs(u - ref)) <= 1e-14
        natural = ld.PhysicalSystem(1.0, 1.0, 1.0)
        entry = {e.name: e for e in ld.validation_corpus(natural)}[name]
        square = square_banded_rk4(natural, entry.waveform, t, 64, 0.01)
        assert np.max(np.abs(square[:, :32] - dynamical_diag(64, t)[:, None] * ref)) <= 1e-14

    @pytest.mark.parametrize("name", ["constant", "rotating_near"])
    def test_folded_identity_fails_longdouble_bound(self, name):
        # negative control: the same step maps with I folded in round
        # 1 + N[m, m] alike on each step of a steady drive, and drift past
        # the bound above (5.3e-14 and 4.2e-14)
        spans, _, ref, _ = longdouble_case(name)
        u = folded_rk4(np.eye(64, 32, dtype=complex), spans)
        assert np.max(np.abs(u - ref)) > 1e-14

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_step_map_is_the_rk4_polynomial(self, dim):
        # N = (h/6)(G1 + 4 Gm + G4) + (h^2/6)(Gm G1 + Gm Gm + G4 Gm)
        #     + (h^3/12)(Gm Gm G1 + G4 Gm Gm) + (h^4/24) G4 Gm Gm G1,
        # from the truncated a and a^dag, edge rows included
        rng = np.random.default_rng(dim)
        c_a, c_ad = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        h = 0.3
        a, ad = (op.matrix for op in ld.ladder_ops(dim))
        g1, g4, gm = (c_a[i] * a + c_ad[i] * ad for i in range(3))
        expected = ((h / 6) * (g1 + 4 * gm + g4)
                    + (h**2 / 6) * (gm @ g1 + gm @ gm + g4 @ gm)
                    + (h**3 / 12) * (gm @ gm @ g1 + g4 @ gm @ gm)
                    + (h**4 / 24) * (g4 @ gm @ gm @ g1))
        (step_map,) = dense_step_maps(np.eye(dim), [(h, c_a, c_ad)])
        assert np.max(np.abs(step_map - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_overflowing_columns_raise_accuracy_error(self, natural):
        # non-finite columns fail the edge check rather than passing it
        w = ld.RotatingField(1e300, 0.7)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AccuracyError):
                ld.integrate_schrodinger(natural, w, 1.0, ld.IntegratorConfig(dim=8))

    def test_undersized_basis_raises(self, natural):
        w = ld.RotatingField(0.5, 1.0)  # resonant, k|u| ~ 3.5 by t = 10
        with pytest.raises(AccuracyError) as exc:
            ld.integrate_schrodinger(natural, w, 10.0, ld.IntegratorConfig(dim=16))
        assert exc.value.achieved > 1e-4


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_oracle_time_must_be_finite_and_nonnegative(natural, t):
    # both count their steps with math.ceil, which raises a bare ValueError
    # on NaN and OverflowError on inf
    w = ld.RotatingField(0.1, 0.9)
    with pytest.raises(ld.DomainError, match="time must be a finite t >= 0"):
        ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=8))
    with pytest.raises(ld.DomainError, match="finite t >= 0"):
        ld.heisenberg_residual(np.eye(8, 4), natural, w, t)


def test_oracle_time_past_float64_in_internal_units(electron_si):
    # t = 1e300 s is finite, but t / (1/omega) is not (1/omega ~ 3.8e-13 s):
    # the step count raised a bare OverflowError, and the Heisenberg scalar
    # a numpy warning
    assert electron_si.internal_scales().time < 1e-8
    w = ld.RotatingField(1e-8, 0.0)
    with pytest.raises(ld.DomainError, match="past float64 in internal time units"):
        ld.integrate_schrodinger(electron_si, w, 1e300, ld.IntegratorConfig(dim=8))
    with pytest.raises(ld.DomainError, match="past float64 in internal time units"):
        ld.heisenberg_residual(np.eye(8, 4), electron_si, w, 1e300)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_bad_time_has_one_message(natural, t):
    # the oracle refuses a t that is not finite and nonnegative by the
    # production propagator's rule, word for word
    w = ld.RotatingField(0.1, 0.9)
    calls = (lambda: ld.assemble(natural, w, t),
             lambda: ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=8)),
             lambda: ld.heisenberg_residual(np.eye(8, 4), natural, w, t))
    messages = set()
    for call in calls:
        with pytest.raises(ld.DomainError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {f"time must be a finite t >= 0, got {t!r}"}


def test_time_past_float64_has_one_message(electron_si):
    # t = 1e300 s is finite, t / (1/omega) is not: the oracle and the drive
    # path convert user time by one rule and refuse it with one message
    w = ld.RotatingField(1e-8, 0.0)
    calls = (
        lambda: ld.integrate_schrodinger(electron_si, w, 1e300, ld.IntegratorConfig(dim=8)),
        lambda: ld.heisenberg_residual(np.eye(8, 4), electron_si, w, 1e300),
        lambda: ld.build_drive_path(electron_si, w, [0.0, 1e300]),
    )
    messages = set()
    for call in calls:
        with pytest.raises(ld.DomainError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {"t_final is past float64 in internal time units"}


@pytest.mark.parametrize("w", [ld.RotatingField(0.1, 0.9), KINKED], ids=["rotating", "kinked"])
def test_each_span_node_is_sampled_once(natural, monkeypatch, w):
    # a span of n steps calls the field once, at its n + 1 knots and then
    # its n midpoints: 2n + 1 nodes, none repeated, each midpoint between
    # its step's knots
    from landau_drive import oracle

    cls = type(ld.internalize(natural, w)[0])
    field, calls, recording = cls.field, [], [True]

    def recorded(self, t):
        if recording[0]:
            calls.append(np.array(t, dtype=float))
        return field(self, t)

    def unrecorded_path(*args, **kwargs):
        # the R path the orbit-center check compares with is not its field
        recording[0] = False
        try:
            return build_drive_path(*args, **kwargs)
        finally:
            recording[0] = True

    build_drive_path = oracle.build_drive_path
    monkeypatch.setattr(cls, "field", recorded)
    monkeypatch.setattr(oracle, "build_drive_path", unrecorded_path)
    for scheme in ("rk4", "expmid"):
        cfg = ld.IntegratorConfig(dt=0.02, dim=16, scheme=scheme)
        ld.integrate_schrodinger(natural, w, 3.3, cfg)
    ld.guiding_center_residual(natural, w, np.linspace(0.0, 3.3, 21))
    assert len(calls) >= 22
    for t in calls:
        n = t.size // 2
        knots, mids = t[: n + 1], t[n + 1 :]
        assert t.size == 2 * n + 1 and np.unique(t).size == t.size
        assert np.all(knots[:-1] < mids) and np.all(mids < knots[1:])


class TestHeisenbergResidual:
    def test_zero_field_pure_rotation(self, natural):
        dim = 24
        u = np.diag(dynamical_diag(dim, 5.0))[:, : dim // 2]
        assert ld.heisenberg_residual(u, natural, ld.ZeroField(), 5.0) < 1e-10

    def test_factorized_operator(self, natural):
        w = ld.RotatingField(0.12, 0.75)
        t, dim = 9.0, 48
        u = factorized(natural, w, t, dim)[:, : dim // 2]
        assert ld.heisenberg_residual(u, natural, w, t) < 1e-7

    def test_numerical_operator(self, natural):
        w = ld.RotatingField(0.12, 0.75)
        t, dim = 9.0, 48
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        assert ld.heisenberg_residual(u, natural, w, t) < 1e-6

    def test_columns_match_square_formula(self, natural):
        # U[:, :b]^dag a U[:, :b] is the leading b x b block of the square
        # U^dag a U, so the column form gives the square form's residual
        from landau_drive.oracle import _drive_integral

        w = ld.RotatingField(0.12, 0.75)
        t, dim, b = 9.0, 48, 24
        full = factorized(natural, w, t, dim)
        a = ld.ladder_ops(dim)[0].matrix
        w_i = ld.internalize(natural, w)[0]  # natural units: internal t is t
        sigma = 1j * np.exp(-1j * t) * _drive_integral(w_i, t) / math.sqrt(2.0)
        square = full.conj().T @ a @ full - (a * np.exp(-1j * t) + sigma * np.eye(dim))
        expected = np.max(np.abs(square[:b, :b]))
        got = ld.heisenberg_residual(full[:, :b], natural, w, t)
        assert abs(got - expected) <= 1e-15

    @pytest.mark.parametrize("shape", [(8,), (4, 8), (8, 0)])
    def test_rejects_non_column_block(self, natural, shape):
        with pytest.raises(ValueError):
            ld.heisenberg_residual(np.ones(shape), natural, ld.ZeroField(), 1.0)

    def test_many_breakpoints(self, natural):
        # 109 interior kinks, each a panel edge
        w = sample_waveform(ld.RotatingField(0.05, 0.9), np.linspace(-0.5, 10.5, 121))
        t = 10.0
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dt=0.05, dim=16))
        assert ld.heisenberg_residual(u, natural, w, t) < 1e-6

    def test_unresolved_drive_integral_raises(self, natural, monkeypatch):
        # an understated rate leaves pi/4 panels under a 41-rad/unit integrand;
        # the rate read is the internal waveform's, so its class is patched
        w = ld.RotatingField(0.1, 40.0)
        monkeypatch.setattr(type(ld.internalize(natural, w)[0]), "rate", lambda self: 0.0)
        u = np.eye(8, 4)
        with pytest.raises(AccuracyError) as exc:
            ld.heisenberg_residual(u, natural, w, 5.0)
        assert exc.value.achieved > 1e-12


class TestGuidingCenterResidual:
    def test_zero_field(self, natural):
        grid = np.linspace(0.0, 10.0, 11)
        assert ld.guiding_center_residual(natural, ld.ZeroField(), grid) == 0.0

    def test_constant_field_exact(self, natural):
        grid = np.linspace(0.0, 10.0, 11)
        w = ld.ConstantField(0.3, -0.2)
        assert ld.guiding_center_residual(natural, w, grid) < 1e-12

    def test_rotating_field(self, natural):
        grid = np.linspace(0.0, 40.0, 21)
        w = ld.RotatingField(0.2, 1.2)
        assert ld.guiding_center_residual(natural, w, grid) < 1e-9

    def test_sampled_field_exact(self, natural):
        w = sample_waveform(ld.RotatingField(0.2, 0.9), np.linspace(-0.5, 12.0, 60))
        grid = np.linspace(0.0, 11.0, 12)
        assert ld.guiding_center_residual(natural, w, grid) < 1e-12

    @pytest.mark.parametrize(
        "w",
        [
            ld.LinearSinusoidField(0.12, 0.3, 0.8, 0.1),
            ld.RotatingField(0.2, 1.2),
            KINKED,
            ld.SumField((ld.RotatingField(0.06, 1.0), KINKED)),
        ],
        ids=["linear_sinusoid", "rotating", "sampled", "sum"],
    )
    def test_matches_scalar_step_loop(self, natural, w):
        # same nodes and summation order, so only the field values' last
        # bits may differ between the vectorized and the scalar calls
        grid = np.linspace(0.0, 4.5, 7)
        got = ld.guiding_center_residual(natural, w, grid)
        assert abs(got - loop_guiding_center(natural, w, grid)) <= 1e-16

    def test_single_point_grid(self, natural):
        w = ld.RotatingField(0.2, 1.2)
        assert ld.guiding_center_residual(natural, w, [0.0]) == 0.0

    @pytest.mark.parametrize("charge", [1.0, -1.0])
    @pytest.mark.parametrize("corrupt", [np.conj, np.negative], ids=["conjugated", "negated"])
    def test_negative_control_corrupted_r(self, charge, corrupt, monkeypatch):
        # the check reads build_drive_path's R, so a wrong R there must fail
        # it for every corpus entry that drifts at all
        from landau_drive import oracle

        sys_ = ld.PhysicalSystem(charge, 1.0, 1.0)
        build = oracle.build_drive_path

        def corrupted(*args, **kwargs):
            dp = build(*args, **kwargs)
            return dataclasses.replace(dp, r=corrupt(dp.r))

        monkeypatch.setattr(oracle, "build_drive_path", corrupted)
        for entry in ld.validation_corpus(sys_):
            grid = np.linspace(0.0, entry.t_final, 21)
            gres = ld.guiding_center_residual(sys_, entry.waveform, grid)
            if entry.name == "zero":
                assert gres == 0.0
            else:
                assert gres > 1e-3, entry.name

    def test_grid_validation(self, natural):
        with pytest.raises(ValueError):
            ld.guiding_center_residual(natural, ld.ZeroField(), [1.0, 2.0])


class TestValidationCorpus:
    def test_covers_every_variant_and_resonance(self, natural):
        corpus = ld.validation_corpus(natural)
        names = [e.name for e in corpus]
        assert names == [
            "zero", "constant", "linear_sinusoid", "rotating_off",
            "rotating_near", "rotating_resonant", "sampled_random",
        ]
        resonant = corpus[5].waveform
        assert resonant.nu == pytest.approx(natural.omega)

    def test_resonant_sign_follows_charge(self, electron_si):
        corpus = ld.validation_corpus(electron_si)
        resonant = next(e for e in corpus if e.name == "rotating_resonant")
        assert resonant.waveform.nu == pytest.approx(-electron_si.omega)

    def test_corpus_is_deterministic(self, natural):
        a = ld.validation_corpus(natural)
        b = ld.validation_corpus(natural)
        assert a == b

    def test_full_corpus_for_mirrored_system(self, electron_si):
        # the reflected-frame machinery must meet the same tolerances the
        # acceptance gate pins for the positive-charge system
        checks = ld.run_validation(electron_si, dim=64)
        bad = [c.name for c in checks if not c.passed]
        assert not bad, bad

    def test_negative_control_corrupted_sign(self, natural, monkeypatch):
        # flipping the displacement argument in the production route must
        # break the factorization
        from landau_drive import propagator
        from landau_drive.oracle import _factorization

        w, t, cfg = ld.RotatingField(0.1, 0.7), 6.0, ld.IntegratorConfig(dim=32)
        good = _factorization(natural, w, t, cfg)[1]
        argument = propagator.displacement_argument
        monkeypatch.setattr(propagator, "displacement_argument", lambda s, u: -argument(s, u))
        bad = _factorization(natural, w, t, cfg)[1]
        assert good < 1e-6
        assert bad > 1e-2


CORPUS_NAMES = ("zero", "constant", "linear_sinusoid", "rotating_off",
                "rotating_near", "rotating_resonant", "sampled_random")

#: (kind, tolerance, details keys) of each corpus entry's checks, in order.
ENTRY_ROWS = (
    ("factorization", 1e-6, ["dt", "dim"]),
    ("heisenberg", 1e-6, []),
    ("unitarity", 1e-7, []),
    ("guiding_center", 1e-9, []),
)


#: The ordered (name, tolerance, details keys) of every validate check.
REPORT_SCHEMA = [
    *((f"{kind}[{name}]", tol, keys) for name in CORPUS_NAMES for kind, tol, keys in ENTRY_ROWS),
    ("resonance_survival_prefactor", 1e-6, [
        "integrator_survival", "half_prefactor_survival", "two_prefactor_survival",
        "half_prefactor_deviation", "two_prefactor_deviation", "adjudication",
    ]),
    ("rk4_convergence_order", 16.0, ["residuals", "ratios"]),
    ("scheme_crosscheck[expmid]", 1e-3, ["dt"]),
]


class TestRunValidation:
    @pytest.mark.parametrize("system", [(1.0, 1.0, 1.0), (-1.0, 2.0, 0.7)],
                             ids=["positive", "mirrored"])
    def test_report_schema(self, system):
        # names, order, tolerances and details keys depend on neither dim
        # nor dt, so a coarse run pins them
        checks = ld.run_validation(ld.PhysicalSystem(*system), dim=16, dt=0.05)
        got = [(c.name, c.tolerance, list(c.details)) for c in checks]
        assert got == REPORT_SCHEMA
        assert len(got) == 31
        compound = ("resonance_survival_prefactor", "rk4_convergence_order")
        bounded = [c for c in checks if c.name not in compound]
        assert all(c.passed == (c.value < c.tolerance) for c in bounded)

    def test_layer_functions_are_looked_up_on_the_module(self, natural, monkeypatch):
        # perfbench wraps these module attributes to time each layer, so the
        # suite must call them through the module, not through saved objects
        from landau_drive import oracle

        calls = {}
        for name in ("integrate_schrodinger", "heisenberg_residual",
                     "guiding_center_residual", "assemble"):
            def counted(*args, _fn=getattr(oracle, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(oracle, name, counted)
        checks = ld.run_validation(natural)
        assert calls == {"integrate_schrodinger": 11, "heisenberg_residual": 7,
                         "guiding_center_residual": 7, "assemble": 11}
        assert [c.name for c in checks] == [name for name, _, _ in REPORT_SCHEMA]
        assert all(c.passed for c in checks)
