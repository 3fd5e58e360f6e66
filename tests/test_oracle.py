
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive.errors import AccuracyError


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


def loop_guiding_center(sys_, w, t_grid, phase_per_step=0.005):
    """guiding_center_residual restated as a scalar step loop.

    One field call per node, node times from a running t += h, and the
    Simpson steps added to the drift one at a time.
    """
    w_i, scales, _ = ld.internalize(sys_, w)
    grid_i = np.asarray(t_grid, dtype=float) / scales.time
    rate = max(w_i.rate(), 1e-12)

    def f(t):
        return complex(w_i.field(t))

    breaks = sorted(w_i.breakpoints())
    residual, wc = 0.0, 0.0 + 0.0j
    for t0, t1 in zip(grid_i[:-1], grid_i[1:]):
        edges = [t0] + [p for p in breaks if t0 < p < t1] + [t1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = max(1, math.ceil((hi - lo) * rate / phase_per_step))
            h = (hi - lo) / n
            t = lo
            for _ in range(n):
                wc += (h / 6.0) * (f(t) + 4.0 * f(t + h / 2.0) + f(t + h))
                t += h
        residual = max(residual, abs(wc - complex(w_i.field_integral(t1))))
    return residual


# piecewise linear with a kink every 0.5, so t = 3.0 lands on one
KINKED = ld.sample_waveform(
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
            {"dim": 1},
            {"scheme": "euler"},
            {"tolerance": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ld.IntegratorConfig(**kwargs)


class TestPiSectorHamiltonian:
    def test_zero_field_is_static_ladder(self, natural):
        h = ld.pi_sector_hamiltonian(natural, ld.ZeroField(), 2.0, 10)
        assert_allclose(h.matrix, np.diag(np.arange(10) + 0.5))

    def test_hermitian_by_construction(self, natural):
        w = ld.RotatingField(0.3, 0.8, 0.5)
        for t in (0.0, 1.2, 7.7):
            h = ld.pi_sector_hamiltonian(natural, w, t, 16).matrix
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_rotating_drive_term(self, natural):
        # drive is -(k/2)(Rdot* a + Rdot a^dag) with Rdot = -i (c/B) E
        e0 = 0.25
        w = ld.RotatingField(e0, 0.8)
        dim = 12
        h = ld.pi_sector_hamiltonian(natural, w, 0.0, dim).matrix
        a, ad = ld.ladder_ops(dim)
        rdot = -1j * e0
        expected = np.diag(np.arange(dim) + 0.5) - (natural.k / 2.0) * (
            np.conj(rdot) * a.matrix + rdot * ad.matrix
        )
        assert_allclose(h, expected, atol=1e-15)


class TestIntegrateSchrodinger:
    def test_zero_field_exact_phases(self, natural):
        for scheme in ("rk4", "expmid"):
            cfg = ld.IntegratorConfig(dim=16, scheme=scheme)
            u = ld.integrate_schrodinger(natural, ld.ZeroField(), 6.0, cfg)
            assert np.max(np.abs(u.matrix - np.diag(dynamical_diag(16, 6.0)))) < 1e-9

    def test_time_zero_identity(self, natural):
        cfg = ld.IntegratorConfig(dim=8)
        u = ld.integrate_schrodinger(natural, ld.ZeroField(), 0.0, cfg)
        assert_allclose(u.matrix, np.eye(8))

    def test_factorization_off_resonance(self, natural):
        w = ld.RotatingField(0.1, 0.7)
        t, dim = 10.0, 48
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        resid = np.max(np.abs((u.matrix - factorized(natural, w, t, dim))[:24, :24]))
        assert resid < 1e-6

    def test_resonance_survival_adjudication(self, natural):
        e0, t, dim = 0.12, 10.0, 48
        w = ld.RotatingField(e0, 1.0)
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        surv = abs(u.matrix[0, 0]) ** 2
        assert abs(surv - ld.resonance_survival(natural, e0, t)) < 1e-6
        assert abs(surv - ld.resonance_survival_alt_prefactor(natural, e0, t)) > 1e-2

    def test_truncation_stability(self, natural):
        w = ld.RotatingField(0.1, 0.7)
        cfg32 = ld.IntegratorConfig(dim=32, dt=0.02)
        cfg48 = ld.IntegratorConfig(dim=48, dt=0.02)
        u32 = ld.integrate_schrodinger(natural, w, 8.0, cfg32)
        u48 = ld.integrate_schrodinger(natural, w, 8.0, cfg48)
        assert np.max(np.abs(u32.matrix[:16, :16] - u48.matrix[:16, :16])) < 1e-8

    def test_rk4_fourth_order(self, natural):
        w = ld.RotatingField(0.18, 0.95)
        t, dim = 10.0, 40
        ref = factorized(natural, w, t, dim)
        resid = {}
        for dt in (0.02, 0.04):
            u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dt=dt, dim=dim))
            resid[dt] = np.max(np.abs((u.matrix - ref)[:20, :20]))
        assert resid[0.04] / resid[0.02] == pytest.approx(16.0, rel=0.4)

    def test_expmid_agrees_with_rk4(self, natural):
        w = ld.LinearSinusoidField(0.12, 0.3, 0.8, 0.1)
        t, dim = 6.0, 32
        u_rk = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        u_mid = ld.integrate_schrodinger(
            natural, w, t, ld.IntegratorConfig(dim=dim, dt=0.01, scheme="expmid")
        )
        assert np.max(np.abs((u_rk.matrix - u_mid.matrix)[:16, :16])) < 1e-4

    def test_unitary_on_healthy_block(self, natural):
        w = ld.RotatingField(0.1, 0.7)
        u = ld.integrate_schrodinger(natural, w, 10.0, ld.IntegratorConfig(dim=48))
        assert u.unitarity_defect(24) < 1e-7

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
        assert np.max(np.abs(u.matrix - ref)) <= 1e-13

    def test_undersized_basis_raises(self, natural):
        w = ld.RotatingField(0.5, 1.0)  # resonant, k|u| ~ 3.5 by t = 10
        with pytest.raises(AccuracyError) as exc:
            ld.integrate_schrodinger(natural, w, 10.0, ld.IntegratorConfig(dim=16))
        assert exc.value.achieved > 1e-4


class TestHeisenbergResidual:
    def test_zero_field_pure_rotation(self, natural):
        dim = 24
        u = ld.TruncatedOperator(np.diag(dynamical_diag(dim, 5.0)))
        assert ld.heisenberg_residual(u, natural, ld.ZeroField(), 5.0) < 1e-10

    def test_factorized_operator(self, natural):
        w = ld.RotatingField(0.12, 0.75)
        t, dim = 9.0, 48
        u = ld.TruncatedOperator(factorized(natural, w, t, dim))
        assert ld.heisenberg_residual(u, natural, w, t) < 1e-7

    def test_numerical_operator(self, natural):
        w = ld.RotatingField(0.12, 0.75)
        t, dim = 9.0, 48
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dim=dim))
        assert ld.heisenberg_residual(u, natural, w, t) < 1e-6

    def test_many_breakpoints(self, natural):
        # 109 interior kinks, each a panel edge
        w = ld.sample_waveform(ld.RotatingField(0.05, 0.9), np.linspace(-0.5, 10.5, 121))
        t = 10.0
        u = ld.integrate_schrodinger(natural, w, t, ld.IntegratorConfig(dt=0.05, dim=16))
        assert ld.heisenberg_residual(u, natural, w, t) < 1e-6

    def test_unresolved_drive_integral_raises(self, natural, monkeypatch):
        # an understated rate leaves pi/4 panels under a 41-rad/unit integrand;
        # the rate read is the internal waveform's, so its class is patched
        w = ld.RotatingField(0.1, 40.0)
        monkeypatch.setattr(type(ld.internalize(natural, w)[0]), "rate", lambda self: 0.0)
        u = ld.TruncatedOperator(np.eye(8))
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
        w = ld.sample_waveform(ld.RotatingField(0.2, 0.9), np.linspace(-0.5, 12.0, 60))
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
        checks = ld.run_validation(electron_si, dim=64, include_convergence=False)
        bad = [c.name for c in checks if not c.passed]
        assert not bad, bad

    def test_negative_control_corrupted_sign(self, natural, monkeypatch):
        # flipping the displacement argument in the production route must
        # break the factorization
        from landau_drive import propagator
        from landau_drive.oracle import _factorized_matrix

        entry = ld.CorpusEntry("probe", ld.RotatingField(0.1, 0.7), 6.0)
        dim = 32
        u = ld.integrate_schrodinger(
            natural, entry.waveform, entry.t_final, ld.IntegratorConfig(dim=dim)
        )
        good = _factorized_matrix(natural, entry, dim)
        argument = propagator.displacement_argument
        monkeypatch.setattr(propagator, "displacement_argument", lambda s, u: -argument(s, u))
        bad = _factorized_matrix(natural, entry, dim)
        assert np.max(np.abs((u.matrix - good)[:16, :16])) < 1e-6
        assert np.max(np.abs((u.matrix - bad)[:16, :16])) > 1e-2
