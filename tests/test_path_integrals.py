import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive import path_integrals
from landau_drive.cli import UNIT_CONSTANTS
from landau_drive.errors import AccuracyError
from landau_drive.field_model import _ExpSumField
from landau_drive.path_integrals import DEFAULT_ABS_TOL, _refined_grid


def rotating_u(r0, nu, t, omega=1.0):
    """Closed-form drive amplitude for E = r0*nu*e^{-i nu t} (r0 real)."""
    d = nu - omega
    if d == 0:
        return -r0 * nu * t / 2.0
    return (-r0 * nu / 2.0) * (np.exp(1j * d * t) - 1.0) / (1j * d)


def rotating_beta(r0, nu, t, apf=1.0):
    return apf * 0.5 * r0**2 * (nu * t - np.sin(nu * t))


def rotating_gamma(r0, nu, t, omega=1.0, apf=1.0):
    d = omega - nu
    return apf * (r0**2 / 2.0) * (nu / d) ** 2 * (d * t - np.sin(d * t))


class TestSignedArea:
    def test_unit_square_ccw(self):
        assert ld.signed_area([0, 1, 1 + 1j, 1j]) == pytest.approx(1.0)

    def test_unit_square_cw(self):
        assert ld.signed_area([0, 1j, 1 + 1j, 1]) == pytest.approx(-1.0)

    def test_collinear(self):
        pts = np.linspace(0, 3 + 1.5j, 17)
        assert ld.signed_area(pts) == pytest.approx(0.0, abs=1e-15)

    def test_single_point(self):
        assert ld.signed_area([0.3 + 0.1j]) == 0.0

    def test_discretized_circle(self):
        th = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        assert ld.signed_area(np.exp(1j * th)) == pytest.approx(math.pi, abs=1e-6)


class TestMagneticPhase:
    def test_straight_line(self, natural):
        pts = np.linspace(0, 2.0 - 1.0j, 64)
        assert ld.magnetic_phase(natural, pts) == pytest.approx(0.0, abs=1e-15)

    def test_closed_ccw_loop(self, natural):
        # circle through the origin, radius r, counterclockwise
        r = 0.8
        th = np.linspace(0.0, 2.0 * math.pi, 100_000)
        pts = r * (np.exp(1j * th) - 1.0)
        expected = -natural.area_phase * math.pi * r**2
        assert ld.magnetic_phase(natural, pts) == pytest.approx(expected, rel=1e-8)

    def test_rotating_open_path(self, natural):
        e0, nu, t = 0.35, 0.8, 9.0
        r0 = e0 / nu
        s = np.linspace(0.0, t, 400_000)
        pts = ld.build_drive_path(natural, ld.RotatingField(e0, nu), s).r
        assert ld.magnetic_phase(natural, pts) == pytest.approx(
            rotating_beta(r0, nu, t), rel=1e-8
        )

    def test_requires_origin_start(self, natural):
        with pytest.raises(ValueError):
            ld.magnetic_phase(natural, [1.0 + 0j, 2.0 + 0j, 2.0 + 1j])

    def test_sign_flips_with_charge(self, natural):
        minus = ld.PhysicalSystem(-1.0, 1.0, 1.0)
        th = np.linspace(0.0, 2.0 * math.pi, 5000)
        pts = 0.5 * (np.exp(1j * th) - 1.0)
        assert ld.magnetic_phase(minus, pts) == pytest.approx(
            -ld.magnetic_phase(natural, pts), rel=1e-12
        )


class TestCoherentPhase:
    def test_straight_line(self, natural):
        pts = np.linspace(0, -1.3 + 0j, 50)
        assert ld.coherent_phase(natural, pts) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate(self, natural):
        assert ld.coherent_phase(natural, [0j]) == 0.0

    def test_rotating_u_path(self, natural):
        e0, nu, t = 0.3, 0.6, 11.0
        r0 = e0 / nu
        s = np.linspace(0.0, t, 400_000)
        pts = rotating_u(r0, nu, s)
        assert ld.coherent_phase(natural, pts) == pytest.approx(
            rotating_gamma(r0, nu, t), rel=1e-7
        )


class TestDisplacementAmplitude:
    def test_zero(self, natural):
        assert ld.displacement_amplitude(natural, ld.ZeroField(), 8.0) == 0j

    @pytest.mark.parametrize("nu", [0.5, 0.9, 1.1, 2.0])
    def test_rotating_closed_form(self, natural, nu):
        e0 = 0.2 * nu
        w = ld.RotatingField(e0, nu)
        for t in (0.7, 5.0, 20.0):
            u = ld.displacement_amplitude(natural, w, t)
            assert u == pytest.approx(rotating_u(0.2, nu, t), rel=1e-12)

    def test_resonance_linear_growth(self, natural):
        w = ld.RotatingField(0.1, 1.0)
        for t in (1.0, 4.0, 40.0):
            u = ld.displacement_amplitude(natural, w, t)
            assert u == pytest.approx(-0.1 * t / 2.0, rel=1e-13)

    def test_resonance_with_phase(self, natural):
        # general launch phase conjugates into the amplitude
        phi = 0.7
        w = ld.RotatingField(0.1, 1.0, phase=phi)
        u = ld.displacement_amplitude(natural, w, 6.0)
        assert u == pytest.approx(-0.1 * np.exp(-1j * phi) * 6.0 / 2.0, rel=1e-13)

    def test_linear_drive_at_resonance_grows_linearly(self, natural):
        # one circular component of the linear drive is resonant; |u| grows
        # linearly while the counter-rotating part stays bounded
        w = ld.LinearSinusoidField(0.1, 0.0, 1.0, 0.0)
        u1 = ld.displacement_amplitude(natural, w, 50.0)
        u2 = ld.displacement_amplitude(natural, w, 100.0)
        assert abs(u2) / abs(u1) == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize(
        "w",
        [
            ld.ConstantField(0.2, -0.1),
            ld.RotatingField(0.15, 0.8, 0.3),
            ld.RotatingField(0.1, 1.0),
            ld.RotatingField(0.1, 0.0, 0.5),
            ld.RotatingField(0.12, -0.7),
            ld.LinearSinusoidField(0.2, 0.4, 1.3, 0.2),
            ld.LinearSinusoidField(0.15, 0.1, 1.0, 0.3),
            ld.SumField((ld.RotatingField(0.1, 0.6), ld.LinearSinusoidField(0.1, 0.0, 0.9))),
        ],
    )
    def test_quadrature_matches_closed_form(self, natural, w):
        for t in (2.3, 13.0):
            u_cf = ld.displacement_amplitude(natural, w, t)
            u_q = ld.displacement_amplitude(natural, w, t, method="quadrature")
            assert abs(u_cf - u_q) < 1e-10

    def test_closed_form_for_sampled_is_piecewise_exact(self, natural):
        # one exact route serves sampled, analytic and mixed fields, so there
        # is no "closed_form" method left to ask for
        w = ld.sample_waveform(ld.ConstantField(0.1, 0.0), np.linspace(-1, 10, 200))
        u = ld.displacement_amplitude(natural, w, 5.0)
        u_ref = ld.displacement_amplitude(natural, ld.ConstantField(0.1, 0.0), 5.0)
        assert abs(u - u_ref) < 1e-15
        mixed = ld.SumField((w, ld.RotatingField(0.1, 0.7)))
        assert ld.build_drive_path(natural, mixed, [0.0, 5.0]).provenance == "exact"
        with pytest.raises(ValueError, match="unknown method 'closed_form'"):
            ld.displacement_amplitude(natural, mixed, 5.0, method="closed_form")

    def test_differential_relation(self, natural):
        # du/dt = (i/2) e^{-i omega t} dR*/dt, checked by central differences
        w = ld.RotatingField(0.2, 0.7, 0.1)
        t, h = 4.2, 1e-4
        du = (
            ld.displacement_amplitude(natural, w, t + h)
            - ld.displacement_amplitude(natural, w, t - h)
        ) / (2.0 * h)
        r = ld.build_drive_path(natural, w, [0.0, t - h, t + h]).r
        dr_conj = np.conj((r[2] - r[1]) / (2.0 * h))
        assert abs(du - 0.5j * np.exp(-1j * t) * dr_conj) < 1e-7

    @pytest.mark.parametrize(
        "charge, w",
        [
            # |mu| t = 1e-4: a nearly resonant u path
            (1.0, ld.RotatingField(0.1, 1.0 + 1e-5)),
            (-1.0, ld.RotatingField(0.1, -1.0 - 1e-5)),
            (1.0, ld.RotatingField(0.15, 0.8, 0.3)),
            (1.0, ld.LinearSinusoidField(0.2, 0.4, 1.3, 0.2)),
        ],
    )
    def test_one_route_with_assemble(self, charge, w):
        sys_ = ld.PhysicalSystem(charge=charge, magnetic_field=1.0, mass=1.0)
        assert ld.displacement_amplitude(sys_, w, 10.0) == ld.assemble(sys_, w, 10.0).u

    def test_mirrored_amplitude_conjugates(self, electron_si):
        om = electron_si.omega
        w = ld.RotatingField(500.0, -0.8 * om, 0.2)
        u_cf = ld.displacement_amplitude(electron_si, w, 3.0 / om)
        u_q = ld.displacement_amplitude(electron_si, w, 3.0 / om, method="quadrature")
        assert u_cf == pytest.approx(u_q, rel=1e-9)


class TestBuildDrivePath:
    def test_grid_validation(self, natural):
        w = ld.ZeroField()
        with pytest.raises(ValueError):
            ld.build_drive_path(natural, w, [1.0, 2.0])
        with pytest.raises(ValueError):
            ld.build_drive_path(natural, w, [0.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            ld.build_drive_path(natural, w, [0.0, 2.0], method="bogus")

    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_overflowing_path_raises_domain_error(self, charge):
        # E = 1e300 for t = 1e10 takes R past float64's range, and the
        # areas overflow already at t = 10; no numpy warning escapes
        sys_ = ld.PhysicalSystem(charge, 1.0, 1.0)
        w = ld.ConstantField(1e300, 0.0)
        for method, t in (("auto", 1e10), ("auto", 10.0), ("quadrature", 10.0)):
            with pytest.raises(ld.DomainError, match="not finite"):
                ld.build_drive_path(sys_, w, [0.0, t / 2.0, t], method=method)
        # stacked exponential sums and the per-waveform route alike
        sampled = ld.sample_waveform(w, np.linspace(0.0, 1e10, 3))
        for strong in (w, sampled):
            with pytest.raises(ld.DomainError, match="not finite"):
                ld.drive_endpoints(sys_, [ld.RotatingField(0.1, 0.5), strong], 1e10)

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, math.inf], [0.0, 1.0, math.inf],
                                      [0.0, 1.0, math.nan, 2.0], [0.0, math.inf, math.inf]])
    def test_non_finite_grid_rejected(self, natural, grid, method):
        # NaN fails every comparison, so no step check catches it; a last
        # time of inf would leave the step table halving an infinite step
        w = ld.RotatingField(0.1, 0.9)
        for wave in (ld.ZeroField(), w, ld.SumField((w, ld.ConstantField(0.1))),
                     ld.sample_waveform(w, np.linspace(0.0, 3.0, 7))):
            with pytest.raises(ValueError, match="t_grid must be finite"):
                ld.build_drive_path(natural, wave, grid, method=method)

    def test_zero_field_all_zeros(self, natural):
        dp = ld.build_drive_path(natural, ld.ZeroField(), np.linspace(0, 9, 10))
        for arr in (dp.r, dp.u, dp.beta, dp.gamma, dp.area_r, dp.area_u):
            assert_allclose(np.abs(arr), 0.0)

    def test_initial_values(self, natural):
        dp = ld.build_drive_path(natural, ld.RotatingField(0.2, 0.9), [0.0, 3.0])
        assert dp.r[0] == 0 and dp.u[0] == 0
        assert dp.beta[0] == 0 and dp.gamma[0] == 0

    def test_rotating_matches_closed_forms(self, natural):
        e0, nu = 0.16, 0.8
        r0 = e0 / nu
        grid = np.linspace(0.0, 12.0, 25)
        dp = ld.build_drive_path(natural, ld.RotatingField(e0, nu), grid)
        assert dp.provenance == "exact"
        assert_allclose(dp.u, rotating_u(r0, nu, grid), atol=1e-12)
        assert_allclose(dp.beta, rotating_beta(r0, nu, grid), atol=1e-12)
        assert_allclose(dp.gamma, rotating_gamma(r0, nu, grid), atol=1e-12)

    @pytest.mark.parametrize("nu", [0.5, 0.9, 0.99, 1.1, 2.0])
    def test_quadrature_route_matches_closed_route(self, natural, nu):
        e0 = 0.2 * nu
        grid = np.linspace(0.0, 40.0, 41)
        w = ld.RotatingField(e0, nu)
        cf = ld.build_drive_path(natural, w, grid)
        q = ld.build_drive_path(natural, w, grid, method="quadrature")
        assert q.provenance == "quadrature"
        for name in ("u", "beta", "gamma", "r"):
            a, b = getattr(cf, name), getattr(q, name)
            scale = np.max(np.abs(a)) or 1.0
            assert np.max(np.abs(a - b)) / scale < 1e-9, name

    def test_linear_sinusoid_quadrature_vs_closed(self, natural):
        w = ld.LinearSinusoidField(0.15, 0.6, 1.3, 0.2)
        grid = np.linspace(0.0, 40.0, 33)
        for sys_ in (natural, ld.PhysicalSystem(-1.0, 1.0, 1.0)):
            cf = ld.build_drive_path(sys_, w, grid)
            q = ld.build_drive_path(sys_, w, grid, method="quadrature")
            # straight-line R path: no enclosed area, no translation phase
            assert_allclose(cf.beta, 0.0, atol=1e-12)
            assert_allclose(q.beta, 0.0, atol=1e-10)
            for name in ("r", "u", "gamma"):
                a, b = getattr(cf, name), getattr(q, name)
                scale = np.max(np.abs(a))
                assert np.max(np.abs(a - b)) / scale < 1e-8, (sys_.charge, name)

    @pytest.mark.parametrize("sysname", ["natural", "electron_si"])
    def test_phase_area_locks(self, request, sysname):
        sys_ = request.getfixturevalue(sysname)
        om = sys_.omega
        w = ld.RotatingField(0.2 * sys_.internal_scales().field, 0.75 * om, 0.3)
        grid = np.linspace(0.0, 9.0 / om, 19)
        for method in ("auto", "quadrature"):
            dp = ld.build_drive_path(sys_, w, grid, method=method)
            assert_allclose(dp.beta, -sys_.area_phase * dp.area_r, atol=1e-13)
            assert_allclose(dp.gamma, -4.0 * sys_.area_phase * dp.area_u, atol=1e-13)

    def test_sampled_replication_of_rotating(self, natural):
        e0, nu, t_max = 0.2, 0.9, 8.0
        spacing = 0.01
        times = np.arange(-2, int(t_max / spacing) + 3) * spacing
        w_exact = ld.RotatingField(e0, nu)
        w_samp = ld.sample_waveform(w_exact, times)
        grid = np.linspace(0.0, t_max, 9)
        dp_e = ld.build_drive_path(natural, w_exact, grid)
        dp_s = ld.build_drive_path(natural, w_samp, grid)
        assert dp_s.provenance == "exact"
        # linear interpolation bias of E is bounded by |E''| h^2 / 8, and R
        # and u accumulate it over at most t_max
        bound = 2.0 * (e0 * nu**2 * spacing**2 / 8.0) * t_max
        assert np.max(np.abs(dp_s.r - dp_e.r)) < bound
        assert np.max(np.abs(dp_s.u - dp_e.u)) < bound

    def test_single_point_grid(self, natural):
        dp = ld.build_drive_path(natural, ld.RotatingField(0.1, 0.7), [0.0])
        assert dp.u[0] == 0 and dp.beta[0] == 0

    def test_arrays_immutable(self, natural):
        dp = ld.build_drive_path(natural, ld.ZeroField(), [0.0, 1.0])
        with pytest.raises(ValueError):
            dp.beta[0] = 1.0


@settings(max_examples=20, deadline=None)
@given(
    e0=st.floats(0.02, 0.3),
    nu=st.floats(0.1, 2.5),
    phi=st.floats(0.0, 6.2),
    t=st.floats(0.5, 15.0),
)
def test_differential_relation_random_rotating(e0, nu, phi, t):
    # du/dt = (i/2) e^{-i omega t} dR*/dt with O(h^2) central differences
    natural = ld.PhysicalSystem(1.0, 1.0, 1.0)
    w = ld.RotatingField(e0, nu, phi)
    h = 1e-4
    du = (
        ld.displacement_amplitude(natural, w, t + h)
        - ld.displacement_amplitude(natural, w, t - h)
    ) / (2.0 * h)
    r = ld.build_drive_path(natural, w, [0.0, t - h, t + h]).r
    dr_conj = np.conj((r[2] - r[1]) / (2.0 * h))
    resid = abs(du - 0.5j * np.exp(-1j * t) * dr_conj)
    assert resid < 5.0 * e0 * max(nu, 1.0) ** 2 * h**2


@settings(max_examples=15, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.floats(0.02, 0.15),              # amplitude
            # keep clear of the resonance window, where u runs nearly straight,
            # gamma nearly vanishes and the relative comparison below would
            # measure only the grid route's absolute error
            st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 2.0)),
            st.sampled_from([-1.0, 1.0]),       # rotation sense
            st.floats(0.0, 6.2),                # launch phase
        ),
        min_size=2,
        max_size=3,
    ),
)
def test_multiterm_sum_quadrature_vs_closed(terms):
    # epicycle superpositions: the exact route against the grid route
    natural = ld.PhysicalSystem(1.0, 1.0, 1.0)
    w = ld.SumField(
        tuple(ld.RotatingField(a, s * nu, ph) for a, nu, s, ph in terms)
    )
    grid = np.linspace(0.0, 20.0, 9)
    cf = ld.build_drive_path(natural, w, grid)
    q = ld.build_drive_path(natural, w, grid, method="quadrature")
    assert cf.provenance == "exact" and q.provenance == "quadrature"
    for name in ("r", "u", "beta", "gamma"):
        a, b = getattr(cf, name), getattr(q, name)
        scale = max(float(np.max(np.abs(a))), 1e-6)
        assert float(np.max(np.abs(a - b))) / scale < 1e-8, name


def test_slow_rotation_falls_back_to_grid_route(natural):
    # |nu| t << 1 made a term-by-term closed-form area cancel catastrophically;
    # the exact route integrates each step's monomials and needs no fallback
    w = ld.SumField((ld.RotatingField(0.1, 1e-9), ld.RotatingField(0.08, 0.8)))
    grid = np.linspace(0.0, 20.0, 5)
    dp = ld.build_drive_path(natural, w, grid)
    assert dp.provenance == "exact"
    # nu = 1e-9 differs from a constant field by O(e0 nu t^2) ~ 2e-8 here
    ref = ld.build_drive_path(
        natural,
        ld.SumField((ld.ConstantField(0.1, 0.0), ld.RotatingField(0.08, 0.8))),
        grid,
    )
    assert np.max(np.abs(dp.beta - ref.beta)) < 5e-8
    assert np.max(np.abs(dp.u - ref.u)) < 5e-8


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(
        st.tuples(
            st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.2, 2.0)
        ),
        min_size=1,
        max_size=3,
    ),
    split=st.floats(0.2, 0.8),
)
def test_area_concatenation_identity(coeffs, split):
    """S(A then B) = S(A) + S(B) + triangle(origin, end A, end B)."""
    s = np.linspace(0.0, 6.0, 601)
    z = np.zeros_like(s, dtype=complex)
    for re, im, freq in coeffs:
        z += (re + 1j * im) * (np.exp(1j * freq * s) - 1.0)
    cut = int(split * len(s))
    s_ab = ld.signed_area(z)
    s_a = ld.signed_area(z[: cut + 1])
    s_b = ld.signed_area(z[cut:])
    tri = 0.5 * np.imag(np.conj(z[cut]) * z[-1])
    assert s_ab == pytest.approx(s_a + s_b + tri, abs=1e-10)


def rotating_gamma_error(gamma, e0, nu, t):
    """|gamma - exact| in 50-digit arithmetic, the exact gamma of
    E = e0 e^{-i nu t} (omega = 1) being (1/2) |A|^2 (r t - sin r t),
    A = e0 / r, r = omega - nu."""
    with mpmath.workdps(50):
        r = 1 - mpmath.mpf(nu)
        exact = 0 if r == 0 else (mpmath.mpf(e0) / r) ** 2 * (r * t - mpmath.sin(r * t)) / 2
        return abs(float(gamma - exact))


def per_point_endpoints(sys_, waves, t, method):
    """build_drive_path on [0, t] for each waveform, read at t."""
    grid = [0.0, t] if t > 0 else [0.0]
    return [ld.build_drive_path(sys_, w, grid, method=method) for w in waves]


def assert_endpoints_match(sys_, waves, t, method):
    """drive_endpoints against per-point build_drive_path: all six fields
    bit for bit, routes identical; returns the batch."""
    ends = ld.drive_endpoints(sys_, waves, t, method=method)
    ref = per_point_endpoints(sys_, waves, t, method)
    for name in ("r", "u", "beta", "gamma", "area_r", "area_u"):
        expected = np.array([getattr(dp, name)[-1] for dp in ref])
        assert getattr(ends, name).tobytes() == expected.tobytes(), name
    assert ends.provenance == tuple(dp.provenance for dp in ref)
    return ends


class TestDriveEndpoints:
    """The batched exact route of a sweep against one build_drive_path per point."""

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_nu_sweep(self, method, charge):
        # nu = 0 (R drift only), nu = omega (u drift only), and
        # nu/omega = 1 +- 1e-5 at t = 20 (|mu| t = 2e-4)
        sys_ = ld.PhysicalSystem(charge, 2.0, 0.7)
        ratios = [*np.linspace(-0.5, 2.0, 11), 1.0 - 1e-5, 1.0 + 1e-5]
        assert 0.0 in ratios and 1.0 in ratios
        t = 20.0 / sys_.omega
        waves = [ld.RotatingField(0.3, charge * r * sys_.omega, 0.4) for r in ratios]
        ends = assert_endpoints_match(sys_, waves, t, method)
        route = "quadrature" if method == "quadrature" else "exact"
        assert ends.provenance == (route,) * len(waves)

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_amplitude_sweep_with_zero(self, natural, method, charge):
        sys_ = ld.PhysicalSystem(charge, 1.0, 1.0)
        waves = [ld.RotatingField(a, 0.7, 0.3) for a in np.linspace(0.0, 0.3, 7)]
        ends = assert_endpoints_match(sys_, waves, 9.0, method)
        assert ends.u[0] == 0 and ends.gamma[0] == 0

    def test_mixed_term_structures(self, natural):
        # one stacked call per monomial structure; the sampled field has
        # breakpoints inside (0, t) and goes through build_drive_path
        waves = [
            ld.RotatingField(0.2, 0.8, 0.1),
            ld.LinearSinusoidField(0.15, 0.3, 1.3, 0.2),
            ld.SumField((ld.RotatingField(0.1, 1.0), ld.ConstantField(0.05, -0.02),
                         ld.RotatingField(0.07, 0.0, 1.0))),
            ld.ZeroField(),
            ld.ConstantField(0.1, 0.2),
            ld.sample_waveform(ld.RotatingField(0.1, 0.9), np.linspace(0.0, 6.0, 61)),
        ]
        ends = assert_endpoints_match(natural, waves, 6.0, "auto")
        assert ends.provenance == ("exact",) * len(waves)

    #: Exponential sums whose rescaled pairs carry signed zeros (a zero
    #: component beside a nonzero one, a zero amplitude at a phase whose
    #: cosine is negative, a phase of pi/2), then random rotating fields:
    #: multiplying by 1/field instead of dividing rounds about one
    #: component in ten differently.
    RESCALE_CASES = (ld.ConstantField(-0.0, 0.5), ld.ConstantField(0.5, -0.0),
                     ld.ConstantField(-0.0, -0.0), ld.RotatingField(0.0, 0.7, 2.0),
                     ld.RotatingField(0.2, 0.9, math.pi / 2), ld.RotatingField(0.2, -0.0),
                     ld.LinearSinusoidField(0.15, 0.3, 1.3, 0.2), ld.ZeroField(),
                     *(ld.RotatingField(a, nu, phase) for a, nu, phase in
                       np.random.default_rng(17).uniform(0.0, 2.0, (40, 3)).tolist()))

    @pytest.mark.parametrize("units", ["natural", "si"])
    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_array_rescale_matches_python_division(self, units, charge):
        # the stacked rescale of drive_endpoints and rescaled() against
        # Python's own complex-by-float division, (-conj(c) if mirrored
        # else c) / field, sign bit included: one division per component
        # turns -0.0 + 0.5j into -0.0 where Python gives 0.0, and numpy's
        # complex division multiplies by 1/field
        consts = UNIT_CONSTANTS[units]
        sys_ = ld.PhysicalSystem(charge * consts["elementary_charge"], 2.0,
                                 0.7 * consts["electron_mass"], consts["hbar"], consts["c"])
        scales, mirror = sys_.internal_scales(), sys_.mirrored
        assert_endpoints_match(sys_, self.RESCALE_CASES, 7.0 / sys_.omega, "auto")
        hexed = lambda pairs: [(c.real.hex(), c.imag.hex(), float(lam).hex())
                               for c, lam in pairs]
        for w in self.RESCALE_CASES:
            sign = -1.0 if mirror else 1.0
            expected = [((-c.conjugate() if mirror else c) / scales.field,
                         sign * lam * scales.time) for c, lam in w.exp_terms()]
            assert hexed(w.rescaled(scales, mirror).exp_terms()) == hexed(expected), w
            stacked = _ExpSumField.rescaled_pairs(
                np.array([w.exp_terms()] * 2, complex).reshape(2, -1, 2), scales, mirror)
            for row in stacked.tolist():
                assert hexed((c, lam.real) for c, lam in row) == hexed(expected), w

    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_sum_of_one_matches_waveform(self, charge):
        # a SumField rescales its terms one by one (_ExpSumField.rescaled,
        # _ExpSum.step_terms), the sampler a waveform's pairs stacked; the
        # signed-zero cases hold a constant, rotating, linear-sinusoid and
        # zero field
        sys_ = ld.PhysicalSystem(charge, 2.0, 0.7)
        grid = np.linspace(0.0, 7.0, 8) / sys_.omega
        for w in self.RESCALE_CASES[:8]:
            alone = ld.build_drive_path(sys_, w, grid)
            summed = ld.build_drive_path(sys_, ld.SumField((w,)), grid)
            assert summed.provenance == alone.provenance == "exact"
            for name in ("r", "u", "beta", "gamma", "area_r", "area_u"):
                assert getattr(summed, name).tobytes() == getattr(alone, name).tobytes(), (w, name)

    def test_time_zero(self, natural):
        waves = [ld.RotatingField(0.2, nu) for nu in (0.0, 0.5, 1.0)]
        ends = assert_endpoints_match(natural, waves, 0.0, "auto")
        assert not np.any(ends.u) and not np.any(ends.gamma)

    def test_errors_match_build_drive_path(self, natural):
        w = ld.RotatingField(0.2, 0.5)
        with pytest.raises(ld.DomainError):
            ld.drive_endpoints(natural, [w], -1.0)
        with pytest.raises(ValueError, match="unknown method"):
            ld.drive_endpoints(natural, [w], 1.0, method="simpson")
        sampled = ld.sample_waveform(w, np.linspace(0.0, 2.0, 5))
        with pytest.raises(ValueError, match="unknown method 'closed_form'"):
            ld.drive_endpoints(natural, [w, ld.SumField((sampled, w))], 1.0,
                               method="closed_form")
        with pytest.raises(ld.DomainError):
            ld.drive_endpoints(natural, [sampled], 3.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, natural, t):
        # every entry point that reads the path at t: a NaN t must not be
        # read as t = 0, nor an infinite t stepped
        w = ld.RotatingField(0.1, 0.9)
        sampled = ld.sample_waveform(w, np.linspace(0.0, 3.0, 7))
        calls = (lambda: ld.drive_endpoints(natural, [w, sampled], t),
                 lambda: ld.drive_endpoints(natural, [sampled], t, method="quadrature"),
                 lambda: ld.assemble(natural, w, t),
                 lambda: ld.displacement_amplitude(natural, w, t))
        for call in calls:
            with pytest.raises(ld.DomainError, match="finite t >= 0"):
                call()

    def test_resonance_gamma_against_exact_area(self, natural):
        # gamma = (1/2) |A|^2 (r T - sin r T), A = E0 / r, r = omega - nu, on the
        # 401-point grid of the resonance benchmark, against 50-digit mpmath
        e0, t = 0.3, 20.0
        nus = np.linspace(0.5, 1.5, 401)
        ends = ld.drive_endpoints(natural, [ld.RotatingField(e0, nu, 1.1) for nu in nus], t)
        assert ends.provenance == ("exact",) * nus.size
        worst = max(rotating_gamma_error(gamma, e0, nu, t)
                    for nu, gamma in zip(nus.tolist(), ends.gamma.tolist()))
        assert worst <= 1e-14

    def test_gamma_just_off_resonance(self, natural):
        # nu = 1.0002 omega, t = 60/omega: |mu| t = 0.012, where a guessed
        # well-conditioned closed form was 2.3e-12 off
        e0, nu, t = 0.3, 1.0002, 60.0
        ends = ld.drive_endpoints(natural, [ld.RotatingField(e0, nu, 1.1)], t)
        dp = ld.build_drive_path(natural, ld.RotatingField(e0, nu, 1.1), [0.0, t])
        assert dp.gamma[-1] == ends.gamma[0]
        assert rotating_gamma_error(float(dp.gamma[-1]), e0, nu, t) <= 1e-14


def linspace_refined_grid(t_grid, w, step):
    """Reference fine grid: one np.linspace per smooth span."""
    cuts = set(t_grid.tolist())
    cuts.update(p for p in w.breakpoints() if t_grid[0] < p < t_grid[-1])
    edges = sorted(cuts)
    fine, index = [np.array([edges[0]])], {edges[0]: 0}
    count = 0
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(4, 4 * math.ceil((b - a) / (4.0 * step)))
        count += n
        fine.append(np.linspace(a, b, n + 1)[1:])
        index[b] = count
    return np.concatenate(fine), np.array([index[t] for t in t_grid.tolist()])


class TestRefinedGrid:
    @pytest.fixture
    def trace(self):
        # 2001 unevenly spaced samples: about 2000 breakpoints
        rng = np.random.default_rng(11)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.001, 0.02, 2000))])
        e1, e2 = rng.standard_normal((2, times.size))
        return ld.SampledField(tuple(times), tuple(e1), tuple(e2))

    @pytest.mark.parametrize("step", [0.02, 0.005, 0.00125, 0.3])
    def test_matches_per_span_linspace(self, trace, step):
        t_end = trace.times[-1]
        for t_grid in (
            np.linspace(0.0, t_end, 101),
            np.array([0.0, trace.times[700], 7.3, t_end]),   # on and off breakpoints
            np.array([0.0]),
        ):
            nodes, idx = _refined_grid(t_grid, trace, step)
            ref_nodes, ref_idx = linspace_refined_grid(t_grid, trace, step)
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(nodes[idx], t_grid)

    @pytest.mark.parametrize("step", [0.02, 0.3])
    def test_each_level_splits_every_span_four_times_finer(self, trace, step):
        t_grid = np.linspace(0.0, trace.times[-1], 101)
        base, base_idx = _refined_grid(t_grid, trace, step)
        for level in (1, 2):
            nodes, idx = _refined_grid(t_grid, trace, step, level)
            assert nodes.size - 1 == 4**level * (base.size - 1)
            assert np.array_equal(idx, 4**level * base_idx)
            assert np.array_equal(nodes[::4**level], base)

    def test_node_budget_checked_before_building(self):
        # 1e9 substeps would need 8 GB; the count alone must refuse them
        with pytest.raises(AccuracyError, match="4e6"):
            _refined_grid(np.array([0.0, 1.0]), ld.ZeroField(), 1e-9)


def interpolant_reference(times, e1, e2, t_grid, dps=30, carrier=(0.0, 0.5)):
    """R, u, S_R, S_u of the linearly interpolated field plus the carrier
    c e^{i lam t}, ``carrier = (c, lam)`` with lam not 0 or -1, at ``t_grid``
    in ``dps``-digit arithmetic, for omega = 1 and charge +1.

    R and u are integrated in closed form on each linear piece (u checked
    against mpmath.quad); the areas are mpmath.quad of (1/2) Im(conj(z) z').
    """
    with mpmath.workdps(dps):
        tn = [mpmath.mpf(x) for x in times]
        en = [mpmath.mpc(a, b) for a, b in zip(e1, e2)]
        c, lam = mpmath.mpc(carrier[0]), mpmath.mpf(carrier[1])

        def linear(s):
            j = max(i for i in range(len(tn) - 1) if tn[i] <= s)
            return en[j] + (en[j + 1] - en[j]) * (s - tn[j]) / (tn[j + 1] - tn[j])

        def field(s):
            return linear(s) + c * mpmath.expj(lam * s)

        knots = sorted({mpmath.mpf(0), *(mpmath.mpf(t) for t in t_grid),
                        *(t for t in tn if 0 < t < t_grid[-1])})
        r, u, s_r, s_u = mpmath.mpc(0), mpmath.mpc(0), mpmath.mpf(0), mpmath.mpf(0)
        at = {}
        for p, q in zip(knots[:-1], knots[1:]):
            at[p] = (r, u, s_r, s_u)
            e0, slope = linear(p), (linear(q) - linear(p)) / (q - p)

            def r_of(s, r=r, p=p, e0=e0, slope=slope):
                wave = c * (mpmath.expj(lam * s) - mpmath.expj(lam * p)) / (1j * lam)
                return r - 1j * (e0 * (s - p) + slope * (s - p) ** 2 / 2 + wave)

            def u_of(s, u=u, p=p, c0=mpmath.conj(e0), c1=mpmath.conj(slope)):
                x, g = s - p, mpmath.expj(p - s)
                wave = mpmath.conj(c) * (mpmath.expj(-(1 + lam) * s) - mpmath.expj(-(1 + lam) * p))
                return (u - mpmath.expj(-p) / 2 * (-1j * c0 * (1 - g) + c1 * (1j * x * g - 1 + g))
                        + wave / (2j * (1 + lam)))

            def du_ds(s):
                return -mpmath.expj(-s) * mpmath.conj(field(s)) / 2

            pieces = mpmath.linspace(p, q, 2 + int(q - p))   # one per unit of time
            assert abs(u_of(q) - u - mpmath.quad(du_ds, pieces)) < mpmath.mpf(10) ** (4 - dps)
            s_r += mpmath.quad(lambda s: mpmath.im(mpmath.conj(r_of(s)) * -1j * field(s)) / 2,
                               pieces)
            s_u += mpmath.quad(lambda s: mpmath.im(mpmath.conj(u_of(s)) * du_ds(s)) / 2, pieces)
            r, u = r_of(q), u_of(q)
        at[knots[-1]] = (r, u, s_r, s_u)
        rows = [at[mpmath.mpf(t)] for t in t_grid]
        return tuple(np.array([f(row[i]) for row in rows])
                     for i, f in enumerate((complex, complex, float, float)))


def drive_path_errors(dp, ref):
    """Largest |dp - ref| of R, u, beta, gamma and both areas (charge +1, natural units)."""
    r, u, s_r, s_u = ref
    pairs = {"r": r, "u": u, "beta": -s_r, "gamma": -4.0 * s_u, "area_r": s_r, "area_u": s_u}
    return {name: float(np.max(np.abs(getattr(dp, name) - value)))
            for name, value in pairs.items()}


def assert_paths_close(sys_, a, b, atol):
    """Every field of two drive paths within ``atol`` in internal units."""
    l2 = sys_.l_b**2
    for name, scale in (("r", sys_.l_b), ("u", sys_.l_b), ("beta", 1.0), ("gamma", 1.0),
                        ("area_r", l2), ("area_u", l2)):
        assert_allclose(getattr(a, name), getattr(b, name),
                        rtol=0, atol=atol * scale, err_msg=name)


class TestPiecewiseExact:
    """The exact drive path of sampled waveforms, alone and in sums."""

    # steps from 1e-6 to 2 (both sides of eps1's series switch), t = 0
    # inside the first segment, samples on nodes (0.3, 2.3, 3.05) and inside
    # segments, and t_final = 6.55 before the last node
    TIMES = [-0.7, 0.3, 0.300001, 2.3, 2.8, 3.05, 4.5, 6.5, 6.6, 7.0]
    E1 = [0.31, -0.12, 0.05, 0.22, -0.38, 0.17, 0.09, -0.26, 0.33, -0.04]
    E2 = [-0.08, 0.27, 0.36, -0.19, 0.02, -0.33, 0.24, 0.11, -0.15, 0.29]
    GRID = np.array([0.0, 0.3, 1.1, 2.3, 3.05, 5.0, 6.55])

    @pytest.fixture(scope="class")
    def trace(self):
        return ld.SampledField(self.TIMES, self.E1, self.E2)

    @pytest.fixture(scope="class")
    def reference(self):
        return interpolant_reference(self.TIMES, self.E1, self.E2, self.GRID)

    def test_matches_30_digit_reference(self, natural, trace, reference):
        dp = ld.build_drive_path(natural, trace, self.GRID)
        assert dp.provenance == "exact"
        errors = drive_path_errors(dp, reference)
        assert max(errors.values()) < 1e-15, errors
        # no worse than the quadrature route it replaces on u and gamma
        quad = drive_path_errors(
            ld.build_drive_path(natural, trace, self.GRID, method="quadrature"), reference)
        for name in ("u", "gamma"):
            assert errors[name] <= quad[name], name

    def test_long_segments_with_carrier(self, natural):
        # steps of 5 to 7 between knots: the step table doubles its Gauss
        # rule up to each step, shifting the slope monomial onto its partner
        times = [-1.0, 6.0, 13.0, 20.0, 27.0]
        e1, e2 = [0.21, -0.13, 0.08, 0.3, -0.17], [-0.05, 0.24, -0.19, 0.11, 0.2]
        grid = np.array([0.0, 13.0, 25.0])
        carrier = ld.RotatingField(0.15, 0.8, 0.4)
        w = ld.SumField((ld.SampledField(times, e1, e2), carrier))
        dp = ld.build_drive_path(natural, w, grid)
        assert dp.provenance == "exact"
        reference = interpolant_reference(times, e1, e2, grid,
                                          carrier=carrier.exp_terms()[0])
        errors = drive_path_errors(dp, reference)
        assert max(errors.values()) < 4e-15, errors

    def test_mirrored_charge(self, natural, trace):
        # charge -1 in the reflected field -conj(E): conjugated R and u,
        # flipped areas, the same phases; the internal field is the same, so
        # the route does the same arithmetic and the relation holds exactly
        plus = ld.build_drive_path(natural, trace, self.GRID)
        reflected = ld.SampledField(self.TIMES, np.negative(self.E1), self.E2)
        minus = ld.build_drive_path(ld.PhysicalSystem(-1.0, 1.0, 1.0), reflected, self.GRID)
        assert minus.provenance == "exact"
        for name, flip in (("r", np.conj), ("u", np.conj), ("area_r", np.negative),
                           ("area_u", np.negative), ("beta", None), ("gamma", None)):
            expected = getattr(plus, name) if flip is None else flip(getattr(plus, name))
            assert np.array_equal(getattr(minus, name), expected), name

    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_sum_of_sampled_terms(self, charge):
        # two sampled terms on interleaved, non-uniform nodes: knots at their union
        sys_ = ld.PhysicalSystem(charge, 1.3, 0.8)
        rng = np.random.default_rng(7)
        slow = np.concatenate([[-1.0], np.cumsum(rng.uniform(0.2, 0.9, 30)) - 0.5])
        fast = np.concatenate([[-0.3], np.cumsum(rng.uniform(0.05, 0.3, 90)) - 0.25])
        terms = tuple(ld.SampledField(t, *rng.uniform(-0.3, 0.3, (2, t.size)))
                      for t in (slow, fast))
        w = ld.SumField(terms)
        grid = np.linspace(0.0, min(slow[-1], fast[-1]), 23)
        exact = ld.build_drive_path(sys_, w, grid)
        quad = ld.build_drive_path(sys_, w, grid, method="quadrature")
        assert exact.provenance == "exact" and quad.provenance == "quadrature"
        assert_paths_close(sys_, exact, quad, 1e-10)

    # ids name the charge, prefixed by the added term's kind unless it is a
    # ConstantField; the "carrier" terms vary in time
    @pytest.mark.parametrize("charge,bias", [
        pytest.param(charge, bias, id=f"{kind}{charge}")
        for kind, bias in (("", ld.ConstantField(0.12, -0.07)),
                           ("rotating-", ld.RotatingField(0.12, 0.0, 0.4)),
                           ("linear_sinusoid-", ld.LinearSinusoidField(0.1, 0.3, 0.0, 0.2)),
                           ("rotating_carrier-", ld.RotatingField(0.1, 0.7, 0.3)),
                           ("linear_sinusoid_carrier-",
                            ld.LinearSinusoidField(0.1, 0.3, 2.1, 0.2)))
        for charge in (1.0, -1.0)
    ])
    def test_sampled_plus_constant_bias(self, charge, bias):
        # a 4001-node trace plus an analytic term, constant or not, takes
        # the exact route, and so does the analytic term alone
        sys_ = ld.PhysicalSystem(charge, 1.3, 0.8)
        times = np.linspace(-0.25, 4.0, 4001)
        trace = ld.SampledField(times, 0.2 * np.cos(1.7 * times),
                                0.2 * np.sin(0.9 * times + 0.3))
        w = ld.SumField((trace, bias, ld.ZeroField()))
        grid = np.linspace(0.0, 3.9, 14)
        exact = ld.build_drive_path(sys_, w, grid)
        quad = ld.build_drive_path(sys_, w, grid, method="quadrature", abs_tol=1e-13)
        assert exact.provenance == "exact" and quad.provenance == "quadrature"
        for alone in (bias, ld.ZeroField(), ld.SumField((bias, ld.ZeroField()))):
            assert ld.build_drive_path(sys_, alone, grid).provenance == "exact"
        assert_paths_close(sys_, exact, quad, 1e-13)

    def test_quadrature_refines_a_dense_noisy_trace(self):
        # nodes closer than four substeps: every refinement round must split
        # them further, or the round rebuilds the grid it had and stalls
        sys_ = ld.PhysicalSystem(1.0, 1.3, 0.8)
        rng = np.random.default_rng(13)
        times = np.linspace(-0.25, 4.0, 4001)
        noise = rng.uniform(-0.02, 0.02, (2, times.size))
        trace = ld.SampledField(times, 0.2 * np.cos(1.7 * times) + noise[0],
                                0.2 * np.sin(0.9 * times + 0.3) + noise[1])
        w = ld.SumField((trace, ld.ConstantField(0.12, -0.07)))
        grid = np.linspace(0.0, 3.9, 14)
        exact = ld.build_drive_path(sys_, w, grid)
        quad = ld.build_drive_path(sys_, w, grid, method="quadrature", abs_tol=1e-13)
        assert exact.provenance == "exact" and quad.provenance == "quadrature"
        assert_paths_close(sys_, exact, quad, 1e-13)


def step_monomials(sys_, w, grid):
    """Distinct step lengths and step monomials of ``w`` on ``grid`` in
    internal units, on the knots ``build_drive_path`` integrates over."""
    w_i, scales, _ = ld.internalize(sys_, w)
    t_i = np.asarray(grid, dtype=float) / scales.time
    cuts = np.asarray(w_i.breakpoints(), dtype=float)
    knots = np.union1d(t_i, cuts[(cuts > 0.0) & (cuts < t_i[-1])])
    coef, powers, rates = w_i.step_terms(knots)
    return np.unique(np.diff(knots)), powers, rates


def jittered_trace(nodes, seed):
    """A SampledField on nodes 0.01 apart, each moved by up to 0.003: every
    step length differs from the others."""
    rng = np.random.default_rng(seed)
    times = (np.arange(nodes) + rng.uniform(-0.3, 0.3, nodes)) * 0.01
    times[0] = 0.0
    return ld.SampledField(times, *rng.uniform(-0.01, 0.01, (2, nodes)))


class TestStepTable:
    """The step table of both paths, stacked and evaluated in blocks of
    step lengths, against one unblocked table per path."""

    CARRIER = ld.SumField((
        ld.SampledField([-1.0, 6.0, 13.0, 20.0, 27.0], [0.21, -0.13, 0.08, 0.3, -0.17],
                        [-0.05, 0.24, -0.19, 0.11, 0.2]),
        ld.RotatingField(0.15, 0.8, 0.4)))

    @staticmethod
    def cases(natural):
        """name -> (steps, powers, R-path rates): leading axes of the rates
        are separate waveforms, as drive_endpoints stacks them."""
        trace = jittered_trace(1201, 41)
        return {
            # test_long_segments_with_carrier's field: power-1 monomials on
            # steps of 5 to 7, with doublings
            "carrier": step_monomials(natural, TestStepTable.CARRIER, [0.0, 13.0, 25.0]),
            # at h = 7 the R path's rates 0, -0.5 and 3 double 0, 1 and 4
            # times, and the u path's -1, -0.5 and -4 double 2, 1 and 4 times
            "doublings": (np.array([0.05, 0.7, 7.0]), np.zeros(1, int),
                          np.array([[0.0], [-0.5], [3.0]])),
            "zero": step_monomials(natural, ld.ZeroField(), [0.0, 2.0, 3.5]),
            "stacked_zero": (np.array([2.0]), np.zeros(0, int), np.zeros((1, 0))),
            # 1200 distinct steps, more than one block of 2^15 elements holds
            "many_steps": step_monomials(natural, trace, np.linspace(0.0, 11.9, 25)),
        }

    @pytest.mark.parametrize("budget", [None, 100, 1])
    @pytest.mark.parametrize("case", ["carrier", "doublings", "zero", "stacked_zero",
                                      "many_steps"])
    def test_stacked_blocks_equal_per_path_table(self, natural, monkeypatch, case, budget):
        steps, powers, rates = self.cases(natural)[case]
        kappas = (rates, -(1.0 + rates))
        if budget is not None:
            monkeypatch.setattr(path_integrals, "_STEP_BLOCK_ELEMENTS", budget)
        e, k = path_integrals._step_table(steps, powers, np.stack(kappas))
        for path, kappa in enumerate(kappas):
            e_ref, k_ref = path_integrals._step_block(steps, powers, kappa)
            assert e[path].shape == e_ref.shape and k[path].shape == k_ref.shape
            assert e[path].tobytes() == e_ref.tobytes(), (case, path)
            assert k[path].tobytes() == k_ref.tobytes(), (case, path)
        if case == "many_steps":
            width = max(1, path_integrals._STEP_BLOCK_ELEMENTS // (2 * rates.size * 10))
            assert steps.size > max(1000, width)
        if case == "doublings":  # p with 2 |kappa| h / 2^p <= 4 at h = 7
            fastest = np.abs(np.stack(kappas)).max(axis=-1)
            counts = np.ceil(np.log2(np.maximum(fastest * steps.max() / 2.0, 1.0)))
            assert sorted(counts.ravel().tolist()) == [0, 1, 1, 2, 4, 4]

    def test_irregular_trace_memory_bounded(self, natural):
        # a jittered 40 001-node trace with a 1001-sample grid has 40 999
        # distinct steps; the (E, K) table of both paths is 192 bytes per
        # step (M = 2 monomials), which the blocks fill with temporaries of
        # bounded size.  One table for all steps at once peaked at 13x the
        # table, and at 26x when both paths are stacked.
        w = jittered_trace(40_001, 3)
        grid = np.linspace(0.0, w.times[-1], 1001)
        steps = step_monomials(natural, w, grid)[0]
        assert steps.size > 40_000
        table = 2 * steps.size * (2 + 2 * 2) * 16
        ld.build_drive_path(natural, w, grid[:3])  # one-time setup untraced
        tracemalloc.start()
        try:
            ld.build_drive_path(natural, w, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * table


@settings(max_examples=20, deadline=None)
@given(
    steps=st.lists(st.floats(0.01, 1.5), min_size=2, max_size=20),
    values=st.lists(st.complex_numbers(max_magnitude=0.5), min_size=21, max_size=21),
    start=st.floats(-1.0, 0.0),
    samples=st.integers(2, 12),
    charge=st.sampled_from([1.0, -1.0]),
)
def test_piecewise_exact_vs_quadrature(steps, values, start, samples, charge):
    # random non-uniform traces: the exact route within the quadrature's abs_tol
    sys_ = ld.PhysicalSystem(charge, 1.0, 1.0)
    times = start + np.concatenate([[0.0], np.cumsum(steps)])
    assume(times[-1] > 0.0)
    e = np.array(values[: times.size])
    w = ld.SampledField(times, e.real, e.imag)
    grid = np.linspace(0.0, times[-1], samples)
    exact = ld.build_drive_path(sys_, w, grid)
    quad = ld.build_drive_path(sys_, w, grid, method="quadrature")
    assert exact.provenance == "exact"
    for name in ("r", "u", "beta", "gamma", "area_r", "area_u"):
        assert_allclose(getattr(exact, name), getattr(quad, name),
                        rtol=0, atol=DEFAULT_ABS_TOL, err_msg=name)


class TestKnotWalk:
    """``_exact_samples`` walks the knots in runs of steps sized by
    ``_STEP_BLOCK_ELEMENTS``, carrying R, u and both areas between runs."""

    @staticmethod
    def walk(sys_, w, grid, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(path_integrals, "_STEP_BLOCK_ELEMENTS", budget)
        calls = []
        step_terms = ld.SampledField.step_terms
        monkeypatch.setattr(ld.SampledField, "step_terms",
                            lambda self, knots: calls.append(knots.size) or step_terms(self, knots))
        path = ld.build_drive_path(sys_, w, grid)
        monkeypatch.undo()
        return path, calls

    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_runs_of_any_length_give_the_same_path(self, monkeypatch, charge):
        # 210 steps; the grid sits on every 7th knot, so on the edges of
        # runs of 1 and of 7 steps.  R and its area are the same sums in
        # the same order; u's coefficients are complex products, whose
        # last bit numpy may round differently on an array of another length.
        sys_ = ld.PhysicalSystem(charge, 1.0, 1.0)
        trace = jittered_trace(211, 17)
        w = ld.SumField((trace, ld.RotatingField(0.2, 0.7, 0.3)))
        grid = trace.times[::7]
        monomials = 3  # the trace's value and slope, and the rotating term
        ref, calls = self.walk(sys_, w, grid, monkeypatch, None)
        assert calls == [2, 211]  # a probe of one step, then one run
        for steps in (1, 7):
            path, calls = self.walk(sys_, w, grid, monkeypatch, steps * monomials)
            assert calls == [2] + [steps + 1] * (210 // steps)
            for name in ("times", "r", "beta", "area_r"):
                assert getattr(path, name).tobytes() == getattr(ref, name).tobytes(), name
            for name in ("u", "gamma", "area_u"):
                want = getattr(ref, name)
                assert_allclose(getattr(path, name), want, rtol=0,
                                atol=1e-15 * np.max(np.abs(want)), err_msg=name)

    def test_regular_trace_memory_bounded(self, natural):
        # the whole walk at once peaked at 11x the trace's own arrays
        # (105.7 MB here); in runs the knots, the step table and the
        # internal-unit copy of the trace are most of what is left
        times = np.linspace(0.0, 400.0, 400_001)
        w = ld.SampledField(times, 0.01 * np.cos(0.9 * times), 0.01 * np.sin(0.9 * times))
        grid = np.linspace(0.0, 400.0, 1001)
        trace = 3 * times.nbytes
        ld.build_drive_path(natural, w, grid[:3])  # one-time setup untraced
        tracemalloc.start()
        try:
            ld.build_drive_path(natural, w, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * trace
