import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive.errors import AccuracyError
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
        pts = ld.guiding_center_path(natural, ld.RotatingField(e0, nu), s)
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
            u_cf = ld.displacement_amplitude(natural, w, t, method="closed_form")
            u_q = ld.displacement_amplitude(natural, w, t, method="quadrature")
            assert abs(u_cf - u_q) < 1e-10

    def test_closed_form_for_sampled_is_piecewise_exact(self, natural):
        # "closed_form" asks for an exact route, never quadrature: a sampled
        # field takes the piecewise-exact one, a sampled-plus-analytic sum has none
        w = ld.sample_waveform(ld.ConstantField(0.1, 0.0), np.linspace(-1, 10, 200))
        u = ld.displacement_amplitude(natural, w, 5.0, method="closed_form")
        assert u == ld.displacement_amplitude(natural, w, 5.0)
        u_ref = ld.displacement_amplitude(natural, ld.ConstantField(0.1, 0.0), 5.0)
        assert abs(u - u_ref) < 1e-15
        mixed = ld.SumField((w, ld.RotatingField(0.1, 0.7)))
        with pytest.raises(ValueError, match="no closed-form or piecewise-exact"):
            ld.displacement_amplitude(natural, mixed, 5.0, method="closed_form")

    def test_differential_relation(self, natural):
        # du/dt = (i/2) e^{-i omega t} dR*/dt, checked by central differences
        w = ld.RotatingField(0.2, 0.7, 0.1)
        t, h = 4.2, 1e-4
        du = (
            ld.displacement_amplitude(natural, w, t + h)
            - ld.displacement_amplitude(natural, w, t - h)
        ) / (2.0 * h)
        dr_conj = np.conj(
            (
                ld.guiding_center_path(natural, w, t + h)
                - ld.guiding_center_path(natural, w, t - h)
            )
            / (2.0 * h)
        )
        assert abs(du - 0.5j * np.exp(-1j * t) * dr_conj) < 1e-7

    @pytest.mark.parametrize(
        "charge, w",
        [
            # |mu| t = 1e-4 sends auto down the area fallback
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
        assert dp.provenance == "closed-form"
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
        cf = ld.build_drive_path(natural, w, grid)
        q = ld.build_drive_path(natural, w, grid, method="quadrature")
        # straight-line R path: no enclosed area, no translation phase
        assert_allclose(cf.beta, 0.0, atol=1e-12)
        assert_allclose(q.beta, 0.0, atol=1e-10)
        for name in ("u", "gamma"):
            a, b = getattr(cf, name), getattr(q, name)
            scale = np.max(np.abs(a))
            assert np.max(np.abs(a - b)) / scale < 1e-8, name

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
        assert dp_s.provenance == "piecewise-exact"
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
    dr_conj = np.conj(
        (
            ld.guiding_center_path(natural, w, t + h)
            - ld.guiding_center_path(natural, w, t - h)
        )
        / (2.0 * h)
    )
    resid = abs(du - 0.5j * np.exp(-1j * t) * dr_conj)
    assert resid < 5.0 * e0 * max(nu, 1.0) ** 2 * h**2


@settings(max_examples=15, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.floats(0.02, 0.15),              # amplitude
            # keep clear of the resonance window, where auto mode rightly
            # abandons the closed form for the grid route
            st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 2.0)),
            st.sampled_from([-1.0, 1.0]),       # rotation sense
            st.floats(0.0, 6.2),                # launch phase
        ),
        min_size=2,
        max_size=3,
    ),
)
def test_multiterm_sum_quadrature_vs_closed(terms):
    # epicycle superpositions: term-by-term closed areas against the grid route
    natural = ld.PhysicalSystem(1.0, 1.0, 1.0)
    w = ld.SumField(
        tuple(ld.RotatingField(a, s * nu, ph) for a, nu, s, ph in terms)
    )
    grid = np.linspace(0.0, 20.0, 9)
    cf = ld.build_drive_path(natural, w, grid)
    q = ld.build_drive_path(natural, w, grid, method="quadrature")
    assert cf.provenance == "closed-form" and q.provenance == "quadrature"
    for name in ("r", "u", "beta", "gamma"):
        a, b = getattr(cf, name), getattr(q, name)
        scale = max(float(np.max(np.abs(a))), 1e-6)
        assert float(np.max(np.abs(a - b))) / scale < 1e-8, name


def test_slow_rotation_falls_back_to_grid_route(natural):
    # |nu| t << 1 makes the term-by-term area formula cancel catastrophically;
    # auto mode must route such waveforms through the grid numerics
    w = ld.SumField((ld.RotatingField(0.1, 1e-9), ld.RotatingField(0.08, 0.8)))
    grid = np.linspace(0.0, 20.0, 5)
    dp = ld.build_drive_path(natural, w, grid)
    assert dp.provenance == "quadrature"
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


def per_point_endpoints(sys_, waves, t, method):
    """build_drive_path on [0, t] for each waveform, read at t."""
    grid = [0.0, t] if t > 0 else [0.0]
    return [ld.build_drive_path(sys_, w, grid, method=method) for w in waves]


def assert_endpoints_match(sys_, waves, t, method):
    """drive_endpoints against per-point build_drive_path: R and u bit for
    bit, phases and areas to 2e-14, routes identical; returns the batch."""
    ends = ld.drive_endpoints(sys_, waves, t, method=method)
    ref = per_point_endpoints(sys_, waves, t, method)
    for name in ("r", "u"):
        expected = np.array([getattr(dp, name)[-1] for dp in ref])
        assert getattr(ends, name).tobytes() == expected.tobytes(), name
    l2 = sys_.l_b**2
    for name, scale in (("beta", 1.0), ("gamma", 1.0), ("area_r", l2), ("area_u", l2)):
        expected = np.array([getattr(dp, name)[-1] for dp in ref])
        assert_allclose(getattr(ends, name), expected, rtol=0, atol=2e-14 * scale, err_msg=name)
    assert ends.provenance == tuple(dp.provenance for dp in ref)
    return ends


class TestDriveEndpoints:
    """The batched closed form of a sweep against one build_drive_path per point."""

    @pytest.mark.parametrize("method", ["auto", "closed_form", "quadrature"])
    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_nu_sweep(self, method, charge):
        # nu = 0 (R drift only), nu = omega (u drift only), and
        # nu/omega = 1 +- 1e-5 at t = 20: |mu| t = 2e-4 sends auto to quadrature
        sys_ = ld.PhysicalSystem(charge, 2.0, 0.7)
        ratios = [*np.linspace(-0.5, 2.0, 11), 1.0 - 1e-5, 1.0 + 1e-5]
        assert 0.0 in ratios and 1.0 in ratios
        t = 20.0 / sys_.omega
        waves = [ld.RotatingField(0.3, charge * r * sys_.omega, 0.4) for r in ratios]
        ends = assert_endpoints_match(sys_, waves, t, method)
        near = 2 if method == "auto" else 0
        quad = len(waves) if method == "quadrature" else near
        assert ends.provenance.count("quadrature") == quad
        assert ends.provenance.count("closed-form") == len(waves) - quad
        assert ends.ill_conditioned == near

    @pytest.mark.parametrize("method", ["auto", "closed_form", "quadrature"])
    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_amplitude_sweep_with_zero(self, natural, method, charge):
        sys_ = ld.PhysicalSystem(charge, 1.0, 1.0)
        waves = [ld.RotatingField(a, 0.7, 0.3) for a in np.linspace(0.0, 0.3, 7)]
        ends = assert_endpoints_match(sys_, waves, 9.0, method)
        assert ends.u[0] == 0 and ends.gamma[0] == 0
        assert ends.ill_conditioned == 0

    def test_mixed_term_structures(self, natural):
        # different term counts are padded; the sampled field is piecewise linear
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
        assert ends.provenance[-1] == "piecewise-exact" and ends.ill_conditioned == 0

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
        with pytest.raises(ValueError, match="no closed-form"):
            ld.drive_endpoints(natural, [w, ld.SumField((sampled, w))], 1.0,
                               method="closed_form")
        with pytest.raises(ld.DomainError):
            ld.drive_endpoints(natural, [sampled], 3.0)

    def test_resonance_gamma_against_exact_area(self, natural):
        # gamma = (1/2) |A|^2 (r T - sin r T), A = E0 / r, r = omega - nu, on the
        # 401-point grid of the resonance benchmark, against 50-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        e0, t = 0.3, 20.0
        nus = np.linspace(0.5, 1.5, 401)
        ends = ld.drive_endpoints(natural, [ld.RotatingField(e0, nu, 1.1) for nu in nus], t)
        assert ends.provenance == ("closed-form",) * nus.size
        worst = 0.0
        for nu, gamma in zip(nus.tolist(), ends.gamma.tolist()):
            r = 1 - mpmath.mpf(nu)
            exact = 0 if r == 0 else (mpmath.mpf(e0) / r) ** 2 * (r * t - mpmath.sin(r * t)) / 2
            worst = max(worst, abs(float(gamma - exact)))
        assert worst <= 5e-14


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


def interpolant_reference(times, e1, e2, t_grid, dps=30):
    """R, u, S_R, S_u of the linearly interpolated field at ``t_grid`` in
    ``dps``-digit arithmetic, for omega = 1 and charge +1.

    R and u are integrated in closed form on each linear piece (u checked
    against mpmath.quad); the areas are mpmath.quad of (1/2) Im(conj(z) z').
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        tn = [mpmath.mpf(x) for x in times]
        en = [mpmath.mpc(a, b) for a, b in zip(e1, e2)]

        def field(s):
            j = max(i for i in range(len(tn) - 1) if tn[i] <= s)
            return en[j] + (en[j + 1] - en[j]) * (s - tn[j]) / (tn[j + 1] - tn[j])

        knots = sorted({mpmath.mpf(0), *(mpmath.mpf(t) for t in t_grid),
                        *(t for t in tn if 0 < t < t_grid[-1])})
        r, u, s_r, s_u = mpmath.mpc(0), mpmath.mpc(0), mpmath.mpf(0), mpmath.mpf(0)
        at = {}
        for p, q in zip(knots[:-1], knots[1:]):
            at[p] = (r, u, s_r, s_u)
            e0, slope = field(p), (field(q) - field(p)) / (q - p)

            def r_of(s, r=r, p=p, e0=e0, slope=slope):
                return r - 1j * (e0 * (s - p) + slope * (s - p) ** 2 / 2)

            def u_of(s, u=u, p=p, c0=mpmath.conj(e0), c1=mpmath.conj(slope)):
                x, g = s - p, mpmath.expj(p - s)
                return u - mpmath.expj(-p) / 2 * (-1j * c0 * (1 - g) + c1 * (1j * x * g - 1 + g))

            def du_ds(s):
                return -mpmath.expj(-s) * mpmath.conj(field(s)) / 2

            assert abs(u_of(q) - u - mpmath.quad(du_ds, [p, q])) < mpmath.mpf(10) ** (4 - dps)
            s_r += mpmath.quad(lambda s: mpmath.im(mpmath.conj(r_of(s)) * -1j * field(s)) / 2, [p, q])
            s_u += mpmath.quad(lambda s: mpmath.im(mpmath.conj(u_of(s)) * du_ds(s)) / 2, [p, q])
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
    """The exact drive path of piecewise-linear (sampled) waveforms."""

    # steps from 1e-6 to 2 (both sides of the M_jk series switch at 1), t = 0
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
        assert dp.provenance == "piecewise-exact"
        errors = drive_path_errors(dp, reference)
        assert max(errors.values()) < 1e-15, errors
        # no worse than the quadrature route it replaces on u and gamma
        quad = drive_path_errors(
            ld.build_drive_path(natural, trace, self.GRID, method="quadrature"), reference)
        for name in ("u", "gamma"):
            assert errors[name] <= quad[name], name

    def test_mirrored_charge(self, natural, trace):
        # charge -1 in the reflected field -conj(E): conjugated R and u,
        # flipped areas, the same phases; the internal field is the same, so
        # the route does the same arithmetic and the relation holds exactly
        plus = ld.build_drive_path(natural, trace, self.GRID)
        reflected = ld.SampledField(self.TIMES, np.negative(self.E1), self.E2)
        minus = ld.build_drive_path(ld.PhysicalSystem(-1.0, 1.0, 1.0), reflected, self.GRID)
        assert minus.provenance == "piecewise-exact"
        for name, flip in (("r", np.conj), ("u", np.conj), ("area_r", np.negative),
                           ("area_u", np.negative), ("beta", None), ("gamma", None)):
            expected = getattr(plus, name) if flip is None else flip(getattr(plus, name))
            assert np.array_equal(getattr(minus, name), expected), name

    @pytest.mark.parametrize("charge", [1.0, -1.0])
    def test_sum_of_sampled_terms(self, charge):
        # two sampled terms on interleaved, non-uniform nodes: linear on their union
        sys_ = ld.PhysicalSystem(charge, 1.3, 0.8)
        rng = np.random.default_rng(7)
        slow = np.concatenate([[-1.0], np.cumsum(rng.uniform(0.2, 0.9, 30)) - 0.5])
        fast = np.concatenate([[-0.3], np.cumsum(rng.uniform(0.05, 0.3, 90)) - 0.25])
        terms = tuple(ld.SampledField(t, *rng.uniform(-0.3, 0.3, (2, t.size)))
                      for t in (slow, fast))
        w = ld.SumField(terms)
        lo, hi = max(slow[0], fast[0]), min(slow[-1], fast[-1])
        union = np.union1d(slow, fast)
        assert np.array_equal(w.linear_nodes(), union[(lo <= union) & (union <= hi)])
        grid = np.linspace(0.0, hi, 23)
        exact = ld.build_drive_path(sys_, w, grid)
        quad = ld.build_drive_path(sys_, w, grid, method="quadrature")
        assert exact.provenance == "piecewise-exact" and quad.provenance == "quadrature"
        assert_paths_close(sys_, exact, quad, 1e-10)

    # ids name the charge, prefixed by the bias's kind unless it is a ConstantField
    @pytest.mark.parametrize("charge,bias", [
        pytest.param(charge, bias, id=f"{kind}{charge}")
        for kind, bias in (("", ld.ConstantField(0.12, -0.07)),
                           ("rotating-", ld.RotatingField(0.12, 0.0, 0.4)),
                           ("linear_sinusoid-", ld.LinearSinusoidField(0.1, 0.3, 0.0, 0.2)))
        for charge in (1.0, -1.0)
    ])
    def test_sampled_plus_constant_bias(self, charge, bias):
        # a DC bias, whether constant or an analytic term at rate 0, is
        # linear on a 4001-node trace's nodes, so the sum takes the exact
        # route; constants alone keep the closed form
        sys_ = ld.PhysicalSystem(charge, 1.3, 0.8)
        times = np.linspace(-0.25, 4.0, 4001)
        trace = ld.SampledField(times, 0.2 * np.cos(1.7 * times),
                                0.2 * np.sin(0.9 * times + 0.3))
        w = ld.SumField((trace, bias, ld.ZeroField()))
        assert np.array_equal(w.linear_nodes(), times)
        grid = np.linspace(0.0, 3.9, 14)
        exact = ld.build_drive_path(sys_, w, grid)
        quad = ld.build_drive_path(sys_, w, grid, method="quadrature", abs_tol=1e-13)
        assert exact.provenance == "piecewise-exact" and quad.provenance == "quadrature"
        for alone in (bias, ld.ZeroField(), ld.SumField((bias, ld.ZeroField()))):
            assert ld.build_drive_path(sys_, alone, grid).provenance == "closed-form"
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
        assert exact.provenance == "piecewise-exact" and quad.provenance == "quadrature"
        assert_paths_close(sys_, exact, quad, 1e-13)


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
    assert exact.provenance == "piecewise-exact"
    for name in ("r", "u", "beta", "gamma", "area_r", "area_u"):
        assert_allclose(getattr(exact, name), getattr(quad, name),
                        rtol=0, atol=DEFAULT_ABS_TOL, err_msg=name)
