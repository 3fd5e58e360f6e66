import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive.errors import DomainError


class TestPhysicalSystem:
    def test_derived_scales_natural(self, natural):
        assert natural.omega == 1.0
        assert natural.l_b == 1.0
        assert natural.k == pytest.approx(math.sqrt(2.0))
        assert natural.area_phase == 1.0
        assert not natural.mirrored

    @settings(max_examples=50, deadline=None)
    @given(
        q=st.floats(0.01, 1e3, allow_nan=False),
        b=st.floats(0.01, 1e3),
        m=st.floats(0.01, 1e3),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_scale_identity(self, q, b, m, sign):
        sys_ = ld.PhysicalSystem(sign * q, b, m)
        assert sys_.k**2 * sys_.l_b**2 == pytest.approx(2.0, rel=1e-14)
        assert sys_.omega > 0

    def test_mirrored_for_negative_charge(self, electron_si):
        assert electron_si.mirrored
        assert electron_si.omega > 0
        assert electron_si.area_phase < 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"charge": 0.0, "magnetic_field": 1.0, "mass": 1.0},
            {"charge": 1.0, "magnetic_field": 0.0, "mass": 1.0},
            {"charge": 1.0, "magnetic_field": -2.0, "mass": 1.0},
            {"charge": 1.0, "magnetic_field": 1.0, "mass": 0.0},
            {"charge": 1.0, "magnetic_field": 1.0, "mass": 1.0, "hbar": -1.0},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            ld.PhysicalSystem(**kwargs)


class TestEvalField:
    def test_zero(self):
        assert ld.eval_field(ld.ZeroField(), 3.7) == 0j

    def test_rotating_quarter_turn(self):
        w = ld.RotatingField(amplitude=2.0, nu=math.pi, phase=0.0)
        assert ld.eval_field(w, 0.5) == pytest.approx(-2j, abs=1e-15)

    def test_rotating_starts_along_e1(self):
        w = ld.RotatingField(amplitude=1.3, nu=0.8)
        assert ld.eval_field(w, 0.0) == pytest.approx(1.3 + 0j)

    def test_constant(self):
        w = ld.ConstantField(0.2, -0.5)
        assert ld.eval_field(w, 11.0) == 0.2 - 0.5j

    def test_linear_sinusoid(self):
        w = ld.LinearSinusoidField(2.0, direction=0.5, angular_frequency=1.1, phase=0.3)
        expected = 2.0 * math.cos(1.1 * 4.0 + 0.3) * np.exp(0.5j)
        assert ld.eval_field(w, 4.0) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "w,formula",
        [
            (ld.RotatingField(1.7, 0.8, 0.0),
             lambda t: 1.7 * cmath.exp(1j * (0.0 - 0.8 * t))),
            (ld.RotatingField(0.35, -1.3, 2.6),
             lambda t: 0.35 * cmath.exp(1j * (2.6 + 1.3 * t))),
            (ld.RotatingField(2.0, 0.0, -0.9),
             lambda t: 2.0 * cmath.exp(-0.9j)),
            (ld.LinearSinusoidField(1.2, 0.5, 1.1, 0.3),
             lambda t: 1.2 * math.cos(1.1 * t + 0.3) * cmath.exp(0.5j)),
            (ld.LinearSinusoidField(0.6, -2.2, -0.7, 1.9),
             lambda t: 0.6 * math.cos(-0.7 * t + 1.9) * cmath.exp(-2.2j)),
            (ld.LinearSinusoidField(3.0, 1.0, 0.0, 0.4),
             lambda t: 3.0 * math.cos(0.4) * cmath.exp(1.0j)),
        ],
    )
    def test_analytic_field_matches_documented_formula(self, w, formula):
        # the exponential-sum declaration reproduces each class docstring
        for t in (-1.6, 0.0, 0.37, 1.0, 2.9):
            assert abs(ld.eval_field(w, t) - formula(t)) <= 1e-15 * w.amplitude

    def test_sampled_interpolates_and_bounds(self):
        w = ld.SampledField((0.0, 1.0, 2.0), (0.0, 2.0, 2.0), (1.0, 1.0, 3.0))
        assert ld.eval_field(w, 0.5) == pytest.approx(1.0 + 1.0j)
        with pytest.raises(DomainError):
            ld.eval_field(w, 2.5)
        with pytest.raises(DomainError):
            ld.eval_field(w, -0.1)

    def test_sampled_requires_increasing_times(self):
        with pytest.raises(ValueError):
            ld.SampledField((0.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "times,e1,e2",
        [
            ((0.0, 1.0, math.inf), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((0.0, math.nan, 2.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((0.0, 1.0, 2.0), (0.0, math.nan, 0.0), (0.0, 0.0, 0.0)),
            ((0.0, 1.0, 2.0), (0.0, 0.0, 0.0), (0.0, 0.0, -math.inf)),
        ],
    )
    def test_sampled_requires_finite_values(self, times, e1, e2):
        with pytest.raises(ValueError, match="finite"):
            ld.SampledField(times, e1, e2)

    def test_sum_termwise_and_empty(self):
        w = ld.SumField((ld.ConstantField(1.0, 0.0), ld.ConstantField(0.0, 2.0)))
        assert ld.eval_field(w, 0.3) == 1.0 + 2.0j
        assert ld.eval_field(ld.SumField(), 5.0) == 0j

    def test_sum_domain_is_intersection(self):
        w = ld.SumField(
            (ld.ConstantField(1.0, 0.0), ld.SampledField((-1.0, 4.0), (0.0, 0.0), (0.0, 0.0)))
        )
        assert w.domain() == (-1.0, 4.0)
        with pytest.raises(DomainError):
            ld.eval_field(w, 5.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ld.RotatingField(-1.0, 1.0)
        with pytest.raises(ValueError):
            ld.LinearSinusoidField(-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make,name", [
        (lambda v: ld.RotatingField(v, 0.9), "amplitude"),
        (lambda v: ld.RotatingField(0.1, v), "nu"),
        (lambda v: ld.RotatingField(0.1, 0.9, phase=v), "phase"),
        (lambda v: ld.ConstantField(v, 0.2), "e1"),
        (lambda v: ld.ConstantField(0.1, v), "e2"),
        (lambda v: ld.LinearSinusoidField(v), "amplitude"),
        (lambda v: ld.LinearSinusoidField(0.1, direction=v), "direction"),
        (lambda v: ld.LinearSinusoidField(0.1, angular_frequency=v), "angular_frequency"),
        (lambda v: ld.LinearSinusoidField(0.1, phase=v), "phase"),
    ])
    def test_non_finite_parameter_rejected(self, make, name, bad):
        # named at construction, not later as a drive-path overflow or a
        # bare error from cmath.rect
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(bad)


class TestGuidingCenterPath:
    """R(t) = -i (c/B) * integral of E over [0, t], as ``build_drive_path``
    gives it on any grid that starts at 0."""

    def test_zero(self, natural):
        assert ld.build_drive_path(natural, ld.ZeroField(), [0.0, 7.0]).r[-1] == 0j

    def test_rotating_closed_form(self, natural):
        e0, nu = 0.21, 0.8
        w = ld.RotatingField(e0, nu)
        r0 = e0 / nu
        t = np.array([0.0, 1.7, 9.3])
        expected = r0 * (np.exp(-1j * nu * t) - 1.0)
        assert np.max(np.abs(ld.build_drive_path(natural, w, t).r - expected)) < 1e-14

    def test_rotating_circle_property(self, natural):
        e0, nu = 0.3, 1.4
        w = ld.RotatingField(e0, nu)
        r0 = e0 / nu
        r = ld.build_drive_path(natural, w, np.linspace(0.0, 12.0, 37)).r
        assert_allclose(np.abs(r + r0), r0, rtol=1e-12)

    def test_constant_drifts_down(self, natural):
        w = ld.ConstantField(0.4, 0.0)
        t = 6.0
        r = ld.build_drive_path(natural, w, [0.0, t]).r[-1]
        assert r == pytest.approx(-1j * 0.4 * t)

    def test_charge_independent(self, electron_si):
        # R depends only on the drift factor c/B, not on the charge's sign
        q, b = electron_si.charge, electron_si.magnetic_field
        positive = ld.PhysicalSystem(-q, b, electron_si.mass, electron_si.hbar, electron_si.c)
        e0, nu, phase = 800.0, 0.6 * electron_si.omega, 0.4
        w_si = ld.RotatingField(e0, nu, phase)
        grid = np.linspace(0.0, 4.0 / electron_si.omega, 9)
        r = ld.build_drive_path(electron_si, w_si, grid).r
        assert_allclose(r, ld.build_drive_path(positive, w_si, grid).r, rtol=1e-14)
        cb = electron_si.c / b
        expected = cb * (e0 * cmath.exp(1j * phase) / nu) * (np.exp(-1j * nu * grid) - 1.0)
        assert_allclose(r, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    def test_requires_nonnegative_time(self, natural):
        for grid in ([-0.5, 0.0], [0.0, -0.5]):
            with pytest.raises(ValueError):
                ld.build_drive_path(natural, ld.ZeroField(), grid)

    @pytest.mark.parametrize(
        "w",
        [
            ld.ConstantField(0.3, -0.2),
            ld.RotatingField(0.25, 1.3, 0.4),
            ld.LinearSinusoidField(0.2, 0.7, 1.6, 0.1),
            ld.SumField((ld.RotatingField(0.1, 0.9), ld.ConstantField(0.05, 0.02))),
            ld.RotatingField(0.25, -0.9, 2.1),
            ld.LinearSinusoidField(0.2, 0.7, 0.0, 0.3),
            ld.SumField((ld.RotatingField(0.1, 0.9, 0.3), ld.RotatingField(0.1, 0.9, 0.3))),
        ],
    )
    def test_derivative_matches_field(self, natural, w):
        # central difference of R reproduces -i (c/B) E with O(h^2) error
        t = 3.1
        errs = []
        for h in (1e-3, 5e-4):
            r = ld.build_drive_path(natural, w, [0.0, t - h, t + h]).r
            fd = (r[2] - r[1]) / (2.0 * h)
            errs.append(abs(fd - (-1j * ld.eval_field(w, t))))
        assert errs[0] < 1e-5
        if errs[1] > 1e-12:  # constant fields differentiate exactly
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_sampled_integral_exact_per_segment(self, natural):
        # the exact route integrates a piecewise-linear field exactly
        times = np.linspace(-0.5, 8.0, 18)
        w = ld.sample_waveform(ld.ConstantField(0.3, -0.1), times)
        t = 5.37
        assert ld.build_drive_path(natural, w, [0.0, t]).r[-1] == pytest.approx(
            -1j * (0.3 - 0.1j) * t, rel=1e-14
        )

    def test_sampled_range_must_bracket_zero(self, natural):
        w = ld.SampledField((1.0, 2.0), (0.1, 0.1), (0.0, 0.0))
        with pytest.raises(DomainError):
            ld.build_drive_path(natural, w, [0.0, 1.5])


class TestInternalize:
    def test_natural_identity(self, natural):
        w = ld.RotatingField(0.2, 0.7, 0.1)
        w_i, scales, mirrored = ld.internalize(natural, w)
        assert (scales.time, scales.length, scales.field) == (1.0, 1.0, 1.0)
        assert not mirrored
        # the internal waveform is another class holding the same terms
        assert _bits(w_i.exp_terms()) == _bits(w.exp_terms())

    @pytest.mark.parametrize(
        "make",
        [
            lambda om: ld.ConstantField(700.0, -300.0),
            lambda om: ld.RotatingField(500.0, 0.8 * om, 0.3),
            lambda om: ld.LinearSinusoidField(400.0, 0.2, 1.1 * om, 0.5),
            lambda om: ld.SampledField(
                tuple(np.linspace(-1.0 / om, 9.0 / om, 40)),
                tuple(np.linspace(0.0, 200.0, 40)),
                tuple(np.linspace(-50.0, 50.0, 40)),
            ),
            lambda om: ld.SumField(
                (ld.RotatingField(100.0, 0.5 * om), ld.ConstantField(30.0, 40.0))
            ),
            lambda om: ld.RotatingField(250.0, -0.6 * om, 1.2),
            lambda om: ld.LinearSinusoidField(300.0, 0.9, 0.0, 0.4),
            lambda om: ld.SumField(
                (ld.RotatingField(100.0, 0.5 * om, 0.7), ld.RotatingField(100.0, 0.5 * om, 0.7))
            ),
        ],
    )
    def test_mirror_map_on_field_values(self, electron_si, make):
        # internal field is -conj(E)/field_scale evaluated at rescaled time
        w = make(electron_si.omega)
        w_i, scales, mirrored = ld.internalize(electron_si, w)
        assert mirrored
        for t_i in (0.0, 1.3, 6.9):
            e_user = w.field(t_i * scales.time)
            expected = -np.conj(e_user) / scales.field
            assert complex(w_i.field(t_i)) == pytest.approx(expected, rel=1e-12)

    def test_nodes_that_collapse_in_internal_units_raise_domain_error(self):
        # dividing by the time scale 0.75 rounds these two adjacent nodes to
        # one float; the field in user units is valid
        times = [0.0, 1.510204081632653, 1.5102040816326532, 3.0]
        w = ld.SampledField(times, [0.1, 0.2, 0.3, 0.1], [0.0, 0.0, 0.1, 0.0])
        system = ld.PhysicalSystem(charge=1.0, magnetic_field=1.0, mass=0.75)
        assert system.internal_scales().time == 0.75
        with pytest.raises(DomainError, match=r"times\[1\] = 1\.510204081632653 and times\[2\]"):
            ld.internalize(system, w)
        with pytest.raises(DomainError, match="round to one time"):
            ld.build_drive_path(system, w, [0.0, 3.0])

    @pytest.mark.parametrize("name, scales", [
        ("times", ld.InternalScales(1e-300, 1.0, 1.0)),
        ("e1", ld.InternalScales(1.0, 1.0, 1e-300)),
    ])
    def test_overflow_in_internal_units_raises_domain_error(self, name, scales):
        w = ld.SampledField([0.0, 1.0, 1e10], [0.0, 1e10, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match=rf"{name}\[\d\] = .* not finite"):
            w.rescaled(scales, False)

    def test_scales(self, electron_si):
        scales = electron_si.internal_scales()
        assert scales.time == pytest.approx(1.0 / electron_si.omega)
        assert scales.length == pytest.approx(electron_si.l_b)

    def test_sample_waveform_roundtrip(self, natural):
        w = ld.RotatingField(0.3, 1.1, 0.2)
        grid = np.linspace(-0.5, 6.0, 200)
        ws = ld.sample_waveform(w, grid)
        for t in (0.0, 2.0, 5.5):
            assert complex(ws.field(t)) == pytest.approx(complex(w.field(t)), abs=2e-4)


def _bits(values):
    return np.asarray(values).tobytes()


class TestSampledFieldArrays:
    """``times``, ``e1`` and ``e2`` are read-only float64 copies, and every
    result equals, bit for bit, the same arithmetic on tuples of floats."""

    @staticmethod
    def field_from_tuples(samples, t):
        times, e1, e2 = samples
        tn = np.asarray(times, dtype=float)
        return (np.interp(t, tn, np.asarray(e1, dtype=float))
                + 1j * np.interp(t, tn, np.asarray(e2, dtype=float)))[()]

    @staticmethod
    def rescaled_with_generators(samples, scales, mirror):
        times, e1, e2 = samples
        sign = -1.0 if mirror else 1.0
        return (tuple(ti / scales.time for ti in times),
                tuple(sign * v / scales.field for v in e1),
                tuple(v / scales.field for v in e2))

    @pytest.fixture
    def samples(self):
        rng = np.random.default_rng(7)
        times = np.cumsum(rng.uniform(0.01, 0.3, 400)) - 20.0
        e1, e2 = rng.normal(0.0, 3.0, (2, 400))
        e1[::37], e2[5::41] = 0.0, -0.0
        return tuple(times.tolist()), tuple(e1.tolist()), tuple(e2.tolist())

    @pytest.fixture
    def trace(self, samples):
        return ld.SampledField(*samples)

    def test_arrays_are_read_only(self, samples):
        lists = [list(v) for v in samples]
        arrays = [np.array(v) for v in samples]
        from_lists, from_arrays = ld.SampledField(*lists), ld.SampledField(*arrays)
        for w in (from_lists, from_arrays):
            for array in (w.times, w.e1, w.e2):
                assert isinstance(array, np.ndarray) and not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0
            for got, want in zip((w.times, w.e1, w.e2), samples):
                assert got.dtype == np.float64 and _bits(got) == _bits(want)
        for caller in (*lists, *arrays):
            caller[3] = 99.0
        assert all(a.flags.writeable for a in arrays)
        for w in (from_lists, from_arrays):
            for got, want in zip((w.times, w.e1, w.e2), samples):
                assert _bits(got) == _bits(want)

    def test_field_bit_identical(self, trace, samples):
        lo, hi = trace.domain()
        assert (type(lo), type(hi)) == (float, float)
        rng = np.random.default_rng(3)
        points = [np.asarray(samples[0]), rng.uniform(lo, hi, 1000), lo, hi, 0.0, 1.7]
        for t in points:
            assert _bits(trace.field(t)) == _bits(self.field_from_tuples(samples, t))

    def test_field_does_not_copy_the_table(self):
        # np.interp copies a read-only table on every call: 6.4 MB for ten
        # points on this trace, when the read-only arrays were the table
        times = np.linspace(0.0, 400.0, 400_001)
        w = ld.SampledField(times, np.cos(times), np.sin(times))
        t = np.linspace(0.0, 400.0, 10)
        w.field(t)
        tracemalloc.start()
        try:
            values = w.field(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        assert _bits(values) == _bits(np.interp(t, times, np.cos(times))
                                      + 1j * np.interp(t, times, np.sin(times)))
        assert not (w.times.flags.writeable or w.e1.flags.writeable or w.e2.flags.writeable)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_rescaled_bit_identical(self, trace, samples, electron_si, mirror):
        for scales in (electron_si.internal_scales(), ld.InternalScales(0.37, 1.0, 2.9)):
            w = trace.rescaled(scales, mirror)
            expected = self.rescaled_with_generators(samples, scales, mirror)
            for got, want in zip((w.times, w.e1, w.e2), expected):
                assert got.dtype == np.float64 and not got.flags.writeable
                assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_rescaled_evaluates_like_a_fresh_field(self, trace, samples, electron_si, mirror):
        for scales in (electron_si.internal_scales(), ld.InternalScales(0.37, 1.0, 2.9)):
            w = trace.rescaled(scales, mirror)
            fresh = ld.SampledField(*self.rescaled_with_generators(samples, scales, mirror))
            lo, hi = fresh.domain()
            assert w.domain() == (lo, hi)
            between = np.random.default_rng(5).uniform(lo, hi, 500)
            t = np.concatenate([fresh.times, between, [lo, hi, 0.0]])
            assert _bits(w.field(t)) == _bits(fresh.field(t))
            knots = np.sort(np.concatenate([fresh.times, between]))
            for got, want in zip(w.step_terms(knots), fresh.step_terms(knots)):
                assert _bits(got) == _bits(want)

    def test_equality_by_value(self, trace, samples):
        same = ld.SampledField(*(list(v) for v in samples))
        assert same == trace and not same != trace
        assert trace.rescaled(ld.InternalScales(1.0, 1.0, 1.0), False) == trace
        for k in range(3):
            edited = [list(v) for v in samples]
            edited[k][200] = math.nextafter(edited[k][200], math.inf)
            assert ld.SampledField(*edited) != trace
        assert trace != ld.ConstantField() and trace != samples

    def test_equal_fields_hash_equally(self, trace, samples):
        same = ld.SampledField(*(np.array(v) for v in samples))
        assert hash(same) == hash(trace)
        zero = ld.SampledField([0.0, 1.0, 2.0], [0.0, -0.0, 1.0], [0.0, 0.0, 0.0])
        signed = ld.SampledField([-0.0, 1.0, 2.0], [-0.0, 0.0, 1.0], [-0.0, -0.0, -0.0])
        assert zero == signed and hash(zero) == hash(signed)
        rotating = ld.RotatingField(0.3, 0.8)
        total, again = ld.SumField((rotating, zero)), ld.SumField((rotating, signed))
        assert total == again and hash(total) == hash(again)
        assert len({total, again, ld.SumField((rotating, trace))}) == 2

    def test_sum_breakpoints_merge_overlapping_terms(self, trace, samples):
        rng = np.random.default_rng(11)
        times = np.sort(np.concatenate([np.asarray(samples[0])[::3], rng.uniform(-15, 50, 90)]))
        other = ld.SampledField(times, np.zeros(times.size), np.ones(times.size))
        terms = (trace, ld.RotatingField(0.1, 0.5), other, trace)
        old = sorted({p for w in terms for p in w.breakpoints()})
        got = ld.SumField(terms).breakpoints()
        assert got.tolist() == old
        assert len(old) < trace.breakpoints().size + other.breakpoints().size  # overlap
        assert ld.SumField().breakpoints().size == 0
        assert ld.SumField((ld.RotatingField(0.1, 0.5),)).breakpoints().size == 0
