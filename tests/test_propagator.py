import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive import propagator
from landau_drive.errors import DomainError, TruncationError, TruncationWarning
from landau_drive.fock_algebra import _BLOCK_ELEMENTS
from landau_drive.propagator import NORM_TOL

from _reference import expm


@pytest.fixture
def rotating(natural):
    """Moderate off-resonant drive with known closed forms."""
    e0, nu, t = 0.16, 0.8, 10.0
    return ld.assemble(natural, ld.RotatingField(e0, nu), t, dim=64), e0, nu, t


class TestAssemble:
    def test_zero_field(self, natural):
        p = ld.assemble(natural, ld.ZeroField(), 7.0, dim=16)
        assert p.displacement == 0 and p.u == 0
        assert p.beta == 0 and p.gamma == 0
        assert_allclose(p.j_op.matrix, np.eye(16))
        assert_allclose(p.dynamical_phases, -(np.arange(16) + 0.5) * 7.0)

    def test_time_zero(self, natural):
        p = ld.assemble(natural, ld.RotatingField(0.2, 0.9), 0.0, dim=8)
        assert p.u == 0 and p.displacement == 0
        assert_allclose(p.j_op.matrix, np.eye(8))

    def test_rotating_closed_forms(self, rotating, natural):
        p, e0, nu, t = rotating
        r0 = e0 / nu
        d = nu - 1.0
        assert p.displacement == pytest.approx(r0 * (np.exp(-1j * nu * t) - 1))
        assert p.u == pytest.approx((-r0 * nu / 2) * (np.exp(1j * d * t) - 1) / (1j * d))
        assert p.beta == pytest.approx(0.5 * r0**2 * (nu * t - math.sin(nu * t)))
        assert p.gamma == pytest.approx(
            (r0**2 / 2) * (nu / (1 - nu)) ** 2 * ((1 - nu) * t - math.sin((1 - nu) * t))
        )
        assert p.provenance == "exact"

    def test_amplitude_mapping_sign(self, rotating, natural):
        p, *_ = rotating
        assert p.alpha == pytest.approx(-np.conj(p.u) * natural.k)

    def test_resonance_pure_displacement(self, natural):
        e0, t = 0.1, 12.0
        p = ld.assemble(natural, ld.RotatingField(e0, 1.0), t, dim=48)
        r0 = e0 / 1.0
        assert p.u == pytest.approx(-r0 * t / 2.0, rel=1e-12)
        assert p.gamma == pytest.approx(0.0, abs=1e-12)
        # J carries no extra phase: it is exactly D(alpha)
        d_ref = ld.displacement_matrix(p.alpha, 48)
        assert_allclose(p.j_op.matrix, d_ref.matrix, atol=1e-14)

    def test_default_dimension_rule(self, natural):
        # the auto size holds the leading block of 8 columns, levels 0 .. 7
        p = ld.assemble(natural, ld.RotatingField(0.1, 1.0), 2.0)
        assert p.dim == ld.suggested_dimension(p.alpha, 7) == 47
        assert ld.healthy_dim(p) >= 8

    @pytest.mark.parametrize("amplitude", [1.5e152, 1.5e150])
    def test_default_dimension_of_unrepresentable_drive(self, natural, amplitude):
        # a finite drive path whose |alpha|^2 overflows (1.5e152) or is
        # merely huge (1.5e150) gets no auto size; it used to raise a bare
        # OverflowError or numpy's allocation ValueError
        with pytest.raises(TruncationError, match="not representable"):
            ld.assemble(natural, ld.RotatingField(amplitude, 1.0), 100.0)

    def test_negative_time_rejected(self, natural):
        with pytest.raises(ld.DomainError):
            ld.assemble(natural, ld.ZeroField(), -1.0)


class TestUnitScaleInvariance:
    def test_dimensionless_outputs_match_across_unit_systems(self, natural):
        # the same dimensionless drive expressed in an arbitrary consistent
        # unit system must reproduce beta, gamma, |uk|, and all transition
        # probabilities exactly
        weird = ld.PhysicalSystem(charge=2.0, magnetic_field=3.0, mass=5.0,
                                  hbar=7.0, c=11.0)
        scales = weird.internal_scales()
        nu_int, e_int, t_int = 0.8, 0.16, 10.0
        w_nat = ld.RotatingField(e_int, nu_int)
        w_wrd = ld.RotatingField(e_int * scales.field, nu_int / scales.time)
        p_nat = ld.assemble(natural, w_nat, t_int, dim=48)
        p_wrd = ld.assemble(weird, w_wrd, t_int * scales.time, dim=48)
        assert p_wrd.beta == pytest.approx(p_nat.beta, rel=1e-12)
        assert p_wrd.gamma == pytest.approx(p_nat.gamma, rel=1e-12)
        assert abs(p_wrd.u) * weird.k == pytest.approx(
            abs(p_nat.u) * natural.k, rel=1e-12
        )
        assert p_wrd.displacement / weird.l_b == pytest.approx(
            p_nat.displacement / natural.l_b, rel=1e-12
        )
        assert_allclose(
            ld.transition_probabilities(p_wrd, 2),
            ld.transition_probabilities(p_nat, 2),
            atol=1e-13,
        )


class TestJMatrixElement:
    def test_zero_drive_is_identity(self, natural):
        p = ld.assemble(natural, ld.ZeroField(), 3.0, dim=12)
        assert ld.j_matrix_element(p, 2, 2) == 1.0
        assert ld.j_matrix_element(p, 1, 3) == 0.0

    def test_vacuum_element(self, rotating, natural):
        p, *_ = rotating
        x = (abs(p.u) * natural.k) ** 2
        expected = np.exp(1j * p.gamma) * math.exp(-x / 2.0)
        assert ld.j_matrix_element(p, 0, 0) == pytest.approx(expected, rel=1e-12)

    def test_against_matrix_exponential_at_larger_dim(self, rotating):
        p, *_ = rotating
        n_big = p.dim + 32
        a, ad = ld.ladder_ops(n_big)
        ref = np.exp(1j * p.gamma) * expm(p.alpha * ad.matrix - np.conj(p.alpha) * a.matrix)
        for m, n in ((0, 0), (3, 1), (2, 6), (10, 10)):
            assert ld.j_matrix_element(p, m, n) == pytest.approx(
                complex(ref[m, n]), abs=1e-12
            )

    def test_unhealthy_index_rejected(self, rotating):
        p, *_ = rotating
        h = ld.healthy_dim(p)
        with pytest.raises(TruncationError):
            ld.j_matrix_element(p, h, 0)
        with pytest.raises(IndexError):
            ld.j_matrix_element(p, -1, 0)
        with pytest.raises(IndexError):
            ld.j_matrix_element(p, 0, p.dim)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(0.0, 40.0), n=st.integers(0, 40))
    def test_healthy_dim_rule(self, natural, x, n):
        # resonant drive with |alpha|^2 = k^2 |u|^2 = x, in the basis that
        # level_populations picks for level n
        dim = ld.suggested_dimension(math.sqrt(x), n)
        p = ld.assemble(natural, ld.RotatingField(math.sqrt(2.0 * x) / 10.0, 1.0), 10.0,
                        dim=dim)
        h = ld.healthy_dim(p)
        loss = np.abs(1.0 - np.sum(np.abs(p.j_op.matrix) ** 2, axis=0))
        assert np.all(loss[:h] <= NORM_TOL)
        assert h == dim or loss[h] > NORM_TOL
        if n < h:
            assert abs(1.0 - ld.transition_probabilities(p, n).sum()) <= NORM_TOL
        else:
            with pytest.raises(TruncationError):
                ld.transition_probabilities(p, n)
        pops = ld.level_populations(natural, [p.u], n)
        assert abs(1.0 - pops.sum()) <= NORM_TOL

    def test_healthy_dim_measured_once(self, natural):
        # the resonant benchmark point: dim 119 with an unhealthy tail
        p = ld.assemble(natural, ld.RotatingField(0.3, 1.0), 20.0)
        loss = np.abs(1.0 - np.sum(np.abs(p.j_op.matrix) ** 2, axis=0))
        expected = int(np.argmax(loss > NORM_TOL))
        assert 0 < expected < p.dim
        assert ld.healthy_dim(p) == expected
        object.__setattr__(p, "j_op", None)  # a call that re-read j_op would fail
        assert ld.healthy_dim(p) == expected


class TestTransitionProbabilities:
    def test_zero_drive(self, natural):
        p = ld.assemble(natural, ld.ZeroField(), 5.0, dim=12)
        assert_allclose(ld.transition_probabilities(p, 3), np.eye(12)[3])

    def test_ground_state_survival(self, rotating, natural):
        p, *_ = rotating
        x = (abs(p.u) * natural.k) ** 2
        assert ld.transition_probabilities(p, 0)[0] == pytest.approx(math.exp(-x))

    def test_poisson_row_from_vacuum(self, rotating, natural):
        p, *_ = rotating
        x = (abs(p.u) * natural.k) ** 2
        probs = ld.transition_probabilities(p, 0)
        ms = np.arange(12)
        expected = np.exp(-x) * x**ms / np.array([math.factorial(m) for m in ms])
        assert_allclose(probs[:12], expected, atol=1e-12)

    def test_rows_sum_to_one(self, natural):
        p = ld.assemble(natural, ld.RotatingField(0.12, 0.9), 8.0, dim=64)
        for n in (0, 3, 10):
            assert ld.transition_probabilities(p, n).sum() == pytest.approx(1.0, abs=1e-8)

    def test_detailed_balance_symmetry(self, rotating):
        p, *_ = rotating
        h = ld.healthy_dim(p)
        probs = np.abs(p.j_op.matrix) ** 2
        assert_allclose(probs[:h, :h], probs[:h, :h].T, atol=1e-12)

    def test_phase_irrelevance(self, rotating, natural):
        # rebuilding J with perturbed geometric phases moves no probability
        p, *_ = rotating
        base = ld.transition_probabilities(p, 2)
        shifted = ld.FactorizedPropagator(
            system=p.system, time=p.time, displacement=p.displacement,
            beta=p.beta + 0.37, u=p.u, gamma=p.gamma + 1.1, alpha=p.alpha,
            j_op=ld.TruncatedOperator(
                np.exp(1j * (p.gamma + 1.1)) * ld.displacement_matrix(p.alpha, p.dim).matrix,
            ),
            provenance=p.provenance,
        )
        assert_allclose(ld.transition_probabilities(shifted, 2), base, atol=1e-14)

    def test_unhealthy_level_rejected(self, rotating):
        p, *_ = rotating
        with pytest.raises(TruncationError):
            ld.transition_probabilities(p, ld.healthy_dim(p))
        for outside in (-1, p.dim):
            with pytest.raises(IndexError, match=f"level {outside} outside dimension {p.dim}"):
                ld.transition_probabilities(p, outside)

    def test_lossy_level_of_auto_dimension_rejected(self, natural):
        # the resonant point of the benchmark sweep: |alpha|^2 = 18, auto
        # dim 119; column 79 keeps only 59% of its probability there
        p = ld.assemble(natural, ld.RotatingField(0.3, 1.0), 20.0)
        assert p.dim == 119
        assert np.sum(np.abs(p.j_op.matrix[:, 79]) ** 2) < 0.6
        with pytest.raises(TruncationError):
            ld.transition_probabilities(p, 79)
        with pytest.raises(TruncationError):
            ld.j_matrix_element(p, 0, 79)


class TestLevelPopulations:
    CASES = [
        (ld.RotatingField(0.16, 0.8), 10.0),
        (ld.RotatingField(0.3, 1.0), 20.0),
        (ld.RotatingField(0.05, 1.3, 0.4), 7.5),
        (ld.ZeroField(), 3.0),
        (ld.LinearSinusoidField(0.2, 0.7, 1.1), 6.0),
    ]

    @pytest.mark.parametrize("dim", [None, 200])
    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_matches_transition_probabilities(self, natural, n, dim):
        props = [ld.assemble(natural, w, t, dim=dim) for w, t in self.CASES]
        pops = ld.level_populations(natural, [p.u for p in props], n, dim)
        largest = max(abs(p.alpha) for p in props)
        assert pops.shape == (len(props), dim or ld.suggested_dimension(largest, n))
        for row, p in zip(pops, props):
            ref = ld.transition_probabilities(p, n)
            m = min(row.size, p.dim)
            assert np.max(np.abs(row[:m] - ref[:m])) <= 1e-15

    def test_mirrored_system(self):
        electron = ld.PhysicalSystem(charge=-1.0, magnetic_field=1.0, mass=1.0)
        p = ld.assemble(electron, ld.RotatingField(0.2, 0.9), 8.0)
        pops = ld.level_populations(electron, [p.u], 1)
        assert pops.shape == (1, ld.suggested_dimension(p.alpha, 1)) == (1, 27)
        ref = ld.transition_probabilities(p, 1)[: pops.shape[1]]
        assert np.max(np.abs(pops[0] - ref)) <= 1e-15

    def test_unhealthy_level_rejected(self, rotating, natural):
        p, *_ = rotating
        h = ld.healthy_dim(p)
        ld.level_populations(natural, [0.0, p.u], h - 1, p.dim)
        with pytest.raises(TruncationError):
            ld.level_populations(natural, [0.0, p.u], h, p.dim)

    def test_level_outside_truncation(self, natural):
        with pytest.raises(TruncationError):
            ld.level_populations(natural, [0.1], 40, 40)
        # the auto size is the turning point of level 40 plus the margin
        pops = ld.level_populations(natural, [0.1], 40)
        assert pops.shape == (1, 110)
        assert abs(1.0 - pops.sum()) <= NORM_TOL

    @pytest.mark.parametrize(
        "u", [math.inf, complex(0.0, -math.inf), math.nan, complex(0.3, math.nan), 1e200],
        ids=["inf", "-inf_j", "nan", "nan_j", "square_overflows"],
    )
    @pytest.mark.parametrize("dim", [None, 40])
    def test_non_finite_amplitude_rejected(self, natural, u, dim):
        # no basis holds a non-finite |alpha|^2; the auto size used to hit
        # math.ceil(inf) or math.ceil(nan)
        with pytest.raises(TruncationError, match="no finite"):
            ld.level_populations(natural, [0.1, u], 0, dim)

    @pytest.mark.parametrize("x, dim, n", [(0.5, 32, 21), (4.5, 52, 25), (10.1, 97, 47)])
    def test_lossy_level_rejected(self, natural, x, dim, n):
        # at dim, column n loses 1.7e-4, 2.2e-2 and 1.4e-1 of its
        # probability; the auto size holds it
        u = math.sqrt(x / 2.0)   # k^2 = 2
        with pytest.raises(TruncationError, match=f"at dimension {dim}"):
            ld.level_populations(natural, [u], n, dim)
        assert abs(1.0 - ld.level_populations(natural, [u], n).sum()) <= NORM_TOL

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=st.floats(0.0, 1416.0), n=st.integers(0, 300))
    def test_auto_dimension_holds_every_column(self, natural, x, n):
        # over the representable range, the turning-point rule is healthy
        # at once: no column needs a larger basis than it gives
        u = math.sqrt(x / 2.0)   # k^2 = 2
        pops = ld.level_populations(natural, [u], n)
        size = ld.suggested_dimension(ld.displacement_argument(natural, u), n)
        assert pops.shape == (1, size)
        assert propagator._norm_deficit(pops)[0] <= NORM_TOL

    def test_too_small_auto_dimension_raises(self, natural, monkeypatch):
        # a rule that fell short would raise, naming its size, rather than
        # return a lossy column
        monkeypatch.setattr(propagator, "suggested_dimension", lambda alpha, n: n + 2)
        with pytest.raises(TruncationError, match="at dimension 49"):
            ld.level_populations(natural, [math.sqrt(10.1 / 2.0)], 47)

    @pytest.mark.parametrize("charge", [1.0, -1.0, -3.7])
    def test_arguments_match_scalar_arithmetic(self, charge):
        # one amplitude and an array of them give, bit for bit (signed zeros
        # too), what Python complex arithmetic gives for alpha = -u* k
        def scalar(sys, v):
            v = v.conjugate() if sys.mirrored else v
            return -v.conjugate() * sys.k

        sys = ld.PhysicalSystem(charge=charge, magnetic_field=1.3, mass=0.8)
        rng = np.random.default_rng(11)
        u = rng.normal(0.0, 2.0, 2000) + 1j * rng.normal(0.0, 2.0, 2000)
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        u = np.concatenate([u, zeros, [1.5 + 0.0j, -0.0 - 2.5j, 1e-300 + 1e300j]])
        expected = np.array([scalar(sys, v) for v in u.tolist()])
        assert ld.displacement_argument(sys, u).tobytes() == expected.tobytes()
        one = [ld.displacement_argument(sys, v) for v in u.tolist()]
        assert all(type(a) is complex for a in one)
        assert np.array(one).tobytes() == expected.tobytes()

    def test_no_samples(self, natural):
        assert ld.level_populations(natural, [], 3).shape == (0, 33)
        assert ld.level_populations(natural, [], 20).shape == (0, 72)
        assert ld.level_populations(natural, [], 3, 10).shape == (0, 10)

    @pytest.mark.parametrize("dim", [None, 160])
    @pytest.mark.parametrize("charge", [1.0, -1.0])
    @pytest.mark.parametrize("n", [0, 3, 20])
    def test_squared_moduli_of_displacement_columns(self, n, charge, dim):
        # |alpha|^2 up to 18, about the resonance sweep's largest, over
        # three full blocks of amplitudes at dim 160 and part of a fourth
        sys = ld.PhysicalSystem(charge=charge, magnetic_field=1.0, mass=1.0)
        count = 3 * (_BLOCK_ELEMENTS // 160) + 7
        rng = np.random.default_rng(23)
        u = np.sqrt(rng.uniform(0.0, 9.0, count)) * np.exp(2j * math.pi * rng.random(count))
        pops = ld.level_populations(sys, u, n, dim)
        assert pops.shape == (count, dim or {0: 68, 3: 100, 20: 162}[n])
        # against the squared matrix column of every amplitude
        alphas = ld.displacement_argument(sys, u)
        for s in range(count):
            squared = np.abs(ld.displacement_matrix(alphas[s], pops.shape[1]).matrix[:, n]) ** 2
            assert np.max(np.abs(pops[s] - squared)) <= 1e-15, s
            assert pops[s, n] == squared[n], s

    @pytest.mark.parametrize("x", [0.5, 18.0, 100.0])
    @pytest.mark.parametrize("n", [0, 5, 20])
    def test_against_laguerre_reference(self, natural, x, n):
        # P(n -> m) = (p!/(p+d)!) x^d e^{-x} [L_p^{(d)}(x)]^2 with
        # p = min(m, n), d = |m - n|, at 50 digits on every seventh row
        # and the rows next to n; x is the |alpha|^2 the code squares
        alpha = ld.displacement_argument(natural, math.sqrt(x / 2.0))
        pops = ld.level_populations(natural, [math.sqrt(x / 2.0)], n)[0]
        rows = sorted({*range(0, pops.size, 7), *range(max(n - 1, 0), n + 2)})
        with mpmath.workdps(50):
            xm = mpmath.mpf(abs(alpha) ** 2)
            for m in rows:
                p, d = min(m, n), abs(m - n)
                ref = (mpmath.factorial(p) / mpmath.factorial(p + d) * xm ** d
                       * mpmath.exp(-xm) * mpmath.laguerre(p, d, xm) ** 2)
                if ref >= mpmath.mpf("1e-250"):
                    assert abs(pops[m] - ref) <= 1e-12 * ref, (m, pops[m], ref)

    @pytest.mark.parametrize("dim", [None, 40])
    @pytest.mark.parametrize("u", [0.3, [[0.3, 0.1]]], ids=["scalar", "2-D"])
    def test_amplitudes_must_be_one_dimensional(self, natural, u, dim):
        with pytest.raises(ValueError, match="amplitudes must be a one-dimensional sequence"):
            ld.level_populations(natural, u, 0, dim)

    def test_level_and_dimension_checks(self, natural):
        # n >= dim, non-finite |alpha|^2 and no samples are pinned above
        with pytest.raises(IndexError):
            ld.level_populations(natural, [0.3], -1)
        for dim in (1, 10.0, np.float64(12.0)):
            with pytest.raises(ValueError, match="two Fock states"):
                ld.level_populations(natural, [0.3], 0, dim)
            with pytest.raises(ValueError, match="two Fock states"):
                ld.assemble(natural, ld.RotatingField(0.1, 0.9), 3.0, dim=dim)

    def test_temporaries_bounded(self, natural):
        # the squares are written block by block into the result, which is
        # most of the peak; squaring a complex column of the elements
        # peaks at 3x the result, and a single
        # (S, rows, dim) table would add one result's worth
        rng = np.random.default_rng(29)
        u = np.sqrt(rng.uniform(0.0, 9.0, 20_000)) * np.exp(2j * math.pi * rng.random(20_000))
        ld.level_populations(natural, u[:10], 0, 160)  # one-time setup untraced
        tracemalloc.start()
        try:
            pops = ld.level_populations(natural, u, 0, 160)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * pops.nbytes


class TestAdiabaticEstimates:
    def test_ground_state_has_no_lower_level(self, natural):
        down, up = ld.adiabatic_estimates(natural, 0, 0.01)
        assert down == 0.0
        assert up == pytest.approx((natural.k * 0.01) ** 2)

    def test_exact_vs_estimate_small_drive(self, natural):
        # k|u| = 1e-2, n = 3: leading-order formulas hold to 1e-3
        u = 1e-2 / natural.k
        n = 3
        down_est, up_est = ld.adiabatic_estimates(natural, n, u)
        alpha = ld.displacement_argument(natural, u)
        d = ld.displacement_matrix(alpha, 64)
        down = abs(d.matrix[n - 1, n]) ** 2
        up = abs(d.matrix[n + 1, n]) ** 2
        assert abs(down - down_est) / down_est < 1e-3
        assert abs(up - up_est) / up_est < 1e-3

    def test_negative_level_rejected(self, natural):
        with pytest.raises(ValueError):
            ld.adiabatic_estimates(natural, -1, 0.1)

    def test_drive_strength_coefficient_si(self, electron_si):
        coeff = ld.drive_strength_coefficient(electron_si, 1000.0)
        assert coeff == pytest.approx(1.46e-5, rel=0.02)

    def test_drive_strength_coefficient_gaussian_equivalence(self, electron_si):
        # same electron and fields expressed in cgs-Gaussian units must give
        # the same dimensionless coefficient as the SI velocity form
        from landau_drive.cli import UNIT_CONSTANTS

        g = UNIT_CONSTANTS["gaussian"]
        electron_g = ld.PhysicalSystem(
            charge=-g["elementary_charge"],
            magnetic_field=150_000.0,            # 15 T in gauss
            mass=g["electron_mass"],
            hbar=g["hbar"],
            c=g["c"],
        )
        e_statvolt_cm = 1000.0 / 29979.2458      # 1000 V/m
        coeff_g = ld.drive_strength_coefficient(electron_g, e_statvolt_cm)
        coeff_si = ld.drive_strength_coefficient(electron_si, 1000.0)
        assert coeff_g == pytest.approx(coeff_si, rel=1e-9)
        assert electron_g.omega == pytest.approx(electron_si.omega, rel=1e-9)


class TestResonanceSurvival:
    def test_no_time_no_decay(self, natural):
        assert ld.resonance_survival(natural, 0.3, 0.0) == 1.0
        assert ld.resonance_survival(natural, 0.0, 9.0) == 1.0

    @pytest.mark.parametrize("e0,t", [(0.05, 4.0), (0.12, 10.0), (0.3, 6.0)])
    def test_matches_assembled_propagator(self, natural, e0, t):
        p = ld.assemble(natural, ld.RotatingField(e0, 1.0), t)
        assert ld.transition_probabilities(p, 0)[0] == pytest.approx(
            ld.resonance_survival(natural, e0, t), rel=1e-10
        )

    def test_alt_prefactor_is_fourth_power(self, natural):
        s_half = ld.resonance_survival(natural, 0.1, 5.0)
        s_two = ld.resonance_survival_alt_prefactor(natural, 0.1, 5.0)
        assert s_two == pytest.approx(s_half**4, rel=1e-12)

    def test_rejects_negative_inputs(self, natural):
        with pytest.raises(ValueError):
            ld.resonance_survival(natural, -0.1, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("call", [
    lambda s, v: ld.resonance_survival(s, v, 1.0),
    lambda s, v: ld.resonance_survival(s, 0.1, v),
    lambda s, v: ld.resonance_survival_alt_prefactor(s, v, 1.0),
    lambda s, v: ld.resonance_survival_alt_prefactor(s, 0.1, v),
    lambda s, v: ld.drive_strength_coefficient(s, v),
], ids=["survival_e0", "survival_t", "alt_e0", "alt_t", "drive_strength"])
def test_closed_forms_reject_non_finite_or_negative_inputs(natural, call, bad):
    # a NaN input once came back as a nan result
    with pytest.raises(DomainError, match="must be finite and nonnegative"):
        call(natural, bad)


@pytest.mark.parametrize("u", [complex(math.nan, 0.1), complex(0.1, math.inf),
                               complex(-math.inf, 0.0), math.nan])
def test_adiabatic_estimates_reject_non_finite_u(natural, u):
    with pytest.raises(DomainError, match=r"\|u\| must be finite"):
        ld.adiabatic_estimates(natural, 2, u)


class TestEvolveState:
    def test_zero_field_pure_phases(self, natural):
        p = ld.assemble(natural, ld.ZeroField(), 4.0, dim=8)
        psi = np.zeros(8, dtype=complex)
        psi[:4] = 0.5
        out, record = ld.evolve_state(p, psi)
        assert_allclose(np.abs(out), np.abs(psi))
        assert_allclose(out, np.exp(-1j * (np.arange(8) + 0.5) * 4.0) * psi)
        assert record.displacement == 0 and record.phase == 0

    def test_vacuum_becomes_poisson(self, rotating, natural):
        p, *_ = rotating
        psi = np.zeros(p.dim, dtype=complex)
        psi[0] = 1.0
        out, _ = ld.evolve_state(p, psi)
        x = (abs(p.u) * natural.k) ** 2
        ms = np.arange(8)
        expected = np.exp(-x) * x**ms / np.array([math.factorial(m) for m in ms])
        assert_allclose(np.abs(out[:8]) ** 2, expected, atol=1e-12)

    @pytest.mark.filterwarnings("error::landau_drive.errors.TruncationWarning")
    def test_norm_preserved(self, rotating):
        # high levels spread roughly sqrt(n) faster than the vacuum, so
        # keep the support well inside the healthy block
        p, *_ = rotating
        rng = np.random.default_rng(7)
        psi = np.zeros(p.dim, dtype=complex)
        psi[:16] = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        out, _ = ld.evolve_state(p, psi)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-8)

    def test_geometric_record_returned(self, rotating):
        p, *_ = rotating
        psi = np.zeros(p.dim, dtype=complex)
        psi[0] = 1.0
        _, record = ld.evolve_state(p, psi)
        assert record == ld.GeometricRecord(p.displacement, p.beta)

    def test_dimension_mismatch(self, natural):
        p = ld.assemble(natural, ld.ZeroField(), 1.0, dim=8)
        with pytest.raises(ValueError):
            ld.evolve_state(p, np.zeros(9, dtype=complex))

    def test_truncation_leak_warns(self, natural):
        p = ld.assemble(natural, ld.RotatingField(0.4, 1.0), 20.0, dim=24)
        psi = np.zeros(24, dtype=complex)
        psi[10] = 1.0
        with pytest.warns(TruncationWarning):
            ld.evolve_state(p, psi)

    def test_zero_field_composition(self, natural):
        # evolving t1 then t2 equals evolving t1 + t2: dynamical phases add
        t1, t2 = 2.3, 4.1
        psi = np.zeros(8, dtype=complex)
        psi[:4] = 0.5
        p1 = ld.assemble(natural, ld.ZeroField(), t1, dim=8)
        p2 = ld.assemble(natural, ld.ZeroField(), t2, dim=8)
        p12 = ld.assemble(natural, ld.ZeroField(), t1 + t2, dim=8)
        step, _ = ld.evolve_state(p1, psi)
        step, _ = ld.evolve_state(p2, step)
        once, _ = ld.evolve_state(p12, psi)
        assert_allclose(step, once, atol=1e-14)
        assert p12.beta == p1.beta + p2.beta == 0.0
