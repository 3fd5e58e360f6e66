import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive.errors import AccuracyError, TruncationError, TruncationWarning


class TestTruncatedOperator:
    def test_validation(self):
        with pytest.raises(ValueError):
            ld.TruncatedOperator(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ld.TruncatedOperator(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            ld.TruncatedOperator(np.array([[np.inf, 0], [0, 0]]))

    def test_immutable(self):
        op = ld.TruncatedOperator(np.eye(3))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0

    def test_dagger(self):
        m = np.array([[0, 1j], [0, 0]])
        assert_allclose(ld.TruncatedOperator(m).dagger().matrix, m.conj().T)


class TestLadderOps:
    def test_two_state_matrix(self):
        a, _ = ld.ladder_ops(2)
        assert_allclose(a.matrix, [[0, 1], [0, 0]])

    def test_number_operator(self):
        a, ad = ld.ladder_ops(9)
        num = ad.matrix @ a.matrix
        assert_allclose(num, np.diag(np.arange(9)), atol=1e-14)

    def test_commutator_on_leading_block(self):
        n = 12
        a, ad = ld.ladder_ops(n)
        comm = a.matrix @ ad.matrix - ad.matrix @ a.matrix
        assert_allclose(comm[: n - 1, : n - 1], np.eye(n - 1), atol=1e-13)
        # truncation corrupts only the last diagonal entry
        assert comm[n - 1, n - 1] == pytest.approx(1 - n)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            ld.ladder_ops(1)


class TestDisplacementMatrix:
    def test_identity_at_zero(self):
        op = ld.displacement_matrix(0.0, 16)
        assert_allclose(op.matrix, np.eye(16))

    def test_coherent_state_amplitudes(self):
        # D(alpha)|0> is the coherent state: column 0 holds
        # e^{-|alpha|^2/2} alpha^m / sqrt(m!)
        alpha = 0.9 - 0.4j
        n = 48
        column = ld.displacement_matrix(alpha, n).matrix[:, 0]
        ns = np.arange(n)
        from scipy.special import gammaln

        expected = np.exp(
            -abs(alpha) ** 2 / 2 + ns * np.log(abs(alpha) + 0j) - gammaln(ns + 1.0) / 2
        ) * np.exp(1j * ns * np.angle(alpha))
        assert_allclose(column, expected, atol=1e-12)

    def test_vacuum_element(self):
        for alpha in (0.3, 1.2 - 0.8j, 2.5j):
            op = ld.displacement_matrix(alpha, 64)
            assert op.matrix[0, 0] == pytest.approx(math.exp(-abs(alpha) ** 2 / 2))

    @pytest.mark.parametrize("alpha", [0.3 + 0.4j, 0.1, 1.0, 2.0, -1.5 + 0.7j])
    def test_against_matrix_exponential(self, alpha):
        # closed form at 64 states vs series exponential with 96-state
        # headroom; matrix elements are truncation-independent, so the
        # leading 32x32 blocks must coincide
        a, ad = ld.ladder_ops(96)
        gen = ld.TruncatedOperator(alpha * ad.matrix - np.conj(alpha) * a.matrix)
        by_series = ld.matrix_exponential(gen)
        closed = ld.displacement_matrix(alpha, 64)
        diff = np.max(np.abs(closed.matrix[:32, :32] - by_series.matrix[:32, :32]))
        assert diff < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.5j, -2.0 + 2.0j, 3.0])
    def test_unitarity_on_leading_block(self, alpha):
        # a displaced level n spreads up to about (sqrt(n) + |alpha|)^2, so
        # the 1e-8 block must keep that lobe well inside the truncation
        n = 96
        op = ld.displacement_matrix(alpha, n)
        assert op.unitarity_defect(32) < 1e-8

    def test_column_normalization(self):
        n = 96
        op = ld.displacement_matrix(1.7 - 0.9j, n)
        sums = np.sum(np.abs(op.matrix) ** 2, axis=0)
        assert_allclose(sums[: n // 2], 1.0, atol=1e-8)

    def test_inverse_is_negated_argument(self):
        alpha = 0.8 + 0.3j
        d = ld.displacement_matrix(alpha, 48)
        d_inv = ld.displacement_matrix(-alpha, 48)
        assert_allclose(d.dagger().matrix[:24, :24], d_inv.matrix[:24, :24], atol=1e-12)

    def test_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            ld.displacement_matrix(3.0, 32)

    def test_laguerre_overflow_is_truncation_error(self):
        # a resonant drive of amplitude 1 reaches |alpha|^2 = 200 by t = 20,
        # where the auto-sized dim-1616 Laguerre table overflows
        with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = 200, dim = 1616"):
            ld.displacement_matrix(math.sqrt(200.0), 1616)

    def test_accepts_coherent_amplitude(self):
        a1 = ld.displacement_matrix(ld.CoherentAmplitude(0.4j), 24)
        a2 = ld.displacement_matrix(0.4j, 24)
        assert_allclose(a1.matrix, a2.matrix)

    @settings(max_examples=30, deadline=None)
    @given(
        ar=st.floats(-1.2, 1.2), ai=st.floats(-1.2, 1.2),
        br=st.floats(-1.2, 1.2), bi=st.floats(-1.2, 1.2),
    )
    def test_group_law(self, ar, ai, br, bi):
        # D(a) D(b) = e^{i Im(a conj(b))} D(a + b) on the leading block
        alpha, beta = complex(ar, ai), complex(br, bi)
        n = 48
        lhs = ld.displacement_matrix(alpha, n).matrix @ ld.displacement_matrix(beta, n).matrix
        rhs = np.exp(1j * np.imag(alpha * np.conj(beta))) * ld.displacement_matrix(
            alpha + beta, n
        ).matrix
        assert np.max(np.abs((lhs - rhs)[:16, :16])) < 1e-8


class TestDisplacementColumns:
    # alpha = 0, a tiny amplitude, |alpha|^2 = 40 in three directions, and
    # generic ones
    AMPLITUDES = [
        0j, 1e-9 + 2e-9j, 3e-12j, complex(math.sqrt(40.0), 0.0),
        complex(0.0, -math.sqrt(40.0)), complex(-math.sqrt(20.0), math.sqrt(20.0)),
        0.3 - 0.4j, -1.7 + 0.2j, 2.5j,
    ]

    @pytest.mark.parametrize(
        "n, dim", [(n, dim) for dim in (2, 32, 161) for n in (0, 1, 3, 10) if n < dim]
    )
    def test_bit_identical_to_matrix_column(self, n, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            cols = ld.displacement_columns(self.AMPLITUDES, n, dim)
            assert cols.shape == (len(self.AMPLITUDES), dim)
            for s, alpha in enumerate(self.AMPLITUDES):
                ref = ld.displacement_matrix(alpha, dim).matrix[:, n]
                assert np.array_equal(cols[s], ref), (alpha, n, dim)

    def test_many_amplitudes_bit_identical(self):
        # enough amplitudes that they are evaluated in several blocks
        rng = np.random.default_rng(7)
        alphas = 1.5 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        cols = ld.displacement_columns(alphas, 3, 161)
        for s in (0, 101, 102, 250, 399):
            ref = ld.displacement_matrix(alphas[s], 161).matrix[:, 3]
            assert np.array_equal(cols[s], ref)

    def test_longer_basis_extends_column(self):
        short = ld.displacement_columns([1.1 - 0.6j], 4, 40)
        long = ld.displacement_columns([1.1 - 0.6j], 4, 90)
        assert np.array_equal(long[:, :40], short)

    def test_low_column_finite_where_matrix_overflows(self):
        alpha = math.sqrt(200.0)
        with pytest.raises(TruncationError):
            ld.displacement_matrix(alpha, 1616)
        col = ld.displacement_columns([alpha], 0, 1616)[0]
        assert abs(col[0]) ** 2 == pytest.approx(math.exp(-200.0), rel=1e-12)
        assert np.sum(np.abs(col) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_column_overflow_is_truncation_error(self):
        with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = 100, dim = 1700"):
            ld.displacement_columns([0.5, 10.0], 300, 1700)
        assert np.all(np.isfinite(ld.displacement_columns([10.0], 200, 1500)))

    def test_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            ld.displacement_columns([0.1, 3.0], 0, 32)

    def test_argument_checks(self):
        with pytest.raises(IndexError):
            ld.displacement_columns([0.5], 8, 8)
        with pytest.raises(IndexError):
            ld.displacement_columns([0.5], -1, 8)
        with pytest.raises(ValueError):
            ld.displacement_columns([0.5], 0, 1)
        with pytest.raises(ValueError):
            ld.displacement_columns([[0.5]], 0, 8)

    def test_no_amplitudes(self):
        assert ld.displacement_columns([], 2, 8).shape == (0, 8)


class TestCoherentAmplitude:
    def test_mean_level(self):
        assert ld.CoherentAmplitude(2.0j).mean_level == pytest.approx(4.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ld.CoherentAmplitude(complex("nan"))


class TestMatrixExponential:
    def test_exp_zero(self):
        op = ld.TruncatedOperator(np.zeros((5, 5)))
        assert_allclose(ld.matrix_exponential(op).matrix, np.eye(5))

    def test_exp_diagonal(self):
        d = np.array([0.3, -1.2, 2.0 + 0.5j, 0.0])
        op = ld.TruncatedOperator(np.diag(d))
        assert_allclose(ld.matrix_exponential(op).matrix, np.diag(np.exp(d)), rtol=1e-13)

    def test_extreme_norm_rejected(self):
        op = ld.TruncatedOperator(np.diag([5e3, 0.0]))
        with pytest.raises(AccuracyError):
            ld.matrix_exponential(op)


def test_suggested_dimension_rule():
    assert ld.suggested_dimension(0.0) == 32
    assert ld.suggested_dimension(2.0) == max(32, math.ceil(8 * 4 + 16))
    assert ld.suggested_dimension(ld.CoherentAmplitude(3.0)) == 88
