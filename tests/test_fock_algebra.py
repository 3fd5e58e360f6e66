import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import landau_drive as ld
from landau_drive.errors import TruncationError
from landau_drive.fock_algebra import _column_probabilities
from landau_drive.propagator import NORM_TOL

from _reference import expm


@pytest.fixture(scope="module")
def strong_drive_matrix():
    """D(alpha) at |alpha|^2 = 200 in 1616 states, past the dim 1030 from
    which a table of unnormalized Laguerre polynomials overflowed: a
    resonant drive of amplitude 1 at t = 20."""
    return ld.displacement_matrix(math.sqrt(200.0), 1616).matrix


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

    @pytest.mark.parametrize("dim", [1, 10.0, np.float64(12.0), True])
    def test_dimension_check(self, dim):
        # a float size used to end in a bare TypeError from np.zeros
        with pytest.raises(ValueError, match="need at least two Fock states"):
            ld.ladder_ops(dim)


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
        by_series = expm(alpha * ad.matrix - np.conj(alpha) * a.matrix)
        closed = ld.displacement_matrix(alpha, 64)
        diff = np.max(np.abs(closed.matrix[:32, :32] - by_series[:32, :32]))
        assert diff < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.5j, -2.0 + 2.0j, 3.0])
    def test_unitarity_on_leading_block(self, alpha):
        # a displaced level n spreads up to about (sqrt(n) + |alpha|)^2, so
        # the 1e-8 block must keep that lobe well inside the truncation
        n = 96
        op = ld.displacement_matrix(alpha, n)
        assert op.unitarity_defect(32) < 1e-8

    def test_unitarity_defect_from_leading_columns(self):
        # the leading b x b block of U^dag U needs only U's leading b columns
        op = ld.displacement_matrix(2.0 - 1.0j, 64)
        u = op.matrix
        square = u.conj().T @ u - np.eye(64)
        for b in (1, 32, 64):
            expected = np.max(np.abs(square[:b, :b]))
            assert abs(ld.column_unitarity_defect(u[:, :b]) - expected) <= 1e-15
            assert op.unitarity_defect(b) == ld.column_unitarity_defect(u[:, :b])
        assert op.unitarity_defect() == op.unitarity_defect(64)

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

    @pytest.mark.parametrize("mean_level, dim, atol", [(2.0, 64, 2.5e-15), (40.0, 400, 1e-14)])
    def test_precision_against_matrix_exponential(self, mean_level, dim, atol):
        # the leading half block against a series exponential with an
        # eighth more states of headroom, to a few ulps: the bounds are
        # below what the Laguerre-polynomial table with log-space
        # prefactors reached (2.6e-15 and 1.4e-14)
        alpha = math.sqrt(mean_level) * complex(math.cos(0.3), math.sin(0.3))
        a, ad = ld.ladder_ops(dim + dim // 8)
        by_series = expm(alpha * ad.matrix - np.conj(alpha) * a.matrix)
        closed = ld.displacement_matrix(alpha, dim).matrix
        half = dim // 2
        assert np.max(np.abs(closed[:half, :half] - by_series[:half, :half])) < atol

    @pytest.mark.parametrize("mean_level, dim", [(200.0, 900), (700.0, 1300)])
    def test_healthy_block_unitary_at_strong_drive(self, mean_level, dim):
        # the leading half of the measured healthy block (the columns whose
        # probabilities sum to 1 within NORM_TOL), as the oracle reads it;
        # the last healthy columns still lose up to NORM_TOL to truncation
        alpha = math.sqrt(mean_level) * complex(math.cos(1.1), math.sin(1.1))
        mat = ld.displacement_matrix(alpha, dim).matrix
        assert np.max(np.abs(mat)) <= 1.0
        deficit = np.abs(np.sum(np.abs(mat) ** 2, axis=0) - 1.0)
        healthy = int(np.argmax(deficit > NORM_TOL))
        assert healthy >= 64
        block = mat[:, : healthy // 2]
        gram = block.conj().T @ block
        assert np.max(np.abs(gram - np.eye(healthy // 2))) <= 1e-13

    def test_finite_where_laguerre_table_overflowed(self, strong_drive_matrix):
        # the dim-1616 table of Laguerre polynomials overflowed
        # at |alpha|^2 = 200, as it did at any |alpha| from dim 1030 on
        weak = ld.displacement_matrix(0.1, 1030).matrix
        for mat, mean_level in ((strong_drive_matrix, 200.0), (weak, 0.01)):
            assert np.max(np.abs(mat)) <= 1.0
            assert mat[0, 0] == pytest.approx(math.exp(-mean_level / 2), rel=1e-14)

    def test_laguerre_overflow_is_truncation_error(self):
        # past |alpha|^2 of about 1417, e^{-|alpha|^2/2} leaves the
        # floating-point range: the elements cannot be represented, which
        # raises rather than returning zeros
        ld.displacement_matrix(math.sqrt(1400.0), 64)
        with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = 1.5e\+03, dim = 64"):
            ld.displacement_matrix(math.sqrt(1500.0), 64)

    @pytest.mark.parametrize("dim", [1, 10.0, np.float64(12.0), True])
    def test_dimension_check(self, dim):
        # a float size used to end in a bare TypeError from range()
        with pytest.raises(ValueError, match="need at least two Fock states"):
            ld.displacement_matrix(0.3, dim)

    @pytest.mark.parametrize("alpha", [complex("nan"), math.inf, complex(0.0, -math.inf)],
                             ids=["nan", "inf", "-inf_j"])
    def test_rejects_nonfinite(self, alpha):
        # alpha is a plain complex: a non-finite one has no finite
        # |alpha|^2, which no truncation holds
        with pytest.raises(TruncationError, match=r"no finite square, \|alpha\|\^2 = (nan|inf)"):
            ld.displacement_matrix(alpha, 8)

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
    """One column of D(alpha): a column of ``displacement_matrix``, and the
    squared moduli of one column for many amplitudes that the level
    populations read (``_column_probabilities``)."""

    # alpha = 0, a tiny amplitude, |alpha|^2 = 40 in three directions,
    # generic ones, and strong drives (|alpha|^2 = 700 and 200)
    AMPLITUDES = [
        0j, 1e-9 + 2e-9j, 3e-12j, complex(math.sqrt(40.0), 0.0),
        complex(0.0, -math.sqrt(40.0)), complex(-math.sqrt(20.0), math.sqrt(20.0)),
        0.3 - 0.4j, -1.7 + 0.2j, 2.5j,
        complex(0.0, math.sqrt(700.0)), math.sqrt(200.0) * complex(-0.6, 0.8),
    ]

    @pytest.mark.parametrize(
        "n, dim", [(n, dim) for dim in (2, 32, 161) for n in (0, 1, 3, 10) if n < dim]
    )
    def test_bit_identical_to_matrix_column(self, n, dim):
        # the squared moduli are within a few ulp of the squared matrix
        # column, and bit for bit at m = n, where the phase is exactly 1
        probs = _column_probabilities(self.AMPLITUDES, n, dim)
        assert probs.shape == (len(self.AMPLITUDES), dim)
        for s, alpha in enumerate(self.AMPLITUDES):
            ref = np.abs(ld.displacement_matrix(alpha, dim).matrix[:, n]) ** 2
            assert np.max(np.abs(probs[s] - ref)) <= 1e-15, (alpha, n, dim)
            assert probs[s, n] == ref[n], (alpha, n, dim)

    def test_many_amplitudes_bit_identical(self):
        # enough amplitudes that they are evaluated in several blocks
        rng = np.random.default_rng(7)
        alphas = 1.5 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        probs = _column_probabilities(alphas, 3, 161)
        for s in (0, 101, 102, 250, 399):
            assert np.array_equal(probs[s], _column_probabilities(alphas[s:s + 1], 3, 161)[0])

    def test_longer_basis_extends_column(self):
        short = ld.displacement_matrix(1.1 - 0.6j, 40).matrix[:, 4]
        long = ld.displacement_matrix(1.1 - 0.6j, 90).matrix[:, 4]
        assert np.array_equal(long[:40], short)

    def test_low_column_matches_matrix_at_strong_drive(self, strong_drive_matrix):
        # where the full matrix overflowed while the low columns stayed
        # finite: now both are, and agree bit for bit on all 1616 entries
        for n in (0, 7, 300):
            col = strong_drive_matrix[:, n]
            probs = _column_probabilities([math.sqrt(200.0)], n, 1616)[0]
            assert np.array_equal(probs, np.abs(col) ** 2), n
            assert np.sum(np.abs(col) ** 2) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert abs(strong_drive_matrix[0, 0]) ** 2 == pytest.approx(math.exp(-200.0), rel=1e-12)

    def test_high_level_column_in_large_basis(self):
        # level 300 of a dim-1700 basis at |alpha|^2 = 100: the Laguerre
        # polynomial rows up to p = 300 overflowed; the normalized functions
        # stay below 1 and the column keeps its probability
        probs = _column_probabilities([0.5, 10.0], 300, 1700)
        assert np.max(probs) <= 1.0
        assert_allclose(np.sum(probs, axis=1), 1.0, rtol=0, atol=NORM_TOL)

    def test_column_overflow_is_truncation_error(self):
        # one amplitude past the representable range fails the whole call
        with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = 1.5e\+03, dim = 1700"):
            _column_probabilities([0.5, math.sqrt(1500.0)], 300, 1700)
        probs = _column_probabilities([math.sqrt(1400.0)], 0, 2000)[0]
        assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_nan_amplitude_is_truncation_error(self):
        with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = nan"):
            _column_probabilities([0.5, complex("nan")], 0, 8)

    def test_overflowing_square_is_truncation_error(self):
        # |alpha|^2 overflows float64, or |alpha| itself; Python's
        # |alpha| ** 2 and abs(alpha) raised OverflowError
        for big in (1e200, complex(1.7e308, -1.7e308)):
            with pytest.raises(TruncationError, match=r"no finite square, \|alpha\|\^2 = inf"):
                _column_probabilities([0.5, big], 0, 8)
        with pytest.raises(TruncationError, match="no finite"):
            ld.displacement_matrix(1e200, 8)

    def test_argument_checks(self):
        with pytest.raises(IndexError):
            _column_probabilities([0.5], 8, 8)
        with pytest.raises(IndexError):
            _column_probabilities([0.5], -1, 8)
        with pytest.raises(ValueError):
            _column_probabilities([0.5], 0, 1)
        with pytest.raises(ValueError):
            _column_probabilities([[0.5]], 0, 8)

    def test_no_amplitudes(self):
        assert _column_probabilities([], 2, 8).shape == (0, 8)

    def test_hypot_is_python_abs(self):
        # the moduli take |alpha| as np.hypot(re, im), the libm hypot that
        # Python's abs(complex) calls: the same bits on random amplitudes
        # over many scales and on signed zeros, subnormals, moduli near the
        # largest float, infinities and NaN
        rng = np.random.default_rng(64)
        alphas = ((rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000))
                  * 10.0 ** rng.uniform(-12.0, 3.0, 20_000))
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.inf, -math.inf,
                   math.nan, 1.0, -3.0]
        alphas = np.concatenate([alphas, [complex(a, b) for a in special for b in special]])
        got = np.hypot(alphas.real, alphas.imag)
        want = np.array([abs(a) for a in alphas.tolist()])
        assert got.tobytes() == want.tobytes()




def test_suggested_dimension_rule():
    # ceil((|alpha| + sqrt(n) + 4)^2): the turning point of level n plus a margin
    assert ld.suggested_dimension(0.0) == 16
    assert ld.suggested_dimension(2.0) == 36
    assert ld.suggested_dimension(3.0) == 49
    assert ld.suggested_dimension(0.0, 9) == 49
    assert ld.suggested_dimension(3.0 + 4.0j, 16) == 169
    with pytest.raises(IndexError, match="level -1"):
        ld.suggested_dimension(0.3, -1)


@pytest.mark.parametrize("alpha", [math.inf, complex(0.0, -math.inf), math.nan, 1e200],
                         ids=["inf", "-inf_j", "nan", "square_overflows"])
def test_suggested_dimension_rejects_non_finite_square(alpha):
    with pytest.raises(TruncationError, match="no finite"):
        ld.suggested_dimension(alpha)


def test_suggested_dimension_follows_the_element_rule():
    # the size exists exactly where the displacement elements do: up to
    # e^(-|alpha|^2/2) reaching the smallest normal float, |alpha|^2 ~ 1417
    assert ld.suggested_dimension(37.0) == 41**2
    assert ld.suggested_dimension(37.0, 300) == math.ceil((41.0 + math.sqrt(300.0)) ** 2)
    with pytest.raises(TruncationError, match="not representable"):
        ld.suggested_dimension(38.0)
