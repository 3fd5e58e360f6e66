import mpmath
import numpy as np
import pytest

from landau_drive._expsum import eps0, eps1


def reference(k, mu, t):
    """Integral of s^k e^{i mu s} over [0, t] in 40-digit arithmetic."""
    with mpmath.workdps(40):
        mu, t = mpmath.mpf(mu), mpmath.mpf(t)
        x = 1j * mu * t
        if k == 0:
            return complex(mpmath.expm1(x) / (1j * mu))
        return complex(t * t * (mpmath.exp(x) * (x - 1) + 1) / x**2)


@pytest.mark.parametrize("k, eps", [(0, eps0), (1, eps1)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_monomial_integrals_against_mpmath(k, eps, sign):
    # mu t from 1e-6 to 30, across eps1's series switch at 1, with t on
    # both sides of 1; relative error.  A power-of-two t keeps mu t exact,
    # so code and reference see the same phase (near the zeros of eps0 at
    # mu t = 2 pi n, one rounding of the phase alone moves it by more)
    phases = np.geomspace(1e-6, 30.0, 241)
    for t in (0.5, 4.0):
        mus = sign * phases / t
        values = eps(mus, t)
        worst = max(abs(v - reference(k, mu, t)) / abs(reference(k, mu, t))
                    for mu, v in zip(mus.tolist(), values.tolist()))
        assert worst <= 1e-15, (t, worst)


def test_zero_rate():
    t = np.array([0.0, 0.5, 3.0])
    assert np.array_equal(eps0(0.0, t), t.astype(complex))
    assert np.array_equal(eps1(0.0, t), (t * t / 2).astype(complex))
