"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s`) and then asserts.  Criterion 6 asserts the leading-order
adiabatic rates against the error their own series gives: the relative
deficits equal their first neglected terms n(k|u|)^2 and (n+1)(k|u|)^2 to
1e-3, the |dn| = 2 probabilities equal their leading terms to 1e-3, and
|dn| >= 3 stays below 1e-7.  A flat "relative error < 1e-3, |dn| >= 2
below 1e-7" cannot hold at n = 10, where the series forces an
up-transition error of 1.10e-3 and a two-level jump of 3.3e-7.
"""

import json
import math

import numpy as np
import pytest

import landau_drive as ld
from landau_drive import cli

from _reference import expm


def _line(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num}: {status} ({detail})")


@pytest.fixture(scope="module")
def corpus_checks(natural):
    """One full validation run at the criterion-4 settings, reused below."""
    return ld.run_validation(natural, dim=64, dt=0.01)


def test_criterion_1_closed_form_agreement(natural):
    grid = np.linspace(0.0, 40.0, 81)
    worst = 0.0
    r0 = 0.2
    for ratio in (0.5, 0.9, 0.99, 1.1, 2.0):
        nu = ratio  # omega = 1
        w = ld.RotatingField(r0 * nu, nu)
        dp = ld.build_drive_path(natural, w, grid, method="quadrature", abs_tol=1e-12)
        d = nu - 1.0
        u_ref = (-r0 * nu / 2.0) * (np.exp(1j * d * grid) - 1.0) / (1j * d)
        beta_ref = 0.5 * r0**2 * (nu * grid - np.sin(nu * grid))
        gamma_ref = (
            (r0**2 / 2.0) * (nu / (1.0 - nu)) ** 2
            * ((1.0 - nu) * grid - np.sin((1.0 - nu) * grid))
        )
        for got, ref in ((dp.u, u_ref), (dp.beta, beta_ref), (dp.gamma, gamma_ref)):
            worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
        u_op = ld.displacement_amplitude(natural, w, 40.0, method="quadrature",
                                         abs_tol=1e-12)
        worst = max(worst, abs(u_op - u_ref[-1]) / abs(u_ref[-1]))

    w_res = ld.RotatingField(r0 * 1.0, 1.0)
    dp = ld.build_drive_path(natural, w_res, grid, method="quadrature", abs_tol=1e-12)
    gamma_res = float(np.max(np.abs(dp.gamma)))
    u_res_dev = float(
        np.max(np.abs(dp.u - (-r0 * grid / 2.0))) / np.max(np.abs(r0 * grid / 2.0))
    )
    passed = worst < 1e-8 and gamma_res < 1e-10 and u_res_dev < 1e-10
    _line(1, passed,
          f"max rel dev {worst:.2e} (tol 1e-8); resonance gamma {gamma_res:.2e}, "
          f"u dev {u_res_dev:.2e} (tol 1e-10)")
    assert passed


def test_criterion_2_closed_loop_phase(natural):
    worst = 0.0
    theta = np.linspace(0.0, 2.0 * math.pi, 120_000)
    for r in (0.1, 1.0, 10.0):  # r / l_b with l_b = 1
        loop = r * (np.exp(1j * theta) - 1.0)
        beta = ld.magnetic_phase(natural, loop)
        expected = -natural.area_phase * math.pi * r**2
        worst = max(worst, abs(beta - expected) / abs(expected))
    passed = worst < 1e-8
    _line(2, passed, f"max rel dev {worst:.2e} (tol 1e-8)")
    assert passed


def test_criterion_3_displacement_matrix():
    n = 96
    a, ad = ld.ladder_ops(n)
    worst_diff = worst_unit = worst_norm = 0.0
    for mag in (0.1, 1.0, 2.0):
        alpha = mag * np.exp(0.6j)
        closed = ld.displacement_matrix(alpha, n)
        oracle_mat = expm(alpha * ad.matrix - np.conj(alpha) * a.matrix)
        worst_diff = max(
            worst_diff, float(np.max(np.abs((closed.matrix - oracle_mat)[:32, :32])))
        )
        worst_unit = max(worst_unit, closed.unitarity_defect(32))
        sums = np.sum(np.abs(closed.matrix) ** 2, axis=0)
        worst_norm = max(worst_norm, float(np.max(np.abs(sums[:32] - 1.0))))
    passed = worst_diff < 1e-10 and worst_unit < 1e-8 and worst_norm < 1e-8
    _line(3, passed,
          f"closed-vs-exponential {worst_diff:.2e} (tol 1e-10); unitarity "
          f"{worst_unit:.2e}, column norm {worst_norm:.2e} (tol 1e-8)")
    assert passed


def test_criterion_4_factorization_theorem(corpus_checks):
    fact = [c for c in corpus_checks if c.name.startswith("factorization[")]
    assert len(fact) == 7
    worst = max(c.value for c in fact)
    conv = next(c for c in corpus_checks if c.name == "rk4_convergence_order")
    ratios = conv.details["ratios"]
    passed = all(c.passed for c in fact) and conv.passed
    _line(4, passed,
          f"max residual {worst:.2e} (tol 1e-6) over {len(fact)} waveforms; "
          f"dt-doubling ratios {ratios[0]:.1f}, {ratios[1]:.1f} (expect ~16)")
    assert passed


def test_criterion_5_heisenberg_and_guiding_center(corpus_checks):
    heis = [c for c in corpus_checks if c.name.startswith("heisenberg[")]
    guid = [c for c in corpus_checks if c.name.startswith("guiding_center[")]
    assert len(heis) == 7 and len(guid) == 7
    worst_h = max(c.value for c in heis)
    worst_g = max(c.value for c in guid)
    passed = all(c.passed for c in heis + guid)
    _line(5, passed,
          f"Heisenberg {worst_h:.2e} (tol 1e-6); guiding-center {worst_g:.2e} "
          f"(tol 1e-9)")
    assert passed


def test_criterion_6_adiabatic_formulas(natural):
    """Leading-order slow-drive rates, checked against their own series.

    With x = |alpha|^2 = (k|u|)^2 the exact Fock probabilities of D(alpha)
    are, for m >= n (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)),

        P(n -> m) = (n!/m!) x^(m-n) e^-x [L_n^(m-n)(x)]^2,  P(n -> m) = P(m -> n),

    and L_n^(j)(x) = sum_i (-1)^i C(n+j, n-i) x^i / i!.

    Delta n = +-1.  P(n -> n+1) = (n+1) x f_n(x) with
    f_n = e^-x [L_n^(1)(x) / (n+1)]^2 = 1 - (n+1) x + c_n x^2 + O(x^3),
    c_n = 1/2 + n + n^2/4 + n(n-1)/6; P(n -> n-1) = n x f_(n-1)(x).  So the
    relative deficit (est - P)/est of the leading-order estimates is
    (n+1) x - c_n x^2 (up) and n x - c_(n-1) x^2 (down): it is >= 0, and
    it equals its first term to relative c_n x/(n+1) (up), c_(n-1) x/n
    (down).  The largest of these here is 50.5e-4/11 = 4.59e-4 (up, n = 10),
    so "deficit / first term - 1" is asserted inside 1e-3.

    Delta n = +-2.  P(n -> n+2) = (n+1)(n+2)/4 x^2 g_n(x) with
    g_n = e^-x [L_n^(2)(x) / L_n^(2)(0)]^2 = 1 - (1 + 2n/3) x + O(x^2), and
    P(n -> n-2) = n(n-1)/4 x^2 g_(n-2)(x) (n >= 2; level -1 does not
    exist, so n = 1 has only the up jump).  So P over its leading term is
    1 - (1 + 2m/3) x + O(x^2) <= 1 (m = n up, n - 2 down); at n = 10 that
    is 1 - 7.67e-4, and the ratio is asserted in [1 - 1e-3, 1].

    |Delta n| >= 3.  P(n -> n+j) = C(n+j, j)/j! x^j (1 + O(x)) and
    P(n -> n-j) = C(n, j)/j! x^j (1 + O(x)); the largest is
    (n+1)(n+2)(n+3)/36 x^3 = 4.8e-11 at n = 10, and each further level
    multiplies by about (n+j+1) x/(j+1)^2 < 1e-3.  Asserted: P < 1e-7.

    The flat statement "relative error < 1e-3, |Delta n| >= 2 below 1e-7"
    cannot hold at n = 10: the up-transition deviates by (n+1) x = 1.10e-3
    and P(10 -> 12) = 3.3e-7, both forced by the expansion above.
    """
    u = 1e-2 / natural.k  # k|u| = 1e-2
    dim = 64
    alpha = ld.displacement_argument(natural, u)
    d = ld.displacement_matrix(alpha, dim).matrix
    probs = np.abs(d) ** 2
    x = (natural.k * abs(u)) ** 2
    failures = []
    rows = []
    for n in (1, 3, 10):
        down_est, up_est = ld.adiabatic_estimates(natural, n, u)
        cells = []
        for label, est, m, first in (
            ("down", down_est, n - 1, n * x),
            ("up", up_est, n + 1, (n + 1) * x),
        ):
            deficit = (est - probs[m, n]) / est
            rel = deficit / first - 1.0
            cells.append(f"{label} deficit {deficit:.3e} (>= 0), "
                         f"/first - 1 {rel:+.2e} (|.| < 1e-3)")
            if deficit < 0.0:
                failures.append(f"n={n} {label} deficit {deficit:.3e} < 0")
            if abs(rel) >= 1e-3:
                failures.append(f"n={n} {label} deficit/first - 1 {rel:+.3e} "
                                f"outside 1e-3")
        pairs = [("+2", n + 2, (n + 1) * (n + 2) / 4.0 * x**2)]
        if n >= 2:
            pairs.append(("-2", n - 2, n * (n - 1) / 4.0 * x**2))
        for label, m, lead in pairs:
            ratio = probs[m, n] / lead
            cells.append(f"dn={label} P/lead {ratio:.7f} (in [0.999, 1])")
            if not 1.0 - 1e-3 <= ratio <= 1.0:
                failures.append(f"n={n} dn={label} P/lead {ratio:.7f} "
                                f"outside [1 - 1e-3, 1]")
        far_max = float(np.concatenate([probs[: max(n - 2, 0), n],
                                        probs[n + 3 :, n]]).max())
        cells.append(f"|dn|>=3 {far_max:.2e} (< 1e-7)")
        if far_max >= 1e-7:
            failures.append(f"n={n} |dn|>=3 probability {far_max:.3e} >= 1e-7")
        rows.append(f"n={n}: " + ", ".join(cells))
    passed = not failures
    _line(6, passed, "; ".join(rows))
    assert passed, (
        "leading-order rates off the bounds their own series gives (derived "
        "in the docstring; a flat 1e-3 / 1e-7 cannot hold at n = 10, where "
        "the up-transition error is 1.10e-3 and P(10 -> 12) is 3.3e-7): "
        + "; ".join(failures)
    )


def test_criterion_7_reference_numbers(electron_si):
    coeff = ld.drive_strength_coefficient(electron_si, 1000.0)
    rel = abs(coeff - 1.46e-5) / 1.46e-5
    bench = cli._electron_benchmark()
    passed = (
        rel < 0.02
        and bench["coefficient_matches_documented"]
        and not bench["duration_quote_consistent"]
    )
    _line(7, passed,
          f"coefficient {coeff:.4e} vs 1.46e-5 ({rel:.1%}); duration "
          f"{bench['duration_from_formula_s']:.3e} s flagged against documented "
          f"{bench['documented_duration_s']:.2e} s")
    assert passed


def test_criterion_8_resonance_survival(natural):
    dim, t = 96, 10.0
    worst = 0.0
    alt_gap = math.inf
    for uk2 in (1.0, 4.0):
        e0 = math.sqrt(2.0 * uk2) / t
        w = ld.RotatingField(e0, 1.0)
        cfg = ld.IntegratorConfig(dt=0.005, dim=dim)
        u_num = ld.integrate_schrodinger(natural, w, t, cfg)
        surv = abs(u_num[0, 0]) ** 2
        worst = max(worst, abs(surv - ld.resonance_survival(natural, e0, t)))
        alt_gap = min(
            alt_gap, abs(surv - ld.resonance_survival_alt_prefactor(natural, e0, t))
        )
    passed = worst < 1e-6 and alt_gap > 1e-3
    _line(8, passed,
          f"|integrator - exp(-|uk|^2)| {worst:.2e} (tol 1e-6); prefactor-2 "
          f"variant off by {alt_gap:.2e}")
    assert passed


@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_criterion_9_determinism(tmp_path, method):
    # both drive-path routes: auto (the default, exact) and the quadrature
    # cross-check
    doc = {
        "task": "simulate",
        "system": {"units": "natural"},
        "waveform": {"type": "rotating", "amplitude": 0.12, "nu": 0.9},
        "time": {"t_final": 8.0, "samples": 17},
        "numerics": {"dimension": 48, "method": method},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "simulate_samples.csv").read_bytes()
    bytes_b = (out_b / "simulate_samples.csv").read_bytes()
    passed = bytes_a == bytes_b and len(bytes_a) > 0
    _line(9, passed, f"{method}: {len(bytes_a)} bytes, identical across runs: {passed}")
    assert passed
