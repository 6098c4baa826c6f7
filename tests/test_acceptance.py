"""Acceptance gates: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values.
Gate 6a is known to fail: at truncation order 30 the residual tolerance is
unreachable on the far corner of its stated grid (see the printed analysis).
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from paper import (
    coeff_q1,
    fibre_equation,
    two_param_a_k0,
    two_param_boundary,
    two_param_psi1,
    two_param_psi2,
    verify_fibre,
)
from semiconformal.closed_forms import (
    HOPF_BOUNDARY,
    TwoParamFamily,
    closed_q0,
    closed_q1,
    coeff_q0,
    hopf_series,
    one_param_series,
    product_form_psi,
)
from semiconformal.convergence import estimate_radius_u
from semiconformal.geometry import fibre_circle
from semiconformal.identities import (
    check_binomial_convolution,
    check_odd_binomial_sum,
    check_profile_recurrence,
    check_profile_recurrence_reduced,
    check_q_coefficient_sum,
    check_series_coefficient_identity,
)
from semiconformal.scalars import CScalar, MODE_EXACT
from semiconformal.solver import (
    AnsatzMap,
    BoundaryData,
    Point3,
    harmonicity_residual,
    semiconformality_residual,
    solve,
)


def exact(v, im=0):
    return CScalar.exact(v, im)


def random_rationals(rng, n, lo=1, hi=4):
    out = []
    while len(out) < n:
        c = Fraction(rng.randint(-hi, hi), rng.randint(lo, hi))
        if c != 0:
            out.append(c)
    return out


def test_criterion_1_hopf_reproduction():
    t0 = time.perf_counter()
    bd = BoundaryData(q=1, data=HOPF_BOUNDARY)
    psi = solve(bd, 10)
    elapsed = time.perf_counter() - t0
    assert psi.support() == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert psi.coeff(0, 0) == exact(1)
    assert psi.coeff(0, 1) == exact(0, -2)
    assert psi.coeff(0, 2) == exact(-1)
    assert psi.coeff(1, 0) == exact(-2)
    assert psi == hopf_series(10)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: Hopf coefficients reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_one_parameter_oracle():
    rng = random.Random(20240)
    t0 = time.perf_counter()
    for c_frac in random_rationals(rng, 5):
        c = exact(c_frac)
        for q, table in ((0, coeff_q0), (1, coeff_q1)):
            psi = solve(BoundaryData(q=q, data=(exact(1), c)), 12)
            for k in range(13):
                for l in range(13 - k):
                    assert psi.coeff(k, l) == table(c, k, l), (q, c_frac, k, l)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 2 PASS: solver matches both closed tables exactly to "
        f"total degree 12 for 5 random rational c in {elapsed:.2f}s"
    )


def test_criterion_3_recurrence_suite():
    checks = [
        check_profile_recurrence(0, 30),
        check_profile_recurrence(1, 30),
        check_profile_recurrence_reduced(30),
        check_odd_binomial_sum(50),
        check_binomial_convolution("first", 40),
        check_binomial_convolution("second", 40),
        check_q_coefficient_sum(20),
    ]
    for report in checks:
        assert report.ok, (report.name, report.first_failure)
    print("\nACCEPTANCE 3 PASS: " + ", ".join(r.name for r in checks) + " all exact")


def test_criterion_4_two_parameter_rows():
    rng = random.Random(20244)
    pairs = []
    while len(pairs) < 5:
        a = exact(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        b = exact(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if not (a + b).is_zero():
            pairs.append((a, b))
    for a, b in pairs:
        psi = solve(BoundaryData(q=1, data=two_param_boundary(a, b)), 12)
        for l in range(1, 11):
            assert psi.derivative_value(1, l) == two_param_psi1(a, b, l)
        for l in range(0, 11):
            assert psi.derivative_value(2, l) == two_param_psi2(a, b, l)
        for k in range(0, 9):
            assert psi.coeff(k, 0) == two_param_a_k0(a, b, k)
    print("\nACCEPTANCE 4 PASS: rows 1, 2 and the u-row match the solver exactly "
          "for 5 random (alpha, beta)")


def test_criterion_5_convergence():
    row = [coeff_q0(exact(1), k, 0).to_complex() for k in range(60)]
    est = estimate_radius_u(row, "ratio")
    rel = abs(est - 1 / 6) / (1 / 6)
    assert rel < 0.05

    alpha = exact(Fraction(1, 2), Fraction(1, 3))
    tail = [two_param_a_k0(alpha, alpha, k) for k in range(2, 61)]
    assert all(v.is_zero() for v in tail)
    assert TwoParamFamily(0.5 + 1j / 3, 0.5 + 1j / 3).radius_bound() is None
    print(
        f"\nACCEPTANCE 5 PASS: empirical radius {est:.4f} within {rel:.1%} of 1/6; "
        "equal-parameter u-row tail vanishes identically (no finite radius signal)"
    )


def _criterion6_grid():
    """100 points filling u in (0, 0.1], z in [-0.3, 0.3]."""
    points = []
    golden = (1 + math.sqrt(5)) / 2
    idx = 0
    for i in range(10):
        u = 0.01 + 0.09 * i / 9
        for j in range(10):
            z = -0.3 + 0.6 * j / 9
            theta = 2 * math.pi * ((idx * golden) % 1.0)
            r = math.sqrt(2 * u)
            points.append(Point3(r * math.cos(theta), r * math.sin(theta), z))
            idx += 1
    return points


def test_criterion_6a_semiconformality_grid():
    c = CScalar.floating(0.0, 1.0)
    psi = solve(BoundaryData(q=0, data=(CScalar.floating(1.0), c)), 30)
    amap = AnsatzMap(q=0, psi=psi)
    worst = 0.0
    worst_at = None
    for p in _criterion6_grid():
        res = semiconformality_residual(amap, p)
        if res.analytic > worst:
            worst, worst_at = res.analytic, p
    u = 0.5 * (worst_at.x**2 + worst_at.y**2)
    ok = worst < 1e-8
    print(
        f"\nACCEPTANCE 6a {'PASS' if ok else 'FAIL'}: max semi-conformality residual "
        f"{worst:.3e} at (u,z)=({u:.3f},{worst_at.z:+.2f}) on the stated grid "
        f"(tolerance 1e-8).  The truncated triangle at order 30 cannot meet the "
        f"tolerance near (u,z)=(0.1,0.3): the residual there shrinks ~7x per +10 "
        f"orders and would need order ~70."
    )
    assert worst < 1e-8, (
        "order-30 truncation misses the 1e-8 tolerance on the stated grid; "
        f"measured max {worst:.3e}"
    )


def _gate_6a_worst(order):
    """The largest analytic residual of gate 6a's map, solved to ``order``,
    over the gate's grid, and its (u, z) rounded to two decimals."""
    c = CScalar.floating(0.0, 1.0)
    amap = AnsatzMap(q=0, psi=solve(BoundaryData(q=0, data=(CScalar.floating(1.0), c)), order))
    worst, p = max(((semiconformality_residual(amap, p).analytic, p) for p in _criterion6_grid()),
                   key=lambda pair: pair[0])
    return worst, (round(0.5 * (p.x**2 + p.y**2), 2), round(p.z, 2))


def _as_printed(x, decimals):
    """x with ``decimals`` mantissa decimals and a bare exponent: 1.397e-5."""
    mantissa, exponent = f"{x:.{decimals}e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def test_readme_states_gate_6a_as_measured():
    # README's "Known red gate" explains gate 6a's failure by these figures;
    # each must be what the evaluator measures now, at the precision printed
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    (r30, _), (r70, at70), (r71, _), (r72, _) = (_gate_6a_worst(n) for n in (30, 70, 71, 72))
    assert f"measured at order 30, is `{_as_printed(r30, 3)}`" in text
    # the two far corners mirror each other and differ only by rounding
    assert "the worst residual, at the far corners `(u, z) = (0.1, ±0.3)`" in text
    assert at70 in ((0.1, 0.3), (0.1, -0.3))
    assert f"is `{_as_printed(r70, 2)}` at order 70" in text
    assert f"first drops below `1e-8` at order 72 (`{_as_printed(r72, 1)}`)" in text
    assert r72 < 1e-8 <= r71


def test_criterion_6b_q0_solution_is_not_harmonic():
    c = CScalar.floating(0.0, 1.0)
    psi = solve(BoundaryData(q=0, data=(CScalar.floating(1.0), c)), 30)
    amap = AnsatzMap(q=0, psi=psi)
    p = Point3(math.sqrt(0.1), 0.0, 0.1)  # (u, z) = (0.05, 0.1)
    value = harmonicity_residual(amap, p)
    assert value > 1e-3
    print(f"\nACCEPTANCE 6b PASS: q=0 harmonicity residual {value:.3e} > 1e-3 "
          "(semi-conformal yet not harmonic)")


def test_criterion_6c_q1_one_parameter_family_is_harmonic():
    c = CScalar.floating(1.0)
    psi = solve(BoundaryData(q=1, data=(CScalar.floating(1.0), c)), 30)
    amap = AnsatzMap(q=1, psi=psi)
    worst = 0.0
    for u, z in ((0.05, 0.1), (0.02, -0.2), (0.08, 0.0)):
        p = Point3(math.sqrt(2 * u), 0.0, z)
        worst = max(worst, harmonicity_residual(amap, p))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 6c PASS: q=1 one-parameter harmonicity residual {worst:.3e} < 1e-8")


def test_criterion_7_closed_forms_vs_series():
    c = exact(1)
    series_q0 = one_param_series(0, c, 40).to_floating()
    series_q1 = one_param_series(1, c, 40).to_floating()
    gap_q0 = gap_q1 = 0.0
    for u in (0.0, 0.01, 0.02, 0.03):
        for z in (-0.1, -0.05, 0.0, 0.05, 0.1):
            gap_q0 = max(gap_q0, abs(closed_q0(1.0, u, z) - series_q0.eval_complex(u, z)))
            gap_q1 = max(gap_q1, abs(closed_q1(1.0, u, z) - 2 * series_q1.eval_complex(u, z)))
    assert gap_q0 < 1e-10
    assert gap_q1 < 1e-10

    worst = {}
    for h in (1e-5, 5e-6):
        worst[h] = 0.0
        for u in (0.01, 0.03, 0.05):
            for z in (-0.2, 0.0, 0.1):
                pu = (product_form_psi(1, 1, u + h, z) - product_form_psi(1, 1, u - h, z)) / (2 * h)
                pz = (product_form_psi(1, 1, u, z + h) - product_form_psi(1, 1, u, z - h)) / (2 * h)
                v = product_form_psi(1, 1, u, z)
                worst[h] = max(worst[h], abs(v * pu + u * pu * pu + 0.5 * pz * pz))
    assert all(value < 1e-8 for value in worst.values())
    print(
        f"\nACCEPTANCE 7 PASS: closed q0 gap {gap_q0:.2e}, closed q1 = 2x series "
        f"gap {gap_q1:.2e} (both < 1e-10); product-form q0 residual "
        f"{worst[1e-5]:.2e} -> {worst[5e-6]:.2e} under step refinement (< 1e-8)"
    )


def test_criterion_8_fibres():
    fc = fibre_circle(-1j, 0)
    assert max(abs(v) for v in fc.center) < 1e-9
    assert abs(abs(fc.normal[2]) - 1.0) < 1e-9
    assert abs(fc.radius - 1.0) < 1e-9
    spread = verify_fibre(-1j, fc, 64)
    assert spread < 1e-10

    rng = random.Random(20248)
    zero = CScalar.zero(MODE_EXACT)
    for _ in range(10):
        alpha = exact(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        eta = exact(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        bouquet_z = -(CScalar.one(MODE_EXACT) / alpha)
        assert fibre_equation(alpha, eta, zero, zero, bouquet_z).is_zero()
    print(
        f"\nACCEPTANCE 8 PASS: equatorial fibre is the unit circle (phi spread "
        f"{spread:.2e} over 64 samples); bouquet point satisfies the fibre "
        "equation exactly for 10 random eta"
    )


def test_criterion_9_coefficient_identity_both_signs():
    c = exact(Fraction(2, 3), 1)
    for q in (0, 1):
        psi = solve(BoundaryData(q=q, data=(exact(1), c)), 10)
        report = check_series_coefficient_identity(psi, q, 9, 9)
        assert report.ok, (q, report.first_failure)
    alpha, beta = exact(Fraction(1, 2), Fraction(1, 3)), exact(Fraction(-1, 4))
    psi2 = solve(BoundaryData(q=1, data=two_param_boundary(alpha, beta)), 10)
    assert check_series_coefficient_identity(psi2, 1, 9, 9).ok
    assert check_series_coefficient_identity(hopf_series(10), 1, 9, 9).ok
    print("\nACCEPTANCE 9 PASS: the double-sum coefficient identity vanishes "
          "exactly on every solved series, both signs, through order 10")
