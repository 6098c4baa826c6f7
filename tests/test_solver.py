import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import semiconformal.series
import semiconformal.solver
from paper import boundary_data_to_dict, two_param_boundary
from semiconformal.closed_forms import (
    HOPF_BOUNDARY,
    hopf_series,
    one_param_series,
    product_form_psi,
)
from semiconformal.identities import check_profile_recurrence, check_series_coefficient_identity
from semiconformal.scalars import MODE_EXACT, MODE_FLOAT, CScalar
from semiconformal.series import BiSeries
from semiconformal.solver import (
    AnsatzMap,
    BoundaryData,
    DegenerateData,
    OnAxis,
    Point3,
    _monic_entry,
    _rows,
    boundary_data_from_dict,
    eval_phi,
    governing_residual,
    harmonicity_residual,
    point_residuals,
    semiconformality_residual,
    solve,
)


def exact(v, im=0):
    return CScalar.exact(v, im)


def one_param_data(c):
    return (CScalar.one(c.mode), c)


# -- solve -----------------------------------------------------------------------


def test_hopf_data_reproduces_the_polynomial():
    bd = BoundaryData(q=1, data=HOPF_BOUNDARY)
    psi = solve(bd, 6)
    assert psi == hopf_series(6)


def test_data_shorter_than_order_is_zero_padded():
    bd = BoundaryData(q=1, data=HOPF_BOUNDARY)
    psi = solve(bd, 10)
    assert psi.support() == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_first_u_coefficient_q0():
    c = exact(0, 1)
    psi = solve(BoundaryData(q=0, data=one_param_data(c)), 4)
    # at the origin the q=0 equation forces psi_u = -psi_z^2 / (2 psi)
    assert psi.coeff(1, 0) == -(c * c) / 2


def test_first_u_coefficient_q1_two_param():
    alpha = exact(Fraction(1, 2), Fraction(1, 3))
    beta = exact(Fraction(-1, 5), Fraction(2, 7))
    bd = BoundaryData(q=1, data=two_param_boundary(alpha, beta))
    psi = solve(bd, 4)
    assert psi.derivative_value(1, 0) == (alpha + beta) ** 2 / 2


def test_mixed_derivative_q1_two_param():
    alpha = exact(Fraction(2, 3))
    beta = exact(Fraction(1, 4), Fraction(-1, 2))
    psi = solve(BoundaryData(q=1, data=two_param_boundary(alpha, beta)), 4)
    expected = -(alpha + beta) * (alpha - beta) ** 2 / 2
    assert psi.derivative_value(1, 1) == expected


def test_solver_matches_coefficient_tables():
    # the paper's formulas are the oracle for the solver that every family's series runs
    for c, order in ((exact(Fraction(3, 2)), 8), (exact(Fraction(2, 3), Fraction(1, 5)), 24)):
        for q in (0, 1):
            psi = solve(BoundaryData(q=q, data=one_param_data(c)), order)
            assert psi == one_param_series(q, c, order)
    assert solve(BoundaryData(q=1, data=HOPF_BOUNDARY), 24) == hopf_series(24)


def test_solve_is_deterministic():
    c = exact(Fraction(1, 3), 1)
    bd = BoundaryData(q=0, data=one_param_data(c))
    assert solve(bd, 7) == solve(bd, 7)


def test_scaling_data_scales_the_solution():
    rng = random.Random(4)
    lam = exact(Fraction(rng.randint(1, 5), 3), Fraction(rng.randint(1, 5), 7))
    sparse = (exact(1), exact(0, 1), exact(Fraction(1, 2)))
    dense = (exact(2, 3), *(exact(Fraction(2, 3), 1) ** l for l in range(1, 7)))
    for q, data in ((1, sparse), (0, sparse), (0, dense)):
        base = solve(BoundaryData(q=q, data=data), 6)
        scaled = solve(BoundaryData(q=q, data=tuple(lam * v for v in data)), 6)
        for kl in set(base.support()) | set(scaled.support()):
            assert scaled.coeff(*kl) == lam * base.coeff(*kl)

    # Float data: the sweep scales psi(0,0) out and back in, so lam * data
    # solves to lam * psi within 4e-15 per coefficient, relatively, at either
    # end of double range too (worst measured: 1.9e-15).
    for lam in (1e-305, 1e200, 2 + 3j):
        for q, data in ((1, sparse), (0, sparse), (0, dense)):
            data = [v.to_floating() for v in data]
            base = solve(BoundaryData(q=q, data=tuple(data)), 6)
            scaled = solve(BoundaryData(q=q, data=tuple(v * lam for v in data)), 6)
            assert scaled.support() == base.support()
            for kl in base.support():
                want = lam * base.coeff(*kl).to_complex()
                assert abs(scaled.coeff(*kl).to_complex() - want) <= 4e-15 * abs(want)


def test_perturbing_any_data_entry_moves_interior_coefficients():
    c = exact(1)
    base = solve(BoundaryData(q=0, data=(exact(1), c, exact(0), exact(0))), 5)
    for l in (0, 1, 2, 3):
        data = [exact(1), c, exact(0), exact(0)]
        data[l] = data[l] + exact(Fraction(1, 7))
        other = solve(BoundaryData(q=0, data=tuple(data)), 5)
        changed = [
            kl
            for kl in set(base.support()) | set(other.support())
            if kl[0] >= 1 and base.coeff(*kl) != other.coeff(*kl)
        ]
        assert changed, f"perturbing entry {l} left every interior coefficient fixed"


def test_degenerate_data_is_refused():
    with pytest.raises(DegenerateData):
        BoundaryData(q=0, data=(exact(0), exact(1)))
    with pytest.raises(DegenerateData):
        BoundaryData(q=1, data=(exact(1), exact(0), exact(3)))
    with pytest.raises(DegenerateData):
        BoundaryData(q=0, data=(exact(1),))


def test_float_row0_overflow_is_refused():
    # the monic row 0 holds psi_z(0,0) / psi(0,0) = 1e310, past double range
    bd = BoundaryData(q=0, data=(CScalar.floating(1e-310), CScalar.floating(1.0)))
    with pytest.raises(OverflowError, match="u-row 0 "):
        solve(bd, 3)


def test_float_row0_keeps_entries_past_a_huge_psi00():
    # psi(0,0) * 76! is past double range, but the row-0 entry 1e200/76! is not
    for a00 in (CScalar.floating(1e200), CScalar.floating(1e200, 1e200)):
        data = (a00, CScalar.floating(1e200)) + (CScalar.floating(0.0),) * 74 + (CScalar.floating(1e200),)
        psi = solve(BoundaryData(q=0, data=data), 76)
        assert psi.coeff(0, 0) == a00
        assert psi.coeff(0, 76).to_complex() == pytest.approx(1e200 / math.factorial(76), rel=1e-15)


def test_float_row0_is_the_plain_quotient_wherever_that_is_finite():
    rng = random.Random(5)
    for l in range(171):
        v = CScalar.floating(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a00 = CScalar.floating(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert _monic_entry(v, a00, l, 200) == v / a00 / math.factorial(l)


def _correctly_rounded(v: complex, a00: complex, l: int) -> complex:
    """v / (a00 * l!) rounded once, from the floats read as exact rationals."""
    vr, vi, ar, ai = map(Fraction, (v.real, v.imag, a00.real, a00.imag))
    den = (ar * ar + ai * ai) * math.factorial(l)
    return complex(float((vr * ar + vi * ai) / den), float((vi * ar - vr * ai) / den))


def test_float_row0_past_the_float_factorials_is_correctly_rounded():
    # 171! has no float; 1e-3/l! is a subnormal up to l = 176, then 0
    for v, a00 in ((1e-3, 1.0), (1e-3 + 2e-3j, 0.5 - 0.25j)):
        for l in (171, 172, 175, 177, 178, 200):
            got = _monic_entry(CScalar.from_complex(v), CScalar.from_complex(a00), l, 200)
            assert got.to_complex() == _correctly_rounded(v, a00, l)
    assert _monic_entry(CScalar.floating(1e-3), CScalar.floating(1.0), 176, 200).re == 5e-324


def test_float_row0_keeps_an_entry_whose_ratio_to_psi00_overflows():
    # v/psi(0,0) = 1e400 leaves double range; v/(psi(0,0)*80!) = 1.4e281 does not
    for a00 in (1e-200, 1e-200 + 1e-200j):
        got = _monic_entry(CScalar.floating(1e200), CScalar.from_complex(a00), 80, 80)
        assert got.to_complex() == _correctly_rounded(1e200, a00, 80)
    assert got.to_complex() == pytest.approx((0.5 - 0.5j) * 1e200 * (1e200 / math.factorial(80)))


def test_float_row0_entry_past_double_range_is_refused():
    with pytest.raises(OverflowError, match="^u-row 0 overflows double precision at order 5$"):
        _monic_entry(CScalar.floating(1e300), CScalar.floating(1e-300), 2, 5)


def test_non_finite_float_data_is_refused():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            BoundaryData(q=0, data=(CScalar.floating(1.0), CScalar.floating(0.0, bad)))
        with pytest.raises(ValueError):
            BoundaryData(q=1, data=(CScalar.floating(bad), CScalar.floating(1.0)))


def test_float_overflow_names_the_row():
    bd = BoundaryData(q=0, data=(CScalar.floating(1.0), CScalar.floating(1e100)))
    with pytest.raises(OverflowError, match="u-row 1 "):
        solve(bd, 6)


def test_float_sweep_stops_at_the_first_row_past_double_range():
    # Row 1 of data (1, 1e100) leaves double range: the sweep hands rows 0 and
    # 1 to the series, which refuses row 1, instead of running all 100 rows.
    (rows,), _ = _rows([CScalar.from_complex(1 + 0j), CScalar.from_complex(1e100 + 0j)], 1, 100)
    assert len(rows) == 2
    assert all(map(cmath.isfinite, rows[0])) and not all(map(cmath.isfinite, rows[1]))
    bd = BoundaryData(q=0, data=(CScalar.floating(1.0), CScalar.floating(1e100)))
    with pytest.raises(OverflowError, match="^u-row 1 overflows double precision at order 100$"):
        solve(bd, 100)


def test_float_solve_tracks_exact_solve():
    c_exact = exact(Fraction(1, 2), Fraction(1, 3))
    psi_exact = solve(BoundaryData(q=0, data=one_param_data(c_exact)), 10)
    c_float = c_exact.to_floating()
    psi_float = solve(BoundaryData(q=0, data=one_param_data(c_float)), 10)
    for kl in psi_exact.support():
        want = psi_exact.coeff(*kl).to_complex()
        got = psi_float.coeff(*kl).to_complex()
        assert abs(want - got) <= 1e-13 * (1 + abs(want))

    # psi(0,0) away from 1: per total-degree shell, the gap stays within
    # 1e-14 of the shell's largest coefficient (worst measured: 1.1e-15).
    for a00 in (exact(Fraction(1, 1000)), exact(1000), exact(2, 3)):
        for q in (0, 1):
            psi_exact = solve(BoundaryData(q=q, data=(a00, c_exact)), 10)
            psi_float = solve(BoundaryData(q=q, data=(a00.to_floating(), c_float)), 10)
            for degree in range(11):
                shell = [(k, degree - k) for k in range(degree + 1)]
                scale = max(abs(psi_exact.coeff(*kl)) for kl in shell)
                gap = max(abs(psi_exact.coeff(*kl).to_complex() - psi_float.coeff(*kl).to_complex())
                          for kl in shell)
                assert gap <= 1e-14 * scale, (a00, q, degree)


def shell_gaps(psi_exact: BiSeries, psi_float: BiSeries):
    """Per total-degree shell, max |float - exact| over the shell (the
    difference taken exactly) divided by the shell's largest exact coefficient."""
    for degree in range(psi_exact.trunc + 1):
        shell = [(k, degree - k) for k in range(degree + 1)]
        scale = max(abs(psi_exact.coeff(*kl)) for kl in shell)
        gap = 0.0
        for kl in shell:
            e, f = psi_exact.coeff(*kl), psi_float.coeff(*kl)
            gap = max(gap, math.hypot(float(Fraction(f.re) - e.re), float(Fraction(f.im) - e.im)))
        yield degree, gap / scale


def test_float_solve_stays_within_16_n_eps_of_exact_per_shell():
    # Forward error of the float sweep against the exact oracle: per shell,
    # at most C*N*eps of the shell's largest exact coefficient at order N,
    # with C = 16.  Worst measured: C = 7.3, dense q = 0 data at order 30, top
    # shell; sparse, dense q = 1 and random data stay below C = 1.4.  The
    # random data are dyadic, so the float data equal the exact data.
    rng = random.Random(8)
    dyadic = lambda: Fraction(rng.randint(-64, 64), 32)  # noqa: E731
    c = exact(Fraction(2, 3), 1)
    datasets = {
        "sparse": (exact(1), c),
        "dense": tuple(c**l for l in range(31)),
        "random": (exact(1 + Fraction(rng.randint(0, 64), 32), dyadic()),
                   *(exact(dyadic() or 1, dyadic()) for _ in range(30))),
    }
    eps = 2.0**-52
    for name, data in datasets.items():
        for q in (0, 1):
            for order in (10, 20, 30):
                psi_exact = solve(BoundaryData(q=q, data=data[: order + 1]), order)
                floats = tuple(v.to_floating() for v in data[: order + 1])
                psi_float = solve(BoundaryData(q=q, data=floats), order)
                for degree, gap in shell_gaps(psi_exact, psi_float):
                    assert gap <= 16 * order * eps, (name, q, order, degree, gap)


def test_exact_reciprocity_couples_both_signs_on_dense_data():
    # chi = 1/psi turns the q = 0 operator into psi^-4 times the q = 1 one, so
    # solve(q=0, A_0) * solve(q=1, 1/A_0) is exactly 1 through the order.
    # A_0 = 1 + cz + c^2 z^2 has dense reciprocal data: 1/A_0 = sum b_l z^l
    # with b_l = -c b_(l-1) - c^2 b_(l-2).
    n, c, one = 16, exact(Fraction(2, 3), Fraction(-1, 5)), exact(1)
    b = [one, -c]
    while len(b) <= n:
        b.append(-c * b[-1] - c * c * b[-2])
    psi = solve(BoundaryData(q=0, data=(one, c, 2 * c * c)), n)
    chi = solve(BoundaryData(q=1, data=tuple(math.factorial(l) * v for l, v in enumerate(b))), n)
    assert psi * chi == BiSeries.constant(one, n)


def test_every_public_name_resolves():
    for name in semiconformal.__all__:
        assert hasattr(semiconformal, name), name


# -- governing residual -------------------------------------------------------------


def test_hopf_residual_is_the_zero_series():
    r = governing_residual(hopf_series(6), 1)
    assert r.n_nonzero == 0


def test_solved_series_residual_vanishes_to_truncation():
    c = exact(Fraction(2, 5), 1)
    for q in (0, 1):
        psi = solve(BoundaryData(q=q, data=one_param_data(c)), 9)
        r = governing_residual(psi, q)
        assert r.trunc == 8
        assert r.n_nonzero == 0

    # Random Gaussian-rational data, psi_zz(0,0) != 0 included, so that the
    # row sweep divides by a dense psi(0, z) rather than 1 + cz.
    rng = random.Random(11)

    def gaussian_rational():
        while True:
            v = exact(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                      Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
            if not v.is_zero():
                return v

    for trial in range(12):
        data = tuple(gaussian_rational() for _ in range(2 + trial % 4))
        q, order = trial % 2, rng.randint(2, 8)
        psi = solve(BoundaryData(q=q, data=data), order)
        assert governing_residual(psi, q).n_nonzero == 0
        for l in range(order + 1):
            want = data[l] / math.factorial(l) if l < len(data) else exact(0)
            assert psi.coeff(0, l) == want


def test_float_residual_past_double_range_is_refused():
    # psi reaches 3.3e221, so psi*psi leaves double range
    f = CScalar.floating(1e200)
    psi = solve(BoundaryData(q=0, data=(f, f)), 30)
    with pytest.raises(OverflowError, match="^u-row 0 overflows double precision at order 29$"):
        governing_residual(psi, 0)


def test_residual_of_linear_data_without_solving():
    c = exact(0, 1)
    lin = BiSeries(4, MODE_EXACT, {(0, 0): exact(1), (0, 1): c})
    r = governing_residual(lin, 0)
    # psi_u = 0 so only psi_z^2/2 survives: the constant c^2/2
    assert r.support() == [(0, 0)]
    assert r.coeff(0, 0) == c * c / 2


def product_form_residual(psi, q):
    """The governing residual as three general products, from public ops."""
    half = Fraction(1, 2) if psi.mode == MODE_EXACT else 0.5
    pu, pz = psi.diff("u"), psi.diff("z")
    first = psi * pu
    if q == 1:
        first = -first
    return first + (pu * pu).shift(1, 0, psi.trunc - 1) + (pz * pz).scaled(half)


residual_components = {
    MODE_EXACT: st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    MODE_FLOAT: st.floats(-1e100, 1e100, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
}


@st.composite
def non_solutions(draw):
    """A random series with psi_z(0,0) = 1 + i/3, so psi_z^2 / 2 keeps the
    residual's constant term nonzero: not a solution, for either q."""
    mode = draw(st.sampled_from([MODE_EXACT, MODE_FLOAT]))
    trunc = draw(st.integers(2, 7))
    keys = [(k, l) for k in range(trunc + 1) for l in range(trunc + 1 - k)]
    support = draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True))
    part = residual_components[mode]
    table = {kl: CScalar(draw(part), draw(part), mode) for kl in support}
    table[(0, 1)] = CScalar(1, Fraction(1, 3) if mode == MODE_EXACT else 1 / 3, mode)
    return BiSeries(trunc, mode, table), draw(st.sampled_from([0, 1]))


@given(non_solutions())
def test_governing_residual_equals_the_three_product_form(case):
    psi, q = case
    got, want = governing_residual(psi, q), product_form_residual(psi, q)
    assert got.trunc == want.trunc == psi.trunc - 1 and want.n_nonzero
    if psi.mode == MODE_EXACT:
        assert got == want
        return
    # Floats sum in another order: within 1e-15 of the majorant, the same
    # residual on the coefficient moduli, plus the subnormal spacing per term.
    moduli = BiSeries(psi.trunc, MODE_FLOAT, {kl: CScalar.floating(abs(v.to_complex()))
                                              for kl, v in psi.items()})
    bound = product_form_residual(moduli, 0)
    for kl in set(got.support()) | set(want.support()):
        gap = abs(got.coeff(*kl).to_complex() - want.coeff(*kl).to_complex())
        assert gap <= 1e-15 * bound.coeff(*kl).to_complex().real + 64 * 5e-324


def test_governing_residual_equals_the_three_product_form_on_dense_data():
    # psi^(l)(0) = (2/3+i)^l: every row of psi is dense.  Perturbing one
    # coefficient leaves a nonzero residual, which must match as well.
    c = exact(Fraction(2, 3), 1)
    for q in (0, 1):
        psi = solve(BoundaryData(q=q, data=tuple(c ** l for l in range(13))), 12)
        table = dict(psi.items())
        table[(2, 3)] = psi.coeff(2, 3) + exact(Fraction(1, 7), -2)
        perturbed = BiSeries(12, MODE_EXACT, table)
        for series, zero in ((psi, True), (perturbed, False)):
            got = governing_residual(series, q)
            assert got == product_form_residual(series, q)
            assert (got.n_nonzero == 0) == zero


def test_exact_residual_kernel_work_at_order_24(monkeypatch):
    # The three-product form made 900 exact row products at order 24 (2700
    # mul_trunc calls, three per product); the pass over unordered u-row
    # pairs makes one kernel call per pair.
    psi = solve(BoundaryData(q=0, data=one_param_data(exact(Fraction(2, 3), 1))), 24)
    calls = [0]
    kernel = semiconformal.solver.mul_add

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    with monkeypatch.context() as m:
        m.setattr(semiconformal.solver, "mul_add", counted)
        residual = governing_residual(psi, 0)
    assert residual.n_nonzero == 0
    assert 0 < calls[0] <= 0.55 * 900


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
def test_a_q1_solve_makes_no_zero_weight_kernel_call_that_does_work(monkeypatch, mode):
    # For q = 1 the pair (1, 1) of row 2 weighs s*2 + 2*1*1 = 0.  The kernel
    # must return before it does work on it: form a row product (a float one
    # is a ``mul_trunc`` call) or write the accumulator.
    work, zero_calls = [0], [0]
    kernel, trunc = semiconformal.series.mul_add, semiconformal.series.mul_trunc

    class Recording(list):
        def __setitem__(self, l, v):
            work[0] += 1
            super().__setitem__(l, v)

    def counted(*args):
        work[0] += 1
        return trunc(*args)

    def checked(acc, a, b, n, w=1):
        if w:
            return kernel(acc, a, b, n, w)
        zero_calls[0] += 1
        with monkeypatch.context() as m:
            m.setattr(semiconformal.series, "mul_trunc", counted)
            kernel(tuple(map(Recording, acc)), a, b, n, w)

    c = exact(Fraction(2, 3), 1)
    bd = BoundaryData(q=1, data=one_param_data(c if mode == MODE_EXACT else c.to_floating()))
    want = solve(bd, 8)
    with monkeypatch.context() as m:
        m.setattr(semiconformal.solver, "mul_add", checked)
        assert solve(bd, 8) == want
    assert zero_calls[0] == 1
    assert work[0] == 0


# -- evaluation of phi ------------------------------------------------------------


def test_eval_phi_hopf_zero():
    amap = AnsatzMap(q=1, psi=hopf_series(6))
    assert abs(eval_phi(amap, Point3(1.0, 0.0, 0.0)).to_complex()) == 0.0


def test_eval_phi_projection():
    const = BiSeries.constant(CScalar.floating(1.0), 2)
    amap = AnsatzMap(q=0, psi=const)
    got = eval_phi(amap, Point3(0.3, -0.4, 2.0)).to_complex()
    assert got == complex(0.3, -0.4)


def test_eval_phi_on_axis_raises():
    amap = AnsatzMap(q=1, psi=hopf_series(6))
    with pytest.raises(OnAxis):
        eval_phi(amap, Point3(0.0, 0.0, 1.0))


# -- semi-conformality residual -------------------------------------------------------


def test_hopf_semiconformality_is_machine_zero():
    amap = AnsatzMap(q=1, psi=hopf_series(6, MODE_FLOAT))
    res = semiconformality_residual(amap, Point3(0.3, 0.2, 0.1))
    assert res.analytic < 1e-12
    # the FD value carries the O(h^2) differencing error of the 1/(x-iy) factor
    assert res.finite_difference < 1e-5


def test_projection_semiconformality_zero():
    const = BiSeries.constant(CScalar.floating(1.0), 2)
    res = semiconformality_residual(AnsatzMap(q=0, psi=const), Point3(0.5, 0.25, -1.0))
    assert res.analytic == 0.0
    assert res.finite_difference < 1e-10


def test_truncated_family_residual_small_inside_domain():
    c = CScalar.floating(0.0, 1.0)
    psi = solve(BoundaryData(q=0, data=one_param_data(c)), 20)
    amap = AnsatzMap(q=0, psi=psi)
    res = semiconformality_residual(amap, Point3(0.1, 0.1, 0.05))
    assert res.analytic < 1e-8


def test_finite_difference_agreement_scales_like_h_squared():
    c = CScalar.floating(1.0)
    psi = solve(BoundaryData(q=0, data=one_param_data(c)), 16)
    amap = AnsatzMap(q=0, psi=psi)
    p = Point3(0.25, 0.15, 0.1)
    gap_h = semiconformality_residual(amap, p, h=1e-3).gap
    gap_h2 = semiconformality_residual(amap, p, h=5e-4).gap
    assert gap_h2 < gap_h
    assert 2.0 < gap_h / gap_h2 < 8.0


@pytest.mark.parametrize("q", [2, -1, "1", None, True, 1.0])
def test_ansatz_map_refuses_an_exponent_other_than_0_or_1(q):
    # q = 2 used to evaluate q = 1's phi, with a zero analytic residual; a
    # bool or a float q would be written where the JSON reader refuses it.
    psi = hopf_series(6)
    for build in (lambda: AnsatzMap(q=q, psi=psi), lambda: BoundaryData(q=q, data=HOPF_BOUNDARY),
                  lambda: governing_residual(psi, q), lambda: one_param_series(q, exact(1), 4),
                  lambda: check_series_coefficient_identity(psi, q, 2, 2),
                  lambda: check_profile_recurrence(q, 4)):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == f"exponent q must be 0 or 1, got {q!r}"


def test_float_solve_and_residual_build_no_scalar_per_coefficient(monkeypatch):
    bd = BoundaryData(q=0, data=one_param_data(CScalar.floating(0.5, 1.0)))
    built = []
    for order in (12, 24):
        count = [0]
        init = CScalar.__init__

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(CScalar, "__init__", counted)
            governing_residual(solve(bd, order), 0)
        built.append(count[0])
    assert built[0] == built[1]


def test_residual_work_does_not_grow_with_points(monkeypatch):
    c = CScalar.floating(0.5, 1.0)
    doc = solve(BoundaryData(q=0, data=one_param_data(c)), 12).to_json_dict()
    points = [Point3(0.05 * i, 0.1, 0.02 * i - 0.1) for i in range(1, 11)]
    names = ("diff", "to_complex", "z_pass")
    counts = dict.fromkeys(names, 0)
    passed_over = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "z_pass":
                passed_over.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    def work(pts):
        amap = AnsatzMap(q=0, psi=BiSeries.from_json_dict(doc))
        counts.update(dict.fromkeys(names, 0))
        passed_over.clear()
        with monkeypatch.context() as m:
            m.setattr(BiSeries, "diff", counted("diff", BiSeries.diff))
            m.setattr(CScalar, "to_complex", counted("to_complex", CScalar.to_complex))
            # every full order-N pass: the row values of psi and of its transpose
            m.setattr(semiconformal.solver, "_real_values",
                      counted("z_pass", semiconformal.solver._real_values))
            values = [point_residuals(amap, p) for p in pts]
        return dict(counts), values

    one, _ = work(points[:1])
    first_point = list(passed_over)
    ten, values = work(points)
    # no derived series; a float series stores its complex rows, so the point
    # path converts no coefficient; two full passes per point, psi's row values
    # A_k(z) and its column values B_l(u), the rows of its transpose
    assert one["diff"] == 0 and one["to_complex"] == 0
    psi = BiSeries.from_json_dict(doc)
    split = semiconformal.solver._split
    assert one["z_pass"] == 2
    assert first_point == [split(psi._parts[0]), split(psi.transposed()._parts[0])]
    assert ten == dict(one, z_pass=10 * one["z_pass"])
    # a map built afresh for each point gives the same numbers, bit for bit,
    # and so do the two single-residual entry points
    for p, got in zip(points, values):
        fresh = AnsatzMap(q=0, psi=BiSeries.from_json_dict(doc))
        assert got == (semiconformality_residual(fresh, p), harmonicity_residual(fresh, p))


def test_exact_map_converts_to_floats_once(monkeypatch):
    psi = solve(BoundaryData(q=0, data=one_param_data(exact(Fraction(1, 2), 1))), 24)
    points = [Point3(0.05 * i, 0.1, 0.02 * i - 0.1) for i in range(1, 6)]
    calls = [0]
    convert = BiSeries.to_floating

    def counted(series):
        calls[0] += series.mode == MODE_EXACT  # on a float series it returns self
        return convert(series)

    with monkeypatch.context() as m:
        m.setattr(BiSeries, "to_floating", counted)
        amap = AnsatzMap(q=0, psi=psi)
        got = [(eval_phi(amap, p), point_residuals(amap, p)) for p in points]
    assert calls[0] <= 1
    # the same numbers, bit for bit, as a map on the converted series
    fmap = AnsatzMap(q=0, psi=psi.to_floating())
    assert got == [(eval_phi(fmap, p), point_residuals(fmap, p)) for p in points]


def test_low_truncation_map_fails_only_where_a_derivative_is_missing():
    psi = BiSeries(1, MODE_FLOAT, {(0, 0): CScalar.floating(1.0),
                                   (0, 1): CScalar.floating(0.0, 1.0)})
    amap = AnsatzMap(q=0, psi=psi)
    p = Point3(0.3, 0.1, 0.2)
    assert eval_phi(amap, p).to_complex() == complex(0.3, 0.1) * complex(1.0, 0.2)
    semiconformality_residual(amap, p)
    with pytest.raises(ValueError, match="truncation bound 1"):
        harmonicity_residual(amap, p)
    flat = AnsatzMap(q=0, psi=BiSeries.constant(CScalar.floating(1.0), 0))
    assert eval_phi(flat, p).to_complex() == complex(0.3, 0.1)
    with pytest.raises(ValueError, match="truncation bound 1"):
        semiconformality_residual(flat, p)


# -- harmonicity residual ---------------------------------------------------------------


def test_q1_one_param_family_is_harmonic():
    c = CScalar.floating(1.0)
    psi = solve(BoundaryData(q=1, data=one_param_data(c)), 25)
    amap = AnsatzMap(q=1, psi=psi)
    p = Point3(math.sqrt(0.1), 0.0, 0.1)  # (u, z) = (0.05, 0.1)
    assert harmonicity_residual(amap, p) < 1e-8


def test_q0_entire_solution_is_not_harmonic():
    c = CScalar.floating(0.0, 1.0)
    psi = solve(BoundaryData(q=0, data=one_param_data(c)), 25)
    amap = AnsatzMap(q=0, psi=psi)
    p = Point3(math.sqrt(0.1), 0.0, 0.1)
    assert harmonicity_residual(amap, p) > 1e-3


def test_hopf_map_is_not_harmonic():
    # Direct substitution of the Hopf polynomial into the harmonicity
    # criterion leaves u^2*psi_uu + u*psi_zz/2 = -u: semi-conformal maps need
    # not be harmonic, and this one is not.
    amap = AnsatzMap(q=1, psi=hopf_series(6, MODE_FLOAT))
    for u in (0.05, 0.2, 0.7):
        p = Point3(math.sqrt(2 * u), 0.0, 0.3)
        assert abs(harmonicity_residual(amap, p) - u) < 1e-12


# -- cross-check against the transcendental product-form solution ------------------------


def test_solver_reproduces_product_form_from_its_boundary_values():
    b, c = 1.0, 1.0
    base = b * math.e / 2.0
    data = tuple(CScalar.floating(base * c**l) for l in range(26))
    psi = solve(BoundaryData(q=0, data=data), 25)
    for u, z in ((0.01, 0.1), (0.05, -0.2), (0.0, 0.3)):
        want = product_form_psi(b, c, u, z)
        got = psi.eval_complex(u, z)
        assert abs(want - got) < 1e-8


# -- boundary-data serialization -----------------------------------------------------------


def test_boundary_data_round_trip():
    bd = BoundaryData(q=1, data=HOPF_BOUNDARY)
    doc = boundary_data_to_dict(bd, order=6)
    assert doc["q"] == 1 and doc["order"] == 6
    back, order = boundary_data_from_dict(doc, MODE_EXACT)
    assert order == 6
    assert back.data == bd.data


# An integer as a caller may pass one: an int (negative ones too), a bool or a float.
int_like = st.one_of(st.integers(-1, 6), st.booleans(), st.integers(0, 6).map(float))


def _reads_back(build, accepted: bool):
    """The series ``build()``, which must read back from its own JSON, or
    None where ``build`` must refuse with ``ValueError``."""
    if not accepted:
        with pytest.raises(ValueError):
            build()
        return None
    series = build()
    assert BiSeries.from_json_dict(series.to_json_dict()) == series
    return series


@given(int_like, int_like, int_like, int_like, st.sampled_from([MODE_EXACT, MODE_FLOAT]))
def test_every_series_and_boundary_document_the_library_builds_reads_back(q, order, trunc, d,
                                                                          mode):
    # The integer counterpart of the float series' guarantee: an integer
    # field that the JSON readers refuse (a bool, a float) is refused where
    # it is built, so nothing the library writes fails to read back.
    def natural(v):
        return type(v) is int and v >= 0

    c = exact(Fraction(1, 2), 1) if mode == MODE_EXACT else CScalar.floating(0.5, 1.0)
    q_ok = type(q) is int and 0 <= q <= 1
    if not q_ok:
        with pytest.raises(ValueError):
            BoundaryData(q=q, data=one_param_data(c))
    bd = BoundaryData(q=q if q_ok else 0, data=one_param_data(c))
    if type(order) is int:
        assert boundary_data_from_dict(boundary_data_to_dict(bd, order), mode) == (bd, order)
    else:
        with pytest.raises(ValueError):
            boundary_data_to_dict(bd, order)

    _reads_back(lambda: BiSeries(trunc, mode, {(0, 0): c}), natural(trunc))
    psi = _reads_back(lambda: solve(bd, order), natural(order)) or solve(bd, 4)
    _reads_back(lambda: psi.truncate(trunc), natural(trunc) and trunc <= psi.trunc)
    _reads_back(lambda: psi.shift(1, 2, trunc), natural(trunc) and trunc <= psi.trunc + 3)
    _reads_back(lambda: psi.shift(d, 0, psi.trunc), natural(d))
    _reads_back(lambda: psi.shift(0, d, psi.trunc), natural(d))
    _reads_back(lambda: governing_residual(psi, q), q_ok and psi.trunc >= 2)
