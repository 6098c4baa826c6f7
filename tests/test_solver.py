import math
import random
from fractions import Fraction

import pytest

from semiconformal.closed_forms import (
    HOPF_BOUNDARY,
    hopf_series,
    one_param_series,
    product_form_psi,
    two_param_boundary,
)
from semiconformal.scalars import MODE_EXACT, MODE_FLOAT, CScalar
from semiconformal.series import BiSeries
from semiconformal.solver import (
    AnsatzMap,
    BoundaryData,
    DegenerateData,
    OnAxis,
    OutOfDomain,
    PivotVanished,
    Point3,
    boundary_data_from_dict,
    boundary_data_to_dict,
    eval_phi,
    governing_residual,
    harmonicity_residual,
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
    c = exact(Fraction(3, 2))
    assert solve(BoundaryData(q=0, data=one_param_data(c)), 8) == one_param_series(0, c, 8)
    assert solve(BoundaryData(q=1, data=one_param_data(c)), 8) == one_param_series(1, c, 8)


def test_solve_is_deterministic():
    c = exact(Fraction(1, 3), 1)
    bd = BoundaryData(q=0, data=one_param_data(c))
    assert solve(bd, 7) == solve(bd, 7)


def test_scaling_data_scales_the_solution():
    rng = random.Random(4)
    lam = exact(Fraction(rng.randint(1, 5), 3), Fraction(rng.randint(1, 5), 7))
    data = (exact(1), exact(0, 1), exact(Fraction(1, 2)))
    base = solve(BoundaryData(q=1, data=data), 6)
    scaled = solve(BoundaryData(q=1, data=tuple(lam * v for v in data)), 6)
    for kl in set(base.support()) | set(scaled.support()):
        assert scaled.coeff(*kl) == lam * base.coeff(*kl)


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


def test_float_pivot_floor():
    bd = BoundaryData(q=0, data=(CScalar.floating(1e-310), CScalar.floating(1.0)))
    with pytest.raises(PivotVanished):
        solve(bd, 3)


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


def test_float_solve_tracks_exact_solve():
    c_exact = exact(Fraction(1, 2), Fraction(1, 3))
    psi_exact = solve(BoundaryData(q=0, data=one_param_data(c_exact)), 10)
    c_float = c_exact.to_floating()
    psi_float = solve(BoundaryData(q=0, data=one_param_data(c_float)), 10)
    for kl in psi_exact.support():
        want = psi_exact.coeff(*kl).to_complex()
        got = psi_float.coeff(*kl).to_complex()
        assert abs(want - got) <= 1e-13 * (1 + abs(want))


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


def test_residual_of_linear_data_without_solving():
    c = exact(0, 1)
    lin = BiSeries(4, MODE_EXACT, {(0, 0): exact(1), (0, 1): c})
    r = governing_residual(lin, 0)
    # psi_u = 0 so only psi_z^2/2 survives: the constant c^2/2
    assert r.support() == [(0, 0)]
    assert r.coeff(0, 0) == c * c / 2


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


def test_out_of_domain_is_policed():
    amap = AnsatzMap(q=1, psi=hopf_series(6, MODE_FLOAT), u_max=0.05)
    with pytest.raises(OutOfDomain):
        semiconformality_residual(amap, Point3(1.0, 1.0, 0.0))
    with pytest.raises(OutOfDomain):
        eval_phi(amap, Point3(1.0, 1.0, 0.0))
    # On the boundary (u = 0.5 * 0.5^2 = u_max, |z| = z_max, both exact) every
    # entry point answers, although the residual's finite-difference samples
    # step just outside the region.
    edge = AnsatzMap(q=1, psi=hopf_series(6, MODE_FLOAT), u_max=0.125, z_max=0.25)
    p = Point3(0.5, 0.0, -0.25)
    free = AnsatzMap(q=1, psi=edge.psi)
    assert eval_phi(edge, p) == eval_phi(free, p)
    assert semiconformality_residual(edge, p) == semiconformality_residual(free, p)
    assert harmonicity_residual(edge, p) == harmonicity_residual(free, p)


def test_residual_work_does_not_grow_with_points(monkeypatch):
    c = CScalar.floating(0.5, 1.0)
    doc = solve(BoundaryData(q=0, data=one_param_data(c)), 12).to_json_dict()
    points = [Point3(0.05 * i, 0.1, 0.02 * i - 0.1) for i in range(1, 11)]
    counts = {"diff": 0, "to_complex": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def work(pts):
        amap = AnsatzMap(q=0, psi=BiSeries.from_json_dict(doc))
        counts.update(diff=0, to_complex=0)
        with monkeypatch.context() as m:
            m.setattr(BiSeries, "diff", counted("diff", BiSeries.diff))
            m.setattr(CScalar, "to_complex", counted("to_complex", CScalar.to_complex))
            values = [(semiconformality_residual(amap, p), harmonicity_residual(amap, p))
                      for p in pts]
        return dict(counts), values

    one, _ = work(points[:1])
    ten, values = work(points)
    assert one["diff"] == 4 and one["to_complex"] > 0
    assert ten == one
    # a map built afresh for each point gives the same numbers, bit for bit
    for p, got in zip(points, values):
        fresh = AnsatzMap(q=0, psi=BiSeries.from_json_dict(doc))
        assert got == (semiconformality_residual(fresh, p), harmonicity_residual(fresh, p))


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
