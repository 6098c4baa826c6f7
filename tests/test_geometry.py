import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from paper import equal_param_phi, fibre_equation, hausdorff_distance, verify_fibre
from semiconformal.geometry import (
    Degenerate,
    FibreCircle,
    RadiusUnderflow,
    fibre_circle,
    sample_circle,
)
from semiconformal.scalars import CScalar
from semiconformal.solver import OnAxis, Point3


def test_hopf_equatorial_fibre_is_the_unit_circle():
    fc = fibre_circle(-1j, 0)
    assert max(abs(v) for v in fc.center) < 1e-12
    assert abs(fc.normal[2]) == pytest.approx(1.0, abs=1e-12)
    assert fc.normal[0] == pytest.approx(0.0, abs=1e-12)
    assert fc.radius == pytest.approx(1.0, abs=1e-9)


def test_samples_lie_on_the_circle_and_in_its_plane():
    fc = fibre_circle(-1j, 0.4 + 0.2j)
    pts = sample_circle(fc, 48)
    for p in pts:
        d = math.dist((p.x, p.y, p.z), fc.center)
        assert abs(d - fc.radius) < 1e-12
        offset = (p.x - fc.center[0], p.y - fc.center[1], p.z - fc.center[2])
        inplane = sum(o * n for o, n in zip(offset, fc.normal))
        assert abs(inplane) < 1e-12


def test_four_samples_of_the_unit_circle():
    fc = FibreCircle(center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                     radius=1.0, alpha=-1j, eta=0j)
    pts = sample_circle(fc, 4)
    want = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    for p, w in zip(pts, want):
        assert math.dist((p.x, p.y, p.z), w) < 1e-12


def test_radius_of_small_circles_is_exact():
    # radius |Im(xi)| = |eta|/|alpha|^2 for real alpha
    assert fibre_circle(2, 1e-13).radius == pytest.approx(2.5e-14, rel=1e-15)
    assert fibre_circle(1, 1e-3).radius == pytest.approx(1e-3, rel=1e-15)


def test_tiny_circles_are_not_taken_for_the_degenerate_case():
    # only real alpha with eta = 0 degenerates; no size threshold applies
    fc = fibre_circle(2, 1e-15)
    assert fc.radius == pytest.approx(2.5e-16, rel=1e-15)
    assert fc.normal == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    # |Im(1/alpha)| = 1e-200, whose square underflows
    fc = fibre_circle(1 + 1e-200j, 0)
    assert fc.radius == pytest.approx(1e-200, rel=1e-15)
    assert fc.normal == (0.0, 0.0, -1.0)


def test_readme_states_the_fibre_radii_as_computed():
    # README's numerical notes print these radii; each is recomputed here
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    r13, r15, r200 = (fibre_circle(alpha, eta).radius
                      for alpha, eta in ((2, 1e-13), (2, 1e-15), (1 + 1e-200j, 0)))
    assert f"a circle of radius {r13!r} (α = 2, η = 1e-13) comes out to the last bit" in text
    assert (f"circles of radius {r15!r} (α = 2, η = 1e-15) and {r200!r} "
            "(α = 1 + 1e-200i, η = 0) are kept") in text


def test_subnormal_radii_keep_a_unit_normal():
    # Im(xi) = (-1e-320, 4e-320, 0): the radius 4.123e-320 is subnormal and
    # rounded to about 1e-4, so Im(xi) over the radius is no unit vector
    fc = fibre_circle(1, 4e-320 + 1e-320j)
    assert fc.radius == pytest.approx(math.sqrt(17) * 1e-320, rel=1e-3)
    assert math.hypot(*fc.normal) == pytest.approx(1.0, abs=1e-15)
    assert fc.normal == pytest.approx((-1 / math.sqrt(17), 4 / math.sqrt(17), 0.0), abs=1e-3)


def test_a_radius_that_underflows_is_refused():
    with pytest.raises(RadiusUnderflow, match="underflows"):
        fibre_circle(1e200, 1e-200)


def test_radius_squared_is_the_exact_norm_of_im_xi():
    rng = random.Random(63)

    def gaussian_rational():
        return CScalar.exact(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    checked = 0
    while checked < 200:
        alpha, eta = gaussian_rational(), gaussian_rational()
        if alpha.is_zero():
            continue
        a2 = alpha * alpha
        xi = (-(eta / a2), CScalar.i("exact") * eta / a2, CScalar.one("exact") / alpha)
        want = sum(v.im ** 2 for v in xi)
        if want == 0:
            continue
        radius = fibre_circle(alpha, eta).radius
        assert abs(Fraction(radius) ** 2 - want) <= Fraction(1, 10**14) * want
        checked += 1


def test_minimum_sample_count():
    fc = fibre_circle(-1j, 0)
    with pytest.raises(ValueError):
        sample_circle(fc, 2)


def test_samples_satisfy_both_real_quadrics():
    rng = random.Random(60)
    for _ in range(6):
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, -0.1))
        eta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        fc = fibre_circle(alpha, eta)
        for p in sample_circle(fc, 16):
            value = fibre_equation(alpha, eta, p.x, p.y, p.z)
            assert abs(value.real) < 1e-9
            assert abs(value.imag) < 1e-9


def test_phi_constant_along_fibres():
    assert verify_fibre(-1j, fibre_circle(-1j, 0), 64) < 1e-10
    rng = random.Random(61)
    for _ in range(5):
        alpha = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        eta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        fc = fibre_circle(alpha, eta)
        pts = sample_circle(fc, 8)
        if any(p.x * p.x + p.y * p.y < 1e-6 for p in pts):
            continue  # stay clear of the axis singularity
        assert verify_fibre(alpha, fc, 64) < 1e-8


def test_fibre_value_is_twice_eta():
    # the level cut out by the quadric with parameter eta is phi = 2*eta
    fc = fibre_circle(-1j, 0.3 + 0.1j)
    for p in sample_circle(fc, 5):
        assert abs(equal_param_phi(-1j, p) - 2 * (0.3 + 0.1j)) < 1e-9


def test_verification_is_sensitive_to_off_circle_points():
    fc = fibre_circle(-1j, 0)
    pts = sample_circle(fc, 8)
    base = equal_param_phi(-1j, pts[0])
    nudged = Point3(pts[3].x + 1e-3, pts[3].y, pts[3].z)
    assert abs(equal_param_phi(-1j, nudged) - base) > 1e-6


def test_bouquet_point_satisfies_the_fibre_equation_exactly():
    rng = random.Random(62)
    for _ in range(10):
        alpha = CScalar.exact(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        eta = CScalar.exact(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        zero = CScalar.zero("exact")
        z = -(CScalar.one("exact") / alpha)
        assert fibre_equation(alpha, eta, zero, zero, z).is_zero()


def test_degenerate_configuration_is_reported():
    with pytest.raises(Degenerate):
        fibre_circle(0.5, 0)
    with pytest.raises(ValueError):
        fibre_circle(0, 1)


def test_on_axis_samples_are_refused():
    # a bouquet-adjacent circle through the axis: real alpha, tiny eta
    fc = fibre_circle(1.0, 1e-3)
    with pytest.raises(OnAxis):
        # rotate so that some sample hits the axis exactly? construct directly:
        bad = FibreCircle(center=(0.5, 0.0, -1.0), normal=(0.0, 0.0, 1.0),
                          radius=0.5, alpha=1.0, eta=1e-3 + 0j)
        verify_fibre(1.0, bad, 4)


def test_deformation_to_the_hopf_fibres():
    eta = 0.3 + 0j
    target = sample_circle(fibre_circle(-1j, eta), 64)
    dists = []
    for t in (0.2, 0.1, 0.05):
        moved = sample_circle(fibre_circle(-1j + t, eta), 64)
        dists.append(hausdorff_distance(moved, target))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.2
