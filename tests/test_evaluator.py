"""The row-jet evaluator against references built from the public series API.

The residuals take the row values A_k(z) of psi and the column values B_l(u),
the row values of its transpose, from two Horner passes, then psi and its
u-derivatives from one pass with derivatives in u over the A_k, and its
z-derivatives from one in z over the B_l.  The references here derive each
series with ``BiSeries.diff`` and evaluate it on its own, and evaluate psi and
its columns by the plain Horner schemes written out below.
"""

import cmath
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiconformal import solver
from semiconformal.cli import main
from semiconformal.closed_forms import closed_q1, one_param_series
from semiconformal.scalars import CScalar
from semiconformal.series import _z_values, eval_rows
from semiconformal.solver import (
    AnsatzMap,
    BoundaryData,
    OnAxis,
    Point3,
    _jet,
    eval_phi,
    harmonicity_residual,
    point_residuals,
    semiconformality_residual,
    solve,
)

U_MAX, Z_MAX = 0.1, 0.3

component = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
nonzero = st.tuples(component, component).filter(lambda c: abs(complex(*c)) > 1e-3)
maps = st.builds(
    lambda q, v0, v1, extra, order: AnsatzMap(
        q=q,
        psi=solve(BoundaryData(q=q, data=tuple(
            CScalar.floating(*c) for c in (v0, v1, *extra))), order),
    ),
    st.integers(0, 1),
    nonzero,
    nonzero,
    st.lists(st.tuples(component, component), max_size=3),
    st.integers(2, 12),
)
# Points with u = r^2 / 2 in (0, U_MAX] and |z| <= Z_MAX.
points = st.builds(
    lambda r, theta, z: Point3(r * math.cos(theta), r * math.sin(theta), z),
    st.floats(0.05, math.sqrt(2 * U_MAX)),
    st.floats(0.0, 2 * math.pi),
    st.floats(-Z_MAX, Z_MAX),
)
steps = st.sampled_from([1e-5, 1e-4, 1e-3])


def horner_psi(psi, u, z):
    """psi(u, z) row by row: A_k(z) by Horner in z, then Horner in u."""
    rows = {}
    for (k, l), v in psi.items():
        rows.setdefault(k, {})[l] = v.to_complex()
    u, z = complex(u), complex(z)
    total = 0j
    for k in range(max(rows, default=-1), -1, -1):
        inner = 0j
        row = rows.get(k, {})
        for l in range(max(row, default=-1), -1, -1):
            inner = inner * z + row.get(l, 0j)
        total = total * u + inner
    return total


def horner_columns(psi, u):
    """B_l(u) = sum_k a[k,l] u^k column by column, by Horner in u."""
    cols = {}
    for (k, l), v in psi.items():
        cols.setdefault(l, {})[k] = v.to_complex()
    u = complex(u)
    values = []
    for l in range(max(cols, default=-1) + 1):
        inner = 0j
        col = cols.get(l, {})
        for k in range(max(col, default=-1), -1, -1):
            inner = inner * u + col.get(k, 0j)
        values.append(inner)
    return values


def majorant(series, u, z):
    """sum |a[k,l]| u^k |z|^l: the size of the terms a Horner pass sums."""
    return sum(abs(v.to_complex()) * u**k * abs(z) ** l for (k, l), v in series.items())


def reference(amap, p, h):
    """(phi, fd, dz, analytic, harmonicity, analytic scale, harmonicity scale)."""
    psi, q = amap.psi, amap.q
    pu, pz = psi.diff("u"), psi.diff("z")
    puu, pzz = pu.diff("u"), pz.diff("z")

    def phi(x, y, z):
        u = 0.5 * (x * x + y * y)
        value = complex(x, y) * horner_psi(psi, u, z)
        return value if q == 0 else value / u

    x, y, z = p.x, p.y, p.z
    dx = (phi(x + h, y, z) - phi(x - h, y, z)) / (2 * h)
    dy = (phi(x, y + h, z) - phi(x, y - h, z)) / (2 * h)
    dz = (phi(x, y, z + h) - phi(x, y, z - h)) / (2 * h)
    fd = abs(dx * dx + dy * dy + dz * dz)

    u = 0.5 * (x * x + y * y)
    v, vu, vz, vuu, vzz = (s.eval_complex(u, z) for s in (psi, pu, pz, puu, pzz))
    m, mu, mz, muu, mzz = (majorant(s, u, z) for s in (psi, pu, pz, puu, pzz))
    sign = 1.0 if q == 0 else -1.0
    w = complex(x, y)
    scale = w * w if q == 0 else w * w / (u * u)
    analytic = abs(2.0 * scale * (sign * v * vu + u * vu * vu + 0.5 * vz * vz))
    harm = abs(q * (q - 1) * v - 2 * (q - 1) * u * vu + u * u * vuu + 0.5 * u * vzz)
    analytic_scale = abs(2.0 * scale) * (m * mu + u * mu * mu + 0.5 * mz * mz)
    harm_scale = abs(q * (q - 1)) * m + 2 * abs(q - 1) * u * mu + u * u * muu + 0.5 * u * mzz
    return phi(x, y, z), fd, dz, analytic, harm, analytic_scale, harm_scale


@given(maps, points, steps)
def test_jet_matches_the_derived_series(amap, p, h):
    phi, fd, dz, analytic, harm, analytic_scale, harm_scale = reference(amap, p, h)
    u, z = 0.5 * (p.x * p.x + p.y * p.y), p.z
    # psi from the jet and from the plain row values: the Horner order of psi
    # is unchanged, so both equal the reference bit for bit; the column values
    # are the transpose's row values, equal to a column-by-column Horner
    _, values, columns, (v, *_) = _jet(amap, p, 2)
    assert values == amap.psi.z_values(z)
    assert columns == amap.psi.transposed().z_values(u) == horner_columns(amap.psi, u)
    assert v == eval_rows(values, complex(u)) == horner_psi(amap.psi, u, z)
    assert eval_phi(amap, p).to_complex() == phi

    sc, harmonicity = point_residuals(amap, p, h)
    # The x and y samples are the reference's bit for bit; the z samples sum
    # the columns in z, so dz may differ from the reference's by delta, the
    # rounding of two order-N Horner sums scaled by |phi/psi| / h.
    delta = ((amap.psi.trunc + 1) * 2.0**-52 * abs(complex(p.x, p.y)) / u**amap.q
             * majorant(amap.psi, u, abs(z) + h) / h)
    assert abs(sc.finite_difference - fd) <= 2 * (abs(dz) + delta) * delta
    assert abs(sc.analytic - analytic) <= 1e-15 * analytic_scale
    assert abs(harmonicity - harm) <= 1e-15 * harm_scale
    assert (sc, harmonicity) == (semiconformality_residual(amap, p, h),
                                 harmonicity_residual(amap, p))


# Row entries whose parts are often signed zeros, and real arguments that are
# often one: Horner at complex(t) then adds signed zeros that the pass over
# the parts leaves out.
part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
value_rows = st.lists(st.lists(st.builds(complex, part, part), max_size=8), max_size=6)
real_args = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
huge = st.floats(1e300, 1e308).flatmap(lambda x: st.sampled_from([x, -x]))
overflowing = st.lists(st.one_of(st.builds(complex, huge, huge), st.builds(complex, huge),
                                 st.builds(complex, st.just(0.0), huge)), min_size=2, max_size=6)


def as_pairs(rows):
    """Each row in ``_split``'s layout, (re, im, rest), from its highest
    entry down, zero or not."""
    return [(*pairs[0], pairs[1:]) for pairs in
            ([(v.real, v.imag) for v in reversed(row)] or [(0.0, 0.0)] for row in rows)]


@given(value_rows, real_args)
def test_real_values_equal_complex_horner(rows, t):
    want = _z_values(rows, complex(t), 0j)
    # over the same entries, and over the rows as the map stores them, which
    # start at their highest nonzero entry
    for got in (solver._real_values(as_pairs(rows), t),
                solver._real_values(solver._split(rows), t)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w


@given(overflowing, st.floats(1e10, 1e12).flatmap(lambda x: st.sampled_from([x, -x])))
def test_real_values_overflow_as_complex_horner(row, t):
    (want,) = _z_values([row], complex(t), 0j)
    (got,) = solver._real_values(as_pairs([row]), t)
    assert not cmath.isfinite(want) and not cmath.isfinite(got)


@pytest.mark.parametrize("direction", ["u", "z"])
def test_a_wrong_analytic_derivative_shows_in_the_fd_gap(monkeypatch, direction):
    # psi_u comes from the pass in u over the row values, psi_z from the pass
    # in z over the column values; the finite differences of phi sum the same
    # values without derivatives, so a derivative 1e-6 off must show
    bd = BoundaryData(q=0, data=(CScalar.floating(1.0), CScalar.floating(0.5, 1.0)))
    amap = AnsatzMap(q=0, psi=solve(bd, 20))
    p = Point3(0.25, 0.1, 0.15)
    clean = point_residuals(amap, p)[0].gap
    wrong_at = complex(0.5 * (p.x * p.x + p.y * p.y) if direction == "u" else p.z)
    derivatives = solver._derivatives

    def off_by_1e6(coeffs, t):
        f, f1, f2 = derivatives(coeffs, t)
        return f, f1 * (1 + 1e-6) if t == wrong_at else f1, f2

    monkeypatch.setattr(solver, "_derivatives", off_by_1e6)
    assert point_residuals(amap, p)[0].gap >= 100 * clean > 0


def test_q1_sample_on_the_axis_is_refused():
    # u = h^2 / 2 > 0 at the point itself, but the x - h sample is (0, 0, z)
    h = 1e-5
    psi = one_param_series(1, CScalar.floating(1.0), 8)
    amap = AnsatzMap(q=1, psi=psi)
    p = Point3(h, 0.0, 0.1)
    harmonicity_residual(amap, p)
    with pytest.raises(OnAxis):
        semiconformality_residual(amap, p, h)
    with pytest.raises(OnAxis):
        point_residuals(amap, p, h)


@pytest.mark.parametrize("grid", ["0.05,0.1,7", "0.08,0.25,6", "0.05,0,4"])
def test_compare_grid_equals_pointwise_eval(tmp_path, grid):
    out = tmp_path / "compare.json"
    assert main(["compare", "--family", "q1", "--c", "1,0", "--order", "20",
                 "--grid", grid, "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    umax, zmax, n = (float(part) for part in grid.split(","))
    n = int(n)
    series = one_param_series(1, CScalar.from_complex(1 + 0j), 20)
    zs = [-zmax + 2 * zmax * i / (n - 1) for i in range(n)] if zmax > 0 else [0.0]
    max_gap, at = 0.0, [0.0, zs[0]]  # ties keep the first grid point
    for u in (umax * i / (n - 1) for i in range(n)):
        for z in zs:
            gap = abs(closed_q1(1 + 0j, u, z) - 2.0 * series.eval_complex(u, z))
            if gap > max_gap:
                max_gap, at = gap, [u, z]
    assert report["max_gap"] == max_gap
    assert report["at"] == at
