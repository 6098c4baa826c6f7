import json
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paper import scalar_to_pair
from semiconformal.scalars import MODE_EXACT, MODE_FLOAT, CScalar, ModeMismatch, scalar_from_pair
from semiconformal.series import BiSeries, mul_add, mul_trunc
from semiconformal.solver import BoundaryData, solve


def exact(v, im=0):
    return CScalar.exact(v, im)


def rand_series(rng, trunc, density=0.5):
    table = {}
    for k in range(trunc + 1):
        for l in range(trunc + 1 - k):
            if rng.random() < density:
                table[(k, l)] = CScalar.exact(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
    return BiSeries(trunc, MODE_EXACT, table)


# -- construction invariants ---------------------------------------------------


def test_index_beyond_truncation_rejected():
    with pytest.raises(ValueError):
        BiSeries(2, MODE_EXACT, {(2, 1): exact(1)})


def test_mode_mixture_rejected():
    with pytest.raises(ModeMismatch):
        BiSeries(2, MODE_EXACT, {(0, 0): CScalar.floating(1.0)})


def test_zero_coefficients_are_not_stored():
    s = BiSeries(3, MODE_EXACT, {(0, 0): exact(0), (1, 1): exact(2)})
    assert s.support() == [(1, 1)]
    assert s.coeff(0, 0).is_zero()


# -- addition ---------------------------------------------------------------


def test_add_polynomials():
    one_plus_u = BiSeries(2, MODE_EXACT, {(0, 0): exact(1), (1, 0): exact(1)})
    z = BiSeries(2, MODE_EXACT, {(0, 1): exact(1)})
    total = one_plus_u + z
    assert total.support() == [(0, 0), (0, 1), (1, 0)]
    assert total.coeff(0, 1) == exact(1)


def test_add_zero_is_identity():
    rng = random.Random(11)
    s = rand_series(rng, 4)
    assert s + BiSeries(4, MODE_EXACT) == s


def test_additive_inverse_cancels():
    c = exact(0, 1)
    s = BiSeries(3, MODE_EXACT, {(0, 0): exact(1), (0, 1): c})
    assert (s + (-s)).n_nonzero == 0


def test_add_takes_min_truncation():
    a = BiSeries(5, MODE_EXACT, {(3, 2): exact(1)})
    b = BiSeries(3, MODE_EXACT, {(0, 0): exact(1)})
    total = a + b
    assert total.trunc == 3
    assert total.support() == [(0, 0)]


# -- multiplication ------------------------------------------------------------


def test_mul_polynomials():
    a = BiSeries(2, MODE_EXACT, {(0, 0): exact(1), (1, 0): exact(1)})
    b = BiSeries(2, MODE_EXACT, {(0, 0): exact(1), (0, 1): exact(1)})
    prod = a * b
    assert prod.support() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(prod.coeff(k, l) == exact(1) for k, l in prod.support())


def test_mul_identity():
    rng = random.Random(12)
    s = rand_series(rng, 5)
    one = BiSeries.constant(exact(1), 5)
    assert s * one == s


@st.composite
def kernel_case(draw):
    """Rows a and b and a nonzero starting accumulator as ``CScalar`` lists
    (exact ones with integer components, small or past 2^256 in size, and
    explicit zero entries), a weight w and a degree bound n."""
    mode = draw(st.sampled_from([MODE_EXACT, MODE_FLOAT]))
    part = (st.one_of(st.integers(-40, 40), st.integers(-2**300, 2**300))
            if mode == MODE_EXACT else row_components[MODE_FLOAT])
    entry = st.one_of(st.builds(lambda re, im: CScalar(re, im, mode), part, part),
                      st.just(CScalar.zero(mode)))
    a, b = draw(st.lists(entry, max_size=6)), draw(st.lists(entry, max_size=6))
    n = draw(st.integers(0, len(a) + len(b)))
    acc = draw(st.lists(entry, min_size=n + 1, max_size=n + 3).filter(
        lambda acc: not all(v.is_zero() for v in acc)))
    return mode, a, b, acc, n, draw(st.integers(-5, 5))


def as_parts(row, mode):
    if mode == MODE_EXACT:
        return [int(v.re) for v in row], [int(v.im) for v in row]
    return ([v.to_complex() for v in row],)


@given(kernel_case())
def test_mul_add_matches_mul_trunc_on_scalar_rows(case):
    # The kernel on parts (Gaussian-integer or complex rows) against the
    # truncated product of CScalar rows, weighted and added entry by entry.
    mode, a, b, acc, n, w = case
    product = mul_trunc(a, b, n, CScalar.zero(mode))
    want = [x + w * v for x, v in zip(acc, product)] + acc[n + 1:]
    got = as_parts(acc, mode)
    mul_add(got, as_parts(a, mode), as_parts(b, mode), n, w)
    if mode == MODE_EXACT:
        assert [CScalar.exact(x, y) for x, y in zip(*got)] == want
    else:
        assert [CScalar.from_complex(v) for v in got[0]] == want


def test_central_binomial_square_gives_powers_of_four():
    # Oracle first: plain convolution of the central binomial sequence.
    n = 10
    cb = [comb(2 * j, j) for j in range(n + 1)]
    conv = [sum(cb[i] * cb[m - i] for i in range(m + 1)) for m in range(n + 1)]
    assert conv == [4**m for m in range(n + 1)]

    s = BiSeries(n, MODE_EXACT, {(k, 0): exact(cb[k]) for k in range(n + 1)})
    square = s * s
    for m in range(n + 1):
        assert square.coeff(m, 0) == exact(conv[m])


# -- ring axioms on random series ------------------------------------------------


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(8):
        a = rand_series(rng, 8, 0.35)
        b = rand_series(rng, 8, 0.35)
        c = rand_series(rng, 8, 0.35)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- differentiation ---------------------------------------------------------------


def test_diff_term_by_term():
    c = exact(0, 1)
    s = BiSeries(3, MODE_EXACT, {(0, 0): exact(1), (0, 1): c, (1, 2): exact(1)})
    dz = s.diff("z")
    assert dz.trunc == 2
    assert dz.coeff(0, 0) == c
    assert dz.coeff(1, 1) == exact(2)


def test_diff_constant_is_zero():
    s = BiSeries.constant(exact(5), 4)
    assert s.diff("u").n_nonzero == 0


def test_diff_hopf_in_u_is_constant():
    from semiconformal.closed_forms import hopf_series

    du = hopf_series(6).diff("u")
    assert du.support() == [(0, 0)]
    assert du.coeff(0, 0) == exact(-2)


def test_diff_below_degree_zero_rejected():
    with pytest.raises(ValueError):
        BiSeries.constant(exact(1), 0).diff("u")


def test_product_rule_both_variables():
    rng = random.Random(77)
    for var in ("u", "z"):
        a = rand_series(rng, 6, 0.4)
        b = rand_series(rng, 6, 0.4)
        lhs = (a * b).diff(var)
        rhs = a.diff(var) * b + a * b.diff(var)
        common = min(lhs.trunc, rhs.trunc)
        assert lhs.truncate(common) == rhs.truncate(common)


# -- evaluation ----------------------------------------------------------------


def test_eval_hopf_at_origin():
    from semiconformal.closed_forms import hopf_series

    zero = CScalar.zero(MODE_EXACT)
    assert hopf_series(6).evaluate(zero, zero) == exact(1)


def test_eval_at_origin_returns_constant_term():
    rng = random.Random(5)
    s = rand_series(rng, 5)
    zero = CScalar.zero(MODE_EXACT)
    assert s.evaluate(zero, zero) == s.coeff(0, 0)


def test_eval_direct_substitution():
    s = BiSeries(2, MODE_EXACT, {(0, 0): exact(1), (0, 1): exact(0, 1)})
    value = s.evaluate(CScalar.zero(MODE_EXACT), exact(1))
    assert value == exact(1, 1)


def test_eval_is_ring_homomorphism_on_low_degree():
    rng = random.Random(31)
    u = CScalar.exact(Fraction(1, 3), Fraction(1, 5))
    z = CScalar.exact(Fraction(-2, 7))
    for _ in range(6):
        a = rand_series(rng, 3, 0.5)
        b = rand_series(rng, 3, 0.5)
        wide_a = BiSeries(6, MODE_EXACT, dict(a.items()))
        wide_b = BiSeries(6, MODE_EXACT, dict(b.items()))
        assert (wide_a + wide_b).evaluate(u, z) == a.evaluate(u, z) + b.evaluate(u, z)
        assert (wide_a * wide_b).evaluate(u, z) == a.evaluate(u, z) * b.evaluate(u, z)


def test_eval_mode_strictness():
    s = BiSeries.constant(exact(1), 2)
    with pytest.raises(ModeMismatch):
        s.evaluate(CScalar.floating(0.0), CScalar.floating(0.0))


# -- serialization ------------------------------------------------------------------


def test_json_round_trip_exact():
    rng = random.Random(99)
    s = rand_series(rng, 6, 0.4)
    doc = s.to_json_dict()
    assert doc["mode"] == MODE_EXACT
    assert all(isinstance(entry[2], str) for entry in doc["coeffs"])
    assert BiSeries.from_json_dict(doc) == s


def test_json_round_trip_float():
    s = BiSeries(
        2,
        MODE_FLOAT,
        {(0, 0): CScalar.floating(0.1), (1, 1): CScalar.floating(-2.5, 1e-17)},
    )
    assert BiSeries.from_json_dict(s.to_json_dict()) == s


# Large numerators and denominators; floats with subnormals and signed zeros.
json_components = {
    MODE_EXACT: st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
    MODE_FLOAT: st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
}


@st.composite
def json_series(draw):
    mode = draw(st.sampled_from([MODE_EXACT, MODE_FLOAT]))
    trunc = draw(st.integers(0, 8))
    keys = [(k, l) for k in range(trunc + 1) for l in range(trunc + 1 - k)]
    support = draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True))
    part = json_components[mode]
    return BiSeries(trunc, mode, {kl: CScalar(draw(part), draw(part), mode) for kl in support})


def bits(series):
    """Every coefficient component exactly: Fractions as they are, floats by
    their bit pattern (so -0.0 differs from 0.0)."""
    def key(x):
        return x.hex() if isinstance(x, float) else x
    return series.trunc, series.mode, {kl: (key(v.re), key(v.im)) for kl, v in series.items()}


def component_text(x) -> str:
    """A component as the writer prints it: a float's repr, a Fraction's str."""
    return repr(x) if isinstance(x, float) else str(x)


@given(json_series())
@example(BiSeries(3, MODE_FLOAT))
@example(BiSeries(3, MODE_EXACT))
@example(BiSeries(0, MODE_FLOAT))
@example(BiSeries(0, MODE_EXACT, {(0, 0): exact(-5, 3)}))
@example(BiSeries(2, MODE_FLOAT, {(0, 0): CScalar.floating(-0.0, 5e-324),
                                  (0, 2): CScalar.floating(1e300, -1e300),
                                  (1, 0): CScalar.floating(-5e-324, -0.0)}))
@example(BiSeries(3, MODE_EXACT, {(0, 0): exact(7, -12),
                                  (1, 1): exact(Fraction(-6, 4), Fraction(-5, 35)),
                                  (2, 1): exact(0, Fraction(-2, 3))}))
def test_json_round_trip_is_bit_exact(series):
    # The file's oracle is built from ``items``, not from the writer's rows.
    tree = {"trunc": series.trunc, "mode": series.mode,
            "coeffs": [[k, l, component_text(v.re), component_text(v.im)]
                       for (k, l), v in series.items()]}
    text = series.to_json_text()
    assert text == json.dumps(tree, indent=2) + "\n"
    assert tree["coeffs"] == [[k, l, *scalar_to_pair(v)] for (k, l), v in series.items()]
    back = BiSeries.from_json_dict(json.loads(text))
    assert bits(back) == bits(series)
    assert back.to_json_text() == text
    assert series.to_json_dict() == tree


def reference_load(doc):
    """The loader through ``CScalar``s: each component as ``scalar_from_pair``
    reads it, then the public constructor."""
    table = {}
    for k, l, re_s, im_s in doc["coeffs"]:
        try:
            table[(k, l)] = scalar_from_pair(re_s, im_s, doc["mode"])
        except ValueError as exc:
            raise ValueError(f"coefficient {(k, l)}: {exc}") from None
    return BiSeries(doc["trunc"], doc["mode"], table)


# Texts the writer never emits but Fraction and float accept.
LOOSE_TEXTS = {
    MODE_EXACT: ["2/4", "-6/9", "-0", "0/7", "007", "+3", " 3", "1_0", "1e3", "0.5", "-3/0004",
                 "12345678901234567890/6", "-1", "5/3"],
    MODE_FLOAT: ["0", "-0.0", "1.5", "-2e-300", "5e-324", "1e308", " 4.5 ", "1_0.5", "0.1"],
}


def test_json_loader_stores_what_the_scalar_path_stores():
    rng = random.Random(5)
    for trial in range(300):
        mode = (MODE_EXACT, MODE_FLOAT)[trial % 2]
        keys = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(0, 10))}
        texts = LOOSE_TEXTS[mode]
        doc = {"trunc": 8, "mode": mode,
               "coeffs": [[k, l, rng.choice(texts), rng.choice(texts)] for k, l in keys]}
        assert BiSeries.from_json_dict(doc) == reference_load(doc)


@pytest.mark.parametrize("re,im", [(2, 1), (2, -1), (-2, 1), (-2, -1)])
def test_json_loader_reads_exact_solutions_back(re, im):
    # psi_z(0,0) = +-2/3 +- i at order 24
    psi = solve(BoundaryData(q=0, data=(exact(1), exact(Fraction(re, 3), im))), 24)
    doc = json.loads(json.dumps(psi.to_json_dict()))
    assert BiSeries.from_json_dict(doc) == psi == reference_load(doc)


@pytest.mark.parametrize("mode,text", [
    (MODE_EXACT, "1/0"), (MODE_EXACT, "0/00"), (MODE_EXACT, "1/-2"), (MODE_EXACT, "abc"),
    (MODE_EXACT, "1.5/2"), (MODE_FLOAT, "abc"), (MODE_FLOAT, "1/2"), (MODE_FLOAT, "inf"),
])
def test_json_loader_refuses_as_the_scalar_path_does(mode, text):
    doc = {"trunc": 2, "mode": mode, "coeffs": [[0, 1, "1", "0"], [1, 0, text, "0"]]}
    with pytest.raises(ValueError) as want:
        reference_load(doc)
    with pytest.raises(ValueError) as got:
        BiSeries.from_json_dict(doc)
    assert str(got.value) == str(want.value)
    assert "(1, 0)" in str(got.value)


def test_json_schema_shape():
    s = BiSeries(2, MODE_EXACT, {(1, 1): exact(Fraction(3, 2))})
    doc = s.to_json_dict()
    assert doc == {"trunc": 2, "mode": "exact", "coeffs": [[1, 1, "3/2", "0"]]}


# -- row operations against a coefficient-dict reference -------------------------------
#
# The reference keeps a series as a dict {(k, l): CScalar} without zeros and does
# every operation coefficient by coefficient in CScalar arithmetic.  A float
# product sums in the kernel's documented order (row pairs i + j = m with i
# ascending, each pair's partial sum over z-degrees first), so floats must
# agree bit for bit.

row_components = {
    MODE_EXACT: st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    MODE_FLOAT: st.floats(-1e100, 1e100, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
}


@st.composite
def sparse_table(draw, mode, part=None):
    trunc = draw(st.integers(0, 7))
    keys = [(k, l) for k in range(trunc + 1) for l in range(trunc + 1 - k)]
    support = draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True))
    part = row_components[mode] if part is None else part
    return trunc, {kl: CScalar(draw(part), draw(part), mode) for kl in support}


@st.composite
def table_pairs(draw):
    mode = draw(st.sampled_from([MODE_EXACT, MODE_FLOAT]))
    return mode, draw(sparse_table(mode)), draw(sparse_table(mode))


def nonzero(table):
    return {kl: v for kl, v in table.items() if not v.is_zero()}


def ref_add(a, b, trunc):
    out = {kl: v for kl, v in a.items() if sum(kl) <= trunc}
    for kl, v in b.items():
        if sum(kl) <= trunc:
            out[kl] = out[kl] + v if kl in out else v
    return nonzero(out)


def ref_mul(a, b, trunc, zero):
    out = {}
    for m in range(trunc + 1):
        for l in range(trunc - m + 1):
            total = None
            for i in range(m + 1):
                terms = [a[(i, p)] * b[(m - i, l - p)] for p in range(l + 1)
                         if (i, p) in a and (m - i, l - p) in b]
                if terms:
                    partial = zero
                    for t in terms:
                        partial = partial + t
                    total = (zero if total is None else total) + partial
            if total is not None:
                out[(m, l)] = total
    return nonzero(out)


def table_bits(trunc, mode, table):
    def key(x):
        return x.hex() if isinstance(x, float) else x
    return trunc, mode, {kl: (key(v.re), key(v.im)) for kl, v in table.items()}


@given(table_pairs())
def test_row_operations_match_the_coefficient_reference(case):
    mode, (ta, a_table), (tb, b_table) = case
    a, b = BiSeries(ta, mode, a_table), BiSeries(tb, mode, b_table)
    ra, rb = nonzero(a_table), nonzero(b_table)
    zero = CScalar.zero(mode)
    trunc = min(ta, tb)
    factors = [CScalar(Fraction(3, 4), Fraction(-1, 6), mode) if mode == MODE_EXACT
               else CScalar(0.75, -0.0, mode), -3,
               Fraction(5, 7) if mode == MODE_EXACT else 2.5]
    cases = [
        (a + b, trunc, ref_add(ra, rb, trunc)),
        (a - b, trunc, ref_add(ra, {kl: -v for kl, v in rb.items()}, trunc)),
        (-a, ta, {kl: -v for kl, v in ra.items()}),
        (a * b, trunc, ref_mul(ra, rb, trunc, zero)),
        (a.shift(1, 2, ta + 1), ta + 1,
         {(k + 1, l + 2): v for (k, l), v in ra.items() if k + l + 3 <= ta + 1}),
        (a.truncate(ta // 2), ta // 2, {kl: v for kl, v in ra.items() if sum(kl) <= ta // 2}),
    ]
    for f in factors:
        scalar = f if isinstance(f, CScalar) else CScalar(f, 0, mode)
        cases.append((a.scaled(f), ta, nonzero({kl: v * scalar for kl, v in ra.items()})))
    if ta >= 1:
        cases.append((a.diff("u"), ta - 1,
                      {(k - 1, l): k * v for (k, l), v in ra.items() if k}))
        cases.append((a.diff("z"), ta - 1,
                      {(k, l - 1): l * v for (k, l), v in ra.items() if l}))
    if mode == MODE_EXACT:
        cases.append((a.to_floating(), ta,
                      nonzero({kl: v.to_floating() for kl, v in ra.items()})))
    for got, want_trunc, want in cases:
        assert bits(got) == table_bits(want_trunc, got.mode, want)
        assert BiSeries(got.trunc, got.mode, dict(got.items())) == got


# -- self-products -------------------------------------------------------------------
#
# A series times itself runs the same row-pair loop as the product of an equal
# but distinct copy, so in both modes the two agree in storage.


@given(st.sampled_from([MODE_EXACT, MODE_FLOAT]).flatmap(
    lambda mode: st.tuples(st.just(mode), sparse_table(mode))))
def test_self_product_equals_the_product_of_a_distinct_copy(case):
    mode, (trunc, table) = case
    a, copy = BiSeries(trunc, mode, table), BiSeries(trunc, mode, table)
    assert a == copy and a is not copy
    assert a * a == a * copy


def test_json_exact_components_print_as_fractions():
    values = [Fraction(0), Fraction(6, 4), Fraction(-6, 4), Fraction(8, 4), Fraction(-7)]
    s = BiSeries(4, MODE_EXACT, {(0, l): exact(v, -v / 3) for l, v in enumerate(values)})
    got = [entry[2:] for entry in s.to_json_dict()["coeffs"]]
    assert got == [[str(v), str(-v / 3)] for v in values if v]


# -- transposition ----------------------------------------------------------------


@given(st.sampled_from([MODE_EXACT, MODE_FLOAT]).flatmap(
    lambda mode: st.tuples(st.just(mode), sparse_table(mode))))
def test_transposed_swaps_the_indices(case):
    mode, (trunc, table) = case
    s = BiSeries(trunc, mode, table)
    t = s.transposed()
    assert (t.trunc, t.mode) == (trunc, mode)
    assert t.transposed() == s
    for k in range(trunc + 1):
        for l in range(trunc + 1 - k):
            assert t.coeff(l, k) == s.coeff(k, l)
    swapped = {(l, k): v for (k, l), v in s.items()}
    assert table_bits(trunc, mode, dict(t.items())) == table_bits(trunc, mode, swapped)


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
def test_transposed_handles_empty_rows_and_the_zero_series(mode):
    one, two = CScalar.one(mode), CScalar(2, 0, mode)
    # u-rows 1 and 2 are empty, and so are the transpose's rows 2 and 3
    s = BiSeries(5, mode, {(0, 0): one, (0, 4): -one, (3, 1): two})
    t = s.transposed()
    assert t == BiSeries(5, mode, {(0, 0): one, (4, 0): -one, (1, 3): two})
    assert t.transposed() == s
    zero = BiSeries(4, mode)
    assert zero.transposed() == zero


# -- the truncation bound and double range ----------------------------------------------


def test_shift_cannot_raise_the_truncation_bound():
    s = BiSeries(2, MODE_EXACT, {(0, 0): exact(1), (1, 1): exact(2), (0, 2): exact(3)})
    for raise_bound in (lambda: s.shift(0, 0, 10), lambda: s.shift(1, 2, 6), lambda: s.truncate(3)):
        with pytest.raises(ValueError, match="^cannot raise a truncation bound$"):
            raise_bound()
    # the product's own bound 2 + 1 + 2 is the highest one allowed
    t = s.shift(1, 2, 5)
    assert t.trunc == 5 and t.support() == [(1, 2), (1, 4), (2, 3)]
    assert s.shift(0, 0, 2) == s


OVERFLOW = r"^u-row \d+ overflows double precision at order \d+$"


def test_float_results_outside_double_range_are_refused():
    big = CScalar.floating(1e308)
    s = BiSeries(2, MODE_FLOAT, {(0, 0): big, (2, 0): big, (0, 2): big})
    copy = BiSeries.from_json_dict(s.to_json_dict())
    for op, row in ((lambda: s + s, 0), (lambda: s - (-s), 0), (lambda: s * s, 0),
                    (lambda: s * copy, 0), (lambda: s.diff("u"), 1), (lambda: s.diff("z"), 0),
                    (lambda: s.scaled(10.0), 0)):
        with pytest.raises(OverflowError, match=OVERFLOW) as err:
            op()
        assert str(err.value).startswith(f"u-row {row} ")
    # a shift moves entries without arithmetic, so it keeps them in range
    assert s.shift(3, 0, 5).coeff(5, 0) == big


wide_float_tables = sparse_table(MODE_FLOAT, st.floats(-1e308, 1e308))


@given(wide_float_tables, wide_float_tables, st.floats(-1e308, 1e308))
def test_float_operations_return_series_their_own_json_reads_back(a_case, b_case, f):
    (ta, a_table), (tb, b_table) = a_case, b_case
    a, b = BiSeries(ta, MODE_FLOAT, a_table), BiSeries(tb, MODE_FLOAT, b_table)
    ops = [lambda: a + b, lambda: a - b, lambda: a * b, lambda: a * a,
           lambda: a.scaled(f), lambda: a.shift(1, 2, ta + 3)]
    if ta >= 1:
        ops += [lambda: a.diff("u"), lambda: a.diff("z")]
    for op in ops:
        try:
            r = op()
        except OverflowError as exc:
            assert re.match(OVERFLOW, str(exc))
            continue
        assert BiSeries.from_json_dict(r.to_json_dict()) == r


# -- exact files read straight to floats --------------------------------------


def read_both(doc):
    """What the two reads of ``doc`` give: the exact read converted by
    ``to_floating``, and the read with ``floating``.  Each is the stored
    float rows by repr (so -0.0 differs from 0.0), or the exception's type
    and message."""
    outcomes = []
    for read in (lambda: BiSeries.from_json_dict(doc).to_floating(),
                 lambda: BiSeries.from_json_dict(doc, floating=True)):
        try:
            series = read()
        except Exception as exc:  # any refusal, compared by type and message
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((series.trunc, series.mode, repr(series._parts)))
    return outcomes


# Exact texts that round to +-0.0, to subnormals, to a double rounded at its
# last bit, and to ordinary values; explicit zeros in both modes.
EXACT_EDGE_TEXTS = ["0", "-0", "0/5", "1", "-7/3", "2/3", "5/4", "1_000/3",
                    f"1/{10**400}", f"-1/{10**400}", f"1/{2**1076}", f"-1/{2**1076}",
                    f"3/{2**1075}", f"-5/{2**1074}", f"7/{10**310}", f"-{2**1023}/3",
                    f"{2**1024 - 2**970 - 1}", f"{10**308}/7"]
FLOAT_EDGE_TEXTS = ["0.0", "-0.0", "0", "5e-324", "-5e-324", "2.2250738585072014e-308",
                    "-1e-310", "1.5", "-0.1", "1.7976931348623157e+308"]


@pytest.mark.parametrize("seed", range(12))
def test_floating_read_matches_the_exact_read_converted(seed):
    rng = random.Random(seed)
    mode = (MODE_EXACT, MODE_FLOAT)[seed % 2]
    texts = EXACT_EDGE_TEXTS if mode == MODE_EXACT else FLOAT_EDGE_TEXTS
    trunc = rng.randint(0, 9)
    keys = rng.sample([(k, l) for k in range(trunc + 1) for l in range(trunc + 1 - k)],
                      rng.randint(0, (trunc + 1) * (trunc + 2) // 2))
    doc = {"trunc": trunc, "mode": mode,
           "coeffs": [[k, l, rng.choice(texts), rng.choice(texts)] for k, l in keys]}
    plain, floating = read_both(doc)
    assert floating == plain and floating[1] == MODE_FLOAT


def test_floating_read_refuses_an_exact_component_beyond_double_range_alike():
    for text in (f"{2**1024}", f"-{10**400}/3", f"{2**1024 - 2**970}"):
        doc = {"trunc": 3, "mode": MODE_EXACT,
               "coeffs": [[0, 0, "1", "0"], [1, 2, "1/3", text], [0, 3, "0", "2"]]}
        plain, floating = read_both(doc)
        assert floating == plain == (OverflowError, "integer division result too large for a float")
    # 2**1024 - 2**970 - 1 rounds down to the largest double, so it is read
    doc = {"trunc": 0, "mode": MODE_EXACT, "coeffs": [[0, 0, f"{2**1024 - 2**970 - 1}", "0"]]}
    assert BiSeries.from_json_dict(doc, floating=True).coeff(0, 0).re == 1.7976931348623157e308


def test_floating_read_of_a_solved_table_is_its_conversion():
    psi = solve(BoundaryData(q=1, data=(exact(1), exact(Fraction(2, 3), 1), exact(0, Fraction(-5, 7)))), 20)
    doc = json.loads(json.dumps(psi.to_json_dict()))
    assert BiSeries.from_json_dict(doc, floating=True) == psi.to_floating()


def test_floating_read_sizes_rows_from_the_entries():
    # Rows sized by the bound, 2001 * 2002 / 2 entries, would take about 16 MiB.
    import tracemalloc

    doc = {"trunc": 2000, "mode": MODE_EXACT,
           "coeffs": [[0, 0, "1", "0"], [0, 2000, "2/3", "1"], [2000, 0, "-1/7", "0"]]}
    tracemalloc.start()
    try:
        series = BiSeries.from_json_dict(doc, floating=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.coeff(2000, 0) == CScalar.floating(-1 / 7)
    assert peak < 2**20
