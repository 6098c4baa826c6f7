"""The package's value records: immutable slotted classes with field-wise
equality, hash, repr and pickling, and a package import that loads no
``dataclasses``."""

import copy
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semiconformal
from paper import (
    check_mixed_leibniz,
    two_param_a_k0,
    two_param_boundary,
    two_param_psi2,
    two_param_Q,
)
from semiconformal.closed_forms import (
    HopfFamily,
    OneParamFamily,
    ProductFamily,
    Q0Family,
    Q1Family,
    TwoParamFamily,
    coeff_q0,
    hopf_series,
    parse_family,
    u_factor_q0,
    u_factor_q1,
)
from semiconformal.convergence import RadiusEstimate
from semiconformal.geometry import FibreCircle
from semiconformal.identities import IdentityReport, check_binomial_convolution
from semiconformal.scalars import MODE_EXACT, MODE_FLOAT, CScalar, ModeMismatch, scalar_from_pair
from semiconformal.series import BiSeries
from semiconformal.solver import (
    AnsatzMap,
    BoundaryData,
    DegenerateData,
    Point3,
    SemiConformalityResidual,
    solve,
)

DATA = (CScalar.exact(1), CScalar.exact(Fraction(2, 3), 1))
PSI = solve(BoundaryData(0, DATA), 3)
FLOAT_PSI = PSI.to_floating()

# One fixed instance per record: its positional arguments, and its repr as the
# frozen dataclasses that these classes replace printed it.
CASES = {
    Point3: ((0.1, -2, 3.5), "Point3(x=0.1, y=-2, z=3.5)"),
    BoundaryData: (
        (0, list(DATA)),
        "BoundaryData(q=0, data=(CScalar(Fraction(1, 1), Fraction(0, 1), 'exact'), "
        "CScalar(Fraction(2, 3), Fraction(1, 1), 'exact')))",
    ),
    AnsatzMap: (
        (1, PSI),
        "AnsatzMap(q=1, psi=BiSeries(trunc=3, mode='exact', nnz=8))",
    ),
    SemiConformalityResidual: (
        (1e-9, 2.5e-9),
        "SemiConformalityResidual(analytic=1e-09, finite_difference=2.5e-09)",
    ),
    OneParamFamily: ((1 + 2j,), "OneParamFamily(c=(1+2j))"),
    Q0Family: ((0.5,), "Q0Family(c=0.5)"),
    Q1Family: ((-1j,), "Q1Family(c=(-0-1j))"),
    TwoParamFamily: ((1, 1j), "TwoParamFamily(alpha=1, beta=1j)"),
    HopfFamily: ((), "HopfFamily()"),
    ProductFamily: ((1, 3), "ProductFamily(c=1, b=3)"),
    RadiusEstimate: (
        (0.5, 0.25, 1.0, "root", 9),
        "RadiusEstimate(empirical=0.5, theoretical=0.25, relative_gap=1.0, method='root', "
        "terms_used=9)",
    ),
    FibreCircle: (
        ((0.0, 1.0, -0.5), (0.0, 0.0, 1.0), 0.75, 1j, 2 + 0j),
        "FibreCircle(center=(0.0, 1.0, -0.5), normal=(0.0, 0.0, 1.0), radius=0.75, "
        "alpha=1j, eta=(2+0j))",
    ),
    IdentityReport: (
        ("b", "l<=2", "fail", {"index": [1, 2], "lhs": "1", "rhs": "2"}),
        "IdentityReport(name='b', range_desc='l<=2', status='fail', "
        "first_failure={'index': [1, 2], 'lhs': '1', 'rhs': '2'})",
    ),
}
UNHASHABLE = (AnsatzMap, IdentityReport)  # a BiSeries field; a dict field


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    args, text = CASES[cls]
    rec = cls(*args)
    assert repr(rec) == text
    assert not hasattr(rec, "__dict__")
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == text

    same = cls(**dict(zip(cls._fields, args)))
    assert same == rec and not same != rec and repr(same) == text
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(same) == hash(rec)
    assert rec != tuple(args) and rec != object()
    assert rec.__eq__(tuple(args)) is NotImplemented
    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is cls and clone == rec and repr(clone) == text


def test_different_types_with_equal_fields_differ():
    assert Q0Family(1j) != Q1Family(1j) and Q0Family(1j) != OneParamFamily(1j)
    assert Q0Family(1j) == Q0Family(1j) and Q0Family(1j) != Q0Family(2j)
    assert IdentityReport("a", "k", "pass") != IdentityReport("a", "k", "fail")
    assert {HopfFamily(), HopfFamily()} == {HopfFamily()}


def test_defaults():
    assert IdentityReport("a", "k<=3", "pass").first_failure is None
    assert repr(IdentityReport("a", "k<=3", "pass")) == (
        "IdentityReport(name='a', range_desc='k<=3', status='pass', first_failure=None)")
    assert ProductFamily(2j) == ProductFamily(c=2j, b=1 + 0j)
    assert repr(ProductFamily(2j)) == "ProductFamily(c=2j, b=(1+0j))"
    assert BoundaryData(q=1, data=DATA).data == DATA


@pytest.mark.parametrize("build, exc, message", [
    (lambda: Point3(0.0, math.nan, 1.0), ValueError, "non-finite coordinate y=nan"),
    (lambda: Point3(0.0, 0.0, "1"), ValueError, "non-finite coordinate z='1'"),
    (lambda: BoundaryData(2, DATA), ValueError, "exponent q must be 0 or 1, got 2"),
    (lambda: BoundaryData(0, (CScalar.exact(0), DATA[1])), DegenerateData,
     "psi(0,0) must be nonzero"),
    (lambda: OneParamFamily(0j), ValueError, "one-parameter family needs c != 0"),
    (lambda: Q1Family(c=0), ValueError, "one-parameter family needs c != 0"),
    (lambda: TwoParamFamily(1 + 1j, -1 - 1j), ValueError,
     "two-parameter family needs alpha + beta != 0"),
    (lambda: ProductFamily(1j, b=0), ValueError, "product family needs b != 0 and c != 0"),
    (lambda: BiSeries(2, "fixed"), ValueError, "unknown scalar mode 'fixed'"),
    (lambda: BiSeries(2, MODE_EXACT, {(-1, 0): DATA[0]}), ValueError, "negative index (-1,0)"),
    (lambda: BiSeries(2, MODE_EXACT, {(0, 0): 1}), TypeError, "coefficients must be CScalar"),
    (lambda: BiSeries(2, MODE_EXACT, {(0, 0): CScalar.floating(1.0)}), ModeMismatch,
     "float coefficient in a exact series"),
    (lambda: FLOAT_PSI.scaled(Fraction(1, 2)), ModeMismatch,
     "cannot scale a float series by Fraction"),
    (lambda: PSI.diff("x"), ValueError, "unknown variable 'x'"),
    (lambda: PSI.shift(-1, 0, 3), ValueError, "negative shift (-1,0)"),
    (lambda: BiSeries.from_json_dict({"trunc": 2, "mode": MODE_EXACT}), ValueError,
     "malformed series document: 'coeffs'"),
    (lambda: BoundaryData(0, (DATA[0], 1)), TypeError, "boundary data entries must be CScalar"),
    (lambda: BoundaryData(0, (1, DATA[1])), TypeError, "boundary data entries must be CScalar"),
    (lambda: BoundaryData(0, (DATA[0], CScalar.floating(1.0))), ModeMismatch,
     "boundary data mixes scalar modes"),
    (lambda: hopf_series(1), ValueError, "the Hopf polynomial has total degree 2"),
    (lambda: u_factor_q0(-1), ValueError, "k must be non-negative"),
    (lambda: two_param_Q(DATA[0], DATA[1], 1), ValueError, "Q is defined for k >= 2"),
    (lambda: check_binomial_convolution("third", 5), ValueError,
     "unknown convolution identity 'third'"),
    (lambda: check_mixed_leibniz(0, 0, FLOAT_PSI, FLOAT_PSI), ModeMismatch,
     "Leibniz check requires exact mode"),
    (lambda: parse_family([]), ValueError,
     "malformed family descriptor: list indices must be integers or slices, not str"),
    # Each of the rows below carries an id, as some share a message with a row above.
    pytest.param(lambda: PSI.shift(1.0, 0, 7), ValueError, "shift (1.0,0) must be by integers",
                 id="shift-float-dk"),
    pytest.param(lambda: PSI.shift(0, 1.0, 7), ValueError, "shift (0,1.0) must be by integers",
                 id="shift-float-dl"),
    pytest.param(lambda: PSI.shift(True, 0, 7), ValueError, "shift (True,0) must be by integers",
                 id="shift-bool-dk"),
    pytest.param(lambda: PSI.shift(0, False, 6), ValueError,
                 "shift (0,False) must be by integers", id="shift-bool-dl"),
    pytest.param(lambda: PSI + FLOAT_PSI, ModeMismatch, "cannot combine exact and float series",
                 id="add-across-modes"),
    pytest.param(lambda: PSI * FLOAT_PSI, ModeMismatch, "cannot combine exact and float series",
                 id="mul-across-modes"),
    pytest.param(lambda: PSI.scaled(CScalar.floating(2.0)), ModeMismatch,
                 "cannot scale a exact series by a float scalar", id="scaled-across-modes"),
    pytest.param(lambda: BiSeries.from_json_dict(
        {"trunc": 2, "mode": "fixed", "coeffs": [[0, 0, "1", "0"]]}), ValueError,
        "coefficient (0, 0): unknown scalar mode 'fixed'", id="from_json_dict-unknown-mode"),
    pytest.param(lambda: scalar_from_pair("1", "0", "fixed"), ValueError,
                 "unknown scalar mode 'fixed'", id="scalar_from_pair-unknown-mode"),
    pytest.param(lambda: CScalar(1, 0, "fixed"), ValueError, "unknown scalar mode 'fixed'",
                 id="cscalar-unknown-mode"),
    pytest.param(lambda: CScalar(Fraction(1, 2), 0, MODE_FLOAT), ModeMismatch,
                 "Fraction component rejected in floating mode", id="fraction-in-float-mode"),
    pytest.param(lambda: CScalar.floating(Fraction(1, 3)), ModeMismatch,
                 "Fraction component rejected in floating mode", id="floating-fraction-re"),
    pytest.param(lambda: CScalar.floating(0.5, Fraction(1, 3)), ModeMismatch,
                 "Fraction component rejected in floating mode", id="floating-fraction-im"),
    pytest.param(lambda: DATA[1] * 1j, ModeMismatch, "complex operand requires floating mode",
                 id="complex-operand-in-exact-mode"),
    pytest.param(lambda: u_factor_q1(-1), ValueError, "k must be non-negative",
                 id="u_factor_q1-negative"),
    pytest.param(lambda: coeff_q0(DATA[1], -1, 0), ValueError, "indices must be non-negative",
                 id="coeff_q0-negative"),
    pytest.param(lambda: two_param_psi2(DATA[0], DATA[1], -1), ValueError,
                 "l must be non-negative", id="two_param_psi2-negative"),
    pytest.param(lambda: two_param_a_k0(DATA[0], DATA[1], -1), ValueError,
                 "k must be non-negative", id="two_param_a_k0-negative"),
    pytest.param(lambda: two_param_boundary(DATA[1], -DATA[1]), ValueError,
                 "two-parameter family needs alpha + beta != 0", id="two_param_boundary-sum-zero"),
    pytest.param(lambda: check_mixed_leibniz(3, 4, PSI, PSI), ValueError,
                 "requested order exceeds the product truncation", id="leibniz-above-bound"),
])
def test_validation_keeps_type_and_message(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc and str(info.value) == message


def test_ansatz_map_equality_and_repr_ignore_its_float_copies():
    a, b = AnsatzMap(0, PSI), AnsatzMap(0, PSI)
    object.__setattr__(b, "_rows", None)
    object.__setattr__(b, "_cols", None)
    assert a == b and repr(a) == repr(b)
    assert "_rows" not in repr(a) and "_cols" not in repr(a)
    assert a != AnsatzMap(1, PSI)


def test_package_import_loads_no_dataclasses():
    src = Path(semiconformal.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, semiconformal, semiconformal.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -B: like the rest of the suite, leave no bytecode cache under src/
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
    package = Path(semiconformal.__file__).parent
    assert [p.name for p in package.glob("*.py") if "dataclass" in p.read_text()] == []
