import csv
import hashlib
import json
import math
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paper import scalar_to_pair
from semiconformal import cli, closed_forms, identities
from semiconformal.cli import main
from semiconformal.closed_forms import FAMILIES, coeff_q0
from semiconformal.identities import IdentityReport
from semiconformal.scalars import CScalar
from semiconformal.series import BiSeries


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def write_grid(path, points):
    lines = ["x,y,z"] + [f"{x},{y},{z}" for x, y, z in points]
    path.write_text("\n".join(lines) + "\n")


def hopf_boundary_doc(order=6):
    return {
        "q": 1,
        "order": order,
        "data": [["1", "0"], ["0", "-2"], ["-2", "0"]],
    }


def off_axis_grid(n=6):
    pts = []
    for i in range(n):
        theta = 0.5 + 0.9 * i
        r = 0.4 + 0.08 * i
        pts.append((r * math.cos(theta), r * math.sin(theta), -0.4 + 0.15 * i))
    return pts


# -- solve ------------------------------------------------------------------------


def test_solve_hopf_writes_four_coefficients(tmp_path, capsys):
    inp = tmp_path / "hopf.json"
    out = tmp_path / "coeffs.json"
    write_json(inp, hopf_boundary_doc())
    code = main(["solve", "--input", str(inp), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "exact"
    assert len(doc["coeffs"]) == 4
    series = BiSeries.from_json_dict(doc)
    assert series.coeff(1, 0) == CScalar.exact(-2)
    assert "degree 2" in capsys.readouterr().out


def test_solve_matches_the_table(tmp_path):
    inp = tmp_path / "q0.json"
    out = tmp_path / "coeffs.json"
    write_json(inp, {"q": 0, "order": 12, "data": [["1", "0"], ["1", "0"]]})
    assert main(["solve", "--input", str(inp), "--out", str(out)]) == 0
    series = BiSeries.from_json_dict(json.loads(out.read_text()))
    c = CScalar.exact(1)
    for k in range(13):
        for l in range(13 - k):
            assert series.coeff(k, l) == coeff_q0(c, k, l)


def test_solve_degenerate_data_exits_two(tmp_path):
    inp = tmp_path / "bad.json"
    out = tmp_path / "out.json"
    write_json(inp, {"q": 1, "order": 4, "data": [["1", "0"], ["0", "0"]]})
    assert main(["solve", "--input", str(inp), "--out", str(out)]) == 2


def test_solve_malformed_json_exits_three(tmp_path):
    inp = tmp_path / "bad.json"
    inp.write_text("{not json")
    assert main(["solve", "--input", str(inp), "--out", str(tmp_path / "x")]) == 3


def test_solve_non_finite_data_exits_three(tmp_path):
    inp = tmp_path / "nan.json"
    out = tmp_path / "out.json"
    write_json(inp, {"q": 0, "order": 6, "data": [["nan", "0"], ["1", "0"]]})
    assert main(["solve", "--input", str(inp), "--out", str(out), "--mode", "float"]) == 3
    assert not out.exists()


def test_solve_float_overflow_exits_two(tmp_path):
    inp = tmp_path / "huge.json"
    out = tmp_path / "out.json"
    write_json(inp, {"q": 0, "order": 6, "data": [["1", "0"], ["1e100", "0"]]})
    assert main(["solve", "--input", str(inp), "--out", str(out), "--mode", "float"]) == 2
    assert not out.exists()


def test_float_solve_answers_at_either_end_of_double_range(tmp_path, capsys):
    # psi(0,0) is scaled out of the sweep and back in, so only a coefficient
    # of psi itself outside double range is refused
    inp, out = tmp_path / "data.json", tmp_path / "out.json"
    for value in ("1e-305", "1e200"):
        write_json(inp, {"q": 0, "order": 30, "data": [[value, "0"], [value, "0"]]})
        assert main(["solve", "--input", str(inp), "--out", str(out), "--mode", "float"]) == 0
        psi = BiSeries.from_json_dict(json.loads(out.read_text()))  # refuses inf and nan
        assert psi.coeff(0, 0) == CScalar.floating(float(value))
    # data (1, 1) solve to a largest coefficient of 3.3e21 at order 30, so these to 1e200 times it
    assert max(abs(v) for _, v in psi.items()) == pytest.approx(3.3018e221, rel=1e-4)
    out.unlink()
    write_json(inp, {"q": 0, "order": 20, "data": [["1e300", "0"], ["1e300", "0"]]})
    assert main(["solve", "--input", str(inp), "--out", str(out), "--mode", "float"]) == 2
    assert "overflows double precision" in capsys.readouterr().err
    assert not out.exists()


def _series_doc(mode="float", trunc=2, entries=None):
    one = ["1", "0"] if mode == "exact" else ["1.0", "0.0"]
    return {"trunc": trunc, "mode": mode,
            "coeffs": entries or [[0, 0, *one], [0, 1, *one]]}


MALFORMED = {
    "duplicate index": ("eval", _series_doc(entries=[[0, 0, "1.0", "0.0"], [0, 1, "1.0", "0.0"],
                                                     [0, 1, "2.0", "0.0"]]), "(0, 1)"),
    "float trunc": ("eval", _series_doc(trunc=3.7), "'trunc'"),
    "bool trunc": ("eval", _series_doc(trunc=True), "'trunc'"),
    "float k": ("eval", _series_doc(entries=[[0, 0, "1.0", "0.0"], [1.0, 0, "1.0", "0.0"]]),
                "index k"),
    "bool l": ("eval", _series_doc(entries=[[0, 0, "1.0", "0.0"], [0, True, "1.0", "0.0"]]),
               "index l"),
    "nan component": ("eval", _series_doc(entries=[[0, 0, "1.0", "0.0"], [0, 1, "nan", "0.0"]]),
                      "(0, 1)"),
    "inf component": ("verify", _series_doc(entries=[[0, 0, "1.0", "0.0"], [0, 1, "inf", "0.0"]]),
                      "(0, 1)"),
    "zero denominator": ("eval", _series_doc("exact", entries=[[0, 0, "1", "0"], [0, 1, "1/0", "0"]]),
                         "(0, 1)"),
    "bool q": ("solve", {**hopf_boundary_doc(), "q": True}, "'q'"),
    "float order": ("solve", {**hopf_boundary_doc(), "order": 6.5}, "'order'"),
    "boundary zero denominator": ("solve", {"q": 0, "order": 4, "data": [["1", "0"], ["1/0", "0"]]},
                                  "'1/0'"),
    "no coeffs": ("eval", {"trunc": 2, "mode": "exact"}, "'coeffs'"),
    "unknown mode": ("verify", {"trunc": 2, "mode": "fixed", "coeffs": [[0, 0, "1", "0"]]},
                     "'fixed'"),
    "exact duplicate index": ("verify", _series_doc("exact", entries=[[0, 0, "1", "0"],
                                                                      [0, 1, "1", "0"],
                                                                      [0, 1, "2/3", "0"]]),
                              "(0, 1)"),
    "exact float trunc": ("eval", _series_doc("exact", trunc=3.7), "'trunc'"),
    "exact bool trunc": ("verify", _series_doc("exact", trunc=True), "'trunc'"),
    "exact float k": ("eval", _series_doc("exact", entries=[[0, 0, "1", "0"], [1.0, 0, "1", "0"]]),
                      "index k"),
    "exact bool l": ("verify", _series_doc("exact", entries=[[0, 0, "1", "0"], [0, True, "1", "0"]]),
                     "index l"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_three_and_name_the_field(tmp_path, capsys, case):
    command, doc, field = MALFORMED[case]
    inp, out, grid = tmp_path / "doc.json", tmp_path / "out", tmp_path / "grid.csv"
    write_json(inp, doc)
    write_grid(grid, off_axis_grid(2))
    argv = {"solve": ["solve", "--input", str(inp), "--out", str(out)],
            "eval": ["eval", "--input", str(inp), "--q", "0", "--grid", str(grid), "--out", str(out)],
            "verify": ["verify", "--input", str(inp), "--q", "0", "--grid", str(grid),
                       "--out", str(out)]}[command]
    assert main(argv) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(k for k, (command, _, _) in MALFORMED.items()
                                         if command != "solve"))
def test_malformed_series_refuse_alike_through_both_reads_and_both_commands(tmp_path, capsys,
                                                                            case):
    _, doc, _ = MALFORMED[case]
    refusals = []
    for floating in (False, True):
        with pytest.raises(ValueError) as info:
            BiSeries.from_json_dict(doc, floating=floating)
        refusals.append((type(info.value), str(info.value)))
    assert refusals[0] == refusals[1]
    inp, grid = tmp_path / "doc.json", tmp_path / "grid.csv"
    write_json(inp, doc)
    write_grid(grid, off_axis_grid(2))
    for command in ("eval", "verify"):
        assert main([command, "--input", str(inp), "--q", "0", "--grid", str(grid)]) == 3
        assert capsys.readouterr() == ("", f"input error: {inp}: {refusals[0][1]}\n")


def test_exact_file_beyond_double_range_exits_two_from_eval_and_verify(tmp_path, capsys):
    inp, grid = tmp_path / "doc.json", tmp_path / "grid.csv"
    write_json(inp, _series_doc("exact", entries=[[0, 0, "1", "0"], [0, 1, str(2**1024), "0"]]))
    write_grid(grid, off_axis_grid(2))
    for command in ("eval", "verify"):
        assert main([command, "--input", str(inp), "--q", "0", "--grid", str(grid)]) == 2
        assert capsys.readouterr() == ("", "error: integer division result too large for a float\n")


def test_solve_round_trip_is_bit_exact(tmp_path):
    inp = tmp_path / "hopf.json"
    out = tmp_path / "coeffs.json"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(out)])
    text = out.read_text()
    doc = json.loads(text)
    series = BiSeries.from_json_dict(doc)
    assert json.dumps(series.to_json_dict()) == json.dumps(doc)


# The README's Hopf solve, byte for byte: the layout of json.dumps(..., indent=2).
HOPF_COEFFS = (
    b'{\n  "trunc": 6,\n  "mode": "exact",\n  "coeffs": [\n'
    b'    [\n      0,\n      0,\n      "1",\n      "0"\n    ],\n'
    b'    [\n      0,\n      1,\n      "0",\n      "-2"\n    ],\n'
    b'    [\n      0,\n      2,\n      "-1",\n      "0"\n    ],\n'
    b'    [\n      1,\n      0,\n      "-2",\n      "0"\n    ]\n  ]\n}\n'
)


def test_solve_writes_the_pinned_layout(tmp_path):
    inp, out = tmp_path / "hopf.json", tmp_path / "coeffs.json"
    write_json(inp, hopf_boundary_doc())
    assert main(["solve", "--input", str(inp), "--out", str(out)]) == 0
    assert out.read_bytes() == HOPF_COEFFS


def random_rational_data(seed, order):
    """Seeded derivative values, every component a nonzero rational over 7,
    11 or 13, so each row-0 entry has its own denominator."""
    rng = random.Random(seed)

    def component():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.choice((7, 11, 13)))

    return [scalar_to_pair(CScalar.exact(component(), component())) for _ in range(order + 1)]


# SHA-256 of the exact solve's JSON.  The first three were pinned when each
# exact row product was three integer kernel calls, the random-rational pair
# when the forward substitution ran over powers of one common row-0
# denominator; any exact sweep must reproduce them.
EXACT_SOLVE_SHA256 = [
    ({"q": 0, "order": 24, "data": [["1", "0"], ["2/3", "1"]]},
     "77ab8d8c890940bab45746a249775978fcce627f6fbe9f25b3696d176d7d94b8"),
    ({"q": 1, "order": 24, "data": [["1", "0"], ["2/3", "1"]]},
     "1335e7126f66a4d43a33a3bf5df84206ebbada133a0df251d494fe4d873b9977"),
    ({"q": 0, "order": 20, "data": [scalar_to_pair(CScalar.exact(Fraction(2, 3), 1)**l)
                                    for l in range(21)]},
     "d04df282468d8d62c5c8f0f14b96a0f2e41a79978f0d9b583e4acd8a67bfa5a4"),
    ({"q": 0, "order": 16, "data": random_rational_data(16, 16)},
     "967ad313739debc4ec3abbf371aaba5e0a447d84e71930be2463d4a483cadb66"),
    ({"q": 1, "order": 16, "data": random_rational_data(16, 16)},
     "2546424df513b994059072a651c8909dfab39b716ac88f1351f7c9c67445f488"),
]


@pytest.mark.parametrize("doc, digest", EXACT_SOLVE_SHA256,
                         ids=["q0", "q1", "dense-q0", "random-q0", "random-q1"])
def test_exact_solve_json_is_pinned(tmp_path, capsys, doc, digest):
    inp, out = tmp_path / "data.json", tmp_path / "coeffs.json"
    write_json(inp, doc)
    assert main(["solve", "--input", str(inp), "--mode", "exact", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def float_powers(c, order):
    """Data entries c^l for l <= order, each component the double nearest
    its exact value, so the file is the same on every Python."""
    return [[repr(float(x)) for x in (v.re, v.im)] for v in (c**l for l in range(order + 1))]


# SHA-256 of the float solve's JSON, pinned while the file was still written
# through ``to_json_dict`` and the generic indented writer.
FLOAT_SOLVE_SHA256 = [
    ({"q": 0, "order": 40, "data": [["1", "0"], ["0.125", "1"]]},
     "68080b650b703e22966c028a09e5eda90b496b79b84bde1d474acc90814c6455"),
    ({"q": 1, "order": 40, "data": [["1", "0"], ["0.125", "1"]]},
     "6ced4c7178980c00e447339f57c026c662ddde019ac85889db53c8c34b73b093"),
    ({"q": 0, "order": 30, "data": float_powers(CScalar.exact(Fraction(2, 3), 1), 30)},
     "1524ee17aa42de1ed04b0aeb58177d0bab557a565fc6d0226096233a70a9ce54"),
]


@pytest.mark.parametrize("doc, digest", FLOAT_SOLVE_SHA256, ids=["q0", "q1", "dense-q0"])
def test_float_solve_json_is_pinned(tmp_path, capsys, doc, digest):
    inp, out = tmp_path / "data.json", tmp_path / "coeffs.json"
    write_json(inp, doc)
    assert main(["solve", "--input", str(inp), "--mode", "float", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of ``verify --out`` and ``eval --out`` on the exact order-24
# (1, 2/3+i) series over a fixed five-point grid, pinned when an exact file
# was read into exact storage and converted to floats after.
EXACT24_OUTPUT_SHA256 = {
    "verify": "66ab316803a8766fdb9752d2f2f21e26c6a8789ced8d2ea64a5ad6214061101e",
    "eval": "584514c54ddfc659f24adc8b2a699f55afb494d9ed2dc1e2bf7b52c0e07a20d7",
}


@pytest.mark.parametrize("command", sorted(EXACT24_OUTPUT_SHA256))
def test_exact_file_outputs_are_pinned(tmp_path, capsys, command):
    inp, coeffs, grid, out = (tmp_path / name for name in
                              ("data.json", "coeffs.json", "grid.csv", "out"))
    write_json(inp, EXACT_SOLVE_SHA256[0][0])
    assert main(["solve", "--input", str(inp), "--mode", "exact", "--out", str(coeffs)]) == 0
    write_grid(grid, off_axis_grid(5))
    argv = [command, "--input", str(coeffs), "--q", "0", "--grid", str(grid), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXACT24_OUTPUT_SHA256[command]


def test_written_files_follow_the_umask_or_keep_the_mode_they_replace(tmp_path):
    # The temp file that is renamed over the target is made 0600; that mode
    # used to reach every file the CLI wrote, new or replaced.
    inp, out = tmp_path / "hopf.json", tmp_path / "coeffs.json"
    write_json(inp, hopf_boundary_doc())
    umask = os.umask(0o022)
    try:
        assert main(["solve", "--input", str(inp), "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        out.chmod(0o640)
        assert main(["solve", "--input", str(inp), "--out", str(out), "--order", "8"]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert json.loads(out.read_text())["trunc"] == 8
    finally:
        assert os.umask(umask) == 0o022  # and the umask is left as it was
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coeffs.json", "hopf.json"]


@pytest.mark.parametrize("dangling", [False, True])
def test_out_through_a_symlink_writes_its_target(tmp_path, dangling):
    # The temp file used to be renamed over the link, which left the link a
    # regular file and its target as it was.
    inp, link, real = tmp_path / "hopf.json", tmp_path / "link.json", tmp_path / "real.json"
    write_json(inp, hopf_boundary_doc())
    if not dangling:
        real.write_text("old")
    link.symlink_to("real.json")
    assert main(["solve", "--input", str(inp), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "real.json"
    assert real.read_bytes() == HOPF_COEFFS
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hopf.json", "link.json", "real.json"]


def test_out_through_a_link_into_a_missing_directory_names_the_link(tmp_path, capsys):
    inp, link = tmp_path / "hopf.json", tmp_path / "link.json"
    write_json(inp, hopf_boundary_doc())
    link.symlink_to("missing/real.json")
    assert main(["solve", "--input", str(inp), "--out", str(link)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: [Errno ") and err.endswith(f": '{link}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hopf.json", "link.json"]


# -- the JSON writer ------------------------------------------------------------------

json_scalars = (
    st.none() | st.booleans()
    | st.integers() | st.integers(-(2**200), 2**200) | st.sampled_from([2**64, -(2**64) - 1])
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600a ') | st.characters())
)
json_keys = st.text(st.sampled_from('"\\\x01\u00e9k') | st.characters(), max_size=4)
json_trees = st.recursive(
    json_scalars | st.sampled_from([[], {}, [[]], {"": {}}, [[], {}], ()]),
    lambda children: st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(json_keys, children, max_size=5),
    max_leaves=40,
)


@given(json_trees)
@example({"a": 1, "b": [], "c": {"d": [True, None, -0.0, math.nan, -math.inf, 2**70]},
          "\u00e9\"\\\x00": (5e-324, "\x1f\U0001f600")})
def test_json_text_is_json_dumps_indent_2(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def test_json_text_refuses_what_json_dumps_refuses():
    for value in (object(), {"a": [1, {2j}]}, [b"x"]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)


def test_solve_order_overrides_the_document_and_is_refused_below_two(tmp_path, capsys):
    inp, out = tmp_path / "hopf.json", tmp_path / "coeffs.json"
    write_json(inp, hopf_boundary_doc(order=6))
    assert main(["solve", "--input", str(inp), "--out", str(out), "--order", "9"]) == 0
    assert json.loads(out.read_text())["trunc"] == 9
    assert "to total degree 9 " in capsys.readouterr().out
    out.unlink()
    assert main(["solve", "--input", str(inp), "--out", str(out), "--order", "1"]) == 3
    assert "solve needs order N >= 2" in capsys.readouterr().err
    assert not out.exists()


# An unreadable input or an unwritable output, as argv in a directory d that
# holds hopf.json (boundary data), coeffs.json (a series) and a_dir/, with the
# path, relative to d, that the error must name.
OS_ERRORS = {
    "solve input missing": ("missing.json", lambda d: ["solve", "--input", f"{d}/missing.json",
                                                       "--out", f"{d}/c.json"]),
    "eval grid missing": ("missing.csv", lambda d: ["eval", "--input", f"{d}/coeffs.json",
                                                    "--q", "0", "--grid", f"{d}/missing.csv"]),
    "solve out in a missing directory": ("missing/c.json", lambda d: [
        "solve", "--input", f"{d}/hopf.json", "--out", f"{d}/missing/c.json"]),
    "solve input a directory": ("a_dir", lambda d: ["solve", "--input", f"{d}/a_dir",
                                                    "--out", f"{d}/c.json"]),
    "eval input a directory": ("a_dir", lambda d: ["eval", "--input", f"{d}/a_dir", "--q", "1",
                                                   "--grid", f"{d}/grid.csv"]),
    "solve out an existing directory": ("a_dir", lambda d: [
        "solve", "--input", f"{d}/hopf.json", "--out", f"{d}/a_dir"]),
    "identities out in a missing directory": ("missing/r.json", lambda d: [
        "identities", "--kmax", "5", "--out", f"{d}/missing/r.json"]),
}


@pytest.mark.parametrize("case", sorted(OS_ERRORS))
def test_os_errors_exit_three_and_leave_no_temp_file(tmp_path, capsys, case):
    # An OS error used to escape as a traceback with exit 1, the code of an
    # identity failure; writing over a directory runs the temp file's cleanup.
    # The message names the user's path, not the temp file beside it.
    write_json(tmp_path / "hopf.json", hopf_boundary_doc())
    write_json(tmp_path / "coeffs.json", _series_doc())
    (tmp_path / "a_dir").mkdir()
    target, argv = OS_ERRORS[case]
    assert main(argv(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: [Errno ")
    assert err.endswith(f": '{tmp_path}/{target}'\n") and ".tmp-" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_dir", "coeffs.json", "hopf.json"]


# -- eval / verify ------------------------------------------------------------------


def test_eval_hopf_at_unit_point(tmp_path):
    inp = tmp_path / "hopf.json"
    coeffs = tmp_path / "coeffs.json"
    grid = tmp_path / "grid.csv"
    out = tmp_path / "phi.csv"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    write_grid(grid, [(1.0, 0.0, 0.0)])
    assert main(["eval", "--input", str(coeffs), "--q", "1",
                 "--grid", str(grid), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert abs(float(rows[0]["re"])) < 1e-14
    assert abs(float(rows[0]["im"])) < 1e-14


def test_eval_without_out_writes_the_csv_to_stdout(tmp_path, capsys):
    inp, coeffs, grid, out = (tmp_path / n for n in ("hopf.json", "c.json", "g.csv", "phi.csv"))
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    write_grid(grid, [(0.6, 0.3, 0.2), (-0.1, 0.4, -0.3)])
    argv = ["eval", "--input", str(coeffs), "--q", "1", "--grid", str(grid)]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("x,y,z,") and stdout == out.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "g.csv", "hopf.json", "phi.csv"]


def test_verify_hopf_grid(tmp_path):
    inp = tmp_path / "hopf.json"
    coeffs = tmp_path / "coeffs.json"
    grid = tmp_path / "grid.csv"
    report_path = tmp_path / "report.json"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    write_grid(grid, off_axis_grid())
    code = main(["verify", "--input", str(coeffs), "--q", "1",
                 "--grid", str(grid), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["points"] == 6
    assert report["semiconformality"]["max"] < 1e-12
    # the Hopf map is semi-conformal but not harmonic
    assert report["harmonicity"]["max"] > 1e-3


def test_verify_on_axis_point_exits_two(tmp_path):
    inp = tmp_path / "hopf.json"
    coeffs = tmp_path / "coeffs.json"
    grid = tmp_path / "grid.csv"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    write_grid(grid, [(0.0, 0.0, 1.0)])
    assert main(["verify", "--input", str(coeffs), "--q", "1",
                 "--grid", str(grid)]) == 2


@pytest.fixture(scope="module")
def float_order30(tmp_path_factory):
    """The float order-30 solution through the q = 0 data (1, i)."""
    root = tmp_path_factory.mktemp("order30")
    write_json(root / "bd.json", {"q": 0, "order": 30, "data": [["1.0", "0.0"], ["0.0", "1.0"]]})
    assert main(["solve", "--input", str(root / "bd.json"), "--out", str(root / "psi.json"),
                 "--mode", "float"]) == 0
    return root / "psi.json"


def test_eval_refuses_a_point_where_phi_is_not_finite(tmp_path, capsys, float_order30):
    grid, out = tmp_path / "grid.csv", tmp_path / "phi.csv"
    write_grid(grid, [(0.1, 0.1, 0.1), (1e6, 1e6, 0.1)])
    assert main(["eval", "--input", str(float_order30), "--q", "0",
                 "--grid", str(grid), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite phi ")
    assert err.endswith(" at (x, y, z) = (1000000.0, 1000000.0, 0.1)\n")
    assert not out.exists()


@pytest.mark.parametrize("points", [[(0.1, 0.1, 0.1), (1e6, 1e6, 0.1)],
                                    [(1e6, 1e6, 0.1), (0.1, 0.1, 0.1)],
                                    [(1e3, 1e3, 0.1)]])
def test_verify_refuses_a_point_with_a_non_finite_residual(tmp_path, capsys, float_order30,
                                                            points):
    # A NaN residual would be written as a NaN token (not strict JSON), and
    # max() over NaNs depends on the order of the points.
    grid, out = tmp_path / "grid.csv", tmp_path / "report.json"
    write_grid(grid, points)
    assert main(["verify", "--input", str(float_order30), "--q", "0", "--grid", str(grid),
                 "--tol", "1e-3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    x, y, z = next(p for p in points if p[0] > 1)
    assert err.startswith("error: non-finite residuals (semiconformality ")
    assert err.endswith(f" at (x, y, z) = ({x}, {y}, {z})\n")
    assert not out.exists()


def test_grid_rows_blank_ones_skipped_bad_ones_refused(tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("x,y,z\n\n0.1,0.2,0.3\n , ,\n  \n,,,\n0.4,0.5,0.6\n")
    assert cli._read_grid(str(grid)) == [cli.Point3(0.1, 0.2, 0.3), cli.Point3(0.4, 0.5, 0.6)]
    for row, line in (("0.1,0.2", 2), (" ,0.2,0.3", 2), ("0.1,0.2,0.3\n,,,5", 3),
                      ("0.1,x,0.3", 2), ("0.1,0.2,0.3,99", 2), ("0.1,0.2,0.3\n0.4,0.5,0.6,7", 3)):
        grid.write_text(f"x,y,z\n{row}\n")
        with pytest.raises(cli.InputError, match=f"grid.csv:{line}: bad coordinate row"):
            cli._read_grid(str(grid))
    for text in ("0.1,0.2,0.3\n", "x,y\n0.1,0.2\n", ""):
        grid.write_text(text)
        with pytest.raises(cli.InputError, match="grid CSV must start with header x,y,z$"):
            cli._read_grid(str(grid))


def test_verify_empty_grid_exits_three(tmp_path):
    inp = tmp_path / "hopf.json"
    coeffs = tmp_path / "coeffs.json"
    grid = tmp_path / "grid.csv"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    grid.write_text("x,y,z\n")
    assert main(["verify", "--input", str(coeffs), "--q", "1",
                 "--grid", str(grid)]) == 3


def test_verify_q0_entire_solution(tmp_path):
    inp = tmp_path / "q0.json"
    coeffs = tmp_path / "coeffs.json"
    grid = tmp_path / "grid.csv"
    report_path = tmp_path / "report.json"
    write_json(inp, {"q": 0, "order": 20, "data": [["1", "0"], ["0", "1"]]})
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    write_grid(grid, [(0.1, 0.1, 0.05), (0.15, 0.0, -0.1), (0.05, 0.2, 0.2)])
    assert main(["verify", "--input", str(coeffs), "--q", "0",
                 "--grid", str(grid), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["semiconformality"]["max"] < 1e-8
    assert report["harmonicity"]["max"] > 1e-3  # semi-conformal, not harmonic


# -- identities -----------------------------------------------------------------------


def test_identities_suite_passes(tmp_path, capsys):
    out = tmp_path / "identities.json"
    code = main(["identities", "--kmax", "12", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["status"] == "pass" for r in reports)
    assert "PASS" in capsys.readouterr().out


def test_identities_fault_injection_exits_one(tmp_path, capsys, monkeypatch):
    suite = identities.default_suite
    planted = IdentityReport(name="planted_fault", range_desc="k=0", status="fail",
                             first_failure={"index": 0, "lhs": "0", "rhs": "1"})
    monkeypatch.setattr(identities, "default_suite", lambda **kw: suite(**kw) + [planted])
    out = tmp_path / "identities.json"
    code = main(["identities", "--kmax", "8", "--out", str(out)])
    assert code == 1
    reports = json.loads(out.read_text())
    bad = [r for r in reports if r["status"] == "fail"]
    assert bad and bad[0]["first_failure"] is not None
    assert "FAIL planted_fault [k=0]" in capsys.readouterr().out


def test_identities_kmax_below_two_exits_three(tmp_path, capsys):
    # An empty range such as 1<=k<=-2 would report a vacuous PASS, and
    # --kmax 0 would silently run the default ranges.
    for kmax in ("-2", "0", "1"):
        out = tmp_path / f"identities{kmax}.json"
        assert main(["identities", "--kmax", kmax, "--out", str(out)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert "--kmax" in captured.err
        assert "PASS" not in captured.out


# -- radius ----------------------------------------------------------------------------


def test_radius_q0(tmp_path):
    out = tmp_path / "radius.json"
    code = main(["radius", "--family", "q0", "--c", "1,0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["empirical"] - 1 / 6) / (1 / 6) < 0.05
    assert report["theoretical"] == pytest.approx(1 / 6)
    assert report["method"] == "ratio"
    assert report["terms_used"] >= 8


@pytest.mark.parametrize("argv", [["radius", "--family", "q0", "--c", "x"],
                                  ["fibres", "--alpha", "x"],
                                  ["compare", "--family", "q1", "--c", "x"]])
def test_unparsable_complex_option_exits_three(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "input error: expected finite 're' or 're,im', got 'x'\n"
    assert list(tmp_path.iterdir()) == []


def test_radius_without_family_or_input_exits_three(capsys):
    assert main(["radius"]) == 3
    assert capsys.readouterr().err == "input error: radius needs --family or --input descriptor\n"


def test_radius_from_descriptor_file(tmp_path):
    desc = tmp_path / "family.json"
    out = tmp_path / "radius.json"
    write_json(desc, {"family": "two_param", "alpha": [1, 0], "beta": [0.5, 0]})
    code = main(["radius", "--input", str(desc), "--order", "60",
                 "--method", "root", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["empirical"] >= 0.5
    assert report["theoretical"] == pytest.approx(0.5)


def test_radius_hopf_has_too_few_terms(tmp_path, capsys):
    out = tmp_path / "r.json"
    equal = tmp_path / "equal.json"
    write_json(equal, {"family": "two_param", "alpha": [0.5, 0.25], "beta": [0.5, 0.25]})
    for argv in (["--family", "hopf"], ["--input", str(equal)]):
        assert main(["radius", *argv, "--out", str(out)]) == 3
        assert "polynomial" in capsys.readouterr().err
    assert not out.exists()


def test_radius_product_family_is_refused_up_front(tmp_path, capsys):
    out = tmp_path / "radius.json"
    bare, full = tmp_path / "bare.json", tmp_path / "full.json"
    write_json(bare, {"family": "product"})
    write_json(full, {"family": "product", "b": [1, 0], "c": [1, 0]})
    for argv in (["--family", "product", "--c", "1,0"], ["--family", "product"],
                 ["--input", str(bare)], ["--input", str(full)]):
        assert main(["radius", *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "product family" in err and "coefficient table" in err
    assert not out.exists()


def test_radius_descriptor_missing_a_parameter_exits_three(tmp_path, capsys):
    desc = tmp_path / "family.json"
    # a missing c, then values of c that are not a JSON array of two numbers
    # with a finite value
    for doc in ({"family": "q0"}, *({"family": "q0", "c": c}
                                    for c in (5, [1], ["x", 0], [float("nan"), 0], ["1", "2"],
                                              [1, False], [1, 0, 0], {"1": 0, "2": 0},
                                              [10 ** 400, 0]))):
        write_json(desc, doc)
        assert main(["radius", "--input", str(desc)]) == 3
        assert "'c'" in capsys.readouterr().err


def test_radius_order_too_low_for_an_estimate_exits_three(tmp_path, capsys):
    out = tmp_path / "radius.json"
    for order in ("6", "0", "-3"):
        assert main(["radius", "--family", "q0", "--c", "1,0", "--order", order,
                     "--out", str(out)]) == 3
        assert "--order" in capsys.readouterr().err
    assert not out.exists()
    assert main(["radius", "--family", "q0", "--c", "1,0", "--order", "7",
                 "--out", str(out)]) == 0


def test_radius_estimates_a_u_row_past_double_overflow(tmp_path):
    # c^(2k) passes 1e308 from term 6 on (c = 1e30) or term 2 (c = 1e100), but
    # the terms are exact and the estimate reads their logs
    out = tmp_path / "radius.json"
    for family in ("q0", "q1"):
        for c in ("1e30,0", "1e100,0"):
            assert main(["radius", "--family", family, "--c", c, "--order", "60",
                         "--out", str(out)]) == 0
            assert abs(json.loads(out.read_text())["relative_gap"]) < 0.05


def test_radius_estimates_a_u_row_past_double_underflow(tmp_path):
    # c^(2k) falls below 5e-324 from term 6 on (c = 1e-30) or term 2 (c = 1e-100)
    out = tmp_path / "radius.json"
    for family in ("q0", "q1"):
        for c in ("1e-30,0", "1e-100,0"):
            assert main(["radius", "--family", family, "--c", c, "--order", "60",
                         "--out", str(out)]) == 0
            assert abs(json.loads(out.read_text())["relative_gap"]) < 0.05


def test_radius_estimates_a_pair_whose_float_powers_would_overflow(tmp_path):
    # alpha close to -beta with mu = 1e100: (2 mu^2)^k overflows, the terms do not
    out = tmp_path / "radius.json"
    assert main(["radius", "--family", "two_param", "--alpha", "1e100,0",
                 "--beta", "-1.0000000000000002e100,0", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["relative_gap"]) < 0.05


def test_radius_outside_double_range_exits_two(tmp_path, capsys):
    # c = 1e-160: the radius 1/(6|c|^2) is about 1.7e319
    out = tmp_path / "radius.json"
    assert main(["radius", "--family", "q0", "--c", "1e-160,0", "--out", str(out)]) == 2
    assert "outside double range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", [
    ["q0", "--c", "1e200,0"],        # |c|^2 overflows
    ["q0", "--c", "1e160,0"],
    ["q1", "--c", "1e-200,0"],       # |c|^2 underflows
    ["two_param", "--alpha", "1e-200,0", "--beta", "0,0"],
])
def test_radius_bound_past_double_range_exits_two(tmp_path, capsys, family):
    # the bound reads 0.0 or inf; the estimate names the range
    out = tmp_path / "radius.json"
    assert main(["radius", "--family", *family, "--out", str(out)]) == 2
    assert "outside double range" in capsys.readouterr().err
    assert not out.exists()


def test_radius_skips_the_rounding_residue_of_exact_zeros(tmp_path):
    # alpha = 1, beta = i: every odd u-row term from k = 3 on is exactly 0,
    # and the estimate reads only the 32 nonzero terms
    out = tmp_path / "radius.json"
    assert main(["radius", "--family", "two_param", "--alpha", "1,0", "--beta", "0,1",
                 "--order", "60", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["terms_used"] == 32
    assert abs(report["relative_gap"]) < 0.05


def test_radius_input_refuses_the_options_it_would_ignore(tmp_path, capsys):
    desc, out = tmp_path / "q0.json", tmp_path / "radius.json"
    write_json(desc, {"family": "q0", "c": [1, 0]})
    for extra, option in ((["--family", "hopf", "--c", "5,0"], "--family"),
                          (["--c", "5,0"], "--c"), (["--beta", "1,0"], "--beta")):
        assert main(["radius", "--input", str(desc), *extra, "--out", str(out)]) == 3
        assert option in capsys.readouterr().err
    assert not out.exists()
    assert main(["radius", "--input", str(desc), "--out", str(out)]) == 0


def test_negative_parameters_pass_with_a_space(tmp_path, capsys):
    # argparse reads "-1,0" as an option unless its parser takes it for a number
    spaced, joined = tmp_path / "spaced.out", tmp_path / "joined.out"
    for argv in (["radius", "--family", "q0", "--c", "-1,0"],
                 ["radius", "--family", "two_param", "--alpha", "-.5,2", "--beta", "-1,-0.5"],
                 ["compare", "--family", "product", "--c", "-1,0", "--b", "-2,1"],
                 ["fibres", "--alpha", "-1,-1", "--eta", "-.5,2"]):
        assert main([*argv, "--out", str(spaced)]) == 0, argv
        equals = [f"{a}={b}" for a, b in zip(argv[1::2], argv[2::2])]
        assert main([argv[0], *equals, "--out", str(joined)]) == 0, equals
        assert spaced.read_text() == joined.read_text()
    capsys.readouterr()
    # a negative order is still a value, refused by its own message
    assert main(["radius", "--family", "q0", "--c", "-1,0", "--order", "-3"]) == 3
    assert "--order must be at least" in capsys.readouterr().err


def test_option_the_family_does_not_take_exits_three(tmp_path, capsys):
    out = tmp_path / "out.json"
    for argv, option in (
        (["radius", "--family", "q0", "--c", "1,0", "--b", "3,0"], "'b'"),
        (["radius", "--family", "q1", "--c", "1,0", "--alpha", "2,0"], "'alpha'"),
        (["compare", "--family", "hopf", "--c", "5,0"], "'c'"),
        (["compare", "--family", "q0", "--c", "1,0", "--b", "1,0"], "'b'"),
    ):
        assert main([*argv, "--out", str(out)]) == 3
        assert option in capsys.readouterr().err
    assert not out.exists()


def test_unknown_family_exits_three_and_lists_the_families(tmp_path, capsys):
    out = tmp_path / "out.json"
    for command in ("radius", "compare"):
        assert main([command, "--family", "bogus", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"input error: unknown family 'bogus': choose from {', '.join(FAMILIES)}\n"
    assert not out.exists()


def test_unknown_family_in_a_descriptor_gets_the_same_message(tmp_path, capsys):
    out, desc = tmp_path / "out.json", tmp_path / "d.json"
    desc.write_text(json.dumps({"family": "bogus"}))
    assert main(["radius", "--input", str(desc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"input error: {desc}: unknown family 'bogus': choose from {', '.join(FAMILIES)}\n"
    assert not out.exists()


_COMBINED = "cannot be combined with --input: the descriptor names the family and its parameters"
# Each refusal of a family: the descriptor (None: no --input), the rest of
# radius's argv, and the message, with {desc} for the descriptor's path.
FAMILY_REFUSALS = {
    "needs-parameter": (None, ["--family", "q0"], "the q0 family needs parameter 'c'"),
    "takes-no-parameter": ({"family": "hopf", "c": [1, 0]}, [],
                           "{desc}: the hopf family takes no parameter 'c'"),
    "family-with-input": ({"family": "q0", "c": [1, 0]}, ["--family", "q0"], "--family " + _COMBINED),
    "parameter-with-input": ({"family": "q0", "c": [1, 0]}, ["--c", "1,0"], "--c " + _COMBINED),
    "non-pair": ({"family": "q0", "c": "1,0"}, [],
                 "{desc}: parameter 'c' must be a finite pair [re, im], got '1,0'"),
    "two-character-string": ({"family": "q0", "c": "12"}, [],
                             "{desc}: parameter 'c' must be a finite pair [re, im], got '12'"),
    "bool-pair": ({"family": "q0", "c": [True, False]}, [],
                  "{desc}: parameter 'c' must be a finite pair [re, im], got [True, False]"),
    "list": ([], [], "{desc}: malformed family descriptor: "
                     "list indices must be integers or slices, not str"),
    "empty": ({}, [], "{desc}: malformed family descriptor: 'family'"),
}


@pytest.mark.parametrize("doc, argv, message", FAMILY_REFUSALS.values(), ids=list(FAMILY_REFUSALS))
def test_family_refusals_exit_three_with_their_message(tmp_path, capsys, doc, argv, message):
    desc, out = tmp_path / "d.json", tmp_path / "out.json"
    if doc is not None:
        write_json(desc, doc)
        argv = ["--input", str(desc), *argv]
    assert main(["radius", *argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "input error: " + message.format(desc=desc) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("name, params", [
    ("q0", {"c": (1.0, 0.5)}),
    ("q1", {"c": (-0.5, 0.25)}),
    ("two_param", {"alpha": (1.0, 0.0), "beta": (0.5, -0.25)}),
])
def test_descriptor_and_options_build_the_same_family(tmp_path, name, params):
    desc, from_file, from_options = (tmp_path / f for f in ("d.json", "file.json", "options.json"))
    write_json(desc, {"family": name, **{k: list(v) for k, v in params.items()}})
    options = [arg for k, (re, im) in params.items() for arg in (f"--{k}", f"{re},{im}")]
    assert main(["radius", "--input", str(desc), "--out", str(from_file)]) == 0
    assert main(["radius", "--family", name, *options, "--out", str(from_options)]) == 0
    assert from_file.read_bytes() == from_options.read_bytes()


# -- one contract for every registered family ------------------------------------------


def _valid_parameters(cls) -> list[str]:
    values = {"c": "1,0", "b": "2,0", "alpha": "1,0", "beta": "0.5,0"}
    return [arg for name in cls._fields for arg in (f"--{name}", values[name])]


@pytest.mark.parametrize("command", ["radius", "compare"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_either_runs_or_is_refused_up_front(tmp_path, capsys, name, command):
    out = tmp_path / "out.json"
    argv = [command, "--family", name, *_valid_parameters(FAMILIES[name]), "--out", str(out)]
    if command == "compare":
        argv += ["--order", "12", "--grid", "0.05,0.1,3"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 3), err
    if code == 3:
        assert not out.exists()


# -- fibres -------------------------------------------------------------------------------


def test_fibres_unit_circle(tmp_path, capsys):
    out = tmp_path / "fibre.csv"
    code = main(["fibres", "--alpha", "0,-1", "--samples", "16", "--out", str(out)])
    assert code == 0
    header = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert header["radius"] == pytest.approx(1.0, abs=1e-9)
    assert header["center"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 16
    for row in rows:
        r = math.hypot(float(row["x"]), float(row["y"]))
        assert r == pytest.approx(1.0, abs=1e-9)
        assert float(row["z"]) == pytest.approx(0.0, abs=1e-12)


def test_fibres_degenerate_exits_two(tmp_path):
    assert main(["fibres", "--alpha", "1,0", "--eta", "0,0"]) == 2


def test_fibres_radius_underflow_exits_two(tmp_path, capsys):
    # |Im(xi)| = |eta|/|alpha|^2 = 1e-600
    out = tmp_path / "fibre.csv"
    assert main(["fibres", "--alpha", "1e200,0", "--eta", "1e-200,0", "--out", str(out)]) == 2
    assert "radius underflows" in capsys.readouterr().err
    assert not out.exists()
    # alpha^2 leaves double range, but these circles do not: |eta|/|alpha|^2 =
    # 1e-150, and |Im(1/alpha)| = 5e-201 with eta/alpha^2 below the subnormals
    for alpha, eta, radius in (("1e200,0", "1e250,0", 1e-150), ("1e200,1e200", "1,0", 5e-201)):
        assert main(["fibres", "--alpha", alpha, "--eta", eta, "--out", str(out)]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["radius"] == pytest.approx(radius, rel=1e-15)
        assert all(map(math.isfinite, header["center"] + header["normal"]))
        rows = list(csv.reader(out.read_text().splitlines()[1:]))
        assert len(rows) == 64 and all(math.isfinite(float(v)) for row in rows for v in row)
    # a centre at |eta|/|alpha|^2 = 1e400 is refused before anything is printed
    out.unlink()
    assert main(["fibres", "--alpha", "1e-200,0", "--eta", "1,0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "leaves double range" in captured.err
    assert not out.exists()


def test_fibres_too_few_samples_writes_nothing(tmp_path, capsys):
    out = tmp_path / "fibre.csv"
    assert main(["fibres", "--alpha", "1,1", "--samples", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err
    assert not out.exists()


# -- compare ---------------------------------------------------------------------------------


def test_compare_q1(tmp_path):
    out = tmp_path / "compare.json"
    code = main(["compare", "--family", "q1", "--c", "1,0", "--order", "30",
                 "--grid", "0.05,0.1,5", "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["max_gap"] < 1e-10


def test_compare_q0(tmp_path):
    out = tmp_path / "compare.json"
    code = main(["compare", "--family", "q0", "--c", "1,0", "--order", "40",
                 "--grid", "0.03,0.1,4", "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["max_gap"] < 1e-10


def test_compare_product_family_against_solver(tmp_path):
    out = tmp_path / "compare.json"
    code = main(["compare", "--family", "product", "--c", "1,0", "--order", "25",
                 "--grid", "0.05,0.2,4", "--tol", "1e-8", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["max_gap"] < 1e-8


def test_compare_degenerate_parameters_exit_three(tmp_path, capsys):
    out = tmp_path / "compare.json"
    for argv in (["q0", "--c", "0,0"], ["q1", "--c", "0,0"],
                 ["product", "--c", "0,0"], ["product", "--c", "1,0", "--b", "0,0"]):
        assert main(["compare", "--family", *argv, "--order", "8", "--out", str(out)]) == 3
        assert "!= 0" in capsys.readouterr().err
    assert not out.exists()


def test_compare_negative_order_exits_three_for_every_family(tmp_path, capsys):
    out = tmp_path / "compare.json"
    for argv in (["q0", "--c", "1,0"], ["q1", "--c", "1,0"], ["hopf"],
                 ["product", "--c", "1,0"]):
        assert main(["compare", "--family", *argv, "--order", "-3", "--out", str(out)]) == 3
        assert "--order" in capsys.readouterr().err
    assert not out.exists()


def test_compare_non_finite_c_exits_three(tmp_path):
    out = tmp_path / "compare.json"
    for c in ("nan,0", "0,inf"):
        code = main(["compare", "--family", "q0", "--c", c, "--order", "8",
                     "--tol", "1e-10", "--out", str(out)])
        assert code == 3
    assert not out.exists()


def test_compare_series_overflow_exits_two(tmp_path, capsys):
    # row 1's a[1, l] ~ c^(l+2) leaves double range at l = 2: a domain error
    out = tmp_path / "compare.json"
    code = main(["compare", "--family", "q0", "--c", "1e100,0", "--order", "3",
                 "--grid", "0.001,0.01,3", "--out", str(out)])
    assert code == 2
    assert "u-row 1 overflows double precision at order 3" in capsys.readouterr().err
    assert not out.exists()


def test_compare_boundary_data_overflow_exits_two_naming_the_entry(tmp_path, capsys):
    # b (e/2) leaves double range at |b| = 1.7e308; c^2 does at c = 1e200
    out = tmp_path / "compare.json"
    for argv, entry in ((["--b", "1.7e308,0"], 0), (["--c", "1e200,0", "--order", "3"], 2)):
        argv = ["compare", "--family", "product", "--c", "1,0", *argv, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"the product family's boundary data entry {entry} leaves double range" in err
    # b (e/2) is finite at b = 1e308: not an input error, though the series overflows
    assert main(["compare", "--family", "product", "--c", "1,0", "--b", "1e308,0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: u-row")
    assert not out.exists()


COMPARED = {
    "q0": ["--c", "1,0", "--order", "40", "--grid", "0.03,0.1,4"],
    "q1": ["--c", "1,0", "--order", "30", "--grid", "0.05,0.1,5"],
    "hopf": ["--order", "6"],
    "product": ["--c", "0,1", "--order", "40", "--grid", "0.05,0.1,5"],
}


@pytest.mark.parametrize("name", sorted(COMPARED))
def test_compare_judges_the_solver(tmp_path, monkeypatch, name):
    argv = ["compare", "--family", name, *COMPARED[name], "--tol", "1e-10",
            "--out", str(tmp_path / "compare.json")]
    assert main(argv) == 0
    solve = closed_forms.solve

    def perturbed(bd, order):
        psi = solve(bd, order)
        return psi + BiSeries(psi.trunc, psi.mode, {(1, 0): CScalar.floating(1e-6)})

    monkeypatch.setattr(closed_forms, "solve", perturbed)
    assert main(argv) == 2


def test_compare_hopf_truncates_at_the_order_asked(tmp_path):
    # order 1 drops the z^2 term: the gap is |z|^2 at the grid's edge z = -0.1
    out = tmp_path / "compare.json"
    assert main(["compare", "--family", "hopf", "--order", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_gap"] == pytest.approx(0.01, rel=1e-12)
    assert report["at"] == [0.0, -0.1]


def test_compare_with_every_gap_zero_names_the_first_grid_point(tmp_path):
    # order 6 holds the whole Hopf polynomial, so max_gap 0.0 is attained at
    # every point; ties keep the first, (u, z) = (0, -zmax)
    out = tmp_path / "compare.json"
    assert main(["compare", "--family", "hopf", "--order", "6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_gap"] == 0.0
    assert report["at"] == [0.0, -0.1]


def test_radius_order_help_says_order_plus_one_terms_are_read(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    assert main(["radius", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--order ORDER highest power of u: order + 1 u-row terms are read" in text


def test_compare_non_finite_gap_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(FAMILIES["q0"], "closed", lambda self, u, z: complex(math.nan, 0.0))
    out = tmp_path / "compare.json"
    code = main(["compare", "--family", "q0", "--c", "1,0", "--order", "8",
                 "--grid", "0.05,0.1,3", "--out", str(out)])
    assert code == 2
    assert "(u, z) = (0.0, -0.1)" in capsys.readouterr().err
    assert not out.exists()


def test_compare_non_finite_grid_exits_three(tmp_path, capsys):
    out = tmp_path / "compare.json"
    for grid in ("nan,0.1,5", "inf,0.1,5", "0.05,nan,5", "0.05,-inf,5"):
        code = main(["compare", "--family", "q0", "--c", "1,0", "--order", "8",
                     "--grid", grid, "--tol", "1e-10", "--out", str(out)])
        assert code == 3
        assert "finite umax and zmax" in capsys.readouterr().err
    assert not out.exists()


def test_compare_negative_zmax_exits_three(tmp_path, capsys):
    out = tmp_path / "compare.json"
    code = main(["compare", "--family", "q1", "--c", "1,0", "--order", "8",
                 "--grid", "0.05,-0.1,5", "--out", str(out)])
    assert code == 3
    assert "zmax" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ("0.05,0.1", "grid spec must be 'umax,zmax,n'"),
    ("0.05,0.1,5,7", "grid spec must be 'umax,zmax,n'"),
    ("0.05,0.1,5.5", "bad grid spec '0.05,0.1,5.5'"),
    ("0.05,x,5", "bad grid spec '0.05,x,5'"),
    ("0,0.1,5", "grid spec needs umax > 0 and n >= 2"),
    ("0.05,0.1,1", "grid spec needs umax > 0 and n >= 2"),
])
def test_compare_malformed_grid_spec_exits_three(tmp_path, capsys, grid, message):
    out = tmp_path / "compare.json"
    assert main(["compare", "--family", "q1", "--c", "1,0", "--order", "8",
                 "--grid", grid, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_bad_tolerance_exits_three(tmp_path, capsys):
    inp = tmp_path / "hopf.json"
    coeffs = tmp_path / "coeffs.json"
    grid = tmp_path / "grid.csv"
    out = tmp_path / "report.json"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    write_grid(grid, off_axis_grid())
    capsys.readouterr()
    for tol in ("nan", "inf", "-1e-10"):
        code = main(["compare", "--family", "q1", "--c", "1,0", "--order", "8",
                     "--tol", tol, "--out", str(out)])
        assert code == 3
        assert "--tol" in capsys.readouterr().err
        code = main(["verify", "--input", str(coeffs), "--q", "1",
                     "--grid", str(grid), "--tol", tol, "--out", str(out)])
        assert code == 3
        assert "--tol" in capsys.readouterr().err
    assert not out.exists()
    # zero is a tolerance nothing meets, not an input error
    assert main(["compare", "--family", "q1", "--c", "1,0", "--order", "8",
                 "--tol", "0", "--out", str(out)]) == 2


def test_verify_bad_step_exits_three(tmp_path, capsys):
    inp = tmp_path / "hopf.json"
    coeffs = tmp_path / "coeffs.json"
    grid = tmp_path / "grid.csv"
    out = tmp_path / "report.json"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(coeffs)])
    write_grid(grid, off_axis_grid())
    capsys.readouterr()
    for h in ("0", "nan", "-1e-5", "inf"):
        code = main(["verify", "--input", str(coeffs), "--q", "1",
                     "--grid", str(grid), "--h", h, "--out", str(out)])
        assert code == 3
        assert "--h" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_only_the_core_modules():
    # solve, eval and verify need only scalars, series and solver; the other
    # four modules are imported by the commands that use them
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, semiconformal, semiconformal.cli; "
            "print(*(m for m in sys.modules if m.startswith('semiconformal.')))")
    # -B: like the rest of the suite, leave no bytecode cache under src/
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert "semiconformal.solver" in loaded
    assert not loaded & {"semiconformal.closed_forms", "semiconformal.convergence",
                         "semiconformal.geometry", "semiconformal.identities"}


def test_domain_errors_share_one_base_and_keep_their_own():
    from semiconformal.closed_forms import BranchCut
    from semiconformal.convergence import InsufficientTerms
    from semiconformal.geometry import Degenerate, RadiusUnderflow
    from semiconformal.scalars import DomainError
    from semiconformal.solver import DegenerateData, OnAxis

    for cls, base in ((DegenerateData, ValueError), (OnAxis, ValueError),
                      (BranchCut, ArithmeticError),
                      (Degenerate, ValueError), (RadiusUnderflow, ArithmeticError),
                      (InsufficientTerms, ValueError)):
        assert issubclass(cls, DomainError) and issubclass(cls, base), cls


def test_unknown_subcommand_exits_three():
    assert main(["frobnicate"]) == 3


def _parse(parser, argv, capsys):
    """(exit code or parsed options, stdout, stderr) of one parse."""
    try:
        args = parser.parse_args(argv)
        result = sorted((k, repr(v)) for k, v in vars(args).items())
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_speaks_as_the_full_parser(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    only = cli.build_parser([command])
    assert list(only._subparsers._group_actions[0].choices) == [command]
    # --help; the bare command, which lacks every required option (radius and
    # identities have none, and parse); an unknown option; a stray argument
    for argv in ([command, "--help"], [command], [command, "--bogus"],
                 [command, "--out", "o", "stray"]):
        assert _parse(cli.build_parser(argv), argv, capsys) == _parse(cli.build_parser(), argv, capsys)


def test_top_level_help_and_errors_use_the_full_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    for argv, code in (([], 3), (["-h"], 0), (["bogus"], 3)):
        want = _parse(cli.build_parser(), argv, capsys)
        assert main(argv) == code
        out = capsys.readouterr()
        assert (out.out, out.err) == want[1:]
    assert "compare" in _parse(cli.build_parser(), ["-h"], capsys)[1]
    assert "invalid choice: 'bogus'" in _parse(cli.build_parser(), ["bogus"], capsys)[2]
