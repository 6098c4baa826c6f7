import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semiconformal import cli, identities
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


def test_solve_round_trip_is_bit_exact(tmp_path):
    inp = tmp_path / "hopf.json"
    out = tmp_path / "coeffs.json"
    write_json(inp, hopf_boundary_doc())
    main(["solve", "--input", str(inp), "--out", str(out)])
    text = out.read_text()
    doc = json.loads(text)
    series = BiSeries.from_json_dict(doc)
    assert json.dumps(series.to_json_dict()) == json.dumps(doc)


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
    grid.write_text("x,y,z\n\n0.1,0.2,0.3\n , ,\n  \n,,,\n0.4,0.5,0.6,7\n")
    assert cli._read_grid(str(grid)) == [cli.Point3(0.1, 0.2, 0.3), cli.Point3(0.4, 0.5, 0.6)]
    for row, line in (("0.1,0.2", 2), (" ,0.2,0.3", 2), ("0.1,0.2,0.3\n,,,5", 3),
                      ("0.1,x,0.3", 2)):
        grid.write_text(f"x,y,z\n{row}\n")
        with pytest.raises(cli.InputError, match=f"grid.csv:{line}: bad coordinate row"):
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
    # a missing c, then values of c that are not a finite [re, im] pair
    for doc in ({"family": "q0"}, *({"family": "q0", "c": c}
                                    for c in (5, [1], ["x", 0], [float("nan"), 0]))):
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
    # c^(l+2k) passes the double range at coefficient (1, 2): a domain error
    out = tmp_path / "compare.json"
    code = main(["compare", "--family", "q0", "--c", "1e100,0", "--order", "3",
                 "--grid", "0.001,0.01,3", "--out", str(out)])
    assert code == 2
    assert "(1, 2)" in capsys.readouterr().err
    assert not out.exists()


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
    from semiconformal.solver import DegenerateData, OnAxis, OutOfDomain

    for cls, base in ((DegenerateData, ValueError), (OnAxis, ValueError),
                      (OutOfDomain, ValueError), (BranchCut, ArithmeticError),
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
