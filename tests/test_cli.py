import csv
import json
import math

import pytest

from semiconformal.cli import main
from semiconformal.closed_forms import coeff_q0
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


def test_identities_fault_injection_exits_one(tmp_path):
    out = tmp_path / "identities.json"
    code = main(["identities", "--kmax", "8", "--out", str(out), "--inject-fault"])
    assert code == 1
    reports = json.loads(out.read_text())
    bad = [r for r in reports if r["status"] == "fail"]
    assert bad and bad[0]["first_failure"] is not None


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


def test_radius_hopf_has_too_few_terms(tmp_path):
    assert main(["radius", "--family", "hopf", "--out",
                 str(tmp_path / "r.json")]) == 2


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


def test_compare_non_finite_c_exits_three(tmp_path):
    out = tmp_path / "compare.json"
    for c in ("nan,0", "0,inf"):
        code = main(["compare", "--family", "q0", "--c", c, "--order", "8",
                     "--tol", "1e-10", "--out", str(out)])
        assert code == 3
    assert not out.exists()


def test_compare_non_finite_grid_exits_three(tmp_path, capsys):
    out = tmp_path / "compare.json"
    for grid in ("nan,0.1,5", "inf,0.1,5", "0.05,nan,5", "0.05,-inf,5"):
        code = main(["compare", "--family", "q0", "--c", "1,0", "--order", "8",
                     "--grid", grid, "--tol", "1e-10", "--out", str(out)])
        assert code == 3
        assert "finite umax and zmax" in capsys.readouterr().err
    assert not out.exists()


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


def test_unknown_subcommand_exits_three():
    assert main(["frobnicate"]) == 3
