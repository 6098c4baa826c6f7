"""Command-line surface: solve, eval, verify, radius, identities, fibres, compare.

All commands are batch-style: read input files, write report/output files
(atomically: temp file + rename), and exit with a stable code:
0 success, 1 identity failure, 2 domain/math error, 3 input error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
import tempfile
from math import isfinite, pi

from .closed_forms import (
    BranchCut,
    HopfFamily,
    OneParamFamily,
    ProductFamily,
    TwoParamFamily,
    closed_q0,
    closed_q1,
    coeff_q0,
    coeff_q1,
    hopf_series,
    one_param_series,
    parse_family,
    product_form_psi,
    two_param_a_k0,
)
from .convergence import InsufficientTerms, UnknownFamily, estimate_report
from .geometry import Degenerate, NoRealPoint, fibre_circle, sample_circle
from .identities import default_suite, IdentityReport
from .scalars import CScalar, MODE_EXACT, MODE_FLOAT, ModeMismatch
from .series import BiSeries
from .solver import (
    AnsatzMap,
    DegenerateData,
    OnAxis,
    OutOfDomain,
    PivotVanished,
    Point3,
    boundary_data_from_dict,
    eval_phi,
    harmonicity_residual,
    semiconformality_residual,
    solve,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_DOMAIN = 2
EXIT_INPUT = 3

_DOMAIN_ERRORS = (
    DegenerateData,
    PivotVanished,
    OverflowError,
    OnAxis,
    OutOfDomain,
    BranchCut,
    Degenerate,
    NoRealPoint,
    InsufficientTerms,
    UnknownFamily,
    ZeroDivisionError,
)


class InputError(Exception):
    pass


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str | None, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _read_grid(path: str) -> list[Point3]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["x", "y", "z"]:
        raise InputError(f"{path}: grid CSV must start with header x,y,z")
    points = []
    for idx, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            x, y, z = (float(c) for c in row[:3])
        except ValueError as exc:
            raise InputError(f"{path}:{idx}: bad coordinate row {row!r}") from exc
        points.append(Point3(x, y, z))
    if not points:
        raise InputError(f"{path}: grid holds no points")
    return points


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            value = complex(*map(float, parts))
            if cmath.isfinite(value):
                return value
    except ValueError:
        pass
    raise InputError(f"expected finite 're' or 're,im', got {text!r}")


def _load_series(path: str) -> BiSeries:
    doc = _read_json(path)
    try:
        return BiSeries.from_json_dict(doc)
    except (ValueError, TypeError, ModeMismatch) as exc:
        raise InputError(f"{path}: {exc}") from exc


# -- commands -----------------------------------------------------------------


def cmd_solve(args) -> int:
    doc = _read_json(args.input)
    try:
        bd, order = boundary_data_from_dict(doc, args.mode)
    except DegenerateData:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.order is not None:
        order = args.order
    if order < 2:
        raise InputError("solve needs order N >= 2")
    psi = solve(bd, order)
    _write_json(args.out, psi.to_json_dict())
    print(f"solved q={bd.q} to total degree {order} ({psi.n_nonzero} nonzero coefficients)")
    for degree in range(order + 1):
        row = [kl for kl in psi.support() if kl[0] + kl[1] == degree]
        if row:
            print(f"  degree {degree}: {len(row)} nonzero " + " ".join(map(str, row[:8]))
                  + (" ..." if len(row) > 8 else ""))
    return EXIT_OK


def cmd_eval(args) -> int:
    psi = _load_series(args.input)
    amap = AnsatzMap(q=args.q, psi=psi)
    points = _read_grid(args.grid)
    lines = ["x,y,z,re,im"]
    for p in points:
        value = eval_phi(amap, p).to_complex()
        lines.append(f"{p.x!r},{p.y!r},{p.z!r},{value.real!r},{value.imag!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(args.out, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (isfinite(args.h) and args.h > 0):
        raise InputError(f"--h must be a finite step > 0, got {args.h!r}")
    psi = _load_series(args.input)
    amap = AnsatzMap(q=args.q, psi=psi)
    points = _read_grid(args.grid)
    sc_values, fd_gaps, harm_values, per_point = [], [], [], []
    for p in points:
        sc = semiconformality_residual(amap, p, h=args.h)
        harm = harmonicity_residual(amap, p)
        sc_values.append(sc.analytic)
        fd_gaps.append(sc.gap)
        harm_values.append(harm)
        per_point.append(
            {
                "x": p.x,
                "y": p.y,
                "z": p.z,
                "semiconformality": sc.analytic,
                "fd_agreement_gap": sc.gap,
                "harmonicity": harm,
            }
        )
    n = len(points)
    report = {
        "points": n,
        "semiconformality": {
            "max": max(sc_values),
            "mean": sum(sc_values) / n,
        },
        "fd_agreement_gap_max": max(fd_gaps),
        "harmonicity": {
            "max": max(harm_values),
            "mean": sum(harm_values) / n,
        },
        "tolerance": args.tol,
        "within_tolerance": (args.tol is None) or (max(sc_values) < args.tol),
        "per_point": per_point,
    }
    _write_json(args.out, report)
    return EXIT_OK


def cmd_identities(args) -> int:
    psi = solve_default_identity_series()
    reports = default_suite(kmax=args.kmax, psi_exact=psi, psi_q=1)
    if args.inject_fault:
        reports.append(
            IdentityReport(
                name="fault_injection",
                range_desc="test hook",
                status="fail",
                first_failure={"index": 0, "lhs": "0", "rhs": "1"},
            )
        )
    payload = [r.to_json_dict() for r in reports]
    _write_json(args.out, payload)
    ok = True
    for r in reports:
        print(f"{r.status.upper():4s} {r.name} [{r.range_desc}]")
        if not r.ok:
            ok = False
            print(f"     first failure: {r.first_failure}")
    return EXIT_OK if ok else EXIT_IDENTITY


def solve_default_identity_series() -> BiSeries:
    """A solved exact series for the coefficient-identity check: the Hopf data."""
    from .solver import BoundaryData

    bd = BoundaryData(
        q=1,
        data=(CScalar.exact(1), CScalar.exact(0, -2), CScalar.exact(-2)),
    )
    return solve(bd, 8)


def _radius_family(args):
    if args.input:
        return parse_family(_read_json(args.input))
    if args.family is None:
        raise InputError("radius needs --family or --input descriptor")
    name = args.family
    if name in ("q0", "q1"):
        if args.c is None:
            raise InputError("one-parameter family needs --c re,im")
        return OneParamFamily(0 if name == "q0" else 1, _parse_complex(args.c))
    if name == "two_param":
        if args.alpha is None or args.beta is None:
            raise InputError("two-parameter family needs --alpha and --beta")
        return TwoParamFamily(_parse_complex(args.alpha), _parse_complex(args.beta))
    if name == "hopf":
        return HopfFamily()
    if name == "product":
        if args.c is None:
            raise InputError("product family needs --c re,im")
        b = _parse_complex(args.b) if args.b else 1 + 0j
        return ProductFamily(b, _parse_complex(args.c))
    raise InputError(f"unknown family {name!r}")


def _family_u_row(family, n: int) -> list[complex]:
    if isinstance(family, OneParamFamily):
        c = CScalar.from_complex(family.c)
        coeff = coeff_q0 if family.q == 0 else coeff_q1
        return [coeff(c, k, 0).to_complex() for k in range(n)]
    if isinstance(family, TwoParamFamily):
        a = CScalar.from_complex(family.alpha)
        b = CScalar.from_complex(family.beta)
        return [two_param_a_k0(a, b, k).to_complex() for k in range(n)]
    if isinstance(family, HopfFamily):
        return [1 + 0j, -2 + 0j] + [0j] * (n - 2)
    raise UnknownFamily(f"no coefficient table for {family!r}")


def cmd_radius(args) -> int:
    family = _radius_family(args)
    coeffs = _family_u_row(family, args.order + 1)
    report = estimate_report(family, coeffs, method=args.method)
    _write_json(args.out, report.to_json_dict())
    return EXIT_OK


def cmd_fibres(args) -> int:
    alpha = _parse_complex(args.alpha)
    eta = _parse_complex(args.eta) if args.eta else 0j
    fc = fibre_circle(alpha, eta)
    header = {
        "alpha": [alpha.real, alpha.imag],
        "eta": [eta.real, eta.imag],
        "center": list(fc.center),
        "normal": list(fc.normal),
        "radius": fc.radius,
    }
    print(json.dumps(header))
    samples = sample_circle(fc, args.samples)
    lines = ["x,y,z,theta"]
    for idx, p in enumerate(samples):
        theta = 2.0 * pi * idx / args.samples
        lines.append(f"{p.x!r},{p.y!r},{p.z!r},{theta!r}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(args.out, text)
    return EXIT_OK


def _parse_grid_spec(spec: str) -> tuple[float, float, int]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise InputError("grid spec must be 'umax,zmax,n'")
    try:
        umax, zmax, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad grid spec {spec!r}") from exc
    if not (isfinite(umax) and isfinite(zmax)):
        raise InputError(f"grid spec needs finite umax and zmax, got {spec!r}")
    if umax <= 0 or n < 2:
        raise InputError("grid spec needs umax > 0 and n >= 2")
    return umax, zmax, n


def cmd_compare(args) -> int:
    umax, zmax, n = _parse_grid_spec(args.grid)
    us = [umax * i / (n - 1) for i in range(n)]
    zs = [-zmax + 2 * zmax * i / (n - 1) for i in range(n)] if zmax > 0 else [0.0]

    if args.family in ("q0", "q1"):
        if args.c is None:
            raise InputError("compare needs --c re,im")
        cval = _parse_complex(args.c)
        q = 0 if args.family == "q0" else 1
        series = one_param_series(q, CScalar.from_complex(cval), args.order)
        if q == 0:
            closed = lambda u, z: closed_q0(cval, u, z)
            factor = 1.0
        else:
            closed = lambda u, z: closed_q1(cval, u, z)
            factor = 2.0
    elif args.family == "hopf":
        series = hopf_series(max(args.order, 2), MODE_FLOAT)
        closed = lambda u, z: 1 - 2 * u - z * z - 2j * z
        factor = 1.0
    elif args.family == "product":
        if args.c is None:
            raise InputError("compare needs --c re,im")
        cval = _parse_complex(args.c)
        bval = _parse_complex(args.b) if args.b else 1 + 0j
        series = _product_form_solved(bval, cval, args.order)
        closed = lambda u, z: product_form_psi(bval, cval, u, z)
        factor = 1.0
    else:
        raise InputError(f"compare does not support family {args.family!r}")

    max_gap, argmax = 0.0, None
    for u in us:
        for z in zs:
            gap = abs(closed(u, z) - factor * series.eval_complex(u, z))
            if gap > max_gap:
                max_gap, argmax = gap, (u, z)
    report = {
        "family": args.family,
        "order": args.order,
        "grid": {"umax": umax, "zmax": zmax, "n": n},
        "max_gap": max_gap,
        "at": argmax,
        "tolerance": args.tol,
        "within_tolerance": (args.tol is None) or (max_gap < args.tol),
    }
    _write_json(args.out, report)
    return EXIT_OK if report["within_tolerance"] else EXIT_DOMAIN


def _product_form_solved(b: complex, c: complex, order: int) -> BiSeries:
    """Solve the q=0 equation from the product form's own boundary values
    psi(0, z) = b (e/2) e^(cz); an independent cross-check of both sides."""
    from .solver import BoundaryData
    from math import e

    base = b * e / 2.0
    data = tuple(
        CScalar.from_complex(base * c**l) for l in range(order + 1)
    )
    return solve(BoundaryData(q=0, data=data), order)


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiconformal",
        description="Semi-conformal maps on 3-space from truncated power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve for psi from boundary-data JSON")
    p.add_argument("--input", required=True, help="boundary data JSON")
    p.add_argument("--out", required=True, help="coefficient JSON to write")
    p.add_argument("--mode", choices=[MODE_EXACT, MODE_FLOAT], default=MODE_EXACT)
    p.add_argument("--order", type=int, default=None, help="override order N")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate phi on a point grid")
    p.add_argument("--input", required=True, help="coefficient JSON")
    p.add_argument("--q", type=int, choices=[0, 1], required=True)
    p.add_argument("--grid", required=True, help="CSV of x,y,z points")
    p.add_argument("--out", default=None, help="CSV to write (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="residual report over a point grid")
    p.add_argument("--input", required=True, help="coefficient JSON")
    p.add_argument("--q", type=int, choices=[0, 1], required=True)
    p.add_argument("--grid", required=True, help="CSV of x,y,z points")
    p.add_argument("--out", default=None, help="JSON report (default stdout)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("radius", help="empirical vs analytic convergence radius")
    p.add_argument("--input", default=None, help="family descriptor JSON")
    p.add_argument("--family", default=None,
                   choices=["q0", "q1", "two_param", "hopf", "product"])
    p.add_argument("--c", default=None, help="re,im")
    p.add_argument("--b", default=None, help="re,im")
    p.add_argument("--alpha", default=None, help="re,im")
    p.add_argument("--beta", default=None, help="re,im")
    p.add_argument("--order", type=int, default=60, help="number of u-row terms")
    p.add_argument("--method", choices=["ratio", "root"], default="ratio")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("identities", help="run the exact identity suite")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("fibres", help="emit one fibre circle of the equal-parameter family")
    p.add_argument("--alpha", required=True, help="re,im")
    p.add_argument("--eta", default=None, help="re,im")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", default=None, help="CSV to write (default stdout)")
    p.set_defaults(func=cmd_fibres)

    p = sub.add_parser("compare", help="closed form vs truncated series on a grid")
    p.add_argument("--family", required=True, choices=["q0", "q1", "hopf", "product"])
    p.add_argument("--c", default=None, help="re,im")
    p.add_argument("--b", default=None, help="re,im")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--grid", default="0.05,0.1,5", help="umax,zmax,n")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ModeMismatch as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
