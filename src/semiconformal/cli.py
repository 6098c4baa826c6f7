"""Command-line surface: solve, eval, verify, radius, identities, fibres, compare.

All commands are batch-style: read input files, write report/output files
(atomically: temp file + rename), and exit with a stable code:
0 success, 1 identity failure, 2 domain/math error, 3 input error (an
unreadable input or an unwritable output included).

Each command runs in a fresh interpreter, so this module imports only the
core (``scalars``, ``series``, ``solver``) that ``solve``, ``eval`` and
``verify`` run on; ``closed_forms``, ``convergence``, ``geometry`` and
``identities`` are imported by the commands that use them, when they run.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import marshal
import os
import re
import stat
import sys
import tempfile
from itertools import groupby, zip_longest
from json.encoder import encode_basestring_ascii as _quote
from math import fsum, isfinite, pi

from .scalars import MODE_EXACT, MODE_FLOAT, DomainError, ModeMismatch
from .series import BiSeries, eval_rows
from .solver import AnsatzMap, Point3, boundary_data_from_dict, eval_phi, point_residuals, solve

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_DOMAIN = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


def _write_atomic(path: str, text: str):
    """Write through a temp file beside the file ``path`` resolves to (a
    symlink stays a link to it), which is removed on failure; an OS error
    names ``path``, not the temp file.  The file keeps the mode of the one it
    replaces, or gets 0o666 less the umask, as ``open`` would give."""
    target = os.path.realpath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-", text=True)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _float_text(x: float) -> str:
    if x - x == 0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_CONSTANTS = {True: "true", False: "false", None: "null"}
# Each scalar type's JSON text, as ``json.dumps`` writes it.
_SCALARS = {str: _quote, int: int.__repr__, float: _float_text,
            bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__}


def _json_text(obj, indent: str = "\n") -> str:
    """What ``json.dumps`` writes with an indent of two spaces, byte for byte,
    for a tree of dicts with string keys, lists, tuples, strings, ints,
    floats, bools and None.  It joins a container of scalars in one pass,
    where the standard library runs its pure-Python encoder for any
    indented dump."""
    kind = type(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        if kind not in _SCALARS:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return _SCALARS[kind](obj)
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    values = obj.values() if kind is dict else obj
    try:
        items = [_SCALARS[type(v)](v) for v in values]
    except KeyError:  # a container among the values
        items = [_json_text(v, inner) for v in values]
    if kind is dict:
        items = [_quote(k) + ": " + v for k, v in zip(obj, items)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _write_json(path: str | None, payload) -> None:
    _write_text(path, _json_text(payload) + "\n")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _read_grid(path: str) -> list[Point3]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or [c.strip() for c in rows[0]] != ["x", "y", "z"]:
        raise InputError(f"{path}: grid CSV must start with header x,y,z")
    points = []
    for idx, row in enumerate(rows[1:], start=2):
        try:
            x, y, z = map(float, row)
        except ValueError as exc:
            if not "".join(row).strip():
                continue  # a blank or whitespace-only row
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


def _check_tol(tol: float | None) -> None:
    if tol is not None and not (isfinite(tol) and tol >= 0):
        raise InputError(f"--tol must be a finite tolerance >= 0, got {tol!r}")


def _load_series(path: str) -> BiSeries:
    """The float series of a coefficient file: an exact one is read straight
    into floats (``BiSeries.from_json_dict``'s ``floating``), as ``eval`` and
    ``verify`` evaluate in floats only."""
    doc = _read_json(path)
    try:
        return BiSeries.from_json_dict(doc, floating=True)
    except (ValueError, TypeError, ModeMismatch) as exc:
        raise InputError(f"{path}: {exc}") from exc


# -- commands -----------------------------------------------------------------


def cmd_solve(args) -> int:
    bd, order = boundary_data_from_dict(_read_json(args.input), args.mode)
    if args.order is not None:
        order = args.order
    if order < 2:
        raise InputError("solve needs order N >= 2")
    psi = solve(bd, order)
    _write_text(args.out, psi.to_json_text())
    support = psi.support()
    print(f"solved q={bd.q} to total degree {order} ({len(support)} nonzero coefficients)")
    for degree, shell in groupby(sorted(support, key=sum), key=sum):
        row = list(shell)
        print(f"  degree {degree}: {len(row)} nonzero " + " ".join(map(str, row[:8]))
              + (" ..." if len(row) > 8 else ""))
    return EXIT_OK


# Points per forked worker, at least.  One fork with its pipe and waitpid
# costs about 1.5 ms (best of 50, an 18 MiB process, 2-CPU Xeon host), the
# time of about 13 verify points or 35 eval points at order 30, so a smaller
# share would not pay.
_POINTS_PER_WORKER = 64


def _fork_worker(f, chunk: list):
    """Fork a child that sends ``marshal.dumps([f(p) for p in chunk])`` through
    a pipe; (pid, the pipe's read end as a binary file)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        # The child never returns or raises into the caller: it leaves by
        # os._exit (1 on any exception), which runs no atexit hook, finalizer
        # or buffer flush, as the files and output it shares are the parent's.
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps([f(p) for p in chunk]))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _map_points(f, points: list) -> list:
    """``[f(p) for p in points]``, with the points cut into contiguous chunks,
    one per CPU this process may run on and at most one per
    ``_POINTS_PER_WORKER`` points.  Forked children compute all chunks but the
    first, which the parent computes meanwhile; ``f`` must return values that
    ``marshal`` carries.  A chunk whose child failed, or could not be forked,
    is computed again in process, so the first point that raises does so
    here, as in the plain loop.  On any exception the children are killed;
    every child is reaped before the call ends."""
    parallel = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(os.sched_getaffinity(0)) if parallel else 1,
                  len(points) // _POINTS_PER_WORKER)
    if workers < 2:
        return [f(p) for p in points]
    cuts = [len(points) * i // workers for i in range(workers + 1)]
    chunks = [points[a:b] for a, b in zip(cuts, cuts[1:])]
    children, blobs, statuses, done = [], [], [], False
    try:
        for chunk in chunks[1:]:
            try:
                children.append(_fork_worker(f, chunk))
            except OSError:
                break  # no process or pipe to spare: the rest runs here
        results = [f(p) for p in chunks[0]]
        for _, pipe in children:
            with pipe:
                blobs.append(pipe.read())
        done = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, 9)  # SIGKILL
            statuses.append(os.waitpid(pid, 0)[1])
    for chunk, status, blob in zip_longest(chunks[1:], statuses, blobs):
        results += marshal.loads(blob) if status == 0 else [f(p) for p in chunk]
    return results


def cmd_eval(args) -> int:
    """phi at each grid point, one CSV line per point; a point where phi is
    not finite is refused.  An exact coefficient file is read straight to
    floats, each entry correctly rounded.  A grid of at least 128 points is
    spread over the CPUs the process may run on (``_map_points``); the output
    is the same."""
    amap = AnsatzMap(q=args.q, psi=_load_series(args.input))
    points = _read_grid(args.grid)

    def line(p):
        value = eval_phi(amap, p).to_complex()
        if not cmath.isfinite(value):
            raise OverflowError(f"non-finite phi {value} at (x, y, z) = ({p.x}, {p.y}, {p.z})")
        return f"{p.x!r},{p.y!r},{p.z!r},{value.real!r},{value.imag!r}"

    _write_text(args.out, "\n".join(["x,y,z,re,im", *_map_points(line, points)]) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    """The semi-conformality and harmonicity residuals at each grid point,
    with their maxima and means; a point where one of the three values is not
    finite is refused.  An exact coefficient file is read straight to floats,
    each entry correctly rounded.  A grid of at least 128 points is spread
    over the CPUs the process may run on (``_map_points``); the report is the
    same."""
    if not (isfinite(args.h) and args.h > 0):
        raise InputError(f"--h must be a finite step > 0, got {args.h!r}")
    _check_tol(args.tol)
    amap = AnsatzMap(q=args.q, psi=_load_series(args.input))
    points = _read_grid(args.grid)

    def residuals(p):
        sc, harm = point_residuals(amap, p, h=args.h)
        if not (isfinite(sc.analytic) and isfinite(sc.gap) and isfinite(harm)):
            raise OverflowError(f"non-finite residuals (semiconformality {sc.analytic}, "
                                f"fd agreement gap {sc.gap}, harmonicity {harm}) "
                                f"at (x, y, z) = ({p.x}, {p.y}, {p.z})")
        return sc.analytic, sc.gap, harm

    sc_values, fd_gaps, harm_values, per_point = [], [], [], []
    for p, (analytic, gap, harm) in zip(points, _map_points(residuals, points)):
        sc_values.append(analytic)
        fd_gaps.append(gap)
        harm_values.append(harm)
        per_point.append(
            {
                "x": p.x,
                "y": p.y,
                "z": p.z,
                "semiconformality": analytic,
                "fd_agreement_gap": gap,
                "harmonicity": harm,
            }
        )
    n = len(points)
    report = {
        "points": n,
        "semiconformality": {
            "max": max(sc_values),
            "mean": fsum(sc_values) / n,
        },
        "fd_agreement_gap_max": max(fd_gaps),
        "harmonicity": {
            "max": max(harm_values),
            "mean": fsum(harm_values) / n,
        },
        "tolerance": args.tol,
        "within_tolerance": (args.tol is None) or (max(sc_values) < args.tol),
        "per_point": per_point,
    }
    _write_json(args.out, report)
    return EXIT_OK


def cmd_identities(args) -> int:
    from .identities import default_suite

    if args.kmax is not None and args.kmax < 2:
        raise InputError(f"--kmax must be at least 2, got {args.kmax}")
    reports = default_suite(kmax=args.kmax)
    payload = [r.to_json_dict() for r in reports]
    _write_json(args.out, payload)
    ok = True
    for r in reports:
        print(f"{r.status.upper():4s} {r.name} [{r.range_desc}]")
        if not r.ok:
            ok = False
            print(f"     first failure: {r.first_failure}")
    return EXIT_OK if ok else EXIT_IDENTITY


def _family(args, needs: tuple[str, ...], lacks: str):
    """Build the family a command asks for with ``parse_family``, from the
    --input descriptor or from --family and the option of each parameter's
    name.  A family class without the methods in ``needs`` (it ``lacks`` what
    they give) is refused before any parameter is read."""
    from .closed_forms import FAMILIES, _pair_to_complex, parse_family

    parameters = sorted({name for cls in FAMILIES.values() for name in cls._fields})
    path = getattr(args, "input", None)
    if path:
        ignored = [f"--{k}" for k in ("family", *parameters) if getattr(args, k, None) is not None]
        if ignored:
            raise InputError(f"{ignored[0]} cannot be combined with --input: "
                             "the descriptor names the family and its parameters")
        doc, source, parse = _read_json(path), f"{path}: ", _pair_to_complex
    elif args.family is None:
        raise InputError(f"{args.command} needs --family or --input descriptor")
    else:
        doc = {"family": args.family, **{k: getattr(args, k) for k in parameters
                                         if getattr(args, k, None) is not None}}
        source, parse = "", lambda key, text: _parse_complex(text)
    name = doc.get("family") if isinstance(doc, dict) else None
    cls = FAMILIES.get(name) if isinstance(name, str) else None
    if cls is not None and not all(hasattr(cls, method) for method in needs):
        raise InputError(f"{args.command} does not support the {name} family: "
                         f"it has no {lacks}")
    try:
        return parse_family(doc, parse)
    except ValueError as exc:
        raise InputError(f"{source}{exc}") from exc


def cmd_radius(args) -> int:
    from .convergence import MIN_NONZERO_TERMS, estimate_report

    if args.order < MIN_NONZERO_TERMS - 1:
        raise InputError(f"--order must be at least {MIN_NONZERO_TERMS - 1} to give "
                         f"{MIN_NONZERO_TERMS} u-row terms, got {args.order}")
    family = _family(args, ("u_row", "radius_bound"), "u-row coefficient table")
    if family.radius_bound() is None:
        raise InputError(f"the {family.name} family's u-row is a polynomial: "
                         "it has no radius of convergence to estimate")
    report = estimate_report(family, family.u_row(args.order + 1), method=args.method)
    _write_json(args.out, report.to_json_dict())
    return EXIT_OK


def cmd_fibres(args) -> int:
    from .geometry import fibre_circle, sample_circle

    if args.samples < 3:
        raise InputError(f"--samples must be at least 3, got {args.samples}")
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
    _write_text(args.out, "\n".join(lines) + "\n")
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
    if zmax < 0:
        raise InputError(f"grid spec needs zmax >= 0, got zmax = {zmax!r}")
    return umax, zmax, n


def cmd_compare(args) -> int:
    if args.order < 0:
        raise InputError(f"--order must be >= 0, got {args.order}")
    umax, zmax, n = _parse_grid_spec(args.grid)
    _check_tol(args.tol)
    family = _family(args, ("closed",), "closed form to compare with")
    us = [umax * i / (n - 1) for i in range(n)]
    zs = [-zmax + 2 * zmax * i / (n - 1) for i in range(n)] if zmax > 0 else [0.0]
    series = family.series(args.order)

    # One z-pass per grid column; each grid point is then a pass in u.  A tie
    # keeps the first point, so an all-zero grid reports its first point.
    columns = [(z, series.z_values(z)) for z in zs]
    max_gap, argmax = 0.0, (us[0], zs[0])
    for u in us:
        for z, values in columns:
            gap = abs(family.closed(u, z) - eval_rows(values, complex(u)))
            if not gap <= max_gap:  # also true for NaN
                if not isfinite(gap):
                    raise OverflowError(f"non-finite gap {gap} at (u, z) = ({u}, {z})")
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


# -- entry point -----------------------------------------------------------------


# Each command: its help line, its function and its options, (flag, keywords).
_COMMANDS = {
    "solve": ("solve for psi from boundary-data JSON", cmd_solve, [
        ("--input", dict(required=True, help="boundary data JSON")),
        ("--out", dict(required=True, help="coefficient JSON to write")),
        ("--mode", dict(choices=[MODE_EXACT, MODE_FLOAT], default=MODE_EXACT)),
        ("--order", dict(type=int, default=None, help="override order N")),
    ]),
    "eval": ("evaluate phi on a point grid", cmd_eval, [
        ("--input", dict(required=True, help="coefficient JSON")),
        ("--q", dict(type=int, choices=[0, 1], required=True)),
        ("--grid", dict(required=True, help="CSV of x,y,z points")),
        ("--out", dict(default=None, help="CSV to write (default stdout)")),
    ]),
    "verify": ("residual report over a point grid", cmd_verify, [
        ("--input", dict(required=True, help="coefficient JSON")),
        ("--q", dict(type=int, choices=[0, 1], required=True)),
        ("--grid", dict(required=True, help="CSV of x,y,z points")),
        ("--out", dict(default=None, help="JSON report (default stdout)")),
        ("--tol", dict(type=float, default=None)),
        ("--h", dict(type=float, default=1e-5, help="finite-difference step")),
    ]),
    "radius": ("empirical vs analytic convergence radius", cmd_radius, [
        ("--input", dict(default=None, help="family descriptor JSON")),
        ("--family", dict(default=None, help="family name")),
        ("--c", dict(default=None, help="re,im")),
        ("--b", dict(default=None, help="re,im")),
        ("--alpha", dict(default=None, help="re,im")),
        ("--beta", dict(default=None, help="re,im")),
        ("--order", dict(type=int, default=60,
                         help="highest power of u: order + 1 u-row terms are read")),
        ("--method", dict(choices=["ratio", "root"], default="ratio")),
        ("--out", dict(default=None)),
    ]),
    "identities": ("run the exact identity suite", cmd_identities, [
        ("--kmax", dict(type=int, default=None)),
        ("--out", dict(default=None)),
    ]),
    "fibres": ("emit one fibre circle of the equal-parameter family", cmd_fibres, [
        ("--alpha", dict(required=True, help="re,im")),
        ("--eta", dict(default=None, help="re,im")),
        ("--samples", dict(type=int, default=64)),
        ("--out", dict(default=None, help="CSV to write (default stdout)")),
    ]),
    "compare": ("closed form vs truncated series on a grid", cmd_compare, [
        ("--family", dict(required=True, help="family name")),
        ("--c", dict(default=None, help="re,im")),
        ("--b", dict(default=None, help="re,im")),
        ("--order", dict(type=int, default=30)),
        ("--grid", dict(default="0.05,0.1,5", help="umax,zmax,n")),
        ("--tol", dict(type=float, default=None)),
        ("--out", dict(default=None)),
    ]),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When its first item names a command, only
    that command's parser is registered, under a usage line that still names
    every command; any other ``argv`` gets all of them, for the top-level
    help and errors.  Either way the messages are the same."""
    parser = argparse.ArgumentParser(
        prog="semiconformal",
        description="Semi-conformal maps on 3-space from truncated power series.",
    )
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, func, options = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
        # "--c -1,0": a minus sign before a digit or a point starts a value, not an option
        p._negative_number_matcher = re.compile(r"^-\.?\d\S*$")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, ModeMismatch, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
