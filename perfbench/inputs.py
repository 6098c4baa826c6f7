"""Seeded input and oracle generator, one recipe per workload.

    python3 perfbench/inputs.py --workload grid-verify --seed 0 --out DIR

writes the boundary-data JSON, the point-grid CSVs and the oracle tables that
one benchmark run uses.  The same (workload, seed, size) always gives the same
files.  The program under test only ever sees the boundary JSON, the grid
CSVs and argv; the oracle files are for the checks.

Cost class: every seed of a workload uses the same orders, point counts and
sparsity pattern, and picks its c from a short list of values whose exact
coefficient tables have the same size (see ``cost_signature``).  Float cost
does not depend on the value of c; exact cost depends on the bit size of the
rationals, which is the same for every c of the exact list.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

F = Fraction
# Dyadic, so the float written to the boundary file is exactly this value.
FLOAT_C = [(F(0), F(1)), (F(0), F(-1)), (F(1, 8), F(1)), (F(-1, 8), F(1)),
           (F(1, 8), F(-1)), (F(-1, 8), F(-1))]
# All four have identical numerator and denominator sizes in every coefficient.
EXACT_C = [(F(2, 3), F(1)), (F(-2, 3), F(1)), (F(2, 3), F(-1)), (F(-2, 3), F(-1))]

# Gate 6a's box: u in [0.01, 0.1], |z| <= 0.3.
BOX_6A = (0.01, 0.1, 0.3)
# A smaller box for the exact series: its c has |c|^2 = 13/9, which shrinks
# the u-radius of convergence below gate 6a's box corner.
BOX_EXACT = (0.01, 0.05, 0.2)

SIZES = {
    "full": {
        "float-ladder": dict(orders=[24, 32, 40], verify_points=16,
                             compare_order=40, compare_grid="0.05,0.1,5", compare_tol=1e-10),
        "exact-certify": dict(order=24, verify_points=25, identities_kmax=None),
        "grid-verify": dict(order=30, verify_points=400, eval_points=4000,
                            compare_order=30, compare_grid="0.05,0.1,40", compare_tol=1e-10),
    },
    # For the benchmark's self-test only.
    "tiny": {
        "float-ladder": dict(orders=[6, 8, 10], verify_points=3,
                             compare_order=10, compare_grid="0.05,0.1,3", compare_tol=1e-6),
        "exact-certify": dict(order=8, verify_points=3, identities_kmax=6),
        "grid-verify": dict(order=8, verify_points=4, eval_points=6,
                            compare_order=8, compare_grid="0.05,0.1,3", compare_tol=1e-6),
    },
}
WORKLOADS = list(SIZES["full"])


@dataclass
class Inputs:
    params: dict                    # the workload's sizes (SIZES)
    c: oracle.Gauss
    mode: str                       # "exact" or "float"
    files: dict[str, Path]
    exact_table: dict               # (k, l) -> Gauss, through the highest solve order
    verify_oracle: dict = field(default_factory=dict)   # residual maxima on the verify grid
    eval_oracle: list = field(default_factory=list)     # (point, phi) on the eval grid


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _box_points(rng: random.Random, n: int, box, corners: bool) -> list[tuple[float, float, float]]:
    """Points with u = (x^2+y^2)/2 in [umin, umax], |z| <= zmax.  With
    ``corners`` the first two sit on the far edge (umax, -zmax) and
    (umax, +zmax), where the truncation residual peaks."""
    umin, umax, zmax = box
    pts = []
    for i in range(n):
        if corners and i < 2:
            u, z = umax, (-zmax, zmax)[i]
        else:
            u, z = rng.uniform(umin, umax), rng.uniform(-zmax, zmax)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(2.0 * u)
        pts.append((r * math.cos(theta), r * math.sin(theta), z))
    return pts


def _write_grid(path: Path, pts) -> None:
    path.write_text("x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in pts))


def _pair(v: Fraction, mode: str) -> str:
    return str(v) if mode == "exact" else repr(float(v))


def _recipe(workload: str, seed: int, size: str):
    """(params, mode, c, highest solve order) of a workload at a seed."""
    params = SIZES[size][workload]
    mode = "exact" if workload == "exact-certify" else "float"
    choices = EXACT_C if mode == "exact" else FLOAT_C
    order = max(params["orders"]) if "orders" in params else params["order"]
    return params, mode, choices[seed % len(choices)], order


def generate(workload: str, seed: int, out: Path, size: str = "full") -> Inputs:
    """Write the workload's inputs and oracle tables under ``out``."""
    params, mode, c, order = _recipe(workload, seed, size)
    rng = _rng(workload, seed)
    box = BOX_EXACT if mode == "exact" else BOX_6A

    out.mkdir(parents=True, exist_ok=True)
    files = {"boundary": out / "boundary.json"}
    files["boundary"].write_text(json.dumps({
        "q": 0, "order": order,
        "data": [[_pair(F(1), mode), _pair(F(0), mode)], [_pair(c[0], mode), _pair(c[1], mode)]],
    }) + "\n")

    exact = oracle.q0_table(c, order)
    series = oracle.SeriesOracle(oracle.to_complex(exact))
    inputs = Inputs(params, c, mode, files, exact)

    verify_pts = _box_points(rng, params["verify_points"], box, corners=True)
    files["verify_grid"] = out / "verify.csv"
    _write_grid(files["verify_grid"], verify_pts)
    res = [series.residuals(*p) for p in verify_pts]
    inputs.verify_oracle = {
        "points": len(verify_pts),
        "semiconformality_max": max(r[0] for r in res),
        "harmonicity_max": max(r[1] for r in res),
    }
    if "eval_points" in params:
        eval_pts = _box_points(rng, params["eval_points"], box, corners=False)
        files["eval_grid"] = out / "eval.csv"
        _write_grid(files["eval_grid"], eval_pts)
        inputs.eval_oracle = [(p, series.phi(*p)) for p in eval_pts]

    files["oracle"] = out / "oracle.json"
    files["oracle"].write_text(json.dumps({
        "workload": workload, "seed": seed, "size": size, "params": params,
        "c": [str(c[0]), str(c[1])], "mode": mode, "order": order,
        "coeffs_q0": [[k, l, str(v[0]), str(v[1])] for (k, l), v in sorted(exact.items())],
        "verify": inputs.verify_oracle,
        "eval": [[*p, v.real, v.imag] for p, v in inputs.eval_oracle],
    }) + "\n")
    return inputs


def cost_signature(workload: str, seed: int, size: str = "full") -> dict:
    """What the cost of a run depends on, apart from the machine: the sizes,
    the number of nonzero coefficients, and in exact mode the total bit size
    of the exact coefficient table."""
    params, mode, c, order = _recipe(workload, seed, size)
    table = oracle.q0_table(c, order)
    sig = {"params": params, "mode": mode, "nonzero": len(table)}
    if mode == "exact":
        sig["bits"] = sum(x.numerator.bit_length() + x.denominator.bit_length()
                          for v in table.values() for x in v)
    return sig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--size", choices=list(SIZES), default="full")
    args = ap.parse_args(argv)
    inputs = generate(args.workload, args.seed, args.out, args.size)
    print(json.dumps({name: str(path) for name, path in inputs.files.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
