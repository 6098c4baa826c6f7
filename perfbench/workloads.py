"""The three workloads: each a fixed pipeline of CLI calls and library steps,
run in process and checked operation by operation against the oracles.

Every CLI call goes through ``semiconformal.cli.main(argv)`` and every
library step looks its function up on the module at call time, so that the
traced run's rebinding (see ``tracing.py``) sees all of them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import semiconformal.cli
import semiconformal.identities
import semiconformal.series
import semiconformal.solver

import calibrate
import inputs as inputs_mod
import oracle

# Tolerances of the output checks.
COEFF_REL_TOL = 1e-12     # per-shell normwise relative error, float solve vs exact table
RESIDUAL_REL_TOL = 1e-6   # verify's residual maxima vs the oracle's recomputation
FD_GAP_MAX = 1e-6         # verify's analytic vs finite-difference gap
EVAL_TOL = 1e-10          # |phi - oracle| / max(1, |oracle|) for eval
DIGITS_CAP = 17.0         # coeff_digits when the float table is exact


@dataclass
class Op:
    """One operation of a pipeline: a CLI call (argv) or a library step (call)."""

    step: str                  # the step metric it feeds: solve, verify, compare, eval, certify
    label: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    check: Callable[["Result"], str | None] | None = None
    out: Path | None = None    # file a CLI call writes; removed before each run
    points: int = 0            # points a pointwise CLI call processes

    @property
    def command(self) -> str | None:
        return self.argv[0] if self.argv else None


@dataclass
class Result:
    op: Op
    seconds: float             # wall time
    scale: float = 1.0         # wall -> reference seconds, from the probes around the op
    code: int | None = None
    value: object = None
    error: str | None = None
    json_bytes: int = 0
    info: dict = field(default_factory=dict)


def _no_span(name, layer):
    return contextlib.nullcontext()


class Workload:
    """Inputs, oracles and the op list of one workload at one seed."""

    def __init__(self, name: str, seed: int, workdir: Path, size: str = "full"):
        self.inp = inputs_mod.generate(name, seed, workdir / "in", size)
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.state: dict = {}
        self.ops: list[Op] = getattr(self, "_ops_" + name.replace("-", "_"))()

    # -- running ---------------------------------------------------------------

    def run_pipeline(self, tracer=None) -> list[Result]:
        """Run every op once, with the speed probe before and after each op
        (outside the op's timing and spans)."""
        span = tracer.span if tracer is not None else _no_span
        results = []
        before = calibrate.probe()
        for op in self.ops:
            with span("op." + op.label, "bench"):
                res = self._run(op, span)
            after = calibrate.probe()
            res.scale = calibrate.scale(before, after)
            results.append(res)
            before = after
        return results

    def _run(self, op: Op, span) -> Result:
        sink, err = io.StringIO(), io.StringIO()
        res = Result(op, 0.0)
        if op.out is not None:
            op.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            if op.argv is not None:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                    with span("cli." + op.command, "cli"):
                        res.code = semiconformal.cli.main(op.argv)
            else:
                res.value = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            res.error = f"{type(exc).__name__}: {exc}"
        res.seconds = time.perf_counter() - t0
        if res.code not in (None, 0):
            res.error = f"exit code {res.code}: {err.getvalue().strip()[:200]}"
        if op.out is not None and op.out.suffix == ".json" and op.out.exists():
            res.json_bytes = op.out.stat().st_size
        return res

    def check(self, results: list[Result]) -> list[str]:
        """Failure messages of one pipeline; an empty list means every op passed."""
        failures = []
        for res in results:
            msg = res.error
            if msg is None and res.op.check is not None:
                try:
                    msg = res.op.check(res)
                except Exception as exc:  # unreadable output counts as a failed op
                    msg = f"check raised {type(exc).__name__}: {exc}"
            if msg is not None:
                failures.append(f"{res.op.label}: {msg}")
        return failures

    # -- op lists ----------------------------------------------------------------

    def _cstr(self) -> str:
        c = self.inp.c
        return f"{float(c[0])!r},{float(c[1])!r}"

    def _solve(self, order: int) -> Op:
        mode = self.inp.mode
        out = self.out / f"psi{order}.json"
        check = self._check_float_coeffs if mode == "float" else self._check_exact_coeffs
        return Op("solve", f"solve@{order}", argv=[
            "solve", "--input", str(self.inp.files["boundary"]), "--out", str(out),
            "--mode", mode, "--order", str(order)], out=out,
            check=lambda res, order=order: check(res, order))

    def _verify(self, series_path: Path) -> Op:
        out = self.out / "verify.json"
        return Op("verify", "verify", argv=[
            "verify", "--input", str(series_path), "--q", "0",
            "--grid", str(self.inp.files["verify_grid"]), "--out", str(out)],
            out=out, check=self._check_verify, points=self.inp.verify_oracle["points"])

    def _compare(self, family: str, c: str, order: int, grid: str) -> Op:
        # "--c=..." keeps argparse from reading a negative real part as an option.
        out = self.out / "compare.json"
        n = int(grid.split(",")[2])
        return Op("compare", "compare", argv=[
            "compare", "--family", family, f"--c={c}", "--order", str(order), "--grid", grid,
            "--tol", repr(self.inp.params["compare_tol"]), "--out", str(out)],
            out=out, check=self._check_compare, points=n * n)

    def _ops_float_ladder(self) -> list[Op]:
        p = self.inp.params
        ops = [self._solve(order) for order in p["orders"]]
        ops.append(self._verify(self.out / f"psi{max(p['orders'])}.json"))
        ops.append(self._compare("product", self._cstr(), p["compare_order"], p["compare_grid"]))
        return ops

    def _ops_exact_certify(self) -> list[Op]:
        p = self.inp.params
        order = p["order"]
        psi_path = self.out / f"psi{order}.json"

        def governing():
            doc = json.loads(psi_path.read_text())
            self.state["psi"] = semiconformal.series.BiSeries.from_json_dict(doc)
            return semiconformal.solver.governing_residual(self.state["psi"], 0)

        def identity():
            return semiconformal.identities.check_series_coefficient_identity(
                self.state["psi"], 0, order, order)

        out = self.out / "identities.json"
        kmax = p["identities_kmax"]
        return [
            self._solve(order),
            Op("certify", "governing_residual", call=governing, check=self._check_governing),
            Op("certify", "coefficient_identity", call=identity,
               check=lambda res: None if res.value.ok else f"identity failed: {res.value.first_failure}"),
            Op("certify", "identities", argv=["identities", "--out", str(out)]
               + ([] if kmax is None else ["--kmax", str(kmax)]),
               out=out, check=self._check_identities),
            self._verify(psi_path),
        ]

    def _ops_grid_verify(self) -> list[Op]:
        p = self.inp.params
        order = p["order"]
        psi_path = self.out / f"psi{order}.json"
        eval_out = self.out / "eval.csv"
        return [
            self._solve(order),
            self._verify(psi_path),
            Op("eval", "eval", argv=[
                "eval", "--input", str(psi_path), "--q", "0",
                "--grid", str(self.inp.files["eval_grid"]), "--out", str(eval_out)],
                out=eval_out, check=self._check_eval, points=len(self.inp.eval_oracle)),
            # The q=1 family at c=1, as in the package's own compare example;
            # its cost does not depend on c.
            self._compare("q1", "1,0", p["compare_order"], p["compare_grid"]),
        ]

    # -- checks -------------------------------------------------------------------

    def _load_coeffs(self, res: Result, order: int, mode: str, parse) -> dict:
        doc = json.loads(res.op.out.read_text())
        if doc.get("mode") != mode or doc.get("trunc") != order:
            raise ValueError(f"expected a {mode} series of order {order}, "
                             f"got mode={doc.get('mode')} trunc={doc.get('trunc')}")
        return {(int(k), int(l)): (parse(re), parse(im)) for k, l, re, im in doc["coeffs"]}

    def _exact_through(self, order: int) -> dict:
        return {kl: v for kl, v in self.inp.exact_table.items() if kl[0] + kl[1] <= order}

    def _check_float_coeffs(self, res: Result, order: int) -> str | None:
        got = self._load_coeffs(res, order, "float", float)
        worst = max(oracle.shell_errors(got, self._exact_through(order), order))
        res.info["coeff_digits"] = min(DIGITS_CAP, -math.log10(worst)) if worst > 0 else DIGITS_CAP
        if not worst <= COEFF_REL_TOL:
            return f"float coefficients off by {worst:.3e} (tolerance {COEFF_REL_TOL:.0e})"
        return None

    def _check_exact_coeffs(self, res: Result, order: int) -> str | None:
        got = self._load_coeffs(res, order, "exact", Fraction)
        want = self._exact_through(order)
        if got != want:
            bad = sorted(kl for kl in set(got) | set(want) if got.get(kl) != want.get(kl))
            return f"{len(bad)} exact coefficients differ from the closed form, first {bad[0]}"
        return None

    def _check_governing(self, res: Result) -> str | None:
        order = self.inp.params["order"]
        if res.value.trunc != order - 1 or res.value.n_nonzero:
            return (f"governing residual has {res.value.n_nonzero} nonzero coefficients "
                    f"through degree {res.value.trunc}")
        return None

    def _check_verify(self, res: Result) -> str | None:
        doc = json.loads(res.op.out.read_text())
        want = self.inp.verify_oracle
        if doc["points"] != want["points"] or len(doc["per_point"]) != want["points"]:
            return f"verify reported {doc['points']} points, expected {want['points']}"
        values = [v for pt in doc["per_point"]
                  for v in (pt["semiconformality"], pt["fd_agreement_gap"], pt["harmonicity"])]
        if not all(math.isfinite(v) for v in values):
            return "verify reported a non-finite residual"
        if not doc["fd_agreement_gap_max"] <= FD_GAP_MAX:
            return f"fd_agreement_gap_max {doc['fd_agreement_gap_max']:.3e} above {FD_GAP_MAX:.0e}"
        for key, got in (("semiconformality_max", doc["semiconformality"]["max"]),
                         ("harmonicity_max", doc["harmonicity"]["max"])):
            ref = want[key]
            if not abs(got - ref) <= RESIDUAL_REL_TOL * ref:
                return f"{key} {got:.6e} differs from the oracle's {ref:.6e}"
        return None

    def _check_compare(self, res: Result) -> str | None:
        doc = json.loads(res.op.out.read_text())
        gap, tol = doc["max_gap"], self.inp.params["compare_tol"]
        if not (doc["within_tolerance"] and math.isfinite(gap) and gap <= tol):
            return f"compare max_gap {gap} above tolerance {tol}"
        return None

    def _check_identities(self, res: Result) -> str | None:
        reports = json.loads(res.op.out.read_text())
        failed = [r["name"] for r in reports if r["status"] != "pass"]
        if failed or len(reports) < 8:
            return f"identity suite: {len(reports)} reports, failing {failed}"
        return None

    def _check_eval(self, res: Result) -> str | None:
        with res.op.out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        want = self.inp.eval_oracle
        if rows[0] != ["x", "y", "z", "re", "im"] or len(rows) - 1 != len(want):
            return f"eval wrote {len(rows) - 1} rows, expected {len(want)}"
        for row, (pt, ref) in zip(rows[1:], want):
            x, y, z, re, im = map(float, row)
            if (x, y, z) != pt:
                return f"eval row {(x, y, z)} does not match input point {pt}"
            if not abs(complex(re, im) - ref) <= EVAL_TOL * max(1.0, abs(ref)):
                return f"eval phi{pt} = {complex(re, im)} differs from oracle {ref}"
        return None
