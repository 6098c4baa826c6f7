"""Self-test of the benchmark itself (not of the package):

    python3 perfbench/selftest.py

1. a tiny-size run of each workload, untraced and traced, prints every
   metric that BENCHMARK.json names, with its unit, and passes its checks;
2. a coefficient corrupted in an output file (not in the program) makes its
   check fail and raises fail_frac;
3. traced self times partition each traced pipeline;
4. seed 0 and seed 1 give inputs of the same cost class;
5. the benchmark's own closed-form table agrees with the package's;
6. in a directory holding only BENCHMARK.json and perfbench/, the command
   exits nonzero without printing a result.

Exits 1 if any check fails.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILED: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILED.append(what)


def _command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def smoke_runs() -> None:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _command(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                            "--trace", str(trace), "--size", "tiny")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            printed = all(any(line.split()[:1] == [name] and line.split()[-1] == unit
                              for line in lines) for name, unit in want.items())
            expect(proc.returncode == 0 and result.get("correct") is True and got == want
                   and printed and result["failed"] == 0 and result["attempted"] >= 1,
                   f"tiny {workload} --trace {trace}: every {key} metric printed with its unit"
                   + ("" if proc.returncode == 0 else f" (exit {proc.returncode}: {proc.stderr[-300:]})"))


def corrupted_output(work: Path) -> None:
    import report
    import workloads

    for name, label in (("float-ladder", "solve@10"), ("exact-certify", "solve@8")):
        wl = workloads.Workload(name, 0, work / name, "tiny")
        results = wl.run_pipeline()
        clean = wl.check(results)
        res = next(r for r in results if r.op.label == label)
        doc = json.loads(res.op.out.read_text())
        k, l, re, im = doc["coeffs"][-1]
        bumped = repr(float(re) * (1 + 1e-9)) if doc["mode"] == "float" else str(Fraction(re) + Fraction(1, 10**30))
        doc["coeffs"][-1] = [k, l, bumped, im]
        res.op.out.write_text(json.dumps(doc))
        dirty = wl.check(results)
        frac = report.end_to_end([report.Sample(results, dirty)], wl.ops, 1.0, 1.0)["fail_frac"]
        expect(not clean and len(dirty) == 1 and dirty[0].startswith(label) and frac > 0,
               f"{name}: a corrupted coefficient in {res.op.out.name} fails {label} "
               f"(fail_frac {frac:.3f})")


def partition(work: Path) -> None:
    import report
    import tracing
    import workloads

    for name in [w["name"] for w in SPEC["workloads"]]:
        wl = workloads.Workload(name, 0, work / ("t-" + name), "tiny")
        tracer = tracing.Tracer()
        tracer.pipeline = 0
        with tracing.instrumented(tracer):
            wl.run_pipeline(tracer)
        err = report.partition_error(tracer.spans)
        pipeline_s = sum(s[3] - s[2] for s in tracer.spans if s[4] < 0)
        negative = [s[0] for s in tracer.spans if s[6] < -1e-9]
        layers = {s[1] for s in tracer.spans}
        expect(err <= 1e-9 * pipeline_s + 1e-12 and not negative and "cli" in layers,
               f"{name}: layer self times sum to the traced pipeline ({err:.2e} s of "
               f"{pipeline_s:.3f} s; layers {sorted(layers)})")


def cost_class() -> None:
    import inputs

    for name in [w["name"] for w in SPEC["workloads"]]:
        a, b = inputs.cost_signature(name, 0), inputs.cost_signature(name, 1)
        same = a["params"] == b["params"] and a["nonzero"] == b["nonzero"]
        if "bits" in a:
            same = same and abs(a["bits"] - b["bits"]) <= 0.02 * a["bits"]
        expect(same, f"{name}: seeds 0 and 1 have the same cost signature {a['nonzero']} "
                     f"coefficients{', %d/%d bits' % (a['bits'], b['bits']) if 'bits' in a else ''}")


def oracle_agrees() -> None:
    import oracle
    from semiconformal.closed_forms import coeff_q0
    from semiconformal.scalars import CScalar

    for c in ((Fraction(2, 3), Fraction(1)), (Fraction(-1, 8), Fraction(-1))):
        table = oracle.q0_table(c, 12)
        pkg = {(k, l): coeff_q0(CScalar.exact(*c), k, l) for k in range(13) for l in range(13 - k)}
        pkg = {kl: (v.re, v.im) for kl, v in pkg.items() if not v.is_zero()}
        expect(table == pkg, f"independent q0 table equals closed_forms.coeff_q0 at c={c}")


def bare_directory(work: Path) -> None:
    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = _command(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           f"without src/ the command exits {proc.returncode} and prints no result")


def main() -> int:
    run._import_package()
    smoke_runs()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        corrupted_output(Path(tmp))
        partition(Path(tmp))
        bare_directory(Path(tmp))
    cost_class()
    oracle_agrees()
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
