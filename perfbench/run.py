"""Benchmark of the semiconformal CLI pipeline: solve -> verify -> compare.

    python3 perfbench/run.py --workload float-ladder --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

Run from the repository root.  One client runs the workload's pipeline back
to back in this process (a closed loop, one thread) for ``--seconds``
seconds, checks every operation against the oracles, and prints each metric
by name and unit; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a run
that alternates untraced and traced pipelines, then makes one counting pass
and the scalar microbenchmarks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibrate
import report
from inputs import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import semiconformal, semiconformal.cli; print(time.perf_counter() - t)")


def _import_package() -> None:
    """Import the package from this checkout's src/, or exit 2."""
    if not (SRC / "semiconformal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'semiconformal'}")
    sys.path.insert(0, str(SRC))
    import semiconformal

    if Path(semiconformal.__file__).resolve().parent != SRC / "semiconformal":
        sys.exit(f"perfbench: imported semiconformal from {semiconformal.__file__}, not {SRC}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "loadavg_start": list(os.getloadavg()),
            "seed": seed, "git_commit": _git_commit()}


def setup_seconds() -> float:
    """Median calibrated time for a fresh interpreter to import the package
    and its CLI, timed inside the child; one unmeasured warm-up writes the
    bytecode cache first, as an installed package would have it."""
    times = []
    before = calibrate.probe()
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        after = calibrate.probe()
        if i:
            times.append(float(out.stdout) * calibrate.scale(before, after))
        before = after
    return report.median(times)


def _loop(wl, seconds: float, tracer=None) -> list:
    """Pipelines back to back until the next one would overrun ``seconds``.
    With a tracer, every second pipeline runs traced, so that load drift
    reaches the traced and the untraced pipelines alike."""
    import tracing  # imports the package: only after _import_package()

    samples, loops = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(samples) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.pipeline = len(samples)
            with tracing.instrumented(tracer):
                results = wl.run_pipeline(tracer)
        else:
            results = wl.run_pipeline()
        samples.append(report.Sample(results, wl.check(results), traced))
        loops.append(time.perf_counter() - t0)
        enough = len(samples) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + report.median(loops) > seconds:
            return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure one workload; returns metrics, context, failures and the tracer."""
    import tracing  # these two import the package: only after _import_package()
    import workloads

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    context = run_context(seed)
    tracer = tracing.Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        wl = workloads.Workload(name, seed, Path(tmp), size)
        samples = _loop(wl, seconds, tracer)
        if not trace:
            metrics = report.end_to_end(samples, wl.ops, setup_seconds(),
                                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = {**report.END_TO_END, **report.INFO}
            reported = report.END_TO_END
        else:
            counts: Counter = Counter()
            with tracing.counting(counts):
                results = wl.run_pipeline()
            counted = report.Sample(results, wl.check(results))
            metrics = report.per_layer(tracer.spans, wl.ops, samples, counts, report.microbench())
            metrics["trace.partition_error_s"] = report.partition_error(tracer.spans)
            units = {**report.PER_LAYER, **report.TRACE_INFO}
            reported = report.PER_LAYER
            samples.append(counted)
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run's directory is still there
    context["loadavg_end"] = list(os.getloadavg())
    return {"workload": name, "size": size, "seconds": seconds, "trace": int(trace),
            "context": context, "metrics": metrics, "units": units, "reported": list(reported),
            "attempted": sum(len(s.results) for s in samples),
            "failures": [f for s in samples for f in s.failures],
            "pipelines": [{"seconds": s.seconds, "wall": s.wall, "traced": s.traced,
                           "ops": {r.op.label: [r.seconds, r.scale] for r in s.results}}
                          for s in samples],
            "tracer": tracer}


def _print_run(run: dict) -> None:
    print(f"perfbench: workload={run['workload']} seed={run['context']['seed']} "
          f"seconds={run['seconds']} trace={run['trace']} size={run['size']}")
    print("context: " + json.dumps(run["context"]))
    m, units = run["metrics"], run["units"]
    for name, value in m.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  operations: {run['attempted']} attempted, {len(run['failures'])} failed")
    for failure in run["failures"][:10]:
        print("FAILED " + failure, file=sys.stderr)


def _save(run: dict, seed: int) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{run['workload']}-seed{seed}-trace{run['trace']}"
    record = {k: v for k, v in run.items() if k != "tracer"}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run["tracer"] is not None:
        run["tracer"].dump(out / f"{stem}-spans.jsonl")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=list(SIZES), default="full",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args(argv)
    _import_package()

    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        _print_run(run)
        _save(run, args.seed)
        prefix = "" if len(names) == 1 else name + "."
        for key in run["reported"]:
            metrics[prefix + key] = {"value": run["metrics"][key], "unit": run["units"][key]}
        attempted += run["attempted"]
        failed += len(run["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
