"""Metric definitions and their computation from pipeline samples and spans.

End-to-end metrics come from untraced pipelines only; their times are
calibrated to the reference machine speed (see ``calibrate.py``).  Per-layer
metrics come from the traced pipelines, the counting pass and the scalar
microbenchmarks, in raw wall time.  ``BENCHMARK.json`` lists the same names
and units.
"""

from __future__ import annotations

import math
import statistics
import timeit
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import oracle

# Printed on every workload and named in BENCHMARK.json: each exists, and is
# nonzero, on every workload.
END_TO_END = {
    "pipeline_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed for information only.  The step metrics and coeff_digits exist
# only on the workloads that have the step, and fail_frac is zero on correct
# code, so they stay out of BENCHMARK.json; ``failed``/``attempted`` carry
# fail_frac to the result.
INFO = {"pipeline_p90_s": "s", "pipeline_wall_s": "s", "pipeline_wall_p90_s": "s",
        "pipelines": "count", "compare_s": "s", "eval_s": "s", "certify_s": "s",
        "coeff_digits": "digits", "fail_frac": "ratio"}
TRACE_INFO = {"trace.partition_error_s": "s"}
STEPS = ("solve", "verify", "compare", "eval", "certify")

PER_LAYER = {
    "scalars.cscalar_new": "count",
    "scalars.mul_float_ns": "ns",
    "scalars.mul_exact_ns": "ns",
    "scalars.add_exact_ns": "ns",
    "series.mul_s": "s",
    "series.mul_calls": "count",
    "series.mul_useful_frac": "ratio",
    "series.diff_calls_per_point": "count",
    "series.diff_s": "s",
    "series.eval_complex_calls_per_point": "count",
    "series.eval_complex_us": "us",
    "series.json_dump_s": "s",
    "series.json_load_s": "s",
    "series.self_s": "s",
    "solver.solve_self_s": "s",
    "solver.us_per_coeff": "us",
    "solver.order_exponent": "1",
    "solver.order_fit_r2": "1",
    "solver.order70_est_s": "s",
    "solver.governing_residual_s": "s",
    "solver.semiconformality_residual_us": "us",
    "solver.harmonicity_residual_us": "us",
    "solver.eval_phi_calls_per_point": "count",
    "solver.eval_phi_us": "us",
    "solver.self_s": "s",
    "closed_forms.one_param_series_s": "s",
    "closed_forms.closed_eval_us": "us",
    "closed_forms.self_s": "s",
    "identities.coefficient_identity_s": "s",
    "identities.default_suite_s": "s",
    "identities.self_s": "s",
    "cli.solve.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.eval.self_s": "s",
    "cli.compare.self_s": "s",
    "cli.identities.self_s": "s",
    "cli.self_s": "s",
    "cli.json_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "trace.pipeline_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.layer_sum_frac": "ratio",
}
SPAN_LAYERS = ("series", "solver", "closed_forms", "identities", "cli")
CLOSED_EVALUATORS = ("closed_forms.closed_q0", "closed_forms.closed_q1",
                     "closed_forms.product_form_psi")


@dataclass
class Sample:
    """One pipeline: per-op results, failure messages, whether it was traced."""

    results: list
    failures: list
    traced: bool = False

    @property
    def seconds(self) -> float:
        """Calibrated time of the pipeline's ops."""
        return sum(r.seconds * r.scale for r in self.results)

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, math.ceil(0.9 * len(values)) - 1)] if values else 0.0


def end_to_end(samples: list[Sample], ops, setup_s: float, peak_rss_mib: float) -> dict:
    """All end-to-end figures of an untraced run, information-only ones included.

    A pipeline's typical time is the sum over its ops of each op's median
    calibrated time: it rejects a slow spell in one op without discarding
    the rest of that pipeline, and the step times add up to it exactly.
    """
    op_median = {op.label: median(r.seconds * r.scale for s in samples for r in s.results
                                  if r.op.label == op.label) for op in ops}
    m = {"pipeline_s": sum(op_median.values()),
         "pipeline_p90_s": p90(s.seconds for s in samples),
         "pipeline_wall_s": median(s.wall for s in samples),
         "pipeline_wall_p90_s": p90(s.wall for s in samples),
         "pipelines": len(samples)}
    present = {op.step for op in ops}
    for step in STEPS:
        if step in present:
            m[f"{step}_s"] = sum(op_median[op.label] for op in ops if op.step == step)
    digits = [min(r.info["coeff_digits"] for r in s.results if "coeff_digits" in r.info)
              for s in samples if any("coeff_digits" in r.info for r in s.results)]
    if digits:
        m["coeff_digits"] = median(digits)
    m["setup_s"] = setup_s
    m["peak_rss_mib"] = peak_rss_mib
    attempted = sum(len(s.results) for s in samples)
    m["fail_frac"] = sum(len(s.failures) for s in samples) / attempted
    return m


# -- per-layer ------------------------------------------------------------------


class _PipelineSpans:
    def __init__(self):
        self.calls = Counter()      # span name -> calls
        self.incl = Counter()       # span name -> inclusive seconds
        self.self_s = Counter()     # span name -> self seconds
        self.layer = Counter()      # layer -> self seconds
        self.calls_in = Counter()   # (span name, top CLI command) -> calls
        self.coefficients = 0       # triangle entries the solver produced
        self.pipeline_s = 0.0       # wall time of the top-level (op) spans


def _by_pipeline(spans) -> dict[int, _PipelineSpans]:
    out: dict[int, _PipelineSpans] = {}
    cli_of = [None] * len(spans)
    for sid, (name, layer, t0, t1, parent, pid, self_s, tag) in enumerate(spans):
        cli_of[sid] = name[4:] if layer == "cli" else (cli_of[parent] if parent >= 0 else None)
        p = out.setdefault(pid, _PipelineSpans())
        dur = t1 - t0
        p.calls[name] += 1
        p.incl[name] += dur
        p.self_s[name] += self_s
        p.layer[layer] += self_s
        if cli_of[sid] is not None:
            p.calls_in[name, cli_of[sid]] += 1
        if parent < 0:
            p.pipeline_s += dur
        if name == "solver.solve" and tag is not None:
            p.coefficients += (tag + 1) * (tag + 2) // 2
    return out


def partition_error(spans) -> float:
    """Largest |sum of all layers' self time - pipeline wall time| over the
    traced pipelines, in seconds; zero up to rounding when spans nest."""
    return max((abs(sum(p.layer.values()) - p.pipeline_s) for p in _by_pipeline(spans).values()),
               default=0.0)


def _fit(xs, ys) -> tuple[float, float, float]:
    """Least squares y = a + b x: (a, b, r^2)."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    b = sxy / sxx
    return my - b * mx, b, (sxy * sxy / (sxx * syy) if syy else 1.0)


def per_layer(spans, ops, samples: list[Sample], counts: Counter, micro: dict) -> dict:
    pipes = list(_by_pipeline(spans).values())

    def med(f):
        return median(f(p) for p in pipes)

    def per_call_us(*names):
        calls = sum(p.calls[n] for p in pipes for n in names)
        return 1e6 * sum(p.incl[n] for p in pipes for n in names) / calls if calls else 0.0

    def per_point(name, commands):
        points = sum(op.points for op in ops if op.command in commands)
        return med(lambda p: sum(p.calls_in[name, c] for c in commands)) / points if points else 0.0

    m = dict(micro)
    m["scalars.cscalar_new"] = counts["cscalar_new"]
    m["series.mul_s"] = med(lambda p: p.incl["series.__mul__"])
    m["series.mul_calls"] = med(lambda p: p.calls["series.__mul__"])
    m["series.mul_useful_frac"] = (counts["mul_useful_pairs"] / counts["mul_pairs"]
                                   if counts["mul_pairs"] else 0.0)
    m["series.diff_calls_per_point"] = per_point("series.diff", ("verify",))
    m["series.diff_s"] = med(lambda p: p.incl["series.diff"])
    m["series.eval_complex_calls_per_point"] = per_point("series.eval_complex",
                                                         ("verify", "eval", "compare"))
    m["series.eval_complex_us"] = per_call_us("series.eval_complex")
    m["series.json_dump_s"] = med(lambda p: p.incl["series.to_json_dict"])
    m["series.json_load_s"] = med(lambda p: p.incl["series.from_json_dict"])
    m["solver.solve_self_s"] = med(lambda p: p.self_s["solver.solve"])
    coefficients = sum(p.coefficients for p in pipes)
    m["solver.us_per_coeff"] = (1e6 * sum(p.incl["solver.solve"] for p in pipes) / coefficients
                                if coefficients else 0.0)
    # The order fit uses the calibrated CLI solve times of every pipeline.
    by_order: dict[int, list] = {}
    for s in samples:
        for r in s.results:
            if r.op.command == "solve":
                order = int(r.op.argv[r.op.argv.index("--order") + 1])
                by_order.setdefault(order, []).append(r.seconds * r.scale)
    orders = sorted(by_order)
    m["solver.order_exponent"] = m["solver.order_fit_r2"] = m["solver.order70_est_s"] = 0.0
    if len(orders) >= 3:
        times = [median(by_order[n]) for n in orders]
        a, b, r2 = _fit([math.log(n) for n in orders], [math.log(t) for t in times])
        m["solver.order_exponent"], m["solver.order_fit_r2"] = b, r2
        m["solver.order70_est_s"] = math.exp(a + b * math.log(70))
    m["solver.governing_residual_s"] = med(lambda p: p.incl["solver.governing_residual"])
    m["solver.semiconformality_residual_us"] = per_call_us("solver.semiconformality_residual")
    m["solver.harmonicity_residual_us"] = per_call_us("solver.harmonicity_residual")
    m["solver.eval_phi_calls_per_point"] = per_point("solver.eval_phi", ("verify", "eval"))
    m["solver.eval_phi_us"] = per_call_us("solver.eval_phi")
    m["closed_forms.one_param_series_s"] = med(lambda p: p.incl["closed_forms.one_param_series"])
    m["closed_forms.closed_eval_us"] = per_call_us(*CLOSED_EVALUATORS)
    m["identities.coefficient_identity_s"] = med(
        lambda p: p.incl["identities.check_series_coefficient_identity"])
    m["identities.default_suite_s"] = med(lambda p: p.incl["identities.default_suite"])
    for command in ("solve", "verify", "eval", "compare", "identities"):
        m[f"cli.{command}.self_s"] = med(lambda p: p.self_s["cli." + command])
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = med(lambda p: p.layer[layer])
    m["cli.json_bytes"] = median(sum(r.json_bytes for r in s.results) for s in samples)
    m["cli.nonzero_exits"] = sum(r.code not in (None, 0) for s in samples for r in s.results)
    m["trace.pipeline_s"] = median(s.wall for s in samples if s.traced)
    m["trace.overhead_frac"] = (median(s.seconds for s in samples if s.traced)
                                / median(s.seconds for s in samples if not s.traced) - 1)
    m["trace.layer_sum_frac"] = med(lambda p: sum(v for k, v in p.layer.items() if k != "bench")
                                    / p.pipeline_s)
    return m


def microbench(number: int = 20000, repeat: int = 7) -> dict:
    """ns per CScalar multiply (float) and multiply/add (exact).  The exact
    operands are coefficients a[6,6] and a[5,7] of the q=0 family at
    c = 2/3+i: total degree 12, mid-size for an order-24 exact solve."""
    from semiconformal.scalars import CScalar

    table = oracle.q0_table((Fraction(2, 3), Fraction(1)), 24)
    ea, eb = (CScalar.exact(*table[kl]) for kl in ((6, 6), (5, 7)))
    fa, fb = CScalar.floating(0.3, -1.1), CScalar.floating(-0.7, 0.2)

    def ns(stmt, a, b):
        timer = timeit.Timer(stmt, globals={"a": a, "b": b})
        return 1e9 * median(timer.repeat(repeat=repeat, number=number)) / number

    return {"scalars.mul_float_ns": ns("a * b", fa, fb),
            "scalars.mul_exact_ns": ns("a * b", ea, eb),
            "scalars.add_exact_ns": ns("a + b", ea, eb)}
