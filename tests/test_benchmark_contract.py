"""The names the benchmark reaches into the package by.

``perfbench/tracing.py`` patches the package's callables by name, and the
workloads and the self-test call a few more directly.  A renamed or deleted
name would only break the benchmark's own runs, so this checks the names
here: the tracer's patches go on and come off, and every directly called
name exists.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import semiconformal.cli
import semiconformal.closed_forms
import semiconformal.identities
import semiconformal.solver
from semiconformal.closed_forms import HOPF_BOUNDARY
from semiconformal.scalars import CScalar
from semiconformal.series import BiSeries
from semiconformal.solver import BoundaryData

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_patches_every_name_it_lists_and_restores_it():
    tracing = load_tracing()
    methods = dict(vars(BiSeries))
    solve, init = semiconformal.solver.solve, CScalar.__init__
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert semiconformal.solver.solve is not solve
        semiconformal.solver.solve(BoundaryData(1, HOPF_BOUNDARY), 4)
    assert tracer.spans[0][0] == "solver.solve"
    counts = Counter()
    with tracing.counting(counts):
        CScalar.exact(1)
    assert counts["cscalar_new"] == 1
    assert dict(vars(BiSeries)) == methods
    assert (semiconformal.solver.solve, CScalar.__init__) == (solve, init)


def test_the_names_the_workloads_and_the_self_test_call_exist():
    for owner, name in ((semiconformal.cli, "main"), (BiSeries, "from_json_dict"),
                        (semiconformal.solver, "governing_residual"),
                        (semiconformal.identities, "check_series_coefficient_identity"),
                        (semiconformal.closed_forms, "coeff_q0"),
                        (CScalar, "exact"), (CScalar, "floating")):
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
