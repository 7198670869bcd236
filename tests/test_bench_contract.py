"""What the benchmark in bench/ needs of the library: every name its tracer
wraps resolves, the workloads' set-up statements run, the sampled rows stay
a list (a tracer hook takes len), and a tiny verify run reaches the spans
the bench self-test counts."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bpadams import lattice
from bpadams.centre import sampled_integrality_rows, verify_centre_bp
from bpadams.fgl import BPContext
from bpadams.polyring import GradedPoly

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


@pytest.mark.parametrize("make", [lambda w: w.VerifyWorkload(2, 12, None),
                                  lambda w: w.VerifyWorkload(5, 24, None),
                                  lambda w: w.MixWorkload(0, None)],
                         ids=["verify-2-12", "verify-5-24", "mix"])
def test_workload_setup_code_runs(make):
    # bench/run.py times each workload's set-up statements after
    # "import bpadams"; every name they use must exist in the library
    workloads = _load("workloads")
    exec("import bpadams\n" + make(workloads).setup_code(), {})


def test_tracer_resolves_every_traced_name_and_counts_sample_rows():
    tracer = _load_tracer()
    t = tracer.Tracer()  # resolves each TRACED path; wraps, but installs nothing
    assert t.span_names[1:] == [name for name, *_ in tracer.TRACED]
    rows = sampled_integrality_rows(BPContext(2, 4))
    assert isinstance(rows, list) and len(rows) > 0


def test_tiny_verify_run_reaches_polyring_mul_and_lattice_solve(monkeypatch):
    # bench/selftest.py fails when a traced verify_centre_bp(2, 4) pass
    # counts no polyring.mul or lattice.solve call
    calls = {"mul": 0, "solve": 0}
    mul, solve = GradedPoly.__mul__, lattice.solve

    def counted_mul(*args, **kwargs):
        calls["mul"] += 1
        return mul(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(GradedPoly, "__mul__", counted_mul)
    # like the tracer: rebind solve under every module name that refers to it
    for name in ("bpadams", "bpadams.lattice", "bpadams.centre"):
        module = importlib.import_module(name)
        for key, value in list(vars(module).items()):
            if value is solve:
                monkeypatch.setattr(module, key, counted_solve)
    assert verify_centre_bp(2, 4)["verdict"]
    assert calls["mul"] > 0 and calls["solve"] > 0


def test_verify_run_calls_sandwich_check_once_per_n(monkeypatch):
    # the verify loop keeps one comparison of sandwich_check per index,
    # however its lattices are built: the comparison step itself, after
    # the loop has checked that index's two rows once
    centre = importlib.import_module("bpadams.centre")
    real, seen = centre._sandwich, []

    def counted(p, base, cn, cn_hat):
        seen.append(cn.n)
        return real(p, base, cn, cn_hat)

    monkeypatch.setattr(centre, "_sandwich", counted)
    assert verify_centre_bp(5, 8)["verdict"]
    assert seen == list(range(9))


def test_verify_run_takes_one_centre_val_p_per_tested_row(monkeypatch):
    # the tracer's centre.inclusion.dots counter rebinds centre.val_p; the
    # inclusion test takes one valuation per tested row through that name,
    # and a passing scan tests every sampled row with top index <= n_max
    centre = importlib.import_module("bpadams.centre")
    val_p = centre.val_p
    calls = []

    def counted_val_p(p, x):
        calls.append(x)
        return val_p(p, x)

    monkeypatch.setattr(centre, "val_p", counted_val_p)
    report = verify_centre_bp(3, 4)
    assert report["verdict"]
    assert len(calls) == report["rows"][-1]["sample_rows_used"] > 0


@pytest.mark.parametrize("workload, p, n", [("verify-p2", 2, 12), ("verify-p5", 5, 24)])
def test_verify_reports_match_the_bench_pins(workload, p, n):
    # the bench fails an operation whose report differs from its pin in
    # bench/reference.json; the pins are read here, never written
    workloads = _load("workloads")
    pinned = json.loads((BENCH / "reference.json").read_text())[workload]
    assert pinned["call"] == f"verify_centre_bp({p}, {n})"
    report = verify_centre_bp(p, n)
    assert workloads.sha256(workloads.report_json(report)) == pinned["sha256"]
