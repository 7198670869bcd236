"""What the benchmark in bench/ needs of the library: every name its tracer
wraps resolves, and the sampled rows stay a list (a tracer hook takes len)."""

import importlib.util
from pathlib import Path

from bpadams.centre import sampled_integrality_rows
from bpadams.fgl import BPContext

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_traced_name_and_counts_sample_rows():
    tracer = _load_tracer()
    t = tracer.Tracer()  # resolves each TRACED path; wraps, but installs nothing
    assert t.span_names[1:] == [name for name, *_ in tracer.TRACED]
    rows = sampled_integrality_rows(BPContext(2, 4))
    assert isinstance(rows, list) and len(rows) > 0
