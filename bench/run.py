#!/usr/bin/env python3
"""Benchmark of bpadams: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-p2 --seed 0 --seconds 25 --trace 0

Workloads (each in its own process, see README.md for why each exists):

* ``verify-p2``  ``verify_centre_bp(2, 12)``, one call per pass.
* ``verify-p5``  ``verify_centre_bp(5, 24)``, one call per pass.
* ``cli-mix``    295 seeded requests per pass through ``bpadams.cli.main``.

After one untimed warm-up pass, passes repeat until ``--seconds`` have
elapsed (and at least three have run).  Times are in reference seconds (see
PROBE_REF_S) on the quietest usable CPU.
Every answer goes through the correctness gate in ``workloads.py``.  With
``--trace 0`` the last line of stdout reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  The line before it records the environment and the sample
counts, and both are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3        # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2  # untraced and traced passes each in a --trace 1 run
SETUP_SAMPLES = 5     # set-up measurements before the passes, and again after

VERIFY = {"verify-p2": (2, 12), "verify-p5": (5, 24)}
WORKLOADS = (*VERIFY, "cli-mix")

END_TO_END = {"wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}

# <span>.<calls|self_s|total_s>, a counter from tracer.COUNTERS, <module>.self_s
# (self time summed over the module's spans; "bench" is the driver's own
# share) or trace.*.
PER_LAYER = {
    "polyring.mul.calls": "count", "polyring.mul.self_s": "s",
    "polyring.mul.terms_out": "count",
    "polyring.substitute.calls": "count", "polyring.substitute.self_s": "s",
    "hopf.diagonal_transform.calls": "count", "hopf.diagonal_transform.self_s": "s",
    "hopf.diagonal_transform.total_s": "s",
    "hopf.to_right_unit_basis.calls": "count", "hopf.to_right_unit_basis.total_s": "s",
    "hopf.right_unit_tables.calls": "count", "hopf.right_unit_tables.total_s": "s",
    "centre.sampled_integrality_rows.total_s": "s", "centre.sample_rows": "count",
    "hopf.special_element.calls": "count", "hopf.special_element.total_s": "s",
    "hopf.right_unit_v_monomial.calls": "count", "hopf.right_unit_v_monomial.total_s": "s",
    "lattice.solve.calls": "count", "lattice.solve.self_s": "s",
    "lattice.solve.rows_in": "count", "lattice.solve.max_den_bits": "bits",
    "lattice.sandwich_check.calls": "count", "lattice.sandwich_check.self_s": "s",
    "centre.verify_centre_bp.self_s": "s", "centre.inclusion.dots": "count",
    "adamsk.C_vector.calls": "count", "adamsk.C_vector.self_s": "s",
    "adamsk.family_action.calls": "count", "adamsk.ku_congruence_system.total_s": "s",
    "adamsk.expand_in_family.total_s": "s",
    "fgl.BPContext.calls": "count", "fgl.BPContext.total_s": "s",
    "cli.main.self_s": "s",
    "polyring.self_s": "s", "fgl.self_s": "s", "hopf.self_s": "s", "adamsk.self_s": "s",
    "lattice.self_s": "s", "centre.self_s": "s", "cli.self_s": "s", "bench.self_s": "s",
    "trace.overhead": "ratio", "trace.overhead_est": "ratio", "trace.wall_s": "s",
    "trace.untraced_wall_s": "s", "trace.spans": "count",
}

# On a shared host a vCPU runs up to ~1.7x slower for seconds to minutes
# while another tenant loads the core under it, and each vCPU flips on its
# own.  So before every timed pass or set-up the run moves to the usable CPU
# on which a probe (exact rational products over a dict, not bpadams code) is
# fastest, and times are reported in reference seconds: raw seconds times
# PROBE_REF_S over the mean probe time just before and after, on that CPU.
# The probe slows down with the load, so reference seconds stay put while raw
# ones swing; the raw seconds and probe times are in the record of the run.
CPUS = sorted(os.sched_getaffinity(0))
PROBE_REF_S = 0.0065  # probe seconds on an unloaded vCPU of the host the baseline is from
_rng = random.Random(7)
PROBE_POLY = {tuple(_rng.randint(0, 4) for _ in range(5)):
              Fraction(_rng.randint(-99, 99), 2 ** _rng.randint(0, 20)) for _ in range(40)}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bpadams
{body}print(repr(time.perf_counter() - t0))
"""


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def environment() -> dict:
    """Python, cores, hash seed, and the commit when the checkout is a git tree."""
    commit = clean = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=60)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=60)
        except OSError:
            pass
        else:
            if head.returncode == 0 and status.returncode == 0:
                commit, clean = head.stdout.strip(), not status.stdout.strip()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpus_usable": len(CPUS),
            "hash_seed": os.environ.get("PYTHONHASHSEED"), "commit": commit, "clean": clean}


def probe_seconds() -> float:
    """Seconds for a few ms of exact rational products over a sparse dict."""
    t0 = time.perf_counter()
    out: dict = {}
    for ea, ca in PROBE_POLY.items():
        for eb, cb in PROBE_POLY.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return time.perf_counter() - t0


def move_to_quietest_cpu() -> tuple[int, float]:
    """Pin this process (and the children it starts) to the usable CPU on which
    the probe runs fastest; return that CPU and its probe seconds (the best
    of three)."""
    best = None
    for cpu in CPUS:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {cpu})
        t = min(probe_seconds() for _ in range(3))
        if best is None or t < best[1]:
            best = (cpu, t)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {best[0]})
    return best


@dataclass
class Sample:
    """One timed pass or set-up, with the probe seconds around it on its CPU."""

    seconds: float
    cpu: int
    probe_s: float
    traced: bool = False
    latencies: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from seconds on this CPU at this moment to reference seconds."""
        return PROBE_REF_S / self.probe_s


def measure_setup(workload, untimed: int = 0) -> list[Sample]:
    """Set-up in SETUP_SAMPLES fresh interpreters, after ``untimed`` ones (the
    first of a run writes the bytecode caches, so that every timed one starts
    alike)."""
    code = SETUP_CODE.format(body=workload.setup_code())
    samples = []
    for i in range(untimed + SETUP_SAMPLES):
        cpu, before = move_to_quietest_cpu()
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        after = min(probe_seconds() for _ in range(3))
        if i >= untimed:
            samples.append(Sample(float(done.stdout), cpu, (before + after) / 2))
    return samples


def run_passes(workload, gate, seconds: float, tracer=None) -> list[Sample]:
    """Repeat passes for ``seconds`` after the workload's warm-up passes.
    Without a tracer every pass is plain; with one, plain and traced passes
    alternate."""
    for _ in range(workload.warmup_passes):
        gate.add(workload.run_pass())
    passes: list[Sample] = []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and 2 * sum(p.traced for p in passes) < len(passes)
        gc.collect()
        cpu, before = move_to_quietest_cpu()
        if use_trace:
            tracer.install()
            tracer.begin_pass()
        t0 = time.perf_counter()
        outcomes = workload.run_pass()
        wall = time.perf_counter() - t0
        if use_trace:
            tracer.end_pass()
            tracer.uninstall()
        after = min(probe_seconds() for _ in range(3))
        passes.append(Sample(wall, cpu, (before + after) / 2, use_trace,
                             [o.seconds for o in outcomes]))
        gate.add(outcomes)
        n_traced = sum(p.traced for p in passes)
        enough = len(passes) >= MIN_PASSES if tracer is None \
            else min(len(passes) - n_traced, n_traced) >= MIN_TRACE_PASSES
        if enough and time.perf_counter() - start >= seconds:
            return passes


def end_to_end(passes: list[Sample], setup: list[Sample]) -> dict[str, float]:
    """Pass walls, request latencies and set-up times in reference seconds."""
    latencies = [x * p.scale for p in passes for x in p.latencies]
    return {
        "wall_s": statistics.median(p.seconds * p.scale for p in passes),
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(s.seconds * s.scale for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, passes: list[Sample]) -> dict[str, float]:
    """Numbers of the traced pass with the median time (the lower of the two
    middle ones for an even count).  Times are in reference seconds, each
    pass scaled by its own probe, so that the modules' self times add up to
    ``trace.wall_s`` = (1 + ``trace.overhead``) * ``trace.untraced_wall_s``."""
    traced = [p for p in passes if p.traced]
    ref = [p.seconds * p.scale for p in traced]
    k = sorted(range(len(ref)), key=ref.__getitem__)[(len(ref) - 1) // 2]
    scale = traced[k].scale
    agg = tracer.aggregate(k)
    counters = tracer.passes[k][4]
    untraced = statistics.median(p.seconds * p.scale for p in passes if not p.traced)
    spans = len(tracer.passes[k][0])
    wrappers_s = tracing.call_cost_ns() * spans / 1e9
    values = {
        "trace.overhead": ref[k] / untraced - 1,
        "trace.overhead_est": wrappers_s / (traced[k].seconds - wrappers_s),
        "trace.wall_s": ref[k],
        "trace.untraced_wall_s": untraced,
        "trace.spans": spans,
    }
    for name, unit in PER_LAYER.items():
        if name in values:
            continue
        if name in counters:
            values[name] = counters[name]
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = agg.get(span, {}).get(stat, 0) * (scale if unit == "s" else 1)
    return values


def main() -> int:
    args = parse_args()
    if not (SRC / "bpadams" / "__init__.py").is_file():
        print(f"error: {SRC / 'bpadams'} not found; run from the root of a bpadams checkout",
              file=sys.stderr)
        return 2
    if "PYTHONHASHSEED" not in os.environ:
        # Pin the hash seed to the workload seed, so that a seed fixes the run.
        os.environ["PYTHONHASHSEED"] = str(args.seed % 2 ** 32)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    if args.workload in VERIFY:
        p, n = VERIFY[args.workload]
        workload = workloads.VerifyWorkload(p, n, reference[args.workload]["sha256"])
    else:
        workload = workloads.MixWorkload(args.seed, reference["cli-mix"]["requests"])
    gate = workloads.Gate(workload)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}

    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as work:
        if args.trace:
            workload.prepare(Path(work))
            tracer = tracing.Tracer()
            passes = run_passes(workload, gate, args.seconds, tracer)
            metrics = per_layer(tracer, passes)
            units = PER_LAYER
        else:
            # set-up is sampled at both ends of the run, so that its median
            # does not rest on one moment of the host
            setup = measure_setup(workload, untimed=1)
            workload.prepare(Path(work))
            passes = run_passes(workload, gate, args.seconds)
            setup += measure_setup(workload)
            metrics = end_to_end(passes, setup)
            record["setup"] = [asdict(s) for s in setup]
            record["raw_medians_s"] = {"wall_s": statistics.median(p.seconds for p in passes),
                                       "setup_s": statistics.median(s.seconds for s in setup)}
            units = END_TO_END

    record["passes"] = [{**asdict(p), "latencies": None, "operations": len(p.latencies)}
                        for p in passes]
    record["latency_samples"] = sum(len(p.latencies) for p in passes if not p.traced)
    record["failure_reasons"] = gate.reasons
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({**record, "result": result}, indent=2) + "\n",
                                         encoding="utf-8")
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.tsv"))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
