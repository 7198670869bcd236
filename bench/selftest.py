#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of bpadams), at a tiny size.

    python3 bench/selftest.py

Checks that

* every counter of a traced run (each span's call count and every counter in
  ``tracer.COUNTERS``) repeats exactly: twice in one process, and in fresh
  processes with other hash seeds, on ``verify_centre_bp(2, 4)`` and a
  20-request mix;
* the correctness gate fails when it should: a tampered report, a false
  verdict, a forced exit 2, an uncaught exception and a changed output each
  register as a failed operation, so that the failure ratio rises;
* a run reports exactly the metrics ``BENCHMARK.json`` names, with its units.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_workloads(workdir: Path) -> list:
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    verify = workloads.VerifyWorkload(2, 4, None)
    mix = workloads.MixWorkload(workloads.DEFAULT_SEED, reference["cli-mix"]["requests"], count=20)
    for wl in (verify, mix):
        wl.prepare(workdir)
    return [verify, mix]


def traced_counts(tracer, wl) -> dict:
    """Call counts per span and counters of one traced pass of ``wl``."""
    tracer.install()
    tracer.begin_pass()
    wl.run_pass()
    tracer.end_pass()
    tracer.uninstall()
    agg = tracer.aggregate(len(tracer.passes) - 1)
    counts = {f"{name}.calls": a["calls"] for name, a in agg.items()}
    counts.update(tracer.passes[-1][4])
    return counts


def counts_in_this_process() -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as work:
        tracer = tracing.Tracer()
        return [traced_counts(tracer, wl) for wl in tiny_workloads(Path(work))]


def check_counters() -> None:
    first = counts_in_this_process()
    again = counts_in_this_process()
    expect(first == again, "counters repeat exactly within one process")
    expect(all(c["polyring.mul.calls"] > 0 and c["lattice.solve.calls"] > 0 for c in first),
           "the tiny runs reach polyring and lattice")
    for seed in ("1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, __file__, "--print-counters"], env=env,
                              capture_output=True, text=True, timeout=300)
        other = json.loads(done.stdout) if done.returncode == 0 else None
        expect(other == first, f"counters repeat exactly with PYTHONHASHSEED={seed}")


def check_gate() -> None:
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as work:
        verify, mix = tiny_workloads(Path(work))
        (good,) = verify.run_pass()
        verify.pinned = workloads.sha256(workloads.report_json(good.code))
        gate = workloads.Gate(verify)
        gate.add([good])
        expect(gate.failed == 0, "an untouched report passes the gate")

        tampered = json.loads(json.dumps(good.code))
        tampered["rows"][1]["pivots"][0] += 1
        false_verdict = {**good.code, "verdict": False}
        raised = workloads.Outcome(verify.key, 0.0, None, error="ConstructionError('forced')")
        for out, what in ((workloads.Outcome(verify.key, 0.0, tampered), "a tampered report"),
                          (workloads.Outcome(verify.key, 0.0, false_verdict), "a false verdict"),
                          (raised, "an uncaught exception in a verify call")):
            before = gate.failed
            gate.add([out])
            expect(gate.failed == before + 1, f"{what} counts as a failed operation")

        outcomes = mix.run_pass()
        gate = workloads.Gate(mix)
        gate.add(outcomes)
        expect(gate.failed == 0 and gate.attempted == 20, "the 20-request mix passes the gate")
        forced = [mix.call(["congruences", "--p", "4", "--format", "json"]),  # ValueError path
                  mix.call(["bp-dn", "--p", "3", "--format", "json"])]       # argparse path
        expect([o.code for o in forced] == [2, 2], "invalid requests exit 2")
        changed = workloads.Outcome(outcomes[0].key, 0.0, outcomes[0].code,
                                    outcomes[0].stdout.replace("{", '{"tampered": true, ', 1))
        real_cli = mix._cli

        class Raising:
            @staticmethod
            def main(argv):
                import bpadams
                raise bpadams.ConstructionError("forced", {"n": 0})

        mix._cli = Raising
        crashed = mix.call(["bp-dn", "--p", "3", "--n", "2", "--format", "json"])
        mix._cli = real_cli
        gate.add(forced + [changed, crashed])
        expect(gate.failed == 4, "exit 2, a changed output and an uncaught exception fail")
        expect(gate.failed / gate.attempted > 0, "the failure ratio rises above 0")


def check_metric_names() -> None:
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as work:
        verify, _ = tiny_workloads(Path(work))
        tracer = tracing.Tracer()
        gate = workloads.Gate(verify)
        passes = run.run_passes(verify, gate, 0.0, tracer)
        layer = run.per_layer(tracer, passes)
        e2e = run.end_to_end(passes, [run.Sample(0.1, 0, run.PROBE_REF_S)])
    expect(set(layer) == set(run.PER_LAYER), "a traced run reports every per-layer metric")
    expect(set(e2e) == set(run.END_TO_END), "a plain run reports every end-to-end metric")
    spec_path = BENCH.parent / "BENCHMARK.json"
    if not spec_path.exists():
        expect(False, "BENCHMARK.json exists at the root of the checkout")
        return
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")


def main() -> int:
    if sys.argv[1:] == ["--print-counters"]:
        print(json.dumps(counts_in_this_process()))
        return 0
    check_counters()
    check_gate()
    check_metric_names()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
