#!/usr/bin/env python3
"""Write bench/reference.json: the digests the correctness gate compares against.

    python3 bench/pin.py

Pins, at the commit it is run on:

* for each verify workload, the SHA-256 of its report as
  ``bpadams verify-centre --format json`` prints it;
* for ``cli-mix`` on its default seed, the SHA-256 of each request's exit code
  and stdout, keyed by the request (argv with the input files' contents).

Run it only at a commit whose answers are known to be right; every later run
of the benchmark is judged against these digests.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    head = subprocess.run(["git", "-C", str(BENCH.parent), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    ref: dict = {"commit": head.stdout.strip() or None}
    for name, (p, n) in run.VERIFY.items():
        wl = workloads.VerifyWorkload(p, n, None)
        wl.prepare(BENCH)
        (out,) = wl.run_pass()
        if wl.check(out) is not None:
            raise SystemExit(f"{name}: {wl.check(out)}")
        ref[name] = {"call": wl.key, "sha256": workloads.sha256(workloads.report_json(out.code))}
    mix = workloads.MixWorkload(workloads.DEFAULT_SEED, None)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as work:
        mix.prepare(Path(work))
        outcomes = mix.run_pass()
    bad = [o for o in outcomes
           if o.error or o.code not in (0, 1) or '"verdict": false' in o.stdout]
    if bad:
        raise SystemExit(f"cli-mix: {len(bad)} requests failed, e.g. {bad[0]}")
    ref["cli-mix"] = {"seed": workloads.DEFAULT_SEED,
                      "requests": {o.key: workloads.outcome_digest(o) for o in outcomes}}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    print(f"pinned {len(ref['cli-mix']['requests'])} distinct cli-mix requests and "
          f"{len(run.VERIFY)} verify reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
