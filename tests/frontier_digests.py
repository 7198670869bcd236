"""Check the report digests of ``verify_centre_bp`` at the frontier points
that tier-1 does not pin.

Each digest is the first 16 hex digits of the SHA-256 of
``json.dumps(report, sort_keys=True)``.  Together the fourteen runs take
about 20-30 s on two cores; they go through the walk's wide re-spreads at
p = 2, (13, 120) through its widest packed rows, of tight widths
up to 447 bits, and (2, 32), whose bound W = 63 is the first to hold t_6,
through the generator image of t_6; (2, 36), (2, 40) and (2, 44), whose
t_1-chains multiply only the rows they keep, take about 0.7 s, 1.6 s and
3.6 s.  (3, 50) and (11, 100) were computed
by the walk on Araki's generators, before it moved to Hazewinkel's,
(2, 32) by the recursion on terms, before the images moved to packed
rows, (5, 80) and (3, 60) while the walk still handed its rows over
decoded and sorted by delta, (2, 36), (2, 40) and (7, 100) by the
walk whose parent of gamma dropped gamma's highest generator, where
(2, 40) took 37 s, and (2, 44) by the walk that multiplied every row
of a t_1-chain, in 7-10 s.  pytest
does not collect this file.  Run it as ``python tests/frontier_digests.py``;
it exits 1 if a digest differs.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bpadams.centre import verify_centre_bp  # noqa: E402

FRONTIER = {
    (2, 24): "d942816e97fa13bf",
    (3, 40): "6341f9d3977573fd",
    (5, 60): "b93b54652a8142ab",
    (7, 60): "430d48c3046225f3",
    (3, 50): "717469b7936e533a",
    (11, 100): "ea4646c2e9872ab9",
    (13, 120): "5892e02cca9090d4",
    (2, 32): "938c4c0698c5664c",
    (5, 80): "b1b303d74286d0d7",
    (3, 60): "223bb8c515013bbc",
    (2, 36): "88a3d5a1d2402663",
    (2, 40): "94428a690044ff1c",
    (7, 100): "bf503f9fb2cf73f1",
    (2, 44): "702eb0cb951c3df1",
}


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    failed = 0
    for (p, n), want in FRONTIER.items():
        start = time.perf_counter()
        got = digest(verify_centre_bp(p, n))
        status = "ok" if got == want else f"differs, pinned {want}"
        print(f"verify_centre_bp({p}, {n}): {got} {status} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        failed += got != want
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
