"""The benchmark's workloads and the correctness gate applied to every answer.

A workload is prepared once per run (inputs generated from the seed and
written under a temporary directory), then run as repeated *passes*.  Each
pass returns one :class:`Outcome` per operation; the workload's ``check``
returns ``None`` for a correct answer or a one-line reason for a failed
operation, and :class:`Gate` counts them.  The program is driven only
through its public functions ``bpadams.verify_centre_bp`` and
``bpadams.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0


@dataclass
class Outcome:
    """One operation: what was asked, how long it took, what came back."""

    key: str          # stable identity of the request (argv with file contents)
    seconds: float
    code: object      # exit code, or the report for a verify call
    stdout: str = ""
    error: str = ""   # repr of an uncaught exception


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_json(report: dict) -> str:
    """The bytes ``bpadams verify-centre --format json`` prints for a report."""
    return json.dumps({**report, "command": "verify-centre"}, sort_keys=True, indent=2) + "\n"


def outcome_digest(out: Outcome) -> str:
    return sha256(f"{out.code}\n{out.stdout}")


class Gate:
    """Counts attempted and failed operations, with the reasons for failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def add(self, outcomes: list[Outcome]) -> None:
        for out in outcomes:
            self.attempted += 1
            reason = self.workload.check(out)
            if reason is not None:
                self.failed += 1
                self.reasons[reason] = self.reasons.get(reason, 0) + 1


# ---------------------------------------------------------------------------
# verify-p2 / verify-p5: one verify_centre_bp call per pass
# ---------------------------------------------------------------------------

class VerifyWorkload:
    """``verify_centre_bp(p, n)`` on fixed inputs; the seed is not used.

    One warm-up pass fills the module-level caches (Gaussian polynomials, the
    zeta actions) and the allocator's arenas; each call still builds its own
    context, as every CLI run does, and ``setup_s`` measures that part."""

    warmup_passes = 1

    def __init__(self, p: int, n: int, pinned: str | None):
        self.p, self.n, self.pinned = p, n, pinned
        self.key = f"verify_centre_bp({p}, {n})"

    def setup_code(self) -> str:
        """Statements timed as set-up after ``import bpadams``."""
        return (f"W = bpadams.delta_p({self.p}, {self.n})\n"
                f"ctx = bpadams.BPContext({self.p}, W)\n"
                "bpadams.to_right_unit_basis(ctx, bpadams.GradedPoly.gen(ctx.lt_table, W, 't1'))\n")

    def prepare(self, workdir: Path) -> None:
        import bpadams.centre
        self._centre = bpadams.centre  # looked up per call, so a tracer's wrapper is seen

    def run_pass(self) -> list[Outcome]:
        t0 = time.perf_counter()
        try:
            report = self._centre.verify_centre_bp(self.p, self.n)
        except Exception as exc:  # a failed operation, reported by the gate
            return [Outcome(self.key, time.perf_counter() - t0, None, error=repr(exc))]
        return [Outcome(self.key, time.perf_counter() - t0, report)]

    def check(self, out: Outcome) -> str | None:
        if out.error:
            return f"uncaught {out.error}"
        report = out.code
        if report.get("verdict") is not True:
            return f"verdict is {report.get('verdict')!r}"
        if self.pinned is not None and sha256(report_json(report)) != self.pinned:
            return "report differs from the pinned digest"
        return None


# ---------------------------------------------------------------------------
# cli-mix: a seeded closed loop of CLI requests from one client
# ---------------------------------------------------------------------------

# Request slots.  The structure of every slot (subcommand, p, n, weight,
# family, input length) is fixed so that the cost of a pass hardly depends on
# the seed; the seed chooses the numbers in the input files and the order.
_ETAR = [(2, 5, "v1^2*v2"), (2, 7, "v3"), (2, 7, "v1*v2^2"), (2, 8, "v1*v3"),
         (2, 9, "v2^3"), (3, 4, "v2"), (3, 6, "v1^2*v2"), (3, 8, "v2^2"),
         (3, 9, "v1*v2^2"), (5, 6, "v2"), (5, 8, "v1^2*v2"), (7, 8, "v2"),
         (7, 10, "v1^2*v2")]
_DN = [(2, n) for n in range(1, 7)] + [(3, n) for n in (2, 3, 5, 8, 9)] \
    + [(5, n) for n in (4, 5, 10)] + [(7, n) for n in (6, 7)]
_FAMILIES = [("phi_ku", 3), ("phi_ku", 5), ("phi_ku", 7), ("Phi_KU", 3), ("Phi_KU", 5),
             ("Phi_KU", 7), ("phihat_g", 3), ("phihat_g", 5), ("phihat_g", 7),
             ("zeta_ku2", 2)]


def mix_slots() -> list[tuple]:
    """The fixed request structure of one pass, before the seeded shuffle."""
    slots: list[tuple] = []
    for p in (2, 3, 5, 7):
        for n in range(2, 8):
            slots += [("congruences", p, n)] * 3
    for fam, p in _FAMILIES:
        for length in (5, 8):
            slots += [("basis-expand", fam, p, length)] * 2
    for p in (2, 3, 5):
        for size in (3, 4, 5, 6):
            slots += [("lattice", p, size)] * 4
    slots += [("bp-etaR",) + e for e in _ETAR] * 3
    slots += [("bp-dn",) + d for d in _DN] * 2
    slots += [("verify-centre", p, n) for p in (2, 3, 5, 7) for n in range(1, 6)] * 2
    slots += [("interleave-scan", p, n) for p in (3, 5, 7) for n in (2, 4, 6, 8)] * 2
    return slots


def _unit(rng: random.Random, p: int) -> int:
    while True:
        d = rng.randint(1, 9)
        if d % p:
            return d


def _rational(rng: random.Random, p: int) -> str:
    """A p-local integer num/den written exactly."""
    return str(Fraction(rng.randint(-20, 20), _unit(rng, p)))


def _sequence(rng: random.Random, p: int, length: int) -> list[str]:
    """Half the time c + p^E * (integers), which every summand lattice
    contains; otherwise arbitrary p-local integers."""
    if rng.random() < 0.5:
        c, big = rng.randint(-9, 9), p ** (2 * length + 2)
        return [str(c + big * rng.randint(-3, 3)) for _ in range(length)]
    return [_rational(rng, p) for _ in range(length)]


def _system(rng: random.Random, p: int, size: int) -> dict:
    rows = []
    for _ in range(rng.randint(1, size)):
        rows.append([str(Fraction(rng.randint(-9, 9), p ** rng.randint(0, 3)))
                     for _ in range(size)])
    if not any(Fraction(x) for row in rows for x in row):
        rows[0][0] = str(Fraction(1, p))
    return {"p": p, "rows": rows}


def _member(rng: random.Random, p: int, size: int) -> list[str]:
    scale = p ** 3 if rng.random() < 0.5 else 1
    return [str(scale * rng.randint(-30, 30)) for _ in range(size)]


class MixWorkload:
    """CLI requests through ``bpadams.cli.main(argv)``: every slot of
    :func:`mix_slots` once per pass, or a seeded subset of ``count``.

    One warm-up pass fills the module-level caches, which persist across
    requests in one process."""

    warmup_passes = 1

    def __init__(self, seed: int, pinned: dict[str, str] | None, count: int | None = None):
        self.seed, self.pinned, self.count = seed, pinned or {}, count

    def setup_code(self) -> str:
        return ""

    def prepare(self, workdir: Path) -> None:
        """Draw the requests and write their input files under ``workdir``."""
        import bpadams.cli
        self._cli = bpadams.cli  # looked up per call, so a tracer's wrapper is seen
        rng = random.Random(self.seed)
        slots = mix_slots()
        rng.shuffle(slots)
        slots = slots[:self.count]
        self.requests: list[tuple[str, list[str]]] = []
        for idx, slot in enumerate(slots):
            kind, rest = slot[0], slot[1:]
            files: dict[str, object] = {}
            if kind == "congruences":
                p, n = rest
                files["--check"] = _sequence(rng, p, n + 1)
                argv = ["congruences", "--p", str(p), "--n", str(n)]
            elif kind == "basis-expand":
                fam, p, length = rest
                files["--in"] = _sequence(rng, p, length)
                argv = ["basis-expand", "--family", fam, "--p", str(p)]
            elif kind == "lattice":
                p, size = rest
                files["--system"] = _system(rng, p, size)
                files["--member"] = _member(rng, p, size)
                argv = ["lattice"]
            elif kind == "bp-etaR":
                p, w, mono = rest
                argv = ["bp-etaR", "--p", str(p), "--weight", str(w), "--monomial", mono]
            else:  # bp-dn, verify-centre, interleave-scan
                p, n = rest
                argv = [kind, "--p", str(p), "--n", str(n)]
            key_parts = list(argv)
            for flag, content in files.items():
                text = json.dumps(content)
                path = workdir / f"r{idx}{flag.replace('-', '_')}.json"
                path.write_text(text, encoding="utf-8")
                argv += [flag, str(path)]
                key_parts += [flag, text]
            argv += ["--format", "json"]
            self.requests.append((sha256(json.dumps(key_parts)), argv))

    def call(self, argv: list[str]) -> Outcome:
        """One request, timed around ``main(argv)`` alone."""
        out, err = io.StringIO(), io.StringIO()
        error = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self._cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit 2
                code = exc.code
            except Exception as exc:  # a failed operation, reported by the gate
                code, error = None, repr(exc)
            seconds = time.perf_counter() - t0
        return Outcome("", seconds, code, out.getvalue(), error)

    def run_pass(self) -> list[Outcome]:
        outcomes = []
        for key, argv in self.requests:
            out = self.call(argv)
            out.key = key
            outcomes.append(out)
        return outcomes

    def check(self, out: Outcome) -> str | None:
        if out.error:
            return f"uncaught {out.error}"
        if out.code not in (0, 1):
            return f"exit code {out.code!r}"
        try:
            payload = json.loads(out.stdout)
        except ValueError:
            return "stdout is not JSON"
        if payload.get("command") == "verify-centre" and payload.get("verdict") is not True:
            return "verify-centre verdict is false"
        pinned = self.pinned.get(out.key)
        if pinned is not None:
            return None if outcome_digest(out) == pinned else "output differs from the pinned digest"
        return _consistent(payload, out.code)


def _val_ok(p: int, x: Fraction) -> bool:
    return x.denominator % p != 0


def _consistent(payload: dict, code: int) -> str | None:
    """Checks, independent of the program's code, on a request with seeded
    inputs whose answer is not pinned."""
    cmd = payload.get("command")
    if cmd == "congruences" and "check" in payload:
        p = payload["p"]
        mu = [Fraction(x) for x in payload["check"]["sequence"]]
        want = [_val_ok(p, sum((Fraction(c) * m for c, m in zip(row, mu)), Fraction(0)))
                for row in payload["rows"]]
        if payload["check"]["verdicts"] != want:
            return "congruence verdicts disagree with the printed rows"
        return None if code == (0 if all(want) else 1) else "exit code disagrees with verdicts"
    if cmd == "basis-expand":
        integral = all(_val_ok(payload["p"], Fraction(a)) for a in payload["coefficients"])
        if payload["integral"] != integral or code != (0 if integral else 1):
            return "integrality flag disagrees with the printed coefficients"
        return None
    if cmd == "lattice" and "member" in payload:
        p = payload["p"]
        cols = [[Fraction(x) for x in col] for col in payload["basis_columns"]]
        residual = [Fraction(x) for x in payload["member"]["sequence"]]
        inside = True
        for j, col in enumerate(cols):  # lower-triangular basis: forward solve
            x = residual[j] / col[j]
            inside = inside and _val_ok(p, x)
            residual = [r - x * c for r, c in zip(residual, col)]
        if payload["member"]["contained"] != inside or code != (0 if inside else 1):
            return "membership disagrees with the printed basis"
        return None
    return f"unexpected unpinned {cmd!r} answer"
