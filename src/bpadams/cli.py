"""Command-line interface.

All verdict-bearing subcommands exit 0 when every verdict is true, 1 on a
verification failure, and 2 on usage or input errors.  Sequences and
systems are read from JSON files whose rationals are exact strings like
"3/4"; floating point values are rejected.  Output is deterministic for
fixed inputs: JSON is emitted with sorted keys and timing information
appears only in the human-readable format.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from fractions import Fraction

from .arith import (delta_p, ensure_prime, format_rational,
                    is_p_local_int, parse_rational, validate_q)
from .adamsk import FAMILY_KINDS, adams_family, expand_in_family
from .centre import (bp_sample_scan, interleaved_g_report, summand_rows,
                     verify_centre_bp)
from .fgl import BPContext
from .hopf import ConstructionError, right_unit_v_monomial, special_element
from .lattice import CongruenceSystem, solve


class InputError(ValueError):
    """Malformed input file or argument; maps to exit code 2."""


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def read_sequence(path: str) -> list[Fraction]:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("sequence")
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a JSON array (or {{\"sequence\": [...]}})")
    out = []
    for k, item in enumerate(data):
        try:
            out.append(parse_rational(item))
        except ValueError as exc:
            raise InputError(f"{path}: entry {k}: {exc}") from exc
    return out


def read_system(path: str) -> tuple[int, list[list[Fraction]]]:
    data = _load_json(path)
    if not isinstance(data, dict) or "p" not in data or "rows" not in data:
        raise InputError(f"{path}: expected {{\"p\": ..., \"rows\": [[...], ...]}}")
    try:
        p = ensure_prime(data["p"])
    except ValueError as exc:
        raise InputError(f"{path}: field 'p': {exc}") from exc
    rows_in = data["rows"]
    if not isinstance(rows_in, list) or not rows_in:
        raise InputError(f"{path}: field 'rows': expected a non-empty array of rows")
    rows = []
    width = None
    for r, row in enumerate(rows_in):
        if not isinstance(row, list):
            raise InputError(f"{path}: row {r}: expected an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{path}: row {r}: length {len(row)} != {width}")
        parsed = []
        for k, item in enumerate(row):
            try:
                parsed.append(parse_rational(item))
            except ValueError as exc:
                raise InputError(f"{path}: row {r}, entry {k}: {exc}") from exc
        rows.append(parsed)
    return p, rows


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _emit_csv(rows: list[list[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _emit(fmt: str, payload: dict, csv_rows: list[list[object]],
          pretty_lines: list[str]) -> None:
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "csv":
        _emit_csv(csv_rows)
    else:
        for line in pretty_lines:
            sys.stdout.write(line + "\n")


def _non_negative(text: str) -> int:
    """argparse type for counts and weight bounds; argparse names the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


_MONOMIAL_RE = re.compile(r"^([A-Za-z]+)([1-9]\d*)(?:\^(\d+))?$")


def parse_monomial(text: str, prefix: str) -> dict[str, int]:
    """Parse expressions like "v1^2*v2" into an exponent mapping: each
    factor is ``prefix`` followed by an index >= 1 without leading zeros,
    with an optional power."""
    out: dict[str, int] = {}
    if text.strip() in ("1", ""):
        return out
    for factor in text.split("*"):
        m = _MONOMIAL_RE.match(factor.strip())
        if not m or m.group(1) != prefix:
            raise InputError(
                f"bad monomial factor {factor!r}; expected e.g. {prefix}1^2")
        name, power = prefix + m.group(2), int(m.group(3) or 1)
        out[name] = out.get(name, 0) + power
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_congruences(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    vecs = summand_rows(p, args.n, args.q)
    rows = [vec.padded(args.n + 1) for vec in vecs]
    q_shown = [3, -1] if p == 2 else validate_q(p, args.q)
    payload = {
        "command": "congruences",
        "p": p,
        "q": q_shown,
        "n": args.n,
        "rows": [[format_rational(x) for x in row] for row in rows],
        "pivot_valuations": [-(delta_p(p, r)) for r in range(args.n + 1)],
    }
    csv_rows = [["r"] + [f"mu{i}" for i in range(args.n + 1)]]
    lines = [f"congruence rows for p={p}, q={q_shown}, n<={args.n}"]
    for r, row in enumerate(payload["rows"]):
        csv_rows.append([r] + row)
        lines.append(f"  C_{r} = (" + ", ".join(row) + ")")
    exit_code = 0
    if args.check is not None:
        mu = read_sequence(args.check)
        if len(mu) < args.n + 1:
            raise InputError(f"{args.check}: need at least {args.n + 1} entries")
        verdicts = [is_p_local_int(p, vec.dot(mu)) for vec in vecs]
        payload["check"] = {"sequence": [format_rational(x) for x in mu],
                           "verdicts": verdicts}
        csv_rows.append(["verdicts"] + verdicts)
        lines.append("checks: " + ", ".join(
            f"r={r}:{'ok' if v else 'FAIL'}" for r, v in enumerate(verdicts)))
        exit_code = 0 if all(verdicts) else 1
    _emit(args.format, payload, csv_rows, lines)
    return exit_code


def _cmd_basis_expand(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    fam = adams_family(args.family, p, args.q)
    lam = read_sequence(args.infile)
    coeffs, integral = expand_in_family(fam, lam)
    payload = {
        "command": "basis-expand",
        "family": fam.kind,
        "p": p,
        "q": fam.q,
        "input": [format_rational(x) for x in lam],
        "coefficients": [format_rational(a) for a in coeffs],
        "integral": integral,
    }
    csv_rows = [["n", "a_n"]] + [[n, format_rational(a)] for n, a in enumerate(coeffs)]
    lines = [f"expansion in {fam.kind} (p={p}, q={fam.q}):",
             "  a = (" + ", ".join(format_rational(a) for a in coeffs) + ")",
             f"  all coefficients {p}-locally integral: {'yes' if integral else 'NO'}"]
    _emit(args.format, payload, csv_rows, lines)
    return 0 if integral else 1


def _cmd_bp_etar(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    alpha = parse_monomial(args.monomial, "v")
    ctx = BPContext(p, args.weight, args.q)
    for name in alpha:
        if name not in ctx.v_table.names:
            raise InputError(f"{name} exceeds the weight bound {args.weight}")
    weight = sum(ctx.v_table.weight_of(n) * e for n, e in alpha.items())
    if weight > args.weight:
        raise InputError(
            f"monomial weight {weight} exceeds the bound {args.weight}")
    poly, table = right_unit_v_monomial(ctx, alpha)
    image = poly.to_text()
    entries = []
    all_integral = True
    for (beta, gamma), c in sorted(table.items()):
        ok = is_p_local_int(p, c)
        all_integral = all_integral and ok
        entries.append({
            "v_exponents": list(beta),
            "t_exponents": list(gamma),
            "coefficient": format_rational(c),
            "integral": ok,
        })
    payload = {
        "command": "bp-etaR",
        "p": p,
        "monomial": args.monomial,
        "weight_bound": args.weight,
        "image": image,
        "coefficients": entries,
        "all_integral": all_integral,
    }
    csv_rows = [["v_exponents", "t_exponents", "coefficient", "integral"]]
    for e in entries:
        csv_rows.append(["|".join(map(str, e["v_exponents"])),
                         "|".join(map(str, e["t_exponents"])),
                         e["coefficient"], e["integral"]])
    lines = [f"right unit image of {args.monomial} (p={p}, weight bound {args.weight}):",
             f"  {image}",
             f"  coefficients all {p}-locally integral: {'yes' if all_integral else 'NO'}"]
    _emit(args.format, payload, csv_rows, lines)
    return 0 if all_integral else 1


def _cmd_bp_dn(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    needed = delta_p(p, args.n)
    if args.weight is not None and args.weight < needed:
        print(f"warning: requested weight bound {args.weight} raised to {needed} "
              f"(the weight of d_{args.n})", file=sys.stderr)
    ctx = BPContext(p, needed if args.weight is None else max(args.weight, needed), args.q)
    d = special_element(ctx, args.n)
    payload = {
        "command": "bp-dn",
        "p": p,
        "n": args.n,
        "weight_bound": ctx.weight_bound,
        "element": d.element.to_text(),
        "c_bp": [format_rational(x) for x in d.c],
        "budget": delta_p(p, args.n),
    }
    csv_rows = [["j", "c_j"]] + [[j, format_rational(x)] for j, x in enumerate(d.c)]
    lines = [f"special element d_{args.n} (p={p}):",
             f"  d = {d.element.to_text()}",
             "  C^BP = (" + ", ".join(format_rational(x) for x in d.c) + ")",
             f"  pivot budget: p^-{delta_p(p, args.n)}"]
    _emit(args.format, payload, csv_rows, lines)
    return 0


def _cmd_verify_centre(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    started = time.perf_counter()
    report = verify_centre_bp(p, args.n, args.weight, args.q)
    elapsed = time.perf_counter() - started
    report["command"] = "verify-centre"
    csv_rows = [["n", "pivots", "sandwich", "sample_included", "verdict"]]
    for row in report["rows"]:
        csv_rows.append([row["n"], "|".join(map(str, row["pivots"])),
                         row["sandwich"], row["sample_included"], row["verdict"]])
    lines = [f"centre verification: p={p}, q={report['q']}, "
             f"weight bound {report['weight_bound']}"]
    if report["weight_raised"]:
        lines.append(f"  warning: requested weight bound raised to "
                     f"{report['weight_bound']} (the weight of d_{args.n})")
    for row in report["rows"]:
        lines.append(
            f"  n={row['n']}: pivots={row['pivots']} "
            f"S_n^BP = S_n^g: {'OK' if row['lattice_equal'] else 'FAIL'}; "
            f"sampled-BP inclusion: {'OK' if row['sample_included'] else 'FAIL'}")
    lines.append(f"overall: {'OK' if report['verdict'] else 'FAIL'} "
                 f"({elapsed:.2f}s)")
    _emit(args.format, report, csv_rows, lines)
    return 0 if report["verdict"] else 1


def _cmd_lattice(args: argparse.Namespace) -> int:
    p, rows = read_system(args.system)
    n = len(rows[0]) - 1
    lat = solve(CongruenceSystem(p, n, tuple(tuple(r) for r in rows)))
    payload = {"command": "lattice", "p": p, "n": n}
    payload.update(lat.to_jsonable())
    exit_code = 0
    lines = [f"solution lattice (p={p}, n={n}):",
             f"  pivot valuations: {list(lat.pivots())}"]
    for j, col in enumerate(lat.columns()):
        lines.append(f"  b_{j} = (" + ", ".join(format_rational(x) for x in col) + ")")
    csv_rows = [["column"] + [f"mu{i}" for i in range(n + 1)]]
    for j, col in enumerate(lat.columns()):
        csv_rows.append([j] + [format_rational(x) for x in col])
    if args.member is not None:
        mu = read_sequence(args.member)
        if len(mu) != n + 1:
            raise InputError(f"{args.member}: need exactly {n + 1} entries")
        inside = lat.contains(mu)
        payload["member"] = {"sequence": [format_rational(x) for x in mu],
                             "contained": inside}
        lines.append(f"  membership: {'yes' if inside else 'NO'}")
        csv_rows.append(["member", inside])
        exit_code = 0 if inside else 1
    _emit(args.format, payload, csv_rows, lines)
    return exit_code


def _cmd_scan(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    report = bp_sample_scan(p, args.n, args.max_weight, args.q)
    report["command"] = "scan-stabilization"
    csv_rows = [["weight", "pivots", "equals_summand_lattice"]]
    for s in report["scan"]:
        csv_rows.append([s["weight"], "|".join(map(str, s["pivots"])),
                         s["equals_summand_lattice"]])
    lines = [f"sampled-lattice stabilization scan: p={p}, n={args.n}",
             f"  target pivots: {report['target_pivots']}"]
    for s in report["scan"]:
        mark = "==" if s["equals_summand_lattice"] else "!="
        lines.append(f"  W={s['weight']}: pivots={s['pivots']} {mark} target")
    _emit(args.format, report, csv_rows, lines)
    return 0


def _cmd_interleave(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    report = interleaved_g_report(p, args.n, args.q)
    report["command"] = "interleave-scan"
    csv_rows = [["n", "interleaved_pivots", "ku_pivots", "equal"],
                [args.n, "|".join(map(str, report["interleaved_pivots"])),
                 "|".join(map(str, report["ku_pivots"])), report["equal"]]]
    lines = [f"interleaved summand rows vs connective rows: p={p}, n={args.n}",
             f"  interleaved pivots: {report['interleaved_pivots']}",
             f"  connective pivots:  {report['ku_pivots']}",
             f"  lattices equal: {'yes' if report['equal'] else 'no'}"]
    _emit(args.format, report, csv_rows, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpadams",
        description="Exact computations in the degree-zero stable operation "
                    "rings of p-local K-theory and Brown-Peterson cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=int, required=True, help="prime")
        sp.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="pretty")
        return sp

    sp = add_common(sub.add_parser(
        "congruences", help="print the summand congruence rows, optionally "
                            "checking a sequence"))
    sp.add_argument("--n", type=_non_negative, default=4)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--check", metavar="SEQ_JSON", default=None)
    sp.set_defaults(func=_cmd_congruences)

    sp = add_common(sub.add_parser(
        "basis-expand", help="expand an action sequence in a triangular family"))
    sp.add_argument("--family", choices=FAMILY_KINDS, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--in", dest="infile", metavar="SEQ_JSON", required=True)
    sp.set_defaults(func=_cmd_basis_expand)

    sp = add_common(sub.add_parser(
        "bp-etaR", help="right unit image of a v-monomial with its coefficients"))
    sp.add_argument("--weight", type=_non_negative, required=True)
    sp.add_argument("--monomial", required=True, help="e.g. v1^2*v2")
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(func=_cmd_bp_etar)

    sp = add_common(sub.add_parser(
        "bp-dn", help="the special congruence element d_n and its row"))
    sp.add_argument("--n", type=_non_negative, required=True)
    sp.add_argument("--weight", type=_non_negative, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(func=_cmd_bp_dn)

    sp = add_common(sub.add_parser(
        "verify-centre", help="verify the centre identification up to n"))
    sp.add_argument("--n", type=_non_negative, default=4)
    sp.add_argument("--weight", type=_non_negative, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(func=_cmd_verify_centre)

    sp = sub.add_parser("lattice", help="solve a congruence system from a JSON file")
    sp.add_argument("--system", metavar="SYS_JSON", required=True)
    sp.add_argument("--member", metavar="SEQ_JSON", default=None)
    sp.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    sp.set_defaults(func=_cmd_lattice)

    sp = add_common(sub.add_parser(
        "scan-stabilization", help="scan sampled-lattice pivots as the weight "
                                   "bound grows"))
    sp.add_argument("--n", type=_non_negative, required=True)
    sp.add_argument("--max-weight", type=_non_negative, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(func=_cmd_scan)

    sp = add_common(sub.add_parser(
        "interleave-scan", help="exploratory: interleaved summand rows vs the "
                                "connective system (odd p)"))
    sp.add_argument("--n", type=_non_negative, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(func=_cmd_interleave)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # on the first call of main, then reused


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "q", None) is not None:
            validate_q(args.p, args.q)
        return args.func(args)
    except ValueError as exc:  # InputError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(json.dumps({"error": str(exc), "details": exc.details}, sort_keys=True,
                         default=str), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
