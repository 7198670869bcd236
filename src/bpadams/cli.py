"""Command-line interface.

All verdict-bearing subcommands exit 0 when every verdict is true, 1 on a
verification failure or an internal failure, and 2 on usage or input
errors.  An internal failure prints one JSON line on stderr instead of a
traceback: a ``ConstructionError`` its message and details, any other
exception that is not a ``ValueError`` its message, the subcommand and
the exception's class.  Sequences and systems are read from JSON files
whose rationals are exact strings like "3/4"; floating point values are
rejected.  Each entry is read once, as integers
(:func:`bpadams.arith.read_rational`): a sequence is kept as integers
over one denominator and a system as its integer rows, which the
commands test, solve and echo as they are.  Output is deterministic for fixed inputs: JSON is written by
:func:`_emit` and :func:`_json_text` with exactly the bytes of
``json.dumps(payload, sort_keys=True, indent=2)``, and timing information
appears only in the human-readable format.

A request is parsed by its subcommand's own parser, and by the full
parser only when the first word names no subcommand or words are left
over, so both give the same Namespace, messages and exit codes.
``congruences --check`` takes each verdict from one integer sum
(:func:`bpadams.arith.integral_dot`).  A request builds only the form
``--format`` asks for: its payload holds every value formatted once, and
the CSV rows (``_csv_*``) or the pretty lines (``_pretty_*``) are built
from the payload's strings only for their own format.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .arith import (_read_int, delta_p, ensure_prime, format_over, format_rational,
                    integral_dot, is_p_local_int, read_rational, validate_q)
from .adamsk import FAMILY_KINDS, CongruenceVector, _expansion, adams_family
from .centre import (bp_sample_scan, interleaved_g_report, summand_rows,
                     verify_centre_bp)
from .fgl import BPContext
from .hopf import ConstructionError, right_unit_v_monomial, special_element
from .lattice import CongruenceSystem, solve


class InputError(ValueError):
    """Malformed input file or argument; maps to exit code 2."""


def _load_json(path: str) -> object:
    """The JSON file at ``path``, its integers read by
    :func:`bpadams.arith._read_int`, so past the str-to-int limit too.  A
    file nested deeper than the parser recurses is refused as input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_read_int)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: nested too deeply to read") from exc


def _read_entries(path: str, items: list, where: str = "") -> tuple[list[int], int]:
    """The entries ``items`` of the JSON file at ``path`` as (N, D), entry
    k being N_k / D, D the lcm of their denominators: each read once by
    :func:`bpadams.arith.read_rational`, a refusal named by ``where`` and k."""
    pairs = []
    for k, item in enumerate(items):
        try:
            pairs.append(read_rational(item))
        except ValueError as exc:
            raise InputError(f"{path}: {where}entry {k}: {exc}") from exc
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def read_sequence(path: str) -> tuple[list[int], int]:
    """The sequence in the JSON file at ``path`` as (N, D) (:func:`_read_entries`)."""
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("sequence")
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a JSON array (or {{\"sequence\": [...]}})")
    return _read_entries(path, data)


def read_system(path: str) -> tuple[int, list[tuple[list[int], int]]]:
    """The prime and the rows of the system in the JSON file at ``path``,
    each row as (N, D) (:func:`_read_entries`)."""
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
            if not row:
                raise InputError(f"{path}: row {r}: expected a non-empty array")
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{path}: row {r}: length {len(row)} != {width}")
        rows.append(_read_entries(path, row, f"row {r}, "))
    return p, rows


def _json_text(value: object, newline: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, nested at ``newline`` (a line break and the indent of its line).

    json falls back to its pure-Python encoder whenever ``indent`` is set;
    this writer joins each container's items with ``str.join`` and quotes
    strings with json's C ``encode_basestring_ascii``, in the order of
    json's own type tests.  It takes what the payloads hold: dicts with
    str keys, lists, tuples, str, int, bool and None.  Anything else,
    floats included, raises ``TypeError``.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_json_text(item, inner) for item in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return "{" + inner + ("," + inner).join(
            [_quote(key) + ": " + _json_text(value[key], inner)
             for key in sorted(value)]) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(fmt: str, payload: dict, csv_rows, pretty_lines) -> None:
    """Write the one form ``fmt`` asks for: the JSON payload, or the CSV
    rows ``csv_rows(payload)`` or the pretty lines ``pretty_lines(payload)``
    build from the strings the payload already holds.  The forms not asked
    for are never built.  The JSON is :func:`_json_text`'s, written a key
    and a top-level list item at a time, so no text of the whole payload
    is held."""
    if fmt == "json" and not payload:
        sys.stdout.write(_json_text(payload) + "\n")
    elif fmt == "json":
        write = sys.stdout.write
        for k, key in enumerate(sorted(payload)):
            write(("," if k else "{") + "\n  " + _quote(key) + ": ")
            value = payload[key]
            if not isinstance(value, (list, tuple)) or not value:
                write(_json_text(value, "\n  "))
                continue
            for i, item in enumerate(value):
                write(("," if i else "[") + "\n    " + _json_text(item, "\n    "))
            write("\n  ]")
        write("\n}\n")
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows(payload))
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write("".join(line + "\n" for line in pretty_lines(payload)))


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

def _congruence_verdicts(p: int, vecs: list[CongruenceVector],
                         mu: tuple[list[int], int]) -> list[bool]:
    """Whether each row's value on the sequence ``mu``, as (N, D), is
    p-locally integral (:func:`bpadams.arith.integral_dot`)."""
    return [integral_dot(p, vec.integer_row, mu) for vec in vecs]


def _cmd_congruences(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    vecs = summand_rows(p, args.n, args.q)
    payload = {
        "command": "congruences",
        "p": p,
        "q": [3, -1] if p == 2 else validate_q(p, args.q),
        "n": args.n,
        "rows": [format_over(*vec.integer_row) + ["0"] * (args.n - vec.n) for vec in vecs],
        "pivot_valuations": [-(delta_p(p, r)) for r in range(args.n + 1)],
    }
    exit_code = 0
    if args.check is not None:
        mu = read_sequence(args.check)
        if len(mu[0]) < args.n + 1:
            raise InputError(f"{args.check}: need at least {args.n + 1} entries")
        verdicts = _congruence_verdicts(p, vecs, mu)
        payload["check"] = {"sequence": format_over(*mu), "verdicts": verdicts}
        exit_code = 0 if all(verdicts) else 1
    _emit(args.format, payload, _csv_congruences, _pretty_congruences)
    return exit_code


def _csv_congruences(payload: dict) -> list[list[object]]:
    out = [["r"] + [f"mu{i}" for i in range(payload["n"] + 1)]]
    out += [[r] + row for r, row in enumerate(payload["rows"])]
    if "check" in payload:
        out.append(["verdicts"] + payload["check"]["verdicts"])
    return out


def _pretty_congruences(payload: dict) -> list[str]:
    out = [f"congruence rows for p={payload['p']}, q={payload['q']}, n<={payload['n']}"]
    out += [f"  C_{r} = (" + ", ".join(row) + ")" for r, row in enumerate(payload["rows"])]
    if "check" in payload:
        out.append("checks: " + ", ".join(f"r={r}:{'ok' if v else 'FAIL'}"
                                          for r, v in enumerate(payload["check"]["verdicts"])))
    return out


def _cmd_basis_expand(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    fam = adams_family(args.family, p, args.q)
    lam = read_sequence(args.infile)
    coeffs, den, integral = _expansion(fam, *lam)
    payload = {
        "command": "basis-expand",
        "family": fam.kind,
        "p": p,
        "q": fam.q,
        "input": format_over(*lam),
        "coefficients": format_over(coeffs, den),
        "integral": integral,
    }
    _emit(args.format, payload, _csv_basis_expand, _pretty_basis_expand)
    return 0 if integral else 1


def _csv_basis_expand(payload: dict) -> list[list[object]]:
    return [["n", "a_n"]] + [[n, a] for n, a in enumerate(payload["coefficients"])]


def _pretty_basis_expand(payload: dict) -> list[str]:
    return [f"expansion in {payload['family']} (p={payload['p']}, q={payload['q']}):",
            "  a = (" + ", ".join(payload["coefficients"]) + ")",
            f"  all coefficients {payload['p']}-locally integral: "
            f"{'yes' if payload['integral'] else 'NO'}"]


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
        "image": poly.to_text(),
        "coefficients": entries,
        "all_integral": all_integral,
    }
    _emit(args.format, payload, _csv_bp_etar, _pretty_bp_etar)
    return 0 if all_integral else 1


def _csv_bp_etar(payload: dict) -> list[list[object]]:
    return [["v_exponents", "t_exponents", "coefficient", "integral"]] + [
        ["|".join(map(str, e["v_exponents"])), "|".join(map(str, e["t_exponents"])),
         e["coefficient"], e["integral"]] for e in payload["coefficients"]]


def _pretty_bp_etar(payload: dict) -> list[str]:
    p = payload["p"]
    return [f"right unit image of {payload['monomial']} "
            f"(p={p}, weight bound {payload['weight_bound']}):",
            f"  {payload['image']}",
            f"  coefficients all {p}-locally integral: "
            f"{'yes' if payload['all_integral'] else 'NO'}"]


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
        "c_bp": format_over(d.numerators, d.den),
        "budget": needed,
    }
    _emit(args.format, payload, _csv_bp_dn, _pretty_bp_dn)
    return 0


def _csv_bp_dn(payload: dict) -> list[list[object]]:
    return [["j", "c_j"]] + [[j, x] for j, x in enumerate(payload["c_bp"])]


def _pretty_bp_dn(payload: dict) -> list[str]:
    return [f"special element d_{payload['n']} (p={payload['p']}):",
            f"  d = {payload['element']}",
            "  C^BP = (" + ", ".join(payload["c_bp"]) + ")",
            f"  pivot budget: p^-{payload['budget']}"]


def _cmd_verify_centre(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    started = time.perf_counter()
    report = verify_centre_bp(p, args.n, args.weight, args.q)
    elapsed = time.perf_counter() - started
    report["command"] = "verify-centre"
    _emit(args.format, report, _csv_verify_centre,
          functools.partial(_pretty_verify_centre, elapsed=elapsed))
    return 0 if report["verdict"] else 1


def _csv_verify_centre(report: dict) -> list[list[object]]:
    return [["n", "pivots", "sandwich", "sample_included", "verdict"]] + [
        [row["n"], "|".join(map(str, row["pivots"])), row["sandwich"],
         row["sample_included"], row["verdict"]] for row in report["rows"]]


def _pretty_verify_centre(report: dict, elapsed: float) -> list[str]:
    out = [f"centre verification: p={report['p']}, q={report['q']}, "
           f"weight bound {report['weight_bound']}"]
    if report["weight_raised"]:
        out.append(f"  warning: requested weight bound raised to "
                   f"{report['weight_bound']} (the weight of d_{report['n_max']})")
    for row in report["rows"]:
        out.append(
            f"  n={row['n']}: pivots={row['pivots']} "
            f"S_n^BP = S_n^g: {'OK' if row['lattice_equal'] else 'FAIL'}; "
            f"sampled-BP inclusion: {'OK' if row['sample_included'] else 'FAIL'}")
    out.append(f"overall: {'OK' if report['verdict'] else 'FAIL'} ({elapsed:.2f}s)")
    return out


def _cmd_lattice(args: argparse.Namespace) -> int:
    p, rows = read_system(args.system)
    n = len(rows[0][0]) - 1
    lat = solve(CongruenceSystem(p, n, None, rows))
    payload = {"command": "lattice", "p": p, "n": n}
    payload.update(lat.to_jsonable())
    exit_code = 0
    if args.member is not None:
        mu = read_sequence(args.member)
        if len(mu[0]) != n + 1:
            raise InputError(f"{args.member}: need exactly {n + 1} entries")
        inside = lat.contains(None, mu)
        payload["member"] = {"sequence": format_over(*mu), "contained": inside}
        exit_code = 0 if inside else 1
    _emit(args.format, payload, _csv_lattice, _pretty_lattice)
    return exit_code


def _csv_lattice(payload: dict) -> list[list[object]]:
    out = [["column"] + [f"mu{i}" for i in range(payload["n"] + 1)]]
    out += [[j] + col for j, col in enumerate(payload["basis_columns"])]
    if "member" in payload:
        out.append(["member", payload["member"]["contained"]])
    return out


def _pretty_lattice(payload: dict) -> list[str]:
    out = [f"solution lattice (p={payload['p']}, n={payload['n']}):",
           f"  pivot valuations: {payload['pivots']}"]
    out += [f"  b_{j} = (" + ", ".join(col) + ")"
            for j, col in enumerate(payload["basis_columns"])]
    if "member" in payload:
        out.append(f"  membership: {'yes' if payload['member']['contained'] else 'NO'}")
    return out


def _cmd_scan(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    report = bp_sample_scan(p, args.n, args.max_weight, args.q)
    report["command"] = "scan-stabilization"
    _emit(args.format, report, _csv_scan, _pretty_scan)
    return 0


def _csv_scan(report: dict) -> list[list[object]]:
    return [["weight", "pivots", "equals_summand_lattice"]] + [
        [s["weight"], "|".join(map(str, s["pivots"])), s["equals_summand_lattice"]]
        for s in report["scan"]]


def _pretty_scan(report: dict) -> list[str]:
    out = [f"sampled-lattice stabilization scan: p={report['p']}, n={report['n']}",
           f"  target pivots: {report['target_pivots']}"]
    for s in report["scan"]:
        mark = "==" if s["equals_summand_lattice"] else "!="
        out.append(f"  W={s['weight']}: pivots={s['pivots']} {mark} target")
    return out


def _cmd_interleave(args: argparse.Namespace) -> int:
    p = ensure_prime(args.p)
    report = interleaved_g_report(p, args.n, args.q)
    report["command"] = "interleave-scan"
    _emit(args.format, report, _csv_interleave, _pretty_interleave)
    return 0


def _csv_interleave(report: dict) -> list[list[object]]:
    return [["n", "interleaved_pivots", "ku_pivots", "equal"],
            [report["n"], "|".join(map(str, report["interleaved_pivots"])),
             "|".join(map(str, report["ku_pivots"])), report["equal"]]]


def _pretty_interleave(report: dict) -> list[str]:
    return [f"interleaved summand rows vs connective rows: p={report['p']}, n={report['n']}",
            f"  interleaved pivots: {report['interleaved_pivots']}",
            f"  connective pivots:  {report['ku_pivots']}",
            f"  lattices equal: {'yes' if report['equal'] else 'no'}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpadams",
        description="Exact computations in the degree-zero stable operation "
                    "rings of p-local K-theory and Brown-Peterson cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subparser, for main's dispatch

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


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The Namespace ``_parser().parse_args(argv)`` gives, parsed by the
    subcommand's own parser when the first word names one and it takes
    every word; otherwise (no words, ``-h``, an unknown subcommand, words
    left over) by the full parser, which prints and exits as it always
    does.  A subparser that refuses its words exits there, with the
    message the full parser would print, since the full parser hands
    them to the same subparser."""
    words = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    sub = parser.subcommands.get(words[0]) if words else None
    if sub is not None:
        args, extra = sub.parse_known_args(words[1:])
        if not extra:
            return argparse.Namespace(command=words[0], **vars(args))
    return parser.parse_args(words)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
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
    except Exception as exc:  # an internal failure: a diagnostic, not a traceback
        print(json.dumps({"error": str(exc), "details": {
            "command": args.command, "type": type(exc).__name__}}, sort_keys=True),
            file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
