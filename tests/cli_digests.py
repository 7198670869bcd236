"""Check the bytes the CLI writes.

* One json, one csv and one pretty request per subcommand, and one more
  of ``basis-expand`` on an input file whose integers pass 640 digits, the
  least limit on int-to-str conversion an interpreter takes: the SHA-256
  of the exit code and stdout (the first 16 hex digits) must equal its
  pin, also under ``PYTHONINTMAXSTRDIGITS=640``.  The elapsed time in the
  pretty output of ``verify-centre`` is masked.
* Bad inputs: ``main`` must print on stdout and stderr and exit exactly
  as the full parser, ``_parser().parse_args``, does in the same
  interpreter, so the check holds whatever argparse version writes.
* Bad input files, which the parser takes: ``main`` must exit 2 and
  print nothing on stdout, and on stderr the file and the place in it.

Input files are written to a temporary directory; no output depends on
their paths.  pytest does not collect this file.  Run it as
``python tests/cli_digests.py``; it exits 1 if a check fails.
``tests/test_cli.py`` sweeps the same argument lists in tier-1.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bpadams import cli  # noqa: E402

FORMATS = ("json", "csv", "pretty")

# the input files, by the name the requests use for them
FILES = {
    "seq.json": ["1", "2", "4", "8", "16", "5/7"],
    "sys.json": {"p": 3, "rows": [["-1/3", "1/3", "0"], ["1/9", "-2/9", "4/9"]]},
    "mu.json": ["1", "7", "-26"],
    "wide.json": ["1" * 700, "-" + "9" * 650 + "/7", "5/" + "3" * 641, "2", "0"],
}

# one request per subcommand, and a second basis-expand, before ``--format``
REQUESTS = {
    "congruences": ["congruences", "--p", "3", "--n", "4", "--check", "seq.json"],
    "basis-expand": ["basis-expand", "--family", "phihat_g", "--p", "3", "--in", "seq.json"],
    "bp-etaR": ["bp-etaR", "--p", "3", "--weight", "6", "--monomial", "v1^2*v2"],
    "bp-dn": ["bp-dn", "--p", "2", "--n", "4"],
    "verify-centre": ["verify-centre", "--p", "3", "--n", "4"],
    "lattice": ["lattice", "--system", "sys.json", "--member", "mu.json"],
    "scan-stabilization": ["scan-stabilization", "--p", "3", "--n", "2", "--max-weight", "6"],
    "interleave-scan": ["interleave-scan", "--p", "3", "--n", "6"],
    "basis-expand wide": ["basis-expand", "--family", "phi_ku", "--p", "5", "--in", "wide.json"],
}

# sha256 of "exit <code>\n" + stdout, first 16 hex digits
PINNED = {
    "congruences": {"json": "c7311e1c15939897", "csv": "1b9269a3b55bf55a", "pretty": "0dde9ee0d6c04dd0"},
    "basis-expand": {"json": "8ae3812642a2c2a2", "csv": "f323cfd33d908c26", "pretty": "c7e3f4c8d68e8b17"},
    "bp-etaR": {"json": "8ec24d8579059d5b", "csv": "74810d595db02af5", "pretty": "b93b40f1fde585f4"},
    "bp-dn": {"json": "ec803be18abc7f89", "csv": "4396ea16d4cc0304", "pretty": "e5565f8b33c5829b"},
    "verify-centre": {"json": "65235867c71d458a", "csv": "5228aee9b1ac7691", "pretty": "c1819ea721c96357"},
    "lattice": {"json": "eb231e3aad1d78fe", "csv": "0b24b04bff8bdd67", "pretty": "213508885ba0c5e5"},
    "scan-stabilization": {"json": "ab1c7e793bb167b8", "csv": "81887c5df54a048d", "pretty": "00c2d30b442faac1"},
    "interleave-scan": {"json": "1d9909907945f06c", "csv": "11808f2c710b636e", "pretty": "6bbc2d9286430b6d"},
    "basis-expand wide": {"json": "d5f30f8f8a88c8a3", "csv": "6d3b0297e9737903", "pretty": "bd0e4ae44329a738"},
}

# argument lists the parser refuses or answers with help
BAD_INPUTS = [
    [],
    ["-h"],
    ["--help"],
    *([name, "-h"] for name in dict.fromkeys(request[0] for request in REQUESTS.values())),
    ["nope"],
    ["-x"],
    ["--p", "3", "congruences"],
    ["congruences"],
    ["bp-dn", "--p", "3"],
    ["lattice", "--member", "mu.json"],
    ["congruences", "--p", "x"],
    ["congruences", "--p", "3", "--n", "2.5"],
    ["congruences", "--p", "3", "--n", "-1"],
    ["verify-centre", "--p", "3", "--weight=-2"],
    ["congruences", "--p", "3", "--bogus"],
    ["congruences", "--p", "3", "--bogus=1"],
    ["congruences", "--p", "3", "extra", "words"],
    ["congruences", "--p=3", "--n=x"],
    ["congruences", "--", "--p", "3"],
    ["congruences", "--p", "3", "--", "extra"],
    ["congruences", "--p", "3", "--format", "xml"],
    ["congruences", "--p", "3", "--format=xml"],
    ["congruences", "--p", "3", "--format"],
    ["basis-expand", "--p", "3", "--family", "nope", "--in", "seq.json"],
    ["bp-etaR", "--p", "3", "--weight", "4", "--monomial", "v1", "-h"],
]

# input files the reader refuses: (content, request, message after the path)
BAD_FILES = {
    "empty_row.json": ({"p": 3, "rows": [[]]}, ["lattice", "--system", "empty_row.json"],
                       "row 0: expected a non-empty array"),
}


def with_paths(words: list[str], directory: Path) -> list[str]:
    """``words`` with each name of :data:`FILES` as a path under ``directory``."""
    return [str(directory / word) if word in FILES else word for word in words]


def refused(name: str, directory: Path) -> tuple[list[str], tuple[int, str, str]]:
    """The request of ``BAD_FILES[name]`` on its file, written under
    ``directory``, and the (exit code, stdout, stderr) it must give."""
    content, request, message = BAD_FILES[name]
    path = directory / name
    path.write_text(json.dumps(content), encoding="utf-8")
    argv = [str(path) if word == name else word for word in request]
    return argv, (2, "", f"error: {path}: {message}\n")


def capture(call, argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of ``call(argv)``: its return value, or
    the code of the ``SystemExit`` it raises, in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code: object, stdout: str) -> str:
    stdout = re.sub(r"\(\d+\.\d+s\)$", "(<elapsed>s)", stdout, flags=re.M)
    return hashlib.sha256(f"exit {code}\n{stdout}".encode()).hexdigest()[:16]


def full_parse(argv: list[str]):
    """The full parser's Namespace: the reference for ``main``'s dispatch."""
    return cli._parser().parse_args(argv)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, content in FILES.items():
            (directory / name).write_text(json.dumps(content), encoding="utf-8")
        for name, request in REQUESTS.items():
            for fmt in FORMATS:
                argv = with_paths(request, directory) + ["--format", fmt]
                got = digest(*capture(cli.main, argv)[:2])
                want = PINNED[name][fmt]
                ok = got == want
                failed += not ok
                print(f"{name} --format {fmt}: {got} "
                      f"{'ok' if ok else f'differs, pinned {want}'}")
        for argv in BAD_INPUTS:
            argv = with_paths(argv, directory)
            got, want = capture(cli.main, argv), capture(full_parse, argv)
            ok = got == want
            failed += not ok
            print(f"{argv}: exit {got[0]} {'as the full parser' if ok else f'differs: {got!r} != {want!r}'}")
        for name in BAD_FILES:
            argv, want = refused(name, directory)
            got = capture(cli.main, argv)
            ok = got == want
            failed += not ok
            print(f"{name}: exit {got[0]} {'refused' if ok else f'differs: {got!r} != {want!r}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
