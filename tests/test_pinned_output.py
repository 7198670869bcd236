"""Outputs pinned byte for byte by SHA-256 digest.

A refactor that keeps the mathematics must keep these digests; a change
that alters an output on purpose re-pins it and says why.
"""

import hashlib
import json

import pytest

from bpadams.arith import format_rational
from bpadams.centre import sampled_integrality_rows, verify_centre_bp
from bpadams.cli import main
from bpadams.fgl import BPContext


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SAMPLED_ROWS = {
    (2, 12): "4e9c055960834961f38499b56a0071b4020a6a3887fa21c0aea35519f78289c9",
    (3, 14): "826083cfb32f453d4ccf2f148c85ee8ff679b7719cb41a4e2201aa277cb55865",
    (5, 14): "7d227e86d2919df44d14b0c924d54169fac82906fb9ee2330065777c98fe95af",
}


@pytest.mark.parametrize("p,W", sorted(SAMPLED_ROWS))
def test_sampled_integrality_rows_pinned(p, W):
    rows = [[list(gamma), list(delta),
             [[i, format_rational(c)] for i, c in sorted(form.coeffs.items())]]
            for gamma, delta, form in sampled_integrality_rows(BPContext(p, W))]
    assert _sha256(json.dumps(rows)) == SAMPLED_ROWS[(p, W)]


VERIFY_REPORTS = {
    (2, 8): "6f1e9964a6c3917894d43f95d8a04b2b01e12e8724fe7bf40eec38f499062b1c",
    (3, 10): "ad7b8f87483724626b99c9e5b920df3e8e734e58a59162051f144a7617b99826",
    (5, 12): "a0ab1f88d88699d59d6bc76b87632d2da8bf7b799711086bc88cd395df46e36c",
    # the frontier; (3, 33) runs its widest walk node, 386 bits, on packed
    # monomial keys; (3, 27) adds a p = 3 point between (3, 10) and (3, 33)
    (2, 20): "e2605e7a48dda392c58607e979253ea40c4cb2e8be18f4f3721d2651e51f4b5c",
    (3, 27): "44145495ce8ec932d93b10ed14d768c36619f8ca97275145258fac38d9d941e9",
    (3, 33): "b34171d552b689429d77cf2f10c22dadfa87248318a5f0407014aa8be68b14b7",
}


@pytest.mark.parametrize("p,n", sorted(VERIFY_REPORTS))
def test_verify_centre_report_pinned(p, n):
    report = verify_centre_bp(p, n)
    assert _sha256(json.dumps(report, sort_keys=True)) == VERIFY_REPORTS[(p, n)]


# the README examples that need no input file, with their JSON stdout
README_EXAMPLES = {
    "congruences --p 3 --n 4":
        "b6038f710631f20cd74d43e68c6d49a0b8f9c97d240fccce9c33311fccea5b6f",
    "bp-etaR --p 3 --weight 6 --monomial v1^2*v2":
        "904620f7ff6f8033411b343b2fe6096dbb3764497e8608798f2a1387c4a5de54",
    "bp-dn --p 2 --n 4":
        "0e4e42aac09af9aaed48016c133acd30437c227c1dc6ec25f6ba910503fdf7f0",
    "verify-centre --p 3 --n 4":
        "6632e0ab5aba991cb51292df4daf910ace137c176d4ff249fc2f1d602e43cb6c",
    "verify-centre --p 2 --n 4":
        "5761c21ec8bc3dc4bbf87af07d38ed2b0ad484476763e6276e0f1abec0ea6cec",
    "scan-stabilization --p 3 --n 2 --max-weight 6":
        "318d937a843c9add5835dc9ca70870dd9dc5b2fc1f63a77f43c79bc4bac50f64",
    "interleave-scan --p 3 --n 6":
        "ca87255b803dd40c61e0f0ff9125a3252f73b17cdbf4d63a7ba267a9b3c39b7c",
}


@pytest.mark.parametrize("command", sorted(README_EXAMPLES))
def test_readme_example_json_pinned(capsys, command):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == README_EXAMPLES[command]


# bp-dn JSON stdout: the element text is built from the element's view,
# d_{p^i} from its integer numerators and a composite as the product of its
# factors' views; "--weight 2" is raised to delta_2(3) = 4 with a warning
BP_DN = {
    "bp-dn --p 2 --n 16":
        "ab72aa86f49c9859f34ae52ffc2dd2566f29b48bdb83f096dc41a2bc4bc12012",
    "bp-dn --p 3 --n 9":
        "0a3d95f0bc12269d1eb6e9bc34822950465a9cc1839f2f7a98f4bd278179228b",
    "bp-dn --p 5 --n 25":
        "20670da6126e7403a7b491bb532d87ee5685b5f86734d3f0874bd6d1a834ab4b",
    "bp-dn --p 7 --n 8":
        "b3e1cada334a20b264a23ef10136068b2bf67f97211dd3aa667360e52dab901a",
    "bp-dn --p 2 --n 3 --weight 2":
        "fb4ec2cbdb304506d2fff7d5da5ee19bee7a0a5cc31bf656fc9e824fc472bd30",
}


@pytest.mark.parametrize("command", sorted(BP_DN))
def test_bp_dn_json_pinned(capsys, command):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == BP_DN[command]


# scan-stabilization JSON stdout: the scan reads the rows with top index
# <= n from one walk at the largest bound
SCAN_STABILIZATION = {
    "scan-stabilization --p 3 --n 6 --max-weight 20":
        "97a2fb782fd5ad71459bdd73936b3ac25f5d5dc29c2a53f177867cac34d05124",
    "scan-stabilization --p 2 --n 4 --max-weight 18":
        "b6821582756762138c0e11fbd8be88501cf169bcd2035351dc3688d4fd3bed48",
    "scan-stabilization --p 5 --n 3 --max-weight 12":
        "693c9351a2a8de5c3b854fa2243ac59b82356500f6e20970ee4d93e49f0c92f1",
    "scan-stabilization --p 2 --n 6 --max-weight 22":
        "ff7b7c17aa80ba2aa1238ead3eb6344bfa92063492c8b400740fe360c1a63d15",
    "scan-stabilization --p 7 --n 2 --max-weight 9":
        "0b1067896b0647be9322e3fba4b314c8c02f74f959f7a516d5bd5ae79eec8929",
}


@pytest.mark.parametrize("command", sorted(SCAN_STABILIZATION))
def test_scan_stabilization_json_pinned(capsys, command):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == SCAN_STABILIZATION[command]
