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
    # the odd-p point where the lattice reaches 51 columns and its packed
    # rows widen most
    (5, 50): "b354c6c64a6c462d81bc3deae017c78f80e33e185881e33500d46716eff0b339",
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


# bp-etaR stdout in each format for the benchmark's bp-etaR requests
# (``_ETAR`` in bench/workloads.py), pinned before the right unit of a
# v-monomial moved from Fraction substitution to integers: (json, csv, pretty)
BP_ETAR = {
    (2, 5, "v1^2*v2"): (
        "ebeb9ac5ebeced45f71834f103d3ef67dad27ba9be352d88e57d60ad9e9b9a91",
        "537380fd6f5c53b34cdcb5a3eda20f59fe3c6b523e667094138e6cecfb102966",
        "f0cc02845a3ba2d22c2dd40812aaf2540b51cc57138e566ba579660e302e2962",
    ),
    (2, 7, "v3"): (
        "87ee1a8ad3e2f387aca47fe0a0a35946e0cb9cff7765136eaba7aa300ee8de5f",
        "adc5dd8db8912ed797fdd8865a5bca104d89f63f7461651093bdc3b43f5a9389",
        "eddfea1be81d794d42dfa1adf9e6e114cf03775600f7ceaa6a1748146b0898f5",
    ),
    (2, 7, "v1*v2^2"): (
        "a0ff0cc69a5544ccda09cf4a35ec511c7233f10671896c375c864ea24a6d7986",
        "35eeab018906d43334086cffcd63ee99d8b3b71a4cca4cebbb0f25a36dfb3433",
        "ae9839b5dbea021be0847b342cce7c39de99aaa099e6479509280ddc00c25c40",
    ),
    (2, 8, "v1*v3"): (
        "b24fd5110da733ca369ef0e70d41822ee13a9a71875ad385d5a8d8e108024774",
        "c3bf071ea166cdf2a7030fc4c14cce156e4f181fb266aedbe67ef52d300523f6",
        "767bc3269b04346058f941eeff1d115b51bce619926a868f341c123be2abcf13",
    ),
    (2, 9, "v2^3"): (
        "c48efe4e4870bc4968c4b525a2d303c6a1ed00eb4e45a89a0efa599e055cb624",
        "4135f602ec3d2789076141f0506127f76a015f8388fa1ffccfa7a6c496d0253b",
        "05b32fcd47454393b282a73031d1a75a8563750f6e69dfe4752e38ce6f5828a3",
    ),
    (3, 4, "v2"): (
        "73be8ec2e475cd63b894ba085467f77e050db32e1f2ad6e4922a40cc7d828c4f",
        "f7a039c8affa564c1dfe5a5733bcf7ff2cb48917afe9419383d34491abc72de5",
        "1ab47b492d3bf2470a0c71880e312d916a4b1800f4f918d7621e12791adfe51c",
    ),
    (3, 6, "v1^2*v2"): (
        "904620f7ff6f8033411b343b2fe6096dbb3764497e8608798f2a1387c4a5de54",
        "d8fa71002d220077e3e6f659bf98a1a8d23fb626e0a313c451acf400f6643674",
        "20e5e279fc4d85207250e459251fa3d3a49c837e1cf5b2308fff5c6e313a6b1f",
    ),
    (3, 8, "v2^2"): (
        "4f82c6fd38c994fab59202015b362deb1751febbdd9f385c8ffcbf30d5ec1ee4",
        "769c6d745ff9f9942fb7f35b3eb44367d7bbb79758cb82ca9a19d7bf836ed154",
        "23967164e8cce3c6a04ca560f068bbc8b89cefc5b421c79a1c1ee1e417eff762",
    ),
    (3, 9, "v1*v2^2"): (
        "48b20cdcb9400f9e062dd853aeeea80f399b9469684a96234f587be57323c0cf",
        "f71c819cbb651c024fb5ea564ad9554e49121ded5a009d667a696010d6f31151",
        "7512de1e26fc724f5375c0e478e09717e49588707f8046cf5839d28028505244",
    ),
    (5, 6, "v2"): (
        "8190dc3742635f987d04bf172aba363032d7c93eeefcaae6dd1e6248b6ca9bd2",
        "c6000172a48d57a6b9ab4e4649fb26bcd8c6f36fe29d8876215a8f63b87a840b",
        "706eb75ac1202a180f82378a17145f59fc8e6217e162319b324fbdfc3803acc0",
    ),
    (5, 8, "v1^2*v2"): (
        "344279482c7b28ce4c85948f3cb1d013246eb9e62e82028226dcbd065f3bbc64",
        "db0d198225452b86a332ff6d6ee787880c1c3befa6d4d8d33cd1b210d6b7f979",
        "1d2478274bc83401d7e6b926a12c9c16cf199ea205408d407d044b476ef66b89",
    ),
    (7, 8, "v2"): (
        "7ca1fbf88a804b6c5db298b3ec022d53e38d3c193e06d21be58263c86722451f",
        "bdf421a4cceb0c6ba213e3b0d2e44c5057eaf200b1c04f895ef80b05a78886af",
        "cd2d96b06c306e7b6c141753d9cd20d20a0943c8c10dedef3adc578046bcd3cc",
    ),
    (7, 10, "v1^2*v2"): (
        "a593a0b87f9c84fa954630cb91996a55fe153ab439595700461b27673a52c3b6",
        "e4f03d265e7979d7fec827ba86b000bc99d87c27100ea9d97d6dbd1ed077f983",
        "00417f8ddaf4ca23c05ab620d65c4b6e3e0635454b40963534affcc60fc7ec59",
    ),
}


@pytest.mark.parametrize("p,weight,monomial", sorted(BP_ETAR))
def test_bp_etar_output_pinned(capsys, p, weight, monomial):
    for fmt, digest in zip(("json", "csv", "pretty"), BP_ETAR[(p, weight, monomial)]):
        code = main(["bp-etaR", "--p", str(p), "--weight", str(weight),
                     "--monomial", monomial, "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert _sha256(out) == digest, fmt
