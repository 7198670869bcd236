import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_digests
from bpadams.adamsk import ku_congruence_system
from bpadams.arith import delta_p, dot, integer_numerators, is_p_local_int, val_p
from bpadams import cli
from bpadams.centre import summand_rows
from bpadams.cli import main, parse_monomial, read_sequence, read_system, InputError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_congruences_table(capsys):
    code, out, _ = run(capsys, "congruences", "--p", "3", "--n", "1")
    assert code == 0
    assert "(-1/3, 1/3)" in out


def test_congruences_json_and_check(tmp_path, capsys):
    seq = tmp_path / "mu.json"
    seq.write_text(json.dumps(["1", "4", "16"]))
    code, out, _ = run(capsys, "congruences", "--p", "3", "--n", "2",
                       "--check", str(seq), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1] == ["-1/3", "1/3", "0"]
    assert payload["check"]["verdicts"] == [True, True, True]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["0", "1", "0"]))
    code, out, _ = run(capsys, "congruences", "--p", "3", "--n", "2",
                       "--check", str(bad), "--format", "json")
    assert code == 1


def test_congruences_check_at_p2_matches_brute_force(tmp_path, capsys):
    n = 5
    rows = ku_congruence_system(2, n).rows
    for name, seq, expected_code in (("psi3", [3 ** i for i in range(n + 1)], 0),
                                     ("e1", [0, 1, 0, 0, 0, 0], 1)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps([str(x) for x in seq]))
        code, out, _ = run(capsys, "congruences", "--p", "2", "--n", str(n),
                           "--check", str(path), "--format", "json")
        brute = [val_p(2, sum(c * m for c, m in zip(row, seq))) >= 0 for row in rows]
        assert code == expected_code == (0 if all(brute) else 1), name
        assert json.loads(out)["check"]["verdicts"] == brute, name


def test_basis_expand_example(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(["1", "4", "16", "64"]))
    code, out, _ = run(capsys, "basis-expand", "--family", "phihat_g", "--p", "3",
                       "--in", str(seq), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1", "0", "0"]
    assert payload["integral"] is True


def test_verify_centre_pretty_and_exit(capsys):
    code, out, _ = run(capsys, "verify-centre", "--p", "3", "--n", "2")
    assert code == 0
    assert "S_n^BP = S_n^g: OK" in out
    assert "overall: OK" in out
    assert "warning" not in out


def test_verify_centre_weight_raised_warning(capsys):
    code, out, _ = run(capsys, "verify-centre", "--p", "3", "--n", "2",
                       "--weight", "1")
    assert code == 0
    assert "warning: requested weight bound raised to 2" in out


def test_verify_centre_json_no_timings(capsys):
    code, out, _ = run(capsys, "verify-centre", "--p", "3", "--n", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert "elapsed" not in out and "time" not in payload


def test_verify_centre_in_process_determinism(capsys):
    _, out1, _ = run(capsys, "verify-centre", "--p", "2", "--n", "2",
                     "--format", "json")
    _, out2, _ = run(capsys, "verify-centre", "--p", "2", "--n", "2",
                     "--format", "json")
    assert out1 == out2


def test_bp_dn(capsys):
    code, out, _ = run(capsys, "bp-dn", "--p", "2", "--n", "2")
    assert code == 0
    assert "t2 + 2/7*t1^3" in out
    assert "(1/8, -5/14, 13/56)" in out


def test_bp_etar(capsys):
    code, out, _ = run(capsys, "bp-etaR", "--p", "3", "--weight", "4",
                       "--monomial", "v1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["image"] == "-24*t1 + v1"
    assert payload["all_integral"] is True


def test_bp_etar_at_weight_zero(capsys):
    code, out, _ = run(capsys, "bp-etaR", "--p", "3", "--weight", "0",
                       "--monomial", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["image"] == "1" and payload["all_integral"] is True
    assert payload["coefficients"] == [{"coefficient": "1", "integral": True,
                                        "t_exponents": [], "v_exponents": []}]


def test_lattice_command(tmp_path, capsys):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps({"p": 3, "rows": [["-1/3", "1/3"]]}))
    code, out, _ = run(capsys, "lattice", "--system", str(sys_file),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_columns"] == [["1", "1"], ["0", "3"]]
    member = tmp_path / "mu.json"
    member.write_text(json.dumps(["1", "7"]))
    code, _, _ = run(capsys, "lattice", "--system", str(sys_file),
                     "--member", str(member))
    assert code == 0
    member.write_text(json.dumps(["1", "2"]))
    code, _, _ = run(capsys, "lattice", "--system", str(sys_file),
                     "--member", str(member))
    assert code == 1


def test_scan_and_interleave(capsys):
    code, out, _ = run(capsys, "scan-stabilization", "--p", "3", "--n", "2",
                       "--max-weight", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "weight,pivots,equals_summand_lattice"
    code, out, _ = run(capsys, "interleave-scan", "--p", "3", "--n", "4")
    assert code == 0
    assert "lattices equal: yes" in out


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "congruences", "--p", "4", "--n", "1")
    assert code == 2 and "not a prime" in err
    code, _, err = run(capsys, "congruences", "--p", "5", "--q", "7", "--n", "1")
    assert code == 2 and "not primitive" in err and "order" in err
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "basis-expand", "--family", "phi_ku", "--p", "3",
                       "--in", str(missing))
    assert code == 2
    floats = tmp_path / "floats.json"
    floats.write_text("[0.5]")
    code, _, err = run(capsys, "basis-expand", "--family", "phi_ku", "--p", "3",
                       "--in", str(floats))
    assert code == 2 and "exact" in err


def test_explicit_q_is_checked_once_for_every_prime(capsys):
    # at p = 2 the generators are fixed, so an explicit q is an input error
    code, out, err = run(capsys, "verify-centre", "--p", "2", "--q", "7",
                         "--format", "json")
    assert code == 2 and out == "" and "p = 2" in err
    code, _, err = run(capsys, "basis-expand", "--family", "zeta_ku2", "--p", "2",
                       "--q", "5", "--in", "unused.json")
    assert code == 2 and "p = 2" in err
    # a multiple of p is named as such, not given a multiplicative order
    code, _, err = run(capsys, "verify-centre", "--p", "3", "--q", "9")
    assert code == 2 and "divisible by p = 3" in err and "order" not in err
    code, _, err = run(capsys, "bp-dn", "--p", "5", "--n", "1", "--q", "7")
    assert code == 2 and "not primitive" in err and "order is 4" in err


@pytest.mark.parametrize("argv,flag", [
    (["congruences", "--p", "3", "--n", "-1"], "--n"),
    (["bp-dn", "--p", "3", "--n", "-2"], "--n"),
    (["verify-centre", "--p", "3", "--n", "x"], "--n"),
    (["bp-etaR", "--p", "3", "--weight", "-1", "--monomial", "v1"], "--weight"),
    (["verify-centre", "--p", "3", "--weight", "-3"], "--weight"),
    (["scan-stabilization", "--p", "3", "--n", "1", "--max-weight", "-1"],
     "--max-weight"),
])
def test_negative_counts_exit_2_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}" in err and "non-negative integer" in err
    assert "factorial" not in err


def test_parse_monomial():
    assert parse_monomial("v1^2*v2", "v") == {"v1": 2, "v2": 1}
    assert parse_monomial("1", "v") == {}
    assert parse_monomial(" v10 * v1^3 ", "v") == {"v10": 1, "v1": 3}
    for bad in ("x1", "v0", "v01", "vx1", "v", "V1", "v1^", "v-1", "v1.5"):
        with pytest.raises(InputError, match="bad monomial factor"):
            parse_monomial(bad, "v")


@pytest.mark.parametrize("monomial", ["v0", "v01", "vx1", "v1*v0^2"])
def test_bp_etar_rejects_a_bad_factor_with_exit_2(capsys, monomial):
    code, out, err = run(capsys, "bp-etaR", "--p", "2", "--weight", "4",
                         "--monomial", monomial)
    assert code == 2 and out == ""
    assert "bad monomial factor" in err and "exceeds" not in err


def test_bp_etar_needs_no_fraction_substitution(capsys, monkeypatch):
    # the right unit of a v-monomial is built on integers: no right-unit
    # tables, neither l_n over the v's nor v_n over the l's, and no
    # polynomial substitution
    from bpadams import hopf
    from bpadams.fgl import BPContext
    from bpadams.polyring import GradedPoly

    def refuse(*args, **kwargs):
        raise AssertionError("the Fraction route was taken")

    monkeypatch.setattr(hopf._RightUnitData, "__init__", refuse)
    monkeypatch.setattr(BPContext, "_build_l_in_v", refuse)
    monkeypatch.setattr(BPContext, "_build_v_in_l", refuse)
    monkeypatch.setattr(GradedPoly, "substitute", refuse)
    code, out, _ = run(capsys, "bp-etaR", "--p", "3", "--weight", "9",
                       "--monomial", "v1*v2^2", "--format", "json")
    assert code == 0 and json.loads(out)["all_integral"] is True


def test_read_sequence_and_system_errors(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text('{"sequence": ["1", "1/2"]}')
    assert read_sequence(str(seq)) == ([2, 1], 2)  # 1 and 1/2 over one denominator
    good = tmp_path / "good.json"
    good.write_text('{"p": 3, "rows": [["2/4", 1], ["-1/3", "1/-6"]]}')
    assert read_system(str(good)) == (3, [([1, 2], 2), ([-2, -1], 6)])
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [[1]]}')
    with pytest.raises(InputError):
        read_system(str(bad))
    ragged = tmp_path / "ragged.json"
    ragged.write_text('{"p": 3, "rows": [["1"], ["1", "2"]]}')
    with pytest.raises(InputError):
        read_system(str(ragged))


def test_csv_output_deterministic(capsys):
    _, out1, _ = run(capsys, "congruences", "--p", "3", "--n", "2", "--format", "csv")
    _, out2, _ = run(capsys, "congruences", "--p", "3", "--n", "2", "--format", "csv")
    assert out1 == out2
    assert out1.splitlines()[0] == "r,mu0,mu1,mu2"


def test_construction_error_exits_1_with_json_details(capsys, monkeypatch):
    import bpadams.cli as cli
    from bpadams.hopf import ConstructionError

    def failing(ctx, n):
        raise ConstructionError("correction coefficient is not integral",
                                {"n": n, "m": 1, "coefficient": "1/3"})

    monkeypatch.setattr(cli, "special_element", failing)
    code, out, err = run(capsys, "bp-dn", "--p", "3", "--n", "2", "--format", "json")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "correction coefficient is not integral",
        "details": {"n": 2, "m": 1, "coefficient": "1/3"}}


def test_extension_failure_in_verify_exits_1_with_json_details(capsys, monkeypatch):
    # rows that pass the shape hypotheses always extend, so a LatticeError
    # inside the verify loop is the program's own failure: it surfaces as a
    # ConstructionError naming the stage, n and column, and the CLI exits 1
    from fractions import Fraction

    import bpadams.centre as centre
    from bpadams.hopf import ConstructionError
    from bpadams.lattice import extend_lattice

    real = centre._sandwich

    def failing(p, base, cn, cn_hat):
        if cn.n == 2:  # column 0 of the lattice at 1 is (1, *): -1/3 is not integral
            extend_lattice(base, (Fraction(1, 3), 0, 1))
        return real(p, base, cn, cn_hat)

    monkeypatch.setattr(centre, "_sandwich", failing)
    with pytest.raises(ConstructionError) as err:
        centre.verify_centre_bp(3, 4)
    assert err.value.details == {"stage": "extend_lattice", "n": 2, "column": 0}
    code, out, err = run(capsys, "verify-centre", "--p", "3", "--n", "4", "--format", "json")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "column 0 extends by -1/3, which is not 3-locally integral",
        "details": {"stage": "extend_lattice", "n": 2, "column": 0}}


def test_walk_failure_in_verify_exits_1_with_json_details(capsys, monkeypatch):
    # the walk's generator images come from the program's own recursion, so
    # an image whose u-degree could carry is an internal failure: a
    # ConstructionError naming the stage and the generator, and exit 1.
    # verify-centre walks the images in Hazewinkel's generators
    from bpadams import centre, hopf, walk
    from bpadams.fgl import BPContext

    build = hopf._hazewinkel_theta_numerators

    def with_a_carry(ctx):
        images = dict(build(ctx))
        num, den = images["t2"]
        width = ctx.weight_bound.bit_length()
        up = ctx.t_table.weights[1] + 1  # one above w_2
        key = hopf._key((0,) * (len(ctx.v_table) - 1) + (1, up), width)  # v_last * u^up
        images["t2"] = ({**num, key: den}, den)
        return images

    monkeypatch.setattr(centre, "_hazewinkel_theta_numerators", with_a_carry)
    with pytest.raises(hopf.ConstructionError) as err:
        ctx = BPContext(3, 5)
        list(walk.t_monomial_numerators(ctx, with_a_carry(ctx)))
    assert err.value.details == {"stage": "walk", "generator": "t2"}
    code, out, err = run(capsys, "verify-centre", "--p", "3", "--n", "4", "--format", "json")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "theta(t2) has a term of u-degree 5 above 4: its packed keys could carry",
        "details": {"stage": "walk", "generator": "t2"}}


def test_a_second_row_in_t1_exits_1_with_json_details(capsys, monkeypatch):
    # the walk's t_1-chains rest on theta(t_1) being one row, which the
    # walk checks once: an image of t_1 with a second row, here a constant
    # term (delta = 0), is an internal failure naming the stage and the
    # generator, and exit 1
    from bpadams import centre, hopf, walk
    from bpadams.fgl import BPContext

    build = hopf._hazewinkel_theta_numerators

    def with_a_second_row(ctx):
        images = dict(build(ctx))
        num, den = images["t1"]
        assert 0 not in num
        images["t1"] = ({**num, 0: den}, den)
        return images

    monkeypatch.setattr(centre, "_hazewinkel_theta_numerators", with_a_second_row)
    for top in (None, 2):
        with pytest.raises(hopf.ConstructionError) as err:
            ctx = BPContext(2, 4)
            list(walk.t_monomial_numerators(ctx, with_a_second_row(ctx), top))
        assert err.value.details == {"stage": "walk", "generator": "t1"}
    code, out, err = run(capsys, "verify-centre", "--p", "3", "--n", "4", "--format", "json")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "theta(t1) has 2 rows, not one: the walk's t_1-chains need one",
        "details": {"stage": "walk", "generator": "t1"}}


def test_sample_failure_that_araki_rows_do_not_confirm_exits_1(capsys, monkeypatch):
    # the verification tests the rows read in Hazewinkel's generators and
    # takes a failure's witness from the rows read in Araki's; both cut
    # out the same conditions, so a Hazewinkel failure that the Araki rows
    # do not confirm is an internal failure, here injected as an image of
    # t_1 one power of p too small: exit 1 with stage sample_basis and n
    from bpadams import centre, hopf

    build = hopf._hazewinkel_theta_numerators

    def divided(ctx):
        images = dict(build(ctx))
        num, den = images["t1"]
        images["t1"] = (num, den * ctx.p)
        return images

    monkeypatch.setattr(centre, "_hazewinkel_theta_numerators", divided)
    with pytest.raises(hopf.ConstructionError) as err:
        centre.verify_centre_bp(3, 4)
    assert err.value.details == {"stage": "sample_basis", "n": 1}
    code, out, err = run(capsys, "verify-centre", "--p", "3", "--n", "4", "--format", "json")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "the sampled rows with top index 1 fail on Hazewinkel's generators "
                 "and hold on Araki's",
        "details": {"stage": "sample_basis", "n": 1}}


# the rows of d_160 at p = 13, written with the interpreter's limit on
# int-to-str conversion lifted and plain str: the route before decimal
_UNLIMITED_BP_DN = """
import json, sys
sys.set_int_max_str_digits(0)
import bpadams.polyring
bpadams.polyring.format_rational = str
from bpadams.arith import delta_p
from bpadams.fgl import BPContext
from bpadams.hopf import special_element
d = special_element(BPContext(13, delta_p(13, 160)), 160)
print(json.dumps({"element": d.element.to_text(), "c_bp": [str(x) for x in d.c]}))
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str conversion")
def test_bp_dn_writes_integers_past_the_int_to_str_limit(capsys):
    # d_160 at p = 13 has integers of more than 4,300 decimal digits, which
    # plain str refuses under the default limit; the request exits 0 and
    # writes the digits that str writes once the limit is lifted
    code, out, err = run(capsys, "bp-dn", "--p", "13", "--n", "160", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _UNLIMITED_BP_DN], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    want = json.loads(done.stdout)
    assert max(len(x) for x in want["c_bp"]) > 4300
    assert payload["c_bp"] == want["c_bp"] and payload["element"] == want["element"]


# the rows of congruences --p 13 --n 60 from the closed form
# (-1)^(n-i) qhat^C(n-i,2) [n, i]_qhat / p^delta_p(n), each Gaussian value by
# Horner's rule on its coefficients (arith.gaussian), independent of
# C_vector's stepped q-Pascal rows, written by plain str with the
# interpreter's limit on int-to-str conversion lifted
_UNLIMITED_CONGRUENCES = """
import json, sys
sys.set_int_max_str_digits(0)
from math import comb
from bpadams.arith import delta_p, find_q, gaussian
p, top = 13, 60
qhat = find_q(p) ** (p - 1)
print(json.dumps([[str((-1) ** (n - i) * qhat ** comb(n - i, 2) * gaussian(n, i, qhat)
                       / p ** delta_p(p, n)) for i in range(n + 1)] + ["0"] * (top - n)
                  for n in range(top + 1)]))
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str conversion")
def test_congruences_write_integers_past_the_int_to_str_limit(capsys):
    # C_60 at p = 13 has numerators of more than 4,300 decimal digits; the
    # request exits 0 and every entry is the closed form's, digit for digit
    code, out, err = run(capsys, "congruences", "--p", "13", "--n", "60", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _UNLIMITED_CONGRUENCES], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    want = json.loads(done.stdout)
    assert max(len(x) for row in want for x in row) > 4300
    assert payload["rows"] == want
    assert payload["pivot_valuations"] == [-delta_p(13, n) for n in range(61)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str conversion")
@pytest.mark.parametrize("argv", [["congruences", "--p", "13", "--n", "20"],
                                  ["bp-dn", "--p", "7", "--n", "60"]])
def test_requests_under_a_lowered_int_to_str_limit(argv, capsys):
    # with the limit lowered to 640 digits, rows of wider integers are still
    # written, byte for byte as under the default limit, and exit 0
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    done = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m", "bpadams",
                           *argv, "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == out
    assert max(map(len, re.findall(r"\d+", out))) > 640


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str conversion")
def test_lattice_reads_the_rows_congruences_writes_under_a_lowered_limit(tmp_path, capsys):
    # the CLI reads back what it writes: row 20 of congruences --p 13 --n 20,
    # whose integers pass 640 digits, as a lattice system, with a member
    # sequence as wide, gives under a 640-digit limit the bytes and exit code
    # of the default limit
    code, out, _ = run(capsys, "congruences", "--p", "13", "--n", "20", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][20]
    system, member = tmp_path / "sys.json", tmp_path / "mu.json"
    system.write_text(json.dumps({"p": 13, "rows": [row]}))
    member.write_text(json.dumps([str(13 ** 700 + 1)] + ["0"] * 19 + ["13/2"]))
    assert max(map(len, re.findall(r"\d+", system.read_text()))) > 640
    argv = ["lattice", "--system", str(system), "--member", str(member), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    done = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m", "bpadams", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (code, "", out)
    assert max(map(len, re.findall(r"\d+", out))) > 640


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str conversion")
def test_an_unquoted_integer_past_a_lowered_limit_reads_as_the_quoted_one(tmp_path):
    # json reads an integer through the interpreter's int(), which a 640-digit
    # limit bounds; the CLI reads it as it reads the same digits quoted
    digits = "1" * 700
    quoted, unquoted = tmp_path / "quoted.json", tmp_path / "unquoted.json"
    quoted.write_text(f'["{digits}", "2"]')
    unquoted.write_text(f"[{digits}, 2]")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    runs = [subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m", "bpadams",
                            "basis-expand", "--family", "phi_ku", "--p", "3", "--in", str(path),
                            "--format", "json"],
                           env=env, capture_output=True, text=True, timeout=120)
            for path in (quoted, unquoted)]
    assert [(done.returncode, done.stderr) for done in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout and digits in runs[0].stdout


def test_requests_on_integers_build_no_fraction(tmp_path, capsys, monkeypatch):
    # congruences --check, lattice --member and a connective-family
    # basis-expand read their inputs as integer pairs, and solve, test and
    # write on integers: no Fraction is built, input or answer
    seq, system, member = tmp_path / "seq.json", tmp_path / "sys.json", tmp_path / "mu.json"
    seq.write_text(json.dumps(["1", "-3/2", 4, " 5 / 7 ", "16", "1/-11"]))
    system.write_text(json.dumps({"p": 3, "rows": [["-1/3", "1/3", 0], ["1/9", "-2/9", "4/9"]]}))
    member.write_text(json.dumps(["1", 7, "-26"]))
    requests = [["congruences", "--p", "5", "--n", "4", "--check", str(seq)],
                ["lattice", "--system", str(system), "--member", str(member)],
                ["basis-expand", "--family", "phi_ku", "--p", "5", "--in", str(seq)],
                ["basis-expand", "--family", "phihat_g", "--p", "7", "--in", str(seq)]]
    want = [run(capsys, *argv, "--format", "json") for argv in requests]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError, match="a Fraction was built"):
        Fraction(1, 2)
    assert [run(capsys, *argv, "--format", "json") for argv in requests] == want
    assert [code for code, _, _ in want] == [1, 0, 1, 1]


def test_bp_dn_weight_below_delta_warns_on_stderr(capsys):
    _, plain, err = run(capsys, "bp-dn", "--p", "3", "--n", "2", "--format", "json")
    assert err == ""
    code, out, err = run(capsys, "bp-dn", "--p", "3", "--n", "2", "--weight", "1",
                         "--format", "json")
    assert code == 0 and out == plain
    assert "requested weight bound 1 raised to 2" in err
    _, out, err = run(capsys, "bp-dn", "--p", "3", "--n", "2", "--weight", "3",
                      "--format", "json")
    assert err == "" and json.loads(out)["weight_bound"] == 3


def test_parser_is_built_once_across_calls(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "congruences", "--p", "3", "--n", "1")[0] == 0
        assert run(capsys, "bp-dn", "--p", "2", "--n", "2", "--format", "json")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


@pytest.mark.parametrize("exc", [AssertionError("invariant broken"),
                                 ZeroDivisionError("division by zero"), KeyError("t3")])
def test_unexpected_exception_exits_1_with_json_details(capsys, monkeypatch, exc):
    # an exception that is neither bad input nor a ConstructionError is an
    # internal failure: one JSON line on stderr naming the subcommand and
    # the exception's class, exit 1, no traceback
    def failing(ctx, n):
        raise exc

    monkeypatch.setattr(cli, "special_element", failing)
    code, out, err = run(capsys, "bp-dn", "--p", "3", "--n", "2", "--format", "json")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": str(exc),
        "details": {"command": "bp-dn", "type": type(exc).__name__}}


_text = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from('"\\/\x00\x07\b\t\n\r\x1f\x7f\u2028é😀')))
_json_values = st.recursive(
    st.one_of(_text, st.integers(), st.integers(-10 ** 300, 10 ** 300), st.booleans(),
              st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({})
@example({"a": [], "b": {}, "c": (), "": [[{}]]})
@example({"\u00e9\"\\\n": [2 ** 4000, -(2 ** 4000), True, False, None]})
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_text, _json_values, max_size=6))
@example({})
@example({"rows": [{"a": [1, []]}, [], "x"], "empty": [], "tuple": (1, (2,)), "n": 3})
@example({"d": {"b": [1, {"c": []}], "a": {}}, "e": {}})
def test_json_emitted_piece_by_piece_matches_json_dumps(payload):
    # _emit writes the payload's keys and its top-level list items one at a
    # time; the bytes are json.dumps' and one newline, {} for no keys
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit("json", payload, None, None)
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, {"a": [0.0]}, {1: "x"},
                                   {"a": {None: 1}}, [{(1, 2): 3}], {"a": {1, 2}}])
def test_json_writer_refuses_what_payloads_never_hold(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


@st.composite
def _verdict_cases(draw):
    """(p, n, mu): mu of length n + 1 to n + 4, its entries p-local
    integers or rationals, some with powers of p in the denominator."""
    p, n = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-p ** 9, p ** 9).map(Fraction),
                      st.builds(Fraction, st.integers(-p ** 6, p ** 6), st.integers(1, p ** 4)))
    return p, n, draw(st.lists(entry, min_size=n + 1, max_size=n + 4))


@settings(max_examples=300, deadline=None)
@given(_verdict_cases())
@example((3, 1, [Fraction(1, 3), Fraction(0)]))
@example((2, 2, [Fraction(1), Fraction(3), Fraction(9), Fraction(1, 2), Fraction(1, 4)]))
def test_congruence_verdicts_match_the_fraction_dot(case):
    # one integer sum per row over D * L gives the verdict of the exact
    # Fraction dot product, on sequences with p in their denominators and
    # on sequences longer than n + 1
    p, n, mu = case
    vecs = summand_rows(p, n)
    assert cli._congruence_verdicts(p, vecs, integer_numerators(mu)) == [
        is_p_local_int(p, dot(vec.entries, mu)) for vec in vecs]


def _parse_cases():
    """Every request of ``tests/cli_digests.py`` in each format, and its
    bad inputs, with file names standing in for paths."""
    valid = [cli_digests.with_paths(request, Path("inputs")) + ["--format", fmt]
             for request in cli_digests.REQUESTS.values() for fmt in cli_digests.FORMATS]
    return valid + [["congruences", "--p=3", "--n=2", "--q", "5", "--check=mu.json"],
                    ["verify-centre", "--n", "3", "--p", "2", "--format=csv"]] + \
        cli_digests.BAD_INPUTS


@pytest.mark.parametrize("argv", _parse_cases())
def test_dispatch_matches_the_full_parser(argv, monkeypatch):
    # the subcommand's own parser gives the full parser's Namespace, and on
    # a bad input or -h the same stdout, stderr and exit code
    monkeypatch.setenv("COLUMNS", "80")
    want = cli_digests.capture(cli_digests.full_parse, argv)
    assert cli_digests.capture(cli._parse_args, argv) == want
    if not isinstance(want[0], argparse.Namespace):
        assert cli_digests.capture(cli.main, argv) == want


@pytest.mark.parametrize("name", cli_digests.BAD_FILES)
def test_a_refused_input_file_is_named_with_the_place(name, tmp_path):
    argv, want = cli_digests.refused(name, tmp_path)
    assert cli_digests.capture(cli.main, argv) == want


@pytest.mark.parametrize("fmt", cli_digests.FORMATS)
def test_a_request_builds_only_the_form_it_prints(fmt, tmp_path, monkeypatch):
    """Every request of ``tests/cli_digests.py`` prints its pinned bytes
    while the builders of the other two forms raise: the CSV rows
    (``_csv_*``), the pretty lines (``_pretty_*``) and the JSON text
    (``_json_text``)."""
    builders = [name for name in vars(cli) if name.startswith(("_csv_", "_pretty_"))]
    assert len(builders) == 2 * len({request[0] for request in cli_digests.REQUESTS.values()})
    builders.append("_json_text")

    def refuse(*args, **kwargs):
        raise AssertionError("a form that was not asked for was built")

    kept = {"json": "_json_text", "csv": "_csv_", "pretty": "_pretty_"}[fmt]
    for name in builders:
        if not name.startswith(kept):
            monkeypatch.setattr(cli, name, refuse)
    for name, content in cli_digests.FILES.items():
        (tmp_path / name).write_text(json.dumps(content), encoding="utf-8")
    for name, request in cli_digests.REQUESTS.items():
        argv = cli_digests.with_paths(request, tmp_path) + ["--format", fmt]
        code, out, err = cli_digests.capture(cli.main, argv)
        assert cli_digests.digest(code, out) == cli_digests.PINNED[name][fmt], (name, err)


def test_python_m_bpadams_parses_sys_argv(tmp_path, capsys, monkeypatch):
    # main() without argv reads sys.argv, here through a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in (["congruences", "--p", "3", "--n", "2", "--format", "json"],
                 ["congruences", "--p", "3", "--bogus"]):
        done = subprocess.run([sys.executable, "-m", "bpadams", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (code, out.out, out.err)
