import bisect
import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_reference
from packing_reference import dense
import theta_reference
from bpadams import centre, hopf, lattice, walk
from bpadams.adamsk import (adams_family, basis_integrality_rows, binomial_mu_congruence,
                            expand_in_family, family_action, family_sequence,
                            ku_congruence_system)
from bpadams.arith import delta_p, format_rational, integer_numerators, nu_p
from bpadams.centre import (bp_sample_lattice, bp_sample_scan, interleaved_g_report,
                            sampled_integrality_rows, summand_rows, verify_centre_bp,
                            _lattice_of_rows)
from bpadams.fgl import BPContext
from bpadams.lattice import (CongruenceSystem, SolutionLattice, extend_lattice, lattice_eq,
                             lattice_leq, solve)
from bpadams.hopf import ConstructionError, MuLinear
from bpadams.polyring import GradedPoly, PolyError, monomials_up_to_weight


def test_verify_centre_p3_n1():
    report = verify_centre_bp(3, 1)
    assert report["verdict"]
    assert report["rows"][1]["pivots"] == [0, 1]
    assert report["rows"][1]["sandwich"] == "equal"


def test_verify_centre_p3_n2_pivots():
    report = verify_centre_bp(3, 2)
    assert report["verdict"]
    assert [row["pivots"] for row in report["rows"]] == [[0], [0, 1], [0, 1, 2]]


def test_verify_centre_p2_small():
    report = verify_centre_bp(2, 2)
    assert report["verdict"]
    assert report["rows"][2]["pivots"] == [0, 1, 3]


def test_verify_centre_weight_raised():
    report = verify_centre_bp(3, 2, weight_bound=1)
    assert report["weight_raised"]
    assert report["weight_bound"] == 2
    assert report["verdict"]


def test_verdict_monotone_in_weight():
    # enlarging the bound only adds sampled congruences: verdicts stay
    # true and the sampled lattice shrinks (or stays equal)
    n = 2
    reports = {W: verify_centre_bp(3, n, weight_bound=W) for W in (2, 3, 4)}
    assert all(r["verdict"] for r in reports.values())
    lat_small = bp_sample_lattice(BPContext(3, 2), n)
    lat_big = bp_sample_lattice(BPContext(3, 4), n)
    assert lattice_leq(lat_big, lat_small)


def test_sampled_rows_deterministic_and_weight_filtered():
    ctx = BPContext(3, 4)
    rows1 = sampled_integrality_rows(ctx)
    rows2 = sampled_integrality_rows(ctx)
    assert [(g, d, f.support()) for g, d, f in rows1] == \
           [(g, d, f.support()) for g, d, f in rows2]
    for gamma, delta, form in rows1:
        top = form.top_index()
        w = ctx.t_table.monomial_weight(gamma)
        assert w <= 4
        if top is not None:
            assert top <= w


def _unpacked_rows(ctx, x):
    """The rows of theta(x), read off its Fraction image term by term, on
    the generator images of the Fraction recursion."""
    nv = len(ctx.v_table)
    rows = {}
    for exps, c in x.substitute(theta_reference.theta_images(ctx)).terms.items():
        rows.setdefault(exps[:nv], {})[sum(exps[nv:])] = c
    weight = ctx.v_table.monomial_weight
    return {delta: MuLinear(rows[delta]) for delta in sorted(rows, key=lambda e: (weight(e), e))}


# (p, W) -> the number of rows.  W = 7 | 8 and 15 | 16 sit on both sides
# of a step in the packed field width W.bit_length(); W = 0 and 1 give the
# empty and the trivial walk
WALK_ROWS = {(2, 12): 116, (3, 14): 79, (5, 12): 29, (2, 7): 27, (2, 8): 37,
             (3, 7): 15, (3, 8): 21, (2, 15): 250, (2, 16): 319, (5, 15): 47,
             (5, 16): 53, (2, 0): 0, (3, 1): 1}


@pytest.mark.parametrize("p, W", list(WALK_ROWS))
def test_sampled_rows_walk_matches_per_monomial_transform(p, W, monkeypatch):
    # the walk substitutes nothing; the oracles transform each t^gamma alone,
    # once through diagonal_transform and once without packed keys
    ctx = BPContext(p, W)

    def refuse(*args, **kwargs):
        raise AssertionError("the walk substituted")

    with monkeypatch.context() as m:
        m.setattr(GradedPoly, "substitute", refuse)
        m.setattr(GradedPoly, "monomial", refuse)
        m.setattr(hopf, "diagonal_transform", refuse)
        rows = sampled_integrality_rows(ctx)
    nl = len(ctx.l_table)
    expected = []
    for gamma in monomials_up_to_weight(ctx.t_table, W):
        if any(gamma):
            x = GradedPoly.monomial(ctx.lt_table, W, (0,) * nl + gamma)
            image = hopf.diagonal_transform(ctx, x)
            assert image == _unpacked_rows(ctx, x), gamma
            expected.extend((gamma, delta, form) for delta, form in image.items())
    assert rows == expected and len(rows) == WALK_ROWS[p, W]


def _with_a_carry(build):
    """The generator images ``build(ctx)`` with a term v_1 * u^2 added to
    theta(t_1): its u-degree 2 > w_1 = 1 breaks the no-carry bound of the
    packed keys."""
    def images(ctx):
        out = dict(build(ctx))
        num, den = out["t1"]
        exps = (1,) + (0,) * (len(ctx.v_table) - 1) + (2,)
        key = hopf._key(exps, ctx.weight_bound.bit_length())
        assert key not in num
        out["t1"] = ({**num, key: den}, den)
        return out
    return images


def test_sampled_rows_refuse_a_generator_image_that_could_carry(monkeypatch):
    # the walk checks the images it is given before it starts, and
    # diagonal_transform once per call.  The walk's images are the
    # program's own, so there the failure is a ConstructionError: on
    # Araki's images for sampled_integrality_rows, on Hazewinkel's for the
    # verification and the sample lattice
    ctx = BPContext(2, 4)
    monkeypatch.setattr(hopf, "_theta_numerators", _with_a_carry(hopf._theta_numerators))
    monkeypatch.setattr(centre, "_theta_numerators", hopf._theta_numerators)
    monkeypatch.setattr(centre, "_hazewinkel_theta_numerators",
                        _with_a_carry(hopf._hazewinkel_theta_numerators))
    message = "theta\\(t1\\) has a term of u-degree 2 above 1: its packed keys could carry"
    for run in (lambda: sampled_integrality_rows(ctx), lambda: verify_centre_bp(2, 3),
                lambda: bp_sample_lattice(ctx, 2)):
        with pytest.raises(ConstructionError, match=message) as err:
            run()
        assert err.value.details == {"stage": "walk", "generator": "t1"}
    with pytest.raises(PolyError, match=message):
        hopf.diagonal_transform(ctx, GradedPoly.gen(ctx.lt_table, 4, "l1")
                                * hopf.t_gen(ctx, 1, 2))


def test_lattice_realizability():
    # every column of the Adams lattice expands integrally in the connective
    # family: phihat at odd p, zeta at p = 2
    for p, n in ((3, 3), (2, 3), (5, 2)):
        fam = adams_family("zeta_ku2", 2) if p == 2 else adams_family("phihat_g", p)
        for col in _lattice_of_rows(p, n, summand_rows(p, n)).columns():
            assert expand_in_family(fam, col)[1], (p, n, col)


def test_basis_injections():
    # a finite sum of members with p-unit coefficients vanishes below its
    # least index m, acts there by a_m times the member's non-zero diagonal,
    # and its action on indices <= M depends on a_0..a_M alone
    rng = random.Random(2026)

    def unit(p):
        while True:
            num, den = rng.randint(-50, 50), rng.randint(1, 50)
            if num % p and den % p:
                return Fraction(num, den)

    for kind, p in (("zeta_ku2", 2), ("phi_ku", 3), ("phihat_g", 3)):
        fam = adams_family(kind, p)
        for _ in range(25):
            coeffs = [Fraction(0)] * 7
            for idx in rng.sample(range(7), rng.randint(1, 7)):
                coeffs[idx] = unit(p)
            m = min(idx for idx, a in enumerate(coeffs) if a)
            seq = family_sequence(fam, coeffs, 7)
            assert not any(seq[:m]), (kind, coeffs)
            diagonal = family_action(fam, m, fam.degree_index(m))
            assert diagonal != 0 and seq[m] == coeffs[m] * diagonal, (kind, coeffs)
            top = rng.randint(m, 6)
            assert family_sequence(fam, coeffs[:top + 1], top + 1) == seq[:top + 1]
    # e_0 is the identity operation: all-ones action sequence
    fam = adams_family("phi_ku", 3)
    assert family_sequence(fam, [Fraction(1)], 5) == (1, 1, 1, 1, 1)
    # e_m kills everything below m and acts by prod (q^m - q^i) at m
    seq = family_sequence(fam, [0, 0, Fraction(1)], 4)
    q = fam.q
    assert seq[0] == seq[1] == 0
    assert seq[2] == (q**2 - 1) * (q**2 - q)


def test_bp_sample_scan():
    report = bp_sample_scan(3, 2, 4)
    assert report["target_pivots"] == [0, 1, 2]
    assert report["stabilized"]
    weights = [s["weight"] for s in report["scan"]]
    assert weights == [1, 2, 3, 4]
    assert report["scan"][1]["equals_summand_lattice"]


@pytest.mark.parametrize("p, n, max_weight", [(3, 2, 8), (2, 2, 7), (5, 1, 6)])
def test_bp_sample_scan_matches_a_context_per_weight(p, n, max_weight):
    # the scan reads every bound from one context; a context per bound is the reference
    target = _lattice_of_rows(p, n, summand_rows(p, n))
    expected = []
    for W in range(1, max_weight + 1):
        lat = bp_sample_lattice(BPContext(p, W), n)
        expected.append({"weight": W, "pivots": list(lat.pivots()),
                         "equals_summand_lattice": lattice_eq(lat, target)})
    assert bp_sample_scan(p, n, max_weight)["scan"] == expected


def test_verify_run_builds_no_araki_theta_images(monkeypatch):
    # a passing run walks Hazewinkel's images, and the special elements
    # read their rows from the v_1-shadows, which need no theta image
    def refuse(ctx):
        raise AssertionError("Araki's theta images were built")

    monkeypatch.setattr(hopf, "_theta_numerators", refuse)
    monkeypatch.setattr(centre, "_theta_numerators", refuse)
    for p, n in ((2, 5), (3, 4), (5, 12)):
        assert verify_centre_bp(p, n)["verdict"]


def test_verify_run_builds_no_right_unit_tables(monkeypatch):
    def refuse(ctx):
        raise AssertionError("the right-unit tables were built")

    monkeypatch.setattr(hopf, "_RightUnitData", refuse)
    for p, n in ((2, 5), (3, 4)):
        assert verify_centre_bp(p, n)["verdict"]


def _recorded_walk(monkeypatch, tops):
    """centre's walk, recording the ``top`` of each call and checking that
    every row it hands over has its top index at most ``top``."""
    real = walk.t_monomial_numerators

    def recorded(ctx, images, top=None):
        tops.append(top)
        for gamma, rows, den, count in real(ctx, images, top):
            assert top is None or all(len(row) - 1 <= top for row in rows.values())
            yield gamma, rows, den, count

    monkeypatch.setattr(centre, "t_monomial_numerators", recorded)


@pytest.mark.parametrize("p, W, n", [(2, 12, 5), (3, 14, 6), (5, 16, 3)])
def test_sample_lattice_and_scan_read_only_the_rows_up_to_n(p, W, n, monkeypatch):
    # the walk is asked for top = n, so rows above n are counted and never
    # decoded, and no MuLinear is built; the route through the forms of
    # sampled_integrality_rows is the reference
    ctx = BPContext(p, W)
    forms = [form.as_row(n + 1) for _, _, form in sampled_integrality_rows(ctx)
             if form.top_index() <= n]
    want = solve(CongruenceSystem(p, n, tuple(forms)))
    scan = bp_sample_scan(p, n, W)
    tops = []
    _recorded_walk(monkeypatch, tops)

    def refuse(*args, **kwargs):
        raise AssertionError("a MuLinear was built")

    monkeypatch.setattr(MuLinear, "__init__", refuse)
    monkeypatch.setattr(MuLinear, "_from_numerators", refuse)
    assert bp_sample_lattice(ctx, n) == want
    assert bp_sample_scan(p, n, W) == scan
    assert tops == [n, n]


def test_one_read_out_serves_every_sampled_row_caller(monkeypatch):
    # verify_centre_bp, bp_sample_lattice, bp_sample_scan and
    # sampled_integrality_rows each read the walk once, through _sampled_rows
    calls, tops = [], []
    read_out = centre._sampled_rows

    def recorded(ctx, top, images):
        calls.append(top)
        return read_out(ctx, top, images)

    monkeypatch.setattr(centre, "_sampled_rows", recorded)
    _recorded_walk(monkeypatch, tops)
    assert verify_centre_bp(3, 4)["verdict"]
    bp_sample_lattice(BPContext(3, 6), 2)
    bp_sample_scan(3, 3, 5)
    assert sampled_integrality_rows(BPContext(3, 5))
    assert calls == tops == [4, 2, 3, None]


def test_verify_run_builds_no_v_in_l(monkeypatch):
    # v_n over the l's serves public callers alone; bpadams never calls v_in_l
    def refuse(ctx):
        raise AssertionError("v_in_l was built")

    monkeypatch.setattr(BPContext, "_build_v_in_l", refuse)
    for p, n in ((2, 5), (3, 4)):
        assert verify_centre_bp(p, n)["verdict"]


def test_verify_run_makes_no_mu_linear_convolution(monkeypatch):
    # the special rows and v1_functional convolve integer lists, not forms:
    # MuLinear has no convolution, and a verify run sums or scales no form
    assert not hasattr(MuLinear, "convolve") and not hasattr(MuLinear, "convolve_power")
    calls = []
    for name in ("__add__", "__sub__", "__mul__"):
        method = getattr(MuLinear, name)
        monkeypatch.setattr(MuLinear, name, lambda self, other, method=method: (
            calls.append(other) or method(self, other)))
    assert verify_centre_bp(5, 12)["verdict"]
    assert calls == []


def test_interleaved_g_report():
    report = interleaved_g_report(3, 6)
    assert report["interleaved_pivots"] == report["ku_pivots"]
    assert report["equal"]
    with pytest.raises(ValueError):
        interleaved_g_report(2, 3)


@pytest.mark.parametrize("p, n, qs, digest", [(3, 12, (2, 5, 11), "df613de2236f"),
                                               (5, 14, (2, 3, 8), "df6cee1ca6df")])
def test_the_report_without_q_does_not_depend_on_q(p, n, qs, digest):
    # the Adams lattice does not depend on the choice of q, and neither does
    # the verdict: the report with q and qhat removed hashes the same
    for q in qs:
        report = verify_centre_bp(p, n, q=q)
        assert (report.pop("q"), report.pop("qhat")) == (q, q ** (p - 1))
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest, q


def test_interleaved_g_report_checks_q_once(monkeypatch):
    # q is checked once per report, and its rows are built unchecked; the
    # one other check is ku_congruence_system's.  The public row still
    # checks q, j and k.
    from bpadams import adamsk, arith, centre

    interleaved_g_report(7, 12)  # the memoised rows, filled
    checked, check = [], arith.validate_q
    for module in (arith, adamsk, centre):
        monkeypatch.setattr(module, "validate_q", lambda p, q: checked.append(q) or check(p, q))
    assert interleaved_g_report(7, 12)["equal"]
    assert checked == [None, 3]
    with pytest.raises(ValueError, match="divisible by p = 7"):
        binomial_mu_congruence(7, 0, 1, 14)
    with pytest.raises(ValueError, match="negative block index"):
        binomial_mu_congruence(7, 0, -1)


def test_interleave_scan_matches_the_triangularized_system():
    # the raw rows cut out the lattice of their triangular form; cli-mix's points
    for p in (3, 5, 7):
        for n in (2, 4, 6, 8):
            report = interleaved_g_report(p, n)
            ku = solve(ku_congruence_system(p, n))
            inter = solve(CongruenceSystem(p, n, tuple(
                binomial_mu_congruence(p, idx % (p - 1), idx // (p - 1)).padded(n + 1)
                for idx in range(n + 1))))
            assert report["ku_pivots"] == list(ku.pivots()), (p, n)
            assert report["interleaved_pivots"] == list(inter.pivots()), (p, n)
            assert report["equal"] == lattice_eq(inter, ku), (p, n)


def test_p2_summand_rows_are_the_triangularized_system_on_integers():
    for n in range(31):
        rows = ku_congruence_system(2, n).rows
        vecs = summand_rows(2, n)
        assert [vec.entries for vec in vecs] == [row[: r + 1] for r, row in enumerate(rows)], n
        for r, vec in enumerate(vecs):
            assert vec.n == r and vec.budget == delta_p(2, r) and vec.shape_ok()
            nums, den = vec.integer_row
            assert (list(nums), den) == integer_numerators(vec.entries), (n, r)
    # and against the Fraction reference, which shares no code with the rows
    for n in (5, 12):
        raw = CongruenceSystem(2, n, basis_integrality_rows(2, n))
        assert [vec.entries for vec in summand_rows(2, n)] == [
            row[: r + 1] for r, row in enumerate(lattice_reference.triangularize(raw).rows)]


def test_failure_reporting_shape():
    # a too-small n_max still produces a well-formed report
    report = verify_centre_bp(5, 0)
    assert report["verdict"] and report["rows"][0]["n"] == 0


def test_failure_aborts_with_witness(monkeypatch):
    # corrupt the Adams-side row at n = 1 so the sampled inclusion fails:
    # the scan must stop at that index and record the witness
    import bpadams.centre as centre
    from bpadams.adamsk import CongruenceVector

    real = centre.summand_rows

    def corrupted(p, n_max, q=None):
        rows = real(p, n_max, q)
        if n_max >= 1:
            rows[1] = CongruenceVector(p, 1, (Fraction(0), Fraction(1, 3)),
                                       rows[1].budget)
        return rows

    monkeypatch.setattr(centre, "summand_rows", corrupted)
    report = centre.verify_centre_bp(3, 2)
    assert not report["verdict"]
    assert report["failure"]["n"] == 1
    assert report["rows"][-1]["n"] == 1  # aborted before n = 2
    row = report["rows"][-1]
    assert not row["verdict"]
    if "witness" in report["failure"]:
        assert "mu" in report["failure"]["witness"]


def test_summand_rows_and_scan_check_q():
    # q = 9 is divisible by 3; before, both returned results computed from it
    with pytest.raises(ValueError, match="divisible by p = 3"):
        summand_rows(3, 2, q=9)
    with pytest.raises(ValueError, match="divisible by p = 3"):
        bp_sample_scan(3, 1, 0, q=9)
    with pytest.raises(ValueError, match="p = 2"):
        summand_rows(2, 2, q=3)
    assert summand_rows(3, 2, q=2) == summand_rows(3, 2)


def _brute_force_inclusion(p, n_max, sample):
    """The inclusion scan as a direct loop: every n, every usable row, every
    column of the solved Adams lattice, in exact Fractions."""
    from bpadams.arith import format_rational, val_p

    rows_g = summand_rows(p, n_max)
    used = []
    for n in range(n_max + 1):
        lat = _lattice_of_rows(p, n, rows_g[: n + 1])
        usable = 0
        for gamma, delta, form in sample:
            top = form.top_index()
            if top is not None and top > n:
                continue
            usable += 1
            row = form.as_row(n + 1)
            for col in lat.columns():
                value = sum((c * m for c, m in zip(row, col)), Fraction(0))
                if val_p(p, value) < 0:
                    used.append(usable)
                    return used, {"n": n, "gamma": list(gamma), "delta": list(delta),
                                  "mu": [format_rational(x) for x in col],
                                  "value": format_rational(value)}
        used.append(usable)
    return used, None


def _flattened(ctx, items):
    """The walk's (gamma, rows, den, count) items as the sampled rows, in
    their canonical order: non-trivial gamma in lexicographic order, the
    packed keys of each sorted and decoded into delta, each row read as a
    MuLinear with coefficients c / den."""
    delta_of = hopf._delta_reader(ctx)
    return [(gamma, delta_of(key), MuLinear({j: Fraction(c, den) for j, c in enumerate(row)}))
            for gamma, rows, den, _ in sorted(items, key=itemgetter(0)) if any(gamma)
            for key, row in sorted(rows.items())]


def _inject(monkeypatch, bad, before):
    """Patch the integer producer that verify_centre_bp reads so that it
    also yields the item ``bad`` = (gamma, rows, den), right after the root
    in walk order; in the canonical order, lexicographic in gamma, it goes
    to position k of the walk's items, and ``before(items, k)`` must hold
    there.  Like the walk, the item keeps the rows whose top index is at
    most the walk's ``top`` and counts them all, on either set of
    generator images.  Returns the list that receives the flattened sample
    of each walk and the list of the ``(top, generators)`` each walk was
    asked for, generators "araki" or "hazewinkel".  The rows of ``bad``
    are given as {delta: {j: c_j}}, the item keying each by delta's packed
    v-monomial, as the walk does."""
    import bpadams.centre as centre

    real = centre.t_monomial_numerators
    seen, asked = [], []

    def with_bad_row(ctx, images, top=None):
        araki = images is hopf._theta_numerators(ctx)
        assert araki or images is hopf._hazewinkel_theta_numerators(ctx)
        items = list(real(ctx, images, top))
        gamma, rows, den = bad
        ordered = sorted(items, key=itemgetter(0))
        k = bisect.bisect([item[0] for item in ordered], gamma)
        assert ordered[k - 1][0] != gamma and before(ordered, k)
        packed = {hopf._key(delta, ctx.weight_bound.bit_length()): row
                  for delta, row in rows.items()}
        assert [hopf._delta_reader(ctx)(key) for key in packed] == list(rows)  # no field carries
        kept = {key: dense(row) for key, row in packed.items() if top is None or max(row) <= top}
        items.insert(1, (gamma, kept, den, len(rows)))
        seen.append(_flattened(ctx, items))
        asked.append((top, "araki" if araki else "hazewinkel"))
        return iter(items)

    monkeypatch.setattr(centre, "t_monomial_numerators", with_bad_row)
    return seen, asked


def _tops(item):
    return [len(row) - 1 for row in item[1].values()]


def test_inclusion_witness_matches_brute_force(monkeypatch):
    import bpadams.centre as centre

    # the row at v_1 holds on the first two Adams columns at n = 2,
    # (1, 1, 1) and (0, 3, 6), and misses the third, (0, 0, 9), by one
    # power of 3.  The row at v_1 v_2 misses the first; it comes first in
    # the item but second in graded-lex order, so it is not the witness.
    # gamma (1, 9) sorts between (1, 1) and (2, 0)
    bad = ((1, 9), {(1, 1): {2: 1}, (1, 0): {0: 1, 1: -2, 2: 1}}, 27)

    def after_a_top_one(items, k):
        # after the passing row with top index 1, and before a passing row
        # with top index 2 that the failed scan must not count
        return (any(1 in _tops(item) for item in items[:k])
                and any(2 in _tops(item) for item in items[k:]))

    seen, asked = _inject(monkeypatch, bad, after_a_top_one)
    report = centre.verify_centre_bp(3, 4)
    # the Hazewinkel rows fail at n = 2, so the rows up to top index 2 are
    # walked again on Araki's generators, which the witness and the count
    # come from
    assert asked == [(4, "hazewinkel"), (2, "araki")]
    used, witness = _brute_force_inclusion(3, 4, seen[1])
    assert witness is not None and witness["n"] == 2
    assert _brute_force_inclusion(3, 4, seen[0])[1]["n"] == 2
    failure = report["failure"]
    assert {"n": failure["n"], **failure["witness"]} == witness
    assert witness["mu"] == ["0", "0", "9"] and witness["value"] == "1/3"
    assert [row["sample_rows_used"] for row in report["rows"]] == used
    assert [row["sample_included"] for row in report["rows"]] == [True, True, False]


def test_inclusion_witness_in_a_late_subtree_matches_brute_force(monkeypatch):
    import bpadams.centre as centre

    # mu_6 / 2^(e_6 + 1) misses the Adams lattice at n = 6.  Its gamma
    # (5, 9, 9) sorts near the end of the canonical order, after the
    # passing rows with top index 6 of (0, 2, 0) and (3, 1, 0) and before
    # that of (6, 0, 0), which the failed scan must not count, though the
    # walk yields it right after the root
    e6 = _lattice_of_rows(2, 6, summand_rows(2, 6)).pivots()[6]
    bad = ((5, 9, 9), {(0, 0, 9): {6: 1}}, 2 ** (e6 + 1))

    def before_six(items, k):
        return items[k][0] == (6, 0, 0)

    seen, asked = _inject(monkeypatch, bad, before_six)
    report = centre.verify_centre_bp(2, 6)
    assert asked == [(6, "hazewinkel"), (6, "araki")]
    used, witness = _brute_force_inclusion(2, 6, seen[1])
    assert witness is not None and witness["n"] == 6 and witness["gamma"] == [5, 9, 9]
    assert _brute_force_inclusion(2, 6, seen[0])[1]["n"] == 6
    failure = report["failure"]
    assert {"n": failure["n"], **failure["witness"]} == witness
    assert [row["sample_rows_used"] for row in report["rows"]] == used
    assert [row["sample_included"] for row in report["rows"]] == [True] * 6 + [False]
    top_six = sum(1 for _, _, form in seen[1] if form.top_index() == 6)
    assert used[6] - used[5] == top_six - 1  # the row of (6, 0, 0) is not counted


def test_a_failing_row_above_n_max_is_counted_and_never_tested(monkeypatch):
    import bpadams.centre as centre

    clean = centre.verify_centre_bp(3, 4)
    # mu_0 / 3^20 misses every Adams lattice, but the row's top index 5 is
    # above n_max = 4: the run counts it and tests nothing of it
    den = 3 ** 20
    bad = ((9, 9), {(1, 1): {0: 1, 5: 1}}, den)
    seen, asked = _inject(monkeypatch, bad, lambda items, k: True)
    tested = []
    val_p = centre.val_p

    def recorded_val_p(p, x):
        tested.append(x)
        return val_p(p, x)

    monkeypatch.setattr(centre, "val_p", recorded_val_p)
    report = centre.verify_centre_bp(3, 4)
    assert asked == [(4, "hazewinkel")] and report["verdict"]
    assert report == {**clean, "sample_rows_total": clean["sample_rows_total"] + 1}
    assert den not in tested and len(tested) == report["rows"][-1]["sample_rows_used"]
    assert all(form.top_index() <= 4 for _, _, form in seen[0])


@pytest.mark.parametrize("p, n", [(2, 4), (2, 6), (2, 10), (2, 12), (2, 16), (2, 20), (3, 4),
                                  (3, 6), (3, 12), (3, 18), (3, 27), (5, 6), (5, 10), (5, 24),
                                  (5, 36), (7, 8), (7, 14), (7, 30), (7, 42), (11, 12),
                                  (13, 14)])
def test_both_generator_sets_give_the_same_counts_and_lattices(p, n):
    """The rows read in Araki's and in Hazewinkel's generators, at
    W = delta_p(n): the same count of rows, the same count per top index
    up to n, and the same lattice cut out by the rows with top index <= m
    for m = n and m = n // 2.  Integrality of theta_mu(t^gamma) does not
    depend on the generators, but the restriction to top index <= m does
    in principle, so this equality is observed here, not proved; the
    verification's report relies on it."""
    ctx = BPContext(p, delta_p(p, n))
    (araki, araki_total), (hazewinkel, hazewinkel_total) = (
        centre._sampled_rows(ctx, n, images(ctx))
        for images in (hopf._theta_numerators, hopf._hazewinkel_theta_numerators))
    assert araki_total == hazewinkel_total

    def per_top(rows):
        return collections.Counter(len(row) - 1 for _, _, row, _ in rows)

    assert per_top(araki) == per_top(hazewinkel)
    assert [row for _, _, row, _ in araki] != [row for _, _, row, _ in hazewinkel]
    for m in {n, n // 2}:
        araki_lattice, hazewinkel_lattice = (
            solve(CongruenceSystem(p, m, None, lattice._padded(
                ((row, den) for _, _, row, den in rows if len(row) <= m + 1), m + 1)))
            for rows in (araki, hazewinkel))
        assert araki_lattice == hazewinkel_lattice, m


@pytest.mark.parametrize("p, W", [(2, 12), (3, 14), (5, 12), (2, 16)])
def test_integer_producer_matches_the_sampled_rows(p, W):
    # the rows verify_centre_bp tests, read as Fraction(c, den), are the
    # public sampled rows, row for row: gamma by gamma, each gamma handed
    # over once, in the walk's order, and each row under delta's packed
    # v-monomial, the walk's key
    ctx = BPContext(p, W)
    width = W.bit_length()
    want = {}
    for gamma, delta, form in sampled_integrality_rows(ctx):
        want.setdefault(gamma, {})[hopf._key(delta, width)] = form
    got = [(gamma, {key: MuLinear({j: Fraction(c, den) for j, c in enumerate(row)})
                    for key, row in rows.items()})
           for gamma, rows, den, _ in walk.t_monomial_numerators(ctx, hopf._theta_numerators(ctx))
           if any(gamma) and rows]
    assert len({gamma for gamma, _ in got}) == len(got)
    assert dict(got) == want
    assert list(want) == sorted(want)  # the public rows come in canonical order


def test_inclusion_counts_match_brute_force_on_passing_scans():
    for p, n in ((3, 4), (2, 4), (5, 6)):
        report = verify_centre_bp(p, n)
        ctx = BPContext(p, report["weight_bound"])
        used, witness = _brute_force_inclusion(p, n, sampled_integrality_rows(ctx))
        assert witness is None and report["verdict"]
        assert [row["sample_rows_used"] for row in report["rows"]] == used


def test_hypothesis_violation_report_is_unchanged(monkeypatch):
    # c_2 times 3 breaks the shape (its pivot has valuation -delta_3(2) + 1):
    # the sandwich builds no S, so the Adams lattice at n = 2 is the
    # extension by the corrupted c_2 itself.  Expected values were taken
    # from the route that extended the Adams lattice before the sandwich.
    import bpadams.centre as centre
    from bpadams.adamsk import CongruenceVector

    real = centre.summand_rows

    def corrupted(p, n_max, q=None):
        rows = real(p, n_max, q)
        rows[2] = CongruenceVector(p, 2, tuple(3 * e for e in rows[2].entries),
                                   rows[2].budget)
        return rows

    monkeypatch.setattr(centre, "summand_rows", corrupted)
    report = centre.verify_centre_bp(3, 3)
    assert [row["pivots"] for row in report["rows"]] == [[0], [0, 1], [0, 1, 1]]
    assert [row["sandwich"] for row in report["rows"]] == [
        "equal", "equal", "hypothesis_violation"]
    assert report["failure"] == {
        "n": 2,
        "sandwich": {"status": "hypothesis_violation", "equal": False,
                     "detail": "row with top index 2 violates the pivot/valuation shape"},
        "witness": {"gamma": [2, 0], "delta": [2, 0], "mu": ["0", "3", "0"],
                    "value": "-1/96"},
    }


def test_the_araki_walk_for_a_witness_is_drawn_in_full(monkeypatch):
    # the corrupted c_2 of the test above: the Hazewinkel rows fail at
    # n = 2, and the Araki walk that reads the witness is drawn to its end,
    # since the walk's order is not the canonical one: its nodes are read
    # sorted by gamma, and the witness's gamma is not the last node drawn
    import bpadams.centre as centre
    from bpadams.adamsk import CongruenceVector

    real_rows, real_walk = centre.summand_rows, centre.t_monomial_numerators

    def corrupted(p, n_max, q=None):
        rows = real_rows(p, n_max, q)
        rows[2] = CongruenceVector(p, 2, tuple(3 * e for e in rows[2].entries),
                                   rows[2].budget)
        return rows

    drawn = []

    def recorded(ctx, images, top=None):
        for item in real_walk(ctx, images, top):
            if images is hopf._theta_numerators(ctx):
                drawn.append(item[0])
            yield item

    monkeypatch.setattr(centre, "summand_rows", corrupted)
    monkeypatch.setattr(centre, "t_monomial_numerators", recorded)
    report = centre.verify_centre_bp(3, 3)
    assert report["failure"]["witness"]["gamma"] == [2, 0] and drawn[-1] != (2, 0)
    ctx = BPContext(3, report["weight_bound"])
    assert drawn == [item[0] for item in real_walk(ctx, hopf._theta_numerators(ctx), 2)]


def test_the_witness_is_the_canonical_first_failure_not_the_walks_first(monkeypatch):
    # c_4 times 3^4 at (3, 4) breaks the shape, and the Adams lattice at
    # n = 4, extended by it, is too large for two Araki nodes with rows of
    # top index 4: (4, 0), which the walk yields first, and (0, 1), which
    # comes first in the canonical order, lexicographic in gamma.  The
    # witness and the count are those of (0, 1), the bytes the walk in
    # canonical order gave
    import bpadams.centre as centre
    from bpadams.adamsk import CongruenceVector

    real = centre.summand_rows

    def corrupted(p, n_max, q=None):
        rows = real(p, n_max, q)
        rows[4] = CongruenceVector(p, 4, tuple(81 * e for e in rows[4].entries),
                                   rows[4].budget)
        return rows

    monkeypatch.setattr(centre, "summand_rows", corrupted)
    report = centre.verify_centre_bp(3, 4)
    ctx = BPContext(3, report["weight_bound"])
    lat = _lattice_of_rows(3, 4, corrupted(3, 4))
    failing = [gamma for gamma, rows, den, _ in
               walk.t_monomial_numerators(ctx, hopf._theta_numerators(ctx), 4)
               if centre._first_sample_failure(3, lat, [(row, den) for row in rows.values()
                                                        if len(row) == 5]) is not None]
    assert failing == [(4, 0), (0, 1)]
    assert report["failure"] == {
        "n": 4,
        "sandwich": {"status": "hypothesis_violation", "equal": False,
                     "detail": "row with top index 4 violates the pivot/valuation shape"},
        "witness": {"gamma": [0, 1], "delta": [4, 0], "mu": ["0", "3", "6", "36", "0"],
                    "value": "-1/12288"},
    }
    assert [row["sample_rows_used"] for row in report["rows"]] == [0, 1, 2, 3, 2]


def _all_columns_first_failure(p, lat, rows):
    """The sample test by its definition: (k, j) for the first row k, then
    column j, whose exact value on column j has negative valuation."""
    from bpadams.arith import val_p

    columns = lat.columns()
    for k, (row, den) in enumerate(rows):
        for j, col in enumerate(columns):
            value = sum((Fraction(c, den) * col[i] for i, c in enumerate(row)), Fraction(0))
            if val_p(p, value) < 0:
                return k, j
    return None


def test_triangular_sample_test_against_all_columns():
    from bpadams.centre import _first_sample_failure
    from bpadams.lattice import CongruenceSystem, solve

    rng = random.Random(97)
    outcomes = []
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randint(0, 7)
        system = tuple(tuple(Fraction(rng.randint(-9, 9), p ** rng.randint(0, 3))
                             for _ in range(n + 1))
                       for _ in range(rng.randint(0, 3)))
        lat = solve(CongruenceSystem(p, n, system))
        rows = []
        for _ in range(rng.randint(1, 5)):
            support = rng.sample(range(n + 1), rng.randint(1, n + 1))
            row = {i: rng.randint(-p ** 4, p ** 4) or 1 for i in support}
            rows.append((dense(row), p ** rng.randint(0, 4) * rng.choice((1, 7, 11, 13))))
        got = _first_sample_failure(p, lat, rows)
        assert got == _all_columns_first_failure(p, lat, rows), (p, n, system, rows)
        outcomes.append(got)
    # passing sets, and failures at a later row and at a later column
    assert None in outcomes
    assert any(got and got[0] > 0 for got in outcomes)
    assert any(got and got[1] > 0 for got in outcomes)


def _entrywise_first_sample_failure(p, lat, rows):
    """The sample test entry by entry, as it ran before packed basis rows:
    the reference for :func:`centre._first_sample_failure`."""
    from bpadams.arith import val_p

    basis = lat.basis
    for k, (row, den) in enumerate(rows):
        v = val_p(p, den)
        if not v:
            continue
        modulus = p ** v
        values = [0] * len(basis)
        for i, c in enumerate(row):
            r = c % modulus
            if r:
                for j, b in enumerate(basis[i][: i + 1]):
                    values[j] += r * b
        for j, value in enumerate(values):
            if value % modulus:
                return k, j
    return None


@st.composite
def _sample_tests(draw):
    """(p, lattice, rows): a lattice extended row by row from shape rows
    (entries in p^-a Z_(p), a unit pivot p^-a), and rows whose entries are
    often p^v - 1 modulo p^v, the largest residue, or 0 modulo p^v; each
    row draws its own v, so v grows and falls within one call."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 6))
    lat = SolutionLattice(p, ())
    for r in range(n + 1):
        a = draw(st.integers(0, 3))
        entries = [Fraction(draw(st.integers(-p ** 3, p ** 3)), p ** a) for _ in range(r)]
        unit = draw(st.integers(1, p * p).filter(lambda u: u % p))
        lat = extend_lattice(lat, entries + [Fraction(unit, p ** a)])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        modulus = p ** draw(st.integers(0, 4))
        row = {}
        for i in draw(st.sets(st.integers(0, n), min_size=1)):
            residue = draw(st.sampled_from([modulus - 1, 0, None]))
            if residue is None:
                residue = draw(st.integers(0, modulus - 1))
            row[i] = residue + modulus * draw(st.integers(-2, 2)) or modulus
        rows.append((dense(row), modulus * draw(st.sampled_from([1, 7, 11]))))
    return p, lat, rows


@settings(max_examples=300, deadline=None)
@given(_sample_tests())
def test_packed_sample_test_matches_the_entrywise_one(case):
    p, lat, rows = case
    assert centre._first_sample_failure(p, lat, rows) == \
        _entrywise_first_sample_failure(p, lat, rows)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_sample_test_at_its_width_bound(p):
    # column 0 at p^E - 1 below the diagonal, the others p^E * e_j, and
    # residues 0, 2 and p^v - 1 modulo p^v: a row that holds on column 0
    # can reach 6/7 of (n + 1) * p^(v + E) there (at p = 2, v = E = 4:
    # residues 15, 15, 15, 15, 15, 2, 2), so a width narrower by a factor
    # of p carries
    E, n = 4, 6
    lat = SolutionLattice(p, tuple(
        tuple(p ** E if j == i else p ** E - 1 if j == 0 else 0 for j in range(i + 1))
        + (0,) * (n - i) for i in range(n + 1)))
    outcomes = []
    for v in (1, 3, 4):
        modulus = p ** v
        for residues in itertools.product((0, 2, modulus - 1), repeat=n + 1):
            rows = [([r + modulus for r in residues], modulus)]
            got = centre._first_sample_failure(p, lat, rows)
            assert got == _entrywise_first_sample_failure(p, lat, rows), (v, residues)
            outcomes.append(got)
    assert None in outcomes and any(outcomes)


def test_verify_run_evaluates_each_row_shape_once(monkeypatch):
    # sandwich_check asks for the shape of c_0..c_{n-1}, c_n and the special
    # row at every n; each row's verdict is computed once and kept
    from functools import cached_property

    import bpadams.centre as centre
    from bpadams.adamsk import CongruenceVector

    evaluate = CongruenceVector._shape.func
    evaluated = []

    def counted(vec):
        evaluated.append(vec)  # held, so no two rows share an id
        return evaluate(vec)

    shape = cached_property(counted)
    shape.__set_name__(CongruenceVector, "_shape")
    monkeypatch.setattr(CongruenceVector, "_shape", shape)
    real = centre.summand_rows
    # fresh rows: C_vector's cache may hold rows whose verdict is already kept
    monkeypatch.setattr(centre, "summand_rows", lambda p, n_max, q=None: [
        CongruenceVector(r.p, r.n, r.entries, r.budget) for r in real(p, n_max, q)])
    assert verify_centre_bp(5, 24)["verdict"]
    assert len(evaluated) == len({id(vec) for vec in evaluated}) == 2 * 25


def test_verify_run_checks_each_sandwich_row_once(monkeypatch):
    # the verify chain asks for the shape of c_n and of d_n's row once each,
    # at n, where sandwich_check would ask again for every row below n at
    # every later n (350 calls at (5, 24), not 50)
    from bpadams.adamsk import CongruenceVector

    shape_ok, checked = CongruenceVector.shape_ok, []
    monkeypatch.setattr(CongruenceVector, "shape_ok",
                        lambda vec: checked.append(vec.n) or shape_ok(vec))
    assert verify_centre_bp(5, 24)["verdict"]
    assert checked == [n for n in range(25) for _ in "ST"]


def _adams_span(p, n, step):
    """The canonical solution lattice of the Z_(p)-span of the eigenvalue
    vectors (k^(step * j))_{j <= n} of the single Adams operations psi^k,
    k in [-60, 60] prime to p, by an echelon of its own (no Adams-family
    formula).

    Entries are kept modulo p^M, M = nu_p of the Vandermonde determinant
    of n + 1 of the vectors with distinct nodes: the span contains
    p^M Z_(p)^(n+1), so reducing modulo p^M loses nothing.  Column j
    gets the entry of least valuation at index j, made a pure power p^f
    by a unit, and p^M e_j leaves p^(M - f) times it, past j, to the later
    columns.  Each column is then reduced to canonical residues by the
    later ones."""
    nodes = sorted({k ** step for k in range(-60, 61) if k % p})
    M = sum(nu_p(p, b - a) for a, b in itertools.combinations(nodes[: n + 1], 2))
    modulus = p ** M
    pool = [[pow(x, j, modulus) for j in range(n + 1)] for x in nodes]
    cols = []
    for col in range(n + 1):
        best, f = None, M
        for r in pool:
            if r[col] and nu_p(p, r[col]) < f:
                best, f = r, nu_p(p, r[col])
        if best is None:
            pivot = [0] * col + [modulus] + [0] * (n - col)
        else:
            inverse = pow(best[col] // p ** f, -1, modulus)
            pivot = [x * inverse % modulus for x in best]
            pool = [r for r in pool if r is not best]
            pool.append([0] * (col + 1) + [-x * p ** (M - f) % modulus for x in pivot[col + 1:]])
        for r in pool:
            z = r[col] // p ** f
            r[:] = [(x - z * y) % modulus for x, y in zip(r, pivot)]
        cols.append(pivot)
    for j, column in enumerate(cols):
        for i in range(j + 1, n + 1):
            z = column[i] // cols[i][i]
            column[:] = [x - z * y for x, y in zip(column, cols[i])]
    return SolutionLattice(p, [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)])


@pytest.mark.parametrize("p, rows", [(2, "summand"), (3, "summand"), (5, "summand"),
                                     (7, "summand"), (2, "ku"), (3, "ku"), (5, "ku"),
                                     (7, "ku")])
def test_adams_lattices_are_the_span_of_single_adams_operations(p, rows):
    # the summand at odd p sees psi^k through k^(p-1) on each index; ku_(p),
    # and the p = 2 summand rows, which are ku_(2)'s, through k itself.
    # Equality at n = 12 gives it below 12: both lattices project.
    n = 12
    if rows == "summand":
        adams = _lattice_of_rows(p, n, summand_rows(p, n))
        step = 1 if p == 2 else p - 1
    else:
        adams = solve(ku_congruence_system(p, n))
        step = 1
    span = _adams_span(p, n, step)
    assert span.pivots() == adams.pivots()
    assert lattice_leq(span, adams)
    assert lattice_eq(span, adams)


def test_p2_summand_rows_are_the_memoised_vectors():
    # summand_rows(2, n) builds no row: every call hands out the vectors
    # memoised by _ku_canonical_rows, the same objects in a fresh list, so
    # each one's shape verdict is taken once; their values are the rows of
    # ku_congruence_system, as at odd p the rows are C_vector's memo
    for p, n in ((2, 0), (2, 5), (2, 12), (3, 6)):
        rows = summand_rows(p, n)
        again = summand_rows(p, n)
        assert again is not rows and len(again) == n + 1
        assert all(a is b for a, b in zip(again, rows))
        if p == 2:
            assert [vec.padded(n + 1) for vec in rows] == list(ku_congruence_system(2, n).rows)
    assert summand_rows(2, 12)[4].shape_ok() and "_shape" in vars(summand_rows(2, 12)[4])



def test_one_memo_entry_per_connective_row_set():
    # the connective rows are memoised by the q in use, not as the caller
    # gave it: q left to its default and the same q given build one row
    # set, at p = 3 through ku_congruence_system and interleaved_g_report
    # (which validates q first), at p = 2 through summand_rows
    from bpadams import adamsk
    from bpadams.arith import find_q

    memo = adamsk._ku_canonical_rows
    memo.cache_clear()
    ku_congruence_system(3, 6)
    assert memo.cache_info().misses == 1
    interleaved_g_report(3, 6)
    ku_congruence_system(3, 6, find_q(3))
    assert memo.cache_info().misses == 1
    summand_rows(2, 6)
    ku_congruence_system(2, 6)
    assert memo.cache_info().misses == 2

def test_a_verify_run_builds_each_special_element_once(monkeypatch):
    # special_element is the one lookup: over a run each d_{p^i} <= n_max is
    # built once, and d_0 is kept in the cache like every other d_n; each
    # prints from its integers as format_rational prints its row
    built = []
    real = hopf._special_prime_power
    monkeypatch.setattr(hopf, "_special_prime_power",
                        lambda ctx, i: built.append(ctx.p ** i) or real(ctx, i))
    for p, n_max in ((2, 12), (3, 10), (5, 7), (3, 0)):
        built.clear()
        assert verify_centre_bp(p, n_max)["verdict"]
        powers = [p ** i for i in range(n_max.bit_length()) if p ** i <= n_max]
        assert built == powers, (p, n_max)
    ctx = BPContext(3, delta_p(3, 4))
    d0 = hopf.special_element(ctx, 0)
    assert hopf.special_element(ctx, 0) is d0 and ctx._hopf_cache["special"][0] is d0
    for n in range(5):
        d = hopf.special_element(ctx, n)
        assert d.to_jsonable()["c"] == [format_rational(x) for x in d.c]
