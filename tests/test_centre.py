from fractions import Fraction

import pytest

from bpadams.adamsk import adams_family, family_action
from bpadams.centre import (bp_sample_lattice, bp_sample_scan, interleaved_g_report,
                            lattice_realizability, sampled_integrality_rows, summand_rows,
                            verify_centre_bp, _lattice_of_rows)
from bpadams.fgl import BPContext
from bpadams.lattice import lattice_leq


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


def test_lattice_realizability():
    for p, n in ((3, 3), (2, 3), (5, 2)):
        rows = summand_rows(p, n)
        lat = _lattice_of_rows(p, n, rows)
        assert lattice_realizability(p, n, lat)


def test_basis_injections():
    from bpadams.centre import verify_basis_injections

    for p in (2, 3):
        report = verify_basis_injections(p, 6, trials=25)
        assert report["verdict"], report
    # e_0 is the identity operation: all-ones action sequence
    fam = adams_family("phi_ku", 3)
    from bpadams.adamsk import family_sequence
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


def test_interleaved_g_report():
    report = interleaved_g_report(3, 6)
    assert report["interleaved_pivots"] == report["ku_pivots"]
    assert report["equal"]
    with pytest.raises(ValueError):
        interleaved_g_report(2, 3)


def test_failure_reporting_shape():
    # a too-small n_max still produces a well-formed report
    report = verify_centre_bp(5, 0)
    assert report["verdict"] and report["rows"][0]["n"] == 0


def test_failure_aborts_with_witness(monkeypatch):
    # corrupt the Adams-side row at n = 1 so the sampled inclusion fails:
    # the scan must stop at that index, record the witness, and strict
    # mode must raise
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
    with pytest.raises(centre.CentreVerificationError):
        centre.verify_centre_bp(3, 2, strict=True)
