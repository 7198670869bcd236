import math
import random
import sys
from fractions import Fraction

import pytest

import expansion_reference
from bpadams import adamsk
from bpadams.arith import (delta_p, find_q, format_over, format_rational, gamma_p, gaussian,
                           gaussian_poly, integer_numerators, is_p_local_int, val_p)
from bpadams.adamsk import (C_vector, CongruenceVector, Phi_in_phi, adams_family,
                            basis_integrality_rows, binomial_mu_congruence,
                            check_g_congruences, expand_in_family, family_action,
                            family_sequence, ku_congruence_system, periodic_enum,
                            zeta_recursion_coefficient)
from bpadams.lattice import CongruenceSystem, lattice_eq, solve


def test_family_construction_validation():
    with pytest.raises(ValueError):
        adams_family("phi_ku", 2)
    with pytest.raises(ValueError):
        adams_family("zeta_ku2", 3)
    with pytest.raises(ValueError):
        adams_family("phihat_g", 5, q=7)
    with pytest.raises(ValueError):
        adams_family("nope", 3)
    fam = adams_family("phi_ku", 3)
    assert fam.q == 2 and fam.qhat == 4


def test_periodic_enumeration():
    assert [periodic_enum(j) for j in range(7)] == [0, 1, -1, 2, -2, 3, -3]


def test_phi_vanishing_below_index():
    fam = adams_family("phi_ku", 3)
    for n in range(7):
        for m in range(n):
            assert family_action(fam, n, m) == 0
        assert family_action(fam, n, n) != 0


def test_all_families_triangular_to_twelve():
    families = [adams_family("phi_ku", 3), adams_family("phihat_g", 3),
                adams_family("phi_ku", 5), adams_family("Phi_KU", 3),
                adams_family("zeta_ku2", 2)]
    for fam in families:
        for n in range(13):
            for j in range(n):
                assert family_action(fam, n, fam.degree_index(j)) == 0
            assert family_action(fam, n, fam.degree_index(n)) != 0


def test_phi_KU_first_root():
    fam = adams_family("Phi_KU", 3)
    assert family_action(fam, 1, 0) == 0  # first root is q^0 = 1
    # triangular on the enumeration 0, 1, -1, 2, -2, ...
    for n in range(6):
        for j in range(n):
            assert family_action(fam, n, periodic_enum(j)) == 0
        assert family_action(fam, n, periodic_enum(n)) != 0


def test_zeta_hand_example():
    # zeta_2 = Psi^3 + Psi^-1 - 2 (the recursion coefficient is 2*8/(2*8) = 1)
    fam = adams_family("zeta_ku2", 2)
    assert zeta_recursion_coefficient(1, 1) == 1
    for m in range(6):
        expect = Fraction(3**m + (-1) ** m - 2)
        assert family_action(fam, 2, m) == expect
    assert family_action(fam, 2, 2) == 8


def test_zeta_triangular_and_integral_coefficients():
    fam = adams_family("zeta_ku2", 2)
    for n in range(13):
        for m in range(n):
            assert family_action(fam, n, m) == 0
        assert family_action(fam, n, n) != 0
    for half in range(1, 7):
        for i in range(1, half + 1):
            assert is_p_local_int(2, zeta_recursion_coefficient(i, half))


def test_expand_examples():
    fam = adams_family("phihat_g", 3)
    qhat = Fraction(fam.qhat)
    lam = [qhat**m for m in range(6)]
    coeffs, ok = expand_in_family(fam, lam)
    assert coeffs == (1, 1, 0, 0, 0, 0) and ok
    coeffs, ok = expand_in_family(fam, [1] * 5)
    assert coeffs == (1, 0, 0, 0, 0) and ok


def test_expansion_and_action_refuse_floats():
    # a float would enter as its binary value: 1/3 as a dyadic rational,
    # whose expansion in the family at p = 3 reads as integral
    fam = adams_family("phi_ku", 3)
    assert expand_in_family(fam, [Fraction(1, 3)]) == ((Fraction(1, 3),), False)
    for bad in ([1 / 3], [1, 0.5]):
        for other in (adams_family("Phi_KU", 5), adams_family("phihat_g", 7),
                      adams_family("zeta_ku2", 2)):
            with pytest.raises(ValueError, match="floating point input rejected"):
                expand_in_family(other, bad)
        with pytest.raises(ValueError, match="floating point input rejected"):
            expand_in_family(fam, bad)
        with pytest.raises(ValueError, match="floating point input rejected"):
            family_sequence(fam, bad, 3)
    with pytest.raises(ValueError, match="floating point input rejected"):
        family_sequence(fam, [0.0, 1], 3)  # refused even where it is zero
    assert family_sequence(fam, ["1/3"], 2) == (Fraction(1, 3), Fraction(1, 3))


def test_expand_round_trip_random():
    rng = random.Random(17)
    for kind, p in (("phi_ku", 3), ("phihat_g", 5), ("zeta_ku2", 2), ("Phi_KU", 5)):
        fam = adams_family(kind, p)
        for _ in range(15):
            n = rng.randint(0, 10)
            coeffs = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n + 1))
            lam = family_sequence(fam, coeffs, n + 1)
            got, ok = expand_in_family(fam, lam)
            assert got == coeffs
            assert ok


def test_expand_is_injective():
    fam = adams_family("phi_ku", 3)
    rng = random.Random(19)
    for _ in range(15):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
        b = list(a)
        b[rng.randrange(6)] += 1
        ea, _ = expand_in_family(fam, a)
        eb, _ = expand_in_family(fam, b)
        assert ea != eb


def test_C_vector_examples():
    assert C_vector(3, 2, 0).entries == (Fraction(1),)
    for p, q in ((3, 2), (5, 2)):
        for n in range(9):
            row = C_vector(p, q, n)
            assert row.entries[n] == Fraction(1, p ** delta_p(p, n))
            assert row.shape_ok()
    assert C_vector(3, 2, 1).entries == (Fraction(-1, 3), Fraction(1, 3))


def test_C_vector_memo_matches_fresh_rows():
    # the q-Pascal row against gaussian(), which evaluates the expanded polynomial
    for p in (3, 5, 7):
        q = find_q(p)
        qhat = q ** (p - 1)
        for n in range(41):
            fresh = tuple(
                Fraction((-1) ** (n - i) * qhat ** math.comb(n - i, 2))
                * gaussian(n, i, qhat) / Fraction(p) ** delta_p(p, n)
                for i in range(n + 1))
            assert C_vector(p, q, n).entries == fresh, (p, n)
            assert C_vector(p, q, n).entries == fresh  # from the memo
    for _ in range(2):  # exceptions are not memoised
        with pytest.raises(ValueError):
            C_vector(2, 3, 1)


def test_C_vector_steps_the_last_row_in_any_order():
    # the unmemoised function steps from the last q-Pascal row built for qhat,
    # or starts again from row 0 below it; every row equals a fresh one
    for p in (3, 5):
        q = find_q(p)
        qhat = q ** (p - 1)
        fresh = {n: tuple(Fraction((-1) ** (n - i) * qhat ** math.comb(n - i, 2))
                          * gaussian(n, i, qhat) / Fraction(p) ** delta_p(p, n)
                          for i in range(n + 1))
                 for n in range(25)}
        order = [*range(25), *range(24, -1, -1), 7, 3, 20, 20, 0, 11, 24]
        for n in order:
            assert C_vector.__wrapped__(p, q, n).entries == fresh[n], (p, n)
            assert adamsk._PASCAL[qhat][0] == n


def test_C_vector_entries_against_fraction_arithmetic():
    # each entry (-1)^d qhat^C(d,2) [n, i]_qhat / p^delta_p(n), formed in
    # Fractions with the Gaussian value summed term by term
    for p in (3, 5, 7):
        q = find_q(p)
        qhat = Fraction(q ** (p - 1))
        for n in range(13):
            den = Fraction(p) ** delta_p(p, n)
            expected = []
            for i in range(n + 1):
                d = n - i
                value = sum((c * qhat ** k for k, c in enumerate(gaussian_poly(n, i))),
                            Fraction(0))
                expected.append(Fraction((-1) ** d) * qhat ** math.comb(d, 2) * value / den)
            row = C_vector(p, q, n)
            assert row.entries == tuple(expected), (p, n)
            assert all(type(e) is Fraction for e in row.entries)
            assert row.budget == delta_p(p, n) and row.shape_ok()


@pytest.mark.parametrize("p, top", [(3, 40), (5, 40), (7, 30), (13, 24)])
def test_C_vector_integer_row_against_the_closed_form(p, top):
    # the stepped powers qhat^C(n-i, 2) against the closed form, on the
    # integer numerators over p^delta_p(n), and the entries built from them
    q = find_q(p)
    qhat = q ** (p - 1)
    for n in range(top + 1):
        nums = tuple((-1) ** (n - i) * qhat ** math.comb(n - i, 2) * gaussian(n, i, qhat)
                     for i in range(n + 1))
        row = C_vector.__wrapped__(p, q, n)
        assert row.integer_row == (nums, p ** delta_p(p, n)), (p, n)
        assert row.entries == tuple(Fraction(x, p ** delta_p(p, n)) for x in nums)


def test_check_g_congruence_examples():
    # mu = (0, 1, 0, ...) fails at r = 1
    verdicts = check_g_congruences(3, 2, [0, 1, 0, 0], 3)
    assert verdicts[0] and not verdicts[1]
    # constant sequences are the action of a scalar multiple of the identity
    verdicts = check_g_congruences(3, 2, [7] * 9, 8)
    assert all(verdicts)
    verdicts = check_g_congruences(5, 2, [Fraction(3, 2)] * 9, 8)
    assert all(verdicts)


def test_equivalence_prefixwise():
    # first failing congruence index == first non-integral coefficient index
    rng = random.Random(29)
    for p in (3, 5):
        fam = adams_family("phihat_g", p)
        q = fam.q
        for _ in range(60):
            mu = []
            for _ in range(9):
                den = rng.randint(1, 30)
                while den % p == 0:
                    den = rng.randint(1, 30)
                mu.append(Fraction(rng.randint(-40, 40), den))
            verdicts = check_g_congruences(p, q, mu, 8)
            coeffs, _ = expand_in_family(fam, mu)
            integral = [is_p_local_int(p, a) for a in coeffs]
            first_bad_g = next((i for i, v in enumerate(verdicts) if not v), None)
            first_bad_a = next((i for i, v in enumerate(integral) if not v), None)
            assert first_bad_g == first_bad_a


def test_g_lattice_equals_expansion_lattice():
    # the Gaussian rows and the expansion-integrality rows cut out the
    # same lattice (deterministic, stronger than sampling)
    for p in (3, 5):
        fam = adams_family("phihat_g", p)
        n = 6
        g_rows = tuple(C_vector(p, fam.q, r).padded(n + 1) for r in range(n + 1))
        lat_g = solve(CongruenceSystem(p, n, g_rows))
        size = n + 1
        act = [[family_action(fam, k, m) for k in range(m + 1)] for m in range(size)]
        rows = [[Fraction(0)] * size for _ in range(size)]
        for j in range(size):
            a = [Fraction(0)] * size
            for m in range(size):
                acc = Fraction(1) if m == j else Fraction(0)
                for k in range(m):
                    acc -= act[m][k] * a[k]
                a[m] = acc / act[m][m]
            for r in range(size):
                rows[r][j] = a[r]
        lat_a = solve(CongruenceSystem(p, n, tuple(tuple(r) for r in rows)))
        assert lattice_eq(lat_g, lat_a)


def test_ku_congruence_system_pivots():
    for p in (2, 3, 5):
        sys = ku_congruence_system(p, 8)
        assert sys.pivot_valuations() == tuple(gamma_p(p, n) for n in range(9))
        # triangular: row r supported on 0..r
        for r, row in enumerate(sys.rows):
            assert all(x == 0 for x in row[r + 1:])


def test_basis_integrality_rows_shape():
    rows = basis_integrality_rows(3, 4)
    # row n expresses a_n: lower triangular with pivot 1/action(n, n)
    fam = adams_family("phi_ku", 3)
    for n, row in enumerate(rows):
        assert all(x == 0 for x in row[n + 1:])
        assert row[n] == 1 / family_action(fam, n, n)


@pytest.mark.parametrize("p, q, top", [(2, None, 20), (3, None, 12), (3, 5, 9),
                                        (5, None, 10), (7, 3, 6)])
def test_basis_integrality_rows_against_the_expansions(p, q, top):
    # the integer inverse against column j = the expansion of e_j by the
    # Fraction solve of the reference, which shares no code with it
    fam = adams_family("zeta_ku2", 2) if p == 2 else adams_family("phi_ku", p, q)
    columns = [expansion_reference.expand_in_family(fam, [int(m == j) for m in range(top + 1)])[0]
               for j in range(top + 1)]
    assert basis_integrality_rows(p, top, q) == tuple(zip(*columns))
    # each row over the lcm of its entries' denominators
    assert all(math.gcd(den, *nums) == 1 for nums, den in adamsk._inverse_rows(p, top, q))


_FAMILIES = [("phi_ku", 3, None), ("phi_ku", 5, None), ("phi_ku", 7, 3), ("phihat_g", 3, None),
             ("phihat_g", 5, None), ("phihat_g", 7, None), ("Phi_KU", 3, None), ("Phi_KU", 5, None),
             ("Phi_KU", 7, 5), ("zeta_ku2", 2, None)]


@pytest.mark.parametrize("kind, p, q", _FAMILIES)
def test_expansion_against_the_fraction_solve(kind, p, q):
    # the integer forward substitution gives the coefficients and the verdict
    # of the Fraction solve at every length 1..12: on ints, on p-local
    # rationals, on entries with powers of p in the denominator, on the unit
    # sequences, and on the periodic family's negative coefficient indices
    fam = adams_family(kind, p, q)
    rng = random.Random(f"{kind} {p} {q}")
    units = [u for u in range(1, 12) if u % p]
    for length in range(1, 13):
        cases = [[int(m == j) for m in range(length)] for j in range(length)]
        for _ in range(8):
            cases.append([rng.randint(-50, 50) for _ in range(length)])
            cases.append([Fraction(rng.randint(-50, 50), rng.choice(units)) for _ in range(length)])
            cases.append([Fraction(rng.randint(-50, 50), rng.choice(units) * p ** rng.randint(0, 3))
                          for _ in range(length)])
        for lam in cases:
            got = expand_in_family(fam, lam)
            assert got == expansion_reference.expand_in_family(fam, lam), (length, lam)
            assert all(type(a) is Fraction for a in got[0])
    if kind == "Phi_KU":
        assert [fam.degree_index(j) for j in range(12)] == [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6]


def test_Phi_in_phi_examples():
    coeffs, ok = Phi_in_phi(3, None, 0)
    assert coeffs[0] == 1 and all(c == 0 for c in coeffs[1:]) and ok
    coeffs, ok = Phi_in_phi(3, None, 1)
    assert coeffs[0] == 0 and coeffs[1] == 1 and all(c == 0 for c in coeffs[2:]) and ok
    for p in (3, 5):
        for n in range(9):
            _, ok = Phi_in_phi(p, None, n)
            assert ok, (p, n)


def test_binomial_mu_congruence_examples():
    assert binomial_mu_congruence(3, 1, 0).entries == (Fraction(-1), Fraction(1))
    assert binomial_mu_congruence(3, 0, 0).entries == (Fraction(1),)
    assert binomial_mu_congruence(5, 3, 0).entries == (
        Fraction(-1), Fraction(3), Fraction(-3), Fraction(1))
    with pytest.raises(ValueError):
        binomial_mu_congruence(3, 2, 0)  # j > p - 2
    with pytest.raises(ValueError):
        binomial_mu_congruence(2, 0, 1)  # no interleaving at p = 2


def test_binomial_mu_congruence_interleaved():
    row = binomial_mu_congruence(3, 1, 1)
    n = 1 * 2 + 1
    assert row.n == n and row.budget == gamma_p(3, n) == delta_p(3, 1)
    assert row.shape_ok()
    # structure: C_{1,i} spread over indices 2i, binomial over offsets
    c1 = C_vector(3, 2, 1)
    assert row.entries[0] == -c1.entries[0]
    assert row.entries[1] == c1.entries[0]
    assert row.entries[2] == -c1.entries[1]
    assert row.entries[3] == c1.entries[1]


def test_congruence_vector_shape_guard():
    good = CongruenceVector(3, 1, (Fraction(-1, 3), Fraction(1, 3)), 1)
    assert good.shape_ok()
    weak = CongruenceVector(3, 1, (Fraction(-1, 3), Fraction(1, 9)), 1)
    assert not weak.shape_ok()
    assert good.dot([1, 4]) == 1
    assert good.padded(4) == (Fraction(-1, 3), Fraction(1, 3), 0, 0)
    # the denominator test: entries of valuation exactly -budget pass,
    # one lower fails, integral and zero entries pass
    for entries, ok in (((Fraction(5, 9), 0, Fraction(2, 9)), True),
                        ((Fraction(5, 27), 0, Fraction(2, 9)), False),
                        ((Fraction(9, 2), Fraction(3, 7), Fraction(-4, 9)), True)):
        assert CongruenceVector(3, 2, entries, 2).shape_ok() == ok, entries
    assert CongruenceVector(3, 1, (Fraction(6, 7), Fraction(2)), 0).shape_ok()
    assert not CongruenceVector(3, 1, (Fraction(1, 3), Fraction(2)), 0).shape_ok()


def _fraction_shape(vec):
    """The shape hypotheses on the ``Fraction`` entries: the pivot of
    valuation -budget, every entry below it with no p^(budget + 1) in its
    denominator."""
    p, budget = vec.p, vec.budget
    if val_p(p, vec.entries[vec.n]) != -budget:
        return False
    return all(e.denominator % p ** (budget + 1) for e in vec.entries[:-1])


def test_integer_shape_against_the_fraction_shape():
    # random rows with zero entries, entries one valuation below the
    # budget and pivots one off it, built from Fractions and from integer
    # numerators over a denominator that need not be their lcm
    rng = random.Random(83)
    verdicts = []
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        n, budget = rng.randint(0, 5), rng.randint(0, 3)
        entries = []
        for i in range(n + 1):
            if i < n and rng.random() < 0.3:
                entries.append(Fraction(0))
                continue
            v = -budget + (rng.choice((-1, 0, 1)) if rng.random() < 0.3 else 0)
            if i < n and rng.random() < 0.5:
                v = rng.randint(-budget, 2)
            unit = Fraction(rng.choice([u for u in range(-9, 10) if u % p]),
                            rng.choice([u for u in range(1, 10) if u % p]))
            entries.append(unit * Fraction(p) ** v)
        want = _fraction_shape(CongruenceVector(p, n, tuple(entries), budget))
        nums, den = integer_numerators(entries)
        scale = p ** rng.randint(0, 2) * rng.choice((1, 7, 11))
        for vec in (CongruenceVector(p, n, tuple(entries), budget),
                    CongruenceVector(p, n, None, budget, (nums, den)),
                    CongruenceVector(p, n, None, budget,
                                     ([x * scale for x in nums], den * scale))):
            assert vec.shape_ok() == want, (p, n, budget, entries)
            assert vec.entries == tuple(entries)
        verdicts.append(want)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_zeta_family_action_reads_one_entry():
    # at p = 2 family_action reads the one zeta entry it returns, not the
    # row of entries before it (an odd n does not recurse)
    fam = adams_family("zeta_ku2", 2)
    before = adamsk._zeta_action.cache_info().misses
    assert family_action(fam, 61, 97) == adamsk._zeta_action(61, 97)
    assert adamsk._zeta_action.cache_info().misses == before + 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_action_rows_against_the_per_entry_product(p):
    # entry k of row m is prod_{i<k} (q^m - q_i), stepped from entry k - 1,
    # as integers N_k / d; the connective rows are ints (d = 1), the periodic
    # ones may have negative m and are scaled by a power of q
    q = find_q(p)
    for kind, base, exponents in (("phi_ku", q, range), ("phihat_g", q ** (p - 1), range),
                                  ("Phi_KU", q, lambda k: map(periodic_enum, range(k)))):
        fam = adams_family(kind, p)
        for m in range(-5 if kind == "Phi_KU" else 0, 20):
            for length in (1, 2, 3, 22):
                nums, den = adamsk._action_row(kind, base, m, length)
                want = [math.prod((Fraction(base) ** m - Fraction(base) ** i
                                   for i in exponents(k)), start=Fraction(1))
                        for k in range(length)]
                assert [Fraction(x, den) for x in nums] == want, (kind, m, length)
                assert all(type(x) is int for x in nums) and den > 0
                if kind != "Phi_KU":
                    assert den == 1
            assert [family_action(fam, k, m) for k in range(22)] == want


def test_inverse_rows_hash_no_family_record(monkeypatch):
    # row m of the action matrix is read without family_action's memo,
    # which hashes the AdamsFamily record on every entry
    hashed = []
    monkeypatch.setattr(adamsk.AdamsFamily, "__hash__", lambda fam: hashed.append(fam) or 0)
    for p in (2, 3, 5):
        rows = adamsk._inverse_rows(p, 12, None)
        assert len(rows) == 13
    assert hashed == []


def test_congruence_vector_dot_and_json_on_unreduced_integer_rows():
    # a row handed over as (N, D) with D sharing powers of p with N: its dot
    # product is the exact Fraction one, and its JSON shows the least terms
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randint(0, 4)
        entries = [Fraction(rng.randint(-40, 40), rng.choice([1, 2, p, p * p, 7]))
                   for _ in range(n + 1)]
        nums, den = integer_numerators(entries)
        k = p ** rng.randint(1, 3)
        vec = CongruenceVector(p, n, None, 0, ([x * k for x in nums], den * k))
        mu = [Fraction(rng.randint(-40, 40), rng.choice([1, p, 9])) for _ in range(n + 2)]
        assert vec.dot(mu) == sum(c * m for c, m in zip(entries, mu))
        assert vec.to_jsonable() == {"n": n, "entries": [str(e) for e in entries]}
    with pytest.raises(ValueError, match="floating point input rejected"):
        vec.dot([0.5] * (n + 1))
    with pytest.raises(ValueError, match="sequence too short"):
        vec.dot([1] * n)
    with pytest.raises(ValueError, match="cannot pad below the support"):
        vec.padded(n)


def test_congruence_vector_refuses_a_negative_budget():
    # the denominator test of shape_ok needs budget >= 0
    with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
        CongruenceVector(3, 1, (Fraction(3), Fraction(3)), -1)


def test_check_g_congruences_checks_q():
    with pytest.raises(ValueError, match="divisible by p = 3"):
        check_g_congruences(3, 9, [0, 1, 0], 2)
    with pytest.raises(ValueError, match="not primitive"):
        check_g_congruences(5, 7, [0, 1, 0], 2)


def test_binomial_mu_congruence_checks_q():
    # before, both returned rows built from the bad q
    with pytest.raises(ValueError, match="divisible by p = 3"):
        binomial_mu_congruence(3, 1, 1, q=9)
    with pytest.raises(ValueError, match="not primitive"):
        binomial_mu_congruence(3, 0, 1, q=4)
    assert binomial_mu_congruence(3, 1, 1, q=2) == binomial_mu_congruence(3, 1, 1)
    assert Phi_in_phi(3, None, 2) == Phi_in_phi(3, find_q(3), 2)


def test_p2_canonical_rows_are_memoised_as_tuples():
    # the canonical connective rows are built once per (p, top, q) and kept
    # as a tuple of frozen vectors, each row's integers in tuples, so no
    # caller can change the memo; they equal a fresh elimination, each row
    # in least form with budget gamma_p(n), and an argument that is refused
    # is refused again, never served from the memo (a float p hashes as the
    # int)
    for p, top in ((2, 0), (2, 5), (2, 12), (3, 9)):
        rows = adamsk._ku_canonical_rows(p, top, None)
        assert type(rows) is tuple and all(type(vec.integer_row[0]) is tuple for vec in rows)
        assert adamsk._ku_canonical_rows(p, top, None) is rows
        fresh = adamsk._ku_canonical_rows.__wrapped__(p, top, None)
        assert fresh == rows and fresh[0] is not rows[0]
        assert [vec.integer_row for vec in fresh] == [vec.integer_row for vec in rows]
        for n, vec in enumerate(rows):
            nums, den = vec.integer_row
            assert (vec.p, vec.n, vec.budget) == (p, n, gamma_p(p, n))
            assert len(nums) == n + 1 and math.gcd(den, *nums) == 1 and vec.shape_ok()
        assert ku_congruence_system(p, top).rows == tuple(
            vec.padded(top + 1) for vec in rows)
    with pytest.raises(ValueError, match="not a prime"):
        ku_congruence_system(2.0, 5)


def test_rows_print_from_their_integers():
    # format_over on a row's integers (N, D) writes what format_rational
    # writes of its reduced values, and the vectors and systems print that
    # way: on seeded rows whose D is not least, with zeros, negatives and
    # one int past the int-to-str limit
    rng = random.Random(31)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() * 33 // 10
    wide = 2 ** (max(limit, 64) + 5) + 1
    for trial in range(300):
        n, k = rng.randint(0, 8), rng.choice([1, 2, 3, 6, 9])
        den = k * rng.choice([1, 2, 3, 4, 9, 27])
        nums = [k * rng.randint(-40, 40) if rng.random() < 0.7 else 0 for _ in range(n + 1)]
        if not trial:
            nums[-1] = -k * wide
        vec = CongruenceVector(3, n, None, 0, (tuple(nums), den))
        want = [format_rational(x) for x in vec.entries]
        assert format_over(*vec.integer_row) == want, (nums, den)
        assert vec.to_jsonable() == {"n": n, "entries": want}
        system = CongruenceSystem(3, n, None, [vec.integer_row, (nums[::-1], den * k)])
        assert system.to_jsonable()["rows"] == [[format_rational(x) for x in row]
                                                for row in system.rows]
