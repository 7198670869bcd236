import math
import random
from fractions import Fraction

import pytest

from bpadams.arith import delta_p, find_q, gamma_p, gaussian, is_p_local_int, val_p
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


def test_expand_round_trip_random():
    rng = random.Random(17)
    for kind, p in (("phi_ku", 3), ("phihat_g", 5), ("zeta_ku2", 2)):
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
    q = find_q(3)
    qhat = q ** 2
    for n in range(9):
        fresh = tuple(
            Fraction((-1) ** (n - i) * qhat ** math.comb(n - i, 2))
            * gaussian(n, i, qhat) / Fraction(3) ** delta_p(3, n)
            for i in range(n + 1))
        assert C_vector(3, q, n).entries == fresh
        assert C_vector(3, q, n).entries == fresh  # from the memo
    for _ in range(2):  # exceptions are not memoised
        with pytest.raises(ValueError):
            C_vector(2, 3, 1)


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


def test_check_g_congruences_checks_q():
    with pytest.raises(ValueError, match="divisible by p = 3"):
        check_g_congruences(3, 9, [0, 1, 0], 2)
    with pytest.raises(ValueError, match="not primitive"):
        check_g_congruences(5, 7, [0, 1, 0], 2)
