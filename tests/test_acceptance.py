"""Acceptance suite.

Each test implements one acceptance criterion at its stated (exact)
tolerance and prints one pass/fail line; run with ``pytest -s`` to see
the lines stream.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import bpadams
from bpadams.arith import delta_p, gamma_p, is_p_local_int, val_p
from bpadams.adamsk import (C_vector, CongruenceVector, Phi_in_phi, adams_family,
                            check_g_congruences, expand_in_family, family_action,
                            family_sequence, ku_congruence_system,
                            zeta_recursion_coefficient)
from bpadams.centre import verify_centre_bp
from bpadams.fgl import BPContext
from bpadams.hopf import special_element, t_gen, t_recursion_check, v1_functional
from bpadams.lattice import sandwich_check
from bpadams.polyring import GradedPoly, monomials_up_to_weight
from bpadams.hopf import right_unit_v_monomial
from theta_reference import convolve


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_araki_pinning():
    ok = True
    for p in (2, 3):
        ctx = BPContext(p, delta_p(p, p**2))
        for k in (1, 2, 3):
            coeff = ctx.l_in_v(k).coefficient_of({"v1": delta_p(p, p ** (k - 1))})
            ok = ok and coeff == Fraction(1, p**k) / ctx.alphabar(k)
    _criterion(1, "unit coefficient of v1-power in each log coefficient, "
                  "k <= 3, p in {2, 3}", ok)


def test_criterion_02_right_unit_integrality():
    ok = True
    for p in (2, 3):
        ctx = BPContext(p, 6)
        for alpha in monomials_up_to_weight(ctx.v_table, 6):
            _, coeffs = right_unit_v_monomial(ctx, alpha)
            ok = ok and all(is_p_local_int(p, c) for c in coeffs.values())
    _criterion(2, "right-unit coefficients p-locally integral, weight <= 6, "
                  "p in {2, 3}", ok)


def test_criterion_03_product_lemma():
    rng = random.Random(101)
    ok = True
    for p in (2, 3):
        ctx = BPContext(p, 5)
        mons_x = [m for m in monomials_up_to_weight(ctx.lt_table, 2)]
        mons_y = [m for m in monomials_up_to_weight(ctx.lt_table, 3)]
        for _ in range(200):
            x = GradedPoly(ctx.lt_table, 5, {
                rng.choice(mons_x): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))})
            y = GradedPoly(ctx.lt_table, 5, {
                rng.choice(mons_y): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))})
            lhs = v1_functional(ctx, x * y)
            rhs = convolve(v1_functional(ctx, x), v1_functional(ctx, y))
            ok = ok and lhs == rhs
    _criterion(3, "product rule for the scalar functional, 200 random pairs "
                  "of total weight <= 5, p in {2, 3}", ok)


def test_criterion_04_t_recursion():
    ok = all(t_recursion_check(BPContext(2, 7), i) for i in (0, 1, 2))
    ctx3 = BPContext(3, 5)
    ok = ok and all(t_recursion_check(ctx3, i) for i in (0, 1))
    _criterion(4, "t-functional recursion, i <= 2 (p=2) and i <= 1 (p=3)", ok)


def test_criterion_05_special_elements():
    ok = True
    for p in (2, 3):
        ctx = BPContext(p, delta_p(p, 4))
        for n in range(5):
            d = special_element(ctx, n)
            budget = delta_p(p, n)
            ok = ok and len(d.c) == n + 1
            ok = ok and val_p(p, d.c[n]) == -budget
            ok = ok and all(val_p(p, x) >= -budget for x in d.c[:n])
    _criterion(5, "special elements: support <= n, entries in p^-delta Z_(p), "
                  "unit pivot, n <= 4, p in {2, 3}", ok)


def test_criterion_06_centre_theorem_desk_scale():
    ok = True
    for p, n in ((2, 4), (3, 4), (5, 2)):
        report = verify_centre_bp(p, n)
        ok = ok and report["verdict"]
        ok = ok and all(row["sandwich"] == "equal" and row["sample_included"]
                        for row in report["rows"])
    _criterion(6, "centre verification all-true: p in {2, 3} to n = 4 and "
                  "p = 5 to n = 2, sandwich equality plus sampled inclusion", ok)


def test_criterion_07_basis_equivalence():
    rng = random.Random(103)
    ok = True
    for p in (3, 5):
        fam = adams_family("phihat_g", p)
        q = fam.q
        for _ in range(500):  # direction: integral coefficients -> congruences
            coeffs = [Fraction(rng.randint(-30, 30),
                               rng.choice([d for d in range(1, 20) if d % p]))
                      for _ in range(9)]
            lam = family_sequence(fam, coeffs, 9)
            ok = ok and all(check_g_congruences(p, q, lam, 8))
        for _ in range(500):  # direction: congruence verdict == expansion verdict
            mu = [Fraction(rng.randint(-40, 40),
                           rng.choice([d for d in range(1, 30) if d % p]))
                  for _ in range(9)]
            g_ok = all(check_g_congruences(p, q, mu, 8))
            _, a_ok = expand_in_family(fam, mu)
            ok = ok and g_ok == a_ok
    _criterion(7, "Gaussian congruences equivalent to integral expansion, "
                  "N <= 8, p in {3, 5}, 500 trials each direction", ok)


def test_criterion_08_zeta_family():
    fam = adams_family("zeta_ku2", 2)
    ok = True
    for n in range(13):
        ok = ok and all(family_action(fam, n, m) == 0 for m in range(n))
        ok = ok and family_action(fam, n, n) != 0
    for half in range(1, 7):
        for i in range(1, half + 1):
            ok = ok and is_p_local_int(2, zeta_recursion_coefficient(i, half))
    _criterion(8, "zeta family vanishing below n, non-vanishing at n (n <= 12), "
                  "2-integral recursion coefficients", ok)


def test_criterion_09_ku_pivot_shape():
    ok = True
    for p in (2, 3, 5):
        sys = ku_congruence_system(p, 8)
        ok = ok and sys.pivot_valuations() == tuple(gamma_p(p, n) for n in range(9))
    _criterion(9, "triangularized connective K-theory pivots are gamma_p(n), "
                  "n <= 8, p in {2, 3, 5}", ok)


def test_criterion_10_periodic_to_connective_integrality():
    ok = True
    for p in (3, 5):
        for n in range(9):
            _, integral = Phi_in_phi(p, None, n)
            ok = ok and integral
    _criterion(10, "periodic family expands p-integrally in the connective "
                   "family, n <= 8, p in {3, 5}", ok)


def test_criterion_11_sandwich_lemma():
    rng = random.Random(107)

    def conforming(p, r):
        budget = delta_p(p, r)
        entries = [Fraction(rng.randint(-2 * p, 2 * p), p**budget) for _ in range(r)]
        unit = rng.choice([u for u in range(1, 3 * p) if u % p])
        entries.append(Fraction(unit, p**budget))
        return CongruenceVector(p, r, tuple(entries), budget)

    ok = True
    for _ in range(100):
        p = rng.choice([2, 3])
        n = rng.randint(1, 5)
        base = [conforming(p, r) for r in range(n)]
        cn = conforming(p, n)
        unit = rng.choice([u for u in range(1, 3 * p) if u % p])
        entries = [unit * x for x in cn.entries]
        for r, vec in enumerate(base):
            z = rng.randint(-4, 4)
            for i in range(r + 1):
                entries[i] += z * vec.entries[i]
        cn_hat = CongruenceVector(p, n, tuple(entries), cn.budget)
        res = sandwich_check(p, base, cn, cn_hat)
        ok = ok and res.status == "equal" and res.equal
    _criterion(11, "sandwich lemma: 100 hypothesis-conforming pairs with "
                   "S included in T all give S = T", ok)


def test_criterion_12_cli_determinism():
    cmd = [sys.executable, "-m", "bpadams", "verify-centre", "--p", "3",
           "--n", "4", "--format", "json"]
    # the child imports the package this test imported, however pytest found it
    src = str(Path(bpadams.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    ok = first.stdout == second.stdout and first.returncode == 0
    _criterion(12, "two runs of verify-centre --p 3 --n 4 --format json are "
                   "byte-identical", ok)
