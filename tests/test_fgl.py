import random
from fractions import Fraction

import pytest

from bpadams.arith import delta_p, val_p
from bpadams.adamsk import adams_family, family_action
from bpadams.fgl import BPContext
from bpadams.polyring import GradedPoly


def test_context_validation():
    with pytest.raises(ValueError):
        BPContext(4, 3)
    with pytest.raises(ValueError):
        BPContext(5, 3, q=7)  # order 4 mod 25, not primitive
    ctx = BPContext(3, 5)
    assert ctx.q == 2 and ctx.qhat == 4
    assert BPContext(2, 3).qhat == 3


def test_generator_tables_respect_bound():
    ctx = BPContext(3, 5)
    assert ctx.v_table.names == ("v1", "v2")  # weights 1, 4; v3 has weight 13
    ctx13 = BPContext(3, 13)
    assert ctx13.v_table.names == ("v1", "v2", "v3")


def test_araki_constants_are_units():
    for p in (2, 3, 5):
        ctx = BPContext(p, 2)
        for n in range(1, 5):
            assert val_p(p, ctx.pibar(n)) == 0
            assert val_p(p, ctx.alphabar(n)) == 0
        assert ctx.pi(1) == p - p**p
        assert ctx.pibar(1) == Fraction(ctx.pi(1), p)


def test_araki_recursion_identity():
    # pi_n * l_n - v_n - sum_{1<=i<n} l_i v_{n-i}^{p^i} = 0 identically
    for p in (2, 3):
        ctx = BPContext(p, delta_p(p, p**2))
        for n in (1, 2, 3):
            acc = ctx.l_in_v(n) * ctx.pi(n)
            acc = acc - GradedPoly.gen(ctx.v_table, ctx.weight_bound, f"v{n}")
            for i in range(1, n):
                acc = acc - ctx.l_in_v(i) * GradedPoly.gen(
                    ctx.v_table, ctx.weight_bound, f"v{n - i}", p**i)
            assert acc.is_zero, (p, n)


def test_araki_pinning_unit_coefficient():
    # coefficient of v_1^{delta_p(p^{k-1})} in l_k is p^-k alphabar_k^-1
    for p in (2, 3):
        ctx = BPContext(p, delta_p(p, p**2))
        for k in (1, 2, 3):
            got = ctx.l_in_v(k).coefficient_of({"v1": delta_p(p, p ** (k - 1))})
            assert got == Fraction(1, p**k) / ctx.alphabar(k)


def test_both_changes_of_generators_are_built_on_first_use():
    ctx = BPContext(3, 13)
    assert ctx._l_in_v is None and ctx._v_in_l is None
    l2 = ctx.l_in_v(2)
    assert ctx.l_in_v(2) is l2 and ctx._v_in_l is None
    v2 = ctx.v_in_l(2)
    assert ctx.v_in_l(2) is v2 and ctx._l_in_v[1] is l2


def test_l1_and_v1():
    ctx = BPContext(3, 5)
    assert ctx.l_in_v(1) == GradedPoly.gen(ctx.v_table, 5, "v1") * (Fraction(1) / ctx.pi(1))
    assert ctx.v_in_l(1) == GradedPoly.gen(ctx.l_table, 5, "l1") * ctx.pi(1)


def test_v2_in_l_direct_computation():
    # v_2 = pi_2 l_2 - l_1 (pi_1 l_1)^p; both coefficients are explicit,
    # with valuations 1 and p
    for p in (2, 3):
        ctx = BPContext(p, delta_p(p, p))
        l1 = GradedPoly.gen(ctx.l_table, ctx.weight_bound, "l1")
        l2 = GradedPoly.gen(ctx.l_table, ctx.weight_bound, "l2")
        expect = l2 * ctx.pi(2) - (l1 ** (p + 1)) * (ctx.pi(1) ** p)
        assert ctx.v_in_l(2) == expect
        assert min(val_p(p, c) for c in ctx.v_in_l(2).terms.values()) == 1


def test_v_l_round_trips():
    for p in (2, 3):
        ctx = BPContext(p, delta_p(p, p**2))
        bindings_v = {f"l{n}": ctx.l_in_v(n) for n in range(1, ctx.gen_count + 1)}
        bindings_l = {f"v{n}": ctx.v_in_l(n) for n in range(1, ctx.gen_count + 1)}
        for n in range(1, ctx.gen_count + 1):
            vn = GradedPoly.gen(ctx.v_table, ctx.weight_bound, f"v{n}")
            ln = GradedPoly.gen(ctx.l_table, ctx.weight_bound, f"l{n}")
            assert ctx.v_in_l(n).substitute(bindings_v) == vn
            assert ctx.l_in_v(n).substitute(bindings_l) == ln
        # and on a random product of weight <= 6
        rng = random.Random(9)
        for _ in range(5):
            e1 = rng.randint(0, 3)
            x = GradedPoly.gen(ctx.l_table, ctx.weight_bound, "l1", e1)
            y = x.substitute(bindings_v).substitute(bindings_l)
            assert y == x


def test_eigenvalue_matches_family_roots():
    # the q-operation acts on weight w by qhat^w, the phihat family's root
    # at w + 1: that member kills weight w
    ctx = BPContext(3, 5)
    fam = adams_family("phihat_g", 3, ctx.q)
    assert fam.qhat == ctx.qhat
    for w in range(8):
        assert family_action(fam, n=w + 1, m=w) == 0
