import random
from fractions import Fraction

import pytest

from bpadams.arith import delta_p, is_p_local_unit, val_p
from bpadams.adamsk import adams_family, family_action
from bpadams.fgl import (BPContext, adams_log_transform_check, adams_on_coeff, bp_log,
                         formal_sum, generic_adams_log_transform_check, generic_log,
                         log_exp_series)
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
            assert is_p_local_unit(p, ctx.pibar(n))
            assert is_p_local_unit(p, ctx.alphabar(n))
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


def test_log_exp_round_trip():
    for p in (2, 3):
        D = p * p
        ctx = BPContext(p, delta_p(p, p**2))
        log, exp = log_exp_series(ctx, D)
        for first, second in ((log, exp), (exp, log)):
            comp = first.compose(second)
            assert comp.coeffs[0].is_zero
            assert comp.coeffs[1] == GradedPoly.const(
                ctx.v_table, ctx.weight_bound, 1)
            assert all(comp.coeffs[k].is_zero for k in range(2, D + 1))


def test_generic_log_round_trip():
    log, _ = generic_log(8)
    exp = log.compositional_inverse()
    comp = log.compose(exp)
    assert comp.coeffs[1] == log.coeffs[1]
    assert all(comp.coeffs[k].is_zero for k in range(2, 9))


def test_formal_sum_linear_coefficient():
    ctx = BPContext(3, 5)
    log, exp = log_exp_series(ctx, 9)
    for alpha in (Fraction(1), Fraction(2), Fraction(-7, 5)):
        fs = formal_sum(log, exp, alpha)
        assert fs.coeffs[1] == GradedPoly.const(ctx.v_table, 5, alpha)
        assert fs.coeffs[0].is_zero


def test_adams_on_coeff_examples():
    ctx = BPContext(3, 5)
    assert adams_on_coeff(ctx, ctx.q, 1) == ctx.qhat  # eigenvalue on weight 1
    assert adams_on_coeff(ctx, Fraction(7, 5), 0) == 1
    # composition = product, over a sample of weights
    rng = random.Random(4)
    for _ in range(20):
        a = Fraction(rng.choice([1, 2, 4, 5, 7]), rng.choice([1, 2, 5, 7]))
        b = Fraction(rng.choice([1, 2, 4, 5, 7]), rng.choice([1, 2, 5, 7]))
        for w in range(11):
            assert (adams_on_coeff(ctx, a, w) * adams_on_coeff(ctx, b, w)
                    == adams_on_coeff(ctx, a * b, w))


def test_eigenvalue_matches_family_roots():
    # the diagonal sequence of the q-operation equals the phihat roots
    ctx = BPContext(3, 5)
    fam = adams_family("phihat_g", 3, ctx.q)
    for w in range(8):
        assert adams_on_coeff(ctx, ctx.q, w) == Fraction(fam.qhat) ** w
        # the family's n-th root is qhat^n: the operation minus that root
        # kills weight n
        assert family_action(fam, n=w + 1, m=w) == 0


def test_adams_log_transform():
    ctx3 = BPContext(3, delta_p(3, 9))
    assert adams_log_transform_check(ctx3, 1, 9)  # identity transform
    assert adams_log_transform_check(ctx3, ctx3.q, 9)
    ctx2 = BPContext(2, delta_p(2, 8))
    assert adams_log_transform_check(ctx2, -1, 8)
    assert generic_adams_log_transform_check(Fraction(-1), 8)
    assert generic_adams_log_transform_check(Fraction(5, 7), 6)


def test_bp_log_needs_enough_weight():
    ctx = BPContext(3, 2)  # only l_1 available
    with pytest.raises(Exception):
        bp_log(ctx, 9)  # requires l_2 of weight 4


# A float would enter as its binary value: 1/3 as a dyadic rational, which
# is 3-integral.  Each entry point reads through arith.exact.

def test_adams_on_coeff_refuses_a_float():
    ctx = BPContext(3, 4)
    assert adams_on_coeff(ctx, Fraction(1, 3), 1) == Fraction(1, 9)
    with pytest.raises(ValueError, match="floating point input rejected"):
        adams_on_coeff(ctx, 1 / 3, 1)


def test_scalar_mul_refuses_a_float():
    log, exp = log_exp_series(BPContext(3, 4), 4)
    assert log.scalar_mul(Fraction(1, 2)).scalar_mul(2) == log
    with pytest.raises(ValueError, match="floating point input rejected"):
        log.scalar_mul(1 / 3)
    with pytest.raises(ValueError, match="floating point input rejected"):
        formal_sum(log, exp, 0.5)


def test_scale_argument_refuses_a_float():
    ctx = BPContext(3, 4)
    log = bp_log(ctx, 4)
    assert log.scale_argument(Fraction(1, 2)).scale_argument(2) == log
    with pytest.raises(ValueError, match="floating point input rejected"):
        log.scale_argument(1 / 3)
    with pytest.raises(ValueError, match="floating point input rejected"):
        adams_log_transform_check(ctx, 0.5, 3)
