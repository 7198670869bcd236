import functools
import math
import random
from fractions import Fraction

import pytest

import packing_reference
from packing_reference import dense
import theta_reference
from theta_reference import convolve, convolve_power
from bpadams import hopf, walk
from bpadams.arith import (WordCodec, delta_p, integer_numerators, is_p_local_int, val_p,
                           word_width)
from bpadams.fgl import BPContext
from bpadams.hopf import (ConstructionError, DiagonalAction, MuLinear, _check_profile,
                          diagonal_transform, from_right_unit_basis, right_unit_log,
                          right_unit_of_l_poly, right_unit_v_monomial, special_element,
                          t_gen, t_recursion_check, to_right_unit_basis, v1_functional)
from bpadams.lattice import CongruenceSystem, solve
from bpadams.polyring import GradedPoly, PolyError, monomials_up_to_weight


def ctx2(W=7):
    return BPContext(2, W)


def ctx3(W=5):
    return BPContext(3, W)


def _lt_random(rng, ctx, bound, terms=3):
    mons = [m for m in monomials_up_to_weight(ctx.lt_table, bound)]
    out = {}
    for _ in range(terms):
        out[rng.choice(mons)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return GradedPoly(ctx.lt_table, ctx.weight_bound, out)


def test_right_unit_log_examples():
    c = ctx2()
    l1 = GradedPoly.gen(c.lt_table, 7, "l1")
    t1 = GradedPoly.gen(c.lt_table, 7, "t1")
    assert right_unit_log(c, 1) == l1 + t1
    l2 = GradedPoly.gen(c.lt_table, 7, "l2")
    t2 = GradedPoly.gen(c.lt_table, 7, "t2")
    assert right_unit_log(c, 2) == l2 + l1 * t1**2 + t2
    d = ctx3()
    assert right_unit_log(d, 2).to_text() == "t2 + l2 + l1*t1^3"


def test_right_unit_is_multiplicative():
    c = ctx2()
    sq = GradedPoly.gen(c.l_table, 7, "l1", 2)
    assert right_unit_of_l_poly(c, sq) == right_unit_log(c, 1) ** 2


def test_right_unit_v_examples():
    for p in (2, 3):
        c = BPContext(p, 6)
        poly, coeffs = right_unit_v_monomial(c, {"v1": 1})
        v1 = GradedPoly.gen(c.vt_table, 6, "v1")
        t1 = GradedPoly.gen(c.vt_table, 6, "t1")
        assert poly == v1 + t1 * c.pi(1)
        # eta_R(1) = 1
        one, table = right_unit_v_monomial(c, {})
        assert one == GradedPoly.const(c.vt_table, 6, 1)
        assert list(table.values()) == [Fraction(1)]


def test_right_unit_integrality_small():
    for p in (2, 3):
        c = BPContext(p, 4)
        for alpha in monomials_up_to_weight(c.v_table, 4):
            _, coeffs = right_unit_v_monomial(c, alpha)
            assert all(is_p_local_int(p, x) for x in coeffs.values())


@pytest.mark.parametrize("p,W", [(2, 0), (3, 0), (2, 12), (3, 14), (5, 30), (7, 50), (11, 30)])
def test_right_unit_v_monomial_against_the_fraction_route(p, W):
    # every v-monomial up to weight W + 7: those above W map to zero
    c = BPContext(p, W)
    for alpha in monomials_up_to_weight(c.v_table, W + 7):
        got, got_table = right_unit_v_monomial(c, alpha)
        want, want_table = theta_reference.right_unit_v_monomial(c, alpha)
        assert got.to_text() == want.to_text(), alpha
        assert list(got_table.items()) == list(want_table.items()), alpha


def test_right_unit_v_monomial_above_the_weight_bound_is_zero():
    # packed keys of an over-weight product would carry into the next field
    c = BPContext(2, 6)
    poly, table = right_unit_v_monomial(c, {"v2": 3})
    assert poly == GradedPoly.zero(c.vt_table, 6) and poly.to_text() == "0"
    assert table == {}


def test_right_unit_v_monomial_rejects_bad_exponents():
    c = BPContext(3, 8)
    for bad in (1.5, -1, Fraction(1)):
        with pytest.raises(PolyError, match="non-negative integers"):
            right_unit_v_monomial(c, {"v1": bad})
    with pytest.raises(PolyError, match="non-negative integers"):
        right_unit_v_monomial(c, (0, -2))
    for name in ("t1", "v9"):
        with pytest.raises(PolyError, match="unknown generator"):
            right_unit_v_monomial(c, {name: 1})


def test_right_unit_v_images_are_built_once_per_context(monkeypatch):
    c = BPContext(3, 12)
    want = theta_reference.right_unit_v_monomial(c, {"v1": 1, "v2": 1})[0]
    right_unit_v_monomial(c, {"v1": 2})
    monkeypatch.setattr(hopf, "_t_recursion", None)
    assert right_unit_v_monomial(c, {"v1": 1, "v2": 1})[0] == want


def test_rewrite_examples_and_round_trip():
    c = ctx2()
    e1 = GradedPoly.gen(c.le_table, 7, "e1")
    l1 = GradedPoly.gen(c.le_table, 7, "l1")
    assert to_right_unit_basis(c, t_gen(c, 1)) == e1 - l1
    assert to_right_unit_basis(c, t_gen(c, 1, 2)) == e1**2 - l1 * e1 * 2 + l1**2
    rng = random.Random(23)
    for _ in range(12):
        x = _lt_random(rng, c, 5)
        assert from_right_unit_basis(c, to_right_unit_basis(c, x)) == x


def test_rewrite_round_trip_at_weight_zero():
    # no generators fit W = 0: every table is empty and substitution embeds
    for p in (2, 3, 5):
        c = BPContext(p, 0)
        assert c.gen_count == 0
        x = GradedPoly.const(c.lt_table, 0, Fraction(-7, 4))
        y = to_right_unit_basis(c, x)
        assert y.table == c.le_table and y == GradedPoly.const(c.le_table, 0, Fraction(-7, 4))
        assert from_right_unit_basis(c, y) == x
        z, coeffs = right_unit_v_monomial(c, ())
        assert z == GradedPoly.const(c.vt_table, 0, 1) and coeffs == {((), ()): 1}


def _v_exps(c, **powers):
    return tuple(powers.get(name, 0) for name in c.v_table.names)


def test_diagonal_transform_examples():
    for p in (2, 3):
        c = BPContext(p, 5)
        one = GradedPoly.const(c.lt_table, 5, 1)
        assert diagonal_transform(c, one) == {_v_exps(c): MuLinear.unit(0)}
        # theta(t_1) = p^-1 pibar_1^-1 (mu_1 - mu_0) v_1
        unit = Fraction(1, p) / c.pibar(1)
        assert diagonal_transform(c, t_gen(c, 1)) == {
            _v_exps(c, v1=1): MuLinear({1: unit, 0: -unit})}
        # theta(t_1^2) = p^-2 pibar_1^-2 (mu_2 - 2 mu_1 + mu_0) v_1^2
        img2 = diagonal_transform(c, t_gen(c, 1, 2))
        unit2 = unit * unit
        assert img2[_v_exps(c, v1=2)] == MuLinear({2: unit2, 1: -2 * unit2, 0: unit2})
        # rows come in graded-lex order and carry no zero forms
        weight = c.v_table.monomial_weight
        assert list(img2) == sorted(img2, key=lambda e: (weight(e), e))
        assert all(img2.values())


def _three_pass_transform(c, x):
    """The reference route: rewrite t -> {l, e}, group the terms by merged
    l-monomial and e-weight, substitute l -> v once per l-monomial."""
    y = to_right_unit_basis(c, x)
    nl = len(c.l_table)
    by_l = {}
    for exps, coeff in y.terms.items():
        a, b = exps[:nl], exps[nl:]
        form = by_l.setdefault(tuple(ai + bi for ai, bi in zip(a, b)), {})
        w = c.e_table.monomial_weight(b)
        form[w] = form.get(w, Fraction(0)) + coeff
    bindings = {f"l{n}": c.l_in_v(n) for n in range(1, c.gen_count + 1)}
    rows = {}
    for key, form in by_l.items():
        image = GradedPoly.monomial(c.l_table, c.weight_bound, key).substitute(bindings)
        for delta, d in image.terms.items():
            row = rows.setdefault(delta, {})
            for w, coeff in form.items():
                row[w] = row.get(w, Fraction(0)) + coeff * d
    weight = c.v_table.monomial_weight
    out = {}
    for delta in sorted(rows, key=lambda e: (weight(e), e)):
        form = MuLinear(rows[delta])
        if form:
            out[delta] = form
    return out


def _same_rows(got, want):
    # equal forms in the same (graded-lex) order
    return list(got.items()) == list(want.items())


@pytest.mark.parametrize("p, W", [(2, 10), (3, 14), (5, 12)])
def test_diagonal_transform_against_three_pass_route(p, W):
    c = BPContext(p, W)
    nl = len(c.l_table)
    count = 0
    for gamma in monomials_up_to_weight(c.t_table, W):
        x = GradedPoly.monomial(c.lt_table, W, (0,) * nl + gamma)
        assert _same_rows(diagonal_transform(c, x), _three_pass_transform(c, x)), gamma
        count += 1
    assert count > 20


def test_diagonal_transform_against_three_pass_route_with_l_parts():
    rng = random.Random(41)
    contexts = [BPContext(2, 8), BPContext(3, 9), BPContext(5, 12)]
    for k in range(20):
        c = contexts[k % 3]
        W, nl = c.weight_bound, len(c.l_table)
        l1 = GradedPoly.gen(c.lt_table, W, "l1")
        x = _lt_random(rng, c, W, terms=4) + l1 * _lt_random(rng, c, W - 1, terms=3)
        assert any(any(e[:nl]) for e in x.terms), k
        assert _same_rows(diagonal_transform(c, x), _three_pass_transform(c, x)), k


def test_diagonal_transform_skips_the_right_unit_tables():
    # theta is built from its own images; the {l, e} rewrite builds neither
    # those images nor the special-element cache and its v_1 chains
    c = BPContext(3, 10)
    diagonal_transform(c, t_gen(c, 2) * t_gen(c, 1))
    special_element(c, 3)
    assert set(c._hopf_cache) == {"theta_numerators", "special", "v1_chains"}
    d = BPContext(3, 10)
    to_right_unit_basis(d, t_gen(d, 2))
    assert set(d._hopf_cache) == {"rud"}


def _concrete(c, rows, mu):
    """The rows of a symbolic diagonal image evaluated on the action mu."""
    return GradedPoly(c.v_table, c.weight_bound,
                      {delta: form.evaluate(mu.values) for delta, form in rows.items()})


@pytest.mark.parametrize("p, W", [(2, 22), (3, 26)])
def test_diagonal_transform_builds_no_polynomial_product_or_substitution(p, W, monkeypatch):
    # theta is evaluated on the integer generator images: once the context
    # is built, no GradedPoly is multiplied or substituted into
    c = BPContext(p, W)
    t1, t2 = t_gen(c, 1), t_gen(c, 2)
    x = t2 * t1 ** 3 + GradedPoly.gen(c.lt_table, W, "l1") * t2 ** 2
    want = _three_pass_transform(BPContext(p, W), x)
    mu = DiagonalAction(p, tuple(Fraction(3 ** j) for j in range(W + 1)))

    def refuse(*args, **kwargs):
        raise AssertionError("a GradedPoly product or substitution")

    monkeypatch.setattr(GradedPoly, "substitute", refuse)
    monkeypatch.setattr(GradedPoly, "__mul__", refuse)
    assert _same_rows(diagonal_transform(c, x), want)
    assert diagonal_transform(c, x, mu) == _concrete(c, want, mu)


def test_diagonal_transform_drops_the_terms_above_the_weight_bound():
    # x over the context's table at bound 30 > W = 10: the terms of weight
    # above W have images of that weight, which truncation at W drops
    c = BPContext(2, 10)
    W, nl = c.weight_bound, len(c.l_table)
    weight = c.lt_table.monomial_weight
    rng = random.Random(43)
    mons = list(monomials_up_to_weight(c.lt_table, 30))
    picked = (rng.sample([m for m in mons if weight(m) <= W], 12)
              + rng.sample([m for m in mons if weight(m) > W], 12))
    x = GradedPoly(c.lt_table, 30,
                   {m: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for m in picked})
    low = GradedPoly(c.lt_table, W, {e: v for e, v in x.terms.items() if weight(e) <= W})
    assert len(low.terms) == 12 and any(any(e[nl:]) for e in low.terms)
    want = _three_pass_transform(c, low)
    assert want and _same_rows(diagonal_transform(c, x), want)
    mu = DiagonalAction(2, tuple(Fraction(5 ** j) for j in range(W + 1)))
    assert diagonal_transform(c, x, mu) == _concrete(c, want, mu)


def _l_by_fractions(ctx, low_fields):
    """l_n(v) as (N, D) on packed keys from the ``Fraction`` polynomials
    ``ctx.l_in_v(n)``, N = D * l_n(v) with D the lcm of its denominators,
    above ``low_fields`` empty fields: the route of ``hopf._l_numerators``
    before it ran its own recursion on integers."""
    width = ctx.weight_bound.bit_length()
    out = []
    for n in range(1, ctx.gen_count + 1):
        terms = ctx.l_in_v(n).terms
        nums, den = integer_numerators(list(terms.values()))
        out.append(({hopf._key(exps, width) << width * low_fields: c
                     for exps, c in zip(terms, nums)}, den))
    return out


@pytest.mark.parametrize("p, W", [(2, 0), (2, 1), (2, 3), (2, 22), (2, 40), (3, 4), (3, 13),
                                  (3, 40), (5, 6), (5, 31), (5, 160), (7, 8), (7, 57),
                                  (13, 14), (13, 183)])
def test_l_numerators_against_the_fraction_polynomials(p, W):
    # the integer recursion pi_n * L_n = v_n + sum_{i<n} L_i * v_{n-i}^{p^i}
    # gives the (N, D) of the Fraction l_n(v), above one empty field (theta's
    # u) and above gen_count (the t's of the right unit): in Araki's
    # generators, and in Hazewinkel's, whose reference is a context with
    # pi_n = p, which the recursion also reads through ctx.pi
    c, h = BPContext(p, W), theta_reference.HazewinkelContext(p, W)
    for low in (1, c.gen_count):
        assert hopf._l_numerators(c, low) == _l_by_fractions(c, low)
        assert hopf._l_numerators(c, low, True) == _l_by_fractions(h, low)
        assert hopf._l_numerators(h, low) == _l_by_fractions(h, low)
    if c.gen_count:
        assert all(den > 0 for _, den in hopf._l_numerators(c, 1))
        assert hopf._l_numerators(c, 1) != hopf._l_numerators(c, 1, True)


@pytest.mark.parametrize("p, W", [(2, 0), (2, 1), (2, 22), (2, 40), (3, 13), (3, 40),
                                  (5, 31), (7, 57), (13, 183)])
def test_right_unit_of_l_against_the_graded_poly_formula(p, W):
    # eta_R(l_n) = sum_{k=0}^{n} l_k * t_{n-k}^{p^k}, l_0 = t_0 = 1, built on
    # packed keys, against the same sum in GradedPoly arithmetic, the route
    # the right-unit tables took before
    c = BPContext(p, W)
    want = []
    for n in range(1, c.gen_count + 1):
        acc = GradedPoly.gen(c.lt_table, W, f"t{n}") + GradedPoly.gen(c.lt_table, W, f"l{n}")
        for k in range(1, n):
            acc = acc + (GradedPoly.gen(c.lt_table, W, f"l{k}")
                         * GradedPoly.gen(c.lt_table, W, f"t{n - k}", p ** k))
        want.append(acc)
    assert hopf._rud(c).etaR_l == want
    assert [right_unit_log(c, n) for n in range(1, c.gen_count + 1)] == want


@pytest.mark.parametrize("p, W", [(2, 0), (2, 1), (2, 22), (2, 38), (3, 14), (3, 40),
                                  (5, 28), (5, 62), (7, 16)])
def test_theta_images_against_the_fraction_recursion(p, W):
    # the integer recursion against the Fraction one: (N, D) of every
    # generator, D the lcm of its denominators, and t_n over the {l, e}
    # basis
    c = BPContext(p, W)
    want = theta_reference.as_rows(c, theta_reference.theta_numerators(c))
    assert hopf._theta_numerators(c) == want
    assert len(want) == 2 * c.gen_count and (W == 0 or c.gen_count)
    assert hopf._rud(c).t_in_basis == theta_reference.t_in_basis(c)


@pytest.mark.parametrize("p, W", [(2, 0), (2, 1), (2, 22), (2, 40), (3, 14), (3, 60),
                                  (5, 40), (5, 62), (7, 16), (7, 70)])
def test_hazewinkel_images_against_a_context_with_pi_equal_to_p(p, W):
    # the images built on integers equal those of a context whose l_n(v)
    # come from Araki's recursion with pi_n = p, by the package's integer
    # recursion and, at the smaller bounds, by the Fraction one; with
    # denominators powers of p
    c = BPContext(p, W)
    got = hopf._hazewinkel_theta_numerators(c)
    assert got == hopf._theta_numerators(theta_reference.HazewinkelContext(p, W))
    if W <= 40:
        reference = theta_reference.HazewinkelContext(p, W)
        assert got == theta_reference.as_rows(reference,
                                              theta_reference.theta_numerators(reference))
    assert all(den == p ** val_p(p, den) for _, den in got.values())
    assert got != hopf._theta_numerators(c) or W == 0


def test_hazewinkel_images_are_built_once_per_context_and_only_for_a_walk(monkeypatch):
    # a context builds no images; the first call builds them under their own
    # key, and later calls read them
    c = BPContext(3, 14)
    assert c._hopf_cache == {}
    combine, calls = hopf._combine, []
    monkeypatch.setattr(hopf, "_combine",
                        lambda *args, **kwargs: calls.append(1) or combine(*args, **kwargs))
    images = hopf._hazewinkel_theta_numerators(c)
    built = len(calls)
    assert built and list(c._hopf_cache) == ["hazewinkel_theta_numerators"]
    assert hopf._hazewinkel_theta_numerators(c) is images and len(calls) == built


def _packed(poly):
    """A polynomial as (N, D) on packed keys, a field of W.bit_length()
    bits per generator."""
    nums, den = integer_numerators(list(poly.terms.values()))
    return {hopf._key(e, poly.bound.bit_length()): c for e, c in zip(poly.terms, nums)}, den


def test_t_recursion_on_integers_against_fractions():
    # random homogeneous inputs over the {l, e} table, with small
    # denominators that cancel in the sums; one case cancels in full:
    # E_1 - L_1 = (e_1 + l_1)/2 - (l_1 - e_1)/2 = e_1, so D_1 = 1
    c = BPContext(2, 7)
    W = c.weight_bound
    e1, l1 = (GradedPoly.gen(c.le_table, W, name) for name in ("e1", "l1"))
    cases = [([(l1 - e1) * Fraction(1, 2)], [(e1 + l1) * Fraction(1, 2)])]
    rng = random.Random(71)
    for _ in range(20):
        L, E = [], []
        for w in c.l_table.weights:
            mons = [m for m in monomials_up_to_weight(c.le_table, w)
                    if c.le_table.monomial_weight(m) == w]
            for out in (L, E):
                out.append(GradedPoly(c.le_table, W, {
                    m: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4, 3, 6)))
                    for m in rng.sample(mons, min(len(mons), 3))}))
        cases.append((L, E))
    for L, E in cases:
        got = hopf._t_recursion(2, [_packed(x) for x in L], [_packed(x) for x in E])
        assert got == [_packed(x) for x in theta_reference.fraction_t_recursion(2, L, E)]
    assert hopf._t_recursion(2, [_packed(x) for x in cases[0][0]],
                             [_packed(x) for x in cases[0][1]]) == [_packed(e1)]


def _term_form_images(ctx, images):
    """The images of the {l, t} generators as the recursion on terms
    builds them from the L_k of ``images``: :func:`hopf._t_recursion` on
    packed monomial keys, u in the lowest field, with E_n = u^{w_n} * L_n,
    each T_n reduced as it is summed; handed over as rows."""
    width = ctx.weight_bound.bit_length()
    L = [({delta << width: c for delta, (c,) in num.items()}, den)
         for num, den in (images[f"l{k}"] for k in range(1, ctx.gen_count + 1))]
    E = [({key + w: c for key, c in num.items()}, den)
         for (num, den), w in zip(L, ctx.l_table.weights)]
    return theta_reference.as_rows(
        ctx, dict(zip(ctx.lt_table.names, L + hopf._t_recursion(ctx.p, L, E))))


@pytest.mark.parametrize("p, W", [(2, 0), (2, 7), (2, 15), (2, 22), (2, 31), (2, 46), (3, 8),
                                  (3, 26), (3, 58), (5, 28), (5, 62), (7, 16), (7, 60)])
def test_row_form_images_equal_the_term_form_images(p, W):
    # theta's generator images built on packed rows, at one width for the
    # recursion, equal the recursion on terms, numerators and reduced
    # denominators, in Araki's and Hazewinkel's generators; up to W = 46 at
    # p = 2, which holds t_1..t_5.  Most of these points need their whole
    # last word: one word narrower, some digit no longer fits
    ctx = BPContext(p, W)
    for build in (hopf._theta_numerators, hopf._hazewinkel_theta_numerators):
        images = build(ctx)
        assert images == _term_form_images(ctx, images), build.__name__


def _weight_component(c, image, w):
    """The mu_w part of a symbolic diagonal image, as a v-polynomial."""
    return GradedPoly(c.v_table, c.weight_bound,
                      {delta: form.coefficient(w) for delta, form in image.items()})


def test_diagonal_transform_left_linearity():
    c = ctx2()
    rng = random.Random(31)
    bindings = {f"l{n}": c.l_in_v(n) for n in range(1, c.gen_count + 1)}
    for _ in range(10):
        x = _lt_random(rng, c, 3)
        a = rng.randint(1, 2)
        l_poly = GradedPoly.gen(c.lt_table, 7, "l1", a)
        lhs = diagonal_transform(c, l_poly * x)
        rhs = diagonal_transform(c, x)
        l_in_v = GradedPoly.gen(c.l_table, 7, "l1", a).substitute(bindings)
        for w in range(c.weight_bound + 1):
            assert _weight_component(c, lhs, w) == l_in_v * _weight_component(c, rhs, w)


def test_defining_identity_on_right_unit_images():
    # theta(eta_R(v^alpha)) = mu_{|alpha|} v^alpha
    for p in (2, 3):
        c = BPContext(p, 4)
        for alpha in monomials_up_to_weight(c.v_table, 4):
            x = GradedPoly.const(c.l_table, 4, 1)
            for name, e in zip(c.v_table.names, alpha):
                if e:
                    x = x * (c.v_in_l(c.v_table.index(name) + 1) ** e)
            image = diagonal_transform(c, right_unit_of_l_poly(c, x))
            w = c.v_table.monomial_weight(alpha)
            assert image == {alpha: MuLinear.unit(w)}, (p, alpha)


def test_v1_functional_examples():
    for p in (2, 3):
        c = BPContext(p, 5)
        assert v1_functional(c, GradedPoly.const(c.lt_table, 5, 1)) == MuLinear.unit(0)
        unit = Fraction(1, p) / c.alphabar(1)
        assert v1_functional(c, t_gen(c, 1)) == MuLinear({1: unit, 0: -unit})


def _v1_by_rows(c, x):
    """The route v1_functional replaced: the rows of diagonal_transform at
    delta = (a, 0, ..., 0), summed."""
    total = MuLinear.zero()
    for delta, form in diagonal_transform(c, x).items():
        if not any(delta[1:]):
            total = total + form
    return total


@pytest.mark.parametrize("p, n", [(2, 12), (3, 18), (5, 24)])
def test_v1_functional_against_the_rows_on_special_elements(p, n):
    c = BPContext(p, delta_p(p, n))
    for k in range(n + 1):
        element = special_element(c, k).element
        assert v1_functional(c, element) == _v1_by_rows(c, element), k


def test_v1_functional_against_the_rows_with_l_parts():
    rng = random.Random(53)
    contexts = [BPContext(2, 8), BPContext(3, 9), BPContext(5, 12)]
    for k in range(30):
        c = contexts[k % 3]
        W, nl = c.weight_bound, len(c.l_table)
        l1 = GradedPoly.gen(c.lt_table, W, "l1")
        x = _lt_random(rng, c, W, terms=5) + l1 * _lt_random(rng, c, W - 1, terms=3)
        assert any(any(e[:nl]) for e in x.terms), k
        assert v1_functional(c, x) == _v1_by_rows(c, x), k


@pytest.mark.parametrize("p, W", [(2, 12), (3, 14), (5, 12)])
def test_v1_functional_against_the_fraction_route(p, W):
    c = BPContext(p, W)
    rng = random.Random(p * 100 + W)
    mu = DiagonalAction(p, tuple(Fraction(rng.randint(-50, 50)) for _ in range(W + 1)))
    xs = [GradedPoly.gen(c.lt_table, W, name, e)
          for name, w in zip(c.lt_table.names, c.lt_table.weights)
          for e in range(1, W // w + 1)]
    assert len(xs) > 2 * len(c.lt_table)
    xs += [_lt_random(rng, c, W, terms=6) for _ in range(10)]
    xs.append(GradedPoly.const(c.lt_table, W, 0))
    for x in xs:
        got, want = v1_functional(c, x), theta_reference.v1_functional(c, x)
        assert got == want and all(got.coeffs.values()), x.to_text()
        assert v1_functional(c, x, mu) == theta_reference.v1_functional(c, x, mu), x.to_text()


@pytest.mark.parametrize("p, W", [(2, 0), (2, 1), (2, 22), (2, 38), (3, 14), (3, 40),
                                  (5, 28), (5, 62), (7, 16), (11, 30)])
def test_v1_shadows_against_the_theta_images(p, W):
    # each generator's shadow, built by the recursion on shadows, is the
    # part of its theta image with no v_{>1}, keyed by u-degree, over the
    # lcm of its denominators; a context builds no theta image for it
    c = BPContext(p, W)
    shadows = {g: hopf._v1_power(c, g, 1) for g in range(len(c.lt_table))}
    assert "theta_numerators" not in c._hopf_cache
    width = W.bit_length()
    v_high = ((1 << width * max(len(c.v_table) - 1, 0)) - 1) << width
    for g, name in enumerate(c.lt_table.names):
        rows, den = hopf._theta_numerators(c)[name]
        num = {delta << width | j: x for delta, row in rows.items()
               for j, x in enumerate(row) if x}
        want = hopf._reduced({key & ((1 << width) - 1): x for key, x in num.items()
                              if not key & v_high}, den)
        assert shadows[g] == want and want[0], name


def test_product_rule_t1_squared():
    c = ctx3()
    vx = v1_functional(c, t_gen(c, 1))
    assert v1_functional(c, t_gen(c, 1, 2)) == convolve(vx, vx)


def test_product_rule_random_pairs():
    rng = random.Random(77)
    for p in (2, 3):
        c = BPContext(p, 5)
        for _ in range(20):
            x = _lt_random(rng, c, 2)
            y = _lt_random(rng, c, 3)
            assert v1_functional(c, x * y) == convolve(v1_functional(c, x),
                                                       v1_functional(c, y))


def test_t_recursion():
    c = ctx2()
    assert t_recursion_check(c, 0)
    assert t_recursion_check(c, 1)
    assert t_recursion_check(c, 2)
    d = ctx3()
    assert t_recursion_check(d, 0)
    assert t_recursion_check(d, 1)
    # i = 0 in closed form: V(t_1) = p^-1 abar_1^-1 (mu_1 - mu_0)
    unit = Fraction(1, 3) / d.alphabar(1)
    assert v1_functional(d, t_gen(d, 1)) == MuLinear({1: unit, 0: -unit})


def test_special_element_d1():
    for p in (2, 3):
        c = BPContext(p, 5)
        d1 = special_element(c, 1)
        assert d1.element == t_gen(c, 1)
        unit = Fraction(1, p) / c.alphabar(1)
        assert d1.c == (-unit, unit)


def test_special_element_d2_p2_frozen():
    # frozen values derived by hand from the recursion:
    #   V(t_2) = (1/28)(mu_3 - mu_0) + (1/8)(mu_2 - 2 mu_1 + mu_0)
    #   d_2 = t_2 + (2/7) t_1^3
    c = ctx2()
    d2 = special_element(c, 2)
    assert d2.element.to_text() == "t2 + 2/7*t1^3"
    assert d2.c == (Fraction(1, 8), Fraction(-5, 14), Fraction(13, 56))


def test_special_element_products():
    # composite index: d_3 = d_2 * d_1 and the row is the convolution;
    # with a big enough bound the direct functional agrees exactly
    c = BPContext(2, 7)
    d3 = special_element(c, 3)
    d1, d2 = special_element(c, 1), special_element(c, 2)
    assert d3.element == d2.element * d1.element
    assert d3.functional() == convolve(d2.functional(), d1.functional())
    assert v1_functional(c, d3.element) == d3.functional()


def _digit_product(c, n):
    """d_n and its row by the digit-product route: the product of the
    d_{p^k}^{a_k} over the base-p digits a_k of n, the row a convolution of
    powers.  The reference for the incremental d_n = d_{n - p^k} * d_{p^k}."""
    p = c.p
    element = GradedPoly.const(c.lt_table, c.weight_bound, 1)
    form = MuLinear.unit(0)
    m, k = n, 0
    while m:
        a = m % p
        if a:
            dk = hopf._special_prime_power(c, k)
            element = element * (dk.element ** a)
            form = convolve(form, convolve_power(dk.functional(), a))
        m //= p
        k += 1
    return element, form


@pytest.mark.parametrize("p, top", [(2, 16), (3, 18), (5, 24), (7, 14)])
def test_special_elements_match_the_digit_product_route(p, top):
    # one shared context, filled in increasing and then in decreasing n,
    # and a context of its own for the top index
    shared = BPContext(p, delta_p(p, top))
    for n in list(range(top + 1)) + list(range(top, -1, -1)):
        d = special_element(shared, n)
        element, form = _digit_product(shared, n)
        assert d.element == element and d.element.to_text() == element.to_text(), (p, n)
        assert d.functional() == form and d.c == form.as_row(n + 1), (p, n)
        # the profile check the composite rows no longer run still holds
        assert _check_profile(p, n, d.functional()) == d.c, (p, n)
    assert set(shared._hopf_cache["special"]) == set(range(top + 1))
    alone = BPContext(p, delta_p(p, top))
    assert special_element(alone, top) == special_element(shared, top)


def test_special_element_profiles():
    for p in (2, 3):
        c = BPContext(p, delta_p(p, 4))
        for n in range(5):
            d = special_element(c, n)
            budget = delta_p(p, n)
            assert len(d.c) == n + 1
            assert val_p(p, d.c[n]) == -budget
            assert all(val_p(p, x) >= -budget for x in d.c)
            # direct functional agrees when nothing is truncated
            assert v1_functional(c, d.element) == d.functional()


def test_special_element_inductive_form():
    # d_{p^i} = t_{i+1} + p * (integral remainder)
    for p, i in ((2, 1), (2, 2), (3, 1)):
        c = BPContext(p, delta_p(p, p**i))
        d = special_element(c, p**i)
        rest = d.element - t_gen(c, i + 1)
        assert all(val_p(p, x) >= 1 for x in rest.terms.values())


def test_mulinear_basics():
    a = MuLinear({0: Fraction(1), 2: Fraction(-1, 2)})
    b = MuLinear.unit(1, 3)
    assert (a + b).coefficient(1) == 3
    assert (a * 2).coefficient(2) == -1
    assert convolve(a, b).support() == (1, 3)
    assert convolve(a, b).coefficient(3) == Fraction(-3, 2)
    assert a.evaluate([Fraction(4), Fraction(0), Fraction(2)]) == 3
    assert not MuLinear.zero()
    with pytest.raises(TypeError):
        a * b  # forms do not multiply; the row product is a convolution
    # evaluation is linear in the sequence
    vals = [Fraction(1), Fraction(5), Fraction(9)]
    c = Fraction(7, 2)
    assert a.evaluate([c * v for v in vals]) == c * a.evaluate(vals)
    assert MuLinear({0: 1, 1: Fraction(-1, 2)}).to_text() == "1*mu0 + -1/2*mu1"


def test_check_profile_raises():
    bad = MuLinear({0: Fraction(1, 16), 2: Fraction(1, 8)})  # pivot not at top val
    with pytest.raises(ConstructionError):
        _check_profile(2, 2, MuLinear({3: Fraction(1)}))  # support beyond n
    with pytest.raises(ConstructionError):
        _check_profile(2, 2, bad)  # entry 0 below -delta_2(2) = -3


def test_diagonal_action_validation_and_evaluation():
    with pytest.raises(ValueError):
        DiagonalAction(3, (Fraction(1, 3),))
    mu = DiagonalAction(3, (1, 4, 16))
    c = ctx3()
    sym = v1_functional(c, t_gen(c, 1))
    assert v1_functional(c, t_gen(c, 1), mu) == sym.evaluate(mu.values)
    img = diagonal_transform(c, t_gen(c, 1), mu)
    assert img.coefficient_of({"v1": 1}) == sym.evaluate(mu.values)


def test_concrete_integrality_matches_lattice_membership():
    # for concrete mu, integrality of every sampled functional is the
    # same condition as membership in the solved lattice
    from bpadams.centre import sampled_integrality_rows

    c = ctx3(4)
    rows = []
    n = 3
    for _, _, form in sampled_integrality_rows(c):
        top = form.top_index()
        if top is None or top <= n:
            rows.append(form.as_row(n + 1))
    lat = solve(CongruenceSystem(3, n, tuple(rows)))
    rng = random.Random(13)
    for _ in range(40):
        mu = [Fraction(rng.randint(-15, 15)) for _ in range(n + 1)]
        direct = all(
            val_p(3, sum((r * m for r, m in zip(row, mu)), Fraction(0))) >= 0
            for row in rows)
        assert direct == lat.contains(mu)


# the walk's two sets of generator images, by the generators of BP_* they
# are read in: the package's images of a context, and the context class
# whose Fraction recursion (theta_reference) is their reference
BASES = {"araki": (hopf._theta_numerators, BPContext),
         "hazewinkel": (hopf._hazewinkel_theta_numerators, theta_reference.HazewinkelContext)}


def _dict_walk(ctx):
    """The t-monomial walk on one int per term, as it ran before packed
    rows: (gamma, theta(t^gamma) as numerators on packed keys, den) in
    lexicographic order of gamma, each image built from the parent that
    drops gamma's highest generator, each term's key holding its
    v-exponents and its u-degree.  The reference for
    :func:`walk.t_monomial_numerators`, which walks another tree, on the
    generator images of the Fraction recursion of ``ctx``."""
    W = ctx.weight_bound
    images = theta_reference.theta_numerators(ctx)
    weights = ctx.t_table.weights
    gens = []
    for k in range(1, len(weights) + 1):
        num, den = images[f"t{k}"]
        gens.append((list(num.items()), den))

    def descend(gamma, num, den, low, room):
        yield gamma, num, den
        for k in range(len(gens) - 1, low - 1, -1):
            if weights[k] <= room:
                factor, d = gens[k]
                out = {}
                for k1, c1 in num.items():
                    for k2, c2 in factor:
                        out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
                yield from descend(gamma[:k] + (gamma[k] + 1,) + gamma[k + 1:],
                                {key: c for key, c in out.items() if c}, den * d,
                                k, room - weights[k])

    yield from descend((0,) * len(gens), {0: 1}, 1, 0, W)


@functools.lru_cache(maxsize=None)
def _reference_walk(p, W, basis="araki"):
    return list(_dict_walk(BASES[basis][1](p, W)))


def _reference_rows(p, W, basis):
    """The nodes of the reference walk as (gamma, rows, den), each row keyed
    by its packed v-monomial, as :func:`walk.t_monomial_numerators` keys it."""
    return [(gamma, hopf._group_rows(num, W.bit_length()), den)
            for gamma, num, den in _reference_walk(p, W, basis)]


@pytest.mark.parametrize("p, W", [(2, 22), (3, 19), (5, 28), (7, 16), (2, 0), (3, 1)])
def test_the_hand_over_sorted_and_decoded_is_the_graded_lex_rows(p, W):
    # the walk hands each node's kept rows over by packed v-monomial, in
    # the order its product made them.  Sorted by key and decoded, they
    # are the rows in graded-lexicographic order of delta, as the walk
    # handed them over before, on both sets of generator images and at
    # every top; the nodes, sorted by gamma, are those of the reference,
    # each gamma once
    ctx = BPContext(p, W)
    delta_of = hopf._delta_reader(ctx)
    for basis, (build, context) in BASES.items():
        reference = context(p, W)
        for top in (None, 0, 1, W // 4, W // 2, W):
            got = sorted((gamma, [(delta_of(key), row) for key, row in sorted(rows.items())], den)
                         for gamma, rows, den, _ in walk.t_monomial_numerators(ctx, build(ctx),
                                                                                 top))
            want = [(gamma, [(delta, dense(row)) for delta, row
                             in hopf._read_rows(reference, num).items()
                             if top is None or max(row) <= top], den)
                    for gamma, num, den in _reference_walk(p, W, basis)]
            assert got == want, (basis, top)


@pytest.mark.parametrize("p, W", [(2, 0), (3, 1), (2, 22), (3, 19), (5, 28), (7, 16)])
def test_the_walk_yields_every_monomial_once_after_its_parent(p, W):
    # each image is its parent's times theta(t_k) for gamma's lowest
    # generator t_k, the parent being gamma with that exponent lowered by
    # one.  The walk yields every gamma of monomials_up_to_weight once, each
    # after its parent, with the rows, den and count of the reference walk,
    # whose parent dropped the highest generator, on both sets of images
    ctx = BPContext(p, W)
    monomials = list(monomials_up_to_weight(ctx.t_table, W))
    for basis, (build, _) in BASES.items():
        walked = list(walk.t_monomial_numerators(ctx, build(ctx)))
        order = {gamma: i for i, (gamma, *_) in enumerate(walked)}
        assert sorted(order) == monomials and len(walked) == len(monomials), basis
        for gamma, i in order.items():
            if any(gamma):
                k = next(k for k, g in enumerate(gamma) if g)
                assert order[gamma[:k] + (gamma[k] - 1,) + gamma[k + 1:]] < i, (basis, gamma)
        want = {gamma: ({key: dense(row) for key, row in rows.items()}, den, len(rows))
                for gamma, rows, den in _reference_rows(p, W, basis)}
        assert {gamma: (rows, den, count) for gamma, rows, den, count in walked} == want, basis
    if W >= 22:
        assert [item[0] for item in walked] != monomials  # the order is not the canonical one


@functools.lru_cache(maxsize=1)
def _walks(p, W):
    """{basis: (nodes, {top: (walked, want)})} for the walk at each top on
    both sets of generator images: ``nodes`` as :func:`_walk_nodes` gives
    them, ``walked`` the walk's (gamma, (rows, den, count)) in its order,
    the rows by their packed v-monomials, and ``want`` the same per gamma
    from the reference walk.  The last (p, W) is kept: the four limits of
    :func:`test_walk_matches_the_dict_walk` run one after another and
    share one walk."""
    ctx = BPContext(p, W)
    out = {}
    for basis, (build, _) in BASES.items():
        by_top = {}
        for top in (None, 0, 1, W // 4, W // 2, W - 1, W):
            walked = [(gamma, (rows, den, count)) for gamma, rows, den, count
                      in walk.t_monomial_numerators(ctx, build(ctx), top)]
            want = {gamma: ({key: dense(row) for key, row in rows.items()
                             if top is None or max(row) <= top}, den, len(rows))
                    for gamma, rows, den in _reference_rows(p, W, basis)}
            by_top[top] = walked, want
        out[basis] = _walk_nodes(p, W, basis)[1], by_top
    return out


# the walk once ran each node whose tight width was above a limit on a
# second, dict kernel: limit 0 gave it every node, 10**6 none, 48 a share of
# Araki's walk in each context, and the default of 384 bits (None) the 6 of
# Araki's 139 nodes at (5, 36) that are wider.  The one packed kernel
# matches the dict walk on the nodes of that share and on the rest; the
# limit no longer reaches the walk, so each (p, W) walks once (_walks)
@pytest.mark.parametrize("limit", [0, 48, None, 10 ** 6])
@pytest.mark.parametrize("p, W", [(2, 22), (3, 19), (5, 28), (7, 16), (5, 36), (2, 30),
                                  (2, 24), (3, 23)])
def test_walk_matches_the_dict_walk(p, W, limit):
    # on both sets of generator images; at (2, 30) the t_1-chains run up to
    # 30 nodes long, and at every top below W most of them run out of rows.
    # At top W - 1, (2, 24) and (3, 23) are the least points where a t_1
    # step that keeps only some of its parent's rows needs a wider width
    # than its parent's, and re-spreads the rows it keeps
    bits = 384 if limit is None else limit
    for basis, (nodes, by_top) in _walks(p, W).items():
        wide = {gamma for gamma, (_, bound) in nodes.items() if _tight_width(bound) > bits}
        if basis == "araki":
            assert (0 < len(wide) < len(nodes)) == (bits == 48 or (p, W, bits) == (5, 36, 384))
        for top, (walked, want) in by_top.items():
            # node by node: each gamma once, whatever the walk's order
            got = dict(walked)
            assert len(walked) == len(nodes) and got.keys() == want.keys(), (basis, top)
            for share in (wide, nodes.keys() - wide):
                assert ({gamma: got[gamma] for gamma in share}
                        == {gamma: want[gamma] for gamma in share}), (basis, top, len(share))


@pytest.mark.parametrize("p, W", [(2, 22), (2, 30)])
def test_t1_chains_multiply_only_the_rows_they_keep(p, W, monkeypatch):
    # theta(t_1) is one row of top index 1, so a step raised at t_1
    # multiplies only its parent's rows of top index <= top - 1, whose
    # products it keeps; a step at any other generator, or with no top,
    # multiplies every row of its parent, and a step at t_1 with no row
    # left makes no product.  Each product as (parent rows, factor rows),
    # against the reference walk's rows on Hazewinkel's images
    ctx = BPContext(p, W)
    images = hopf._hazewinkel_theta_numerators(ctx)
    factor_rows = [len(images[f"t{k}"][0]) for k in range(1, len(ctx.t_table.weights) + 1)]
    assert factor_rows[0] == 1
    nodes = {gamma: rows for gamma, rows, _ in _reference_rows(p, W, "hazewinkel")}
    multiply, calls = walk._multiply, []
    monkeypatch.setattr(walk, "_multiply", lambda image, factor: (
        calls.append((len(image), len(factor))) or multiply(image, factor)))
    for top in (None, 0, 1, W // 4, W // 2, W - 1, W):
        want, empty = [], 0
        for gamma, rows in nodes.items():
            high = min((k for k, g in enumerate(gamma) if g), default=len(gamma) - 1)
            for k in range(high + 1):
                if gamma[:k] + (gamma[k] + 1,) + gamma[k + 1:] in nodes:
                    used = [row for row in rows.values()
                            if k or top is None or max(row) <= top - 1]
                    if used:
                        want.append((len(used), factor_rows[k]))
                    empty += not used
        calls.clear()
        for _ in walk.t_monomial_numerators(ctx, images, top):
            pass
        assert sorted(calls) == sorted(want), top
        # the empty tails of the chains, at every top below W
        assert (empty > 0) == (top is not None and top < W), top


def _edge_rows(D, n):
    """Rows whose digits are +-D, in the patterns that go wrong first when D
    is too wide for the width: adjacent digits of both signs (each with
    ``True``), and rows whose top is just above n or at n (with whether
    the top is at most n)."""
    adjacent = [(D, -D, D), (-D, D, -D), (D, D, -D, -D), (-D, -D, D, D), (D, 0, -D)]
    tops = []
    for s in (1, -1):
        lone_above = {j: -s * D for j in range(n + 1)}
        lone_above[n + 1] = s  # a lone +-1 just above n, over digits -+D
        tops += [(lone_above, False), ({j: s * D for j in range(n + 1)}, True)]
    return [{j: c for j, c in enumerate(digits) if c} for digits in adjacent], tops


@pytest.mark.parametrize("M", [2, 3, 5, 8, 255, 256, 2 ** 64 - 1, 2 ** 64, 10 ** 30 + 7])
def test_packed_rows_at_the_edge_of_their_width(M):
    # a node whose l1 bound is M packs at its tight width B rounded up to
    # whole 32-bit words, R.  There the codec and the top test are exact on
    # digits up to 2^(R - 1) - 1 in absolute value, M among them, and wrong
    # on the rows below with one digit past that bound, so a width or an
    # offset one bit off cannot pass.  One word narrower, the digits of M
    # no longer fit: B > R - 32
    codec = WordCodec()
    R = word_width(M.bit_length() + 1)
    edge = (1 << (R - 1)) - 1
    n = 3

    def decodes(row, width):
        try:
            return codec.decode(packing_reference.pack(row, width), width) == dense(row)
        except OverflowError:  # a digit too wide for its bytes
            return False

    for D, exact in ((M, True), (edge, True), (edge + 1, False)):
        adjacent, tops = _edge_rows(D, n)
        for row in adjacent:
            assert decodes(row, R) == exact, (R, row)
            if exact:
                assert codec.pack(dense(row), R) == packing_reference.pack(row, R)
        for row, below in tops:
            packed = packing_reference.pack(row, R)
            assert (packing_reference.top_at_most(packed, R, n) == below) == exact, (R, row)
    if R > 32:
        assert not any(decodes(row, R - 32) for row in _edge_rows(M, n)[0])


@pytest.mark.parametrize("M", [1, 2, 3, 2 ** 28, 2 ** 29 - 1, 2 ** 29, 2 ** 30, 2 ** 30 - 1,
                               2 ** 31 - 1, 2 ** 31, 10 ** 30 + 7])
def test_packed_width_rounds_up_to_whole_digits(M):
    # the walk packs at the tight width rounded up to whole 32-bit words,
    # the digits of the codec; the signed digits of absolute value M stay
    # exact there
    B = M.bit_length() + 1
    R = word_width(B)
    assert R % 32 == 0 and B <= R < B + 32
    row = {0: M, 1: -M, 3: M}
    codec = WordCodec()
    packed = codec.pack(dense(row), R)
    assert packed == packing_reference.pack(row, R)
    assert codec.decode(packed, R) == dense(row)
    assert packing_reference.top_at_most(packed, R, 3)
    assert not packing_reference.top_at_most(codec.pack(dense({**row, 4: 1}), R), R, 3)


def _walk_nodes(p, W, basis):
    """{gamma: (non-zero rows of theta(t^gamma), l1 bound on its numerators)}
    for every node of the walk on the images of ``basis``, and the norms
    ||N_k||_1 the bounds multiply."""
    ctx = BASES[basis][1](p, W)
    images = theta_reference.theta_numerators(ctx)
    norms = [sum(map(abs, images[f"t{k}"][0].values()))
             for k in range(1, len(ctx.t_table.weights) + 1)]
    return norms, {gamma: (len(rows), math.prod(m ** g for m, g in zip(norms, gamma)))
                   for gamma, rows, _ in _reference_rows(p, W, basis)}


def _tight_width(bound):
    """The walk's tight digit width for numerators of absolute value at
    most ``bound``: the least B with bound < 2^(B - 1)."""
    return bound.bit_length() + 1


# Hazewinkel's narrower images repack nothing at (2, 22) or (3, 19)
@pytest.mark.parametrize("p, W, basis", [
    *(pytest.param(p, W, "araki", id=f"{p}-{W}") for p, W in ((2, 22), (3, 19), (5, 28), (5, 36))),
    *(pytest.param(p, W, "hazewinkel", id=f"{p}-{W}-hazewinkel")
      for p, W in ((2, 28), (3, 27), (5, 28), (5, 36)))])
def test_the_walk_repacks_a_parents_rows_only_for_a_wider_child(p, W, basis, monkeypatch):
    # the codec packs each row of theta(t_k) once for each width the walk
    # packs theta(t_k) at, and re-spreads each row of a parent once for
    # each word width wider than the parent's that one of its children
    # needs; a child of equal word width multiplies the parent's packed
    # rows as they are
    norms, nodes = _walk_nodes(p, W, basis)
    ctx = BPContext(p, W)
    images = BASES[basis][0](ctx)
    factor_rows = [len(images[f"t{k}"][0]) for k in range(1, len(norms) + 1)]
    widths, repacks, kept, shared = set(), 0, 0, 0
    for gamma, (rows, bound) in nodes.items():
        # a node raises no index above its lowest non-zero one; the root any
        high = min((k for k, g in enumerate(gamma) if g), default=len(gamma) - 1)
        wider = []
        for k in range(high + 1):
            child = gamma[:k] + (gamma[k] + 1,) + gamma[k + 1:]
            if child not in nodes:
                continue
            child_B = _tight_width(bound * norms[k])
            widths.add((k, word_width(child_B)))
            if word_width(child_B) > word_width(_tight_width(bound)):
                wider.append(word_width(child_B))
            else:
                kept += rows
        repacks += rows * len(set(wider))
        shared += len(wider) > len(set(wider))
    assert repacks and kept  # both cases occur in each context
    # children of one parent also share a wider width, at (2, 28) on
    # Hazewinkel's images (and at (2, 22) on Araki's, on the tree whose
    # nodes raised their highest generator)
    assert shared or (p, W, basis) != (2, 28, "hazewinkel")
    packs, spreads = [], []
    pack, respread = WordCodec.pack, WordCodec.respread
    monkeypatch.setattr(WordCodec, "pack",
                        lambda self, row, width: packs.append(width) or pack(self, row, width))
    monkeypatch.setattr(WordCodec, "respread", lambda self, packed, width, wider: (
        spreads.extend([wider] * len(packed)) or respread(self, packed, width, wider)))
    for _ in walk.t_monomial_numerators(ctx, images):
        pass
    assert len(spreads) == repacks
    assert len(packs) == sum(factor_rows[k] for k, _ in widths)


# A float would enter a form as its binary value: 1/3 as a dyadic rational,
# which is 3-integral.  Each entry point reads through arith.exact.

def test_mu_linear_refuses_float_coefficients():
    assert MuLinear({0: "1/3"}).coeffs == {0: Fraction(1, 3)}
    with pytest.raises(ValueError, match="floating point input rejected"):
        MuLinear({0: 1 / 3})
    with pytest.raises(ValueError, match="floating point input rejected"):
        MuLinear({0: 1, 1: 0.0})  # refused even where it is zero


def test_mu_linear_evaluate_refuses_float_values():
    assert MuLinear({0: 3}).evaluate([Fraction(1, 3)]) == 1
    with pytest.raises(ValueError, match="floating point input rejected"):
        MuLinear({0: 3}).evaluate([1 / 3])


def test_mu_linear_unit_refuses_a_float():
    assert MuLinear.unit(2, Fraction(1, 2)) == MuLinear({2: Fraction(1, 2)})
    with pytest.raises(ValueError, match="floating point input rejected"):
        MuLinear.unit(0, 0.5)
