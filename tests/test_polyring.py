import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpadams.hopf import MuLinear
from bpadams.polyring import (GeneratorTable, GradedPoly, PolyError,
                              monomials_up_to_weight)

T2 = GeneratorTable([("t1", 1), ("t2", 4)])  # p = 3 weights
LT = GeneratorTable([("l1", 1), ("t1", 1)])


def gen(table, bound, name, e=1):
    return GradedPoly.gen(table, bound, name, e)


def test_product_example():
    one = GradedPoly.const(T2, 2, 1)
    t1 = gen(T2, 2, "t1")
    assert (one + t1) * (one - t1) == one - t1 * t1


def test_truncation_drops_heavy_products():
    # weights 1 and 4 with bound 2: t2 and the weight-5 product vanish
    t1 = gen(T2, 2, "t1")
    t2 = gen(T2, 2, "t2")
    assert t2.is_zero
    assert (t1 * t2).is_zero
    assert GradedPoly.monomial(T2, 2, (1, 1)).is_zero
    # with bound 5 the same product survives
    assert not (gen(T2, 5, "t1") * gen(T2, 5, "t2")).is_zero


def test_power_matches_repeated_multiplication():
    for p in (2, 3):
        x = gen(LT, 6, "l1") + gen(LT, 6, "t1")
        by_mul = GradedPoly.const(LT, 6, 1)
        for _ in range(p):
            by_mul = by_mul * x
        assert x**p == by_mul
        # binomial coefficients exact
        assert (x**2).coefficient_of({"l1": 1, "t1": 1}) == 2


def test_substitute_examples():
    V = GeneratorTable([("v1", 1)])
    L = GeneratorTable([("l1", 1)])
    pi1 = Fraction(3 - 27)
    v1sq = gen(V, 4, "v1", 2)
    image = v1sq.substitute({"v1": gen(L, 4, "l1") * pi1})
    assert image == gen(L, 4, "l1", 2) * (pi1 * pi1)
    # identity bindings leave the input unchanged
    x = gen(T2, 5, "t1", 2) + gen(T2, 5, "t2") * Fraction(1, 2)
    assert x.substitute({"t1": gen(T2, 5, "t1")}) == x


def _random_poly(rng, table, bound, max_terms=4):
    terms = {}
    mons = list(monomials_up_to_weight(table, bound))
    for _ in range(rng.randint(1, max_terms)):
        exps = rng.choice(mons)
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return GradedPoly(table, bound, terms)


def test_substitution_composition_property():
    # substituting twice equals substituting once with composed bindings
    rng = random.Random(11)
    A = GeneratorTable([("a1", 1), ("a2", 2)])
    B = GeneratorTable([("b1", 1), ("b2", 2)])
    C = GeneratorTable([("c1", 1), ("c2", 2)])
    for _ in range(25):
        x = _random_poly(rng, A, 4)
        f = {"a1": gen(B, 4, "b1") * Fraction(rng.randint(1, 5)),
             "a2": gen(B, 4, "b2") * Fraction(rng.randint(1, 5))
                   + gen(B, 4, "b1", 2) * Fraction(rng.randint(-3, 3))}
        g = {"b1": gen(C, 4, "c1") * Fraction(rng.randint(1, 5)),
             "b2": gen(C, 4, "c2") * Fraction(rng.randint(1, 5))
                   + gen(C, 4, "c1", 2) * Fraction(rng.randint(-3, 3))}
        composed = {name: img.substitute(g) for name, img in f.items()}
        assert x.substitute(f).substitute(g) == x.substitute(composed)


def test_coefficient_of_examples():
    x = gen(T2, 4, "t1", 2) * 3 + gen(T2, 4, "t2")
    assert x.coefficient_of({"t1": 2}) == 3
    assert GradedPoly.zero(T2, 4).coefficient_of({"t1": 1}) == 0


def test_coefficient_of_rejects_malformed_exponents():
    x = gen(LT, 4, "l1")
    assert x.coefficient_of((1, 0)) == 1
    for bad in ((1,), (1, 0, 0), (1, -1)):
        with pytest.raises(PolyError):
            x.coefficient_of(bad)
    with pytest.raises(PolyError):
        x.coefficient_of({"t1": -1})


def test_mismatched_tables_rejected():
    with pytest.raises(PolyError):
        gen(T2, 4, "t1") + gen(LT, 4, "t1")
    with pytest.raises(PolyError):
        gen(T2, 4, "t1") + gen(T2, 5, "t1")


def test_inhomogeneous_binding_rejected():
    V = GeneratorTable([("v1", 1)])
    L = GeneratorTable([("l1", 1)])
    bad = GradedPoly.const(L, 4, 1) + gen(L, 4, "l1")  # mixed weights 0 and 1
    with pytest.raises(PolyError):
        gen(V, 4, "v1").substitute({"v1": bad})


@st.composite
def _polys(draw):
    bound = 4
    mons = list(monomials_up_to_weight(T2, bound))
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        exps = draw(st.sampled_from(mons))
        terms[exps] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
    return GradedPoly(T2, bound, terms)


@settings(max_examples=40, deadline=None)
@given(x=_polys(), y=_polys(), z=_polys())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


def test_truncation_is_a_quotient():
    # computing at a higher bound and then truncating agrees with
    # computing at the lower bound directly
    rng = random.Random(5)
    for _ in range(20):
        hi_x = _random_poly(rng, T2, 8)
        hi_y = _random_poly(rng, T2, 8)
        lo_x = GradedPoly(T2, 4, {e: c for e, c in hi_x.terms.items()})
        lo_y = GradedPoly(T2, 4, {e: c for e, c in hi_y.terms.items()})
        hi_prod = hi_x * hi_y
        cut = GradedPoly(T2, 4, {e: c for e, c in hi_prod.terms.items()})
        assert cut == lo_x * lo_y


def test_grading_bound_on_products():
    rng = random.Random(3)
    for _ in range(10):
        x = _random_poly(rng, T2, 5)
        y = _random_poly(rng, T2, 5)
        assert (x * y).max_weight() <= min(5, x.max_weight() + y.max_weight())


def test_mulinear_coefficient_poly_products():
    # coefficients are rational only: a mu-linear form is refused everywhere
    ml = MuLinear.unit(1)
    with pytest.raises(TypeError):
        GradedPoly.const(T2, 4, ml)
    with pytest.raises(TypeError):
        GradedPoly(T2, 4, {(1, 0): ml})
    with pytest.raises(TypeError):
        _ = gen(T2, 4, "t1") * ml
    with pytest.raises(TypeError):
        GradedPoly.const(T2, 4, 1.5)


def test_to_text_canonical():
    x = gen(T2, 5, "t2") + gen(T2, 5, "t1", 3) * Fraction(2, 7) + GradedPoly.const(T2, 5, 1)
    assert x.to_text() == "1 + 2/7*t1^3 + t2"
    assert GradedPoly.zero(T2, 5).to_text() == "0"


def test_monomials_up_to_weight():
    mons = list(monomials_up_to_weight(T2, 5))
    assert (0, 0) in mons and (5, 0) in mons and (1, 1) in mons
    assert (2, 1) not in mons  # weight 6
    assert len(mons) == len(set(mons))
    assert mons == sorted(mons)


def test_weight_zero_generator():
    # allowed, but its powers are unbounded, so the monomials cannot be listed
    VU = GeneratorTable([("v1", 1), ("u", 0)])
    u = gen(VU, 2, "u")
    assert (u ** 5 * gen(VU, 2, "v1", 2)).coefficient_of({"u": 5, "v1": 2}) == 1
    with pytest.raises(PolyError, match="'u' has weight 0"):
        list(monomials_up_to_weight(VU, 3))
    with pytest.raises(PolyError, match="non-negative integer weight"):
        GeneratorTable([("g", -1)])


# -- oracle: the kernel against untruncated dict arithmetic ---------------

def _ref_mul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def _ref_pow(x, k, width):
    out = {(0,) * width: Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, x)
    return out


def _ref_weight(table, exps):
    return sum(e * w for e, w in zip(exps, table.weights))


def _ref_truncate(table, bound, terms):
    # truncation commutes with the ring operations, so cutting once at
    # the end gives the truncated result
    return {e: c for e, c in terms.items()
            if c and _ref_weight(table, e) <= bound}


def _assert_invariants(x):
    for e, c in x.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == len(x.table)
        assert all(type(v) is int and v >= 0 for v in e)
        assert _ref_weight(x.table, e) <= x.bound


_COEFFS = st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]), st.sampled_from([1, 2]))


def _poly_over(draw, table, bound, mons):
    terms = {}
    if not mons:
        return GradedPoly(table, bound)
    for exps in draw(st.lists(st.sampled_from(mons), max_size=4)):
        terms[exps] = draw(_COEFFS)
    return GradedPoly(table, bound, terms)


@st.composite
def _kernel_case(draw):
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    bound = draw(st.integers(0, 6))
    table = GeneratorTable((f"g{i}", w) for i, w in enumerate(weights))
    # monomials up to a little past the bound, so the constructor truncates too
    mons = list(monomials_up_to_weight(table, bound + 2))
    a, b = (_poly_over(draw, table, bound, mons) for _ in range(2))
    c = draw(st.one_of(st.just(Fraction(0)), _COEFFS))
    k = draw(st.integers(0, 4))
    # over one weight-1 generator every image is a monomial, so distinct
    # terms of `a` often land on one monomial and cancel
    target_weights = draw(st.sampled_from([weights, [1]]))
    target = GeneratorTable((f"h{i}", w) for i, w in enumerate(target_weights))
    target_mons = list(monomials_up_to_weight(target, bound + 2))
    images = {}
    for name, w in zip(table.names, weights):
        homogeneous = [e for e in target_mons if _ref_weight(target, e) == w]
        images[name] = _poly_over(draw, target, bound, homogeneous)
    return table, bound, a, b, c, k, target, images


def _cancelling_case():
    # g0 and g1 both go to h0 with opposite signs: substitution cancels
    table = GeneratorTable([("g0", 1), ("g1", 1)])
    target = GeneratorTable([("h0", 1)])
    a = GradedPoly(table, 3, {(1, 0): 1, (0, 1): 1, (1, 1): 2, (0, 2): 2})
    b = GradedPoly(table, 3, {(1, 0): -1, (0, 1): 1})
    h0 = GradedPoly.gen(target, 3, "h0")
    return table, 3, a, b, Fraction(-1, 2), 3, target, {"g0": h0, "g1": -h0}


def _weight_zero_case():
    # u and z have weight 0, so truncation bounds only the other degrees;
    # the images mix u-degrees like hopf's theta images
    table = GeneratorTable([("g0", 1), ("g1", 2), ("z", 0)])
    target = GeneratorTable([("h0", 1), ("u", 0)])
    a = GradedPoly(table, 4, {(1, 0, 0): 1, (0, 1, 1): -2, (2, 1, 3): Fraction(1, 2),
                              (4, 0, 0): 3, (0, 0, 2): Fraction(-1, 2)})
    b = GradedPoly(table, 4, {(0, 0, 1): 1, (1, 0, 0): -1, (3, 1, 0): 5})
    h0, u = (GradedPoly.gen(target, 4, name) for name in ("h0", "u"))
    images = {"g0": u * h0 - h0, "g1": (u ** 3 - u * 2) * h0 * h0 * Fraction(1, 3),
              "z": u * 2 - GradedPoly.const(target, 4, 1)}
    return table, 4, a, b, Fraction(3), 3, target, images


@settings(max_examples=150, deadline=None)
@given(case=_kernel_case())
@example(case=_cancelling_case())
@example(case=_weight_zero_case())
def test_kernel_against_naive_oracle(case):
    table, bound, a, b, c, k, target, images = case
    width = len(table)

    def check(result, ref_table, ref_terms):
        _assert_invariants(result)
        assert result.terms == _ref_truncate(ref_table, bound, ref_terms)

    summed = dict(a.terms)
    for e, v in b.terms.items():
        summed[e] = summed.get(e, Fraction(0)) + v
    check(a + b, table, summed)
    check(a + (-a), table, {})
    check(-a, table, {e: -v for e, v in a.terms.items()})
    check(a * b, table, _ref_mul(a.terms, b.terms))
    check(a * c, table, {e: v * c for e, v in a.terms.items()})

    twin = GradedPoly(table, bound, a.terms)
    digest = hash(a)
    first = a ** k
    check(first, table, _ref_pow(a.terms, k, width))
    again = a ** k
    check(again, table, _ref_pow(a.terms, k, width))
    assert again == first
    assert a == twin and hash(a) == digest

    ref_sub = {}
    for exps, v in a.terms.items():
        term = {(0,) * len(target): v}
        for name, e in zip(table.names, exps):
            term = _ref_mul(term, _ref_pow(images[name].terms, e, len(target)))
        for key, d in term.items():
            ref_sub[key] = ref_sub.get(key, Fraction(0)) + d
    check(a.substitute(images), target, ref_sub)
    for img in images.values():
        _assert_invariants(img)
