"""The special elements d_n on integers against the ``Fraction`` reference
(:mod:`special_reference`), their checks by injection, and the element
views that a verify run never builds."""

import collections
import pickle
import random
import sys
from fractions import Fraction

import pytest

import special_reference
from bpadams import hopf
from bpadams.arith import delta_p, integer_numerators
from bpadams.centre import verify_centre_bp
from bpadams.fgl import BPContext
from bpadams.hopf import ConstructionError, special_element, t_gen
from bpadams.polyring import GradedPoly


def _top(p, W):
    """The largest n with delta_p(n) <= W."""
    n = 0
    while delta_p(p, n + 1) <= W:
        n += 1
    return n


def _same(d, element, row):
    assert d.element.to_text() == element.to_text()
    assert d.element.terms == element.terms
    assert d.c == row
    assert (list(d.numerators), d.den) == integer_numerators(row)


@pytest.mark.parametrize("p, W", [(2, 31), (2, 38), (3, 40), (5, 62), (7, 16)])
def test_special_elements_against_the_fraction_reference(p, W):
    top = _top(p, W)
    assert top >= p
    # one context shared with the reference: the integer construction
    # fills it from the top index down, then the reference fills it
    shared = BPContext(p, W)
    for n in range(top, -1, -1):
        special_element(shared, n)
    cache = {}
    want = {n: special_reference.special(shared, n, cache) for n in range(top + 1)}
    for n in range(top + 1):
        d = special_element(shared, n)
        _same(d, *want[n])
        assert d.element == want[n][0], (p, n)
    # a context of its own, filled upwards, whose bound is above every
    # delta_p(n) (at (2, 31) its key fields are a bit wider)
    wide = BPContext(p, W + 1)
    assert wide.lt_table == shared.lt_table
    for n in range(top + 1):
        _same(special_element(wide, n), *want[n])


def test_the_correction_check_by_injection(monkeypatch):
    # alphabar_k scaled by p gives work a non-integral correction at
    # t_1^6 when d_4 is built; the lower d_2 still builds
    alphabar = BPContext.alphabar
    monkeypatch.setattr(BPContext, "alphabar", lambda self, k: alphabar(self, k) * self.p)
    for p, n, m, coefficient in [
            (2, 4, 6, "-265/12446"),
            (3, 9, 10, "-578241639517466363/394172853196936698000")]:
        message = f"correction coefficient for t_1^{m} is not {p}-locally integral"
        details = {"n": n, "m": m, "coefficient": coefficient}
        for build in (lambda c: special_element(c, n),
                      lambda c: special_reference.special(c, n, {})):
            with pytest.raises(ConstructionError) as err:
                build(BPContext(p, delta_p(p, n)))
            assert str(err.value) == message and err.value.details == details, (p, n)


def test_the_remainder_check_by_a_wrong_lower_element():
    # d_1 = t_1 + 1 in the cache: (t_1 + 1)^2 - t_1^2 = 2 t_1 + 1 is not
    # divisible by 2^2, so d_2 fails at k = 1
    message = "inductive remainder for k=1 is not integral"
    c = BPContext(2, delta_p(2, 2))
    d1 = special_element(c, 1)
    (key,) = d1._poly[0]
    assert d1._poly == ({key: 1}, 1)
    c._hopf_cache["special"][1] = hopf.SpecialElement(
        2, 1, d1._row, d1.den, d1._table, d1._bound, ({key: 1, 0: 1}, 1))
    with pytest.raises(ConstructionError) as err:
        special_element(c, 2)
    assert str(err.value) == message and err.value.details == {"n": 2, "k": 1}
    ref = BPContext(2, delta_p(2, 2))
    with pytest.raises(ConstructionError) as err:
        special_reference.special(ref, 2, {1: (t_gen(ref, 1) + GradedPoly.const(
            ref.lt_table, ref.weight_bound, 1), d1.c)})
    assert str(err.value) == message and err.value.details == {"n": 2, "k": 1}


@pytest.mark.parametrize("p", [2, 3])
def test_the_remainder_check_at_its_edge(p, monkeypatch):
    # d_1^p with its numerators times 1 + e: the remainder
    # (d_1^p - t_1^p) / p^2 has valuation 1 at e = p, integral at e = p^2
    c = BPContext(p, delta_p(p, p))
    hopf._theta_numerators(c)
    special_element(c, 1)
    power = hopf._power

    def scaled(e):
        def wrong(image, exponent):
            num, den = power(image, exponent)
            return {key: x * (1 + e) for key, x in num.items()}, den
        return wrong

    monkeypatch.setattr(hopf, "_power", scaled(p))
    with pytest.raises(ConstructionError) as err:
        special_element(c, p)
    assert str(err.value) == "inductive remainder for k=1 is not integral"
    assert err.value.details == {"n": p, "k": 1}
    monkeypatch.setattr(hopf, "_power", scaled(p * p))
    assert special_element(c, p).n == p


@pytest.mark.parametrize("p", [2, 3])
def test_the_integer_profile_check_raises_the_profile_error(p, monkeypatch):
    # d_1's row injected as its shadow of t_1, with budget delta_p(1) = 1:
    # support above n, an entry below -1 and a pivot of valuation 0.  The
    # check on the integers refuses each with the error of _check_profile
    # on the same row, message and details
    rows = [({0: 1, 1: 1, 2: 1}, p), ({0: 1, 1: 1}, p * p), ({0: 1, 1: p}, p)]
    for row, den in rows:
        monkeypatch.setattr(hopf, "_v1_power", lambda ctx, g, e: (dict(row), den))
        with pytest.raises(ConstructionError) as got:
            special_element(BPContext(p, delta_p(p, 1)), 1)
        with pytest.raises(ConstructionError) as want:
            hopf._check_profile(p, 1, hopf.MuLinear._from_numerators(row, den))
        assert str(got.value) == str(want.value), (p, row, den)
        assert got.value.details == want.value.details, (p, row, den)


def test_the_integer_profile_check_agrees_with_the_fraction_check(monkeypatch):
    # random rows of d_1 on mu_0..mu_2 around the budget 1, injected as
    # above: d_1 builds exactly when _check_profile passes its row, and
    # fails with that function's error otherwise
    rng = random.Random(31)
    outcomes = collections.Counter()
    for _ in range(600):
        p = rng.choice((2, 3, 5))
        den = p ** rng.randint(0, 3) * rng.choice((1, 7))
        row = {j: rng.choice((1, -1)) * p ** rng.randint(0, 2) * rng.choice((1, 2, 13))
               for j in rng.sample(range(3), rng.randint(1, 3)) if j < 2 or rng.random() < 0.3}
        monkeypatch.setattr(hopf, "_v1_power", lambda ctx, g, e: (dict(row), den))
        try:
            want = hopf._check_profile(p, 1, hopf.MuLinear._from_numerators(row, den))
        except ConstructionError as exc:
            want = exc
        try:
            got = special_element(BPContext(p, delta_p(p, 1)), 1)
        except ConstructionError as exc:
            assert isinstance(want, ConstructionError), (p, row, den)
            assert (str(exc), exc.details) == (str(want), want.details), (p, row, den)
            outcomes[str(exc).split()[0]] += 1
        else:
            assert not isinstance(want, ConstructionError), (p, row, den)
            assert got.c == want, (p, row, den)
            outcomes["built"] += 1
    assert set(outcomes) == {"built", "functional", "entry", "pivot"}, outcomes


def test_a_verify_run_builds_no_special_element_polynomial(monkeypatch):
    def refuse(d):
        raise AssertionError(f"the polynomial of d_{d.n} was built")

    monkeypatch.setattr(hopf.SpecialElement, "element", property(refuse))
    callers = []
    mul = GradedPoly.__mul__

    def counted(self, other):
        callers.append(sys._getframe(1).f_code)
        return mul(self, other)

    monkeypatch.setattr(GradedPoly, "__mul__", counted)
    for p in (2, 5):
        assert verify_centre_bp(p, 12)["verdict"]
    assert callers
    assert set(callers) == {BPContext._build_l_in_v.__code__}


def test_element_views_are_built_once_on_demand():
    c = BPContext(3, delta_p(3, 10))
    d = special_element(c, 10)
    assert "element" not in vars(d)
    view = d.element
    assert d.element is view and vars(d)["element"] is view
    assert special_element(c, 0).element == GradedPoly.const(c.lt_table, c.weight_bound, 1)
    assert d == special_element(c, 10) and hash(d) == hash(special_element(c, 10))
    assert d.c == tuple(Fraction(x, d.den) for x in d.numerators)
    # plain data: a copy compares equal, its view built afresh or carried
    assert pickle.loads(pickle.dumps(special_element(c, 9))) == special_element(c, 9)
    assert pickle.loads(pickle.dumps(d)) == d


def test_a_verify_run_reads_the_composite_rows_as_integers(monkeypatch):
    # the report's c_bp strings come from the integers; no d_n with n >= 1,
    # composite or prime power, builds its Fraction row, and read, that row
    # is the integers' and the report's strings are its format
    from bpadams import centre
    from bpadams.arith import format_over, format_rational

    built = {}
    real = centre.special_element

    def recorded(ctx, n):
        built[n] = real(ctx, n)
        return built[n]

    monkeypatch.setattr(centre, "special_element", recorded)
    report = verify_centre_bp(5, 24)
    assert report["verdict"] and sorted(built) == list(range(25))
    composites = [d for d in built.values() if d._factors is not None]
    assert len(composites) == 22
    assert not any("c" in vars(d) for d in built.values() if d.n)
    for row in report["rows"]:
        d = built[row["n"]]
        assert d.c == tuple(Fraction(x, d.den) for x in d.numerators)
        assert row["c_bp"] == [format_rational(x) for x in d.c]
        assert d.to_jsonable()["c"] == row["c_bp"] == format_over(d.numerators, d.den)
    assert all("c" in vars(d) for d in composites)
