import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpadams.arith import (INFINITY, Prime, delta_p, dot, find_q, format_rational, gamma_p,
                           gaussian, gaussian_poly, is_p_local_int, is_p_local_unit,
                           is_prime, multiplicative_order, nu_p, parse_rational, val_p,
                           validate_q)


def test_prime_validation():
    assert is_prime(2) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)
    assert Prime(7) == 7
    with pytest.raises(ValueError):
        Prime(9)


def test_nu_p_examples():
    assert nu_p(3, 6) == 1
    assert nu_p(2, 12) == 2
    assert nu_p(5, 0) == INFINITY


def test_val_p_examples():
    assert val_p(3, Fraction(9, 2)) == 2
    assert val_p(3, Fraction(2, 3)) == -1
    assert val_p(2, Fraction(0)) == INFINITY


def test_p_local_membership_examples():
    assert is_p_local_int(3, Fraction(5, 2)) and is_p_local_unit(3, Fraction(5, 2))
    assert not is_p_local_int(3, Fraction(1, 3)) and not is_p_local_unit(3, Fraction(1, 3))
    assert is_p_local_int(2, 6) and not is_p_local_unit(2, 6)


def test_delta_p_examples():
    assert delta_p(3, 3) == 4
    assert delta_p(2, 4) == 7
    assert delta_p(5, 0) == 0


def test_delta_p_prime_power_sum():
    # delta_p(p^r) = 1 + p + ... + p^r
    for p in (2, 3, 5):
        for r in range(6):
            assert delta_p(p, p**r) == sum(p**k for k in range(r + 1))


def test_gamma_p_examples():
    assert gamma_p(3, 5) == delta_p(3, 2) == 2
    for n in range(21):
        assert gamma_p(2, n) == delta_p(2, n)
    assert gamma_p(5, 3) == 0


def test_gaussian_examples():
    assert gaussian_poly(2, 1) == (1, 1)  # 1 + t
    assert gaussian(2, 1, 4) == 5
    for n in range(6):
        assert gaussian(n, 0, Fraction(7, 3)) == 1
    # convention: i > n gives zero
    assert gaussian(3, 5, 10) == 0


def test_gaussian_symmetry_bruteforce():
    for n in range(9):
        for i in range(n + 1):
            for t in (3, Fraction(5, 2), -2):
                assert gaussian(n, i, t) == gaussian(n, n - i, t)


def _gaussian_product_oracle(n: int, i: int, t: Fraction) -> Fraction:
    # independent oracle: the defining quotient of products, at a point
    # where no denominator factor vanishes
    num = Fraction(1)
    den = Fraction(1)
    for k in range(i):
        num *= 1 - t ** (n - k)
        den *= 1 - t ** (i - k)
    return num / den


def test_gaussian_matches_product_formula():
    for n in range(11):
        for i in range(n + 1):
            for t in (Fraction(2), Fraction(3), Fraction(-5, 7)):
                if i and any(t ** (i - k) == 1 for k in range(i)):
                    continue
                assert gaussian(n, i, t) == _gaussian_product_oracle(n, i, t)


def test_gaussian_coefficients_nonneg_and_pascal():
    for n in range(1, 11):
        for i in range(n + 1):
            coeffs = gaussian_poly(n, i)
            assert all(c >= 0 for c in coeffs)
            lo = gaussian_poly(n - 1, i - 1) if i else (0,)
            hi = gaussian_poly(n - 1, i)
            width = max(len(coeffs), len(lo), len(hi) + i)
            lhs = list(coeffs) + [0] * (width - len(coeffs))
            rhs = [0] * width
            if i:
                for k, c in enumerate(lo):
                    rhs[k] += c
            if i <= n - 1:
                for k, c in enumerate(hi):
                    rhs[k + i] += c
            elif i == n:
                pass  # [n-1, n] = 0
            assert lhs == rhs, (n, i)


def test_find_q_examples():
    # oracle: exhaustive multiplicative-order computation
    assert find_q(3) == 2
    assert multiplicative_order(2, 9) == 6
    assert find_q(5) == 2
    assert multiplicative_order(2, 25) == 20
    assert find_q(7) == 3
    assert multiplicative_order(3, 49) == 42
    assert multiplicative_order(2, 49) == 21  # 2 is not primitive mod 49
    assert find_q(2) == (3, -1)


def test_validate_q():
    assert validate_q(3, None) is None and validate_q(2, None) is None
    assert validate_q(3, 2) == 2 and validate_q(5, 2) == 2
    with pytest.raises(ValueError, match="p = 2"):
        validate_q(2, 7)  # the 2-local generators are fixed as (3, -1)
    with pytest.raises(ValueError, match="divisible by p = 3"):
        validate_q(3, 9)
    with pytest.raises(ValueError, match="order is 4, need 20"):
        validate_q(5, 7)
    with pytest.raises(ValueError, match="not a prime"):
        validate_q(4, 3)


def test_find_q_order_invariant():
    for p in (3, 5, 7):
        q = find_q(p)
        for r in range(1, 5):
            euler = p ** (r - 1) * (p - 1) if r else 1
            assert multiplicative_order(q, p**r) == (euler if r > 0 else 1)


_fractions = st.fractions(min_value=-100, max_value=100, max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(x=_fractions, y=_fractions)
def test_valuation_properties(x, y):
    for p in (2, 5):
        assert val_p(p, x * y) == val_p(p, x) + val_p(p, y)
        assert val_p(p, x + y) >= min(val_p(p, x), val_p(p, y))


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational(7) == Fraction(7)
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(6, 3)) == "2"
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_dot_exact():
    assert dot([1, Fraction(1, 2)], [Fraction(1, 3), 4]) == Fraction(7, 3)
    assert dot([Fraction(2, 3)], [Fraction(3, 2)]) == 1
    # the shorter input sets the length; the result is always a Fraction
    assert dot([2, 3, 5], [1, 1]) == 5
    assert type(dot([2], [3])) is Fraction
    assert dot([], []) == 0 and type(dot([], [])) is Fraction
