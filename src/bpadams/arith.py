"""Exact p-local arithmetic.

Valuations of rationals, p-local integrality tests, the factorial
valuation budgets ``delta_p`` / ``gamma_p``, Gaussian (q-binomial)
polynomials, and primitive-root search modulo p^2.

Everything here is exact: values are python ints and
:class:`fractions.Fraction`; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable

#: Exact rational scalar used throughout the package.
Rational = Fraction

#: Marker for the valuation of zero (compares correctly with ints).
INFINITY = math.inf


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def ensure_prime(p: int) -> int:
    """Return ``p`` if it is a prime integer, else raise ``ValueError``."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")
    return p


class Prime(int):
    """An int validated to be prime on construction."""

    def __new__(cls, p: int) -> "Prime":
        return super().__new__(cls, ensure_prime(int(p)))


def nu_p(p: int, n: int) -> int | float:
    """Largest e with p**e dividing n; ``INFINITY`` for n == 0."""
    ensure_prime(p)
    if n == 0:
        return INFINITY
    n = abs(int(n))
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def val_p(p: int, x: Fraction | int) -> int | float:
    """p-adic valuation of a rational: nu_p(num) - nu_p(den); INFINITY at 0."""
    x = Fraction(x)
    if x == 0:
        return INFINITY
    # x is in lowest terms, so at most one of the two terms is nonzero.
    return nu_p(p, x.numerator) - nu_p(p, x.denominator)


def is_p_local_int(p: int, x: Fraction | int) -> bool:
    """True iff x lies in Z_(p), i.e. val_p(x) >= 0."""
    return val_p(p, x) >= 0


def is_p_local_unit(p: int, x: Fraction | int) -> bool:
    """True iff x is a unit of Z_(p), i.e. val_p(x) == 0."""
    return val_p(p, x) == 0


def nu_p_factorial(p: int, n: int) -> int:
    """nu_p(n!) by the Legendre sum of floor(n / p^k)."""
    ensure_prime(p)
    if n < 0:
        raise ValueError("factorial of a negative integer")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def delta_p(p: int, n: int) -> int:
    """n + nu_p(n!), the valuation budget at index n."""
    return n + nu_p_factorial(p, n)


def gamma_p(p: int, i: int) -> int:
    """delta_p(floor(i / (p - 1))), the interleaved valuation budget."""
    ensure_prime(p)
    if i < 0:
        raise ValueError("negative index")
    return delta_p(p, i // (p - 1))


@lru_cache(maxsize=None)
def gaussian_poly(n: int, i: int) -> tuple[int, ...]:
    """Coefficients (ascending in t) of the Gaussian polynomial [n, i]_t.

    Computed through the Pascal-type recurrence
    ``[n, i] = [n-1, i-1] + t^i [n-1, i]`` so every coefficient is an
    exact non-negative integer.  ``i > n`` yields the zero polynomial
    (standard convention).
    """
    if n < 0 or i < 0 or i > n:
        return (0,)
    if i == 0 or i == n:
        return (1,)
    lo = gaussian_poly(n - 1, i - 1)
    hi = gaussian_poly(n - 1, i)
    out = [0] * max(len(lo), len(hi) + i)
    for k, c in enumerate(lo):
        out[k] += c
    for k, c in enumerate(hi):
        out[k + i] += c
    return tuple(out)


def gaussian(n: int, i: int, t: Fraction | int) -> Fraction:
    """Value of the Gaussian polynomial [n, i]_t at t.

    Evaluated from the expanded integer-coefficient polynomial, never
    from the quotient-of-products form, so integer t gives an exact
    integer result regardless of vanishing denominators.
    """
    t = Fraction(t)
    acc = Fraction(0)
    power = Fraction(1)
    for c in gaussian_poly(n, i):
        if c:
            acc += c * power
        power *= t
    return acc


def dot(xs: Iterable[Fraction | int], ys: Iterable[Fraction | int]) -> Fraction:
    """Exact dot product sum_i x_i * y_i, over the shorter of the two inputs."""
    return sum(map(mul, xs, ys), Fraction(0))


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)^*; ValueError if gcd(a, modulus) != 1."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit modulo {modulus}")
    k, x = 1, a
    while x != 1:
        x = x * a % modulus
        k += 1
    return k


def is_primitive_mod_p2(q: int, p: int) -> bool:
    """True iff q generates (Z/p^2)^* (and hence (Z/p^r)^* for all r)."""
    ensure_prime(p)
    if p == 2:
        raise ValueError("no primitive root convention at p = 2")
    if q % p == 0:
        return False
    return multiplicative_order(q, p * p) == p * (p - 1)


def validate_q(p: int, q: int | None) -> int | None:
    """Return an explicitly chosen generator q, or None, after checking it.

    At p = 2 the generators are fixed as (3, -1), so any explicit q is
    refused; for odd p, q must be prime to p and primitive modulo p^2.
    Raises ``ValueError`` with the reason.
    """
    ensure_prime(p)
    if q is None:
        return None
    if p == 2:
        raise ValueError(f"q={q} cannot be chosen at p = 2: the 2-local "
                         "generators are fixed as (3, -1)")
    if q % p == 0:
        raise ValueError(f"q={q} is divisible by p = {p}, so it is not a unit "
                         f"modulo {p}^2")
    order = multiplicative_order(q, p * p)
    if order != p * (p - 1):
        raise ValueError(
            f"q={q} is not primitive modulo {p}^2 (its multiplicative order "
            f"is {order}, need {p * (p - 1)})")
    return q


def find_q(p: int) -> int | tuple[int, int]:
    """Smallest positive q primitive modulo p^2 (p odd).

    For p = 2 the multiplicative group is not cyclic and the pair
    convention ``(3, -1)`` is returned: 3 and -1 together generate the
    2-adic units.
    """
    ensure_prime(p)
    if p == 2:
        return (3, -1)
    q = 2
    while True:
        if q % p != 0 and is_primitive_mod_p2(q, p):
            return q
        q += 1


def parse_rational(text: object) -> Fraction:
    """Parse an exact rational from "a/b" or "a" (ints accepted, floats not)."""
    if isinstance(text, bool):
        raise ValueError(f"not an exact rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError("floating point input rejected; use exact strings like '3/4'")
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"not an exact rational: {text!r}")
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def format_rational(x: Fraction | int) -> str:
    """Canonical "a/b" (or "a") rendering of an exact rational."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
