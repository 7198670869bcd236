"""Exact p-local arithmetic.

Valuations of rationals, p-local integrality tests, the factorial
valuation budgets ``delta_p`` / ``gamma_p``, Gaussian (q-binomial)
polynomials, and primitive-root search modulo p^2.

Everything here is exact: values are python ints and
:class:`fractions.Fraction`; there is no floating point anywhere.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, mul

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


def _integer(n: object) -> int:
    """n if it is an int and not a bool, else ``ValueError``: a float or a
    ``Fraction`` would be truncated or floor-divided into a wrong answer."""
    if isinstance(n, int) and not isinstance(n, bool):
        return n
    raise ValueError(f"not an integer: {n!r}")


def ensure_prime(p: int) -> int:
    """Return ``p`` if it is a prime integer, else raise ``ValueError``."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")
    return p


class _Record:
    """Base of the package's immutable records.

    ``==``, ``hash`` and ``repr`` read the fields named in the class's
    ``_fields``, two or more names in order: two records are equal when
    they are of the same class and those fields are, the hash is that of
    the tuple of their values, and the repr is ``Name(field=value, ...)``.
    A subclass's ``__init__`` checks its arguments and stores every
    attribute by ``self.__dict__.update``; no attribute can be assigned or
    deleted (``AttributeError``).  Attributes outside ``_fields`` are
    stored but neither compared nor shown.  Instances keep a ``__dict__``,
    so ``functools.cached_property`` works on them, and pickle and
    ``copy`` rebuild them from it.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of the field values, read in C: ``family_action``'s
        # memo hashes an AdamsFamily on every call
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _nu(p: int, n: int) -> int:
    """Largest e with p**e dividing the non-zero int n (p not checked)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _shape_holds(p: int, budget: int, top: int | None, entries: Iterable[int],
                 den: int) -> bool:
    """The shape hypotheses on a row's integers: with t = nu_p(den) - budget,
    the pivot ``top`` / den has valuation -budget iff ``top`` is not 0 and
    nu_p(top) = t, and an entry N / den of ``entries`` has valuation
    >= -budget iff p^t divides N (always when t = 0)."""
    t = _nu(p, den) - budget
    if not top or _nu(p, top) != t:
        return False
    bound = p ** t
    return bound == 1 or not any(x % bound for x in entries)


def nu_p(p: int, n: int) -> int | float:
    """Largest e with p**e dividing the int n; ``INFINITY`` for n == 0."""
    ensure_prime(p)
    if _integer(n) == 0:
        return INFINITY
    return _nu(p, n)


def val_p(p: int, x: Fraction | int) -> int | float:
    """p-adic valuation of a rational: nu_p(num) - nu_p(den); INFINITY at 0.

    Takes an int or a ``Fraction`` as it is and checks p once; a float,
    which has no denominator, is refused (``ValueError``).  x is in lowest
    terms, so p divides at most one of its numerator and denominator: one
    loop runs, on whichever p divides.
    """
    try:
        den = x.denominator
    except AttributeError:
        raise ValueError(f"not an exact rational: {x!r}") from None
    if not x:
        return INFINITY
    ensure_prime(p)
    if den % p:
        return _nu(p, x.numerator)
    return -_nu(p, den)


def is_p_local_int(p: int, x: Fraction | int) -> bool:
    """True iff x lies in Z_(p), i.e. val_p(x) >= 0."""
    return val_p(p, x) >= 0


def nu_p_factorial(p: int, n: int) -> int:
    """nu_p(n!) by the Legendre sum of floor(n / p^k), for an int n."""
    ensure_prime(p)
    if _integer(n) < 0:
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
    """delta_p(floor(i / (p - 1))), the interleaved valuation budget, for
    an int i."""
    ensure_prime(p)
    if _integer(i) < 0:
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

    Evaluated by Horner's rule from the expanded integer-coefficient
    polynomial, never from the quotient-of-products form, so integer t
    gives an exact integer result (computed in ints) regardless of
    vanishing denominators.  A ``Fraction`` t is read as it is, and a float
    is refused (:func:`exact`).
    """
    if not isinstance(t, int):
        t = exact(t)
    acc = 0
    for c in reversed(gaussian_poly(n, i)):
        acc = acc * t + c
    return Fraction(acc)


def exact(x: object) -> Fraction:
    """x as a ``Fraction``, or ``ValueError`` for a float: its binary value
    would read 1/3 as a dyadic rational, which is 3-integral."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError("floating point input rejected; use exact strings like '3/4'")
    return Fraction(x)


def integer_numerators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(N, D) with D the lcm of the denominators of ``values`` and
    N_i = D * values_i, an int: the values as integers over one denominator.
    A value other than an int or a ``Fraction`` is read by :func:`exact`."""
    values = [x if isinstance(x, (int, Fraction)) else exact(x) for x in values]
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def integral_dot(p: int, row: tuple[Sequence[int], int],
                 mu: tuple[Sequence[int], int]) -> bool:
    """Whether row . mu, over the shorter of the two, lies in Z_(p), from
    their integers (N, D) and (M, L), D, L > 0 and not necessarily least:
    p^(nu_p(D) + nu_p(L)) divides sum_i N_i M_i.  p is not checked."""
    (nums, den), (mu_nums, mu_den) = row, mu
    return not sum(map(mul, nums, mu_nums)) % p ** (_nu(p, den) + _nu(p, mu_den))


#: whether the host's words are little-endian, as the bytes of a packed row
#: are: only then does ``memoryview.cast`` read its fields as they are
_LITTLE_ENDIAN = sys.byteorder == "little"


def word_width(bits: int) -> int:
    """``bits`` rounded up to whole 32-bit words: the width a row of
    :class:`WordCodec` is packed at."""
    return -(-bits // 32) * 32


class WordCodec:
    """Rows of signed digits packed in whole 32-bit words.

    A row c_0..c_m at width R, a multiple of 32, is the int
    r = sum_j c_j * 2^(R * j) (Kronecker substitution u -> 2^R), every
    |c_j| < 2^(R - 1).  Adding the offset 2^(R - 1) * sum_{j<m} 2^(R * j),
    m the row's digit count, makes every digit c_j + 2^(R - 1) lie in
    [0, 2^R): the sum is an unsigned int whose little-endian bytes hold
    digit j in bytes R/8 * j .. R/8 * (j + 1), so the digits come out of
    one ``to_bytes`` (read as native words by ``memoryview.cast`` on a
    little-endian host, field by field on a big-endian one) and no digit
    is split off by a shift.  m is ``r.bit_length() // R + 1``: a top
    non-zero digit c_m leaves 2^(R * m - 1) < |r| < 2^(R * (m + 1) - 1).
    Digits of absolute value below 2^B take the width :func:`word_width`
    (B + 1), one bit for the sign.  The offsets depend on the widths and m alone and are kept per
    codec, one per width and shift: one codec serves one walk, one theta
    recursion, or all the lattices of :mod:`bpadams.lattice`.
    """

    __slots__ = ("_offsets",)

    def __init__(self):
        self._offsets: dict[tuple[int, int], tuple[int, int]] = {}

    def _offset(self, width: int, count: int, shift: int) -> int:
        """2^shift * sum_{j<count} 2^(width * j), 0 <= shift < width: the top
        ``count`` digits of one such sum kept per (width, shift) and grown
        by doubling, shifted down; the digits below drop under 2^shift."""
        most, offset = self._offsets.get((width, shift), (0, 0))
        if count > most:
            most = max(count, 2 * most)
            offset = int.from_bytes(b"\1".ljust(width // 8, b"\0") * most, "little") << shift
            self._offsets[width, shift] = most, offset
        return offset >> width * (most - count)

    def pack(self, row: Sequence[int], width: int) -> int:
        """The dense row c_0..c_m as the int sum_j c_j * 2^(width * j), by
        Horner's rule from the top digit, which needs no offset."""
        packed = 0
        for c in reversed(row):
            packed = (packed << width) + c
        return packed

    def decode(self, packed: int, width: int) -> list[int]:
        """The signed digits c_0..c_m of ``packed``, m its top index (c_m is
        not 0 unless the row is 0): the inverse of :meth:`pack`, as a dense
        list.  Adding the offset makes digit j the field c_j + 2^(width - 1)
        of an unsigned int.  A row of 32- or 64-bit digits is then XORed
        with the same offset, which flips each field's top bit back, so
        field j holds c_j in two's complement, and it is one ``to_bytes``
        read as signed native words by ``memoryview.cast`` on a
        little-endian host.  A wider digit, or any digit on a big-endian
        host, is its field read by one ``int.from_bytes``, less
        2^(width - 1).  A row of one digit is that digit."""
        count = packed.bit_length() // width + 1
        if count == 1:
            return [packed]
        offset = self._offset(width, count, width - 1)
        if width <= 64 and _LITTLE_ENDIAN:
            data = ((packed + offset) ^ offset).to_bytes(count * width // 8, "little")
            return memoryview(data).cast("i" if width == 32 else "q").tolist()
        size, half, from_bytes = width // 8, 1 << (width - 1), int.from_bytes
        data = (packed + offset).to_bytes(count * size, "little")
        return [from_bytes(data[i:i + size], "little") - half for i in range(0, len(data), size)]

    def respread(self, rows: Sequence[int], width: int, wider: int) -> list[int]:
        """The rows at width ``wider`` >= ``width``, in one buffer: word i of
        each digit c_j + 2^(width - 1) moves to word i of the wider digit,
        one strided slice per word lane for all the rows, and each row comes
        out less its offset at the wider width."""
        size, wide, offset = width // 8, wider // 8, self._offset
        counts = [P.bit_length() // width + 1 for P in rows]
        data = b"".join([(P + offset(width, count, width - 1)).to_bytes(count * size, "little")
                         for P, count in zip(rows, counts)])
        lanes, wide_lanes = width // 32, wider // 32
        out = bytearray(len(data) // lanes * wide_lanes)
        words, spread = memoryview(data).cast("I"), memoryview(out).cast("I")
        for i in range(lanes):
            spread[i::wide_lanes] = words[i::lanes]
        view, start, spreads = memoryview(out), 0, []
        for count in counts:
            end = start + count * wide
            spreads.append(int.from_bytes(view[start:end], "little")
                           - offset(wider, count, width - 1))
            start = end
        return spreads


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


def validate_q(p: int, q: int | None) -> int:
    """The generator q in use: an explicit q after checking it, else the
    default (:func:`find_q` for odd p, 3 at p = 2).

    At p = 2 the generators are fixed as (3, -1), so any explicit q is
    refused; for odd p, q must be prime to p and primitive modulo p^2.
    Raises ``ValueError`` with the reason.
    """
    ensure_prime(p)
    if q is None:
        return 3 if p == 2 else find_q(p)
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


@lru_cache(maxsize=None, typed=True)
def find_q(p: int) -> int | tuple[int, int]:
    """Smallest positive q primitive modulo p^2 (p odd).

    For p = 2 the multiplicative group is not cyclic and the pair
    convention ``(3, -1)`` is returned: 3 and -1 together generate the
    2-adic units.  Memoised per p (``typed``, so a float or bool p is
    still checked and refused); a refused p is not cached.
    """
    ensure_prime(p)
    if p == 2:
        return (3, -1)
    q = 2
    while q % p == 0 or multiplicative_order(q, p * p) != p * (p - 1):
        q += 1
    return q


def read_rational(text: object) -> tuple[int, int]:
    """The exact rational "a/b" or "a" as integers (num, den), den > 0 and
    prime to num; an int, or a ``Fraction``, is read as it is, a float is
    refused (:func:`exact`), and so is anything else.  Each integer is
    ``int`` of its text (:func:`_read_int`), so signs, ``_`` and
    surrounding whitespace read as ``int`` reads them."""
    if type(text) is int:
        return text, 1
    if isinstance(text, str):
        s = text.strip()
        try:
            if "/" not in s:
                return _read_int(s), 1
            num, den = s.split("/")
            num, den = _read_int(num.strip()), _read_int(den.strip())
        except ValueError as exc:
            raise ValueError(f"not an exact rational: {text!r}") from exc
        if not den:
            raise ValueError(f"not an exact rational: {text!r}")
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return num // g, den // g
    if isinstance(text, bool) or not isinstance(text, (int, float, Fraction)):
        raise ValueError(f"not an exact rational: {text!r}")
    x = exact(text)
    return x.numerator, x.denominator


def _read_int(text: str) -> int:
    """``int(text)``, also past the interpreter's limit on str-to-int
    conversion (:func:`decimal`'s limit, read the other way): ``int`` is
    asked first, and only when it refuses a run of ASCII digits, with or
    without a sign, is the run split as high * 10^h + low, h half its
    digits, and each part read in turn.  Every other text ``int`` refuses
    is refused as it is."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text.startswith(("+", "-")) else text
        if not (digits.isascii() and digits.isdigit()):
            raise
    h = len(digits) // 2
    value = _read_int(digits[:-h]) * 10 ** h + _read_int(digits[-h:])
    return -value if text.startswith("-") else value


def parse_rational(text: object) -> Fraction:
    """Parse an exact rational from "a/b" or "a" (ints accepted, floats
    not): :func:`read_rational`, as a ``Fraction``."""
    return Fraction(*read_rational(text))


def decimal(x: int) -> str:
    """``str(x)``, also past the interpreter's limit on int-to-str conversion
    (``sys.set_int_max_str_digits``, 4,300 digits by default from CPython
    3.10.7 and 3.11 on), whatever it is set to: ``str`` is asked first, and
    only when it refuses is x split as high * 10^h + low, h about half of
    x's digits, each part written in turn and low padded with zeros to h
    digits."""
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + decimal(-x)
    h = x.bit_length() * 3 // 20  # half of x's digits at most: log10(2) > 0.3
    high, low = divmod(x, 10 ** h)
    return decimal(high) + decimal(low).zfill(h)


def format_rational(x: Fraction | int) -> str:
    """Canonical "a/b" (or "a") rendering of an exact rational, its
    integers written by :func:`decimal`.  An int or a ``Fraction`` is
    taken as it is; anything else is read by :func:`exact`, so a float is
    refused."""
    if type(x) is int:
        return decimal(x)
    if not isinstance(x, Fraction):
        x = exact(x)
    if x.denominator == 1:
        return decimal(x.numerator)
    return f"{decimal(x.numerator)}/{decimal(x.denominator)}"


def format_over(nums: Sequence[int], den: int) -> list[str]:
    """:func:`format_rational` of each N / den, den > 0, from the integers:
    N and den divided by their gcd, the sign on the numerator, each
    written by :func:`decimal`.  Each reduced denominator is written once
    per row, kept by its gcd."""
    out = []
    dens: dict[int, str] = {den: ""}
    for x in nums:
        g = math.gcd(x, den)
        d = dens.get(g)
        if d is None:
            d = dens[g] = "/" + decimal(den // g)
        out.append(decimal(x // g) + d)
    return out
