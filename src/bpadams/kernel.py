"""The integer kernel of :mod:`bpadams.hopf`: sparse integer polynomials
on packed monomial keys.

A polynomial is (N, D): integer numerators N on packed keys over one
denominator D.  A key is one int holding a monomial's exponents, a field
of ``width`` bits each (:func:`_key`), so a product of monomials is one
int addition, as long as no field carries.  The same kernel runs on
rows keyed by the packed v-monomial, each row one Kronecker-packed int,
and on u-degrees alone: one product (:func:`_multiply`), sum
(:func:`_combine`) and power (:func:`_power`) serve theta's images, the
walk, the v_1-shadows and the special elements, with the evaluator of
ring maps (:func:`_evaluate`) and the recursion on the generators of the
right unit (:func:`_t_recursion`).  It imports nothing from the package.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping


def _key(exps: Iterable[int], width: int) -> int:
    """The exponents as one int, a field of ``width`` bits each, the first
    at the top."""
    key = 0
    for e in exps:
        key = key << width | e
    return key


def _exponent_reader(count: int, width: int):
    """The inverse of :func:`_key` for ``count`` fields."""
    mask = (1 << width) - 1
    shifts = [width * i for i in reversed(range(count))]
    return lambda key: tuple(key >> s & mask for s in shifts)


def _multiply(image: Mapping[int, int], factor: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The product of two sparse images whose keys add under multiplication,
    ``factor`` given as (key, value) pairs that it iterates once per key of
    ``image``: sum over pairs of key1 + key2 -> value1 * value2, zero values
    dropped (the sum itself when none cancelled)."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in image.items():
        for k2, c2 in factor:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    if all(out.values()):
        return out
    return {key: c for key, c in out.items() if c}


def _reduced(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """(N, D) with the values N[key] / D as integers over the lcm of their
    denominators: N and D divided by their gcd, zero values dropped.  When
    the gcd is 1 and no value is zero, ``num`` itself is returned, so a
    caller passes a dict it does not keep."""
    g = math.gcd(den, *num.values())
    if g == 1 and all(num.values()):
        return num, den
    return {key: c // g for key, c in num.items() if c}, den // g


def _combine(terms: list[tuple[int, tuple[dict[int, int], int]]],
             reduced: bool = True) -> tuple[dict[int, int], int]:
    """sum_i s_i * N_i / D_i over the terms (s_i, (N_i, D_i)), s_i an int,
    as (N, D) on the same keys: summed over the lcm of the D_i, then
    divided by the gcd of that lcm and the numerators, so D is the lcm of
    the denominators of the sum's coefficients (as for
    :func:`bpadams.arith.integer_numerators`).  With ``reduced`` false the
    sum stays over the lcm of the D_i, zero values dropped."""
    den = math.lcm(*(d for _, (_, d) in terms))
    acc: dict[int, int] = {}
    get = acc.get
    for s, (num, d) in terms:
        scale = s * (den // d)
        for key, c in num.items():
            acc[key] = get(key, 0) + scale * c
    if reduced:
        return _reduced(acc, den)
    if all(acc.values()):
        return acc, den
    return {key: c for key, c in acc.items() if c}, den


def _l1_sum(terms: list[tuple[int, tuple[dict[int, int], int]]]) -> tuple[dict[int, int], int]:
    """The l1 bound of the unreduced :func:`_combine` of the terms, given
    each N_i as its norm {0: ||N_i||_1}: sum_i |s_i| * (D // D_i) *
    ||N_i||_1 over D, the lcm of the D_i."""
    return _combine([(abs(s), image) for s, image in terms], reduced=False)


def _power(image: tuple[dict[int, int], int], e: int) -> tuple[dict[int, int], int]:
    """(N, D)^e for e >= 1, by square-and-multiply on packed keys."""
    num, den = image
    result, base, k = None, num, e
    while k:
        if k & 1:
            result = base if result is None else _multiply(result, list(base.items()))
        k >>= 1
        if k:
            base = _multiply(base, list(base.items()))
    return result, den ** e


def _evaluate(terms: Iterable[tuple[tuple[int, ...], int, int]],
              power: Callable[[int, int], tuple[dict[int, int], int]],
              ) -> tuple[dict[int, int], int]:
    """sum (c / d) * prod_g g^{e_g} over the terms (exponents e, c, d) under
    a ring map, as (N, D): ``power(g, e)`` is the image of the g-th
    generator to the e, as (N, D) on keys that add under multiplication.
    Each term is one :func:`_multiply` per generator, and the terms are
    summed by :func:`_combine`."""
    parts = []
    for exps, num, den in terms:
        image = {0: num}
        for g, e in enumerate(exps):
            if e:
                factor, d = power(g, e)
                image, den = _multiply(factor, image.items()), den * d
        parts.append((1, (image, den)))
    return _combine(parts)


def _t_recursion(p: int, L: list[tuple[dict[int, int], int]],
                 E: list[tuple[dict[int, int], int]],
                 combine: Callable[[list], tuple[dict[int, int], int]] | None = None,
                 ) -> list[tuple[dict[int, int], int]]:
    """T_n = E_n - L_n - sum_{1<=k<n} L_k * T_{n-k}^{p^k} for n = 1, 2, ...:
    t_n over the {l, e} basis when E_n = e_n, theta(t_n) when
    E_n = u^{w_n} L_n with L_n = l_n(v) (see :func:`bpadams.hopf._theta_of`),
    its v_1-shadow when each L_n is the shadow of l_n(v) (see
    :func:`bpadams.hopf._v1_power`; the keys are u-degrees), and
    eta_R(v_n) when L_n = eta_R(l_n) and E_n = (1 + pi_n) * L_n (see
    :func:`bpadams.hopf._right_unit_v`).

    Every polynomial is (N, D): integer numerators N on packed monomial
    keys, a field of ``W.bit_length()`` bits per exponent (see
    :func:`_key`), over one denominator D; ``_theta_of`` runs it on
    packed rows instead, one int per v-monomial, and on l1 norms.  A
    product of monomials adds keys, and one product of polynomials is
    :func:`_multiply`; powers are taken by square-and-multiply, T_j^{p^k}
    as (T_j^{p^(k-1)})^p.  No product truncates and no key carries: T_n
    is homogeneous of weight w_n = w_k + p^k * w_{n-k} <= W, so every
    partial product has weight <= W, and with it every exponent and every
    u-degree (at most w_n, see :func:`bpadams.walk.t_monomial_numerators`).
    Each T_n is summed by ``combine``, by default :func:`_combine`, so its
    D is the lcm of the denominators of its coefficients.
    """
    combine = combine or _combine
    T: list[tuple[dict[int, int], int]] = []
    powers: list[list[tuple[dict[int, int], int]]] = []  # powers[j][k] = T_j^{p^k}
    for n in range(len(L)):
        terms = [(1, E[n]), (-1, L[n])]
        for k in range(1, n + 1):
            chain = powers[n - k]
            if len(chain) == k:
                chain.append(_power(chain[-1], p))
            num, den = chain[k]
            terms.append((-1, (_multiply(num, list(L[k - 1][0].items())), den * L[k - 1][1])))
        image = combine(terms)
        T.append(image)
        powers.append([image])
    return T


def _check_u_degree(numerators: Mapping[int, int], width: int, u_bound: int) -> int | None:
    """The u-degree of the first term on packed keys (:func:`_key`: v_1 at
    the top, u at the bottom) whose u-degree is above ``u_bound``, or None
    if there is none: the packing relies on that bound."""
    mask = (1 << width) - 1
    for key in numerators:
        if key & mask > u_bound:
            return key & mask
    return None


def _group_rows(numerators: Mapping[int, int], width: int) -> dict[int, dict[int, int]]:
    """Integer numerators on packed monomial keys (see :func:`_key`)
    grouped into rows: the term c * v^delta * u^j is the entry c of mu_j in
    the row keyed by delta's packed fields, the key without its u field."""
    mask = (1 << width) - 1
    rows: dict[int, dict[int, int]] = {}
    for key, c in numerators.items():
        rows.setdefault(key >> width, {})[key & mask] = c
    return rows
