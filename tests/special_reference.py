"""The special elements d_n in ``Fraction`` ``GradedPoly`` arithmetic: the
reference for the integer construction of
:func:`bpadams.hopf._special_prime_power` and for the element views of
:func:`bpadams.hopf.special_element`.

The prime powers are built with ``MuLinear`` forms and ``GradedPoly``
products, and the composites eagerly, as one product of the two factors'
elements with the ``MuLinear`` convolution of their rows.  Every row is
the ``Fraction`` v_1 functional of :mod:`theta_reference`, so nothing here
runs on the integer kernel under test.  The elements of a context live in
a dict the caller passes (``cache``, n -> (element, row)), which a test
may seed with a wrong lower element.
"""

from fractions import Fraction

from bpadams.arith import delta_p, format_rational, is_p_local_int, val_p
from bpadams.hopf import ConstructionError, MuLinear, _check_profile, t_gen
from bpadams.polyring import GradedPoly, PolyError

import theta_reference


def prime_power(ctx, i, cache):
    """(element, row) of d_{p^i} = t_{i+1} + p * (correction): the powers
    t_1^m absorb the top of the t-recursion, then the lower d_{p^j}
    supply the tail, with the same checks and messages as the integer
    construction."""
    p = ctx.p
    n = p ** i
    if n in cache:
        return cache[n]
    if i + 1 > ctx.gen_count:
        raise PolyError(
            f"d_{n} needs t_{i + 1} of weight {delta_p(p, n)}, beyond bound "
            f"{ctx.weight_bound}")
    v1 = theta_reference.v1_functional
    if i == 0:
        element = t_gen(ctx, 1)
    else:
        budget = delta_p(p, n)
        work = v1(ctx, t_gen(ctx, i + 1))
        for k in range(1, i + 1):
            lower = v1(ctx, t_gen(ctx, i + 1 - k, p ** k))
            work = work + lower * (Fraction(1, p ** k) / ctx.alphabar(k))
        corrections = {}
        for m in range(budget, n, -1):
            coeff = work.coefficient(m)
            if not coeff:
                continue
            vm = v1(ctx, t_gen(ctx, 1, m))
            cm = coeff / (p * vm.coefficient(m))
            if val_p(p, cm) < 0:
                raise ConstructionError(
                    f"correction coefficient for t_1^{m} is not {p}-locally "
                    f"integral", {"n": n, "m": m, "coefficient": format_rational(cm)})
            corrections[m] = cm
            work = work - vm * (p * cm)
        if work.top_index() is not None and work.top_index() > n:
            raise ConstructionError(
                f"cancellation left support above mu_{n}",
                {"n": n, "functional": work.to_text()})
        element = t_gen(ctx, i + 1)
        for m, cm in corrections.items():
            element = element - t_gen(ctx, 1, m) * (p * cm)
        for k in range(1, i + 1):
            d_low, _ = prime_power(ctx, i - k, cache)
            diff = (d_low ** (p ** k)) - t_gen(ctx, i + 1 - k, p ** k)
            rbar = diff * Fraction(1, p ** (k + 1))
            if not all(is_p_local_int(p, c) for c in rbar.terms.values()):
                raise ConstructionError(
                    f"inductive remainder for k={k} is not integral",
                    {"n": n, "k": k})
            element = element - rbar * (p / ctx.alphabar(k))
    out = element, _check_profile(p, n, v1(ctx, element))
    cache[n] = out
    return out


def special(ctx, n, cache):
    """(element, row) of d_n: d_0 = 1, a prime power from
    :func:`prime_power`, any other n as d_{n - p^k} * d_{p^k}, p^k the
    lowest non-zero base-p digit of n."""
    p = ctx.p
    if n == 0:
        return GradedPoly.const(ctx.lt_table, ctx.weight_bound, 1), (Fraction(1),)
    if n in cache:
        return cache[n]
    k = 0
    while n % p ** (k + 1) == 0:
        k += 1
    dk = prime_power(ctx, k, cache)
    if n == p ** k:
        return dk
    low = special(ctx, n - p ** k, cache)
    row = theta_reference.convolve(MuLinear(dict(enumerate(low[1]))),
                                   MuLinear(dict(enumerate(dk[1]))))
    out = low[0] * dk[0], row.as_row(n + 1)
    cache[n] = out
    return out
