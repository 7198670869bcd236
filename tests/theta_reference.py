"""The generator images of the diagonal transform in ``Fraction``
``GradedPoly`` arithmetic: the reference for the integer recursion of
:func:`bpadams.hopf._t_recursion` and for the tests that need theta(l_k)
and theta(t_k) from a route other than the one under test, with the
v_1 functional evaluated on them in ``Fraction``s, and the right unit of
a v-monomial by substitution.  The convolution of ``MuLinear`` forms,
which the package's integer rows replaced, serves them as the product
of the mu-linear rows."""

import functools
from fractions import Fraction

from bpadams import hopf
from bpadams.arith import integer_numerators
from bpadams.fgl import BPContext
from bpadams.hopf import MuLinear, right_unit_of_l_poly
from bpadams.polyring import GeneratorTable, GradedPoly
from packing_reference import dense


class HazewinkelContext(BPContext):
    """A context whose l_n(v) are read in Hazewinkel's generators: Araki's
    recursion pi_n * l_n = v_n + sum_{1<=i<n} l_i * v_{n-i}^{p^i} with pi_n
    replaced by p.  Its theta images by the ``Fraction`` recursion
    (:func:`theta_numerators`), and the package's own
    ``hopf._theta_numerators`` of it, are references for
    ``hopf._hazewinkel_theta_numerators`` of a plain context."""

    def pi(self, n):
        return Fraction(self.p)


def convolve(a, b):
    """(sum a_i mu_i) * (sum b_j mu_j) -> sum a_i b_j mu_{i+j}."""
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return MuLinear(out)


def convolve_power(a, k):
    """The k-th convolution power of the form ``a``, k >= 0."""
    acc = MuLinear.unit(0)
    for _ in range(k):
        acc = convolve(acc, a)
    return acc


def fraction_t_recursion(p, L, E):
    """T_n = E_n - L_n - sum_{1<=k<n} L_k * T_{n-k}^{p^k} for n = 1, 2, ...:
    t_n over the {l, e} basis when E_n = e_n, and theta(t_n) when
    E_n = u^{w_n} L_n with L_n = l_n(v)."""
    T = []
    for n in range(len(L)):
        acc = E[n] - L[n]
        for k in range(1, n + 1):
            acc = acc - L[k - 1] * (T[n - k] ** (p ** k))
        T.append(acc)
    return T


@functools.lru_cache(maxsize=None)
def theta_images(ctx):
    """theta of each {l, t} generator over the v table with one more
    generator u of weight 0, the mu index: l_k -> l_k(v),
    t_n -> T_n by :func:`fraction_t_recursion`."""
    vu_table = ctx.v_table.union(GeneratorTable([("u", 0)]))
    u = GradedPoly.gen(vu_table, ctx.weight_bound, "u")
    L = [ctx.l_in_v(n).embedded(vu_table) for n in range(1, ctx.gen_count + 1)]
    T = fraction_t_recursion(ctx.p, L, [(u ** w) * Ln for w, Ln in zip(ctx.l_table.weights, L)])
    return dict(zip(ctx.lt_table.names, L + T))  # l1.., then t1..


def theta_numerators(ctx):
    """:func:`theta_images` as (N, D) on packed keys, N = D * image with D
    the lcm of the image's denominators."""
    width = ctx.weight_bound.bit_length()
    out = {}
    for name, image in theta_images(ctx).items():
        nums, den = integer_numerators(list(image.terms.values()))
        out[name] = {hopf._key(exps, width): c for exps, c in zip(image.terms, nums)}, den
    return out


def as_rows(ctx, images):
    """Images on packed keys that hold a u field below delta's fields, as
    :func:`theta_numerators` gives them, in the form the package hands its
    generator images over: (rows, D), each row the dense numerators
    [c_0, ..., c_m] at its packed v-monomial."""
    width = ctx.weight_bound.bit_length()
    return {name: ({delta: dense(row) for delta, row in hopf._group_rows(num, width).items()},
                   den)
            for name, (num, den) in images.items()}


def t_in_basis(ctx):
    """t_n over the {l, e} basis, e_n standing for eta_R(l_n)."""
    W = ctx.weight_bound
    names = range(1, ctx.gen_count + 1)
    return fraction_t_recursion(ctx.p, [GradedPoly.gen(ctx.le_table, W, f"l{n}") for n in names],
                                [GradedPoly.gen(ctx.le_table, W, f"e{n}") for n in names])


def v1_functional(c, x, mu=None):
    """The Fraction route :func:`bpadams.hopf.v1_functional` replaced: each
    generator's image as a MuLinear, powers and products by
    :func:`convolve`, terms summed as forms, on the generator images of
    the Fraction recursion."""
    images = theta_images(c)
    nv = len(c.v_table)
    chains = {}

    def power(name, e):
        chain = chains.get(name)
        if chain is None:
            base = MuLinear({exps[nv]: coeff for exps, coeff in images[name].terms.items()
                             if not any(exps[1:nv])})
            chain = chains[name] = [MuLinear.unit(0), base]
        while len(chain) <= e:
            chain.append(convolve(chain[-1], chain[1]))
        return chain[e]

    total = MuLinear.zero()
    for exps, coeff in x.terms.items():
        acc = MuLinear.unit(0, coeff)
        for name, e in zip(c.lt_table.names, exps):
            if e:
                acc = convolve(acc, power(name, e))
        total = total + acc
    return total if mu is None else mu.apply(total)


def right_unit_v_monomial(ctx, exponents):
    """The Fraction route :func:`bpadams.hopf.right_unit_v_monomial`
    replaced: v^alpha expanded over the l's by ``ctx.v_in_l``, eta_R
    substituted for each l_n, then l_n(v) for the left-hand l's, every
    product truncated at the weight bound."""
    if isinstance(exponents, tuple):
        alpha = dict(zip((f"v{i}" for i in range(1, len(exponents) + 1)), exponents))
    else:
        alpha = dict(exponents)
    x = GradedPoly.const(ctx.l_table, ctx.weight_bound, 1)
    for name, e in alpha.items():
        x = x * (ctx.v_in_l(ctx.v_table.index(name) + 1) ** e)
    y = right_unit_of_l_poly(ctx, x)
    z = y.substitute({f"l{n}": ctx.l_in_v(n).embedded(ctx.vt_table)
                      for n in range(1, ctx.gen_count + 1)})
    nv = len(ctx.v_table)
    return z, {(exps[:nv], exps[nv:]): c for exps, c in z.sorted_terms()}
