"""The BP Hopf-algebroid right unit and the diagonal-operation calculus.

An element of the co-operation ring lives over the combined {l, t}
generator table (computed rationally).  A diagonal operation acting on
the weight-i coefficient group as multiplication by mu_i induces

* ``diagonal_transform`` - the left-linear map sending each co-operation
  to its rows: for each v-monomial, a rational linear form in the mu_i
  (a :class:`MuLinear`), and
* ``v1_functional`` - its scalar shadow obtained by sending v_1 to 1 and
  every higher v_n to 0.

Writing mu_i as u^i for a generator u of weight 0 makes the first a
graded ring homomorphism theta: Q[l, t] -> Q[v][u].  On the right-unit
basis, eta_R(l_n) goes to u^{w_n} l_n with w_n the weight of l_n, so
l_k -> l_k(v) and t_n -> u^{w_n} l_n(v) - l_n(v)
- sum_{k<n} l_k(v) * theta(t_{n-k})^{p^k}; every image is homogeneous.
theta has one representation: integer numerators on packed monomial
keys over one denominator, the lcm of its denominators, and one integer
kernel, :mod:`bpadams.kernel`, multiplies, sums and powers them.  The generator
images are built once per context (``_theta_numerators``, by one
recursion on integers, ``_t_recursion``, run on packed rows of one width
and decoded once, see ``_theta_of``) from the l_k(v) of another
(``_l_numerators``); the same recursion over the
{l, e} generators, with denominator 1, gives t_n in the right-unit
basis, and over the eta_R(l_n) (``_right_unit_l``, also the right-unit
tables' eta_R(l_n)) it gives eta_R(v_n) on {v, t} keys, the
factors of ``right_unit_v_monomial``.  One evaluator (``_evaluate``)
carries x through a ring map given on the generators' powers, with the
recursion's product; ``diagonal_transform`` runs it on the generator
images.  The sampled
rows need theta(t^gamma) for every t-monomial gamma of weight <= W: the
walk, :mod:`bpadams.walk`, builds them on packed rows from the theta(t_k)
its caller passes.  The verification's integrality tests pass them read
in Hazewinkel's generators of BP_* (``_hazewinkel_theta_numerators``,
denominators powers of p), where everything else here reads Araki's.
``v1_functional`` is theta followed by v_1 -> 1, v_{>1} -> 0: a ring map
into Q[u].  Its images, the v_1-shadows, are (N, D) too, keyed by
u-degree: the u field of a theta key, with the terms that contain
v_{>1} dropped.  So they share theta's kernel: ``_multiply``,
``_combine`` and ``_power`` are their product, sum and power, the
generators' shadows come from theta's recursion run on shadows, without
theta's images, and the same evaluator runs ``v1_functional`` on them,
their powers kept per context.

``special_element`` builds, for every n, an element whose functional is
supported on mu_0..mu_n with a unit pivot of valuation -delta_p(n); these
are the congruence rows the centre verification pipeline feeds into the
lattice sandwich.  The prime powers d_{p^i} are built on integers, each
kept as numerators on packed {l, t} keys over one denominator, and
their rows are shadows; a composite d_n's row is one ``_multiply`` of
two cached rows.  The element polynomials are views built only when
read.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import (WordCodec, _Record, _shape_holds, delta_p, exact, format_over,
                    format_rational, is_p_local_int, val_p, word_width)
from .fgl import BPContext
from .kernel import (_check_u_degree, _combine, _evaluate, _exponent_reader, _group_rows,
                     _key, _l1_sum, _multiply, _power, _reduced, _t_recursion)
from .polyring import GeneratorTable, GradedPoly, PolyError


class MuLinear:
    """A finite rational linear form sum_i c_i * mu_i: one congruence row.
    Coefficients and values are read by :func:`bpadams.arith.exact`, so a
    float is refused."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        data: dict[int, Fraction] = {}
        if coeffs:
            for i, c in coeffs.items():
                c = exact(c)
                if c:
                    if i < 0:
                        raise PolyError("mu index must be non-negative")
                    data[int(i)] = c
        self.coeffs = data

    @classmethod
    def _trusted(cls, coeffs: dict[int, Fraction]) -> "MuLinear":
        """Wrap ``coeffs`` without a copy or a check: the caller guarantees
        non-negative int keys and non-zero ``Fraction`` values."""
        form = object.__new__(cls)
        form.coeffs = coeffs
        return form

    @classmethod
    def _from_numerators(cls, numerators: Mapping[int, int], den: int) -> "MuLinear":
        """sum_j (c_j / den) * mu_j for non-zero int numerators c_j, wrapped
        as by :meth:`_trusted`."""
        return cls._trusted({j: Fraction(c, den) for j, c in numerators.items()})

    @classmethod
    def zero(cls) -> "MuLinear":
        return cls()

    @classmethod
    def unit(cls, i: int, c: Fraction | int = 1) -> "MuLinear":
        return cls({i: exact(c)})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MuLinear):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "MuLinear") -> "MuLinear":
        if not isinstance(other, MuLinear):
            return NotImplemented
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c
        return MuLinear(out)

    def __neg__(self) -> "MuLinear":
        return MuLinear({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "MuLinear") -> "MuLinear":
        return self + (-other)

    def __mul__(self, other: object) -> "MuLinear":
        """Scalar multiple; forms do not multiply each other."""
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MuLinear({i: v * c for i, v in self.coeffs.items()})
        return NotImplemented

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs.get(i, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def top_index(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def evaluate(self, values: Iterable[Fraction]) -> Fraction:
        vals = list(values)
        acc = Fraction(0)
        for i, c in self.coeffs.items():
            if i >= len(vals):
                raise PolyError(f"mu_{i} has no value in a length-{len(vals)} sequence")
            acc += c * exact(vals[i])
        return acc

    def as_row(self, length: int) -> tuple[Fraction, ...]:
        """Dense coefficient vector (c_0, ..., c_{length-1}); support must fit."""
        top = self.top_index()
        if top is not None and top >= length:
            raise PolyError(f"support reaches mu_{top}, beyond length {length}")
        return tuple(self.coeffs.get(i, Fraction(0)) for i in range(length))

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{format_rational(c)}*mu{i}" for i, c in sorted(self.coeffs.items())]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MuLinear({self.to_text()})"


class ConstructionError(RuntimeError):
    """Cancellation solve failed; carries a diagnostic payload."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


class DiagonalAction(_Record):
    """The action sequence of a diagonal operation.

    ``values=None`` means the symbolic sequence mu_0, mu_1, ...; concrete
    sequences must consist of p-local integers, and a float is refused
    (:func:`bpadams.arith.exact`).
    """

    _fields = ("p", "values")

    def __init__(self, p: int, values: tuple[Fraction, ...] | None = None):
        if values is not None:
            values = tuple(exact(v) for v in values)
            for k, v in enumerate(values):
                if not is_p_local_int(p, v):
                    raise ValueError(
                        f"entry mu_{k} = {format_rational(v)} is not a "
                        f"{p}-local integer")
        self.__dict__.update(p=p, values=values)

    def apply(self, form: MuLinear) -> Fraction | MuLinear:
        if self.values is None:
            return form
        return form.evaluate(self.values)


class _RightUnitData:
    """Per-context caches for the right unit and its triangular inverse."""

    __slots__ = ("etaR_l", "t_in_basis")

    def __init__(self, ctx: BPContext):
        W, m = ctx.weight_bound, ctx.gen_count
        width = W.bit_length()
        # l_k's field is the (2m - k)-th from the bottom, above the t fields
        L = [({1 << width * (2 * m - k): 1}, 1) for k in range(1, m + 1)]
        self.etaR_l = [_poly_view(ctx.lt_table, W, R) for R in _right_unit_l(ctx, L)]
        # the recursion on the {l, e} generators, each a packed key over den 1
        count = len(ctx.le_table)
        gens = [({_key((int(i == j) for j in range(count)), width): 1}, 1)
                for i in range(count)]
        T = _t_recursion(ctx.p, gens[:m], gens[m:])
        self.t_in_basis = [_poly_view(ctx.le_table, W, image) for image in T]


def _rud(ctx: BPContext) -> _RightUnitData:
    cache = ctx._hopf_cache
    if "rud" not in cache:
        cache["rud"] = _RightUnitData(ctx)
    return cache["rud"]


def right_unit_log(ctx: BPContext, n: int) -> GradedPoly:
    """eta_R(l_n) = sum_{k=0}^{n} l_k * t_{n-k}^{p^k} with l_0 = t_0 = 1."""
    if not 1 <= n <= ctx.gen_count:
        raise PolyError(f"l_{n} is beyond the weight bound {ctx.weight_bound}")
    return _rud(ctx).etaR_l[n - 1]


def right_unit_of_l_poly(ctx: BPContext, x: GradedPoly) -> GradedPoly:
    """Multiplicative extension of the right unit to polynomials in the l's."""
    if x.table != ctx.l_table:
        raise PolyError("expected a polynomial over the l generators")
    bindings = {f"l{n}": right_unit_log(ctx, n) for n in range(1, ctx.gen_count + 1)}
    return x.substitute(bindings)


def right_unit_v_monomial(
        ctx: BPContext, exponents: Mapping[str, int] | tuple[int, ...],
) -> tuple[GradedPoly, dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]]:
    """eta_R(v^alpha) over the {v, t} table, plus its coefficient table.

    Returns the polynomial and a map (beta, gamma) -> coefficient, where
    beta and gamma are the v- and t-exponent vectors.  It is the product
    of the V_n^{alpha_n} of :func:`_right_unit_v` on integers.  A monomial
    of weight above the bound gives zero and ``{}``, checked before any
    product: the packed keys of an over-weight product would carry.
    """
    if isinstance(exponents, tuple):
        alpha = dict(zip((f"v{i}" for i in range(1, len(exponents) + 1)), exponents))
    else:
        alpha = dict(exponents)
    W = ctx.weight_bound
    powers = []
    for name, e in alpha.items():
        i = ctx.v_table.index(name)
        if not isinstance(e, int) or e < 0:
            raise PolyError("polynomial powers must be non-negative integers")
        if e:
            powers.append((i, e))
    if sum(ctx.v_table.weights[i] * e for i, e in powers) > W:
        return GradedPoly.zero(ctx.vt_table, W), {}
    num, den = {0: 1}, 1
    for i, e in powers:
        factor, d = _power(_right_unit_v(ctx)[i], e)
        num, den = _multiply(num, list(factor.items())), den * d
    z = _poly_view(ctx.vt_table, W, (num, den))
    nv = len(ctx.v_table)
    coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for exps, c in z.sorted_terms():
        coeffs[(exps[:nv], exps[nv:])] = c
    return z, coeffs


def _right_unit_v(ctx: BPContext) -> list[tuple[dict[int, int], int]]:
    """V_n = eta_R(v_n) for n = 1, 2, ... as (N, D) on packed keys over
    ``ctx.vt_table`` (see :func:`_key`), built once per context.  The ring
    map eta_R carries v_n = pi_n * l_n - sum_{1<=i<n} l_i * v_{n-i}^{p^i}
    to V_n = pi_n * R_n - sum_{1<=i<n} R_i * V_{n-i}^{p^i}, R_n = eta_R(l_n)
    (:func:`_right_unit_l` of the l_k(v)): :func:`_t_recursion` with
    E_n = (1 + pi_n) * R_n."""
    cache = ctx._hopf_cache
    if "right_unit_v" not in cache:
        R = _right_unit_l(ctx, _l_numerators(ctx, ctx.gen_count))
        E = [({key: (1 + int(ctx.pi(n))) * c for key, c in num.items()}, den)
             for n, (num, den) in enumerate(R, 1)]
        cache["right_unit_v"] = _t_recursion(ctx.p, R, E)
    return cache["right_unit_v"]


def _right_unit_l(ctx: BPContext, L: list[tuple[dict[int, int], int]],
                  ) -> list[tuple[dict[int, int], int]]:
    """R_n = eta_R(l_n) = sum_{k=0}^{n} L_k * t_{n-k}^{p^k}, L_0 = t_0 = 1,
    for n = 1, 2, ... as (N, D) on packed keys (see :func:`_key`) whose
    ``ctx.gen_count`` low fields are the t's, t_j's the (m - j)-th from
    the bottom, given the L_k on the fields above them: the l_k themselves
    over ``ctx.lt_table``, or l_k(v) over ``ctx.vt_table``."""
    width, m, p = ctx.weight_bound.bit_length(), ctx.gen_count, ctx.p
    R = []
    for n in range(1, m + 1):
        terms = [(1, ({1 << width * (m - n): 1}, 1)), (1, L[n - 1])]
        for k in range(1, n):
            shift, (num, den) = p ** k << width * (m - n + k), L[k - 1]
            terms.append((1, ({key + shift: c for key, c in num.items()}, den)))
        R.append(_combine(terms))
    return R


def to_right_unit_basis(ctx: BPContext, x: GradedPoly) -> GradedPoly:
    """Expand over the basis l^a * prod_n eta_R(l_n)^{b_n}.

    The result lives over the {l, e} table, the generator e_n standing
    for eta_R(l_n); the rewrite is the triangular elimination of each t_n.
    """
    if x.table != ctx.lt_table:
        raise PolyError("expected a polynomial over the {l, t} generators")
    rud = _rud(ctx)
    bindings = {f"t{n}": rud.t_in_basis[n - 1] for n in range(1, ctx.gen_count + 1)}
    return x.substitute(bindings)


def from_right_unit_basis(ctx: BPContext, y: GradedPoly) -> GradedPoly:
    """Inverse of :func:`to_right_unit_basis` (e_n -> its {l, t} expression)."""
    if y.table != ctx.le_table:
        raise PolyError("expected a polynomial over the {l, e} generators")
    rud = _rud(ctx)
    bindings = {f"e{n}": rud.etaR_l[n - 1] for n in range(1, ctx.gen_count + 1)}
    return y.substitute(bindings)


def _theta_numerators(ctx: BPContext) -> dict[str, tuple[dict[int, int], int]]:
    """theta of each {l, t} generator as (N, D), built once per context:
    l_k -> L_k = l_k(v) and t_n -> T_n by :func:`_t_recursion`, each as
    integer numerators on packed keys (see :func:`_key`) over D, the lcm
    of its denominators; L_k is :func:`_l_numerators` above an empty u
    field."""
    cache = ctx._hopf_cache
    if "theta_numerators" not in cache:
        cache["theta_numerators"] = _theta_of(ctx, _l_numerators(ctx, 1))
    return cache["theta_numerators"]


def _hazewinkel_theta_numerators(ctx: BPContext) -> dict[str, tuple[dict[int, int], int]]:
    """theta of each {l, t} generator as (N, D), as :func:`_theta_numerators`
    gives it, but read in Hazewinkel's generators of BP_* where that
    reads Araki's, built once per context.

    Hazewinkel's v_n are defined by Araki's recursion with pi_n replaced
    by p: L_n = l_n(v) = (v_n + sum_{1<=i<n} L_i * v_{n-i}^{p^i}) / p, so
    every denominator is a power of p, where Araki's pi_n = p - p^(p^n)
    puts prime-to-p factors into every one.  Both generator sets are
    polynomial generators of BP_* over Z_(p), so an element of
    BP_* (x) Q lies in BP_* iff its coefficients are p-integral in either:
    theta_mu(t^gamma) passes the same integrality test on either set of
    images, and the walk's numerators are several times narrower on
    these.  The L_n come from :func:`_l_numerators` with pi_n = p, and
    the t images follow by :func:`_t_recursion`, as for
    :func:`_theta_numerators`.
    """
    cache = ctx._hopf_cache
    if "hazewinkel_theta_numerators" not in cache:
        cache["hazewinkel_theta_numerators"] = _theta_of(ctx, _l_numerators(ctx, 1, True))
    return cache["hazewinkel_theta_numerators"]


def _theta_of(ctx: BPContext, L: list[tuple[dict[int, int], int]],
              ) -> dict[str, tuple[dict[int, int], int]]:
    """The images of the {l, t} generators, by name, given the L_k = l_k(v)
    on theta's packed keys (u-degree 0): l_k -> L_k, and t_n -> T_n by
    :func:`_t_recursion` with E_n = u^{w_n} * L_n.

    The recursion runs on packed rows, as the walk's products do: a
    polynomial is its rows keyed by the packed v-monomial (a key without
    its u field), the row sum_j c_j * u^j one int sum_j c_j * 2^(R * j).
    Keys add and rows multiply as one big-int product, so
    :func:`_multiply`, :func:`_power` and the sums run unchanged; u -> 2^R
    is a ring map, so each row of a T_n is exactly its polynomial at 2^R,
    and it decodes when every |c_j| < 2^(R - 1).  One R serves the whole
    recursion: the same recursion on l1 norms (each L_k and E_k as its
    norm over its D, summed by :func:`_l1_sum`) bounds every numerator of
    the T_n, products by submultiplicativity, and R is the largest bound
    plus a sign bit, rounded up to whole 32-bit words
    (:func:`bpadams.arith.word_width`).  The sums are not reduced, since
    the gcd of a packed row is not that of its digits; the norms bound the
    unreduced numerators over the same denominators.  Each T_n is decoded
    once at the end (``WordCodec.decode``) and reduced (:func:`_reduced`),
    so it is the (N, D) of the recursion on terms: integer numerators over
    the lcm of its coefficients' denominators.
    """
    p, width = ctx.p, ctx.weight_bound.bit_length()
    norms = [({0: sum(map(abs, num.values()))}, den) for num, den in L]
    bound = max((num[0] for num, _ in _t_recursion(p, norms, norms, _l1_sum)), default=0)
    R = word_width(bound.bit_length() + 1)
    rows = [({key >> width: c for key, c in num.items()}, den) for num, den in L]
    E = [({delta: c << R * w for delta, c in num.items()}, den)
         for (num, den), w in zip(rows, ctx.l_table.weights)]
    codec, T = WordCodec(), []
    for num, den in _t_recursion(p, rows, E, lambda terms: _combine(terms, reduced=False)):
        T.append(_reduced({delta << width | j: c for delta, row in num.items()
                           for j, c in enumerate(codec.decode(row, R)) if c}, den))
    return dict(zip(ctx.lt_table.names, L + T))


def _l_numerators(ctx: BPContext, low_fields: int, hazewinkel: bool = False,
                  ) -> list[tuple[dict[int, int], int]]:
    """L_n = l_n(v) for n = 1, 2, ... as (N, D) on packed keys (see
    :func:`_key`): the v fields, v_n's the (m - n)-th above ``low_fields``
    empty ones, over D, the lcm of its denominators.  One recursion on
    integers, pi_n * L_n = v_n + sum_{1<=i<n} L_i * v_{n-i}^{p^i}, each
    L_n summed by :func:`_combine` over D_i * |pi_n|, the sign of pi_n on
    the numerators: Araki's generators with pi_n = ``ctx.pi(n)``, and
    Hazewinkel's with ``hazewinkel``, where pi_n = p."""
    width, m, p = ctx.weight_bound.bit_length(), ctx.gen_count, ctx.p
    L: list[tuple[dict[int, int], int]] = []
    for n in range(1, m + 1):
        pi = p if hazewinkel else int(ctx.pi(n))
        sign, pi = (1, pi) if pi > 0 else (-1, -pi)
        terms = [(sign, ({1 << width * (m - n + low_fields): 1}, pi))]
        for i in range(1, n):
            shift, (num, den) = p ** i << width * (m - n + i + low_fields), L[i - 1]
            terms.append((sign, ({key + shift: c for key, c in num.items()}, den * pi)))
        L.append(_combine(terms))
    return L


def _poly_view(table: GeneratorTable, bound: int,
               image: tuple[dict[int, int], int]) -> GradedPoly:
    """(N, D) on packed keys over ``table`` (a field of
    ``bound.bit_length()`` bits per exponent, as :func:`_key`) as the
    polynomial N / D, truncated at ``bound``."""
    num, den = image
    read = _exponent_reader(len(table), bound.bit_length())
    return GradedPoly._trusted(table, bound,
                               {read(key): Fraction(c, den) for key, c in num.items()})


def _delta_reader(ctx: BPContext):
    """The v-exponent tuple of a packed delta key, fields of
    ``W.bit_length()`` bits with v_1 at the top."""
    return _exponent_reader(len(ctx.v_table), ctx.weight_bound.bit_length())


def _read_rows(ctx: BPContext, numerators: Mapping[int, int],
               ) -> dict[tuple[int, ...], dict[int, int]]:
    """The rows of a theta image given as integer numerators, keys packed
    as by :func:`_key`.  Each row maps mu indices to non-zero
    numerators; the rows come in graded-lexicographic order of delta."""
    delta = _delta_reader(ctx)
    by_delta = {delta(key): row
                for key, row in _group_rows(numerators, ctx.weight_bound.bit_length()).items()}
    weight = ctx.v_table.monomial_weight
    return {d: by_delta[d] for d in sorted(by_delta, key=lambda e: (weight(e), e))}


def _forms(rows: Mapping[tuple[int, ...], Mapping[int, int]], den: int,
           ) -> dict[tuple[int, ...], MuLinear]:
    """The rows of :func:`_read_rows` over the denominator ``den``, as
    :class:`MuLinear` forms: one ``Fraction`` per coefficient."""
    return {delta: MuLinear._from_numerators(row, den) for delta, row in rows.items()}


def diagonal_transform(ctx: BPContext, x: GradedPoly,
                       mu: DiagonalAction | None = None,
                       ) -> dict[tuple[int, ...], MuLinear] | GradedPoly:
    """Image of a co-operation element under a diagonal operation.

    The ring map theta (see the module docstring) sends x to a polynomial
    in the v generators and a u of weight 0; its term c * v^delta * u^j is
    the coefficient c of mu_j in the row at delta.  Symbolically the result maps
    v-exponents to the non-zero mu-linear forms, in graded-lexicographic
    order; a concrete :class:`DiagonalAction` evaluates them to a
    polynomial over the v generators.

    x is evaluated by :func:`_evaluate` on the integer images
    (:func:`_theta_numerators`), each power of a generator's image taken
    once per call.  A term of
    weight above W is dropped, as truncation at W would drop its
    homogeneous image; the others neither truncate nor carry, once each
    generator image is checked (``PolyError``) to have u-degree <= its weight.
    """
    if x.table != ctx.lt_table:
        raise PolyError("expected a polynomial over the {l, t} generators")
    W = ctx.weight_bound
    width = W.bit_length()
    table = ctx.lt_table
    images = _theta_numerators(ctx)
    for name, w in zip(table.names, table.weights):
        degree = _check_u_degree(images[name][0], width, w)
        if degree is not None:
            raise PolyError(f"theta({name}) has a term of u-degree {degree} above {w}: "
                            "its packed keys could carry")
    num, den = _evaluate(((exps, c.numerator, c.denominator) for exps, c in x.terms.items()
                          if table.monomial_weight(exps) <= W),
                         lru_cache(maxsize=None)(lambda g, e: _power(images[table.names[g]], e)))
    out = _forms(_read_rows(ctx, num), den)
    if mu is not None and mu.values is not None:
        return GradedPoly(ctx.v_table, W,
                          {delta: mu.apply(form) for delta, form in out.items()})
    return out


def _v1_power(ctx: BPContext, g: int, e: int) -> tuple[dict[int, int], int]:
    """The v_1-shadow of g^e for the g-th generator of ``ctx.lt_table``, as
    (N, D) keyed by u-degree (index j for mu_j).

    The shadow of a generator is its theta image under v_1 -> 1,
    v_{>1} -> 0: the terms of the image with no v_{>1}, keyed by their
    u-degree, over the lcm of their denominators.  That map is a ring
    map, so it carries theta's recursion (:func:`_t_recursion`) to the
    same recursion on the shadows, and every shadow is built from it once
    per context, without theta's own images: l_k goes to the coefficient
    c_k of the pure v_1-power in ``ctx.l_in_v(k)``, and t_n to T_n with
    L_k = c_k and E_n = c_n * u^{w_n}.  Its powers are :func:`_multiply`
    products over that denominator to the e, kept per context in a chain
    that grows on demand (``ctx._hopf_cache["v1_chains"]``).
    """
    chains = ctx._hopf_cache.get("v1_chains")
    if chains is None:
        lead = [ctx.l_in_v(k).terms.get((w,) + (0,) * (ctx.gen_count - 1), 0)
                for k, w in enumerate(ctx.l_table.weights, 1)]
        L = [_reduced({0: c.numerator}, c.denominator) for c in lead]
        E = [_reduced({w: c.numerator}, c.denominator)
             for c, w in zip(lead, ctx.l_table.weights)]
        shadows = L + _t_recursion(ctx.p, L, E)
        chains = ctx._hopf_cache["v1_chains"] = {
            g: ([{0: 1}, base], den) for g, (base, den) in enumerate(shadows)}
    chain, den = chains[g]
    while len(chain) <= e:
        chain.append(_multiply(chain[1], chain[-1].items()))
    return chain[e], den ** e


def v1_functional(ctx: BPContext, x: GradedPoly,
                  mu: DiagonalAction | None = None) -> Fraction | MuLinear:
    """Scalar value of the diagonal image under v_1 -> 1, v_n -> 0 (n > 1).

    Symbolically this is a finite rational linear form in the mu_i.
    theta followed by v_1 -> 1, v_{>1} -> 0 is a ring map
    Q[l, t] -> Q[u], u^j standing for mu_j.  Each generator goes to its
    v_1-shadow, the terms of its theta image with no v_{>1} keyed by
    their u-degree, and x is evaluated term by term.  This is exact:
    every term of x has weight <= W and its image is homogeneous, so
    theta truncates none of it.

    The evaluation runs in Z[u] (:func:`_evaluate`), on the powers of the
    generators' shadows that the context keeps (:func:`_v1_power`); each
    index gives one ``Fraction``.
    """
    if x.table != ctx.lt_table:
        raise PolyError("expected a polynomial over the {l, t} generators")
    num, den = _evaluate(((exps, c.numerator, c.denominator) for exps, c in x.terms.items()),
                         lambda g, e: _v1_power(ctx, g, e))
    form = MuLinear._from_numerators(num, den)
    if mu is not None:
        return mu.apply(form)
    return form


def t_gen(ctx: BPContext, n: int, power: int = 1) -> GradedPoly:
    """Convenience: the monomial t_n^power over the {l, t} table."""
    return GradedPoly.gen(ctx.lt_table, ctx.weight_bound, f"t{n}", power)


def t_recursion_check(ctx: BPContext, i: int) -> bool:
    """Verify the recursion for the functional of t_{i+1}.

    Both sides are computed independently: the left directly, the right
    from the functionals of the lower powers t_{i+1-k}^{p^k} together
    with the closed-form leading term.
    """
    p = ctx.p
    if i + 1 > ctx.gen_count:
        raise PolyError(f"t_{i + 1} is beyond the weight bound {ctx.weight_bound}")
    lhs = v1_functional(ctx, t_gen(ctx, i + 1))
    lead = Fraction(1, p ** (i + 1)) / ctx.alphabar(i + 1)
    rhs = MuLinear({delta_p(p, p ** i): lead})
    for k in range(1, i + 2):
        if i + 1 - k == 0:
            lower = MuLinear.unit(0)  # t_0 = 1, functional mu_0
        else:
            lower = v1_functional(ctx, t_gen(ctx, i + 1 - k, p ** k))
        rhs = rhs - lower * (Fraction(1, p ** k) / ctx.alphabar(k))
    return lhs == rhs


class SpecialElement(_Record):
    """An element d_n with functional sum_j c_j mu_j, support <= n.

    Invariants: c_j lies in p^{-delta_p(n)} Z_(p) for j < n, and c_n is a
    unit multiple of p^{-delta_p(n)}; checked on integers for prime powers
    n, and implied for the others (see :func:`special_element`).  The row
    is kept once, as integers: ``row`` (stored as ``_row``), the non-zero
    numerators keyed by j, which :func:`_multiply` takes as they are, over
    ``den``, the lcm of the denominators of the c_j.  ``numerators``, the
    dense c_j * den for j = 0..n, and ``c``, the row as ``Fraction``s, are
    built from them on first read and then kept: the centre verification
    reads ``numerators`` alone.

    ``element``, the polynomial over the context's {l, t} table
    (``_table``, truncated at ``_bound``), is a view built on first access
    and then kept: the centre verification reads the rows alone.  It has
    one source.  d_0 and the prime powers keep the element as integer
    numerators on packed keys over one denominator (``_poly``, a field of
    ``_bound.bit_length()`` bits per exponent, as :func:`_key`); a
    composite keeps its two factors (``_factors``) and its view is the
    product of theirs.
    Two special elements are equal when p, n, the row and the element are;
    the hash reads p, n and the row.  The repr shows ``_fields``.
    """

    _fields = ("p", "n", "c", "numerators", "den")

    def __init__(self, p: int, n: int, row: dict[int, int], den: int,
                 _table: GeneratorTable, _bound: int,
                 _poly: tuple[dict[int, int], int] | None = None,
                 _factors: tuple[SpecialElement, SpecialElement] | None = None):
        self.__dict__.update(p=p, n=n, _row=row, den=den, _table=_table, _bound=_bound,
                             _poly=_poly, _factors=_factors)

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        row = self._row
        return tuple([row.get(j, 0) for j in range(self.n + 1)])

    @cached_property
    def c(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.numerators)

    @cached_property
    def element(self) -> GradedPoly:
        if self._factors is not None:
            low, high = self._factors
            return low.element * high.element
        return _poly_view(self._table, self._bound, self._poly)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpecialElement):
            return NotImplemented
        return ((self.p, self.n, self.c) == (other.p, other.n, other.c)
                and self.element == other.element)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.c))

    def functional(self) -> MuLinear:
        return MuLinear({i: v for i, v in enumerate(self.c)})

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "element": self.element.to_text(),
            "c": format_over(self.numerators, self.den),
        }


def _check_profile(p: int, n: int, form: MuLinear) -> tuple[Fraction, ...]:
    """Validate support and valuations; return the dense row c_0..c_n."""
    budget = delta_p(p, n)

    def fail(message: str) -> ConstructionError:
        return ConstructionError(message, {"n": n, "p": p, "functional": form.to_text(),
                                           "budget": budget})

    top = form.top_index()
    if top is not None and top > n:
        raise fail(f"functional of d_{n} has support at mu_{top} > {n}")
    row = tuple(form.coefficient(i) for i in range(n + 1))
    for j in range(n):
        if val_p(p, row[j]) < -budget:
            raise fail(f"entry {j} of d_{n} has valuation below -delta_p(n) = -{budget}")
    if val_p(p, row[n]) != -budget:
        raise fail(f"pivot of d_{n} is not a unit multiple of p^-{budget}")
    return row


def _special_prime_power(ctx: BPContext, i: int) -> "SpecialElement":
    """d_{p^i} = t_{i+1} + p * (correction), built inductively.

    The correction kills every mu index above p^i: first a Z_(p)
    combination of powers t_1^m (m from delta_p(p^i) down to p^i + 1)
    absorbs the top term of the t-recursion, then the inductive elements
    supply the remaining tail exactly:
    d_{p^i} = t_{i+1} - sum_m p * c_m * t_1^m - sum_k (p / alphabar_k) * rbar_k
    with rbar_k = (d_{p^(i-k)}^{p^k} - t_{i+1-k}^{p^k}) / p^(k+1).

    The result is t_{i+1} plus p times a p-integral rest, with no check
    needed: the t_1^m and the rbar_k lie in Q[t_1..t_i], and their
    coefficients are p * c_m or (p / alphabar_k) * rbar_k with c_m and
    rbar_k checked p-integral and alphabar_k a unit.

    Everything runs on integers.  The element is (N, D): integer
    numerators on packed {l, t} keys (a field of ``W.bit_length()`` bits
    per exponent, as :func:`_key`) over one denominator, summed by
    :func:`_combine`; d_{p^(i-k)}^{p^k} is :func:`_power` of the cached
    lower element.  Nothing is truncated and no key carries: every term
    has weight <= delta_p(p^i) <= W, since t_1^m has weight m and
    p^k * delta_p(p^(i-k)) < delta_p(p^i).  rbar_k = M / (D' * p^(k+1))
    for integer numerators M over D' is p-integral iff
    p^(val_p(D') + k + 1) divides every M.  The functional ``work`` and the
    corrections are shadows, (N, D) keyed by u-degree, on the same kernel:
    ``work`` is :func:`_evaluate` on the powers of the generators' shadows
    that ``v1_functional`` keeps (:func:`_v1_power`), and each correction
    is one unreduced :func:`_combine`.  The v_1-shadow V is a ring map, so
    the row of d_{p^i} follows from rows at hand, with
    s_k = 1 / (p^k * alphabar_k): after the corrections ``work`` is
    V(t_{i+1}) - sum_m p * c_m * V(t_1)^m + sum_k s_k * V(t_{i+1-k})^{p^k},
    and V(d_{p^i}) is ``work`` minus sum_k s_k * V(d_{p^(i-k)})^{p^k},
    each lower row taken to the p^k by :func:`_power`, reduced once.  Its
    profile is checked on those integers (support <= n and
    :func:`bpadams.arith._shape_holds`); a row that fails goes to
    :func:`_check_profile` for its error.
    """
    p = ctx.p
    n = p ** i
    if i + 1 > ctx.gen_count:
        raise PolyError(
            f"d_{n} needs t_{i + 1} of weight {delta_p(p, n)}, beyond bound "
            f"{ctx.weight_bound}")
    table, W = ctx.lt_table, ctx.weight_bound
    width = W.bit_length()
    read = _exponent_reader(len(table), width)

    def t_key(k: int, e: int) -> int:
        """The packed key of t_k^e."""
        exps = [0] * len(table)
        exps[table.index(f"t{k}")] = e
        return _key(exps, width)

    top, t1 = t_key(i + 1, 1), table.index("t1")
    parts = [(1, ({top: 1}, 1))]
    budget = delta_p(p, n)
    if i:
        scales = [Fraction(1, p ** k) / ctx.alphabar(k) for k in range(1, i + 1)]  # the s_k
        terms = [(read(top), 1, 1)]
        for k, s in enumerate(scales, 1):
            terms.append((read(t_key(i + 1 - k, p ** k)), s.numerator, s.denominator))
        work, work_den = _evaluate(terms, lambda g, e: _v1_power(ctx, g, e))
        # back-substitute from the top index down to p^i + 1
        for j in range(budget, n, -1):
            coeff = work.get(j)
            if not coeff:
                continue
            vj, dj = _v1_power(ctx, t1, j)
            cj = Fraction(coeff * dj, work_den * p * vj[j])
            if val_p(p, cj) < 0:
                raise ConstructionError(
                    f"correction coefficient for t_1^{j} is not {p}-locally "
                    f"integral", {"n": n, "m": j, "coefficient": format_rational(cj)})
            work, work_den = _combine([(1, (work, work_den)),
                                       (-p * cj.numerator, (vj, dj * cj.denominator))],
                                      reduced=False)
            parts.append((-p * cj.numerator, ({t_key(1, j): 1}, cj.denominator)))
        if any(j > n for j in work):
            raise ConstructionError(
                f"cancellation left support above mu_{n}",
                {"n": n, "functional": MuLinear._from_numerators(work, work_den).to_text()})
        rows = [(1, (work, work_den))]
        for k, s in enumerate(scales, 1):
            low = special_element(ctx, p ** (i - k))
            num, den = _power((low._row, low.den), p ** k)
            rows.append((-s.numerator, (num, s.denominator * den)))
            num, den = _power(low._poly, p ** k)
            key = t_key(i + 1 - k, p ** k)
            diff = dict(num)
            diff[key] = diff.get(key, 0) - den
            # rbar_k = diff / (den * p^(k+1))
            scale = p ** (k + 1)
            modulus = p ** val_p(p, den) * scale
            if any(c % modulus for c in diff.values()):
                raise ConstructionError(
                    f"inductive remainder for k={k} is not integral",
                    {"n": n, "k": k})
            parts.append((-s.numerator, (diff, den * s.denominator)))  # -p / (p^(k+1) alphabar_k)
        row, row_den = _combine(rows)
    else:  # d_1 = t_1
        row, row_den = _v1_power(ctx, t1, 1)
    if max(row, default=0) > n or not _shape_holds(p, budget, row.get(n), row.values(), row_den):
        _check_profile(p, n, MuLinear._from_numerators(row, row_den))  # raises its error
    return SpecialElement(p, n, row, row_den, table, W, _combine(parts))


def special_element(ctx: BPContext, n: int) -> SpecialElement:
    """The congruence element d_n, kept in the context's special-element
    cache (``"special"``, d_0 included).

    Prime powers come from the inductive construction on integers
    (:func:`_special_prime_power`), their rows checked on integers.  A
    general n is d_{n - p^k} * d_{p^k}, p^k the lowest non-zero base-p
    digit of n, so d_n is the product of the d_{p^k}^{a_k} over its
    base-p digits a_k.  Its row is the product (:func:`_multiply`, on
    u-degree keys) of the two factors' integer rows: entry j is
    (sum_i A_i * B_{j-i}) / (da * db), reduced to the lcm of the
    denominators (:func:`_reduced`).  The element polynomial is built
    only when ``element`` is read: a composite's is the product of its
    factors', truncated if the context bound is below delta_p(n);
    truncation is a ring map, and the row is exact regardless.

    A composite meets the profile of :func:`_check_profile` with no
    check.  p^k is the lowest base-p digit of n, so adding a = n - p^k and
    b = p^k in base p has no carry, and by Kummer's theorem
    nu_p(n!) = nu_p(a!) + nu_p(b!); hence delta_p(a) + delta_p(b) =
    delta_p(n).  By induction the entries of d_a lie in
    p^-delta_p(a) Z_(p) and those of d_b in p^-delta_p(b) Z_(p), so every
    entry of the convolution lies in p^-delta_p(n) Z_(p).  Its top entry,
    at a + b = n, is the product of the two pivots: a unit times
    p^-delta_p(n).  Nothing lies beyond n.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    cache = ctx._hopf_cache.setdefault("special", {})
    if n in cache:
        return cache[n]
    p = ctx.p
    k = 0
    while n and n % p ** (k + 1) == 0:
        k += 1
    if not n:
        out = SpecialElement(p, 0, {0: 1}, 1, ctx.lt_table, ctx.weight_bound, ({0: 1}, 1))
    elif n == p ** k:
        out = _special_prime_power(ctx, k)
    else:
        dk, low = special_element(ctx, p ** k), special_element(ctx, n - p ** k)
        row, den = _reduced(_multiply(dk._row, low._row.items()), low.den * dk.den)
        out = SpecialElement(p, n, row, den, ctx.lt_table, ctx.weight_bound,
                             _factors=(low, dk))
    cache[n] = out
    return out
