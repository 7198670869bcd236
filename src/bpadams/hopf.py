"""The BP Hopf-algebroid right unit and the diagonal-operation calculus.

An element of the co-operation ring lives over the combined {l, t}
generator table (computed rationally).  A diagonal operation acting on
the weight-i coefficient group as multiplication by mu_i induces

* ``diagonal_transform`` - the left-linear map sending each co-operation
  to its rows: for each v-monomial, a rational linear form in the mu_i
  (a :class:`MuLinear`, computed by rewriting in the right-unit basis),
  and
* ``v1_functional`` - its scalar shadow obtained by sending v_1 to 1 and
  every higher v_n to 0.

``special_element`` builds, for every n, an element whose functional is
supported on mu_0..mu_n with a unit pivot of valuation -delta_p(n); these
are the congruence rows the centre verification pipeline feeds into the
lattice sandwich.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .arith import delta_p, format_rational, is_p_local_int, val_p
from .fgl import BPContext
from .polyring import GradedPoly, PolyError


class MuLinear:
    """A finite rational linear form sum_i c_i * mu_i: one congruence row."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        data: dict[int, Fraction] = {}
        if coeffs:
            for i, c in coeffs.items():
                c = Fraction(c)
                if c:
                    if i < 0:
                        raise PolyError("mu index must be non-negative")
                    data[int(i)] = c
        self.coeffs = data

    @classmethod
    def zero(cls) -> "MuLinear":
        return cls()

    @classmethod
    def unit(cls, i: int, c: Fraction | int = 1) -> "MuLinear":
        return cls({i: Fraction(c)})

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
        """Scalar multiple; forms do not multiply each other (see convolve)."""
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MuLinear({i: v * c for i, v in self.coeffs.items()})
        return NotImplemented

    def convolve(self, other: "MuLinear") -> "MuLinear":
        """(sum a_i mu_i) * (sum b_j mu_j) -> sum a_i b_j mu_{i+j}."""
        out: dict[int, Fraction] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                out[k] = out.get(k, Fraction(0)) + a * b
        return MuLinear(out)

    def convolve_power(self, k: int) -> "MuLinear":
        if k < 0:
            raise PolyError("negative convolution power")
        acc = MuLinear.unit(0)
        for _ in range(k):
            acc = acc.convolve(self)
        return acc

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
            acc += c * Fraction(vals[i])
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
        parts = [f"{c}*mu{i}" for i, c in sorted(self.coeffs.items())]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MuLinear({self.to_text()})"


class ConstructionError(RuntimeError):
    """Cancellation solve failed; carries a diagnostic payload."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class DiagonalAction:
    """The action sequence of a diagonal operation.

    ``values=None`` means the symbolic sequence mu_0, mu_1, ...; concrete
    sequences must consist of p-local integers.
    """

    p: int
    values: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.values is not None:
            vals = tuple(Fraction(v) for v in self.values)
            for k, v in enumerate(vals):
                if not is_p_local_int(self.p, v):
                    raise ValueError(
                        f"entry mu_{k} = {format_rational(v)} is not a "
                        f"{self.p}-local integer")
            object.__setattr__(self, "values", vals)

    def apply(self, form: MuLinear) -> Fraction | MuLinear:
        if self.values is None:
            return form
        return form.evaluate(self.values)


class _RightUnitData:
    """Per-context caches for the right unit and its triangular inverse."""

    __slots__ = ("etaR_l", "t_in_basis", "special_cache", "v_of_t1_power")

    def __init__(self, ctx: BPContext):
        W = ctx.weight_bound
        p = ctx.p
        self.etaR_l: list[GradedPoly] = []
        for n in range(1, ctx.gen_count + 1):
            acc = GradedPoly.gen(ctx.lt_table, W, f"t{n}")
            acc = acc + GradedPoly.gen(ctx.lt_table, W, f"l{n}")
            for k in range(1, n):
                acc = acc + (GradedPoly.gen(ctx.lt_table, W, f"l{k}")
                             * GradedPoly.gen(ctx.lt_table, W, f"t{n - k}", p ** k))
            self.etaR_l.append(acc)
        # t_n = e_n - l_n - sum_{1<=k<n} l_k * T_{n-k}^{p^k}, recursively
        self.t_in_basis: list[GradedPoly] = []
        for n in range(1, ctx.gen_count + 1):
            acc = (GradedPoly.gen(ctx.le_table, W, f"e{n}")
                   - GradedPoly.gen(ctx.le_table, W, f"l{n}"))
            for k in range(1, n):
                acc = acc - (GradedPoly.gen(ctx.le_table, W, f"l{k}")
                             * (self.t_in_basis[n - k - 1] ** (p ** k)))
            self.t_in_basis.append(acc)
        self.special_cache: dict[int, SpecialElement] = {}
        self.v_of_t1_power: dict[int, MuLinear] = {}


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
    beta and gamma are the v- and t-exponent vectors.
    """
    if isinstance(exponents, tuple):
        alpha = dict(zip((f"v{i}" for i in range(1, len(exponents) + 1)), exponents))
    else:
        alpha = dict(exponents)
    x = GradedPoly.const(ctx.l_table, ctx.weight_bound, 1)
    for name, e in alpha.items():
        idx = ctx.v_table.index(name) + 1
        x = x * (ctx.v_in_l(idx) ** int(e))
    y = right_unit_of_l_poly(ctx, x)
    # convert the left-hand l factors back to v's
    bindings = {f"l{n}": ctx.l_in_v(n).embedded(ctx.vt_table)
                for n in range(1, ctx.gen_count + 1)}
    z = y.substitute(bindings)
    nv = len(ctx.v_table)
    coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for exps, c in z.sorted_terms():
        coeffs[(exps[:nv], exps[nv:])] = c
    return z, coeffs


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


def diagonal_transform(ctx: BPContext, x: GradedPoly,
                       mu: DiagonalAction | None = None,
                       ) -> dict[tuple[int, ...], MuLinear] | GradedPoly:
    """Image of a co-operation element under a diagonal operation.

    Each basis element l^a * prod eta_R(l_n)^{b_n} maps to
    mu_w * l^a * l^b with w the weight of the e-part.  The terms are
    grouped by their l-monomial a + b, each distinct l-monomial is
    converted to the v generators once, and its v-terms are scattered
    into the rows.  Symbolically the result maps v-exponents to the
    non-zero mu-linear forms, in graded-lexicographic order; a concrete
    :class:`DiagonalAction` evaluates them to a polynomial over the v
    generators.
    """
    y = to_right_unit_basis(ctx, x)
    nl = len(ctx.l_table)
    by_l: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for exps, c in y.terms.items():
        a, b = exps[:nl], exps[nl:]
        form = by_l.setdefault(tuple(ai + bi for ai, bi in zip(a, b)), {})
        w = ctx.e_table.monomial_weight(b)
        acc = form.get(w)
        form[w] = c if acc is None else acc + c
    bindings = {f"l{n}": ctx.l_in_v(n) for n in range(1, ctx.gen_count + 1)}
    rows: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for key, form in by_l.items():
        image = GradedPoly.monomial(ctx.l_table, ctx.weight_bound, key).substitute(bindings)
        for delta, d in image.terms.items():
            row = rows.setdefault(delta, {})
            for w, c in form.items():
                acc = row.get(w)
                row[w] = c * d if acc is None else acc + c * d
    weight = ctx.v_table.monomial_weight
    out = {}
    for delta in sorted(rows, key=lambda e: (weight(e), e)):
        form = MuLinear(rows[delta])
        if form:
            out[delta] = form
    if mu is not None and mu.values is not None:
        return GradedPoly(ctx.v_table, ctx.weight_bound,
                          {delta: mu.apply(form) for delta, form in out.items()})
    return out


def v1_functional(ctx: BPContext, x: GradedPoly,
                  mu: DiagonalAction | None = None) -> Fraction | MuLinear:
    """Scalar value of the diagonal image under v_1 -> 1, v_n -> 0 (n > 1).

    Symbolically this is a finite rational linear form in the mu_i.
    """
    total = MuLinear.zero()
    for delta, form in diagonal_transform(ctx, x).items():
        if not any(delta[1:]):
            total = total + form
    if mu is not None:
        return mu.apply(total)
    return total


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


@dataclass(frozen=True)
class SpecialElement:
    """An element d_n with functional sum_j c_j mu_j, support <= n.

    Invariants (checked on construction): c_j lies in p^{-delta_p(n)} Z_(p)
    for j < n, and c_n is a unit multiple of p^{-delta_p(n)}.
    """

    p: int
    n: int
    element: GradedPoly
    c: tuple[Fraction, ...]

    def functional(self) -> MuLinear:
        return MuLinear({i: v for i, v in enumerate(self.c)})

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "element": self.element.to_text(),
            "c": [format_rational(v) for v in self.c],
        }


def _check_profile(p: int, n: int, form: MuLinear) -> tuple[Fraction, ...]:
    """Validate support and valuations; return the dense row c_0..c_n."""
    budget = delta_p(p, n)
    details = {"n": n, "p": p, "functional": form.to_text(), "budget": budget}
    top = form.top_index()
    if top is not None and top > n:
        raise ConstructionError(
            f"functional of d_{n} has support at mu_{top} > {n}", details)
    row = tuple(form.coefficient(i) for i in range(n + 1))
    for j in range(n):
        if val_p(p, row[j]) < -budget:
            raise ConstructionError(
                f"entry {j} of d_{n} has valuation below -delta_p(n) = -{budget}",
                details)
    if val_p(p, row[n]) != -budget:
        raise ConstructionError(
            f"pivot of d_{n} is not a unit multiple of p^-{budget}", details)
    return row


def _v_of_t1_power(ctx: BPContext, m: int) -> MuLinear:
    """Functional of t_1^m, computed directly (not via the product rule)."""
    rud = _rud(ctx)
    if m not in rud.v_of_t1_power:
        rud.v_of_t1_power[m] = v1_functional(ctx, t_gen(ctx, 1, m))
    return rud.v_of_t1_power[m]


def _special_prime_power(ctx: BPContext, i: int) -> "SpecialElement":
    """d_{p^i} = t_{i+1} + p * (correction), built inductively.

    The correction kills every mu index above p^i: first a Z_(p)
    combination of powers t_1^m (m from delta_p(p^i) down to p^i + 1)
    absorbs the top term of the t-recursion, then the inductive elements
    supply the remaining tail exactly.
    """
    p = ctx.p
    rud = _rud(ctx)
    n = p ** i
    if n in rud.special_cache:
        return rud.special_cache[n]
    if i + 1 > ctx.gen_count:
        raise PolyError(
            f"d_{n} needs t_{i + 1} of weight {delta_p(p, n)}, beyond bound "
            f"{ctx.weight_bound}")

    if i == 0:
        element = t_gen(ctx, 1)
        form = v1_functional(ctx, element)
    else:
        budget = delta_p(p, n)
        work = v1_functional(ctx, t_gen(ctx, i + 1))
        for k in range(1, i + 1):
            lower = v1_functional(ctx, t_gen(ctx, i + 1 - k, p ** k))
            work = work + lower * (Fraction(1, p ** k) / ctx.alphabar(k))
        # back-substitute from the top index down to p^i + 1
        corrections: dict[int, Fraction] = {}
        for m in range(budget, n, -1):
            coeff = work.coefficient(m)
            if not coeff:
                continue
            vm = _v_of_t1_power(ctx, m)
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
            d_low = _special_prime_power(ctx, i - k)
            diff = (d_low.element ** (p ** k)) - t_gen(ctx, i + 1 - k, p ** k)
            rbar = diff * Fraction(1, p ** (k + 1))
            bad = [c for c in rbar.terms.values() if not is_p_local_int(p, c)]
            if bad:
                raise ConstructionError(
                    f"inductive remainder for k={k} is not integral",
                    {"n": n, "k": k})
            element = element - rbar * (p / ctx.alphabar(k))
        form = v1_functional(ctx, element)

    row = _check_profile(p, n, form)
    # the inductive form t_{i+1} + p * r
    lead = element.coefficient_of({f"t{i + 1}": 1})
    if lead != 1:
        raise ConstructionError(f"d_{n} does not lead with t_{i + 1}", {"n": n})
    rest = element - t_gen(ctx, i + 1)
    if any(val_p(p, c) < 1 for c in rest.terms.values()):
        raise ConstructionError(f"d_{n} - t_{i + 1} is not divisible by {p}", {"n": n})

    out = SpecialElement(p, n, element, row)
    rud.special_cache[n] = out
    return out


def special_element(ctx: BPContext, n: int) -> SpecialElement:
    """The congruence element d_n.

    Prime powers come from the inductive construction; a general n with
    base-p digits a_k uses the product of the d_{p^k}^{a_k}, whose
    functional row is the convolution of the factors' rows.  The product
    polynomial is truncated if the context bound is below delta_p(n); the
    row is exact regardless.
    """
    p = ctx.p
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        element = GradedPoly.const(ctx.lt_table, ctx.weight_bound, 1)
        return SpecialElement(p, 0, element, (Fraction(1),))
    digits = []
    m, k = n, 0
    while m:
        digits.append((k, m % p))
        m //= p
        k += 1
    element = GradedPoly.const(ctx.lt_table, ctx.weight_bound, 1)
    form = MuLinear.unit(0)
    for k, a in digits:
        if a == 0:
            continue
        dk = _special_prime_power(ctx, k)
        element = element * (dk.element ** a)
        form = form.convolve(dk.functional().convolve_power(a))
    row = _check_profile(p, n, form)
    return SpecialElement(p, n, element, row)
