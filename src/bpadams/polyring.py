"""Sparse multivariate polynomials over exact rationals, graded by
integer generator weights and truncated at a fixed weight bound.

Coefficients are :class:`fractions.Fraction` (ints are converted);
anything else raises ``TypeError``.  Truncation drops any monomial whose
weight exceeds the bound; because the grading is by non-negative weights
this commutes with all ring operations, so arithmetic "mod weight > W"
is an honest quotient ring.

Values never change once built.  The public constructor validates its
input; arithmetic results satisfy the same invariants by construction
and skip that check.  Each polynomial keeps the powers computed from it
(``x ** k``) in a memo that fills lazily and without a lock, like the
caches of :class:`bpadams.fgl.BPContext`: a race can only compute an
equal power twice.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping


class PolyError(ValueError):
    """Raised for incompatible tables/bounds or malformed inputs."""


def _as_coeff(c: object) -> Fraction:
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


def _check_exps(table: "GeneratorTable", exps: tuple[int, ...]) -> None:
    if len(exps) != len(table):
        raise PolyError("exponent vector length does not match table")
    if any(e < 0 for e in exps):
        raise PolyError("negative exponent")


class GeneratorTable:
    """Ordered named generators with positive integer weights."""

    __slots__ = ("names", "weights", "_pos")

    def __init__(self, pairs: Iterable[tuple[str, int]]):
        names = []
        weights = []
        for name, w in pairs:
            if not isinstance(w, int) or w <= 0:
                raise PolyError(f"generator {name!r} needs a positive integer weight")
            names.append(str(name))
            weights.append(w)
        if len(set(names)) != len(names):
            raise PolyError("duplicate generator names")
        self.names = tuple(names)
        self.weights = tuple(weights)
        self._pos = {n: k for k, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorTable):
            return NotImplemented
        return self.names == other.names and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise PolyError(f"unknown generator {name!r}") from None

    def weight_of(self, name: str) -> int:
        return self.weights[self.index(name)]

    def monomial_weight(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, exps, self.weights))

    def union(self, other: "GeneratorTable") -> "GeneratorTable":
        pairs = list(zip(self.names, self.weights))
        for name, w in zip(other.names, other.weights):
            if name in self._pos:
                if self.weight_of(name) != w:
                    raise PolyError(f"conflicting weights for {name!r}")
                continue
            pairs.append((name, w))
        return GeneratorTable(pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"GeneratorTable({inner})"


class GradedPoly:
    """Sparse polynomial with dense exponent tuples, truncated at `bound`.

    The value never changes after construction; arithmetic returns new
    values.  ``_powers`` memoises ``x ** k`` on the instance: it fills
    lazily and unlocked, so share a polynomial across threads only as
    freely as the :class:`bpadams.fgl.BPContext` it came from.
    """

    __slots__ = ("table", "bound", "terms", "_powers")

    def __init__(self, table: GeneratorTable, bound: int,
                 terms: Mapping[tuple[int, ...], object] | None = None):
        if bound < 0:
            raise PolyError("weight bound must be non-negative")
        store: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                _check_exps(table, exps)
                c = _as_coeff(c)
                if not c:
                    continue
                if table.monomial_weight(exps) > bound:
                    continue
                store[exps] = c
        self.table = table
        self.bound = bound
        self.terms = store
        self._powers = None

    @classmethod
    def _trusted(cls, table: GeneratorTable, bound: int,
                 terms: dict[tuple[int, ...], Fraction]) -> "GradedPoly":
        """Wrap ``terms`` without a copy or a check.

        The caller guarantees the invariants the public constructor
        enforces: exponent tuples of the table's length with non-negative
        ints, non-zero ``Fraction`` coefficients, weights within ``bound``.
        """
        poly = object.__new__(cls)
        poly.table = table
        poly.bound = bound
        poly.terms = terms
        poly._powers = None
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable, bound: int) -> "GradedPoly":
        return cls(table, bound)

    @classmethod
    def const(cls, table: GeneratorTable, bound: int, c: object) -> "GradedPoly":
        return cls(table, bound, {(0,) * len(table): _as_coeff(c)})

    @classmethod
    def gen(cls, table: GeneratorTable, bound: int, name: str, power: int = 1) -> "GradedPoly":
        exps = [0] * len(table)
        exps[table.index(name)] = power
        return cls(table, bound, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, table: GeneratorTable, bound: int,
                 exps: tuple[int, ...], c: object = 1) -> "GradedPoly":
        return cls(table, bound, {tuple(exps): _as_coeff(c)})

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compat(self, other: "GradedPoly") -> None:
        if self.table != other.table:
            raise PolyError("mismatched generator tables")
        if self.bound != other.bound:
            raise PolyError("mismatched weight bounds")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.table == other.table and self.bound == other.bound
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.table, self.bound, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_compat(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = c
            else:
                acc += c
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return GradedPoly._trusted(self.table, self.bound, out)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._trusted(self.table, self.bound,
                                   {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __mul__(self, other: object) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            self._check_compat(other)
            table, bound = self.table, self.bound
            weigh = table.monomial_weight
            # each term of `other` is weighed once; lightest first, so the
            # inner loop stops at the first factor that overshoots
            right = sorted(((weigh(e2), e2, c2) for e2, c2 in other.terms.items()),
                           key=itemgetter(0))
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                room = bound - weigh(e1)
                for w2, e2, c2 in right:
                    if w2 > room:
                        break
                    key = tuple(map(add, e1, e2))
                    acc = out.get(key)
                    if acc is None:
                        out[key] = c1 * c2
                    else:
                        acc += c1 * c2
                        if acc:
                            out[key] = acc
                        else:
                            del out[key]
            return GradedPoly._trusted(table, bound, out)
        if isinstance(other, (int, Fraction)):
            c0 = _as_coeff(other)
            terms = {e: c * c0 for e, c in self.terms.items()} if c0 else {}
            return GradedPoly._trusted(self.table, self.bound, terms)
        return NotImplemented

    def __rmul__(self, other: object) -> "GradedPoly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "GradedPoly":
        if not isinstance(k, int) or k < 0:
            raise PolyError("polynomial powers must be non-negative integers")
        if k == 1:
            return self
        powers = self._powers
        if powers is None:
            powers = self._powers = {}
        elif k in powers:
            return powers[k]
        result = None
        base = self
        # square-and-multiply; truncation applies at every step
        e = k
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        if result is None:
            result = GradedPoly._trusted(self.table, self.bound,
                                         {(0,) * len(self.table): Fraction(1)})
        powers[k] = result
        return result

    # -- queries ---------------------------------------------------------

    def coefficient_of(self, monomial: Mapping[str, int] | tuple[int, ...]) -> Fraction:
        if isinstance(monomial, tuple):
            exps = monomial
        else:
            vec = [0] * len(self.table)
            for name, e in monomial.items():
                vec[self.table.index(name)] = int(e)
            exps = tuple(vec)
        _check_exps(self.table, exps)
        return self.terms.get(exps, Fraction(0))

    def homogeneous_weight(self) -> int | None:
        """Common weight of all terms, or None if mixed / zero."""
        weights = {self.table.monomial_weight(e) for e in self.terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def max_weight(self) -> int:
        return max((self.table.monomial_weight(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lexicographic order (weight, then exponent tuple)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (self.table.monomial_weight(kv[0]), kv[0]))

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "GradedPoly"]) -> "GradedPoly":
        """Exact substitution generator -> polynomial, truncated.

        Binding images must all live over one (target) table with the
        same bound, and each non-zero image must be homogeneous of the
        weight of the generator it replaces.  Generators without a
        binding must exist with identical weight in the target table.
        """
        images: dict[str, GradedPoly] = {}
        target_table: GeneratorTable | None = None
        target_bound: int | None = None
        for name, img in bindings.items():
            self.table.index(name)  # verify the key belongs to this table
            if target_table is None:
                target_table, target_bound = img.table, img.bound
            elif img.table != target_table or img.bound != target_bound:
                raise PolyError("binding images live over different tables/bounds")
            if not img.is_zero:
                hw = img.homogeneous_weight()
                if hw != self.table.weight_of(name):
                    raise PolyError(
                        f"binding for {name!r} is not homogeneous of weight "
                        f"{self.table.weight_of(name)}")
            images[name] = img
        if target_table is None:
            target_table, target_bound = self.table, self.bound

        for name in self.table.names:
            if name in images:
                continue
            if any(e[self.table.index(name)] for e in self.terms):
                # identity binding: the generator must exist in the target
                idx = target_table.index(name)
                if target_table.weights[idx] != self.table.weight_of(name):
                    raise PolyError(f"weight of {name!r} differs in target table")
                images[name] = GradedPoly.gen(target_table, target_bound, name)

        # powers of the images are memoised on the images themselves
        one = {(0,) * len(target_table): Fraction(1)}
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            acc = None
            for name, e in zip(self.table.names, exps):
                if e:
                    factor = images[name] ** e
                    acc = factor if acc is None else acc * factor
                    if acc.is_zero:
                        break
            for key, d in (one if acc is None else acc.terms).items():
                prev = out.get(key)
                if prev is None:
                    out[key] = c * d
                else:
                    prev += c * d
                    if prev:
                        out[key] = prev
                    else:
                        del out[key]
        return GradedPoly._trusted(target_table, target_bound, out)

    def embedded(self, supertable: GeneratorTable, bound: int | None = None) -> "GradedPoly":
        """Re-express over a table containing all of this table's generators."""
        bound = self.bound if bound is None else bound
        mapping = []
        for name, w in zip(self.table.names, self.table.weights):
            idx = supertable.index(name)
            if supertable.weights[idx] != w:
                raise PolyError(f"weight of {name!r} differs in supertable")
            mapping.append(idx)
        out: dict[tuple[int, ...], Fraction] = {}
        width = len(supertable)
        for exps, c in self.terms.items():
            vec = [0] * width
            for pos, e in zip(mapping, exps):
                vec[pos] = e
            out[tuple(vec)] = c
        return GradedPoly(supertable, bound, out)

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: graded-lex sorted monomials, exact coefficients."""
        if self.is_zero:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [f"{n}^{e}" if e > 1 else n
                       for n, e in zip(self.table.names, exps) if e]
            coeff = str(c)
            if factors:
                if coeff == "1":
                    parts.append("*".join(factors))
                else:
                    parts.append(coeff + "*" + "*".join(factors))
            else:
                parts.append(coeff)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GradedPoly({self.to_text()})"


def monomials_up_to_weight(table: GeneratorTable, bound: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of weight <= bound, in lexicographic order."""
    n = len(table)

    def rec(pos: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield prefix
            return
        w = table.weights[pos]
        for e in range(remaining // w + 1):
            yield from rec(pos + 1, remaining - e * w, prefix + (e,))

    yield from rec(0, bound, ())
