"""Solution lattices of finite congruence systems over the p-local integers.

A system is a finite set of rational row vectors c; its solutions are the
integer-valued sequences mu in Z_(p)^(n+1) with every c . mu in Z_(p).
Because Z_(p) is a discrete valuation ring, Hermite-style reduction needs
only valuation pivoting: any entry of minimal p-valuation is a pivot and
denominators coprime to p are exact units.  All arithmetic is exact; no
p-adic truncation or modular approximation appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import dot, ensure_prime, format_rational, val_p


class LatticeError(ValueError):
    """Dimension mismatches and malformed systems."""


def residue(p: int, x: Fraction, k: int) -> Fraction:
    """Canonical representative of x modulo p^k Z_(p), for any integer k.

    The unique r in [0, p^k) whose denominator is a power of p and with
    x - r in p^k Z_(p): zero when x lies in p^k Z_(p), an integer when x
    is p-locally integral and k >= 0.
    """
    num, den, v = x.numerator, x.denominator, 0
    while den % p == 0:
        den //= p
        v += 1
    if k + v <= 0:
        return Fraction(0)
    # x = num / (den * p^v) with gcd(den, p) = 1
    modulus = p ** (k + v)
    return Fraction(num * pow(den, -1, modulus) % modulus, p ** v)


def p_fractional_part(p: int, x: Fraction) -> Fraction:
    """Canonical representative of x modulo Z_(p).

    Zero when x is p-locally integral; otherwise N'/p^v with
    0 < N' < p^v, where v = -val_p(x).
    """
    return residue(p, Fraction(x), 0)


@dataclass(frozen=True)
class CongruenceSystem:
    """Rows c_r of length n + 1, each read as "c_r . mu in Z_(p)"."""

    p: int
    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        ensure_prime(self.p)
        if self.n < 0:
            raise LatticeError("top index must be non-negative")
        clean = []
        for r in self.rows:
            r = tuple(Fraction(x) for x in r)
            if len(r) != self.n + 1:
                raise LatticeError(
                    f"row length {len(r)} does not match size {self.n + 1}")
            clean.append(r)
        object.__setattr__(self, "rows", tuple(clean))

    def satisfied_by(self, mu: Sequence[Fraction | int]) -> bool:
        if len(mu) < self.n + 1:
            raise LatticeError("sequence too short for this system")
        vals = [Fraction(m) for m in mu[: self.n + 1]]
        return all(val_p(self.p, dot(row, vals)) >= 0 for row in self.rows)

    def pivot_valuations(self) -> tuple[int, ...]:
        """For triangular systems: e_r with pivot p^-e_r at index r."""
        out = []
        for r, row in enumerate(self.rows):
            if r > self.n or not row[r]:
                raise LatticeError(f"row {r} has no non-zero pivot at index {r}")
            out.append(-val_p(self.p, row[r]))
        return tuple(out)

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "rows": [[format_rational(x) for x in row] for row in self.rows],
        }


def _reduce_rows(p: int, rows: Sequence[Sequence[Fraction]], size: int,
                 ) -> list[list[Fraction]]:
    """Triangular form of the row module spanned by the given rows
    together with the identity (integral) rows.

    Returns T with T[j] supported on columns 0..j and pivot T[j][j] a
    pure power p^-e_j, e_j >= 0.  Every column has a pivot: the identity
    row e_j is untouched until column j.
    """
    pool = [list(row) for row in rows]
    for j in range(size):
        ident = [Fraction(0)] * size
        ident[j] = Fraction(1)
        pool.append(ident)

    T: list[list[Fraction]] = []
    for col in range(size - 1, -1, -1):
        pivot = min((r for r in pool if r[col]), key=lambda r: val_p(p, r[col]))
        pool.remove(pivot)
        e = -val_p(p, pivot[col])
        unit = pivot[col] * Fraction(p) ** e
        pivot = [x / unit for x in pivot]
        for r in pool:
            if r[col]:
                z = r[col] / pivot[col]
                for i in range(col + 1):
                    r[i] -= z * pivot[i]
        pool = [r for r in pool if any(r)]
        T.append(pivot)
    return T[::-1]


def triangularize(sys: CongruenceSystem) -> CongruenceSystem:
    """Equivalent canonical triangular system (one row per index).

    Entries left of each pivot are reduced to their canonical residue
    modulo the lower pivot rows.
    """
    p = sys.p
    T = _reduce_rows(p, sys.rows, sys.n + 1)
    for j, row in enumerate(T):
        for i in range(j - 1, -1, -1):
            z = (row[i] - residue(p, row[i], val_p(p, T[i][i]))) / T[i][i]
            if z:
                for k in range(i + 1):
                    row[k] -= z * T[i][k]
    return CongruenceSystem(p, sys.n, tuple(tuple(r) for r in T))


@dataclass(frozen=True)
class SolutionLattice:
    """Canonical lower-triangular basis of the solution set.

    Column j has the pure power p^e_j on the diagonal and integer entries
    in [0, p^e_i) below it (row i); the columns generate exactly the
    mu in Z_(p)^(n+1) satisfying the defining system.
    """

    p: int
    basis: tuple[tuple[Fraction, ...], ...]  # basis[i][j] = entry i of column j

    @property
    def size(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        out = []
        for j in range(self.size):
            out.append(int(val_p(self.p, self.basis[j][j])))
        return tuple(out)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.basis[i][j] for i in range(self.size))

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.size)]

    def coordinates(self, mu: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Coefficients x with mu = sum_j x_j * column_j (exact)."""
        if len(mu) != self.size:
            raise LatticeError("dimension mismatch")
        residual = [Fraction(m) for m in mu]
        coords = []
        for j in range(self.size):
            x = residual[j] / self.basis[j][j]
            coords.append(x)
            if x:
                for i in range(j, self.size):
                    residual[i] -= x * self.basis[i][j]
        return tuple(coords)

    def contains(self, mu: Sequence[Fraction | int]) -> bool:
        return all(val_p(self.p, x) >= 0 for x in self.coordinates(mu))

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "pivots": list(self.pivots()),
            "basis_columns": [[format_rational(x) for x in self.column(j)]
                              for j in range(self.size)],
        }


def solve(sys: CongruenceSystem) -> SolutionLattice:
    """Canonical basis of {mu in Z_(p)^(n+1) : every row lands in Z_(p)}.

    The rows are reduced to triangular rows T_0..T_n, T_j supported on
    indices 0..j.  T_0..T_{j-1} span the part of the row module supported
    on indices below j, so by duality the solutions of T_0..T_{j-1} are
    the projection of the solutions of T_0..T_j: starting from the empty
    lattice, each :func:`extend_lattice` by the next row succeeds.
    """
    lat = SolutionLattice(sys.p, ())
    for j, row in enumerate(_reduce_rows(sys.p, sys.rows, sys.n + 1)):
        lat = extend_lattice(lat, row[: j + 1])
    return lat


def extend_lattice(lat: SolutionLattice, row: Sequence[Fraction | int]) -> SolutionLattice:
    """Canonical solution lattice of ``lat``'s system plus one row.

    The row has length ``lat.size + 1``; its last entry c_n is the pivot
    and c' are the others.  With e = max(0, -val_p(c_n)), each column b_j
    of ``lat`` gains the entry -(c' . b_j)/c_n reduced into [0, p^e), and
    the column p^e * e_n is appended.  The result is the canonical basis
    of the whole system (it is unique), at one exact dot product per old
    column.  Raises :class:`LatticeError` when c_n is zero or some
    -(c' . b_j)/c_n is not p-locally integral; the reduced rows of
    :func:`solve` and rows meeting the shape hypotheses of
    :func:`sandwich_check` never do.
    """
    p, size = lat.p, lat.size
    if len(row) != size + 1:
        raise LatticeError(f"row length {len(row)} does not match size {size + 1}")
    row = [Fraction(x) for x in row]
    pivot = row[size]
    if not pivot:
        raise LatticeError(f"row has a zero pivot at index {size}")
    e = max(0, -val_p(p, pivot))
    last = []
    for j in range(size):
        t = -dot(row[j:size], (lat.basis[i][j] for i in range(j, size))) / pivot
        if val_p(p, t) < 0:
            raise LatticeError(f"column {j} extends by {format_rational(t)}, "
                               f"which is not {p}-locally integral")
        last.append(residue(p, t, e))
    last.append(Fraction(p ** e))
    zero = (Fraction(0),)
    return SolutionLattice(p, tuple(r + zero for r in lat.basis) + (tuple(last),))


def lattice_leq(first: SolutionLattice, second: SolutionLattice) -> bool:
    """True iff every basis column of the first lattice lies in the second."""
    if first.p != second.p or first.size != second.size:
        raise LatticeError("lattices live in different ambient spaces")
    return all(second.contains(first.column(j)) for j in range(first.size))


def lattice_eq(first: SolutionLattice, second: SolutionLattice) -> bool:
    return lattice_leq(first, second) and lattice_leq(second, first)


@dataclass(frozen=True)
class SandwichResult:
    """Outcome of the sandwich comparison; hypothesis failures are
    reported distinctly from inclusion failures."""

    status: str  # "equal" | "inclusion_failed" | "hypothesis_violation"
    equal: bool
    detail: str = ""

    def to_jsonable(self) -> dict:
        return {"status": self.status, "equal": self.equal, "detail": self.detail}


def sandwich_check(p: int, base_rows: Sequence, cn, cn_hat,
                   base: SolutionLattice | None = None) -> SandwichResult:
    """Compare the lattice of base + cn (S) with that of base + cn_hat (T).

    The rows are :class:`bpadams.adamsk.CongruenceVector` values;
    base_rows holds the shared rows c_0..c_{n-1}.  All must satisfy the
    triangular shape hypotheses (entries in p^-budget Z_(p), unit pivot),
    and cn and cn_hat must share a budget.  Then S and T have equal
    index, so S in T implies S = T, that is, equal canonical bases; other
    bases mean S is not in T.  ``base`` is the solution lattice of
    base_rows when the caller already holds it; otherwise it is built row
    by row.  The shape hypotheses imply the precondition of
    :func:`extend_lattice`, so S and T are each one extension of it.
    """
    ensure_prime(p)
    for r, vec in enumerate(list(base_rows) + [cn, cn_hat]):
        if vec.p != p:
            return SandwichResult("hypothesis_violation", False,
                                  f"row {r} has the wrong prime")
        if not vec.shape_ok():
            return SandwichResult(
                "hypothesis_violation", False,
                f"row with top index {vec.n} violates the pivot/valuation shape")
    n = cn.n
    if cn_hat.n != n or any(vec.n != i for i, vec in enumerate(base_rows)):
        return SandwichResult("hypothesis_violation", False,
                              "rows are not indexed 0..n")
    if cn.budget != cn_hat.budget:
        return SandwichResult("hypothesis_violation", False,
                              f"top rows have budgets {cn.budget} and {cn_hat.budget}")
    if base is None:
        base = SolutionLattice(p, ())
        for vec in base_rows:
            base = extend_lattice(base, vec.entries)
    elif base.p != p or base.size != n:
        raise LatticeError(f"base lattice is not in Z_({p})^{n}")
    s_lat, t_lat = extend_lattice(base, cn.entries), extend_lattice(base, cn_hat.entries)
    if s_lat == t_lat:
        return SandwichResult("equal", True)
    return SandwichResult("inclusion_failed", False, "S is not contained in T")
