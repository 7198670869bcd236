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

from .arith import ensure_prime, format_rational, val_p


class LatticeError(ValueError):
    """Dimension mismatches and malformed systems."""


def p_fractional_part(p: int, x: Fraction) -> Fraction:
    """Canonical representative of x modulo Z_(p).

    Zero when x is p-locally integral; otherwise N'/p^v with
    0 < N' < p^v, where v = -val_p(x).
    """
    x = Fraction(x)
    v = val_p(p, x)
    if v >= 0:
        return Fraction(0)
    pv = p ** (-v)
    unit = x.denominator // pv
    # x = num / (unit * p^v) with gcd(unit, p) = 1
    num = x.numerator * pow(unit, -1, pv) % pv
    return Fraction(num, pv)


def _residue_mod_power(p: int, x: Fraction, e: int) -> Fraction:
    """Canonical representative of x modulo p^-e Z_(p) (e >= 0)."""
    if e == 0:
        return p_fractional_part(p, x)
    scale = Fraction(p) ** e
    return p_fractional_part(p, x * scale) / scale


def _residue(x: Fraction, modulus: int) -> Fraction:
    """The integer in [0, modulus) congruent to a p-integral x, where
    modulus is a power of p (0 when modulus is 1)."""
    return Fraction(x.numerator * pow(x.denominator, -1, modulus) % modulus)


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
        return all(
            val_p(self.p, sum((c * m for c, m in zip(row, vals)), Fraction(0))) >= 0
            for row in self.rows)

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
    """Canonical triangular form of the row module spanned by the given
    rows together with the identity (integral) rows.

    Returns T with T[j] supported on columns 0..j and pivot T[j][j] a
    pure power p^-e_j, e_j >= 0; off-pivot entries are reduced to the
    canonical residue modulo the lower pivot rows.
    """
    pool: list[list[Fraction]] = [
        [Fraction(x) for x in row] for row in rows if any(row)]
    for j in range(size):
        ident = [Fraction(0)] * size
        ident[j] = Fraction(1)
        pool.append(ident)

    pivot_rows: list[list[Fraction] | None] = [None] * size
    for col in range(size - 1, -1, -1):
        candidates = [r for r in pool if r[col]]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda r: val_p(p, r[col]))
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
        pivot_rows[col] = pivot

    T = [row if row is not None else [Fraction(0)] * size for row in pivot_rows]
    # canonical pass: reduce entries left of each pivot modulo lower rows
    for col in range(size):
        row = T[col]
        for i in range(col - 1, -1, -1):
            e_i = -val_p(p, T[i][i])
            rep = _residue_mod_power(p, row[i], int(e_i))
            z = (row[i] - rep) / T[i][i]
            if z:
                for k in range(i + 1):
                    row[k] -= z * T[i][k]
    return T


def triangularize(sys: CongruenceSystem) -> CongruenceSystem:
    """Equivalent canonical triangular system (one row per index)."""
    T = _reduce_rows(sys.p, sys.rows, sys.n + 1)
    return CongruenceSystem(sys.p, sys.n, tuple(tuple(r) for r in T))


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
    """Triangular basis of {mu in Z_(p)^(n+1) : every row lands in Z_(p)}."""
    p = ensure_prime(sys.p)
    size = sys.n + 1
    T = _reduce_rows(p, sys.rows, size)
    # solutions are T^-1 applied to integral vectors; invert column by column
    cols: list[list[Fraction]] = []
    for j in range(size):
        x = [Fraction(0)] * size
        for i in range(size):
            acc = Fraction(1) if i == j else Fraction(0)
            for k in range(i):
                if x[k]:
                    acc -= T[i][k] * x[k]
            x[i] = acc / T[i][i]
        cols.append(x)
    # canonicalize: entries below the diagonal reduced modulo later pivots
    for j in range(size):
        col = cols[j]
        for i in range(j + 1, size):
            e_i = int(val_p(p, cols[i][i]))
            val = col[i]
            z = (val - _residue(val, p ** e_i)) / cols[i][i]
            if z:
                for k in range(i, size):
                    col[k] -= z * cols[i][k]
    basis = tuple(tuple(cols[j][i] for j in range(size)) for i in range(size))
    return SolutionLattice(p, basis)


def extend_lattice(lat: SolutionLattice, row: Sequence[Fraction | int]) -> SolutionLattice:
    """Canonical solution lattice of ``lat``'s system plus one row.

    The row has length ``lat.size + 1``; its last entry c_n is the pivot
    and c' are the others.  With e = max(0, -val_p(c_n)), each column b_j
    of ``lat`` gains the entry -(c' . b_j)/c_n reduced into [0, p^e), and
    the column p^e * e_n is appended.  The result is the basis
    :func:`solve` returns for the whole system (the canonical basis is
    unique), at one exact dot product per old column.  Raises
    :class:`LatticeError` when c_n is zero or some -(c' . b_j)/c_n is not
    p-locally integral; rows meeting the shape hypotheses of
    :func:`sandwich_check` never do.
    """
    p, size = lat.p, lat.size
    if len(row) != size + 1:
        raise LatticeError(f"row length {len(row)} does not match size {size + 1}")
    row = [Fraction(x) for x in row]
    pivot = row[size]
    if not pivot:
        raise LatticeError(f"row has a zero pivot at index {size}")
    modulus = p ** max(0, -val_p(p, pivot))
    last = []
    for j in range(size):
        t = -sum((row[i] * lat.basis[i][j] for i in range(j, size)), Fraction(0)) / pivot
        if val_p(p, t) < 0:
            raise LatticeError(f"column {j} extends by {format_rational(t)}, "
                               f"which is not {p}-locally integral")
        last.append(_residue(t, modulus))
    last.append(Fraction(modulus))
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

    All rows must satisfy the triangular shape hypotheses (entries in
    p^-budget Z_(p), unit pivot); under those hypotheses the two systems
    force lattices of equal index, so inclusion implies equality.  The
    rows are :class:`bpadams.adamsk.CongruenceVector` values; base_rows
    holds the shared rows c_0..c_{n-1}.  ``base`` is their solution
    lattice when the caller already holds it; otherwise it is built row
    by row.  The shape hypotheses imply the precondition of
    :func:`extend_lattice`, so S and T are each one extension of it, and
    equal bases mean equal lattices.
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
    if base is None:
        base = SolutionLattice(p, ())
        for vec in base_rows:
            base = extend_lattice(base, vec.entries)
    elif base.p != p or base.size != n:
        raise LatticeError(f"base lattice is not in Z_({p})^{n}")
    s_lat, t_lat = extend_lattice(base, cn.entries), extend_lattice(base, cn_hat.entries)
    if s_lat == t_lat:
        return SandwichResult("equal", True)
    if not lattice_leq(s_lat, t_lat):
        return SandwichResult("inclusion_failed", False,
                              "S is not contained in T")
    equal = lattice_leq(t_lat, s_lat)
    status = "equal" if equal else "inclusion_failed"
    detail = "" if equal else "S strictly below T despite matching shapes"
    return SandwichResult(status, equal, detail)
