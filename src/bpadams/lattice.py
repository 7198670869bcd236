"""Solution lattices of finite congruence systems over the p-local integers.

A system is a finite set of rational row vectors c; its solutions are the
integer-valued sequences mu in Z_(p)^(n+1) with every c . mu in Z_(p).
Because Z_(p) is a discrete valuation ring, Hermite-style reduction needs
only valuation pivoting: any entry of minimal p-valuation is a pivot and
denominators coprime to p are exact units.  The elimination runs on
integers modulo p^E (:func:`_reduce_rows`): scaled by p^E, the row
module contains p^E times every integral row, so working modulo p^E
changes nothing in it.

Canonical bases have integer columns, kept as packed rows in the one
packed-row format of the package, :class:`bpadams.arith.WordCodec`'s
signed digits in whole 32-bit words (:class:`SolutionLattice`), widened
to ``word_width(B + 1)`` when a test needs digits of B bits, and
:func:`extend_lattice` computes on them in ints.  A row is taken as
integer numerators N over one denominator,
its pivot numerator written p^s * u with u prime to p, and the new
column gets the pivot p^e, e = max(0, -val_p(c_n)).  Column j needs
acc = N' . b_j only modulo p^(s + e), and that residue is exact, not a
truncation: -acc/(p^s * u) is p-locally integral iff p^s divides acc,
which the residue decides because p^s divides p^(s + e); and the new
entry is -(acc / p^s) * u^-1 reduced into [0, p^e), which needs acc / p^s
modulo p^e, that is acc modulo p^(s + e).  Every basis is the exact
canonical one; nothing is rounded or approximated.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property

from .arith import (WordCodec, _nu, _Record, ensure_prime, exact, format_over, format_rational,
                    integer_numerators, integral_dot, word_width)


#: the codec of every lattice's packed rows; its offsets, kept per width, are shared
_CODEC = WordCodec()


class LatticeError(ValueError):
    """Dimension mismatches and malformed systems.  ``column`` is the basis
    column an extension failed on, None for any other error."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class CongruenceSystem(_Record):
    """Rows c_r of length n + 1, each read as "c_r . mu in Z_(p)".

    The rows are kept as integers (N, D), entries N_i / D with D > 0, in
    ``integer_rows``: ``_integer`` when given (D need not be least; ``rows``
    is then None), else :func:`bpadams.arith.integer_numerators` of each
    row.  ``rows``, as ``Fraction``s, is built on first read.
    """

    _fields = ("p", "n", "rows")

    def __init__(self, p: int, n: int, rows: Iterable[Sequence[Fraction | int]] | None,
                 _integer: Iterable[tuple[Sequence[int], int]] | None = None):
        ensure_prime(p)
        if n < 0:
            raise LatticeError("top index must be non-negative")
        integer = tuple(map(integer_numerators, rows) if _integer is None else _integer)
        for nums, _ in integer:
            if len(nums) != n + 1:
                raise LatticeError(
                    f"row length {len(nums)} does not match size {n + 1}")
        self.__dict__.update(p=p, n=n, integer_rows=integer)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, den) for x in nums) for nums, den in self.integer_rows)

    def satisfied_by(self, mu: Sequence[Fraction | int]) -> bool:
        if len(mu) < self.n + 1:
            raise LatticeError("sequence too short for this system")
        values = integer_numerators(mu[: self.n + 1])
        return all(integral_dot(self.p, row, values) for row in self.integer_rows)

    def pivot_valuations(self) -> tuple[int, ...]:
        """For triangular systems: e_r with pivot p^-e_r at index r."""
        p, out = self.p, []
        for r, (nums, den) in enumerate(self.integer_rows):
            if r > self.n or not nums[r]:
                raise LatticeError(f"row {r} has no non-zero pivot at index {r}")
            out.append(_nu(p, den) - _nu(p, nums[r]))
        return tuple(out)

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "rows": [format_over(nums, den) for nums, den in self.integer_rows],
        }


def _padded(rows: Iterable[tuple[Sequence[int], int]], size: int) -> list[tuple[list[int], int]]:
    """The integer rows (N, D), each with at most ``size`` entries, padded
    with zeros to ``size``."""
    return [([*nums] + [0] * (size - len(nums)), den) for nums, den in rows]


def _reduce_rows(p: int, rows: Iterable[tuple[Sequence[int], int]], size: int,
                 ) -> tuple[list[list[int]], int]:
    """Triangular form of the row module spanned by the given rows
    together with the identity (integral) rows, on integers.  Each row is
    (N, D), the entries N_i / D, with ``size`` int numerators and D > 0, as
    :class:`CongruenceSystem` keeps it.

    Returns (T, E) for the rows T[j] / p^E: T[j] is supported on columns
    0..j and its pivot T[j][j] = p^f_j is a pure power, 0 <= f_j <= E.
    Every column has a pivot: the module's pivot at j is p^-(E - f_j).

    E is the largest exponent of p in a row's denominators, so the module
    scaled by p^E lies in Z_(p)^size and contains p^E Z_(p)^size.  Each
    row times p^E is an integer vector up to a p-unit, which spans the
    same Z_(p)-module, and every entry is kept modulo p^E.  For each
    column from the last down, a row whose entry has the least valuation
    f is the pivot, made p^f by one inverse modulo p^E and cleared from
    the other rows.  p^E e_j stands for the identity row: it is the pivot
    when no row has valuation below E at j, and otherwise it leaves
    p^(E - f) times the pivot row, below j, to the lower columns.
    """
    scaled = [(nums, _nu(p, den)) for nums, den in rows]
    E = max((v for _, v in scaled), default=0)
    modulus = p ** E
    pool = [[x * p ** (E - v) % modulus for x in nums] for nums, v in scaled]
    pool = [r for r in pool if any(r)]
    T: list[list[int]] = [[]] * size
    for col in range(size - 1, -1, -1):
        best, f = None, E
        for r in pool:
            if r[col]:
                k = _nu(p, r[col])
                if k < f:
                    best, f = r, k
        if best is None:
            T[col] = [0] * col + [modulus] + [0] * (size - col - 1)
            continue
        inverse = pow(best[col] // p ** f, -1, modulus)
        pivot = [x * inverse % modulus for x in best]
        low = p ** (E - f)
        pool = [r for r in pool if r is not best]
        pool.append([-x * low % modulus for x in pivot[:col]] + [0] * (size - col))
        head = p ** f
        for r in pool:
            z = r[col] // head
            if z:
                for i in range(col + 1):
                    r[i] = (r[i] - z * pivot[i]) % modulus
        pool = [r for r in pool if any(r)]
        T[col] = pivot
    return T, E


def _canonical_rows(p: int, rows: Iterable[tuple[Sequence[int], int]], size: int,
                    ) -> tuple[list[list[int]], int]:
    """The canonical triangular rows T[j] / p^E of the integer rows (N, D):
    those of :func:`_reduce_rows`, with each entry left of a pivot
    reduced to its canonical residue modulo the lower pivot rows, entry i
    taken into [0, p^f_i) by floor division by the pivot p^f_i."""
    T, E = _reduce_rows(p, rows, size)
    for j, row in enumerate(T):
        for i in range(j - 1, -1, -1):
            z = row[i] // T[i][i]
            if z:
                for k in range(i + 1):
                    row[k] -= z * T[i][k]
    return T, E


def triangularize(sys: CongruenceSystem) -> CongruenceSystem:
    """Equivalent canonical triangular system (one row per index): the
    rows of :func:`_canonical_rows`, each over p^E."""
    T, E = _canonical_rows(sys.p, sys.integer_rows, sys.n + 1)
    den = sys.p ** E
    return CongruenceSystem(sys.p, sys.n, None, [(row, den) for row in T])


class SolutionLattice:
    """Canonical lower-triangular basis of the solution set.

    Column j has the pure power p^e_j on the diagonal and integer entries
    in [0, p^e_i) below it (row i); the columns generate exactly the
    mu in Z_(p)^(n+1) satisfying the defining system.  The entries are
    ``int``s; ``basis[i][j]`` is entry i of column j.  A basis of any
    other shape raises :class:`LatticeError`, and a p that is not prime
    ``ValueError``.

    The lattice is kept as packed rows of :class:`bpadams.arith.WordCodec`:
    basis row i is one int P_i = sum_{j <= i} basis[i][j] * 2^(S * j)
    (column j is zero above index j), next to the pivots e_j and the
    largest diagonal entry p^E, which bounds every entry.  The width S is
    whole 32-bit words with every entry below 2^(S - 1), so digit j of P_i
    is the entry itself, read as a signed digit.  A lattice built by
    :func:`extend_lattice` keeps its parent's packed rows, pivots and
    largest diagonal entry and adds one of each; ``basis`` is decoded from
    the rows on first access.  The width S only grows: when an extension
    or a sample test needs wider digits (:meth:`_packed`), the rows are
    re-spread once, at the word width of :func:`bpadams.arith.word_width`.
    Re-spreading changes the representation, not the lattice, so it is
    done in place, by one assignment of the (S, rows) pair: two threads
    that widen at once each leave a valid packing.
    """

    def __init__(self, p: int, basis: Sequence[Sequence[int]]):
        ensure_prime(p)
        if any(exact(x).denominator != 1 for row in basis for x in row):
            raise LatticeError("basis entries must be integers")
        basis = tuple(tuple(map(int, row)) for row in basis)
        size, pivots = len(basis), []
        for i, row in enumerate(basis):
            pivot = row[i] if len(row) == size else 0
            e = _nu(p, pivot) if pivot > 0 else 0
            if pivot != p ** e or any(row[i + 1:]) or not all(0 <= x < pivot for x in row[:i]):
                raise LatticeError(f"basis row {i} is not canonical: it needs {size} entries, "
                                   f"a power p^e of {p} on the diagonal, entries in [0, p^e) "
                                   "left of it and zeros right of it")
            pivots.append(e)
        top = max((basis[j][j] for j in range(size)), default=1)
        width = word_width(top.bit_length() + 1)
        self.p, self._pivots, self._top = p, tuple(pivots), top
        self._pack = (width, tuple(_CODEC.pack(row[: i + 1], width) for i, row in enumerate(basis)))
        self.basis = basis

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        (width, rows), decode = self._pack, _CODEC.decode
        return tuple((*decode(P, width), *(0,) * (len(rows) - i - 1)) for i, P in enumerate(rows))

    def _packed(self, modulus: int) -> tuple[int, tuple[int, ...]]:
        """(S, rows): the packed rows at a width S whose digits hold every
        entry and every sum sum_i r_i * P_i with 0 <= r_i < modulus.  Such
        a digit is below size * modulus * p^E, of B bits, and a signed
        digit of width S holds it when B < S; when it does not, the rows
        are re-spread at ``word_width(B + 1)``."""
        width, rows = pack = self._pack
        need = (max(len(rows), 1) * modulus * self._top).bit_length()
        if need >= width:
            wider = word_width(need + 1)
            self._pack = pack = (wider, tuple(_CODEC.respread(rows, width, wider)))
        return pack

    def _values(self, entries: Iterable[tuple[int, int]], modulus: int) -> list[int]:
        """The values modulo ``modulus`` of the row sum_i c_i * mu_i, given
        as pairs (i, c_i) with int c_i and i below ``size``, on every column,
        each in [0, modulus): the digits of V = sum_i (c_i mod modulus) * P_i,
        one multiply-add per entry, decoded and reduced.  The rows are packed
        wide enough (:meth:`_packed`) that no digit of V carries, so digit j
        is sum_i (c_i mod modulus) * b_ij, congruent to the value on column j."""
        width, rows = self._packed(modulus)
        digits = _CODEC.decode(sum(c % modulus * rows[i] for i, c in entries), width)
        return [x % modulus for x in digits] + [0] * (len(rows) - len(digits))

    def _vanishes(self, entries: Iterable[tuple[int, int]], modulus: int) -> bool:
        """Whether the row sum_i c_i * mu_i, given as in :meth:`_values`,
        vanishes modulo ``modulus`` = m on every column, without reading
        the columns one by one.

        V = sum_i (c_i mod m) * P_i has the digits d_j = sum_i (c_i mod m) *
        b_ij at the width S of :meth:`_packed`.  Every d_j is divisible by m
        iff m divides V and every base-2^S digit of q = V // m is at most
        L = (2^S - 1) // m: if d_j = m * q_j, then q_j <= L and those q_j
        are the digits of q; conversely, when the digits q_j of q are at
        most L, the m * q_j are below 2^S, so they are the digits of
        V = m * q, which are the d_j.  Adding 2^S - 1 - L to every digit of
        q overflows digit j iff q_j > L: the lowest such digit takes no
        carry from below, so it carries into bit S * (j + 1), and with no
        such digit nothing carries.  So the digits are at most L iff the
        sum carries into none of the bits S * j, j >= 1.  One divmod, one
        add and the carries, read as ``(q + C) ^ q ^ C``, with
        C = (2^S - 1 - L) * sum_{j < size} 2^(S j), the sum being the
        codec's offset at shift 0.  C and the carry bits are kept per modulus
        (:attr:`_carry_tests`); an entry at the current width also says
        that the width holds the digits."""
        width, rows = self._pack
        test = self._carry_tests.get(modulus)
        if test is None or test[0] != width:
            width, rows = self._packed(modulus)
            ones = _CODEC._offset(width, len(rows), 0)  # sum_{j < size} 2^(S j)
            full = (1 << width) - 1
            test = self._carry_tests[modulus] = (width, (full - full // modulus) * ones,
                                                 ones << width)
        _, add, carries = test
        quotient, rest = divmod(sum(c % modulus * rows[i] for i, c in entries), modulus)
        return not rest and not (quotient + add ^ quotient ^ add) & carries

    @cached_property
    def _carry_tests(self) -> dict[int, tuple[int, int, int]]:
        """modulus -> (S, C, carry bits) of :meth:`_vanishes` at width S,
        filled as the moduli are met; an entry of another width is
        replaced."""
        return {}

    @property
    def size(self) -> int:
        return len(self._pack[1])

    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.basis[i][j] for i in range(self.size))

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.size)]

    def coordinates(self, mu: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Coefficients x with mu = sum_j x_j * column_j (exact)."""
        if len(mu) != self.size:
            raise LatticeError("dimension mismatch")
        basis = self.basis
        residual = [exact(m) for m in mu]
        coords = []
        for j in range(self.size):
            x = residual[j] / basis[j][j]
            coords.append(x)
            if x:
                for i in range(j, self.size):
                    residual[i] -= x * basis[i][j]
        return tuple(coords)

    def contains(self, mu: Sequence[Fraction | int] | None,
                 _integer: tuple[Sequence[int], int] | None = None) -> bool:
        """Whether every coordinate of ``mu`` (:meth:`coordinates`) is
        p-locally integral, on integers.  With mu = N / D, D = p^v * D' and
        D' prime to p, the coordinates are x_j = R_j / (p^e_j * D), where R
        starts as N and loses (R_j / p^e_j) * column_j after pivot j.  So
        x_j is p-integral iff p^(e_j + v) divides R_j, and then R_j / p^e_j
        is an exact integer division.  ``_integer``, when given, is mu as
        (N, D) already, D > 0 and not necessarily least; ``mu`` is then
        None."""
        nums, den = integer_numerators(mu) if _integer is None else _integer
        if len(nums) != self.size:
            raise LatticeError("dimension mismatch")
        p, basis, residual = self.p, self.basis, list(nums)
        scale = p ** _nu(p, den)
        for j in range(self.size):
            pivot = basis[j][j]
            if residual[j] % (pivot * scale):
                return False
            x = residual[j] // pivot
            if x:
                for i in range(j + 1, self.size):
                    residual[i] -= x * basis[i][j]
        return True

    def __eq__(self, other: object) -> bool:
        """Equal p and equal canonical bases; packed rows of one width are
        equal exactly when the bases are."""
        if not isinstance(other, SolutionLattice):
            return NotImplemented
        if self.p != other.p or self._pivots != other._pivots:
            return False
        (width, rows), (other_width, other_rows) = self._pack, other._pack
        return rows == other_rows if width == other_width else self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.p, self._pivots))

    def __repr__(self) -> str:
        return f"SolutionLattice(p={self.p!r}, basis={self.basis!r})"

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
    lattice, each extension by the next row (:func:`extend_lattice`, on
    the integer rows over p^E as they are) succeeds.
    """
    lat = SolutionLattice(sys.p, ())
    T, E = _reduce_rows(sys.p, sys.integer_rows, sys.n + 1)
    den = sys.p ** E
    for j, row in enumerate(T):
        lat = _extended(lat, *_new_row(lat, row[: j + 1], den))
    return lat


def extend_lattice(lat: SolutionLattice, row: Sequence[Fraction | int] | None,
                   _integer: tuple[Sequence[int], int] | None = None) -> SolutionLattice:
    """Canonical solution lattice of ``lat``'s system plus one row.

    The row has length ``lat.size + 1``; its last entry c_n is the pivot
    and c' are the others.  With e = max(0, -val_p(c_n)), each column b_j
    of ``lat`` gains the entry -(c' . b_j)/c_n reduced into [0, p^e), and
    the column p^e * e_n is appended.  The result is the canonical basis
    of the whole system (it is unique).  Raises :class:`LatticeError` when
    c_n is zero or some -(c' . b_j)/c_n is not p-locally integral (its
    ``column`` is that j); the reduced rows of :func:`solve` and rows
    meeting the shape hypotheses of :func:`sandwich_check` never do.

    The row is scaled once to integer numerators N = D * row, D the lcm of
    its denominators, and every column is read at once from the packed
    rows (:func:`_new_row`).  The result keeps ``lat``'s packed rows and
    adds the new one.  ``_integer``, when given, is the row as (N, D)
    already, D > 0 and not necessarily least; ``row`` is then None.
    """
    nums, den = integer_numerators(row) if _integer is None else _integer
    if len(nums) != lat.size + 1:
        raise LatticeError(f"row length {len(nums)} does not match size {lat.size + 1}")
    return _extended(lat, *_new_row(lat, nums, den))


def _new_row(lat: SolutionLattice, nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """The basis row that extending ``lat`` by the row N / den adds, as
    its entries (b_0, .., b_{n-1}, p^e), and e; N has ``lat.size + 1``
    int entries and den > 0.

    The pivot numerator is p^s * u with u prime to p, and
    e = max(0, val_p(den) - s).  All columns are read at once by
    :meth:`SolutionLattice._values` modulo p^(s+e): value j is congruent
    to acc = N' . b_j modulo p^(s+e), so it decides whether p^s divides
    acc, and its quotient by p^s is acc / p^s modulo p^e, which gives the
    entry -(acc / p^s) * u^-1 modulo p^e (see the module docstring).  The
    exact acc is formed only for the message of a column that fails.
    """
    p, size = lat.p, lat.size
    if not nums[size]:
        raise LatticeError(f"row has a zero pivot at index {size}")
    s = _nu(p, nums[size])
    unit = nums[size] // p ** s
    e = max(0, _nu(p, den) - s)
    modulus = p ** e
    if not size:
        return [modulus], e
    digits = lat._values(enumerate(nums[:size]), p ** (s + e))
    if s:
        divisor = p ** s
        for j, x in enumerate(digits):
            if x % divisor:
                basis = lat.basis
                acc = sum(nums[i] * basis[i][j] for i in range(j, size))
                t = Fraction(-acc, nums[size])
                raise LatticeError(f"column {j} extends by {format_rational(t)}, "
                                   f"which is not {p}-locally integral", column=j)
            digits[j] = x // divisor
    factor = -pow(unit, -1, modulus)
    return [x * factor % modulus for x in digits] + [modulus], e


def _extended(lat: SolutionLattice, last: list[int], e: int) -> SolutionLattice:
    """``lat`` with the basis row ``last`` of :func:`_new_row` added: the
    parent's packed rows, pivots and largest diagonal entry, plus one."""
    modulus = last[-1]
    width, rows = lat._packed(modulus)  # only the empty lattice can be too narrow
    child = SolutionLattice.__new__(SolutionLattice)
    child.p, child._pivots, child._top = lat.p, lat._pivots + (e,), max(lat._top, modulus)
    child._pack = (width, rows + (_CODEC.pack(last, width),))
    return child


def lattice_leq(first: SolutionLattice, second: SolutionLattice) -> bool:
    """True iff every basis column of the first lattice lies in the second."""
    if first.p != second.p or first.size != second.size:
        raise LatticeError("lattices live in different ambient spaces")
    return all(second.contains(first.column(j)) for j in range(first.size))


def lattice_eq(first: SolutionLattice, second: SolutionLattice) -> bool:
    """True iff the two lattices are equal: their canonical bases (p^e on
    the diagonal, residues in [0, p^e_i) below it) are unique, so they
    agree exactly when the lattices do (``==``)."""
    if first.p != second.p or first.size != second.size:
        raise LatticeError("lattices live in different ambient spaces")
    return first == second


class SandwichResult(_Record):
    """Outcome of the sandwich comparison; hypothesis failures are
    reported distinctly from inclusion failures.  ``status`` is "equal",
    "inclusion_failed" or "hypothesis_violation".  ``s_lattice`` is the
    lattice S of base + cn, built whenever the hypotheses hold and None
    otherwise; it is not part of the outcome (equality, the repr, the
    JSON form)."""

    _fields = ("status", "equal", "detail")

    def __init__(self, status: str, equal: bool, detail: str = "",
                 s_lattice: SolutionLattice | None = None):
        self.__dict__.update(status=status, equal=equal, detail=detail, s_lattice=s_lattice)

    def to_jsonable(self) -> dict:
        return {"status": self.status, "equal": self.equal, "detail": self.detail}


def sandwich_check(p: int, base_rows: Sequence, cn, cn_hat) -> SandwichResult:
    """Compare the lattice of base + cn (S) with that of base + cn_hat (T).

    The rows are :class:`bpadams.adamsk.CongruenceVector` values;
    base_rows holds the shared rows c_0..c_{n-1}.  All must satisfy the
    triangular shape hypotheses (entries in p^-budget Z_(p), unit pivot),
    and cn and cn_hat must share a budget.  Then S and T have equal
    index, so S in T implies S = T, that is, equal canonical bases; other
    bases mean S is not in T.  The solution lattice of base_rows, ``base``,
    is built row by row.  The shape hypotheses imply the precondition of
    :func:`extend_lattice`, so S and T are each one extension of it, and
    they differ at most in their new basis row.  Each row enters as its
    integer numerators (``integer_row``); S is built, and T is not.

    T's row N / D is tested on every column of S at once, modulo
    p^(e + s) with p^e S's new pivot and p^s the p-part of N_n
    (:meth:`SolutionLattice._vanishes`).  Equal budgets give T the pivot
    p^e too, and nu_p(D) = e + s, so the test is "N . b in p^(e+s) Z for
    every column b of S", which says "S is in T".  It is also "T extends
    and adds S's row": S's columns are b_j' = (b_j, x_j) for the columns
    b_j of ``base`` and (0, .., 0, p^e); N . (0, .., p^e) = N_n * p^e is
    always divisible by p^(e+s), and with acc_j = N' . b_j,
    acc_j + N_n * x_j is divisible by p^(e+s) iff p^s divides acc_j
    (which is T's extension at j) and -(acc_j / p^s) * u^-1 = x_j modulo
    p^e (which is T's entry at j), u = N_n / p^s.  Only when the test
    fails is T's row computed (:func:`_new_row`): it raises where T does
    not extend, as the extension does, and otherwise differs from S's.
    The result carries S (``s_lattice``) for a caller that needs it.
    The checks run here; the comparison itself is :func:`_sandwich`.
    """
    ensure_prime(p)
    for r, vec in enumerate(list(base_rows) + [cn, cn_hat]):
        violation = _shape_violation(p, r, vec)
        if violation:
            return violation
    n = cn.n
    if cn_hat.n != n or any(vec.n != i for i, vec in enumerate(base_rows)):
        return SandwichResult("hypothesis_violation", False,
                              "rows are not indexed 0..n")
    if cn.budget != cn_hat.budget:
        return SandwichResult("hypothesis_violation", False,
                              f"top rows have budgets {cn.budget} and {cn_hat.budget}")
    base = SolutionLattice(p, ())
    for vec in base_rows:
        base = _extended(base, *_new_row(base, *vec.integer_row))
    return _sandwich(p, base, cn, cn_hat)


def _shape_violation(p: int, r: int, vec) -> SandwichResult | None:
    """The hypothesis violation :func:`sandwich_check` reports for row r,
    ``vec``, when it has another prime or fails the shape hypotheses;
    None when it meets them."""
    if vec.p != p:
        return SandwichResult("hypothesis_violation", False, f"row {r} has the wrong prime")
    if not vec.shape_ok():
        return SandwichResult(
            "hypothesis_violation", False,
            f"row with top index {vec.n} violates the pivot/valuation shape")
    return None


def _sandwich(p: int, base: SolutionLattice, cn, cn_hat) -> SandwichResult:
    """The comparison of :func:`sandwich_check`, for rows already checked
    against its hypotheses: cn and cn_hat meet the shape, share n and the
    budget, and ``base`` is the solution lattice of the rows below n."""
    n = cn.n
    s_lat = _extended(base, *_new_row(base, *cn.integer_row))
    t_nums, t_den = cn_hat.integer_row
    top = t_nums[n]
    if top and s_lat._vanishes(enumerate(t_nums), p ** (s_lat._pivots[n] + _nu(p, top))):
        return SandwichResult("equal", True, s_lattice=s_lat)
    _new_row(base, t_nums, t_den)  # raises where T does not extend
    return SandwichResult("inclusion_failed", False, "S is not contained in T", s_lat)
