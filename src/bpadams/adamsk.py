"""Triangular families of polynomials in Adams operations and the
congruence systems they induce.

Operations are represented by their diagonal action sequences on
coefficient groups; that representation is faithful for the theories at
hand, so all computations happen on exact eigenvalue products:

* ``phi_ku``    - prod_{i<n} (Psi^q - q^i) on connective p-local K-theory,
* ``Phi_KU``    - prod_{i<n} (Psi^q - q_i) on the periodic theory, where
  q_i runs through 1, q, q^-1, q^2, q^-2, ...,
* ``phihat_g``  - prod_{i<n} (Psi^q - qhat^i) on the connective Adams
  summand, qhat = q^(p-1),
* ``zeta_ku2``  - the 2-local family built from Psi^3 and Psi^-1.

Each family is triangular: element n kills the first n coefficient
groups and acts non-trivially on the n-th, so sequences expand uniquely
in the family by a triangular solve, and integrality of the expansion is
a congruence system on the sequence.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import (_Record, _shape_holds, delta_p, dot, ensure_prime, exact, format_over,
                    gamma_p, integer_numerators, integral_dot, is_p_local_int, validate_q)
from . import lattice as _lattice

FAMILY_KINDS = ("phi_ku", "Phi_KU", "phihat_g", "zeta_ku2")


class AdamsFamily(_Record):
    """A named triangular family, described by its diagonal actions."""

    _fields = ("kind", "p", "q", "qhat")

    def __init__(self, kind: str, p: int, q: int, qhat: int):
        self.__dict__.update(kind=kind, p=p, q=q, qhat=qhat)

    def action(self, n: int, m: int) -> Fraction:
        return family_action(self, n, m)

    def degree_index(self, j: int) -> int:
        """Coefficient-group index checked at position j of a sequence."""
        if self.kind == "Phi_KU":
            return periodic_enum(j)
        return j


def periodic_enum(j: int) -> int:
    """The j-th exponent in the enumeration 0, 1, -1, 2, -2, ..."""
    if j < 0:
        raise ValueError("negative position")
    if j % 2 == 1:
        return (j + 1) // 2
    return -(j // 2)


def adams_family(kind: str, p: int, q: int | None = None) -> AdamsFamily:
    ensure_prime(p)
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family {kind!r}; choose from {FAMILY_KINDS}")
    q = validate_q(p, q)
    if kind == "zeta_ku2":
        if p != 2:
            raise ValueError("the zeta family is the p = 2 basis")
        return AdamsFamily(kind, 2, 3, 3)
    if p == 2:
        raise ValueError(f"family {kind!r} needs an odd prime")
    return AdamsFamily(kind, p, q, q ** (p - 1))


def _theta_value(r: int, x: Fraction) -> Fraction:
    """prod_{i<r} (x - 3^{2i})."""
    acc = Fraction(1)
    for i in range(r):
        acc *= x - 3 ** (2 * i)
    return acc


@lru_cache(maxsize=None)
def zeta_recursion_coefficient(i: int, half: int) -> Fraction:
    """Coefficient of the odd term in the even-index recursion.

    theta_i(3) * theta_i(3^{2*half}) / (2 * theta_i(3^{2i})); these must
    be 2-local integers for the family to live in the operation ring.
    """
    num = _theta_value(i, Fraction(3)) * _theta_value(i, Fraction(3 ** (2 * half)))
    den = 2 * _theta_value(i, Fraction(3 ** (2 * i)))
    return num / den


@lru_cache(maxsize=None)
def _zeta_action(n: int, m: int) -> Fraction:
    """Action of the n-th zeta element on the 2m-th coefficient group.

    Psi^3 acts by 3^m and Psi^-1 by (-1)^m; odd indices carry the
    (Psi^-1 - 1) factor, even indices recurse through the odd ones.
    """
    x = Fraction(3 ** m)
    sign = Fraction((-1) ** m)
    if n % 2 == 1:
        half = (n - 1) // 2
        acc = sign - 1
        for i in range(half):
            acc *= x - 3 ** (2 * i + 1)
        return acc
    half = n // 2
    acc = _theta_value(half, x)
    for i in range(1, half + 1):
        acc += zeta_recursion_coefficient(i, half) * _zeta_action(2 * (half - i) + 1, m)
    return acc


@lru_cache(maxsize=None)
def family_action(fam: AdamsFamily, n: int, m: int) -> Fraction:
    """Exact eigenvalue of the n-th family element on coefficient index m.

    Memoised: the value is a pure function of the frozen family and n, m.
    """
    if n < 0:
        raise ValueError("family index must be non-negative")
    if m < 0 and fam.kind != "Phi_KU":
        raise ValueError("the connective theory has no negative degrees")
    return _action(fam.kind, fam.qhat if fam.kind == "phihat_g" else fam.q, n, m)


def _action(kind: str, q: int | None, n: int, m: int) -> Fraction:
    """The eigenvalue of :func:`family_action` for a family of this kind
    whose generator is q (qhat on the summand; not read by zeta), with n
    and m already checked."""
    if kind == "zeta_ku2":
        return _zeta_action(n, m)
    if kind == "Phi_KU":  # periodic: m may be any integer, roots run through the enumeration
        roots = map(periodic_enum, range(n))
    else:  # connective: prod_{i<n} (q^m - q^i)
        roots = range(n)
    q = Fraction(q)
    base = q ** m
    return math.prod((base - q ** i for i in roots), start=Fraction(1))


def expand_in_family(fam: AdamsFamily, lam: Sequence[Fraction | int],
                     ) -> tuple[tuple[Fraction, ...], bool]:
    """Triangular solve of lam_m = sum_{n<=m} a_n action(n, m).

    Position j of the input corresponds to coefficient index
    ``fam.degree_index(j)``.  Returns the exact coefficients and whether
    they are all p-locally integral.  A float is refused
    (:func:`bpadams.arith.exact`).
    """
    values = [exact(x) for x in lam]
    coeffs: list[Fraction] = []
    for j, target in enumerate(values):
        m = fam.degree_index(j)
        acc = target
        for k, a in enumerate(coeffs):
            if a:
                acc -= a * family_action(fam, k, m)
        diag = family_action(fam, j, m)
        if not diag:
            raise ValueError(f"family diagonal vanishes at index {j}")
        coeffs.append(acc / diag)
    verdict = all(is_p_local_int(fam.p, a) for a in coeffs)
    return tuple(coeffs), verdict


def family_sequence(fam: AdamsFamily, coeffs: Sequence[Fraction | int],
                    length: int) -> tuple[Fraction, ...]:
    """Action sequence of sum_n a_n (family element n) on indices
    0..length-1; a float coefficient is refused (:func:`bpadams.arith.exact`)."""
    coeffs = [exact(a) for a in coeffs]
    out = []
    for j in range(length):
        m = fam.degree_index(j)
        acc = Fraction(0)
        for k, a in enumerate(coeffs):
            if a:
                acc += a * family_action(fam, k, m)
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# Congruence rows and systems
# ---------------------------------------------------------------------------

class CongruenceVector(_Record):
    """A row c with top index n: the condition is c . mu in Z_(p).

    ``budget`` is the expected pivot valuation: the shape hypotheses ask
    for entries in p^-budget Z_(p), a unit pivot c_n in p^-budget Z_(p)^x,
    and zeros beyond n.  The budget is non-negative (``ValueError``
    otherwise).  The row is kept as integers, ``integer_row`` = (N, D) with
    n + 1 entries N_i / D and D > 0, neither compared nor shown: ``_integer``
    when given (D need not be least; ``entries`` is then None), else
    :func:`bpadams.arith.integer_numerators` of the entries.  ``entries``
    is built from (N, D) on first read.
    """

    _fields = ("p", "n", "entries", "budget")

    def __init__(self, p: int, n: int, entries: tuple[Fraction, ...] | None, budget: int,
                 _integer: tuple[Sequence[int], int] | None = None):
        integer_row = integer_numerators(entries) if _integer is None else _integer
        if len(integer_row[0]) != n + 1:
            raise ValueError("entry vector must have length n + 1")
        if budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self.__dict__.update(p=p, n=n, budget=budget, integer_row=integer_row)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        nums, den = self.integer_row
        return tuple(Fraction(x, den) for x in nums)

    def shape_ok(self) -> bool:
        """The shape hypotheses, evaluated once per row (it is frozen)."""
        return self._shape

    @cached_property
    def _shape(self) -> bool:
        """:meth:`shape_ok`, on the integer row (N, D)
        (:func:`bpadams.arith._shape_holds`)."""
        nums, den = self.integer_row
        return _shape_holds(self.p, self.budget, nums[self.n], nums[: self.n], den)

    def dot(self, mu: Sequence[Fraction | int]) -> Fraction:
        if len(mu) < self.n + 1:
            raise ValueError("sequence too short for this row")
        return dot(self.entries, map(exact, mu))

    def padded(self, length: int) -> tuple[Fraction, ...]:
        if length < self.n + 1:
            raise ValueError("cannot pad below the support")
        return self.entries + (Fraction(0),) * (length - self.n - 1)

    def to_jsonable(self) -> dict:
        return {"n": self.n, "entries": format_over(*self.integer_row)}


# qhat -> (n, [n, 0..n]_qhat): the last q-Pascal row C_vector built for
# qhat; replaced by one assignment, never changed in place
_PASCAL: dict[int, tuple[int, list[int]]] = {}


@lru_cache(maxsize=None)
def C_vector(p: int, q: int, n: int) -> CongruenceVector:
    """The Gaussian congruence row for the connective Adams summand.

    c_{n,i} = (-1)^{n-i} qhat^C(n-i,2) [n, i]_qhat / p^delta_p(n); the
    pivot is exactly p^-delta_p(n) and entries vanish for i > n.  The
    values [n, 0..n]_qhat come from the q-Pascal recurrence
    [k, i] = [k-1, i-1] + qhat^i [k-1, i] on ints, one row per k, stepped
    from the last row built for qhat (:data:`_PASCAL`), or from row 0 when
    that row is past n: rows 0..n in turn cost O(n^2), not O(n^3).
    Memoised: the frozen row is a pure function of (p, q, n).
    """
    ensure_prime(p)
    if p == 2:
        raise ValueError("the Gaussian rows are the odd-prime system")
    qhat = q ** (p - 1)
    k, row = _PASCAL.get(qhat, (0, [1]))
    if k > n:
        k, row = 0, [1]
    powers = [qhat ** i for i in range(n)]
    for _ in range(k, n):
        row = [1] + [a + powers[i] * b for i, (a, b) in enumerate(zip(row, row[1:]), 1)] + [1]
    _PASCAL[qhat] = (n, row)
    # qhat^C(n-i, 2), i from n down: C(n-i, 2) - C(n-i-1, 2) = n-i-1, one multiply each
    nums, scale = [0] * (n + 1), 1
    for i in range(n, -1, -1):
        if i < n - 1:
            scale *= powers[n - i - 1]
        nums[i] = scale * row[i] if (n - i) % 2 == 0 else -scale * row[i]
    budget = delta_p(p, n)
    return CongruenceVector(p, n, None, budget, (tuple(nums), p ** budget))


def check_g_congruences(p: int, q: int, mu: Sequence[Fraction | int],
                        n: int) -> tuple[bool, ...]:
    """Per-index verdicts: does C_r . mu land in Z_(p) for r = 0..n?  Each
    from the row's integers (:func:`bpadams.arith.integral_dot`)."""
    validate_q(p, q)
    if len(mu) < n + 1:
        raise ValueError("sequence too short")
    values = integer_numerators(mu[: n + 1])
    return tuple(integral_dot(p, C_vector(p, q, r).integer_row, values) for r in range(n + 1))


def basis_integrality_rows(p: int, top: int, q: int | None = None,
                           ) -> tuple[tuple[Fraction, ...], ...]:
    """Rows expressing each expansion coefficient a_n as a functional of lam.

    Row n states the condition "a_n is p-locally integral"; together the
    rows for n = 0..top characterize which truncated action sequences
    extend to operations.  They are the rows of the inverse of the
    lower-triangular action matrix A of the connective family (phi for
    odd p, zeta for p = 2), A[m][k] = action(k, m): column j is the
    expansion of the unit sequence e_j (:func:`expand_in_family`).  The
    rows of :func:`_inverse_rows`, as ``Fraction``s.
    """
    return tuple(tuple(Fraction(x, den) for x in row)
                 for row, den in _lattice._padded(_inverse_rows(p, top, q), top + 1))


def _inverse_rows(p: int, top: int, q: int | None) -> list[tuple[list[int], int]]:
    """The rows of :func:`basis_integrality_rows` on integers: row m as
    (N, D), its entries N_j / D at j = 0..m.

    The inverse B is taken a row at a time: row m of A is integer
    numerators M over a denominator d, and
    B_m = (d * e_m - sum_{k<m} M_k * B_k) / M_m, summed over the lcm of
    the lower rows' denominators and reduced by the gcd, so each row of B
    is integers over the lcm of its entries' denominators.

    Row m of A is the connective family's action by :func:`_action`, the
    formula of :func:`family_action` without its memo, whose key hashes
    the family record per entry; q is not read at p = 2.
    """
    ensure_prime(p)
    kind, q = ("zeta_ku2", None) if p == 2 else ("phi_ku", validate_q(p, q))
    inverse: list[tuple[list[int], int]] = []
    for m in range(top + 1):
        nums, d = integer_numerators([_action(kind, q, k, m) for k in range(m + 1)])
        if not nums[m]:
            raise ValueError(f"family diagonal vanishes at index {m}")
        den = math.lcm(*(inverse[k][1] for k in range(m) if nums[k]))
        acc = [0] * m + [d * den]
        for k in range(m):
            if nums[k]:
                row, row_den = inverse[k]
                scale = nums[k] * (den // row_den)
                for j, x in enumerate(row):
                    acc[j] -= scale * x
        den *= nums[m]
        if den < 0:
            acc, den = [-x for x in acc], -den
        g = math.gcd(den, *acc)
        inverse.append(([x // g for x in acc], den // g))
    return inverse


@lru_cache(maxsize=None, typed=True)
def _ku_canonical_rows(p: int, top: int, q: int | None) -> tuple[CongruenceVector, ...]:
    """The rows of :func:`ku_congruence_system` as ``CongruenceVector``s,
    row n with top index n and budget gamma_p(n): the canonical triangular
    rows T[n] / p^E of :func:`_inverse_rows`, from one integer elimination
    (:func:`bpadams.lattice._canonical_rows`), each cut at n and divided
    by its gcd with p^E.  Memoised, as a tuple of frozen rows: they are a
    pure function of (p, top, q), and each row's shape verdict is taken
    once per process.  q is the one in use (:func:`bpadams.arith.validate_q`),
    so that one row set has one entry.  ``typed``, so a float p or top is
    still checked and refused; a refused argument is not cached."""
    size = top + 1
    T, E = _lattice._canonical_rows(p, _lattice._padded(_inverse_rows(p, top, q), size), size)
    scale, rows = p ** E, []
    for n, row in enumerate(T):
        g = math.gcd(scale, *row[: n + 1])
        rows.append(CongruenceVector(p, n, None, gamma_p(p, n),
                                     (tuple(x // g for x in row[: n + 1]), scale // g)))
    return tuple(rows)


def ku_congruence_system(p: int, top: int, q: int | None = None) -> "_lattice.CongruenceSystem":
    """The triangularized integrality system for connective p-local K-theory.

    The canonical triangular form of the rows of
    :func:`basis_integrality_rows`, whose pivot at index n has valuation
    -gamma_p(n), as :func:`bpadams.lattice.triangularize` gives it: the
    memoised rows of :func:`_ku_canonical_rows`, padded to top + 1.
    """
    rows = _ku_canonical_rows(p, top, validate_q(p, q))
    return _lattice.CongruenceSystem(p, top, None,
                                     _lattice._padded((vec.integer_row for vec in rows), top + 1))


def Phi_in_phi(p: int, q: int | None, n: int, top: int | None = None,
               ) -> tuple[tuple[Fraction, ...], bool]:
    """Expansion of the n-th periodic family element in the connective one.

    Evaluates the periodic element's action on the non-negative
    coefficient groups and solves triangularly in the phi family; the
    verdict says whether every coefficient (up to ``top``) is p-locally
    integral.
    """
    ensure_prime(p)
    if p == 2:
        raise ValueError("the periodic comparison is the odd-prime statement")
    q = validate_q(p, q)
    if top is None:
        top = n + 8
    periodic = adams_family("Phi_KU", p, q)
    connective = adams_family("phi_ku", p, q)
    lam = [family_action(periodic, n, m) for m in range(top + 1)]
    return expand_in_family(connective, lam)


def binomial_mu_congruence(p: int, j: int, k: int,
                           q: int | None = None) -> CongruenceVector:
    """The finite-difference row interleaving summand congruences.

    The offset-j correction is the vector ((-1)^{j-l} C(j, l))_{l=0..j}.
    With k = 0 the row is exactly that vector.  For k > 0 (odd p) the
    correction is interleaved with the k-th Gaussian row: index
    i(p-1) + l carries C_{k,i} * (-1)^{j-l} C(j, l), giving a row with
    top index n = k(p-1) + j and pivot valuation -gamma_p(n).  The row
    is built on integers, over C_k's denominator p^delta_p(k).
    """
    q = validate_q(p, q)
    if not 0 <= j <= p - 2:
        raise ValueError(f"offset j must satisfy 0 <= j <= p - 2, got {j}")
    if k < 0:
        raise ValueError("negative block index")
    binom = [(-1) ** (j - l) * math.comb(j, l) for l in range(j + 1)]
    n = k * (p - 1) + j
    if k == 0:
        return CongruenceVector(p, n, None, gamma_p(p, n), (tuple(binom), 1))
    if p == 2:
        raise ValueError("p = 2 needs no interleaving (the block length is 1)")
    g_nums, den = C_vector(p, q, k).integer_row
    nums = [0] * (n + 1)
    for i, c in enumerate(g_nums):
        for l, b in enumerate(binom):
            nums[i * (p - 1) + l] = c * b  # l < p - 1: no two (i, l) share an index
    return CongruenceVector(p, n, None, gamma_p(p, n), (tuple(nums), den))
