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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .arith import (delta_p, dot, ensure_prime, find_q, format_rational, gamma_p, gaussian,
                    is_p_local_int, val_p, validate_q)
from . import lattice as _lattice

FAMILY_KINDS = ("phi_ku", "Phi_KU", "phihat_g", "zeta_ku2")


@dataclass(frozen=True)
class AdamsFamily:
    """A named triangular family, described by its diagonal actions."""

    kind: str
    p: int
    q: int
    qhat: int

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
    if q is None:
        q = find_q(p)
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
    if fam.kind == "zeta_ku2":
        if m < 0:
            raise ValueError("the connective theory has no negative degrees")
        return _zeta_action(n, m)
    q = Fraction(fam.q)
    if fam.kind == "phi_ku":
        if m < 0:
            raise ValueError("the connective theory has no negative degrees")
        base = q ** m
        return math.prod((base - q ** i for i in range(n)), start=Fraction(1))
    if fam.kind == "phihat_g":
        if m < 0:
            raise ValueError("the connective theory has no negative degrees")
        qh = Fraction(fam.qhat)
        base = qh ** m
        return math.prod((base - qh ** i for i in range(n)), start=Fraction(1))
    # periodic: m may be any integer, roots run through the enumeration
    base = q ** m
    return math.prod((base - q ** periodic_enum(i) for i in range(n)),
                     start=Fraction(1))


def expand_in_family(fam: AdamsFamily, lam: Sequence[Fraction | int],
                     ) -> tuple[tuple[Fraction, ...], bool]:
    """Triangular solve of lam_m = sum_{n<=m} a_n action(n, m).

    Position j of the input corresponds to coefficient index
    ``fam.degree_index(j)``.  Returns the exact coefficients and whether
    they are all p-locally integral.
    """
    values = [Fraction(x) for x in lam]
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
    """Action sequence of sum_n a_n (family element n) on indices 0..length-1."""
    out = []
    for j in range(length):
        m = fam.degree_index(j)
        acc = Fraction(0)
        for k, a in enumerate(coeffs):
            if a:
                acc += Fraction(a) * family_action(fam, k, m)
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# Congruence rows and systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceVector:
    """A row c with top index n: the condition is c . mu in Z_(p).

    ``budget`` is the expected pivot valuation: the shape hypotheses ask
    for entries in p^-budget Z_(p), a unit pivot c_n in p^-budget Z_(p)^x,
    and zeros beyond n.
    """

    p: int
    n: int
    entries: tuple[Fraction, ...]
    budget: int

    def __post_init__(self):
        if len(self.entries) != self.n + 1:
            raise ValueError("entry vector must have length n + 1")
        object.__setattr__(self, "entries",
                           tuple(Fraction(e) for e in self.entries))

    def shape_ok(self) -> bool:
        if val_p(self.p, self.entries[self.n]) != -self.budget:
            return False
        return all(val_p(self.p, e) >= -self.budget for e in self.entries[:-1])

    def dot(self, mu: Sequence[Fraction | int]) -> Fraction:
        if len(mu) < self.n + 1:
            raise ValueError("sequence too short for this row")
        return dot(self.entries, map(Fraction, mu))

    def padded(self, length: int) -> tuple[Fraction, ...]:
        if length < self.n + 1:
            raise ValueError("cannot pad below the support")
        return self.entries + (Fraction(0),) * (length - self.n - 1)

    def to_jsonable(self) -> dict:
        return {"n": self.n, "entries": [format_rational(e) for e in self.entries]}


@lru_cache(maxsize=None)
def C_vector(p: int, q: int, n: int) -> CongruenceVector:
    """The Gaussian congruence row for the connective Adams summand.

    c_{n,i} = (-1)^{n-i} qhat^C(n-i,2) [n, i]_qhat / p^delta_p(n); the
    pivot is exactly p^-delta_p(n) and entries vanish for i > n.
    Memoised: the frozen row is a pure function of (p, q, n).
    """
    ensure_prime(p)
    if p == 2:
        raise ValueError("the Gaussian rows are the odd-prime system")
    qhat = q ** (p - 1)
    den = Fraction(p) ** delta_p(p, n)
    entries = []
    for i in range(n + 1):
        d = n - i
        num = Fraction((-1) ** d) * Fraction(qhat) ** math.comb(d, 2) * gaussian(n, i, qhat)
        entries.append(num / den)
    return CongruenceVector(p, n, tuple(entries), delta_p(p, n))


def check_g_congruences(p: int, q: int, mu: Sequence[Fraction | int],
                        n: int) -> tuple[bool, ...]:
    """Per-index verdicts: does C_r . mu land in Z_(p) for r = 0..n?"""
    validate_q(p, q)
    if len(mu) < n + 1:
        raise ValueError("sequence too short")
    return tuple(is_p_local_int(p, C_vector(p, q, r).dot(mu)) for r in range(n + 1))


def basis_integrality_rows(p: int, top: int, q: int | None = None,
                           ) -> tuple[tuple[Fraction, ...], ...]:
    """Rows expressing each expansion coefficient a_n as a functional of lam.

    Row n states the condition "a_n is p-locally integral"; together the
    rows for n = 0..top characterize which truncated action sequences
    extend to operations.  Built by inverting the lower-triangular action
    matrix of the connective family (phi for odd p, zeta for p = 2).
    """
    ensure_prime(p)
    fam = adams_family("zeta_ku2", 2) if p == 2 else adams_family("phi_ku", p, q)
    size = top + 1
    act = [[family_action(fam, n, m) for n in range(m + 1)] for m in range(size)]
    rows = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        # forward substitution with lam = e_j gives column j of the inverse
        a = [Fraction(0)] * size
        for m in range(size):
            acc = Fraction(1) if m == j else Fraction(0)
            for k in range(m):
                if a[k]:
                    acc -= act[m][k] * a[k]
            a[m] = acc / act[m][m]
        for n in range(size):
            rows[n][j] = a[n]
    return tuple(tuple(r) for r in rows)


def ku_congruence_system(p: int, top: int, q: int | None = None) -> "_lattice.CongruenceSystem":
    """The triangularized integrality system for connective p-local K-theory.

    The raw rows come from :func:`basis_integrality_rows`; the returned
    system is their canonical triangular form, whose pivot at index n has
    valuation -gamma_p(n).
    """
    raw = _lattice.CongruenceSystem(p, top, basis_integrality_rows(p, top, q))
    return _lattice.triangularize(raw)


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
    if q is None:
        q = find_q(p)
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
    top index n = k(p-1) + j and pivot valuation -gamma_p(n).
    """
    ensure_prime(p)
    if not 0 <= j <= p - 2:
        raise ValueError(f"offset j must satisfy 0 <= j <= p - 2, got {j}")
    if k < 0:
        raise ValueError("negative block index")
    binom = [Fraction((-1) ** (j - l) * math.comb(j, l)) for l in range(j + 1)]
    n = k * (p - 1) + j
    if k == 0:
        return CongruenceVector(p, n, tuple(binom), gamma_p(p, n))
    if p == 2:
        raise ValueError("p = 2 needs no interleaving (the block length is 1)")
    if q is None:
        q = find_q(p)
    g_row = C_vector(p, q, k)
    entries = [Fraction(0)] * (n + 1)
    for i in range(k + 1):
        for l in range(j + 1):
            entries[i * (p - 1) + l] += g_row.entries[i] * binom[l]
    return CongruenceVector(p, n, tuple(entries), gamma_p(p, n))
