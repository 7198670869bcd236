"""References for :mod:`bpadams.lattice`.

Row reduction of congruence systems in ``Fraction`` arithmetic: the
reference for the integer reduction of :func:`bpadams.lattice._reduce_rows`
behind :func:`bpadams.lattice.triangularize` and :func:`bpadams.lattice.solve`.
The rows are reduced with the identity rows in the pool, and each pivot is
scaled by its unit to a pure power of p; the canonical form then takes
every entry left of a pivot to its residue modulo that pivot
(:func:`residue`).  Both the canonical system and the
solution lattice are unique, so they must match the integer route exactly.

The extension entry by entry on integer columns, with one exact dot
product per column (:func:`extend_lattice`): the reference for the
extension of :func:`bpadams.lattice.extend_lattice`, which reads every
column at once from packed rows, on residues.
"""

from fractions import Fraction

from bpadams.arith import format_rational, integer_numerators, nu_p, val_p
from bpadams.lattice import CongruenceSystem, LatticeError, SolutionLattice


def residue(p, x, k):
    """Canonical representative of x modulo p^k Z_(p), for any integer k.

    The unique r in [0, p^k) whose denominator is a power of p and with
    x - r in p^k Z_(p): zero when x lies in p^k Z_(p), an integer when x
    is p-locally integral and k >= 0.
    """
    num, den = x.numerator, x.denominator
    v = nu_p(p, den)
    den //= p ** v
    if k + v <= 0:
        return Fraction(0)
    # x = num / (den * p^v) with gcd(den, p) = 1
    modulus = p ** (k + v)
    return Fraction(num * pow(den, -1, modulus) % modulus, p ** v)


def extend_lattice(lat, row):
    """``lat`` extended by one row, entry by entry: the row is scaled once
    to integer numerators N over D, the pivot numerator is p^s * u with u
    prime to p, and column j gains -(N' . b_j / p^s) * u^-1 modulo p^e,
    e = max(0, -val_p(c_n)), after an exact test that p^s divides
    N' . b_j."""
    p, size = lat.p, lat.size
    if len(row) != size + 1:
        raise LatticeError(f"row length {len(row)} does not match size {size + 1}")
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    if not row[size]:
        raise LatticeError(f"row has a zero pivot at index {size}")
    nums, _ = integer_numerators(row)
    unit, s = nums[size], 0
    while unit % p == 0:
        unit //= p
        s += 1
    divisor = p ** s
    modulus = p ** max(0, -val_p(p, row[size]))
    inverse = pow(unit, -1, modulus)
    basis = lat.basis
    last = []
    for j in range(size):
        acc = sum(nums[i] * basis[i][j] for i in range(j, size) if nums[i])
        quotient, rest = divmod(acc, divisor)
        if rest:
            t = Fraction(-acc, nums[size])
            raise LatticeError(f"column {j} extends by {format_rational(t)}, "
                               f"which is not {p}-locally integral")
        last.append(-quotient * inverse % modulus)
    last.append(modulus)
    return SolutionLattice(p, tuple(r + (0,) for r in basis) + (tuple(last),))


def reduce_rows(p, rows, size):
    """Rows T[j] supported on columns 0..j, pivot T[j][j] = p^-e_j."""
    pool = [list(row) for row in rows]
    for j in range(size):
        ident = [Fraction(0)] * size
        ident[j] = Fraction(1)
        pool.append(ident)
    T = []
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


def triangularize(sys):
    p = sys.p
    T = reduce_rows(p, sys.rows, sys.n + 1)
    for j, row in enumerate(T):
        for i in range(j - 1, -1, -1):
            z = (row[i] - residue(p, row[i], val_p(p, T[i][i]))) / T[i][i]
            if z:
                for k in range(i + 1):
                    row[k] -= z * T[i][k]
    return CongruenceSystem(p, sys.n, tuple(tuple(r) for r in T))


def solve(sys):
    lat = SolutionLattice(sys.p, ())
    for j, row in enumerate(reduce_rows(sys.p, sys.rows, sys.n + 1)):
        lat = extend_lattice(lat, row[: j + 1])
    return lat
