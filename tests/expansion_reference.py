"""Reference for :func:`bpadams.adamsk.expand_in_family`.

The triangular solve of lam_m = sum_{n<=m} a_n action(n, m) in ``Fraction``
arithmetic, one coefficient at a time: the reference for the integer
forward substitution of :func:`bpadams.adamsk._forward_solve` behind
:func:`bpadams.adamsk.expand_in_family` and
:func:`bpadams.adamsk._inverse_rows`.  Each action is taken entry by entry,
prod_{i<n} (q^m - q_i) in ``Fraction``s on the three families of a
generator q, and by the memoised recursion on the zeta family, so nothing
here reads :func:`bpadams.adamsk._action_row`.
"""

import math
from fractions import Fraction

from bpadams.adamsk import _zeta_action, periodic_enum
from bpadams.arith import exact, is_p_local_int


def action(fam, n, m):
    """Eigenvalue of the n-th element of ``fam`` on coefficient index m."""
    if fam.kind == "zeta_ku2":
        return _zeta_action(n, m)
    base = Fraction(fam.qhat if fam.kind == "phihat_g" else fam.q)
    roots = map(periodic_enum, range(n)) if fam.kind == "Phi_KU" else range(n)
    return math.prod((base ** m - base ** i for i in roots), start=Fraction(1))


def expand_in_family(fam, lam):
    """The coefficients a_0, a_1, ... of ``lam`` in ``fam`` as ``Fraction``s,
    position j read at coefficient index ``fam.degree_index(j)``, and
    whether they are all p-locally integral; a float is refused
    (:func:`bpadams.arith.exact`)."""
    values = [exact(x) for x in lam]
    coeffs = []
    for j, target in enumerate(values):
        m = fam.degree_index(j)
        acc = target
        for k, a in enumerate(coeffs):
            if a:
                acc -= a * action(fam, k, m)
        diag = action(fam, j, m)
        if not diag:
            raise ValueError(f"family diagonal vanishes at index {j}")
        coeffs.append(acc / diag)
    return tuple(coeffs), all(is_p_local_int(fam.p, a) for a in coeffs)
