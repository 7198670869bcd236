"""The p-typical formal group law over the p-local integers.

Provides the shared computation context, :class:`BPContext`: the
generator tables, the Araki constants, and the rational log coefficients
l_n and their inverses as polynomials.

Weight convention: the internal integer weight of an element is its
topological degree divided by 2(p-1), so v_n, l_n and t_n all carry
weight 1 + p + ... + p^{n-1} = delta_p(p^{n-1}).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import delta_p, ensure_prime, validate_q
from .polyring import GeneratorTable, GradedPoly, PolyError


class BPContext:
    """Computation context for one prime and weight bound.

    Holds the generator tables for the v, l and t families up to the
    largest index whose weight fits the bound.  It is not immutable: the
    l_n as polynomials in the v's (:meth:`l_in_v`, which :mod:`bpadams.hopf`
    reads only for the leads of the v_1-shadows) and the v_n in the l's
    (:meth:`v_in_l`, which only public callers read) are each built on the
    first call, and ``_hopf_cache`` is filled on first use, one entry at
    a time, with the diagonal transform's generator images as integer
    rows, the dense numerators of mu_0..mu_m per packed v-monomial
    (``"theta_numerators"``), the same images read in
    Hazewinkel's generators of BP_* for the verification's walk
    (``"hazewinkel_theta_numerators"``), the powers of the first images'
    v_1-shadows as integers keyed by u-degree on the same kernel
    (``"v1_chains"``, one chain per generator index, growing as higher
    powers are asked for), the right units eta_R(v_n) as integers on
    packed {v, t} keys (``"right_unit_v"``), the right-unit tables
    (``"rud"``) and the special elements d_n, d_0 included (``"special"``,
    keyed by n, each building its element polynomial when first read).
    Stored values never change, but the filling is not locked, so give
    each thread its own context.
    """

    __slots__ = ("p", "q", "qhat", "weight_bound", "gen_count",
                 "v_table", "l_table", "t_table", "e_table",
                 "lt_table", "vt_table", "le_table",
                 "_l_in_v", "_v_in_l", "_hopf_cache")

    def __init__(self, p: int, weight_bound: int, q: int | None = None):
        self.p = ensure_prime(p)
        if weight_bound < 0:
            raise ValueError("weight bound must be non-negative")
        self.weight_bound = weight_bound
        self.q = validate_q(p, q)
        self.qhat = self.q ** (p - 1)

        weights = []
        i = 1
        while True:
            w = delta_p(p, p ** (i - 1))
            if w > weight_bound:
                break
            weights.append(w)
            i += 1
        self.gen_count = len(weights)

        def table(prefix: str) -> GeneratorTable:
            return GeneratorTable((f"{prefix}{k + 1}", w) for k, w in enumerate(weights))

        self.v_table = table("v")
        self.l_table = table("l")
        self.t_table = table("t")
        self.e_table = table("e")
        self.lt_table = self.l_table.union(self.t_table)
        self.vt_table = self.v_table.union(self.t_table)
        self.le_table = self.l_table.union(self.e_table)

        self._l_in_v: list[GradedPoly] | None = None
        self._v_in_l: list[GradedPoly] | None = None
        self._hopf_cache: dict = {}

    # -- Araki generators ------------------------------------------------

    def _build_l_in_v(self) -> list[GradedPoly]:
        """l_n over the v generators via p*l_n = sum_{0<=i<=n} l_i v_{n-i}^{p^i}.

        With l_0 = 1 and v_0 = p this is equivalent to
        pi_n * l_n = v_n + sum_{1<=i<n} l_i * v_{n-i}^{p^i}.
        """
        W = self.weight_bound
        out: list[GradedPoly] = []
        for n in range(1, self.gen_count + 1):
            acc = GradedPoly.gen(self.v_table, W, f"v{n}")
            for i in range(1, n):
                acc = acc + out[i - 1] * GradedPoly.gen(
                    self.v_table, W, f"v{n - i}", self.p ** i)
            out.append(acc * (Fraction(1) / self.pi(n)))
        return out

    def _build_v_in_l(self) -> list[GradedPoly]:
        """v_n over the l generators, inverting the Araki recursion."""
        W = self.weight_bound
        out: list[GradedPoly] = []
        for n in range(1, self.gen_count + 1):
            acc = GradedPoly.gen(self.l_table, W, f"l{n}") * self.pi(n)
            for i in range(1, n):
                li = GradedPoly.gen(self.l_table, W, f"l{i}")
                acc = acc - li * (out[n - i - 1] ** (self.p ** i))
            out.append(acc)
        return out

    def l_in_v(self, n: int) -> GradedPoly:
        """The rational log coefficient l_n as a polynomial in the v's."""
        if not 1 <= n <= self.gen_count:
            raise PolyError(
                f"l_{n} has weight {delta_p(self.p, self.p ** (n - 1))}, "
                f"beyond bound {self.weight_bound}")
        if self._l_in_v is None:
            self._l_in_v = self._build_l_in_v()
        return self._l_in_v[n - 1]

    def v_in_l(self, n: int) -> GradedPoly:
        if not 1 <= n <= self.gen_count:
            raise PolyError(f"v_{n} is beyond the weight bound {self.weight_bound}")
        if self._v_in_l is None:
            self._v_in_l = self._build_v_in_l()
        return self._v_in_l[n - 1]

    def pi(self, n: int) -> Fraction:
        """The Araki scalar pi_n = p - p^(p^n)."""
        if n < 1:
            raise ValueError("pi_n needs n >= 1")
        return Fraction(self.p - self.p ** (self.p ** n))

    def pibar(self, n: int) -> Fraction:
        """pi_n / p = 1 - p^(p^n - 1), a p-local unit."""
        if n < 1:
            raise ValueError("pibar_n needs n >= 1")
        return Fraction(1 - self.p ** (self.p ** n - 1))

    def alphabar(self, n: int) -> Fraction:
        """Product pibar_1 * ... * pibar_n (empty product 1)."""
        acc = Fraction(1)
        for i in range(1, n + 1):
            acc *= self.pibar(i)
        return acc

    def __repr__(self) -> str:
        return (f"BPContext(p={self.p}, q={self.q}, W={self.weight_bound}, "
                f"generators<={self.gen_count})")
