"""The p-typical formal group law over the p-local integers.

Provides the shared computation context (generator tables, Araki
constants, the rational log coefficients l_n and their inverses), torsion
free log/exp power series, formal sums, and the diagonal action of Adams
operations on coefficient groups.

Weight convention: the internal integer weight of an element is its
topological degree divided by 2(p-1), so v_n, l_n and t_n all carry
weight 1 + p + ... + p^{n-1} = delta_p(p^{n-1}).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import delta_p, ensure_prime, exact, validate_q
from .polyring import GeneratorTable, GradedPoly, PolyError


class BPContext:
    """Computation context for one prime and weight bound.

    Holds the generator tables for the v, l and t families up to the
    largest index whose weight fits the bound, and the l_n as polynomials
    in the v's (:meth:`l_in_v`), built eagerly (:mod:`bpadams.hopf`
    reads them only for the leads of the v_1-shadows).  It is not
    immutable: the v_n in the l's (:meth:`v_in_l`) are built on the first
    call, which only public callers make, and ``_hopf_cache`` is filled on
    first use, one entry at a time, with the diagonal transform's generator images
    as integers (``"theta_numerators"``), the same images read in
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

        self._l_in_v = self._build_l_in_v()
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


# ---------------------------------------------------------------------------
# Truncated one-variable power series with polynomial coefficients
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Power series in one variable x modulo x^(D+1).

    Coefficients are GradedPoly values over a shared table; index k of
    `coeffs` is the coefficient of x^k.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[GradedPoly]):
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _zero(self) -> GradedPoly:
        c = self.coeffs[0]
        return GradedPoly.zero(c.table, c.bound)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def mul(self, other: "TruncatedSeries", order: int | None = None) -> "TruncatedSeries":
        D = self.order if order is None else order
        zero = self._zero()
        out = [zero for _ in range(D + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero or i > D:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > D:
                    break
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out)

    def scalar_mul(self, c: Fraction | int) -> "TruncatedSeries":
        """Each coefficient times c; a float is refused (:func:`bpadams.arith.exact`)."""
        c = exact(c)
        return TruncatedSeries([a * c for a in self.coeffs])

    def scale_argument(self, alpha: Fraction | int) -> "TruncatedSeries":
        """x -> alpha * x, i.e. coefficient k picks up alpha^k; a float is
        refused (:func:`bpadams.arith.exact`)."""
        alpha = exact(alpha)
        power = Fraction(1)
        out = []
        for a in self.coeffs:
            out.append(a * power)
            power *= alpha
        return TruncatedSeries(out)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)); the inner series must have zero constant term."""
        if not inner.coeffs[0].is_zero:
            raise ValueError("composition needs a series with zero constant term")
        D = self.order
        zero = self._zero()
        result = TruncatedSeries([zero for _ in range(D + 1)])
        for k in range(D, -1, -1):
            result = result.mul(inner, D)
            result.coeffs[0] = result.coeffs[0] + self.coeffs[k]
        return result

    def compositional_inverse(self) -> "TruncatedSeries":
        """Series g with self(g(x)) = x mod x^(D+1); needs linear coefficient 1."""
        zero = self._zero()
        one = GradedPoly.const(zero.table, zero.bound, 1)
        if not self.coeffs[0].is_zero or self.coeffs[1] != one:
            raise ValueError("inversion needs the form x + higher order terms")
        D = self.order
        g = [zero, one]
        for k in range(2, D + 1):
            trial = TruncatedSeries(g + [zero] * (D + 1 - len(g)))
            h = TruncatedSeries(self.coeffs[: k + 1]).compose(
                TruncatedSeries(trial.coeffs[: k + 1]))
            g.append(-h.coeffs[k])
        return TruncatedSeries(g)


def generic_log(order: int) -> tuple[TruncatedSeries, GeneratorTable]:
    """log(x) = x + m_1 x^2 + ... + m_{D-1} x^D with free generators m_i.

    The m_i are given weight i (half the topological degree of a generic
    graded theory's coefficient ring).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    table = GeneratorTable((f"m{i}", i) for i in range(1, order))
    bound = max(order - 1, 1)
    zero = GradedPoly.zero(table, bound)
    coeffs = [zero, GradedPoly.const(table, bound, 1)]
    for i in range(1, order):
        coeffs.append(GradedPoly.gen(table, bound, f"m{i}"))
    return TruncatedSeries(coeffs), table


def bp_log(ctx: BPContext, order: int) -> TruncatedSeries:
    """The p-typical log: x + l_1 x^p + l_2 x^{p^2} + ... to the given order."""
    zero = GradedPoly.zero(ctx.v_table, ctx.weight_bound)
    coeffs = [zero for _ in range(order + 1)]
    coeffs[1] = GradedPoly.const(ctx.v_table, ctx.weight_bound, 1)
    k = 1
    while ctx.p ** k <= order:
        if k > ctx.gen_count:
            raise PolyError(
                f"log to order {order} needs l_{k}, beyond weight bound "
                f"{ctx.weight_bound}")
        coeffs[ctx.p ** k] = ctx.l_in_v(k)
        k += 1
    return TruncatedSeries(coeffs)


def log_exp_series(ctx: BPContext, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The truncated (log, exp) pair for the p-typical formal group law."""
    log = bp_log(ctx, order)
    return log, log.compositional_inverse()


def formal_sum(log: TruncatedSeries, exp: TruncatedSeries,
               alpha: Fraction | int) -> TruncatedSeries:
    """[alpha](x) = exp(alpha * log(x))."""
    return exp.compose(log.scalar_mul(alpha))


def adams_on_coeff(ctx: BPContext, alpha: Fraction | int, weight: int) -> Fraction:
    """Eigenvalue of the Adams operation for alpha on the weight-w piece.

    Weight w corresponds to topological degree 2(p-1)w, on which the
    operation acts as multiplication by alpha^((p-1)w).  A float alpha is
    refused (:func:`bpadams.arith.exact`).
    """
    alpha = exact(alpha)
    if alpha == 0:
        raise ValueError("Adams operations need a p-local unit")
    return alpha ** ((ctx.p - 1) * weight)


def _diagonal_transform_of_log(log: TruncatedSeries, alpha: Fraction) -> TruncatedSeries:
    """Coefficient of x^(i+1) scaled by alpha^i (the expected diagonal action)."""
    out = [log.coeffs[0]]
    power = Fraction(1)
    for k in range(1, log.order + 1):
        out.append(log.coeffs[k] * power)
        power *= alpha
    return TruncatedSeries(out)


def _log_transform_check(log: TruncatedSeries, alpha: Fraction | int) -> bool:
    alpha = exact(alpha)
    exp = log.compositional_inverse()
    # the inverse operation sends x to exp(log(alpha x) / alpha)
    inner = log.scale_argument(alpha).scalar_mul(1 / alpha)
    inverse_op = exp.compose(inner)
    lhs = log.compose(inverse_op)
    return lhs == _diagonal_transform_of_log(log, alpha)


def adams_log_transform_check(ctx: BPContext, alpha: Fraction | int, order: int) -> bool:
    """Check log(op^{-1}(x)) = sum alpha^i m_i x^{i+1} for the p-typical log."""
    return _log_transform_check(bp_log(ctx, order), alpha)


def generic_adams_log_transform_check(alpha: Fraction | int, order: int) -> bool:
    """Same check over the generic log with free coefficients m_i."""
    log, _ = generic_log(order)
    return _log_transform_check(log, alpha)
