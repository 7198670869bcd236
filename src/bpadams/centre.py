"""End-to-end verification that the diagonal (= central) operations
coincide with the Adams subalgebra, at a chosen desk scale.

For each index n the pipeline compares three lattices inside
Z_(p)^(n+1):

* the Adams-side lattice cut out by the summand congruence rows
  (Gaussian rows for odd p, the triangularized connective K-theory rows
  for p = 2),
* the lattice cut out by those rows below n together with the special
  element's row, compared through the sandwich lemma, and
* the lattice sampled from every integrality condition carried by
  co-operation monomials up to the weight bound.

The verdict for n is "sandwich equality holds and the Adams lattice is
contained in the sampled lattice"; together these are the finite
instances of the centre theorem.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import delta_p, ensure_prime, format_rational, val_p, validate_q
from .adamsk import (CongruenceVector, C_vector, adams_family, binomial_mu_congruence,
                     expand_in_family, family_action, family_sequence,
                     ku_congruence_system)
from .fgl import BPContext
from .hopf import ConstructionError, MuLinear, special_element, t_monomial_numerators
from .lattice import (CongruenceSystem, LatticeError, SolutionLattice, extend_lattice,
                      lattice_eq, sandwich_check, solve)


class CentreVerificationError(RuntimeError):
    """Raised in strict mode when a verdict fails; carries the report."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def _sampled_rows(ctx: BPContext, top: int | None) -> tuple[list[tuple], int]:
    """The sampled rows with top index <= ``top`` (all when ``top`` is
    None) as (gamma, delta, numerators, den), in the order of
    :func:`sampled_integrality_rows`, and the count of all rows: the
    walk's integer rows (:func:`bpadams.hopf.t_monomial_numerators`), the
    ones above ``top`` counted and never decoded."""
    rows, total = [], 0
    for gamma, kept, den, count in t_monomial_numerators(ctx, top):
        if any(gamma):
            total += count
            rows.extend((gamma, delta, row, den) for delta, row in kept.items())
    return rows, total


def _dense(row: dict[int, int], den: int, n: int) -> tuple[Fraction, ...]:
    """The row sum_j (row[j] / den) * mu_j as its entries at 0..n."""
    return tuple(Fraction(row[j], den) if j in row else Fraction(0) for j in range(n + 1))


def sampled_integrality_rows(ctx: BPContext,
                             ) -> list[tuple[tuple[int, ...], tuple[int, ...], MuLinear]]:
    """Every co-operation congruence visible below the weight bound.

    For each non-trivial t-monomial gamma of weight <= W, the diagonal
    image is expanded over the v generators; the mu-linear coefficient at
    each v-monomial delta must be p-locally integral, giving one row per
    (gamma, delta) pair.  The enumeration order is deterministic: gamma
    as in :func:`bpadams.polyring.monomials_up_to_weight`, then delta in
    graded-lexicographic order.  The rows are those of
    :func:`_sampled_rows`, read as ``MuLinear`` forms.
    """
    return [(gamma, delta, MuLinear._from_numerators(row, den))
            for gamma, delta, row, den in _sampled_rows(ctx, None)[0]]


def summand_rows(p: int, n_max: int, q: int | None = None) -> list[CongruenceVector]:
    """The Adams-side congruence rows c_0..c_{n_max}.

    Odd p: the Gaussian rows.  p = 2: the triangularized connective
    2-local K-theory rows (pivot budgets delta_2(r) = gamma_2(r)).
    """
    q = validate_q(p, q)
    if p != 2:
        return [C_vector(p, q, r) for r in range(n_max + 1)]
    sys = ku_congruence_system(2, n_max)
    return [CongruenceVector(2, r, sys.rows[r][: r + 1], delta_p(2, r))
            for r in range(n_max + 1)]


def _lattice_of_rows(p: int, n: int, rows: list[CongruenceVector]) -> SolutionLattice:
    return solve(CongruenceSystem(p, n, tuple(r.padded(n + 1) for r in rows)))


def _first_sample_failure(p: int, lat: SolutionLattice,
                          rows: list[tuple[dict[int, int], int]],
                          ) -> tuple[int, int] | None:
    """(k, j) for the first row k, then column j, whose value on column j
    of ``lat`` is not p-locally integral; None when every row holds.

    Row k is ``(numerators, den)``: the form sum_i (c_i / den) * mu_i,
    supported inside the lattice's indices.  The columns are integral, so
    it holds on column b iff sum_i c_i * b_i vanishes modulo p^v,
    v = val_p(den); that valuation is taken once per row, in order, and
    no row after the first failure is read.

    The values on every column come at once from the lattice's packed
    rows (:meth:`bpadams.lattice.SolutionLattice._values`), one
    multiply-add per entry; the lattice widens its rows in place the
    first time a v needs it, and keeps them wide for every later row, call
    and extension.
    """
    for k, (row, den) in enumerate(rows):
        v = val_p(p, den)
        if v:
            values = lat._values(row.items(), p ** v)
            if any(values):
                return k, next(j for j, x in enumerate(values) if x)
    return None


def verify_centre_bp(p: int, n_max: int, weight_bound: int | None = None,
                     q: int | None = None, strict: bool = False) -> dict:
    """Run the centre verification for all n <= n_max.

    The weight bound defaults to delta_p(n_max), the weight of the
    largest special element, and is raised to that value (with a note in
    the report) whenever a smaller bound is requested.  A failed verdict
    aborts the scan, recording the offending index, monomial and exact
    witness sequence; with ``strict=True`` it also raises
    :class:`CentreVerificationError`.

    The Adams lattice at n is the one at n - 1 extended by the row c_n
    (:func:`bpadams.lattice.extend_lattice`): the sandwich extends the
    lattice at n - 1 by c_n (its S, kept as the Adams lattice) and
    computes the special row's extension (its T) as the one basis row it
    adds, from the special element's integer numerators over its den.
    The lattices form one chain of packed rows: each keeps the rows of the
    one before and adds one, and the sample test reads the same rows, so
    nothing is repacked per n.  The shape hypotheses guarantee that every
    extension succeeds; a :class:`bpadams.lattice.LatticeError` in the
    chain is an internal failure and is raised as a
    :class:`bpadams.hopf.ConstructionError` with details
    ``{"stage": "extend_lattice", "n", "column"}``.
    At index n only the sampled rows with top index n are tested; this is
    exact for two reasons:

    * c_0..c_{n-1} are supported on indices 0..n-1, so the Adams lattice
      at n projects into the one at n - 1, and a row with top index
      m < n that holds on the lattice at m holds on the lattice at n;
    * the canonical columns are integral (p^e on the diagonal, residues
      in [0, p^e_i) below it), so each row is tested as an integer sum
      modulo a power of p, on every column at once from the lattice's
      packed rows (:func:`_first_sample_failure`).  The rows are the walk's integer
      numerators (:func:`_sampled_rows`), in the order of
      :func:`sampled_integrality_rows`; a ``MuLinear`` is built only for
      a witness, whose value is recomputed exactly.

    A row with top index above n_max is never tested, so the walk only
    counts it into ``sample_rows_total``: it is never decoded or held.
    """
    ensure_prime(p)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    needed = delta_p(p, n_max)
    requested = weight_bound
    weight_bound = needed if weight_bound is None else max(weight_bound, needed)
    ctx = BPContext(p, weight_bound, q)
    rows_g = summand_rows(p, n_max, q)
    sample, total = _sampled_rows(ctx, n_max)
    tops = [max(row) for _, _, row, _ in sample]
    by_top: dict[int, list[int]] = {}
    for pos, top in enumerate(tops):
        by_top.setdefault(top, []).append(pos)

    report: dict = {
        "p": p,
        "q": ctx.q if p != 2 else [3, -1],
        "qhat": ctx.qhat,
        "n_max": n_max,
        "weight_bound": weight_bound,
        "weight_raised": bool(requested is not None and requested < needed),
        "sample_rows_total": total,
        "rows": [],
        "verdict": True,
    }

    # Each lattice extends the one before; the first comes from solve, so a
    # run still reaches lattice.solve (bench/selftest.py expects a verify run
    # to).  At n = 0 both give the same 1 x 1 basis.
    base = SolutionLattice(p, ())
    lat_g = _lattice_of_rows(p, 0, rows_g[:1])
    usable = 0
    for n in range(n_max + 1):
        d = special_element(ctx, n)
        c_bp = CongruenceVector(p, n, d.c, delta_p(p, n), (d.numerators, d.den))
        try:
            sandwich = sandwich_check(p, rows_g[:n], rows_g[n], c_bp, base)
            if n:
                # the sandwich's S is the Adams lattice at n; a hypothesis
                # violation builds none
                lat_g = sandwich.s_lattice or extend_lattice(base, rows_g[n].entries)
        except LatticeError as exc:
            # the program's own rows failed to extend: an internal failure
            raise ConstructionError(str(exc), {"stage": "extend_lattice", "n": n,
                                               "column": exc.column}) from exc
        base = lat_g
        entry: dict = {"n": n}
        entry["pivots"] = list(lat_g.pivots())
        entry["c_bp"] = [format_rational(x) for x in d.c]
        entry["sandwich"] = sandwich.status
        entry["lattice_equal"] = sandwich.equal

        positions = by_top.get(n, [])
        usable += len(positions)
        failed = _first_sample_failure(p, lat_g, [sample[pos][2:] for pos in positions])
        witness = None
        if failed is not None:
            pos, j = positions[failed[0]], failed[1]
            gamma, delta, row, den = sample[pos]
            form = MuLinear._from_numerators(row, den)
            col = lat_g.column(j)
            witness = {
                "gamma": list(gamma),
                "delta": list(delta),
                "mu": [format_rational(x) for x in col],
                "value": format_rational(form.evaluate(col)),
            }
            # the scan stops at the witness: count the rows up to it
            usable = sum(1 for top in tops[: pos + 1] if top <= n)
        entry["sample_rows_used"] = usable
        entry["sample_included"] = witness is None

        entry["verdict"] = bool(sandwich.equal and witness is None)
        report["rows"].append(entry)
        if not entry["verdict"]:
            report["verdict"] = False
            failure = {"n": n, "sandwich": sandwich.to_jsonable()}
            if witness is not None:
                failure["witness"] = witness
            report["failure"] = failure
            break

    if strict and not report["verdict"]:
        raise CentreVerificationError(
            f"centre verification failed at n={report['failure']['n']}", report)
    return report


def bp_sample_lattice(ctx: BPContext, n: int) -> SolutionLattice:
    """Lattice cut out by all sampled rows with support inside 0..n; a row
    above n is counted by the walk, never decoded (:func:`_sampled_rows`)."""
    rows = tuple(_dense(row, den, n) for _, _, row, den in _sampled_rows(ctx, n)[0])
    return solve(CongruenceSystem(ctx.p, n, rows))


def bp_sample_scan(p: int, n: int, max_weight: int, q: int | None = None) -> dict:
    """How the sampled lattice tightens as the weight bound grows.

    Reports, for each bound W, the sampled lattice's pivot valuations and
    whether it already equals the Adams-side lattice at index n.  The
    image of t^gamma is homogeneous of weight |gamma|, so no bound
    W >= |gamma| truncates it: the rows of a context at W are the rows of
    one context at ``max_weight`` whose gamma has weight <= W, in order.
    Only rows with top index <= n are decoded (:func:`_sampled_rows`).
    """
    ensure_prime(p)
    rows_g = summand_rows(p, n, q)
    lat_g = _lattice_of_rows(p, n, rows_g)
    ctx = BPContext(p, max_weight, q)
    weigh = ctx.t_table.monomial_weight
    sample = [(weigh(gamma), _dense(row, den, n))
              for gamma, _, row, den in _sampled_rows(ctx, n)[0]]
    out = {"p": p, "n": n, "target_pivots": list(lat_g.pivots()), "scan": []}
    for W in range(1, max_weight + 1):
        lat = solve(CongruenceSystem(p, n, tuple(row for w, row in sample if w <= W)))
        out["scan"].append({
            "weight": W,
            "pivots": list(lat.pivots()),
            "equals_summand_lattice": lattice_eq(lat, lat_g),
        })
    out["stabilized"] = any(s["equals_summand_lattice"] for s in out["scan"])
    return out


def interleaved_g_report(p: int, n: int, q: int | None = None) -> dict:
    """Exploratory: compare the connective K-theory lattice with the one
    generated by summand rows interleaved through the binomial offsets.

    Not part of the acceptance surface; exposed for experimentation.
    """
    ensure_prime(p)
    if p == 2:
        raise ValueError("interleaving is the odd-prime experiment")
    q = validate_q(p, q)
    rows = []
    for idx in range(n + 1):
        k, j = divmod(idx, p - 1)
        rows.append(binomial_mu_congruence(p, j, k, q).padded(n + 1))
    inter = solve(CongruenceSystem(p, n, tuple(rows)))
    ku = solve(ku_congruence_system(p, n, q))
    return {
        "p": p,
        "n": n,
        "interleaved_pivots": list(inter.pivots()),
        "ku_pivots": list(ku.pivots()),
        "equal": lattice_eq(inter, ku),
    }


def _random_p_unit(rng: random.Random, p: int) -> Fraction:
    while True:
        num = rng.randint(-50, 50)
        den = rng.randint(1, 50)
        if num and num % p and den % p:
            return Fraction(num, den)


def verify_basis_injections(p: int, n_max: int, trials: int = 50,
                            seed: int = 2026) -> dict:
    """Spot-check that finite family sums act injectively and stably.

    For random finitely supported coefficient vectors the action at the
    minimal support index m equals a_m times the family diagonal (and is
    non-zero), the action vanishes below m, and actions on indices <= M
    depend only on the coefficients a_0..a_M.
    """
    ensure_prime(p)
    kinds = ["zeta_ku2"] if p == 2 else ["phi_ku", "phihat_g"]
    rng = random.Random(seed)
    report: dict = {"p": p, "n_max": n_max, "trials": trials, "families": {}, "verdict": True}
    for kind in kinds:
        fam = adams_family(kind, p)
        failures = 0
        for _ in range(trials):
            coeffs = [Fraction(0)] * (n_max + 1)
            support = rng.sample(range(n_max + 1), rng.randint(1, n_max + 1))
            for idx in support:
                coeffs[idx] = _random_p_unit(rng, p)
            m0 = min(idx for idx, a in enumerate(coeffs) if a)
            seq = family_sequence(fam, coeffs, n_max + 1)
            ok = all(seq[m] == 0 for m in range(m0))
            expected = coeffs[m0] * family_action(fam, m0, fam.degree_index(m0))
            ok = ok and seq[m0] == expected and expected != 0
            mid = rng.randint(m0, n_max)
            truncated = family_sequence(fam, coeffs[: mid + 1], mid + 1)
            ok = ok and truncated == seq[: mid + 1]
            if not ok:
                failures += 1
        report["families"][kind] = {"failures": failures}
        if failures:
            report["verdict"] = False
    return report


def lattice_realizability(p: int, n: int, lat: SolutionLattice,
                          q: int | None = None) -> bool:
    """Every basis column lifts to integral expansion coefficients in the
    relevant connective family (phihat for odd p, zeta for p = 2)."""
    fam = adams_family("zeta_ku2", 2) if p == 2 else adams_family("phihat_g", p, q)
    for col in lat.columns():
        _, integral = expand_in_family(fam, col)
        if not integral:
            return False
    return True
