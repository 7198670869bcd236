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

from operator import itemgetter

from .arith import delta_p, ensure_prime, format_over, format_rational, val_p, validate_q
from .adamsk import (CongruenceVector, C_vector, _binomial_row, _ku_canonical_rows,
                     ku_congruence_system)
from .fgl import BPContext
from .hopf import (ConstructionError, MuLinear, _delta_reader, _hazewinkel_theta_numerators,
                   _theta_numerators, special_element)
from .lattice import (CongruenceSystem, LatticeError, SolutionLattice, _padded, _sandwich,
                      _shape_violation, extend_lattice, lattice_eq, solve)
from .walk import t_monomial_numerators


def _sampled_rows(ctx: BPContext, top: int | None, images: dict) -> tuple[list[tuple], int]:
    """The sampled rows with top index <= ``top`` (all when ``top`` is
    None) as (gamma, key, numerators, den), and the count of all rows:
    the walk's integer rows (:func:`bpadams.walk.t_monomial_numerators`)
    on the generator images ``images``, each a dense list whose last
    entry is not zero, the ones above ``top`` counted and never decoded.
    gamma comes in walk order, which is not the lexicographic order of
    :func:`bpadams.polyring.monomials_up_to_weight`, and the rows of one
    gamma in the order the walk made them, each keyed by its packed
    v-monomial delta: :func:`_araki_rows` sorts the rows by gamma and key,
    the lattice callers read neither order.

    The images fix the generators of BP_* the rows are read in.  On
    Araki's (:func:`bpadams.hopf._theta_numerators`) the rows are those of
    :func:`sampled_integrality_rows`.  On Hazewinkel's
    (:func:`bpadams.hopf._hazewinkel_theta_numerators`), which the
    lattice callers pass, each gamma's rows cut out the same integrality
    conditions, with numerators several times narrower: both sets
    generate BP_* over Z_(p), so theta_mu(t^gamma) lies in BP_* iff its
    rows in either set are p-integral at mu."""
    rows, total = [], 0
    for gamma, kept, den, count in t_monomial_numerators(ctx, images, top):
        if any(gamma):
            total += count
            rows.extend((gamma, key, row, den) for key, row in kept.items())
    return rows, total


def _form(row: list[int], den: int) -> MuLinear:
    """The row sum_j (row[j] / den) * mu_j as a ``MuLinear``."""
    return MuLinear._from_numerators({j: c for j, c in enumerate(row) if c}, den)


def _araki_rows(ctx: BPContext, top: int | None) -> list[tuple]:
    """The rows of :func:`_sampled_rows` with top index <= ``top`` (all
    when ``top`` is None) read in Araki's generators
    (:func:`bpadams.hopf._theta_numerators`), as (gamma, key, numerators,
    den) in the canonical order: gamma lexicographic, then delta
    graded-lexicographic, which is the order of the packed keys of one
    gamma."""
    return sorted(_sampled_rows(ctx, top, _theta_numerators(ctx))[0], key=itemgetter(0, 1))


def sampled_integrality_rows(ctx: BPContext,
                             ) -> list[tuple[tuple[int, ...], tuple[int, ...], MuLinear]]:
    """Every co-operation congruence visible below the weight bound.

    For each non-trivial t-monomial gamma of weight <= W, the diagonal
    image is expanded over the v generators; the mu-linear coefficient at
    each v-monomial delta must be p-locally integral, giving one row per
    (gamma, delta) pair.  The enumeration order is deterministic: gamma
    as in :func:`bpadams.polyring.monomials_up_to_weight`, then delta in
    graded-lexicographic order.  The rows are those of
    :func:`_araki_rows`, read as ``MuLinear`` forms.
    """
    delta_of = _delta_reader(ctx)
    return [(gamma, delta_of(key), _form(row, den))
            for gamma, key, row, den in _araki_rows(ctx, None)]


def summand_rows(p: int, n_max: int, q: int | None = None) -> list[CongruenceVector]:
    """The Adams-side congruence rows c_0..c_{n_max}.

    Odd p: the Gaussian rows.  p = 2: the triangularized connective
    2-local K-theory rows (pivot budgets delta_2(r) = gamma_2(r)), those of
    :func:`bpadams.adamsk.ku_congruence_system`.  Either way the rows are
    memoised vectors (:func:`bpadams.adamsk.C_vector`,
    :func:`bpadams.adamsk._ku_canonical_rows`), the same objects on every
    call, in a fresh list.
    """
    q = validate_q(p, q)
    if p != 2:
        return [C_vector(p, q, r) for r in range(n_max + 1)]
    return list(_ku_canonical_rows(2, n_max, q))


def _lattice_of_rows(p: int, n: int, rows: list[CongruenceVector]) -> SolutionLattice:
    """The solution lattice of the rows, each with top index <= n, from
    their integers (``integer_row``)."""
    return solve(CongruenceSystem(p, n, None, _padded((vec.integer_row for vec in rows), n + 1)))


def _first_sample_failure(p: int, lat: SolutionLattice,
                          rows: list[tuple[list[int], int]],
                          ) -> tuple[int, int] | None:
    """(k, j) for the first row k, then column j, whose value on column j
    of ``lat`` is not p-locally integral; None when every row holds.

    Row k is ``(numerators, den)``: the form sum_i (c_i / den) * mu_i,
    its numerators a dense list c_0..c_m inside the lattice's indices.
    The columns are integral, so it holds on column b iff
    sum_i c_i * b_i vanishes modulo p^v, v = val_p(den); that valuation
    is taken once per row, in order, and no row after the first failure
    is read.

    Every column is tested at once on the lattice's own packed rows
    (:class:`bpadams.lattice.SolutionLattice`): basis row i is one int
    P_i with non-negative digits, digit j being entry i of column j, so a
    row's values on every column are the digits of
    V = sum_i (c_i mod p^v) * P_i, one multiply-add per entry, packed wide
    enough that no digit carries.  They all vanish modulo p^v iff p^v
    divides V and no digit of V // p^v exceeds (2^S - 1) // p^v, S the
    width: one divmod and one carry test
    (:meth:`bpadams.lattice.SolutionLattice._vanishes`), with no loop over
    the columns.  Only a failing row is read column by column
    (:meth:`bpadams.lattice.SolutionLattice._values`), to name j.  The
    lattice widens its rows in place when a larger v needs it and keeps
    them wide for every later row, call and extension.
    """
    for k, (row, den) in enumerate(rows):
        v = val_p(p, den)
        if not v:
            continue
        modulus = p ** v
        if not lat._vanishes(enumerate(row), modulus):
            values = lat._values(enumerate(row), modulus)
            return k, next(j for j, x in enumerate(values) if x)
    return None


def _araki_witness(ctx: BPContext, lat: SolutionLattice, n: int) -> tuple[int, dict]:
    """The witness of the first sampled row with top index n, read in
    Araki's generators, that fails on ``lat``, and the count of the rows
    with top index <= n up to it, once the rows in Hazewinkel's
    generators have failed at n.

    A witness's ``value`` and that count depend on the generators the
    rows are read in; the report gives them in Araki's, those of
    :func:`sampled_integrality_rows`.  So the walk runs again on Araki's
    images, which the run pays once, since it stops at n.  "First" and
    the count follow the canonical order of :func:`_araki_rows`, which is
    not the walk's, so the whole walk is drawn before the scan.  The two
    sets of rows cut out the same
    integrality conditions gamma by gamma, but the restriction to top
    index n depends on the set, so the lattices they cut out may differ
    in principle: if no Araki row fails at n, that is raised as a
    :class:`bpadams.hopf.ConstructionError` with details
    ``{"stage": "sample_basis", "n"}``.
    """
    for used, (gamma, key, row, den) in enumerate(_araki_rows(ctx, n), 1):
        failed = len(row) == n + 1 and _first_sample_failure(ctx.p, lat, [(row, den)])
        if failed:
            col = lat.column(failed[1])
            return used, {
                "gamma": list(gamma),
                "delta": list(_delta_reader(ctx)(key)),
                "mu": [format_rational(x) for x in col],
                "value": format_rational(_form(row, den).evaluate(col)),
            }
    raise ConstructionError(
        f"the sampled rows with top index {n} fail on Hazewinkel's generators "
        f"and hold on Araki's", {"stage": "sample_basis", "n": n})


def verify_centre_bp(p: int, n_max: int, weight_bound: int | None = None,
                     q: int | None = None) -> dict:
    """Run the centre verification for all n <= n_max.

    The weight bound defaults to delta_p(n_max), the weight of the
    largest special element, and is raised to that value (with a note in
    the report) whenever a smaller bound is requested.  A failed verdict
    aborts the scan, recording the offending index, monomial and exact
    witness sequence.

    The Adams lattice at n is the one at n - 1 extended by the row c_n
    (:func:`bpadams.lattice.extend_lattice`): the sandwich extends the
    lattice at n - 1 by c_n (its S, kept as the Adams lattice) and tests
    the special row (its T) on every column of S at once, from the special
    element's integer numerators over its den.  It is the comparison of
    :func:`bpadams.lattice.sandwich_check`, whose hypotheses are checked
    once per row: c_n and d_n's row at their n, each with the message
    ``sandwich_check`` gives.  The special row reaches
    the sandwich and the report's ``c_bp`` strings as those integers, and
    no ``Fraction`` row of a composite d_n is built.
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
      packed rows (:func:`_first_sample_failure`).

    The rows are the walk's integer numerators (:func:`_sampled_rows`)
    read in Hazewinkel's generators of BP_*
    (:func:`bpadams.hopf._hazewinkel_theta_numerators`), not Araki's,
    which :func:`sampled_integrality_rows` returns.  Integrality does not
    depend on the choice, since both are polynomial generators of BP_*
    over Z_(p), and Hazewinkel's rows are several times narrower at odd
    p.  The rows with top index <= m are a restriction that does depend
    on the choice in principle: a change of generators can combine rows
    with high tops into one with a low top.  That the two sets give the
    same per-top row counts and the same lattices is observed (tests), not
    proved.  The special elements, their v_1-shadows and every other
    theta image stay in Araki's generators.  A failure's witness
    (``value``, from the row itself) and its ``sample_rows_used`` depend
    on the generators, so when Hazewinkel's rows fail at n, the rows with
    top index <= n are walked again in Araki's, up to the witness, and
    both are read from those (:func:`_araki_witness`); if Araki's do not
    fail there, that is an internal failure, a
    :class:`bpadams.hopf.ConstructionError` with details
    ``{"stage": "sample_basis", "n"}``.  A ``MuLinear`` is built only for
    a witness, whose value is recomputed exactly.

    A row with top index above n_max is never tested, so the walk only
    counts it into ``sample_rows_total``: it is never decoded or held.
    The count is the same in either set of generators (observed).
    """
    ensure_prime(p)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    needed = delta_p(p, n_max)
    requested = weight_bound
    weight_bound = needed if weight_bound is None else max(weight_bound, needed)
    ctx = BPContext(p, weight_bound, q)
    rows_g = summand_rows(p, n_max, q)
    sample, total = _sampled_rows(ctx, n_max, _hazewinkel_theta_numerators(ctx))
    by_top: dict[int, list[tuple[list[int], int]]] = {}
    for _, _, row, den in sample:
        by_top.setdefault(len(row) - 1, []).append((row, den))

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
        c_bp = CongruenceVector(p, n, None, delta_p(p, n), (d.numerators, d.den))
        try:
            # row n of each side is checked once, here; rows below n passed at
            # their own n, and indices and budgets agree by construction
            sandwich = (_shape_violation(p, n, rows_g[n]) or _shape_violation(p, n + 1, c_bp)
                        or _sandwich(p, base, rows_g[n], c_bp))
            if n:
                # the sandwich's S is the Adams lattice at n; a hypothesis
                # violation builds none
                lat_g = sandwich.s_lattice or extend_lattice(base, None, rows_g[n].integer_row)
        except LatticeError as exc:
            # the program's own rows failed to extend: an internal failure
            raise ConstructionError(str(exc), {"stage": "extend_lattice", "n": n,
                                               "column": exc.column}) from exc
        base = lat_g
        entry: dict = {"n": n}
        entry["pivots"] = list(lat_g.pivots())
        entry["c_bp"] = format_over(d.numerators, d.den)
        entry["sandwich"] = sandwich.status
        entry["lattice_equal"] = sandwich.equal

        tested = by_top.get(n, [])
        usable += len(tested)
        witness = None
        if _first_sample_failure(p, lat_g, tested) is not None:
            # the scan stops at the witness, read in Araki's generators
            usable, witness = _araki_witness(ctx, lat_g, n)
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
    return report


def bp_sample_lattice(ctx: BPContext, n: int) -> SolutionLattice:
    """Lattice cut out by all sampled rows with support inside 0..n, read
    in Hazewinkel's generators, as :func:`verify_centre_bp` tests them; a
    row above n is counted by the walk, never decoded
    (:func:`_sampled_rows`)."""
    rows = _sampled_rows(ctx, n, _hazewinkel_theta_numerators(ctx))[0]
    return solve(CongruenceSystem(ctx.p, n, None,
                                  _padded(((row, den) for _, _, row, den in rows), n + 1)))


def bp_sample_scan(p: int, n: int, max_weight: int, q: int | None = None) -> dict:
    """How the sampled lattice tightens as the weight bound grows.

    Reports, for each bound W, the sampled lattice's pivot valuations and
    whether it already equals the Adams-side lattice at index n.  The
    image of t^gamma is homogeneous of weight |gamma|, so no bound
    W >= |gamma| truncates it: the rows of a context at W are the rows of
    one context at ``max_weight`` whose gamma has weight <= W, in order.
    Only rows with top index <= n are decoded, read in Hazewinkel's
    generators, as :func:`bp_sample_lattice` reads them
    (:func:`_sampled_rows`).
    """
    ensure_prime(p)
    rows_g = summand_rows(p, n, q)
    lat_g = _lattice_of_rows(p, n, rows_g)
    ctx = BPContext(p, max_weight, q)
    weigh = ctx.t_table.monomial_weight
    rows = _sampled_rows(ctx, n, _hazewinkel_theta_numerators(ctx))[0]
    sample = list(zip([weigh(gamma) for gamma, _, _, _ in rows],
                      _padded(((row, den) for _, _, row, den in rows), n + 1)))
    out = {"p": p, "n": n, "target_pivots": list(lat_g.pivots()), "scan": []}
    for W in range(1, max_weight + 1):
        lat = solve(CongruenceSystem(p, n, None, [row for w, row in sample if w <= W]))
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
    q = validate_q(p, q)  # once: the rows are built unchecked
    rows = (_binomial_row(p, j, k, q).integer_row
            for k, j in (divmod(idx, p - 1) for idx in range(n + 1)))
    inter = solve(CongruenceSystem(p, n, None, _padded(rows, n + 1)))
    ku = solve(ku_congruence_system(p, n, q))
    return {
        "p": p,
        "n": n,
        "interleaved_pivots": list(inter.pivots()),
        "ku_pivots": list(ku.pivots()),
        "equal": lattice_eq(inter, ku),
    }
