import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_reference
from bpadams.arith import (delta_p, dot, format_rational, integer_numerators, val_p,
                           word_width)
from bpadams.adamsk import CongruenceVector, basis_integrality_rows, check_g_congruences
from bpadams.lattice import (CongruenceSystem, LatticeError, SandwichResult, SolutionLattice,
                             extend_lattice, lattice_eq, lattice_leq, sandwich_check, solve,
                             triangularize)


def test_residue_against_its_definition():
    # r in [0, p^k) with a p-power denominator and x - r in p^k Z_(p)
    rng = random.Random(17)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        k = rng.randint(-3, 3)
        x = Fraction(rng.randint(-200, 200), p ** rng.randint(0, 4) * rng.choice((1, 7, 11)))
        r = lattice_reference.residue(p, x, k)
        assert 0 <= r < Fraction(p) ** k, (p, x, k)
        assert (r * p ** 4).denominator == 1, (p, x, k)  # x has at most p^4 there
        assert x == r or val_p(p, x - r) >= k, (p, x, k)
    assert lattice_reference.residue(3, Fraction(7, 9), -1) == Fraction(1, 9)
    assert lattice_reference.residue(3, Fraction(5, 2), 2) == 7


def test_solve_single_row_example():
    lat = solve(CongruenceSystem(3, 1, ((Fraction(-1, 3), Fraction(1, 3)),)))
    assert lat.columns() == [(1, 1), (0, 3)]
    assert lat.pivots() == (0, 1)
    # oracle: enumerate residues on the box {0..8}^2
    for mu in itertools.product(range(9), repeat=2):
        satisfied = (mu[1] - mu[0]) % 3 == 0
        assert lat.contains([Fraction(x) for x in mu]) == satisfied


def test_solve_empty_and_integral_systems():
    lat = solve(CongruenceSystem(5, 2, ()))
    assert lat.columns() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    lat2 = solve(CongruenceSystem(5, 2, ((1, 2, 3), (0, 1, 0))))
    assert lattice_eq(lat, lat2)


def _random_system(rng, p, n, rows=3, denom_power=2):
    out = []
    for _ in range(rows):
        row = [Fraction(rng.randint(-8, 8), p ** rng.randint(0, denom_power))
               for _ in range(n + 1)]
        out.append(tuple(row))
    return CongruenceSystem(p, n, tuple(out))


def test_solve_soundness_and_completeness():
    rng = random.Random(41)
    for _ in range(15):
        p = rng.choice([2, 3])
        n = rng.randint(0, 2)
        sys = _random_system(rng, p, n)
        lat = solve(sys)
        for col in lat.columns():
            assert sys.satisfied_by(col)
        E = max(lat.pivots()) + 1
        box = range(p**E)
        if p**E <= 9:
            points = itertools.product(box, repeat=n + 1)
        else:
            points = ([rng.randrange(p**E) for _ in range(n + 1)] for _ in range(60))
        for mu in points:
            mu = [Fraction(x) for x in mu]
            assert sys.satisfied_by(mu) == lat.contains(mu)


def test_pivot_invariance_under_shuffles_and_units():
    rng = random.Random(43)
    for _ in range(12):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        sys = _random_system(rng, p, n, rows=4)
        lat = solve(sys)
        rows = list(sys.rows)
        rng.shuffle(rows)
        scaled = []
        for row in rows:
            unit_num = rng.choice([1, 2, 4, 7, -1, -3])
            while unit_num % p == 0:
                unit_num += 1
            scaled.append(tuple(x * unit_num for x in row))
        lat2 = solve(CongruenceSystem(p, n, tuple(scaled)))
        assert lat.pivots() == lat2.pivots()
        assert lattice_eq(lat, lat2)


def test_triangularize_preserves_solutions():
    rng = random.Random(47)
    for _ in range(10):
        p = rng.choice([2, 3])
        n = rng.randint(0, 3)
        sys = _random_system(rng, p, n)
        tri = triangularize(sys)
        assert len(tri.rows) == n + 1
        for r, row in enumerate(tri.rows):
            assert all(x == 0 for x in row[r + 1:])
        assert lattice_eq(solve(sys), solve(tri))


def _mixed_system(rng, p, n, rows):
    """Rows with denominators p^k times a unit, zero rows and zero entries."""
    out = []
    for _ in range(rows):
        if rng.random() < 0.1:
            out.append((Fraction(0),) * (n + 1))
            continue
        out.append(tuple(
            Fraction(rng.randint(-30, 30) * (rng.random() < 0.8),
                     p ** rng.randint(0, 5) * rng.choice((1, 1, 7, 11, 13)))
            for _ in range(n + 1)))
    return CongruenceSystem(p, n, tuple(out))


def test_reduction_on_integers_matches_the_fraction_reference():
    # the canonical system and the solution lattice are unique, so the
    # integer reduction must give exactly the Fraction route's
    rng = random.Random(53)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        sys = _mixed_system(rng, p, rng.randint(0, 7), rng.randint(0, 6))
        assert triangularize(sys) == lattice_reference.triangularize(sys), sys
        assert solve(sys) == lattice_reference.solve(sys), sys
    for p, top in [(2, 16), (3, 12), (5, 10)]:
        raw = CongruenceSystem(p, top, basis_integrality_rows(p, top))
        assert triangularize(raw) == lattice_reference.triangularize(raw), (p, top)
        assert solve(raw) == lattice_reference.solve(raw), (p, top)


def _unreduced(rng, p, nums, den):
    """The row N / D as (N * k, D * k), k = p^j * u with j >= 1 and u a
    unit: D shares powers of p with every numerator."""
    k = p ** rng.randint(1, 3) * rng.choice([u for u in (1, 2, 5, 7, 11) if u % p])
    return [x * k for x in nums], den * k


def test_unreduced_integer_rows_agree_with_fraction_rows():
    # a system handed over as integer rows (N, D) with D not the least
    # denominator is the system of its Fraction rows: the same rows read
    # back, the same lattice, canonical form, pivots and verdicts
    rng = random.Random(59)
    for _ in range(250):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(0, 5)
        frac = _mixed_system(rng, p, n, rng.randint(0, 5))
        ints = CongruenceSystem(p, n, None, [_unreduced(rng, p, *integer_numerators(row))
                                             for row in frac.rows])
        assert ints == frac and ints.rows == frac.rows
        assert ints.to_jsonable() == frac.to_jsonable() == {
            "p": p, "n": n, "rows": [[format_rational(x) for x in row] for row in frac.rows]}
        assert solve(ints) == solve(frac) == lattice_reference.solve(frac), frac
        tri = triangularize(frac)
        assert triangularize(ints) == tri == lattice_reference.triangularize(frac)
        tri_ints = CongruenceSystem(p, n, None, [_unreduced(rng, p, *row)
                                                 for row in tri.integer_rows])
        assert tri_ints.pivot_valuations() == tri.pivot_valuations() == tuple(
            -val_p(p, row[r]) for r, row in enumerate(tri.rows))
        for _ in range(6):
            mu = [Fraction(rng.randint(-30, 30), rng.choice([1, 1, p, p * p, 7]))
                  for _ in range(n + 1 + rng.randint(0, 2))]
            want = all(val_p(p, dot(row, mu)) >= 0 for row in frac.rows)
            assert ints.satisfied_by(mu) == frac.satisfied_by(mu) == want, (frac, mu)


# each entry point that reads rationals from a caller, given a value x
_READ_RATIONALS = {
    "CongruenceSystem": lambda x: CongruenceSystem(3, 0, ((x,),)),
    "CongruenceVector": lambda x: CongruenceVector(3, 0, (x,), 0),
    "extend_lattice": lambda x: extend_lattice(SolutionLattice(3, ()), [x]),
    "SolutionLattice": lambda x: SolutionLattice(2, [[x]]),
    "contains": lambda x: SolutionLattice(3, [[1]]).contains([x]),
    "coordinates": lambda x: SolutionLattice(3, [[1]]).coordinates([x]),
    "satisfied_by": lambda x: CongruenceSystem(3, 0, ((1,),)).satisfied_by([x]),
    "check_g_congruences": lambda x: check_g_congruences(3, 2, [x, 0], 0),
}


@pytest.mark.parametrize("name", _READ_RATIONALS)
def test_entry_points_refuse_floats(name):
    # a float's value is its binary fraction, so 1/3 would be read as a
    # dyadic rational, which is 3-integral; it is refused as the CLI
    # refuses it, and ints and Fractions still pass
    read = _READ_RATIONALS[name]
    for x in (1 / 3, 1.0, -0.0):
        with pytest.raises(ValueError, match="floating point input rejected"):
            read(x)
    read(1)
    read(Fraction(2))


@st.composite
def _memberships(draw):
    """(lattice, mu): the lattice of a few rows with denominators up to
    p^3, and mu either any rationals, zeros among them, with denominators
    p^k times a unit, or a combination of the basis columns over a unit
    denominator, which the lattice contains."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 4))
    entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, p, p ** 2, p ** 3]))
    rows = draw(st.lists(st.tuples(*[entries] * (n + 1)), max_size=4))
    lat = solve(CongruenceSystem(p, n, tuple(rows)))
    unit = st.sampled_from([u for u in (1, 2, 3, 7, 11) if u % p])
    if draw(st.booleans()):
        mu = [Fraction(draw(st.integers(-40, 40)), draw(unit) * p ** draw(st.integers(0, 2)))
              for _ in range(n + 1)]
    else:
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1))
        den = draw(unit)
        mu = [Fraction(sum(c * col[i] for c, col in zip(coeffs, lat.columns())), den)
              for i in range(n + 1)]
    return lat, mu


@settings(max_examples=300, deadline=None)
@given(_memberships())
def test_contains_on_integers_matches_the_coordinates(case):
    lat, mu = case
    p = lat.p
    assert lat.contains(mu) == all(val_p(p, x) >= 0 for x in lat.coordinates(mu)), mu
    assert lat.contains([int(x) if x.denominator == 1 else x for x in mu]) == lat.contains(mu)
    for wrong in (mu + [Fraction(0)], mu[:-1]):
        with pytest.raises(LatticeError, match="dimension mismatch"):
            lat.contains(wrong)
        with pytest.raises(LatticeError, match="dimension mismatch"):
            lat.coordinates(wrong)


def test_lattice_eq_examples():
    lat = solve(CongruenceSystem(3, 1, ((Fraction(-1, 3), Fraction(1, 3)),)))
    assert lattice_leq(lat, lat) and lattice_eq(lat, lat)
    neg = solve(CongruenceSystem(3, 1, ((Fraction(1, 3), Fraction(-1, 3)),)))
    assert lattice_eq(lat, neg)
    # a unit multiple of the same row gives the same lattice
    unit = solve(CongruenceSystem(3, 1, ((Fraction(-2, 3), Fraction(2, 3)),)))
    assert lattice_eq(lat, unit)
    # strictly finer lattice
    finer = solve(CongruenceSystem(3, 1, ((Fraction(-1, 9), Fraction(1, 9)),)))
    assert lattice_leq(finer, lat) and not lattice_leq(lat, finer)


@pytest.mark.parametrize("basis", [
    ((3, 1), (0, 9)),  # an entry above the diagonal
    ((0,),),  # a zero diagonal entry
    ((6,),),  # a diagonal entry that is not a power of p
    ((-3,),),  # nor is a negative one
    ((3, 0), (9, 9)),  # an entry below the diagonal that is not a residue of its row's pivot
    ((3, 0), (-1, 9)),  # nor is a negative one
    ((1, 0), (0,)),  # a short row
])
def test_a_basis_off_the_canonical_shape_is_refused(basis):
    # the packed rows hold the canonical shape only, so any other basis is
    # refused rather than read in part: at p = 3, lower triangular, p^e on
    # the diagonal and residues modulo the row's pivot below it
    with pytest.raises(LatticeError, match="not canonical"):
        SolutionLattice(3, basis)


@pytest.mark.parametrize("p", [1, 4, 0])
def test_a_lattice_needs_a_prime(p):
    # even the empty lattice: an extension of it at p = 1 would take
    # valuations forever, and at p = 4 would report pivots of a non-prime
    with pytest.raises(ValueError, match="not a prime"):
        SolutionLattice(p, ())


def test_lattice_eq_is_equality_of_canonical_lattices():
    # an entry above the diagonal once compared equal under == and unequal
    # under lattice_eq; now it is refused, and the two agree on every pair
    # of canonical bases, in any packing width
    with pytest.raises(LatticeError):
        SolutionLattice(3, ((3, 1), (0, 9)))
    bases = [((3, 0), (0, 9)), ((3, 0), (1, 9)), ((3, 0), (8, 9)), ((1, 0), (0, 9)),
             ((3, 0), (0, 1)), ((9, 0), (0, 3 ** 40))]
    for first, second in itertools.product(bases, repeat=2):
        a, b = SolutionLattice(3, first), SolutionLattice(3, second)
        b._packed(3 ** 60)
        assert lattice_eq(a, b) == (a == b) == (first == second), (first, second)
        assert a.basis == first and b.basis == second


def test_dimension_mismatch_rejected():
    a = solve(CongruenceSystem(3, 1, ()))
    b = solve(CongruenceSystem(3, 2, ()))
    with pytest.raises(LatticeError):
        lattice_leq(a, b)
    with pytest.raises(LatticeError):
        CongruenceSystem(3, 2, ((Fraction(1), Fraction(1)),))


def test_pivot_valuations_reject_a_zero_pivot():
    sys = CongruenceSystem(3, 1, ((Fraction(1, 9), 0), (1, Fraction(1, 3))))
    assert sys.pivot_valuations() == (2, 1)
    zero = CongruenceSystem(3, 1, ((0, 0), (1, Fraction(1, 3))))
    with pytest.raises(LatticeError, match="row 0"):
        zero.pivot_valuations()
    tall = CongruenceSystem(3, 0, ((1,), (Fraction(1, 3),)))
    with pytest.raises(LatticeError, match="row 1"):
        tall.pivot_valuations()


def _conforming_row(rng, p, r):
    budget = delta_p(p, r)
    entries = []
    for _ in range(r):
        entries.append(Fraction(rng.randint(-2 * p, 2 * p), p**budget))
    unit = rng.choice([u for u in range(1, 2 * p + 2) if u % p])
    entries.append(Fraction(unit, p**budget))
    return CongruenceVector(p, r, tuple(entries), budget)


def test_sandwich_trivial_and_perturbed():
    rng = random.Random(53)
    for p in (2, 3):
        for n in range(1, 6):
            base = [_conforming_row(rng, p, r) for r in range(n)]
            cn = _conforming_row(rng, p, n)
            res = sandwich_check(p, base, cn, cn)
            assert res.status == "equal" and res.equal
            # unit multiple plus integral combination of earlier rows
            unit = rng.choice([u for u in range(1, 2 * p + 2) if u % p])
            entries = [unit * x for x in cn.entries]
            for r, vec in enumerate(base):
                z = rng.randint(-3, 3)
                for i in range(r + 1):
                    entries[i] += z * vec.entries[i]
            cn_hat = CongruenceVector(p, n, tuple(entries), cn.budget)
            res = sandwich_check(p, base, cn, cn_hat)
            assert res.status == "equal" and res.equal, (p, n)
            # S rides along, outside the outcome
            lat = _extended(p, [vec.entries for vec in base])
            assert res.s_lattice == extend_lattice(lat, cn.entries), (p, n)
            assert res == SandwichResult("equal", True)
            assert res.to_jsonable() == {"status": "equal", "equal": True, "detail": ""}


def test_sandwich_hypothesis_violation_reported():
    rng = random.Random(59)
    p, n = 3, 2
    base = [_conforming_row(rng, p, r) for r in range(n)]
    cn = _conforming_row(rng, p, n)
    weak_entries = list(cn.entries)
    weak_entries[n] = Fraction(1, p ** (cn.budget - 1))  # weakened pivot
    weak = CongruenceVector(p, n, tuple(weak_entries), cn.budget)
    res = sandwich_check(p, base, cn, weak)
    assert res.status == "hypothesis_violation" and not res.equal
    assert res.s_lattice is None  # a violation builds no lattice


def test_sandwich_inclusion_failure_and_budget_mismatch():
    # equal budgets: cn_hat perturbs cn by the non-integral (1/3) mu_0
    base = [CongruenceVector(3, 0, (Fraction(1),), 0)]
    cn = CongruenceVector(3, 1, (Fraction(0), Fraction(1, 3)), 1)
    cn_hat = CongruenceVector(3, 1, (Fraction(1, 3), Fraction(1, 3)), 1)
    s_lat = solve(CongruenceSystem(3, 1, (base[0].padded(2), cn.entries)))
    t_lat = solve(CongruenceSystem(3, 1, (base[0].padded(2), cn_hat.entries)))
    assert not lattice_leq(s_lat, t_lat)
    res = sandwich_check(3, base, cn, cn_hat)
    assert (res.status, res.equal, res.detail) == (
        "inclusion_failed", False, "S is not contained in T")
    assert res.s_lattice == s_lat
    # budgets 2 and 1: the lattices have different indices
    res = sandwich_check(3, [], CongruenceVector(3, 0, (Fraction(1, 9),), 2),
                         CongruenceVector(3, 0, (Fraction(1, 3),), 1))
    assert res.status == "hypothesis_violation" and not res.equal
    assert "budgets 2 and 1" in res.detail


def test_solution_lattice_serialization():
    lat = solve(CongruenceSystem(3, 1, ((Fraction(-1, 3), Fraction(1, 3)),)))
    js = lat.to_jsonable()
    assert js["pivots"] == [0, 1]
    assert js["basis_columns"] == [["1", "1"], ["0", "3"]]


def _extended(p, rows):
    lat = SolutionLattice(p, ())
    for row in rows:
        lat = extend_lattice(lat, row)
    return lat


def test_extend_lattice_equals_solve_at_every_index():
    rng = random.Random(61)
    for p in (2, 3, 5):
        rows = [_conforming_row(rng, p, r).entries for r in range(8)]
        lat = SolutionLattice(p, ())
        for n, row in enumerate(rows):
            lat = extend_lattice(lat, row)
            padded = tuple(r + (0,) * (n + 1 - len(r)) for r in rows[: n + 1])
            assert lat == solve(CongruenceSystem(p, n, padded)), (p, n)


def test_extend_lattice_rejects_rows_off_the_shape():
    unit = extend_lattice(SolutionLattice(3, ()), (1,))
    assert unit.columns() == [(1,)]
    with pytest.raises(LatticeError, match="zero pivot"):
        extend_lattice(unit, (1, 0))
    # -(1/3 * 1) / 1 is not 3-integral: the projection onto index 0 would shrink
    with pytest.raises(LatticeError, match="column 0"):
        extend_lattice(unit, (Fraction(1, 3), 1))
    with pytest.raises(LatticeError, match="row length"):
        extend_lattice(unit, (1,))


@st.composite
def _small_systems(draw):
    """(p, n, D, rows, triangular rows): entries in p^-D Z_(p), so every
    pivot is at most D; the triangular rows meet the sandwich shape."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 3))
    D = draw(st.integers(0, 2 if p == 2 else 1))
    numerators = st.integers(-2 * p, 2 * p)
    rows = draw(st.lists(st.lists(numerators, min_size=n + 1, max_size=n + 1),
                         max_size=3))
    rows = [tuple(Fraction(x, p ** D) for x in row) for row in rows]
    triangular = []
    for r in range(n + 1):
        budget = draw(st.integers(0, D))
        entries = [Fraction(draw(numerators), p ** budget) for _ in range(r)]
        unit = draw(st.integers(1, 2 * p).filter(lambda u: u % p))
        triangular.append(tuple(entries) + (Fraction(unit, p ** budget),))
    return p, n, D, rows, triangular


@settings(max_examples=60, deadline=None)
@given(_small_systems())
def test_lattices_against_enumeration(system):
    """Oracle independent of the Hermite reduction: a solution lattice
    contains p^E Z_(p)^(n+1), so membership is decided on (Z/p^E)^(n+1)
    and the count of solutions there is p^((n+1)E - sum of pivots)."""
    p, n, D, rows, triangular = system
    padded = tuple(r + (0,) * (n + 1 - len(r)) for r in triangular)
    for lat, held in ((solve(CongruenceSystem(p, n, tuple(rows))), rows),
                      (_extended(p, triangular), padded)):
        assert lat.size == n + 1
        E = max(lat.pivots())
        assert E <= D
        count = 0
        for mu in itertools.product(range(p ** E), repeat=n + 1):
            direct = all(val_p(p, sum(c * m for c, m in zip(row, mu))) >= 0
                         for row in held)
            assert lat.contains(mu) == direct, (p, mu)
            count += direct
        assert count == p ** ((n + 1) * E - sum(lat.pivots()))
    assert _extended(p, triangular) == solve(CongruenceSystem(p, n, padded))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_eq_is_inclusion_both_ways(data):
    # the second system keeps a unit multiple of some of the first one's
    # rows and adds others of the same shape: equal lattices, nested ones,
    # and lattices that are neither, some with equal pivots
    p, n, D, rows, _ = data.draw(_small_systems())
    unit = data.draw(st.sampled_from([u for u in (1, 2, 3, 5, 7) if u % p]))
    kept = data.draw(st.integers(0, len(rows)))
    more = data.draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=n + 1,
                                       max_size=n + 1), max_size=2))
    other = ([tuple(unit * x for x in row) for row in rows[:kept]]
             + [tuple(Fraction(x, p ** D) for x in row) for row in more])
    first = solve(CongruenceSystem(p, n, tuple(rows)))
    second = solve(CongruenceSystem(p, n, tuple(other)))
    both_ways = lattice_leq(first, second) and lattice_leq(second, first)
    assert lattice_eq(first, second) == lattice_eq(second, first) == both_ways


def _fraction_extend_lattice(lat, row):
    """The extension computed in Fractions throughout: the reference for
    the integer extend_lattice."""
    p, size = lat.p, lat.size
    row = [Fraction(x) for x in row]
    pivot = row[size]
    if not pivot:
        raise LatticeError(f"row has a zero pivot at index {size}")
    e = max(0, -val_p(p, pivot))
    last = []
    for j in range(size):
        t = -dot(row[j:size], (lat.basis[i][j] for i in range(j, size))) / pivot
        if val_p(p, t) < 0:
            raise LatticeError(f"column {j} extends by {format_rational(t)}, "
                               f"which is not {p}-locally integral")
        last.append(lattice_reference.residue(p, t, e))
    last.append(Fraction(p ** e))
    zero = (Fraction(0),)
    return SolutionLattice(p, tuple(r + zero for r in lat.basis) + (tuple(last),))


@st.composite
def _extension_rows(draw):
    """(p, rows): row r has length r + 1, entries num / (p^a * unit) with
    a unit denominator prime to p, pivots of either sign, and pivots of
    positive, zero or negative valuation (e = 0 included)."""
    p = draw(st.sampled_from([2, 3, 5]))
    units = st.sampled_from([u for u in (1, 2, 3, 4, 5, 7, 11) if u % p])

    def entry(nonzero=False):
        num = draw(st.integers(-3 * p, 3 * p).filter(lambda x: x or not nonzero))
        return Fraction(num, p ** draw(st.integers(0, 3)) * draw(units))

    rows = [[entry() for _ in range(r)] + [entry(nonzero=True)]
            for r in range(draw(st.integers(1, 5)))]
    return p, rows


@settings(max_examples=200, deadline=None)
@given(_extension_rows())
def test_integer_extension_matches_the_fraction_extension(case):
    # from the empty lattice, each row extends both lattices the same way,
    # or both refuse it with the same message; a refused row is dropped
    p, rows = case
    lat = ref = SolutionLattice(p, ())
    for row in rows:
        row = row[: lat.size] + [row[-1]]
        try:
            expected = _fraction_extend_lattice(ref, row)
        except LatticeError as exc:
            with pytest.raises(LatticeError) as got:
                extend_lattice(lat, row)
            assert str(got.value) == str(exc)
            continue
        lat, ref = extend_lattice(lat, row), expected
        assert lat.basis == ref.basis
        assert all(type(x) is int for r in lat.basis for x in r)


def test_integer_extension_refuses_like_the_fraction_extension():
    # base columns (1, 2) and (0, 3); the message renders the same rational
    # as the Fraction route, at column 0 or, for the last row, column 1
    base = _extended(3, [(1,), (Fraction(1, 3), Fraction(1, 3))])
    assert base.columns() == [(1, 2), (0, 3)]
    for row in ((Fraction(1, 9), 0, Fraction(-1, 2)), (Fraction(5, 27), 1, 3),
                (Fraction(2, 7), Fraction(1, 3), 9), (Fraction(7, 9), Fraction(1, 9), 1)):
        with pytest.raises(LatticeError) as want:
            _fraction_extend_lattice(base, row)
        with pytest.raises(LatticeError) as got:
            extend_lattice(base, row)
        assert str(got.value) == str(want.value)
        assert "locally integral" in str(got.value)


@st.composite
def _canonical_lattices(draw):
    """(p, lat): a canonical basis drawn directly (pivots 0..3, entries
    below the diagonal anywhere in [0, p^e_i)), which the constructor
    packs at the bits of its largest entry: most extensions must widen it."""
    p = draw(st.sampled_from([2, 3, 5]))
    size = draw(st.integers(0, 6))
    pivots = [draw(st.integers(0, 3)) for _ in range(size)]
    basis = [tuple(draw(st.integers(0, p ** e - 1)) for _ in range(i)) + (p ** e,)
             + (0,) * (size - i - 1) for i, e in enumerate(pivots)]
    return p, SolutionLattice(p, basis)


def _extension_row(draw, p, size):
    """A row of length size + 1 over D = p^a * unit, a = 0 for an integral
    row; numerators are random or sit at the largest residues p^k - 1,
    and the pivot numerator is +-p^s * unit."""
    a = draw(st.integers(0, 4))
    den = p ** a * draw(st.sampled_from([u for u in (1, 2, 3, 7, 11) if u % p]))
    edge = st.builds(lambda k, sign: sign * (p ** k - 1), st.integers(1, 7),
                     st.sampled_from([1, -1]))
    nums = [draw(st.one_of(st.integers(-p ** 7, p ** 7), edge)) for _ in range(size)]
    unit = draw(st.integers(1, 3 * p).filter(lambda u: u % p))
    pivot = draw(st.sampled_from([1, -1])) * p ** draw(st.integers(0, 2)) * unit
    return [Fraction(x, den) for x in nums] + [Fraction(pivot, den)]


@settings(max_examples=300, deadline=None)
@given(_canonical_lattices(), st.data())
def test_packed_extension_matches_the_entrywise_one(case, data):
    # a chain of extensions from a drawn canonical lattice: the packed
    # route and the entrywise reference agree on the basis and the pivots,
    # or refuse the row with the same message
    p, lat = case
    ref = SolutionLattice(p, lat.basis)
    for _ in range(data.draw(st.integers(1, 3))):
        row = _extension_row(data.draw, p, lat.size)
        try:
            want = lattice_reference.extend_lattice(ref, row)
        except LatticeError as exc:
            with pytest.raises(LatticeError) as got:
                extend_lattice(lat, row)
            assert str(got.value) == str(exc)
            if got.value.column is not None:
                assert str(exc).startswith(f"column {got.value.column} extends by")
            return
        lat, ref = extend_lattice(lat, row), want
        assert lat.basis == ref.basis and lat.pivots() == ref.pivots()
        assert lat == ref and hash(lat) == hash(ref)


def _edge_exponent(p):
    """The k with 3 * p^k exactly 32 bits long: the bound 3 * M * p^E of a
    three-row lattice that fills one 32-bit word with its sign bit."""
    return next(k for k in itertools.count() if (3 * p ** k).bit_length() == 32)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_extension_at_its_width_bound(p):
    # every diagonal entry p^E and column 0 at p^E - 1 below it, packed at
    # word_width of the bits of p^E plus a sign bit; residues 0, 1 and
    # M - 1 modulo M = p^(s+e) reach past half of the bound
    # size * M * p^E in column 0.  Where that bound is below 32 bits the
    # rows stay at 32; where it is 32 bits they widen to
    # word_width(32 + 1) = 64, since at 32 a digit at 2^31 would decode as
    # negative
    size = 3
    E = _edge_exponent(p) - 4
    basis = [tuple(p ** E if j == i else p ** E - 1 if j == 0 else 0 for j in range(i + 1))
             + (0,) * (size - i - 1) for i in range(size)]
    packed = word_width((p ** E).bit_length() + 1)
    assert packed == 32
    outcomes, widths = [], set()
    for s, e in ((0, 3), (0, 4), (1, 3)):
        M = p ** (s + e)
        need = (size * M * p ** E).bit_length()
        assert sum((M - 1) * b for b in next(zip(*basis))) >= 2 ** (need - 1)
        for residues in itertools.product((0, 1, M - 1), repeat=size):
            lat = SolutionLattice(p, basis)
            assert lat._pack[0] == packed
            row = [Fraction(r + M, M) for r in residues] + [Fraction(p ** s, M)]
            try:
                want = lattice_reference.extend_lattice(lat, row)
            except LatticeError as exc:
                with pytest.raises(LatticeError) as got:
                    extend_lattice(lat, row)
                assert str(got.value) == str(exc)
                outcomes.append(None)
                continue
            got = extend_lattice(lat, row)
            assert got.basis == want.basis, (s, e, residues)
            if M - 1 in residues:  # then the row's denominator is M itself
                assert lat._pack[0] == (word_width(need + 1) if need >= packed else packed)
                widths.add((need, lat._pack[0]))
            outcomes.append(got.basis[-1])
    assert None in outcomes and len(set(outcomes)) > 10
    assert (32, 64) in widths and sorted(w for _, w in widths) == [32, 64]


def test_extension_keeps_the_parent_rows_and_widens_by_whole_words():
    # a lattice built by extension shares its parent's packed rows; a wider
    # packing is word_width of the bound's bits plus a sign bit, and the
    # parent, widened in place, is the same lattice
    p = 3
    lat = SolutionLattice(p, ())
    widths = []
    for n in range(12):
        parent, M = lat, p ** (3 * n)
        width = parent._pack[0]
        top = max((parent.basis[j][j] for j in range(n)), default=1)
        lat = extend_lattice(parent, [Fraction(n + i, M) for i in range(n)] + [Fraction(1, M)])
        assert lat._pack[1][:-1] == parent._pack[1]
        assert lat.pivots() == parent.pivots() + (3 * n,)
        need = (max(n, 1) * M * top).bit_length()
        assert parent._pack[0] == (word_width(need + 1) if n and need >= width else width)
        widths.append(lat._pack[0])
    assert widths == sorted(widths) and all(w % 32 == 0 for w in widths)
    assert len(set(widths)) > 2
    before = lat.basis
    wide = lat._packed(p ** 40)
    assert wide[0] == word_width((lat.size * p ** 40 * p ** 33).bit_length() + 1)
    assert lat.basis == before
    assert lat == SolutionLattice(p, before) and lat._pack == wide


@pytest.mark.parametrize("p", [2, 3, 5])
def test_basis_and_values_at_the_edge_of_a_width(p):
    # diagonal entries p^E whose bits fill a word, or all but its sign bit,
    # and column 0 at p^E - 1: the decoded basis is the basis given, and at
    # moduli whose bound fills a word exactly, the values on every column
    # are those of the entries, where a digit at or past 2^(S - 1) would
    # decode as negative at a width without the sign bit
    for bits in (31, 32, 63, 64):
        E = max(k for k in range(1, 70) if (p ** k).bit_length() <= bits)
        size = 3
        basis = tuple(tuple(p ** E if j == i else p ** E - 1 if j == 0 else 0
                            for j in range(i + 1)) + (0,) * (size - i - 1)
                      for i in range(size))
        lat = SolutionLattice(p, basis)
        assert lat._pack[0] == word_width((p ** E).bit_length() + 1)
        assert lat.basis == basis
        # the least modulus m whose column-0 digit (m - 1) * (3 p^E - 2)
        # reaches 2^(32k - 1), with the bound 3 m p^E exactly 32k bits long
        k = -(-((3 * p ** E).bit_length() + 2) // 32)
        edge = -(-2 ** (32 * k - 1) // (3 * p ** E - 2)) + 1
        assert (size * edge * p ** E).bit_length() == 32 * k
        for modulus in (p, p ** 2, p ** 5, 2 ** 31 + 1, 2 ** 32 - 5, edge):
            entries = [(i, modulus - 1) for i in range(size)]
            width = lat._pack[0]
            need = (size * modulus * p ** E).bit_length()
            digits = [sum(c * basis[i][j] for i, c in entries) for j in range(size)]
            assert modulus != edge or digits[0] >= 2 ** (need - 1)
            want = [x % modulus for x in digits]
            assert lat._values(entries, modulus) == want, (bits, modulus)
            assert lat._vanishes(entries, modulus) == (not any(want))
            assert lat._pack[0] == (word_width(need + 1) if need >= width else width)
            assert lat.basis == basis


def _columnwise_vanishes(lat, entries, modulus):
    """The all-columns test digit by digit: every sum_i c_i * b_ij on the
    decoded basis, each tested modulo ``modulus``."""
    basis = lat.basis
    return all(sum(c * basis[i][j] for i, c in entries) % modulus == 0
               for j in range(lat.size))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_all_columns_test_matches_the_digit_by_digit_one(p, data):
    # canonical bases drawn directly, rows whose residues sit at 0 or
    # m - 1 or anywhere, moduli p^v and others: one divmod and one carry
    # test decide what the digits do, and the digits are those of _values
    size = data.draw(st.integers(0, 6))
    pivots = [data.draw(st.integers(0, 3)) for _ in range(size)]
    lat = SolutionLattice(p, [tuple(data.draw(st.integers(0, p ** e - 1)) for _ in range(i))
                              + (p ** e,) + (0,) * (size - i - 1)
                              for i, e in enumerate(pivots)])
    for _ in range(data.draw(st.integers(1, 4))):
        modulus = data.draw(st.one_of(st.builds(lambda v: p ** v, st.integers(0, 5)),
                                      st.integers(1, 200)))
        entries = []
        for i in range(size):
            residue_ = data.draw(st.sampled_from([0, modulus - 1, None]))
            if residue_ is None:
                residue_ = data.draw(st.integers(0, modulus - 1))
            entries.append((i, residue_ + modulus * data.draw(st.integers(-2, 2))))
        want = _columnwise_vanishes(lat, entries, modulus)
        assert lat._vanishes(entries, modulus) == want, (lat.basis, entries, modulus)
        assert (not any(lat._values(entries, modulus))) == want


def test_all_columns_test_where_the_carries_alone_decide():
    # basis rows P_0 = 2 and P_1 = 2^32, packed at S = 32 for m = 3: the row
    # mu_0 + mu_1 gives V = 2 + 2^32, digits (2, 1), so 3 divides V while
    # neither digit is 0 modulo 3; q = V // 3 is one more than
    # L = (2^32 - 1) // 3, so only the carry test refuses it
    lat = SolutionLattice(2, ((2, 0), (0, 1)))
    assert lat._packed(3) == (32, (2, 2 ** 32))
    assert (2 + 2 ** 32) % 3 == 0 and (2 + 2 ** 32) // 3 == (2 ** 32 - 1) // 3 + 1
    assert lat._values([(0, 1), (1, 1)], 3) == [2, 1]
    assert not lat._vanishes([(0, 1), (1, 1)], 3)
    assert lat._vanishes([(0, 3), (1, 3)], 3)
    # every row of small diagonal lattices on which m divides V: the
    # digits decide, and some digit fails in many of them
    decided = 0
    for p, e0, e1, m in itertools.product((2, 3, 5), (0, 1, 2), (0, 1, 2), (2, 3, 4, 9, 25)):
        lat = SolutionLattice(p, ((p ** e0, 0), (p - 1 if e1 else 0, p ** e1)))
        width, rows = lat._packed(m)
        for c0, c1 in itertools.product(range(m), repeat=2):
            value = c0 * rows[0] + c1 * rows[1]
            want = _columnwise_vanishes(lat, [(0, c0), (1, c1)], m)
            if value % m == 0 and not want:
                decided += 1
            assert lat._vanishes([(0, c0), (1, c1)], m) == want, (p, e0, e1, m, c0, c1)
    assert decided > 20


class _UncheckedRow(CongruenceVector):
    """A row whose shape verdict is taken as true, so that a row off the
    shape reaches the extension."""

    def shape_ok(self) -> bool:
        return True


def _reference_sandwich(p, base_rows, cn, cn_hat):
    """The sandwich by its definition on the entrywise extension of
    lattice_reference: S and T built in full and their bases compared;
    an extension that fails raises."""
    base = SolutionLattice(p, ())
    for vec in base_rows:
        base = lattice_reference.extend_lattice(base, vec.entries)
    s_lat = lattice_reference.extend_lattice(base, cn.entries)
    t_lat = lattice_reference.extend_lattice(base, cn_hat.entries)
    if s_lat.basis == t_lat.basis:
        return SandwichResult("equal", True), s_lat
    return SandwichResult("inclusion_failed", False, "S is not contained in T"), s_lat


def _sandwich_outcome(check, *args):
    try:
        res = check(*args)
    except LatticeError as exc:
        return ("raised", str(exc))
    if isinstance(res, tuple):
        res, s_lat = res
    else:
        s_lat = res.s_lattice
    return (res.status, res.equal, res.detail, s_lat.basis)


def test_sandwich_against_the_reference_on_equal_differing_and_stuck_rows():
    # T equal to S (a unit multiple of c_n plus integral combinations of
    # the rows below, so its integer row differs from S's), T differing
    # from S at one column, and T off the shape, so that it does not extend
    rng = random.Random(71)
    seen = set()
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(1, 6)
        base = [_conforming_row(rng, p, r) for r in range(n)]
        cn = _conforming_row(rng, p, n)
        entries = [rng.choice([u for u in range(1, 2 * p + 2) if u % p]) * x
                   for x in cn.entries]
        kind = rng.choice(("equal", "column", "stuck"))
        if kind == "equal":
            for r, vec in enumerate(base):
                z = rng.randint(-3, 3)
                for i in range(r + 1):
                    entries[i] += z * vec.entries[i]
            cn_hat = CongruenceVector(p, n, tuple(entries), cn.budget)
        elif kind == "column":
            entries[rng.randrange(n)] += Fraction(rng.randint(1, p - 1) if p > 2 else 1,
                                                  p ** cn.budget)
            cn_hat = CongruenceVector(p, n, tuple(entries), cn.budget)
        else:
            entries[rng.randrange(n)] += Fraction(1, p ** (cn.budget + 1))
            cn_hat = _UncheckedRow(p, n, tuple(entries), cn.budget)
        got = _sandwich_outcome(sandwich_check, p, base, cn, cn_hat)
        assert got == _sandwich_outcome(_reference_sandwich, p, base, cn, cn_hat), (p, n, kind)
        seen.add((kind, got[0]))
    assert {("equal", "equal"), ("column", "inclusion_failed"), ("stuck", "raised")} <= seen


def test_sandwich_where_t_does_not_extend_raises_as_its_extension():
    # base lattice 9 Z_(3) from (1/9) mu_0; T's entry 1/27 at index 0 is off
    # its budget 0, and its extension stops at column 0 with -1/3
    base = [CongruenceVector(3, 0, (Fraction(1, 9),), 2)]
    cn = CongruenceVector(3, 1, (Fraction(0), Fraction(1)), 0)
    cn_hat = _UncheckedRow(3, 1, (Fraction(1, 27), Fraction(1)), 0)
    with pytest.raises(LatticeError) as got:
        sandwich_check(3, base, cn, cn_hat)
    assert str(got.value) == "column 0 extends by -1/3, which is not 3-locally integral"
    assert got.value.column == 0
    with pytest.raises(LatticeError) as want:
        _reference_sandwich(3, base, cn, cn_hat)
    assert str(want.value) == str(got.value)
    # a zero pivot, off the shape too, is refused as the extension refuses it
    with pytest.raises(LatticeError, match="zero pivot at index 1"):
        sandwich_check(3, base, cn, _UncheckedRow(3, 1, (Fraction(1, 3), Fraction(0)), 0))
