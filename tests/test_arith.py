import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import packing_reference
from bpadams import arith
from bpadams.arith import (INFINITY, WordCodec, decimal, delta_p, dot, ensure_prime, exact,
                           find_q, format_over, format_rational, gamma_p, gaussian, gaussian_poly,
                           integer_numerators, integral_dot, is_p_local_int, is_prime,
                           multiplicative_order, nu_p, nu_p_factorial, parse_rational,
                           read_rational, val_p, validate_q, word_width)


def test_prime_validation():
    assert is_prime(2) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)
    # a bool, a float, 1 or a composite is refused, also right after a
    # prime of equal value passed
    for p, bad in ((2, 2.0), (5, 5.0), (2, True), (3, 1), (3, 9), (7, 91)):
        assert ensure_prime(p) == p
        with pytest.raises(ValueError, match="not a prime"):
            ensure_prime(bad)


def test_nu_p_examples():
    assert nu_p(3, 6) == 1
    assert nu_p(2, 12) == 2
    assert nu_p(5, 0) == INFINITY


def test_val_p_examples():
    assert val_p(3, Fraction(9, 2)) == 2
    assert val_p(3, Fraction(2, 3)) == -1
    assert val_p(2, Fraction(0)) == INFINITY


def test_p_local_membership_examples():
    assert is_p_local_int(3, Fraction(5, 2))
    assert not is_p_local_int(3, Fraction(1, 3))
    assert is_p_local_int(2, 6)


def test_delta_p_examples():
    assert delta_p(3, 3) == 4
    assert delta_p(2, 4) == 7
    assert delta_p(5, 0) == 0


def test_delta_p_prime_power_sum():
    # delta_p(p^r) = 1 + p + ... + p^r
    for p in (2, 3, 5):
        for r in range(6):
            assert delta_p(p, p**r) == sum(p**k for k in range(r + 1))


def test_gamma_p_examples():
    assert gamma_p(3, 5) == delta_p(3, 2) == 2
    for n in range(21):
        assert gamma_p(2, n) == delta_p(2, n)
    assert gamma_p(5, 3) == 0


def test_gaussian_examples():
    assert gaussian_poly(2, 1) == (1, 1)  # 1 + t
    assert gaussian(2, 1, 4) == 5
    for n in range(6):
        assert gaussian(n, 0, Fraction(7, 3)) == 1
    # convention: i > n gives zero
    assert gaussian(3, 5, 10) == 0


def test_gaussian_symmetry_bruteforce():
    for n in range(9):
        for i in range(n + 1):
            for t in (3, Fraction(5, 2), -2):
                assert gaussian(n, i, t) == gaussian(n, n - i, t)


def _fraction_gaussian(n: int, i: int, t) -> Fraction:
    # the evaluation in Fractions, term by term: the reference for Horner
    t = Fraction(t)
    acc = Fraction(0)
    power = Fraction(1)
    for c in gaussian_poly(n, i):
        if c:
            acc += c * power
        power *= t
    return acc


def test_gaussian_horner_matches_the_fraction_evaluation():
    points = (0, 1, -1, 2, 16, -9, 729, Fraction(5, 2), Fraction(-7, 3), Fraction(1, 16))
    for n in range(13):
        for i in range(-1, n + 2):
            for t in points:
                value = gaussian(n, i, t)
                assert type(value) is Fraction
                assert value == _fraction_gaussian(n, i, t), (n, i, t)


def _gaussian_product_oracle(n: int, i: int, t: Fraction) -> Fraction:
    # independent oracle: the defining quotient of products, at a point
    # where no denominator factor vanishes
    num = Fraction(1)
    den = Fraction(1)
    for k in range(i):
        num *= 1 - t ** (n - k)
        den *= 1 - t ** (i - k)
    return num / den


def test_gaussian_matches_product_formula():
    for n in range(11):
        for i in range(n + 1):
            for t in (Fraction(2), Fraction(3), Fraction(-5, 7)):
                if i and any(t ** (i - k) == 1 for k in range(i)):
                    continue
                assert gaussian(n, i, t) == _gaussian_product_oracle(n, i, t)


def test_gaussian_coefficients_nonneg_and_pascal():
    for n in range(1, 11):
        for i in range(n + 1):
            coeffs = gaussian_poly(n, i)
            assert all(c >= 0 for c in coeffs)
            lo = gaussian_poly(n - 1, i - 1) if i else (0,)
            hi = gaussian_poly(n - 1, i)
            width = max(len(coeffs), len(lo), len(hi) + i)
            lhs = list(coeffs) + [0] * (width - len(coeffs))
            rhs = [0] * width
            if i:
                for k, c in enumerate(lo):
                    rhs[k] += c
            if i <= n - 1:
                for k, c in enumerate(hi):
                    rhs[k + i] += c
            elif i == n:
                pass  # [n-1, n] = 0
            assert lhs == rhs, (n, i)


def test_find_q_examples():
    # oracle: exhaustive multiplicative-order computation
    assert find_q(3) == 2
    assert multiplicative_order(2, 9) == 6
    assert find_q(5) == 2
    assert multiplicative_order(2, 25) == 20
    assert find_q(7) == 3
    assert multiplicative_order(3, 49) == 42
    assert multiplicative_order(2, 49) == 21  # 2 is not primitive mod 49
    assert find_q(2) == (3, -1)


def test_validate_q():
    assert validate_q(3, None) == find_q(3) == 2 and validate_q(7, None) == find_q(7) == 3
    assert validate_q(2, None) == 3  # the 3 of the fixed pair (3, -1)
    assert validate_q(3, 2) == 2 and validate_q(5, 2) == 2
    with pytest.raises(ValueError, match="p = 2"):
        validate_q(2, 7)  # the 2-local generators are fixed as (3, -1)
    with pytest.raises(ValueError, match="divisible by p = 3"):
        validate_q(3, 9)
    with pytest.raises(ValueError, match="order is 4, need 20"):
        validate_q(5, 7)
    with pytest.raises(ValueError, match="not a prime"):
        validate_q(4, 3)


def test_find_q_is_memoised_and_still_checks_p():
    # one order search per p: a default-q request reads the memo, and a
    # float or bool equal to a cached p (an int, or an int subclass) is not
    # served from it
    class Int(int):
        pass

    assert find_q(5) == find_q(Int(5)) == 2
    hits = find_q.cache_info().hits
    assert validate_q(5, None) == 2 and find_q.cache_info().hits == hits + 1
    for bad in (5.0, True):
        with pytest.raises(ValueError, match="not a prime"):
            find_q(bad)


@pytest.mark.parametrize("p", [p for p in range(3, 60) if is_prime(p)])
def test_find_q_is_the_least_q_whose_powers_fill_the_units_mod_p2(p):
    # brute force: q generates (Z/p^2)^* iff its powers take all p(p - 1)
    # unit values
    def primitive(q):
        return len({pow(q, k, p * p) for k in range(p * p)}) == p * (p - 1)

    q = find_q(p)
    assert primitive(q) and not any(primitive(r) for r in range(2, q))


def test_find_q_order_invariant():
    for p in (3, 5, 7):
        q = find_q(p)
        for r in range(1, 5):
            euler = p ** (r - 1) * (p - 1) if r else 1
            assert multiplicative_order(q, p**r) == (euler if r > 0 else 1)


_fractions = st.fractions(min_value=-100, max_value=100, max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(x=_fractions, y=_fractions)
def test_valuation_properties(x, y):
    for p in (2, 5):
        assert val_p(p, x * y) == val_p(p, x) + val_p(p, y)
        assert val_p(p, x + y) >= min(val_p(p, x), val_p(p, y))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 0, 1, 4, 6, 9, -3]),
       a=st.integers(-10**6, 10**6), i=st.integers(0, 12),
       b=st.integers(1, 10**4), j=st.integers(0, 12), as_int=st.booleans())
def test_val_p_against_nu_p(p, a, i, b, j, as_int):
    # ints and Fractions, of either sign, with high powers of p on either
    # side; 0 is INFINITY whatever p is (as before), a non-prime p raises
    base = abs(p) if abs(p) > 1 else 2
    x = a * base ** i if as_int else Fraction(a * base ** i, b * base ** j)
    if x == 0:
        assert val_p(p, x) == INFINITY
        return
    if not is_prime(p):
        with pytest.raises(ValueError, match="not a prime"):
            val_p(p, x)
        with pytest.raises(ValueError, match="not a prime"):
            nu_p(p, a)
        return
    num, den = Fraction(x).numerator, Fraction(x).denominator
    v = val_p(p, x)
    assert v == nu_p(p, num) - nu_p(p, den)
    # and against the definition: p^|v| divides exactly one side, p^(|v|+1) neither
    top, bottom = (num, den) if v >= 0 else (den, num)
    assert top % p ** abs(v) == 0 and top % p ** (abs(v) + 1) and bottom % p


def test_integer_numerators():
    assert integer_numerators([Fraction(1, 2), Fraction(-1, 3), 2]) == ([3, -2, 12], 6)
    assert integer_numerators((Fraction(0), Fraction(5, 4))) == ([0, 5], 4)
    assert integer_numerators([]) == ([], 1)


def test_integral_dot_reads_the_p_part_of_both_denominators():
    # 1/3 written as (3, 9): the p-part of the denominator decides
    assert not integral_dot(3, ([3], 9), ([1], 1))
    assert integral_dot(3, ([3], 9), ([3], 1))
    assert integral_dot(3, ([1, 1], 3), ([2, 1], 1))
    assert not integral_dot(3, ([1, 1], 3), ([1, 1, 1], 3))
    assert integral_dot(3, ([1, 1], 3), ([3, 6, 1], 1))  # over the shorter


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_integral_dot_against_the_fraction_dot(p, data):
    # rows and sequences as integers over denominators that share powers of
    # p with the numerators, of any two lengths: the verdict is that of the
    # exact Fraction dot product over the shorter
    def integers():
        k = p ** data.draw(st.integers(0, 3))
        nums = data.draw(st.lists(st.integers(-p ** 5, p ** 5), max_size=5))
        den = data.draw(st.sampled_from([1, 2, 3, 7, 11])) * p ** data.draw(st.integers(0, 4))
        return [x * k for x in nums], den * k

    row, mu = integers(), integers()
    value = dot([Fraction(x, row[1]) for x in row[0]], [Fraction(x, mu[1]) for x in mu[0]])
    assert integral_dot(p, row, mu) is (val_p(p, value) >= 0)


def test_exact_refuses_floats():
    assert exact(Fraction(1, 3)) == Fraction(1, 3) and exact(2) == 2
    assert exact("3/4") == Fraction(3, 4)
    for x in (0.5, 1.0, float("nan")):
        with pytest.raises(ValueError, match="floating point input rejected"):
            exact(x)
    with pytest.raises(ValueError, match="floating point input rejected"):
        integer_numerators([Fraction(1, 2), 0.25])


REFUSED = [
    (nu_p, (3, 9.7), "not an integer"),
    (nu_p, (3, Fraction(9, 2)), "not an integer"),
    (nu_p, (3, True), "not an integer"),
    (nu_p_factorial, (3, 7.5), "not an integer"),
    (delta_p, (3, 2.5), "not an integer"),
    (gamma_p, (2, 3.5), "not an integer"),
    (gamma_p, (3, Fraction(7, 2)), "not an integer"),
    (val_p, (3, 0.5), "not an exact rational"),
    (val_p, (3, 0.0), "not an exact rational"),
    (is_p_local_int, (3, 1.5), "not an exact rational"),
    (gaussian, (4, 2, 0.1), "floating point input rejected"),
]


@pytest.mark.parametrize("fn, args, message", REFUSED,
                         ids=[f"{fn.__name__}-{args[-1]!r}".replace(" ", "")
                              for fn, args, _ in REFUSED])
def test_public_helpers_refuse_floats_and_non_integers(fn, args, message):
    # each was once truncated, floor-divided or evaluated in floating point:
    # nu_p(3, 9.7) gave 2, delta_p(3, 2.5) gave 2.5, gaussian(4, 2, 0.1) a
    # dyadic rational, and val_p(3, 0.5) raised AttributeError
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational(7) == Fraction(7)
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(6, 3)) == "2"
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def _fraction_parse(text):
    """The reader before integer pairs: each entry straight to a
    ``Fraction``, the reference for :func:`read_rational`'s values and
    refusals."""
    if isinstance(text, bool) or not isinstance(text, (int, float, Fraction, str)):
        raise ValueError(f"not an exact rational: {text!r}")
    if not isinstance(text, str):
        return exact(text)
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def _outcome(read, text):
    """("value", x) or ("refused", message) of ``read(text)``."""
    try:
        return "value", read(text)
    except ValueError as exc:
        return "refused", str(exc)


# texts near the grammar: whitespace (Unicode too), signs, "_", one or more
# "/", ASCII and non-ASCII digits (Arabic-Indic, Devanagari, a superscript,
# which int refuses), and letters, points and exponents, which it refuses
_entry_texts = st.text(st.sampled_from("0123456789 \t\u2003+-_//\u0663\u0967\u00b2ax.e"),
                       max_size=12)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_entry_texts, st.integers(), st.integers(-10 ** 40, 10 ** 40), st.booleans(),
                 st.floats(), st.none(), st.lists(st.integers(), max_size=2),
                 st.builds(Fraction, st.integers(), st.integers(1, 99)),
                 st.sampled_from(["1/0", "1/-2", "-0/-5", " 3 / 4 ", "a/b/c", "1/2/3", "+7",
                                  "1_000/2_0", "\u0663/\u0664", "\u00b2", "/", "", "--1",
                                  "0.5", "1e3", "6/-4", "-6/4"])))
def test_read_rational_against_the_fraction_reader(text):
    # one reader: the integer pair is the old reader's Fraction in least
    # terms with a positive denominator, and every refusal has its message;
    # parse_rational is that pair as a Fraction
    kind, want = _outcome(_fraction_parse, text)
    got = _outcome(read_rational, text)
    assert _outcome(parse_rational, text) == (kind, want)
    if kind == "refused":
        assert got == (kind, want)
    else:
        assert got == ("value", (want.numerator, want.denominator))
        assert all(type(x) is int for x in got[1])


def test_read_rational_past_a_lowered_str_limit(str_limit):
    # a run of ASCII digits past the interpreter's limit on str-to-int
    # conversion is read, as decimal writes it, with or without a sign, over
    # a denominator or not; every other text int refuses is refused as before
    sys.set_int_max_str_digits(640)
    rng = random.Random(641)
    for digits in (639, 640, 641, 1281, 5000):
        x = rng.randrange(10 ** (digits - 1), 10 ** digits)
        text = _unlimited_str(x)
        assert read_rational(text) == (x, 1)
        assert read_rational(" -" + text + " ") == (-x, 1)
        assert read_rational("+" + text) == (x, 1)
        assert read_rational(text + "/" + text) == (1, 1)
        assert parse_rational(f"{text} / -3") == Fraction(-x, 3)
    assert read_rational("1" * 700) == (int("1" * 350) * 10 ** 350 + int("1" * 350), 1)
    assert read_rational("0" * 699 + "7") == (7, 1)
    for bad in ("_".join("1" * 700), "\u0663" * 700, "--" + "1" * 700, "1" * 700 + "x",
                "1" * 700 + "/0"):
        assert _outcome(read_rational, bad) == ("refused", f"not an exact rational: {bad!r}")
        assert _outcome(parse_rational, bad) == ("refused", f"not an exact rational: {bad!r}")


def test_dot_exact():
    assert dot([1, Fraction(1, 2)], [Fraction(1, 3), 4]) == Fraction(7, 3)
    assert dot([Fraction(2, 3)], [Fraction(3, 2)]) == 1
    # the shorter input sets the length; the result is always a Fraction
    assert dot([2, 3, 5], [1, 1]) == 5
    assert type(dot([2], [3])) is Fraction
    assert dot([], []) == 0 and type(dot([], [])) is Fraction


@st.composite
def _packed_rows(draw):
    """Rows at random word widths, one codec's worth: each (width, row)
    with digits up to 2^(width - 1) - 1 in absolute value, the extremes
    and +-1 drawn often, one-digit and empty rows among them."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        width = 32 * draw(st.integers(1, 12))
        edge = (1 << (width - 1)) - 1
        digit = st.one_of(st.sampled_from([0, 1, -1, edge, -edge]),
                          st.integers(-edge, edge))
        digits = draw(st.lists(digit, max_size=12))
        rows.append((width, {j: c for j, c in enumerate(digits) if c}))
    return rows


@settings(max_examples=300, deadline=None)
@given(_packed_rows())
@example([(32, {})])
@example([(32, {0: -(2 ** 31 - 1)}), (64, {5: 1})])
@example([(96, {0: 2 ** 95 - 1, 3: -(2 ** 95 - 1)}), (96, {2: -1}), (32, {0: 2 ** 31 - 1})])
def test_word_codec_round_trip(rows):
    # one codec packs and decodes rows of several widths and digit counts
    # exactly as the per-digit reference does, a negative top digit included
    codec = WordCodec()
    for width, row in rows:
        packed = codec.pack(packing_reference.dense(row), width)
        assert packed == packing_reference.pack(row, width)
        assert row == packing_reference.unpack(packed, width)
        assert codec.decode(packed, width) == packing_reference.dense(row)


def _edge_rows(width):
    """Rows at ``width`` with the extreme digits +-(2^(width-1) - 1), zeros
    inside a row, a negative top digit and rows of one digit."""
    edge = (1 << (width - 1)) - 1
    return [{0: edge}, {0: -edge}, {0: 1}, {0: -1}, {}, {1: -1}, {1: edge},
            {0: edge, 1: -edge, 2: edge}, {0: -edge, 3: -edge}, {0: 5, 4: -1},
            {2: edge, 5: -edge}, {j: (-1) ** j * edge for j in range(9)},
            {0: 0x1234, 2: -(edge >> 3), 6: -2}]


@pytest.mark.parametrize("width", [32, 64, 96, 160])
def test_decode_against_the_per_digit_reference(width):
    # the dense decoder reads each digit as two's complement after the
    # offset is added and XORed back: exact on the extreme digits
    # +-(2^(R-1) - 1), zeros inside a row, a negative top digit and rows of
    # one digit, on the word casts (32, 64 bits) and on wider digits
    codec = WordCodec()
    for row in _edge_rows(width):
        packed = packing_reference.pack(row, width)
        assert packing_reference.unpack(packed, width) == row
        digits = codec.decode(packed, width)
        assert digits == packing_reference.dense(row), row
        assert len(digits) == packed.bit_length() // width + 1
        assert digits[-1] or not row


@pytest.mark.parametrize("width", [32, 64])
def test_decode_reads_word_rows_field_by_field_off_little_endian_hosts(width, monkeypatch):
    # a big-endian host reads 32- and 64-bit rows field by field, as it
    # reads wider ones, since a native word cast would swap each digit's
    # bytes: the same digits as the per-digit reference, on the edge rows
    # and on seeded random ones
    monkeypatch.setattr(arith, "_LITTLE_ENDIAN", False)
    codec, rng = WordCodec(), random.Random(width)
    edge = (1 << (width - 1)) - 1
    rows = _edge_rows(width) + [
        {j: rng.randint(-edge, edge) for j in range(rng.randint(1, 12))} for _ in range(200)]
    for row in rows:
        row = {j: c for j, c in row.items() if c}
        packed = packing_reference.pack(row, width)
        assert codec.decode(packed, width) == packing_reference.dense(row), row


@settings(max_examples=300, deadline=None)
@given(_packed_rows(), st.lists(st.integers(0, 6), min_size=4, max_size=4))
@example([(32, {})], [1, 0, 0, 0])
@example([(64, {0: -(2 ** 63 - 1)})], [2, 0, 0, 0])
def test_respread_is_decode_then_pack(rows, extra):
    # a row re-spread at a wider word width equals the row decoded and
    # packed again at that width, by the codec's dense decode and pack and
    # by the per-digit reference
    codec = WordCodec()
    for (width, row), more in zip(rows, extra):
        wider = width + 32 * more
        packed = packing_reference.pack(row, width)
        [spread] = codec.respread([packed], width, wider)
        assert spread == codec.pack(codec.decode(packed, width), wider)
        assert spread == packing_reference.pack(packing_reference.unpack(packed, width), wider)
    # the rows of one width re-spread together: each as it is alone
    for width in {width for width, _ in rows}:
        packed = [packing_reference.pack(row, width) for w, row in rows if w == width]
        wider = width + 32 * extra[0] + 32
        assert codec.respread(packed, width, wider) == [
            packing_reference.pack(packing_reference.unpack(P, width), wider) for P in packed]


@pytest.mark.parametrize("width", [32, 64, 96])
def test_one_digit_rows_and_their_two_digit_neighbours(width):
    # a row whose int is below 2^width in absolute value has one digit, the
    # int itself, at this width and every wider one; the rows just past it
    # reach bit ``width`` and hold two digits
    codec = WordCodec()
    edge = (1 << (width - 1)) - 1
    for row in ({}, {0: 1}, {0: -1}, {0: edge}, {0: -edge}, {0: -edge, 1: 1},
                {0: edge, 1: -1}, {1: 1}, {1: -1}):
        packed = packing_reference.pack(row, width)
        assert row == packing_reference.unpack(packed, width)
        assert codec.decode(packed, width) == packing_reference.dense(row)
        for wider in (width, width + 32, 2 * width):
            assert codec.respread([packed], width, wider) == [packing_reference.pack(row, wider)]


@pytest.mark.parametrize("bits, width", [(1, 32), (32, 32), (33, 64), (64, 64), (65, 96)])
def test_word_width_rounds_up_to_whole_words(bits, width):
    assert word_width(bits) == width


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8),
       st.integers(1, 10 ** 6) | st.sampled_from([1, 2, 9, 3 ** 12, 5 ** 9 * 7]))
def test_format_over_is_format_rational_of_each_ratio(nums, den):
    assert format_over(nums, den) == [format_rational(Fraction(x, den)) for x in nums]


@pytest.fixture
def str_limit():
    """The interpreter's limit on int-to-str conversion, in digits, for one
    test that may set another (``sys.set_int_max_str_digits``), restored
    after it; the default where none is set, and skipped where the
    interpreter has none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int-to-str conversion")
    old = sys.get_int_max_str_digits()
    limit = old or sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)
    yield limit
    sys.set_int_max_str_digits(old)


def _unlimited_str(x):
    """``str(x)`` with the interpreter's limit on int-to-str conversion
    lifted for the call: the oracle past the limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_is_str_on_both_sides_of_the_limit(str_limit):
    # below the limit in force (ints of at most limit * 3.3 bits) decimal is
    # plain str; above it the split by powers of ten writes the digits str
    # writes with the limit lifted, zeros at the split and negatives included
    rng = random.Random(7)
    limit = str_limit * 33 // 10
    values = [0, 1, -1, 10 ** 4299, 10 ** 4300, -(10 ** 4300), 10 ** 9000 + 1, 7 * 10 ** 5000]
    for bits in (limit - 1, limit, limit + 1, 2 * limit, 5 * limit + 3):
        values += [rng.getrandbits(bits) | 1 << (bits - 1), -(1 << (bits - 1)), (1 << bits) - 1]
    for x in values:
        assert decimal(x) == _unlimited_str(x), x.bit_length()


def test_decimal_and_format_over_under_a_lowered_limit(str_limit):
    # with the limit lowered to 640 digits, the least the interpreter
    # allows, decimal and format_over write what str writes with no limit:
    # ints of 639 to 641 digits, ints far past the limit, negatives, and
    # zeros at the split, where the low part is padded
    sys.set_int_max_str_digits(640)
    rng = random.Random(640)
    values = [0, 1, -1, 10 ** 638, 10 ** 639, 10 ** 640, -(10 ** 640), 10 ** 641 - 1,
              10 ** 2000 + 1, -(10 ** 5000 + 7), 7 * 10 ** 3000, 3 ** 20000 + 2,
              (10 ** 700 + 1) * 10 ** 700, -(1 << 30000)]
    for digits in (639, 640, 641, 1281, 6000):
        x = rng.randrange(10 ** (digits - 1), 10 ** digits)
        values += [x, -x, x - x % 10 ** (digits // 2)]
    for x in values:
        assert decimal(x) == _unlimited_str(x), x.bit_length()
    for den in (1, 4, 10 ** 640 + 3, 3 ** 2000):
        want = [_unlimited_str(Fraction(x, den)) for x in values]
        assert format_over(values, den) == want
        assert [format_rational(Fraction(x, den)) for x in values] == want


@given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 6, 8, 9, 72, 5 ** 9, 72 * 5 ** 9]),
                          st.integers(-4, 4)), min_size=2, max_size=16))
def test_format_over_writes_rows_with_repeated_gcds_as_format_rational(factors):
    # entries d * k over den = 72 * 5^9 share their gcds with den across the
    # row, each reduced denominator written once and reused
    den = 72 * 5 ** 9
    nums = [d * k for d, k in factors]
    assert format_over(nums, den) == [format_rational(Fraction(x, den)) for x in nums]


def test_format_rational_refuses_a_float():
    # a float would be written as its binary value, 1/3 as a dyadic rational
    assert format_rational("1/3") == "1/3"
    with pytest.raises(ValueError, match="floating point input rejected"):
        format_rational(1 / 3)


def test_format_over_and_format_rational_past_the_limit(str_limit):
    # at the interpreter's default limit, a row with one integer past it is
    # written whole by decimal's split, and every other entry of it as plain
    # str writes it; the expected digits are str's with the limit lifted
    wide = 3 ** 20000 + 2
    assert len(_unlimited_str(wide)) > str_limit
    big, den_big = _unlimited_str(wide), _unlimited_str(3 ** 20001)
    nums, den = [wide, -6, 4 * wide, 0], 4
    assert format_over(nums, den) == [f"{big}/4", "-3/2", big, "0"]
    assert format_over([wide, 1], 3 ** 20001) == [f"{big}/{den_big}", f"1/{den_big}"]
    assert format_rational(Fraction(-wide, 7)) == f"-{big}/7"
    assert format_rational(wide) == big
