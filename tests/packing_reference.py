"""The per-digit codec of packed rows: the reference for
:class:`bpadams.arith.WordCodec`, which the walk of
:func:`bpadams.walk.t_monomial_numerators` reads and rewrites its rows with.

A row {j: c_j} at width B is the int sum_j c_j * 2^(B * j), its signed
digits split off one at a time by a mask and a shift.  This is how the
walk packed its rows at widths rounded to CPython limbs, before the
digits sat in whole 32-bit words.
"""


def pack(row, width):
    """The row {j: c_j} as one int, sum_j c_j * 2^(width * j): the row's
    polynomial in u evaluated at u = 2^width."""
    return sum(c << (width * j) for j, c in row.items())


def unpack(packed, width):
    """The non-zero signed digits of ``packed`` as {j: c_j}: the inverse of
    :func:`pack` on rows with every |c_j| < 2^(width - 1)."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    row = {}
    # a non-zero digit at j leaves |packed| > 2^(width * j - 1)
    for j in range(packed.bit_length() // width + 1):
        c = packed & mask  # packed mod 2^width, for a negative packed too
        if c >= half:
            c -= mask + 1
        if c:
            row[j] = c
        packed = (packed - c) >> width
    return row


def dense(row):
    """The row {j: c_j} as the list c_0..c_m, m its top index ([0] for the
    empty row): the form :meth:`bpadams.arith.WordCodec.decode` returns
    and the walk yields."""
    return [row.get(j, 0) for j in range(max(row, default=0) + 1)]


def top_at_most(packed, width, n):
    """Whether the packed row has no non-zero digit above index n, for
    digits as in :func:`unpack`: exactly when |packed| < 2^(width*(n+1) - 1),
    the walk's test on a row's bit length."""
    return packed.bit_length() < width * (n + 1)
