"""The walk over the t-monomials: theta(t^gamma) for every t-monomial gamma
of weight <= W, the rows of the sampled integrality conditions.

``t_monomial_numerators`` walks those monomials depth first and builds
each image from its parent, gamma less one factor of its lowest
generator t_k, with one product by theta(t_k), on the generator images
its caller passes (:func:`bpadams.hopf._theta_numerators` or
:func:`bpadams.hopf._hazewinkel_theta_numerators`).  Each v-monomial
v^delta is one int (one bit field per exponent), so a product of
monomials is one int addition, and each row sum_j c_j * u^j is one int
sum_j c_j * 2^(B * j) with signed digits (Kronecker substitution), so a
product of rows is one big-int product.  The width B is per node, from
an l1 bound on the numerators that makes the digits decode without
carries; the same bound tells from a row's int alone whether its top
index is at most n, so rows the caller will not test are counted and
never decoded, and a node raised at t_1 multiplies only the rows whose
products it keeps.  Rows are packed at B rounded up to whole 32-bit words
(:class:`bpadams.arith.WordCodec`), so a child re-spreads its parent's
rows only when it needs wider digits.  The products are those of
:mod:`bpadams.kernel`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from .arith import WordCodec, word_width
from .fgl import BPContext
from .hopf import ConstructionError
from .kernel import _check_u_degree, _group_rows, _multiply


def t_monomial_numerators(ctx: BPContext, images: Mapping[str, tuple[dict[int, int], int]],
                          top: int | None = None) -> Iterator[
        tuple[tuple[int, ...], dict[int, list[int]], int, int]]:
    """(gamma, rows, den, count) for every t-monomial gamma of weight <= W,
    each once, in the walk's order (below): the row at
    delta of theta(t^gamma) is sum_j (rows[key][j] / den) * mu_j, ``key``
    the packed v-monomial delta (see below;
    :func:`bpadams.hopf._delta_reader` reads it back), a dense list of int
    numerators whose last entry is not zero, so the row's top index is
    ``len(rows[key]) - 1``.  ``count`` is
    the number of non-zero rows of theta(t^gamma); ``rows`` holds those
    whose top index is at most ``top`` (every row when ``top`` is None),
    in the order the product made them.  A row above ``top`` is counted,
    never decoded.  Every delta of one image has the same weight, so
    graded-lexicographic order of delta is the order of the packed keys:
    a caller that reads a delta or the order of the rows sorts the keys
    and decodes them itself.

    A depth-first walk that keeps only the chain of parents: the image of
    gamma is its parent's (gamma with its lowest non-zero exponent, at
    t_k, lowered by one) times theta(t_k), so a node raised at index k
    raises only the indices <= k, and the root any.  The last factor of
    every image is theta(t_k) for its lowest generator t_k, most often
    theta(t_1), the factor with the fewest rows and the narrowest digits.
    One loop runs it over a stack of frames, one per parent, each holding
    the index it raises next, from 0 up.  Images are homogeneous of
    weight |gamma| (u has weight 0), so no product truncates.
    The order of the nodes is not that of
    ``monomials_up_to_weight(ctx.t_table, W)``, which is lexicographic in
    gamma: the readers that count or test rows read no order, and the two
    whose output follows the order, ``sampled_integrality_rows`` and a
    failure's witness (:func:`bpadams.centre._araki_witness`), sort the
    nodes by gamma.  A node's image, its width and its packed rows do not
    depend on the tree: the products commute, and its l1 bound below is
    a product over gamma's exponents.

    The walk runs on integers, on the generator images its caller passes:
    ``images["t<k>"]`` is theta(t_k) as (N_k, D_k) on packed keys,
    N_k = D_k * theta(t_k), D_k the lcm of its denominators, read in
    Araki's generators of BP_* (:func:`bpadams.hopf._theta_numerators`) or
    in Hazewinkel's (:func:`bpadams.hopf._hazewinkel_theta_numerators`).
    Both are
    polynomial generators of BP_* over Z_(p), so theta_mu(t^gamma) lies in
    BP_* exactly when all its rows in either set are p-integral at mu,
    though single rows differ between the sets.  The verification's
    integrality tests walk Hazewinkel's images, whose numerators are
    several times narrower at odd p; ``sampled_integrality_rows``, which
    returns the rows themselves, walks Araki's (see
    :func:`bpadams.centre.verify_centre_bp`).  The
    image of gamma as integer numerators over the common denominator
    den = prod_k D_k^{gamma_k}; a child's denominator is ``den * D_k``.
    A v-monomial v^delta is one int with a field of ``W.bit_length()``
    bits per v_i, so multiplying monomials is adding ints.  No carry can
    pass between fields: every term of theta(t^gamma) has v-weight
    |gamma| <= W, so each v-exponent is at most W.

    *Packed rows.*  Each row sum_j c_j * u^j of an image is one int,
    sum_j c_j * 2^(R * j) (Kronecker substitution u -> 2^R), keyed by the
    packed delta.  A child is then one big-int product per pair of
    (parent row, row of N_k), so the convolution in u runs inside the
    integer multiply.  The digits are signed, and they decode without
    carries as long as every |c_j| < 2^(R - 1): the int of a child row is
    exactly that row evaluated at 2^R, a sum of products of such
    evaluations, and a signed-digit expansion with all digits in that
    range is unique.  Rows are read and rewritten by one
    :class:`bpadams.arith.WordCodec` per walk, whose digits sit in whole
    32-bit words.
    - *Width.*  The l1 norm is submultiplicative, so every numerator of
      theta(t^gamma) is at most prod_k ||N_k||_1^{gamma_k}, with ||N_k||_1
      the sum of the absolute numerators of N_k.  Each node takes its own
      tight width B(gamma) from that bound M, the least B with
      M < 2^(B - 1), and packs its rows at B rounded up to whole 32-bit
      words (:func:`bpadams.arith.word_width`), R.  Every |digit| stays
      below 2^(B - 1) <= 2^(R - 1), so decoding and the top test are
      exact at R.  Widths round to few values, so a child whose R equals
      its parent's multiplies the parent's packed rows as they are; a
      child with a wider R re-spreads them (``WordCodec.respread``, all
      the rows in one call): the words of each digit move to the low words
      of a wider digit, one strided slice per word lane, and no digit is
      decoded.  The rows of N_k are packed once for each R the walk
      multiplies them at.
    - *Top test.*  With digits below 2^(R - 1) in absolute value at width
      R, |r| < 2^(R * (n + 1) - 1) holds exactly when no digit above
      index n is non-zero: digits 0..n alone give
      |r| < 2^(R * (n + 1)) / 2, while a top non-zero digit c_m, m > n,
      leaves |r| > 2^(R * m) - 2^(R * m) / 2.  So a row above ``top`` is
      counted from its bit length alone; a kept row is decoded by
      ``WordCodec.decode``, whose digits come out of one ``to_bytes``.
      Every top index is at most the u-degree bound |gamma|, so a node of
      weight <= ``top`` decodes every row without the test.
    - *t_1-chains.*  theta(t_1) = (u - 1) * v_1 / D_1 is one row, of top
      index e = 1 (D_1 is p on Hazewinkel's images, p^p - p on Araki's).  A
      node raised at index 0 raises only index 0, so each node (0, gamma')
      heads a chain of nodes (a, gamma'), whose rows are the base rows
      times theta(t_1)^a, at keys shifted by a * v_1.  Z[u] has no zero
      divisors, so each chain node has exactly as many non-zero rows as
      its base, and every row's top index goes up by exactly e per step.
      So a chain step carries its parent's ``count``, and with ``top``
      given it multiplies only the parent rows of top index at most
      ``top - e`` (by the top test above; a parent of weight at most
      ``top - e`` has no other), which are the rows it keeps: a chain
      node's image holds those alone.  Once no row is left, the rest of
      the chain is yielded with no rows and no product.  Without ``top``
      every row is multiplied.
    - *Generator check.*  The rows of each N_k are read from the u field
      of its packed keys (:func:`bpadams.kernel._group_rows`),
      ``W.bit_length()`` bits wide (see :func:`bpadams.kernel._key`), so
      they are exact only if no term's
      u-degree outgrows that field and carries into delta's.  The
      recursion gives every term of theta(t_n) a u-degree <= w_n <= W,
      since p^k * w_{n-k} <= w_n.  That bound on the generator images, and
      that theta(t_1) is one row, are
      checked once per walk; a generator image that breaks either is the
      program's own failure, raised as :class:`ConstructionError` with
      details ``{"stage": "walk", "generator": "t<k>"}``.  The inner loop
      checks nothing.
    """
    W = ctx.weight_bound
    width = W.bit_length()
    weights = ctx.t_table.weights
    gens = []  # per t_k: the rows of N_k by delta, D_k and ||N_k||_1
    factors: dict[tuple[int, int], list[tuple[int, int]]] = {}  # N_k's rows packed at R
    for k, w in enumerate(weights, start=1):
        num, den = images[f"t{k}"]
        degree = _check_u_degree(num, width, w)
        if degree is not None:
            raise ConstructionError(f"theta(t{k}) has a term of u-degree {degree} above {w}: "
                                    "its packed keys could carry",
                                    {"stage": "walk", "generator": f"t{k}"})
        rows = _group_rows(num, width)
        if k == 1 and len(rows) != 1:
            raise ConstructionError(f"theta(t1) has {len(rows)} rows, not one: the walk's "
                                    "t_1-chains need one", {"stage": "walk", "generator": "t1"})
        gens.append((rows, den, sum(map(abs, num.values()))))
    if gens:
        (t1_row,) = gens[0][0].values()
        step = max(t1_row)  # the top index theta(t_1) adds to a row
    codec = WordCodec()

    # a node: gamma, image, den, l1 bound, R, highest index it may raise,
    # weight left, count of its non-zero rows
    # the root: one row, 1 at mu_0, of l1 bound 1; it may raise any index
    node = ((0,) * len(gens), {0: 1}, 1, 1, word_width(2), len(gens) - 1, W, 1)
    stack: list[list] = []
    decode = codec.decode
    while node:
        gamma, image, den, bound, R, high, room, count = node
        if top is None or W - room <= top:  # every top index is at most |gamma|
            kept = {d: decode(r, R) for d, r in image.items()}
        else:
            limit = R * (top + 1)
            kept = {d: decode(r, R) for d, r in image.items() if r.bit_length() < limit}
        yield gamma, kept, den, count
        if gens and weights[0] <= room:  # a child: the weights grow with the index
            # the image at each width its children need, and the index raised next
            stack.append([gamma, den, bound, room, R, {R: image}, high, count, 0])
        node = None
        while stack and not node:
            frame = stack[-1]
            gamma, den, bound, room, R, views, high, count, k = frame
            if k > high or weights[k] > room:
                stack.pop()
                continue
            frame[-1] = k + 1
            factor_rows, d, norm = gens[k]
            child_bound = bound * norm
            child_R = word_width(child_bound.bit_length() + 1)
            if k == 0 and top is not None and W - room > top - step:
                # a t_1-chain step from a parent of weight above top - step:
                # only the rows whose products it keeps
                limit = R * (top + 1 - step)
                rows = {key: r for key, r in views[R].items() if r.bit_length() < limit}
                if not rows:  # the rest of the chain, with no product
                    for j in range(1, room // weights[0] + 1):
                        yield (gamma[0] + j,) + gamma[1:], {}, den * d ** j, count
                    continue
                if child_R != R:
                    rows = dict(zip(rows, codec.respread(rows.values(), R, child_R)))
            else:
                if child_R not in views:  # the parent's rows, re-spread
                    views[child_R] = dict(zip(views[R],
                                              codec.respread(views[R].values(), R, child_R)))
                rows = views[child_R]
            if (k, child_R) not in factors:
                factors[k, child_R] = [
                    (delta, codec.pack([row.get(j, 0) for j in range(max(row) + 1)], child_R))
                    for delta, row in factor_rows.items()]
            image = _multiply(rows, factors[k, child_R])
            node = (gamma[:k] + (gamma[k] + 1,) + gamma[k + 1:], image, den * d,
                    child_bound, child_R, k, room - weights[k],
                    count if k == 0 else len(image))
