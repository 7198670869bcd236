import math
import random

import pytest

from bpadams import kernel


# the kernel's passes as they ran before they returned their accumulated
# dict when nothing cancelled: always a second pass that drops zero values
def _two_pass_multiply(image, factor):
    out = {}
    for k1, c1 in image.items():
        for k2, c2 in factor:
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _two_pass_reduced(num, den):
    g = math.gcd(den, *num.values())
    return {key: c // g for key, c in num.items() if c}, den // g


def _two_pass_combine(terms, reduced=True):
    den = math.lcm(*(d for _, (_, d) in terms))
    acc = {}
    for s, (num, d) in terms:
        for key, c in num.items():
            acc[key] = acc.get(key, 0) + s * (den // d) * c
    if reduced:
        return _two_pass_reduced(acc, den)
    return {key: c for key, c in acc.items() if c}, den


def _random_image(rng, keys, size, scale=1):
    """A sparse image of non-zero values on small keys; small values and
    few keys make sums cancel often."""
    return {key: scale * (rng.choice((-1, 1)) if rng.random() < 0.8
                          else rng.randint(-50, 50) or 1)
            for key in rng.sample(range(keys), size)}


def test_multiply_and_combine_against_the_two_pass_code():
    # with cancellations and without, counted per kernel pass
    rng = random.Random(2028)
    paths = {"multiply": [0, 0], "combine": [0, 0]}
    for _ in range(3000):
        keys = rng.randint(1, 6)
        image = _random_image(rng, keys, rng.randint(1, keys))
        factor = list(_random_image(rng, keys, rng.randint(1, keys)).items())
        got, want = kernel._multiply(image, factor), _two_pass_multiply(image, factor)
        assert got == want and all(got.values())
        paths["multiply"][len(got) < len({k1 + k2 for k1 in image for k2, _ in factor})] += 1
        terms = [(rng.choice((-1, 1, 2)),
                  (_random_image(rng, keys, rng.randint(1, keys)), rng.choice((1, 1, 2, 3, 6))))
                 for _ in range(rng.randint(1, 4))]
        for reduced in (True, False):
            got = kernel._combine(terms, reduced)
            assert got == _two_pass_combine(terms, reduced) and all(got[0].values())
        summed = {key for _, (num, _) in terms for key in num}
        paths["combine"][len(got[0]) < len(summed)] += 1
    assert all(min(counts) > 100 for counts in paths.values()), paths


@pytest.mark.parametrize("g", [1, 2, 3, 12, 2 ** 70])
def test_reduced_against_the_two_pass_code(g):
    # gcd 1 and gcd > 1, with zero values and without: when the gcd is 1
    # and no value is zero the dict itself comes back, otherwise a new one
    rng = random.Random(g)
    same = 0
    for _ in range(500):
        num = _random_image(rng, 8, rng.randint(1, 8), g)
        if rng.random() < 0.3:
            num[rng.choice(list(num))] = 0
        den = g * rng.choice((1, 2, 5, 7, 35))
        want = _two_pass_reduced(dict(num), den)
        got = kernel._reduced(num, den)
        assert got == want and all(got[0].values())
        identity = math.gcd(den, *num.values()) == 1 and all(num.values())
        assert (got[0] is num) == identity
        same += identity
    assert bool(same) == (g == 1)
