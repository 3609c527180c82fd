import math
import random

import mpmath
import pytest

from dlogsidon._precision import (
    PRECISION,
    cmp_int,
    cmp_log2,
    int_floor,
    pow2_floor,
    pow2_ratio_floor,
)
from dlogsidon.blocks import const_decimal, sidon_params
from dlogsidon.errors import PrecisionAmbiguity


def test_cmp_log2_signs():
    with mpmath.workprec(PRECISION):
        assert cmp_log2(7, mpmath.mpf(3)) == -1
        assert cmp_log2(9, mpmath.mpf(3)) == 1
        assert cmp_log2(1, mpmath.mpf("0.5")) == -1
    with pytest.raises(ValueError):
        cmp_log2(0, mpmath.mpf(1))


def test_cmp_log2_exact_tie_is_ambiguous():
    with mpmath.workprec(PRECISION):
        with pytest.raises(PrecisionAmbiguity):
            cmp_log2(8, mpmath.mpf(3))


def test_cmp_int_signs_and_tie():
    with mpmath.workprec(PRECISION):
        assert cmp_int(3, mpmath.mpf("3.5")) == -1
        assert cmp_int(4, mpmath.mpf("3.5")) == 1
        with pytest.raises(PrecisionAmbiguity):
            cmp_int(3, mpmath.mpf(3))
        with pytest.raises(PrecisionAmbiguity):
            cmp_int(3, mpmath.mpf(3) + mpmath.mpf(2) ** -80)


def test_pow2_floor_matches_math_floor(seed=29):
    rng = random.Random(seed)
    # Above e ~ 63 consecutive integers sit closer than the 2^-64 guard in
    # log scale, so this cmp_log2 check is only well-posed below that; see
    # the exact test past 2^64 below.
    for _ in range(200):
        e = mpmath.mpf(rng.randrange(1, 55 << 6)) / (1 << 6) + mpmath.mpf("0.01")
        n = pow2_floor(e)
        # floor by definition: n <= 2^e < n + 1
        assert cmp_log2(n, e) < 0 or n == 1
        assert cmp_log2(n + 1, e) > 0


def test_pow2_floor_exact_past_2_64(seed=41):
    # n = floor(2^(a/64)) iff n^64 <= 2^a < (n + 1)^64, in exact integers;
    # likewise floor(2^(a/64) / d) with (n d)^64 and ((n + 1) d)^64.
    rng = random.Random(seed)
    for _ in range(100):
        a = rng.randrange(64 * 64, 200 * 64)
        if a % 64 == 0:
            a += 1
        e = mpmath.mpf(a) / 64
        n = pow2_floor(e)
        assert n**64 <= 2**a < (n + 1) ** 64
        d = rng.randrange(2, 1 << 40)
        m = pow2_ratio_floor(e, d)
        assert (m * d) ** 64 <= 2**a < ((m + 1) * d) ** 64


def test_sqrt2_edges_past_2_64_match_a_2000_bit_reference(sqrt2_params):
    # Edges 13 and 14 exceed 2^67, where a guard on log2 could not tell
    # neighbouring integers apart.
    with mpmath.workprec(2000):
        c = mpmath.sqrt(2) - 1
        for k in (13, 14):
            want = int(mpmath.floor(mpmath.mpf(2) ** (c * k * k - 3)))
            assert want > 1 << 67
            assert sqrt2_params.upper_edge(k) == want


def test_pow2_floor_small_and_negative():
    assert pow2_floor(mpmath.mpf(-5)) == 0
    assert pow2_floor(mpmath.mpf("0.5")) == 1
    assert pow2_floor(mpmath.mpf("10.0001")) == 1024


def test_int_floor_matches_python_floor(seed=31):
    rng = random.Random(seed)
    for _ in range(200):
        num = rng.randrange(-(1 << 20), 1 << 20)
        den = rng.randrange(3, 1000)
        if num % den == 0:
            num += 1
        with mpmath.workprec(PRECISION):
            e = mpmath.mpf(num) / den
        assert int_floor(e) == num // den


def test_pow2_ratio_floor_matches_integer_division(seed=37):
    rng = random.Random(seed)
    for _ in range(100):
        e = rng.randrange(2, 60)
        d = rng.randrange(1, 10**6)
        if (1 << e) % d == 0:
            d += 1
        if (1 << e) % d == 0:
            continue
        assert pow2_ratio_floor(mpmath.mpf(e), d) == (1 << e) // d
    with pytest.raises(ValueError):
        pow2_ratio_floor(mpmath.mpf(4), 0)


def _law_with_edge_near(n: int, delta):
    """The plain law whose 2^E(12) = 2^(144 c - 3) is n + delta, c given as
    an 80-digit decimal."""
    with mpmath.workprec(600):
        c = (mpmath.log(n + delta, 2) + 3) / 144
        return sidon_params(c=const_decimal(mpmath.nstr(c, 80, min_fixed=-2)))


def test_edge_next_to_an_integer_is_exact(seed=43):
    # 2^-36 from an integer near 2^60: well outside the 2^-64 guard, so the
    # edge is decided, and exactly.
    rng = random.Random(seed)
    for _ in range(10):
        n = (1 << 60) + rng.randrange(1 << 56)
        for sign in (1, -1):
            params = _law_with_edge_near(n, sign * mpmath.mpf(2) ** -36)
            assert params.upper_edge(12) == (n if sign > 0 else n - 1)


def test_edge_inside_the_guard_is_ambiguous():
    n = (1 << 60) + 12345
    for sign in (1, -1):
        params = _law_with_edge_near(n, sign * mpmath.mpf(2) ** -70)
        with pytest.raises(PrecisionAmbiguity):
            params.upper_edge(12)
