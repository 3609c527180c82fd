import random
from math import isqrt

import pytest

from dlogsidon.arith import (
    PrimeInterval,
    discrete_log,
    factorize,
    is_prime,
    is_primitive_root,
    lift_to_window,
    log_table,
    prime_count,
    primes_in_interval,
    primes_upto,
    smallest_primitive_root,
)
from dlogsidon.blocks import const_sqrt2, const_sqrt5, sidon_params
from dlogsidon.errors import DLogUndefined, InvalidModulus

from oracles import (
    factorize_trial,
    is_prime_trial,
    lift_naive,
    power_table,
    prime_count_sieve,
    primes_upto_trial,
    primitive_root_naive,
)


def test_is_prime_matches_trial_division_up_to_2000():
    for n in range(-5, 2001):
        assert is_prime(n) == is_prime_trial(n), n


def test_is_prime_random_60bit_against_sympy(seed=411):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(1 << 59, 1 << 60)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_known_carmichael_and_strong_pseudoprimes():
    # Carmichael numbers and 2-strong pseudoprimes must all be rejected.
    for n in (561, 1105, 1729, 2047, 3215031751, 3474749660383):
        assert not is_prime(n), n
    assert is_prime(2305843009213693951)  # 2^61 - 1


def test_primes_upto_matches_trial():
    assert primes_upto(1000) == primes_upto_trial(1000)
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]


def test_interval_validation():
    with pytest.raises(ValueError):
        PrimeInterval(0, 5)
    with pytest.raises(ValueError):
        PrimeInterval(7, 7)
    iv = PrimeInterval(10, 20)
    assert 11 in iv and 20 in iv and 10 not in iv and 21 not in iv


def test_primes_in_interval_matches_sieve(seed=512):
    rng = random.Random(seed)
    for _ in range(25):
        lo = rng.randrange(1, 5000)
        hi = lo + rng.randrange(1, 3000)
        got = primes_in_interval(PrimeInterval(lo, hi))
        want = [p for p in primes_upto_trial(hi) if p > lo]
        assert got == want, (lo, hi)


def test_primes_in_interval_crosses_segment_boundary():
    lo = (1 << 22) - 50
    hi = (1 << 22) + 50
    got = primes_in_interval(PrimeInterval(lo, hi))
    assert got == [p for p in primes_upto(hi) if p > lo]


def test_prime_count_classics():
    assert prime_count(10) == 4
    assert prime_count(1000) == 168
    assert prime_count(10**6) == 78498
    assert prime_count(1) == 0


def test_prime_count_matches_primes_upto(seed=613):
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randrange(2, 200000)
        assert prime_count(n) == len(primes_upto(n)), n


# Every block edge through k = 9: growth_bracket_check counts primes up to
# edge(k_max + 2). The sqrt2 edge of block 9 is 1.57e9, a sieve of about
# 10 s, so it runs only with --slow.
@pytest.mark.parametrize("c, ks", [
    pytest.param("sqrt5", range(1, 10), id="sqrt5-k1-9"),
    pytest.param("sqrt2", range(1, 9), id="sqrt2-k1-8"),
    pytest.param("sqrt2", (9,), id="sqrt2-k9", marks=pytest.mark.slow),
])
def test_prime_count_matches_sieve_at_block_edges(c, ks):
    params = sidon_params(c={"sqrt5": const_sqrt5, "sqrt2": const_sqrt2}[c]())
    for k in ks:
        n = params.upper_edge(k)
        assert prime_count(n) == prime_count_sieve(n), (c, k, n)


def test_prime_count_matches_sieve_at_random_n(seed=1017):
    rng = random.Random(seed)
    for bits in range(2, 25):
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        for m in (n, isqrt(n) ** 2 - 1, isqrt(n) ** 2):
            assert prime_count(m) == prime_count_sieve(m), m


def test_factorize_matches_trial(seed=714):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randrange(1, 10**7)
        assert factorize(n) == factorize_trial(n), n
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_primitive_roots_match_naive():
    for q in (3, 5, 7, 11, 13, 101, 379):
        g = smallest_primitive_root(q)
        assert g == primitive_root_naive(q), q
        assert is_primitive_root(g, q)
    assert smallest_primitive_root(2) == 1


def test_is_primitive_root_rejects_non_generators():
    # 3 generates mod 7; 2 has order 3.
    assert is_primitive_root(3, 7)
    assert not is_primitive_root(2, 7)
    assert not is_primitive_root(0, 7)
    with pytest.raises(InvalidModulus):
        is_primitive_root(2, 15)
    with pytest.raises(InvalidModulus):
        smallest_primitive_root(100)


def test_discrete_log_full_table_small_primes():
    for q in (3, 5, 11, 37, 131):
        g = smallest_primitive_root(q)
        table = power_table(q, g)
        for a, e in table.items():
            assert discrete_log(g, a, q) == e, (q, a)


def test_discrete_log_roundtrip_large(seed=815):
    rng = random.Random(seed)
    q = 2053
    g = smallest_primitive_root(q)
    for _ in range(50):
        e = rng.randrange(q - 1)
        assert discrete_log(g, pow(g, e, q), q) == e
    with pytest.raises(DLogUndefined):
        discrete_log(g, 0, q)


def test_log_table_matches_bsgs_and_power_table():
    for q in (2, 3, 5, 11, 37, 101, 131, 1009, 2053):
        for g in {smallest_primitive_root(q),
                  max(g for g in range(1, q) if is_primitive_root(g, q))}:
            table = log_table(g, q)
            want = power_table(q, g)
            assert len(table) == q and table[0] == -1
            for a in range(1, q):
                assert table[a] == discrete_log(g, a, q) == want[a], (q, g, a)


def test_log_table_rejects_non_generators():
    # 4 is a square mod 11 (order 5), 1 and 0 generate nothing, 2 has order 3 mod 7.
    for g, q in ((4, 11), (1, 11), (0, 11), (11, 11), (2, 7), (0, 2)):
        with pytest.raises(ValueError):
            log_table(g, q)


def test_lift_to_window_matches_scan(seed=916):
    rng = random.Random(seed)
    for q in (3, 5, 11, 37, 131):
        for h in (2, 3, 4):
            lo, hi = (h - 1) * q + 1, h * q - 1
            for _ in range(20):
                d = rng.randrange(q - 1)
                x = lift_to_window(d, q, h)
                assert x == lift_naive(d, lo, hi, q - 1), (q, h, d)
                assert lo <= x <= hi and x % (q - 1) == d % (q - 1)


def test_lift_to_window_rejects_bad_args():
    with pytest.raises(ValueError):
        lift_to_window(0, 11, h=1)
    with pytest.raises(ValueError):
        lift_to_window(10, 11)
    with pytest.raises(ValueError):
        lift_to_window(-1, 11)
