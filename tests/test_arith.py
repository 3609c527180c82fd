import random
import re
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from dlogsidon import arith
from dlogsidon.arith import (
    INTEGERS,
    PRIME_COUNT_LIMIT,
    SIEVE_LIMIT,
    PrimeInterval,
    check_sieve,
    discrete_log,
    factorize,
    is_prime,
    is_primitive_root,
    lift_to_window,
    log_table,
    prime_array,
    prime_count,
    primes_in_interval,
    primes_upto,
    smallest_primitive_root,
)
from dlogsidon.blocks import const_sqrt2, const_sqrt5, sidon_params
from dlogsidon.errors import DLogTooLarge, DLogUndefined, InvalidModulus, SieveTooLarge
from dlogsidon.gf2x import GF2, least_irreducible

from oracles import (
    bsgs_logs,
    factorize_trial,
    is_prime_trial,
    lift_naive,
    log_table_loop,
    power_table,
    prime_count_lucy,
    prime_count_sieve,
    primes_between_sieve,
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


def test_irreducibles_below_match_trial():
    # The primes p with p^2 < q, that is p <= isqrt(q) for a prime q.
    for q in (2, 3, 101, 10007):
        assert INTEGERS.irreducibles_below(q) == primes_upto_trial(isqrt(q)), q


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
    # primes_upto runs on the same sieve, so the oracles here are
    # Miller-Rabin and the Lucy_Hedgehog count.
    lo = (1 << 22) - 50
    hi = (1 << 22) + 50
    got = primes_in_interval(PrimeInterval(lo, hi))
    assert got == [p for p in range(lo + 1, hi + 1) if is_prime(p)]
    assert len(primes_upto(hi)) == prime_count(hi)


def test_prime_array_is_int64_and_matches_the_list():
    iv = PrimeInterval(1000, 5000)
    arr = prime_array(iv)
    assert arr.dtype == np.int64
    assert arr.tolist() == primes_in_interval(iv) == primes_between_sieve(1000, 5000)


def test_prime_array_matches_oracle_at_the_smallest_edges():
    # (1, 2], (2, 3] and (1, 3] among them: 2 is the one prime the odd flags
    # do not hold, and (1, 2] has no odd number at all. Then lo and hi of
    # each parity.
    assert primes_in_interval(PrimeInterval(1, 2)) == [2]
    assert primes_in_interval(PrimeInterval(2, 3)) == [3]
    assert primes_in_interval(PrimeInterval(1, 3)) == [2, 3]
    for lo in range(1, 130):
        for hi in range(lo + 1, 140):
            assert primes_in_interval(PrimeInterval(lo, hi)) == primes_between_sieve(lo, hi), (
                lo, hi)


def test_prime_array_matches_oracle_around_base_prime_squares():
    # p^2 is the first multiple a base prime p clears; p itself must survive
    # when the interval holds it (lo = p - 1).
    for p in primes_upto_trial(120):
        sq = p * p
        for lo in (p - 1, sq - 2, sq - 1, sq, sq + 1):
            for hi in (sq - 1, sq, sq + 1, sq + 2, sq + 60):
                if 1 <= lo < hi:
                    got = primes_in_interval(PrimeInterval(lo, hi))
                    assert got == primes_between_sieve(lo, hi), (lo, hi)


def test_prime_array_matches_oracle_across_three_segments(monkeypatch):
    monkeypatch.setattr(arith, "_SEGMENT", 1000)
    rng = random.Random(1018)
    for lo in (1, 999, 1000, 1001, 7 * 7 * 41 - 3, 123_456):
        for width in (2_001, 2_999, 3_000, 3_001 + rng.randrange(500)):
            assert primes_in_interval(PrimeInterval(lo, lo + width)) == (
                primes_between_sieve(lo, lo + width)), (lo, width)


@pytest.mark.parametrize("segment", [1, 2, 3, 8, 13])
def test_prime_array_segments_starting_on_an_even_number_or_a_square(monkeypatch, segment):
    # Segment i holds the odd numbers from first + 2 i _SEGMENT on, first
    # the least odd number past lo. Put the start of segment 1, 2 or 3 on a
    # base prime's square p^2, with the interval starting on the odd first
    # (lo = first - 1) or on the even number before it (lo = first - 2).
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    for p in (3, 5, 7, 11, 13, 31):
        for i in (1, 2, 3):
            first = p * p - 2 * i * segment
            for lo in (first - 1, first - 2):
                for hi in (p * p, p * p + 1, p * p + 2 * segment, p * p + 97):
                    if 1 <= lo < hi:
                        got = primes_in_interval(PrimeInterval(lo, hi))
                        assert got == primes_between_sieve(lo, hi), (segment, p, lo, hi)


def test_prime_array_holds_its_primes_once_and_a_half(monkeypatch):
    # 64 segments (_SEGMENT counts odd flags, so each spans 2^14 integers):
    # their primes wait as uint32 offsets, half the size of the int64 result
    # they fill, beside one segment's flags and survivors.
    iv = PrimeInterval(1 << 22, (1 << 22) + (1 << 20))
    expected = prime_array(iv)  # one segment
    segment = 1 << 13
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    tracemalloc.start()
    try:
        arr = prime_array(iv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.dtype == np.int64 and np.array_equal(arr, expected)
    assert np.all(arr[1:] > arr[:-1])
    assert peak <= 1.5 * arr.nbytes + 16 * segment


def test_sieve_limit_raises_before_allocating():
    check_sieve(1, SIEVE_LIMIT + 1)  # exactly SIEVE_LIMIT integers pass
    tracemalloc.start()
    try:
        with pytest.raises(SieveTooLarge, match="2\\^27"):
            prime_array(PrimeInterval(1, SIEVE_LIMIT + 2))
        with pytest.raises(SieveTooLarge):
            primes_in_interval(PrimeInterval(1 << 40, (1 << 40) + (1 << 28)))
        # A narrow interval past 2^54 needs base primes past the limit.
        with pytest.raises(SieveTooLarge):
            primes_in_interval(PrimeInterval(1 << 70, (1 << 70) + 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


# The int64 recursion against the list one in tests/oracles.py. The sqrt5
# edge of block 10 (3.9e10) takes the oracle about 10 s, the sqrt2 one
# (368,112,615,683, pi = 14,385,554,229) about 32 s.
@pytest.mark.parametrize("c, ks", [
    pytest.param("sqrt5", range(1, 10), id="sqrt5-k1-9"),
    pytest.param("sqrt2", range(1, 10), id="sqrt2-k1-9"),
    pytest.param("sqrt5", (10,), id="sqrt5-k10", marks=pytest.mark.slow),
    pytest.param("sqrt2", (10,), id="sqrt2-k10", marks=pytest.mark.slow),
])
def test_prime_count_matches_lucy_oracle_at_block_edges(c, ks):
    params = sidon_params(c={"sqrt5": const_sqrt5, "sqrt2": const_sqrt2}[c]())
    for k in ks:
        n = params.upper_edge(k)
        assert prime_count(n) == prime_count_lucy(n), (c, k, n)


def test_prime_count_matches_lucy_oracle_at_random_n(seed=1019):
    rng = random.Random(seed)
    ns = [rng.randrange(1 << (bits - 1), 1 << bits)
          for bits in (rng.randrange(1, 26) for _ in range(200))]
    for n in ns:
        assert prime_count(n) == prime_count_lucy(n), n


def test_prime_count_refuses_past_int64():
    for n in (PRIME_COUNT_LIMIT, 1 << 70):
        with pytest.raises(SieveTooLarge, match="2\\^62"):
            prime_count(n)
    assert prime_count.cache_info().maxsize == 64


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
    for g in (1, 0, q):  # 1 generates nothing but 1, 0 and q nothing at all
        with pytest.raises(ValueError):
            discrete_log(g, 2, q)


# Group orders N(q) - 1 of each shape: over Z 2 x 1019 (2039, a safe
# prime), 2^16 (65537), 2^12 x 3 (12289), 2^4 x 3^3 (433) and
# 2 x 5 x 19 x 22,605,091 (4294967291); over GF(2)[X] the Mersenne primes
# 2^17 - 1 and 2^19 - 1 and the composite 2^12 - 1 = 3^2 x 5 x 7 x 13.
_PH_MODULI = ([(INTEGERS, q) for q in (2039, 65537, 12289, 433, 4294967291)]
              + [(GF2, least_irreducible(d)) for d in (17, 19, 12)])


@pytest.mark.parametrize("ring, q", _PH_MODULI,
                         ids=[f"{type(r).__name__}-{q:#x}" for r, q in _PH_MODULI])
def test_pohlig_hellman_matches_the_whole_group_bsgs_oracle(ring, q):
    order = ring.norm(q) - 1
    least = ring.generator(q)
    # A second generator: the least power of the least one coprime to the order.
    u = next(u for u in range(2, order) if all(u % r for r in factorize_trial(order)))
    rng = random.Random(q)
    for g in (least, ring.pow(least, u, q)):
        oracle = bsgs_logs(ring, g, q)
        for e in [0, 1, 2, order // 2, order - 1] + [rng.randrange(order) for _ in range(20)]:
            a = ring.pow(g, e, q)
            assert ring.dlog(g, a, q) == oracle(a) == e, (g, e)
        for zero in (0, q):
            with pytest.raises(DLogUndefined):
                ring.dlog(g, zero, q)


def test_pohlig_hellman_tables_keep_the_size_rule():
    # Each subgroup of prime order r gets 2 (isqrt(r - 1) + 1) baby steps;
    # in a group of prime order that is the whole group's baby_steps(q).
    plan = INTEGERS._dlog_plan(smallest_primitive_root(4294967291), 4294967291)
    assert plan[0] == 4294967290
    assert {(s.r, s.e): (s.m, s.cofactor) for s in plan[1]} == {
        (2, 1): (4, 2147483645), (5, 1): (6, 858993458), (19, 1): (10, 226050910),
        (22605091, 1): (9510, 190)}
    plan = INTEGERS._dlog_plan(5, 433)
    assert {(s.r, s.e): s.m for s in plan[1]} == {(2, 4): 4, (3, 3): 4}
    for d in (5, 7, 13, 17, 19):
        q = least_irreducible(d)
        order, (sub,) = GF2._dlog_plan(GF2.generator(q), q)
        assert (sub.r, sub.e, sub.cofactor) == (order, 1, 1)
        assert sub.m == len(sub.baby) == GF2.baby_steps(q), d


def test_dlog_refuses_a_non_generator_or_a_composite_modulus():
    # g and a are reduced mod q first. 433 - 1 = 2^4 x 3^3: 1, 0 and q
    # generate nothing, the square 25 and the cube 125 of the generator 5
    # miss the subgroups of order 2 and 3, and 432 = -1 has order 2.
    assert discrete_log(5, 2, 433) == discrete_log(5 + 433, 2 + 433, 433)
    for g in (1, 0, 433, 25, 125, 432):
        with pytest.raises(ValueError, match="does not generate"):
            discrete_log(g, 2, 433)
    # 2 has order 4 mod 15, not 14: a composite q has fewer units than q - 1.
    with pytest.raises(ValueError, match="does not generate"):
        discrete_log(2, 4, 15)
    # X^2 + 1 = (X + 1)^2 over GF(2): X has order 2, not 3.
    with pytest.raises(ValueError, match="does not generate"):
        GF2.dlog(2, 3, 0b101)


def test_a_modulus_is_factored_once():
    # The generator search, a generator test and the log plan of one
    # modulus share the cached factors of its order.
    q = 1_000_003
    factorize.cache_clear()
    g = smallest_primitive_root(q)
    assert is_primitive_root(g, q) and discrete_log(g, pow(g, 12345, q), q) == 12345
    assert INTEGERS.finite_sidon(q) == {discrete_log(g, p, q) for p in primes_upto(1000)}
    info = factorize.cache_info()
    assert (info.misses, info.maxsize) == (1, 256)


def test_bsgs_refuses_a_table_past_the_limit(monkeypatch):
    # The largest prime below 2^38 needs 2^20 baby steps, the least one
    # above it 2^20 + 2: that one refuses before any power is taken.
    assert arith.MAX_BABY_STEPS == 1 << 20
    below, above = 274_877_906_899, 274_877_906_951
    assert is_prime(below) and is_prime(above)
    assert not any(is_prime(n) for n in range(below + 1, above))
    assert 2 * (isqrt(below - 2) + 1) == 1 << 20
    assert 2 * (isqrt(above - 2) + 1) == (1 << 20) + 2
    g = smallest_primitive_root(above)
    tracemalloc.start()
    try:
        with pytest.raises(DLogTooLarge, match="1048578 baby steps"):
            discrete_log(g, 2, above)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    # Nor is q - 1 factored, for a generator or not.
    def untouched(*args):
        raise AssertionError("factored or took a power before the refusal")

    monkeypatch.setattr(arith, "factorize", untouched)
    for name in ("pow", "mul"):
        monkeypatch.setattr(arith.PrimeField, name, staticmethod(untouched))
    for base in (g, 2, 0):
        with pytest.raises(DLogTooLarge, match="1048578 baby steps"):
            discrete_log(base, 2, above)


def test_log_table_matches_bsgs_and_power_table():
    for q in (2, 3, 5, 11, 37, 101, 131, 1009, 2053):
        for g in {smallest_primitive_root(q),
                  max(g for g in range(1, q) if is_primitive_root(g, q))}:
            table = log_table(g, q)
            want = power_table(q, g)
            assert len(table) == q and table[0] == -1
            for a in range(1, q):
                assert table[a] == discrete_log(g, a, q) == want[a], (q, g, a)


# Nine moduli per ring. Over Z, orders 1 to 131,100: 65537 fills exactly one
# 2^16-exponent chunk, 65539 and 131101 spill into a second and a third.
# Over GF(2)[X], the least irreducible of each degree: degree 17 (order
# 131,071) takes two chunks.
_TABLE_MODULI = ([(INTEGERS, q) for q in (2, 3, 5, 11, 101, 2053, 65537, 65539, 131101)]
                 + [(GF2, least_irreducible(d)) for d in (1, 2, 3, 4, 5, 7, 11, 16, 17)])


@pytest.mark.parametrize("ring, q", _TABLE_MODULI,
                         ids=[f"{type(r).__name__}-{q:#x}" for r, q in _TABLE_MODULI])
def test_log_table_matches_the_loop_oracle(ring, q):
    g = ring.generator(q)
    table = ring.log_table(g, q)
    assert table.dtype == np.int32
    assert table.tolist() == log_table_loop(ring, g, q)


_X16 = least_irreducible(16)
_NON_GENERATORS = [
    # 4 is a square mod 11 (order 5), 1 and 0 generate nothing, 2 has order 3
    # mod 7, and 9 = 3^2 has order 2^15 mod 65537, past one chunk.
    (INTEGERS, 4, 11), (INTEGERS, 1, 11), (INTEGERS, 0, 11), (INTEGERS, 11, 11),
    (INTEGERS, 2, 7), (INTEGERS, 0, 2), (INTEGERS, 9, 65537),
    # X^3 has order 5 of 15 mod X^4 + X + 1; q itself is 0 mod q; the cube
    # of a generator mod a degree-16 q has order 21,845 of 65,535.
    (GF2, 0b1000, 0x13), (GF2, 0, 0x13), (GF2, 1, 0x13), (GF2, 0x13, 0x13),
    (GF2, GF2.pow(GF2.generator(_X16), 3, _X16), _X16),
]


def test_log_table_rejects_non_generators():
    for ring, g, q in _NON_GENERATORS:
        with pytest.raises(ValueError):
            ring.log_table(g, q)
        with pytest.raises(ValueError):
            log_table_loop(ring, g, q)


def test_lift_to_window_matches_scan(seed=916):
    rng = random.Random(seed)
    for q in (3, 5, 11, 37, 131):
        for h in (2, 3, 4):
            lo, hi = (h - 1) * q + 1, h * q - 1
            ds = [rng.randrange(q - 1) for _ in range(20)]
            for d in ds:
                x = lift_to_window(d, q, h)
                assert x == lift_naive(d, lo, hi, q - 1), (q, h, d)
                assert lo <= x <= hi and x % (q - 1) == d % (q - 1)
            # An int64 column, the empty one included, lifts digit by digit.
            for col in (ds, [0, q - 2], []):
                lifted = lift_to_window(np.array(col, dtype=np.int64), q, h)
                assert lifted.dtype == np.int64
                assert lifted.tolist() == [lift_to_window(d, q, h) for d in col], (q, h)


def test_lift_to_window_rejects_bad_args():
    with pytest.raises(ValueError):
        lift_to_window(0, 11, h=1)
    with pytest.raises(ValueError, match=re.escape("digit 10 outside [0, 9]")):
        lift_to_window(10, 11, 2)
    with pytest.raises(ValueError, match=re.escape("digit -1 outside [0, 9]")):
        lift_to_window(-1, 11, 2)
    # A column names its first bad digit: a log table's -1, or one past q - 2.
    for col, bad in (([3, -1, 12], -1), ([3, 12, -1], 12)):
        with pytest.raises(ValueError, match=re.escape(f"digit {bad} outside [0, 9]")):
            lift_to_window(np.array(col, dtype=np.int64), 11, 2)
    with pytest.raises(ValueError):
        lift_to_window(np.array([], dtype=np.int64), 11, 1)
