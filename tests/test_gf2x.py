import random
import tracemalloc
from collections import Counter
from math import isqrt

import pytest

from dlogsidon import gf2x
from dlogsidon.basis import Basis
from dlogsidon.blocks import const_sqrt2, const_sqrt5, const_window, sidon_params
from dlogsidon.errors import DegreeTooLarge, DLogTooLarge, DLogUndefined, NotIrreducible
from dlogsidon.generator import SequencePrefix
from dlogsidon.gf2x import (
    GF2,
    block_of_degree,
    degrees_in_block,
    gf2_deg,
    gf2_discrete_log,
    gf2_finite_sidon,
    gf2_gcd,
    gf2_generate_blocks,
    gf2_generator,
    gf2_mod,
    gf2_mul,
    gf2_mulmod,
    gf2_powmod,
    irreducible_count,
    is_irreducible,
    irreducibles_of_degree,
    least_irreducible,
)

from oracles import (
    cyclic_sidon,
    gf2_divmod,
    gf2_irreducible_naive,
    gf2_irreducibles_naive,
    gf2_irreducibles_rabin,
    gf2_mod_naive,
    gf2_mul_naive,
    gf2_power_table,
    is_sidon_list,
    mobius_naive,
    per_irreducible_blocks,
)


def test_degree_convention():
    assert gf2_deg(0) == -1
    assert gf2_deg(1) == 0
    assert gf2_deg(0b1011) == 3


def test_mul_matches_oracle_and_ring_laws():
    rng = random.Random(31337)
    for _ in range(200):
        a = rng.randrange(1 << 24)
        b = rng.randrange(1 << 24)
        c = rng.randrange(1 << 12)
        assert gf2_mul(a, b) == gf2_mul_naive(a, b)
        assert gf2_mul(a, b) == gf2_mul(b, a)
        assert gf2_mul(a, b ^ c) == gf2_mul(a, b) ^ gf2_mul(a, c)
    assert gf2_mul(0b1011, 2) == 0b10110  # times X is a shift


def test_divmod_and_mod():
    rng = random.Random(1009)
    for _ in range(200):
        a = rng.randrange(1 << 30)
        b = rng.randrange(1, 1 << 14)
        quo, rem = gf2_divmod(a, b)
        assert gf2_mul(quo, b) ^ rem == a
        assert gf2_deg(rem) < gf2_deg(b) or rem == 0
        assert rem == gf2_mod_naive(a, b) == gf2_mod(a, b)
    with pytest.raises(ZeroDivisionError):
        gf2_mod(5, 0)


def test_gcd():
    assert gf2_gcd(0b1011, 0b1011) == 0b1011
    assert gf2_gcd(0b1011, 0b111) == 1  # distinct irreducibles
    assert gf2_gcd(0b1100, 0) == 0b1100
    rng = random.Random(55)
    for _ in range(100):
        a = rng.randrange(1, 1 << 10)
        b = rng.randrange(1, 1 << 10)
        m = rng.randrange(1, 1 << 6)
        g = gf2_gcd(a, b)
        assert gf2_mod(a, g) == 0 and gf2_mod(b, g) == 0
        # GF(2)[X] has trivial units, so gcd scales exactly
        assert gf2_gcd(gf2_mul(a, m), gf2_mul(b, m)) == gf2_mul(g, m)


def test_powmod_and_tower():
    rng = random.Random(4242)
    for _ in range(60):
        a = rng.randrange(1 << 10)
        m = rng.randrange(2, 1 << 10)
        e = rng.randrange(0, 40)
        acc = gf2_mod(1, m)
        base = gf2_mod(a, m)
        for _ in range(e):
            acc = gf2_mulmod(acc, base, m)
        assert gf2_powmod(a, e, m) == acc
    assert gf2_powmod(7, 0, 0b1011) == 1


def test_irreducibility_matches_trial_division():
    assert not is_irreducible(0)
    assert not is_irreducible(1)
    for f in range(2, 1 << 11):
        assert is_irreducible(f) == gf2_irreducible_naive(f), f"disagree at {f:#x}"


def test_irreducible_enumeration_and_counts():
    assert [irreducible_count(d) for d in range(1, 13)] == [
        2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    for d in range(1, 25):
        total = sum(mobius_naive(e) * (1 << (d // e))
                    for e in range(1, d + 1) if d % e == 0)
        assert irreducible_count(d) == total // d
    firsts = {d: irreducibles_of_degree(d)[0] for d in (1, 2, 3, 4, 5, 6, 7)}
    assert firsts == {1: 0x2, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83}
    assert irreducibles_of_degree(1) == (2, 3)
    assert irreducibles_of_degree(2) == (7,)
    for d in (3, 5, 8):
        polys = irreducibles_of_degree(d)
        assert list(polys) == sorted(polys)
        assert len(polys) == irreducible_count(d)
    with pytest.raises(ValueError):
        irreducibles_of_degree(0)
    with pytest.raises(DegreeTooLarge):
        irreducibles_of_degree(25)


def test_sieve_matches_rabin_and_trial_division(monkeypatch):
    rabin = {d: gf2_irreducibles_rabin(d) for d in range(1, 13)}
    for d in range(1, 13):
        found = irreducibles_of_degree(d)
        assert type(found) is tuple and all(type(f) is int for f in found)
        assert list(found) == rabin[d], d
        if d <= 8:
            assert list(found) == gf2_irreducibles_naive(d), d
    # Cofactors a few at a time, so that every degree from 4 on runs the
    # chunked passes; the cache is cleared on both sides of the patch.
    monkeypatch.setattr(gf2x, "_COFACTORS", 5)
    irreducibles_of_degree.cache_clear()
    try:
        for d in range(1, 13):
            assert list(irreducibles_of_degree(d)) == rabin[d], d
    finally:
        irreducibles_of_degree.cache_clear()


def sampled_agreement(degrees, per_degree, seed):
    rng = random.Random(seed)
    for d in degrees:
        found = set(irreducibles_of_degree(d))
        for f in (rng.randrange(1 << d, 1 << (d + 1)) for _ in range(per_degree)):
            assert (f in found) == is_irreducible(f), hex(f)


def test_sieve_agrees_with_rabin_on_sampled_polynomials():
    sampled_agreement(range(17, 21), 200, 20261019)


@pytest.mark.slow
def test_sieve_matches_rabin_at_degrees_13_to_16():
    for d in range(13, 17):
        assert list(irreducibles_of_degree(d)) == gf2_irreducibles_rabin(d), d


@pytest.mark.slow
def test_sieve_at_degrees_21_to_24():
    sampled_agreement(range(21, 25), 200, 20261020)
    # Degree 24 from a cold cache, lower degrees and the result tuple included.
    irreducibles_of_degree.cache_clear()
    tracemalloc.start()
    try:
        found = irreducibles_of_degree(24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == irreducible_count(24) == 698_870
    assert peak < 48 << 20


def test_least_irreducible_is_first_of_its_degree():
    for d in range(1, 17):
        assert least_irreducible(d) == irreducibles_of_degree(d)[0], d
    with pytest.raises(ValueError):
        least_irreducible(0)
    with pytest.raises(DegreeTooLarge):
        least_irreducible(25)


def test_generator_is_least_of_full_order():
    assert gf2_generator(0x2) == 1  # one-element unit group
    for q, expected in [(0xb, 2), (0x13, 2), (0x25, 2), (0x83, 2)]:
        g = gf2_generator(q)
        assert g == expected
        order = (1 << gf2_deg(q)) - 1
        assert len(gf2_power_table(q, g)) == order
        for a in range(1, g):
            assert len(gf2_power_table(q, a)) < order
    with pytest.raises(NotIrreducible):
        gf2_generator(0b1001)  # (X+1)(X^2+X+1)


def test_discrete_log_against_power_tables():
    for q in (0xb, 0x13, 0x25):
        g = gf2_generator(q)
        for a, e in gf2_power_table(q, g).items():
            assert gf2_discrete_log(g, a, q) == e
    # roundtrip at degree 7
    q, g = 0x83, gf2_generator(0x83)
    e = gf2_discrete_log(g, 0x37, q)
    assert gf2_powmod(g, e, q) == 0x37
    with pytest.raises(DLogUndefined):
        gf2_discrete_log(g, 0, q)
    with pytest.raises(DLogUndefined):
        gf2_discrete_log(g, gf2_mul(q, 0b101), q)
    for g in (1, 0, 0x13):  # 1 generates nothing but 1, 0 and q nothing at all
        with pytest.raises(ValueError):
            gf2_discrete_log(g, 2, 0x13)


def test_finite_sidon_sets():
    assert sorted(gf2_finite_sidon(7)) == [1, 7, 31, 56, 90]
    assert sorted(gf2_finite_sidon(6)) == [1, 6, 26]
    for n in (6, 7, 9):
        vals = sorted(gf2_finite_sidon(n))
        assert len(vals) == sum(irreducible_count(d) for d in range(1, (n + 1) // 2))
        assert cyclic_sidon(vals, (1 << n) - 1)
    with pytest.raises(ValueError):
        gf2_finite_sidon(2)
    with pytest.raises(ValueError):
        gf2_finite_sidon(7, q=0x13)  # degree mismatch
    with pytest.raises(NotIrreducible):
        gf2_finite_sidon(4, q=0x15)  # (X^2+X+1)^2


def test_dlog_refuses_a_table_past_the_limit():
    # Degree 38 needs 2^20 baby steps; the irreducible X^39 + X^4 + 1 needs
    # 1,482,912 and refuses before any power is taken.
    assert 2 * (isqrt((1 << 38) - 2) + 1) == 1 << 20
    q = (1 << 39) | (1 << 4) | 1
    assert is_irreducible(q)
    tracemalloc.start()
    try:
        with pytest.raises(DLogTooLarge, match="1482912 baby steps"):
            GF2.dlog(2, 3, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_log_table_against_bsgs_and_power_tables():
    basis = Basis(4, ring=GF2)
    for j in range(1, 7):
        q, g = basis.entry(j)
        table = GF2.log_table(g, q)
        powers = gf2_power_table(q, g)
        assert len(table) == basis.norm(j) == 1 << gf2_deg(q) and table[0] == -1
        assert len(powers) == basis.norm(j) - 1
        for r in range(1, basis.norm(j)):
            assert table[r] == gf2_discrete_log(g, r, q) == powers[r], (j, r)
    with pytest.raises(ValueError):
        GF2.log_table(0b1000, 0x13)  # X^3 has order 5 of 15 mod X^4 + X + 1


def test_basis_entries_and_weights():
    basis = Basis(4, ring=GF2)
    assert [basis.entry(j) for j in (1, 2, 3, 4)] == [
        (0x2, 1), (0xb, 2), (0x25, 2), (0x83, 2)]
    assert len(basis) == 4
    assert [basis.norm(j) for j in (1, 2, 3, 4)] == [2, 8, 32, 128]
    assert [basis.weight(j) for j in (1, 2, 3, 4)] == [1, 8, 256, 32768]
    with pytest.raises(ValueError):
        basis.entry(0)
    with pytest.raises(ValueError):
        basis.norm(0)
    with pytest.raises(ValueError):
        Basis(4, ring=GF2, mode="random", seed=1)  # the window pools are integer primes


def test_block_partition_of_degrees():
    params = sidon_params(offset=0)
    assert {k: list(degrees_in_block(k, params)) for k in (2, 3, 4, 5)} == {
        2: [1], 3: [2, 3], 4: [4, 5, 6], 5: [7, 8, 9]}
    assert {d: block_of_degree(d, params) for d in (1, 2, 3, 4, 6, 7, 10)} == {
        1: 2, 2: 3, 3: 3, 4: 4, 6: 4, 7: 5, 10: 6}
    with pytest.raises(ValueError):
        block_of_degree(0, params)
    with pytest.raises(ValueError):
        degrees_in_block(1, params)


@pytest.mark.parametrize("c", [const_sqrt5, const_sqrt2, lambda: const_window(3)],
                         ids=["sqrt5", "sqrt2", "bh:3"])
@pytest.mark.parametrize("offset", [0, -3])
def test_degrees_in_block_match_block_of_degree(c, offset):
    # The listing's degrees come from the integer edges 2^d; block_of_degree
    # decides each degree on its own by cmp_log2.
    params = sidon_params(c=c(), offset=offset)
    blocks = {d: block_of_degree(d, params) for d in range(1, 25)}
    for k in range(params.k_min, blocks[24] + 1):
        want = {d for d, kd in blocks.items() if kd == k}
        assert {d for d in degrees_in_block(k, params) if d <= 24} == want, k


def test_irreducibles_below_match_rabin():
    # The irreducibles of degree d with N(p)^2 < N(q), that is 2d < deg q.
    for n in range(3, 18):
        want = [f for d in range(1, n) if 2 * d < n for f in gf2_irreducibles_rabin(d)]
        assert GF2.irreducibles_below(least_irreducible(n)) == want, n


def test_generated_prefix():
    params = sidon_params(offset=0)
    prefix = gf2_generate_blocks(4, params)
    assert isinstance(prefix, SequencePrefix) and prefix.basis.ring is GF2
    assert len(prefix.basis) == 4
    assert len(prefix.elements) == 20
    assert prefix.block_sizes == {2: 2, 3: 3, 4: 18}
    assert [(r.p, r.k, r.basis_index) for r in prefix.excluded] == [
        (0x2, 2, 1), (0xb, 3, 2), (0x25, 4, 3)]

    e3 = next(e for e in prefix.elements if e.p == 3)
    assert e3.k == 2 and e3.digits == (3, 10) and e3.value == 83
    assert prefix.values()[:4] == [83, 10075, 10851, 4602971]

    for e in prefix.elements:
        assert e.value == sum(x << (j * j - 1) for j, x in enumerate(e.digits, 1))
        for j, x in enumerate(e.digits, start=1):
            assert (1 << (2 * j - 1)) + 1 <= x <= (1 << (2 * j)) - 1
    assert is_sidon_list(prefix.values())

    with pytest.raises(ValueError):
        gf2_generate_blocks(1, params)


def test_generation_past_the_degree_bound_fails_before_listing(monkeypatch):
    # Block 9 holds degrees 25..30, past the bound of 24; blocks 2..8 would
    # sieve every degree up to 24 before block 9 is reached.
    def refuse(d):
        raise AssertionError(f"degree {d} listed before the bound was checked")

    monkeypatch.setattr(gf2x, "irreducibles_of_degree", refuse)
    for k_max in (9, 13):
        with pytest.raises(DegreeTooLarge):
            gf2_generate_blocks(k_max, sidon_params(offset=0))


def test_prefix_k6_tables_agree_with_bsgs(monkeypatch):
    # The shared generator reads most GF(2) digits off log tables, a column
    # at a time; rebuilding every element one irreducible at a time with BSGS
    # alone (no tables) must give the same elements and exclusions, in the
    # same order. A k <= 5 prefix builds its tables at other blocks.
    params = sidon_params(offset=0)
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gf2x.Gf2Ring, "dlog", counted(gf2x.Gf2Ring.dlog))
    monkeypatch.setattr(gf2x.Gf2Ring, "log_table", counted(gf2x.Gf2Ring.log_table))
    prefix = gf2_generate_blocks(6, params)
    # Both sides of the table/BSGS size rule ran.
    assert calls["dlog"] > 0 and calls["log_table"] > 0, calls
    monkeypatch.undo()

    assert len(prefix.elements) == 1371
    top = max(degrees_in_block(6, params))
    assert (len(prefix.elements) + len(prefix.excluded)
            == sum(prefix.block_sizes.values())
            == sum(irreducible_count(d) for d in range(1, top + 1)))
    for e in prefix.elements:
        assert e.k == block_of_degree(gf2_deg(e.p), params)
    for r in prefix.excluded:
        assert r.p == prefix.basis.q(r.basis_index)
    for k_max, gen in ((6, prefix), (5, gf2_generate_blocks(5, params))):
        elements, exclusions = per_irreducible_blocks(k_max, params, gen.basis)
        assert gen.elements == elements, k_max
        assert [(r.p, r.k, r.basis_index) for r in gen.excluded] == exclusions, k_max
