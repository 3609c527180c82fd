import re
import time
import tracemalloc
from collections import Counter

import pytest

from dlogsidon import auditor, generator
from dlogsidon.arith import INTEGERS, PrimeField, primes_upto, smallest_primitive_root
from dlogsidon.auditor import is_sidon
from dlogsidon.basis import build_basis
from dlogsidon.bh import bh_params
from dlogsidon.blocks import (block_edges, block_of_prime, const_decimal, const_sqrt2,
                              const_sqrt5, primes_in_block, sidon_params)
from dlogsidon.encoder import element_for_prime
from dlogsidon.errors import (BasisGap, DLogTooLarge, DLogUndefined, ExcludedPrime, InvalidModulus,
                              PrefixTooShort, SieveTooLarge)
from dlogsidon.generator import (
    count_upto,
    expected_finite_size,
    finite_dlog_sidon_set,
    generate_blocks,
)
from dlogsidon.gf2x import GF2

from oracles import block_walk, is_sidon_list, per_irreducible_blocks, power_table, primes_upto_trial


def test_prefix_shape_sqrt5_k7(sqrt5_prefix_k7):
    prefix = sqrt5_prefix_k7
    assert prefix.params.k_min == 2 and prefix.k_max == 7 and prefix.basis.h == 2
    assert len(prefix.elements) == 5477
    assert len(prefix.excluded) == 7
    assert prefix.block_sizes == {2: 0, 3: 0, 4: 4, 5: 20, 6: 245, 7: 5215}


def test_prefix_shape_sqrt2_k7(sqrt2_prefix_k7):
    prefix = sqrt2_prefix_k7
    assert len(prefix.elements) == 14759
    assert len(prefix.excluded) == 7
    assert prefix.block_sizes == {2: 0, 3: 0, 4: 5, 5: 33, 6: 496, 7: 14232}


def test_excluded_are_exactly_basis_primes_in_range(sqrt5_prefix_k7, default_basis):
    got = {(r.p, r.k, r.basis_index) for r in sqrt5_prefix_k7.excluded}
    # q_j excluded whenever q_j lies in a generated block with index >= j.
    want = set()
    for j in range(1, 8):
        q = default_basis.q(j)
        for k in range(2, 8):
            if q in primes_in_block(k, sqrt5_prefix_k7.params) and j <= k:
                want.add((q, k, j))
    assert got == want
    assert len(got) == 7


def test_elements_sorted_and_blockwise_consistent(sqrt5_prefix_k7, default_basis):
    prefix = sqrt5_prefix_k7
    vals = prefix.values()
    assert vals == sorted(vals)
    for e in prefix.elements[:50] + prefix.elements[-50:]:
        rebuilt = element_for_prime(e.p, default_basis, prefix.params)
        assert rebuilt.value == e.value and rebuilt.k == e.k


@pytest.mark.slow
def test_prefix_sqrt5_k8(default_basis, sqrt5_params, monkeypatch):
    # The north-star result: the k <= 8 prefix is exactly Sidon.
    prefix = generate_blocks(8, sqrt5_params, default_basis)
    assert len(prefix.elements) == 207214
    for k in range(prefix.params.k_min, 9):
        excl = sum(1 for r in prefix.excluded if r.k == k)
        assert len(prefix.block_elements(k)) == prefix.block_sizes[k] - excl, k
    for e in prefix.elements:
        assert default_basis.weight(e.k) * default_basis.q(e.k) < e.value < default_basis.weight(e.k + 1)
    # The audit counts its buckets once per prime it tries; these classes are
    # even enough that it keeps the prime the subset count picks.
    primes = []
    bucket_sizes = auditor._bucket_sizes
    monkeypatch.setattr(auditor, "_bucket_sizes", lambda counts, l: (
        primes.append(len(counts)) or bucket_sizes(counts, l)))
    assert is_sidon(prefix.values())
    assert primes == [5_119]


def test_element_count_matches_block_sizes(sqrt5_prefix_k7):
    prefix = sqrt5_prefix_k7
    per_block = {k: len(prefix.block_elements(k)) for k in range(2, 8)}
    for k in range(2, 8):
        excl = sum(1 for r in prefix.excluded if r.k == k)
        assert per_block[k] + excl == prefix.block_sizes[k], k


def _law(name):
    """(block params, h, k_max) of a law. The B_3 law has two primes through
    block 6, so it runs to block 11, where its blocks hold 181 primes."""
    if name == "bh3":
        return bh_params(3), 3, 11
    c = {"sqrt5": const_sqrt5, "sqrt2": const_sqrt2}[name]()
    return sidon_params(c=c), 2, 6


@pytest.mark.parametrize("law", ["sqrt5", "sqrt2", "bh3"])
@pytest.mark.parametrize("seed", [None, 1207])
def test_generation_matches_per_prime_oracle(law, seed, monkeypatch):
    # Blocks from integer edges and digits from log tables must agree with
    # block_walk, which places each prime by logarithms, and with the
    # one-prime API, on every prime in range.
    params, h, k_max = _law(law)
    basis = build_basis(h * h, k_max, seed=seed)
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    # The integer ring's BSGS and log-table routes.
    monkeypatch.setattr(PrimeField, "dlog", counted(PrimeField.dlog))
    monkeypatch.setattr(PrimeField, "log_table", counted(PrimeField.log_table))
    prefix = generate_blocks(k_max, params, basis)
    # Both sides of the table/BSGS size rule ran.
    assert calls["dlog"] > 0 and calls["log_table"] > 0, calls
    monkeypatch.undo()

    elements = {e.p: e for e in prefix.elements}
    excluded = {r.p: r for r in prefix.excluded}
    primes = primes_upto(params.upper_edge(k_max))
    assert len(primes) == len(elements) + len(excluded) == sum(prefix.block_sizes.values())
    for p in primes:
        k = block_walk(p, params)
        assert block_of_prime(p, params) == k, p
        if p in excluded:
            r = excluded[p]
            assert r.k == k
            with pytest.raises(ExcludedPrime) as ei:
                element_for_prime(p, basis, params)
            assert (ei.value.k, ei.value.index) == (r.k, r.basis_index)
        else:
            assert elements[p] == element_for_prime(p, basis, params), p
            assert elements[p].k == k


# Random bases over the three Z laws. Each of these seeds puts two or three
# basis primes in sqrt5 and sqrt2 block 5 (seed 6 also two in B_3 block 9);
# the B_3 blocks are small enough that most of their columns get logs by
# BSGS alone.
@pytest.mark.parametrize("law, seed", [(law, seed) for law in ("sqrt5", "sqrt2", "bh3")
                                       for seed in (1, 5, 6)])
def test_column_generation_matches_per_irreducible_walk(law, seed, monkeypatch):
    params, h, _ = _law(law)
    k_max = 9 if law == "bh3" else 5
    basis = build_basis(h * h, k_max, seed=seed)
    tables = []
    log_table = PrimeField.log_table
    monkeypatch.setattr(PrimeField, "log_table",
                        lambda self, g, q: tables.append(q) or log_table(self, g, q))
    prefix = generate_blocks(k_max, params, basis)
    monkeypatch.undo()
    if law == "bh3":
        assert 0 < len(tables) < k_max  # the other columns are BSGS-only
    else:
        assert len(tables) >= 3

    elements, exclusions = per_irreducible_blocks(k_max, params, basis)
    # Blocks cut into runs of 5 irreducibles give the same prefix.
    monkeypatch.setattr(generator, "_ROWS", 5)
    for gen in (prefix, generate_blocks(k_max, params, basis)):
        assert gen.elements == elements
        assert [(r.p, r.k, r.basis_index) for r in gen.excluded] == exclusions


def test_exclusions_follow_the_block_order_not_the_basis_order(fake_basis, sqrt5_params):
    # q_1 = 43 and q_2 = 23 both lie in block 5: the per-irreducible walk
    # meets 23 first, so its exclusion comes first although its index is 2.
    basis = fake_basis([43, 23, 97, 101, 103], 4)
    prefix = generate_blocks(5, sqrt5_params, basis)
    elements, exclusions = per_irreducible_blocks(5, sqrt5_params, basis)
    assert exclusions == [(23, 5, 2), (43, 5, 1)]
    assert [(r.p, r.k, r.basis_index) for r in prefix.excluded] == exclusions
    assert prefix.elements == elements


# 1155 = 385 q_1 = 3 * 5 * 7 * 11: column 1 has a log table from block 4 on.
# 5 q_11 is divisible by no other q_j, and B_3 block 11 (130 primes, fewer
# than isqrt(q_11) = 1448) serves column 11 by BSGS.
@pytest.mark.parametrize("law, k, j, cofactor, error, message", [
    ("sqrt5", 6, 1, 385, ValueError, "digit -1 outside [0, 1]"),
    ("bh3", 11, 11, 5, DLogUndefined, "0 has no discrete log mod 2097169"),
])
def test_a_composite_in_a_block_listing_raises(law, k, j, cofactor, error, message,
                                              monkeypatch):
    params, h, _ = _law(law)
    basis = build_basis(h * h, k)
    composite = cofactor * basis.q(j)
    listing = PrimeField.irreducibles

    def with_composite(lo, hi):
        ps = listing(lo, hi)
        return sorted(ps + [composite]) if (lo, hi) == block_edges(k, params) else ps

    monkeypatch.setattr(PrimeField, "irreducibles", staticmethod(with_composite))
    with pytest.raises(error, match=re.escape(message)):
        generate_blocks(k, params, basis)


def test_generate_rejects_k_max_below_first_block(default_basis, sqrt5_params):
    with pytest.raises(ValueError, match="block index 1 below k_min = 2"):
        generate_blocks(1, sqrt5_params, default_basis)


def test_count_upto_walks_the_sorted_values(sqrt5_prefix_k7):
    prefix = sqrt5_prefix_k7
    vals = prefix.values()
    assert count_upto(-1, prefix) == 0
    assert count_upto(0, prefix) == 0
    assert count_upto(vals[0], prefix) == 1
    assert count_upto(vals[0] - 1, prefix) == 0
    assert count_upto(vals[-1], prefix) == len(vals)
    assert count_upto(prefix.covered_bound(), prefix) == len(vals)
    with pytest.raises(PrefixTooShort):
        count_upto(prefix.covered_bound() + 1, prefix)


def test_covered_bound_is_next_weight(sqrt5_prefix_k7, default_basis):
    assert sqrt5_prefix_k7.covered_bound() == default_basis.weight(8)


def test_summaries_shape(sqrt5_prefix_k7):
    rows = sqrt5_prefix_k7.summaries()
    assert [r["k"] for r in rows] == [2, 3, 4, 5, 6, 7]
    r4 = rows[2]
    assert r4["block_size"] == 4 and r4["excluded"] == 1
    assert r4["min_value"] is not None


def test_small_prefix_is_sidon(fake_basis):
    # Non-dyadic toy basis; the digit map still yields a Sidon set when the
    # windows stay disjoint enough, checked by the quadratic oracle.
    params = sidon_params(c=const_decimal("0.38"), offset=1)
    prefix = generate_blocks(3, params, fake_basis((5, 7, 11), 4))
    vals = prefix.values()
    assert len(vals) >= 3
    assert is_sidon_list(vals)


def test_short_basis_fails_before_any_block_is_listed(monkeypatch, fake_basis):
    def refuse(ring, lo, hi):
        raise AssertionError(f"block ({lo}, {hi}] listed before the basis was checked")

    monkeypatch.setattr(PrimeField, "irreducibles", refuse)
    with pytest.raises(BasisGap):
        generate_blocks(5, sidon_params(), fake_basis((3, 11, 37), 4))


# Block 9 is the first too wide for both constants. The edges of the blocks
# after it, thousands of digits long at k = 200, are never worked out.
@pytest.mark.parametrize("c, k_max", [(const_sqrt5, 9), (const_sqrt5, 10), (const_sqrt2, 9),
                                      (const_sqrt5, 200), (const_sqrt5, 3000)])
def test_block_past_the_sieve_limit_fails_before_any_block_is_listed(monkeypatch, c, k_max):
    def refuse(ring, lo, hi):
        raise AssertionError(f"block ({lo}, {hi}] listed before the sieve limit was checked")

    monkeypatch.setattr(PrimeField, "irreducibles", refuse)
    basis = build_basis(4, 2)
    block9 = block_edges(9, sidon_params(c=c()))
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(SieveTooLarge, match=re.escape(f"sieving ({block9[0]}, {block9[1]}]")):
            generate_blocks(k_max, sidon_params(c=c()), basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20
    assert len(basis) == 2  # nor was the basis extended


def test_finite_set_q101_matches_table():
    # primes <= 10 are 2, 3, 5, 7; dlogs base 2 mod 101.
    table = power_table(101, 2)
    want = {table[p] for p in (2, 3, 5, 7)}
    got = finite_dlog_sidon_set(101)
    assert got == want == {1, 9, 24, 69}
    assert expected_finite_size(101) == 4 == len(got)


def test_finite_set_is_sidon_in_cyclic_group():
    for q in (101, 211, 1009):
        residues = sorted(finite_dlog_sidon_set(q))
        n = q - 1
        sums = {}
        ok = True
        for i in range(len(residues)):
            for j in range(i, len(residues)):
                s = (residues[i] + residues[j]) % n
                pair = {residues[i], residues[j]}
                if s in sums and sums[s] != pair:
                    ok = False
                sums[s] = pair
        assert ok, q
        assert len(residues) == expected_finite_size(q)


def test_finite_set_respects_supplied_generator():
    g = smallest_primitive_root(101)
    assert finite_dlog_sidon_set(101, g) == finite_dlog_sidon_set(101)


@pytest.mark.parametrize("ring, q, g", [
    (INTEGERS, 23, 2),  # order 11 of 22: it would give {1, 8}
    (INTEGERS, 7, 2),   # order 3 of 6: it would give {4}
    (GF2, 0x13, 0x8),   # X^3 has order 5 of 15 mod X^4 + X + 1
], ids=["Z-23-2", "Z-7-2", "GF2-X4+X+1-X3"])
def test_finite_set_refuses_a_non_generator(ring, q, g):
    assert not ring.is_generator(g, q)
    with pytest.raises(ValueError, match="does not generate"):
        ring.finite_sidon(q, g)
    assert ring.finite_sidon(q) == ring.finite_sidon(q, ring.generator(q))


def test_finite_set_tests_its_modulus_once(monkeypatch):
    calls = []
    check = PrimeField.check_modulus
    monkeypatch.setattr(PrimeField, "check_modulus",
                        staticmethod(lambda q: calls.append(q) or check(q)))
    for g in (None, 2):
        calls.clear()
        assert finite_dlog_sidon_set(101, g) == {1, 9, 24, 69}
        assert calls == [101], g
        for q in (100, 1, 0):  # below the baby-step check's norm 2 too
            with pytest.raises(InvalidModulus):
                finite_dlog_sidon_set(q, g)


@pytest.mark.parametrize("q", [72057594037930967, 1180591620717411303659])
def test_finite_set_past_the_baby_step_limit_refuses_before_factoring(q):
    # Safe primes above 2^56 and 2^70: q - 1 = 2r with r prime, which trial
    # division in the generator search or test would take seconds to hours
    # to factor. The baby-step limit refuses first.
    start = time.perf_counter()
    for g in (None, 2):
        with pytest.raises(DLogTooLarge, match="baby steps"):
            finite_dlog_sidon_set(q, g)
    assert time.perf_counter() - start < 1
