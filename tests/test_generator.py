from collections import Counter

import pytest

from dlogsidon import encoder, generator
from dlogsidon.arith import primes_upto, smallest_primitive_root
from dlogsidon.basis import build_basis
from dlogsidon.bh import bh_params
from dlogsidon.blocks import (block_of_prime, const_decimal, const_sqrt2, const_sqrt5,
                              primes_in_block, sidon_params)
from dlogsidon.encoder import element_for_prime
from dlogsidon.errors import ExcludedPrime, PrefixTooShort
from dlogsidon.generator import (
    count_upto,
    expected_finite_size,
    finite_dlog_sidon_set,
    generate_blocks,
)

from oracles import is_sidon_list, power_table, primes_upto_trial


def test_prefix_shape_sqrt5_k7(sqrt5_prefix_k7):
    prefix = sqrt5_prefix_k7
    assert prefix.k_min == 2 and prefix.k_max == 7 and prefix.h == 2
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
def test_prefix_sqrt5_k8(default_basis, sqrt5_params):
    # The prefix an exact k <= 8 Sidon audit would take as input.
    prefix = generate_blocks(8, sqrt5_params, default_basis)
    assert len(prefix.elements) == 207214
    for k in range(prefix.k_min, 9):
        excl = sum(1 for r in prefix.excluded if r.k == k)
        assert len(prefix.block_elements(k)) == prefix.block_sizes[k] - excl, k
    for e in prefix.elements:
        assert default_basis.weight(e.k) * default_basis.q(e.k) < e.value < default_basis.weight(e.k + 1)


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
        return bh_params(3).block, 3, 11
    c = {"sqrt5": const_sqrt5, "sqrt2": const_sqrt2}[name]()
    return sidon_params(c=c), 2, 6


@pytest.mark.parametrize("law", ["sqrt5", "sqrt2", "bh3"])
@pytest.mark.parametrize("seed", [None, 1207])
def test_generation_matches_per_prime_oracle(law, seed, monkeypatch):
    # Blocks from integer edges and digits from log tables must agree with
    # block_of_prime and BSGS, the per-prime route, on every prime in range.
    params, h, k_max = _law(law)
    basis = build_basis("deterministic" if seed is None else "random", h * h, k_max, seed=seed)
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(encoder, "discrete_log", counted(encoder.discrete_log))
    monkeypatch.setattr(generator, "log_table", counted(generator.log_table))
    prefix = generate_blocks(k_max, params, basis, h)
    # Both sides of the table/BSGS size rule ran.
    assert calls["discrete_log"] > 0 and calls["log_table"] > 0, calls
    monkeypatch.undo()

    elements = {e.p: e for e in prefix.elements}
    excluded = {r.p: r for r in prefix.excluded}
    primes = primes_upto(params.upper_edge(k_max))
    assert len(primes) == len(elements) + len(excluded) == sum(prefix.block_sizes.values())
    for p in primes:
        k = block_of_prime(p, params)
        if p in excluded:
            r = excluded[p]
            assert r.k == k
            with pytest.raises(ExcludedPrime) as ei:
                element_for_prime(p, basis, params, h)
            assert (ei.value.k, ei.value.index) == (r.k, r.basis_index)
        else:
            assert elements[p] == element_for_prime(p, basis, params, h), p
            assert elements[p].k == k


def test_generate_rejects_scale_h_mismatch(default_basis, sqrt5_params):
    with pytest.raises(ValueError):
        generate_blocks(4, sqrt5_params, default_basis, h=3)
    with pytest.raises(ValueError):
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
    params = sidon_params(c=const_decimal("0.38"), offset=1, k_min=2)
    prefix = generate_blocks(3, params, fake_basis((5, 7, 11), 4))
    vals = prefix.values()
    assert len(vals) >= 3
    assert is_sidon_list(vals)


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
