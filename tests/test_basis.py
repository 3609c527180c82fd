import random
import time
import tracemalloc

import pytest

from dlogsidon import basis
from dlogsidon.arith import is_primitive_root
from dlogsidon.basis import MAX_INDEX, Basis, build_basis, dyadic_interval
from dlogsidon.errors import BasisGap, SieveTooLarge

from oracles import (factorize_trial, is_prime_trial, primes_between_sieve, primes_upto_trial,
                     primitive_root_naive)


def test_dyadic_interval_edges():
    assert dyadic_interval(1).lo == 2 and dyadic_interval(1).hi == 8
    assert dyadic_interval(3).lo == 32 and dyadic_interval(3).hi == 128
    with pytest.raises(ValueError):
        dyadic_interval(0)


def test_deterministic_entries_are_least_primes(default_basis):
    # Least prime of each pool, least primitive root of each prime.
    small = primes_upto_trial(8300)
    for j, (q, g, _) in enumerate(default_basis.moduli(7), start=1):
        iv = dyadic_interval(j)
        assert q == next(p for p in small if p > iv.lo), j
        if q < 500:
            assert g == primitive_root_naive(q), j
        assert is_primitive_root(g, q)


def test_default_basis_frozen_values(default_basis):
    qs = [default_basis.q(j) for j in range(1, 8)]
    gs = [g for _, g, _ in default_basis.moduli(7)]
    assert qs == [3, 11, 37, 131, 521, 2053, 8209]
    assert gs == [2, 2, 2, 2, 3, 2, 7]
    assert [default_basis.weight(j) for j in range(1, 6)] == [
        1, 12, 528, 78144, 40947456]


def test_weight_recurrence(default_basis):
    for j in range(1, 8):
        assert default_basis.weight(j + 1) == (
            default_basis.weight(j) * default_basis.radix(j))
    with pytest.raises(ValueError):
        default_basis.weight(0)
    with pytest.raises(ValueError):
        default_basis.norm(0)


def test_prime_product(default_basis):
    assert default_basis.prime_product(1, 3) == 3 * 11 * 37
    assert default_basis.prime_product(4, 4) == 131
    assert default_basis.prime_product(5, 4) == 1


def test_scale_validation():
    for bad in (2, 3, 8, 12, 1):
        with pytest.raises(ValueError):
            Basis(bad)
    Basis(4)
    Basis(9)
    Basis(25)


def test_kind_comes_from_the_arguments():
    # Given entries and a seed exclude each other; neither gives the
    # deterministic basis, and bases extend only on demand.
    with pytest.raises(ValueError):
        Basis(4, [(5, 2)], seed=1)
    assert len(Basis(4, seed=7)) == 0 and len(Basis(4)) == 0
    assert Basis(4).q(1) == 3 and Basis(4, [(5, 2)]).q(1) == 5


def test_random_basis_reproducible_and_in_pool():
    a = build_basis(4, 6, seed=12345)
    b = build_basis(4, 6, seed=12345)
    c = build_basis(4, 6, seed=54321)
    assert a.moduli(6) == b.moduli(6)
    assert a.moduli(6) != c.moduli(6)
    for j, (q, g, _) in enumerate(a.moduli(6), start=1):
        assert q in dyadic_interval(j)
        assert is_primitive_root(g, q)


def test_entries_match_a_fresh_window_sieve():
    # The primality scan finds each least prime, and the cached int64 pools
    # hand rng.choice the same primes, in the same order, as the oracle's
    # sieve of each window as a list.
    pools = [primes_between_sieve(iv.lo, iv.hi)
             for iv in (dyadic_interval(j) for j in range(1, 12))]
    det = build_basis(4, 11)
    assert [det.q(j) for j in range(1, 12)] == [pool[0] for pool in pools]
    for seed in (2024, 1, 6, 99):
        rng = random.Random(seed)
        expected = [rng.choice(pool) for pool in pools]
        for _ in range(2):  # the second basis reuses the cached pools
            rand = build_basis(9, 11, seed=seed)
            assert [rand.q(j) for j in range(1, 12)] == expected
            assert all(type(rand.q(j)) is int for j in range(1, 12))


def test_random_basis_through_max_index():
    # j = 13 draws from the largest window, (2^25, 2^27].
    assert MAX_INDEX == 13
    b = build_basis(9, MAX_INDEX, seed=31)
    for j, (q, g, _) in enumerate(b.moduli(MAX_INDEX), start=1):
        assert is_prime_trial(q) and q in dyadic_interval(j), j
        assert 1 <= g < q and all(pow(g, (q - 1) // r, q) != 1 for r in factorize_trial(q - 1)), j
    with pytest.raises(BasisGap):
        b.ensure(MAX_INDEX + 1)


def test_window_pool_past_the_sieve_limit_raises_before_allocating(monkeypatch):
    # Entry 14's window (2^27, 2^29] holds 3 * 2^27 integers, past the sieve
    # limit of 2^27, so a random basis allowed a 14th entry must refuse its
    # pool by name before it allocates, not run out of memory.
    b = build_basis(9, 13, seed=31)
    monkeypatch.setattr(basis, "MAX_INDEX", 14)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(SieveTooLarge, match="2\\^27"):
            basis._window_pool(14)
        with pytest.raises(SieveTooLarge):
            b.ensure(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 0.5
    assert peak < 1 << 20
    assert len(b) == 13


def test_given_entries_never_extend():
    b = Basis(4, [(3, 2), (11, 2)])
    assert b.q(2) == 11
    with pytest.raises(BasisGap):
        b.q(3)
    # A given q_1 = 11 is not followed by the deterministic q_2, which is
    # 11 again.
    short = Basis(4, [(11, 2)])
    with pytest.raises(BasisGap):
        short.moduli(2)
    assert len(short) == 1


def test_entry_validation():
    with pytest.raises(ValueError):
        Basis(4, [(4, 2)])  # not prime
    with pytest.raises(ValueError):
        Basis(4, [(3, 4)])  # 4 = 1 mod 3, not a generator
    with pytest.raises(ValueError):
        Basis(4, [(3, 2), (3, 2)])  # duplicate prime
    # Given entries need not be dyadic; documents must be.
    entries = [(5, 2), (7, 3)]  # 7 is outside entry 2's window (8, 32]
    assert Basis(4, entries).q(2) == 7
    doc = {"scale": 4, "entries": [{"j": j, "q": q, "g": g}
                                   for j, (q, g) in enumerate(entries, start=1)]}
    with pytest.raises(ValueError, match=r"q_2 = 7 outside"):
        Basis.from_json_doc(doc)


def test_given_entries_stop_at_max_index(monkeypatch, document_past_max_index):
    doc = document_past_max_index
    assert len(Basis.from_json_doc({**doc, "entries": doc["entries"][:-1]})) == MAX_INDEX
    # One entry more is refused before any entry is checked or appended.
    checked = []
    monkeypatch.setattr(Basis, "_check_entry", lambda self, j, q, g: checked.append(j))
    with pytest.raises(BasisGap, match=f"bound {MAX_INDEX}"):
        Basis.from_json_doc(doc)
    assert checked == []


def test_max_index_guard(monkeypatch):
    assert MAX_INDEX >= 8
    monkeypatch.setattr(basis, "MAX_INDEX", 3)
    b = Basis(4)
    b.ensure(3)
    with pytest.raises(BasisGap):
        b.ensure(4)


def test_json_roundtrip(default_basis):
    doc = default_basis.to_json_doc()
    back = Basis.from_json_doc(doc)
    assert back.scale == default_basis.scale
    assert len(back) == len(default_basis)
    assert back.moduli(len(back)) == default_basis.moduli(len(back))
    # Reloaded bases are frozen at their stored length.
    with pytest.raises(BasisGap):
        back.q(len(back) + 1)


def test_json_doc_rejects_gaps(default_basis):
    doc = default_basis.to_json_doc()
    doc["entries"] = [row for row in doc["entries"] if row["j"] != 2]
    with pytest.raises(ValueError):
        Basis.from_json_doc(doc)
