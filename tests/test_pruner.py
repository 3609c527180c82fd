import mpmath
import pytest

from dlogsidon import pruner
from dlogsidon._precision import PRECISION
from dlogsidon.blocks import const_decimal, const_sqrt2, const_sqrt5, primes_in_block, sidon_params
from dlogsidon.errors import ConsistencyError, IneligiblePair, RatioBoundExceeded
from dlogsidon.generator import generate_blocks
from dlogsidon.pruner import (
    SRangeBounds,
    _witness,
    bad_primes,
    eligible_k2s,
    pruned_generate,
    s_bounds,
)

from oracles import bad_primes_naive


def test_eligible_k2s_matches_inequality(sqrt2_params):
    with mpmath.workprec(PRECISION):
        c = sqrt2_params.c
        ratio = c / (1 - c)
        for k1 in range(3, 9):
            want = [k2 for k2 in range(2, k1) if k2 * k2 < ratio * k1 * k1]
            assert eligible_k2s(k1, sqrt2_params) == want, k1
    assert eligible_k2s(7, sqrt2_params) == [2, 3, 4, 5]


def test_s_bounds_frozen_on_default_basis(default_basis, sqrt2_params):
    # On the dyadic basis every eligible range is empty through k1 = 7.
    seen = {}
    for k1 in range(3, 8):
        for k2 in eligible_k2s(k1, sqrt2_params):
            b = s_bounds(k2, k1, sqrt2_params, default_basis)
            seen[(k2, k1)] = (b.s1_max, b.s2_max)
            assert b.is_empty(), (k2, k1)
    assert seen[(2, 5)] == (1, 0)
    assert seen[(2, 6)] == (46, 0)
    assert seen[(5, 6)] == (0, 1)
    assert seen[(2, 7)] == (1922, 0)
    assert seen[(3, 7)] == (218, 0)
    assert seen[(4, 7)] == (12, 0)


def test_first_nonempty_s_range_on_default_basis(monkeypatch, sqrt2_params):
    # Past k1 = 11 the range bounds exceed 2^64; they must come out exact
    # rather than raise PrecisionAmbiguity.
    from dlogsidon import basis as basis_module
    monkeypatch.setattr(basis_module, "MAX_INDEX", 14)
    b14 = basis_module.build_basis("deterministic", 4, 14)
    bounds = [s_bounds(k2, k1, sqrt2_params, b14)
              for k1 in range(3, 15) for k2 in eligible_k2s(k1, sqrt2_params)]
    first = next(b for b in bounds if not b.is_empty())
    assert (first.k2, first.k1, first.s1_max, first.s2_max) == (11, 14, 7, 9)


def test_s_bounds_rejects_ineligible_pairs(default_basis, sqrt2_params):
    with pytest.raises(IneligiblePair):
        s_bounds(5, 5, sqrt2_params, default_basis)
    with pytest.raises(IneligiblePair):
        s_bounds(6, 7, sqrt2_params, default_basis)  # 36 > ratio * 49
    with pytest.raises(IneligiblePair):
        s_bounds(1, 7, sqrt2_params, default_basis)


def test_bad_primes_empty_on_default_basis(default_basis, sqrt2_params):
    for k1 in range(2, 8):
        assert bad_primes(k1, sqrt2_params, default_basis) == [], k1


def test_witness_planted_hit():
    # 5 s1 + 6 s2 = 11 at (s1, s2) = (1, 1): the scan must find it.
    bounds = SRangeBounds(k2=2, k1=4, q1_product=5, q2_product=2,
                          s1_max=2, s2_max=1)
    assert _witness(11, bounds, [3]) == (1, 1, 3)
    s1, s2, p2 = 1, 1, 3
    assert (s1 * 5 + s2 * p2 * 2) % 11 == 0


def test_witness_no_hit_when_prime_exceeds_range():
    # Largest |s| = 2*5 + 1*3*2 = 16 < 17, so nothing divides.
    bounds = SRangeBounds(k2=2, k1=4, q1_product=5, q2_product=2,
                          s1_max=2, s2_max=1)
    assert _witness(17, bounds, [3]) is None


def test_witness_divisor_of_q1_branch():
    # p1 divides Q1, so p1 | s iff p1 | s2.
    bounds = SRangeBounds(k2=2, k1=4, q1_product=7 * 11, q2_product=2,
                          s1_max=1, s2_max=15)
    got = _witness(7, bounds, [3])
    assert got is not None
    s1, s2, p2 = got
    assert s2 % 7 == 0
    assert (s1 * 77 + s2 * p2 * 2) % 7 == 0


def test_witness_divisor_of_q2_branch():
    # p1 divides Q2, so p1 | s iff p1 | s1.
    bounds = SRangeBounds(k2=2, k1=4, q1_product=4, q2_product=7,
                          s1_max=15, s2_max=1)
    got = _witness(7, bounds, [3])
    assert got is not None
    s1, s2, p2 = got
    assert s1 % 7 == 0


def test_bad_primes_match_full_enumeration(fake_basis):
    # The per-prime inverse scan against literal enumeration of every
    # (s1, s2, p2) triple, on bases wide enough that the sets are proper.
    cases = [
        ((37, 41, 17, 3), "0.49", 1),
        ((41, 47, 17, 3), "0.49", 1),
        ((53, 59, 17, 3), "0.45", 2),
        ((11, 13, 47, 3), "0.49", 1),
    ]
    for qs, cdec, offset in cases:
        basis = fake_basis(qs, 4)
        params = sidon_params(c=const_decimal(cdec), offset=offset)
        recs = bad_primes(4, params, basis)
        plans = []
        for k2 in eligible_k2s(4, params):
            b = s_bounds(k2, 4, params, basis)
            if b.is_empty():
                continue
            plans.append((b.q1_product, b.q2_product, b.s1_max, b.s2_max,
                          primes_in_block(k2, params)))
        want = bad_primes_naive(primes_in_block(4, params), plans)
        assert {r.p1 for r in recs} == want, (qs, cdec, offset)


def test_bad_primes_proper_subsets(fake_basis):
    params = sidon_params(c=const_decimal("0.49"), offset=1)
    block4 = primes_in_block(4, params)
    recs = bad_primes(4, params, fake_basis((37, 41, 17, 3), 4))
    assert len(recs) == 28 and len(block4) == 75
    recs = bad_primes(4, params, fake_basis((41, 47, 17, 3), 4))
    assert len(recs) == 16


def test_bad_prime_records_are_verifiable(fake_basis):
    params = sidon_params(c=const_decimal("0.49"), offset=1)
    basis = fake_basis((37, 41, 17, 3), 4)
    for rec in bad_primes(4, params, basis):
        b = s_bounds(rec.k2, rec.k1, params, basis)
        assert rec.s % rec.p1 == 0 and rec.s != 0
        assert 1 <= abs(rec.s1) <= b.s1_max
        assert 1 <= abs(rec.s2) <= b.s2_max
        assert rec.p2 in primes_in_block(rec.k2, params)
        assert rec.q1_product == b.q1_product and rec.q2_product == b.q2_product
        obj = rec.to_json_obj()
        assert obj["p1"] == rec.p1 and int(obj["s"]) == rec.s


def test_bad_primes_check_the_size_bound(fake_basis):
    # At k1 = 5 the only plan, k2 = 2, lies in the regime
    # 2 E(k1 - 1) > E(k1) + E(k2) + 1, where a witness is below the square of
    # block 5's floor: no witness may have a second block-5 prime factor, and
    # bad_primes checks each of the 589 against every other prime of block 5.
    params = sidon_params(c=const_decimal("0.45"), offset=1)
    basis = fake_basis((11, 13, 3, 5, 7, 17), 4)
    with mpmath.workprec(PRECISION):
        assert 2 * params.exponent(4) > params.exponent(5) + params.exponent(2) + 1
    recs = bad_primes(5, params, basis)
    assert len(recs) == 589
    assert {r.k2 for r in recs} == {2}


def test_pruned_equals_unpruned_on_default_basis(default_basis):
    prefix = generate_blocks(5, sidon_params(c=const_sqrt2()), default_basis)
    res = pruned_generate(prefix)
    assert res.records == []
    assert res.pruned.values() == prefix.values()
    assert all(row["bad_count"] == 0 and row["ratio"] == 0.0 for row in res.reports)


def test_bad_primes_sieves_nothing_without_a_plan(default_basis, monkeypatch):
    # Every s-range through k1 = 7 is empty on the deterministic basis, so
    # neither block k1 nor any partner block k2 is sieved.
    sieved = []
    real = pruner.primes_in_block
    monkeypatch.setattr(pruner, "primes_in_block",
                        lambda k, params: sieved.append(k) or real(k, params))
    params = sidon_params(c=const_sqrt2())
    assert all(bad_primes(k1, params, default_basis) == [] for k1 in range(2, 8))
    assert sieved == []


def test_pruned_generate_rejects_c_at_or_below_floor(default_basis):
    with pytest.raises(ValueError):
        pruned_generate(generate_blocks(5, sidon_params(c=const_sqrt5()), default_basis))
    with pytest.raises(ValueError):
        pruned_generate(generate_blocks(5, sidon_params(c=const_decimal("0.3")), default_basis))


def test_pruned_generate_ratio_guard(fake_basis):
    # Tiny windows make every block-4 prime bad; the run must refuse.
    params = sidon_params(c=const_decimal("0.49"), offset=1)
    with pytest.raises(RatioBoundExceeded):
        pruned_generate(generate_blocks(4, params, fake_basis((11, 13, 3, 5), 4)))
