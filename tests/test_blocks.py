import math
import random

import mpmath
import pytest

from dlogsidon import blocks
from dlogsidon._precision import PRECISION
from dlogsidon.arith import is_prime
from dlogsidon.basis import Basis
from dlogsidon.bh import montecarlo_bad_ratio
from dlogsidon.blocks import (
    block_edges,
    block_of_prime,
    const_decimal,
    const_sqrt2,
    const_sqrt5,
    const_window,
    primes_in_block,
    sidon_params,
    tapered_params,
)
from dlogsidon.errors import PrecisionAmbiguity
from dlogsidon.generator import generate_blocks

from oracles import block_walk, primes_upto_trial



def test_constant_values_at_high_precision():
    with mpmath.workprec(PRECISION):
        assert mpmath.almosteq(const_sqrt5(), (3 - mpmath.sqrt(5)) / 2)
        assert mpmath.almosteq(const_sqrt2(), mpmath.sqrt(2) - 1)
        # h = 3: sqrt(5) - 2
        assert mpmath.almosteq(const_window(3), mpmath.sqrt(5) - 2)
        assert mpmath.almosteq(const_decimal("0.25"), mpmath.mpf(1) / 4)


def test_constant_range_check():
    for text in ("0", "0.5", "0.75", "-0.1"):
        with pytest.raises(ValueError):
            const_decimal(text)
    with pytest.raises(ValueError):
        const_window(1)


def test_exponent_plain_law():
    params = sidon_params(c=const_decimal("0.25"), offset=-3)
    with mpmath.workprec(PRECISION):
        for k in range(2, 9):
            assert mpmath.almosteq(params.exponent(k), 0.25 * k * k - 3)


def test_taper_factor_matches_direct_formula():
    params = tapered_params(3)
    with mpmath.workprec(PRECISION):
        for k in range(2, 12):
            want = 1 - 1 / mpmath.sqrt(mpmath.log(k))
            assert mpmath.almosteq(params.taper_factor(k), want)
    assert params.taper_factor(2) < 0  # log 2 < 1 pushes the factor negative
    with pytest.raises(ValueError):
        params.taper_factor(1)


def test_upper_edges_sqrt5(sqrt5_params):
    # floor(2^(c k^2 - 3)) for c = (3 - sqrt 5)/2
    assert [sqrt5_params.upper_edge(k) for k in range(1, 8)] == [
        0, 0, 1, 8, 93, 1723, 53837]


def test_upper_edges_sqrt2(sqrt2_params):
    assert [sqrt2_params.upper_edge(k) for k in range(1, 8)] == [
        0, 0, 1, 12, 163, 3852, 160973]


def test_each_upper_edge_is_worked_out_once(monkeypatch):
    # A generation asks for every edge twice, and a Monte-Carlo survey once
    # per trial; the law works each one out once.
    calls = []
    floor = blocks.pow2_floor
    monkeypatch.setattr(blocks, "pow2_floor", lambda e: calls.append(e) or floor(e))
    params = sidon_params(c=const_sqrt2())
    edges = [params.upper_edge(k) for k in range(1, 8)]
    assert [params.upper_edge(k) for k in range(1, 8)] == edges
    assert len(calls) == 7
    assert params == sidon_params(c=const_sqrt2())
    assert hash(params) == hash(sidon_params(c=const_sqrt2()))
    per_run = []
    for trials in (1, 4):
        calls.clear()
        montecarlo_bad_ratio(3, 7, trials, seed=5)
        per_run.append(len(calls))
    assert per_run[0] == per_run[1] > 0


def test_block_of_prime_consistent_with_edges(sqrt5_params):
    # block k holds (edge(k-1), edge(k)]
    for p, want in ((2, 4), (3, 4), (5, 4), (7, 4), (11, 5), (57, 5),
                    (89, 5), (97, 6), (1723, 6), (1733, 7), (53831, 7)):
        assert block_of_prime(p, sqrt5_params) == want, p


def test_block_of_prime_rejects_below_first_edge(sqrt5_params):
    with pytest.raises(ValueError):
        block_of_prime(1, sqrt5_params)
    # edge(3) = 1 while edges 1 and 2 are 0, so the first nonempty block is 4
    # and every p >= 2 clears its lower edge.
    assert block_of_prime(2, sqrt5_params) == 4


def test_primes_in_block_matches_trial_sieve(sqrt5_params):
    for k in range(2, 7):
        lo = sqrt5_params.upper_edge(k - 1)
        hi = sqrt5_params.upper_edge(k)
        want = [p for p in primes_upto_trial(min(hi, 10**6)) if p > lo]
        if hi <= 10**6:
            assert primes_in_block(k, sqrt5_params) == want, k
    assert primes_in_block(2, sqrt5_params) == []
    with pytest.raises(ValueError):
        primes_in_block(1, sqrt5_params)


def test_block_partition_covers_primes(sqrt2_params):
    # Every prime up to edge(5) lands in exactly one block of index <= 5.
    blocks = {k: primes_in_block(k, sqrt2_params) for k in range(2, 6)}
    merged = sorted(p for ps in blocks.values() for p in ps)
    assert merged == primes_upto_trial(sqrt2_params.upper_edge(5))
    for k, ps in blocks.items():
        for p in ps[:3] + ps[-3:]:
            assert block_walk(p, sqrt2_params) == k


def test_rational_c_edge_tie_raises():
    # c = 1/4, offset -3: E(6) = 6 exactly, so p = 64 sits on the edge and
    # 2^E(6) = 64 cannot be floored without guessing.
    params = sidon_params(c=const_decimal("0.25"), offset=-3)
    with pytest.raises(PrecisionAmbiguity):
        params.upper_edge(6)
    with pytest.raises(PrecisionAmbiguity):
        block_of_prime(64, params)


def test_block_of_prime_places_the_primes_next_to_sqrt2_edges_14_and_15(sqrt2_params):
    # Edges 14 and 15 lie near 2^78 and 2^90, where neighbouring integers sit
    # closer than 2^-64 apart in log2: no guarded log comparison can place
    # the primes next to them, and the integer edges place every one.
    for k, count in ((14, 45), (15, 30)):
        edge = sqrt2_params.upper_edge(k)
        primes = [n for n in range(edge - 1000, edge + 1001) if is_prime(n)]
        assert len(primes) == count
        for p in primes:
            got = block_of_prime(p, sqrt2_params)
            lo, hi = block_edges(got, sqrt2_params)
            assert lo < p <= hi and got == (k if p <= edge else k + 1), p


def test_block_of_prime_refuses_where_generation_refuses():
    # c = 1/4, offset -3: E(4) = 1 and E(6) = 6 exactly, so edges 4 and 6
    # cannot be floored. Generation refuses at block 4, and the blocks of
    # 61 and 67 have no edges; a single prime is refused the same way,
    # where a log comparison would have put them in blocks 6 and 7.
    params = sidon_params(c=const_decimal("0.25"), offset=-3)
    for k in (4, 6, 7):
        with pytest.raises(PrecisionAmbiguity):
            block_edges(k, params)
    with pytest.raises(PrecisionAmbiguity):
        generate_blocks(7, params, Basis(4))
    for p in (2, 61, 67):
        with pytest.raises(PrecisionAmbiguity):
            block_of_prime(p, params)
