import random
from collections import Counter

import pytest

from dlogsidon import encoder
from dlogsidon.arith import is_prime, primes_upto
from dlogsidon.basis import Basis, build_basis
from dlogsidon.bh import bh_params
from dlogsidon.blocks import block_edges, const_decimal, const_sqrt2, const_sqrt5, sidon_params
from dlogsidon.encoder import (
    SidonElement,
    decode_value,
    digits_for_block,
    digits_of_prime,
    element_for_prime,
    element_in_block,
    encode_value,
)
from dlogsidon.errors import DigitOutOfRange, DLogUndefined, ExcludedPrime, ValueTooLarge
from dlogsidon.generator import generate_blocks
from dlogsidon.gf2x import gf2_generate_blocks

from oracles import block_walk, element_walk, lift_naive, power_table


def test_worked_digits_p5(default_basis, sqrt5_params):
    # p = 5, block 4: dlogs of 5 mod (3, 11, 37, 131) lifted into (q, 2q).
    e = element_for_prime(5, default_basis, sqrt5_params)
    assert e.k == 4
    assert e.digits == (5, 14, 59, 176)
    assert e.value == 13784669
    assert e.to_json_obj() == {
        "p": 5, "k": 4, "digits": [5, 14, 59, 176], "a": "13784669"}


def test_worked_digits_p2_and_p7(default_basis, sqrt5_params):
    e2 = element_for_prime(2, default_basis, sqrt5_params)
    assert (e2.k, e2.digits, e2.value) == (4, (5, 21, 73, 261), 20434385)
    e7 = element_for_prime(7, default_basis, sqrt5_params)
    assert (e7.k, e7.digits, e7.value) == (4, (4, 17, 68, 226), 17696656)


def test_digits_against_power_tables(default_basis, sqrt5_params):
    # Every digit is the table dlog lifted into the h-window by linear scan.
    for p in (13, 17, 19, 23, 29):
        d = digits_of_prime(p, default_basis, sqrt5_params)
        for j, (x, (q, g, _)) in enumerate(zip(d, default_basis.moduli(len(d))), start=1):
            e = power_table(q, g)[p % q]
            assert x == lift_naive(e, q + 1, 2 * q - 1, q - 1), (p, j)


def test_windows_shift_with_h(default_basis):
    # The window order is the basis's: scale 9 gives h = 3 on the same primes.
    basis9 = build_basis(9, 4)
    assert (default_basis.h, basis9.h) == (2, 3)
    d2 = digits_for_block(13, 4, default_basis)
    d3 = digits_for_block(13, 4, basis9)
    for j, (x2, x3) in enumerate(zip(d2, d3), start=1):
        assert basis9.q(j) == default_basis.q(j)
        q = default_basis.q(j)
        assert q < x2 < 2 * q
        assert 2 * q < x3 < 3 * q
        assert (x3 - x2) % (q - 1) == 0


def test_excluded_prime_carries_location(default_basis):
    # 11 = q_2, so any block needing digit 2 rejects it.
    with pytest.raises(ExcludedPrime) as ei:
        digits_for_block(11, 5, default_basis)
    assert (ei.value.p, ei.value.k, ei.value.index) == (11, 5, 2)
    assert str(ei.value) == "prime 11 equals basis prime q_2, no digit in block 5"
    # 33 = 3 * 11 is no basis modulus: its zero residue mod q_1 = 3 has no
    # log, and the encoder raises.
    with pytest.raises(DLogUndefined):
        digits_for_block(33, 5, default_basis)


def test_encode_decode_roundtrip(default_basis, seed=1203):
    rng = random.Random(seed)
    for _ in range(50):
        k = rng.randrange(1, 7)
        digits = tuple(rng.randrange(1, default_basis.radix(j))
                       for j in range(1, k + 1))
        a = encode_value(digits, default_basis)
        assert decode_value(a, default_basis) == digits


def test_encode_value_is_positional(default_basis):
    want = 5 + 14 * 12 + 59 * 528
    assert encode_value((5, 14, 59), default_basis) == want


def test_encode_rejects_digit_at_radix(default_basis):
    with pytest.raises(DigitOutOfRange):
        encode_value((12,), default_basis)


def test_decode_rejects_negative_and_giant(default_basis):
    with pytest.raises(ValueError):
        decode_value(-1, default_basis)
    fixed = Basis(4, [(3, 2)])
    with pytest.raises(ValueTooLarge):
        decode_value(12**3, fixed)


def test_element_rails(default_basis, sqrt5_params):
    # W_k q_k < a < W_(k+1) pins the block straight off the value.
    for p in (2, 5, 7, 13, 89):
        e = element_for_prime(p, default_basis, sqrt5_params)
        k = e.k
        assert default_basis.weight(k) * default_basis.q(k) < e.value
        assert e.value < default_basis.weight(k + 1)


def _walk_prefix(law, seed):
    """The generated prefix of a law: sqrt5 and sqrt2 to k = 7 over a basis
    of scale 4, B_3 to k = 9 over scale 9, GF(2) to k = 6."""
    if law == "gf2":
        return gf2_generate_blocks(6, sidon_params(offset=0))
    if law == "bh3":
        params, scale, k_max = bh_params(3), 9, 9
    else:
        c = {"sqrt5": const_sqrt5, "sqrt2": const_sqrt2}[law]()
        params, scale, k_max = sidon_params(c=c), 4, 7
    return generate_blocks(k_max, params, build_basis(scale, k_max, seed=seed))


@pytest.mark.parametrize("law,seed", [("sqrt5", None), ("sqrt5", 1207), ("sqrt2", None),
                                      ("sqrt2", 1207), ("bh3", None), ("bh3", 1207),
                                      ("gf2", None)])
def test_walk_values_match_the_encoder(law, seed):
    # encode_rows sums the digits of each row as it lifts them; encode_value,
    # which checks each digit against its radix, is its oracle, and the rails
    # come from the basis's own weights.
    prefix = _walk_prefix(law, seed)
    basis = prefix.basis
    assert prefix.elements
    for e in prefix.elements:
        assert len(e.digits) == e.k
        assert e.value == encode_value(e.digits, basis), e.p
        assert basis.weight(e.k) * basis.norm(e.k) < e.value < basis.weight(e.k + 1), e.p


def test_generation_never_encodes(monkeypatch, sqrt5_prefix_k7):
    def refuse(digits, basis):
        raise AssertionError("generation called encode_value")

    gf2_params = sidon_params(offset=0)
    gf2_elements = gf2_generate_blocks(6, gf2_params).elements
    monkeypatch.setattr(encoder, "encode_value", refuse)
    prefix = generate_blocks(7, sqrt5_prefix_k7.params, build_basis(4, 7))
    assert prefix.elements == sqrt5_prefix_k7.elements
    assert gf2_generate_blocks(6, gf2_params).elements == gf2_elements


def _walk_or_exclusion(fn, p, *args):
    """The element fn gives for p, or the fields of its ExcludedPrime."""
    try:
        return fn(p, *args)
    except ExcludedPrime as e:
        return ("excluded", e.p, e.k, e.index, str(e))


@pytest.mark.parametrize("seed", [None, 1207])
def test_one_prime_api_matches_the_walk(sqrt5_params, seed):
    # Every prime of the sqrt5 k <= 6 prefix, its basis primes included:
    # one row of encode_rows gives the element the walk gives, or the same
    # ExcludedPrime at the same index.
    basis = build_basis(4, 6, seed=seed)
    outcomes = Counter()
    for p in primes_upto(sqrt5_params.upper_edge(6)):
        k = block_walk(p, sqrt5_params)
        got = _walk_or_exclusion(element_for_prime, p, basis, sqrt5_params)
        assert got == _walk_or_exclusion(element_walk, p, k, basis), p
        outcomes[type(got)] += 1
        if type(got) is SidonElement:
            assert digits_for_block(p, k, basis) == digits_of_prime(
                p, basis, sqrt5_params) == got.digits
    assert outcomes[SidonElement] > 250 and outcomes[tuple] >= 3, outcomes


def _primes_from(n, count):
    out = []
    while len(out) < count:
        n += 1
        if is_prime(n):
            out.append(n)
    return out


@pytest.mark.parametrize("seed", [None, 1207])
def test_one_prime_api_serves_primes_past_int64(sqrt2_params, seed):
    # sqrt2 block 13 runs from below 2^62 past 2^66: a prime from 2^63 on
    # is held as a Python int, and its value lies past 2^190, between the
    # rails of block 13.
    basis = build_basis(4, 13, seed=seed)
    for bits in (62, 63, 64, 66):
        for p in _primes_from((1 << bits) - 100, 3):
            e = element_for_prime(p, basis, sqrt2_params)
            assert e == element_walk(p, 13, basis), p
            assert e.k == 13 and type(e.p) is int and e.value >> 190
            assert basis.weight(13) * basis.norm(13) < e.value < basis.weight(14)


def test_one_prime_api_matches_generation_over_gf2():
    # An irreducible polynomial's block is that of its norm 2^deg p, not of
    # its bit pattern: X + 1 (0b11, norm 2) is a block-2 element. Every
    # element and exclusion of the k <= 6 prefix is rebuilt alone.
    params = sidon_params(offset=0)
    prefix = gf2_generate_blocks(6, params)
    basis = prefix.basis
    assert len(prefix.elements) == 1371 and len(prefix.excluded) == 6
    assert element_for_prime(0b11, basis, params).k == 2
    for e in prefix.elements:
        assert element_for_prime(e.p, basis, params) == e, e.p
        assert digits_of_prime(e.p, basis, params) == e.digits, e.p
    for r in prefix.excluded:
        with pytest.raises(ExcludedPrime) as ei:
            element_for_prime(r.p, basis, params)
        assert (ei.value.p, ei.value.k, ei.value.index) == (r.p, r.k, r.basis_index)


def test_one_prime_api_places_a_prime_just_below_an_edge_past_2_64():
    # Under c = 0.4321, edge 13 is a 71-bit integer and its largest prime
    # lies 23 below it: log2 p lies about 2^-65 below E(13), inside the
    # 2^-64 guard of a log comparison, and the integer edges decide it.
    params = sidon_params(c=const_decimal("0.4321"))
    lo, hi = block_edges(13, params)
    p = next(n for n in range(hi, lo, -1) if is_prime(n))
    assert hi - p == 23 and hi.bit_length() == 71
    basis = Basis(4)
    e = element_for_prime(p, basis, params)
    assert e == element_in_block(p, 13, basis) == element_walk(p, 13, basis)
