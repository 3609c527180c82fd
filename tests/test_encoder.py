import random

import pytest

from dlogsidon import encoder
from dlogsidon.basis import Basis, build_basis
from dlogsidon.bh import bh_params
from dlogsidon.blocks import const_sqrt2, const_sqrt5, sidon_params
from dlogsidon.encoder import (
    decode_value,
    digits_for_block,
    digits_of_prime,
    element_for_prime,
    encode_value,
)
from dlogsidon.errors import DigitOutOfRange, ExcludedPrime, ValueTooLarge
from dlogsidon.generator import generate_blocks
from dlogsidon.gf2x import gf2_generate_blocks

from oracles import lift_naive, power_table


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
        for j, x in enumerate(d, start=1):
            q, g = default_basis.entry(j)
            e = power_table(q, g)[p % q]
            assert x == lift_naive(e, q + 1, 2 * q - 1, q - 1), (p, j)


def test_windows_shift_with_h(default_basis):
    # The window order is the basis's: scale 9 gives h = 3 on the same primes.
    basis9 = build_basis("deterministic", 9, 4)
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
    assert ei.value.p == 11 and ei.value.index == 2


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
    fixed = Basis(4, [(3, 2)], mode="fixed")
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
    mode = "deterministic" if seed is None else "random"
    return generate_blocks(k_max, params, build_basis(mode, scale, k_max, seed=seed))


@pytest.mark.parametrize("law,seed", [("sqrt5", None), ("sqrt5", 1207), ("sqrt2", None),
                                      ("sqrt2", 1207), ("bh3", None), ("bh3", 1207),
                                      ("gf2", None)])
def test_walk_values_match_the_encoder(law, seed):
    # The one walk of element_in_block sums the digits as it lifts them;
    # encode_value, which checks each digit against its radix, is its oracle,
    # and the rails come from the basis's own weights.
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
    prefix = generate_blocks(7, sqrt5_prefix_k7.params, build_basis("deterministic", 4, 7))
    assert prefix.elements == sqrt5_prefix_k7.elements
    assert gf2_generate_blocks(6, gf2_params).elements == gf2_elements
