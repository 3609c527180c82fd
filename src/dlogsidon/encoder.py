"""Digit vectors of irreducibles and their mixed-radix values.

An irreducible p in block k (a prime, or an irreducible polynomial over
GF(2)) gets one digit per basis index j <= k: the discrete log of p mod
q_j, lifted into the window [(h-1)N_j + 1, hN_j - 1], where N_j is the norm
of q_j (q_j itself over Z, 2^deg(q_j) over GF(2)[X]). Its element is the
mixed-radix value sum x_j * W_j. Windows keep every digit nonzero and
h-fold digit sums carry-free, and the leading digit pins down the block,
which is what makes collision structure readable off the digits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import lift_to_window
from .basis import Basis
from .blocks import BlockParams, block_of_prime
from .errors import BasisGap, ConsistencyError, DigitOutOfRange, ExcludedPrime, ValueTooLarge


@dataclass(frozen=True)
class SidonElement:
    """An irreducible, its block, its little-endian digits x_1..x_k, and its
    mixed-radix value."""

    p: int
    k: int
    digits: tuple[int, ...]
    value: int

    def to_json_obj(self) -> dict:
        return {"p": self.p, "k": self.k, "digits": list(self.digits), "a": str(self.value)}


def digits_for_block(p: int, k: int, basis: Basis) -> tuple[int, ...]:
    """The digits of element_in_block(p, k, basis)."""
    return element_in_block(p, k, basis).digits


def digits_of_prime(p: int, basis: Basis, params: BlockParams) -> tuple[int, ...]:
    return digits_for_block(p, block_of_prime(p, params), basis)


def encode_value(digits, basis: Basis) -> int:
    """Mixed-radix value sum x_j W_j of any digit string, each digit checked
    against its radix; element_in_block sums its own digits as it lifts them."""
    total = 0
    for j, x in enumerate(digits, start=1):
        if not 0 <= x < basis.radix(j):
            raise DigitOutOfRange(f"digit x_{j} = {x} outside [0, {basis.radix(j)})")
        total += x * basis.weight(j)
    return total


def decode_value(a: int, basis: Basis) -> tuple[int, ...]:
    """The unique digit string of a with 0 <= x_j < scale * N_j.

    Inverse of encode_value on valid digit strings; the result is raw and
    need not respect any window.
    """
    if a < 0:
        raise ValueError(f"need a >= 0, got {a}")
    digits = []
    j = 1
    rest = a
    while rest > 0:
        try:
            r = basis.radix(j)
        except BasisGap as e:
            raise ValueTooLarge(f"{a} needs basis entries past {j - 1}") from e
        digits.append(rest % r)
        rest //= r
        j += 1
    return tuple(digits)


def element_in_block(p: int, k: int, basis: Basis) -> SidonElement:
    """Element of an irreducible p of block k, in one walk over j = 1..k:
    the residue of p mod q_j (ExcludedPrime when it is 0), its log by BSGS,
    lifted into the window of the basis order h, and the running value and
    weight W_j. The last weight is W_(k+1) = scale * W_k N_k, and the value is
    checked to land between the block rails W_k N_k < a < W_(k+1).

    generator.generate_blocks makes the same elements a column at a time,
    with k straight from the ring's listing between the integer edges
    floor(2^E(k-1)) < N(p) <= floor(2^E(k)) of blocks.block_edges, which
    decide membership exactly in both rings: an integer norm is at most
    2^E iff it is at most floor(2^E). pow2_floor fixes each edge by comparing
    integers with 2^E itself, evaluated with the working precision past its
    integer part, and raises PrecisionAmbiguity instead of returning an edge
    within 2^-64 of 2^E; so membership needs no per-irreducible guard at any
    size of p.
    """
    ring, h, scale = basis.ring, basis.h, basis.scale
    digits, value, weight = [], 0, 1
    for j, (q, g, n) in enumerate(basis.moduli(k), start=1):
        r = ring.reduce(p, q)
        if r == 0:
            raise ExcludedPrime(p, k, j)
        x = lift_to_window(ring.dlog(g, r, q), n, h)
        digits.append(x)
        value += x * weight
        weight *= scale * n
    if not weight // scale < value < weight:
        raise ConsistencyError(f"element of {p} escaped (W_k N_k, W_k+1): {value}")
    return SidonElement(p=p, k=k, digits=tuple(digits), value=value)


def element_for_prime(p: int, basis: Basis, params: BlockParams) -> SidonElement:
    """Element of p: its block by block_of_prime, its digits by BSGS."""
    return element_in_block(p, block_of_prime(p, params), basis)
