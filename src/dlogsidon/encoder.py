"""Digit vectors of irreducibles and their mixed-radix values.

An irreducible p in block k (a prime, or an irreducible polynomial over
GF(2)) gets one digit per basis index j <= k: the discrete log of p mod
q_j, lifted into the window [(h-1)N_j + 1, hN_j - 1], where N_j is the norm
of q_j (q_j itself over Z, 2^deg(q_j) over GF(2)[X]). Its element is the
mixed-radix value sum x_j * W_j. Windows keep every digit nonzero and
h-fold digit sums carry-free, and the leading digit pins down the block,
which is what makes collision structure readable off the digits.

encode_rows is the one encoder, for a block's listing and for one
irreducible alike. It works a basis index j at a time, as numpy columns:
residues mod q_j, their discrete logs, their window lifts. The logs come
from a full log table of (g_j, q_j) where the caller built one, else from
ring.dlog (Pohlig-Hellman) one residue at a time.

The one-prime API (element_for_prime, digits_of_prime) applies
generation's two rules to one irreducible: its block is the one whose
integer edges hold its norm (blocks.block_of_prime), and it is excluded
exactly when it is one of the basis moduli q_1..q_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

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
    """The digits of element_for_prime(p, basis, params)."""
    return element_for_prime(p, basis, params).digits


def encode_value(digits, basis: Basis) -> int:
    """Mixed-radix value sum x_j W_j of any digit string, each digit checked
    against its radix; encode_rows sums its own digits as it lifts them."""
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


def encode_rows(ps: list, k: int, basis: Basis, tables: dict[int, np.ndarray]
                ) -> list[SidonElement]:
    """The elements of irreducibles ps of block k, none of them a basis
    modulus, worked a basis index at a time. Column j is their residues mod
    q_j as one column (int64, or Python ints once some p reaches 2^63), the
    logs of those by one gather from tables[j] (or by ring.dlog, one residue
    at a time, where no table was built), and their window lifts by one
    lift_to_window. A zero residue, which only a non-irreducible can give,
    raises: the table's -1 fails the lift's range check, dlog raises
    DLogUndefined. The value of each digit row is summed with Python ints
    and checked against the rails W_k N_k < a < W_(k+1)."""
    ring, h = basis.ring, basis.h
    col = np.array(ps, dtype=np.int64 if max(ps) < 1 << 63 else object)
    columns = []
    for j, (q, g, n) in enumerate(basis.moduli(k), start=1):
        residues = ring.reduce_column(col, q)
        if j in tables:
            logs = tables[j][residues].astype(np.int64)
        else:
            logs = np.array([ring.dlog(g, r, q) for r in residues.tolist()], dtype=np.int64)
        columns.append(lift_to_window(logs, n, h))
    weights = [basis.weight(j) for j in range(1, k + 1)]
    upper = basis.weight(k + 1)
    lower = upper // basis.scale
    elements = []
    for p, digits in zip(col.tolist(), zip(*[x.tolist() for x in columns])):
        value = sum(map(mul, digits, weights))
        if not lower < value < upper:
            raise ConsistencyError(f"element of {p} escaped (W_k N_k, W_k+1): {value}")
        elements.append(SidonElement(p=p, k=k, digits=digits, value=value))
    return elements


def element_in_block(p: int, k: int, basis: Basis) -> SidonElement:
    """Element of an irreducible p of block k: ExcludedPrime(p, k, j) when p
    is the basis modulus q_j, j <= k, as generation excludes it, else
    encode_rows of p alone, its logs by ring.dlog."""
    for j, (q, _, _) in enumerate(basis.moduli(k), start=1):
        if p == q:
            raise ExcludedPrime(p, k, j)
    return encode_rows([p], k, basis, {})[0]


def element_for_prime(p: int, basis: Basis, params: BlockParams) -> SidonElement:
    """Element of an irreducible p: its block by block_of_prime of its norm,
    from the integer edges generation lists between, its digits by ring.dlog."""
    return element_in_block(p, block_of_prime(basis.ring.norm(p), params), basis)
