"""Digit vectors of primes and their mixed-radix values.

A prime p in block k gets one digit per basis index j <= k: the discrete
log of p mod q_j, lifted into the window [(h-1)q_j + 1, hq_j - 1]. Its
element is the mixed-radix value sum x_j * W_j. Windows keep every digit
nonzero and h-fold digit sums carry-free, and the leading digit pins down
the block, which is what makes collision structure readable off the digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import discrete_log, lift_to_window
from .basis import Basis
from .blocks import BlockParams, block_of_prime
from .errors import ConsistencyError, DigitOutOfRange, ExcludedPrime, ValueTooLarge
from .errors import BasisGap


@dataclass(frozen=True)
class DigitVector:
    """Little-endian digits x_1..x_k with the window index h they were cut for."""

    k: int
    digits: tuple[int, ...]
    h: int = 2

    def __post_init__(self):
        if self.k != len(self.digits):
            raise ValueError(f"k = {self.k} but {len(self.digits)} digits")

    def display(self) -> str:
        """Digits in index order x_1..x_k, the order the examples use."""
        return "(" + ", ".join(str(x) for x in self.digits) + ")"

    def in_windows(self, basis: Basis) -> bool:
        return all((self.h - 1) * basis.q(j) + 1 <= x <= self.h * basis.q(j) - 1
                   for j, x in enumerate(self.digits, start=1))


@dataclass(frozen=True)
class SidonElement:
    """A prime, its block, its digit vector, and its mixed-radix value."""

    p: int
    k: int
    digits: DigitVector
    value: int

    def to_json_obj(self) -> dict:
        return {"p": self.p, "k": self.k, "digits": list(self.digits.digits),
                "a": str(self.value)}


def digits_for_block(p: int, k: int, basis: Basis, h: int = 2,
                     tables: dict[int, list[int]] | None = None) -> DigitVector:
    """Digit vector of p given its block index k.

    tables maps a basis index j to the log table of (g_j, q_j) (see
    arith.log_table); digits of the other indices come from BSGS.
    """
    basis.ensure(k)
    digits = []
    for j in range(1, k + 1):
        q, g = basis.entry(j)
        r = p % q
        if r == 0:
            raise ExcludedPrime(p, k, j)
        table = tables.get(j) if tables else None
        d = table[r] if table is not None else discrete_log(g, r, q)
        digits.append(lift_to_window(d, q, h))
    return DigitVector(k=k, digits=tuple(digits), h=h)


def digits_of_prime(p: int, basis: Basis, params: BlockParams, h: int = 2) -> DigitVector:
    return digits_for_block(p, block_of_prime(p, params), basis, h)


def encode_value(d: DigitVector, basis: Basis) -> int:
    """Mixed-radix value sum x_j W_j. Digits must sit inside their radix."""
    total = 0
    for j, x in enumerate(d.digits, start=1):
        if not 0 <= x < basis.radix(j):
            raise DigitOutOfRange(f"digit x_{j} = {x} outside [0, {basis.radix(j)})")
        total += x * basis.weight(j)
    return total


def decode_value(a: int, basis: Basis) -> DigitVector:
    """The unique digit string of a with 0 <= x_j < scale * q_j.

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
    h = isqrt(basis.scale)
    return DigitVector(k=len(digits), digits=tuple(digits), h=h)


def element_in_block(p: int, k: int, basis: Basis, h: int = 2,
                     tables: dict[int, list[int]] | None = None) -> SidonElement:
    """Element of a prime p of block k, checked to land between the block rails.

    Block generation passes k straight from primes_in_block, whose integer
    edges floor(2^E(k-1)) < p <= floor(2^E(k)) decide membership exactly:
    p <= floor(2^E) iff log2(p) <= E. The guarded comparisons behind those
    edges already cover every prime that block_of_prime could find too close
    to an edge. For p < 2^64, |log2(p) - E| < 2^-64 forces |p - 2^E| < 1, so
    p is n or n + 1 for n = floor(2^E), and pow2_floor has compared both
    against E with the same guard. tables is passed on to digits_for_block.
    """
    d = digits_for_block(p, k, basis, h, tables)
    value = encode_value(d, basis)
    if not basis.weight(k) * basis.q(k) < value < basis.weight(k + 1):
        raise ConsistencyError(f"element of {p} escaped (W_k q_k, W_k+1): {value}")
    return SidonElement(p=p, k=k, digits=d, value=value)


def element_for_prime(p: int, basis: Basis, params: BlockParams, h: int = 2) -> SidonElement:
    """Element of p: its block by block_of_prime, its digits by BSGS."""
    return element_in_block(p, block_of_prime(p, params), basis, h)
