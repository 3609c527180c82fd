"""Partition of the irreducibles into blocks by an exponent law.

Block k holds the irreducibles p whose norm N(p) (p itself over Z,
2^deg(p) over GF(2)[X]) has E(k-1) < log2 N(p) <= E(k), where

    E(k) = c * k^2 * taper(k) + offset

for a constant 0 < c < 1/2. The plain law uses taper(k) = 1 and offset -3;
the tapered law uses taper(k) = 1 - 1/sqrt(ln k) and offset 0. Norms are
integers, so block_edges gives block k as floor(2^E(k-1)) < N(p) <=
floor(2^E(k)) for both rings, and those integer edges are the one block
rule: generation lists between them, and block_of_prime places a single
norm by them. Each edge is fixed by the guard-banded pow2_floor of
_precision, so an edge too close to call raises PrecisionAmbiguity
instead of misassigning an irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath

from ._precision import PRECISION, pow2_floor
from .arith import INTEGERS


def _checked(c: mpmath.mpf) -> mpmath.mpf:
    if not 0 < c < mpmath.mpf(1) / 2:
        raise ValueError(f"constant {c} outside (0, 1/2)")
    return c


def const_sqrt5() -> mpmath.mpf:
    """(3 - sqrt 5)/2, the exact-Sidon exponent constant."""
    with mpmath.workprec(PRECISION):
        return _checked((3 - mpmath.sqrt(5)) / 2)


def const_sqrt2() -> mpmath.mpf:
    """sqrt 2 - 1, the densest pruned-Sidon exponent constant."""
    with mpmath.workprec(PRECISION):
        return _checked(mpmath.sqrt(2) - 1)


def const_window(h: int) -> mpmath.mpf:
    """sqrt((h-1)^2 + 1) - (h - 1), the h-fold-sum exponent constant."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    with mpmath.workprec(PRECISION):
        return _checked(mpmath.sqrt((h - 1) ** 2 + 1) - (h - 1))


def const_decimal(text: str) -> mpmath.mpf:
    with mpmath.workprec(PRECISION):
        return _checked(mpmath.mpf(text))


@dataclass(frozen=True)
class BlockParams:
    """Exponent law: constant c (an mpf in (0, 1/2)), offset, optional taper."""

    c: mpmath.mpf
    offset: int = -3
    taper: bool = False
    # upper_edge(k) by k: a generation works out each edge twice, and a
    # Monte-Carlo survey once per trial.
    _edges: dict[int, int] = field(default_factory=dict, init=False, repr=False,
                                   compare=False)

    @property
    def k_min(self) -> int:
        """First block index: 2 for the plain law, 3 for the tapered one."""
        return 3 if self.taper else 2

    def taper_factor(self, k: int):
        """1 - 1/sqrt(ln k); negative when ln k < 1."""
        if k < 2:
            raise ValueError(f"taper undefined at k = {k}")
        with mpmath.workprec(PRECISION):
            return 1 - 1 / mpmath.sqrt(mpmath.log(k))

    def exponent(self, k: int):
        """E(k), an mpf at the working precision."""
        with mpmath.workprec(PRECISION):
            e = self.c * k * k
            if self.taper:
                e *= self.taper_factor(k)
            return e + self.offset

    def upper_edge(self, k: int) -> int:
        """floor(2^E(k)): the largest integer allowed into block k."""
        if k not in self._edges:
            self._edges[k] = pow2_floor(self.exponent(k))
        return self._edges[k]


def sidon_params(c: mpmath.mpf | None = None, offset: int = -3) -> BlockParams:
    """Plain exponent law E(k) = c k^2 + offset starting at block 2."""
    return BlockParams(c=c or const_sqrt5(), offset=offset)


def tapered_params(h: int) -> BlockParams:
    """Tapered law E(k) = c k^2 (1 - 1/sqrt(ln k)) starting at block 3."""
    return BlockParams(c=const_window(h), offset=0, taper=True)


def block_of_prime(n: int, params: BlockParams) -> int:
    """The block whose block_edges hold the integer norm n: the unique
    k >= k_min with upper_edge(k-1) < n <= upper_edge(k). Exact at any size
    of n, or PrecisionAmbiguity where an edge it passes cannot be floored,
    as generation raises there."""
    k = params.k_min
    if n <= max(params.upper_edge(k - 1), 1):
        raise ValueError(f"{n} at or below the lower edge of block {k}")
    while n > params.upper_edge(k):
        k += 1
    return k


def block_edges(k: int, params: BlockParams) -> tuple[int, int]:
    """(lo, hi): block k holds the integers n with lo < n <= hi, lo >= 1.
    Empty when the edges pinch below 2 (hi <= lo)."""
    if k < params.k_min:
        raise ValueError(f"block index {k} below k_min = {params.k_min}")
    return max(params.upper_edge(k - 1), 1), params.upper_edge(k)


def primes_in_block(k: int, params: BlockParams) -> list[int]:
    """Primes of block k, ascending."""
    return INTEGERS.irreducibles(*block_edges(k, params))
