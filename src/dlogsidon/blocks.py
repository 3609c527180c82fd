"""Partition of the primes into blocks by an exponent law.

Block k holds the primes p with E(k-1) < log2(p) <= E(k), where

    E(k) = c * k^2 * taper(k) + offset

for a constant 0 < c < 1/2. The plain law uses taper(k) = 1 and offset -3;
the tapered law uses taper(k) = 1 - 1/sqrt(ln k) and offset 0. All edge
decisions go through the guard-banded comparisons in _precision, so a
prime near an edge raises PrecisionAmbiguity instead of being misassigned.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from ._precision import PRECISION, cmp_log2, pow2_floor
from .arith import PrimeInterval, primes_in_interval


@dataclass(frozen=True)
class Constant:
    """A named constant in (0, 1/2), evaluated fresh at the working precision."""

    name: str
    kind: str
    payload: int | str | None = None

    def eval(self):
        with mpmath.workprec(PRECISION):
            if self.kind == "sqrt5":
                value = (3 - mpmath.sqrt(5)) / 2
            elif self.kind == "sqrt2":
                value = mpmath.sqrt(2) - 1
            elif self.kind == "window":
                h = self.payload
                value = mpmath.sqrt((h - 1) ** 2 + 1) - (h - 1)
            elif self.kind == "decimal":
                value = mpmath.mpf(self.payload)
            else:
                raise ValueError(f"unknown constant kind {self.kind!r}")
            if not 0 < value < mpmath.mpf(1) / 2:
                raise ValueError(f"constant {self.name} = {value} outside (0, 1/2)")
            return value


def const_sqrt5() -> Constant:
    """(3 - sqrt 5)/2, the exact-Sidon exponent constant."""
    return Constant("sqrt5", "sqrt5")


def const_sqrt2() -> Constant:
    """sqrt 2 - 1, the densest pruned-Sidon exponent constant."""
    return Constant("sqrt2", "sqrt2")


def const_window(h: int) -> Constant:
    """sqrt((h-1)^2 + 1) - (h - 1), the h-fold-sum exponent constant."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    return Constant(f"window{h}", "window", h)


def const_decimal(text: str) -> Constant:
    return Constant(text, "decimal", text)


@dataclass(frozen=True)
class BlockParams:
    """Exponent law: constant, offset, optional taper."""

    c: Constant
    offset: int = -3
    taper: bool = False

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
            e = self.c.eval() * k * k
            if self.taper:
                e *= self.taper_factor(k)
            return e + self.offset

    def upper_edge(self, k: int) -> int:
        """floor(2^E(k)): the largest integer allowed into block k."""
        return pow2_floor(self.exponent(k))


def sidon_params(c: Constant | None = None, offset: int = -3) -> BlockParams:
    """Plain exponent law E(k) = c k^2 + offset starting at block 2."""
    return BlockParams(c=c or const_sqrt5(), offset=offset)


def tapered_params(h: int) -> BlockParams:
    """Tapered law E(k) = c k^2 (1 - 1/sqrt(ln k)) starting at block 3."""
    return BlockParams(c=const_window(h), offset=0, taper=True)


def block_of_prime(p: int, params: BlockParams) -> int:
    """The unique k >= k_min with E(k-1) < log2(p) <= E(k)."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if cmp_log2(p, params.exponent(params.k_min - 1)) <= 0:
        raise ValueError(f"{p} at or below the lower edge of block {params.k_min}")
    k = params.k_min
    while cmp_log2(p, params.exponent(k)) > 0:
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
    lo, hi = block_edges(k, params)
    return primes_in_interval(PrimeInterval(lo, hi)) if hi > lo else []
