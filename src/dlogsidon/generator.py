"""Sequence prefixes: all elements of blocks k_min..k_max, plus the finite
single-modulus construction.

Generation streams one block of irreducibles at a time: the basis ring
lists those whose norm lies between the block's integer edges (the primes
between them over Z, the irreducibles of the degrees d with 2^d between
them over GF(2)[X]). Block k's exclusions are its basis moduli: the q_j,
j <= k, that it lists carry no digit vector and are recorded, in block
order, instead of encoded.

The block's other irreducibles go to encoder.encode_rows, _ROWS of them at
a time. The logs of column j come from a full log table of (g_j, q_j) once
some block has at least isqrt(N_j) irreducibles (N_j the norm of q_j), the
point where N_j - 1 table steps cost no more than that many searches of up
to sqrt(N_j) steps each, the most a log by ring.dlog takes (when N_j - 1 is
prime). Smaller blocks take ring.dlog, so a sparse prefix over a large
basis builds no big tables.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import isqrt
from operator import attrgetter

import numpy as np

from .arith import INTEGERS, prime_count
from .basis import Basis
from .blocks import BlockParams, block_edges
from .encoder import SidonElement, encode_rows
from .errors import PrefixTooShort

# Irreducibles encoded together: their digit columns, as int64 arrays and
# then as lists, are all the generator holds beside the elements it built.
_ROWS = 1 << 14


@dataclass(frozen=True)
class ExclusionRecord:
    p: int
    k: int
    basis_index: int

    def to_json_obj(self) -> dict:
        return {"p": self.p, "k": self.k, "basis_index": self.basis_index}


@dataclass
class SequencePrefix:
    """Elements of blocks params.k_min..k_max sorted by (block, value)."""

    k_max: int
    elements: list[SidonElement]
    excluded: list[ExclusionRecord]
    block_sizes: dict[int, int]
    basis: Basis
    params: BlockParams
    _values: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        vals = [e.value for e in self.elements]
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("element values must be strictly increasing")
        self._values = vals

    def values(self) -> list[int]:
        return list(self._values)

    def covered_bound(self) -> int:
        """Largest x for which counting against this prefix is complete."""
        return self.basis.weight(self.k_max + 1)

    def block_elements(self, k: int) -> list[SidonElement]:
        return [e for e in self.elements if e.k == k]

    def summaries(self) -> list[dict]:
        out = []
        for k in range(self.params.k_min, self.k_max + 1):
            vals = [e.value for e in self.elements if e.k == k]
            out.append({
                "k": k,
                "block_size": self.block_sizes.get(k, 0),
                "excluded": sum(1 for x in self.excluded if x.k == k),
                "min_value": str(vals[0]) if vals else None,
                "max_value": str(vals[-1]) if vals else None,
            })
        return out


def generate_blocks(k_max: int, params: BlockParams, basis: Basis) -> SequencePrefix:
    """Every element of blocks k_min..k_max over the basis ring, with digits
    in the windows of the basis order h, plus each block's basis moduli
    q_j (j <= k) as exclusions.

    Block k is the ring's listing between the integer edges
    floor(2^E(k-1)) < N(p) <= floor(2^E(k)) of blocks.block_edges, which
    decide membership exactly in both rings: an integer norm is at most 2^E
    iff it is at most floor(2^E). pow2_floor fixes each edge by comparing
    integers with 2^E itself, evaluated with the working precision past its
    integer part, and raises PrecisionAmbiguity instead of returning an edge
    within 2^-64 of 2^E; so membership needs no per-irreducible guard at any
    size of p."""
    ring = basis.ring
    # The first block past the ring's listing limit (sieve width over Z,
    # degree over GF(2)[X]) fails here, before any block is listed and before
    # the wider edges after it are worked out; so do a k_max below k_min and
    # a basis too short for k_max.
    edges = {}
    for k in range(min(k_max, params.k_min), k_max + 1):
        edges[k] = block_edges(k, params)
        ring.check_listing(*edges[k])
    basis.ensure(k_max)
    tables: dict[int, np.ndarray] = {}
    elements: list[SidonElement] = []
    excluded: list[ExclusionRecord] = []
    block_sizes: dict[int, int] = {}
    for k in range(params.k_min, k_max + 1):
        ps = ring.irreducibles(*edges[k])
        block_sizes[k] = len(ps)
        for j, (q, g, n) in enumerate(basis.moduli(k), start=1):
            if j not in tables and len(ps) >= isqrt(n):
                tables[j] = ring.log_table(g, q)
        # The listed size, exclusions included, chose the tables.
        index = {q: j for j, (q, _, _) in enumerate(basis.moduli(k), start=1)}
        excluded += [ExclusionRecord(p=p, k=k, basis_index=index[p]) for p in ps if p in index]
        ps = [p for p in ps if p not in index]
        block = []
        for lo in range(0, len(ps), _ROWS):
            block += encode_rows(ps[lo:lo + _ROWS], k, basis, tables)
        block.sort(key=attrgetter("value"))
        elements += block
    return SequencePrefix(k_max=k_max, elements=elements, excluded=excluded,
                          block_sizes=block_sizes, basis=basis, params=params)


def count_upto(x: int, prefix: SequencePrefix) -> int:
    """A(x) = #{elements <= x}. Only sound up to the covered bound."""
    if x < 0:
        return 0
    if x > prefix.covered_bound():
        raise PrefixTooShort(
            f"count at {x} exceeds the covered bound {prefix.covered_bound()}")
    return bisect_right(prefix._values, x)


# {dlog_g(p) : p prime, p <= sqrt(q)} in Z_(q-1), a Sidon set: the finite
# construction over Z.
finite_dlog_sidon_set = INTEGERS.finite_sidon


def expected_finite_size(q: int) -> int:
    return prime_count(isqrt(q))
