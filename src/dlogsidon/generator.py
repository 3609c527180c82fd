"""Sequence prefixes: all elements of blocks k_min..k_max, plus the finite
single-modulus construction.

Generation streams one block of irreducibles at a time: the basis ring
lists those whose norm lies between the block's integer edges (the primes
between them over Z, the irreducibles of the degrees d with 2^d between
them over GF(2)[X]). Irreducibles equal to a basis modulus carry no digit
vector; they are recorded as exclusions, not elements.

A block is encoded a basis index j at a time, as numpy columns over its
irreducibles (_ROWS of them at a time): residues mod q_j, their discrete
logs, their window lifts.
The logs come from a full log table of (g_j, q_j) once some block has at
least isqrt(N_j) irreducibles (N_j the norm of q_j), the point where
N_j - 1 table steps cost no more than that many BSGS searches of up to
sqrt(N_j) steps each. Smaller blocks keep BSGS, so a sparse prefix over a
large basis builds no big tables. encoder.element_in_block is the same
element for one irreducible, and the tests' per-irreducible oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import isqrt
from operator import attrgetter, mul

import numpy as np

from .arith import INTEGERS, prime_count
from .basis import Basis
from .blocks import BlockParams, block_edges
from .encoder import SidonElement
from .errors import ConsistencyError, PrefixTooShort

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
    in the windows of the basis order h, plus the block irreducibles equal
    to a basis modulus as exclusions."""
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
        block = []
        for lo in range(0, len(ps), _ROWS):
            encoded, dropped = _encode_rows(ps[lo:lo + _ROWS], k, basis, tables)
            block += encoded
            excluded += dropped
        block.sort(key=attrgetter("value"))
        elements += block
    return SequencePrefix(k_max=k_max, elements=elements, excluded=excluded,
                          block_sizes=block_sizes, basis=basis, params=params)


def _encode_rows(ps: list[int], k: int, basis: Basis, tables: dict[int, np.ndarray]
                 ) -> tuple[list[SidonElement], list[ExclusionRecord]]:
    """The elements and exclusions of irreducibles ps of block k, ascending:
    element_in_block for each of them, worked a basis index at a time.
    Column j is their residues mod q_j as one int64 column, the logs of
    those by one gather from tables[j] (or by BSGS, one residue at a time,
    where the block sizes built no table), and one window lift. A zero
    residue at j drops that irreducible from the later columns and makes
    it an exclusion of index j, the first j at which element_in_block would
    raise. The value of each digit row is summed with Python ints and
    checked against the rails W_k N_k < a < W_(k+1)."""
    ring, h = basis.ring, basis.h
    col = np.array(ps, dtype=np.int64)
    columns, dropped = [], []
    for j, (q, g, n) in enumerate(basis.moduli(k), start=1):
        residues = ring.reduce_column(col, q)
        zero = residues == 0
        if zero.any():
            dropped += [(p, j) for p in col[zero].tolist()]
            keep = ~zero
            col, residues = col[keep], residues[keep]
            columns = [x[keep] for x in columns]
        if j in tables:
            logs = tables[j][residues].astype(np.int64)
        else:
            logs = np.array([ring.dlog(g, r, q) for r in residues.tolist()], dtype=np.int64)
        lo = (h - 1) * n + 1
        columns.append(lo + (logs - lo) % (n - 1))  # lift_to_window, column-wide
    weights = [basis.weight(j) for j in range(1, k + 1)]
    upper = basis.weight(k + 1)
    lower = upper // basis.scale
    elements = []
    for p, digits in zip(col.tolist(), zip(*[x.tolist() for x in columns])):
        value = sum(map(mul, digits, weights))
        if not lower < value < upper:
            raise ConsistencyError(f"element of {p} escaped (W_k N_k, W_k+1): {value}")
        elements.append(SidonElement(p=p, k=k, digits=digits, value=value))
    return elements, [ExclusionRecord(p=p, k=k, basis_index=j) for p, j in sorted(dropped)]


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
